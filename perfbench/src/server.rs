//! A real `lovm serve` child process and the TCP clients that drive it.

use crate::gen::{bid_request, Arrival};
use crate::market::{COMPACT_EVERY, SERVE_ARGS, SESSION, SNAPSHOT_EVERY};
use crate::stats::Samples;
use lovm_core::serve::SealedOutcome;
use metrics::json::JsonValue;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long a request may go unanswered before it counts as failed.
pub const RESPONSE_TIMEOUT: Duration = Duration::from_secs(10);

/// A `lovm serve` child. Dropping it kills the process and waits for it.
pub struct ServerChild {
    child: Child,
    // Held open: the server prints after `listening on`, and a closed pipe
    // would kill it on that write.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl ServerChild {
    /// Starts `lovm serve` journaling under `journal_dir`, with every
    /// setting it reads from the environment pinned and nothing inherited.
    pub fn spawn(lovm: &Path, journal_dir: &Path, threads: usize) -> std::io::Result<ServerChild> {
        let mut cmd = Command::new(lovm);
        cmd.env_clear();
        // The allocator settings `run.py` pins apply to the server too.
        if let Some(tunables) = std::env::var_os("GLIBC_TUNABLES") {
            cmd.env("GLIBC_TUNABLES", tunables);
        }
        let mut child = cmd
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(SERVE_ARGS)
            .env("LOVM_JOURNAL", journal_dir)
            .env("LOVM_SNAPSHOT_EVERY", SNAPSHOT_EVERY.to_string())
            .env("LOVM_COMPACT", COMPACT_EVERY.to_string())
            .env("LOVM_SHARDS", "1")
            .env("LOVM_THREADS", threads.to_string())
            .env("LOVM_DEADLINE", "1")
            .env("LOVM_LATE_POLICY", "drop")
            .env("LOVM_BUFFER", "65536")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stdout.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(std::io::Error::other("lovm serve exited before listening"));
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                break addr.to_string();
            }
        };
        Ok(ServerChild {
            child,
            _stdout: stdout,
            addr,
        })
    }

    pub fn peak_rss_mb(&self) -> Option<f64> {
        crate::market::peak_rss_mb(&self.child.id().to_string())
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One client connection, one JSON line per request and response.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// The `welcome` a session answers `hello` with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Welcome {
    pub rounds: usize,
    pub digest: u64,
}

impl Conn {
    pub fn connect(addr: &str) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
        writer.set_write_timeout(Some(RESPONSE_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(writer.try_clone()?),
            writer,
        })
    }

    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())
    }

    /// The next response line; a timeout or a closed connection is an error.
    pub fn recv(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(line)
    }

    pub fn hello(&mut self) -> std::io::Result<Welcome> {
        self.send(&format!(
            "{{\"cmd\":\"hello\",\"session\":\"{SESSION}\"}}\n"
        ))?;
        let line = self.recv()?;
        let v = JsonValue::parse(&line).map_err(|e| std::io::Error::other(e.message))?;
        let welcome = (|| {
            if v.get("event")?.as_str()? != "welcome" {
                return None;
            }
            Some(Welcome {
                rounds: v.get("rounds")?.as_usize()?,
                digest: journal::u64_from_hex(v.get("digest")?.as_str()?)?,
            })
        })();
        welcome.ok_or_else(|| std::io::Error::other(format!("bad welcome: {}", line.trim())))
    }
}

/// Starts a server on a fresh journal and opens the session; returns the
/// server, the connection and the spawn-to-welcome time in seconds.
pub fn start_session(
    lovm: &Path,
    dir: &Path,
    threads: usize,
) -> std::io::Result<(ServerChild, Conn, f64, Welcome)> {
    let t0 = Instant::now();
    std::fs::create_dir_all(dir)?;
    let server = ServerChild::spawn(lovm, dir, threads)?;
    let mut conn = Conn::connect(&server.addr)?;
    let welcome = conn.hello()?;
    Ok((server, conn, t0.elapsed().as_secs_f64(), welcome))
}

/// What a `sealed` response reports about a round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sealed {
    pub round: usize,
    pub digest: u64,
    pub welfare: f64,
    pub spend: f64,
}

pub fn parse_sealed(line: &str) -> Option<Sealed> {
    let v = JsonValue::parse(line).ok()?;
    if v.get("event")?.as_str()? != "sealed" {
        return None;
    }
    Some(Sealed {
        round: v.get("round")?.as_usize()?,
        digest: journal::u64_from_hex(v.get("digest")?.as_str()?)?,
        welfare: v.get("welfare")?.as_f64()?,
        spend: v.get("spend")?.as_f64()?,
    })
}

/// Served seals that differ, bit for bit, from the in-process reference
/// (or have no reference at all).
pub fn seal_mismatches(served: &[Sealed], reference: &[SealedOutcome]) -> u64 {
    let mut bad = served.len().abs_diff(reference.len()) as u64;
    for (s, r) in served.iter().zip(reference) {
        let same = s.round == r.round
            && s.digest == r.digest
            && s.welfare.to_bits() == r.outcome.virtual_welfare.to_bits()
            && s.spend.to_bits() == r.outcome.total_payment().to_bits();
        if !same {
            bad += 1;
        }
    }
    bad
}

/// An acknowledgement that stored the bid. Anything else — an error,
/// a shed or blocked admission — is a failed bid.
fn bid_stored(line: &str) -> bool {
    line.contains("\"event\":\"bid\"") && line.contains("\"admission\":\"stored\"")
}

/// Which rounds a client sends.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// Start rounds until this instant (finishing the round in flight),
    /// and at least `min_rounds` of them.
    Deadline { at: Instant, min_rounds: usize },
    /// Send rounds up to (not including) this index.
    Round(usize),
}

impl Until {
    fn more(self, round: usize) -> bool {
        match self {
            Until::Deadline { at, min_rounds } => round < min_rounds || Instant::now() < at,
            Until::Round(r) => round < r,
        }
    }
}

/// Consecutive acks whose p99 is one `bid_p99_us` sample: 10 lie beyond
/// it. A round of 1000 bids is one block; a 4096-bid round holds four,
/// so a 40 ms delayed-ACK stall of one window counts once in four blocks
/// rather than setting the p99 of its whole round.
pub const P99_BLOCK: u64 = 1000;

/// What a client run observed.
#[derive(Debug)]
pub struct ClientRun {
    pub bid_rtt_us: Samples,
    pub seal_rtt_ms: Samples,
    /// Per round: stored bids ÷ time since the previous `sealed` response.
    pub round_rate: Samples,
    /// Per block of [`P99_BLOCK`] consecutive acks of a round: their p99.
    pub block_p99_us: Samples,
    block_bids: Samples,
    round_stored: u64,
    last_sealed: Instant,
    pub sealed: Vec<Sealed>,
    /// Requests sent, and those that failed (refused, errored, unanswered).
    pub attempted: u64,
    pub failed: u64,
    pub stored_bids: u64,
    pub rounds_sent: usize,
    pub wall_s: f64,
}

impl ClientRun {
    fn new() -> ClientRun {
        ClientRun {
            bid_rtt_us: Samples::default(),
            seal_rtt_ms: Samples::default(),
            round_rate: Samples::default(),
            block_p99_us: Samples::default(),
            block_bids: Samples::default(),
            round_stored: 0,
            last_sealed: Instant::now(),
            sealed: Vec::new(),
            attempted: 0,
            failed: 0,
            stored_bids: 0,
            rounds_sent: 0,
            wall_s: 0.0,
        }
    }

    /// Adds a later run on the same connection to this one.
    pub fn absorb(&mut self, later: ClientRun) {
        self.bid_rtt_us.extend(&later.bid_rtt_us);
        self.seal_rtt_ms.extend(&later.seal_rtt_ms);
        self.round_rate.extend(&later.round_rate);
        self.block_p99_us.extend(&later.block_p99_us);
        self.sealed.extend(later.sealed);
        self.attempted += later.attempted;
        self.failed += later.failed;
        self.stored_bids += later.stored_bids;
        self.rounds_sent += later.rounds_sent;
        self.wall_s += later.wall_s;
    }

    /// Wall time per bid spent outside seals.
    pub fn bid_wall_us(&self) -> f64 {
        let seals_s: f64 = self.seal_rtt_ms.sum() / 1e3;
        (self.wall_s - seals_s) * 1e6 / self.stored_bids.max(1) as f64
    }

    fn record(&mut self, kind: Request, rtt: Duration, line: &str) {
        match kind {
            Request::Bid => {
                self.bid_rtt_us.push(rtt.as_secs_f64() * 1e6);
                self.block_bids.push(rtt.as_secs_f64() * 1e6);
                if self.block_bids.count() == P99_BLOCK {
                    let block = std::mem::take(&mut self.block_bids);
                    if let Some(p99) = block.percentile(0.99) {
                        self.block_p99_us.push(p99);
                    }
                }
                if bid_stored(line) {
                    self.stored_bids += 1;
                    self.round_stored += 1;
                } else {
                    self.failed += 1;
                }
            }
            Request::Seal(round) => {
                self.seal_rtt_ms.push(rtt.as_secs_f64() * 1e3);
                let now = Instant::now();
                let period = now.duration_since(self.last_sealed).as_secs_f64();
                self.last_sealed = now;
                self.round_rate.push(self.round_stored as f64 / period);
                // A block does not span rounds.
                self.block_bids = Samples::default();
                self.round_stored = 0;
                match parse_sealed(line) {
                    Some(s) if s.round == round => self.sealed.push(s),
                    _ => self.failed += 1,
                }
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Request {
    Bid,
    Seal(usize),
}

const SEAL_REQUEST: &str = "{\"cmd\":\"seal\"}\n";

/// The arrivals of round `r`.
pub type Source<'a> = &'a (dyn Fn(usize) -> Vec<Arrival> + Sync);

/// Up to `window` requests in flight on one connection: a sender thread
/// writes requests while this thread reads the in-order responses. Window
/// 1 is lock-step, as `lovm drive` sends: each round's bids, then `seal`.
pub fn pipelined(
    conn: &mut Conn,
    source: Source<'_>,
    window: usize,
    from: usize,
    until: Until,
) -> ClientRun {
    let mut run = ClientRun::new();
    let start = Instant::now();
    let (meta_tx, meta_rx) = mpsc::channel::<(Request, Instant)>();
    let (slot_tx, slot_rx) = mpsc::sync_channel::<()>(window);
    let writer = &mut conn.writer;
    let reader = &mut conn.reader;
    let (sent, rounds) = std::thread::scope(|s| {
        let sender = s.spawn(move || {
            let mut sent = 0u64;
            let mut round = from;
            while until.more(round) {
                let lines = source(round).iter().map(bid_request).collect::<Vec<_>>();
                let requests = lines
                    .iter()
                    .map(|l| (Request::Bid, l.as_str()))
                    .chain(std::iter::once((Request::Seal(round), SEAL_REQUEST)));
                for (kind, line) in requests {
                    // A full window blocks here; a gone receiver ends the run.
                    if slot_tx.send(()).is_err() || meta_tx.send((kind, Instant::now())).is_err() {
                        return (sent, round - from);
                    }
                    sent += 1;
                    if writer.write_all(line.as_bytes()).is_err() {
                        return (sent, round - from);
                    }
                }
                round += 1;
            }
            (sent, round - from)
        });
        let mut line = String::new();
        for (kind, t0) in meta_rx.iter() {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(n) if n > 0 => run.record(kind, t0.elapsed(), &line),
                _ => break,
            }
            if slot_rx.recv().is_err() {
                break;
            }
        }
        drop(slot_rx);
        drop(meta_rx);
        sender.join().expect("sender thread panicked")
    });
    let answered = run.bid_rtt_us.count() + run.seal_rtt_ms.count();
    run.attempted = sent;
    run.failed += sent - answered;
    run.rounds_sent = rounds;
    run.wall_s = start.elapsed().as_secs_f64();
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(round: usize, digest: u64) -> SealedOutcome {
        SealedOutcome {
            round,
            stats: Default::default(),
            outcome: auction::AuctionOutcome::new(Vec::new(), 1.5),
            backlog: 0.0,
            digest,
        }
    }

    #[test]
    fn corrupted_digest_fails_the_serve_check() {
        let reference = vec![outcome(0, 0xfeed), outcome(1, 0xbeef)];
        // Rendered the way `lovm serve` renders a `sealed` response.
        let line = |r: &SealedOutcome| {
            JsonValue::object()
                .field("event", "sealed")
                .field("round", r.round)
                .field("welfare", r.outcome.virtual_welfare)
                .field("spend", r.outcome.total_payment())
                .field("digest", journal::u64_hex(r.digest))
                .to_string()
        };
        let good: Vec<Sealed> = reference
            .iter()
            .map(|r| parse_sealed(&line(r)).expect("well-formed"))
            .collect();
        assert_eq!(seal_mismatches(&good, &reference), 0);
        let mut corrupted = good.clone();
        corrupted[1].digest ^= 1;
        assert_eq!(seal_mismatches(&corrupted, &reference), 1);
        assert_eq!(
            seal_mismatches(&good[..1], &reference),
            1,
            "a missing seal fails too"
        );
    }

    #[test]
    fn only_stored_admissions_count_as_acked() {
        assert!(bid_stored(
            "{\"event\":\"bid\",\"seq\":3,\"admission\":\"stored\"}"
        ));
        assert!(!bid_stored(
            "{\"event\":\"bid\",\"seq\":3,\"admission\":\"shed\"}"
        ));
        assert!(!bid_stored(
            "{\"event\":\"error\",\"message\":\"bad json\"}"
        ));
    }
}
