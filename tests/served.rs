//! The served market end to end, against real `lovm` processes: a server
//! restarted after a SIGKILL, and a follower promoted after its leader's,
//! each continue byte-identically with a run that was never interrupted;
//! hostile input is refused on its own connection while the same process
//! keeps serving; telemetry only observes; and a follower that never reads
//! costs its leader no memory.
//!
//! Each child runs with a pinned environment. Readiness is the child's
//! own `listening on` stdout line, and `Child::kill` is the SIGKILL.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::time::Duration;

const LOVM: &str = env!("CARGO_BIN_EXE_lovm");

/// How long a child gets to print an expected line.
const PATIENCE: Duration = Duration::from_secs(60);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lovm-served-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A `lovm` command journaling under `journal`, snapshotting every 2
/// sealed rounds and compacting every `compact` (0: never), with nothing
/// else inherited from the environment.
fn lovm(journal: &Path, compact: usize) -> Command {
    let mut cmd = Command::new(LOVM);
    cmd.env_clear()
        .env("LOVM_JOURNAL", journal)
        .env("LOVM_SNAPSHOT_EVERY", "2")
        .env("LOVM_COMPACT", compact.to_string())
        .stdin(Stdio::null());
    cmd
}

/// The lines a child writes to one pipe, read on their own thread so the
/// child never blocks on a full pipe.
fn lines(pipe: impl Read + Send + 'static) -> Receiver<String> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        for line in BufReader::new(pipe).lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    rx
}

/// A running `lovm serve` or `lovm follow`, killed on drop.
struct Lovm {
    child: Child,
    stdout: Receiver<String>,
    stderr: Receiver<String>,
}

impl Lovm {
    fn spawn(cmd: &mut Command) -> Lovm {
        let mut child = cmd
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        let stdout = lines(child.stdout.take().unwrap());
        let stderr = lines(child.stderr.take().unwrap());
        Lovm {
            child,
            stdout,
            stderr,
        }
    }

    /// `lovm serve --v 20 --budget 2` on an ephemeral port.
    fn serve(journal: &Path, compact: usize) -> (Lovm, String) {
        Lovm::serve_by(lovm(journal, compact))
    }

    /// `lovm serve --v 20 --budget 2` on an ephemeral port, run by `cmd`.
    fn serve_by(mut cmd: Command) -> (Lovm, String) {
        let mut server = Lovm::spawn(cmd.args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--v",
            "20",
            "--budget",
            "2",
        ]));
        let addr = server.listening();
        (server, addr)
    }

    /// Waits for the `listening on ADDR` line and returns ADDR.
    fn listening(&mut self) -> String {
        loop {
            let line = self
                .stdout
                .recv_timeout(PATIENCE)
                .expect("a `listening on` line");
            if let Some(addr) = line.strip_prefix("listening on ") {
                return addr.to_string();
            }
        }
    }
}

impl Drop for Lovm {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `lovm drive` of session `session`, rounds `from..to` (the last one
/// left unsealed with `partial`); returns its stdout. A drive that prints
/// nothing for [`PATIENCE`] fails the test: its server stopped answering.
fn drive(addr: &str, session: &str, from: usize, to: usize, partial: bool) -> String {
    let (from, to) = (from.to_string(), to.to_string());
    let mut cmd = Command::new(LOVM);
    cmd.args(["drive", "--addr", addr, "--session", session])
        .args([
            "--seed",
            "7",
            "--bidders",
            "6",
            "--from",
            &from,
            "--to",
            &to,
        ]);
    if partial {
        cmd.arg("--partial");
    }
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let stdout = lines(child.stdout.take().unwrap());
    let mut text = String::new();
    loop {
        match stdout.recv_timeout(PATIENCE) {
            Ok(line) => text += &(line + "\n"),
            Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {
                let _ = child.kill();
                panic!("drive {from}..{to} against {addr} hung");
            }
        }
    }
    assert!(
        child.wait().unwrap().success(),
        "drive {from}..{to} against {addr} failed"
    );
    text
}

fn with_event<'a>(text: &'a str, event: &str) -> Vec<&'a str> {
    let tag = format!("\"event\":\"{event}\"");
    text.lines().filter(|l| l.contains(&tag)).collect()
}

/// Rounds a follower's log line says its replica holds.
fn replica_rounds(line: &str) -> Option<usize> {
    let (_, rest) = line.split_once("replica at ")?;
    rest.split(' ').next()?.parse().ok()
}

/// A leader serves with compaction on and `lovm follow` replicates it.
/// The leader is SIGKILLed with a round's arrivals journaled but
/// unsealed, the follower promotes itself, and driving the promoted
/// server yields sealed and state lines byte-identical to a reference
/// run that was never interrupted.
#[test]
fn promoted_follower_continues_byte_identically() {
    let root = temp_dir("promote");
    let (reference, addr) = Lovm::serve(&root.join("ref"), 2);
    let expected = drive(&addr, "repl", 0, 8, false);
    drop(reference);

    let (leader, addr) = Lovm::serve(&root.join("leader"), 2);
    let mut follower = Lovm::spawn(lovm(&root.join("replica"), 2).args([
        "follow",
        "--addr",
        &addr,
        "--session",
        "repl",
        "--serve-addr",
        "127.0.0.1:0",
        "--v",
        "20",
        "--budget",
        "2",
    ]));
    let before = drive(&addr, "repl", 0, 4, false);
    // The replica holds all four sealed rounds before the leader dies.
    loop {
        let line = follower.stderr.recv_timeout(PATIENCE).unwrap();
        if replica_rounds(&line).is_some_and(|rounds| rounds >= 4) {
            break;
        }
    }
    drive(&addr, "repl", 4, 5, true);
    drop(leader);

    let promoted = follower.listening();
    let after = drive(&promoted, "repl", 0, 8, false);
    let mut sealed = with_event(&before, "sealed");
    sealed.extend(with_event(&after, "sealed"));
    assert_eq!(sealed, with_event(&expected, "sealed"));
    assert_eq!(sealed.len(), 8);
    assert_eq!(with_event(&after, "state"), with_event(&expected, "state"));
    drop(follower);
    std::fs::remove_dir_all(&root).ok();
}

/// Resident memory of process `pid`, in KiB.
fn vm_rss_kib(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap();
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("a VmRSS line");
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

/// A `follow` connection that never reads while 60 rounds of 2000 bids
/// seal: the leader's resident memory grows by less than 8 MiB from round
/// 6 to round 60.
#[test]
fn a_follower_that_never_reads_costs_the_leader_nothing() {
    let root = temp_dir("idle-follower");
    let (leader, addr) = Lovm::serve(&root.join("leader"), 0);
    let mut idle = TcpStream::connect(&addr).unwrap();
    idle.write_all(b"{\"cmd\":\"follow\",\"session\":\"idle\"}\n")
        .unwrap();

    let mut driver = Command::new(LOVM)
        .args(["drive", "--addr", &addr, "--session", "idle", "--seed", "7"])
        .args(["--bidders", "2000", "--from", "0", "--to", "60"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let stdout = BufReader::new(driver.stdout.take().unwrap());
    let (mut sealed, mut rss_kib) = (0, Vec::new());
    for line in stdout.lines() {
        if line.unwrap().contains("\"event\":\"sealed\"") {
            sealed += 1;
            if sealed == 6 || sealed == 60 {
                rss_kib.push(vm_rss_kib(leader.child.id()));
            }
        }
    }
    assert!(driver.wait().unwrap().success());
    assert_eq!(sealed, 60, "every round sealed");
    let growth = rss_kib[1].saturating_sub(rss_kib[0]);
    assert!(
        growth < 8 * 1024,
        "the leader grew {growth} KiB from round 6 ({} KiB) to round 60 ({} KiB)",
        rss_kib[0],
        rss_kib[1]
    );
    drop(idle);
    drop(leader);
    std::fs::remove_dir_all(&root).ok();
}

/// Session `smoke`, rounds 0..8, on a fresh server that is never
/// interrupted: the reference the served smokes compare against.
fn reference_run(root: &Path) -> String {
    let (reference, addr) = Lovm::serve(&root.join("ref"), 0);
    let expected = drive(&addr, "smoke", 0, 8, false);
    drop(reference);
    expected
}

/// A server is SIGKILLed with round 4's arrivals journaled but unsealed
/// and restarted from its journal. The drive client regenerates bids from
/// its seed, so driving again re-sends what the torn tail lost: the
/// sealed lines of both runs and the final state line are byte-identical
/// to an uninterrupted run.
#[test]
fn killed_server_recovers_byte_identically() {
    let root = temp_dir("kill-recover");
    let expected = reference_run(&root);
    let (server, addr) = Lovm::serve(&root.join("crash"), 0);
    let before = drive(&addr, "smoke", 0, 4, false);
    drive(&addr, "smoke", 4, 5, true);
    drop(server);

    let (server, addr) = Lovm::serve(&root.join("crash"), 0);
    let after = drive(&addr, "smoke", 0, 8, false);
    let mut sealed = with_event(&before, "sealed");
    sealed.extend(with_event(&after, "sealed"));
    assert_eq!(sealed, with_event(&expected, "sealed"));
    assert_eq!(with_event(&after, "state"), with_event(&expected, "state"));
    drop(server);
    std::fs::remove_dir_all(&root).ok();
}

/// Sends `lines` on a new connection and returns the first `replies`
/// response lines, each awaited at most 10 s.
fn exchange(addr: &str, lines: &[&str], replies: usize) -> Vec<String> {
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    for line in lines {
        conn.write_all(line.as_bytes()).unwrap();
        conn.write_all(b"\n").unwrap();
    }
    let mut reader = BufReader::new(conn);
    (0..replies)
        .map(|_| {
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("a reply within 10 s");
            reply
        })
        .collect()
}

/// One line of 300 000 `[` gets a named nesting error on its own
/// connection; it stays under the 1 MiB line cap, so it reaches the
/// parser. A session then bids at a negative arrival time, which gets an
/// error naming `at`, and seals. The same process then serves the
/// reference session byte-identically.
#[test]
fn hostile_input_is_refused_and_the_server_still_serves() {
    let root = temp_dir("hostile");
    let expected = reference_run(&root);
    let (mut server, addr) = Lovm::serve(&root.join("hostile"), 0);
    let nested = "[".repeat(300_000);
    let reply = exchange(&addr, &[&nested], 1);
    assert!(
        reply[0].contains(r#""event":"error""#) && reply[0].contains("nesting too deep"),
        "{reply:?}"
    );
    let negative = [
        r#"{"cmd":"hello","session":"hostile"}"#,
        r#"{"cmd":"bid","at":-1e-9,"bidder":0,"cost":1,"data":10,"quality":0.5}"#,
        r#"{"cmd":"seal"}"#,
    ];
    let replies = exchange(&addr, &negative, 3);
    assert!(
        replies[1].contains(r#""event":"error""#) && replies[1].contains("`at`"),
        "{replies:?}"
    );
    let after = drive(&addr, "smoke", 0, 8, false);
    assert!(
        server.child.try_wait().unwrap().is_none(),
        "lovm serve died after the hostile input"
    );
    assert_eq!(
        with_event(&after, "sealed"),
        with_event(&expected, "sealed")
    );
    drop(server);
    std::fs::remove_dir_all(&root).ok();
}

/// With `LOVM_TELEMETRY` on, a served session's client output is
/// byte-identical to the reference run, the server writes one valid
/// record per sealed round, and a `lovm top` frame shows the
/// `rounds.sealed` counter.
#[test]
fn telemetry_observes_a_served_session_without_changing_it() {
    let root = temp_dir("telemetry");
    let expected = reference_run(&root);
    let records = root.join("telemetry.jsonl");
    let mut cmd = lovm(&root.join("tel"), 0);
    cmd.env("LOVM_TELEMETRY", &records);
    let (server, addr) = Lovm::serve_by(cmd);
    assert_eq!(drive(&addr, "smoke", 0, 8, false), expected);
    let top = Command::new(LOVM)
        .args(["top", "--addr", &addr, "--frames", "1"])
        .output()
        .unwrap();
    assert!(top.status.success());
    let frame = String::from_utf8(top.stdout).unwrap();
    assert!(frame.contains("rounds.sealed"), "{frame}");
    drop(server);

    let check = Command::new(LOVM)
        .args(["telemetry-check", "--file"])
        .arg(&records)
        .output()
        .unwrap();
    assert!(
        check.status.success(),
        "{}",
        String::from_utf8_lossy(&check.stderr)
    );
    let written = std::fs::read_to_string(&records).unwrap();
    assert_eq!(written.lines().count(), 8, "one record per sealed round");
    std::fs::remove_dir_all(&root).ok();
}
