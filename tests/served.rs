//! The served market end to end, against real `lovm` processes: a
//! follower promoted after its leader's SIGKILL continues byte-identically
//! with a run that was never interrupted, and a follower that never reads
//! costs its leader no memory.
//!
//! Each child runs with a pinned environment. Readiness is the child's
//! own `listening on` stdout line, and `Child::kill` is the SIGKILL.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
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
        let mut server = Lovm::spawn(lovm(journal, compact).args([
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
/// left unsealed with `partial`); returns its stdout.
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
    let out = cmd.stderr(Stdio::null()).output().unwrap();
    assert!(
        out.status.success(),
        "drive {from}..{to} against {addr} failed"
    );
    String::from_utf8(out.stdout).unwrap()
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
