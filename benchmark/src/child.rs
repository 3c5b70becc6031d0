//! Child processes: the `pg-hive` binaries under test, their peak RSS,
//! and the temp root everything a run writes lives under.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};

/// How often a child's `/proc/<pid>/status` is sampled.
const RSS_POLL: Duration = Duration::from_millis(20);

/// Grace between SIGINT and SIGKILL when reaping a server.
const REAP_GRACE: Duration = Duration::from_secs(5);

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}
const SIGINT: i32 = 2;

fn interrupt(child: &Child) {
    // SAFETY: `kill` takes two plain integers and touches no memory of
    // ours. The pid is a child we spawned and have not yet waited on,
    // so it cannot have been recycled for another process.
    unsafe {
        kill(child.id() as i32, SIGINT);
    }
}

/// A directory removed — with everything under it — when dropped, so
/// corpora and state dirs never outlive a run, failed or not.
pub struct TempRoot(PathBuf);

impl TempRoot {
    /// `<target>/bench-tmp/<pid>` beside the running executable: inside
    /// the checkout, never under the system temp dir.
    pub fn create() -> std::io::Result<TempRoot> {
        let exe = std::env::current_exe()?;
        let base = exe
            .parent()
            .and_then(Path::parent)
            .unwrap_or(Path::new("."));
        let dir = base.join("bench-tmp").join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(TempRoot(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// A fresh, empty subdirectory.
    pub fn fresh(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `VmHWM` (peak resident set, kB) out of a `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// Sample `pid`'s VmHWM every [`RSS_POLL`] until `done` hangs up; returns
/// the largest value seen, in MB. The kernel's high-water mark only
/// grows, so sampling can miss nothing but the last 20 ms.
fn poll_peak_rss_mb(pid: u32, done: &Receiver<()>) -> f64 {
    let path = format!("/proc/{pid}/status");
    let mut peak_kb = 0u64;
    loop {
        if let Some(kb) = std::fs::read_to_string(&path)
            .ok()
            .as_deref()
            .and_then(parse_vm_hwm_kb)
        {
            peak_kb = peak_kb.max(kb);
        }
        // Waking on the hang-up instead of sleeping out the interval
        // keeps the poller's period out of the caller's wall time.
        if done.recv_timeout(RSS_POLL) != Err(RecvTimeoutError::Timeout) {
            return peak_kb as f64 / 1024.0;
        }
    }
}

/// Run `body` while a second thread samples `pid`'s peak RSS.
pub fn with_rss_poll<T>(pid: u32, body: impl FnOnce() -> T) -> (T, f64) {
    let (hang_up, done) = channel::<()>();
    std::thread::scope(|s| {
        let poller = s.spawn(move || poll_peak_rss_mb(pid, &done));
        let out = body();
        drop(hang_up);
        let rss = poller.join().expect("rss poller does not panic");
        (out, rss)
    })
}

/// What one finished child reported.
pub struct ChildRun {
    pub status: ExitStatus,
    pub peak_rss_mb: f64,
    pub stderr: String,
}

/// Spawn `cmd`, wait for it, and sample its peak RSS meanwhile.
pub fn run_to_exit(cmd: &mut Command) -> std::io::Result<ChildRun> {
    cmd.stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    let mut child = cmd.spawn()?;
    let (status, peak_rss_mb) = with_rss_poll(child.id(), || child.wait());
    let mut stderr = String::new();
    if let Some(mut pipe) = child.stderr.take() {
        let _ = std::io::Read::read_to_string(&mut pipe, &mut stderr);
    }
    Ok(ChildRun {
        status: status?,
        peak_rss_mb,
        stderr,
    })
}

/// A running `pg-hive serve` child. Dropping it reaps the process —
/// SIGINT, then SIGKILL after [`REAP_GRACE`] — so a failed run cannot
/// leave a listener behind.
pub struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    pub startup: Duration,
}

impl Server {
    /// Spawn `pg-hive serve` on an ephemeral port with a durable state
    /// dir and block until it announces `listening on IP:PORT`.
    pub fn start(pg_hive: &Path, state_dir: &Path) -> Result<Server, String> {
        let start = Instant::now();
        let mut child = Command::new(pg_hive)
            .args(["serve", "--addr", "127.0.0.1:0", "--state-dir"])
            .arg(state_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", pg_hive.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(n) if n > 0 => line
                .trim()
                .strip_prefix("listening on ")
                .and_then(|a| a.parse().ok()),
            _ => None,
        };
        let mut server = Server {
            child,
            stdout,
            addr: "0.0.0.0:0".parse().expect("literal parses"),
            startup: start.elapsed(),
        };
        match addr {
            Some(addr) => {
                server.addr = addr;
                Ok(server)
            }
            None => {
                let status = server.reap();
                Err(format!(
                    "pg-hive serve never announced its address (said {line:?}, exit {status:?})"
                ))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGINT the server and wait for it: returns how long the drain
    /// (final checkpoint included) took and whether it exited 0 having
    /// reported a clean shutdown.
    pub fn drain(mut self) -> (Duration, bool) {
        let start = Instant::now();
        let status = self.reap();
        let drain = start.elapsed();
        let mut tail = String::new();
        let _ = std::io::Read::read_to_string(&mut self.stdout, &mut tail);
        let clean = status.is_some_and(|s| s.success()) && tail.contains("shut down cleanly");
        (drain, clean)
    }

    /// Idempotent: SIGINT, poll for exit, SIGKILL after the grace.
    fn reap(&mut self) -> Option<ExitStatus> {
        if let Ok(Some(status)) = self.child.try_wait() {
            return Some(status);
        }
        interrupt(&self.child);
        let deadline = Instant::now() + REAP_GRACE;
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return Some(status);
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let _ = self.child.kill();
        self.child.wait().ok()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.reap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_parsed_from_proc_status() {
        let status =
            "Name:\tpg-hive\nVmPeak:\t  300000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t  100000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(123456));
        assert_eq!(parse_vm_hwm_kb("Name:\tzombie\nState:\tZ (zombie)\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots kB\n"), None);
        // And from the real thing.
        let me = std::fs::read_to_string("/proc/self/status").unwrap();
        assert!(parse_vm_hwm_kb(&me).unwrap() > 0);
    }

    #[test]
    fn temp_root_is_removed_on_drop() {
        let root = TempRoot::create().unwrap();
        let sub = root.fresh("state").unwrap();
        std::fs::write(sub.join("f"), b"x").unwrap();
        let path = root.path().to_path_buf();
        assert!(path.is_dir());
        drop(root);
        assert!(!path.exists());
    }

    #[test]
    fn a_child_reports_wall_rss_and_status() {
        let run = run_to_exit(Command::new("sh").args(["-c", "echo oops >&2; exit 3"])).unwrap();
        assert_eq!(run.status.code(), Some(3));
        assert_eq!(run.stderr.trim(), "oops");
    }
}
