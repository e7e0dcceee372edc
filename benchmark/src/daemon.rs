//! Owning the things a run must not leave behind: the `connectit-serve`
//! child process and the scratch directories its WAL lives in. Both are
//! `Drop` guards, so a panic or an interrupted run still cleans up.

use crate::drive::INTERRUPTED;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};

/// A scratch directory, removed with everything in it on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates `<parent>/tmp-<pid>-<k>`.
    pub fn new(parent: &Path) -> io::Result<TempDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let k = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = parent.join(format!("tmp-{}-{k}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Bytes held by the files directly inside.
    pub fn bytes(&self) -> u64 {
        let entries = std::fs::read_dir(&self.0).into_iter().flatten().flatten();
        entries.filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A running `connectit-serve`, killed on drop.
pub struct Daemon {
    child: Child,
    /// Kept open so the daemon never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The front-door address it reported.
    pub addr: SocketAddr,
}

impl Daemon {
    /// Starts a durable primary on an ephemeral port — `--shards 2
    /// --net-shards 1 --fsync batch`, `CC_NUM_THREADS=2` — and returns once
    /// it has printed `listening on`.
    pub fn spawn(binary: &Path, n: usize, wal_dir: &Path) -> io::Result<Daemon> {
        let mut child = Command::new(binary)
            .args(["--n", &n.to_string(), "--shards", "2", "--net-shards", "1"])
            .args(["--fsync", "batch", "--port", "0", "--wal-dir"])
            .arg(wal_dir)
            .env("CC_NUM_THREADS", "2")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| io::Error::other(format!("cannot start {}: {e}", binary.display())))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stdout.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other("connectit-serve exited before listening"));
            }
            let addr = line.split("listening on ").nth(1).and_then(|rest| rest.split(' ').next());
            if let Some(addr) = addr.and_then(|a| a.parse().ok()) {
                break addr;
            }
        };
        Ok(Daemon { child, _stdout: stdout, addr })
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Daemon {
    /// SIGKILL, then reap.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Finds `connectit-serve`: `$CONNECTIT_SERVE`, else beside this
/// executable (where `run.sh` builds it, sharing one target directory).
pub fn find_daemon_binary() -> io::Result<PathBuf> {
    if let Some(path) = std::env::var_os("CONNECTIT_SERVE") {
        return Ok(PathBuf::from(path));
    }
    let beside = std::env::current_exe()?.with_file_name("connectit-serve");
    if beside.is_file() {
        return Ok(beside);
    }
    Err(io::Error::other(format!(
        "{} not found: run through benchmark/run.sh, or set CONNECTIT_SERVE",
        beside.display()
    )))
}

/// Routes SIGINT and SIGTERM to [`INTERRUPTED`], so a cancelled run winds
/// down through its `Drop` guards instead of orphaning the daemon.
pub fn trap_signals() {
    extern "C" fn on_signal(_sig: i32) {
        INTERRUPTED.store(true, Ordering::Relaxed);
    }
    extern "C" {
        fn signal(sig: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `signal` is the C library's, which std already links; the
    // handler only stores to an atomic, which is async-signal-safe.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

/// `Err` once a signal has arrived.
pub fn check_interrupted() -> io::Result<()> {
    if INTERRUPTED.load(Ordering::Relaxed) {
        return Err(io::Error::new(io::ErrorKind::Interrupted, "interrupted"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temp_dir_is_removed_even_on_panic() {
        let parent = std::env::temp_dir();
        let kept = std::panic::catch_unwind(|| {
            let dir = TempDir::new(&parent).unwrap();
            std::fs::write(dir.path().join("wal-0.log"), [0u8; 100]).unwrap();
            assert_eq!(dir.bytes(), 100);
            let path = dir.path().to_path_buf();
            std::panic::resume_unwind(Box::new(path));
        })
        .unwrap_err();
        let path = kept.downcast::<PathBuf>().unwrap();
        assert!(!path.exists());
    }

    #[test]
    fn daemon_guard_kills_the_child() {
        // Any long-lived program that prints the ready line will do.
        let script = "echo 'x listening on 127.0.0.1:9 role=primary'; exec sleep 600";
        let child = Command::new("sh").args(["-c", script]).stdout(Stdio::piped()).spawn().unwrap();
        let pid = child.id();
        let mut child = child;
        let stdout = BufReader::new(child.stdout.take().unwrap());
        let daemon = Daemon { child, _stdout: stdout, addr: "127.0.0.1:9".parse().unwrap() };
        assert!(Path::new(&format!("/proc/{pid}")).exists());
        drop(daemon);
        assert!(!Path::new(&format!("/proc/{pid}")).exists());
    }
}
