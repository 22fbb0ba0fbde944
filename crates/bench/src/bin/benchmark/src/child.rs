//! Child processes: the benchmark re-executes itself as a server or as a
//! one-shot generator, so client and server never share a process and
//! every generation starts with empty process-global search tables.
//!
//! A child is killed and reaped when its handle drops — also on panic and
//! on a failed run — and every wait has a deadline, so a wedged child
//! fails the run instead of hanging it. A child also exits on its own when
//! its stdin closes, so a killed driver leaves nothing behind.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Deadline for a child to announce itself or finish.
const CHILD_TIMEOUT: Duration = Duration::from_secs(120);

pub struct ChildProc {
    child: Child,
    stdin: Option<ChildStdin>,
    lines: Receiver<String>,
    reader: Option<JoinHandle<()>>,
}

impl ChildProc {
    /// Re-execute this binary with `args`.
    pub fn spawn(args: &[String]) -> Result<ChildProc, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {args:?}: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let stdin = child.stdin.take();
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        Ok(ChildProc {
            child,
            stdin,
            lines,
            reader: Some(reader),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The next stdout line, or an error once `deadline` passes or the
    /// child's stdout closes.
    pub fn next_line(&mut self, deadline: Instant) -> Result<String, String> {
        let left = deadline.saturating_duration_since(Instant::now());
        match self.lines.recv_timeout(left) {
            Ok(line) => Ok(line),
            Err(RecvTimeoutError::Timeout) => Err("child timed out".into()),
            Err(RecvTimeoutError::Disconnected) => Err(format!(
                "child exited early ({})",
                self.child
                    .try_wait()
                    .ok()
                    .flatten()
                    .map_or("still running".to_string(), |s| s.to_string())
            )),
        }
    }

    /// Wait for a `READY <addr>` announcement.
    pub fn wait_ready(&mut self) -> Result<SocketAddr, String> {
        let deadline = Instant::now() + CHILD_TIMEOUT;
        loop {
            let line = self.next_line(deadline)?;
            if let Some(addr) = line.strip_prefix("READY ") {
                return addr
                    .trim()
                    .parse()
                    .map_err(|e| format!("bad READY address {addr:?}: {e}"));
            }
        }
    }

    /// Collect every remaining stdout line and reap the child; an error if
    /// it does not exit with status 0 before the deadline.
    pub fn finish(mut self) -> Result<Vec<String>, String> {
        let deadline = Instant::now() + CHILD_TIMEOUT;
        let mut out = Vec::new();
        loop {
            match self
                .lines
                .recv_timeout(deadline.saturating_duration_since(Instant::now()))
            {
                Ok(line) => out.push(line),
                Err(RecvTimeoutError::Disconnected) => break,
                Err(RecvTimeoutError::Timeout) => return Err("child timed out".into()),
            }
        }
        let status = self.wait_until(deadline).ok_or("child did not exit")?;
        if !status.success() {
            return Err(format!("child failed: {status}"));
        }
        Ok(out)
    }

    fn wait_until(&mut self, deadline: Instant) -> Option<std::process::ExitStatus> {
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                _ => return None,
            }
        }
    }
}

impl Drop for ChildProc {
    fn drop(&mut self) {
        // Closing stdin asks the child to leave; give it a moment, then
        // kill. Either way it is reaped before the handle is gone.
        drop(self.stdin.take());
        if self
            .wait_until(Instant::now() + Duration::from_secs(2))
            .is_none()
        {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// Peak resident set (`VmHWM`) of a live process, in MiB.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_peak_rss_is_readable() {
        let mib = peak_rss_mib(std::process::id()).expect("VmHWM of self");
        assert!(mib > 0.5, "{mib}");
    }
}
