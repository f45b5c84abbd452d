//! Starting, probing and stopping `accelwall serve` child processes.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::client::{self, Conn};
use crate::sampler::{parse_metrics, Snapshot};

/// A running server child. Dropping it kills and reaps the process.
#[derive(Debug)]
pub struct ServerProc {
    child: Child,
    // Held open so the server's last status line never hits a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The address it listens on.
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Launches `accelwall serve` on a free loopback port with `workers`
    /// pool workers and `threads` compute threads, and waits for the
    /// line that names its address.
    pub fn spawn(bin: &Path, workers: usize, threads: usize) -> Result<ServerProc, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(["--workers", &workers.to_string()])
            .args(["--threads", &threads.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("server stdout was not captured".into());
        };
        let mut stdout = BufReader::new(stdout);
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        let server = ServerProc {
            child,
            _stdout: stdout,
            addr: addr.unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 0))),
        };
        match (read, addr) {
            (Ok(_), Some(_)) => Ok(server),
            _ => Err(format!("server did not announce its address: {line:?}")),
        }
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Polls `GET /healthz` until it answers `ready`.
    pub fn wait_ready(&self, timeout: Duration) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        loop {
            match client::get(self.addr, "/healthz") {
                Ok(reply)
                    if reply.status == 200
                        && String::from_utf8_lossy(&reply.body).contains("\"ready\"") =>
                {
                    return Ok(())
                }
                _ if Instant::now() < deadline => std::thread::sleep(Duration::from_micros(200)),
                other => return Err(format!("server not ready in {timeout:?}: {other:?}")),
            }
        }
    }

    /// One `/metrics` snapshot.
    pub fn metrics(&self) -> Result<Snapshot, String> {
        let reply = client::get(self.addr, "/metrics")?;
        if reply.status != 200 {
            return Err(format!("/metrics answered {}", reply.status));
        }
        Ok(Snapshot(parse_metrics(&String::from_utf8_lossy(
            &reply.body,
        ))))
    }

    /// Asks for the graceful drain and waits for the process to exit;
    /// kills it if it has not exited within ten seconds.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = Conn::connect(self.addr).and_then(|mut c| {
            c.call(b"POST /shutdown HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n")
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() && asked.is_ok() => return Ok(()),
                Ok(Some(status)) => {
                    return Err(format!("server exited with {status} (shutdown: {asked:?})"))
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Ok(None) => return Err("server did not drain within 10 s".into()),
                Err(e) => return Err(format!("waiting for the server: {e}")),
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
