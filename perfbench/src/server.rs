//! A `ftspan_serve` child process: spawned on a store directory, reached
//! over loopback TCP, shut down through the protocol and always reaped.

use crate::sys;
use ftspan_net::{Client, ServerStats};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

pub struct ServeProcess {
    child: Child,
    pub addr: SocketAddr,
    /// From spawning the process to its `PORT` line: store load, dynamic
    /// promotion and bind.
    pub startup: Duration,
    /// CPU time the process used until its `PORT` line, in seconds.
    pub startup_cpu_s: f64,
}

impl ServeProcess {
    pub fn spawn(bin: &Path, store: &Path, dynamic: bool, log: &Path) -> Result<Self, String> {
        let log = std::fs::File::create(log).map_err(|e| format!("server log: {e}"))?;
        let mut command = Command::new(bin);
        command
            .arg("--store")
            .arg(store)
            .arg("--print-port")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log);
        if dynamic {
            command.arg("--dynamic");
        }
        let start = Instant::now();
        let mut child = command
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let port = BufReader::new(stdout)
            .read_line(&mut line)
            .ok()
            .and_then(|_| line.trim().strip_prefix("PORT ")?.parse::<u16>().ok());
        let startup = start.elapsed();
        let startup_cpu_s = sys::cpu_s(Some(child.id()));
        let mut server = ServeProcess {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            startup,
            startup_cpu_s: startup_cpu_s.unwrap_or(f64::NAN),
        };
        match (port, startup_cpu_s) {
            (Some(port), Some(_)) => {
                server.addr.set_port(port);
                Ok(server)
            }
            // Dropping `server` kills and reaps the child.
            (None, _) => Err(format!(
                "ftspan_serve printed no port (got {:?})",
                line.trim()
            )),
            (_, None) => Err("cannot read the server's CPU time".to_string()),
        }
    }

    /// Peak resident set of the server process so far, in kB.
    pub fn peak_rss_kb(&self) -> Option<u64> {
        sys::status_kb(Some(self.child.id()), "VmHWM")
    }

    /// CPU time the server process has used so far, in seconds.
    pub fn cpu_s(&self) -> Option<f64> {
        sys::cpu_s(Some(self.child.id()))
    }

    /// Current resident set of the server process, in kB.
    pub fn rss_kb(&self) -> Option<u64> {
        sys::status_kb(Some(self.child.id()), "VmRSS")
    }

    pub fn stats(&self) -> Result<ServerStats, String> {
        Client::connect(self.addr)
            .and_then(|mut c| c.stats())
            .map_err(|e| format!("stats: {e}"))
    }

    /// Asks the server to drain and exit, and waits until it has.
    pub fn shutdown(mut self) -> Result<(), String> {
        Client::connect(self.addr)
            .and_then(|mut c| c.shutdown_server())
            .map_err(|e| format!("shutdown: {e}"))?;
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("ftspan_serve exited with {status}"))
        }
    }
}

impl Drop for ServeProcess {
    fn drop(&mut self) {
        // No-ops once `shutdown` has reaped the child.
        if let Ok(None) = self.child.try_wait() {
            self.child.kill().ok();
            self.child.wait().ok();
        }
    }
}
