//! `fair-serve` child processes: start on an ephemeral port, read resource
//! use from `/proc`, stop and reap.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

/// `/proc/<pid>/stat` reports CPU time in `USER_HZ` ticks, which the Linux
/// user-space ABI fixes at 100 per second.
const TICK_US: f64 = 10_000.0;

pub struct Server {
    pub role: String,
    pub addr: SocketAddr,
    pub log: PathBuf,
    child: Child,
    /// Held open so the server never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Start `bin --addr 127.0.0.1:0 --workers <workers>` with `env` on top of
    /// an environment cleared of every inherited `FAIR_*` knob; stderr goes
    /// to `log`. Returns once the server has printed its bound address.
    pub fn start(
        bin: &Path,
        role: &str,
        workers: usize,
        env: &[(&str, String)],
        log: &Path,
    ) -> Result<Self, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["--addr", "127.0.0.1:0", "--workers", &workers.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(File::create(log).map_err(|e| format!("{}: {e}", log.display()))?);
        for (key, _) in std::env::vars().filter(|(k, _)| k.starts_with("FAIR_")) {
            cmd.env_remove(key);
        }
        for (key, value) in env {
            cmd.env(key, value);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .strip_prefix("fair-serve listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!(
                "{role}: no listening line from {} ({read:?}: {line:?}); see {}",
                bin.display(),
                log.display()
            ));
        };
        Ok(Self {
            role: role.to_string(),
            addr,
            log: log.to_path_buf(),
            child,
            _stdout: stdout,
        })
    }

    /// User plus system CPU time of every thread the process has run, in µs.
    pub fn cpu_us(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.child.id());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        // Fields after the parenthesised command name; utime and stime are
        // fields 14 and 15 of the whole line.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, r)| r)
            .ok_or_else(|| format!("{path}: unexpected format"))?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|v| v.parse::<u64>().ok())
                .map(|v| v as f64)
                .ok_or_else(|| format!("{path}: missing field"))
        };
        Ok((tick(11)? + tick(12)?) * TICK_US)
    }

    /// Peak resident set size (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
