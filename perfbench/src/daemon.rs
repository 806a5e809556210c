//! The `chronusd` child process: start it, time start-up to the first
//! answered `ping`, read its `/proc` counters, and drain it within a
//! bound (killing it when the bound passes).

use crate::stats;
use chronus_daemon::CtlClient;
use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Longest a start-up may take before the run fails.
const START_LIMIT: Duration = Duration::from_secs(30);
/// Longest a drain may take (reply plus process exit) before the
/// daemon is killed and the run fails.
const DRAIN_LIMIT: Duration = Duration::from_secs(20);

/// A running `chronusd`.
pub struct Chronusd {
    child: Option<Child>,
    pub socket: PathBuf,
    /// Exec to first answered `ping`.
    pub setup: Duration,
}

impl Chronusd {
    /// Starts `chronusd` with default settings except for its socket,
    /// its state directory and wide-open tenant token buckets, and
    /// waits for the first answered `ping`.
    pub fn start(binary: &Path, state: &Path) -> Result<Chronusd, String> {
        std::fs::create_dir_all(state).map_err(|e| format!("{}: {e}", state.display()))?;
        let socket = state.join("chronusd.sock");
        let log = File::create(state.join("chronusd.log")).map_err(|e| e.to_string())?;
        let log_err = log.try_clone().map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let child = Command::new(binary)
            .arg("--socket")
            .arg(&socket)
            .arg("--snapshot-dir")
            .arg(state.join("state"))
            .args(["--tenant-rate", "1000000", "--tenant-burst", "1000000"])
            .stdin(Stdio::null())
            .stdout(log)
            .stderr(log_err)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", binary.display()))?;
        let mut daemon = Chronusd {
            child: Some(child),
            socket,
            setup: Duration::ZERO,
        };
        loop {
            if let Ok(mut client) = CtlClient::connect(&daemon.socket) {
                if client.ping().is_ok() {
                    daemon.setup = t0.elapsed();
                    return Ok(daemon);
                }
            }
            if let Some(status) = daemon.child_mut().try_wait().map_err(|e| e.to_string())? {
                daemon.child = None;
                return Err(format!("chronusd exited during start-up: {status}"));
            }
            if t0.elapsed() > START_LIMIT {
                daemon.kill();
                return Err("chronusd did not answer ping within 30 s".to_string());
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    fn child_mut(&mut self) -> &mut Child {
        self.child.as_mut().expect("child present while running")
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Peak resident set so far, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let kb = stats::vm_hwm_kb(&text).ok_or_else(|| format!("{path}: no VmHWM"))?;
        Ok(kb as f64 / 1024.0)
    }

    /// User plus system CPU time so far, in clock ticks.
    pub fn cpu_ticks(&self) -> Result<u64, String> {
        let path = format!("/proc/{}/stat", self.pid());
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        stats::cpu_ticks(&text).ok_or_else(|| format!("{path}: unparsable"))
    }

    /// Sends `drain` and waits for the process to exit, all within
    /// [`DRAIN_LIMIT`]. On a miss the daemon is killed and an error
    /// returned, so a hung daemon fails the run instead of stalling it.
    pub fn drain(mut self) -> Result<(), String> {
        let deadline = Instant::now() + DRAIN_LIMIT;
        let replied = (|| -> std::io::Result<bool> {
            let mut stream = UnixStream::connect(&self.socket)?;
            stream.set_read_timeout(Some(DRAIN_LIMIT))?;
            stream.write_all(b"{\"cmd\":\"drain\"}\n")?;
            let mut line = String::new();
            BufReader::new(stream).read_line(&mut line)?;
            let reply = serde_json::from_str(&line).unwrap_or(serde_json::Value::Null);
            Ok(reply.get("ok") == Some(&serde_json::Value::Bool(true)))
        })();
        if !matches!(replied, Ok(true)) {
            self.kill();
            return Err(format!("chronusd refused drain: {replied:?}"));
        }
        while Instant::now() < deadline {
            match self.child_mut().try_wait() {
                Ok(Some(status)) => {
                    self.child = None;
                    return if status.success() {
                        Ok(())
                    } else {
                        Err(format!("chronusd exited with {status} after drain"))
                    };
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => {
                    self.kill();
                    return Err(e.to_string());
                }
            }
        }
        self.kill();
        Err(format!(
            "chronusd did not exit within {} s of drain; killed",
            DRAIN_LIMIT.as_secs()
        ))
    }

    fn kill(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Drop for Chronusd {
    /// A daemon still running when its handle goes away (an early
    /// error return) is killed and reaped.
    fn drop(&mut self) {
        self.kill();
    }
}
