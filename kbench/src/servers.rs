//! The `kecss serve` processes a workload runs against, and the `/proc`
//! readings taken from them.

use crate::net::Conn;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// `/proc/<pid>/stat` counts CPU time in USER_HZ ticks, 100 per second on
/// Linux.
const TICKS_PER_SECOND: f64 = 100.0;

/// In-flight bound of every server: far above any client window, so a run
/// that sees `BUSY` has found a bug rather than a limit.
const QUEUE_DEPTH: &str = "64";

pub struct Server {
    pub addr: String,
    child: Child,
    /// Held open so the summary line a server prints on exit never meets a
    /// closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

/// The processes of one workload: a standalone server, or a coordinator
/// followed by its workers.
pub struct Deployment {
    pub servers: Vec<Server>,
}

fn spawn(kecss: &Path, args: &[&str], log: &Path) -> Result<Server, String> {
    let log_file = File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
    let mut child = Command::new(kecss)
        .arg("serve")
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(log_file)
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", kecss.display()))?;
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut banner = String::new();
    let read = stdout.read_line(&mut banner);
    let addr = banner
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .map(str::to_string);
    match (read, addr) {
        (Ok(_), Some(addr)) => Ok(Server {
            addr,
            child,
            _stdout: stdout,
        }),
        _ => {
            let _ = child.kill();
            let _ = child.wait();
            Err(format!(
                "kecss serve {args:?} printed no address (banner '{}'; log {})",
                banner.trim(),
                log.display()
            ))
        }
    }
}

fn live_workers(fleet_text: &str) -> usize {
    fleet_text
        .lines()
        .find_map(|l| l.strip_prefix("workers "))
        .and_then(|rest| rest.split_whitespace().nth(2))
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

impl Deployment {
    /// Starts the workload's processes and returns once the first request
    /// can be sent: a standalone server has printed its address; a fleet's
    /// coordinator lists both workers live in `FLEET`.
    pub fn start(kecss: &Path, fleet: bool, log_dir: &Path) -> Result<Deployment, String> {
        let log = |name: &str| log_dir.join(format!("{name}.log"));
        let mut deployment = Deployment {
            servers: Vec::new(),
        };
        if !fleet {
            let args = [
                "--addr",
                "127.0.0.1:0",
                "--threads",
                "1",
                "--queue-depth",
                QUEUE_DEPTH,
            ];
            deployment
                .servers
                .push(spawn(kecss, &args, &log("standalone"))?);
            return Ok(deployment);
        }
        let coordinator_args = [
            "--role",
            "coordinator",
            "--addr",
            "127.0.0.1:0",
            "--queue-depth",
            QUEUE_DEPTH,
        ];
        let coordinator = spawn(kecss, &coordinator_args, &log("coordinator"))?;
        let coordinator_addr = coordinator.addr.clone();
        deployment.servers.push(coordinator);
        for id in ["w1", "w2"] {
            let args = [
                "--role",
                "worker",
                "--coordinator",
                &coordinator_addr,
                "--addr",
                "127.0.0.1:0",
                "--worker-id",
                id,
                "--threads",
                "1",
                "--queue-depth",
                QUEUE_DEPTH,
            ];
            deployment.servers.push(spawn(kecss, &args, &log(id))?);
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut conn = Conn::connect(&coordinator_addr, false).map_err(|e| e.to_string())?;
        while live_workers(&conn.text_request("FLEET").map_err(|e| e.to_string())?) < 2 {
            if Instant::now() > deadline {
                return Err("the fleet's workers did not register within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(deployment)
    }

    /// The address clients submit to (the standalone server or the
    /// coordinator).
    pub fn front(&self) -> &str {
        &self.servers[0].addr
    }

    pub fn pids(&self) -> Vec<u32> {
        self.servers.iter().map(Server::pid).collect()
    }

    /// User plus system CPU seconds of every process so far.
    pub fn cpu_seconds(&self) -> f64 {
        self.pids().into_iter().map(cpu_ticks).sum::<u64>() as f64 / TICKS_PER_SECOND
    }

    /// `VmHWM` summed over the processes, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.pids()
            .into_iter()
            .map(|pid| status_field(pid, "VmHWM:"))
            .sum::<u64>() as f64
            / 1024.0
    }

    /// `METRICS` text of every process, in start order.
    pub fn metrics(&self) -> Result<Vec<String>, String> {
        self.servers
            .iter()
            .map(|s| {
                Conn::connect(&s.addr, false)
                    .and_then(|mut c| c.text_request("METRICS"))
                    .map_err(|e| format!("METRICS from {}: {e}", s.addr))
            })
            .collect()
    }

    /// Sends `SHUTDOWN` to every process (coordinator first) and waits for
    /// each to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut result = Ok(());
        for server in &mut self.servers {
            let asked = Conn::connect(&server.addr, false)
                .and_then(|mut c| c.text_request("SHUTDOWN"))
                .is_ok();
            let deadline = Instant::now() + Duration::from_secs(20);
            loop {
                match server.child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if asked && Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    _ => {
                        let _ = server.child.kill();
                        let _ = server.child.wait();
                        result = Err(format!("server {} did not shut down", server.addr));
                        break;
                    }
                }
            }
        }
        result
    }
}

impl Drop for Deployment {
    /// A run that fails half way still leaves no process behind.
    fn drop(&mut self) {
        for server in &mut self.servers {
            if let Ok(None) = server.child.try_wait() {
                let _ = server.child.kill();
            }
            let _ = server.child.wait();
        }
    }
}

/// `utime + stime` of a process, in ticks (0 once it is gone).
pub fn cpu_ticks(pid: u32) -> u64 {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let get = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    get(11) + get(12)
}

/// A numeric `/proc/<pid>/status` field (`VmHWM:` in kB, `Threads:`).
pub fn status_field(pid: u32, key: &str) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_its_own_process() {
        let pid = std::process::id();
        assert!(status_field(pid, "VmHWM:") > 0);
        assert!(status_field(pid, "Threads:") >= 1);
        let spin = Instant::now();
        while spin.elapsed() < Duration::from_millis(30) {}
        assert!(cpu_ticks(pid) > 0);
    }

    #[test]
    fn parses_the_live_worker_count() {
        assert_eq!(
            live_workers("# kecss fleet status v1\nworkers 2 live 1\n"),
            1
        );
        assert_eq!(live_workers("no such line"), 0);
    }
}
