//! The server under test: spawning `bayonet-served`, scraping `/metrics`,
//! reading the process tree's CPU time and peak RSS from `/proc`, and the
//! loopback port-budget guard.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::client;

/// A running `bayonet-served`. Dropping it shuts the server down (stdin
/// EOF, the binary's shutdown signal) and waits for it, killing it if it
/// does not exit in time.
pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns the server and waits until `/healthz` answers.
    pub fn start(exe: &Path, args: &[String]) -> Result<Server, String> {
        let mut child = Command::new(exe)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", exe.display()))?;
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
        let mut line = String::new();
        let _ = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("BAYONET_SERVE_ADDR ")
            .and_then(|a| a.parse().ok());
        let mut server = Server {
            child,
            stdin,
            _stdout: stdout,
            addr: "127.0.0.1:0".parse().expect("literal address"),
        };
        server.addr = addr.ok_or_else(|| format!("server announced {line:?}, not an address"))?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match client::get(server.addr, "/healthz") {
                Ok(reply) if reply.status == 200 => return Ok(server),
                _ if Instant::now() > deadline => return Err("server never became healthy".into()),
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The server's process and its replica children.
    pub fn tree(&self) -> Vec<u32> {
        let mut pids = vec![self.pid()];
        pids.extend(children_of(self.pid()));
        pids
    }

    /// Replica addresses from `/v1/replicas`, by index (`--replicas` mode).
    pub fn replicas(&self) -> Result<Vec<SocketAddr>, String> {
        let reply = client::get(self.addr, "/v1/replicas").map_err(|e| e.to_string())?;
        let json = bayonet_serve::parse_json(&reply.text()).map_err(|e| e.to_string())?;
        json.get("replicas")
            .and_then(|r| r.as_arr())
            .ok_or("no replica table")?
            .iter()
            .map(|r| {
                r.get("addr")
                    .and_then(|a| a.as_str())
                    .and_then(|a| a.parse().ok())
                    .ok_or_else(|| "bad replica entry".to_string())
            })
            .collect()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        drop(self.stdin.take());
        for _ in 0..200 {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn children_of(parent: u32) -> Vec<u32> {
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    let mut kids: Vec<u32> = entries
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| stat_fields(*pid).and_then(|f| f.get(1)?.parse().ok()) == Some(parent))
        .collect();
    kids.sort_unstable();
    kids
}

/// The fields of `/proc/<pid>/stat` after the command name, so index 0 is
/// the state, 1 the parent pid, 11 utime and 12 stime.
fn stat_fields(pid: u32) -> Option<Vec<String>> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let tail = &stat[stat.rfind(')')? + 2..];
    Some(tail.split_whitespace().map(str::to_string).collect())
}

/// User plus system CPU of `pids`, in clock ticks (10 ms on Linux).
pub fn cpu_ticks(pids: &[u32]) -> u64 {
    pids.iter()
        .filter_map(|pid| {
            let f = stat_fields(*pid)?;
            Some(f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?)
        })
        .sum()
}

/// Summed peak resident set (`VmHWM`) of `pids`, in KiB.
pub fn peak_rss_kib(pids: &[u32]) -> u64 {
    pids.iter()
        .filter_map(|pid| {
            let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        })
        .sum()
}

/// Host-wide `(steal, total)` CPU ticks from `/proc/stat`. Steal is time
/// a virtual CPU was ready to run but the hypervisor ran something else.
pub fn steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// One `/metrics` scrape: series (name plus labels) to value.
#[derive(Debug, Clone)]
pub struct Scrape(pub BTreeMap<String, f64>);

impl Scrape {
    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// Series-wise `self - earlier`.
    pub fn since(&self, earlier: &Scrape) -> Scrape {
        Scrape(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - earlier.get(k)))
                .collect(),
        )
    }
}

pub fn scrape(addr: SocketAddr) -> Result<Scrape, String> {
    let reply = client::get(addr, "/metrics").map_err(|e| format!("scrape {addr}: {e}"))?;
    if reply.status != 200 {
        return Err(format!("scrape {addr}: status {}", reply.status));
    }
    Ok(Scrape(
        reply
            .text()
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (series, value) = l.rsplit_once(' ')?;
                Some((series.to_string(), value.parse().ok()?))
            })
            .collect(),
    ))
}

/// The loopback connection budget. Every connection the benchmark opens
/// leaves a socket in TIME_WAIT for 60 s, holding one port of
/// `ip_local_port_range`; once they run out, connects stall and the
/// measurement collapses. The guard refuses to start a run that could
/// exhaust the range, and waits for earlier runs' sockets to drain.
pub struct PortGuard {
    /// Ports in `ip_local_port_range`: connections per 60 s window.
    pub budget: u64,
}

/// How long a closed socket stays in TIME_WAIT on Linux.
pub const TIME_WAIT_S: u64 = 60;

impl PortGuard {
    pub fn new() -> Result<PortGuard, String> {
        let range = std::fs::read_to_string("/proc/sys/net/ipv4/ip_local_port_range")
            .map_err(|e| format!("cannot read ip_local_port_range: {e}"))?;
        let bounds: Vec<u64> = range
            .split_whitespace()
            .filter_map(|v| v.parse().ok())
            .collect();
        match bounds[..] {
            [lo, hi] if hi >= lo => Ok(PortGuard {
                budget: hi - lo + 1,
            }),
            _ => Err(format!("unreadable ip_local_port_range {range:?}")),
        }
    }

    /// Waits until `planned` more connections fit in half the budget
    /// beside the sockets still in TIME_WAIT. Fails loudly if the plan
    /// alone is too big or the sockets do not drain within two windows.
    pub fn admit(&self, planned: u64) -> Result<(), String> {
        let limit = self.budget / 2;
        if planned > limit {
            return Err(format!(
                "port budget: the run plans {planned} connections but only {limit} \
                 (half of {} ports per {TIME_WAIT_S} s) are safe",
                self.budget
            ));
        }
        let deadline = Instant::now() + Duration::from_secs(2 * TIME_WAIT_S);
        loop {
            let waiting = time_wait_sockets();
            if waiting + planned <= limit {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "port budget: {waiting} sockets still in TIME_WAIT; {planned} more \
                     would pass {limit}"
                ));
            }
            std::thread::sleep(Duration::from_millis(500));
        }
    }

    /// Checks after a run that it stayed inside its plan.
    pub fn audit(&self, planned: u64, opened: u64) -> Result<(), String> {
        if opened > planned {
            return Err(format!(
                "port budget: the run opened {opened} connections, over its plan of {planned}"
            ));
        }
        let waiting = time_wait_sockets();
        if waiting > self.budget * 3 / 4 {
            return Err(format!(
                "port budget: {waiting} sockets in TIME_WAIT of {} ports; loopback was near \
                 exhaustion, so the figures are not trustworthy",
                self.budget
            ));
        }
        Ok(())
    }
}

/// Sockets in TIME_WAIT (state `06`) in this network namespace.
pub fn time_wait_sockets() -> u64 {
    ["/proc/net/tcp", "/proc/net/tcp6"]
        .iter()
        .filter_map(|path| std::fs::read_to_string(path).ok())
        .map(|table| {
            table
                .lines()
                .skip(1)
                .filter(|l| l.split_whitespace().nth(3) == Some("06"))
                .count() as u64
        })
        .sum()
}
