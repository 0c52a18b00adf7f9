//! Boots a `kf_serve` node as a child process and times its set-up.

use crate::wire::LineConn;
use crate::workload::node_flags;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A running node; killed and reaped on drop.
pub struct Node {
    child: Child,
    /// The node's loopback address.
    pub addr: SocketAddr,
}

impl Node {
    /// Spawns `bin` with the benchmark's node flags and returns the node with
    /// its set-up time: process start, model build, engine, bind, and the
    /// first generate call accepted.
    pub fn boot(bin: &Path) -> io::Result<(Node, f64)> {
        let start = Instant::now();
        let child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .args(node_flags())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut node = Node {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            child,
        };
        let stdout = node.child.stdout.take().expect("stdout is piped");
        let mut banner = String::new();
        BufReader::new(stdout).read_line(&mut banner)?;
        // "kf_serve listening on 127.0.0.1:PORT (family ...)"
        node.addr = banner
            .split_whitespace()
            .nth(3)
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected kf_serve banner {banner:?}"),
                )
            })?;
        let mut conn = LineConn::connect(node.addr)?;
        conn.send(r#"{"op":"generate","prompt":[1],"max_new_tokens":1,"no_cache":true}"#)?;
        let reply = conn
            .read_line(Instant::now() + Duration::from_secs(30))?
            .ok_or_else(|| io::Error::new(io::ErrorKind::TimedOut, "no reply to first generate"))?;
        if !reply.contains("\"job_id\"") {
            return Err(io::Error::other(format!(
                "first generate not accepted: {reply}"
            )));
        }
        Ok((node, start.elapsed().as_secs_f64()))
    }

    /// Peak resident set (VmHWM) of the node process, MiB.
    pub fn peak_rss_mib(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let kib: f64 = status
            .lines()
            .find(|l| l.starts_with("VmHWM:"))?
            .split_whitespace()
            .nth(1)?
            .parse()
            .ok()?;
        Some(kib / 1024.0)
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Boots the node `boots` times, keeps the last one running, and returns it
/// with every boot's set-up time.
pub fn boot_median(bin: &Path, boots: usize) -> io::Result<(Node, Vec<f64>)> {
    let mut times = Vec::with_capacity(boots);
    let mut last = None;
    for _ in 0..boots.max(1) {
        drop(last.take());
        let (node, setup) = Node::boot(bin)?;
        times.push(setup);
        last = Some(node);
    }
    Ok((last.expect("at least one boot"), times))
}
