//! The benchmark's own wire client: a pipelined NDJSON session with timed
//! line reads, and a streamed HTTP generate that timestamps every token
//! event (the reference client keeps only the first).

use crate::workload::Request;
use kf_serve::client::{str_field, u64_field};
use serde::Value;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// The JSON body of a greedy generate call for `request`; `op` adds the
/// NDJSON op field, `stream` asks for a token stream.
pub fn generate_body(request: &Request, op: bool, stream: bool) -> String {
    let prompt: Vec<String> = request.prompt.iter().map(u32::to_string).collect();
    let priority = match request.priority {
        0 => String::new(),
        p => format!(",\"priority\":{p}"),
    };
    format!(
        "{{{}\"prompt\":[{}],\"max_new_tokens\":{}{priority}{}}}",
        if op { "\"op\":\"generate\"," } else { "" },
        prompt.join(","),
        request.max_new,
        if stream { ",\"stream\":true" } else { "" },
    )
}

/// Parses one JSON line.
pub fn parse(line: &str) -> io::Result<Value> {
    serde_json::from_str::<Value>(line.trim())
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e}: {line}")))
}

/// Sleep between polls of a session with nothing to read. The socket is
/// non-blocking and idles in short sleeps: socket read timeouts round up to
/// the kernel tick (milliseconds), which would make open-loop sends late.
const POLL_SLEEP: Duration = Duration::from_millis(1);

/// One persistent NDJSON session whose reads can time out without losing
/// partial lines.
pub struct LineConn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl LineConn {
    /// Opens a session to `addr`.
    pub fn connect(addr: SocketAddr) -> io::Result<LineConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(LineConn {
            stream,
            buf: Vec::with_capacity(1 << 16),
        })
    }

    /// Writes one op line.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        let mut rest = bytes.as_slice();
        while !rest.is_empty() {
            match self.stream.write(rest) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => rest = &rest[n..],
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(POLL_SLEEP),
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// The next response line, or `None` when none completes before
    /// `deadline`.
    pub fn read_line(&mut self, deadline: Instant) -> io::Result<Option<String>> {
        let mut chunk = [0u8; 1 << 16];
        loop {
            if let Some(at) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=at).collect();
                return String::from_utf8(line)
                    .map(Some)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e));
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "node closed the session",
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Ok(None);
                    }
                    std::thread::sleep(left.min(POLL_SLEEP));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// What one streamed probe saw; times are seconds since the run's origin.
#[derive(Debug, Clone, Default)]
pub struct ProbeRecord {
    /// Index into the plan's probes.
    pub index: usize,
    /// When the request was written.
    pub sent: f64,
    /// When the `accepted` preamble arrived.
    pub accepted: Option<f64>,
    /// Arrival time of each token event.
    pub token_times: Vec<f64>,
    /// The streamed tokens.
    pub tokens: Vec<u32>,
    /// HTTP status (0 when the exchange failed before a status line).
    pub status: u16,
    /// Terminal event: `done`, `error`, `cancelled`, or `eof`/`io` when the
    /// stream ended without one.
    pub terminal: String,
    /// The job id from the preamble.
    pub job: Option<u64>,
}

impl ProbeRecord {
    /// `true` when the probe completed with a `done` event.
    pub fn ok(&self) -> bool {
        self.terminal == "done"
    }

    /// Time to first token, seconds.
    pub fn ttft(&self) -> Option<f64> {
        self.token_times.first().map(|t| t - self.sent)
    }

    /// Gaps between consecutive token events, seconds.
    pub fn gaps(&self) -> impl Iterator<Item = f64> + '_ {
        self.token_times.windows(2).map(|w| w[1] - w[0])
    }
}

/// Sends `request` as a streamed HTTP generate and reads the chunked event
/// stream to its end, timestamping every event against `origin`.
pub fn probe(addr: SocketAddr, request: &Request, index: usize, origin: Instant) -> ProbeRecord {
    let mut record = ProbeRecord {
        index,
        terminal: "io".to_string(),
        ..ProbeRecord::default()
    };
    let _ = probe_into(addr, request, origin, &mut record);
    record
}

fn probe_into(
    addr: SocketAddr,
    request: &Request,
    origin: Instant,
    record: &mut ProbeRecord,
) -> io::Result<()> {
    let body = generate_body(request, false, true);
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let head = format!(
        "POST /v1/generate HTTP/1.1\r\nhost: kf-serve\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    record.sent = origin.elapsed().as_secs_f64();
    stream.write_all(format!("{head}{body}").as_bytes())?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    record.status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let mut chunked = false;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(());
        }
        let header = line.trim();
        if header.is_empty() {
            break;
        }
        chunked |= header.eq_ignore_ascii_case("transfer-encoding: chunked");
    }
    if record.status != 200 || !chunked {
        return Ok(());
    }
    record.terminal = "eof".to_string();
    let mut pending = Vec::new();
    loop {
        line.clear();
        reader.read_line(&mut line)?;
        let size = usize::from_str_radix(line.trim(), 16)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad chunk size"))?;
        if size == 0 {
            return Ok(());
        }
        let mut chunk = vec![0u8; size + 2];
        reader.read_exact(&mut chunk)?;
        let now = origin.elapsed().as_secs_f64();
        pending.extend_from_slice(&chunk[..size]);
        while let Some(at) = pending.iter().position(|&b| b == b'\n') {
            let raw: Vec<u8> = pending.drain(..=at).collect();
            let event = parse(&String::from_utf8_lossy(&raw))?;
            match str_field(&event, "event") {
                Some("accepted") => {
                    record.accepted = Some(now);
                    record.job = u64_field(&event, "job_id");
                }
                Some("token") => {
                    record.token_times.push(now);
                    record
                        .tokens
                        .push(u64_field(&event, "token").unwrap_or(u64::MAX) as u32);
                }
                Some(terminal) => record.terminal = terminal.to_string(),
                None => {}
            }
        }
    }
}
