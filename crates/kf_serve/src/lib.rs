//! `kf_serve`: a network front-end for the [`keyformer_serve`] engine, built
//! entirely on `std::net` — no network crates.
//!
//! One [`serve`] call boots a node: a dedicated *pump* thread that owns the
//! model and [`keyformer_serve::Engine`] (see [`backend`]), an accept loop,
//! and one short-lived thread per connection. Connection threads never touch
//! the engine — they enqueue commands over a channel and observe the shared
//! [`jobs::JobTable`], so the engine keeps its single-threaded determinism
//! while any number of sockets talk to it.
//!
//! Two wire formats share one semantics layer ([`api`]):
//!
//! * **HTTP/1.1**, one exchange per connection: `POST /v1/generate`
//!   (`202` + job id, or a chunked NDJSON token stream when the body sets
//!   `"stream": true`), `GET /v1/jobs/{id}`, `DELETE /v1/jobs/{id}`, and
//!   `GET /v1/stats`.
//! * **Line-delimited JSON**: a first byte of `{` selects a persistent
//!   session where each line is an op (`generate`, `status`, `cancel`,
//!   `stats`) and each response is a line.
//!
//! Deterministic (greedy) generates are *idempotent*: a completed result is
//! published to a TTL'd content-hash [`cache::ResultCache`], duplicates of an
//! in-flight request coalesce onto the running primary, and repeats are
//! answered byte-identically with zero additional engine steps. Sampled
//! requests bypass both mechanisms by construction.

pub mod api;
pub mod backend;
pub mod cache;
pub mod client;
pub mod http;
pub mod jobs;

use backend::{Command, DedupState, PumpShared};
use cache::ResultCache;
use jobs::{JobState, JobTable};
use keyformer_model::families::ModelFamily;
use keyformer_serve::ServerConfig;
use serde::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Model, engine and dedup configuration of one serving node.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Model family the pump thread builds.
    pub family: ModelFamily,
    /// Seed for the model's deterministic weight initialisation.
    pub model_seed: u64,
    /// The engine configuration (policy, budget, pool, scheduler knobs).
    pub engine: ServerConfig,
    /// Enables the result cache and in-flight coalescing (default `true`).
    pub dedup: bool,
    /// Result-cache entry capacity (0 disables storage; default 256).
    pub cache_capacity: usize,
    /// Result-cache time-to-live in milliseconds (default one minute).
    pub cache_ttl_ms: u64,
    /// Terminal job records retained for polling before garbage collection
    /// (default 1024).
    pub retained_jobs: usize,
    /// Concurrent connection threads allowed; connections past the cap are
    /// answered `503` and closed, so a flood of sockets cannot exhaust
    /// threads or memory (default 256).
    pub max_connections: usize,
    /// Idle read timeout for persistent NDJSON sessions in milliseconds; a
    /// session silent this long is closed rather than pinning its thread
    /// forever. `0` disables the timeout (default five minutes).
    pub ndjson_idle_timeout_ms: u64,
}

impl NodeConfig {
    /// A node over `engine` with the test-sized model family, dedup on, and
    /// the default cache/retention sizing.
    pub fn new(family: ModelFamily, model_seed: u64, engine: ServerConfig) -> Self {
        NodeConfig {
            family,
            model_seed,
            engine,
            dedup: true,
            cache_capacity: 256,
            cache_ttl_ms: 60_000,
            retained_jobs: 1024,
            max_connections: 256,
            ndjson_idle_timeout_ms: 300_000,
        }
    }

    /// Enables or disables result caching and coalescing.
    pub fn with_dedup(mut self, enabled: bool) -> Self {
        self.dedup = enabled;
        self
    }

    /// Sets the result cache's capacity and TTL.
    pub fn with_cache(mut self, capacity: usize, ttl_ms: u64) -> Self {
        self.cache_capacity = capacity;
        self.cache_ttl_ms = ttl_ms;
        self
    }

    /// Sets how many terminal job records stay pollable.
    pub fn with_retained_jobs(mut self, retained: usize) -> Self {
        self.retained_jobs = retained;
        self
    }

    /// Caps the number of concurrent connection threads.
    pub fn with_max_connections(mut self, max: usize) -> Self {
        self.max_connections = max.max(1);
        self
    }

    /// Sets the NDJSON session idle timeout (`0` disables it).
    pub fn with_ndjson_idle_timeout(mut self, ms: u64) -> Self {
        self.ndjson_idle_timeout_ms = ms;
        self
    }
}

/// Everything a connection thread needs: the node configuration (for
/// resolving request defaults), the pump's shared state, and the command
/// channel into it.
pub struct NodeShared {
    /// The node's configuration, for default resolution and validation.
    pub config: NodeConfig,
    /// Job table, dedup state and engine snapshot shared with the pump.
    pub pump: Arc<PumpShared>,
    /// Command channel into the pump thread.
    pub cmd: mpsc::Sender<Command>,
}

/// Why a node failed to boot.
#[derive(Debug)]
pub enum ServeError {
    /// Binding the listener failed.
    Bind(std::io::Error),
    /// The engine configuration did not validate.
    Engine(keyformer_core::CoreError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind(e) => write!(f, "binding listener: {e}"),
            ServeError::Engine(e) => write!(f, "engine configuration: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A running node: joinable threads plus the shared state, shut down
/// explicitly via [`ServeHandle::shutdown`] or implicitly on drop.
pub struct ServeHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
    pump: Option<std::thread::JoinHandle<()>>,
    node: Arc<NodeShared>,
}

impl ServeHandle {
    /// The bound address (with the OS-assigned port when `addr` had port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared node state, for in-process inspection by tests and the
    /// harness (job counters, engine snapshot, cache stats).
    pub fn node(&self) -> &Arc<NodeShared> {
        &self.node
    }

    /// A [`client::Client`] bound to this node.
    pub fn client(&self) -> client::Client {
        client::Client::new(self.addr)
    }

    /// Stops accepting, cancels every live job, and joins both threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Blocks until the accept loop exits (i.e. until another thread calls
    /// for shutdown or the process dies) — the binary's main loop.
    pub fn wait(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        self.stop();
    }

    fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop blocks in accept(); a throwaway connection wakes it
        // so it can observe the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let _ = self.node.cmd.send(Command::Shutdown);
        if let Some(pump) = self.pump.take() {
            let _ = pump.join();
        }
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Boots a node: spawns the pump thread, binds `addr`, and starts the accept
/// loop. Returns once the engine has validated and the listener is live.
///
/// # Errors
///
/// [`ServeError::Engine`] when the engine configuration does not validate;
/// [`ServeError::Bind`] when the listener cannot bind.
pub fn serve(addr: &str, config: NodeConfig) -> Result<ServeHandle, ServeError> {
    let shared = Arc::new(PumpShared {
        jobs: Arc::new(JobTable::new(config.retained_jobs)),
        dedup: Arc::new(Mutex::new(DedupState::new(
            config.dedup,
            ResultCache::new(config.cache_capacity, config.cache_ttl_ms),
        ))),
        snapshot: Arc::new(Mutex::new(backend::EngineSnapshot::default())),
        started: Instant::now(),
    });
    let (cmd, pump) = backend::spawn_pump(
        config.family,
        config.model_seed,
        config.engine,
        Arc::clone(&shared),
    )
    .map_err(ServeError::Engine)?;
    let listener = match TcpListener::bind(addr) {
        Ok(listener) => listener,
        Err(e) => {
            let _ = cmd.send(Command::Shutdown);
            let _ = pump.join();
            return Err(ServeError::Bind(e));
        }
    };
    let local = listener.local_addr().map_err(ServeError::Bind)?;
    let node = Arc::new(NodeShared {
        config,
        pump: shared,
        cmd,
    });
    let stop = Arc::new(AtomicBool::new(false));
    let accept = {
        let node = Arc::clone(&node);
        let stop = Arc::clone(&stop);
        let active = Arc::new(AtomicUsize::new(0));
        std::thread::Builder::new()
            .name("kf-serve-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(mut stream) = stream else { continue };
                    // The cap bounds detached connection threads: past it the
                    // peer gets a fast 503 instead of a thread of its own.
                    if active.fetch_add(1, Ordering::SeqCst) >= node.config.max_connections {
                        active.fetch_sub(1, Ordering::SeqCst);
                        let fault = api::WireFault {
                            status: 503,
                            code: "overloaded",
                            message: "connection limit reached; retry shortly".to_string(),
                        };
                        let _ = http::write_response(&mut stream, fault.status, &fault.body());
                        linger_close(&stream);
                        continue;
                    }
                    let node = Arc::clone(&node);
                    let slot = SlotGuard(Arc::clone(&active));
                    // Connection threads are detached: they outlive at most
                    // one exchange (HTTP) or one idle-bounded session
                    // (NDJSON), and shutdown retires every job they could be
                    // waiting on.
                    let _ = std::thread::Builder::new()
                        .name("kf-serve-conn".into())
                        .spawn(move || {
                            let _slot = slot;
                            handle_connection(stream, &node);
                        });
                }
            })
            .expect("spawning the accept thread")
    };
    Ok(ServeHandle {
        addr: local,
        stop,
        accept: Some(accept),
        pump: Some(pump),
        node,
    })
}

/// Releases one connection-cap slot when its connection thread exits,
/// however it exits.
struct SlotGuard(Arc<AtomicUsize>);

impl Drop for SlotGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Longest a connection closed with request bytes possibly still in flight
/// waits for its peer to finish; see [`linger_close`].
const LINGER_TIME: Duration = Duration::from_millis(100);

/// Most bytes [`linger_close`] discards before closing anyway.
const LINGER_BYTES: usize = 64 << 10;

/// Closes a connection whose peer may still be sending. Closing a socket with
/// unread input makes the kernel send RST, which can destroy the response
/// just written before the peer reads it. Shutting down the write side first
/// ends the response with FIN; the drain then reads what the peer still
/// sends until it closes, for at most [`LINGER_TIME`] and [`LINGER_BYTES`],
/// so the caller is never held for long.
fn linger_close(mut stream: &TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + LINGER_TIME;
    let mut sink = [0u8; 4096];
    let mut drained = 0;
    while drained < LINGER_BYTES {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            break;
        }
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}

/// How a connection opens; see [`read_opening`].
enum Opening {
    /// An HTTP request line.
    Http(String),
    /// The first op line of an NDJSON session.
    Ndjson(String),
    /// A first line past its protocol's bound (`ndjson` says which).
    TooLong {
        /// `true` when the line opened an NDJSON session.
        ndjson: bool,
    },
}

/// Reads a connection's first line. Its first non-blank byte picks the
/// protocol, and with it the bound: a `{` opens an NDJSON session, whose op
/// lines may reach [`http::MAX_BODY_BYTES`]; anything else is an HTTP request
/// line, cut at the head-line bound. `None` at EOF or on a read error.
fn read_opening(r: &mut impl BufRead) -> Option<Opening> {
    let mut buf = Vec::new();
    let mut complete = http::read_line_into(r, &mut buf, http::MAX_HEAD_LINE_BYTES).ok()?;
    if buf.is_empty() {
        return None;
    }
    let ndjson = buf.trim_ascii_start().first() == Some(&b'{');
    if ndjson && !complete {
        complete = http::read_line_into(r, &mut buf, http::MAX_BODY_BYTES).ok()?;
    }
    if !complete {
        return Some(Opening::TooLong { ndjson });
    }
    let line = http::finish_line(buf).ok()?;
    Some(if ndjson {
        Opening::Ndjson(line)
    } else {
        Opening::Http(line)
    })
}

/// The NDJSON error line for an op line past [`http::MAX_BODY_BYTES`].
fn ndjson_line_too_long() -> String {
    api::WireFault {
        status: 413,
        code: "line_too_long",
        message: format!(
            "op line exceeds {} bytes; closing the session",
            http::MAX_BODY_BYTES
        ),
    }
    .body()
}

/// Dispatches one fresh connection to the protocol its first line selects: a
/// `{` opens a persistent NDJSON session, anything else is one HTTP exchange.
fn handle_connection(stream: TcpStream, node: &Arc<NodeShared>) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    match read_opening(&mut reader) {
        None => {}
        Some(Opening::Ndjson(first)) => ndjson_session(&first, &mut reader, &mut writer, node),
        Some(Opening::Http(first)) => http_exchange(&first, &mut reader, &mut writer, node),
        Some(Opening::TooLong { ndjson: true }) => {
            let _ = writeln!(writer, "{}", ndjson_line_too_long());
            linger_close(&writer);
        }
        Some(Opening::TooLong { ndjson: false }) => {
            let fault = http::request_line_too_long();
            let _ = http::write_response(&mut writer, fault.status, &fault.body());
            linger_close(&writer);
        }
    }
}

/// Serves one HTTP request and closes.
fn http_exchange(
    first: &str,
    reader: &mut impl BufRead,
    writer: &mut TcpStream,
    node: &Arc<NodeShared>,
) {
    let request = match http::parse_http(first, reader) {
        Ok(request) => request,
        Err(fault) => {
            let _ = http::write_response(writer, fault.status, &fault.body());
            // Rejected requests may leave header or body bytes unread.
            linger_close(writer);
            return;
        }
    };
    let job_path = request.path.strip_prefix("/v1/jobs/");
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/generate") => handle_generate(&request.body, writer, node),
        ("GET", "/v1/stats") => {
            let _ = http::write_response(writer, 200, &api::stats_body(node));
        }
        ("GET", _) if job_path.is_some() => match job_path.and_then(|id| id.parse::<u64>().ok()) {
            Some(id) => match api::job_body(node, id) {
                Some(body) => {
                    let _ = http::write_response(writer, 200, &body);
                }
                None => {
                    let _ = http::write_response(writer, 404, &not_found(id));
                }
            },
            None => {
                let fault = api::WireFault {
                    status: 400,
                    code: "invalid_request",
                    message: "job ids are integers".to_string(),
                };
                let _ = http::write_response(writer, 400, &fault.body());
            }
        },
        ("DELETE", _) if job_path.is_some() => {
            match job_path.and_then(|id| id.parse::<u64>().ok()) {
                Some(id) => match api::cancel_job(node, id) {
                    Some((status, body)) => {
                        let _ = http::write_response(writer, status, &body);
                    }
                    None => {
                        let _ = http::write_response(writer, 404, &not_found(id));
                    }
                },
                None => {
                    let fault = api::WireFault {
                        status: 400,
                        code: "invalid_request",
                        message: "job ids are integers".to_string(),
                    };
                    let _ = http::write_response(writer, 400, &fault.body());
                }
            }
        }
        (_, "/v1/generate") | (_, "/v1/stats") => {
            let fault = api::WireFault {
                status: 405,
                code: "method_not_allowed",
                message: format!("{} is not supported here", request.method),
            };
            let _ = http::write_response(writer, 405, &fault.body());
        }
        (_, _) if job_path.is_some() => {
            let fault = api::WireFault {
                status: 405,
                code: "method_not_allowed",
                message: format!("{} is not supported here", request.method),
            };
            let _ = http::write_response(writer, 405, &fault.body());
        }
        _ => {
            let fault = api::WireFault {
                status: 404,
                code: "not_found",
                message: format!("no such surface: {}", request.path),
            };
            let _ = http::write_response(writer, 404, &fault.body());
        }
    }
}

fn not_found(job: u64) -> String {
    api::json_obj(vec![
        ("error", Value::Str("not_found".to_string())),
        ("message", Value::Str(format!("no job {job}"))),
    ])
}

/// `POST /v1/generate`: parse, validate, admit, then answer unary or stream.
fn handle_generate(body: &[u8], writer: &mut TcpStream, node: &Arc<NodeShared>) {
    let spec = match parse_generate_body(body, node) {
        Ok(spec) => spec,
        Err(fault) => {
            let _ = http::write_response(writer, fault.status, &fault.body());
            return;
        }
    };
    let wants_stream = spec.stream;
    let admission = api::admit(spec, node);
    let job = admission.job();
    if wants_stream {
        if http::start_chunked(writer, 200).is_err() {
            let _ = node.cmd.send(Command::Cancel { job });
            return;
        }
        let preamble = api::json_obj(vec![
            ("event", Value::Str("accepted".to_string())),
            ("job_id", Value::UInt(job)),
            (
                "deduplicated",
                Value::Bool(!matches!(admission, api::Admission::Fresh { .. })),
            ),
        ]);
        if http::write_chunk(writer, &format!("{preamble}\n")).is_err() {
            let _ = node.cmd.send(Command::Cancel { job });
            return;
        }
        api::drive_stream(node, job, |line| {
            http::write_chunk(writer, &format!("{line}\n"))
        });
        let _ = http::finish_chunked(writer);
    } else {
        let state = node
            .pump
            .jobs
            .with_job(job, |r| r.state)
            .unwrap_or(JobState::Queued);
        let status = if matches!(admission, api::Admission::CacheHit { .. }) {
            200
        } else {
            202
        };
        let _ = http::write_response(writer, status, &api::admission_body(&admission, state));
    }
}

fn parse_generate_body(
    body: &[u8],
    node: &NodeShared,
) -> Result<api::GenerateSpec, api::WireFault> {
    let text = std::str::from_utf8(body).map_err(|_| api::WireFault {
        status: 400,
        code: "invalid_request",
        message: "body is not UTF-8".to_string(),
    })?;
    let value = serde_json::from_str::<Value>(text).map_err(|e| api::WireFault {
        status: 400,
        code: "invalid_json",
        message: e.to_string(),
    })?;
    api::parse_generate(&value, node)
}

/// Runs a persistent line-delimited-JSON session: each request line is an op,
/// each response is a line (streaming generates emit several).
fn ndjson_session(
    first: &str,
    reader: &mut impl BufRead,
    writer: &mut TcpStream,
    node: &Arc<NodeShared>,
) {
    // Sessions may idle between ops, so the tight protocol-sniff timeout is
    // replaced with a generous idle bound: a peer silent that long ends the
    // session (the read errors out and the loop returns) instead of pinning
    // its connection thread forever.
    let idle = node.config.ndjson_idle_timeout_ms;
    let _ = writer.set_read_timeout(if idle == 0 {
        None
    } else {
        Some(Duration::from_millis(idle))
    });
    let mut line = first.to_string();
    loop {
        if !line.trim().is_empty() && ndjson_op(line.trim(), writer, node).is_err() {
            return;
        }
        let mut buf = Vec::new();
        match http::read_line_into(reader, &mut buf, http::MAX_BODY_BYTES) {
            Ok(true) if buf.is_empty() => return,
            Ok(true) => match http::finish_line(buf) {
                Ok(next) => line = next,
                Err(_) => return,
            },
            Ok(false) => {
                let _ = writeln!(writer, "{}", ndjson_line_too_long());
                linger_close(writer);
                return;
            }
            Err(_) => return,
        }
    }
}

/// Handles one NDJSON op line; `Err` means the peer is gone.
fn ndjson_op(line: &str, writer: &mut TcpStream, node: &Arc<NodeShared>) -> std::io::Result<()> {
    let fault_line = |code: &'static str, message: String| {
        api::json_obj(vec![
            ("error", Value::Str(code.to_string())),
            ("message", Value::Str(message)),
        ])
    };
    let value = match serde_json::from_str::<Value>(line) {
        Ok(value) => value,
        Err(e) => return writeln!(writer, "{}", fault_line("invalid_json", e.to_string())),
    };
    let op = match value.field("op") {
        Ok(Value::Str(op)) => op.clone(),
        _ => {
            return writeln!(
                writer,
                "{}",
                fault_line("invalid_request", "missing `op`".to_string())
            )
        }
    };
    match op.as_str() {
        "generate" => {
            let spec = match api::parse_generate(&value, node) {
                Ok(spec) => spec,
                Err(fault) => return writeln!(writer, "{}", fault.body()),
            };
            let wants_stream = spec.stream;
            let admission = api::admit(spec, node);
            let job = admission.job();
            if wants_stream {
                let preamble = api::json_obj(vec![
                    ("event", Value::Str("accepted".to_string())),
                    ("job_id", Value::UInt(job)),
                    (
                        "deduplicated",
                        Value::Bool(!matches!(admission, api::Admission::Fresh { .. })),
                    ),
                ]);
                writeln!(writer, "{preamble}")?;
                writer.flush()?;
                api::drive_stream(node, job, |event| {
                    writeln!(writer, "{event}")?;
                    writer.flush()
                });
                Ok(())
            } else {
                let state = node
                    .pump
                    .jobs
                    .with_job(job, |r| r.state)
                    .unwrap_or(JobState::Queued);
                writeln!(writer, "{}", api::admission_body(&admission, state))
            }
        }
        "status" => match client::u64_field(&value, "job_id") {
            Some(id) => match api::job_body(node, id) {
                Some(body) => writeln!(writer, "{body}"),
                None => writeln!(writer, "{}", not_found(id)),
            },
            None => writeln!(
                writer,
                "{}",
                fault_line("invalid_request", "missing `job_id`".to_string())
            ),
        },
        "cancel" => match client::u64_field(&value, "job_id") {
            Some(id) => match api::cancel_job(node, id) {
                Some((_, body)) => writeln!(writer, "{body}"),
                None => writeln!(writer, "{}", not_found(id)),
            },
            None => writeln!(
                writer,
                "{}",
                fault_line("invalid_request", "missing `job_id`".to_string())
            ),
        },
        "stats" => writeln!(writer, "{}", api::stats_body(node)),
        other => writeln!(
            writer,
            "{}",
            fault_line("invalid_request", format!("unknown op `{other}`"))
        ),
    }
}
