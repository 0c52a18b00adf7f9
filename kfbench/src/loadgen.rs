//! The load generator: one process, two threads, two connections.
//!
//! The session thread sends the plan's background requests as unary
//! `generate` ops pipelined on one persistent NDJSON session, open loop at
//! their due times (or as whole bursts), polls `stats` on the same session,
//! and fetches each job's result with `status` as soon as the job counters
//! show a retirement. The probe thread sends one streamed HTTP generate at a
//! time, back to back, on a second connection and timestamps every token
//! event.

use crate::trace::{Span, Tracer};
use crate::wire::{self, LineConn, ProbeRecord};
use crate::workload::{Plan, BURST};
use kf_serve::client::{str_field, tokens_field, u64_field};
use serde::Value;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Stats poll period on the session, seconds.
const POLL_S: f64 = 0.020;
/// Status sweep of every outstanding job at least this often, seconds (a
/// safety net under the counter-triggered sweeps).
const SWEEP_S: f64 = 0.250;
/// Outstanding work still unfinished this long after the window is failed.
const DRAIN_LIMIT_S: f64 = 60.0;

/// Fate of one background request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Accepted, not yet retired.
    Pending,
    /// Completed with tokens.
    Done,
    /// Retired failed or cancelled, or never retired within the drain limit.
    Failed,
    /// Refused at submission.
    Refused,
}

/// One background request as the session saw it (seconds since the origin).
#[derive(Debug, Clone)]
pub struct BgRecord {
    /// Index into the plan's requests.
    pub index: usize,
    /// When it was due.
    pub due: f64,
    /// When it was written.
    pub sent: f64,
    /// The job id the node assigned.
    pub job: Option<u64>,
    /// When its result was observed.
    pub done: Option<f64>,
    /// The job's tokens.
    pub tokens: Vec<u32>,
    /// How it ended.
    pub fate: Fate,
}

/// Everything one socket pass observed.
#[derive(Debug, Default)]
pub struct SocketRun {
    /// Background requests in send order.
    pub background: Vec<BgRecord>,
    /// Probes in send order.
    pub probes: Vec<ProbeRecord>,
    /// Tokens of each probe's job record, fetched after the stream ended.
    pub probe_jobs: Vec<Option<Vec<u32>>>,
    /// `(time, engine.queued + engine.running)` from every stats poll: the
    /// node's backlog.
    pub backlog: Vec<(f64, f64)>,
    /// The first and the last `/v1/stats` bodies.
    pub stats_first: Option<Value>,
    /// See `stats_first`.
    pub stats_last: Option<Value>,
    /// Spans recorded around client calls (empty with tracing off).
    pub spans: Vec<Span>,
    /// Tokens of each warm-up request, in plan order.
    pub warmup: Vec<Vec<u32>>,
}

enum Pending {
    Generate(usize),
    Stats(f64),
    Status(u64, f64),
}

/// Runs one socket pass of `plan` against the node at `addr` for `seconds`
/// of sending, then drains. `trace` records spans around client calls.
pub fn run(plan: &Plan, addr: SocketAddr, seconds: f64, trace: bool) -> io::Result<SocketRun> {
    let mut conn = LineConn::connect(addr)?;
    let warmup = warm_up(&mut conn, plan)?;
    let origin = Instant::now();
    std::thread::scope(|scope| {
        let prober = scope.spawn(move || {
            let mut tracer = Tracer::new(trace, origin);
            let mut probes = Vec::new();
            let mut jobs = Vec::new();
            while origin.elapsed().as_secs_f64() < seconds && probes.len() < plan.probes.len() {
                let index = probes.len();
                let record = wire::probe(addr, &plan.probes[index], index, origin);
                let end = origin.elapsed().as_secs_f64();
                let root =
                    tracer.record("kf_serve.stream", record.sent, end, None, probe_id(index));
                if let Some(accepted) = record.accepted {
                    tracer.record(
                        "kf_serve.accept",
                        record.sent,
                        accepted,
                        root,
                        probe_id(index),
                    );
                }
                if let Some(first) = record.token_times.first() {
                    tracer.record(
                        "kf_serve.first_token",
                        record.sent,
                        *first,
                        root,
                        probe_id(index),
                    );
                }
                jobs.push(record.job.and_then(|job| fetch_job(addr, job)));
                probes.push(record);
            }
            (probes, jobs, tracer.into_spans())
        });
        let mut session = Session::new(plan, conn, origin, trace);
        let driven = session.drive(seconds);
        let (probes, probe_jobs, probe_spans) = prober.join().expect("probe thread panicked");
        driven?;
        let mut spans = session.tracer.into_spans();
        crate::trace::merge(&mut spans, probe_spans);
        Ok(SocketRun {
            background: session.bg,
            probes,
            probe_jobs,
            backlog: session.backlog,
            stats_first: session.stats_first,
            stats_last: session.stats_last,
            spans,
            warmup,
        })
    })
}

/// Runs the plan's warm-up requests one at a time to completion on `conn`
/// and returns their tokens.
fn warm_up(conn: &mut LineConn, plan: &Plan) -> io::Result<Vec<Vec<u32>>> {
    let reply = |conn: &mut LineConn, line: &str| -> io::Result<Value> {
        conn.send(line)?;
        let text = conn
            .read_line(Instant::now() + Duration::from_secs(60))?
            .ok_or_else(|| io::Error::new(io::ErrorKind::TimedOut, "warm-up stalled"))?;
        wire::parse(&text)
    };
    let mut out = Vec::with_capacity(plan.warmup.len());
    for request in &plan.warmup {
        let accepted = reply(conn, &wire::generate_body(request, true, false))?;
        let job = u64_field(&accepted, "job_id")
            .ok_or_else(|| io::Error::other(format!("warm-up refused: {accepted:?}")))?;
        loop {
            let status = reply(conn, &format!("{{\"op\":\"status\",\"job_id\":{job}}}"))?;
            match str_field(&status, "state") {
                Some("done") => {
                    break out.push(tokens_field(&status, "tokens").unwrap_or_default())
                }
                Some("queued" | "running") => std::thread::sleep(Duration::from_millis(5)),
                _ => return Err(io::Error::other(format!("warm-up failed: {status:?}"))),
            }
        }
    }
    Ok(out)
}

/// Request ids of probes in spans, apart from background indices.
fn probe_id(index: usize) -> u64 {
    (1 << 32) | index as u64
}

/// Tokens of job `job` from its record, or `None` if it is not `done`.
fn fetch_job(addr: SocketAddr, job: u64) -> Option<Vec<u32>> {
    let (status, body) = kf_serve::client::Client::new(addr).job(job).ok()?;
    (status == 200 && str_field(&body, "state") == Some("done"))
        .then(|| tokens_field(&body, "tokens"))
        .flatten()
}

struct Session<'p> {
    plan: &'p Plan,
    conn: LineConn,
    origin: Instant,
    tracer: Tracer,
    bg: Vec<BgRecord>,
    pending: VecDeque<Pending>,
    outstanding: HashMap<u64, usize>,
    polling: HashSet<u64>,
    retired_seen: u64,
    last_sweep: f64,
    backlog: Vec<(f64, f64)>,
    stats_first: Option<Value>,
    stats_last: Option<Value>,
}

impl<'p> Session<'p> {
    fn new(plan: &'p Plan, conn: LineConn, origin: Instant, trace: bool) -> Self {
        Session {
            plan,
            conn,
            origin,
            tracer: Tracer::new(trace, origin),
            bg: Vec::new(),
            pending: VecDeque::new(),
            outstanding: HashMap::new(),
            polling: HashSet::new(),
            retired_seen: 0,
            last_sweep: 0.0,
            backlog: Vec::new(),
            stats_first: None,
            stats_last: None,
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn send_generate(&mut self, index: usize, due: f64) -> io::Result<()> {
        let line = wire::generate_body(&self.plan.requests[index], true, false);
        let sent = self.now();
        self.conn.send(&line)?;
        self.pending.push_back(Pending::Generate(self.bg.len()));
        self.bg.push(BgRecord {
            index,
            due,
            sent,
            job: None,
            done: None,
            tokens: Vec::new(),
            fate: Fate::Pending,
        });
        Ok(())
    }

    fn send_stats(&mut self) -> io::Result<()> {
        let now = self.now();
        self.conn.send(r#"{"op":"stats"}"#)?;
        self.pending.push_back(Pending::Stats(now));
        Ok(())
    }

    fn sweep(&mut self) -> io::Result<()> {
        let now = self.now();
        self.last_sweep = now;
        let mut jobs: Vec<u64> = self
            .outstanding
            .keys()
            .filter(|job| !self.polling.contains(job))
            .copied()
            .collect();
        jobs.sort_unstable();
        for job in jobs {
            self.conn
                .send(&format!("{{\"op\":\"status\",\"job_id\":{job}}}"))?;
            self.polling.insert(job);
            self.pending.push_back(Pending::Status(job, now));
        }
        Ok(())
    }

    fn drive(&mut self, seconds: f64) -> io::Result<()> {
        let plan = self.plan;
        let burst_mode = plan.due_s.is_empty();
        let mut next = 0;
        let mut last_poll = f64::NEG_INFINITY;
        // First background record of the running burst.
        let mut burst: Option<usize> = None;
        let mut bursts = 0;
        loop {
            let now = self.now();
            if burst_mode {
                self.step_burst(now, seconds, &mut burst, &mut bursts)?;
            } else {
                while next < plan.due_s.len() && plan.due_s[next] <= now {
                    self.send_generate(next, plan.due_s[next])?;
                    next += 1;
                }
            }
            if now >= last_poll + POLL_S {
                self.send_stats()?;
                last_poll = now;
            }
            if !self.outstanding.is_empty() && now >= self.last_sweep + SWEEP_S {
                self.sweep()?;
            }
            let sending_done = if burst_mode {
                burst.is_none() && (now >= seconds || (bursts + 1) * BURST > plan.requests.len())
            } else {
                next == plan.due_s.len()
            };
            let unresolved = self.bg.iter().any(|r| r.fate == Fate::Pending);
            if sending_done && !unresolved {
                break;
            }
            if now > seconds + DRAIN_LIMIT_S {
                break;
            }
            let mut wake = last_poll + POLL_S;
            if !burst_mode && next < plan.due_s.len() {
                wake = wake.min(plan.due_s[next]);
            }
            let wake = wake.clamp(now + 1e-4, now + 0.02);
            let deadline = self.origin + Duration::from_secs_f64(wake);
            if let Some(line) = self.conn.read_line(deadline)? {
                self.handle(&line)?;
            }
        }
        for record in self.bg.iter_mut().filter(|r| r.fate == Fate::Pending) {
            record.fate = Fate::Failed;
        }
        // A last stats read after the drain, for the end-of-run counters.
        self.send_stats()?;
        while !self.pending.is_empty() {
            let line = self
                .conn
                .read_line(Instant::now() + Duration::from_secs(30))?
                .ok_or_else(|| io::Error::new(io::ErrorKind::TimedOut, "session stalled"))?;
            self.handle(&line)?;
        }
        Ok(())
    }

    /// Starts the next burst once the last one has fully retired.
    fn step_burst(
        &mut self,
        now: f64,
        seconds: f64,
        burst: &mut Option<usize>,
        bursts: &mut usize,
    ) -> io::Result<()> {
        if let Some(first) = *burst {
            if self.bg[first..].iter().any(|r| r.fate == Fate::Pending) {
                return Ok(());
            }
            *burst = None;
            *bursts += 1;
        }
        if now < seconds && (*bursts + 1) * BURST <= self.plan.requests.len() {
            *burst = Some(self.bg.len());
            for k in 0..BURST {
                self.send_generate(*bursts * BURST + k, now)?;
            }
        }
        Ok(())
    }

    fn handle(&mut self, line: &str) -> io::Result<()> {
        let now = self.now();
        let value = wire::parse(line)?;
        match self.pending.pop_front() {
            Some(Pending::Generate(at)) => {
                let record = &mut self.bg[at];
                self.tracer.record(
                    "kf_serve.generate",
                    record.sent,
                    now,
                    None,
                    record.index as u64,
                );
                match u64_field(&value, "job_id") {
                    None => record.fate = Fate::Refused,
                    Some(job) => {
                        record.job = Some(job);
                        if str_field(&value, "state") == Some("done") {
                            record.tokens = tokens_field(&value, "tokens").unwrap_or_default();
                            record.done = Some(now);
                            record.fate = Fate::Done;
                        } else {
                            self.outstanding.insert(job, at);
                        }
                    }
                }
            }
            Some(Pending::Stats(sent)) => {
                self.tracer.record("kf_serve.stats", sent, now, None, 0);
                let jobs = value.field("jobs").ok();
                let retired = ["completed", "cache_hits", "failed", "cancelled"]
                    .iter()
                    .map(|k| jobs.and_then(|j| u64_field(j, k)).unwrap_or(0))
                    .sum::<u64>();
                if let Ok(engine) = value.field("engine") {
                    let backlog = ["queued", "running"]
                        .iter()
                        .map(|k| u64_field(engine, k).unwrap_or(0))
                        .sum::<u64>();
                    self.backlog.push((now, backlog as f64));
                }
                if self.stats_first.is_none() {
                    self.stats_first = Some(value.clone());
                }
                self.stats_last = Some(value);
                if retired != self.retired_seen {
                    self.retired_seen = retired;
                    self.sweep()?;
                }
            }
            Some(Pending::Status(job, sent)) => {
                self.polling.remove(&job);
                let Some(&at) = self.outstanding.get(&job) else {
                    return Ok(());
                };
                let index = self.bg[at].index as u64;
                self.tracer
                    .record("kf_serve.status", sent, now, None, index);
                let fate = match str_field(&value, "state") {
                    Some("done") => Fate::Done,
                    Some("queued" | "running") => Fate::Pending,
                    _ => Fate::Failed,
                };
                if fate != Fate::Pending {
                    self.outstanding.remove(&job);
                    let record = &mut self.bg[at];
                    record.fate = fate;
                    record.done = Some(now);
                    record.tokens = tokens_field(&value, "tokens").unwrap_or_default();
                }
            }
            None => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unsolicited line from the node: {line}"),
                ))
            }
        }
        Ok(())
    }
}
