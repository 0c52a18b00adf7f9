//! Traced mode: spans kept in memory, and the in-process passes that call
//! each serving layer's public functions directly.
//!
//! * pass (b) replays the plan into an in-process [`Engine`] built with the
//!   node's configuration, with spans around `submit` and `step`;
//! * pass (c) runs one [`Session`] per request, with spans around `begin`,
//!   `advance_prefill` and `step`;
//! * pass (d) calls the Keyformer policy's `observe`, `select_retained` and
//!   `compact`, and the `Matrix` kernels, at the workload's shapes.
//!
//! Pass (a), spans around the socket client's calls, lives in `loadgen`.

use crate::workload::{Plan, Request, Rng, BUDGET_FRACTION, BURST, POOL_TOKENS, PREFILL_CHUNK};
use keyformer_core::budget::CacheBudgetSpec;
use keyformer_core::cache::KvDtype;
use keyformer_core::observation::{AttentionObservation, Phase};
use keyformer_core::prefix::{PrefixRegistryStats, SharedPrefixRegistry};
use keyformer_core::spec::PolicySpec;
use keyformer_core::{BlockPoolStats, CoreError, SharedBlockPool};
use keyformer_model::generation::GenerationConfig;
use keyformer_model::model::TransformerModel;
use keyformer_model::session::Session;
use keyformer_serve::{
    Engine, Request as EngineRequest, ServerConfig, ServerStats, DEFAULT_SERVE_BLOCK_SIZE,
};
use keyformer_tensor::Matrix;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One span: a named interval (seconds since the tracer's origin), the span
/// that caused it, and the request it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `serve.step`.
    pub name: &'static str,
    /// Start, seconds.
    pub start: f64,
    /// End, seconds.
    pub end: f64,
    /// Index of the parent span in the same list.
    pub parent: Option<usize>,
    /// Request id (0 for spans that belong to no request).
    pub request: u64,
}

impl Span {
    /// Duration, milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end - self.start) * 1e3
    }
}

/// An in-memory span recorder; records nothing when off.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder timing against `origin`.
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            spans: Vec::with_capacity(if on { 1 << 16 } else { 0 }),
        }
    }

    /// Seconds since the origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Records a finished span and returns its index (`None` when off).
    pub fn record(
        &mut self,
        name: &'static str,
        start: f64,
        end: f64,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span now; [`Tracer::close`] sets its end.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        let now = self.now();
        self.record(name, now, now, parent, request)
    }

    /// Ends the span `open` returned.
    pub fn close(&mut self, span: Option<usize>) {
        if let Some(at) = span {
            self.spans[at].end = self.now();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(name, start, end, parent, request);
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Durations (ms) of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect()
}

/// Appends `more` to `spans`, shifting its parent indices.
pub fn merge(spans: &mut Vec<Span>, more: Vec<Span>) {
    let offset = spans.len();
    spans.extend(more.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + offset);
        s
    }));
}

/// Writes spans as JSON lines (`pass`, `name`, `start_us`, `end_us`,
/// `parent`, `request`).
pub fn write_spans(path: &Path, passes: &[(&str, &[Span])]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (pass, spans) in passes {
        for s in spans.iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"pass\":\"{pass}\",\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{parent},\"request\":{}}}",
                s.name,
                s.start * 1e6,
                s.end * 1e6,
                s.request
            )?;
        }
    }
    out.flush()
}

/// The engine configuration `kf_serve` builds from the benchmark's node flags.
pub fn node_server_config(model: &TransformerModel) -> ServerConfig {
    let bytes_per_token = model.empty_cache_dtype(KvDtype::F32).bytes_per_token();
    ServerConfig::new(
        PolicySpec::keyformer_default(),
        Some(budget_spec()),
        POOL_TOKENS * bytes_per_token,
    )
    .with_decode_workers(1)
    .with_kv_dtype(KvDtype::F32)
    .with_prefix_sharing(true)
    .with_prefill_chunk(PREFILL_CHUNK)
}

/// The node's per-session budget.
pub fn budget_spec() -> CacheBudgetSpec {
    CacheBudgetSpec::with_fraction(BUDGET_FRACTION).expect("0.5 is a valid budget fraction")
}

/// What the in-process engine replay measured.
#[derive(Debug, Default)]
pub struct EnginePass {
    /// Every step's duration, ms.
    pub step_ms: Vec<f64>,
    /// Durations of steps that ran at least one prefill chunk, ms.
    pub prefill_step_ms: Vec<f64>,
    /// Durations of steps that ran decode only, ms.
    pub decode_step_ms: Vec<f64>,
    /// Engine lifetime counters.
    pub stats: ServerStats,
    /// Final pool counters.
    pub pool: Option<BlockPoolStats>,
    /// Final registry counters.
    pub registry: Option<PrefixRegistryStats>,
    /// Steps each completed request waited between submission and admission.
    pub queue_wait_steps: Vec<f64>,
    /// Prompt tokens of the submitted requests.
    pub prompt_tokens: u64,
    /// Completed requests.
    pub completed: usize,
}

/// Pass (b): replays the plan into an engine with the node's configuration
/// (open loop at the due times, or burst after burst) for `seconds` of
/// submissions, then drains.
pub fn engine_pass(
    model: &TransformerModel,
    plan: &Plan,
    seconds: f64,
    tracer: &mut Tracer,
) -> Result<EnginePass, CoreError> {
    let mut engine = Engine::new(model, node_server_config(model))?;
    let mut out = EnginePass::default();
    let mut id = 0u64;
    let mut submit = |engine: &mut Engine, request: &Request, tracer: &mut Tracer| {
        id += 1;
        let call = EngineRequest::new(
            id,
            request.prompt.clone(),
            GenerationConfig::new(request.max_new),
        );
        tracer
            .span("serve.submit", None, id, || engine.submit(call))
            .map(|_| ())
    };
    let step = |engine: &mut Engine, tracer: &mut Tracer, out: &mut EnginePass| {
        let t0 = tracer.now();
        let report = engine.step();
        let t1 = tracer.now();
        tracer.record("serve.step", t0, t1, None, 0);
        let ms = (t1 - t0) * 1e3;
        out.step_ms.push(ms);
        if report.prefill_chunks > 0 {
            out.prefill_step_ms.push(ms);
        } else if report.decode_steps > 0 {
            out.decode_step_ms.push(ms);
        }
        out.pool = Some(report.pool);
        out.registry = report.registry;
    };
    for request in &plan.warmup {
        submit(&mut engine, request, tracer)?;
        while !engine.is_idle() {
            engine.step();
        }
    }
    let start = tracer.now();
    let drain_limit = start + seconds + 60.0;
    if plan.due_s.is_empty() {
        for burst in plan.requests.chunks_exact(BURST) {
            if tracer.now() - start >= seconds {
                break;
            }
            for request in burst {
                out.prompt_tokens += request.prompt.len() as u64;
                submit(&mut engine, request, tracer)?;
            }
            while !engine.is_idle() && tracer.now() < drain_limit {
                step(&mut engine, tracer, &mut out);
            }
        }
    } else {
        let mut next = 0;
        while (next < plan.due_s.len() || !engine.is_idle()) && tracer.now() < drain_limit {
            let now = tracer.now() - start;
            while next < plan.due_s.len() && plan.due_s[next] <= now {
                out.prompt_tokens += plan.requests[next].prompt.len() as u64;
                submit(&mut engine, &plan.requests[next], tracer)?;
                next += 1;
            }
            if engine.is_idle() {
                if next < plan.due_s.len() {
                    let wait = plan.due_s[next] - (tracer.now() - start);
                    std::thread::sleep(std::time::Duration::from_secs_f64(wait.max(0.0)));
                }
                continue;
            }
            step(&mut engine, tracer, &mut out);
        }
    }
    out.stats = *engine.stats();
    out.completed = engine.completions().len();
    out.queue_wait_steps = engine
        .completions()
        .iter()
        .map(|c| (c.admitted_step - c.submitted_step) as f64)
        .collect();
    Ok(out)
}

/// What the per-request session pass measured.
#[derive(Debug, Default)]
pub struct SessionPass {
    /// Wall time in `begin` + `advance_prefill`, seconds.
    pub prefill_s: f64,
    /// Prompt tokens actually forwarded (attached prefixes excluded).
    pub prefill_tokens: usize,
    /// Wall time in decode `step`s, seconds.
    pub decode_s: f64,
    /// Decode steps run.
    pub decode_tokens: usize,
    /// Largest KV footprint of any session, bytes.
    pub peak_cache_bytes: usize,
    /// Copy-on-write block forks, summed over sessions.
    pub cow_forks: usize,
    /// Requests run.
    pub requests: usize,
}

/// Pass (c): one session per request (in plan order, for at most
/// `seconds`), over one shared unbounded pool with a prefix registry and the
/// node's chunking, so shared documents attach and fork as they do in the
/// engine.
pub fn session_pass(
    model: &TransformerModel,
    plan: &Plan,
    seconds: f64,
    tracer: &mut Tracer,
) -> Result<SessionPass, CoreError> {
    let pool = SharedBlockPool::unbounded(DEFAULT_SERVE_BLOCK_SIZE);
    let registry = SharedPrefixRegistry::new(&pool);
    let mut out = SessionPass::default();
    let start = tracer.now();
    let requests = plan.requests.iter().chain(&plan.probes);
    for (id, request) in requests.enumerate() {
        if tracer.now() - start >= seconds {
            break;
        }
        let id = id as u64;
        let policy = PolicySpec::keyformer_default().build()?;
        let mut session = Session::with_pool(model, policy, Some(budget_spec()), pool.clone());
        session.set_prefill_chunk(Some(PREFILL_CHUNK));
        session.set_prefix_registry(registry.clone(), 0);
        let config = GenerationConfig::new(request.max_new);
        let t0 = tracer.now();
        let root = tracer.open("model.request", None, id);
        let reused = tracer.span("model.begin", root, id, || {
            session.begin_with_prefix(&request.prompt, &config)
        })?;
        while session.is_prefilling() {
            tracer.span("model.advance_prefill", root, id, || {
                session.advance_prefill()
            })?;
        }
        let t1 = tracer.now();
        while session.is_decoding() {
            tracer.span("model.step", root, id, || session.step())?;
            out.decode_tokens += 1;
        }
        let t2 = tracer.now();
        tracer.close(root);
        out.prefill_s += t1 - t0;
        out.decode_s += t2 - t1;
        out.prefill_tokens += request.prompt.len() - reused;
        out.peak_cache_bytes = out.peak_cache_bytes.max(session.peak_cache_bytes());
        out.cow_forks += session.cache().total_cow_forks();
        out.requests += 1;
    }
    Ok(out)
}

/// What the direct policy and kernel calls measured.
#[derive(Debug, Default)]
pub struct MicroPass {
    /// Mean `observe` time per layer-step (all heads of one layer), µs.
    pub observe_us: f64,
    /// Mean `select_retained` + `compact` time per layer eviction, µs.
    pub select_us: f64,
    /// `matmul_into` rate at the prefill chunk shape, GFLOP/s (FLOPs
    /// computed from the shapes).
    pub matmul_gflops: f64,
    /// `matvec_into` rate at the decode shape, GB/s (bytes computed from the
    /// shapes).
    pub matvec_gbps: f64,
}

/// Pass (d): replays the policy call pattern of the plan's first requests
/// (one `observe` per head per prompt position, the end-of-prompt eviction,
/// then per generated token an `observe` per head and an eviction at the
/// budget) and times the model's GEMM and GEMV shapes.
pub fn micro_pass(
    model: &TransformerModel,
    plan: &Plan,
    seconds: f64,
) -> Result<MicroPass, CoreError> {
    let config = model.config();
    let (layers, heads, d) = (config.num_layers, config.num_heads, config.d_model);
    let mut rng = Rng::new(0x5EED, 9);
    let logits: Vec<f32> = (0..8192).map(|_| (rng.unit() * 6.0 - 3.0) as f32).collect();
    let mut observe = (0.0, 0usize);
    let mut select = (0.0, 0usize);
    let start = Instant::now();
    let budget_secs = seconds / 2.0;
    for request in plan
        .requests
        .iter()
        .cycle()
        .take(plan.requests.len().max(1) * 4)
    {
        if start.elapsed().as_secs_f64() >= budget_secs {
            break;
        }
        let mut policy = PolicySpec::keyformer_default().build()?;
        let budget = budget_spec().for_prompt_len(request.prompt.len());
        let prompt_len = request.prompt.len();
        let mut live = 0;
        let total = prompt_len + request.max_new;
        for step in 0..total {
            let phase = if step < prompt_len {
                Phase::Prompt
            } else {
                Phase::Generation
            };
            live += 1;
            let t0 = Instant::now();
            for layer in 0..layers {
                for head in 0..heads {
                    let off = (step * 31 + layer * 7 + head) % (logits.len() - live);
                    policy.observe(&AttentionObservation {
                        layer,
                        head,
                        phase,
                        step: if step < prompt_len {
                            step
                        } else {
                            step - prompt_len
                        },
                        total_steps: if step < prompt_len {
                            prompt_len
                        } else {
                            request.max_new
                        },
                        logits: &logits[off..off + live],
                    });
                }
            }
            observe.0 += t0.elapsed().as_secs_f64();
            observe.1 += layers;
            if step + 1 >= prompt_len && budget.needs_eviction(live) {
                let t0 = Instant::now();
                let mut kept = 0;
                for layer in 0..layers {
                    let retained = black_box(policy.select_retained(layer, live, &budget));
                    policy.compact(layer, &retained);
                    kept = retained.len();
                }
                select.0 += t0.elapsed().as_secs_f64();
                select.1 += layers;
                live = kept;
            }
        }
    }
    let mut out = MicroPass {
        observe_us: observe.0 * 1e6 / observe.1.max(1) as f64,
        select_us: select.0 * 1e6 / select.1.max(1) as f64,
        ..MicroPass::default()
    };
    // GEMM at the prefill chunk shape: (chunk x d) * (d x d).
    let a = random_matrix(&mut rng, PREFILL_CHUNK, d);
    let b = random_matrix(&mut rng, d, d);
    let mut buf = Vec::with_capacity(PREFILL_CHUNK * d);
    let flops = 2.0 * (PREFILL_CHUNK * d * d) as f64;
    let secs = median_rate(seconds / 4.0, || a.matmul_into(black_box(&b), &mut buf));
    out.matmul_gflops = flops / secs / 1e9;
    // GEMV at the decode shape: the (vocab x d) logits projection.
    let w = random_matrix(&mut rng, config.vocab_size, d);
    let v: Vec<f32> = (0..d).map(|_| rng.unit() as f32).collect();
    let mut y = Vec::with_capacity(config.vocab_size);
    let bytes = 4.0 * (config.vocab_size * d + d + config.vocab_size) as f64;
    let secs = median_rate(seconds / 4.0, || {
        w.matvec_into(black_box(&v), &mut y).expect("shapes agree");
    });
    out.matvec_gbps = bytes / secs / 1e9;
    Ok(out)
}

fn random_matrix(rng: &mut Rng, rows: usize, cols: usize) -> Matrix {
    let data = (0..rows * cols).map(|_| rng.unit() as f32 - 0.5).collect();
    Matrix::from_vec(rows, cols, data).expect("sizes agree")
}

/// Median seconds per call of `f` over batches run for about `seconds`.
fn median_rate(seconds: f64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut per_call = Vec::new();
    let batch = 64;
    while start.elapsed().as_secs_f64() < seconds || per_call.len() < 5 {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        per_call.push(t0.elapsed().as_secs_f64() / batch as f64);
    }
    crate::report::percentile(&mut per_call, 50.0)
}
