//! `kfbench`: drives a `kf_serve` node with one seeded traffic mix and prints
//! the end-to-end metrics (`--trace 0`), the per-layer metrics (`--trace 1`),
//! or a knee sweep over arrival rates (`--sweep R1,R2,...`). The last line of
//! standard output is the JSON result. Run it through `run.py`, which builds
//! the node and this binary first.

use keyformer_model::families::ModelFamily;
use keyformer_model::model::TransformerModel;
use keyformer_text::rouge_scores;
use kf_serve::client::u64_field;
use kfbench::loadgen::{self, Fate, SocketRun};
use kfbench::node::{boot_median, Node};
use kfbench::reference::{self, key, Key};
use kfbench::report::{mean, metric, percentile, print_table, result_line, Metric};
use kfbench::trace::{self, durations, Tracer};
use kfbench::workload::{node_flags, Plan, Workload, MODEL_SEED};
use serde::Value;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Node boots per run; `setup_s` is their median.
const BOOTS: usize = 9;
/// A run whose p99 send lag (actual minus due send time) exceeds this is
/// invalid: the generator, not the node, shaped the latencies.
const LAG_BOUND_MS: f64 = 50.0;
/// Threads the reference recomputation uses (the host's core count).
const REFERENCE_THREADS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    sweep: Option<Vec<f64>>,
    node_bin: PathBuf,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = 1;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut sweep = None;
    let mut node_bin = None;
    let mut out_dir = PathBuf::from(".bench_build/kfbench");
    while let Some(flag) = raw.next() {
        let mut value = || raw.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--sweep" => {
                let rates: Result<Vec<f64>, _> = value()?.split(',').map(str::parse).collect();
                sweep = Some(rates.map_err(|e| format!("--sweep: {e}"))?);
            }
            "--node-bin" => node_bin = Some(PathBuf::from(value()?)),
            "--out-dir" => out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        sweep,
        node_bin: node_bin.ok_or("--node-bin is required")?,
        out_dir,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("kfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match &args.sweep {
        Some(rates) => sweep(&args, rates),
        None => run(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("kfbench: {e}");
            ExitCode::from(3)
        }
    }
}

type Error = Box<dyn std::error::Error>;

/// One socket pass, checked and summarised.
struct Summary {
    metrics: Vec<Metric>,
    attempted: usize,
    failed: usize,
    refused: usize,
    mismatched: usize,
    lag_p99_ms: f64,
    ttft_p50_ms: f64,
}

impl Summary {
    fn valid(&self) -> bool {
        self.lag_p99_ms <= LAG_BOUND_MS
    }

    fn correct(&self) -> bool {
        self.mismatched == 0 && self.valid()
    }

    fn print(&self, label: &str) {
        let succeeded = self
            .attempted
            .saturating_sub(self.failed + self.refused + self.mismatched);
        println!(
            "{label}: attempted {} succeeded {succeeded} failed {} refused {} mismatched {} \
             error_frac {:.4}; send lag p99 {:.3} ms (bound {LAG_BOUND_MS} ms: {})",
            self.attempted,
            self.failed,
            self.refused,
            self.mismatched,
            (self.attempted - succeeded) as f64 / self.attempted.max(1) as f64,
            self.lag_p99_ms,
            if self.valid() { "valid" } else { "INVALID" },
        );
        print_table(&self.metrics);
    }
}

/// Checks every output of `run` against the references and the probes'
/// job records, and computes the end-to-end metrics.
fn summarize(
    workload: Workload,
    plan: &Plan,
    run: &SocketRun,
    refs: &HashMap<Key<'_>, Vec<u32>>,
    setups: &[f64],
    rss_mib: f64,
) -> Summary {
    let slo = workload.slo();
    let mut mismatched = 0;
    for (request, tokens) in plan.warmup.iter().zip(&run.warmup) {
        if refs.get(&key(request)) != Some(tokens) {
            mismatched += 1;
            eprintln!("mismatch: warm-up request");
        }
    }
    let mut failed = 0;
    let mut refused = 0;
    let mut completed = 0usize;
    let mut tokens = 0usize;
    let mut rouge = Vec::new();
    let mut start = f64::INFINITY;
    let mut end: f64 = 0.0;
    let score = |request: &kfbench::workload::Request, output: &[u32]| {
        let n = request.reference.len().min(output.len());
        rouge_scores(&output[..n], &request.reference).rouge2.f1
    };
    for r in &run.background {
        start = start.min(r.due);
        match r.fate {
            Fate::Done => {
                let request = &plan.requests[r.index];
                if refs.get(&key(request)) != Some(&r.tokens) {
                    mismatched += 1;
                    eprintln!("mismatch: background request {} (job {:?})", r.index, r.job);
                    continue;
                }
                completed += 1;
                tokens += r.tokens.len();
                rouge.push(score(request, &r.tokens));
                end = end.max(r.done.unwrap_or(0.0));
            }
            Fate::Refused => refused += 1,
            Fate::Failed | Fate::Pending => failed += 1,
        }
    }
    let mut ttft = Vec::new();
    let mut gaps = Vec::new();
    let mut good = 0;
    for (p, job_tokens) in run.probes.iter().zip(&run.probe_jobs) {
        start = start.min(p.sent);
        if p.status == 503 {
            refused += 1;
            continue;
        }
        if !p.ok() {
            failed += 1;
            continue;
        }
        let request = &plan.probes[p.index];
        if refs.get(&key(request)) != Some(&p.tokens) || job_tokens.as_ref() != Some(&p.tokens) {
            mismatched += 1;
            eprintln!("mismatch: probe {} (job {:?})", p.index, p.job);
            continue;
        }
        completed += 1;
        tokens += p.tokens.len();
        rouge.push(score(request, &p.tokens));
        end = end.max(p.token_times.last().copied().unwrap_or(p.sent));
        let first = p.ttft().unwrap_or(f64::INFINITY) * 1e3;
        let mut own: Vec<f64> = p.gaps().map(|g| g * 1e3).collect();
        gaps.extend_from_slice(&own);
        ttft.push(first);
        if first <= slo.ttft_ms && percentile(&mut own, 90.0) <= slo.itl_p90_ms {
            good += 1;
        }
    }
    let attempted = run.background.len() + run.probes.len();
    let span = (end - start).max(1e-9);
    let mut lag: Vec<f64> = run
        .background
        .iter()
        .map(|r| (r.sent - r.due) * 1e3)
        .collect();
    let mut setups = setups.to_vec();
    let (n_ttft, n_gaps, n_probes) = (ttft.len(), gaps.len(), run.probes.len());
    let ttft_p50_ms = percentile(&mut ttft, 50.0);
    let metrics = vec![
        metric("setup_s", percentile(&mut setups, 50.0), "s", setups.len()),
        metric("ttft_p50_ms", ttft_p50_ms, "ms", n_ttft),
        metric("ttft_p90_ms", percentile(&mut ttft, 90.0), "ms", n_ttft),
        metric("itl_p50_ms", percentile(&mut gaps, 50.0), "ms", n_gaps),
        metric("itl_p99_ms", percentile(&mut gaps, 99.0), "ms", n_gaps),
        metric(
            "goodput_frac",
            good as f64 / n_probes.max(1) as f64,
            "frac",
            n_probes,
        ),
        metric("output_tok_s", tokens as f64 / span, "tok/s", completed),
        metric("req_s", completed as f64 / span, "1/s", completed),
        metric("rouge2_f1", mean(&rouge), "f1", rouge.len()),
        metric(
            "success_frac",
            completed as f64 / attempted.max(1) as f64,
            "frac",
            attempted,
        ),
        metric("peak_rss_mib", rss_mib, "MiB", 1),
    ];
    Summary {
        metrics,
        attempted,
        failed,
        refused,
        mismatched,
        lag_p99_ms: percentile(&mut lag, 99.0),
        ttft_p50_ms,
    }
}

/// Everything a socket pass sent that completed, for the reference gate.
fn served<'p>(plan: &'p Plan, run: &SocketRun) -> Vec<&'p kfbench::workload::Request> {
    let warmup = plan.warmup.iter().take(run.warmup.len());
    let background = run
        .background
        .iter()
        .filter(|r| r.fate == Fate::Done)
        .map(|r| &plan.requests[r.index]);
    let probes = run
        .probes
        .iter()
        .filter(|p| p.ok())
        .map(|p| &plan.probes[p.index]);
    warmup.chain(background).chain(probes).collect()
}

fn model() -> TransformerModel {
    ModelFamily::GptJLike.build(MODEL_SEED)
}

fn header(args: &Args, plan: &Plan) {
    println!(
        "kfbench {} seed {} seconds {} trace {}: {} background requests, {} probes available, \
         request-set digest {:016x}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        plan.requests.len(),
        plan.probes.len(),
        plan.digest()
    );
    println!("node: kf_serve {}", node_flags().join(" "));
}

/// One boot-and-drive socket pass: the node's set-up times, the run and the
/// node's peak RSS.
fn socket_pass(
    args: &Args,
    plan: &Plan,
    seconds: f64,
    trace: bool,
) -> Result<(Vec<f64>, SocketRun, f64), Error> {
    let (node, setups): (Node, Vec<f64>) = boot_median(&args.node_bin, BOOTS)?;
    let run = loadgen::run(plan, node.addr, seconds, trace)?;
    let rss = node.peak_rss_mib().unwrap_or(0.0);
    drop(node);
    Ok((setups, run, rss))
}

fn run(args: &Args) -> Result<bool, Error> {
    // Traced mode runs two socket passes and an engine replay, each over half
    // the window, so that it takes about as long as a plain run's budget.
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plan = Plan::generate(args.workload, args.seed, seconds, None);
    header(args, &plan);
    let (setups, plain, rss) = socket_pass(args, &plan, seconds, false)?;
    let model = model();
    if !args.trace {
        let refs = reference::references(
            &model,
            served(&plan, &plain),
            REFERENCE_THREADS,
            plan.shares_prefixes(),
        )?;
        let summary = summarize(args.workload, &plan, &plain, &refs, &setups, rss);
        summary.print("plain pass");
        let failed = summary.failed + summary.refused + summary.mismatched;
        println!(
            "{}",
            result_line(
                summary.correct(),
                summary.attempted,
                failed,
                &summary.metrics
            )
        );
        return Ok(summary.correct());
    }

    // Pass (a): the same inputs against a fresh node, spans on.
    let (setups_a, traced, rss_a) = socket_pass(args, &plan, seconds, true)?;
    let mut served_all = served(&plan, &plain);
    served_all.extend(served(&plan, &traced));
    let refs = reference::references(
        &model,
        served_all,
        REFERENCE_THREADS,
        plan.shares_prefixes(),
    )?;
    let plain_summary = summarize(args.workload, &plan, &plain, &refs, &setups, rss);
    let traced_summary = summarize(args.workload, &plan, &traced, &refs, &setups_a, rss_a);
    plain_summary.print("plain pass");
    traced_summary.print("traced pass (a)");

    let origin = Instant::now();
    let mut engine_tracer = Tracer::new(true, origin);
    let engine = trace::engine_pass(&model, &plan, seconds, &mut engine_tracer)?;
    let mut session_tracer = Tracer::new(true, origin);
    let sessions = trace::session_pass(&model, &plan, seconds / 4.0, &mut session_tracer)?;
    let micro = trace::micro_pass(&model, &plan, seconds / 4.0)?;
    let spans_path = args.out_dir.join(format!(
        "trace-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let engine_spans = engine_tracer.into_spans();
    let session_spans = session_tracer.into_spans();
    trace::write_spans(
        &spans_path,
        &[
            ("a", &traced.spans),
            ("b", &engine_spans),
            ("c", &session_spans),
        ],
    )?;
    println!("spans written to {}", spans_path.display());

    let jobs_delta = |field: &str| -> f64 {
        let get = |v: &Option<Value>| {
            v.as_ref()
                .and_then(|v| v.field("jobs").ok())
                .and_then(|j| u64_field(j, field))
                .unwrap_or(0) as f64
        };
        get(&traced.stats_last) - get(&traced.stats_first)
    };
    let submitted = jobs_delta("submitted").max(1.0);
    let mut rtt = durations(&traced.spans, "kf_serve.generate");
    let mut accept = durations(&traced.spans, "kf_serve.accept");
    let mut steps = engine.step_ms.clone();
    let mut prefill_steps = engine.prefill_step_ms.clone();
    let mut decode_steps = engine.decode_step_ms.clone();
    let mut waits = engine.queue_wait_steps.clone();
    let (allocs, frees) = engine
        .pool
        .map_or((0, 0), |p| (p.total_allocs, p.total_frees));
    let registry = engine.registry.unwrap_or_default();
    let lookups = (registry.hits + registry.misses).max(1) as f64;
    let done = engine.completed.max(1) as f64;
    let n_steps = steps.len();
    let metrics = vec![
        metric(
            "kf_serve.submit_rtt_ms",
            percentile(&mut rtt, 50.0),
            "ms",
            rtt.len(),
        ),
        metric(
            "kf_serve.accept_ms",
            percentile(&mut accept, 50.0),
            "ms",
            accept.len(),
        ),
        metric(
            "kf_serve.cache_hit_frac",
            jobs_delta("cache_hits") / submitted,
            "frac",
            submitted as usize,
        ),
        metric(
            "kf_serve.coalesced_frac",
            jobs_delta("coalesced") / submitted,
            "frac",
            submitted as usize,
        ),
        metric(
            "serve.step_ms_p50",
            percentile(&mut steps, 50.0),
            "ms",
            n_steps,
        ),
        metric(
            "serve.step_ms_p99",
            percentile(&mut steps, 99.0),
            "ms",
            n_steps,
        ),
        metric(
            "serve.prefill_step_ms",
            percentile(&mut prefill_steps, 50.0),
            "ms",
            prefill_steps.len(),
        ),
        metric(
            "serve.decode_step_ms",
            percentile(&mut decode_steps, 50.0),
            "ms",
            decode_steps.len(),
        ),
        metric(
            "serve.prefill_time_share",
            engine.prefill_step_ms.iter().sum::<f64>()
                / engine.step_ms.iter().sum::<f64>().max(1e-9),
            "frac",
            n_steps,
        ),
        metric(
            "serve.batch_mean",
            engine.stats.mean_batch_size(),
            "seqs",
            n_steps,
        ),
        metric(
            "serve.queue_wait_steps_p90",
            percentile(&mut waits, 90.0),
            "steps",
            waits.len(),
        ),
        metric(
            "serve.preemptions",
            engine.stats.preemptions as f64,
            "count",
            n_steps,
        ),
        metric(
            "serve.prefill_stalls",
            engine.stats.prefill_stalls as f64,
            "count",
            n_steps,
        ),
        metric(
            "serve.pool_util_mean",
            engine.stats.mean_pool_utilization(),
            "frac",
            n_steps,
        ),
        metric(
            "serve.peak_concurrency",
            engine.stats.peak_concurrency as f64,
            "seqs",
            n_steps,
        ),
        metric(
            "model.prefill_us_per_tok",
            sessions.prefill_s * 1e6 / sessions.prefill_tokens.max(1) as f64,
            "us",
            sessions.prefill_tokens,
        ),
        metric(
            "model.decode_us_per_tok",
            sessions.decode_s * 1e6 / sessions.decode_tokens.max(1) as f64,
            "us",
            sessions.decode_tokens,
        ),
        metric(
            "model.peak_cache_kib",
            sessions.peak_cache_bytes as f64 / 1024.0,
            "KiB",
            sessions.requests,
        ),
        metric("core.observe_us", micro.observe_us, "us", 1),
        metric("core.select_us", micro.select_us, "us", 1),
        metric(
            "core.block_allocs_per_req",
            allocs as f64 / done,
            "count",
            engine.completed,
        ),
        metric(
            "core.block_frees_per_req",
            frees as f64 / done,
            "count",
            engine.completed,
        ),
        metric(
            "core.cow_forks_per_req",
            sessions.cow_forks as f64 / sessions.requests.max(1) as f64,
            "count",
            sessions.requests,
        ),
        metric(
            "core.prefix_reused_frac",
            engine.stats.prefix_tokens_reused as f64 / engine.prompt_tokens.max(1) as f64,
            "frac",
            engine.completed,
        ),
        metric(
            "core.registry_hit_frac",
            registry.hits as f64 / lookups,
            "frac",
            lookups as usize,
        ),
        metric("tensor.matmul_gflops", micro.matmul_gflops, "GFLOP/s", 1),
        metric("tensor.matvec_gbps", micro.matvec_gbps, "GB/s", 1),
        metric(
            "trace.overhead_pct",
            100.0 * (traced_summary.ttft_p50_ms - plain_summary.ttft_p50_ms)
                / plain_summary.ttft_p50_ms.max(1e-9),
            "%",
            2,
        ),
    ];
    println!("per-layer metrics (tensor rates are computed from shapes, not measured counters):");
    print_table(&metrics);
    let correct = plain_summary.correct() && traced_summary.correct();
    let attempted = plain_summary.attempted + traced_summary.attempted;
    let failed = [&plain_summary, &traced_summary]
        .iter()
        .map(|s| s.failed + s.refused + s.mismatched)
        .sum();
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(correct)
}

/// Knee sweep: one fresh node per rate; prints latency, goodput and the
/// queue trend per rate and the highest rate that meets both limits
/// without a growing queue. Outputs are not reference-checked here.
fn sweep(args: &Args, rates: &[f64]) -> Result<bool, Error> {
    if args.workload.rate().is_none() {
        return Err("the knee sweep needs an open-loop workload".into());
    }
    let slo = args.workload.slo();
    println!(
        "knee sweep {} seed {} seconds {}: SLO ttft <= {} ms, own p90 gap <= {} ms",
        args.workload.name(),
        args.seed,
        args.seconds,
        slo.ttft_ms,
        slo.itl_p90_ms
    );
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>10} {:>9} {:>10} {:>12} {:>8}",
        "rate",
        "ttft_p50",
        "ttft_p90",
        "itl_p50",
        "itl_p99",
        "goodput",
        "tok/s",
        "backlog/s",
        "growing"
    );
    let mut knee = None;
    for &rate in rates {
        let plan = Plan::generate(args.workload, args.seed, args.seconds, Some(rate));
        let (setups, run, rss) = socket_pass(args, &plan, args.seconds, false)?;
        // Outputs are unchecked in the sweep: score every output as correct.
        let warmup = plan.warmup.iter().zip(&run.warmup);
        let refs: HashMap<Key<'_>, Vec<u32>> = warmup
            .map(|(request, tokens)| (key(request), tokens.clone()))
            .chain(
                run.background
                    .iter()
                    .filter(|r| r.fate == Fate::Done)
                    .map(|r| (key(&plan.requests[r.index]), r.tokens.clone())),
            )
            .chain(
                run.probes
                    .iter()
                    .filter(|p| p.ok())
                    .map(|p| (key(&plan.probes[p.index]), p.tokens.clone())),
            )
            .collect();
        let summary = summarize(args.workload, &plan, &run, &refs, &setups, rss);
        let value = |name: &str| {
            summary
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value)
        };
        let slope = queue_slope(&run.backlog, args.seconds);
        let growing = slope > 0.05 * rate;
        println!(
            "{rate:>8.2} {:>10.2} {:>10.2} {:>10.3} {:>10.3} {:>9.3} {:>10.1} {:>12.3} {:>8}",
            value("ttft_p50_ms"),
            value("ttft_p90_ms"),
            value("itl_p50_ms"),
            value("itl_p99_ms"),
            value("goodput_frac"),
            value("output_tok_s"),
            slope,
            growing
        );
        if value("goodput_frac") >= 0.9 && !growing {
            knee = Some(rate);
        }
    }
    match knee {
        Some(rate) => println!(
            "highest rate meeting the SLO (goodput >= 0.9) without a growing queue: {rate} req/s"
        ),
        None => println!("no swept rate met the SLO without a growing queue"),
    }
    Ok(true)
}

/// Least-squares slope of the node's backlog (`engine.queued` +
/// `engine.running`) over the sending window, requests per second.
fn queue_slope(series: &[(f64, f64)], seconds: f64) -> f64 {
    let window: Vec<&(f64, f64)> = series.iter().filter(|(t, _)| *t <= seconds).collect();
    let n = window.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let mt = window.iter().map(|p| p.0).sum::<f64>() / n;
    let mq = window.iter().map(|p| p.1).sum::<f64>() / n;
    let cov: f64 = window.iter().map(|p| (p.0 - mt) * (p.1 - mq)).sum();
    let var: f64 = window.iter().map(|p| (p.0 - mt).powi(2)).sum();
    if var == 0.0 {
        0.0
    } else {
        cov / var
    }
}
