//! Paging experiment: what block-granular KV memory management buys a fixed
//! serving pool, versus a contiguous (whole-sequence-granularity) baseline.
//!
//! Every row runs the *same* oversubscribed Keyformer@50% workload through the
//! *same* KV-byte pool as the serving-throughput experiment and varies only the
//! memory manager: the block size (down from whole-sequence "contiguous"
//! granularity), chunked prefill, and the pool's capacity discipline
//! (overcommit-with-tracking vs. strict). Reported per row:
//!
//! * `requests_per_step` — throughput under the shared step budget;
//! * `utilization` — live token slots over allocated block slots at end-of-step
//!   steady state (1.0 minus internal fragmentation);
//! * `peak_blocks` / `overshoot` — the pool high-water mark and how far the
//!   prefill transient pushed past capacity (strict pools pin this to 0);
//! * `allocs` / `frees` — allocator churn on the decode path (the Criterion
//!   `block_pool` bench prices the per-operation cost).
//!
//! Coarse blocks strand capacity two ways at once: admission must round every
//! sequence up to whole blocks (a 24-slot budget in 56-slot blocks reserves
//! 2.3x what it uses), and the unfilled tail of each sequence's last block is
//! dead memory. Small blocks push utilization above 90% and convert the same
//! bytes into roughly twice the concurrency — the Figure-1-style motivation for
//! threading the paged allocator through the whole stack.

use crate::report::{fmt, Table};
use crate::serving::{serving_policies, MODEL_SEED};
use keyformer_core::cache::KvDtype;
use keyformer_model::families::ModelFamily;
use keyformer_model::generation::GenerationConfig;
use keyformer_serve::{Engine, Request, ServerConfig};
use serde::{Deserialize, Serialize};

/// Prompt length of every synthetic paging request (matches the serving
/// experiment so the two JSON artefacts are comparable).
const PROMPT_LEN: usize = 48;
/// Tokens generated per request.
const GEN_TOKENS: usize = 8;

/// Machine-readable summary of one paging configuration, emitted as
/// `BENCH_paging.json` by `kf_experiments`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PagingSummary {
    /// Configuration label (e.g. `paged(bs=8)`).
    pub config: String,
    /// Token slots per block.
    pub block_size: usize,
    /// Whether the pool hard-enforced its capacity.
    pub strict: bool,
    /// Prompt tokens per prefill work unit (`None` = one-shot prefill).
    pub prefill_chunk: Option<usize>,
    /// Requests submitted.
    pub submitted: usize,
    /// Requests completed within the step budget.
    pub completed: usize,
    /// Scheduler steps executed.
    pub steps: usize,
    /// Requests completed per scheduler step.
    pub requests_per_step: f64,
    /// Mean live-slots / allocated-slots at end-of-step steady state.
    pub utilization: f64,
    /// Block capacity the byte pool converts to.
    pub capacity_blocks: usize,
    /// Pool high-water mark in blocks.
    pub peak_blocks: usize,
    /// Blocks the prefill transient pushed past capacity (0 under strict).
    pub overshoot_blocks: usize,
    /// Total block allocations over the run.
    pub block_allocs: u64,
    /// Total block frees over the run.
    pub block_frees: u64,
    /// High-water mark of blocks mapped by more than one holder (0 without
    /// prefix sharing, which this experiment leaves off).
    pub shared_blocks_peak: usize,
    /// Times a chunked prefill paused on a dry strict pool.
    pub prefill_stalls: usize,
    /// Peak concurrently running sessions.
    pub peak_concurrency: usize,
}

/// The memory-manager line-up the experiment compares. The first row is the
/// contiguous baseline: blocks as large as a whole sequence, so each request
/// allocates (and strands) sequence-granular buffers exactly like the pre-paging
/// backend did.
fn lineup() -> Vec<(String, ServerConfig)> {
    let (_, policy, budget) = serving_policies()
        .into_iter()
        .find(|(label, _, _)| label.starts_with("Keyformer"))
        .expect("serving line-up includes Keyformer");
    let base = ServerConfig::new(policy, budget, 0); // pool filled in below
    let seq = PROMPT_LEN + GEN_TOKENS;
    vec![
        (format!("contiguous(bs={seq})"), base.with_block_size(seq)),
        ("paged(bs=16)".into(), base.with_block_size(16)),
        ("paged(bs=8)".into(), base.with_block_size(8)),
        ("paged(bs=4)".into(), base.with_block_size(4)),
        (
            "paged(bs=8)+chunk16".into(),
            base.with_block_size(8).with_prefill_chunk(16),
        ),
        (
            "paged(bs=8)+strict+chunk16".into(),
            base.with_block_size(8)
                .with_prefill_chunk(16)
                .with_strict_pool(true),
        ),
    ]
}

fn request_stream(num: usize) -> Vec<Request> {
    (0..num)
        .map(|i| {
            let salt = i as u32;
            let prompt: Vec<u32> = (0..PROMPT_LEN)
                .map(|t| (t as u32 * 13 + 7 + salt * 31) % 120)
                .collect();
            Request::new(i as u64, prompt, GenerationConfig::new(GEN_TOKENS))
        })
        .collect()
}

/// Runs the paging comparison and returns both the rendered table and the
/// per-configuration summaries.
pub fn paging_report(samples: usize) -> (Table, Vec<PagingSummary>) {
    let samples = samples.max(1);
    let num_requests = 16 * samples;
    let step_budget = 3 * GEN_TOKENS * samples;
    let model = ModelFamily::Tiny.build(MODEL_SEED);
    // Same pool as the serving-throughput experiment: two full-attention
    // steady-state requests plus one token of slack.
    let pool_bytes = crate::sizing::steady_pool_bytes(&model, PROMPT_LEN, GEN_TOKENS, KvDtype::F32);

    let mut table = Table::new(
        format!(
            "Paged KV allocator at a fixed {pool_bytes}-byte pool (Keyformer@50%, \
             {num_requests} requests, {step_budget}-step budget): block size vs. \
             throughput, utilization and overshoot"
        ),
        &[
            "config",
            "completed",
            "requests_per_step",
            "utilization",
            "peak_blocks",
            "capacity",
            "overshoot",
            "allocs",
            "stalls",
            "peak_concurrency",
        ],
    );
    let mut summaries = Vec::new();
    for (label, config) in lineup() {
        let config = ServerConfig {
            pool_bytes,
            ..config
        };
        let mut engine = Engine::new(&model, config).expect("paging config is valid");
        engine.record_events(false);
        for request in request_stream(num_requests) {
            engine
                .submit(request)
                .expect("synthetic requests carry no overrides");
        }
        engine.run(step_budget);
        let stats = *engine.stats();
        let pool = engine.pool_stats();
        let completed = engine.completions().len();
        let summary = PagingSummary {
            config: label,
            block_size: config.block_size,
            strict: config.strict_pool,
            prefill_chunk: config.prefill_chunk,
            submitted: num_requests,
            completed,
            steps: stats.steps,
            requests_per_step: completed as f64 / stats.steps.max(1) as f64,
            utilization: stats.mean_pool_utilization(),
            capacity_blocks: engine.total_blocks(),
            peak_blocks: pool.peak_in_use,
            overshoot_blocks: pool.peak_overshoot(),
            block_allocs: pool.total_allocs,
            block_frees: pool.total_frees,
            shared_blocks_peak: pool.peak_shared_blocks,
            prefill_stalls: stats.prefill_stalls,
            peak_concurrency: stats.peak_concurrency,
        };
        table.push_row(vec![
            summary.config.clone(),
            summary.completed.to_string(),
            fmt(summary.requests_per_step),
            format!("{:.1}%", summary.utilization * 100.0),
            summary.peak_blocks.to_string(),
            summary.capacity_blocks.to_string(),
            summary.overshoot_blocks.to_string(),
            summary.block_allocs.to_string(),
            summary.prefill_stalls.to_string(),
            summary.peak_concurrency.to_string(),
        ]);
        summaries.push(summary);
    }
    (table, summaries)
}

/// Table-only entry point used by the experiment registry.
pub fn paging(samples: usize) -> Table {
    paging_report(samples).0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn by_prefix<'a>(summaries: &'a [PagingSummary], needle: &str) -> &'a PagingSummary {
        summaries
            .iter()
            .find(|s| s.config.starts_with(needle))
            .unwrap_or_else(|| panic!("{needle} missing"))
    }

    #[test]
    fn paged_blocks_beat_the_contiguous_baseline_at_a_fixed_pool() {
        let (table, summaries) = paging_report(1);
        assert_eq!(table.rows.len(), summaries.len());
        let contiguous = by_prefix(&summaries, "contiguous");
        let paged = by_prefix(&summaries, "paged(bs=8)");
        assert!(
            paged.requests_per_step >= contiguous.requests_per_step,
            "paged {} vs contiguous {} requests/step",
            paged.requests_per_step,
            contiguous.requests_per_step
        );
        assert!(
            paged.peak_concurrency > contiguous.peak_concurrency,
            "fine blocks should convert the pool into more concurrency"
        );
        assert!(
            paged.utilization >= 0.9,
            "steady-state pool utilization {:.3} below the 90% target",
            paged.utilization
        );
        assert!(
            contiguous.utilization < paged.utilization,
            "sequence-granular blocks must show the fragmentation cost"
        );
    }

    #[test]
    fn strict_pools_trade_throughput_for_zero_overshoot() {
        let (_, summaries) = paging_report(1);
        let strict = by_prefix(&summaries, "paged(bs=8)+strict");
        assert_eq!(strict.overshoot_blocks, 0);
        assert!(strict.peak_blocks <= strict.capacity_blocks);
        assert!(strict.completed > 0, "strict pool must still make progress");
        // The overcommitting default absorbs the prefill transient instead.
        let paged = by_prefix(&summaries, "paged(bs=8)");
        assert!(paged.overshoot_blocks > 0 || paged.peak_blocks <= paged.capacity_blocks);
    }

    #[test]
    fn summaries_serialize_round_trip() {
        let (_, summaries) = paging_report(1);
        assert_eq!(summaries.len(), 6);
        let json = serde_json::to_string(&summaries).unwrap();
        let back: Vec<PagingSummary> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, summaries);
    }
}
