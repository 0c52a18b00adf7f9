//! Prefix-sharing experiment: what copy-on-write prefix caching buys a fixed
//! serving pool on a shared-system-prompt workload.
//!
//! Real multi-user traffic shares long common prefixes — system prompts,
//! few-shot templates, tool preambles — and recomputing (and re-storing) those
//! tokens per request wastes both prefill compute and pool blocks. Every row of
//! this experiment runs the *same* oversubscribed Keyformer@50% workload
//! through the *same* KV-byte pool and step budget as the serving-throughput
//! experiment, varying only:
//!
//! * the **shared prefix length** of the 48-token prompts (the rest of each
//!   prompt is a per-request unique suffix),
//! * the **fan-out** (how many requests share one system prompt), and
//! * whether [`keyformer_serve::ServerConfig::prefix_sharing`] is on.
//!
//! With sharing on, the first request of a group prefills cold and registers
//! its prompt blocks; every later request attaches to the cached prefix
//! copy-on-write, skipping those prefill chunks entirely
//! (`prefix_tokens_reused`) and mapping the same physical blocks
//! (`shared_blocks_peak`). Skipped chunks shorten time-to-first-token, so the
//! same step budget completes strictly more requests — and the prefill
//! transient of attached prompts no longer duplicates the prefix, so the pool
//! high-water drops too. Outputs are bit-identical either way (the registry
//! carries policy-state snapshots; `tests/prefix_sharing_properties.rs` asserts
//! identity across the whole policy zoo).

use crate::report::{fmt, Table};
use crate::serving::MODEL_SEED;
use keyformer_core::budget::CacheBudgetSpec;
use keyformer_core::cache::KvDtype;
use keyformer_core::spec::PolicySpec;
use keyformer_model::families::ModelFamily;
use keyformer_model::generation::GenerationConfig;
use keyformer_serve::{Engine, Request, ServerConfig};
use serde::{Deserialize, Serialize};

/// Total prompt length of every request (matches the serving experiment).
const PROMPT_LEN: usize = 48;
/// Tokens generated per request.
const GEN_TOKENS: usize = 8;
/// Prompt tokens forwarded per prefill work unit.
const PREFILL_CHUNK: usize = 8;

/// Machine-readable summary of one prefix-sharing configuration, emitted as
/// `BENCH_prefix.json` by `kf_experiments`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrefixSummary {
    /// Configuration label (e.g. `prefix32/fan8/shared`).
    pub config: String,
    /// Shared system-prompt length in tokens.
    pub prefix_len: usize,
    /// Requests sharing one system prompt.
    pub fanout: usize,
    /// Whether prefix sharing was enabled.
    pub sharing: bool,
    /// Requests submitted.
    pub submitted: usize,
    /// Requests completed within the step budget.
    pub completed: usize,
    /// Scheduler steps executed.
    pub steps: usize,
    /// Requests completed per scheduler step.
    pub requests_per_step: f64,
    /// Prompt tokens served from shared blocks instead of recomputed.
    pub prefix_tokens_reused: u64,
    /// Prefill work units actually executed.
    pub prefill_chunks: usize,
    /// Mean live-slots / allocated-slots at end-of-step steady state.
    pub utilization: f64,
    /// Pool high-water mark in blocks.
    pub peak_blocks: usize,
    /// High-water mark of blocks mapped by more than one holder.
    pub shared_blocks_peak: usize,
    /// Total block allocations over the run.
    pub block_allocs: u64,
    /// Running sessions swapped out under pool pressure.
    pub preemptions: usize,
}

/// The (prefix length, fan-out) grid the experiment sweeps. Suffixes shrink as
/// prefixes grow so every request stays at [`PROMPT_LEN`] tokens and the rows
/// stay pool-comparable.
fn sweep() -> Vec<(usize, usize)> {
    vec![(16, 8), (32, 8), (40, 16)]
}

/// `fanout` requests sharing a `prefix_len`-token system prompt (derived from
/// `group`), each with a unique suffix.
fn shared_prompt_stream(
    group: u32,
    fanout: usize,
    prefix_len: usize,
    first_id: u64,
) -> Vec<Request> {
    (0..fanout)
        .map(|i| {
            let mut prompt: Vec<u32> = (0..prefix_len)
                .map(|t| (t as u32 * 13 + 7 + group * 41) % 120)
                .collect();
            let salt = i as u32 + 1;
            prompt.extend(
                (prefix_len..PROMPT_LEN)
                    .map(|t| (t as u32 * 13 + 7 + salt * 31 + group * 41) % 120),
            );
            Request::new(
                first_id + i as u64,
                prompt,
                GenerationConfig::new(GEN_TOKENS),
            )
        })
        .collect()
}

/// Runs the prefix-sharing sweep and returns both the rendered table and the
/// per-configuration summaries.
pub fn prefix_sharing_report(samples: usize) -> (Table, Vec<PrefixSummary>) {
    let samples = samples.max(1);
    let step_budget = 3 * GEN_TOKENS * samples;
    let model = ModelFamily::Tiny.build(MODEL_SEED);
    // Same pool as the serving-throughput and paging experiments.
    let pool_bytes = crate::sizing::steady_pool_bytes(&model, PROMPT_LEN, GEN_TOKENS, KvDtype::F32);
    let base = ServerConfig::new(
        PolicySpec::keyformer_default(),
        Some(CacheBudgetSpec::with_fraction(0.5).expect("valid fraction")),
        pool_bytes,
    )
    .with_prefill_chunk(PREFILL_CHUNK);

    let mut table = Table::new(
        format!(
            "Copy-on-write prefix sharing at a fixed {pool_bytes}-byte pool \
             (Keyformer@50%, {PROMPT_LEN}-token prompts, {step_budget}-step budget): \
             shared-prefix length x fan-out, sharing off vs. on"
        ),
        &[
            "config",
            "completed",
            "requests_per_step",
            "tokens_reused",
            "prefill_chunks",
            "utilization",
            "peak_blocks",
            "shared_peak",
            "allocs",
            "preemptions",
        ],
    );
    let mut summaries = Vec::new();
    for (prefix_len, fanout) in sweep() {
        for sharing in [false, true] {
            let config = base.with_prefix_sharing(sharing);
            let mut engine = Engine::new(&model, config).expect("prefix config is valid");
            engine.record_events(false);
            // `samples` groups of `fanout` requests; each group shares one
            // system prompt, groups never share with each other.
            for group in 0..samples {
                for request in
                    shared_prompt_stream(group as u32, fanout, prefix_len, (group * fanout) as u64)
                {
                    engine
                        .submit(request)
                        .expect("synthetic requests carry no overrides");
                }
            }
            engine.run(step_budget);
            let stats = *engine.stats();
            let pool = engine.pool_stats();
            let completed = engine.completions().len();
            let label = format!(
                "prefix{prefix_len}/fan{fanout}/{}",
                if sharing { "shared" } else { "cold" }
            );
            let summary = PrefixSummary {
                config: label,
                prefix_len,
                fanout,
                sharing,
                submitted: samples * fanout,
                completed,
                steps: stats.steps,
                requests_per_step: completed as f64 / stats.steps.max(1) as f64,
                prefix_tokens_reused: stats.prefix_tokens_reused,
                prefill_chunks: stats.prefill_chunks,
                utilization: stats.mean_pool_utilization(),
                peak_blocks: pool.peak_in_use,
                shared_blocks_peak: pool.peak_shared_blocks,
                block_allocs: pool.total_allocs,
                preemptions: stats.preemptions,
            };
            table.push_row(vec![
                summary.config.clone(),
                summary.completed.to_string(),
                fmt(summary.requests_per_step),
                summary.prefix_tokens_reused.to_string(),
                summary.prefill_chunks.to_string(),
                format!("{:.1}%", summary.utilization * 100.0),
                summary.peak_blocks.to_string(),
                summary.shared_blocks_peak.to_string(),
                summary.block_allocs.to_string(),
                summary.preemptions.to_string(),
            ]);
            summaries.push(summary);
        }
    }
    (table, summaries)
}

/// Table-only entry point used by the experiment registry.
pub fn prefix_sharing(samples: usize) -> Table {
    prefix_sharing_report(samples).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharing_beats_cold_starts_at_every_sweep_point() {
        let (table, summaries) = prefix_sharing_report(1);
        assert_eq!(table.rows.len(), summaries.len());
        assert_eq!(summaries.len(), 2 * sweep().len());
        for pair in summaries.chunks(2) {
            let (cold, shared) = (&pair[0], &pair[1]);
            assert!(!cold.sharing && shared.sharing);
            assert_eq!(cold.prefix_len, shared.prefix_len);
            assert_eq!(cold.submitted, shared.submitted);
            // The acceptance bar: strictly more completions, or equal
            // completions at a strictly lower block high-water.
            assert!(
                shared.completed > cold.completed
                    || (shared.completed == cold.completed
                        && shared.peak_blocks < cold.peak_blocks),
                "{}: shared {} completed / {} peak vs cold {} / {}",
                shared.config,
                shared.completed,
                shared.peak_blocks,
                cold.completed,
                cold.peak_blocks
            );
            assert!(shared.prefix_tokens_reused > 0, "{}", shared.config);
            assert_eq!(cold.prefix_tokens_reused, 0);
            assert!(shared.shared_blocks_peak > 0, "{}", shared.config);
            assert!(
                shared.prefill_chunks <= cold.prefill_chunks,
                "{}: attachment must not add prefill work",
                shared.config
            );
        }
    }

    #[test]
    fn longer_prefixes_reuse_more() {
        let (_, summaries) = prefix_sharing_report(1);
        let shared: Vec<&PrefixSummary> = summaries.iter().filter(|s| s.sharing).collect();
        // Reuse per attached request grows with the registered prefix length.
        let per_request = |s: &PrefixSummary| s.prefix_tokens_reused as f64 / s.submitted as f64;
        assert!(per_request(shared[1]) > per_request(shared[0]));
    }

    #[test]
    fn summaries_serialize_round_trip() {
        let (_, summaries) = prefix_sharing_report(1);
        let json = serde_json::to_string(&summaries).unwrap();
        let back: Vec<PrefixSummary> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, summaries);
    }
}
