//! Serving quickstart: run the same burst of requests through the
//! continuous-batching engine under full attention and under Keyformer with a
//! 50% KV budget, at the same fixed KV-byte pool, and compare throughput and
//! per-token latency.
//!
//! This example is a batch driver: it turns event recording off, submits the
//! burst, steps the [`Engine`] to idle and reads its `completions`. See
//! `examples/streaming_chat.rs` for the same engine with per-token event
//! streaming, cancellation and priorities.
//!
//! ```text
//! cargo run --release --example serving
//! ```
//!
//! [`Engine`]: keyformer::serve::Engine

use keyformer::core::{CacheBudgetSpec, PolicySpec};
use keyformer::model::families::ModelFamily;
use keyformer::model::generation::GenerationConfig;
use keyformer::serve::{Engine, Request, ServerConfig, DEFAULT_SERVE_BLOCK_SIZE};
use keyformer::text::datasets::summarization::{SummarizationDataset, SummarizationSpec};

fn main() {
    let spec = SummarizationSpec {
        article_len: 96,
        num_facts: 4,
        filler_pool: 80,
        plant_span: 0.7,
        seed: 1_234,
    };
    let dataset = SummarizationDataset::generate(&spec, 8);
    let model = ModelFamily::MptLike.build(3);
    let bytes_per_token = model.empty_cache().bytes_per_token();
    let max_len = dataset
        .samples()
        .iter()
        .map(|s| s.prompt.len() + s.reference.len())
        .max()
        .expect("dataset is non-empty");
    // Pool sized so full attention fits two requests at a time, with one block
    // per layer of slack for the block-granularity rounding of reservations.
    let pool_bytes = 2 * (max_len + DEFAULT_SERVE_BLOCK_SIZE) * bytes_per_token;
    let step_budget = 40;
    println!(
        "{} requests, KV pool {} KiB, budget {} scheduler steps\n",
        dataset.samples().len(),
        pool_bytes / 1024,
        step_budget
    );

    for (label, policy, budget) in [
        ("Full attention", PolicySpec::Full, None),
        (
            "Keyformer @ 50% KV cache",
            PolicySpec::keyformer_default(),
            Some(CacheBudgetSpec::with_fraction(0.5).expect("valid budget")),
        ),
    ] {
        let mut engine = Engine::new(&model, ServerConfig::new(policy, budget, pool_bytes))
            .expect("valid serving config");
        // This driver harvests completions() retrospectively, so skip event
        // buffering (streaming_chat.rs shows the event-driven side).
        engine.record_events(false);
        for (i, sample) in dataset.samples().iter().enumerate() {
            engine
                .submit(Request::new(
                    i as u64,
                    sample.prompt.clone(),
                    GenerationConfig::new(sample.reference.len()),
                ))
                .expect("requests carry no overrides");
        }
        engine.run(step_budget);
        let stats = engine.stats();
        let completions = engine.completions();
        let completed = completions.len();
        println!("== {label} ==");
        println!(
            "  completed {completed}/{} requests in {} steps ({:.3} requests/step)",
            dataset.samples().len(),
            stats.steps,
            completed as f64 / stats.steps.max(1) as f64
        );
        println!(
            "  peak concurrency {}, mean batch {:.2}, mean live KV {} KiB",
            stats.peak_concurrency,
            stats.mean_batch_size(),
            (stats.mean_live_kv_bytes() / 1024.0).round()
        );
        if completed > 0 {
            let mean_ttft = completions
                .iter()
                .filter_map(|c| c.ttft_steps())
                .sum::<usize>() as f64
                / completed as f64;
            let mean_itl = completions
                .iter()
                .map(|c| c.mean_inter_token_steps())
                .sum::<f64>()
                / completed as f64;
            println!(
                "  mean TTFT {mean_ttft:.1} steps, mean inter-token latency {mean_itl:.2} steps"
            );
        }
        if let Some(first) = completions.first() {
            println!("  first completion: {first}\n");
        } else {
            println!("  no completions inside the step budget\n");
        }
    }
}
