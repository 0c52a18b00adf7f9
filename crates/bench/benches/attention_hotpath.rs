//! Forward hot-path microbenchmarks: the legacy allocating forward pass versus
//! the zero-allocation workspace path on the same model and weights.
//!
//! Two granularities. `forward_path` times a full request (prompt + decode) on
//! each [`ForwardPath`], which is where the cached RoPE key rotations and the
//! eliminated per-token allocations show up end to end. `decode_tail` isolates
//! steady-state decode by timing only the generated-token steps after a fixed
//! prompt — the regime the zero-allocation claim is about — and times one
//! Keyformer@50% decode step at ~512 live slots, where every step appends a
//! slot and evicts one (scoring, selection, compaction and key re-rotation).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use keyformer_core::budget::CacheBudgetSpec;
use keyformer_core::spec::PolicySpec;
use keyformer_model::families::ModelFamily;
use keyformer_model::generation::GenerationConfig;
use keyformer_model::session::Session;
use keyformer_model::workspace::ForwardPath;
use std::hint::black_box;
use std::time::Duration;

const PROMPT_LEN: usize = 64;
const GEN_TOKENS: usize = 64;
/// Prompt of the eviction case: Keyformer@50% keeps 512 of its slots.
const EVICT_PROMPT_LEN: usize = 1024;

fn prompt_of(len: usize, vocab: usize) -> Vec<u32> {
    (0..len).map(|t| ((t * 17 + 3) % vocab) as u32).collect()
}

fn prompt(vocab: usize) -> Vec<u32> {
    prompt_of(PROMPT_LEN, vocab)
}

/// Full request latency, legacy vs workspace, across the positional families.
fn bench_forward_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("forward_path");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    let config = GenerationConfig::new(GEN_TOKENS);
    for family in [
        ModelFamily::GptJLike,
        ModelFamily::CerebrasLike,
        ModelFamily::MptLike,
    ] {
        let model = family.build(3);
        let prompt = prompt(model.config().vocab_size);
        for (label, path) in [
            ("legacy", ForwardPath::Legacy),
            ("workspace", ForwardPath::Workspace),
        ] {
            group.bench_with_input(
                BenchmarkId::new(label, format!("{family:?}")),
                &prompt,
                |b, prompt| {
                    b.iter(|| {
                        let policy = PolicySpec::Full.build().expect("valid");
                        let mut session =
                            Session::new(&model, policy, None).with_forward_path(path);
                        black_box(session.generate(black_box(prompt), &config))
                    });
                },
            );
        }
    }
    group.finish();
}

/// Steady-state decode: prompt processed outside the timed region, only the
/// generated-token steps are measured.
fn bench_decode_tail(c: &mut Criterion) {
    let mut group = c.benchmark_group("decode_tail");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    let model = ModelFamily::GptJLike.build(3);
    let prompt = prompt(model.config().vocab_size);
    let config = GenerationConfig::new(GEN_TOKENS);
    for (label, path) in [
        ("legacy", ForwardPath::Legacy),
        ("workspace", ForwardPath::Workspace),
    ] {
        // Prefill once into a template session; each iteration forks it (a
        // cheap copy-on-write block attach) and times only the decode steps.
        let policy = PolicySpec::Full.build().expect("valid");
        let mut template = Session::new(&model, policy, None).with_forward_path(path);
        template.begin(&prompt, &config).expect("prompt admits");
        while template.is_prefilling() {
            template.advance_prefill().expect("prefill advances");
        }
        group.bench_function(BenchmarkId::new("gptj_full", label), |b| {
            b.iter(|| {
                let mut session = template.fork().expect("fork");
                while session.is_decoding() {
                    session.step().expect("decode step");
                }
                black_box(session.take_output())
            });
        });
    }

    // One decode step with eviction: the template's prompt is already cut to
    // its 512-slot budget, so each step appends a slot and evicts one. The
    // running session is re-forked when its generation budget runs out,
    // once per few thousand steps.
    let spec = CacheBudgetSpec::with_fraction(0.5).expect("valid fraction");
    let policy = PolicySpec::keyformer_default().build().expect("valid");
    let mut template = Session::new(&model, policy, Some(spec));
    let long_prompt = prompt_of(EVICT_PROMPT_LEN, model.config().vocab_size);
    let long_gen = model.config().max_seq_len - EVICT_PROMPT_LEN;
    template
        .begin(&long_prompt, &GenerationConfig::new(long_gen))
        .expect("prompt admits");
    while template.is_prefilling() {
        template.advance_prefill().expect("prefill advances");
    }
    assert_eq!(
        template.cache().layer(0).len(),
        EVICT_PROMPT_LEN / 2,
        "the prompt leaves the cache at its budget"
    );
    let mut session = template.fork().expect("fork");
    group.bench_function(BenchmarkId::new("gptj_keyformer50", "workspace"), |b| {
        b.iter(|| {
            if !session.is_decoding() {
                session = template.fork().expect("fork");
            }
            session.step().expect("decode step")
        });
    });
    group.finish();
}

criterion_group!(attention_hotpath, bench_forward_path, bench_decode_tail);
criterion_main!(attention_hotpath);
