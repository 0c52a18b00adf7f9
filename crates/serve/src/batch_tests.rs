//! Batch-driver scheduling scenarios for [`Engine`](crate::Engine): event
//! recording off, submit, step to idle, harvest
//! [`Engine::completions`](crate::Engine::completions) — exactly how the
//! harness experiments and the serving bench drive it. They cover
//! configuration validation, block-reservation admission, FIFO order, bad
//! requests, per-request overrides, chunked prefill, the strict pool,
//! preemption and prefix sharing. `engine.rs` holds the streaming-side tests
//! (events, cancellation, deadlines, priorities, parallel decode).
//!
//! `lib.rs` mounts this file as the test-only module `server`, so these tests
//! keep the names they had when they drove the former batch facade.

mod tests {
    use crate::engine::{Engine, ServerConfig};
    use crate::request::{FailureReason, Request};
    use keyformer_core::budget::CacheBudgetSpec;
    use keyformer_core::spec::PolicySpec;
    use keyformer_core::CoreError;
    use keyformer_model::engine::InferenceEngine;
    use keyformer_model::families::ModelFamily;
    use keyformer_model::generation::GenerationConfig;
    use keyformer_model::model::TransformerModel;

    /// An engine set up the way batch drivers use it: nothing drains events,
    /// so recording is off and no event buffer grows.
    fn batch_engine(
        model: &TransformerModel,
        config: ServerConfig,
    ) -> Result<Engine<'_>, CoreError> {
        let mut engine = Engine::new(model, config)?;
        engine.record_events(false);
        Ok(engine)
    }

    fn prompt(len: usize, salt: u32) -> Vec<u32> {
        (0..len)
            .map(|i| (i as u32 * 13 + 5 + salt * 17) % 120)
            .collect()
    }

    /// 4-slot blocks so the small test pools quantise tightly: with the Tiny
    /// model's budgets below, reservations land exactly on block boundaries.
    fn keyformer_engine(model: &TransformerModel, pool_tokens: usize) -> Engine<'_> {
        let bytes = model.empty_cache().bytes_per_token();
        batch_engine(
            model,
            ServerConfig::new(
                PolicySpec::keyformer_default(),
                Some(CacheBudgetSpec::new(0.5, 0.3).unwrap()),
                pool_tokens * bytes,
            )
            .with_block_size(4),
        )
        .unwrap()
    }

    #[test]
    fn empty_server_is_idle_and_stepping_is_harmless() {
        let model = ModelFamily::Tiny.build(1);
        let mut engine = keyformer_engine(&model, 64);
        assert!(engine.is_idle());
        let report = engine.step();
        assert_eq!(report.decode_steps, 0);
        assert_eq!(report.admitted, 0);
        assert_eq!(report.utilization(), 1.0, "empty pool is not fragmented");
        assert!(report.registry.is_none(), "sharing is off by default");
        assert!(engine.completions().is_empty());
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let model = ModelFamily::Tiny.build(1);
        // Zero-byte pool.
        assert!(Engine::new(&model, ServerConfig::new(PolicySpec::Full, None, 0)).is_err());
        // Pool smaller than a single block.
        let bytes = model.empty_cache().bytes_per_token();
        assert!(Engine::new(
            &model,
            ServerConfig::new(PolicySpec::Full, None, bytes).with_block_size(64),
        )
        .is_err());
        // Zero block size.
        assert!(Engine::new(
            &model,
            ServerConfig::new(PolicySpec::Full, None, 64 * bytes).with_block_size(0),
        )
        .is_err());
        // Zero prefill chunk.
        assert!(Engine::new(
            &model,
            ServerConfig::new(PolicySpec::Full, None, 64 * bytes).with_prefill_chunk(0),
        )
        .is_err());
        // Strict pools require chunked prefill.
        assert!(Engine::new(
            &model,
            ServerConfig::new(PolicySpec::Full, None, 64 * bytes).with_strict_pool(true),
        )
        .is_err());
    }

    #[test]
    fn zero_prefills_per_step_is_rejected_not_clamped() {
        let model = ModelFamily::Tiny.build(1);
        let bytes = model.empty_cache().bytes_per_token();
        let config =
            ServerConfig::new(PolicySpec::Full, None, 64 * bytes).with_prefills_per_step(0);
        assert_eq!(config.prefills_per_step, 0, "builder must not clamp");
        let err = Engine::new(&model, config).map(|_| ()).unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn single_request_completes_identically_to_a_fresh_engine() {
        let model = ModelFamily::Tiny.build(2);
        let config = GenerationConfig::new(6);
        let mut engine = keyformer_engine(&model, 256);
        engine
            .submit(Request::new(1, prompt(24, 0), config))
            .unwrap();
        engine.run(64);
        assert!(engine.is_idle());
        let completions = engine.completions();
        assert_eq!(completions.len(), 1);
        let mut solo = InferenceEngine::new(
            &model,
            PolicySpec::keyformer_default().build().unwrap(),
            Some(CacheBudgetSpec::new(0.5, 0.3).unwrap()),
        );
        let alone = solo.generate(&prompt(24, 0), &config);
        assert_eq!(completions[0].output, alone);
        // Retirement returned every block to the pool.
        assert_eq!(engine.pool().blocks_in_use(), 0);
        assert_eq!(engine.pool().blocks_reserved(), 0);
        // With recording off, a whole run buffers no event.
        assert!(!engine.is_recording_events());
        assert_eq!(engine.pending_events(), 0, "no buffered events");
        assert_eq!(engine.drain_events(), vec![]);
    }

    #[test]
    fn admission_respects_the_block_pool() {
        let model = ModelFamily::Tiny.build(3);
        // Each request reserves ceil(0.5 * 24) = 12 slots = 3 blocks per layer
        // (block size 4, 2 layers => 6 blocks each); a 30-token pool converts
        // to 15 blocks and therefore fits exactly two requests concurrently.
        let mut engine = keyformer_engine(&model, 30);
        assert_eq!(engine.total_blocks(), 15);
        for i in 0..4 {
            engine
                .submit(Request::new(
                    i,
                    prompt(24, i as u32),
                    GenerationConfig::new(5),
                ))
                .unwrap();
        }
        let mut max_running = 0;
        let mut max_reserved = 0;
        while !engine.is_idle() {
            engine.step();
            max_running = max_running.max(engine.running());
            max_reserved = max_reserved.max(engine.reserved_bytes());
            assert!(
                engine.reserved_bytes() <= engine.config().pool_bytes,
                "admission overshot the pool"
            );
        }
        assert_eq!(max_running, 2);
        assert_eq!(max_reserved, 2 * 12 * engine.bytes_per_token());
        assert_eq!(engine.completions().len(), 4);
        assert_eq!(engine.stats().peak_concurrency, 2);
        assert_eq!(engine.pool().blocks_in_use(), 0, "pool drained at idle");
    }

    #[test]
    fn fifo_order_is_preserved_through_admission() {
        let model = ModelFamily::Tiny.build(4);
        // Pool fits one request at a time, so completions must follow submission
        // order exactly.
        let mut engine = keyformer_engine(&model, 12);
        for i in 0..3 {
            engine
                .submit(Request::new(
                    i,
                    prompt(20, i as u32),
                    GenerationConfig::new(4),
                ))
                .unwrap();
        }
        engine.run(256);
        let ids: Vec<u64> = engine.completions().iter().map(|c| c.id.raw()).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        for c in engine.completions() {
            assert!(c.admitted_step >= c.submitted_step);
            assert!(c.completed_step > c.admitted_step || c.output.generated.len() <= 1);
            assert!(c.latency_steps() >= c.queue_steps());
        }
    }

    #[test]
    fn oversized_and_malformed_requests_fail_without_panicking() {
        let model = ModelFamily::Tiny.build(5);
        let mut engine = keyformer_engine(&model, 8);
        // Reserved 0.5 * 200 = 100 slots/layer > 2-block/layer pool: rejected outright.
        engine
            .submit(Request::new(1, prompt(200, 1), GenerationConfig::new(4)))
            .unwrap();
        // Empty prompt: engine error at prefill.
        engine
            .submit(Request::new(2, Vec::new(), GenerationConfig::new(4)))
            .unwrap();
        // Out-of-vocabulary prompt: engine error at prefill.
        engine
            .submit(Request::new(3, vec![9_999], GenerationConfig::new(4)))
            .unwrap();
        // A well-formed request behind the bad ones still completes.
        engine
            .submit(Request::new(4, prompt(14, 4), GenerationConfig::new(3)))
            .unwrap();
        engine.run(64);
        assert!(engine.is_idle());
        assert_eq!(engine.failures().len(), 3);
        assert!(matches!(
            engine.failures()[0].reason,
            FailureReason::TooLargeForPool { .. }
        ));
        assert!(matches!(
            engine.failures()[1].reason,
            FailureReason::Engine(_)
        ));
        assert_eq!(engine.completions().len(), 1);
        assert_eq!(engine.completions()[0].id.raw(), 4);
        // Rejected requests never ran a forward pass, so they must not count as
        // prefills nor consume the step's prefill slot ahead of the valid one.
        assert_eq!(engine.stats().prefills, 1);
        assert_eq!(engine.completions()[0].admitted_step, 1);
        assert_eq!(engine.pool().blocks_reserved(), 0, "no reservation leaked");
    }

    #[test]
    fn smaller_budgets_admit_more_concurrent_sessions() {
        let model = ModelFamily::Tiny.build(6);
        let bytes = model.empty_cache().bytes_per_token();
        let pool = 64 * bytes;
        let run_with = |budget: Option<CacheBudgetSpec>| {
            let mut engine = batch_engine(
                &model,
                ServerConfig::new(PolicySpec::keyformer_default(), budget, pool).with_block_size(4),
            )
            .unwrap();
            for i in 0..6 {
                engine
                    .submit(Request::new(
                        i,
                        prompt(32, i as u32),
                        GenerationConfig::new(6),
                    ))
                    .unwrap();
            }
            engine.run(512);
            assert_eq!(engine.completions().len(), 6);
            engine.stats().peak_concurrency
        };
        let full = run_with(None);
        let half = run_with(Some(CacheBudgetSpec::new(0.5, 0.3).unwrap()));
        assert!(
            half > full,
            "50% budget should admit more sessions (full {full}, half {half})"
        );
    }

    #[test]
    fn stats_track_batches_bytes_and_utilization() {
        let model = ModelFamily::Tiny.build(7);
        let mut engine = keyformer_engine(&model, 256);
        for i in 0..3 {
            engine
                .submit(Request::new(
                    i,
                    prompt(16, i as u32),
                    GenerationConfig::new(4),
                ))
                .unwrap();
        }
        engine.run(64);
        let stats = engine.stats();
        assert_eq!(stats.prefills, 3);
        assert_eq!(stats.prefill_chunks, 3, "one-shot: one chunk per prefill");
        // 3 requests x 4 tokens; each request's final token costs a decode step
        // but no forward, so all 12 are counted.
        assert_eq!(stats.decode_steps, 12);
        assert!(stats.mean_batch_size() > 0.0);
        assert!(stats.mean_live_kv_bytes() > 0.0);
        assert!(stats.peak_live_kv_bytes > 0);
        let utilization = stats.mean_pool_utilization();
        assert!(
            utilization > 0.5 && utilization <= 1.0,
            "implausible utilization {utilization}"
        );
        let pool_stats = engine.pool_stats();
        assert!(pool_stats.total_allocs >= pool_stats.total_frees);
        assert_eq!(pool_stats.in_use, 0);
    }

    #[test]
    fn invalid_overrides_are_rejected_at_submit_time() {
        let model = ModelFamily::Tiny.build(8);
        let mut engine = keyformer_engine(&model, 64);
        let bad_policy = Request::new(1, prompt(10, 0), GenerationConfig::new(2))
            .with_policy(PolicySpec::Damped { alpha: 0.0 });
        assert!(engine.submit(bad_policy).is_err());
        let mut contradictory = Request::new(2, prompt(10, 0), GenerationConfig::new(2));
        contradictory.overrides.budget = Some(CacheBudgetSpec::new(0.5, 0.3).unwrap());
        contradictory.overrides.unbudgeted = true;
        assert!(engine.submit(contradictory).is_err());
        assert_eq!(engine.queued(), 0, "rejected requests are not enqueued");
    }

    #[test]
    fn per_request_overrides_take_effect() {
        let model = ModelFamily::Tiny.build(9);
        let bytes = model.empty_cache().bytes_per_token();
        // Engine default: full attention, unbudgeted.
        let mut engine = batch_engine(
            &model,
            ServerConfig::new(PolicySpec::Full, None, 512 * bytes).with_block_size(4),
        )
        .unwrap();
        let tight = CacheBudgetSpec::new(0.25, 0.3).unwrap();
        let config = GenerationConfig::new(4);
        engine
            .submit(Request::new(0, prompt(32, 0), config))
            .unwrap();
        engine
            .submit(
                Request::new(1, prompt(32, 0), config)
                    .with_policy(PolicySpec::keyformer_default())
                    .with_budget(tight),
            )
            .unwrap();
        engine.run(64);
        assert!(engine.is_idle());
        assert_eq!(engine.completions().len(), 2);
        let by_id = |id: u64| {
            engine
                .completions()
                .iter()
                .find(|c| c.id.raw() == id)
                .unwrap()
        };
        let default_slots = by_id(0).output.final_cache_slots.clone();
        let overridden_slots = by_id(1).output.final_cache_slots.clone();
        assert!(default_slots.iter().all(|&n| n == 35), "{default_slots:?}");
        assert!(
            overridden_slots.iter().all(|&n| n <= 8),
            "override budget ignored: {overridden_slots:?}"
        );
        // The overridden request matches a standalone engine with the same
        // policy + budget.
        let mut solo = InferenceEngine::new(
            &model,
            PolicySpec::keyformer_default().build().unwrap(),
            Some(tight),
        );
        assert_eq!(by_id(1).output, solo.generate(&prompt(32, 0), &config));
        // And the unbudgeted override works in the other direction.
        let mut budgeted_engine = keyformer_engine(&model, 512);
        budgeted_engine
            .submit(Request::new(7, prompt(32, 0), config).with_unbudgeted())
            .unwrap();
        budgeted_engine.run(64);
        assert!(budgeted_engine.completions()[0]
            .output
            .final_cache_slots
            .iter()
            .all(|&n| n == 35));
    }

    #[test]
    fn chunked_prefill_serves_identically_and_spreads_prefill_cost() {
        let model = ModelFamily::Tiny.build(10);
        let bytes = model.empty_cache().bytes_per_token();
        let pool = 128 * bytes;
        let base = ServerConfig::new(
            PolicySpec::keyformer_default(),
            Some(CacheBudgetSpec::new(0.5, 0.3).unwrap()),
            pool,
        )
        .with_block_size(4);
        let run = |config: ServerConfig| {
            let mut engine = batch_engine(&model, config).unwrap();
            for i in 0..4 {
                engine
                    .submit(Request::new(
                        i,
                        prompt(28, i as u32),
                        GenerationConfig::new(5),
                    ))
                    .unwrap();
            }
            engine.run(1024);
            assert!(engine.is_idle());
            assert!(engine.failures().is_empty());
            let mut completions = engine.completions().to_vec();
            completions.sort_by_key(|c| c.id);
            (completions, *engine.stats())
        };
        let (one_shot, one_shot_stats) = run(base);
        let (chunked, chunked_stats) = run(base.with_prefill_chunk(7));
        assert_eq!(one_shot.len(), chunked.len());
        for (a, b) in one_shot.iter().zip(&chunked) {
            assert_eq!(a.id, b.id);
            assert_eq!(
                a.output, b.output,
                "chunked prefill changed request {} output",
                a.id
            );
        }
        // A 28-token prompt at 7 tokens per chunk costs 4 prefill work units.
        assert_eq!(chunked_stats.prefills, 4);
        assert_eq!(chunked_stats.prefill_chunks, 16);
        assert_eq!(one_shot_stats.prefill_chunks, 4);
        // Chunked prefill spreads the prompt over steps, so completion comes
        // later in scheduler-step terms...
        assert!(chunked[0].completed_step > one_shot[0].completed_step);
        // ...but no single step ever forwards more than chunk + batch tokens,
        // where the one-shot engine forwards prompt_len + batch in its
        // admission step. (The per-step ceiling is what chunking buys.)
    }

    #[test]
    fn strict_pool_never_exceeds_capacity_and_still_drains() {
        let model = ModelFamily::Tiny.build(11);
        let bytes = model.empty_cache().bytes_per_token();
        // Tight pool: a 24-token unbudgeted request needs 12 of 16 blocks at
        // its peak, so prefills must pause while decoders hold blocks.
        let mut engine = batch_engine(
            &model,
            ServerConfig::new(PolicySpec::Full, None, 32 * bytes)
                .with_block_size(4)
                .with_prefill_chunk(6)
                .with_strict_pool(true),
        )
        .unwrap();
        let capacity = engine.total_blocks();
        for i in 0..5 {
            engine
                .submit(Request::new(
                    i,
                    prompt(20, i as u32),
                    GenerationConfig::new(4),
                ))
                .unwrap();
        }
        while !engine.is_idle() {
            engine.step();
            assert!(
                engine.pool().blocks_in_use() <= capacity,
                "strict pool overshot: {} > {capacity}",
                engine.pool().blocks_in_use()
            );
        }
        assert_eq!(engine.completions().len(), 5);
        assert!(engine.failures().is_empty());
        assert_eq!(engine.pool_stats().peak_overshoot(), 0);
        // Every completion still matches the sequential engine.
        let mut solo = InferenceEngine::new(&model, PolicySpec::Full.build().unwrap(), None);
        let alone = solo
            .try_generate(&prompt(20, 0), &GenerationConfig::new(4))
            .unwrap();
        assert_eq!(engine.completions()[0].output, alone);
    }

    #[test]
    fn strict_prefill_transient_cannot_starve_a_decoders_reservation() {
        // Regression: with a block-aligned budget (capacity 8, block size 4) a
        // decoder's strict reservation is ceil(9/4) = 3 blocks per layer but
        // its steady occupancy is 2 — one reserved block per layer sits
        // unallocated between steps. A later prefill's transient must pause
        // before eating those blocks, or the decoder's capacity+1 append fails
        // and an admitted request dies as a spurious PoolExhausted failure.
        let model = ModelFamily::Tiny.build(13);
        let bytes = model.empty_cache().bytes_per_token();
        let mut engine = batch_engine(
            &model,
            ServerConfig::new(
                PolicySpec::keyformer_default(),
                Some(CacheBudgetSpec::new(0.5, 0.3).unwrap()),
                28 * bytes, // 14 blocks of 4 slots
            )
            .with_block_size(4)
            .with_prefill_chunk(4)
            .with_strict_pool(true),
        )
        .unwrap();
        assert_eq!(engine.total_blocks(), 14);
        // A decodes (capacity 8, reservation 6 blocks) while B's 24-token
        // prompt (peak 12 blocks, reservation 8) prefills alongside it.
        engine
            .submit(Request::new(0, prompt(16, 0), GenerationConfig::new(6)))
            .unwrap();
        engine
            .submit(Request::new(1, prompt(24, 1), GenerationConfig::new(4)))
            .unwrap();
        let capacity = engine.total_blocks();
        while !engine.is_idle() {
            engine.step();
            assert!(engine.pool().blocks_in_use() <= capacity);
        }
        assert!(
            engine.failures().is_empty(),
            "reserved decoder blocks were stolen by a prefill transient: {:?}",
            engine.failures()
        );
        assert_eq!(engine.completions().len(), 2);
        assert!(
            engine.stats().prefill_stalls > 0,
            "the scenario must actually exercise a stalled prefill"
        );
        assert_eq!(engine.pool_stats().peak_overshoot(), 0);
    }

    /// Requests sharing an L-token prefix, each with a unique suffix.
    fn shared_prefix_requests(
        num: usize,
        prefix_len: usize,
        total_len: usize,
        gen: usize,
    ) -> Vec<Request> {
        (0..num)
            .map(|i| {
                let mut p: Vec<u32> = (0..prefix_len).map(|t| (t as u32 * 13 + 7) % 120).collect();
                p.extend(
                    (prefix_len..total_len)
                        .map(|t| (t as u32 * 13 + 7 + (i as u32 + 1) * 31) % 120),
                );
                Request::new(i as u64, p, GenerationConfig::new(gen))
            })
            .collect()
    }

    #[test]
    fn prefix_sharing_reuses_blocks_and_keeps_outputs_identical() {
        let model = ModelFamily::Tiny.build(14);
        let bytes = model.empty_cache().bytes_per_token();
        let base = ServerConfig::new(
            PolicySpec::keyformer_default(),
            Some(CacheBudgetSpec::new(0.5, 0.3).unwrap()),
            96 * bytes,
        )
        .with_block_size(4)
        .with_prefill_chunk(8);
        let run = |config: ServerConfig| {
            let mut engine = batch_engine(&model, config).unwrap();
            for r in shared_prefix_requests(4, 16, 28, 4) {
                engine.submit(r).unwrap();
            }
            engine.run(512);
            assert!(engine.is_idle());
            assert!(engine.failures().is_empty());
            let mut completions = engine.completions().to_vec();
            completions.sort_by_key(|c| c.id);
            (completions, *engine.stats(), engine.pool_stats())
        };
        let (cold, cold_stats, _) = run(base);
        let (shared, shared_stats, shared_pool) = run(base.with_prefix_sharing(true));
        assert_eq!(cold.len(), shared.len());
        for (a, b) in cold.iter().zip(&shared) {
            assert_eq!(a.id, b.id);
            assert_eq!(
                a.output, b.output,
                "sharing changed request {} output",
                a.id
            );
        }
        // The first request is the cold donor; every later one attaches the
        // 16-token prefix.
        assert_eq!(shared[0].prefix_tokens_reused, 0);
        for c in &shared[1..] {
            assert_eq!(c.prefix_tokens_reused, 16, "request {}", c.id);
        }
        assert_eq!(shared_stats.prefix_tokens_reused, 3 * 16);
        assert_eq!(cold_stats.prefix_tokens_reused, 0);
        assert!(
            shared_stats.prefill_chunks < cold_stats.prefill_chunks,
            "attached prefixes must skip prefill work ({} vs {})",
            shared_stats.prefill_chunks,
            cold_stats.prefill_chunks
        );
        assert!(
            shared_pool.peak_shared_blocks > 0,
            "shared mappings must show up in the pool accounting"
        );
    }

    #[test]
    fn step_reports_surface_memory_state() {
        let model = ModelFamily::Tiny.build(16);
        let bytes = model.empty_cache().bytes_per_token();
        let mut engine = batch_engine(
            &model,
            ServerConfig::new(
                PolicySpec::keyformer_default(),
                Some(CacheBudgetSpec::new(0.5, 0.3).unwrap()),
                96 * bytes,
            )
            .with_block_size(4)
            .with_prefix_sharing(true),
        )
        .unwrap();
        for r in shared_prefix_requests(2, 16, 24, 3) {
            engine.submit(r).unwrap();
        }
        let first = engine.step();
        assert_eq!(first.step, 1);
        assert_eq!(first.admitted, 1, "one prefill slot per step");
        assert!(first.allocated_slots > 0);
        assert!(first.live_slots > 0);
        assert!(first.utilization() > 0.0 && first.utilization() <= 1.0);
        assert!((first.fragmentation() + first.utilization() - 1.0).abs() < 1e-12);
        assert_eq!(first.pool.in_use * 4, first.allocated_slots);
        let registry = first.registry.expect("sharing is on");
        assert!(registry.entries > 0, "donor registered its prompt blocks");
        assert_eq!(registry.hits, 0, "nothing attached yet");
        let second = engine.step();
        assert_eq!(second.admitted, 1);
        assert_eq!(
            second.registry.unwrap().hits,
            1,
            "second admission attached the donor's prefix"
        );
        engine.run(256);
        assert!(engine.is_idle());
        // The registry keeps pinning prefix blocks after retirement...
        assert!(engine.pool().blocks_in_use() > 0);
        assert!(engine.registry_stats().unwrap().blocks_held > 0);
        // ...until it is cleared, which drains the pool completely.
        engine.prefix_registry().unwrap().clear();
        assert_eq!(engine.pool().blocks_in_use(), 0);
    }

    #[test]
    fn dry_strict_pool_preempts_youngest_and_still_completes_everything() {
        let model = ModelFamily::Tiny.build(17);
        let bytes = model.empty_cache().bytes_per_token();
        // A long-decoding budgeted session (admitted first, holding its blocks
        // for many steps) shares a 14-block strict pool with a 24-token
        // prompt whose prefill transient (12 blocks) cannot fit alongside it.
        // The prefill stalls step after step; after PREEMPT_AFTER_STALLS the
        // scheduler must swap the *youngest other* session out (here: the
        // decoder) rather than let the older prefill starve indefinitely.
        let budget = CacheBudgetSpec::new(0.5, 0.3).unwrap();
        let mut engine = batch_engine(
            &model,
            ServerConfig::new(PolicySpec::keyformer_default(), Some(budget), 28 * bytes)
                .with_block_size(4)
                .with_prefill_chunk(4)
                .with_strict_pool(true),
        )
        .unwrap();
        assert_eq!(engine.total_blocks(), 14);
        engine
            .submit(Request::new(0, prompt(16, 0), GenerationConfig::new(24)))
            .unwrap();
        engine
            .submit(Request::new(1, prompt(24, 1), GenerationConfig::new(4)))
            .unwrap();
        let capacity = engine.total_blocks();
        let mut preempted = 0;
        for _ in 0..2_000 {
            if engine.is_idle() {
                break;
            }
            let report = engine.step();
            preempted += report.preempted;
            assert!(engine.pool().blocks_in_use() <= capacity);
        }
        assert!(engine.is_idle(), "scheduler failed to drain");
        assert_eq!(engine.completions().len(), 2, "{:?}", engine.failures());
        assert!(engine.failures().is_empty());
        assert_eq!(engine.stats().preemptions, preempted);
        assert!(
            preempted > 0,
            "the scenario must actually exercise preemption"
        );
        // Every output still matches a solo engine run — the preempted request
        // was recomputed from scratch, token-identically.
        for (c, gen) in [(0u64, 24usize), (1, 4)] {
            let mut solo = InferenceEngine::new(
                &model,
                PolicySpec::keyformer_default().build().unwrap(),
                Some(budget),
            );
            let alone = solo
                .try_generate(
                    &prompt(if c == 0 { 16 } else { 24 }, c as u32),
                    &GenerationConfig::new(gen),
                )
                .unwrap();
            let completion = engine
                .completions()
                .iter()
                .find(|done| done.id.raw() == c)
                .unwrap();
            assert_eq!(completion.output, alone, "request {c}");
        }
    }

    #[test]
    fn eviction_frees_blocks_for_waiting_prefills() {
        let model = ModelFamily::Tiny.build(12);
        let bytes = model.empty_cache().bytes_per_token();
        // Budgeted requests settle at ceil(0.5*24)=12 slots = 3 blocks/layer,
        // but hold 6 blocks/layer mid-prefill. A 10-block pool cannot hold one
        // request's prefill peak (12 blocks) — only AllowTransient admits it,
        // and the end-of-prompt eviction must return the overshoot immediately.
        let mut engine = batch_engine(
            &model,
            ServerConfig::new(
                PolicySpec::keyformer_default(),
                Some(CacheBudgetSpec::new(0.5, 0.3).unwrap()),
                20 * bytes,
            )
            .with_block_size(4),
        )
        .unwrap();
        assert_eq!(engine.total_blocks(), 10);
        engine
            .submit(Request::new(0, prompt(24, 0), GenerationConfig::new(3)))
            .unwrap();
        engine.step();
        // After the admission step the prefill has run AND evicted: the
        // transient 12-block peak is already back down to steady state.
        let peak = engine.pool_stats().peak_in_use;
        assert!(peak >= 12, "prefill transient not visible in peak: {peak}");
        assert!(
            engine.pool().blocks_in_use() <= 8,
            "eviction did not reclaim blocks: {} in use",
            engine.pool().blocks_in_use()
        );
        assert!(engine.pool_stats().peak_overshoot() >= 2);
        engine.run(64);
        assert_eq!(engine.completions().len(), 1);
        assert_eq!(engine.pool().blocks_in_use(), 0);
    }
}
