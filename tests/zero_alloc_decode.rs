//! Proof that steady-state decode on the workspace path performs **zero heap
//! allocations per token**.
//!
//! A counting wrapper around the system allocator is installed as the global
//! allocator for this test binary. After a request is admitted
//! (`Session::begin` reserves every monotone-growth buffer for the whole
//! request up front) and a few warm-up decode steps have filled the
//! fixed-capacity scratch buffers and crossed the first block boundary, the
//! counter is armed and several more decode steps run entirely inside one KV
//! block. The assertion is exact: not "few allocations", zero. It holds for
//! Full attention and for Keyformer without a budget, whose per-head scoring
//! (Gumbel draw, temperature softmax, accumulation) runs in a reused buffer.
//!
//! The window deliberately avoids the two places the hot path *is* allowed to
//! allocate: block boundaries (a fresh KV block, its rotated-key entry and a
//! per-block `positions` reservation) and the stats collector (off here, as
//! in serving). Allocation-freedom is a property of the default
//! [`ForwardPath::Workspace`] only — the legacy path allocates per token by
//! design, which is what `BENCH_hotpath.json` quantifies.

// The GlobalAlloc trait is unsafe to implement; this thin counting wrapper
// delegates straight to the system allocator.
#![allow(unsafe_code)]

use keyformer::core::spec::PolicySpec;
use keyformer::model::families::ModelFamily;
use keyformer::model::generation::GenerationConfig;
use keyformer::model::session::Session;
use keyformer::model::workspace::ForwardPath;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

/// System allocator wrapper that counts allocation events (fresh allocations
/// and reallocations; frees are not counted) while [`COUNTING`] is set.
struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Decodes one Tiny-model request under `policy` (no cache budget, so no
/// eviction) and returns the allocations counted over 8 steady-state decode
/// steps.
fn counted_decode_allocations(spec: PolicySpec) -> usize {
    let model = ModelFamily::Tiny.build(11);
    let policy = spec.build().unwrap();
    let mut session = Session::new(&model, policy, None).with_forward_path(ForwardPath::Workspace);

    // One full 16-slot block of prompt; begin() reserves sequence and
    // per-slot attention scratch for the whole request.
    let prompt: Vec<u32> = (0..16).map(|i| (i * 7 + 3) % 128).collect();
    let config = GenerationConfig::new(14);
    session.begin(&prompt, &config).unwrap();
    while session.is_prefilling() {
        session.advance_prefill().unwrap();
    }

    // Warm-up: the first decode forward opens block 1 (an allowed boundary
    // allocation) and later steps settle every scratch buffer at its final
    // capacity — including a scoring policy's per-slot score buckets and
    // scratch row, which grow past the window's 28 slots here.
    for _ in 0..4 {
        session.step().unwrap();
    }

    // Counted window: 8 decode steps, all appending into block 1
    // (slots 16..=31 — positions 20..=27 here).
    ALLOCATIONS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    for _ in 0..8 {
        session.step().unwrap();
    }
    COUNTING.store(false, Ordering::SeqCst);
    let allocations = ALLOCATIONS.load(Ordering::SeqCst);

    // The request itself stayed healthy.
    while session.is_decoding() {
        session.step().unwrap();
    }
    let out = session.take_output().unwrap();
    assert_eq!(out.generated.len(), 14);
    allocations
}

/// This file holds exactly one test: the counter is process-global, so a
/// concurrently running sibling test would pollute the window. It covers
/// Full attention and Keyformer, whose fused Gumbel scoring runs once per
/// head per layer per step.
#[test]
fn steady_state_workspace_decode_allocates_nothing() {
    for spec in [PolicySpec::Full, PolicySpec::keyformer_default()] {
        let label = spec.label();
        let allocations = counted_decode_allocations(spec);
        assert_eq!(
            allocations, 0,
            "steady-state decode on the workspace path must not touch the \
             allocator; {label} counted {allocations} allocation(s) over 8 steps"
        );
    }
}
