//! The correctness gate's other side: each distinct request run through an
//! in-process [`Session`] with the node's policy, budget and dtype, outside
//! the timed window.
//!
//! With `share_prefixes` the sessions of one thread share a prefix registry
//! over a private unbounded pool, so a ~1k-token document is forwarded once
//! per thread instead of once per question. Attaching a cached prefix is
//! output-invisible (`Session::begin_with_prefix`), so the references are
//! the tokens a cold `Session::generate` would produce.

use crate::trace::budget_spec;
use crate::workload::Request;
use keyformer_core::cache::KvDtype;
use keyformer_core::prefix::SharedPrefixRegistry;
use keyformer_core::spec::PolicySpec;
use keyformer_core::{CoreError, SharedBlockPool};
use keyformer_model::generation::GenerationConfig;
use keyformer_model::model::TransformerModel;
use keyformer_model::session::Session;
use keyformer_serve::DEFAULT_SERVE_BLOCK_SIZE;
use std::collections::HashMap;

/// A request's identity for the gate: prompt and output length.
pub type Key<'r> = (&'r [u32], usize);

/// Reference tokens of a run of keys.
type Computed<'r> = Result<Vec<(Key<'r>, Vec<u32>)>, CoreError>;

/// The key of `request`.
pub fn key(request: &Request) -> Key<'_> {
    (request.prompt.as_slice(), request.max_new)
}

/// Greedy tokens of every distinct request in `requests`, computed on
/// `threads` threads, each taking a contiguous run of the sorted requests
/// (so requests on one document land on one thread).
pub fn references<'r>(
    model: &TransformerModel,
    requests: impl IntoIterator<Item = &'r Request>,
    threads: usize,
    share_prefixes: bool,
) -> Result<HashMap<Key<'r>, Vec<u32>>, CoreError> {
    let mut keys: Vec<Key<'r>> = requests.into_iter().map(key).collect();
    keys.sort_unstable();
    keys.dedup();
    let per_thread = keys.len().div_ceil(threads.max(1)).max(1);
    let parts: Vec<Computed<'r>> = std::thread::scope(|scope| {
        let workers: Vec<_> = keys
            .chunks(per_thread)
            .map(|chunk| scope.spawn(move || run_chunk(model, chunk, share_prefixes)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("reference worker panicked"))
            .collect()
    });
    let mut out = HashMap::with_capacity(keys.len());
    for part in parts {
        out.extend(part?);
    }
    Ok(out)
}

fn run_chunk<'r>(model: &TransformerModel, keys: &[Key<'r>], share_prefixes: bool) -> Computed<'r> {
    let pool = SharedBlockPool::unbounded(DEFAULT_SERVE_BLOCK_SIZE);
    let registry = SharedPrefixRegistry::new(&pool);
    keys.iter()
        .map(|&(prompt, max_new)| {
            let policy = PolicySpec::keyformer_default().build()?;
            let config = GenerationConfig::new(max_new);
            let generated = if share_prefixes {
                let mut session =
                    Session::with_pool(model, policy, Some(budget_spec()), pool.clone());
                session.set_prefix_registry(registry.clone(), 0);
                session.begin_with_prefix(prompt, &config)?;
                while session.is_prefilling() {
                    session.advance_prefill()?;
                }
                while session.is_decoding() {
                    session.step()?;
                }
                session
                    .take_output()
                    .map(|o| o.generated)
                    .unwrap_or_default()
            } else {
                let mut session =
                    Session::with_dtype(model, policy, Some(budget_spec()), KvDtype::F32);
                session.generate(prompt, &config)?.generated
            };
            Ok(((prompt, max_new), generated))
        })
        .collect()
}
