//! Allocation-free forward path: a reusable per-session workspace.
//!
//! The legacy forward path ([`crate::model::TransformerModel::forward_token`])
//! allocates on every token: a fresh hidden vector, per-head query/key copies,
//! per-slot logit and probability vectors, a vocabulary-sized copy-vote table
//! and the output logits themselves. None of those sizes change between steps,
//! so a [`ForwardWorkspace`] owns them all and the `*_ws` functions in this
//! module re-run the exact same arithmetic into the reused buffers. In steady
//! state (decoding inside an already-allocated KV block) the workspace path
//! performs **zero heap allocations per token** — see `tests/zero_alloc_decode.rs`.
//!
//! The workspace also caches work the legacy path recomputes every step:
//!
//! * a per-layer [`RotatedKeyCache`] memoizes the RoPE rotation of every cached
//!   key, keyed on KV-block `(id, generation)` so appends top up incrementally
//!   while compaction, CoW forks and quantize-on-seal rebuild exactly the
//!   affected blocks;
//! * per-head ALiBi slopes are precomputed once per model configuration;
//! * RoPE rotations of keys and queries read their `(cos, sin)` pairs from the
//!   model's [`RopeTable`] instead of recomputing a `powf` and a `sin_cos` per
//!   dimension pair.
//!
//! Every buffer reuse preserves the exact f32 operation order of the legacy
//! path, so the two paths are *byte-identical*: the same token streams, the
//! same logit bits (`tests/hotpath_identity.rs` proves this across the policy
//! zoo, both KV dtypes and prefix sharing).

use crate::attention::AttentionContext;
use crate::config::{ModelConfig, PositionMode};
use crate::model::{ForwardContext, TransformerModel};
use crate::positional::{alibi_bias, alibi_slope, PositionalEncoding, RopeTable};
use crate::stats::{AttentionRecord, AttentionStats};
use crate::weights::LayerWeights;
use keyformer_core::cache::{KvCache, KvDtype, LayerKvCache};
use keyformer_core::observation::{AttentionObservation, Phase};
use keyformer_core::policy::KvCachePolicy;
use keyformer_core::{CoreError, RotatedKeyCache};
use keyformer_tensor::ops::{gelu_in_place, layer_norm_into, layer_norm_slice, softmax_into};
use keyformer_tensor::vector::{dot, dot_rows_into};

const LN_EPS: f32 = 1e-5;

/// Which forward implementation a [`crate::session::Session`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ForwardPath {
    /// The original allocating path ([`TransformerModel::forward_token`]).
    /// Kept callable so the `hotpath` experiment can measure both paths in
    /// one process and identity tests can compare them bit-for-bit.
    Legacy,
    /// The workspace path: reused buffers, cached key rotations, fused
    /// block-row iteration. Byte-identical output to `Legacy`.
    #[default]
    Workspace,
}

/// Scratch owned by one decoder-layer forward (all widths fixed by the model
/// configuration).
#[derive(Debug, Clone)]
pub(crate) struct LayerScratch {
    normed: Vec<f32>,
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    attn_out: Vec<f32>,
    normed2: Vec<f32>,
    inner: Vec<f32>,
    ffn_out: Vec<f32>,
}

/// Scratch owned by one attention call. The per-slot buffers (`logits`,
/// `probs`, `mean_probs`) grow with the live cache; their capacity is reserved
/// up front per request so steady-state growth never reallocates.
#[derive(Debug, Clone)]
pub(crate) struct AttnScratch {
    q_head: Vec<f32>,
    /// Head-width scratch for dequantizing `u8` rows and for the fused
    /// `vecmat_into` accumulator.
    dequant: Vec<f32>,
    context: Vec<f32>,
    logits: Vec<f32>,
    probs: Vec<f32>,
    mean_probs: Vec<f32>,
}

/// Scratch owned by the chunk-batched prefill forward
/// ([`forward_chunk_ws`]): flat `[token][feature]` row blocks sized to the
/// chunk being forwarded, plus the buffered attention logits the session
/// replays token-major afterwards. All buffers keep their capacity across
/// chunks.
#[derive(Debug, Clone)]
pub(crate) struct ChunkScratch {
    /// Residual stream rows, `chunk x d_model`.
    hidden: Vec<f32>,
    /// LayerNorm output rows (reused for both pre-norms), `chunk x d_model`.
    normed: Vec<f32>,
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    /// Per-token attention context rows, `chunk x d_model`.
    context: Vec<f32>,
    /// Projection output rows (`wo` and `ffn_out`), `chunk x d_model`.
    proj: Vec<f32>,
    /// FFN inner activations, `chunk x d_ff`.
    inner: Vec<f32>,
    /// Weight-panel packing scratch of the batched GEMM.
    pack: Vec<f32>,
    /// Every attention-logit row of the chunk, concatenated in compute
    /// (layer-major) order.
    obs_data: Vec<f32>,
    /// `(offset, len)` into `obs_data`, indexed `(token * L + layer) * H +
    /// head`, so the replay can walk the rows in sequential (token-major)
    /// order.
    obs_index: Vec<(usize, usize)>,
}

impl ChunkScratch {
    fn new() -> Self {
        ChunkScratch {
            hidden: Vec::new(),
            normed: Vec::new(),
            q: Vec::new(),
            k: Vec::new(),
            v: Vec::new(),
            context: Vec::new(),
            proj: Vec::new(),
            inner: Vec::new(),
            pack: Vec::new(),
            obs_data: Vec::new(),
            obs_index: Vec::new(),
        }
    }
}

/// All reusable state of the allocation-free forward path, owned by a
/// [`crate::session::Session`].
#[derive(Debug, Clone)]
pub struct ForwardWorkspace {
    hidden: Vec<f32>,
    final_hidden: Vec<f32>,
    copy_votes: Vec<f32>,
    /// `alibi_slope(head, num_heads)` for every head, computed once.
    alibi_slopes: Vec<f32>,
    pub(crate) layer: LayerScratch,
    pub(crate) attn: AttnScratch,
    /// One rotated-key cache per decoder layer.
    rot: Vec<RotatedKeyCache>,
    /// Chunk-batched prefill scratch.
    pub(crate) chunk: ChunkScratch,
}

impl ForwardWorkspace {
    /// Builds a workspace for `config` over KV blocks of `block_size` slots.
    pub fn new(config: &ModelConfig, block_size: usize) -> Self {
        let d_model = config.d_model;
        let head_dim = config.head_dim();
        ForwardWorkspace {
            hidden: Vec::with_capacity(d_model),
            final_hidden: Vec::with_capacity(d_model),
            copy_votes: vec![0.0; config.vocab_size],
            alibi_slopes: (0..config.num_heads)
                .map(|h| alibi_slope(h, config.num_heads))
                .collect(),
            layer: LayerScratch {
                normed: Vec::with_capacity(d_model),
                q: Vec::with_capacity(d_model),
                k: Vec::with_capacity(d_model),
                v: Vec::with_capacity(d_model),
                attn_out: Vec::with_capacity(d_model),
                normed2: Vec::with_capacity(d_model),
                inner: Vec::with_capacity(config.d_ff),
                ffn_out: Vec::with_capacity(d_model),
            },
            attn: AttnScratch {
                q_head: vec![0.0; head_dim],
                dequant: vec![0.0; head_dim],
                context: vec![0.0; d_model],
                logits: Vec::new(),
                probs: Vec::new(),
                mean_probs: Vec::new(),
            },
            rot: (0..config.num_layers)
                .map(|_| RotatedKeyCache::new(config.num_heads, head_dim, block_size))
                .collect(),
            chunk: ChunkScratch::new(),
        }
    }

    /// Reserves the per-slot attention buffers for a request of up to `slots`
    /// live cache slots, so decode-time growth never reallocates.
    pub fn reserve_slots(&mut self, slots: usize) {
        self.attn.logits.reserve(slots);
        self.attn.probs.reserve(slots);
        self.attn.mean_probs.reserve(slots);
    }

    /// Drops every cached key rotation (the scratch buffers keep their
    /// capacity). Call when the session rebinds to a new sequence.
    pub fn clear(&mut self) {
        for rot in &mut self.rot {
            rot.clear();
        }
    }

    /// Replays the attention observations [`forward_chunk_ws`] buffered for
    /// one chunk token against the policy (and, when enabled, the statistics
    /// collector), in exactly the per-(layer, head) order the sequential
    /// forward would have produced them. The buffered logit rows are the
    /// sequential path's bits, so Gumbel-sampling policies draw the identical
    /// RNG stream and the recomputed softmax rows match the sequential
    /// statistics records bit-for-bit.
    pub(crate) fn replay_chunk_token(
        &mut self,
        chunk_index: usize,
        step: usize,
        total_steps: usize,
        cache: &KvCache,
        policy: &mut dyn KvCachePolicy,
        mut stats: Option<&mut AttentionStats>,
    ) {
        let num_layers = self.rot.len();
        let num_heads = self.alibi_slopes.len();
        for layer in 0..num_layers {
            for head in 0..num_heads {
                let (offset, len) =
                    self.chunk.obs_index[(chunk_index * num_layers + layer) * num_heads + head];
                let logits = &self.chunk.obs_data[offset..offset + len];
                policy.observe(&AttentionObservation {
                    layer,
                    head,
                    phase: Phase::Prompt,
                    step,
                    total_steps,
                    logits,
                });
                if let Some(stats) = stats.as_deref_mut() {
                    // At this token's turn the layer held exactly `len` slots;
                    // the prompt phase only appends, so the prefix of today's
                    // position table is that moment's table.
                    softmax_into(logits, &mut self.attn.probs);
                    stats.record(AttentionRecord {
                        layer,
                        head,
                        step,
                        phase: Phase::Prompt,
                        probs: self.attn.probs.clone(),
                        positions: cache.layer(layer).positions()[..len].to_vec(),
                    });
                }
            }
        }
    }
}

/// Workspace twin of [`TransformerModel::forward_token`]: identical arithmetic
/// into reused buffers, with next-token logits written into `out_logits`.
pub(crate) fn forward_token_ws(
    model: &TransformerModel,
    token: u32,
    position: usize,
    ctx: &mut ForwardContext<'_>,
    ws: &mut ForwardWorkspace,
    out_logits: &mut Vec<f32>,
) -> Result<(), CoreError> {
    let config = model.config();
    let weights = model.weights();
    let ForwardWorkspace {
        hidden,
        final_hidden,
        copy_votes,
        alibi_slopes,
        layer: layer_scratch,
        attn,
        rot,
        ..
    } = ws;
    model.embed_into(token, position, hidden);
    copy_votes.fill(0.0);
    let mut copy_total = 0.0f32;
    for (layer, layer_rot) in rot.iter_mut().enumerate() {
        let mut attn_ctx = AttentionContext {
            policy: &mut *ctx.policy,
            stats: ctx.stats.as_deref_mut(),
            phase: ctx.phase,
            step: ctx.step,
            total_steps: ctx.total_steps,
        };
        decoder_layer_forward_ws(
            config,
            model.rope_table(),
            &weights.layers[layer],
            layer,
            position,
            ctx.cache.layer_mut(layer),
            &mut attn_ctx,
            layer_rot,
            layer_scratch,
            attn,
            hidden,
            alibi_slopes,
        )?;
        if config.copy_strength > 0.0 {
            let positions = ctx.cache.layer(layer).positions();
            for (&slot_pos, &prob) in positions.iter().zip(&attn.mean_probs) {
                if slot_pos == position {
                    continue;
                }
                if let Some(&successor) = ctx.sequence.get(slot_pos + 1) {
                    if successor < config.copy_ignore_below {
                        continue;
                    }
                    let idx = successor as usize;
                    if idx < copy_votes.len() {
                        copy_votes[idx] += prob;
                        copy_total += prob;
                    }
                }
            }
        }
    }

    layer_norm_into(
        hidden,
        &weights.final_ln_gain,
        &weights.final_ln_bias,
        LN_EPS,
        final_hidden,
    );
    weights
        .embedding
        .matvec_into(final_hidden, out_logits)
        .expect("embedding readout shape");

    if config.copy_strength > 0.0 && copy_total > 1e-6 {
        for (logit, vote) in out_logits.iter_mut().zip(copy_votes.iter()) {
            if *vote > 0.0 {
                *logit += config.copy_strength * vote / copy_total;
            }
        }
    }
    Ok(())
}

/// Chunk-batched prompt forward: runs `tokens` through each decoder layer
/// *once*, with the three QKV projections, the output projection and both FFN
/// matmuls batched into per-chunk GEMMs ([`keyformer_tensor::Matrix::matvec_batch_into`]),
/// and appends each layer's fresh keys/values in bulk
/// ([`LayerKvCache::append_batch_from_slices`]).
///
/// Byte-identity with the token-at-a-time path rests on four invariants:
///
/// * **GEMM bits** — every batched output element is the same single
///   ascending-`k` accumulation chain the per-token `matvec_into` runs, so the
///   projections produce identical bits (the micro-kernel only reorders
///   *independent* chains across registers).
/// * **Causality** — each chunk query `t` attends through
///   [`keyformer_core::cache::KvSlice::truncated`] views of exactly the
///   `pre + t + 1` slots the sequential path had live at that token, and the
///   layer-major schedule only ever feeds a layer residual rows produced by
///   the previous layer — the classic prefill factorization.
/// * **Seal-delimited runs** — on `u8` layers an append that fills a block
///   requantizes it, changing what later reads dequantize to. Appends are
///   therefore batched in runs that break exactly at sealing appends (the
///   sealing append *starts* its run), so every query reads each block in the
///   same sealed/unsealed state the sequential interleaving exposed. `f32`
///   layers are seal-invariant: one run covers the chunk.
/// * **Deferred observation replay** — the per-(token, layer, head) attention
///   logit rows are buffered, and the caller replays them token-major via
///   [`ForwardWorkspace::replay_chunk_token`], preserving the sequential
///   policy-RNG draw order and statistics stream.
///
/// Next-token logits (final LN, readout matmul and copy-vote bonus) are only
/// computed — for the last chunk token — when `compute_logits` is set, i.e.
/// when the chunk reaches the end of the prompt; mid-prompt logits are
/// unobservable and the sequential path discards them.
///
/// Returns the chunk's peak cache byte size as the sequential per-token
/// watermark would have seen it: within a run each layer's byte size grows
/// monotonically and a sealing append only shrinks it, so sampling each layer
/// at its run ends captures every per-token high-water candidate — including
/// the `f32`-staged tail rows a quantize-on-seal collapses, which a simple
/// end-of-chunk snapshot would miss.
#[allow(clippy::too_many_arguments)]
pub(crate) fn forward_chunk_ws(
    model: &TransformerModel,
    tokens: &[u32],
    start_position: usize,
    cache: &mut KvCache,
    sequence: &[u32],
    ws: &mut ForwardWorkspace,
    compute_logits: bool,
    out_logits: &mut Vec<f32>,
) -> Result<usize, CoreError> {
    let n = tokens.len();
    if n == 0 {
        return Ok(0);
    }
    let config = model.config();
    let weights = model.weights();
    let d_model = config.d_model;
    let num_layers = config.num_layers;
    let num_heads = config.num_heads;

    // Embed every chunk token into its residual-stream row.
    {
        let staging = &mut ws.hidden;
        let rows = &mut ws.chunk.hidden;
        rows.clear();
        rows.reserve(n * d_model);
        for (i, &tok) in tokens.iter().enumerate() {
            model.embed_into(tok, start_position + i, staging);
            rows.extend_from_slice(staging);
        }
    }

    let ForwardWorkspace {
        final_hidden,
        copy_votes,
        alibi_slopes,
        attn,
        rot,
        chunk,
        ..
    } = ws;
    let ChunkScratch {
        hidden,
        normed,
        q,
        k,
        v,
        context,
        proj,
        inner,
        pack,
        obs_data,
        obs_index,
    } = chunk;
    obs_data.clear();
    obs_index.clear();
    obs_index.resize(n * num_layers * num_heads, (0, 0));
    let gather_copy = compute_logits && config.copy_strength > 0.0;
    if gather_copy {
        copy_votes.fill(0.0);
    }
    let mut copy_total = 0.0f32;
    let mut peak_bytes = 0usize;

    for (layer, layer_rot) in rot.iter_mut().enumerate() {
        let lw = &weights.layers[layer];
        let layer_cache = cache.layer_mut(layer);
        let pre = layer_cache.len();

        // Pre-norm attention: LN every row, then one GEMM per projection.
        normed.clear();
        normed.resize(n * d_model, 0.0);
        for (row, out) in hidden
            .chunks_exact(d_model)
            .zip(normed.chunks_exact_mut(d_model))
        {
            layer_norm_slice(row, &lw.ln1_gain, &lw.ln1_bias, LN_EPS, out);
        }
        lw.wq
            .matvec_batch_into(normed, n, q, pack)
            .expect("wq shape");
        lw.wk
            .matvec_batch_into(normed, n, k, pack)
            .expect("wk shape");
        lw.wv
            .matvec_batch_into(normed, n, v, pack)
            .expect("wv shape");

        context.clear();
        context.resize(n * d_model, 0.0);

        let bs = layer_cache.block_size().max(1);
        let seals = layer_cache.dtype() != KvDtype::F32;
        let mut layer_peak = 0usize;
        let mut run_start = 0usize;
        while run_start < n {
            // A run ends where the *next* sealing append begins: queries
            // before that append must read the block's staged rows, queries
            // from it on read the sealed (requantized) rows.
            let mut run_end = n;
            if seals {
                let mut i = run_start + 1;
                while i < n {
                    if (pre + i + 1) % bs == 0 {
                        run_end = i;
                        break;
                    }
                    i += 1;
                }
            }
            layer_cache.append_batch_from_slices(
                start_position + run_start,
                run_end - run_start,
                &k[run_start * d_model..run_end * d_model],
                &v[run_start * d_model..run_end * d_model],
            )?;
            layer_peak = layer_peak.max(layer_cache.byte_size());
            if let Some(rope) = model.rope_table() {
                sync_rotations(layer_rot, layer_cache, rope, config.position_mode);
            }
            for t in run_start..run_end {
                let obs_base = (t * num_layers + layer) * num_heads;
                attend_chunk_query_ws(
                    config,
                    model.rope_table(),
                    &q[t * d_model..(t + 1) * d_model],
                    start_position + t,
                    layer_cache,
                    pre + t + 1,
                    layer_rot,
                    attn,
                    alibi_slopes,
                    &mut context[t * d_model..(t + 1) * d_model],
                    obs_data,
                    &mut obs_index[obs_base..obs_base + num_heads],
                    gather_copy && t == n - 1,
                );
            }
            run_start = run_end;
        }
        peak_bytes += layer_peak;

        // Attention output projection, then the pre-norm feed-forward block.
        lw.wo
            .matvec_batch_into(context, n, proj, pack)
            .expect("wo shape");
        for (h, a) in hidden.iter_mut().zip(proj.iter()) {
            *h += a;
        }
        for (row, out) in hidden
            .chunks_exact(d_model)
            .zip(normed.chunks_exact_mut(d_model))
        {
            layer_norm_slice(row, &lw.ln2_gain, &lw.ln2_bias, LN_EPS, out);
        }
        lw.ffn_in
            .matvec_batch_into(normed, n, inner, pack)
            .expect("ffn_in shape");
        gelu_in_place(inner);
        lw.ffn_out
            .matvec_batch_into(inner, n, proj, pack)
            .expect("ffn_out shape");
        for (h, f) in hidden.iter_mut().zip(proj.iter()) {
            *h += f;
        }

        if gather_copy {
            let position = start_position + n - 1;
            let positions = layer_cache.positions();
            for (&slot_pos, &prob) in positions.iter().zip(attn.mean_probs.iter()) {
                if slot_pos == position {
                    continue;
                }
                if let Some(&successor) = sequence.get(slot_pos + 1) {
                    if successor < config.copy_ignore_below {
                        continue;
                    }
                    let idx = successor as usize;
                    if idx < copy_votes.len() {
                        copy_votes[idx] += prob;
                        copy_total += prob;
                    }
                }
            }
        }
    }

    if compute_logits {
        layer_norm_into(
            &hidden[(n - 1) * d_model..n * d_model],
            &weights.final_ln_gain,
            &weights.final_ln_bias,
            LN_EPS,
            final_hidden,
        );
        weights
            .embedding
            .matvec_into(final_hidden, out_logits)
            .expect("embedding readout shape");
        if config.copy_strength > 0.0 && copy_total > 1e-6 {
            for (logit, vote) in out_logits.iter_mut().zip(copy_votes.iter()) {
                if *vote > 0.0 {
                    *logit += config.copy_strength * vote / copy_total;
                }
            }
        }
    }
    Ok(peak_bytes)
}

/// Brings `rot` up to date with `cache`, rotating each key by the table at
/// its effective position: its original sequence position, or its slot under
/// [`PositionMode::Remapped`].
fn sync_rotations(
    rot: &mut RotatedKeyCache,
    cache: &LayerKvCache,
    rope: &RopeTable,
    mode: PositionMode,
) {
    let positions = cache.positions();
    match mode {
        PositionMode::Original => rot.sync(cache, |row, slot| rope.rotate(row, positions[slot])),
        PositionMode::Remapped => rot.sync(cache, |row, slot| rope.rotate(row, slot)),
    }
}

/// One chunk query of [`forward_chunk_ws`]: the same per-head arithmetic as
/// [`attend_single_query_ws`], against a `live`-slot
/// [`keyformer_core::cache::KvSlice::truncated`] causal view of the layer, with
/// the policy observation *buffered* (into `obs_data` / `obs_slots`) instead of
/// delivered — the session replays it token-major afterwards. The rotated-key
/// cache must already cover `live` slots (one [`RotatedKeyCache::sync`] per
/// run).
#[allow(clippy::too_many_arguments)]
fn attend_chunk_query_ws(
    config: &ModelConfig,
    rope: Option<&RopeTable>,
    query: &[f32],
    query_position: usize,
    cache: &LayerKvCache,
    live: usize,
    rot: &RotatedKeyCache,
    attn: &mut AttnScratch,
    alibi_slopes: &[f32],
    context_out: &mut [f32],
    obs_data: &mut Vec<f32>,
    obs_slots: &mut [(usize, usize)],
    want_mean_probs: bool,
) {
    let num_heads = config.num_heads;
    let head_dim = config.head_dim();
    debug_assert!(live >= 1 && live <= cache.len(), "causal view out of range");
    let scale = 1.0 / (head_dim as f32).sqrt();
    let positions = cache.positions();
    let effective_query_pos = match config.position_mode {
        PositionMode::Original => query_position,
        // Under remapping the query sits immediately after the compacted cache.
        PositionMode::Remapped => live - 1,
    };

    let AttnScratch {
        q_head,
        dequant,
        logits,
        probs,
        mean_probs,
        ..
    } = attn;
    if want_mean_probs {
        mean_probs.clear();
        mean_probs.resize(live, 0.0);
    }

    for head in 0..num_heads {
        q_head.copy_from_slice(&query[head * head_dim..(head + 1) * head_dim]);
        if let Some(rope) = rope {
            rope.rotate(q_head, effective_query_pos);
        }
        let slope = alibi_slopes[head];
        logits.clear();
        match config.positional {
            PositionalEncoding::Rope => {
                // Per-block score GEMV, then the same `dot * scale` per slot.
                rot.for_each_block(head, live, |keys| dot_rows_into(keys, q_head, logits));
                for logit in logits.iter_mut() {
                    *logit *= scale;
                }
            }
            PositionalEncoding::Alibi => {
                let keys = cache.keys(head).truncated(live);
                match config.position_mode {
                    PositionMode::Original => keys.for_each_row(dequant, |slot, row| {
                        logits.push(
                            dot(q_head, row) * scale
                                + alibi_bias(slope, effective_query_pos, positions[slot]),
                        );
                    }),
                    PositionMode::Remapped => keys.for_each_row(dequant, |slot, row| {
                        logits.push(
                            dot(q_head, row) * scale + alibi_bias(slope, effective_query_pos, slot),
                        );
                    }),
                }
            }
            PositionalEncoding::Learned => {
                let keys = cache.keys(head).truncated(live);
                keys.for_each_row(dequant, |_slot, row| {
                    logits.push(dot(q_head, row) * scale);
                });
            }
        }

        // Buffer the observation the sequential path would have delivered
        // here; the session replays it in token-major order.
        obs_slots[head] = (obs_data.len(), logits.len());
        obs_data.extend_from_slice(logits);

        softmax_into(logits, probs);
        let values = cache.values(head).truncated(live);
        values
            .vecmat_into(
                probs,
                &mut context_out[head * head_dim..(head + 1) * head_dim],
                dequant,
            )
            .expect("value matrix shape mismatch");
        if want_mean_probs {
            for (m, &p) in mean_probs.iter_mut().zip(probs.iter()) {
                *m += p / num_heads as f32;
            }
        }
    }
}

/// Workspace twin of [`crate::decoder::decoder_layer_forward`]: updates the
/// residual stream in place (the legacy path's `hidden + attn_out` collect and
/// `+=` loop produce the same bits) and leaves the head-averaged attention
/// probabilities in `attn.mean_probs`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn decoder_layer_forward_ws(
    config: &ModelConfig,
    rope: Option<&RopeTable>,
    weights: &LayerWeights,
    layer: usize,
    position: usize,
    cache: &mut LayerKvCache,
    ctx: &mut AttentionContext<'_>,
    rot: &mut RotatedKeyCache,
    scratch: &mut LayerScratch,
    attn: &mut AttnScratch,
    hidden: &mut [f32],
    alibi_slopes: &[f32],
) -> Result<(), CoreError> {
    if hidden.len() != config.d_model {
        return Err(CoreError::InvalidConfig(format!(
            "hidden state width {} does not match d_model {}",
            hidden.len(),
            config.d_model
        )));
    }

    // Pre-norm attention block.
    layer_norm_into(
        hidden,
        &weights.ln1_gain,
        &weights.ln1_bias,
        LN_EPS,
        &mut scratch.normed,
    );
    weights
        .wq
        .matvec_into(&scratch.normed, &mut scratch.q)
        .expect("wq shape");
    weights
        .wk
        .matvec_into(&scratch.normed, &mut scratch.k)
        .expect("wk shape");
    weights
        .wv
        .matvec_into(&scratch.normed, &mut scratch.v)
        .expect("wv shape");

    cache.append_from_slices(position, &scratch.k, &scratch.v)?;

    attend_single_query_ws(
        config,
        rope,
        layer,
        &scratch.q,
        position,
        cache,
        ctx,
        rot,
        attn,
        alibi_slopes,
    );
    weights
        .wo
        .matvec_into(&attn.context, &mut scratch.attn_out)
        .expect("wo shape");
    for (h, a) in hidden.iter_mut().zip(&scratch.attn_out) {
        *h += a;
    }

    // Pre-norm feed-forward block.
    layer_norm_into(
        hidden,
        &weights.ln2_gain,
        &weights.ln2_bias,
        LN_EPS,
        &mut scratch.normed2,
    );
    weights
        .ffn_in
        .matvec_into(&scratch.normed2, &mut scratch.inner)
        .expect("ffn_in shape");
    gelu_in_place(&mut scratch.inner);
    weights
        .ffn_out
        .matvec_into(&scratch.inner, &mut scratch.ffn_out)
        .expect("ffn_out shape");
    for (h, f) in hidden.iter_mut().zip(&scratch.ffn_out) {
        *h += f;
    }
    Ok(())
}

/// Workspace twin of [`crate::attention::attend_single_query`].
///
/// Differences from the legacy path — none of which change a single bit:
///
/// * RoPE key rotations come from the per-layer [`RotatedKeyCache`] instead of
///   being recomputed per step (the cached rows were produced by the same
///   copy-then-rotate arithmetic).
/// * Non-RoPE models read key rows through the allocation-free
///   [`keyformer_core::cache::KvSlice::for_each_row`] visitor instead of
///   per-row `Cow::to_vec`.
/// * Effective key positions are read straight off the cache's position table
///   (or the slot index under [`PositionMode::Remapped`]) instead of being
///   materialized into a per-step `Vec<usize>`.
/// * The context lands in `attn.context` via the fused
///   [`keyformer_core::cache::KvSlice::vecmat_into`], which dequantizes `u8`
///   blocks with the same per-block factoring as `vecmat`.
///
/// # Panics
///
/// Panics if the cache is empty or its head shape disagrees with `config`,
/// like the legacy path.
#[allow(clippy::too_many_arguments)]
pub(crate) fn attend_single_query_ws(
    config: &ModelConfig,
    rope: Option<&RopeTable>,
    layer: usize,
    query: &[f32],
    query_position: usize,
    cache: &LayerKvCache,
    ctx: &mut AttentionContext<'_>,
    rot: &mut RotatedKeyCache,
    attn: &mut AttnScratch,
    alibi_slopes: &[f32],
) {
    let num_heads = config.num_heads;
    let head_dim = config.head_dim();
    assert!(
        !cache.is_empty(),
        "attention requires at least one cached slot"
    );
    assert_eq!(cache.num_heads(), num_heads, "cache head count mismatch");
    assert_eq!(cache.head_dim(), head_dim, "cache head dim mismatch");

    let live = cache.len();
    let scale = 1.0 / (head_dim as f32).sqrt();
    let positions = cache.positions();
    let effective_query_pos = match config.position_mode {
        PositionMode::Original => query_position,
        // Under remapping the query sits immediately after the compacted cache.
        PositionMode::Remapped => live.saturating_sub(1),
    };

    // Keys are rotated once per (block, generation): appends top up, eviction
    // and CoW rewrites rebuild exactly the affected blocks. The rotation only
    // depends on the slot, which is what makes it cacheable across steps.
    if let Some(rope) = rope {
        sync_rotations(rot, cache, rope, config.position_mode);
    }

    let AttnScratch {
        q_head,
        dequant,
        context,
        logits,
        probs,
        mean_probs,
    } = attn;
    mean_probs.clear();
    mean_probs.resize(live, 0.0);

    for head in 0..num_heads {
        q_head.copy_from_slice(&query[head * head_dim..(head + 1) * head_dim]);
        if let Some(rope) = rope {
            rope.rotate(q_head, effective_query_pos);
        }
        let slope = alibi_slopes[head];
        logits.clear();
        match config.positional {
            PositionalEncoding::Rope => {
                // Per-block score GEMV, then the same `dot * scale` per slot.
                rot.for_each_block(head, live, |keys| dot_rows_into(keys, q_head, logits));
                for logit in logits.iter_mut() {
                    *logit *= scale;
                }
            }
            PositionalEncoding::Alibi => {
                let keys = cache.keys(head);
                match config.position_mode {
                    PositionMode::Original => keys.for_each_row(dequant, |slot, row| {
                        logits.push(
                            dot(q_head, row) * scale
                                + alibi_bias(slope, effective_query_pos, positions[slot]),
                        );
                    }),
                    PositionMode::Remapped => keys.for_each_row(dequant, |slot, row| {
                        logits.push(
                            dot(q_head, row) * scale + alibi_bias(slope, effective_query_pos, slot),
                        );
                    }),
                }
            }
            PositionalEncoding::Learned => {
                let keys = cache.keys(head);
                keys.for_each_row(dequant, |_slot, row| {
                    logits.push(dot(q_head, row) * scale);
                });
            }
        }

        ctx.policy.observe(&AttentionObservation {
            layer,
            head,
            phase: ctx.phase,
            step: ctx.step,
            total_steps: ctx.total_steps,
            logits,
        });

        softmax_into(logits, probs);
        if let Some(stats) = ctx.stats.as_deref_mut() {
            stats.record(AttentionRecord {
                layer,
                head,
                step: ctx.step,
                phase: ctx.phase,
                probs: probs.clone(),
                positions: cache.positions().to_vec(),
            });
        }

        let values = cache.values(head);
        values
            .vecmat_into(
                probs,
                &mut context[head * head_dim..(head + 1) * head_dim],
                dequant,
            )
            .expect("value matrix shape mismatch");
        for (m, &p) in mean_probs.iter_mut().zip(probs.iter()) {
            *m += p / num_heads as f32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attention::attend_single_query;
    use crate::config::ModelConfig;
    use keyformer_core::observation::Phase;
    use keyformer_core::policies::full::FullAttention;

    fn filled_cache(config: &ModelConfig, n: usize) -> LayerKvCache {
        let head_dim = config.head_dim();
        let mut cache = LayerKvCache::new(config.num_heads, head_dim);
        for pos in 0..n {
            let per_head: Vec<Vec<f32>> = (0..config.num_heads)
                .map(|h| {
                    (0..head_dim)
                        .map(|d| ((pos * 7 + h * 3 + d) % 11) as f32 * 0.1 - 0.4)
                        .collect()
                })
                .collect();
            cache.append(pos, &per_head, &per_head).unwrap();
        }
        cache
    }

    fn query(config: &ModelConfig) -> Vec<f32> {
        (0..config.d_model)
            .map(|i| ((i * 5 + 1) % 13) as f32 * 0.05 - 0.2)
            .collect()
    }

    /// The workspace attention must be bit-identical to the legacy attention
    /// for every positional family and position mode.
    #[test]
    fn attend_ws_is_bit_identical_to_legacy() {
        for positional in [
            PositionalEncoding::Rope,
            PositionalEncoding::Alibi,
            PositionalEncoding::Learned,
        ] {
            for mode in [PositionMode::Original, PositionMode::Remapped] {
                let config = ModelConfig {
                    positional,
                    position_mode: mode,
                    ..ModelConfig::tiny()
                };
                let mut cache = filled_cache(&config, 9);
                // Introduce holes so the two position modes actually differ.
                cache.retain_slots(&[0, 2, 3, 5, 6, 7, 8]).unwrap();
                let q = query(&config);

                let mut legacy_policy = FullAttention::new();
                let mut legacy_ctx = AttentionContext {
                    policy: &mut legacy_policy,
                    stats: None,
                    phase: Phase::Generation,
                    step: 2,
                    total_steps: 4,
                };
                let legacy = attend_single_query(&config, 0, &q, 9, &cache, &mut legacy_ctx);

                let model = TransformerModel::new(config).unwrap();
                let mut ws = ForwardWorkspace::new(&config, cache.block_size());
                let mut ws_policy = FullAttention::new();
                let mut ws_ctx = AttentionContext {
                    policy: &mut ws_policy,
                    stats: None,
                    phase: Phase::Generation,
                    step: 2,
                    total_steps: 4,
                };
                attend_single_query_ws(
                    &config,
                    model.rope_table(),
                    0,
                    &q,
                    9,
                    &cache,
                    &mut ws_ctx,
                    &mut ws.rot[0],
                    &mut ws.attn,
                    &ws.alibi_slopes,
                );
                assert_eq!(
                    legacy
                        .context
                        .iter()
                        .map(|x| x.to_bits())
                        .collect::<Vec<_>>(),
                    ws.attn
                        .context
                        .iter()
                        .map(|x| x.to_bits())
                        .collect::<Vec<_>>(),
                    "{positional} / {mode} context diverged"
                );
                assert_eq!(
                    legacy
                        .mean_probs
                        .iter()
                        .map(|x| x.to_bits())
                        .collect::<Vec<_>>(),
                    ws.attn
                        .mean_probs
                        .iter()
                        .map(|x| x.to_bits())
                        .collect::<Vec<_>>(),
                    "{positional} / {mode} mean_probs diverged"
                );
            }
        }
    }

    /// Re-attending with the same workspace must give the same bits (the
    /// rotated-key cache serves instead of recomputing).
    #[test]
    fn cached_rotations_serve_repeat_queries() {
        let config = ModelConfig::tiny();
        let cache = filled_cache(&config, 7);
        let q = query(&config);
        let model = TransformerModel::new(config).unwrap();
        let mut ws = ForwardWorkspace::new(&config, cache.block_size());
        let run = |ws: &mut ForwardWorkspace| {
            let mut policy = FullAttention::new();
            let mut ctx = AttentionContext {
                policy: &mut policy,
                stats: None,
                phase: Phase::Generation,
                step: 0,
                total_steps: 1,
            };
            attend_single_query_ws(
                &config,
                model.rope_table(),
                0,
                &q,
                7,
                &cache,
                &mut ctx,
                &mut ws.rot[0],
                &mut ws.attn,
                &ws.alibi_slopes,
            );
            ws.attn.context.clone()
        };
        let first = run(&mut ws);
        let covered = ws.rot[0].covered_slots();
        assert_eq!(covered, 7);
        let second = run(&mut ws);
        assert_eq!(first, second);
    }

    #[test]
    fn workspace_precomputes_alibi_slopes() {
        let config = ModelConfig {
            num_heads: 4,
            ..ModelConfig::tiny()
        };
        let ws = ForwardWorkspace::new(&config, 16);
        for h in 0..4 {
            assert_eq!(ws.alibi_slopes[h].to_bits(), alibi_slope(h, 4).to_bits());
        }
    }
}
