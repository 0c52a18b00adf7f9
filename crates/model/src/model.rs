//! The decoder-only transformer model.

use crate::attention::AttentionContext;
use crate::config::ModelConfig;
use crate::decoder::decoder_layer_forward;
use crate::positional::{PositionalEncoding, RopeTable};
use crate::stats::AttentionStats;
use crate::weights::ModelWeights;
use keyformer_core::block::{SharedBlockPool, DEFAULT_BLOCK_SIZE};
use keyformer_core::cache::{KvCache, KvDtype};
use keyformer_core::observation::Phase;
use keyformer_core::policy::KvCachePolicy;
use keyformer_core::CoreError;
use keyformer_tensor::ops::layer_norm;

const LN_EPS: f32 = 1e-5;

/// Mutable state threaded through a single-token forward pass.
pub struct ForwardContext<'a> {
    /// KV cache being filled/read.
    pub cache: &'a mut KvCache,
    /// Eviction policy observing attention.
    pub policy: &'a mut dyn KvCachePolicy,
    /// Optional statistics collector.
    pub stats: Option<&'a mut AttentionStats>,
    /// Full token history of the sequence so far, *including* the token currently
    /// being processed (used by the copy head to resolve successor tokens).
    pub sequence: &'a [u32],
    /// Phase of this step.
    pub phase: Phase,
    /// Decode step within the phase.
    pub step: usize,
    /// Planned generation length `T`.
    pub total_steps: usize,
}

/// A decoder-only transformer with constructed weights (see [`crate::weights`]).
#[derive(Debug, Clone)]
pub struct TransformerModel {
    config: ModelConfig,
    weights: ModelWeights,
    /// RoPE angles for every position up to `max_seq_len` (RoPE models only).
    rope: Option<RopeTable>,
}

impl TransformerModel {
    /// Builds a model from a configuration; weights are a deterministic function of
    /// `config.seed`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the configuration is invalid.
    pub fn new(config: ModelConfig) -> Result<Self, CoreError> {
        config.validate()?;
        let weights = ModelWeights::build(&config);
        let rope = (config.positional == PositionalEncoding::Rope)
            .then(|| RopeTable::new(config.head_dim(), config.max_seq_len, config.rope_scale));
        Ok(TransformerModel {
            config,
            weights,
            rope,
        })
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The model weights (read-only).
    pub fn weights(&self) -> &ModelWeights {
        &self.weights
    }

    /// The precomputed RoPE angle table, for models with
    /// [`PositionalEncoding::Rope`].
    pub fn rope_table(&self) -> Option<&RopeTable> {
        self.rope.as_ref()
    }

    /// Creates an empty KV cache with this model's shape, backed by a private
    /// unbounded block pool.
    pub fn empty_cache(&self) -> KvCache {
        KvCache::new(
            self.config.num_layers,
            self.config.num_heads,
            self.config.head_dim(),
        )
    }

    /// Creates an empty KV cache with this model's shape storing sealed blocks
    /// at `dtype`, backed by a private unbounded block pool.
    pub fn empty_cache_dtype(&self, dtype: KvDtype) -> KvCache {
        self.empty_cache_in_dtype(SharedBlockPool::unbounded(DEFAULT_BLOCK_SIZE), dtype)
    }

    /// Creates an empty KV cache with this model's shape whose layers allocate
    /// from `pool` — how the serving layer makes every session contend for one
    /// shared, bounded block pool.
    pub fn empty_cache_in(&self, pool: SharedBlockPool) -> KvCache {
        self.empty_cache_in_dtype(pool, KvDtype::F32)
    }

    /// Creates an empty KV cache allocating from `pool` with sealed blocks
    /// stored at `dtype` — the constructor behind the serving layer's
    /// per-request KV-dtype knob.
    pub fn empty_cache_in_dtype(&self, pool: SharedBlockPool, dtype: KvDtype) -> KvCache {
        KvCache::with_pool_dtype(
            self.config.num_layers,
            self.config.num_heads,
            self.config.head_dim(),
            pool,
            dtype,
        )
    }

    /// Embeds a token at a sequence position (adding the learned position embedding
    /// when the model uses [`PositionalEncoding::Learned`]).
    ///
    /// # Panics
    ///
    /// Panics if `token` is outside the vocabulary.
    pub fn embed(&self, token: u32, position: usize) -> Vec<f32> {
        let token = token as usize;
        assert!(
            token < self.config.vocab_size,
            "token {token} outside vocabulary of {}",
            self.config.vocab_size
        );
        let mut x = self.weights.embedding.row(token).to_vec();
        if self.config.positional == PositionalEncoding::Learned {
            let pos = position.min(self.weights.position_embedding.rows().saturating_sub(1));
            for (xi, pi) in x.iter_mut().zip(self.weights.position_embedding.row(pos)) {
                *xi += pi;
            }
        }
        x
    }

    /// [`TransformerModel::embed`] into a reused buffer — the same arithmetic
    /// without the per-token allocation.
    ///
    /// # Panics
    ///
    /// Panics if `token` is outside the vocabulary.
    pub fn embed_into(&self, token: u32, position: usize, out: &mut Vec<f32>) {
        let token = token as usize;
        assert!(
            token < self.config.vocab_size,
            "token {token} outside vocabulary of {}",
            self.config.vocab_size
        );
        out.clear();
        out.extend_from_slice(self.weights.embedding.row(token));
        if self.config.positional == PositionalEncoding::Learned {
            let pos = position.min(self.weights.position_embedding.rows().saturating_sub(1));
            for (xi, pi) in out.iter_mut().zip(self.weights.position_embedding.row(pos)) {
                *xi += pi;
            }
        }
    }

    /// Runs one token through the full decoder stack, appending its keys/values to
    /// the cache and returning next-token logits over the vocabulary.
    ///
    /// The returned logits combine the usual tied-embedding readout with the
    /// induction-style copy head: attention mass on a cached slot whose original
    /// position was `p` contributes evidence for the token that followed position `p`
    /// in the full sequence history (`ctx.sequence[p + 1]`). See DESIGN.md for why
    /// this substitution preserves the paper's accuracy-vs-cache-budget behaviour.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] on shape mismatches.
    pub fn forward_token(
        &self,
        token: u32,
        position: usize,
        ctx: &mut ForwardContext<'_>,
    ) -> Result<Vec<f32>, CoreError> {
        let mut hidden = self.embed(token, position);
        let num_layers = self.config.num_layers;
        // The copy head is an explicit induction head: attention mass on a
        // *historical* slot (the current token's own slot is excluded) votes for the
        // token that followed that slot in the original sequence. Votes are gathered
        // from every layer using that layer's own retained slots, so layers that
        // evicted different tokens contribute different evidence.
        let mut copy_votes = vec![0.0f32; self.config.vocab_size];
        let mut copy_total = 0.0f32;
        for layer in 0..num_layers {
            let mut attn_ctx = AttentionContext {
                policy: &mut *ctx.policy,
                stats: ctx.stats.as_deref_mut(),
                phase: ctx.phase,
                step: ctx.step,
                total_steps: ctx.total_steps,
            };
            let out = decoder_layer_forward(
                &self.config,
                &self.weights.layers[layer],
                layer,
                &hidden,
                position,
                ctx.cache.layer_mut(layer),
                &mut attn_ctx,
            )?;
            hidden = out.hidden;
            if self.config.copy_strength > 0.0 {
                let positions = ctx.cache.layer(layer).positions();
                for (&slot_pos, &prob) in positions.iter().zip(&out.mean_probs) {
                    if slot_pos == position {
                        continue;
                    }
                    if let Some(&successor) = ctx.sequence.get(slot_pos + 1) {
                        if successor < self.config.copy_ignore_below {
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

        let final_hidden = layer_norm(
            &hidden,
            &self.weights.final_ln_gain,
            &self.weights.final_ln_bias,
            LN_EPS,
        );
        let mut logits = self
            .weights
            .embedding
            .matvec(&final_hidden)
            .expect("embedding readout shape");

        if self.config.copy_strength > 0.0 && copy_total > 1e-6 {
            for (logit, vote) in logits.iter_mut().zip(&copy_votes) {
                if *vote > 0.0 {
                    *logit += self.config.copy_strength * vote / copy_total;
                }
            }
        }
        Ok(logits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use keyformer_core::policies::full::FullAttention;

    fn forward_sequence(model: &TransformerModel, tokens: &[u32]) -> Vec<f32> {
        let mut cache = model.empty_cache();
        let mut policy = FullAttention::new();
        let mut logits = Vec::new();
        for (pos, &tok) in tokens.iter().enumerate() {
            let mut ctx = ForwardContext {
                cache: &mut cache,
                policy: &mut policy,
                stats: None,
                sequence: &tokens[..=pos],
                phase: Phase::Prompt,
                step: pos,
                total_steps: 8,
            };
            logits = model.forward_token(tok, pos, &mut ctx).unwrap();
        }
        logits
    }

    #[test]
    fn construction_validates_config() {
        assert!(TransformerModel::new(ModelConfig::tiny()).is_ok());
        let mut bad = ModelConfig::tiny();
        bad.d_model = 31;
        assert!(TransformerModel::new(bad).is_err());
    }

    #[test]
    fn forward_produces_vocab_sized_logits_and_fills_cache() {
        let model = TransformerModel::new(ModelConfig::tiny()).unwrap();
        let tokens = [3u32, 17, 42, 9];
        let logits = forward_sequence(&model, &tokens);
        assert_eq!(logits.len(), model.config().vocab_size);
        assert!(logits.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn copy_head_promotes_successor_of_repeated_token() {
        // Classic induction pattern: ... A B ... A -> the model should prefer B.
        let model = TransformerModel::new(ModelConfig::tiny()).unwrap();
        let a = 11u32;
        let b = 87u32;
        let tokens = [5u32, a, b, 23, 61, 40, 19, a];
        let logits = forward_sequence(&model, &tokens);
        let b_rank = logits.iter().filter(|&&x| x > logits[b as usize]).count();
        assert!(
            b_rank < 10,
            "successor token should rank near the top, rank {b_rank}"
        );
    }

    #[test]
    fn copy_head_can_be_disabled() {
        let mut config = ModelConfig::tiny();
        config.copy_strength = 0.0;
        let with_copy = TransformerModel::new(ModelConfig::tiny()).unwrap();
        let without_copy = TransformerModel::new(config).unwrap();
        let tokens = [5u32, 11, 87, 23, 11];
        let l1 = forward_sequence(&with_copy, &tokens);
        let l2 = forward_sequence(&without_copy, &tokens);
        assert_ne!(l1, l2);
    }

    #[test]
    fn embed_respects_positional_family() {
        let rope = TransformerModel::new(ModelConfig::tiny()).unwrap();
        let learned =
            TransformerModel::new(ModelConfig::tiny().with_positional(PositionalEncoding::Learned))
                .unwrap();
        // RoPE models embed tokens position-independently.
        assert_eq!(rope.embed(3, 0), rope.embed(3, 10));
        // Learned-position models do not.
        assert_ne!(learned.embed(3, 0), learned.embed(3, 10));
    }

    #[test]
    fn embed_into_matches_embed() {
        for config in [
            ModelConfig::tiny(),
            ModelConfig::tiny().with_positional(PositionalEncoding::Learned),
        ] {
            let model = TransformerModel::new(config).unwrap();
            let mut buf = Vec::new();
            for (token, position) in [(3u32, 0usize), (17, 5), (90, 600)] {
                model.embed_into(token, position, &mut buf);
                assert_eq!(buf, model.embed(token, position));
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside vocabulary")]
    fn embedding_out_of_vocab_panics() {
        let model = TransformerModel::new(ModelConfig::tiny()).unwrap();
        model.embed(10_000, 0);
    }

    #[test]
    fn empty_cache_matches_model_shape() {
        let model = TransformerModel::new(ModelConfig::tiny()).unwrap();
        let cache = model.empty_cache();
        assert_eq!(cache.num_layers(), model.config().num_layers);
        assert_eq!(cache.layer(0).num_heads(), model.config().num_heads);
        assert_eq!(cache.layer(0).head_dim(), model.config().head_dim());
    }
}
