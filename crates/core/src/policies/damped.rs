//! The damped-score baseline of Section 2.3.3 / Figure 5.
//!
//! A straightforward attempt to fix H2O's post-eviction softmax shift is to multiply
//! the accumulated score by a damping factor `α ≤ 1`, counteracting the excess
//! probability mass the survivors inherit from discarded tokens. The paper sweeps
//! `α ∈ [0.875, 1.0]` and shows this is not sufficient to recover full-attention
//! quality — which is the motivation for the Gumbel-regularized score function.

use crate::accumulator::{ScoreAccumulator, ScoreScope};
use crate::budget::CacheBudget;
use crate::observation::AttentionObservation;
use crate::policy::{merge_key_and_recent, KvCachePolicy};
use crate::CoreError;
use keyformer_tensor::ops::softmax_into;
use keyformer_tensor::top_k_indices;

/// H2O-style accumulated-attention scoring with a multiplicative damping factor
/// applied to the running score after every eviction round.
#[derive(Debug, Clone)]
pub struct DampedAttention {
    alpha: f32,
    accumulator: ScoreAccumulator,
    /// Per-observation softmax scratch, reused so `observe` never allocates.
    probs: Vec<f32>,
}

impl DampedAttention {
    /// Creates the policy with damping factor `alpha`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] unless `0 < alpha <= 1`.
    pub fn new(alpha: f32) -> Result<Self, CoreError> {
        if !(alpha > 0.0 && alpha <= 1.0) {
            return Err(CoreError::InvalidConfig(format!(
                "damping factor {alpha} must be in (0, 1]"
            )));
        }
        Ok(DampedAttention {
            alpha,
            accumulator: ScoreAccumulator::new(ScoreScope::PerLayer),
            probs: Vec::new(),
        })
    }

    /// The damping factor α.
    pub fn alpha(&self) -> f32 {
        self.alpha
    }
}

impl KvCachePolicy for DampedAttention {
    fn name(&self) -> &'static str {
        "damped"
    }

    fn observe(&mut self, obs: &AttentionObservation<'_>) {
        softmax_into(obs.logits, &mut self.probs);
        // Damp the per-step score before accumulating: \bar{f} = α f.
        for p in &mut self.probs {
            *p *= self.alpha;
        }
        self.accumulator.accumulate(obs.layer, &self.probs);
    }

    fn select_retained(&mut self, layer: usize, live: usize, budget: &CacheBudget) -> Vec<usize> {
        let scores = self.accumulator.scores(layer, live);
        let target = budget.capacity().min(live);
        let recent = budget.recent_window().min(target);
        let key_region = live.saturating_sub(recent);
        let key_slots = top_k_indices(&scores[..key_region], target - recent.min(target));
        merge_key_and_recent(&key_slots, live, target, recent, &scores)
    }

    fn compact(&mut self, layer: usize, retained: &[usize]) {
        self.accumulator.compact(layer, retained);
    }

    fn reset(&mut self) {
        self.accumulator.reset();
    }

    fn clone_box(&self) -> Box<dyn KvCachePolicy> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::Phase;

    fn observe(policy: &mut DampedAttention, logits: &[f32]) {
        policy.observe(&AttentionObservation {
            layer: 0,
            head: 0,
            phase: Phase::Generation,
            step: 0,
            total_steps: 4,
            logits,
        });
    }

    #[test]
    fn construction_validates_alpha() {
        assert!(DampedAttention::new(0.0).is_err());
        assert!(DampedAttention::new(1.5).is_err());
        assert!(DampedAttention::new(-0.5).is_err());
        let p = DampedAttention::new(0.9).unwrap();
        assert!((p.alpha() - 0.9).abs() < 1e-6);
        assert_eq!(p.name(), "damped");
    }

    #[test]
    fn alpha_one_matches_h2o_ranking() {
        let mut damped = DampedAttention::new(1.0).unwrap();
        let mut h2o = crate::policies::h2o::H2O::default();
        let logits = [3.0, 0.5, 0.1, 2.0, 0.2, 0.3];
        observe(&mut damped, &logits);
        h2o.observe(&AttentionObservation {
            layer: 0,
            head: 0,
            phase: Phase::Generation,
            step: 0,
            total_steps: 4,
            logits: &logits,
        });
        let budget = CacheBudget::new(3, 1);
        assert_eq!(
            damped.select_retained(0, 6, &budget),
            h2o.select_retained(0, 6, &budget)
        );
    }

    #[test]
    fn damping_scales_scores_but_preserves_order() {
        let mut strong = DampedAttention::new(1.0).unwrap();
        let mut weak = DampedAttention::new(0.875).unwrap();
        let logits = [3.0, 1.0, 0.5, 0.2];
        observe(&mut strong, &logits);
        observe(&mut weak, &logits);
        let budget = CacheBudget::new(2, 1);
        // With a single observation the ranking is unchanged; damping alone cannot
        // change which tokens are selected — exactly the paper's point.
        assert_eq!(
            strong.select_retained(0, 4, &budget),
            weak.select_retained(0, 4, &budget)
        );
    }

    #[test]
    fn compact_and_reset_round_trip() {
        let mut p = DampedAttention::new(0.9).unwrap();
        observe(&mut p, &[2.0, 1.0, 0.5, 0.1]);
        let sel = p.select_retained(0, 4, &CacheBudget::new(2, 1));
        p.compact(0, &sel);
        p.reset();
        let fresh = p.select_retained(0, 3, &CacheBudget::new(2, 1));
        assert_eq!(fresh.len(), 2);
    }
}
