//! Positional-encoding families: RoPE (GPT-J), ALiBi (MPT), learned (Cerebras-GPT).

use serde::{Deserialize, Serialize};

/// The positional-encoding family of a model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PositionalEncoding {
    /// Rotary position embeddings applied to queries and keys at attention time
    /// (used by GPT-J).
    Rope,
    /// Attention with Linear Biases: a per-head distance penalty added to the logits
    /// (used by MPT).
    Alibi,
    /// Learned absolute position embeddings added to the token embeddings
    /// (used by Cerebras-GPT).
    Learned,
}

impl std::fmt::Display for PositionalEncoding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PositionalEncoding::Rope => write!(f, "rope"),
            PositionalEncoding::Alibi => write!(f, "alibi"),
            PositionalEncoding::Learned => write!(f, "learned"),
        }
    }
}

/// Applies rotary position embedding to a query/key vector in place.
///
/// Dimension pairs `(2i, 2i+1)` are rotated by `position * theta_i` with
/// `theta_i = base^(-2i/d)`, the standard RoPE formulation. Odd trailing dimensions
/// are left untouched.
pub fn apply_rope(vector: &mut [f32], position: usize, base: f32) {
    apply_rope_scaled(vector, position as f32, base);
}

/// [`apply_rope`] with a fractional (already-scaled) position.
///
/// The substrate models use RoPE *position interpolation*: positions are multiplied
/// by a scale < 1 before rotation so that content matches over long distances are not
/// washed out by high-frequency rotation. This mirrors the position-interpolation
/// technique used to extend the context of real RoPE models.
pub fn apply_rope_scaled(vector: &mut [f32], position: f32, base: f32) {
    let d = vector.len();
    let pairs = d / 2;
    for i in 0..pairs {
        let theta = position * base.powf(-(2.0 * i as f32) / d as f32);
        let (sin, cos) = theta.sin_cos();
        let a = vector[2 * i];
        let b = vector[2 * i + 1];
        vector[2 * i] = a * cos - b * sin;
        vector[2 * i + 1] = a * sin + b * cos;
    }
}

/// Standard RoPE base used by GPT-J-style models.
pub const ROPE_BASE: f32 = 10_000.0;

/// Precomputed RoPE angles: `(cos, sin)` of every dimension pair at every
/// integer position `0..=max_position`, for one head width and position
/// scale.
///
/// Each entry comes from [`apply_rope_scaled`]'s exact expressions
/// (`p as f32 * rope_scale` times `ROPE_BASE.powf(-(2i)/d)`, then `sin_cos`),
/// and [`RopeTable::rotate`] applies them with the same multiply-adds, so a
/// table rotation is bit-identical to [`apply_rope_scaled`] while skipping its
/// per-pair `powf` and `sin_cos`. Positions past the table, and rows of
/// another width, fall back to [`apply_rope_scaled`].
#[derive(Debug, Clone)]
pub struct RopeTable {
    head_dim: usize,
    rope_scale: f32,
    /// `[position][pair]` angle pairs, `(cos, sin)`.
    angles: Vec<(f32, f32)>,
}

impl RopeTable {
    /// Builds the table for rows of width `head_dim` at positions
    /// `0..=max_position` scaled by `rope_scale`.
    pub fn new(head_dim: usize, max_position: usize, rope_scale: f32) -> Self {
        let pairs = head_dim / 2;
        let inv_freq: Vec<f32> = (0..pairs)
            .map(|i| ROPE_BASE.powf(-(2.0 * i as f32) / head_dim as f32))
            .collect();
        let mut angles = Vec::with_capacity((max_position + 1) * pairs);
        for p in 0..=max_position {
            let position = p as f32 * rope_scale;
            angles.extend(inv_freq.iter().map(|&f| {
                let (sin, cos) = (position * f).sin_cos();
                (cos, sin)
            }));
        }
        RopeTable {
            head_dim,
            rope_scale,
            angles,
        }
    }

    /// Rotates `row` in place to integer position `position`: bit-identical
    /// to `apply_rope_scaled(row, position as f32 * rope_scale, ROPE_BASE)`.
    #[inline]
    pub fn rotate(&self, row: &mut [f32], position: usize) {
        let pairs = self.head_dim / 2;
        let angles = position
            .checked_mul(pairs)
            .and_then(|start| self.angles.get(start..start.checked_add(pairs)?));
        match angles {
            Some(angles) if row.len() == self.head_dim => {
                for (pair, &(cos, sin)) in row.chunks_exact_mut(2).zip(angles) {
                    let (a, b) = (pair[0], pair[1]);
                    pair[0] = a * cos - b * sin;
                    pair[1] = a * sin + b * cos;
                }
            }
            _ => apply_rope_scaled(row, position as f32 * self.rope_scale, ROPE_BASE),
        }
    }
}

/// Returns the ALiBi slope for attention head `head` out of `num_heads`.
///
/// Uses the geometric sequence from the ALiBi paper: for `H` heads the slopes are
/// `2^(-8/H), 2^(-16/H), ...`.
pub fn alibi_slope(head: usize, num_heads: usize) -> f32 {
    let num_heads = num_heads.max(1);
    let exponent = -8.0 * (head as f32 + 1.0) / num_heads as f32;
    2.0_f32.powf(exponent)
}

/// The ALiBi bias added to the attention logit of a key at `key_pos` for a query at
/// `query_pos`: `-slope * (query_pos - key_pos)`, clamped at zero for future keys
/// (which a causal decoder never sees anyway).
pub fn alibi_bias(slope: f32, query_pos: usize, key_pos: usize) -> f32 {
    let distance = query_pos.saturating_sub(key_pos) as f32;
    -slope * distance
}

/// Deterministic sinusoidal table used to emulate *learned* absolute position
/// embeddings without training: position `p`, dimension `i` gets
/// `sin(p / 10000^(2i/d))` / `cos(...)` interleaved. The values are fixed, dense and
/// position-unique, which is all the substrate needs from a "learned" embedding.
pub fn learned_position_embedding(position: usize, d_model: usize) -> Vec<f32> {
    let mut out = vec![0.0; d_model];
    for (i, x) in out.iter_mut().enumerate() {
        let exponent = (2 * (i / 2)) as f32 / d_model as f32;
        let angle = position as f32 / ROPE_BASE.powf(exponent);
        *x = if i % 2 == 0 { angle.sin() } else { angle.cos() };
        // Scale down so position information does not swamp token identity: trained
        // models keep positional signal in a low-energy subspace relative to content.
        *x *= 0.02;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use keyformer_tensor::vector::{dot, l2_norm};

    #[test]
    fn display_labels() {
        assert_eq!(PositionalEncoding::Rope.to_string(), "rope");
        assert_eq!(PositionalEncoding::Alibi.to_string(), "alibi");
        assert_eq!(PositionalEncoding::Learned.to_string(), "learned");
    }

    #[test]
    fn rope_at_position_zero_is_identity() {
        let mut v = vec![1.0, 2.0, 3.0, 4.0];
        let orig = v.clone();
        apply_rope(&mut v, 0, ROPE_BASE);
        for (a, b) in v.iter().zip(&orig) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn rope_preserves_norm() {
        let mut v = vec![0.5, -1.0, 2.0, 0.25, 1.5, -0.75];
        let before = l2_norm(&v);
        apply_rope(&mut v, 17, ROPE_BASE);
        assert!((l2_norm(&v) - before).abs() < 1e-4);
    }

    #[test]
    fn rope_dot_product_depends_on_relative_position() {
        // q at position p and k at position p+delta should give the same dot product
        // for any p (the relative-position property of RoPE).
        let q0 = vec![1.0, 0.5, -0.5, 0.25];
        let k0 = vec![0.3, -0.2, 0.8, 0.1];
        let dot_at = |qp: usize, kp: usize| {
            let mut q = q0.clone();
            let mut k = k0.clone();
            apply_rope(&mut q, qp, ROPE_BASE);
            apply_rope(&mut k, kp, ROPE_BASE);
            dot(&q, &k)
        };
        assert!((dot_at(5, 2) - dot_at(105, 102)).abs() < 1e-3);
        assert!((dot_at(8, 8) - dot_at(40, 40)).abs() < 1e-3);
    }

    #[test]
    fn rope_table_matches_apply_rope_scaled_bit_for_bit() {
        // Tiny (head dim 16, scale 1) and GPT-J-like (head dim 32, scale 1/256),
        // plus an odd width whose trailing dimension stays untouched.
        for (head_dim, max_seq_len, rope_scale) in
            [(16, 512, 1.0), (32, 4096, 1.0 / 256.0), (7, 40, 0.5)]
        {
            let table = RopeTable::new(head_dim, max_seq_len, rope_scale);
            let row: Vec<f32> = (0..head_dim)
                .map(|d| (d as f32 * 0.37 - 1.1).sin() * 3.0)
                .collect();
            // Positions past `max_seq_len` exercise the fallback path.
            for position in 0..=max_seq_len + 8 {
                let mut want = row.clone();
                apply_rope_scaled(&mut want, position as f32 * rope_scale, ROPE_BASE);
                let mut got = row.clone();
                table.rotate(&mut got, position);
                assert_eq!(
                    got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "head_dim {head_dim}, position {position}"
                );
            }
            // A row of another width falls back too.
            let mut other = vec![1.0; head_dim + 2];
            let mut want = other.clone();
            table.rotate(&mut other, 3);
            apply_rope_scaled(&mut want, 3.0 * rope_scale, ROPE_BASE);
            assert_eq!(other, want);
        }
    }

    #[test]
    fn alibi_slopes_decrease_geometrically() {
        let s: Vec<f32> = (0..8).map(|h| alibi_slope(h, 8)).collect();
        for pair in s.windows(2) {
            assert!(pair[1] < pair[0]);
            assert!((pair[1] / pair[0] - 0.5).abs() < 1e-5);
        }
        assert!((alibi_slope(0, 8) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn alibi_bias_penalises_distance() {
        let slope = alibi_slope(0, 4);
        assert_eq!(alibi_bias(slope, 10, 10), 0.0);
        assert!(alibi_bias(slope, 10, 0) < alibi_bias(slope, 10, 8));
        // Future keys saturate to zero distance rather than rewarding them.
        assert_eq!(alibi_bias(slope, 5, 9), 0.0);
    }

    #[test]
    fn learned_embeddings_are_position_unique_and_bounded() {
        let a = learned_position_embedding(3, 32);
        let b = learned_position_embedding(4, 32);
        assert_eq!(a.len(), 32);
        assert_ne!(a, b);
        assert!(a.iter().all(|x| x.abs() <= 0.1 + 1e-6));
    }
}
