//! Numerically stable activation and normalisation primitives.

use crate::Matrix;

/// Numerically stable softmax over a slice of logits.
///
/// Returns a probability vector that sums to 1 (up to floating-point error). An empty
/// input yields an empty output.
///
/// ```
/// let p = keyformer_tensor::ops::softmax(&[0.0, 0.0]);
/// assert!((p[0] - 0.5).abs() < 1e-6);
/// ```
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    if logits.is_empty() {
        return Vec::new();
    }
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.iter().map(|&x| (x - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    if sum == 0.0 || !sum.is_finite() {
        // All logits were -inf (fully masked) or overflowed: fall back to uniform.
        let uniform = 1.0 / logits.len() as f32;
        return vec![uniform; logits.len()];
    }
    exps.iter().map(|&e| e / sum).collect()
}

/// [`softmax`] writing into a caller-provided buffer, so a hot loop can reuse
/// one allocation across calls.
///
/// `out` is cleared and refilled; with sufficient capacity the call performs no
/// heap allocation. The arithmetic (max-subtraction, exponentiation order,
/// single sum, per-element divide, uniform fallback) is exactly [`softmax`]'s,
/// so the two produce bit-identical results.
pub fn softmax_into(logits: &[f32], out: &mut Vec<f32>) {
    out.clear();
    if logits.is_empty() {
        return;
    }
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    out.extend(logits.iter().map(|&x| (x - max).exp()));
    let sum: f32 = out.iter().sum();
    if sum == 0.0 || !sum.is_finite() {
        // All logits were -inf (fully masked) or overflowed: fall back to uniform.
        let uniform = 1.0 / logits.len() as f32;
        out.fill(uniform);
        return;
    }
    for e in out.iter_mut() {
        *e /= sum;
    }
}

/// [`softmax`] computed in place over `xs`, for callers that build the
/// logits in a scratch buffer they own. Same arithmetic as [`softmax`], so the
/// bits match.
pub fn softmax_in_place(xs: &mut [f32]) {
    if xs.is_empty() {
        return;
    }
    let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    for x in xs.iter_mut() {
        *x = (*x - max).exp();
    }
    let sum: f32 = xs.iter().sum();
    if sum == 0.0 || !sum.is_finite() {
        // All logits were -inf (fully masked) or overflowed: fall back to uniform.
        xs.fill(1.0 / xs.len() as f32);
        return;
    }
    for e in xs.iter_mut() {
        *e /= sum;
    }
}

/// Softmax with a temperature parameter `tau`.
///
/// `tau -> 0` sharpens the distribution towards an argmax, `tau -> inf` flattens it
/// towards uniform. This is the primitive behind the Keyformer score function
/// (Equation 9 of the paper).
///
/// # Panics
///
/// Panics if `tau <= 0`.
pub fn softmax_with_temperature(logits: &[f32], tau: f32) -> Vec<f32> {
    assert!(tau > 0.0, "temperature must be strictly positive");
    let scaled: Vec<f32> = logits.iter().map(|&x| x / tau).collect();
    softmax(&scaled)
}

/// Numerically stable log-softmax.
pub fn log_softmax(logits: &[f32]) -> Vec<f32> {
    if logits.is_empty() {
        return Vec::new();
    }
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let log_sum: f32 = logits.iter().map(|&x| (x - max).exp()).sum::<f32>().ln() + max;
    logits.iter().map(|&x| x - log_sum).collect()
}

/// Shannon entropy (in nats) of a probability vector.
///
/// Zero-probability entries contribute zero, matching the usual convention
/// `0 * ln(0) = 0`. Used to verify the paper's Equation 8 claim that Gumbel logit
/// adjustment increases post-softmax entropy.
pub fn entropy(probs: &[f32]) -> f32 {
    probs
        .iter()
        .filter(|&&p| p > 0.0)
        .map(|&p| -p * p.ln())
        .sum()
}

/// Gaussian error linear unit, using the tanh approximation used by GPT-style models.
pub fn gelu(x: f32) -> f32 {
    const SQRT_2_OVER_PI: f32 = 0.797_884_6;
    0.5 * x * (1.0 + (SQRT_2_OVER_PI * (x + 0.044_715 * x * x * x)).tanh())
}

/// Applies [`gelu`] element-wise to a slice, in place.
pub fn gelu_in_place(xs: &mut [f32]) {
    for x in xs {
        *x = gelu(*x);
    }
}

/// Layer normalisation with learnable gain/bias.
///
/// # Panics
///
/// Panics if `gain` or `bias` length differs from `x`.
pub fn layer_norm(x: &[f32], gain: &[f32], bias: &[f32], eps: f32) -> Vec<f32> {
    assert_eq!(x.len(), gain.len(), "gain length must match input");
    assert_eq!(x.len(), bias.len(), "bias length must match input");
    if x.is_empty() {
        return Vec::new();
    }
    let n = x.len() as f32;
    let mean = x.iter().sum::<f32>() / n;
    let var = x.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / n;
    let denom = (var + eps).sqrt();
    x.iter()
        .zip(gain.iter().zip(bias.iter()))
        .map(|(&v, (&g, &b))| g * (v - mean) / denom + b)
        .collect()
}

/// [`layer_norm`] writing into a caller-provided buffer.
///
/// `out` is cleared and refilled; with sufficient capacity the call performs no
/// heap allocation. The arithmetic (mean, biased variance, shared denominator,
/// per-element affine) is exactly [`layer_norm`]'s, so the two produce
/// bit-identical results.
///
/// # Panics
///
/// Panics if `gain` or `bias` length differs from `x`.
pub fn layer_norm_into(x: &[f32], gain: &[f32], bias: &[f32], eps: f32, out: &mut Vec<f32>) {
    assert_eq!(x.len(), gain.len(), "gain length must match input");
    assert_eq!(x.len(), bias.len(), "bias length must match input");
    out.clear();
    if x.is_empty() {
        return;
    }
    let n = x.len() as f32;
    let mean = x.iter().sum::<f32>() / n;
    let var = x.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / n;
    let denom = (var + eps).sqrt();
    out.extend(
        x.iter()
            .zip(gain.iter().zip(bias.iter()))
            .map(|(&v, (&g, &b))| g * (v - mean) / denom + b),
    );
}

/// [`layer_norm`] writing into a caller-provided slice of exactly the input's
/// length — the variant chunk-batched prefill uses to normalise one row of a
/// flat `chunk x d_model` buffer without touching a `Vec`.
///
/// The arithmetic (mean, biased variance, shared denominator, per-element
/// affine) is exactly [`layer_norm`]'s, so the two produce bit-identical
/// results.
///
/// # Panics
///
/// Panics if `gain`, `bias` or `out` length differs from `x`.
pub fn layer_norm_slice(x: &[f32], gain: &[f32], bias: &[f32], eps: f32, out: &mut [f32]) {
    assert_eq!(x.len(), gain.len(), "gain length must match input");
    assert_eq!(x.len(), bias.len(), "bias length must match input");
    assert_eq!(x.len(), out.len(), "output length must match input");
    if x.is_empty() {
        return;
    }
    let n = x.len() as f32;
    let mean = x.iter().sum::<f32>() / n;
    let var = x.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / n;
    let denom = (var + eps).sqrt();
    for (o, (&v, (&g, &b))) in out
        .iter_mut()
        .zip(x.iter().zip(gain.iter().zip(bias.iter())))
    {
        *o = g * (v - mean) / denom + b;
    }
}

/// Row-wise softmax over a matrix of logits.
pub fn softmax_rows(logits: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(logits.rows(), logits.cols());
    for r in 0..logits.rows() {
        let probs = softmax(logits.row(r));
        out.row_mut(r).copy_from_slice(&probs);
    }
    out
}

/// Cross-entropy (in nats) of the target index under a logit vector.
///
/// # Panics
///
/// Panics if `target` is out of bounds.
pub fn cross_entropy(logits: &[f32], target: usize) -> f32 {
    assert!(target < logits.len(), "target index out of bounds");
    -log_softmax(logits)[target]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f32, b: f32, tol: f32) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert_close(p.iter().sum::<f32>(), 1.0, 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = softmax(&[1.0, 2.0, 3.0]);
        let b = softmax(&[1001.0, 1002.0, 1003.0]);
        for (x, y) in a.iter().zip(&b) {
            assert_close(*x, *y, 1e-5);
        }
    }

    #[test]
    fn softmax_handles_extremes() {
        let p = softmax(&[-1.0e30, 0.0]);
        assert_close(p[1], 1.0, 1e-6);
        let masked = softmax(&[f32::NEG_INFINITY, f32::NEG_INFINITY]);
        assert_close(masked[0], 0.5, 1e-6);
        assert!(softmax(&[]).is_empty());
    }

    #[test]
    fn temperature_sharpens_and_flattens() {
        let logits = [1.0, 2.0, 3.0];
        let sharp = softmax_with_temperature(&logits, 0.1);
        let flat = softmax_with_temperature(&logits, 100.0);
        assert!(sharp[2] > 0.99);
        assert!((flat[0] - 1.0 / 3.0).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "temperature")]
    fn zero_temperature_panics() {
        softmax_with_temperature(&[1.0], 0.0);
    }

    #[test]
    fn log_softmax_matches_softmax() {
        let logits = [0.5, -1.0, 2.0, 0.0];
        let p = softmax(&logits);
        let lp = log_softmax(&logits);
        for (a, b) in p.iter().zip(&lp) {
            assert_close(a.ln(), *b, 1e-5);
        }
    }

    #[test]
    fn entropy_of_uniform_is_ln_n() {
        let p = vec![0.25; 4];
        assert_close(entropy(&p), (4.0f32).ln(), 1e-5);
        assert_close(entropy(&[1.0, 0.0]), 0.0, 1e-6);
    }

    #[test]
    fn higher_temperature_increases_entropy() {
        let logits = [3.0, 1.0, 0.2, -1.0];
        let h1 = entropy(&softmax_with_temperature(&logits, 1.0));
        let h2 = entropy(&softmax_with_temperature(&logits, 2.0));
        assert!(h2 > h1);
    }

    #[test]
    fn gelu_known_values() {
        assert_close(gelu(0.0), 0.0, 1e-6);
        assert!(gelu(1.0) > 0.8 && gelu(1.0) < 0.9);
        assert!(gelu(-10.0).abs() < 1e-3);
        let mut xs = [0.0, 1.0];
        gelu_in_place(&mut xs);
        assert_close(xs[1], gelu(1.0), 1e-6);
    }

    #[test]
    fn layer_norm_normalises() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let gain = [1.0; 4];
        let bias = [0.0; 4];
        let y = layer_norm(&x, &gain, &bias, 1e-5);
        let mean: f32 = y.iter().sum::<f32>() / 4.0;
        let var: f32 = y.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
        assert_close(mean, 0.0, 1e-5);
        assert_close(var, 1.0, 1e-2);
    }

    #[test]
    fn layer_norm_applies_gain_and_bias() {
        let x = [1.0, 2.0];
        let y = layer_norm(&x, &[2.0, 2.0], &[1.0, 1.0], 1e-5);
        assert_close(y[0] + y[1], 2.0, 1e-4);
    }

    #[test]
    fn softmax_into_is_bit_identical_to_softmax() {
        let cases: &[&[f32]] = &[
            &[1.0, 2.0, 3.0],
            &[-1.0e30, 0.0],
            &[f32::NEG_INFINITY, f32::NEG_INFINITY],
            &[],
            &[0.25, -7.5, 3.125, 3.125, 0.0],
        ];
        let mut out = Vec::new();
        for logits in cases {
            softmax_into(logits, &mut out);
            assert_eq!(out, softmax(logits), "diverged on {logits:?}");
        }
    }

    #[test]
    fn softmax_in_place_is_bit_identical_to_softmax() {
        let cases: &[&[f32]] = &[
            &[1.0, 2.0, 3.0],
            &[-1.0e30, 0.0],
            &[f32::NEG_INFINITY, f32::NEG_INFINITY],
            &[],
            &[0.25, -7.5, 3.125, 3.125, -0.0],
            &[f32::INFINITY, 1.0],
        ];
        for logits in cases {
            let mut xs = logits.to_vec();
            softmax_in_place(&mut xs);
            let want: Vec<u32> = softmax(logits).iter().map(|x| x.to_bits()).collect();
            let got: Vec<u32> = xs.iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, want, "diverged on {logits:?}");
        }
    }

    #[test]
    fn layer_norm_into_is_bit_identical_to_layer_norm() {
        let x = [1.0f32, -2.0, 3.5, 0.125];
        let gain = [2.0f32, 1.0, 0.5, -1.0];
        let bias = [0.1f32, 0.0, -0.5, 1.0];
        let mut out = vec![99.0; 7];
        layer_norm_into(&x, &gain, &bias, 1e-5, &mut out);
        assert_eq!(out, layer_norm(&x, &gain, &bias, 1e-5));
        layer_norm_into(&[], &[], &[], 1e-5, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn layer_norm_slice_is_bit_identical_to_layer_norm() {
        let x = [1.0f32, -2.0, 3.5, 0.125];
        let gain = [2.0f32, 1.0, 0.5, -1.0];
        let bias = [0.1f32, 0.0, -0.5, 1.0];
        let mut out = [99.0; 4];
        layer_norm_slice(&x, &gain, &bias, 1e-5, &mut out);
        assert_eq!(out.to_vec(), layer_norm(&x, &gain, &bias, 1e-5));
        layer_norm_slice(&[], &[], &[], 1e-5, &mut []);
    }

    #[test]
    fn softmax_rows_normalises_each_row() {
        let m = Matrix::from_rows(&[vec![1.0, 1.0], vec![0.0, 10.0]]);
        let p = softmax_rows(&m);
        assert_close(p.row(0).iter().sum::<f32>(), 1.0, 1e-6);
        assert_close(p.row(1).iter().sum::<f32>(), 1.0, 1e-6);
        assert!(p.get(1, 1) > 0.99);
    }

    #[test]
    fn cross_entropy_prefers_correct_target() {
        let logits = [0.0, 5.0, 0.0];
        assert!(cross_entropy(&logits, 1) < cross_entropy(&logits, 0));
    }
}
