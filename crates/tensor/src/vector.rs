//! Small free functions over `f32` slices used throughout the workspace.

/// Dot product of two slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot product requires equal lengths");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Rows [`dot_rows_into`] advances together.
const DOT_ROWS: usize = 4;

/// Appends `dot(row, v)` for every `v.len()`-wide row of the row-major
/// `rows` to `out` — the GEMV kernel behind [`crate::Matrix::matvec_into`]
/// and attention's scores over cached keys.
///
/// Each output is the same single ascending-index chain seeded with `-0.0`
/// as [`dot`] (`Iterator::sum`), so the bits match a per-row [`dot`];
/// advancing four independent chains per pass hides the add latency a lone
/// chain is bound by. An empty `v` yields no outputs.
pub fn dot_rows_into(rows: &[f32], v: &[f32], out: &mut Vec<f32>) {
    let width = v.len();
    if width == 0 {
        return;
    }
    debug_assert_eq!(rows.len() % width, 0, "rows must be whole");
    let mut panels = rows.chunks_exact(DOT_ROWS * width);
    for panel in &mut panels {
        let (r0, rest) = panel.split_at(width);
        let (r1, rest) = rest.split_at(width);
        let (r2, r3) = rest.split_at(width);
        let mut acc = [-0.0f32; DOT_ROWS];
        for ((((&a0, &a1), &a2), &a3), &b) in r0.iter().zip(r1).zip(r2).zip(r3).zip(v) {
            acc[0] += a0 * b;
            acc[1] += a1 * b;
            acc[2] += a2 * b;
            acc[3] += a3 * b;
        }
        out.extend_from_slice(&acc);
    }
    out.extend(
        panels
            .remainder()
            .chunks_exact(width)
            .map(|row| row.iter().zip(v).map(|(a, b)| a * b).sum::<f32>()),
    );
}

/// Element-wise sum of two slices into a new vector.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn add(a: &[f32], b: &[f32]) -> Vec<f32> {
    assert_eq!(a.len(), b.len(), "add requires equal lengths");
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// Multiplies every element of a slice by `factor`, returning a new vector.
pub fn scale(a: &[f32], factor: f32) -> Vec<f32> {
    a.iter().map(|x| x * factor).collect()
}

/// Euclidean norm of a slice.
pub fn l2_norm(a: &[f32]) -> f32 {
    a.iter().map(|x| x * x).sum::<f32>().sqrt()
}

/// Arithmetic mean; returns 0 for an empty slice.
pub fn mean(a: &[f32]) -> f32 {
    if a.is_empty() {
        0.0
    } else {
        a.iter().sum::<f32>() / a.len() as f32
    }
}

/// Population variance; returns 0 for an empty slice.
pub fn variance(a: &[f32]) -> f32 {
    if a.is_empty() {
        return 0.0;
    }
    let m = mean(a);
    a.iter().map(|x| (x - m) * (x - m)).sum::<f32>() / a.len() as f32
}

/// Index of the maximum element, breaking ties towards the lowest index.
///
/// Returns `None` for an empty slice or if every element is NaN.
pub fn argmax(a: &[f32]) -> Option<usize> {
    let mut best: Option<(usize, f32)> = None;
    for (i, &x) in a.iter().enumerate() {
        if x.is_nan() {
            continue;
        }
        match best {
            Some((_, bx)) if x <= bx => {}
            _ => best = Some((i, x)),
        }
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_rows_into_matches_dot_bit_for_bit() {
        let v = [0.5f32, -1.25, 3.0];
        for n in 0..10 {
            let rows: Vec<f32> = (0..n * 3)
                .map(|i| {
                    if i % 7 == 0 {
                        -0.0
                    } else {
                        (i as f32 * 0.37).sin()
                    }
                })
                .collect();
            let mut out = vec![9.0];
            dot_rows_into(&rows, &v, &mut out);
            let mut want = vec![9.0f32];
            want.extend(rows.chunks_exact(3).map(|row| dot(&v, row)));
            let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out), bits(&want), "{n} rows");
        }
        let mut out = Vec::new();
        dot_rows_into(&[0.0; 8], &[-0.0, 0.0], &mut out);
        dot_rows_into(&[1.0; 4], &[], &mut out);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn dot_known_value() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn add_and_scale() {
        assert_eq!(add(&[1.0, 2.0], &[3.0, 4.0]), vec![4.0, 6.0]);
        assert_eq!(scale(&[1.0, 2.0], 3.0), vec![3.0, 6.0]);
    }

    #[test]
    fn l2_norm_known_value() {
        assert!((l2_norm(&[3.0, 4.0]) - 5.0).abs() < 1e-6);
        assert_eq!(l2_norm(&[]), 0.0);
    }

    #[test]
    fn mean_and_variance() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!((variance(&[1.0, 2.0, 3.0]) - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
    }

    #[test]
    fn argmax_behaviour() {
        assert_eq!(argmax(&[1.0, 3.0, 2.0]), Some(1));
        assert_eq!(argmax(&[2.0, 2.0]), Some(0));
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[f32::NAN, 1.0]), Some(1));
        assert_eq!(argmax(&[f32::NAN]), None);
    }
}
