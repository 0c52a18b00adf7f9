//! Top-k index selection.
//!
//! Every eviction policy in the reproduction ultimately calls [`top_k_indices`] to
//! pick which token slots survive a cache-reduction step, so the selection semantics
//! (deterministic tie-breaking, NaN handling) are centralised here.

use std::cmp::Ordering;

/// A `(score, index)` pair tracked while scanning for maxima.
///
/// Exposed so that callers who need the winning score alongside the index (e.g. the
/// harness when reporting which token won a slot) can reuse the comparison semantics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArgMax {
    /// Score of the winning element.
    pub score: f32,
    /// Index of the winning element in the original slice.
    pub index: usize,
}

fn cmp_score(a: f32, b: f32) -> Ordering {
    // NaN scores sort below everything so they are never selected.
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Less,
        (false, true) => Ordering::Greater,
        (false, false) => a.partial_cmp(&b).unwrap_or(Ordering::Equal),
    }
}

/// Returns the indices of the `k` largest scores, sorted by ascending index.
///
/// Ties are broken towards the *earlier* index, matching the paper's bias towards
/// initial tokens when scores are equal. If `k >= scores.len()` every index is
/// returned. NaN scores are never selected unless there are not enough finite scores
/// to fill `k` slots.
///
/// ```
/// let idx = keyformer_tensor::top_k_indices(&[0.1, 0.9, 0.5, 0.9], 2);
/// assert_eq!(idx, vec![1, 3]);
/// ```
pub fn top_k_indices(scores: &[f32], k: usize) -> Vec<usize> {
    top_k_indices_by(scores, k, |&s| s)
}

/// Like [`top_k_indices`] but extracts the score through a key function, allowing
/// selection over arbitrary per-token records.
pub fn top_k_indices_by<T, F>(items: &[T], k: usize, mut key: F) -> Vec<usize>
where
    F: FnMut(&T) -> f32,
{
    if k == 0 || items.is_empty() {
        return Vec::new();
    }
    let n = items.len();
    let mut order: Vec<usize> = (0..n).collect();
    if k >= n {
        return order;
    }
    // Descending score, ties by ascending index: a strict total order, so
    // partitioning around the k-th element selects exactly the set a full
    // sort would put first, in O(n).
    order.select_nth_unstable_by(k - 1, |&a, &b| {
        cmp_score(key(&items[b]), key(&items[a])).then_with(|| a.cmp(&b))
    });
    // Emit the winners in index order with a linear mark-and-sweep rather
    // than an O(k log k) sort (eviction keeps nearly every slot).
    let mut keep = vec![false; n];
    for &i in &order[..k] {
        keep[i] = true;
    }
    order.clear();
    order.extend((0..n).filter(|&i| keep[i]));
    order
}

/// Returns the single best `(score, index)` pair, or `None` for an empty slice.
pub fn arg_max(scores: &[f32]) -> Option<ArgMax> {
    let mut best: Option<ArgMax> = None;
    for (index, &score) in scores.iter().enumerate() {
        if score.is_nan() {
            continue;
        }
        match best {
            Some(b) if cmp_score(score, b.score) != Ordering::Greater => {}
            _ => best = Some(ArgMax { score, index }),
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selects_largest_k() {
        let scores = [0.2, 0.9, 0.1, 0.8, 0.5];
        assert_eq!(top_k_indices(&scores, 2), vec![1, 3]);
        assert_eq!(top_k_indices(&scores, 3), vec![1, 3, 4]);
    }

    #[test]
    fn k_zero_and_oversized_k() {
        let scores = [1.0, 2.0];
        assert!(top_k_indices(&scores, 0).is_empty());
        assert_eq!(top_k_indices(&scores, 10), vec![0, 1]);
        assert!(top_k_indices(&[], 3).is_empty());
    }

    #[test]
    fn ties_prefer_earlier_index() {
        let scores = [0.5, 0.5, 0.5, 0.5];
        assert_eq!(top_k_indices(&scores, 2), vec![0, 1]);
    }

    #[test]
    fn nan_scores_are_avoided() {
        let scores = [f32::NAN, 1.0, f32::NAN, 0.5];
        assert_eq!(top_k_indices(&scores, 2), vec![1, 3]);
    }

    #[test]
    fn output_is_sorted_by_index() {
        let scores = [0.1, 0.9, 0.2, 0.8, 0.3];
        let idx = top_k_indices(&scores, 4);
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        assert_eq!(idx, sorted);
    }

    #[test]
    fn top_k_by_key_function() {
        #[derive(Debug)]
        struct Tok {
            score: f32,
        }
        let toks = vec![Tok { score: 0.1 }, Tok { score: 0.7 }, Tok { score: 0.3 }];
        assert_eq!(top_k_indices_by(&toks, 2, |t| t.score), vec![1, 2]);
    }

    /// The full-sort selection `top_k_indices_by` used before partitioning.
    fn sort_reference(scores: &[f32], k: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..scores.len()).collect();
        order.sort_by(|&a, &b| cmp_score(scores[b], scores[a]).then_with(|| a.cmp(&b)));
        let mut selected: Vec<usize> = order.into_iter().take(k).collect();
        selected.sort_unstable();
        selected
    }

    #[test]
    fn partition_selection_matches_the_sort_reference() {
        let mut seed = 0x7019_u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed >> 33
        };
        for n in [1usize, 2, 5, 17, 64, 257] {
            for _ in 0..8 {
                // Few distinct values force ties; ±0.0 and NaN ride along.
                let scores: Vec<f32> = (0..n)
                    .map(|_| match next() % 8 {
                        0 => f32::NAN,
                        1 => 0.0,
                        2 => -0.0,
                        r => (r as f32 - 4.0) * 0.5,
                    })
                    .collect();
                for k in [0, 1, n - 1, n, n + 3] {
                    assert_eq!(
                        top_k_indices(&scores, k),
                        sort_reference(&scores, k),
                        "n {n}, k {k}, scores {scores:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn arg_max_behaviour() {
        assert_eq!(arg_max(&[]), None);
        let best = arg_max(&[0.1, 0.9, 0.4]).unwrap();
        assert_eq!(best.index, 1);
        assert!((best.score - 0.9).abs() < 1e-6);
        assert_eq!(arg_max(&[f32::NAN]), None);
    }
}
