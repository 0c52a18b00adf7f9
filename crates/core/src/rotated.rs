//! Cached positional rotations of stored keys.
//!
//! The KV cache stores *unrotated* keys (see [`crate::cache`]); attention
//! applies RoPE at read time. Naively that means re-rotating every live key of
//! every head on every decode step — `O(live × heads)` trig per token for
//! values that only change when a key's row or effective position changes.
//!
//! [`RotatedKeyCache`] memoizes those rotations per block. Each entry is keyed
//! on the block's `(id, generation)` pair from
//! [`crate::cache::LayerKvCache::block_meta`]:
//!
//! - **Plain appends** keep a block's generation, so [`RotatedKeyCache::sync`]
//!   only rotates the newly appended rows (a top-up).
//! - **Compaction rewrites, CoW forks and quantize-on-seal** refresh the
//!   generation, so the affected block is rebuilt from scratch while the
//!   untouched identity prefix keeps its cached rotations.
//! - **Block-id reuse** by the pool cannot alias: generations are globally
//!   unique, so a recycled id never matches a stale entry.
//!
//! The caller supplies the rotation itself as a closure (the model layer owns
//! RoPE and the position-mode ablations); this crate only owns the
//! invalidation discipline.

use crate::block::BlockId;
use crate::cache::LayerKvCache;

/// Memoized rotation state of one cache block: every row of every head,
/// rotated, in one flat head-major buffer.
#[derive(Debug, Clone)]
struct RotBlock {
    id: BlockId,
    generation: u64,
    /// Rows of the block already rotated (a prefix of the block's rows).
    rows: usize,
    /// `[head][row][dim]`: `num_heads * block_size * head_dim` values,
    /// allocated once when the block first appears.
    data: Vec<f32>,
}

/// Per-layer cache of rotated key rows, invalidated by block generation.
///
/// One instance serves one `(layer, query-invariant rotation)` pair: the
/// rotation closure passed to [`RotatedKeyCache::sync`] must depend only on
/// the slot (not on the decode step), which holds for RoPE at the key's
/// effective position in both of the paper's position modes.
#[derive(Debug, Clone)]
pub struct RotatedKeyCache {
    num_heads: usize,
    head_dim: usize,
    block_size: usize,
    blocks: Vec<RotBlock>,
}

impl RotatedKeyCache {
    /// Creates an empty cache for a layer of `num_heads` heads of width
    /// `head_dim` over blocks of `block_size` slots.
    pub fn new(num_heads: usize, head_dim: usize, block_size: usize) -> Self {
        RotatedKeyCache {
            num_heads,
            head_dim,
            block_size,
            blocks: Vec::new(),
        }
    }

    /// Brings the cached rotations up to date with `cache`.
    ///
    /// `rotate(row, slot)` must rotate the unrotated key row (already copied
    /// into `row`) of logical slot `slot` in place. After `sync` returns,
    /// [`RotatedKeyCache::row`] serves every live slot of every head.
    ///
    /// Cost: proportional to the rows whose `(id, generation)` changed plus
    /// freshly appended rows — zero steady-state work (and zero allocations
    /// away from block boundaries) during decode without eviction. This is
    /// also the batch-rotate primitive of chunk-batched prefill: after a bulk
    /// append of a whole chunk's key rows
    /// ([`LayerKvCache::append_batch_from_slices`]), one `sync` call tops up
    /// every appended row (and rebuilds any block a quantize-on-seal
    /// generation bump invalidated) in a single pass.
    ///
    /// # Panics
    ///
    /// Panics if `cache`'s head count, head width or block size differ from
    /// this cache's.
    pub fn sync(&mut self, cache: &LayerKvCache, mut rotate: impl FnMut(&mut [f32], usize)) {
        assert_eq!(cache.num_heads(), self.num_heads, "head count mismatch");
        assert_eq!(cache.head_dim(), self.head_dim, "head width mismatch");
        assert_eq!(cache.block_size(), self.block_size, "block size mismatch");
        let num_blocks = cache.num_blocks();
        self.blocks.truncate(num_blocks);
        for idx in 0..num_blocks {
            let meta = cache.block_meta(idx);
            if self.blocks.len() == idx {
                self.blocks.push(RotBlock {
                    id: meta.id,
                    generation: meta.generation,
                    rows: 0,
                    data: vec![0.0; self.num_heads * self.block_size * self.head_dim],
                });
            }
            let entry = &mut self.blocks[idx];
            if entry.id != meta.id || entry.generation != meta.generation {
                entry.id = meta.id;
                entry.generation = meta.generation;
                entry.rows = 0;
            }
            debug_assert!(
                entry.rows <= meta.rows,
                "a block never loses rows without a generation change"
            );
            if entry.rows >= meta.rows {
                continue;
            }
            let base = idx * self.block_size;
            for head in 0..self.num_heads {
                let keys = cache.keys(head);
                let head_base = head * self.block_size * self.head_dim;
                for row in entry.rows..meta.rows {
                    let slot = base + row;
                    let start = head_base + row * self.head_dim;
                    let dst = &mut entry.data[start..start + self.head_dim];
                    keys.copy_row_into(slot, dst);
                    rotate(dst, slot);
                }
            }
            entry.rows = meta.rows;
        }
    }

    /// The cached rotated key of `head` at logical slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the slot or head was not covered by the last
    /// [`RotatedKeyCache::sync`].
    #[inline]
    pub fn row(&self, head: usize, slot: usize) -> &[f32] {
        let block = &self.blocks[slot / self.block_size];
        let row = slot % self.block_size;
        assert!(row < block.rows, "slot not covered by the last sync");
        let start = (head * self.block_size + row) * self.head_dim;
        &block.data[start..start + self.head_dim]
    }

    /// Visits the cached rotated keys of `head` for slots `0..live`, block by
    /// block, each as one row-major `rows × head_dim` slab — the layout a
    /// batched score kernel reads without per-row lookups.
    ///
    /// # Panics
    ///
    /// Panics if `live` exceeds the slots covered by the last
    /// [`RotatedKeyCache::sync`].
    pub fn for_each_block(&self, head: usize, live: usize, mut visit: impl FnMut(&[f32])) {
        assert!(
            live <= self.covered_slots(),
            "slots not covered by the last sync"
        );
        let block_len = self.block_size * self.head_dim;
        for (idx, block) in self.blocks.iter().enumerate() {
            let rows = block.rows.min(live.saturating_sub(idx * self.block_size));
            if rows == 0 {
                break;
            }
            let start = head * block_len;
            visit(&block.data[start..start + rows * self.head_dim]);
        }
    }

    /// Slots covered by the last [`RotatedKeyCache::sync`].
    pub fn covered_slots(&self) -> usize {
        match self.blocks.last() {
            None => 0,
            Some(last) => (self.blocks.len() - 1) * self.block_size + last.rows,
        }
    }

    /// Drops every cached rotation (e.g. when the owning session rebinds to a
    /// different sequence).
    pub fn clear(&mut self) {
        self.blocks.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::SharedBlockPool;
    use crate::cache::KvDtype;

    /// A deterministic stand-in for RoPE: scales the row by a slot-dependent
    /// factor, so stale cache entries are easy to detect.
    fn fake_rotate(row: &mut [f32], slot: usize) {
        for x in row.iter_mut() {
            *x = *x * 2.0 + slot as f32;
        }
    }

    fn expected_row(layer: &LayerKvCache, head: usize, slot: usize) -> Vec<f32> {
        let mut row = layer.keys(head).row(slot).into_owned();
        fake_rotate(&mut row, slot);
        row
    }

    fn assert_in_sync(rot: &RotatedKeyCache, layer: &LayerKvCache) {
        assert_eq!(rot.covered_slots(), layer.len());
        for head in 0..layer.num_heads() {
            for slot in 0..layer.len() {
                assert_eq!(
                    rot.row(head, slot),
                    expected_row(layer, head, slot).as_slice(),
                    "head {head} slot {slot}"
                );
            }
        }
    }

    fn append_tokens(layer: &mut LayerKvCache, n: usize) {
        let start = layer.len();
        for i in start..start + n {
            let k: Vec<Vec<f32>> = (0..2).map(|h| vec![i as f32 + h as f32 * 0.5; 3]).collect();
            let v = k.clone();
            layer.append(i, &k, &v).unwrap();
        }
    }

    fn rot_for(layer: &LayerKvCache) -> RotatedKeyCache {
        RotatedKeyCache::new(layer.num_heads(), layer.head_dim(), layer.block_size())
    }

    #[test]
    fn sync_covers_appends_incrementally() {
        let pool = SharedBlockPool::unbounded(4);
        let mut layer = LayerKvCache::with_pool(2, 3, pool);
        let mut rot = rot_for(&layer);
        rot.sync(&layer, fake_rotate);
        assert_eq!(rot.covered_slots(), 0);
        append_tokens(&mut layer, 6);
        rot.sync(&layer, fake_rotate);
        assert_in_sync(&rot, &layer);
        // A second sync with a counting rotate proves appends only top up.
        append_tokens(&mut layer, 1);
        let mut rotations = 0;
        rot.sync(&layer, |row, slot| {
            rotations += 1;
            fake_rotate(row, slot);
        });
        assert_eq!(rotations, 2, "one new row x two heads");
        assert_in_sync(&rot, &layer);
    }

    #[test]
    fn block_slabs_concatenate_to_the_rows_of_a_causal_prefix() {
        let pool = SharedBlockPool::unbounded(4);
        let mut layer = LayerKvCache::with_pool(2, 3, pool);
        append_tokens(&mut layer, 10);
        let mut rot = rot_for(&layer);
        rot.sync(&layer, fake_rotate);
        for head in 0..2 {
            for live in [0, 1, 4, 7, 10] {
                let mut flat = Vec::new();
                rot.for_each_block(head, live, |slab| flat.extend_from_slice(slab));
                let want: Vec<f32> = (0..live)
                    .flat_map(|slot| rot.row(head, slot).to_vec())
                    .collect();
                assert_eq!(flat, want, "head {head}, live {live}");
            }
        }
    }

    #[test]
    fn compaction_rebuilds_written_blocks_and_keeps_the_identity_prefix() {
        let pool = SharedBlockPool::unbounded(4);
        let mut layer = LayerKvCache::with_pool(2, 3, pool);
        append_tokens(&mut layer, 11);
        let mut rot = rot_for(&layer);
        rot.sync(&layer, fake_rotate);
        // Keep block 0 byte-identical, compact the rest.
        layer.retain_slots(&[0, 1, 2, 3, 5, 8, 10]).unwrap();
        let mut rotations = 0;
        rot.sync(&layer, |row, slot| {
            rotations += 1;
            fake_rotate(row, slot);
        });
        // Only the rewritten second block (3 rows x 2 heads) re-rotates.
        assert_eq!(rotations, 6, "identity prefix must stay cached");
        assert_in_sync(&rot, &layer);
    }

    #[test]
    fn cow_fork_rebuilds_only_the_forked_block() {
        let pool = SharedBlockPool::unbounded(4);
        let mut layer = LayerKvCache::with_pool(2, 3, pool);
        append_tokens(&mut layer, 6);
        let mut fork = layer.fork().unwrap();
        let mut rot = rot_for(&fork);
        rot.sync(&fork, fake_rotate);
        // Appending into the shared tail CoW-forks it: the rotated copy of
        // that block is stale even though its row contents match, because the
        // physical block changed identity.
        append_tokens(&mut fork, 1);
        let mut rotations = 0;
        rot.sync(&fork, |row, slot| {
            rotations += 1;
            fake_rotate(row, slot);
        });
        assert_eq!(rotations, 6, "forked tail (3 rows) x 2 heads rebuilds");
        assert_in_sync(&rot, &fork);
        // The donor's own rotated cache stays fully valid.
        let mut donor_rot = rot_for(&layer);
        donor_rot.sync(&layer, fake_rotate);
        let mut donor_rotations = 0;
        donor_rot.sync(&layer, |row, slot| {
            donor_rotations += 1;
            fake_rotate(row, slot);
        });
        assert_eq!(donor_rotations, 0);
    }

    #[test]
    fn requantize_on_seal_invalidates_the_sealed_block() {
        let pool = SharedBlockPool::unbounded(4);
        let mut layer = LayerKvCache::with_pool_dtype(2, 3, pool, KvDtype::U8);
        append_tokens(&mut layer, 3);
        let mut rot = rot_for(&layer);
        rot.sync(&layer, fake_rotate);
        assert_in_sync(&rot, &layer);
        // The fourth append fills and seals the block: every row's dequantized
        // value changes, so the whole block must re-rotate.
        append_tokens(&mut layer, 1);
        let mut rotations = 0;
        rot.sync(&layer, |row, slot| {
            rotations += 1;
            fake_rotate(row, slot);
        });
        assert_eq!(rotations, 8, "all 4 rows x 2 heads rebuild after seal");
        assert_in_sync(&rot, &layer);
    }

    #[test]
    fn clear_and_shrinking_tables_drop_stale_blocks() {
        let pool = SharedBlockPool::unbounded(2);
        let mut layer = LayerKvCache::with_pool(2, 3, pool);
        append_tokens(&mut layer, 6);
        let mut rot = rot_for(&layer);
        rot.sync(&layer, fake_rotate);
        assert_eq!(rot.covered_slots(), 6);
        layer.retain_slots(&[0, 1]).unwrap();
        rot.sync(&layer, fake_rotate);
        assert_in_sync(&rot, &layer);
        rot.clear();
        assert_eq!(rot.covered_slots(), 0);
    }
}
