//! Arena-backed scratch memory for the round hot path.
//!
//! Steady-state rounds used to be dominated by allocator traffic: every
//! round re-allocated masked tag sets, the greedy allocator's entry
//! bitmap, per-channel class vectors and an `n × n` conflict matrix,
//! then freed them all again. This module centralizes the *typed pool*
//! discipline that replaces that churn:
//!
//! * [`MaskScratch`] (re-exported from `lppa_prefix`) pools retired
//!   masked tag runs (points and covers apart) and the prefix staging
//!   buffer, so masking a submission or verifying a charge touches the
//!   allocator only until the pool is warm;
//! * [`AllocScratch`] (re-exported from `lppa_auction`) holds the greedy
//!   allocator's entry bitmap, liveness row, candidate list and
//!   round-robin pool;
//! * [`RoundScratch`] composes both with the per-round buffers the
//!   incremental engine needs — the compacted live-slot order, pooled
//!   per-channel class vectors and the conflict-matrix backing store;
//! * [`CsrRows`] is a compressed-sparse-row slab for adjacency rows,
//!   replacing one `BTreeSet<u32>` (and its per-node allocations) per
//!   slot with slices of one flat `Vec<u32>` patched in place.
//!
//! Buffers are *checked out, cleared and reused* — never freed — so a
//! sustained-churn round runs allocation-free after warm-up. Pooling
//! only changes where memory comes from: every consumer is either
//! capacity-independent or iteration-order independent, so a pooled
//! round settles exactly like a fresh one. The churn service's
//! incremental-vs-rebuild fingerprint (the rebuild path masks on fresh
//! allocations) and the `backend_arena_pool_equivalence` oracle
//! invariant hold the engine to that.

use crate::ttp::ChargeDecision;

pub use lppa_auction::allocation::AllocScratch;
pub use lppa_prefix::MaskScratch;

/// Per-area round scratch: everything one settlement round needs,
/// checked out per round and reset instead of freed.
#[derive(Debug, Default)]
pub struct RoundScratch {
    /// Pooled tag runs + prefix staging (submission builds, charge
    /// verification).
    pub mask: MaskScratch,
    /// Greedy-allocation buffers.
    pub alloc: AllocScratch,
    /// Pooled per-channel class vectors, recycled from the previous
    /// round's bid table.
    classes: Vec<Vec<u32>>,
    /// Conflict-matrix backing store, recycled from the previous round's
    /// result.
    matrix: Vec<bool>,
    /// Memoized TTP charge decisions, `slot × channel`. A decision is a
    /// pure function of the area's channel key and the slot's resident
    /// `(sealed, point)` pair, so it stays valid exactly as long as the
    /// slot's submission does — the churn layer calls
    /// [`charge_clear_slot`](Self::charge_clear_slot) on every join,
    /// leave and revision.
    charges: Vec<Option<ChargeDecision>>,
    /// Channels per charge row (fixed per area after first use).
    charge_k: usize,
}

impl RoundScratch {
    /// A cold scratch; every pool warms on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks out a cleared `u32` buffer for one channel's class vector.
    pub fn take_classes(&mut self) -> Vec<u32> {
        let mut v = self.classes.pop().unwrap_or_default();
        v.clear();
        v
    }

    /// Parks class vectors for reuse, keeping their capacity.
    pub fn recycle_classes<I: IntoIterator<Item = Vec<u32>>>(&mut self, vecs: I) {
        self.classes.extend(vecs);
    }

    /// Checks out the conflict-matrix backing buffer (empty when cold).
    pub fn take_matrix(&mut self) -> Vec<bool> {
        std::mem::take(&mut self.matrix)
    }

    /// The memoized TTP charge decision for `(slot, channel)`, if the
    /// slot's submission has not churned since it was cached.
    pub fn charge_get(&self, slot: u32, channel: usize) -> Option<ChargeDecision> {
        if self.charge_k == 0 || channel >= self.charge_k {
            return None;
        }
        *self.charges.get(slot as usize * self.charge_k + channel)?
    }

    /// Memoizes the TTP's decision for `(slot, channel)` under `k`
    /// channels per slot. No-op if a conflicting `k` was fixed earlier.
    pub fn charge_put(&mut self, slot: u32, k: usize, channel: usize, decision: ChargeDecision) {
        if k == 0 {
            return;
        }
        if self.charge_k == 0 {
            self.charge_k = k;
        }
        if self.charge_k != k || channel >= k {
            return;
        }
        let idx = slot as usize * self.charge_k + channel;
        if idx >= self.charges.len() {
            self.charges.resize(idx + self.charge_k - channel, None);
        }
        self.charges[idx] = Some(decision);
    }

    /// Drops every memoized charge decision for `slot` — must be called
    /// whenever the slot's submission changes (join, leave, revision).
    pub fn charge_clear_slot(&mut self, slot: u32) {
        if self.charge_k == 0 {
            return;
        }
        let start = slot as usize * self.charge_k;
        let end = (start + self.charge_k).min(self.charges.len());
        if start < end {
            self.charges[start..end].fill(None);
        }
    }

    /// Parks a conflict-matrix buffer for the next round.
    pub fn recycle_matrix(&mut self, matrix: Vec<bool>) {
        // Keep the larger buffer: area populations drift, and holding
        // the high-water mark avoids re-growing next round.
        if matrix.capacity() > self.matrix.capacity() {
            self.matrix = matrix;
        }
    }
}

/// Compressed-sparse-row adjacency: every row is a sorted `u32` slice of
/// one shared slab, patched in place.
///
/// Rows keep a private capacity inside the slab; an insert into a full
/// row relocates it to the slab's tail with doubled capacity (the old
/// span becomes garbage, reclaimed by periodic compaction). All
/// operations are deterministic and iteration is ascending — exactly the
/// order a `BTreeSet<u32>` row yields — so swapping the representation
/// cannot move a single output bit.
#[derive(Clone, Debug, Default)]
pub struct CsrRows {
    /// The shared slab. Live row spans never overlap.
    data: Vec<u32>,
    /// Per-row `(start, len, cap)` into `data`.
    rows: Vec<RowMeta>,
    /// Dead slab capacity left behind by row relocations.
    garbage: usize,
}

#[derive(Clone, Copy, Debug)]
struct RowMeta {
    start: usize,
    len: u32,
    cap: u32,
}

/// Initial capacity granted to a row on its first insert.
const ROW_MIN_CAP: usize = 4;

impl CsrRows {
    /// No rows, empty slab.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends one empty row (zero capacity until its first insert).
    pub fn push_row(&mut self) {
        self.rows.push(RowMeta { start: 0, len: 0, cap: 0 });
    }

    /// The sorted contents of `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn row(&self, row: usize) -> &[u32] {
        let m = self.rows[row];
        &self.data[m.start..m.start + m.len as usize]
    }

    /// Inserts `value` into `row`, keeping it sorted; returns `false` if
    /// it was already present.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn insert(&mut self, row: usize, value: u32) -> bool {
        let m = self.rows[row];
        let slice = &self.data[m.start..m.start + m.len as usize];
        let Err(pos) = slice.binary_search(&value) else { return false };
        if (m.len as usize) < m.cap as usize {
            // In-place: shift the tail right by one inside the row span.
            self.data.copy_within(m.start + pos..m.start + m.len as usize, m.start + pos + 1);
            self.data[m.start + pos] = value;
            self.rows[row].len += 1;
        } else {
            // Relocate to the slab tail with doubled capacity.
            let new_cap = (m.cap as usize * 2).max(ROW_MIN_CAP);
            let new_start = self.data.len();
            self.data.reserve(new_cap);
            for i in 0..pos {
                self.data.push(self.data[m.start + i]);
            }
            self.data.push(value);
            for i in pos..m.len as usize {
                self.data.push(self.data[m.start + i]);
            }
            // Pad the span out to its capacity so later inserts can
            // shift within it.
            self.data.resize(new_start + new_cap, 0);
            self.garbage += m.cap as usize;
            self.rows[row] = RowMeta { start: new_start, len: m.len + 1, cap: new_cap as u32 };
            self.maybe_compact();
        }
        true
    }

    /// Removes `value` from `row`; returns `false` if it was absent.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn remove(&mut self, row: usize, value: u32) -> bool {
        let m = self.rows[row];
        let slice = &self.data[m.start..m.start + m.len as usize];
        let Ok(pos) = slice.binary_search(&value) else { return false };
        self.data.copy_within(m.start + pos + 1..m.start + m.len as usize, m.start + pos);
        self.rows[row].len -= 1;
        true
    }

    /// Empties `row`, keeping its slab capacity for reuse.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn clear_row(&mut self, row: usize) {
        self.rows[row].len = 0;
    }

    /// Rebuilds the slab without garbage once dead spans dominate it.
    fn maybe_compact(&mut self) {
        if self.garbage < 1024 || self.garbage * 2 < self.data.len() {
            return;
        }
        let mut fresh = Vec::with_capacity(self.data.len() - self.garbage);
        for m in &mut self.rows {
            let start = fresh.len();
            fresh.extend_from_slice(&self.data[m.start..m.start + m.len as usize]);
            // Keep each row's grown capacity so compaction cannot force
            // an immediate relocation storm.
            fresh.resize(start + m.cap as usize, 0);
            m.start = start;
        }
        self.data = fresh;
        self.garbage = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn csr_rows_match_btreeset_under_random_churn() {
        use lppa_rng::rngs::StdRng;
        use lppa_rng::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xa5e);
        let n = 40usize;
        let mut csr = CsrRows::new();
        let mut mirror: Vec<BTreeSet<u32>> = Vec::new();
        for _ in 0..n {
            csr.push_row();
            mirror.push(BTreeSet::new());
        }
        for _ in 0..5000 {
            let row = rng.gen_range(0..n);
            let value = rng.gen_range(0..64u32);
            match rng.gen_range(0..10) {
                0..=5 => {
                    assert_eq!(csr.insert(row, value), mirror[row].insert(value));
                }
                6..=8 => {
                    assert_eq!(csr.remove(row, value), mirror[row].remove(&value));
                }
                _ => {
                    csr.clear_row(row);
                    mirror[row].clear();
                }
            }
            // Ascending iteration must match the BTreeSet exactly.
            let got: Vec<u32> = csr.row(row).to_vec();
            let want: Vec<u32> = mirror[row].iter().copied().collect();
            assert_eq!(got, want);
        }
        for (row, expected) in mirror.iter().enumerate().take(n) {
            let want: Vec<u32> = expected.iter().copied().collect();
            assert_eq!(csr.row(row), &want[..]);
        }
    }

    #[test]
    fn csr_compaction_preserves_rows() {
        let mut csr = CsrRows::new();
        for _ in 0..8 {
            csr.push_row();
        }
        // Force many relocations: grow every row repeatedly.
        for round in 0..200u32 {
            for row in 0..8 {
                csr.insert(row, round * 8 + row as u32);
            }
        }
        for row in 0..8usize {
            let got = csr.row(row);
            assert_eq!(got.len(), 200);
            assert!(got.windows(2).all(|w| w[0] < w[1]), "row {row} must stay sorted");
        }
    }

    #[test]
    fn round_scratch_pools_keep_capacity() {
        let mut scratch = RoundScratch::new();
        let mut v = scratch.take_classes();
        v.extend(0..100u32);
        let cap = v.capacity();
        scratch.recycle_classes([v]);
        let v2 = scratch.take_classes();
        assert!(v2.is_empty());
        assert_eq!(v2.capacity(), cap);

        scratch.recycle_matrix(vec![true; 64]);
        let m = scratch.take_matrix();
        assert!(m.capacity() >= 64);
        assert!(scratch.take_matrix().is_empty(), "checkout empties the slot");
    }
}
