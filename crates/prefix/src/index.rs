//! Inverted tag index: the auctioneer-side matching accelerator.
//!
//! The membership predicate `x ∈ [a, b] ⇔ H(G(x)) ∩ H(Q([a,b])) ≠ ∅`
//! is a *set intersection*, and the naive auction loops evaluate it for
//! every pair of bidders — `O(n² · w)` probes for the conflict graph.
//! This module turns the quadratic pair loop into a linear index pass:
//! insert every range-cover tag into a [`TagIndex`] keyed by tag, then
//! probe each bidder's point-family tags once. A probe hit names exactly
//! the candidate pairs whose sets intersect; everything else is never
//! touched.
//!
//! Owner lists are short in practice (a tag is shared only by the
//! bidders whose ranges contain the same dyadic interval), so they are
//! stored in a [`SmallVec`] that keeps up to three owners inline before
//! spilling to the heap.
//!
//! # Examples
//!
//! ```
//! use lppa_crypto::keys::HmacKey;
//! use lppa_prefix::index::TagIndex;
//! use lppa_prefix::masked::{MaskedPoint, MaskedRange};
//!
//! # fn main() -> Result<(), lppa_prefix::PrefixError> {
//! let key = HmacKey::from_bytes([42u8; 32]);
//! let ranges =
//!     [MaskedRange::mask(&key, 4, 0, 5)?, MaskedRange::mask(&key, 4, 6, 14)?];
//! let mut index = TagIndex::new();
//! for (owner, range) in ranges.iter().enumerate() {
//!     index.insert_all(range.iter(), owner as u32);
//! }
//! // 7 ∈ [6, 14] but 7 ∉ [0, 5]: probing G(7) hits only owner 1.
//! let point = MaskedPoint::mask(&key, 4, 7)?;
//! let hits: Vec<u32> =
//!     point.iter().flat_map(|t| index.owners(t)).copied().collect();
//! assert_eq!(hits, [1]);
//! # Ok(())
//! # }
//! ```

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use lppa_crypto::tag::{Tag, TagBuildHasher};

/// How many owners a [`SmallVec`] stores without a heap allocation.
///
/// Three covers the overwhelmingly common case: location-range covers
/// are deep dyadic intervals shared by few bidders, and padding tags are
/// unique.
pub const INLINE_OWNERS: usize = 3;

/// A tiny vector of `Copy` values that stores up to [`INLINE_OWNERS`]
/// elements inline and spills to a `Vec` beyond that.
///
/// # Examples
///
/// ```
/// use lppa_prefix::index::SmallVec;
///
/// let mut v: SmallVec<u32> = SmallVec::new();
/// for i in 0..5 {
///     v.push(i);
/// }
/// assert_eq!(v.as_slice(), [0, 1, 2, 3, 4]);
/// ```
#[derive(Clone, Debug)]
pub struct SmallVec<T: Copy + Default> {
    repr: Repr<T>,
}

#[derive(Clone, Debug)]
enum Repr<T: Copy + Default> {
    Inline { buf: [T; INLINE_OWNERS], len: u8 },
    Spilled(Vec<T>),
}

impl<T: Copy + Default> SmallVec<T> {
    /// An empty vector; allocates nothing.
    pub fn new() -> Self {
        Self { repr: Repr::Inline { buf: [T::default(); INLINE_OWNERS], len: 0 } }
    }

    /// Appends `value`, moving to the heap on the first push past the
    /// inline capacity.
    pub fn push(&mut self, value: T) {
        match &mut self.repr {
            Repr::Inline { buf, len } => {
                let n = usize::from(*len);
                if n < INLINE_OWNERS {
                    buf[n] = value;
                    *len += 1;
                } else {
                    let mut spilled = Vec::with_capacity(INLINE_OWNERS * 2);
                    spilled.extend_from_slice(buf);
                    spilled.push(value);
                    self.repr = Repr::Spilled(spilled);
                }
            }
            Repr::Spilled(v) => v.push(value),
        }
    }

    /// The stored elements, in insertion order.
    pub fn as_slice(&self) -> &[T] {
        match &self.repr {
            Repr::Inline { buf, len } => &buf[..usize::from(*len)],
            Repr::Spilled(v) => v,
        }
    }

    /// Number of stored elements.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether no elements are stored.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }
}

impl<T: Copy + Default + PartialEq> SmallVec<T> {
    /// Removes the first occurrence of `value`, shifting later elements
    /// left so the slice stays dense and order-preserving. Returns
    /// whether anything was removed.
    ///
    /// A spilled vector stays spilled even when it shrinks back under
    /// the inline capacity: its heap buffer is exactly the allocation a
    /// reinsertion for the same tag would otherwise have to redo.
    pub fn remove_first(&mut self, value: T) -> bool {
        match &mut self.repr {
            Repr::Inline { buf, len } => {
                let n = usize::from(*len);
                let Some(pos) = buf[..n].iter().position(|x| *x == value) else {
                    return false;
                };
                buf.copy_within(pos + 1..n, pos);
                *len -= 1;
                true
            }
            Repr::Spilled(v) => {
                let Some(pos) = v.iter().position(|x| *x == value) else {
                    return false;
                };
                v.remove(pos);
                true
            }
        }
    }
}

impl<T: Copy + Default> Default for SmallVec<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// An inverted index from tag to the submissions that transmitted it.
///
/// Built once over one side of a batch of membership tests (typically
/// every bidder's masked range cover) and probed with the other side
/// (every bidder's masked point family). Probing is `O(1)` expected per
/// tag plus the length of the returned owner list, so a full all-pairs
/// matching pass costs `O(total tags + hits)` instead of `O(n² · w)`.
///
/// Owners are caller-chosen `u32` labels — bidder indices in the auction
/// paths. The index never deduplicates: inserting the same `(tag,
/// owner)` twice yields the owner twice.
///
/// # Incremental updates
///
/// [`remove`](TagIndex::remove) deletes one `(tag, owner)` entry in
/// `O(|owners|)` — effectively `O(1)` for the short lists this index
/// stores — so retiring a bidder's whole tag set costs `O(w)`, not a
/// rebuild. A slot whose owner list empties becomes a **tombstone**: the
/// map entry (and any spilled heap buffer) is kept so a reinsertion of
/// the same tag is allocation-free, and [`owners`](TagIndex::owners)
/// still returns a dense slice because the lists themselves are always
/// compacted in place. Tombstones are swept by
/// [`compact`](TagIndex::compact) once they outnumber
/// [`COMPACT_MIN_TOMBSTONES`] *and* half the live tags, keeping the map
/// within a constant factor of its live size.
#[derive(Clone, Debug, Default)]
pub struct TagIndex {
    map: HashMap<Tag, SmallVec<u32>, TagBuildHasher>,
    entries: usize,
    tombstones: usize,
}

/// Tombstone count below which [`TagIndex::remove`] never triggers a
/// compaction sweep (sweeps are `O(distinct tags)`; amortizing them
/// needs a worthwhile batch).
pub const COMPACT_MIN_TOMBSTONES: usize = 16;

impl TagIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty index pre-sized for roughly `tags` distinct tags.
    pub fn with_capacity(tags: usize) -> Self {
        Self {
            map: HashMap::with_capacity_and_hasher(tags, TagBuildHasher::default()),
            entries: 0,
            tombstones: 0,
        }
    }

    /// Records that `owner` transmitted `tag`.
    pub fn insert(&mut self, tag: Tag, owner: u32) {
        match self.map.entry(tag) {
            Entry::Occupied(mut slot) => {
                if slot.get().is_empty() {
                    // Reviving a tombstone: the slot (and any spilled
                    // buffer) is reused as-is.
                    self.tombstones -= 1;
                }
                slot.get_mut().push(owner);
            }
            Entry::Vacant(slot) => {
                slot.insert(SmallVec::new()).push(owner);
            }
        }
        self.entries += 1;
    }

    /// Records every tag of one transmitted set for `owner`.
    pub fn insert_all<'a, I>(&mut self, tags: I, owner: u32)
    where
        I: IntoIterator<Item = &'a Tag>,
    {
        for tag in tags {
            self.insert(*tag, owner);
        }
    }

    /// Forgets one `(tag, owner)` entry — the inverse of
    /// [`insert`](TagIndex::insert). Returns whether the entry existed.
    ///
    /// Only the first occurrence is removed (inserting twice requires
    /// removing twice), and the owner list is compacted in place so
    /// [`owners`](TagIndex::owners) stays dense. An emptied slot is
    /// tombstoned rather than unlinked; once tombstones pass the
    /// compaction threshold the whole map is swept.
    pub fn remove(&mut self, tag: &Tag, owner: u32) -> bool {
        let Some(slot) = self.map.get_mut(tag) else {
            return false;
        };
        if !slot.remove_first(owner) {
            return false;
        }
        self.entries -= 1;
        if slot.is_empty() {
            self.tombstones += 1;
            if self.tombstones >= COMPACT_MIN_TOMBSTONES && self.tombstones * 2 >= self.map.len() {
                self.compact();
            }
        }
        true
    }

    /// Forgets every tag of one transmitted set for `owner` — the
    /// inverse of [`insert_all`](TagIndex::insert_all). Returns how many
    /// entries were actually present and removed.
    pub fn remove_all<'a, I>(&mut self, tags: I, owner: u32) -> usize
    where
        I: IntoIterator<Item = &'a Tag>,
    {
        tags.into_iter().filter(|tag| self.remove(tag, owner)).count()
    }

    /// Sweeps all tombstoned slots, shrinking the map to its live tags.
    /// `O(distinct tags)`; called automatically by
    /// [`remove`](TagIndex::remove) past the threshold.
    pub fn compact(&mut self) {
        if self.tombstones == 0 {
            return;
        }
        self.map.retain(|_, slot| !slot.is_empty());
        self.tombstones = 0;
    }

    /// The owners that transmitted `tag` (empty slice if none did).
    pub fn owners(&self, tag: &Tag) -> &[u32] {
        self.map.get(tag).map_or(&[], SmallVec::as_slice)
    }

    /// Number of distinct tags with at least one live owner (tombstoned
    /// slots are not counted).
    pub fn distinct_tags(&self) -> usize {
        self.map.len() - self.tombstones
    }

    /// Number of tombstoned slots currently awaiting compaction.
    pub fn tombstone_count(&self) -> usize {
        self.tombstones
    }

    /// Total number of live `(tag, owner)` entries.
    pub fn entry_count(&self) -> usize {
        self.entries
    }

    /// Whether the index holds no live tags.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }
}

/// A frozen, flat-CSR tag index for dense one-shot builds.
///
/// Where [`TagIndex`] keeps one [`SmallVec`] per distinct tag — ideal
/// for incremental insert/remove but one potential heap spill per bucket
/// — the frozen form packs **every** owner entry into a single `entries`
/// slab addressed by an `offsets` prefix-sum (classic CSR): a handful
/// of allocations however many buckets would spill, contiguous probe
/// reads, and no per-bucket capacity slack. It cannot
/// be mutated after construction; the dense batch paths build it, probe
/// it, and drop it within one round.
///
/// [`owners`](FrozenTagIndex::owners) returns owners in insertion
/// order, exactly like [`TagIndex::owners`] over the same insertion
/// sequence — the property suite pins the two to byte-identical slices,
/// which is what lets the dense conflict-graph build swap freely
/// between them.
#[derive(Clone, Debug, Default)]
pub struct FrozenTagIndex {
    rows: HashMap<Tag, u32, TagBuildHasher>,
    offsets: Vec<u32>,
    entries: Vec<u32>,
}

impl FrozenTagIndex {
    /// Builds the index from one pass over a `(tag, owner)` sequence.
    /// Each entry's tag is hashed once: the pass assigns rows and
    /// stages `(row, owner)` pairs, and a stable counting sort then
    /// packs the slab, so every row lists its owners in sequence order.
    /// `expected_entries` pre-sizes the staging buffer; the row map grows
    /// with the distinct tags.
    pub fn freeze<'a, I>(expected_entries: usize, entries: I) -> Self
    where
        I: IntoIterator<Item = (&'a Tag, u32)>,
    {
        let mut rows: HashMap<Tag, u32, TagBuildHasher> = HashMap::default();
        let mut counts: Vec<u32> = Vec::new();
        let mut staged: Vec<(u32, u32)> = Vec::with_capacity(expected_entries);
        for (tag, owner) in entries {
            let row = match rows.entry(*tag) {
                Entry::Occupied(slot) => *slot.get(),
                Entry::Vacant(slot) => {
                    let row = counts.len() as u32;
                    slot.insert(row);
                    counts.push(0);
                    row
                }
            };
            counts[row as usize] += 1;
            staged.push((row, owner));
        }
        let mut offsets = Vec::with_capacity(counts.len() + 1);
        let mut total = 0u32;
        offsets.push(0);
        for &c in &counts {
            total += c;
            offsets.push(total);
        }
        // Reuse `counts` as per-row write cursors, rebased to row starts.
        let mut cursors = counts;
        let n_rows = cursors.len();
        cursors.copy_from_slice(&offsets[..n_rows]);
        let mut entries = vec![0u32; staged.len()];
        for (row, owner) in staged {
            let cursor = &mut cursors[row as usize];
            entries[*cursor as usize] = owner;
            *cursor += 1;
        }
        Self { rows, offsets, entries }
    }

    /// Every owner recorded for `tag`, in insertion order; empty if the
    /// tag was never inserted.
    pub fn owners(&self, tag: &Tag) -> &[u32] {
        match self.rows.get(tag) {
            Some(&row) => {
                let row = row as usize;
                &self.entries[self.offsets[row] as usize..self.offsets[row + 1] as usize]
            }
            None => &[],
        }
    }

    /// Number of distinct tags indexed.
    pub fn distinct_tags(&self) -> usize {
        self.rows.len()
    }

    /// Total number of `(tag, owner)` entries.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag(byte: u8) -> Tag {
        Tag::from_bytes([byte; 16])
    }

    #[test]
    fn frozen_index_matches_tag_index_probes() {
        // Over the same insertion sequence, the frozen CSR form and the
        // incremental map must return byte-identical owner slices for
        // every tag (present or absent) — including duplicate (tag,
        // owner) entries and buckets past the SmallVec spill point.
        let mut seq: Vec<(Tag, u32)> = Vec::new();
        let mut state = 0x9e37_79b9_u64;
        for owner in 0..300u32 {
            for _ in 0..1 + (owner % 4) {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                seq.push((tag((state >> 33) as u8), owner));
            }
        }
        let mut dynamic = TagIndex::new();
        for &(t, owner) in &seq {
            dynamic.insert(t, owner);
        }
        let frozen = FrozenTagIndex::freeze(seq.len(), seq.iter().map(|(t, o)| (t, *o)));
        assert_eq!(frozen.entry_count(), dynamic.entry_count());
        assert_eq!(frozen.distinct_tags(), dynamic.distinct_tags());
        for probe in 0..=255u8 {
            let t = tag(probe);
            assert_eq!(frozen.owners(&t), dynamic.owners(&t), "tag byte {probe}");
        }
    }

    #[test]
    fn frozen_index_of_nothing_is_empty() {
        let frozen = FrozenTagIndex::freeze(0, std::iter::empty());
        assert!(frozen.is_empty());
        assert_eq!(frozen.owners(&tag(7)), &[] as &[u32]);
    }

    #[test]
    fn smallvec_stays_inline_then_spills() {
        let mut v: SmallVec<u32> = SmallVec::new();
        assert!(v.is_empty());
        for i in 0..INLINE_OWNERS as u32 {
            v.push(i);
        }
        assert!(matches!(v.repr, Repr::Inline { .. }));
        assert_eq!(v.as_slice(), [0, 1, 2]);
        v.push(3);
        assert!(matches!(v.repr, Repr::Spilled(_)));
        assert_eq!(v.as_slice(), [0, 1, 2, 3]);
        assert_eq!(v.len(), INLINE_OWNERS + 1);
    }

    #[test]
    fn smallvec_push_order_is_preserved_across_spill() {
        let mut v: SmallVec<u32> = SmallVec::default();
        let values: Vec<u32> = (0..20).map(|i| i * 7).collect();
        for &x in &values {
            v.push(x);
        }
        assert_eq!(v.as_slice(), &values[..]);
    }

    #[test]
    fn index_maps_tags_to_all_owners_in_order() {
        let mut index = TagIndex::new();
        index.insert(tag(1), 10);
        index.insert(tag(2), 11);
        index.insert(tag(1), 12);
        assert_eq!(index.owners(&tag(1)), [10, 12]);
        assert_eq!(index.owners(&tag(2)), [11]);
        assert_eq!(index.owners(&tag(3)), [] as [u32; 0]);
        assert_eq!(index.distinct_tags(), 2);
        assert_eq!(index.entry_count(), 3);
    }

    #[test]
    fn insert_all_indexes_every_tag_of_a_set() {
        let mut index = TagIndex::with_capacity(8);
        let tags = [tag(1), tag(2), tag(3)];
        index.insert_all(tags.iter(), 7);
        for t in &tags {
            assert_eq!(index.owners(t), [7]);
        }
        assert_eq!(index.entry_count(), 3);
    }

    #[test]
    fn empty_index_reports_empty() {
        let index = TagIndex::new();
        assert!(index.is_empty());
        assert_eq!(index.distinct_tags(), 0);
        assert_eq!(index.entry_count(), 0);
        assert!(index.owners(&tag(9)).is_empty());
    }

    #[test]
    fn smallvec_remove_first_is_order_preserving() {
        // Inline repr: remove from the middle, the front, past the end.
        let mut v: SmallVec<u32> = SmallVec::new();
        for x in [5, 6, 7] {
            v.push(x);
        }
        assert!(v.remove_first(6));
        assert_eq!(v.as_slice(), [5, 7]);
        assert!(v.remove_first(5));
        assert_eq!(v.as_slice(), [7]);
        assert!(!v.remove_first(99));
        assert_eq!(v.as_slice(), [7]);

        // Spilled repr: stays spilled after shrinking below the inline
        // capacity, and only the first duplicate goes.
        let mut s: SmallVec<u32> = SmallVec::new();
        for x in [1, 2, 1, 3, 1] {
            s.push(x);
        }
        assert!(matches!(s.repr, Repr::Spilled(_)));
        assert!(s.remove_first(1));
        assert_eq!(s.as_slice(), [2, 1, 3, 1]);
        assert!(s.remove_first(1));
        assert!(s.remove_first(3));
        assert!(s.remove_first(2));
        assert_eq!(s.as_slice(), [1]);
        assert!(matches!(s.repr, Repr::Spilled(_)));
    }

    #[test]
    fn remove_of_never_inserted_owner_is_a_noop() {
        let mut index = TagIndex::new();
        index.insert(tag(1), 10);
        // Unknown tag, and known tag with an owner that never held it.
        assert!(!index.remove(&tag(2), 10));
        assert!(!index.remove(&tag(1), 11));
        assert_eq!(index.owners(&tag(1)), [10]);
        assert_eq!(index.entry_count(), 1);
        assert_eq!(index.distinct_tags(), 1);
        assert_eq!(index.tombstone_count(), 0);
    }

    #[test]
    fn remove_then_reinsert_same_owner_revives_the_slot() {
        let mut index = TagIndex::new();
        index.insert(tag(1), 10);
        index.insert(tag(1), 11);
        assert!(index.remove(&tag(1), 10));
        assert_eq!(index.owners(&tag(1)), [11]);
        assert!(index.remove(&tag(1), 11));
        assert!(index.owners(&tag(1)).is_empty());
        assert_eq!(index.tombstone_count(), 1);
        assert_eq!(index.distinct_tags(), 0);
        assert!(index.is_empty());

        // Reinsertion revives the tombstoned slot in place.
        index.insert(tag(1), 10);
        assert_eq!(index.owners(&tag(1)), [10]);
        assert_eq!(index.tombstone_count(), 0);
        assert_eq!(index.distinct_tags(), 1);
        assert_eq!(index.entry_count(), 1);
    }

    #[test]
    fn duplicate_entries_need_matching_removes() {
        let mut index = TagIndex::new();
        index.insert(tag(4), 7);
        index.insert(tag(4), 7);
        assert_eq!(index.owners(&tag(4)), [7, 7]);
        assert!(index.remove(&tag(4), 7));
        assert_eq!(index.owners(&tag(4)), [7]);
        assert!(index.remove(&tag(4), 7));
        assert!(index.owners(&tag(4)).is_empty());
        assert!(!index.remove(&tag(4), 7));
    }

    #[test]
    fn interleaved_churn_with_compaction_matches_dense_rebuild() {
        // Property: after ANY interleaving of insert_all / remove_all /
        // compact, every probe must return a slice byte-identical to a
        // dense rebuild that replays only the surviving entries in
        // original insertion order. This pins the whole tombstone +
        // in-place-compaction machinery: removal keeps survivor order
        // stable, tombstoned slots stay probe-invisible, and explicit
        // or threshold-triggered sweeps never reorder a bucket.
        let mut state = 0x1234_5678_9abc_def0_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 32
        };
        let mut index = TagIndex::new();
        // Insertion log of live entries: (tag, owner), original order.
        let mut log: Vec<(Tag, u32)> = Vec::new();
        // Per-owner tag sets so remove_all mirrors real usage (a slot
        // retiring its whole transmitted set).
        let mut sets: Vec<(u32, Vec<Tag>)> = Vec::new();
        let mut next_owner = 0u32;
        for step in 0..600 {
            match next() % 10 {
                // Insert a fresh owner's set (tags drawn from a small
                // byte space so buckets collide, spill, and tombstone).
                0..=5 => {
                    let owner = next_owner;
                    next_owner += 1;
                    let tags: Vec<Tag> =
                        (0..1 + next() % 6).map(|_| tag((next() % 48) as u8)).collect();
                    index.insert_all(tags.iter(), owner);
                    log.extend(tags.iter().map(|&t| (t, owner)));
                    sets.push((owner, tags));
                }
                // Retire a random live owner's whole set.
                6..=8 if !sets.is_empty() => {
                    let (owner, tags) = sets.swap_remove((next() as usize) % sets.len());
                    let removed = index.remove_all(tags.iter(), owner);
                    assert_eq!(removed, tags.len(), "step {step}");
                    for t in &tags {
                        let pos = log
                            .iter()
                            .position(|&(lt, lo)| lt == *t && lo == owner)
                            .expect("logged entry");
                        log.remove(pos);
                    }
                }
                _ => index.compact(),
            }
            if step % 37 == 0 {
                let mut dense = TagIndex::new();
                for &(t, o) in &log {
                    dense.insert(t, o);
                }
                assert_eq!(index.entry_count(), dense.entry_count(), "step {step}");
                for probe in 0..48u8 {
                    let t = tag(probe);
                    assert_eq!(index.owners(&t), dense.owners(&t), "step {step} tag {probe}");
                }
            }
        }
    }

    #[test]
    fn remove_all_reports_how_many_entries_existed() {
        let mut index = TagIndex::new();
        let tags = [tag(1), tag(2), tag(3)];
        index.insert_all(tags.iter(), 7);
        // One of the three was already removed; the batch reports 2.
        assert!(index.remove(&tag(2), 7));
        assert_eq!(index.remove_all(tags.iter(), 7), 2);
        assert!(index.is_empty());
        assert_eq!(index.remove_all(tags.iter(), 7), 0);
    }

    #[test]
    fn tombstones_compact_past_the_threshold() {
        let mut index = TagIndex::new();
        let n = COMPACT_MIN_TOMBSTONES as u8;
        // n + 2 singleton tags, then kill n of them: the n-th dead slot
        // crosses both threshold legs (>= COMPACT_MIN_TOMBSTONES and
        // >= half the map) and triggers the sweep.
        for b in 0..n + 2 {
            index.insert(tag(b), u32::from(b));
        }
        for b in 0..n - 1 {
            assert!(index.remove(&tag(b), u32::from(b)));
        }
        assert_eq!(index.tombstone_count(), usize::from(n) - 1);
        assert!(index.remove(&tag(n - 1), u32::from(n - 1)));
        assert_eq!(index.tombstone_count(), 0);
        assert_eq!(index.distinct_tags(), 2);
        assert_eq!(index.entry_count(), 2);
        // Survivors are untouched by the sweep.
        assert_eq!(index.owners(&tag(n)), [u32::from(n)]);
        assert_eq!(index.owners(&tag(n + 1)), [u32::from(n) + 1]);
    }

    #[test]
    fn shuffled_insert_remove_interleaving_matches_fresh_build() {
        use lppa_rng::rngs::StdRng;
        use lppa_rng::seq::SliceRandom;
        use lppa_rng::{Rng, SeedableRng};

        // Property: a churned index (inserts and removes interleaved in
        // a seeded shuffle order) answers every probe exactly like an
        // index freshly built from only the surviving entries.
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(0xde17a ^ seed);
            // A pool of (tag, owner) entries, some sharing tags.
            let pool: Vec<(Tag, u32)> = (0..60).map(|i| (tag(rng.gen_range(0..24)), i)).collect();
            // Survivors keep their entry; the rest get a matching
            // remove scheduled after their insert.
            let survives: Vec<bool> = pool.iter().map(|_| rng.gen_bool(0.5)).collect();

            // Ops: insert i, then remove i for the non-survivors, with
            // each remove shuffled to any point after its insert.
            #[derive(Clone, Copy)]
            enum Op {
                Insert(usize),
                Remove(usize),
            }
            let mut ops: Vec<Op> = (0..pool.len()).map(Op::Insert).collect();
            ops.shuffle(&mut rng);
            let mut interleaved: Vec<Op> = Vec::with_capacity(pool.len() * 2);
            for op in ops {
                interleaved.push(op);
                if let Op::Insert(i) = op {
                    if !survives[i] {
                        interleaved.push(Op::Remove(i));
                    }
                }
            }
            // Give removes room to drift later while keeping them after
            // their insert: bubble each remove a random distance right.
            for _ in 0..interleaved.len() {
                let i = rng.gen_range(0..interleaved.len() - 1);
                if matches!(interleaved[i], Op::Remove(_)) && rng.gen_bool(0.5) {
                    interleaved.swap(i, i + 1);
                }
            }

            let mut churned = TagIndex::new();
            for op in &interleaved {
                match *op {
                    Op::Insert(i) => churned.insert(pool[i].0, pool[i].1),
                    Op::Remove(i) => {
                        assert!(
                            churned.remove(&pool[i].0, pool[i].1),
                            "seed {seed}: missing entry"
                        );
                    }
                }
            }

            let mut fresh = TagIndex::new();
            for (i, &(t, owner)) in pool.iter().enumerate() {
                if survives[i] {
                    fresh.insert(t, owner);
                }
            }

            assert_eq!(churned.entry_count(), fresh.entry_count(), "seed {seed}");
            assert_eq!(churned.distinct_tags(), fresh.distinct_tags(), "seed {seed}");
            for b in 0..24 {
                let mut a: Vec<u32> = churned.owners(&tag(b)).to_vec();
                let mut e: Vec<u32> = fresh.owners(&tag(b)).to_vec();
                // Owner order may differ between the two histories;
                // membership must not.
                a.sort_unstable();
                e.sort_unstable();
                assert_eq!(a, e, "seed {seed}, tag {b}");
            }
        }
    }
}
