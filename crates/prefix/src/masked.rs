//! HMAC-masked prefix groups: what actually travels to the auctioneer.
//!
//! A bidder never transmits prefixes in the clear. Instead it sends
//! `H_g(O(prefix))` for every member of a prefix family or range cover,
//! where `H_g` is HMAC under a key the auctioneer does not hold. The
//! auctioneer can still test *set intersection* — the membership predicate
//! of the scheme — but learns nothing about the underlying values beyond
//! the outcomes of those tests.
//!
//! Two newtypes keep the protocol type-safe:
//!
//! * [`MaskedPoint`] — a masked prefix *family* `H(G(x))`, representing a
//!   hidden number;
//! * [`MaskedRange`] — a masked *range cover* `H(Q([a, b]))`, representing
//!   a hidden interval, optionally padded to a fixed cardinality.
//!
//! Both hold their tags as one *canonical run*: strictly ascending by
//! bytes (the same as big-endian `u128` order), deduplicated, with the
//! group's XOR fingerprint computed once when the run is built. That is
//! the order the wire codec transmits, so an encoder writes a run as it
//! is, a decoder copies a validated run without sorting it, and the
//! membership test is a merge of two runs.

use lppa_crypto::keys::HmacKey;
use lppa_crypto::tag::{Tag, TAG_LEN};
use lppa_rng::RngCore;

use crate::error::PrefixError;
use crate::family::prefix_family_into;
use crate::prefix::{Prefix, MASK_INPUT_LEN};
use crate::range::{max_cover_len, range_prefixes_into};

/// Upper bound on prefixes masked per batch chunk: a prefix family has
/// at most `MAX_WIDTH + 1 = 33` members and a range cover at most
/// `2·MAX_WIDTH − 2 = 62`, so one 64-slot stack staging area covers every
/// protocol call without heap allocation.
const MASK_CHUNK: usize = 64;

/// Masks a slice of prefixes under `key` through the multi-lane tag
/// kernel, appending the tags to `tags` in kernel delivery order.
///
/// Mask inputs are staged in a stack buffer ([`MASK_CHUNK`] prefixes per
/// pass), so the only heap memory touched is `tags` itself — and the
/// batched kernel amortizes one SHA-256 message schedule across up to
/// eight prefixes.
fn mask_all_into(key: &HmacKey, prefixes: &[Prefix], tags: &mut Vec<Tag>) {
    tags.reserve(prefixes.len());
    let mut inputs = [[0u8; MASK_INPUT_LEN]; MASK_CHUNK];
    for chunk in prefixes.chunks(MASK_CHUNK) {
        for (input, prefix) in inputs.iter_mut().zip(chunk) {
            prefix.write_mask_input(input);
        }
        Tag::compute_batch_into(key, &inputs[..chunk.len()], |_, tag| tags.push(tag));
    }
}

/// The sort key of a tag: its big-endian `u128`, which orders exactly
/// as the tag's bytes do.
fn tag_key(tag: &Tag) -> u128 {
    u128::from_be_bytes(*tag.as_bytes())
}

/// Whether two ascending runs share a tag: one merge walk of `u128`
/// compares, `O(|a| + |b|)` whatever the tags are.
pub(crate) fn runs_intersect(a: &[Tag], b: &[Tag]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (tag_key(&a[i]), tag_key(&b[j]));
        if x == y {
            return true;
        }
        i += usize::from(x < y);
        j += usize::from(y < x);
    }
    false
}

/// One masked group's transmitted tags: a strictly ascending run and
/// its XOR fingerprint.
#[derive(Clone, Debug, PartialEq, Eq)]
struct TagRun {
    tags: Vec<Tag>,
    fingerprint: u64,
}

impl TagRun {
    /// A run over `tags` in any order, duplicates collapsed.
    fn new(tags: Vec<Tag>) -> Self {
        let mut run = Self { tags, fingerprint: 0 };
        run.canonicalize();
        run
    }

    /// Sorts and dedups the tags unless they are already strictly
    /// ascending (the wire order), then folds the fingerprint.
    fn canonicalize(&mut self) {
        if !self.tags.windows(2).all(|w| tag_key(&w[0]) < tag_key(&w[1])) {
            self.tags.sort_unstable_by_key(tag_key);
            self.tags.dedup();
        }
        self.fingerprint =
            self.tags.iter().fold(0u64, |acc, tag| acc ^ raw_tag_mix(tag.as_bytes()));
    }

    /// [`TagRun::new`] over transmitted tags, refusing an empty group.
    fn from_tags<I: IntoIterator<Item = Tag>>(tags: I) -> Result<Self, PrefixError> {
        let tags: Vec<Tag> = tags.into_iter().collect();
        if tags.is_empty() {
            return Err(PrefixError::EmptyTagSet);
        }
        Ok(Self::new(tags))
    }
}

/// A borrowed run of transmitted tags, proven strictly ascending, with
/// the fingerprint folded during that check.
///
/// This is how a wire decoder holds a tag group before deciding to keep
/// it: [`parse`](Self::parse) validates the bytes and digests them in
/// one pass without allocating, and [`to_point`](Self::to_point) /
/// [`to_range`](Self::to_range) then copy the run out as it is — no
/// sort, no second fold.
#[derive(Clone, Copy, Debug)]
pub struct TagRunView<'a> {
    bytes: &'a [u8],
    fingerprint: u64,
}

impl<'a> TagRunView<'a> {
    /// Checks that `bytes` is a non-empty sequence of whole
    /// [`TAG_LEN`]-byte tags in strictly ascending byte order, folding
    /// their [`raw_tag_mix`]es on the way. `None` for an empty, ragged,
    /// unsorted or duplicated run.
    pub fn parse(bytes: &'a [u8]) -> Option<Self> {
        if bytes.is_empty() || !bytes.len().is_multiple_of(TAG_LEN) {
            return None;
        }
        let mut fingerprint = 0u64;
        let mut prev: Option<u128> = None;
        for chunk in bytes.chunks_exact(TAG_LEN) {
            let tag: &[u8; TAG_LEN] = chunk.try_into().expect("chunks_exact yields whole tags");
            let key = u128::from_be_bytes(*tag);
            if prev.is_some_and(|p| p >= key) {
                return None;
            }
            prev = Some(key);
            fingerprint ^= raw_tag_mix(tag);
        }
        Some(Self { bytes, fingerprint })
    }

    /// The fingerprint the materialized group will carry.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The run as an owned, canonical [`TagRun`].
    fn to_run(self) -> TagRun {
        let tags = self
            .bytes
            .chunks_exact(TAG_LEN)
            .map(|chunk| Tag::from_bytes(chunk.try_into().expect("chunks_exact yields whole tags")))
            .collect();
        TagRun { tags, fingerprint: self.fingerprint }
    }

    /// Copies the run out as a masked point family.
    pub fn to_point(&self) -> MaskedPoint {
        MaskedPoint { run: self.to_run() }
    }

    /// Copies the run out as a masked range cover.
    pub fn to_range(&self) -> MaskedRange {
        MaskedRange { run: self.to_run() }
    }
}

/// Reusable masking scratch: pools of retired tag runs plus a prefix
/// staging buffer.
///
/// Points and covers keep separate pools, and checked-out runs are
/// cleared but not shrunk. A submission's groups are reclaimed in the
/// reverse of the order they are masked in, so the next build of the
/// same shape takes every run back in its old role and fills it without
/// growing: a warm pool serves every `mask_in`/`mask_padded_in` call
/// without touching the allocator. A run's contents depend only on the
/// tags masked into it, never on its capacity, so a pooled run is
/// identical to a fresh one — the pooled-vs-fresh oracle invariant
/// holds the whole pipeline to that.
#[derive(Debug, Default)]
pub struct MaskScratch {
    points: Vec<Vec<Tag>>,
    covers: Vec<Vec<Tag>>,
    prefixes: Vec<Prefix>,
}

impl MaskScratch {
    /// An empty pool; grows on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Retires a masked point, recycling its backing run.
    pub fn reclaim_point(&mut self, point: MaskedPoint) {
        park(&mut self.points, point.run.tags);
    }

    /// Retires a masked range, recycling its backing run.
    pub fn reclaim_range(&mut self, range: MaskedRange) {
        park(&mut self.covers, range.run.tags);
    }
}

/// Checks out a cleared run with room for `capacity` tags, reusing the
/// most recently parked one when the pool has any.
fn checkout(pool: &mut Vec<Vec<Tag>>, capacity: usize) -> Vec<Tag> {
    let mut run = pool.pop().unwrap_or_default();
    run.reserve(capacity);
    run
}

/// Parks a run for reuse, keeping its capacity.
fn park(pool: &mut Vec<Vec<Tag>>, mut run: Vec<Tag>) {
    run.clear();
    pool.push(run);
}

/// A masked prefix family `H_g(O(G(x)))`: a hidden point.
///
/// # Examples
///
/// ```
/// use lppa_crypto::keys::HmacKey;
/// use lppa_prefix::masked::{MaskedPoint, MaskedRange};
///
/// # fn main() -> Result<(), lppa_prefix::PrefixError> {
/// let key = HmacKey::from_bytes([1u8; 32]);
/// let point = MaskedPoint::mask(&key, 4, 7)?;
/// let range = MaskedRange::mask(&key, 4, 6, 14)?;
/// assert!(point.in_range(&range)); // 7 ∈ [6, 14]
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MaskedPoint {
    run: TagRun,
}

impl MaskedPoint {
    /// Masks the prefix family of `value` over a `width`-bit domain.
    ///
    /// # Errors
    ///
    /// Returns [`PrefixError`] if the domain or value is invalid.
    pub fn mask(key: &HmacKey, width: u8, value: u32) -> Result<Self, PrefixError> {
        Self::mask_in(key, width, value, &mut MaskScratch::new())
    }

    /// [`MaskedPoint::mask`] staging through `scratch`: the prefix family
    /// is built in the pooled staging buffer and the tag run is checked
    /// out of the point pool, so a warm scratch masks without
    /// allocating. Bits are identical to the unpooled path.
    ///
    /// # Errors
    ///
    /// Returns [`PrefixError`] if the domain or value is invalid.
    pub fn mask_in(
        key: &HmacKey,
        width: u8,
        value: u32,
        scratch: &mut MaskScratch,
    ) -> Result<Self, PrefixError> {
        let mut family = std::mem::take(&mut scratch.prefixes);
        let built = prefix_family_into(width, value, &mut family);
        let masked = built.map(|()| {
            let mut tags = checkout(&mut scratch.points, family.len());
            mask_all_into(key, &family, &mut tags);
            Self { run: TagRun::new(tags) }
        });
        scratch.prefixes = family;
        masked
    }

    /// Reconstructs a masked point from raw transmitted tags, in any
    /// order; duplicates collapse. Tags that already arrive strictly
    /// ascending, as a wire decoder hands them over, are taken without a
    /// sort.
    ///
    /// # Errors
    ///
    /// Returns [`PrefixError::EmptyTagSet`] if `tags` yields nothing: an
    /// empty point matches *no* range, which is indistinguishable from a
    /// dropped message and must be surfaced to the transport layer
    /// instead of silently losing every comparison.
    pub fn from_tags<I: IntoIterator<Item = Tag>>(tags: I) -> Result<Self, PrefixError> {
        TagRun::from_tags(tags).map(|run| Self { run })
    }

    /// The membership test: does the hidden point lie in the hidden range?
    ///
    /// Sound and complete when both sides were masked under the same key
    /// over the same domain width (up to the negligible probability of a
    /// 128-bit tag collision). One merge of the two ascending runs.
    pub fn in_range(&self, range: &MaskedRange) -> bool {
        runs_intersect(&self.run.tags, &range.run.tags)
    }

    /// Number of transmitted tags.
    ///
    /// A genuine family over a `width`-bit domain carries exactly
    /// `width + 1` tags: one prefix per wildcarded suffix length
    /// `0..=width`, *including* the all-wildcard root that matches every
    /// value (see [`prefix_family`](crate::family::prefix_family)).
    pub fn len(&self) -> usize {
        self.run.tags.len()
    }

    /// Whether the group holds no tags (never true for a genuine family).
    pub fn is_empty(&self) -> bool {
        self.run.tags.is_empty()
    }

    /// Iterates over the transmitted tags in ascending (wire) order.
    pub fn iter(&self) -> impl Iterator<Item = &Tag> {
        self.run.tags.iter()
    }

    /// The transmitted tags as one strictly ascending run — the wire
    /// order, ready to be written out as it is.
    pub fn as_slice(&self) -> &[Tag] {
        &self.run.tags
    }

    /// Transmission size in bytes.
    pub fn wire_len(&self) -> usize {
        self.run.tags.len() * TAG_LEN
    }

    /// An order-independent 64-bit fingerprint of the transmitted tags:
    /// the XOR of [`raw_tag_mix`] over them, stored when the group was
    /// built.
    ///
    /// Two masked points have equal fingerprints iff they carry the same
    /// tags (up to negligible collision probability) — which is exactly
    /// the observable an attacker exploits against the *basic* bid
    /// scheme, where equal plaintexts produce identical masked groups.
    /// The advanced scheme's per-channel keys and value randomization
    /// make fingerprints unique and useless.
    pub fn fingerprint(&self) -> u64 {
        self.run.fingerprint
    }
}

/// The per-tag mix underlying [`MaskedPoint::fingerprint`], computed
/// from raw wire bytes.
///
/// XOR-folding this over a group of serialized tags reproduces the
/// fingerprint of the materialized group without building one —
/// zero-copy frame decoders use it to verify transport checksums
/// against borrowed `&[u8]` views before allocating anything.
///
/// Both 8-byte halves of the tag feed the mix, so damage anywhere in a
/// tag moves the digest.
///
/// # Panics
///
/// Panics if `tag_bytes` is shorter than 16 bytes; wire tags are always
/// [`TAG_LEN`] (16) bytes.
pub fn raw_tag_mix(tag_bytes: &[u8]) -> u64 {
    let half = |at: usize| {
        let mut word = [0u8; 8];
        word.copy_from_slice(&tag_bytes[at..at + 8]);
        u64::from_le_bytes(word)
    };
    split_mix(split_mix(half(0)) ^ half(8))
}

/// SplitMix64 avalanche, used for tag-group fingerprints.
fn split_mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A masked range cover `H_g(O(Q([a, b])))`: a hidden interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MaskedRange {
    run: TagRun,
}

impl MaskedRange {
    /// Masks the minimal cover of `[lo, hi]` over a `width`-bit domain.
    ///
    /// # Errors
    ///
    /// Returns [`PrefixError`] if the domain is invalid or `lo > hi`.
    pub fn mask(key: &HmacKey, width: u8, lo: u32, hi: u32) -> Result<Self, PrefixError> {
        Self::mask_in(key, width, lo, hi, &mut MaskScratch::new())
    }

    /// [`MaskedRange::mask`] staging through `scratch`, allocation-free
    /// once the pool is warm; see [`MaskedPoint::mask_in`].
    ///
    /// # Errors
    ///
    /// Returns [`PrefixError`] if the domain is invalid or `lo > hi`.
    pub fn mask_in(
        key: &HmacKey,
        width: u8,
        lo: u32,
        hi: u32,
        scratch: &mut MaskScratch,
    ) -> Result<Self, PrefixError> {
        let tags = Self::mask_cover(key, width, lo, hi, 0, scratch)?;
        Ok(Self { run: TagRun::new(tags) })
    }

    /// The genuine cover tags of `[lo, hi]`, unsorted, in a run checked
    /// out of the cover pool with room for `capacity` tags, so a cover
    /// that will be padded is sized once.
    fn mask_cover(
        key: &HmacKey,
        width: u8,
        lo: u32,
        hi: u32,
        capacity: usize,
        scratch: &mut MaskScratch,
    ) -> Result<Vec<Tag>, PrefixError> {
        let mut cover = std::mem::take(&mut scratch.prefixes);
        let built = range_prefixes_into(width, lo, hi, &mut cover);
        let tags = built.map(|()| {
            let mut tags = checkout(&mut scratch.covers, capacity.max(cover.len()));
            mask_all_into(key, &cover, &mut tags);
            tags
        });
        scratch.prefixes = cover;
        tags
    }

    /// Masks the cover of `[lo, hi]` and pads it with random tags to the
    /// worst-case cardinality [`max_cover_len`]`(width)` — `2·width − 2`
    /// for widths ≥ 2, clamped to 2 below that (a 1-bit domain has
    /// two-prefix covers but `2·1 − 2 = 0`).
    ///
    /// Without padding, the number of transmitted tags leaks the shape of
    /// the range (§IV.C.1 problem 3 in the paper: `[10, 14]` has three
    /// prefixes, `[5, 14]` five). Padding tags are drawn uniformly from
    /// the tag space, so they collide with genuine tags only with
    /// negligible probability.
    ///
    /// # Errors
    ///
    /// Returns [`PrefixError`] as for [`MaskedRange::mask`].
    pub fn mask_padded<R: RngCore + ?Sized>(
        key: &HmacKey,
        width: u8,
        lo: u32,
        hi: u32,
        rng: &mut R,
    ) -> Result<Self, PrefixError> {
        Self::mask_padded_in(key, width, lo, hi, rng, &mut MaskScratch::new())
    }

    /// [`MaskedRange::mask_padded`] staging through `scratch`,
    /// allocation-free once the pool is warm.
    ///
    /// The genuine cover and the whole shortfall of pad draws land in
    /// the run before one sort and dedup; while the group is still short
    /// (a pad tag collided), the new shortfall is drawn and the run
    /// sorted again. Each draw adds at most one distinct tag, so no batch
    /// can overshoot: the loop stops after exactly the draw at which a
    /// tag-by-tag set insert would, and the RNG stream matches that
    /// path's (see [`replay_padding_draws`](Self::replay_padding_draws)).
    ///
    /// # Errors
    ///
    /// Returns [`PrefixError`] as for [`MaskedRange::mask`].
    pub fn mask_padded_in<R: RngCore + ?Sized>(
        key: &HmacKey,
        width: u8,
        lo: u32,
        hi: u32,
        rng: &mut R,
        scratch: &mut MaskScratch,
    ) -> Result<Self, PrefixError> {
        let target = max_cover_len(width);
        let mut run =
            TagRun { tags: Self::mask_cover(key, width, lo, hi, target, scratch)?, fingerprint: 0 };
        loop {
            for _ in run.tags.len()..target {
                let mut bytes = [0u8; TAG_LEN];
                rng.fill_bytes(&mut bytes);
                run.tags.push(Tag::from_bytes(bytes));
            }
            run.canonicalize();
            if run.tags.len() >= target {
                return Ok(Self { run });
            }
        }
    }

    /// Consumes exactly the RNG draws [`mask_padded_in`](Self::mask_padded_in)
    /// would spend on `[lo, hi]`, without computing any HMAC tag.
    ///
    /// A caller holding a still-valid masked range (same key, same
    /// interval) can skip the re-mask entirely and call this to keep a
    /// shared RNG stream bit-aligned with a path that does re-mask. The
    /// draw count is `max_cover_len(width) − |cover(lo, hi)|`: the pad
    /// loop draws one uniformly random 16-byte tag per missing slot, and
    /// a 128-bit collision with a genuine or earlier pad tag (the only
    /// event that would cost an extra draw) has probability ≈ 2⁻¹²⁸ —
    /// below any reachable state, and caught by the incremental-vs-rebuild
    /// fingerprint oracle if it ever occurred.
    ///
    /// # Errors
    ///
    /// Returns [`PrefixError`] as for [`MaskedRange::mask`].
    pub fn replay_padding_draws<R: RngCore + ?Sized>(
        width: u8,
        lo: u32,
        hi: u32,
        rng: &mut R,
        scratch: &mut MaskScratch,
    ) -> Result<(), PrefixError> {
        let mut cover = std::mem::take(&mut scratch.prefixes);
        let built = range_prefixes_into(width, lo, hi, &mut cover);
        let cover_len = cover.len();
        scratch.prefixes = cover;
        built?;
        for _ in cover_len..max_cover_len(width) {
            let mut bytes = [0u8; TAG_LEN];
            rng.fill_bytes(&mut bytes);
        }
        Ok(())
    }

    /// Reconstructs a masked range from raw transmitted tags, with the
    /// set semantics of [`MaskedPoint::from_tags`].
    ///
    /// # Errors
    ///
    /// Returns [`PrefixError::EmptyTagSet`] if `tags` yields nothing, for
    /// the same reason as [`MaskedPoint::from_tags`]: an empty cover
    /// contains no point, so transport loss would read as "out of range".
    pub fn from_tags<I: IntoIterator<Item = Tag>>(tags: I) -> Result<Self, PrefixError> {
        TagRun::from_tags(tags).map(|run| Self { run })
    }

    /// An order-independent 64-bit fingerprint of the transmitted tags,
    /// as [`MaskedPoint::fingerprint`].
    pub fn fingerprint(&self) -> u64 {
        self.run.fingerprint
    }

    /// Number of transmitted tags.
    pub fn len(&self) -> usize {
        self.run.tags.len()
    }

    /// Whether the group holds no tags (never true for a genuine cover).
    pub fn is_empty(&self) -> bool {
        self.run.tags.is_empty()
    }

    /// Iterates over the transmitted tags in ascending (wire) order.
    pub fn iter(&self) -> impl Iterator<Item = &Tag> {
        self.run.tags.iter()
    }

    /// The transmitted tags as one strictly ascending run — the wire
    /// order, ready to be written out as it is.
    pub fn as_slice(&self) -> &[Tag] {
        &self.run.tags
    }

    /// Transmission size in bytes.
    pub fn wire_len(&self) -> usize {
        self.run.tags.len() * TAG_LEN
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::prefix_family;
    use crate::range::range_prefixes;
    use lppa_rng::rngs::StdRng;
    use lppa_rng::SeedableRng;
    use std::collections::HashSet;

    fn key(byte: u8) -> HmacKey {
        HmacKey::from_bytes([byte; 32])
    }

    #[test]
    fn membership_matches_plaintext_exhaustively() {
        let k = key(3);
        let width = 5u8;
        for value in 0..32u32 {
            let point = MaskedPoint::mask(&k, width, value).unwrap();
            for lo in (0..32u32).step_by(3) {
                for hi in (lo..32u32).step_by(5) {
                    let range = MaskedRange::mask(&k, width, lo, hi).unwrap();
                    assert_eq!(
                        point.in_range(&range),
                        (lo..=hi).contains(&value),
                        "v={value} [{lo},{hi}]"
                    );
                }
            }
        }
    }

    #[test]
    fn replay_padding_draws_keeps_streams_aligned() {
        // After masking a padded range and after merely replaying its
        // draws, a shared RNG must sit at the same stream position: the
        // next value drawn from each must agree, for many random ranges
        // across widths.
        let k = key(21);
        let mut seed_rng = StdRng::seed_from_u64(0x5eed);
        for trial in 0..200u64 {
            let width = 2 + (trial % 15) as u8;
            let max = (1u64 << width) - 1;
            let a = seed_rng.next_u64() % (max + 1);
            let b = seed_rng.next_u64() % (max + 1);
            let (lo, hi) = (a.min(b) as u32, a.max(b) as u32);
            let mut masked_rng = StdRng::seed_from_u64(trial);
            let mut replay_rng = StdRng::seed_from_u64(trial);
            MaskedRange::mask_padded(&k, width, lo, hi, &mut masked_rng).unwrap();
            MaskedRange::replay_padding_draws(
                width,
                lo,
                hi,
                &mut replay_rng,
                &mut MaskScratch::new(),
            )
            .unwrap();
            assert_eq!(
                masked_rng.next_u64(),
                replay_rng.next_u64(),
                "stream diverged: w={width} lo={lo} hi={hi}"
            );
        }
    }

    #[test]
    fn batched_masking_matches_scalar_tags() {
        // mask_all routes through the multi-lane kernel; the run must be
        // exactly what per-prefix scalar masking produces, in ascending
        // byte order.
        let k = key(13);
        let scalar_run = |prefixes: &[Prefix]| {
            let mut tags: Vec<Tag> =
                prefixes.iter().map(|p| Tag::compute(&k, &p.to_mask_input())).collect();
            tags.sort_unstable();
            tags
        };
        for (width, value) in [(1u8, 1u32), (4, 9), (13, 1234), (16, 40000)] {
            let scalar = scalar_run(&prefix_family(width, value).unwrap());
            let point = MaskedPoint::mask(&k, width, value).unwrap();
            assert!(point.iter().eq(scalar.iter()), "w={width}");
        }
        let scalar = scalar_run(&range_prefixes(13, 100, 7000).unwrap());
        let range = MaskedRange::mask(&k, 13, 100, 7000).unwrap();
        assert!(range.iter().eq(scalar.iter()));
    }

    #[test]
    fn raw_tag_mix_folds_to_set_fingerprint() {
        // XOR-folding raw_tag_mix over serialized tag bytes must equal
        // the materialized group's stored fingerprint — this is the
        // equation the zero-copy wire decoder relies on to checksum
        // borrowed views.
        let k = key(9);
        let point = MaskedPoint::mask(&k, 11, 700).unwrap();
        let folded = point.iter().map(|t| raw_tag_mix(t.as_bytes())).fold(0u64, |a, h| a ^ h);
        assert_eq!(folded, point.fingerprint());
        let range = MaskedRange::mask(&k, 11, 3, 1999).unwrap();
        let folded = range.iter().map(|t| raw_tag_mix(t.as_bytes())).fold(0u64, |a, h| a ^ h);
        assert_eq!(folded, range.fingerprint());
    }

    #[test]
    fn different_keys_break_membership() {
        // Cross-key intersection must (overwhelmingly) fail even when the
        // plaintext relation holds — this is what isolates channels under
        // per-channel keys in the advanced scheme.
        let point = MaskedPoint::mask(&key(1), 8, 100).unwrap();
        let range = MaskedRange::mask(&key(2), 8, 0, 255).unwrap();
        assert!(!point.in_range(&range));
    }

    #[test]
    fn padding_reaches_worst_case_cardinality() {
        let mut rng = StdRng::seed_from_u64(5);
        let k = key(9);
        // [10, 14] over 4 bits has a 3-prefix cover; padded it must have 6.
        let plain = MaskedRange::mask(&k, 4, 10, 14).unwrap();
        assert_eq!(plain.len(), 3);
        let padded = MaskedRange::mask_padded(&k, 4, 10, 14, &mut rng).unwrap();
        assert_eq!(padded.len(), max_cover_len(4));
    }

    #[test]
    fn padding_preserves_membership_semantics() {
        let mut rng = StdRng::seed_from_u64(6);
        let k = key(7);
        let width = 6u8;
        for value in 0..64u32 {
            let point = MaskedPoint::mask(&k, width, value).unwrap();
            let padded = MaskedRange::mask_padded(&k, width, 20, 40, &mut rng).unwrap();
            assert_eq!(point.in_range(&padded), (20..=40).contains(&value), "v={value}");
        }
    }

    #[test]
    fn all_padded_ranges_have_equal_cardinality() {
        // The leakage the padding closes: every transmitted range looks
        // the same size regardless of the underlying interval.
        let mut rng = StdRng::seed_from_u64(8);
        let k = key(4);
        let sizes: HashSet<usize> = [(0u32, 1u32), (3, 14), (10, 14), (5, 14), (0, 15)]
            .into_iter()
            .map(|(lo, hi)| MaskedRange::mask_padded(&k, 4, lo, hi, &mut rng).unwrap().len())
            .collect();
        assert_eq!(sizes.len(), 1);
    }

    #[test]
    fn family_wire_len_matches_theorem_4_shape() {
        // Theorem 4 counts w+1 prefix-family elements; the masked point
        // transmits exactly that many tags.
        let k = key(2);
        for width in [4u8, 8, 12] {
            let point = MaskedPoint::mask(&k, width, 1).unwrap();
            assert_eq!(point.len(), usize::from(width) + 1);
            assert_eq!(point.wire_len(), (usize::from(width) + 1) * TAG_LEN);
        }
    }

    #[test]
    fn from_tags_roundtrip() {
        let k = key(11);
        let point = MaskedPoint::mask(&k, 4, 9).unwrap();
        let rebuilt = MaskedPoint::from_tags(point.iter().copied()).unwrap();
        assert_eq!(point, rebuilt);
        let range = MaskedRange::mask(&k, 4, 2, 9).unwrap();
        let rebuilt = MaskedRange::from_tags(range.iter().copied()).unwrap();
        assert_eq!(range, rebuilt);
        assert!(!rebuilt.is_empty());
    }

    #[test]
    fn from_tags_rejects_empty_sets() {
        // An empty point matches nothing — indistinguishable from a
        // dropped message, so reconstruction must refuse it outright.
        assert_eq!(MaskedPoint::from_tags(std::iter::empty()), Err(PrefixError::EmptyTagSet));
        assert_eq!(MaskedRange::from_tags(std::iter::empty()), Err(PrefixError::EmptyTagSet));
        // One tag is enough to be a (possibly truncated) set again.
        assert!(MaskedPoint::from_tags([Tag::from_bytes([1; 16])]).is_ok());
    }

    #[test]
    fn range_fingerprint_is_order_independent_and_content_sensitive() {
        let k = key(12);
        let range = MaskedRange::mask(&k, 5, 3, 19).unwrap();
        let mut tags: Vec<Tag> = range.iter().copied().collect();
        tags.reverse();
        let rebuilt = MaskedRange::from_tags(tags).unwrap();
        assert_eq!(range.fingerprint(), rebuilt.fingerprint());
        let other = MaskedRange::mask(&k, 5, 3, 20).unwrap();
        assert_ne!(range.fingerprint(), other.fingerprint());
    }

    #[test]
    fn invalid_inputs_propagate_errors() {
        let k = key(1);
        assert!(MaskedPoint::mask(&k, 4, 16).is_err());
        assert!(MaskedRange::mask(&k, 4, 9, 3).is_err());
        let mut rng = StdRng::seed_from_u64(1);
        assert!(MaskedRange::mask_padded(&k, 0, 0, 0, &mut rng).is_err());
    }
}
