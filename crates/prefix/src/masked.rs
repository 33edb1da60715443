//! HMAC-masked prefix sets: what actually travels to the auctioneer.
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

use std::collections::HashSet;

use lppa_crypto::keys::HmacKey;
use lppa_crypto::tag::{Tag, TagBuildHasher, TAG_LEN};
use lppa_rng::RngCore;

use crate::error::PrefixError;
use crate::family::prefix_family_into;
use crate::prefix::{Prefix, MASK_INPUT_LEN};
use crate::range::{max_cover_len, range_prefixes_into};

/// The set type backing masked families and covers.
///
/// Tags are HMAC output, so the sets use the cheap fixed
/// [`TagBuildHasher`] rather than SipHash — membership probes are the
/// auctioneer's innermost loop.
pub type TagSet = HashSet<Tag, TagBuildHasher>;

/// Upper bound on prefixes masked per batch chunk: a prefix family has
/// at most `MAX_WIDTH + 1 = 33` members and a range cover at most
/// `2·MAX_WIDTH − 2 = 62`, so one 64-slot stack staging area covers every
/// protocol call without heap allocation.
const MASK_CHUNK: usize = 64;

/// Masks a slice of prefixes under `key` through the multi-lane tag
/// kernel.
///
/// Mask inputs are staged in a stack buffer ([`MASK_CHUNK`] prefixes per
/// pass) and tags land directly in the result set, so the only heap
/// allocation is the `TagSet` itself — and the batched kernel amortizes
/// one SHA-256 message schedule across up to eight prefixes.
fn mask_all_into(key: &HmacKey, prefixes: &[Prefix], tags: &mut TagSet) {
    tags.reserve(prefixes.len());
    let mut inputs = [[0u8; MASK_INPUT_LEN]; MASK_CHUNK];
    for chunk in prefixes.chunks(MASK_CHUNK) {
        for (input, prefix) in inputs.iter_mut().zip(chunk) {
            prefix.write_mask_input(input);
        }
        Tag::compute_batch_into(key, &inputs[..chunk.len()], |_, tag| {
            tags.insert(tag);
        });
    }
}

/// Reusable masking scratch: a pool of retired [`TagSet`]s plus a prefix
/// staging buffer.
///
/// Checked-out sets are *cleared but not shrunk*, so a warm pool serves
/// every `mask_in`/`mask_padded_in` call without touching the allocator.
/// Tag sets are unordered and every consumer in the workspace is
/// iteration-order independent (membership probes, XOR fingerprints,
/// sorted candidate lists), so a pooled set of any prior capacity is
/// observationally identical to a fresh one — the pooled-vs-fresh
/// oracle invariant holds the whole pipeline to that.
#[derive(Debug, Default)]
pub struct MaskScratch {
    sets: Vec<TagSet>,
    prefixes: Vec<Prefix>,
}

impl MaskScratch {
    /// An empty pool; grows on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of sets currently parked in the pool (diagnostics).
    pub fn pooled_sets(&self) -> usize {
        self.sets.len()
    }

    /// Checks out a cleared set, reusing a retired one when available.
    fn take_set(&mut self) -> TagSet {
        match self.sets.pop() {
            Some(mut set) => {
                set.clear();
                set
            }
            None => TagSet::default(),
        }
    }

    /// Parks a set for reuse, keeping its capacity.
    pub fn reclaim_set(&mut self, mut set: TagSet) {
        set.clear();
        self.sets.push(set);
    }

    /// Retires a masked point, recycling its backing set.
    pub fn reclaim_point(&mut self, point: MaskedPoint) {
        self.reclaim_set(point.tags);
    }

    /// Retires a masked range, recycling its backing set.
    pub fn reclaim_range(&mut self, range: MaskedRange) {
        self.reclaim_set(range.tags);
    }
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
    tags: TagSet,
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
    /// is built in the pooled staging buffer and the tag set is checked
    /// out of the pool, so a warm scratch masks without allocating. Bits
    /// are identical to the unpooled path.
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
        let mut tags = scratch.take_set();
        if built.is_ok() {
            mask_all_into(key, &family, &mut tags);
        }
        scratch.prefixes = family;
        match built {
            Ok(()) => Ok(Self { tags }),
            Err(err) => {
                scratch.reclaim_set(tags);
                Err(err)
            }
        }
    }

    /// Reconstructs a masked point from raw transmitted tags.
    ///
    /// # Errors
    ///
    /// Returns [`PrefixError::EmptyTagSet`] if `tags` yields nothing: an
    /// empty point matches *no* range, which is indistinguishable from a
    /// dropped message and must be surfaced to the transport layer
    /// instead of silently losing every comparison.
    pub fn from_tags<I: IntoIterator<Item = Tag>>(tags: I) -> Result<Self, PrefixError> {
        let tags: TagSet = tags.into_iter().collect();
        if tags.is_empty() {
            return Err(PrefixError::EmptyTagSet);
        }
        Ok(Self { tags })
    }

    /// The membership test: does the hidden point lie in the hidden range?
    ///
    /// Sound and complete when both sides were masked under the same key
    /// over the same domain width (up to the negligible probability of a
    /// 128-bit tag collision).
    pub fn in_range(&self, range: &MaskedRange) -> bool {
        self.tags.iter().any(|t| range.tags.contains(t))
    }

    /// Number of transmitted tags.
    ///
    /// A genuine family over a `width`-bit domain carries exactly
    /// `width + 1` tags: one prefix per wildcarded suffix length
    /// `0..=width`, *including* the all-wildcard root that matches every
    /// value (see [`prefix_family`](crate::family::prefix_family)).
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// Whether the set holds no tags (never true for a genuine family).
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Iterates over the transmitted tags.
    pub fn iter(&self) -> impl Iterator<Item = &Tag> {
        self.tags.iter()
    }

    /// Transmission size in bytes.
    pub fn wire_len(&self) -> usize {
        self.tags.len() * TAG_LEN
    }

    /// An order-independent 64-bit fingerprint of the transmitted tag
    /// set.
    ///
    /// Two masked points have equal fingerprints iff they carry the same
    /// tags (up to negligible collision probability) — which is exactly
    /// the observable an attacker exploits against the *basic* bid
    /// scheme, where equal plaintexts produce identical masked sets. The
    /// advanced scheme's per-channel keys and value randomization make
    /// fingerprints unique and useless.
    pub fn fingerprint(&self) -> u64 {
        tag_set_fingerprint(&self.tags)
    }
}

/// XOR of per-tag mixes: an order-independent digest over a tag set.
fn tag_set_fingerprint(tags: &TagSet) -> u64 {
    tags.iter().map(|t| raw_tag_mix(t.as_bytes())).fold(0u64, |acc, h| acc ^ h)
}

/// The per-tag mix underlying [`MaskedPoint::fingerprint`], computed
/// from raw wire bytes.
///
/// XOR-folding this over a group of serialized tags reproduces the
/// fingerprint of the materialized tag set without building a `HashSet`
/// — zero-copy frame decoders use it to verify transport checksums
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

/// SplitMix64 avalanche, used for tag-set fingerprints.
fn split_mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A masked range cover `H_g(O(Q([a, b])))`: a hidden interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MaskedRange {
    tags: TagSet,
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
        Self::mask_sized_in(key, width, lo, hi, 0, scratch)
    }

    /// [`MaskedRange::mask_in`] into a set with room for `capacity` tags
    /// before the first one lands, so a cover that will be padded is
    /// sized once instead of growing and rehashing on the way.
    fn mask_sized_in(
        key: &HmacKey,
        width: u8,
        lo: u32,
        hi: u32,
        capacity: usize,
        scratch: &mut MaskScratch,
    ) -> Result<Self, PrefixError> {
        let mut cover = std::mem::take(&mut scratch.prefixes);
        let built = range_prefixes_into(width, lo, hi, &mut cover);
        let mut tags = scratch.take_set();
        if built.is_ok() {
            tags.reserve(capacity);
            mask_all_into(key, &cover, &mut tags);
        }
        scratch.prefixes = cover;
        match built {
            Ok(()) => Ok(Self { tags }),
            Err(err) => {
                scratch.reclaim_set(tags);
                Err(err)
            }
        }
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
    /// allocation-free once the pool is warm; the padding draws consume
    /// exactly the RNG stream of the unpooled path.
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
        let mut masked = Self::mask_sized_in(key, width, lo, hi, target, scratch)?;
        while masked.tags.len() < target {
            let mut bytes = [0u8; TAG_LEN];
            rng.fill_bytes(&mut bytes);
            masked.tags.insert(Tag::from_bytes(bytes));
        }
        Ok(masked)
    }

    /// Consumes exactly the RNG draws [`mask_padded_in`](Self::mask_padded_in)
    /// would spend on `[lo, hi]`, without computing any HMAC tag.
    ///
    /// A caller holding a still-valid masked range (same key, same
    /// interval) can skip the re-mask entirely and call this to keep a
    /// shared RNG stream bit-aligned with a path that does re-mask. The
    /// draw count is `max_cover_len(width) − |cover(lo, hi)|`: the pad
    /// loop adds one uniformly random 16-byte tag per iteration, and a
    /// 128-bit collision with a genuine or earlier pad tag (the only
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

    /// Reconstructs a masked range from raw transmitted tags.
    ///
    /// # Errors
    ///
    /// Returns [`PrefixError::EmptyTagSet`] if `tags` yields nothing, for
    /// the same reason as [`MaskedPoint::from_tags`]: an empty cover
    /// contains no point, so transport loss would read as "out of range".
    pub fn from_tags<I: IntoIterator<Item = Tag>>(tags: I) -> Result<Self, PrefixError> {
        let tags: TagSet = tags.into_iter().collect();
        if tags.is_empty() {
            return Err(PrefixError::EmptyTagSet);
        }
        Ok(Self { tags })
    }

    /// An order-independent 64-bit fingerprint of the transmitted tag
    /// set, as [`MaskedPoint::fingerprint`].
    pub fn fingerprint(&self) -> u64 {
        tag_set_fingerprint(&self.tags)
    }

    /// Number of transmitted tags.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// Whether the set holds no tags (never true for a genuine cover).
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Iterates over the transmitted tags.
    pub fn iter(&self) -> impl Iterator<Item = &Tag> {
        self.tags.iter()
    }

    /// Transmission size in bytes.
    pub fn wire_len(&self) -> usize {
        self.tags.len() * TAG_LEN
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::prefix_family;
    use crate::range::range_prefixes;
    use lppa_rng::rngs::StdRng;
    use lppa_rng::SeedableRng;

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
        // mask_all routes through the multi-lane kernel; the tag set must
        // be exactly what per-prefix scalar masking produces.
        let k = key(13);
        for (width, value) in [(1u8, 1u32), (4, 9), (13, 1234), (16, 40000)] {
            let family = prefix_family(width, value).unwrap();
            let scalar: TagSet =
                family.iter().map(|p| Tag::compute(&k, &p.to_mask_input())).collect();
            let point = MaskedPoint::mask(&k, width, value).unwrap();
            assert_eq!(point.len(), scalar.len(), "w={width}");
            assert!(point.iter().all(|t| scalar.contains(t)), "w={width}");
        }
        let cover = range_prefixes(13, 100, 7000).unwrap();
        let scalar: TagSet = cover.iter().map(|p| Tag::compute(&k, &p.to_mask_input())).collect();
        let range = MaskedRange::mask(&k, 13, 100, 7000).unwrap();
        assert_eq!(range.len(), scalar.len());
        assert!(range.iter().all(|t| scalar.contains(t)));
    }

    #[test]
    fn raw_tag_mix_folds_to_set_fingerprint() {
        // XOR-folding raw_tag_mix over serialized tag bytes must equal
        // the materialized set's fingerprint — this is the equation the
        // zero-copy wire decoder relies on to checksum borrowed views.
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
