//! Masked-prefix tags.
//!
//! A [`Tag`] is the value actually transmitted for each prefix in the LPPA
//! protocol: the HMAC of a numericalized prefix, truncated to 128 bits.
//! Truncation keeps the submission size down (Theorem 4 measures
//! communication cost) while a 128-bit tag keeps the accidental-collision
//! probability negligible for auction-sized sets.

use crate::keys::HmacKey;

/// Length in bytes of a transmitted tag.
pub const TAG_LEN: usize = 16;

/// A 128-bit masked prefix: `truncate(HMAC_k(prefix bytes))`.
///
/// Tags are ordinary values — the whole point of the scheme is that the
/// auctioneer stores, sorts and intersects them — so the type implements
/// the full set of comparison and hashing traits.
///
/// # Examples
///
/// ```
/// use lppa_crypto::keys::HmacKey;
/// use lppa_crypto::tag::Tag;
///
/// let key = HmacKey::from_bytes([9u8; 32]);
/// let a = Tag::compute(&key, b"10100");
/// let b = Tag::compute(&key, b"10100");
/// assert_eq!(a, b);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tag([u8; TAG_LEN]);

impl Tag {
    /// Masks `message` under `key`.
    ///
    /// Uses the key's precomputed [`crate::hmac::HmacMidstate`], so a
    /// short message costs two SHA-256 compressions rather than the four
    /// a from-scratch HMAC would spend.
    pub fn compute(key: &HmacKey, message: &[u8]) -> Self {
        let full = key.midstate().compute(message);
        let mut out = [0u8; TAG_LEN];
        out.copy_from_slice(&full[..TAG_LEN]);
        Self(out)
    }

    /// Masks a batch of independent messages under `key`, delivering
    /// `(index, tag)` pairs to `sink`.
    ///
    /// Runs the multi-lane SHA-256 kernel via
    /// [`crate::hmac::HmacMidstate::compute_batch_into`]: N lanes share
    /// one message-schedule walk, so masking a whole prefix family or
    /// range cover costs a fraction of per-message [`Self::compute`]
    /// calls while producing bit-identical tags. Delivery order is
    /// unspecified; order-insensitive sinks (e.g. inserting into a tag
    /// set) can ignore the index.
    pub fn compute_batch_into<M, F>(key: &HmacKey, messages: &[M], mut sink: F)
    where
        M: AsRef<[u8]>,
        F: FnMut(usize, Tag),
    {
        key.midstate().compute_batch_into(messages, |i, full| {
            let mut out = [0u8; TAG_LEN];
            out.copy_from_slice(&full[..TAG_LEN]);
            sink(i, Self(out));
        });
    }

    /// Masks a batch of messages under `key`, returning tags in message
    /// order.
    ///
    /// # Examples
    ///
    /// ```
    /// use lppa_crypto::keys::HmacKey;
    /// use lppa_crypto::tag::Tag;
    ///
    /// let key = HmacKey::from_bytes([9u8; 32]);
    /// let tags = Tag::compute_batch(&key, &[b"10100".as_slice(), b"1010*"]);
    /// assert_eq!(tags[0], Tag::compute(&key, b"10100"));
    /// assert_eq!(tags[1], Tag::compute(&key, b"1010*"));
    /// ```
    pub fn compute_batch<M: AsRef<[u8]>>(key: &HmacKey, messages: &[M]) -> Vec<Tag> {
        let mut out = vec![Tag([0u8; TAG_LEN]); messages.len()];
        Self::compute_batch_into(key, messages, |i, tag| out[i] = tag);
        out
    }

    /// [`Self::compute_batch`] pinned to an explicit lane width, for
    /// determinism tests and the differential oracle's batch-vs-scalar
    /// variant pair.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not in [`crate::lanes::SUPPORTED_WIDTHS`].
    pub fn compute_batch_with_width<M: AsRef<[u8]>>(
        key: &HmacKey,
        width: usize,
        messages: &[M],
    ) -> Vec<Tag> {
        let mut out = vec![Tag([0u8; TAG_LEN]); messages.len()];
        key.midstate().compute_batch_into_with_width(width, messages, |i, full| {
            let mut bytes = [0u8; TAG_LEN];
            bytes.copy_from_slice(&full[..TAG_LEN]);
            out[i] = Tag(bytes);
        });
        out
    }

    /// Wraps raw tag bytes (e.g. parsed from a submission).
    pub fn from_bytes(bytes: [u8; TAG_LEN]) -> Self {
        Self(bytes)
    }

    /// Returns the raw tag bytes.
    pub fn as_bytes(&self) -> &[u8; TAG_LEN] {
        &self.0
    }
}

impl std::fmt::Debug for Tag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tag(")?;
        for b in &self.0[..4] {
            write!(f, "{b:02x}")?;
        }
        write!(f, "…)")
    }
}

impl std::fmt::Display for Tag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl From<[u8; TAG_LEN]> for Tag {
    fn from(bytes: [u8; TAG_LEN]) -> Self {
        Self::from_bytes(bytes)
    }
}

impl AsRef<[u8]> for Tag {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// A fast, fixed-key hasher for [`Tag`] keys.
///
/// Tags are truncated HMAC-SHA256 outputs: uniformly distributed, and
/// unforgeable without the masking key, so the auctioneer's tag sets do
/// not need SipHash's collision resistance against adversarial keys.
/// This hasher folds the written bytes, 8 at a time as little-endian
/// words, into a 64-bit accumulator and applies one SplitMix64
/// avalanche — and the hot auction paths (membership tests, the
/// inverted tag index, owner counts) are nothing but probes.
///
/// Hashing a [`Tag`] writes its length prefix and then its 16 bytes;
/// both have inlined fixed-size paths (one fold for the length, two
/// 8-byte loads for the tag), so a probe never runs the generic chunk
/// loop. Every other write folds through that loop, and the values are
/// the same either way.
///
/// Unlike `std`'s default `RandomState`, the hash is the same in every
/// process, which also makes set iteration order reproducible.
///
/// # Examples
///
/// ```
/// use std::collections::HashSet;
/// use lppa_crypto::tag::{Tag, TagBuildHasher};
///
/// let mut set: HashSet<Tag, TagBuildHasher> = HashSet::default();
/// set.insert(Tag::from_bytes([7u8; 16]));
/// assert!(set.contains(&Tag::from_bytes([7u8; 16])));
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct TagHasher(u64);

/// `BuildHasher` for [`TagHasher`], usable as the `S` parameter of
/// `HashMap`/`HashSet`.
pub type TagBuildHasher = std::hash::BuildHasherDefault<TagHasher>;

impl TagHasher {
    /// Folds one little-endian word into the accumulator.
    #[inline]
    fn fold(&mut self, word: u64) {
        self.0 = self.0.rotate_left(29) ^ word;
    }
}

impl std::hash::Hasher for TagHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        if let Ok(tag) = <[u8; TAG_LEN]>::try_from(bytes) {
            // Bytes 0..8 and 8..16 as little-endian words, as the loop
            // below would read them.
            let word = u128::from_le_bytes(tag);
            self.fold(word as u64);
            self.fold((word >> 64) as u64);
            return;
        }
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
    }

    /// The length prefix a derived `Hash` writes before a slice: the
    /// same fold as `write(&i.to_ne_bytes())`, without the loop.
    #[inline]
    fn write_usize(&mut self, i: usize) {
        let mut word = [0u8; 8];
        word[..std::mem::size_of::<usize>()].copy_from_slice(&i.to_ne_bytes());
        self.fold(u64::from_le_bytes(word));
    }

    #[inline]
    fn finish(&self) -> u64 {
        // SplitMix64 avalanche: tag bytes are uniform, but the fold
        // above is linear, so mix once before handing bits to the table.
        let mut z = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hmac::hmac_sha256;

    fn key(byte: u8) -> HmacKey {
        HmacKey::from_bytes([byte; 32])
    }

    #[test]
    fn same_input_same_tag() {
        assert_eq!(Tag::compute(&key(1), b"x"), Tag::compute(&key(1), b"x"));
    }

    #[test]
    fn different_key_different_tag() {
        assert_ne!(Tag::compute(&key(1), b"x"), Tag::compute(&key(2), b"x"));
    }

    #[test]
    fn different_message_different_tag() {
        assert_ne!(Tag::compute(&key(1), b"x"), Tag::compute(&key(1), b"y"));
    }

    #[test]
    fn truncation_matches_full_hmac_prefix() {
        let k = key(7);
        let tag = Tag::compute(&k, b"hello");
        let full = hmac_sha256(k.as_bytes(), b"hello");
        assert_eq!(tag.as_bytes()[..], full[..TAG_LEN]);
    }

    #[test]
    fn display_is_full_hex_and_debug_is_abbreviated() {
        let tag = Tag::from_bytes([0xab; TAG_LEN]);
        assert_eq!(tag.to_string(), "ab".repeat(TAG_LEN));
        let dbg = format!("{tag:?}");
        assert!(dbg.starts_with("Tag(abababab"));
        assert!(dbg.len() < 20);
    }

    #[test]
    fn tags_are_usable_in_hash_sets() {
        let mut set = std::collections::HashSet::new();
        set.insert(Tag::compute(&key(1), b"a"));
        set.insert(Tag::compute(&key(1), b"b"));
        assert!(set.contains(&Tag::compute(&key(1), b"a")));
        assert!(!set.contains(&Tag::compute(&key(1), b"c")));
    }

    #[test]
    fn batch_matches_per_message_compute() {
        let k = key(11);
        let messages: Vec<Vec<u8>> = (0..17u8).map(|i| vec![i; 9]).collect();
        let want: Vec<_> = messages.iter().map(|m| Tag::compute(&k, m)).collect();
        assert_eq!(Tag::compute_batch(&k, &messages), want);
        for width in crate::lanes::SUPPORTED_WIDTHS {
            assert_eq!(Tag::compute_batch_with_width(&k, width, &messages), want, "w={width}");
        }
    }

    /// The hasher's definition spelled out: fold the length prefix, then
    /// every 8-byte chunk (the last zero-padded) as a little-endian
    /// word, then avalanche.
    fn reference_fold(length_prefix: Option<usize>, bytes: &[u8]) -> u64 {
        use std::hash::Hasher;
        let mut acc = 0u64;
        let words = length_prefix.map(|n| n as u64).into_iter().chain(bytes.chunks(8).map(|c| {
            let mut word = [0u8; 8];
            word[..c.len()].copy_from_slice(c);
            u64::from_le_bytes(word)
        }));
        for word in words {
            acc = acc.rotate_left(29) ^ word;
        }
        TagHasher(acc).finish()
    }

    #[test]
    fn tag_hash_values_are_pinned() {
        // Set and index iteration orders (and with them every frame,
        // fingerprint and oracle repro) follow these values.
        use std::hash::BuildHasher;
        let hasher = TagBuildHasher::default();
        let mut ascending = [0u8; TAG_LEN];
        for (i, b) in ascending.iter_mut().enumerate() {
            *b = i as u8;
        }
        let golden = [
            (Tag::from_bytes([0; TAG_LEN]), 0x00aa_50ea_8e0f_a9eb),
            (Tag::from_bytes(ascending), 0x5f90_22b1_9b3b_12aa),
            (Tag::compute(&key(9), b"10100"), 0xa14c_314a_509b_b516),
        ];
        for (tag, want) in golden {
            assert_eq!(hasher.hash_one(tag), want, "{tag}");
        }
    }

    #[test]
    fn tag_fast_path_equals_generic_fold() {
        use crate::rand_core::{RngCore, TestRng};
        use std::hash::BuildHasher;
        let hasher = TagBuildHasher::default();
        let mut rng = TestRng::new(0x7a6);
        for _ in 0..1000 {
            let mut bytes = [0u8; TAG_LEN];
            rng.fill_bytes(&mut bytes);
            let want = reference_fold(Some(TAG_LEN), &bytes);
            assert_eq!(hasher.hash_one(Tag::from_bytes(bytes)), want);
        }
    }

    #[test]
    fn other_write_lengths_fold_in_eight_byte_chunks() {
        use std::hash::Hasher;
        let bytes: Vec<u8> = (0..40u8).map(|i| i.wrapping_mul(37).wrapping_add(5)).collect();
        for n in 0..bytes.len() {
            let mut h = TagHasher::default();
            h.write(&bytes[..n]);
            assert_eq!(h.finish(), reference_fold(None, &bytes[..n]), "n={n}");
        }
        // Values computed before the 16-byte path existed.
        for (n, want) in [
            (0usize, 0xe220_a839_7b1d_cdaf),
            (13, 0x2b12_86ba_337b_a7fb),
            (33, 0x4ff7_866c_7ee2_30db),
        ] {
            let mut h = TagHasher::default();
            h.write(&bytes[..n]);
            assert_eq!(h.finish(), want, "n={n}");
        }
    }

    #[test]
    fn conversion_traits_roundtrip() {
        let bytes = [3u8; TAG_LEN];
        let tag: Tag = bytes.into();
        assert_eq!(tag.as_ref(), &bytes[..]);
    }
}
