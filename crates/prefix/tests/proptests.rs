//! Property-based tests for the prefix-membership invariants that the
//! whole LPPA protocol rests on.
//!
//! Run with the in-tree harness: each property draws its inputs from a
//! seeded RNG; failures print the exact reproduction seed (see
//! `lppa_rng::testing`).

use std::collections::HashSet;

use lppa_crypto::keys::HmacKey;
use lppa_crypto::tag::Tag;
use lppa_prefix::{max_cover_len, prefix_family, range_prefixes, MaskedPoint, MaskedRange, Prefix};
use lppa_rng::seq::SliceRandom;
use lppa_rng::testing::check;
use lppa_rng::{Rng, RngCore, StdRng};

/// Generator: a domain width and a value that fits in it.
fn width_and_value(rng: &mut StdRng) -> (u8, u32) {
    let w = rng.gen_range(1u8..=16);
    let max = (1u32 << w) - 1;
    (w, rng.gen_range(0..=max))
}

/// Generator: a domain width and an ordered pair inside it.
fn width_and_range(rng: &mut StdRng) -> (u8, u32, u32) {
    let w = rng.gen_range(1u8..=16);
    let max = (1u32 << w) - 1;
    let a = rng.gen_range(0..=max);
    let b = rng.gen_range(0..=max);
    (w, a.min(b), a.max(b))
}

/// Generator: a width, a value in it and a range in it — generated
/// together so every case is usable.
fn width_value_range(rng: &mut StdRng) -> (u8, u32, u32, u32) {
    let w = rng.gen_range(1u8..=16);
    let max = (1u32 << w) - 1;
    let x = rng.gen_range(0..=max);
    let a = rng.gen_range(0..=max);
    let b = rng.gen_range(0..=max);
    (w, x, a.min(b), a.max(b))
}

/// The defining equivalence of the scheme:
/// `x ∈ [a,b] ⇔ O(G(x)) ∩ O(Q([a,b])) ≠ ∅`.
#[test]
fn membership_equivalence() {
    check("membership_equivalence", |rng| {
        let (w, x, lo, hi) = width_value_range(rng);
        let family: Vec<u64> =
            prefix_family(w, x).unwrap().iter().map(Prefix::numericalize).collect();
        let cover: Vec<u64> =
            range_prefixes(w, lo, hi).unwrap().iter().map(Prefix::numericalize).collect();
        let intersects = family.iter().any(|n| cover.contains(n));
        assert_eq!(intersects, (lo..=hi).contains(&x));
    });
}

/// Same equivalence after HMAC masking.
#[test]
fn masked_membership_equivalence() {
    check("masked_membership_equivalence", |rng| {
        let (w, x, lo, hi) = width_value_range(rng);
        let key_byte: u8 = rng.gen();
        let key = HmacKey::from_bytes([key_byte; 32]);
        let point = MaskedPoint::mask(&key, w, x).unwrap();
        let range = MaskedRange::mask(&key, w, lo, hi).unwrap();
        assert_eq!(point.in_range(&range), (lo..=hi).contains(&x));
    });
}

/// Padded ranges behave identically to unpadded ones.
#[test]
fn padded_membership_equivalence() {
    check("padded_membership_equivalence", |rng| {
        let (w, x, lo, hi) = width_value_range(rng);
        let key = HmacKey::from_bytes([9u8; 32]);
        let point = MaskedPoint::mask(&key, w, x).unwrap();
        let range = MaskedRange::mask_padded(&key, w, lo, hi, rng).unwrap();
        assert_eq!(point.in_range(&range), (lo..=hi).contains(&x));
        assert_eq!(range.len(), max_cover_len(w));
    });
}

/// The family always has exactly `w + 1` members, each containing `x`.
#[test]
fn family_shape() {
    check("family_shape", |rng| {
        let (w, x) = width_and_value(rng);
        let family = prefix_family(w, x).unwrap();
        assert_eq!(family.len(), usize::from(w) + 1);
        for p in &family {
            assert!(p.contains(x));
        }
    });
}

/// The range cover is exact, minimal-bounded and sorted.
#[test]
fn cover_shape() {
    check("cover_shape", |rng| {
        let (w, lo, hi) = width_and_range(rng);
        let cover = range_prefixes(w, lo, hi).unwrap();
        assert!(cover.len() <= max_cover_len(w).max(1));
        // Sorted and pairwise disjoint.
        for pair in cover.windows(2) {
            assert!(pair[0].high() < pair[1].low());
        }
        // Boundary values covered, outside neighbours not.
        assert!(cover.iter().any(|p| p.contains(lo)));
        assert!(cover.iter().any(|p| p.contains(hi)));
        if lo > 0 {
            assert!(!cover.iter().any(|p| p.contains(lo - 1)));
        }
        let dmax = if w == 32 { u32::MAX } else { (1u32 << w) - 1 };
        if hi < dmax {
            assert!(!cover.iter().any(|p| p.contains(hi + 1)));
        }
    });
}

/// Numericalization round-trips through the displayed pattern: two
/// prefixes of the same width with equal `O(·)` are the same prefix.
#[test]
fn numericalization_injective() {
    check("numericalization_injective", |rng| {
        let w = rng.gen_range(1u8..=12);
        let a: u32 = rng.gen();
        let b: u32 = rng.gen();
        let sa = rng.gen_range(0u8..=w);
        let sb = rng.gen_range(0u8..=w);
        let mask_a = if sa == 0 { 0 } else { a & ((1u32 << sa) - 1) };
        let mask_b = if sb == 0 { 0 } else { b & ((1u32 << sb) - 1) };
        let pa = Prefix::new(w, mask_a, sa).unwrap();
        let pb = Prefix::new(w, mask_b, sb).unwrap();
        assert_eq!(pa.numericalize() == pb.numericalize(), pa == pb);
    });
}

/// Generator: a random tag. Half the time its first `1..=15` bytes are
/// fixed, so runs interleave on their low bytes too.
fn random_tag(rng: &mut StdRng) -> Tag {
    let mut bytes = [0u8; 16];
    rng.fill_bytes(&mut bytes);
    if rng.gen_bool(0.5) {
        let fixed = rng.gen_range(1usize..=15);
        bytes[..fixed].fill(0xa5);
    }
    Tag::from_bytes(bytes)
}

/// Generator: a masked point family or a padded cover, as its tags.
fn masked_group_tags(rng: &mut StdRng) -> (Vec<Tag>, usize, u64) {
    let (w, x, lo, hi) = width_value_range(rng);
    let key = HmacKey::from_bytes([rng.gen(); 32]);
    if rng.gen_bool(0.5) {
        let point = MaskedPoint::mask(&key, w, x).unwrap();
        (point.iter().copied().collect(), point.len(), point.fingerprint())
    } else {
        let range = MaskedRange::mask_padded(&key, w, lo, hi, rng).unwrap();
        (range.iter().copied().collect(), range.len(), range.fingerprint())
    }
}

/// Masked groups are strictly ascending runs, and rebuilding one from
/// its tags in any order, with duplicates added, gives the same group.
#[test]
fn from_tags_has_set_semantics() {
    check("from_tags_has_set_semantics", |rng| {
        let (tags, len, fingerprint) = masked_group_tags(rng);
        assert!(tags.windows(2).all(|w| w[0] < w[1]), "masked groups are ascending runs");
        let mut shuffled = tags.clone();
        for _ in 0..rng.gen_range(0..=tags.len()) {
            let dup = shuffled[rng.gen_range(0..shuffled.len())];
            shuffled.push(dup);
        }
        shuffled.shuffle(rng);
        let point = MaskedPoint::from_tags(shuffled.iter().copied()).unwrap();
        let range = MaskedRange::from_tags(shuffled).unwrap();
        assert!(point.iter().eq(tags.iter()));
        assert!(range.iter().eq(tags.iter()));
        assert_eq!(point, MaskedPoint::from_tags(tags.iter().copied()).unwrap());
        assert_eq!(range, MaskedRange::from_tags(tags).unwrap());
        assert_eq!((point.len(), point.fingerprint()), (len, fingerprint));
        assert_eq!((range.len(), range.fingerprint()), (len, fingerprint));
    });
}

/// `in_range` (a merge of two ascending runs) is exactly a non-empty
/// set intersection, on random runs that overlap freely, on disjoint
/// runs and on runs that share exactly one tag.
#[test]
fn in_range_matches_set_intersection() {
    check("in_range_matches_set_intersection", |rng| {
        let (a, b): (Vec<Tag>, Vec<Tag>) = match rng.gen_range(0..3) {
            0 => {
                let universe: Vec<Tag> =
                    (0..rng.gen_range(1..=40)).map(|_| random_tag(rng)).collect();
                let pick = |rng: &mut StdRng| -> Vec<Tag> {
                    (0..rng.gen_range(1..=24))
                        .map(|_| universe[rng.gen_range(0..universe.len())])
                        .collect()
                };
                (pick(rng), pick(rng))
            }
            mode => {
                let mut all: Vec<Tag> =
                    (0..rng.gen_range(2..=60)).map(|_| random_tag(rng)).collect();
                all.sort_unstable();
                all.dedup();
                all.shuffle(rng);
                let split = rng.gen_range(1..all.len().max(2));
                let (mut a, mut b) = (all[..split].to_vec(), all[split..].to_vec());
                if mode == 2 || b.is_empty() {
                    let shared = random_tag(rng);
                    a.push(shared);
                    b.push(shared);
                }
                (a, b)
            }
        };
        let set_a: HashSet<Tag> = a.iter().copied().collect();
        let expected = b.iter().any(|t| set_a.contains(t));
        let point = MaskedPoint::from_tags(a).unwrap();
        let range = MaskedRange::from_tags(b).unwrap();
        assert_eq!(point.in_range(&range), expected);
    });
}
