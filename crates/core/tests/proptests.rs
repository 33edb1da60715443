//! Property-based tests of the LPPA protocol layers: transform
//! round-trips, masked comparisons, conflict construction and charging.
//!
//! Run with the in-tree harness: each property draws its inputs from a
//! seeded RNG; failures print the exact reproduction seed (see
//! `lppa_rng::testing`).

use lppa::ppbs::bid::AdvancedBidSubmission;
use lppa::ppbs::location::{build_conflict_graph, LocationSubmission};
use lppa::psd::table::MaskedBidTable;
use lppa::ttp::{ChargeDecision, ChargeRequest, Ttp};
use lppa::zero_replace::ZeroReplacePolicy;
use lppa::LppaConfig;
use lppa_auction::bidder::{BidderId, Location};
use lppa_auction::conflict::ConflictGraph;
use lppa_rng::testing::check;
use lppa_rng::{Rng, StdRng};
use lppa_spectrum::ChannelId;

/// Generator: a valid protocol configuration (re-draws until the
/// sampled parameters validate).
fn config(rng: &mut StdRng) -> LppaConfig {
    loop {
        let loc_bits = rng.gen_range(4u8..=8);
        let bid_bits = rng.gen_range(4u8..=8);
        let lambda = rng.gen_range(1u32..5).min((1u32 << loc_bits) / 4).max(1);
        let rd = rng.gen_range(0u32..12);
        let cr = rng.gen_range(1u32..5);
        let candidate = LppaConfig { loc_bits, bid_bits, lambda, rd, cr };
        if candidate.validate().is_ok() {
            return candidate;
        }
    }
}

/// Offset + cr transform always decodes back to the raw bid.
#[test]
fn transform_roundtrip() {
    check("transform_roundtrip", |rng| {
        let config = config(rng);
        let raw = rng.gen_range(1..=config.bid_max());
        let offset = config.offset_bid(raw);
        let slot = rng.gen_range(0..config.cr);
        let transformed = config.cr * offset + slot;
        assert!(transformed <= config.transformed_max());
        let decoded = config.decode_transformed(transformed);
        assert!(!config.is_zero_price(decoded));
        assert_eq!(config.decode_offset(decoded), raw);
    });
}

/// Zero-band values always decode to zero and are always flagged.
#[test]
fn zero_band_roundtrip() {
    check("zero_band_roundtrip", |rng| {
        let config = config(rng);
        let z = rng.gen_range(0..=config.rd);
        let slot = rng.gen_range(0..config.cr);
        let transformed = config.cr * z + slot;
        let decoded = config.decode_transformed(transformed);
        assert!(config.is_zero_price(decoded));
        assert_eq!(config.decode_offset(decoded), 0);
    });
}

/// Masked bid comparisons agree with plaintext for arbitrary bids.
#[test]
fn masked_comparison_matches_plaintext() {
    check("masked_comparison_matches_plaintext", |rng| {
        let a = rng.gen_range(0u32..=127);
        let b = rng.gen_range(0u32..=127);
        let config = LppaConfig::default();
        let ttp = Ttp::new(1, config, rng).unwrap();
        let policy = ZeroReplacePolicy::never(config.bid_max());
        let sa =
            AdvancedBidSubmission::build(&[a], ttp.bidder_keys(), &config, &policy, rng).unwrap();
        let sb =
            AdvancedBidSubmission::build(&[b], ttp.bidder_keys(), &config, &policy, rng).unwrap();
        let ge = sa.bids()[0].point.in_range(&sb.bids()[0].range);
        if a > b {
            assert!(ge, "{a} vs {b}");
        } else if a < b {
            assert!(!ge, "{a} vs {b}");
        }
        // Equal values may order either way (random cr slots), but the
        // relation must stay antisymmetric-or-tie with the reverse test.
        let le = sb.bids()[0].point.in_range(&sa.bids()[0].range);
        assert!(ge || le, "comparison must be total");
    });
}

/// Masked conflict tests agree with the coordinate predicate for
/// arbitrary locations and λ.
#[test]
fn masked_conflicts_match_predicate() {
    check("masked_conflicts_match_predicate", |rng| {
        let lambda = rng.gen_range(1u32..8);
        let config = LppaConfig { lambda, ..LppaConfig::default() };
        if config.validate().is_err() {
            return;
        }
        let a = Location::new(rng.gen_range(0u32..=127), rng.gen_range(0u32..=127));
        let b = Location::new(rng.gen_range(0u32..=127), rng.gen_range(0u32..=127));
        let ttp = Ttp::new(1, config, rng).unwrap();
        let sa = LocationSubmission::build(a, &ttp.bidder_keys().g0, &config, rng).unwrap();
        let sb = LocationSubmission::build(b, &ttp.bidder_keys().g0, &config, rng).unwrap();
        assert_eq!(sa.conflicts_with(&sb), a.conflicts_with(&b, lambda));
        assert_eq!(sb.conflicts_with(&sa), a.conflicts_with(&b, lambda));
    });
}

/// The masked conflict graph (the two-axis index join) is identical to
/// the plaintext graph of the same locations for arbitrary bidder sets —
/// including the degenerate 0- and 1-bidder graphs and the
/// fully-colliding case where every bidder shares one location (maximal
/// owner lists, complete graph).
#[test]
fn indexed_conflict_graph_equals_plaintext() {
    check("indexed_conflict_graph_equals_plaintext", |rng| {
        let config = LppaConfig::default();
        let ttp = Ttp::new(1, config, rng).unwrap();
        let g0 = &ttp.bidder_keys().g0;
        let n = rng.gen_range(0usize..=24);
        let colliding = rng.gen_bool(0.2);
        let base = Location::new(rng.gen_range(0..=127), rng.gen_range(0..=127));
        let locations: Vec<Location> = (0..n)
            .map(|_| {
                if colliding {
                    base
                } else {
                    Location::new(rng.gen_range(0..=127), rng.gen_range(0..=127))
                }
            })
            .collect();
        let submissions: Vec<LocationSubmission> = locations
            .iter()
            .map(|&loc| LocationSubmission::build(loc, g0, &config, rng).unwrap())
            .collect();
        assert_eq!(
            build_conflict_graph(&submissions),
            ConflictGraph::from_locations(&locations, config.lambda),
            "n={n} colliding={colliding}"
        );
    });
}

/// The production winner set — the minimum-class candidates of the
/// table's tie classes — equals the linear-scan reference for arbitrary
/// tables and candidate subsets, including single-bidder candidate sets
/// and padded ranges carrying disguised zeros.
#[test]
fn class_maxima_equal_linear_scan() {
    check("class_maxima_equal_linear_scan", |rng| {
        let config = LppaConfig::default();
        let k = rng.gen_range(1usize..=3);
        let ttp = Ttp::new(k, config, rng).unwrap();
        // A random disguise rate exercises ranges whose presented value
        // is a fake positive while the sealed price is zero.
        let policy = ZeroReplacePolicy::uniform(rng.gen_range(0.0..=1.0), config.bid_max());
        let n = rng.gen_range(1usize..=16);
        let submissions: Vec<AdvancedBidSubmission> = (0..n)
            .map(|_| {
                let bids: Vec<u32> =
                    (0..k)
                        .map(|_| {
                            if rng.gen_bool(0.4) {
                                0
                            } else {
                                rng.gen_range(1..=config.bid_max())
                            }
                        })
                        .collect();
                AdvancedBidSubmission::build(&bids, ttp.bidder_keys(), &config, &policy, rng)
                    .unwrap()
            })
            .collect();
        let table = MaskedBidTable::collect(submissions).unwrap();
        for ch in 0..k {
            let mut candidates: Vec<BidderId> =
                (0..n).filter(|_| rng.gen_bool(0.7)).map(BidderId).collect();
            if candidates.is_empty() {
                candidates.push(BidderId(rng.gen_range(0..n)));
            }
            let classes = &table.classes()[ch];
            let best = candidates.iter().map(|c| classes[c.0]).min();
            let by_class: Vec<BidderId> =
                candidates.iter().copied().filter(|c| Some(classes[c.0]) == best).collect();
            assert_eq!(
                by_class,
                table.maxima_linear(ChannelId(ch), &candidates),
                "ch={ch} candidates={candidates:?}"
            );
        }
    });
}

/// The TTP always reconstructs the exact raw price from a genuine
/// submission, and flags every genuine zero as invalid.
#[test]
fn charging_recovers_raw_prices() {
    check("charging_recovers_raw_prices", |rng| {
        let raw = rng.gen_range(0u32..=127);
        let config = LppaConfig::default();
        let ttp = Ttp::new(1, config, rng).unwrap();
        let policy = ZeroReplacePolicy::never(config.bid_max());
        let sub =
            AdvancedBidSubmission::build(&[raw], ttp.bidder_keys(), &config, &policy, rng).unwrap();
        let request = ChargeRequest {
            channel: lppa_spectrum::ChannelId(0),
            sealed: sub.bids()[0].sealed.clone(),
            point: sub.bids()[0].point.clone(),
        };
        let decision = ttp.open_charge(&request).unwrap();
        if raw == 0 {
            assert_eq!(decision, ChargeDecision::InvalidZero);
        } else {
            assert_eq!(decision, ChargeDecision::Valid { raw_price: raw });
        }
    });
}

/// Disguised zeros are always detected at charging, whatever the
/// disguise distribution.
#[test]
fn disguised_zeros_never_charge() {
    check("disguised_zeros_never_charge", |rng| {
        let replace = rng.gen_range(0.5f64..1.0);
        let config = LppaConfig::default();
        let ttp = Ttp::new(1, config, rng).unwrap();
        let policy = ZeroReplacePolicy::uniform(replace, config.bid_max());
        let sub =
            AdvancedBidSubmission::build(&[0], ttp.bidder_keys(), &config, &policy, rng).unwrap();
        let request = ChargeRequest {
            channel: lppa_spectrum::ChannelId(0),
            sealed: sub.bids()[0].sealed.clone(),
            point: sub.bids()[0].point.clone(),
        };
        assert_eq!(ttp.open_charge(&request).unwrap(), ChargeDecision::InvalidZero);
    });
}

/// Zero-replacement sampling stays within the declared support and
/// respects the stay-zero probability approximately.
#[test]
fn policy_sampling_support() {
    check("policy_sampling_support", |rng| {
        let replace = rng.gen_range(0.0f64..=1.0);
        let decay = rng.gen_range(0.1f64..=1.0);
        let policy = ZeroReplacePolicy::geometric(replace, decay, 31);
        for _ in 0..50 {
            if let Some(t) = policy.sample(rng) {
                assert!((1..=31).contains(&t));
            }
        }
    });
}
