//! Cross-crate failure injection: corrupted, truncated and mismatched
//! protocol messages must fail loudly (or fail *safe*), never panic or
//! silently mis-auction.

use lppa_rng::rngs::StdRng;
use lppa_rng::SeedableRng;
use lppa_suite::lppa::protocol::{run_private_auction_with_model, AuctioneerModel, SuSubmission};
use lppa_suite::lppa::psd::table::MaskedBidTable;
use lppa_suite::lppa::ttp::{ChargeRequest, Ttp};
use lppa_suite::lppa::zero_replace::ZeroReplacePolicy;
use lppa_suite::lppa::{LppaConfig, LppaError};
use lppa_suite::lppa_auction::bidder::Location;
use lppa_suite::lppa_crypto::tag::Tag;
use lppa_suite::lppa_prefix::{MaskedPoint, MaskedRange};
use lppa_suite::lppa_spectrum::ChannelId;

fn setup(k: usize) -> (Ttp, LppaConfig, StdRng) {
    let config = LppaConfig::default();
    let mut rng = StdRng::seed_from_u64(0xfa11);
    let ttp = Ttp::new(k, config, &mut rng).unwrap();
    (ttp, config, rng)
}

#[test]
fn dropped_tags_fail_safe_for_membership() {
    // A lossy channel that drops tags can only turn "in range" into
    // "not in range" — never invent a membership. Dropping tags from a
    // point can therefore break conflicts/comparisons but cannot create
    // spurious ones.
    let (ttp, config, mut rng) = setup(1);
    let keys = ttp.bidder_keys();
    let point = MaskedPoint::mask(&keys.g0, config.loc_bits, 77).unwrap();
    let range = MaskedRange::mask_padded(&keys.g0, config.loc_bits, 70, 84, &mut rng).unwrap();
    assert!(point.in_range(&range));

    // Drop half the point's tags.
    let kept: Vec<Tag> = point.iter().copied().take(point.len() / 2).collect();
    let truncated = MaskedPoint::from_tags(kept).unwrap();
    // Either outcome is allowed, but a *fabricated* membership for a
    // disjoint range is not.
    let far_range = MaskedRange::mask_padded(&keys.g0, config.loc_bits, 0, 10, &mut rng).unwrap();
    assert!(!truncated.in_range(&far_range));
}

#[test]
fn corrupted_tags_never_fabricate_membership() {
    let (ttp, config, mut rng) = setup(1);
    let keys = ttp.bidder_keys();
    let range = MaskedRange::mask_padded(&keys.g0, config.loc_bits, 20, 40, &mut rng).unwrap();
    // A point of pure garbage tags matches nothing.
    let garbage =
        MaskedPoint::from_tags((0u8..8).map(|i| Tag::from_bytes([i ^ 0x5a; 16]))).unwrap();
    assert!(!garbage.in_range(&range));
    // And a fully-truncated (empty) point is rejected outright rather
    // than silently matching nothing.
    assert!(MaskedPoint::from_tags(std::iter::empty()).is_err());
}

#[test]
fn ragged_submission_sets_are_rejected() {
    let (ttp2, config, mut rng) = setup(2);
    let ttp3 = Ttp::new(3, config, &mut rng).unwrap();
    let policy = ZeroReplacePolicy::never(config.bid_max());
    let a = SuSubmission::build(Location::new(1, 1), &[1, 2], &ttp2, &policy, &mut rng).unwrap();
    let b = SuSubmission::build(Location::new(2, 2), &[1, 2, 3], &ttp3, &policy, &mut rng).unwrap();
    let model = AuctioneerModel::default();
    let err = run_private_auction_with_model(&[a, b], &ttp2, model, &mut rng).unwrap_err();
    assert!(matches!(err, LppaError::ChannelCountMismatch { .. }));
}

#[test]
fn swapped_sealed_values_are_caught_at_charging() {
    // An auctioneer (or relay) that swaps two winners' sealed prices is
    // detected: the sealed value no longer matches the masked prefixes.
    let (ttp, config, mut rng) = setup(2);
    let policy = ZeroReplacePolicy::never(config.bid_max());
    let sub = SuSubmission::build(Location::new(3, 3), &[10, 90], &ttp, &policy, &mut rng).unwrap();
    let crossed = ChargeRequest {
        channel: ChannelId(0),
        sealed: sub.bids.bids()[1].sealed.clone(), // price of channel 1
        point: sub.bids.bids()[0].point.clone(),   // prefixes of channel 0
    };
    // Channel-0 key cannot even authenticate... it can (gc is shared),
    // but the prefix check fires.
    assert_eq!(ttp.open_charge(&crossed), Err(LppaError::ChargeManipulated));
}

#[test]
fn cross_auction_replay_is_rejected() {
    // Submissions from one auction replayed into another (fresh keys)
    // fail authentication at the TTP.
    let (ttp_a, config, mut rng) = setup(1);
    let ttp_b = Ttp::new(1, config, &mut rng).unwrap();
    let policy = ZeroReplacePolicy::never(config.bid_max());
    let sub = SuSubmission::build(Location::new(5, 5), &[33], &ttp_a, &policy, &mut rng).unwrap();
    let replayed = ChargeRequest {
        channel: ChannelId(0),
        sealed: sub.bids.bids()[0].sealed.clone(),
        point: sub.bids.bids()[0].point.clone(),
    };
    assert_eq!(ttp_b.open_charge(&replayed), Err(LppaError::ChargeAuthentication));
}

#[test]
fn empty_auction_is_an_error_not_a_panic() {
    let (ttp, _, mut rng) = setup(1);
    let model = AuctioneerModel::default();
    let err = run_private_auction_with_model(&[], &ttp, model, &mut rng).unwrap_err();
    assert!(matches!(err, LppaError::InvalidConfig { .. }));
}

#[test]
fn collect_rejects_empty_or_mixed_tables() {
    assert!(MaskedBidTable::<lppa::ppbs::bid::AdvancedBidSubmission>::collect(vec![]).is_err());
    assert!(
        MaskedBidTable::<lppa::ppbs::bid::AdvancedBidSubmission>::collect_pruned(vec![]).is_err()
    );
}

#[test]
fn out_of_domain_inputs_are_all_rejected() {
    let (ttp, config, mut rng) = setup(1);
    let policy = ZeroReplacePolicy::never(config.bid_max());
    // Oversized bid.
    let err =
        SuSubmission::build(Location::new(0, 0), &[config.bid_max() + 1], &ttp, &policy, &mut rng)
            .unwrap_err();
    assert!(matches!(err, LppaError::BidOutOfRange { .. }));
    // Oversized coordinate.
    let err =
        SuSubmission::build(Location::new(config.loc_max() + 1, 0), &[1], &ttp, &policy, &mut rng)
            .unwrap_err();
    assert!(matches!(err, LppaError::LocationOutOfRange { .. }));
    // Channel-count mismatch.
    let err =
        SuSubmission::build(Location::new(0, 0), &[1, 2], &ttp, &policy, &mut rng).unwrap_err();
    assert!(matches!(err, LppaError::ChannelCountMismatch { .. }));
}

#[test]
fn charging_unknown_channels_is_rejected() {
    let (ttp, config, mut rng) = setup(1);
    let policy = ZeroReplacePolicy::never(config.bid_max());
    let sub = SuSubmission::build(Location::new(1, 2), &[7], &ttp, &policy, &mut rng).unwrap();
    let request = ChargeRequest {
        channel: ChannelId(5),
        sealed: sub.bids.bids()[0].sealed.clone(),
        point: sub.bids.bids()[0].point.clone(),
    };
    assert!(matches!(ttp.open_charge(&request), Err(LppaError::ChannelCountMismatch { .. })));
}
