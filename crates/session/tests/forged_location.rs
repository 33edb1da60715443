//! A bidder that replaces its masked location with made-up tags.
//!
//! Random tags of the right counts pass every size check, match no
//! other bidder's groups and so erase all of the forger's conflict
//! edges: it would share a channel with every neighbour. Validation
//! must reject such a submission because its points do not lie in its
//! own covers, and the round must quarantine the forger and stay
//! interference-free among everyone else.

use lppa::ppbs::location::LocationSubmission;
use lppa::protocol::{conflict_graph, validate_submission, SuSubmission};
use lppa::zero_replace::ZeroReplacePolicy;
use lppa::{LppaConfig, LppaError, Ttp};
use lppa_auction::bidder::Location;
use lppa_crypto::tag::Tag;
use lppa_prefix::{MaskedPoint, MaskedRange};
use lppa_rng::rngs::StdRng;
use lppa_rng::{RngCore, SeedableRng};
use lppa_session::session::{AuctionSession, SessionConfig, SessionOutcome};
use lppa_session::{run_wire_round, QuarantineReason};

const FORGER: usize = 5;

/// Six bidders in a row on one channel, each within 2λ of every other
/// (x = 20…25, y = 20), bidding 90, 80, …, 40.
fn six_in_a_row() -> (Ttp, Vec<Location>, Vec<SuSubmission>, StdRng) {
    let config = LppaConfig::default();
    let mut rng = StdRng::seed_from_u64(0x0f0e_6ed5);
    let ttp = Ttp::new(1, config, &mut rng).unwrap();
    let policy = ZeroReplacePolicy::never(config.bid_max());
    let locations: Vec<Location> = (0..6).map(|i| Location::new(20 + i, 20)).collect();
    let submissions = locations
        .iter()
        .zip([90, 80, 70, 60, 50, 40])
        .map(|(&location, bid)| {
            SuSubmission::build(location, &[bid], &ttp, &policy, &mut rng).unwrap()
        })
        .collect();
    (ttp, locations, submissions, rng)
}

fn random_tags(n: usize, rng: &mut StdRng) -> Vec<Tag> {
    (0..n)
        .map(|_| {
            let mut bytes = [0u8; 16];
            rng.fill_bytes(&mut bytes);
            Tag::from_bytes(bytes)
        })
        .collect()
}

/// Replaces all four location groups with random tags of the same sizes.
fn forge_location(sub: &mut SuSubmission, rng: &mut StdRng) {
    let loc = &sub.location;
    let sizes =
        [loc.point_x().len(), loc.range_x().len(), loc.point_y().len(), loc.range_y().len()];
    sub.location = LocationSubmission::from_parts(
        MaskedPoint::from_tags(random_tags(sizes[0], rng)).unwrap(),
        MaskedRange::from_tags(random_tags(sizes[1], rng)).unwrap(),
        MaskedPoint::from_tags(random_tags(sizes[2], rng)).unwrap(),
        MaskedRange::from_tags(random_tags(sizes[3], rng)).unwrap(),
    );
}

/// The forger is quarantined as rejected, everyone else is accepted,
/// and no two winners of one channel conflict in the plaintext.
fn assert_forger_shut_out(outcome: &SessionOutcome, locations: &[Location]) {
    match outcome.quarantine.get(FORGER) {
        Some(QuarantineReason::Rejected { cause }) => {
            assert!(matches!(cause, LppaError::MalformedSubmission { .. }), "{cause}");
        }
        other => panic!("forger not rejected: {other:?}"),
    }
    assert_eq!(outcome.accepted, vec![0, 1, 2, 3, 4]);
    let lambda = LppaConfig::default().lambda;
    for a in &outcome.grants {
        for b in &outcome.grants {
            if a.bidder != b.bidder && a.channel == b.channel {
                assert!(
                    !locations[a.bidder.0].conflicts_with(&locations[b.bidder.0], lambda),
                    "bidders {} and {} share channel {}",
                    a.bidder.0,
                    b.bidder.0,
                    a.channel.0
                );
            }
        }
    }
    // All five remaining bidders conflict, so the highest bid takes the
    // channel alone.
    assert_eq!(outcome.grants.len(), 1);
    assert_eq!(outcome.grants[0].bidder.0, 0);
}

#[test]
fn forged_location_is_rejected_at_validation() {
    let (ttp, _, mut submissions, mut rng) = six_in_a_row();
    assert!(submissions.iter().all(|s| validate_submission(s, &ttp).is_ok()));
    assert_eq!(conflict_graph(&submissions).edge_count(), 15);

    forge_location(&mut submissions[FORGER], &mut rng);
    // What the forgery buys when nothing checks it: the forger's five
    // edges are gone.
    assert_eq!(conflict_graph(&submissions).edge_count(), 10);
    let err = validate_submission(&submissions[FORGER], &ttp).unwrap_err();
    assert!(matches!(err, LppaError::MalformedSubmission { .. }), "{err}");
    assert!(err.to_string().contains("location x point lies outside its own range"), "{err}");
}

#[test]
fn forger_is_quarantined_in_typed_and_framed_rounds() {
    let (ttp, locations, mut submissions, mut rng) = six_in_a_row();
    forge_location(&mut submissions[FORGER], &mut rng);
    let config = SessionConfig::default();
    let typed = AuctionSession::new(&ttp, config).run(&submissions, 11).unwrap();
    assert_forger_shut_out(&typed, &locations);
    let framed = run_wire_round(&ttp, config, &submissions, 11).unwrap();
    assert_forger_shut_out(&framed, &locations);
    assert_eq!(typed.fingerprint(), framed.fingerprint());
}
