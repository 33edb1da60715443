//! End-to-end chaos tests for the fault-tolerant session.
//!
//! The acceptance scenario: a seeded run with drop + duplication +
//! reordering + corruption and a TTP offline window must complete with
//! a valid conflict-free allocation, a non-empty quarantine report, a
//! byte-identical replay from the same seed, and zero panics.

use lppa::protocol::{build_submissions, SuSubmission};
use lppa::zero_replace::ZeroReplacePolicy;
use lppa::{LppaConfig, LppaError, Ttp};
use lppa_auction::bidder::{BidderId, Location};
use lppa_prefix::backend::BackendKind;
use lppa_rng::rngs::StdRng;
use lppa_rng::{Rng, SeedableRng};
use lppa_session::chaos::{forge_presented_bid, truncate_point};
use lppa_session::fault::FaultConfig;
use lppa_session::session::{AuctionSession, SessionConfig, SessionOutcome};
use lppa_session::ttp_link::{TtpLinkConfig, TtpSchedule};
use lppa_session::{run_wire_round, JournalEntry};

/// A TTP, a fleet of genuine submissions, and the RNG that built them.
fn fleet(n_bidders: usize, n_channels: usize, seed: u64) -> (Ttp, Vec<SuSubmission>, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let ttp = Ttp::new(n_channels, LppaConfig::default(), &mut rng).unwrap();
    let policy = ZeroReplacePolicy::never(ttp.config().bid_max());
    let bidders: Vec<(Location, Vec<u32>)> = (0..n_bidders)
        .map(|_| {
            let loc = Location::new(rng.gen_range(0..=127), rng.gen_range(0..=127));
            let bids = (0..n_channels).map(|_| rng.gen_range(1..=100)).collect();
            (loc, bids)
        })
        .collect();
    let submissions = build_submissions(&bidders, &ttp, &policy, &mut rng).unwrap();
    (ttp, submissions, rng)
}

/// Every structural invariant a settled session must satisfy.
fn check_invariants(outcome: &SessionOutcome, n_bidders: usize) {
    // Charged, invalidated and provisional grants partition the grants.
    assert_eq!(
        outcome.outcome.assignments().len()
            + outcome.invalid_grants.len()
            + outcome.provisional.len()
            + outcome
                .quarantine
                .iter()
                .filter(|(_, r)| {
                    matches!(r, lppa_session::QuarantineReason::ChargeFailed { .. })
                })
                .count(),
        outcome.grants.len()
    );
    // A bidder holds at most one channel and was accepted.
    let mut holders: Vec<usize> = outcome.grants.iter().map(|g| g.bidder.0).collect();
    holders.sort_unstable();
    let unique = holders.len();
    holders.dedup();
    assert_eq!(holders.len(), unique, "a bidder won two channels");
    for &bidder in &holders {
        assert!(bidder < n_bidders);
        assert!(outcome.accepted.contains(&bidder), "winner {bidder} was never accepted");
        assert!(
            !outcome.quarantine.contains(bidder)
                || matches!(
                    outcome.quarantine.get(bidder),
                    Some(lppa_session::QuarantineReason::ChargeFailed { .. })
                )
        );
    }
    // Same-channel winners are conflict-free (compact-id graph).
    let compact_of = |original: usize| -> usize {
        outcome.accepted.iter().position(|&i| i == original).unwrap()
    };
    let n_channels = outcome.grants.iter().map(|g| g.channel.0 + 1).max().unwrap_or(0);
    for ch in 0..n_channels {
        let same: Vec<BidderId> = outcome
            .grants
            .iter()
            .filter(|g| g.channel.0 == ch)
            .map(|g| BidderId(compact_of(g.bidder.0)))
            .collect();
        assert!(outcome.conflicts.is_independent(&same), "channel {ch} winners conflict");
    }
    // Accepted and quarantined bidders partition the fleet.
    for i in 0..n_bidders {
        assert_ne!(
            outcome.accepted.contains(&i),
            outcome.quarantine.contains(i)
                && !matches!(
                    outcome.quarantine.get(i),
                    Some(lppa_session::QuarantineReason::ChargeFailed { .. })
                ),
            "bidder {i} is neither accepted nor quarantined (or both)"
        );
    }
}

#[test]
fn clean_network_accepts_everyone_and_charges_everything() {
    let (ttp, submissions, _) = fleet(8, 3, 1);
    let session = AuctionSession::new(&ttp, SessionConfig::default());
    let outcome = session.run(&submissions, 99).unwrap();
    assert_eq!(outcome.accepted, (0..8).collect::<Vec<_>>());
    assert!(outcome.quarantine.is_empty());
    assert!(outcome.provisional.is_empty());
    assert!(outcome.invalid_grants.is_empty(), "no disguises in this fleet");
    assert!(!outcome.grants.is_empty());
    assert_eq!(outcome.outcome.assignments().len(), outcome.grants.len());
    assert!(outcome.revenue() > 0);
    check_invariants(&outcome, 8);
}

#[test]
fn acceptance_chaos_round_survives_and_replays_byte_identically() {
    // The ISSUE acceptance criterion in one test: drop + duplication +
    // reordering + corruption, a TTP offline window, a ragged sender
    // and a price manipulator.
    let (ttp, mut submissions, mut rng) = fleet(12, 3, 2);
    truncate_point(&mut submissions[3], 1, 2).unwrap();
    forge_presented_bid(&mut submissions[7], &ttp, 0, 110, &mut rng).unwrap();

    let config = SessionConfig {
        faults: FaultConfig {
            drop: 0.3,
            duplicate: 0.25,
            corrupt: 0.2,
            delay: 0.4,
            max_delay: 3,
            reorder: true,
        },
        collect_deadline: 24,
        retry_backoff: 2,
        max_retries: 5,
        // TTP offline through most of collect, then flapping windows.
        ttp_schedule: TtpSchedule { offline_until: 28, online: 2, offline: 4 },
        ttp_link: TtpLinkConfig { batch_size: 2, failure: 0.3, backoff: 1, max_batch_retries: 8 },
        charge_deadline: 64,
        ..SessionConfig::default()
    };
    let session = AuctionSession::new(&ttp, config);

    let a = session.run(&submissions, 1234).unwrap();
    check_invariants(&a, 12);
    assert!(
        !a.quarantine.is_empty(),
        "the ragged sender alone guarantees a quarantine entry:\n{}",
        a.quarantine
    );
    assert!(a.quarantine.contains(3), "ragged sender must be quarantined");
    assert!(!a.grants.is_empty(), "the round still allocates");
    assert!(a.stats.dropped > 0 && a.stats.duplicated > 0 && a.stats.corrupted > 0);

    // Byte-identical replay: same seed, same everything.
    let b = session.run(&submissions, 1234).unwrap();
    assert_eq!(a.fingerprint(), b.fingerprint());
    assert_eq!(a.journal, b.journal);
    assert_eq!(a.journal.to_string(), b.journal.to_string());
    assert_eq!(a.stats, b.stats);

    // A different seed draws a different chaos schedule.
    let c = session.run(&submissions, 1235).unwrap();
    check_invariants(&c, 12);
    assert_ne!(a.journal, c.journal, "different seed, different schedule");
}

#[test]
fn manipulated_price_is_struck_at_charge_time_only() {
    let (ttp, mut submissions, mut rng) = fleet(4, 1, 3);
    // Everyone at the same spot: one grant total. The forger presents
    // an unbeatable bid, wins, and is struck by the TTP.
    forge_presented_bid(&mut submissions[2], &ttp, 0, 120, &mut rng).unwrap();
    let session = AuctionSession::new(&ttp, SessionConfig::default());
    let outcome = session.run(&submissions, 7).unwrap();
    // The forger got through collect (structurally clean)...
    assert!(outcome.accepted.contains(&2));
    // ...but if it won, the charge was refused and it was quarantined.
    if outcome.grants.iter().any(|g| g.bidder.0 == 2) {
        assert!(matches!(
            outcome.quarantine.get(2),
            Some(lppa_session::QuarantineReason::ChargeFailed {
                cause: LppaError::ChargeManipulated
            })
        ));
        assert!(outcome.outcome.assignments().iter().all(|a| a.bidder.0 != 2));
    }
    check_invariants(&outcome, 4);
}

#[test]
fn full_drop_fails_quorum() {
    let (ttp, submissions, _) = fleet(5, 2, 4);
    let config = SessionConfig {
        faults: FaultConfig { drop: 1.0, ..FaultConfig::none() },
        min_accepted: 2,
        ..SessionConfig::default()
    };
    let err = AuctionSession::new(&ttp, config).run(&submissions, 11).unwrap_err();
    assert_eq!(err, LppaError::QuorumNotReached { accepted: 0, required: 2 });
}

#[test]
fn quorum_commits_with_partial_fleet() {
    let (ttp, submissions, _) = fleet(10, 2, 5);
    let config = SessionConfig {
        faults: FaultConfig { drop: 0.6, ..FaultConfig::none() },
        collect_deadline: 4,
        max_retries: 1,
        retry_backoff: 3,
        min_accepted: 2,
        ..SessionConfig::default()
    };
    let outcome = AuctionSession::new(&ttp, config).run(&submissions, 21).unwrap();
    assert!(outcome.accepted.len() >= 2);
    assert!(
        !outcome.quarantine.is_empty(),
        "with 45% drop and 2 attempts some bidder misses the deadline"
    );
    for (_, reason) in outcome.quarantine.iter() {
        assert!(matches!(reason, lppa_session::QuarantineReason::MissedDeadline { .. }));
    }
    check_invariants(&outcome, 10);
}

#[test]
fn offline_ttp_degrades_to_provisional_allocation() {
    let (ttp, submissions, _) = fleet(6, 2, 6);
    let config = SessionConfig {
        ttp_schedule: TtpSchedule::never_online(),
        charge_deadline: 10,
        ..SessionConfig::default()
    };
    let outcome = AuctionSession::new(&ttp, config).run(&submissions, 31).unwrap();
    assert!(outcome.outcome.assignments().is_empty(), "nothing charged");
    assert_eq!(outcome.provisional.len(), outcome.grants.len());
    assert!(!outcome.provisional.is_empty());
    assert_eq!(outcome.revenue(), 0);
    assert!(outcome
        .journal
        .entries()
        .iter()
        .any(|e| matches!(e, lppa_session::JournalEntry::ChargesDeferred { .. })));
    check_invariants(&outcome, 6);
}

#[test]
fn interrupted_session_resumes_to_the_identical_outcome() {
    let (ttp, mut submissions, mut rng) = fleet(9, 3, 7);
    truncate_point(&mut submissions[4], 0, 3).unwrap();
    forge_presented_bid(&mut submissions[1], &ttp, 1, 115, &mut rng).unwrap();
    let config = SessionConfig {
        faults: FaultConfig::chaotic(),
        collect_deadline: 20,
        max_retries: 6,
        ttp_schedule: TtpSchedule { offline_until: 24, online: 3, offline: 3 },
        ttp_link: TtpLinkConfig { batch_size: 2, failure: 0.25, backoff: 1, max_batch_retries: 8 },
        charge_deadline: 48,
        ..SessionConfig::default()
    };
    let session = AuctionSession::new(&ttp, config);
    let original = session.run(&submissions, 555).unwrap();

    // Crash after collect committed: all that survives is the journal.
    let salvaged = original.journal.prefix_through_collect().unwrap();
    let recovered = session.resume(&submissions, &salvaged).unwrap();

    assert_eq!(original.fingerprint(), recovered.fingerprint());
    assert_eq!(original.journal, recovered.journal);
    assert_eq!(original.accepted, recovered.accepted);
    assert_eq!(original.outcome.assignments(), recovered.outcome.assignments());
    assert_eq!(original.quarantine.fingerprint(), recovered.quarantine.fingerprint());

    // Resuming the *full* journal also works (idempotent recovery).
    let again = session.resume(&submissions, &original.journal).unwrap();
    assert_eq!(original.fingerprint(), again.fingerprint());

    // A journal that never committed cannot be resumed.
    assert!(matches!(
        session.resume(&submissions, &lppa_session::Journal::new()),
        Err(LppaError::Internal { .. })
    ));
}

#[test]
fn resume_refuses_a_commit_naming_an_unknown_bidder() {
    let (ttp, submissions, _) = fleet(6, 2, 9);
    let session = AuctionSession::new(&ttp, SessionConfig::default());
    let original = session.run(&submissions, 3).unwrap();
    let mut forged = lppa_session::Journal::new();
    for entry in original.journal.prefix_through_collect().unwrap().entries() {
        let mut entry = entry.clone();
        if let JournalEntry::CollectCommitted { accepted, .. } = &mut entry {
            accepted.push(submissions.len());
        }
        forged.append(entry);
    }
    assert!(matches!(session.resume(&submissions, &forged), Err(LppaError::Internal { .. })));
}

#[test]
fn fault_matrix_never_panics_and_keeps_invariants() {
    let (ttp, submissions, _) = fleet(7, 2, 8);
    let profiles = [
        FaultConfig::none(),
        FaultConfig { drop: 0.5, ..FaultConfig::none() },
        FaultConfig { duplicate: 0.8, reorder: true, ..FaultConfig::none() },
        FaultConfig { corrupt: 0.6, ..FaultConfig::none() },
        FaultConfig { delay: 0.9, max_delay: 6, reorder: true, ..FaultConfig::none() },
        FaultConfig::chaotic(),
    ];
    let schedules = [
        TtpSchedule::always_online(),
        TtpSchedule { offline_until: 30, online: 1, offline: 7 },
        TtpSchedule::never_online(),
    ];
    for (p, faults) in profiles.into_iter().enumerate() {
        for (s, ttp_schedule) in schedules.into_iter().enumerate() {
            for seed in 0..3u64 {
                let config = SessionConfig {
                    faults,
                    ttp_schedule,
                    charge_deadline: 40,
                    ..SessionConfig::default()
                };
                match AuctionSession::new(&ttp, config).run(&submissions, seed) {
                    Ok(outcome) => check_invariants(&outcome, 7),
                    Err(LppaError::QuorumNotReached { .. }) => {}
                    Err(other) => panic!("profile {p}/schedule {s}/seed {seed}: {other}"),
                }
            }
        }
    }
}

/// The lossy profile and fleet the golden pins below run: every link
/// fault at once, a TTP that flaps through the charge phase, a ragged
/// sender (bidder 3) and a forged price (bidder 7).
fn pinned_round() -> (Ttp, Vec<SuSubmission>, SessionConfig) {
    let (ttp, mut submissions, mut rng) = fleet(12, 3, 2);
    truncate_point(&mut submissions[3], 1, 2).unwrap();
    forge_presented_bid(&mut submissions[7], &ttp, 0, 110, &mut rng).unwrap();
    let config = SessionConfig {
        faults: FaultConfig {
            drop: 0.3,
            duplicate: 0.25,
            corrupt: 0.2,
            delay: 0.4,
            max_delay: 3,
            reorder: true,
        },
        collect_deadline: 24,
        retry_backoff: 2,
        max_retries: 5,
        ttp_schedule: TtpSchedule { offline_until: 28, online: 2, offline: 4 },
        ttp_link: TtpLinkConfig { batch_size: 2, failure: 0.3, backoff: 1, max_batch_retries: 8 },
        charge_deadline: 64,
        backend: BackendKind::Hmac,
        ..SessionConfig::default()
    };
    (ttp, submissions, config)
}

/// What a pinned round must reproduce: the outcome fingerprint, the
/// journal fingerprint and the link counters (sent, delivered, dropped,
/// duplicated, corrupted, delayed).
type Pin = (u64, u64, [u64; 6]);

fn pin(outcome: &SessionOutcome) -> Pin {
    let s = outcome.stats;
    let link = [s.sent, s.delivered, s.dropped, s.duplicated, s.corrupted, s.delayed];
    (outcome.fingerprint(), outcome.journal.fingerprint(), link)
}

/// Golden values for the typed round ([`AuctionSession::run`]) over the
/// pinned lossy round. Replaying a run only shows that a change moved
/// both runs alike; these show that it moved nothing.
#[test]
fn typed_round_matches_its_golden_values() {
    let (ttp, submissions, config) = pinned_round();
    let session = AuctionSession::new(&ttp, config);
    let golden: [(u64, Pin); 4] = [
        (1234, (0x85c8_57de_a966_0bab, 0x977e_3928_7983_0cce, [27, 22, 9, 4, 8, 8])),
        (20260807, (0xc1e7_3892_9e87_db94, 0x9478_2655_0aa9_3eb7, [25, 19, 10, 4, 6, 6])),
        (424242, (0xd372_347b_1cf4_ac08, 0x2836_146b_e40c_9fc8, [18, 19, 3, 4, 3, 9])),
        (7, (0x343b_9d84_21f9_7d51, 0x8560_e963_e15c_0ae7, [26, 17, 11, 2, 3, 4])),
    ];
    for (seed, want) in golden {
        let got = pin(&session.run(&submissions, seed).unwrap());
        assert_eq!(got, want, "seed {seed}");
    }
}

/// Golden values for the framed round ([`run_wire_round`]) over the
/// pinned lossy round.
#[test]
fn framed_round_matches_its_golden_values() {
    let (ttp, submissions, config) = pinned_round();
    let golden: [(u64, Pin); 4] = [
        (1234, (0xd858_5d45_0a54_eaca, 0x4f9b_ef41_8071_33f9, [22, 21, 5, 4, 6, 8])),
        (20260807, (0x1e29_090c_2c97_22a3, 0xe0a5_dc9b_1443_4a1b, [23, 20, 8, 5, 7, 8])),
        (424242, (0xd372_347b_1cf4_ac08, 0xc6ce_ebbe_44dd_90e2, [22, 21, 6, 5, 4, 10])),
        (7, (0xfe0a_6aea_9b87_858f, 0x24d9_9d0c_66fb_4096, [27, 18, 13, 4, 3, 5])),
    ];
    for (seed, want) in golden {
        let got = pin(&run_wire_round(&ttp, config, &submissions, seed).unwrap());
        assert_eq!(got, want, "seed {seed}");
    }
}
