//! Interrupted socket sessions resume to the byte-identical outcome of
//! the uninterrupted simulated run — the journal-replay determinism
//! gate, now crossing a real process-crash boundary.

use lppa::protocol::{build_submissions, SuSubmission};
use lppa::ttp::Ttp;
use lppa::zero_replace::ZeroReplacePolicy;
use lppa::LppaConfig;
use lppa_auction::bidder::Location;
use lppa_net::{
    resume_from_checkpoint, resume_socket_round, run_socket_round, run_socket_round_with_kill,
    AuctioneerCheckpoint, AuctioneerRun, KillPoint, NetConfig, NetError,
};
use lppa_rng::rngs::StdRng;
use lppa_rng::SeedableRng;
use lppa_session::{run_wire_round, FaultConfig, Journal, LocalTtp, SessionConfig, SessionOutcome};

fn setup(n_bidders: usize) -> (Ttp, Vec<SuSubmission>) {
    let mut rng = StdRng::seed_from_u64(99);
    let ttp = Ttp::new(2, LppaConfig::default(), &mut rng).unwrap();
    let policy = ZeroReplacePolicy::never(ttp.config().bid_max());
    let bidders: Vec<_> = (0..n_bidders)
        .map(|i| {
            let base = 10 + 13 * i as u32;
            (Location::new(base, base), vec![10 + i as u32, 30 - i as u32])
        })
        .collect();
    let submissions = build_submissions(&bidders, &ttp, &policy, &mut rng).unwrap();
    (ttp, submissions)
}

fn fast_net() -> NetConfig {
    NetConfig { backoff_ms: 5, backoff_cap_ms: 80, retries: 10, ..NetConfig::default() }
}

fn chaotic() -> SessionConfig {
    SessionConfig { faults: FaultConfig::chaotic(), min_accepted: 1, ..SessionConfig::default() }
}

#[test]
fn mid_collect_kill_reruns_to_the_simulated_fingerprint() {
    let (ttp, submissions) = setup(5);
    let config = chaotic();
    let reference = run_wire_round(&ttp, config, &submissions, 42).unwrap();

    let killed = run_socket_round_with_kill(
        &ttp,
        config,
        &submissions,
        42,
        &fast_net(),
        Some(KillPoint::MidCollect { tick: 2 }),
    )
    .unwrap();
    assert!(matches!(killed, AuctioneerRun::KilledInCollect), "got {killed:?}");

    // Nothing committed before the crash, so the documented recovery is
    // a rerun from the same seed — which must land exactly on the
    // uninterrupted simulated outcome.
    let rerun = run_socket_round(&ttp, config, &submissions, 42, &fast_net()).unwrap();
    assert_eq!(reference.fingerprint(), rerun.fingerprint());
    assert_eq!(reference.journal.fingerprint(), rerun.journal.fingerprint());
}

#[test]
fn mid_charge_kill_resumes_to_the_simulated_fingerprint() {
    let (ttp, submissions) = setup(5);
    let config = chaotic();
    let reference = run_wire_round(&ttp, config, &submissions, 42).unwrap();

    let killed = run_socket_round_with_kill(
        &ttp,
        config,
        &submissions,
        42,
        &fast_net(),
        Some(KillPoint::MidCharge { served: 1 }),
    )
    .unwrap();
    let AuctioneerRun::KilledInCharge(checkpoint) = killed else {
        panic!("expected a charge-phase checkpoint");
    };

    // The checkpoint resumes over a *fresh* TTP connection: the slot
    // answered before the crash is re-requested and the idempotent TTP
    // answers it identically.
    let resumed =
        resume_socket_round(&ttp, config, submissions.len(), &checkpoint, &fast_net()).unwrap();
    assert_eq!(reference.fingerprint(), resumed.fingerprint());
    assert_eq!(reference.journal.fingerprint(), resumed.journal.fingerprint());
}

#[test]
fn reliable_mid_charge_kill_resumes_too() {
    let (ttp, submissions) = setup(4);
    let config = SessionConfig::default();
    let reference = run_wire_round(&ttp, config, &submissions, 7).unwrap();
    let killed = run_socket_round_with_kill(
        &ttp,
        config,
        &submissions,
        7,
        &fast_net(),
        Some(KillPoint::MidCharge { served: 2 }),
    )
    .unwrap();
    let AuctioneerRun::KilledInCharge(checkpoint) = killed else {
        panic!("expected a charge-phase checkpoint");
    };
    let resumed =
        resume_socket_round(&ttp, config, submissions.len(), &checkpoint, &fast_net()).unwrap();
    assert_eq!(reference.fingerprint(), resumed.fingerprint());
}

/// The checkpoint a mid-charge kill of `outcome`'s round persists: the
/// journal through `CollectCommitted` plus the accepted submissions.
fn checkpoint_of(outcome: &SessionOutcome, submissions: &[SuSubmission]) -> AuctioneerCheckpoint {
    AuctioneerCheckpoint {
        journal: outcome.journal.prefix_through_collect().unwrap(),
        accepted: outcome.accepted.clone(),
        accepted_submissions: outcome.accepted.iter().map(|&i| submissions[i].clone()).collect(),
    }
}

#[test]
fn inconsistent_checkpoints_are_refused_with_a_typed_error() {
    let (ttp, submissions) = setup(5);
    let config = chaotic();
    let n = submissions.len();
    let reference = run_wire_round(&ttp, config, &submissions, 42).unwrap();
    let resume = |checkpoint: &AuctioneerCheckpoint| {
        resume_from_checkpoint(checkpoint, &config, n, LocalTtp(&ttp))
    };
    let consistent = checkpoint_of(&reference, &submissions);
    assert_eq!(resume(&consistent).unwrap().fingerprint(), reference.fingerprint());

    // Killed before collect committed: the journal holds no commitment.
    let mut uncommitted = checkpoint_of(&reference, &submissions);
    let entries = uncommitted.journal.entries();
    let mut journal = Journal::new();
    for entry in &entries[..entries.len() - 1] {
        journal.append(entry.clone());
    }
    uncommitted.journal = journal;
    // An accepted set that disagrees with the journal's.
    let mut altered = checkpoint_of(&reference, &submissions);
    altered.accepted[0] = n;
    // One accepted submission lost.
    let mut short = checkpoint_of(&reference, &submissions);
    short.accepted_submissions.pop();
    for (what, checkpoint) in
        [("uncommitted", uncommitted), ("altered accepted", altered), ("short", short)]
    {
        match resume(&checkpoint) {
            Err(NetError::Protocol(_)) => {}
            other => panic!("{what}: expected a protocol error, got {other:?}"),
        }
    }
}
