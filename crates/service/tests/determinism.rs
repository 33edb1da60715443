//! Integration tests for the service determinism contract: settled
//! outcomes are byte-identical across worker counts (and so shard
//! counts, one shard per worker), and equal to the unsharded sequential
//! reference.
//!
//! These are the in-tree mirror of the CI `load-smoke` gate (which
//! diffs outcome fingerprints across `LPPA_THREADS` at the process
//! level).

use lppa_service::{
    run_sequential, AreaOutcome, AuctionService, ServiceConfig, ServiceReport, WorkloadSpec,
};
use lppa_session::SessionConfig;

/// Drops the timing-only field so reports compare on decisions.
fn decisions(report: &ServiceReport) -> (Vec<AreaOutcome>, Vec<(u32, String)>, u64) {
    (
        report.areas.iter().map(|a| AreaOutcome { latency_ns: 0, ..a.clone() }).collect(),
        report.errors.clone(),
        report.fingerprint(),
    )
}

fn run_service(spec: &WorkloadSpec, threads: usize) -> ServiceReport {
    let config = ServiceConfig { threads, session: SessionConfig::default() };
    let mut service = AuctionService::new(config, spec.plans().expect("plans"));
    assert_eq!(service.worker_count(), threads);
    for bidder in spec.bidders() {
        service.submit(bidder).expect("submit");
    }
    service.drain()
}

#[test]
fn outcomes_are_identical_across_shard_and_thread_counts() {
    // The headline contract: every worker count settles every regional
    // auction identically. Each worker count is also the shard count,
    // so 1, 3 and 8 put 8, 2–3 and 1 areas on a shard. 8 areas × 120
    // bidders keeps this fast while exercising routing, arrival-time
    // masking and settling on uneven shards.
    let spec = WorkloadSpec::new(20260809, 8, 120, 2);
    let reference =
        run_sequential(SessionConfig::default(), spec.plans().unwrap(), &spec.bidders());
    assert_eq!(reference.areas.len(), 8, "errors: {:?}", reference.errors);
    let want = decisions(&reference);
    for threads in [1usize, 2, 3, 4, 8] {
        let got = decisions(&run_service(&spec, threads));
        assert_eq!(got, want, "service diverged from sequential reference at threads={threads}");
    }
}

#[test]
fn more_shards_than_areas_is_harmless() {
    let spec = WorkloadSpec::new(3, 2, 24, 2);
    let want = decisions(&run_sequential(
        SessionConfig::default(),
        spec.plans().unwrap(),
        &spec.bidders(),
    ));
    let got = decisions(&run_service(&spec, 16));
    assert_eq!(got, want);
}

#[test]
fn repeated_runs_are_bit_stable() {
    let spec = WorkloadSpec::new(424242, 4, 40, 2);
    let a = decisions(&run_service(&spec, 4));
    let b = decisions(&run_service(&spec, 4));
    assert_eq!(a, b);
    assert_eq!(a.2, b.2);
}
