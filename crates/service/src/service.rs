//! The sharded multi-auction service.
//!
//! An [`AuctionService`] drives many concurrent `lppa-session` rounds —
//! one per regional auction (area). Areas are grouped into **shards**
//! ([`crate::shard`]), and each shard is one `std` thread that owns its
//! open [`AreaState`]s outright: no lock guards them and no other
//! thread touches them. A shard's areas form a serial lane while
//! distinct shards proceed in parallel, and each area's round runs on
//! the one thread that owns it.
//!
//! The life of a round:
//!
//! 1. [`AuctionService::submit`] checks the area on the calling thread
//!    (unknown and full areas are refused there) and sends the bidder
//!    to its shard's inbox, an `mpsc` channel.
//! 2. The shard's thread routes every bidder queued in its inbox, then
//!    masks the routed bidders area by area whenever the inbox runs
//!    dry. Once an area's last expected bidder is routed and masked,
//!    the thread settles the whole round (Announce → Collect → Allocate
//!    → Charge → Settle) before it goes on, while other shards keep
//!    going.
//! 3. [`AuctionService::drain`] closes the inboxes: each thread settles
//!    whatever is still open and hands back its outcomes through
//!    `join`, and the results are assembled into a [`ServiceReport`] in
//!    area-id order.
//!
//! **Determinism.** Every outcome bit derives from `(plans, arrival
//! order)` alone: seeds are fixed per area at plan time and per bidder
//! at route time, each shard reads its inbox in submission order, and
//! report assembly sorts by area id. The thread (and so shard) count
//! affects only timing, which is why [`run_sequential`] (no threads, no
//! shards) must and does produce byte-identical outcomes; the
//! differential oracle and the CI `load-smoke` job both hold the service
//! to that.

use std::collections::{BTreeMap, BTreeSet};
use std::panic;
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::JoinHandle;

use lppa::LppaError;
use lppa_session::{AuctionSession, SessionConfig, SessionOutcome};

use crate::admission::{AreaState, BidderInput};
use crate::metrics::{LatencyRecorder, LatencySummary};
use crate::shard::shard_of;
use crate::workload::AreaPlan;

/// Configuration for an [`AuctionService`].
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Worker threads, one shard each (clamped to
    /// `[1, MAX_WORKERS]`). Defaults to `LPPA_THREADS`, else the
    /// machine's available parallelism.
    pub threads: usize,
    /// Per-area session (state machine) configuration.
    pub session: SessionConfig,
}

impl ServiceConfig {
    /// Configuration from the environment (`LPPA_THREADS`) with default
    /// session settings.
    pub fn from_env() -> Self {
        Self { threads: lppa_par::thread_count(), session: SessionConfig::default() }
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self::from_env()
    }
}

/// One settled regional auction, reduced to its report line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AreaOutcome {
    /// Area id.
    pub area: u32,
    /// Bidders routed into the area.
    pub bidders: usize,
    /// Submissions the auctioneer accepted.
    pub accepted: usize,
    /// Charged channel assignments.
    pub assignments: usize,
    /// Total revenue across the area's assignments.
    pub revenue: u64,
    /// The session's decision fingerprint
    /// ([`SessionOutcome::fingerprint`]).
    pub fingerprint: u64,
    /// Latency from routing the area's last bidder to settling it.
    /// Timing-only: excluded from every fingerprint and equality below
    /// is on decisions, not clocks.
    pub latency_ns: u64,
}

/// Aggregated results of a service run, assembled in area-id order.
#[derive(Clone, Debug, Default)]
pub struct ServiceReport {
    /// Per-area outcomes, sorted by area id.
    pub areas: Vec<AreaOutcome>,
    /// Areas whose round failed, with the error text; sorted by area
    /// id. (A quorum failure is a result, not a crash.)
    pub errors: Vec<(u32, String)>,
    /// Ready-to-settled latency distribution across areas.
    pub latency: LatencySummary,
}

impl ServiceReport {
    /// Folds every area's decision fingerprint (and id) into one
    /// digest. Two runs with equal fingerprints settled every regional
    /// auction identically.
    pub fn fingerprint(&self) -> u64 {
        let mut acc = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |value: u64| {
            acc = (acc ^ value).wrapping_mul(0x0000_0100_0000_01b3);
        };
        for area in &self.areas {
            eat(u64::from(area.area));
            eat(area.fingerprint);
        }
        for (area, _) in &self.errors {
            eat(u64::from(*area));
            eat(u64::MAX);
        }
        acc
    }

    /// Total revenue across all settled areas.
    pub fn total_revenue(&self) -> u64 {
        self.areas.iter().map(|a| a.revenue).sum()
    }

    /// Total charged assignments across all settled areas.
    pub fn total_assignments(&self) -> usize {
        self.areas.iter().map(|a| a.assignments).sum()
    }

    /// Total bidders routed across all settled areas.
    pub fn total_bidders(&self) -> usize {
        self.areas.iter().map(|a| a.bidders).sum()
    }
}

/// What one shard settled: its areas' outcomes, failures and latency
/// samples, merged into the [`ServiceReport`] at assembly.
#[derive(Debug, Default)]
struct Settled {
    /// Settled outcomes, in settling order (sorted at assembly).
    areas: Vec<AreaOutcome>,
    /// Failed areas, in settling order.
    errors: Vec<(u32, String)>,
    latency: LatencyRecorder,
}

impl Settled {
    /// Records one area's round, or its failure.
    fn record(&mut self, state: &AreaState, round: Result<SessionOutcome, LppaError>) {
        match round {
            Ok(outcome) => {
                let latency_ns = state
                    .ready_at
                    .map_or(0, |t| t.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
                self.latency.record(latency_ns);
                self.areas.push(AreaOutcome {
                    area: state.area,
                    bidders: state.routed(),
                    accepted: outcome.accepted.len(),
                    assignments: outcome.outcome.assignments().len(),
                    revenue: outcome.revenue(),
                    fingerprint: outcome.fingerprint(),
                    latency_ns,
                });
            }
            Err(err) => self.errors.push((state.area, err.to_string())),
        }
    }

    /// Masks whatever `state` still buffers, runs its session round
    /// from the area's derived seed and records the result.
    fn settle(&mut self, mut state: AreaState, session: &SessionConfig) {
        let round = state.flush_all().and_then(|()| {
            AuctionSession::new(&state.ttp, *session).run(state.submissions(), state.session_seed)
        });
        self.record(&state, round);
    }
}

/// Merges per-shard results into one report in area-id order, so the
/// shard topology cannot leak into it.
fn assemble(shards: impl IntoIterator<Item = Settled>) -> ServiceReport {
    let mut report = ServiceReport::default();
    let mut latency = LatencyRecorder::new();
    for mut shard in shards {
        report.areas.append(&mut shard.areas);
        report.errors.append(&mut shard.errors);
        latency.merge(&shard.latency);
    }
    report.areas.sort_by_key(|a| a.area);
    report.errors.sort_by_key(|(area, _)| *area);
    report.latency = latency.summary();
    report
}

/// One shard's thread: routes every bidder queued in `inbox`, then,
/// whenever the inbox runs dry, masks each area's routed bidders area by
/// area (one area's key and scratch at a time) and settles every area
/// whose last expected bidder is in. Once the inbox closes it settles
/// whatever is still open.
fn run_shard(
    mut areas: BTreeMap<u32, AreaState>,
    inbox: Receiver<BidderInput>,
    session: SessionConfig,
) -> Settled {
    let mut settled = Settled::default();
    let mut unmasked = BTreeSet::new();
    while let Ok(first) = inbox.recv() {
        for bidder in std::iter::once(first).chain(inbox.try_iter()) {
            // `submit` sends only bidders for open areas with room left,
            // so a miss is an area that already failed to mask a bidder.
            let Some(state) = areas.get_mut(&bidder.area) else { continue };
            state.route(bidder.location, bidder.bids);
            unmasked.insert(bidder.area);
        }
        for area in std::mem::take(&mut unmasked) {
            let state = areas.get_mut(&area).expect("an area with routed bidders is open");
            match state.flush_all() {
                Ok(()) if !state.is_ready() => {}
                Ok(()) => settled.settle(areas.remove(&area).expect("area is open"), &session),
                Err(err) => {
                    let state = areas.remove(&area).expect("area is open");
                    settled.record(&state, Err(err));
                }
            }
        }
    }
    for state in areas.into_values() {
        settled.settle(state, &session);
    }
    settled
}

/// A fresh area for `plan`.
fn area_state(plan: AreaPlan) -> AreaState {
    AreaState::new(
        plan.area,
        plan.ttp,
        plan.policy,
        plan.expected,
        plan.seeds.admission,
        plan.seeds.session,
    )
}

/// The sharded multi-auction service. See the module docs for the
/// round lifecycle and determinism contract.
///
/// Dropping a service without [`drain`](Self::drain) still joins its
/// shard threads, which settle every open area first; the results are
/// discarded.
pub struct AuctionService {
    /// One inbox per shard thread.
    inboxes: Vec<Sender<BidderInput>>,
    workers: Vec<JoinHandle<Settled>>,
    /// Bidders each area may still receive.
    remaining: BTreeMap<u32, usize>,
}

impl AuctionService {
    /// Opens a service over `plans`, one regional auction per plan,
    /// and starts one thread per shard.
    pub fn new(config: ServiceConfig, plans: Vec<AreaPlan>) -> Self {
        let n_shards = config.threads.clamp(1, lppa_par::MAX_WORKERS);
        let mut remaining = BTreeMap::new();
        let mut shards: Vec<BTreeMap<u32, AreaState>> =
            (0..n_shards).map(|_| BTreeMap::new()).collect();
        for plan in plans {
            remaining.insert(plan.area, plan.expected);
            shards[shard_of(plan.area, n_shards)].insert(plan.area, area_state(plan));
        }
        let (inboxes, workers) = shards
            .into_iter()
            .enumerate()
            .map(|(i, areas)| {
                let (tx, rx) = mpsc::channel();
                let session = config.session;
                let worker = std::thread::Builder::new()
                    .name(format!("lppa-shard-{i}"))
                    .spawn(move || run_shard(areas, rx, session))
                    .expect("spawn shard thread");
                (tx, worker)
            })
            .unzip();
        Self { inboxes, workers, remaining }
    }

    /// Service with environment-derived configuration.
    pub fn from_env(plans: Vec<AreaPlan>) -> Self {
        Self::new(ServiceConfig::from_env(), plans)
    }

    /// Number of shard threads.
    pub fn worker_count(&self) -> usize {
        self.inboxes.len()
    }

    /// Sends one bidder to its area's shard, where it is routed (and
    /// given its seed, in arrival order) and masked.
    ///
    /// # Errors
    ///
    /// [`LppaError::Internal`] if the bidder targets an unknown area or
    /// one that has already received every bidder it expects; no shard
    /// sees a refused bidder.
    ///
    /// # Panics
    ///
    /// If the area's shard thread died settling a round.
    pub fn submit(&mut self, bidder: BidderInput) -> Result<(), LppaError> {
        let area = bidder.area;
        let Some(remaining) = self.remaining.get_mut(&area) else {
            return Err(LppaError::Internal { what: format!("submit to unknown area {area}") });
        };
        if *remaining == 0 {
            return Err(LppaError::Internal {
                what: format!("submit to full area {area}: every expected bidder has arrived"),
            });
        }
        *remaining -= 1;
        let shard = shard_of(area, self.inboxes.len());
        self.inboxes[shard]
            .send(bidder)
            .expect("a shard thread reads its inbox until drain unless a round panicked");
        Ok(())
    }

    /// Closes admission, waits for every shard to settle what is still
    /// open (under-subscribed areas settle with the bidders they have)
    /// and assembles the report.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of a shard thread that died settling a round.
    pub fn drain(mut self) -> ServiceReport {
        self.inboxes.clear();
        let shards: Vec<Settled> = self
            .workers
            .drain(..)
            .map(|worker| worker.join().unwrap_or_else(|panic| panic::resume_unwind(panic)))
            .collect();
        assemble(shards)
    }
}

impl Drop for AuctionService {
    fn drop(&mut self) {
        self.inboxes.clear();
        for worker in self.workers.drain(..) {
            // A shard thread's panic has already been reported by its
            // own panic hook; re-raising it here could abort.
            let _ = worker.join();
        }
    }
}

/// The unsharded reference: routes and settles every area on the
/// calling thread, one area at a time in area-id order, through the
/// **same** admission and session code path as the service.
///
/// This is the determinism oracle's baseline — the service must match
/// its outcomes bit for bit under every `LPPA_THREADS` setting.
pub fn run_sequential(
    session: SessionConfig,
    plans: Vec<AreaPlan>,
    bidders: &[BidderInput],
) -> ServiceReport {
    let mut areas: BTreeMap<u32, AreaState> =
        plans.into_iter().map(|plan| (plan.area, area_state(plan))).collect();
    for bidder in bidders {
        // Bidders past an area's expected count are refused by
        // `AuctionService::submit`, so they are skipped here too.
        if let Some(state) = areas.get_mut(&bidder.area).filter(|s| s.routed() < s.expected) {
            state.route(bidder.location, bidder.bids.clone());
        }
    }
    let mut settled = Settled::default();
    for state in areas.into_values() {
        settled.settle(state, &session);
    }
    assemble([settled])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadSpec;

    fn strip_timing(report: &ServiceReport) -> Vec<AreaOutcome> {
        report.areas.iter().map(|a| AreaOutcome { latency_ns: 0, ..a.clone() }).collect()
    }

    #[test]
    fn service_matches_sequential_reference() {
        let spec = WorkloadSpec::new(20260809, 6, 90, 2);
        let bidders = spec.bidders();
        let config = ServiceConfig { threads: 3, session: SessionConfig::default() };
        let mut service = AuctionService::new(config, spec.plans().unwrap());
        for b in &bidders {
            service.submit(b.clone()).unwrap();
        }
        let sharded = service.drain();
        let reference = run_sequential(config.session, spec.plans().unwrap(), &bidders);
        assert_eq!(strip_timing(&sharded), strip_timing(&reference));
        assert_eq!(sharded.fingerprint(), reference.fingerprint());
        assert_eq!(sharded.areas.len(), 6);
        assert_eq!(sharded.total_bidders(), 90);
        assert!(sharded.errors.is_empty(), "{:?}", sharded.errors);
    }

    #[test]
    fn submit_to_unknown_area_is_an_error() {
        let spec = WorkloadSpec::new(5, 2, 8, 2);
        let mut stream = spec.bidders();
        // One bidder more than area 0 expects, sent after the whole
        // stream: refused whether or not area 0 has settled yet.
        let extra = stream[0].clone();
        for threads in [1, 2, 4] {
            let config = ServiceConfig { threads, session: SessionConfig::default() };
            let mut service = AuctionService::new(config, spec.plans().unwrap());
            for b in &stream {
                service.submit(b.clone()).unwrap();
            }
            let mut stray = extra.clone();
            stray.area = 99;
            assert!(service.submit(stray).is_err());
            assert!(service.submit(extra.clone()).is_err(), "threads={threads}");
            let report = service.drain();
            assert_eq!(report.areas.len(), 2, "errors: {:?}", report.errors);

            // The reference skips the same bidder.
            stream.push(extra.clone());
            let reference = run_sequential(config.session, spec.plans().unwrap(), &stream);
            stream.pop();
            assert_eq!(strip_timing(&report), strip_timing(&reference), "threads={threads}");
            assert_eq!(report.fingerprint(), reference.fingerprint());
        }
    }

    #[test]
    fn drain_settles_undersubscribed_areas() {
        // Route only half the expected bidders: drain must still settle
        // every area rather than hang waiting for admission.
        let spec = WorkloadSpec::new(11, 4, 48, 2);
        let mut service = AuctionService::new(
            ServiceConfig { threads: 2, session: SessionConfig::default() },
            spec.plans().unwrap(),
        );
        let bidders = spec.bidders();
        for b in &bidders[..24] {
            service.submit(b.clone()).unwrap();
        }
        let report = service.drain();
        assert_eq!(report.areas.len() + report.errors.len(), 4);
        assert_eq!(report.total_bidders(), 24);

        // And the sequential reference agrees even on partial streams.
        let reference =
            run_sequential(SessionConfig::default(), spec.plans().unwrap(), &bidders[..24]);
        assert_eq!(strip_timing(&report), strip_timing(&reference));
        assert_eq!(report.errors, reference.errors);
    }

    #[test]
    fn report_fingerprint_moves_with_decisions() {
        let spec_a = WorkloadSpec::new(1, 3, 30, 2);
        let spec_b = WorkloadSpec::new(2, 3, 30, 2);
        let a =
            run_sequential(SessionConfig::default(), spec_a.plans().unwrap(), &spec_a.bidders());
        let b =
            run_sequential(SessionConfig::default(), spec_b.plans().unwrap(), &spec_b.bidders());
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
