//! The sharded multi-auction service.
//!
//! An [`AuctionService`] drives many concurrent `lppa-session` rounds —
//! one per regional auction (area) — over the persistent work-stealing
//! [`Executor`] from `lppa-par`. Areas are grouped into **shards**
//! ([`crate::shard`]), one per executor worker; each shard's state sits
//! behind one mutex and all tasks touching it are spawned with that
//! shard's affinity, so a shard's areas form a serial lane while
//! distinct shards proceed in parallel (work stealing keeps idle
//! workers busy when shards are uneven). Each area's round runs on the
//! one worker that settles it.
//!
//! The life of a round:
//!
//! 1. [`AuctionService::submit`] routes each arriving bidder to its
//!    area's shard and buffers it (admission batching,
//!    [`crate::admission`]). Whenever eight bidders are buffered, a
//!    flush task is spawned so masking overlaps with routing.
//! 2. When an area's last expected bidder arrives, a run task settles
//!    the whole round (final flush → Announce → Collect → Allocate →
//!    Charge → Settle) while later bidders keep streaming into other
//!    areas.
//! 3. [`AuctionService::drain`] closes admission: remaining areas are
//!    force-settled in epoch waves ([`Executor::wait_idle`] barriers)
//!    and the per-shard results are assembled into a [`ServiceReport`]
//!    in area-id order.
//!
//! **Determinism.** Every outcome bit derives from `(plans, arrival
//! order)` alone: seeds are fixed per area at plan time and per bidder
//! at route time, and report assembly sorts by area id. The executor's
//! scheduling — worker (and so shard) count, stealing — affects only
//! timing, which is why [`run_sequential`] (no executor, no shards)
//! must and does produce byte-identical outcomes; the differential
//! oracle and the CI `load-smoke` job both hold the service to that.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use lppa::LppaError;
use lppa_par::Executor;
use lppa_session::{AuctionSession, SessionConfig, SessionOutcome};

use crate::admission::{AreaState, BidderInput};
use crate::metrics::{LatencyRecorder, LatencySummary};
use crate::shard::shard_of;
use crate::workload::AreaPlan;

/// Bidders an area buffers before a flush task masks them. It sets only
/// how often masking interleaves with routing; outcomes never depend on
/// it.
const FLUSH_CHUNK: usize = 8;

/// Configuration for an [`AuctionService`].
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Executor worker threads, one shard each. Defaults to
    /// `LPPA_THREADS`, else the machine's available parallelism.
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
    /// Ready-to-settled latency. Timing-only: excluded from every
    /// fingerprint and equality below is on decisions, not clocks.
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

/// Mutable state owned by one shard, behind the shard lock.
#[derive(Debug, Default)]
struct ShardState {
    /// Open areas, keyed by area id.
    areas: BTreeMap<u32, AreaState>,
    /// Settled outcomes, in completion order (sorted at assembly).
    outcomes: Vec<AreaOutcome>,
    /// Failed areas, in completion order.
    errors: Vec<(u32, String)>,
    /// Per-shard latency samples, merged at assembly.
    latency: LatencyRecorder,
}

/// State shared between the submitting thread and executor tasks.
struct Inner {
    shards: Vec<Mutex<ShardState>>,
    session: SessionConfig,
}

impl Inner {
    /// Flushes one admission chunk of `area` if it still has one
    /// buffered (a ready-run may have raced ahead — then this is a
    /// no-op).
    fn flush_area_chunk(&self, shard: usize, area: u32) {
        let mut guard = self.shards[shard].lock().unwrap();
        if let Some(state) = guard.areas.get_mut(&area) {
            if let Err(err) = state.flush(FLUSH_CHUNK) {
                let failed = guard.areas.remove(&area).expect("area present");
                guard.errors.push((failed.area, err.to_string()));
            }
        }
    }

    /// Removes `area` from its shard and settles its round end to end.
    fn run_area(&self, shard: usize, area: u32) {
        let state = { self.shards[shard].lock().unwrap().areas.remove(&area) };
        let Some(mut state) = state else { return };
        let result = settle(&mut state, &self.session);
        let latency_ns =
            state.ready_at.map(|t| t.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
        let mut guard = self.shards[shard].lock().unwrap();
        match result {
            Ok(outcome) => {
                let out = area_outcome(&state, &outcome, latency_ns.unwrap_or(0));
                guard.latency.record(out.latency_ns);
                guard.outcomes.push(out);
            }
            Err(err) => guard.errors.push((state.area, err.to_string())),
        }
    }
}

/// Runs one area's remaining pipeline: final flush, then the full
/// session state machine from the area's derived seed.
fn settle(state: &mut AreaState, session: &SessionConfig) -> Result<SessionOutcome, LppaError> {
    state.flush_all()?;
    AuctionSession::new(&state.ttp, *session).run(state.submissions(), state.session_seed)
}

/// Reduces a settled session to its report line.
fn area_outcome(state: &AreaState, outcome: &SessionOutcome, latency_ns: u64) -> AreaOutcome {
    AreaOutcome {
        area: state.area,
        bidders: state.routed(),
        accepted: outcome.accepted.len(),
        assignments: outcome.outcome.assignments().len(),
        revenue: outcome.revenue(),
        fingerprint: outcome.fingerprint(),
        latency_ns,
    }
}

/// The sharded multi-auction service. See the module docs for the
/// round lifecycle and determinism contract.
pub struct AuctionService {
    exec: Executor,
    inner: Arc<Inner>,
}

impl AuctionService {
    /// Opens a service over `plans`, one regional auction per plan,
    /// with one shard per executor worker.
    pub fn new(config: ServiceConfig, plans: Vec<AreaPlan>) -> Self {
        let exec = Executor::new(config.threads);
        let n_shards = exec.worker_count();
        let mut shards: Vec<ShardState> = (0..n_shards).map(|_| ShardState::default()).collect();
        for plan in plans {
            let shard = shard_of(plan.area, n_shards);
            shards[shard].areas.insert(
                plan.area,
                AreaState::new(
                    plan.area,
                    plan.ttp,
                    plan.policy,
                    plan.expected,
                    plan.seeds.admission,
                    plan.seeds.session,
                ),
            );
        }
        Self {
            exec,
            inner: Arc::new(Inner {
                shards: shards.into_iter().map(Mutex::new).collect(),
                session: config.session,
            }),
        }
    }

    /// Service with environment-derived configuration.
    pub fn from_env(plans: Vec<AreaPlan>) -> Self {
        Self::new(ServiceConfig::from_env(), plans)
    }

    /// Number of executor workers, which is also the number of shards.
    pub fn worker_count(&self) -> usize {
        self.exec.worker_count()
    }

    /// Routes one bidder to its area. Seeds are assigned here, in
    /// arrival order; background flush/settle tasks are spawned as
    /// chunks fill and areas complete.
    ///
    /// # Errors
    ///
    /// [`LppaError::Internal`] if the bidder targets an unknown or
    /// already-settled area.
    pub fn submit(&self, bidder: BidderInput) -> Result<(), LppaError> {
        let shard = shard_of(bidder.area, self.inner.shards.len());
        let (flush, ready) = {
            let mut guard = self.inner.shards[shard].lock().unwrap();
            let Some(state) = guard.areas.get_mut(&bidder.area) else {
                return Err(LppaError::Internal {
                    what: format!("submit to unknown or settled area {}", bidder.area),
                });
            };
            let ready = state.route(bidder.location, bidder.bids);
            (!ready && state.flushable(FLUSH_CHUNK), ready)
        };
        if ready {
            let inner = Arc::clone(&self.inner);
            let area = bidder.area;
            self.exec.spawn_on(shard, move || inner.run_area(shard, area));
        } else if flush {
            let inner = Arc::clone(&self.inner);
            let area = bidder.area;
            self.exec.spawn_on(shard, move || inner.flush_area_chunk(shard, area));
        }
        Ok(())
    }

    /// Closes admission and settles everything still open, then
    /// assembles the report.
    ///
    /// Runs as an epoch loop: each epoch spawns one tick task per shard
    /// (settling every area still open on it) and waits on the
    /// executor's idle barrier; the loop ends on the first epoch with
    /// nothing left to do. Under-subscribed areas are settled with the
    /// bidders they have.
    pub fn drain(self) -> ServiceReport {
        loop {
            // In-flight flush tasks may still create work; the barrier
            // plus re-check makes the loop quiesce deterministically.
            self.exec.wait_idle();
            let mut any = false;
            for shard in 0..self.inner.shards.len() {
                let open: Vec<u32> =
                    self.inner.shards[shard].lock().unwrap().areas.keys().copied().collect();
                if open.is_empty() {
                    continue;
                }
                any = true;
                let inner = Arc::clone(&self.inner);
                self.exec.spawn_on(shard, move || {
                    for area in open {
                        inner.run_area(shard, area);
                    }
                });
            }
            self.exec.wait_idle();
            if !any {
                break;
            }
        }
        self.exec.shutdown();
        let mut report = ServiceReport::default();
        let mut latency = LatencyRecorder::new();
        for shard in &self.inner.shards {
            let mut guard = shard.lock().unwrap();
            report.areas.append(&mut guard.outcomes);
            report.errors.append(&mut guard.errors);
            latency.merge(&guard.latency);
        }
        report.areas.sort_by_key(|a| a.area);
        report.errors.sort_by_key(|(area, _)| *area);
        report.latency = latency.summary();
        report
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
    let mut areas: BTreeMap<u32, AreaState> = plans
        .into_iter()
        .map(|p| {
            (
                p.area,
                AreaState::new(
                    p.area,
                    p.ttp,
                    p.policy,
                    p.expected,
                    p.seeds.admission,
                    p.seeds.session,
                ),
            )
        })
        .collect();
    for bidder in bidders {
        if let Some(state) = areas.get_mut(&bidder.area) {
            state.route(bidder.location, bidder.bids.clone());
        }
    }
    let mut report = ServiceReport::default();
    let mut latency = LatencyRecorder::new();
    for (area, mut state) in areas {
        match settle(&mut state, &session) {
            Ok(outcome) => {
                let latency_ns = state
                    .ready_at
                    .map(|t| t.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64)
                    .unwrap_or(0);
                let out = area_outcome(&state, &outcome, latency_ns);
                latency.record(out.latency_ns);
                report.areas.push(out);
            }
            Err(err) => report.errors.push((area, err.to_string())),
        }
    }
    report.latency = latency.summary();
    report
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
        let service = AuctionService::new(config, spec.plans().unwrap());
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
        let service = AuctionService::new(
            ServiceConfig { threads: 1, session: SessionConfig::default() },
            spec.plans().unwrap(),
        );
        for b in spec.bidders() {
            service.submit(b).unwrap();
        }
        let mut stray = spec.bidders()[0].clone();
        stray.area = 99;
        assert!(service.submit(stray).is_err());
        let report = service.drain();
        assert_eq!(report.areas.len(), 2, "errors: {:?}", report.errors);
    }

    #[test]
    fn drain_settles_undersubscribed_areas() {
        // Route only half the expected bidders: drain must still settle
        // every area rather than hang waiting for admission.
        let spec = WorkloadSpec::new(11, 4, 48, 2);
        let service = AuctionService::new(
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
