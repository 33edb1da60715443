//! Sustained-churn service path: persistent areas, per-round deltas.
//!
//! The batch service ([`crate::service`]) opens an area, admits every
//! bidder once, settles one round and throws the state away. Real
//! markets churn: each epoch a few bidders join, a few leave, a few
//! revise their bids, and the auction re-runs over the surviving
//! population. A [`ChurnSpec`] describes that regime on top of a
//! [`WorkloadSpec`]; [`run_churn`] drives it in one of two modes that
//! must settle **identically**:
//!
//! - [`ChurnMode::Rebuild`] — the pre-incremental behaviour: every
//!   round re-masks every live bidder's submission and rebuilds the
//!   conflict graph from scratch. `O(n · w)` HMAC work per round no
//!   matter how small the delta.
//! - [`ChurnMode::Incremental`] — a resident
//!   [`IncrementalAuctioneer`] per area: only churned bidders are
//!   re-masked, tags move through the tombstoned delta
//!   `TagIndex` path, and the conflict graph is patched, not rebuilt.
//!   `O(churn · w)` per round.
//!
//! Equality holds because every submission derives from a per-member
//! seed fixed at admission: re-masking member `m` in round `r` (rebuild
//! mode) produces bit-for-bit the submission the incremental engine
//! built when `m` joined or last revised, and both modes present the
//! live set in ascending-slot order with an identical per-round RNG.
//! The `incremental_equals_rebuild` oracle invariant and the CI
//! `load-smoke` churn gate diff the two fingerprints on every run.
//!
//! Determinism across `LPPA_THREADS` follows the service layer's usual
//! argument: every bit derives from per-area seed streams fixed before
//! any thread starts; the shard count only moves timing.

use std::collections::BTreeSet;
use std::time::Instant;

use lppa::arena::{MaskScratch, RoundScratch};
use lppa::protocol::SuSubmission;
use lppa::ttp::Ttp;
use lppa::zero_replace::ZeroReplacePolicy;
use lppa::{AuctioneerModel, IncrementalAuctioneer, LppaError, PrivateAuctionResult};
use lppa_auction::bidder::Location;
use lppa_rng::rngs::StdRng;
use lppa_rng::{Rng, RngCore, SeedableRng};

use crate::metrics::{LatencyRecorder, LatencySummary};
use crate::shard::shard_of;
use crate::workload::{AreaPlan, WorkloadSpec};

/// Domain separation for the per-area churn-event stream (distinct from
/// the admission/session/workload streams).
const STREAM_CHURN: u64 = 0xc0a2_9e00_0000_0005;

/// Domain separation for per-round allocation RNG seeds.
const STREAM_ROUND: u64 = 0x2070_d500_0000_0006;

/// A sustained-churn regime on top of a [`WorkloadSpec`].
///
/// Per area and per round, `round(rate × live)` bidders of each kind
/// churn: leavers drop out, revisers re-draw their bid vectors (same
/// identity, same location), joiners arrive fresh. All events derive
/// from a per-area seed stream, so the whole history is a pure function
/// of the spec.
#[derive(Clone, Copy, Debug)]
pub struct ChurnSpec {
    /// The initial fleet (areas, bidders, channels, seed).
    pub workload: WorkloadSpec,
    /// Churn rounds to run after the initial admission.
    pub rounds: usize,
    /// Fraction of an area's live population joining per round.
    pub join_rate: f64,
    /// Fraction of an area's live population leaving per round.
    pub leave_rate: f64,
    /// Fraction of an area's live population revising bids per round.
    pub revise_rate: f64,
}

impl ChurnSpec {
    /// A spec whose total churn (joins + leaves + revisions) is `churn`
    /// of the live population per round, split 1:1:2 — population
    /// stays balanced while half the churn is bid-only.
    pub fn balanced(workload: WorkloadSpec, rounds: usize, churn: f64) -> Self {
        Self {
            workload,
            rounds,
            join_rate: churn / 4.0,
            leave_rate: churn / 4.0,
            revise_rate: churn / 2.0,
        }
    }

    /// The per-area churn-event seed (location draws, bid draws, member
    /// picks and join seeds all come from this stream).
    fn churn_seed(&self, area: u32) -> u64 {
        StdRng::seed_from_u64(self.workload.seed ^ STREAM_CHURN ^ (u64::from(area) << 20))
            .next_u64()
    }
}

/// Which round-execution strategy [`run_churn`] uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnMode {
    /// Delta path: resident [`IncrementalAuctioneer`], churned bidders
    /// only.
    Incremental,
    /// Baseline: re-mask and rebuild everything every round.
    Rebuild,
}

impl ChurnMode {
    /// Stable lowercase name for report lines and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            ChurnMode::Incremental => "incremental",
            ChurnMode::Rebuild => "rebuild",
        }
    }
}

/// Aggregated results of a churn run.
#[derive(Clone, Debug)]
pub struct ChurnReport {
    /// The execution mode that produced this report.
    pub mode: ChurnMode,
    /// Churn rounds executed.
    pub rounds: usize,
    /// Areas driven.
    pub areas: usize,
    /// Bidders admitted before round 1.
    pub initial_bidders: usize,
    /// Live bidders after the final round.
    pub final_bidders: usize,
    /// Churn events applied across all rounds and areas.
    pub churn_events: usize,
    /// Charged assignments across all rounds.
    pub total_assignments: usize,
    /// Revenue across all rounds.
    pub total_revenue: u64,
    /// Wall-time distribution of whole rounds (all areas, barrier to
    /// barrier). Timing-only: never part of the fingerprint.
    pub round_latency: LatencySummary,
    /// Decision fingerprint folded over every `(area, round)` outcome.
    /// Equal fingerprints mean both runs settled every round of every
    /// area identically.
    pub fingerprint: u64,
    /// Areas whose round failed, with the error text.
    pub errors: Vec<(u32, String)>,
}

/// One resident bidder: everything needed to (re)build its submission
/// bit-for-bit.
#[derive(Clone, Debug)]
struct Member {
    slot: u32,
    seed: u64,
    location: Location,
    bids: Vec<u32>,
}

impl Member {
    /// Masks this member's submission from its fixed seed — the same
    /// bits no matter when or how often it is built.
    fn build(&self, ttp: &Ttp, policy: &ZeroReplacePolicy) -> Result<SuSubmission, LppaError> {
        self.build_in(ttp, policy, &mut MaskScratch::new())
    }

    /// [`build`](Member::build) staging tag runs through a pooled
    /// [`MaskScratch`]: bit-identical bits, allocation-free once warm.
    fn build_in(
        &self,
        ttp: &Ttp,
        policy: &ZeroReplacePolicy,
        scratch: &mut MaskScratch,
    ) -> Result<SuSubmission, LppaError> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        SuSubmission::build_in(self.location, &self.bids, ttp, policy, &mut rng, scratch)
    }

    /// Bid-only rebuild for a revise: reclaims the retired bid half,
    /// reuses the resident masked location verbatim (same seed + same
    /// location ⇒ a re-mask would reproduce it bit for bit), and masks
    /// only the new bids — skipping every location HMAC while staying on
    /// the exact RNG stream [`build_in`](Member::build_in) would use.
    fn rebuild_bids_in(
        &self,
        resident: SuSubmission,
        ttp: &Ttp,
        policy: &ZeroReplacePolicy,
        scratch: &mut MaskScratch,
    ) -> Result<SuSubmission, LppaError> {
        let SuSubmission { location, bids } = resident;
        bids.reclaim(scratch);
        let mut rng = StdRng::seed_from_u64(self.seed);
        SuSubmission::rebuild_bids_in(
            location,
            self.location,
            &self.bids,
            ttp,
            policy,
            &mut rng,
            scratch,
        )
    }
}

/// Lowest-first slot allocator, mirrored by the incremental engine's
/// internal free list so both modes agree on every slot id.
#[derive(Clone, Debug, Default)]
struct SlotAlloc {
    free: BTreeSet<u32>,
    len: u32,
}

impl SlotAlloc {
    fn take(&mut self) -> u32 {
        match self.free.pop_first() {
            Some(s) => s,
            None => {
                self.len += 1;
                self.len - 1
            }
        }
    }

    fn release(&mut self, slot: u32) {
        self.free.insert(slot);
    }
}

/// One persistent regional auction under churn.
struct ChurnArea {
    area: u32,
    ttp: Ttp,
    policy: ZeroReplacePolicy,
    /// `Some` in incremental mode; rebuild mode keeps no resident
    /// masked state.
    engine: Option<IncrementalAuctioneer>,
    /// The area's persistent round scratch: tag-set pool, allocation
    /// buffers, class vectors and the conflict-matrix backing store.
    scratch: RoundScratch,
    members: Vec<Member>,
    alloc: SlotAlloc,
    churn_rng: StdRng,
    session_seed: u64,
    round: u64,
    /// Folded per-round decision fingerprints.
    fingerprint: u64,
    assignments: usize,
    revenue: u64,
    churn_events: usize,
}

/// FNV-style fold shared by the per-round and report fingerprints.
fn fold(acc: &mut u64, value: u64) {
    *acc = (*acc ^ value).wrapping_mul(0x0000_0100_0000_01b3);
}

/// Digest of one round's decisions (grants, charges, invalidations)
/// over compact ids. Both modes present the live set in the same order,
/// so equal decisions give equal digests.
fn round_fingerprint(n_live: usize, result: &PrivateAuctionResult) -> u64 {
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    fold(&mut acc, n_live as u64);
    for g in &result.grants {
        fold(&mut acc, g.bidder.0 as u64);
        fold(&mut acc, g.channel.0 as u64);
    }
    for a in result.outcome.assignments() {
        fold(&mut acc, a.bidder.0 as u64);
        fold(&mut acc, a.channel.0 as u64);
        fold(&mut acc, u64::from(a.price));
    }
    fold(&mut acc, result.invalid_grants.len() as u64);
    fold(&mut acc, result.conflicts.edge_count() as u64);
    acc
}

impl ChurnArea {
    fn new(plan: &AreaPlan, spec: &ChurnSpec, mode: ChurnMode) -> Self {
        Self {
            area: plan.area,
            ttp: plan.ttp.clone(),
            policy: plan.policy.clone(),
            engine: match mode {
                ChurnMode::Incremental => {
                    Some(IncrementalAuctioneer::new(AuctioneerModel::default()))
                }
                ChurnMode::Rebuild => None,
            },
            scratch: RoundScratch::new(),
            members: Vec::new(),
            alloc: SlotAlloc::default(),
            churn_rng: StdRng::seed_from_u64(spec.churn_seed(plan.area)),
            session_seed: plan.seeds.session,
            round: 0,
            fingerprint: 0xcbf2_9ce4_8422_2325,
            assignments: 0,
            revenue: 0,
            churn_events: 0,
        }
    }

    /// Admits one initial bidder (before round 1). `seed` comes from
    /// the area's admission stream, exactly like the batch service.
    fn admit(&mut self, location: Location, bids: Vec<u32>, seed: u64) -> Result<(), LppaError> {
        let slot = self.alloc.take();
        let member = Member { slot, seed, location, bids };
        if let Some(engine) = &mut self.engine {
            let sub = member.build_in(&self.ttp, &self.policy, &mut self.scratch.mask)?;
            let got = engine.join(sub);
            debug_assert_eq!(got, slot, "engine and allocator must agree on slot ids");
        }
        self.members.push(member);
        Ok(())
    }

    /// Applies one round's churn deltas (leaves, then revisions, then
    /// joins — all drawn from the area's churn stream) and runs the
    /// round.
    fn run_round(&mut self, spec: &ChurnSpec) -> Result<(), LppaError> {
        let live = self.members.len();
        let count = |rate: f64| (rate * live as f64).round() as usize;
        let (n_leave, n_revise, n_join) =
            (count(spec.leave_rate), count(spec.revise_rate), count(spec.join_rate));
        let config = *self.ttp.config();
        let k = self.ttp.n_channels();

        for _ in 0..n_leave {
            if self.members.is_empty() {
                break;
            }
            let i = (self.churn_rng.next_u64() % self.members.len() as u64) as usize;
            let member = self.members.swap_remove(i);
            self.alloc.release(member.slot);
            if let Some(engine) = &mut self.engine {
                // A leaver's tag runs re-arm the pool for the round's
                // joiners.
                engine.leave(member.slot).reclaim(&mut self.scratch.mask);
                self.scratch.charge_clear_slot(member.slot);
            }
            self.churn_events += 1;
        }

        for _ in 0..n_revise {
            if self.members.is_empty() {
                break;
            }
            let i = (self.churn_rng.next_u64() % self.members.len() as u64) as usize;
            let bids = draw_bids(&mut self.churn_rng, k, config.bid_max());
            self.members[i].bids = bids;
            if let Some(engine) = &mut self.engine {
                // Same member seed + same location ⇒ a re-mask would
                // reproduce the location bit for bit, so the resident
                // masked location is moved back in unchanged and only
                // the bids are re-masked: no location HMACs and no
                // conflict re-probing.
                let slot = self.members[i].slot;
                let resident = engine.take_for_revise(slot);
                let sub = self.members[i].rebuild_bids_in(
                    resident,
                    &self.ttp,
                    &self.policy,
                    &mut self.scratch.mask,
                )?;
                engine.put_revised(slot, sub);
                self.scratch.charge_clear_slot(slot);
            }
            self.churn_events += 1;
        }

        for _ in 0..n_join {
            let location = Location::new(
                self.churn_rng.gen_range(0..=config.loc_max()),
                self.churn_rng.gen_range(0..=config.loc_max()),
            );
            let bids = draw_bids(&mut self.churn_rng, k, config.bid_max());
            let seed = self.churn_rng.next_u64();
            let slot = self.alloc.take();
            let member = Member { slot, seed, location, bids };
            if let Some(engine) = &mut self.engine {
                let sub = member.build_in(&self.ttp, &self.policy, &mut self.scratch.mask)?;
                let got = engine.join(sub);
                debug_assert_eq!(got, slot, "engine and allocator must agree on slot ids");
                self.scratch.charge_clear_slot(slot);
            }
            self.members.push(member);
            self.churn_events += 1;
        }

        self.round += 1;
        if self.members.is_empty() {
            fold(&mut self.fingerprint, 0);
            return Ok(());
        }
        let round_seed =
            StdRng::seed_from_u64(self.session_seed ^ STREAM_ROUND ^ (self.round << 24)).next_u64();
        let mut rng = StdRng::seed_from_u64(round_seed);

        let result = match &self.engine {
            Some(engine) => engine.run_round_in(&self.ttp, &mut rng, &mut self.scratch)?,
            None => {
                // Rebuild baseline: re-mask every live member, ascending
                // slot order — the order the engine compacts to.
                let mut order: Vec<&Member> = self.members.iter().collect();
                order.sort_unstable_by_key(|m| m.slot);
                let submissions: Result<Vec<SuSubmission>, LppaError> =
                    order.iter().map(|m| m.build(&self.ttp, &self.policy)).collect();
                lppa::run_private_auction_with_model(
                    &submissions?,
                    &self.ttp,
                    AuctioneerModel::default(),
                    &mut rng,
                )?
            }
        };

        fold(&mut self.fingerprint, round_fingerprint(self.members.len(), &result));
        self.assignments += result.outcome.assignments().len();
        self.revenue += result.outcome.revenue();
        // Hand the round's n×n matrix back to the pool for the next
        // round's conflict graph.
        self.scratch.recycle_matrix(result.conflicts.into_matrix());
        Ok(())
    }
}

/// The workload's bid distribution: ~half the channels zero, the rest
/// uniform in `1..=bid_max`.
fn draw_bids(rng: &mut StdRng, k: usize, bid_max: u32) -> Vec<u32> {
    (0..k).map(|_| if rng.gen_bool(0.5) { 0 } else { rng.gen_range(1..=bid_max.max(1)) }).collect()
}

/// Per-shard churn state: the shard's resident areas plus any failures.
#[derive(Default)]
struct ChurnShard {
    areas: Vec<ChurnArea>,
    errors: Vec<(u32, String)>,
}

impl ChurnShard {
    /// Runs one round in every resident area; a failed area stops
    /// churning.
    fn run_round(&mut self, spec: &ChurnSpec) {
        let errors = &mut self.errors;
        self.areas.retain_mut(|area| match area.run_round(spec) {
            Ok(()) => true,
            Err(err) => {
                errors.push((area.area, err.to_string()));
                false
            }
        });
    }
}

/// Drives `spec` in `mode` over `threads` shards (clamped to
/// `[1, MAX_WORKERS]`), returning the aggregated report.
///
/// Each round runs every shard on its own scoped thread and ends when
/// all of them have finished, since round r+1's deltas depend on round
/// r's state. Outcome bits are a pure function of `(spec, mode)` — the
/// thread count moves only timing — and the two modes' fingerprints
/// are equal by construction (see the module docs).
///
/// # Errors
///
/// Propagates plan construction failures. Per-area round failures land
/// in [`ChurnReport::errors`]; the failed area stops churning.
///
/// # Panics
///
/// Re-raises a panic from any area's round.
pub fn run_churn(
    spec: &ChurnSpec,
    mode: ChurnMode,
    threads: usize,
) -> Result<ChurnReport, LppaError> {
    let n_shards = threads.clamp(1, lppa_par::MAX_WORKERS);
    let plans = spec.workload.plans()?;
    let mut shards: Vec<ChurnShard> = (0..n_shards).map(|_| ChurnShard::default()).collect();

    // Initial admission: route the workload's arrival stream, drawing
    // per-bidder seeds from each area's admission stream in arrival
    // order — the same derivation the batch service uses.
    let mut admission: Vec<StdRng> =
        plans.iter().map(|p| StdRng::seed_from_u64(p.seeds.admission)).collect();
    for plan in &plans {
        shards[shard_of(plan.area, n_shards)].areas.push(ChurnArea::new(plan, spec, mode));
    }
    let mut initial_bidders = 0usize;
    for bidder in spec.workload.bidders() {
        let area = bidder.area;
        let seed = admission[area as usize].next_u64();
        let shard = &mut shards[shard_of(area, n_shards)];
        let Some(state) = shard.areas.iter_mut().find(|a| a.area == area) else { continue };
        state.admit(bidder.location, bidder.bids, seed)?;
        initial_bidders += 1;
    }

    let mut latency = LatencyRecorder::new();
    for _ in 0..spec.rounds {
        let start = Instant::now();
        std::thread::scope(|scope| {
            for shard in &mut shards {
                scope.spawn(|| shard.run_round(spec));
            }
        });
        latency.record(start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    // Assemble in area-id order so shard topology cannot leak into the
    // report fingerprint.
    let mut areas: Vec<ChurnArea> = Vec::new();
    let mut errors: Vec<(u32, String)> = Vec::new();
    for mut shard in shards {
        areas.append(&mut shard.areas);
        errors.append(&mut shard.errors);
    }
    areas.sort_by_key(|a| a.area);
    errors.sort_by_key(|(area, _)| *area);

    let mut fingerprint = 0xcbf2_9ce4_8422_2325u64;
    for area in &areas {
        fold(&mut fingerprint, u64::from(area.area));
        fold(&mut fingerprint, area.fingerprint);
    }
    for (area, _) in &errors {
        fold(&mut fingerprint, u64::from(*area));
        fold(&mut fingerprint, u64::MAX);
    }

    Ok(ChurnReport {
        mode,
        rounds: spec.rounds,
        areas: areas.len(),
        initial_bidders,
        final_bidders: areas.iter().map(|a| a.members.len()).sum(),
        churn_events: areas.iter().map(|a| a.churn_events).sum(),
        total_assignments: areas.iter().map(|a| a.assignments).sum(),
        total_revenue: areas.iter().map(|a| a.revenue).sum(),
        round_latency: latency.summary(),
        fingerprint,
        errors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(seed: u64, areas: u32, bidders: usize, rounds: usize) -> ChurnSpec {
        ChurnSpec::balanced(WorkloadSpec::new(seed, areas, bidders, 2), rounds, 0.2)
    }

    #[test]
    fn incremental_and_rebuild_settle_identically() {
        let spec = spec(20260809, 3, 24, 4);
        let delta = run_churn(&spec, ChurnMode::Incremental, 2).unwrap();
        let rebuild = run_churn(&spec, ChurnMode::Rebuild, 2).unwrap();
        assert!(delta.errors.is_empty(), "{:?}", delta.errors);
        assert_eq!(delta.fingerprint, rebuild.fingerprint);
        assert_eq!(delta.total_revenue, rebuild.total_revenue);
        assert_eq!(delta.total_assignments, rebuild.total_assignments);
        assert_eq!(delta.final_bidders, rebuild.final_bidders);
        assert_eq!(delta.churn_events, rebuild.churn_events);
        assert!(delta.churn_events > 0, "churn must actually happen");
    }

    #[test]
    fn outcome_is_invariant_across_shard_and_thread_grids() {
        let spec = spec(77, 4, 20, 3);
        // Each thread count is also the shard count.
        let reference = run_churn(&spec, ChurnMode::Incremental, 1).unwrap();
        for threads in [2, 3, 4] {
            let run = run_churn(&spec, ChurnMode::Incremental, threads).unwrap();
            assert_eq!(run.fingerprint, reference.fingerprint, "threads={threads}");
        }
    }

    #[test]
    fn population_drifts_with_asymmetric_rates() {
        let mut spec = spec(5, 2, 20, 4);
        spec.join_rate = 0.0;
        spec.leave_rate = 0.25;
        spec.revise_rate = 0.0;
        let report = run_churn(&spec, ChurnMode::Incremental, 1).unwrap();
        assert!(report.final_bidders < report.initial_bidders);
        assert!(report.errors.is_empty(), "{:?}", report.errors);
    }

    #[test]
    fn fingerprint_moves_with_the_seed() {
        let a = run_churn(&spec(1, 2, 16, 3), ChurnMode::Incremental, 1).unwrap();
        let b = run_churn(&spec(2, 2, 16, 3), ChurnMode::Incremental, 1).unwrap();
        assert_ne!(a.fingerprint, b.fingerprint);
    }
}
