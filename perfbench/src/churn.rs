//! The `churn` workload: resident areas under 10% churn per round,
//! driven with the calls `lppa_service::churn` makes in arena mode — a
//! resident `IncrementalAuctioneer` on a pooled `RoundScratch` per area,
//! `leave`, `take_for_revise`/`rebuild_bids_in`/`put_revised`,
//! `build_in` + `join`, `charge_clear_slot`, `run_round_in` and
//! `recycle_matrix`.

use std::collections::BTreeSet;
use std::time::Instant;

use lppa::arena::RoundScratch;
use lppa::protocol::{run_private_auction_with_model, SuSubmission};
use lppa::ttp::Ttp;
use lppa::zero_replace::ZeroReplacePolicy;
use lppa::{AuctioneerModel, IncrementalAuctioneer, LppaError, PrivateAuctionResult};
use lppa_auction::bidder::Location;
use lppa_rng::rngs::StdRng;
use lppa_rng::{Rng, RngCore, SeedableRng};
use lppa_service::{AreaPlan, WorkloadSpec};
use lppa_session::encode_submission_frame;

use crate::clock::{CpuClock, Meter, RefKind, Sample};
use crate::report::RunResult;
use crate::trace::Tracer;
use crate::{catch, flatten, sub_seed, traced, Args, WALL_LIMIT};

/// Areas per episode.
const AREAS: u32 = 10;
/// Bidders per area at admission.
const BIDDERS: usize = 1000;
/// Channels per area.
const CHANNELS: usize = 2;
/// Churn per round as a share of the live population, split 1:1:2
/// join:leave:revise.
const CHURN: f64 = 0.10;
/// Independent set-ups per run; `setup_s` is their median.
const EPISODES: u32 = 3;
/// Untimed warm-up rounds at the start of an episode.
const WARMUP_ROUNDS: u64 = 1;
/// Timed area rounds a run does per second of `--seconds`, split evenly
/// over the episodes in whole rounds of every area.
const AREA_ROUNDS_PER_SECOND: f64 = 70.0;
/// Timed area rounds after which `peak_rss_mb` is read.
const RSS_AFTER: u64 = 100;
/// Every this many area rounds, the round is checked against a rebuild.
const CHECK_EVERY: u64 = 8;

/// Domains of the per-episode and per-area seed streams.
const STREAM_EPISODE: u64 = 0xc4a2_0000_0000_0e01;
const STREAM_CHURN: u64 = 0xc4a2_0000_0000_0e02;
/// Domain of the per-round allocation seeds (as in `lppa_service::churn`).
const STREAM_ROUND: u64 = 0x2070_d500_0000_0006;

/// One resident bidder: enough to rebuild its submission bit for bit.
#[derive(Clone, Debug)]
struct Member {
    slot: u32,
    seed: u64,
    location: Location,
    bids: Vec<u32>,
}

/// One step of a churn delta. A revision and a join are split so the
/// masking in them is its own timed item.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Step {
    Leave,
    /// Draw a reviser's new bids and take its slot out of the orders.
    ReviseTake,
    /// Re-mask the reviser's bids (`rebuild_bids_in`).
    ReviseMask,
    /// Put the revised submission back.
    RevisePut,
    /// A joiner's SU submission build (one `su_submit` sample).
    JoinBuild,
    /// Admitting the built joiner into the engine.
    JoinAdmit,
}

impl Step {
    /// Masking is calibrated against the vector reference.
    fn kind(self) -> RefKind {
        match self {
            Step::ReviseMask | Step::JoinBuild => RefKind::Vector,
            _ => RefKind::Mixed,
        }
    }
}

/// A span around `f` when tracing, a plain call otherwise.
fn sp<T>(t: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match t {
        Some(t) => t.span(name, |_| f()),
        None => f(),
    }
}

/// One persistent area under churn.
struct ChurnArea {
    area: u32,
    ttp: Ttp,
    policy: ZeroReplacePolicy,
    engine: IncrementalAuctioneer,
    scratch: RoundScratch,
    members: Vec<Member>,
    free: BTreeSet<u32>,
    len: u32,
    rng: StdRng,
    session_seed: u64,
    round: u64,
    joiner: Option<(Member, SuSubmission)>,
    reviser: Option<(usize, SuSubmission)>,
}

impl ChurnArea {
    fn new(plan: &AreaPlan, churn_seed: u64) -> Self {
        Self {
            area: plan.area,
            ttp: plan.ttp.clone(),
            policy: plan.policy.clone(),
            engine: IncrementalAuctioneer::new(AuctioneerModel::default()),
            scratch: RoundScratch::new(),
            members: Vec::new(),
            free: BTreeSet::new(),
            len: 0,
            rng: StdRng::seed_from_u64(churn_seed),
            session_seed: plan.seeds.session,
            round: 0,
            joiner: None,
            reviser: None,
        }
    }

    /// An identical copy with its own (cold) scratch pool — scratch
    /// moves allocations, never output bits.
    fn twin(&self) -> Self {
        Self {
            area: self.area,
            ttp: self.ttp.clone(),
            policy: self.policy.clone(),
            engine: self.engine.clone(),
            scratch: RoundScratch::new(),
            members: self.members.clone(),
            free: self.free.clone(),
            len: self.len,
            rng: self.rng.clone(),
            session_seed: self.session_seed,
            round: self.round,
            joiner: None,
            reviser: None,
        }
    }

    /// Lowest free slot first, mirroring the engine's free list.
    fn take_slot(&mut self) -> u32 {
        match self.free.pop_first() {
            Some(s) => s,
            None => {
                self.len += 1;
                self.len - 1
            }
        }
    }

    fn build(&mut self, member: &Member) -> Result<SuSubmission, LppaError> {
        let mut rng = StdRng::seed_from_u64(member.seed);
        SuSubmission::build_in(
            member.location,
            &member.bids,
            &self.ttp,
            &self.policy,
            &mut rng,
            &mut self.scratch.mask,
        )
    }

    /// Initial admission, first half: masks one bidder (seed from the
    /// admission stream) and holds it as the pending joiner.
    fn admit_build(
        &mut self,
        location: Location,
        bids: Vec<u32>,
        seed: u64,
    ) -> Result<(), LppaError> {
        let slot = self.take_slot();
        let member = Member { slot, seed, location, bids };
        let sub = self.build(&member)?;
        self.joiner = Some((member, sub));
        Ok(())
    }

    /// This round's deltas: leaves, then revisions, then joins.
    fn steps(&self) -> Vec<Step> {
        let live = self.members.len() as f64;
        let count = |rate: f64| (rate * live).round() as usize;
        let (leave, revise, join) = (count(CHURN / 4.0), count(CHURN / 2.0), count(CHURN / 4.0));
        let mut steps = vec![Step::Leave; leave];
        for _ in 0..revise {
            steps.extend([Step::ReviseTake, Step::ReviseMask, Step::RevisePut]);
        }
        for _ in 0..join {
            steps.push(Step::JoinBuild);
            steps.push(Step::JoinAdmit);
        }
        steps
    }

    fn draw_bids(&mut self) -> Vec<u32> {
        let bid_max = self.ttp.config().bid_max().max(1);
        (0..self.ttp.n_channels())
            .map(|_| if self.rng.gen_bool(0.5) { 0 } else { self.rng.gen_range(1..=bid_max) })
            .collect()
    }

    /// Applies one delta.
    fn apply(&mut self, step: Step, mut t: Option<&mut Tracer>) -> Result<(), LppaError> {
        match step {
            Step::Leave => {
                let i = (self.rng.next_u64() % self.members.len() as u64) as usize;
                let member = self.members.swap_remove(i);
                self.free.insert(member.slot);
                sp(&mut t, "engine.leave", || {
                    let retired = self.engine.leave(member.slot);
                    retired.reclaim(&mut self.scratch.mask);
                    self.scratch.charge_clear_slot(member.slot);
                });
                if let Some(t) = t {
                    t.count("engine.leaves", 1.0);
                }
            }
            Step::ReviseTake => {
                let i = (self.rng.next_u64() % self.members.len() as u64) as usize;
                let bids = self.draw_bids();
                self.members[i].bids = bids;
                let slot = self.members[i].slot;
                let resident = sp(&mut t, "engine.revise", || self.engine.take_for_revise(slot));
                self.reviser = Some((i, resident));
            }
            Step::ReviseMask => {
                let (i, resident) = self.reviser.take().expect("a take precedes its re-mask");
                let member = &self.members[i];
                let sub = sp(&mut t, "mask", || {
                    let SuSubmission { location, bids } = resident;
                    bids.reclaim(&mut self.scratch.mask);
                    let mut rng = StdRng::seed_from_u64(member.seed);
                    SuSubmission::rebuild_bids_in(
                        location,
                        member.location,
                        &member.bids,
                        &self.ttp,
                        &self.policy,
                        &mut rng,
                        &mut self.scratch.mask,
                    )
                })?;
                if let Some(t) = t {
                    t.count("mask.submissions", 1.0);
                    t.count("mask.bytes", sub.wire_len() as f64);
                }
                self.reviser = Some((i, sub));
            }
            Step::RevisePut => {
                let (i, sub) = self.reviser.take().expect("a re-mask precedes its put");
                let slot = self.members[i].slot;
                sp(&mut t, "engine.revise", || {
                    self.engine.put_revised(slot, sub);
                    self.scratch.charge_clear_slot(slot);
                });
                if let Some(t) = t {
                    t.count("engine.revises", 1.0);
                }
            }
            Step::JoinBuild => {
                let loc_max = self.ttp.config().loc_max();
                let location =
                    Location::new(self.rng.gen_range(0..=loc_max), self.rng.gen_range(0..=loc_max));
                let bids = self.draw_bids();
                let seed = self.rng.next_u64();
                let slot = self.take_slot();
                let member = Member { slot, seed, location, bids };
                let sub = sp(&mut t, "mask", || self.build(&member))?;
                if let Some(t) = t {
                    t.count("mask.submissions", 1.0);
                    t.count("mask.bytes", sub.wire_len() as f64);
                }
                self.joiner = Some((member, sub));
            }
            Step::JoinAdmit => {
                let (member, sub) = self.joiner.take().expect("a join build precedes its admit");
                let slot = sp(&mut t, "engine.join", || {
                    let got = self.engine.join(sub);
                    self.scratch.charge_clear_slot(got);
                    got
                });
                if slot != member.slot {
                    return Err(LppaError::Internal {
                        what: format!("engine slot {slot} != allocator slot {}", member.slot),
                    });
                }
                self.members.push(member);
                if let Some(t) = t {
                    t.count("engine.joins", 1.0);
                }
            }
        }
        Ok(())
    }

    /// The next round's allocation seed.
    fn next_round_seed(&mut self) -> u64 {
        self.round += 1;
        StdRng::seed_from_u64(self.session_seed ^ STREAM_ROUND ^ (self.round << 24)).next_u64()
    }

    fn run_round(
        &mut self,
        seed: u64,
        mut t: Option<&mut Tracer>,
    ) -> Result<PrivateAuctionResult, LppaError> {
        let mut rng = StdRng::seed_from_u64(seed);
        sp(&mut t, "engine.round", || {
            self.engine.run_round_in(&self.ttp, &mut rng, &mut self.scratch)
        })
    }

    fn recycle(&mut self, result: PrivateAuctionResult, mut t: Option<&mut Tracer>) {
        sp(&mut t, "engine.round", || self.scratch.recycle_matrix(result.conflicts.into_matrix()));
    }
}

/// Decisions of a round, for comparisons: grants, charged assignments,
/// invalidated grants and the conflict-graph size.
fn decisions(r: &PrivateAuctionResult) -> String {
    let grants: Vec<(usize, usize)> = r.grants.iter().map(|g| (g.bidder.0, g.channel.0)).collect();
    let charged: Vec<(usize, usize, u32)> =
        r.outcome.assignments().iter().map(|a| (a.bidder.0, a.channel.0, a.price)).collect();
    let invalid: Vec<(usize, usize)> =
        r.invalid_grants.iter().map(|g| (g.bidder.0, g.channel.0)).collect();
    format!(
        "grants={grants:?} charged={charged:?} invalid={invalid:?} edges={}",
        r.conflicts.edge_count()
    )
}

/// One area round's result: its pieces' samples, the join-build
/// samples, and the settled result or a failure message.
struct AreaRound {
    pieces: Vec<Sample>,
    builds: Vec<Sample>,
    live: usize,
    result: Result<PrivateAuctionResult, String>,
    seed: u64,
}

/// Runs one area round untraced: each delta is a timed item (pieces
/// close at the budget), the engine round one piece.
fn untraced_round(meter: &mut Meter<CpuClock>, area: &mut ChurnArea) -> AreaRound {
    let steps = area.steps();
    meter.break_chain();
    let (applied, samples) = meter.time_items(
        steps.len(),
        |i| steps[i].kind(),
        |i| catch(|| area.apply(steps[i], None)),
    );
    let builds: Vec<Sample> = steps
        .iter()
        .zip(&samples)
        .filter(|(s, _)| **s == Step::JoinBuild)
        .map(|(_, x)| *x)
        .collect();
    let mut pieces = samples;
    if let Some(err) = applied.into_iter().map(flatten).find_map(Result::err) {
        return AreaRound { pieces, builds, live: area.members.len(), result: Err(err), seed: 0 };
    }
    let seed = area.next_round_seed();
    let live = area.members.len();
    let (result, round) = meter.time(|| catch(|| area.run_round(seed, None)));
    pieces.push(round);
    AreaRound { pieces, builds, live, result: flatten(result), seed }
}

/// The traced twin of [`untraced_round`]: the same calls in the same
/// order, each inside its layer's span.
fn traced_round(
    meter: &mut Meter<CpuClock>,
    tracer: &mut Tracer,
    area: &mut ChurnArea,
) -> (Sample, Result<PrivateAuctionResult, String>) {
    let steps = area.steps();
    meter.break_chain();
    let (result, sample) = meter.time(|| {
        catch(|| {
            tracer.span("area", |t| {
                for &step in &steps {
                    area.apply(step, Some(&mut *t))?;
                }
                let seed = area.next_round_seed();
                let (ranges, points) = area.engine.index_entries();
                t.count("engine.index_entries", (ranges + points) as f64);
                t.count("engine.live", area.members.len() as f64);
                area.run_round(seed, Some(t))
            })
        })
    });
    if result.is_err() {
        tracer.unwind();
    }
    (sample, flatten(result))
}

/// Runs the churn workload: `EPISODES` independent set-ups, each
/// followed by its warm-up round and its share of the run's timed
/// churn rounds over all its areas.
pub fn run(args: &Args, meter: &mut Meter<CpuClock>) -> RunResult {
    let mut out = RunResult::default();
    let mut tracer = Tracer::new();
    let (mut traced_ns, mut untraced_ns) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let timed_rounds =
        args.units(AREA_ROUNDS_PER_SECOND).div_ceil(u64::from(EPISODES) * u64::from(AREAS));
    let mut truncated = false;
    let mut area_rounds = 0u64;
    let mut frame_len = 0usize;
    for episode in 0..EPISODES {
        let spec = WorkloadSpec::new(
            sub_seed(args.seed, STREAM_EPISODE, u64::from(episode)),
            AREAS,
            BIDDERS * AREAS as usize,
            CHANNELS,
        );
        let (mut areas, setup_time) = match setup(meter, &spec) {
            Ok(v) => v,
            Err(err) => {
                out.mismatches.push(format!("churn episode {episode}: set-up failed: {err}"));
                return out;
            }
        };
        out.e2e.setups.push(setup_time);
        if frame_len == 0 {
            let sub = areas[0].engine.compact_submissions().swap_remove(0);
            frame_len = encode_submission_frame(0, 1, &sub).len();
        }
        let mut twins: Vec<ChurnArea> =
            if args.trace { areas.iter().map(ChurnArea::twin).collect() } else { Vec::new() };
        // A failed area drops out of its episode's later rounds.
        let mut dead = vec![false; areas.len()];
        let mut round = 0u64;
        while round < WARMUP_ROUNDS + timed_rounds {
            if round > WARMUP_ROUNDS && start.elapsed() >= WALL_LIMIT {
                truncated = true;
                break;
            }
            round += 1;
            let warm = round > WARMUP_ROUNDS;
            for (i, area) in areas.iter_mut().enumerate() {
                if dead[i] {
                    continue;
                }
                let r = untraced_round(meter, area);
                dead[i] = r.result.is_err();
                let id = area_rounds;
                area_rounds += 1;
                if let Ok(result) = &r.result {
                    if id.is_multiple_of(CHECK_EVERY) {
                        check_rebuild(&mut out, area, result, r.seed, episode, round);
                    }
                }
                if args.trace {
                    tracer.begin_round(id);
                    let (sample, twin_result) = traced_round(meter, &mut tracer, &mut twins[i]);
                    tracer.set_factors(id, sample.factors);
                    let same = match (&r.result, &twin_result) {
                        (Ok(a), Ok(b)) => decisions(a) == decisions(b),
                        (Err(a), Err(b)) => a == b,
                        _ => false,
                    };
                    if !same {
                        out.mismatches.push(format!(
                            "churn episode {episode} round {round} area {}: traced twin settled differently",
                            area.area
                        ));
                    }
                    if let Ok(res) = twin_result {
                        twins[i].recycle(res, Some(&mut tracer));
                    }
                    if warm {
                        traced_ns.push(sample.calibrated_ns());
                        untraced_ns.push(Sample::sum(&r.pieces).calibrated_ns());
                    }
                }
                let mut pieces = r.pieces;
                let failed = match r.result {
                    Ok(result) => {
                        let (_, recycle) = meter.time(|| area.recycle(result, None));
                        pieces.push(recycle);
                        None
                    }
                    Err(msg) => Some(msg),
                };
                if !warm {
                    continue;
                }
                out.e2e.shares.record(r.live, 0, failed.is_some());
                match failed {
                    None => {
                        let total = Sample::sum(&pieces);
                        out.e2e.rounds.push(total);
                        out.e2e.areas.push((total, r.live as u64));
                        out.e2e.submits.extend_from_slice(&r.builds);
                        out.e2e.bytes.0 += (frame_len * r.builds.len()) as f64;
                        out.e2e.bytes.1 += r.builds.len() as f64;
                    }
                    Some(msg) => out.failures.push(format!(
                        "churn episode {episode} round {round} area {}: {msg}",
                        area.area
                    )),
                }
                out.e2e.note_rss(RSS_AFTER);
            }
        }
    }
    if args.trace {
        traced::report_layers(args, meter, &tracer, &traced_ns, &untraced_ns, &mut out);
    }
    out.notes.push(format!(
        "area_rounds={area_rounds} episodes={EPISODES} truncated={}",
        u8::from(truncated)
    ));
    out
}

/// One episode's set-up: plans and bidder stream, then the initial
/// admission of every bidder into its area's engine (one timed item per
/// bidder).
fn setup(
    meter: &mut Meter<CpuClock>,
    spec: &WorkloadSpec,
) -> Result<(Vec<ChurnArea>, Sample), String> {
    meter.break_chain();
    let (plans, plan_time) = meter.time(|| spec.plans());
    let plans = plans.map_err(|e| e.to_string())?;
    let (bidders, stream_time) = meter.time(|| spec.bidders());
    let mut areas: Vec<ChurnArea> = plans
        .iter()
        .map(|p| ChurnArea::new(p, sub_seed(spec.seed, STREAM_CHURN, u64::from(p.area))))
        .collect();
    let mut admission: Vec<StdRng> =
        plans.iter().map(|p| StdRng::seed_from_u64(p.seeds.admission)).collect();
    // Two items per bidder: its masking, then its join.
    let mut bidders = bidders.into_iter();
    let mut area = 0usize;
    let kind = |i: usize| if i.is_multiple_of(2) { RefKind::Vector } else { RefKind::Mixed };
    let (admitted, admit_times) = meter.time_items(2 * spec.bidders, kind, |i| {
        if i.is_multiple_of(2) {
            let b = bidders.next().expect("one bidder per item pair");
            area = b.area as usize;
            let seed = admission[area].next_u64();
            areas[area].admit_build(b.location, b.bids, seed)
        } else {
            areas[area].apply(Step::JoinAdmit, None)
        }
    });
    if let Some(err) = admitted.into_iter().find_map(Result::err) {
        return Err(err.to_string());
    }
    let mut parts = vec![plan_time, stream_time];
    parts.extend(admit_times);
    Ok((areas, Sample::sum(&parts)))
}

/// The churn correctness gate: the engine's round must equal a full
/// rebuild over `compact_submissions()` with the same round seed.
fn check_rebuild(
    out: &mut RunResult,
    area: &ChurnArea,
    result: &PrivateAuctionResult,
    seed: u64,
    episode: u32,
    round: u64,
) {
    let subs = area.engine.compact_submissions();
    let mut rng = StdRng::seed_from_u64(seed);
    let rebuilt = catch(|| {
        run_private_auction_with_model(&subs, &area.ttp, AuctioneerModel::default(), &mut rng)
    });
    let same = matches!(&rebuilt, Ok(Ok(r)) if decisions(r) == decisions(result));
    if !same {
        out.mismatches.push(format!(
            "churn episode {episode} round {round} area {}: incremental round differs from the rebuild",
            area.area
        ));
    }
}
