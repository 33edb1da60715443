//! The `fleet` and `wire129` workloads: batches of one-shot areas, each
//! admitted and masked through `AreaState` and settled by one session
//! round — `AuctionSession::run` over typed messages (`fleet`) or
//! `run_wire_round` over encoded frames on a lossy link (`wire129`).

use std::time::Instant;

use lppa::protocol::SuSubmission;
use lppa::ttp::Ttp;
use lppa::LppaError;
use lppa_auction::bidder::Location;
use lppa_prefix::backend::BackendKind;
use lppa_service::{run_sequential, AreaOutcome, AreaPlan, AreaState, ServiceReport, WorkloadSpec};
use lppa_session::{
    encode_submission_frame, run_wire_round, AuctionSession, FaultConfig, SessionConfig,
    SessionOutcome,
};

use crate::clock::{CpuClock, Meter, RefKind, Sample};
use crate::report::RunResult;
use crate::trace::Tracer;
use crate::{catch, flatten, sub_seed, traced, Args, WALL_LIMIT};

/// One batch workload's shape.
pub struct Shape {
    /// Workload name.
    pub name: &'static str,
    /// Channels auctioned per area.
    pub channels: usize,
    /// Bidders per area.
    pub bidders: usize,
    /// Areas generated per set-up.
    pub areas_per_setup: u32,
    /// Untimed areas at the start of a run.
    pub warmup_areas: usize,
    /// Timed areas a run settles per second of `--seconds`.
    pub areas_per_second: f64,
    /// Timed area rounds after which `peak_rss_mb` is read.
    pub rss_after: u64,
    /// The link's fault profile.
    pub faults: FaultConfig,
    /// Whether submissions travel as frames (`run_wire_round`).
    pub wire: bool,
}

/// The service load shape: 1,000-bidder areas over 2 channels,
/// reliable link, typed session round.
pub const FLEET: Shape = Shape {
    name: "fleet",
    channels: 2,
    bidders: 1000,
    areas_per_setup: 4,
    warmup_areas: 1,
    areas_per_second: FLEET_RATE,
    rss_after: 30,
    faults: FaultConfig {
        drop: 0.0,
        duplicate: 0.0,
        corrupt: 0.0,
        delay: 0.0,
        max_delay: 0,
        reorder: false,
    },
    wire: false,
};

/// Paper scale: 129 channels, 25 bidders per area, framed submissions
/// over a seeded lossy link.
pub const WIRE129: Shape = Shape {
    name: "wire129",
    channels: 129,
    bidders: 25,
    areas_per_setup: 16,
    warmup_areas: 2,
    areas_per_second: WIRE129_RATE,
    rss_after: 60,
    faults: FaultConfig {
        drop: 0.1,
        duplicate: 0.1,
        corrupt: 0.05,
        delay: 0.2,
        max_delay: 2,
        reorder: true,
    },
    wire: true,
};

/// Timed `fleet` areas per second of `--seconds`.
const FLEET_RATE: f64 = 13.0;
/// Timed `wire129` areas per second of `--seconds`.
const WIRE129_RATE: f64 = 16.0;

/// Domain of the per-set-up workload seeds.
const STREAM_SETUP: u64 = 0x5e70_0000_0000_0b01;

/// The session configuration: backend and fault profile set explicitly,
/// never read from the environment.
pub fn session_config(shape: &Shape) -> SessionConfig {
    SessionConfig { faults: shape.faults, backend: BackendKind::Hmac, ..SessionConfig::default() }
}

/// One set-up's areas.
struct Batch {
    spec: WorkloadSpec,
    plans: Vec<AreaPlan>,
    /// Each area's bidders, in arrival order.
    inputs: Vec<Vec<(Location, Vec<u32>)>>,
}

/// Generates one batch of areas: plans (TTP key schedules, seeds) and
/// the bidder stream split by area.
fn setup(meter: &mut Meter<CpuClock>, shape: &Shape, seed: u64, index: u64) -> (Batch, Sample) {
    let areas = shape.areas_per_setup;
    let spec = WorkloadSpec::new(
        sub_seed(seed, STREAM_SETUP, index),
        areas,
        shape.bidders * areas as usize,
        shape.channels,
    );
    let (plans, plan_time) = meter.time(|| spec.plans().expect("valid workload configuration"));
    let (inputs, input_time) = meter.time(|| {
        let mut inputs: Vec<Vec<(Location, Vec<u32>)>> = vec![Vec::new(); areas as usize];
        for b in spec.bidders() {
            inputs[b.area as usize].push((b.location, b.bids));
        }
        inputs
    });
    (Batch { spec, plans, inputs }, Sample::sum(&[plan_time, input_time]))
}

/// The session round of this workload.
fn round(
    shape: &Shape,
    ttp: &Ttp,
    config: SessionConfig,
    submissions: &[SuSubmission],
    seed: u64,
) -> Result<SessionOutcome, LppaError> {
    if shape.wire {
        run_wire_round(ttp, config, submissions, seed)
    } else {
        AuctionSession::new(ttp, config).run(submissions, seed)
    }
}

/// A round's result: settled, or failed with an error or a panic.
type Settled = Result<SessionOutcome, String>;

/// What one untimed-or-timed area produced.
struct Area {
    state: AreaState,
    /// Admission plus masking plus round, when everything ran.
    time: Vec<Sample>,
    masks: Vec<Sample>,
    round: Option<Sample>,
    settled: Settled,
}

fn new_state(plan: &AreaPlan) -> AreaState {
    AreaState::new(
        plan.area,
        plan.ttp.clone(),
        plan.policy.clone(),
        plan.expected,
        plan.seeds.admission,
        plan.seeds.session,
    )
}

/// Runs one area untraced: admission (one piece), masking (one timed
/// item per SU submission, `flush(1)` builds exactly one), then the
/// session round (one piece).
fn run_area(
    meter: &mut Meter<CpuClock>,
    shape: &Shape,
    config: SessionConfig,
    plan: &AreaPlan,
    inputs: &[(Location, Vec<u32>)],
) -> Area {
    let owned = inputs.to_vec();
    meter.break_chain();
    let (mut state, admission) = meter.time(|| {
        let mut state = new_state(plan);
        for (location, bids) in owned {
            state.route(location, bids);
        }
        state
    });
    let n = state.routed();
    let (built, masks) = meter.time_items(n, |_| RefKind::Vector, |_| state.flush(1));
    if let Some(err) = built.into_iter().find_map(Result::err) {
        return Area {
            state,
            time: Vec::new(),
            masks,
            round: None,
            settled: Err(format!("error: {err}")),
        };
    }
    let (result, round_time) = meter.time(|| {
        catch(|| round(shape, &state.ttp, config, state.submissions(), state.session_seed))
    });
    let mut time = vec![admission];
    time.extend_from_slice(&masks);
    time.push(round_time);
    Area { state, time, masks, round: Some(round_time), settled: flatten(result) }
}

/// The traced replica of [`run_area`] on the same inputs.
struct TracedArea {
    settled: Settled,
    sample: Sample,
}

fn run_traced_area(
    meter: &mut Meter<CpuClock>,
    tracer: &mut Tracer,
    shape: &Shape,
    config: SessionConfig,
    plan: &AreaPlan,
    inputs: &[(Location, Vec<u32>)],
) -> TracedArea {
    let owned = inputs.to_vec();
    meter.break_chain();
    let (result, sample) = meter.time(|| {
        catch(|| {
            tracer.span("area", |t| {
                let mut state = t.span("admission", |_| {
                    let mut state = new_state(plan);
                    for (location, bids) in owned {
                        state.route(location, bids);
                    }
                    state
                });
                for _ in 0..state.routed() {
                    t.span("mask", |_| state.flush(1))?;
                }
                let subs = state.submissions();
                let (outcome, accepted) = if shape.wire {
                    traced::wire_round(t, &state.ttp, &config, subs, state.session_seed)?
                } else {
                    let outcome =
                        traced::typed_round(t, &state.ttp, &config, subs, state.session_seed)?;
                    (outcome, Vec::new())
                };
                Ok::<_, LppaError>((outcome, accepted, state))
            })
        })
    });
    if result.is_err() {
        tracer.unwind();
    }
    // Counts taken outside the area span, so they cost it nothing.
    let settled = match result {
        Ok(Ok((outcome, accepted, state))) => {
            let subs = state.submissions();
            tracer.count("admission.bidders", state.routed() as f64);
            tracer.count("mask.submissions", subs.len() as f64);
            tracer
                .count("mask.bytes", subs.iter().map(SuSubmission::wire_len).sum::<usize>() as f64);
            tracer.count("collect.tampered_accepted", traced::tampered(subs, &accepted) as f64);
            Ok(outcome)
        }
        Ok(Err(err)) => Err(format!("error: {err}")),
        Err(panic) => Err(format!("panic: {panic}")),
    };
    TracedArea { settled, sample }
}

/// Compares two settled rounds: equal fingerprints, or the same failure.
fn same(a: &Settled, b: &Settled) -> bool {
    match (a, b) {
        (Ok(x), Ok(y)) => {
            x.fingerprint() == y.fingerprint()
                && x.grants == y.grants
                && x.invalid_grants == y.invalid_grants
                && x.outcome.assignments() == y.outcome.assignments()
        }
        (Err(x), Err(y)) => x == y,
        _ => false,
    }
}

fn describe(s: &Settled) -> String {
    match s {
        Ok(o) => format!("fingerprint {:016x}", o.fingerprint()),
        Err(e) => e.clone(),
    }
}

/// Runs a batch workload: the warm-up areas, then
/// `args.units(shape.areas_per_second)` timed areas.
pub fn run(args: &Args, shape: &Shape, meter: &mut Meter<CpuClock>) -> RunResult {
    let config = session_config(shape);
    let mut out = RunResult::default();
    let mut tracer = Tracer::new();
    let (mut traced_ns, mut untraced_ns) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let target = shape.warmup_areas + args.units(shape.areas_per_second) as usize;
    let mut area_no = 0usize;
    let mut setup_index = 0u64;
    while area_no < target && start.elapsed() < WALL_LIMIT {
        let (batch, setup_time) = setup(meter, shape, args.seed, setup_index);
        out.e2e.setups.push(setup_time);
        let mut sampled: Vec<AreaOutcome> = Vec::new();
        for (plan, inputs) in batch.plans.iter().zip(&batch.inputs) {
            if area_no >= target || start.elapsed() >= WALL_LIMIT {
                break;
            }
            let round_id = area_no as u64;
            let area = run_area(meter, shape, config, plan, inputs);
            let warm = area_no >= shape.warmup_areas;
            area_no += 1;
            let bidders = area.state.routed();
            // Correctness gate (wire129): a repeated round settles
            // identically.
            if shape.wire && plan.area == 0 {
                let again = flatten(catch(|| {
                    round(
                        shape,
                        &area.state.ttp,
                        config,
                        area.state.submissions(),
                        area.state.session_seed,
                    )
                }));
                if !same(&area.settled, &again) {
                    out.mismatches.push(format!(
                        "{} setup {setup_index} area {}: repeat gave {} vs {}",
                        shape.name,
                        plan.area,
                        describe(&again),
                        describe(&area.settled)
                    ));
                }
            }
            // Correctness gate (fleet): sampled areas fold to the same
            // service fingerprint as `run_sequential`.
            if !shape.wire
                && setup_index == 0
                && (plan.area == 0 || plan.area + 1 == shape.areas_per_setup)
            {
                if let Ok(o) = &area.settled {
                    sampled.push(AreaOutcome {
                        area: plan.area,
                        bidders,
                        accepted: o.accepted.len(),
                        assignments: o.outcome.assignments().len(),
                        revenue: o.revenue(),
                        fingerprint: o.fingerprint(),
                        latency_ns: 0,
                    });
                }
            }
            if args.trace {
                tracer.begin_round(round_id);
                let t = run_traced_area(meter, &mut tracer, shape, config, plan, inputs);
                tracer.set_factors(round_id, t.sample.factors);
                if !same(&area.settled, &t.settled) {
                    out.mismatches.push(format!(
                        "{} setup {setup_index} area {}: traced replica gave {} vs {}",
                        shape.name,
                        plan.area,
                        describe(&t.settled),
                        describe(&area.settled)
                    ));
                }
                if warm && area.round.is_some() {
                    traced_ns.push(t.sample.calibrated_ns());
                    untraced_ns.push(Sample::sum(&area.time).calibrated_ns());
                }
            }
            if !warm {
                continue;
            }
            match &area.settled {
                Ok(outcome) => {
                    out.e2e.shares.record(bidders, outcome.quarantine.len(), false);
                    out.e2e.submits.extend_from_slice(&area.masks);
                    out.e2e.rounds.push(area.round.expect("settled rounds were timed"));
                    out.e2e.areas.push((Sample::sum(&area.time), bidders as u64));
                    let frame = encode_submission_frame(0, 1, &area.state.submissions()[0]).len();
                    let frames = if shape.wire { outcome.stats.sent as usize } else { bidders };
                    out.e2e.bytes.0 += (frame * frames) as f64;
                    out.e2e.bytes.1 += bidders as f64;
                }
                Err(msg) => {
                    out.e2e.shares.record(bidders, 0, true);
                    out.failures.push(format!(
                        "{} setup {setup_index} area {}: {msg}",
                        shape.name, plan.area
                    ));
                }
            }
            out.e2e.note_rss(shape.rss_after);
        }
        if !sampled.is_empty() {
            fleet_gate(&mut out, config, &batch, &sampled);
        }
        setup_index += 1;
    }
    if args.trace {
        traced::report_layers(args, meter, &tracer, &traced_ns, &untraced_ns, &mut out);
    }
    out.notes.push(format!(
        "areas={area_no} setups={setup_index} truncated={}",
        u8::from(area_no < target)
    ));
    out
}

/// The fleet correctness gate: the sampled areas' outcomes, folded with
/// `ServiceReport::fingerprint`, must equal `run_sequential` over the
/// same plans and arrival stream.
fn fleet_gate(out: &mut RunResult, config: SessionConfig, batch: &Batch, sampled: &[AreaOutcome]) {
    let ids: Vec<u32> = sampled.iter().map(|a| a.area).collect();
    let plans: Vec<AreaPlan> =
        batch.plans.iter().filter(|p| ids.contains(&p.area)).cloned().collect();
    let reference = run_sequential(config, plans, &batch.spec.bidders());
    let ours = ServiceReport { areas: sampled.to_vec(), ..ServiceReport::default() };
    if ours.fingerprint() != reference.fingerprint() {
        out.mismatches.push(format!(
            "fleet areas {ids:?}: service fingerprint {:016x} vs run_sequential {:016x} (errors {:?})",
            ours.fingerprint(),
            reference.fingerprint(),
            reference.errors
        ));
    }
}
