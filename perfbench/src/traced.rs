//! Traced replicas of the session round, built from the same public
//! calls `AuctionSession::run`, `run_wire_round` and `finish_round`
//! make, in the same order and from the same `derive_seeds` seeds, with
//! a span around each call into a layer. The benchmark checks that each
//! replica settles exactly like the untraced library round it mirrors
//! (equal `SessionOutcome::fingerprint`), so the per-layer split is a
//! split of the real round.
//!
//! The replicas cover the hmac backend only: the benchmark pins it.

use lppa::ppbs::location::{build_conflict_graph, LocationSubmission};
use lppa::protocol::{
    charge_requests, validate_submission, validate_submission_with, AuctioneerModel, SuSubmission,
};
use lppa::psd::table::MaskedBidTable;
use lppa::ttp::{ChargeDecision, ChargeRequest, Ttp};
use lppa::wire::{decode_submission, encode_submission};
use lppa::{LppaConfig, LppaError};
use lppa_auction::allocation::{greedy_allocate, Grant};
use lppa_auction::bidder::BidderId;
use lppa_auction::conflict::ConflictGraph;
use lppa_auction::outcome::{Assignment, AuctionOutcome};
use lppa_rng::rngs::StdRng;
use lppa_rng::SeedableRng;
use lppa_session::chaos::corrupt_in_flight;
use lppa_session::frame::{decode_frame_exact, FrameKind};
use lppa_session::journal::{Journal, JournalEntry, Phase};
use lppa_session::quarantine::{QuarantineReason, QuarantineReport};
use lppa_session::transport::{FrameTransport, SimTransport, TransportStats};
use lppa_session::ttp_link::{ChargeBackend, LocalTtp, TtpLink};
use lppa_session::{
    derive_seeds, encode_submission_frame, BidderSendState, SessionConfig, SessionOutcome,
    SubmissionMsg,
};

use crate::clock::{CpuClock, Meter, RefKind};
use crate::report::{median_ref_us, E2e, RunResult};
use crate::stats::median;
use crate::trace::Tracer;
use crate::Args;

/// Area rounds whose spans are written out; the metrics use them all.
const SPAN_FILE_ROUNDS: usize = 4;

/// Ends a traced run: computes the per-layer metrics into `out` and
/// writes the spans of the first area rounds as JSON lines under
/// `.bench_out/` in the working directory.
pub fn report_layers(
    args: &Args,
    meter: &Meter<CpuClock>,
    tracer: &Tracer,
    traced: &[f64],
    untraced: &[f64],
    out: &mut RunResult,
) {
    let ref_us = median_ref_us(meter.refs(), RefKind::Mixed);
    let rounds = tracer.roots("area") as f64;
    out.layers = layer_metrics(tracer, rounds, traced, untraced, &out.e2e, ref_us);
    out.notes.push(format!("spans={}", tracer.len()));
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    let (text, spans) = tracer.to_json_lines(SPAN_FILE_ROUNDS);
    let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text));
    match written {
        Ok(()) => out.notes.push(format!("spans_file={} spans_written={spans}", path.display())),
        Err(err) => out.notes.push(format!("spans_file_error=\"{err}\"")),
    }
}

/// The in-process TTP with a span around every charge decision.
struct TracedTtp<'a, 'b> {
    ttp: &'a Ttp,
    tracer: &'b mut Tracer,
}

impl ChargeBackend for TracedTtp<'_, '_> {
    fn decide(&mut self, request: &ChargeRequest) -> Result<ChargeDecision, LppaError> {
        let mut local = LocalTtp(self.ttp);
        self.tracer.span("ttp.charge", |_| local.decide(request))
    }
}

/// Counts a round's link statistics.
fn count_link(t: &mut Tracer, stats: &TransportStats) {
    t.count("link.sent", stats.sent as f64);
    t.count("link.dropped", stats.dropped as f64);
    t.count("link.duplicated", stats.duplicated as f64);
    t.count("link.corrupted", stats.corrupted as f64);
    t.count("link.delayed", stats.delayed as f64);
}

/// Counts the collect verdicts a round journalled.
fn count_collect(t: &mut Tracer, journal: &Journal) {
    for entry in journal.entries() {
        let name = match entry {
            JournalEntry::SubmissionAccepted { .. } => "collect.accepted",
            JournalEntry::CorruptDiscarded { .. } => "collect.corrupt_discarded",
            JournalEntry::DuplicateIgnored { .. } => "collect.duplicates",
            JournalEntry::FrameRejected { .. } => "collect.frame_rejected",
            JournalEntry::Quarantined { .. } => "collect.quarantined",
            _ => continue,
        };
        t.count(name, 1.0);
    }
}

/// Replica of `AuctionSession::run`: the typed collect loop over the
/// simulated link, then [`finish`].
pub fn typed_round(
    t: &mut Tracer,
    ttp: &Ttp,
    config: &SessionConfig,
    submissions: &[SuSubmission],
    seed: u64,
) -> Result<SessionOutcome, LppaError> {
    let (transport_seed, auction_seed, ttp_seed) = derive_seeds(seed);
    let mut journal = Journal::new();
    journal.append(JournalEntry::PhaseEntered { phase: Phase::Announce, tick: 0 });
    journal.append(JournalEntry::PhaseEntered { phase: Phase::Collect, tick: 0 });
    let (accepted, quarantine, stats) = t.span("collect", |t| {
        typed_collect(t, ttp, config, submissions, transport_seed, &mut journal)
    });
    let required = config.min_accepted.max(1);
    if accepted.len() < required {
        return Err(LppaError::QuorumNotReached { accepted: accepted.len(), required });
    }
    journal.append(JournalEntry::CollectCommitted {
        accepted: accepted.clone(),
        auction_seed,
        ttp_seed,
        tick: config.collect_deadline,
    });
    // The session's own copy of the accepted submissions.
    let compact: Vec<SuSubmission> =
        t.span("unattributed", |_| accepted.iter().map(|&i| submissions[i].clone()).collect());
    count_link(t, &stats);
    let start = config.collect_deadline;
    let parts = Committed { n_bidders: submissions.len(), accepted, auction_seed, ttp_seed, start };
    finish(t, ttp, config, parts, &compact, journal, quarantine, stats)
}

/// Replica of the typed collect phase (`AuctionSession::collect`).
fn typed_collect(
    t: &mut Tracer,
    ttp: &Ttp,
    config: &SessionConfig,
    submissions: &[SuSubmission],
    transport_seed: u64,
    journal: &mut Journal,
) -> (Vec<usize>, QuarantineReport, TransportStats) {
    let n = submissions.len();
    let mut transport: SimTransport<SubmissionMsg> =
        SimTransport::new(config.faults, transport_seed);
    let mut next_send = vec![0u64; n];
    let mut attempts = vec![0u32; n];
    let mut corrupt_copies = vec![0u32; n];
    let mut done = vec![false; n];
    let mut accepted: Vec<usize> = Vec::new();
    let mut quarantine = QuarantineReport::new();
    for tick in 0..=config.collect_deadline {
        for (i, sub) in submissions.iter().enumerate() {
            if !done[i] && tick >= next_send[i] && attempts[i] <= config.max_retries {
                attempts[i] += 1;
                let attempt = attempts[i];
                // Message assembly (a full submission clone plus the
                // sender checksum) is internal to the typed session.
                let msg = t.span("unattributed", |_| SubmissionMsg {
                    bidder: i,
                    attempt,
                    checksum: sub.checksum(),
                    submission: sub.clone(),
                });
                t.span("link", |_| transport.send(tick, msg, corrupt_in_flight));
                let backoff = config.retry_backoff.max(1) << u64::from(attempt - 1).min(16);
                next_send[i] = tick + backoff;
            }
        }
        let delivered = t.span("link", |_| transport.deliver(tick));
        t.count("collect.frames", delivered.len() as f64);
        for msg in delivered {
            let i = msg.bidder;
            if i >= n {
                continue;
            }
            if done[i] {
                journal.append(JournalEntry::DuplicateIgnored { bidder: i, tick });
                continue;
            }
            if msg.submission.checksum() != msg.checksum {
                corrupt_copies[i] += 1;
                journal.append(JournalEntry::CorruptDiscarded { bidder: i, tick });
                continue;
            }
            t.count("collect.validated", 1.0);
            match t.span("collect.validate", |_| validate_submission(&msg.submission, ttp)) {
                Ok(()) => {
                    done[i] = true;
                    accepted.push(i);
                    journal.append(JournalEntry::SubmissionAccepted {
                        bidder: i,
                        tick,
                        attempt: msg.attempt,
                    });
                }
                Err(cause) => {
                    done[i] = true;
                    let reason = QuarantineReason::Rejected { cause };
                    journal.append(JournalEntry::Quarantined {
                        bidder: i,
                        reason: reason.to_string(),
                    });
                    quarantine.insert(i, reason);
                }
            }
        }
    }
    t.span("link", |_| transport.flush());
    for i in 0..n {
        if !done[i] {
            let reason = QuarantineReason::MissedDeadline {
                attempts: attempts[i],
                corrupt_copies: corrupt_copies[i],
            };
            journal.append(JournalEntry::Quarantined { bidder: i, reason: reason.to_string() });
            quarantine.insert(i, reason);
        }
    }
    accepted.sort_unstable();
    (accepted, quarantine, transport.stats)
}

/// Replica of `WireCollectEngine`, with the codec calls split out.
struct WireCollect {
    n: usize,
    n_channels: usize,
    config: LppaConfig,
    done: Vec<bool>,
    corrupt_copies: Vec<u32>,
    accepted: Vec<usize>,
    submissions: Vec<Option<SuSubmission>>,
    quarantine: QuarantineReport,
}

impl WireCollect {
    fn new(n: usize, n_channels: usize, config: LppaConfig) -> Self {
        Self {
            n,
            n_channels,
            config,
            done: vec![false; n],
            corrupt_copies: vec![0; n],
            accepted: Vec::new(),
            submissions: vec![None; n],
            quarantine: QuarantineReport::new(),
        }
    }

    /// `WireCollectEngine::ingest`: returns the bidder to acknowledge.
    fn ingest(
        &mut self,
        t: &mut Tracer,
        tick: u64,
        bytes: &[u8],
        journal: &mut Journal,
    ) -> Option<usize> {
        let view = t.span("codec.decode", |_| {
            decode_frame_exact(bytes)
                .ok()
                .filter(|frame| frame.kind == FrameKind::Submission)
                .and_then(|frame| decode_submission(frame.payload).ok())
        });
        let Some(view) = view else {
            journal.append(JournalEntry::FrameRejected { tick });
            return None;
        };
        let i = view.bidder();
        if i >= self.n {
            return None;
        }
        if self.done[i] {
            journal.append(JournalEntry::DuplicateIgnored { bidder: i, tick });
            return None;
        }
        if view.computed_checksum() != view.declared_checksum() {
            self.corrupt_copies[i] += 1;
            journal.append(JournalEntry::CorruptDiscarded { bidder: i, tick });
            return None;
        }
        let (submission, attempt) = match t.span("codec.decode", |_| view.materialize()) {
            Ok((submission, attempt, _)) => (submission, attempt),
            Err(cause) => return Some(self.reject(i, cause, journal)),
        };
        t.count("collect.validated", 1.0);
        let valid = t.span("collect.validate", |_| {
            validate_submission_with(&submission, self.n_channels, &self.config)
        });
        match valid {
            Ok(()) => {
                self.done[i] = true;
                self.accepted.push(i);
                journal.append(JournalEntry::SubmissionAccepted { bidder: i, tick, attempt });
                self.submissions[i] = Some(submission);
                Some(i)
            }
            Err(cause) => Some(self.reject(i, cause, journal)),
        }
    }

    fn reject(&mut self, i: usize, cause: LppaError, journal: &mut Journal) -> usize {
        self.done[i] = true;
        let reason = QuarantineReason::Rejected { cause };
        journal.append(JournalEntry::Quarantined { bidder: i, reason: reason.to_string() });
        self.quarantine.insert(i, reason);
        i
    }

    /// `WireCollectEngine::close`.
    fn close(
        mut self,
        attempts: &[u32],
        journal: &mut Journal,
    ) -> (Vec<usize>, Vec<SuSubmission>, QuarantineReport) {
        for i in 0..self.n {
            if !self.done[i] {
                let reason = QuarantineReason::MissedDeadline {
                    attempts: attempts.get(i).copied().unwrap_or(0),
                    corrupt_copies: self.corrupt_copies[i],
                };
                journal.append(JournalEntry::Quarantined { bidder: i, reason: reason.to_string() });
                self.quarantine.insert(i, reason);
            }
        }
        self.accepted.sort_unstable();
        let subs = self
            .accepted
            .iter()
            .map(|&i| self.submissions[i].take().expect("accepted bidders stored a submission"))
            .collect();
        (self.accepted, subs, self.quarantine)
    }
}

/// Replica of `run_wire_round`. Also returns the accepted submissions,
/// so the caller can compare them with what the bidders sent.
pub fn wire_round(
    t: &mut Tracer,
    ttp: &Ttp,
    config: &SessionConfig,
    submissions: &[SuSubmission],
    seed: u64,
) -> Result<(SessionOutcome, Vec<(usize, SuSubmission)>), LppaError> {
    let (transport_seed, auction_seed, ttp_seed) = derive_seeds(seed);
    let n = submissions.len();
    let mut journal = Journal::new();
    journal.append(JournalEntry::PhaseEntered { phase: Phase::Announce, tick: 0 });
    journal.append(JournalEntry::PhaseEntered { phase: Phase::Collect, tick: 0 });
    let mut link: SimTransport<Vec<u8>> = SimTransport::new(config.faults, transport_seed);
    let mut senders = vec![BidderSendState::new(); n];
    let mut engine = WireCollect::new(n, ttp.n_channels(), *ttp.config());
    for tick in 0..=config.collect_deadline {
        for (i, sub) in submissions.iter().enumerate() {
            if let Some(attempt) = senders[i].should_send(tick, config) {
                let frame = t.span("codec.encode", |_| encode_submission_frame(i, attempt, sub));
                t.count("codec.encoded", 1.0);
                t.span("link", |_| link.send_frame(tick, frame));
            }
        }
        let frames = t.span("link", |_| link.poll_frames(tick));
        t.count("collect.frames", frames.len() as f64);
        for bytes in frames {
            let ack = t.span("collect", |t| engine.ingest(t, tick, &bytes, &mut journal));
            if let Some(bidder) = ack {
                senders[bidder].mark_done();
            }
        }
    }
    t.span("link", |_| link.flush_frames());
    let attempts: Vec<u32> = senders.iter().map(BidderSendState::attempts).collect();
    let (accepted, accepted_submissions, quarantine) =
        t.span("collect", |_| engine.close(&attempts, &mut journal));
    let required = config.min_accepted.max(1);
    if accepted.len() < required {
        return Err(LppaError::QuorumNotReached { accepted: accepted.len(), required });
    }
    journal.append(JournalEntry::CollectCommitted {
        accepted: accepted.clone(),
        auction_seed,
        ttp_seed,
        tick: config.collect_deadline,
    });
    let stats = link.frame_stats();
    count_link(t, &stats);
    let start = config.collect_deadline;
    let parts =
        Committed { n_bidders: n, accepted: accepted.clone(), auction_seed, ttp_seed, start };
    let outcome = finish(t, ttp, config, parts, &accepted_submissions, journal, quarantine, stats)?;
    Ok((outcome, accepted.into_iter().zip(accepted_submissions).collect()))
}

/// What `CollectCommitted` fixes for the rest of the round.
struct Committed {
    n_bidders: usize,
    accepted: Vec<usize>,
    auction_seed: u64,
    ttp_seed: u64,
    start: u64,
}

/// Replica of `finish_round` for the hmac backend: conflict graph,
/// masked table, greedy allocation, charging through the TTP link,
/// then settlement into the journal and the outcome.
#[allow(clippy::too_many_arguments)] // the finish_round tuple, spelled out
fn finish(
    t: &mut Tracer,
    ttp: &Ttp,
    config: &SessionConfig,
    parts: Committed,
    subs: &[SuSubmission],
    mut journal: Journal,
    mut quarantine: QuarantineReport,
    stats: TransportStats,
) -> Result<SessionOutcome, LppaError> {
    let Committed { n_bidders, accepted, auction_seed, ttp_seed, start } = parts;
    journal.append(JournalEntry::PhaseEntered { phase: Phase::Allocate, tick: start });
    let conflicts: ConflictGraph = t.span("conflict", |_| {
        let locations: Vec<LocationSubmission> = subs.iter().map(|s| s.location.clone()).collect();
        build_conflict_graph(&locations)
    });
    t.count("conflict.edges", conflicts.edge_count() as f64);
    let table = t.span("table", |_| {
        let bids: Vec<_> = subs.iter().map(|s| s.bids.clone()).collect();
        match config.model {
            AuctioneerModel::Oblivious => MaskedBidTable::collect(bids),
            AuctioneerModel::IterativeCharging => MaskedBidTable::collect_pruned(bids),
        }
    })?;
    let mut alloc_rng = StdRng::seed_from_u64(auction_seed);
    let grants: Vec<Grant> =
        t.span("alloc", |_| greedy_allocate(&table, &conflicts, &mut alloc_rng));
    t.count("alloc.grants", grants.len() as f64);
    let requests = t.span("ttp", |_| charge_requests(&table, &grants))?;
    let to_original = |g: &Grant| Grant { bidder: BidderId(accepted[g.bidder.0]), ..*g };
    t.span("settle", |_| {
        for grant in &grants {
            journal.append(JournalEntry::GrantIssued {
                bidder: accepted[grant.bidder.0],
                channel: grant.channel.0,
            });
        }
        journal.append(JournalEntry::PhaseEntered { phase: Phase::Charge, tick: start });
    });
    let (decisions, tick) = t.span("ttp", |t| {
        let backend = TracedTtp { ttp, tracer: t };
        let mut link = TtpLink::new(backend, config.ttp_schedule, config.ttp_link, ttp_seed);
        link.enqueue(requests);
        let charge_end = start + config.charge_deadline;
        let mut tick = start;
        while tick <= charge_end {
            if link.pump(tick, &mut journal) {
                break;
            }
            tick += 1;
        }
        (link.decisions().to_vec(), tick)
    });
    t.count("ttp.charges", decisions.iter().filter(|d| d.is_some()).count() as f64);
    t.count(
        "ttp.valid",
        decisions.iter().filter(|d| matches!(d, Some(Ok(ChargeDecision::Valid { .. })))).count()
            as f64,
    );
    let originals: Vec<Grant> = grants.iter().map(to_original).collect();
    let outcome = t.span("settle", |_| {
        let mut assignments = Vec::new();
        let mut invalid_grants = Vec::new();
        let mut provisional = Vec::new();
        let mut deferred = Vec::new();
        for (slot, &original) in originals.iter().enumerate() {
            match &decisions[slot] {
                Some(Ok(ChargeDecision::Valid { raw_price })) => {
                    journal.append(JournalEntry::ChargeDecided {
                        bidder: original.bidder.0,
                        channel: original.channel.0,
                        verdict: format!("valid:{raw_price}"),
                    });
                    assignments.push(Assignment {
                        bidder: original.bidder,
                        channel: original.channel,
                        price: *raw_price,
                    });
                }
                Some(Ok(ChargeDecision::InvalidZero)) => {
                    journal.append(JournalEntry::ChargeDecided {
                        bidder: original.bidder.0,
                        channel: original.channel.0,
                        verdict: "invalid-zero".into(),
                    });
                    invalid_grants.push(original);
                }
                Some(Err(cause)) => {
                    journal.append(JournalEntry::ChargeDecided {
                        bidder: original.bidder.0,
                        channel: original.channel.0,
                        verdict: format!("refused: {cause}"),
                    });
                    let reason = QuarantineReason::ChargeFailed { cause: cause.clone() };
                    journal.append(JournalEntry::Quarantined {
                        bidder: original.bidder.0,
                        reason: reason.to_string(),
                    });
                    quarantine.insert(original.bidder.0, reason);
                }
                None => {
                    deferred.push(original.bidder.0);
                    provisional.push(original);
                }
            }
        }
        if !deferred.is_empty() {
            journal.append(JournalEntry::ChargesDeferred { bidders: deferred, tick });
        }
        journal.append(JournalEntry::PhaseEntered { phase: Phase::Settle, tick });
        journal.append(JournalEntry::Settled { tick });
        SessionOutcome {
            outcome: AuctionOutcome::from_assignments(assignments, n_bidders),
            invalid_grants,
            provisional,
            grants: originals,
            conflicts,
            accepted,
            quarantine,
            journal,
            stats,
            ticks: tick,
            ledger_root: None,
        }
    });
    count_collect(t, &outcome.journal);
    Ok(outcome)
}

/// Accepted submissions whose bytes differ from what their bidder
/// built: damage that got past the transport checksum.
pub fn tampered(sent: &[SuSubmission], accepted: &[(usize, SuSubmission)]) -> usize {
    let bytes = |s: &SuSubmission| {
        let mut out = Vec::with_capacity(s.wire_len() + 64);
        encode_submission(0, 0, 0, s, &mut out);
        out
    };
    accepted.iter().filter(|(i, got)| bytes(&sent[*i]) != bytes(got)).count()
}

/// Per-layer metrics from a traced run: `(name, value, unit)`.
///
/// `rounds` is the number of traced area rounds; `traced` and
/// `untraced` are calibrated area durations (ns) of the traced replicas
/// and of the untraced rounds they mirror.
fn layer_metrics(
    t: &Tracer,
    rounds: f64,
    traced: &[f64],
    untraced: &[f64],
    e2e: &E2e,
    ref_us: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let own = t.self_times();
    let s = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let c = |name: &str| t.get(name);
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let rounds = rounds.max(1.0);
    let ms = |ns: f64| ns / rounds / 1e6;
    let area_total = t.total("area");
    let unattributed = s("area") + s("unattributed");
    let engine = s("engine.join") + s("engine.leave") + s("engine.revise") + s("engine.round");
    let auctioneer = s("codec.decode")
        + s("collect")
        + s("collect.validate")
        + s("conflict")
        + s("table")
        + s("alloc")
        + s("ttp")
        + s("settle")
        + engine;
    let wall_rounds: Vec<f64> = e2e.rounds.iter().map(|r| r.wall_ns as f64 / 1e6).collect();
    let (bidders, wall_ns) =
        e2e.areas.iter().fold((0u64, 0u64), |(b, w), (sample, n)| (b + n, w + sample.wall_ns));
    let overhead = match (median(traced), median(untraced)) {
        (Some(a), Some(b)) if b > 0.0 => a / b - 1.0,
        _ => 0.0,
    };
    vec![
        ("mask.us_per_submission", per(s("mask"), c("mask.submissions")) / 1e3, "us"),
        ("mask.submissions", c("mask.submissions") / rounds, "count"),
        ("mask.bytes", per(c("mask.bytes"), c("mask.submissions")), "bytes"),
        ("admission.us_per_bidder", per(s("admission"), c("admission.bidders")) / 1e3, "us"),
        ("codec.encode_us", per(s("codec.encode"), c("codec.encoded")) / 1e3, "us"),
        ("codec.decode_us", per(s("codec.decode"), c("collect.frames")) / 1e3, "us"),
        ("codec.frames", c("codec.encoded") / rounds, "count"),
        ("link.ms", ms(s("link")), "ms"),
        ("link.sent", c("link.sent") / rounds, "count"),
        ("link.dropped", c("link.dropped") / rounds, "count"),
        ("link.duplicated", c("link.duplicated") / rounds, "count"),
        ("link.corrupted", c("link.corrupted") / rounds, "count"),
        ("link.delayed", c("link.delayed") / rounds, "count"),
        ("collect.us_per_frame", per(s("collect"), c("collect.frames")) / 1e3, "us"),
        ("collect.validate_us", per(s("collect.validate"), c("collect.validated")) / 1e3, "us"),
        ("collect.accepted", c("collect.accepted") / rounds, "count"),
        ("collect.corrupt_discarded", c("collect.corrupt_discarded") / rounds, "count"),
        ("collect.duplicates", c("collect.duplicates") / rounds, "count"),
        ("collect.frame_rejected", c("collect.frame_rejected") / rounds, "count"),
        ("collect.quarantined", c("collect.quarantined") / rounds, "count"),
        ("collect.accept_ratio", per(c("collect.accepted"), c("collect.frames")), "ratio"),
        ("collect.tampered_accepted", c("collect.tampered_accepted") / rounds, "count"),
        ("conflict.ms", ms(s("conflict")), "ms"),
        ("conflict.edges", c("conflict.edges") / rounds, "count"),
        ("table.ms", ms(s("table")), "ms"),
        ("alloc.ms", ms(s("alloc")), "ms"),
        ("alloc.grants", c("alloc.grants") / rounds, "count"),
        ("ttp.us_per_charge", per(s("ttp.charge"), c("ttp.charges")) / 1e3, "us"),
        ("ttp.charges", c("ttp.charges") / rounds, "count"),
        ("ttp.valid_ratio", per(c("ttp.valid"), c("ttp.charges")), "ratio"),
        ("settle.ms", ms(s("settle")), "ms"),
        ("engine.join_us", per(s("engine.join"), c("engine.joins")) / 1e3, "us"),
        ("engine.leave_us", per(s("engine.leave"), c("engine.leaves")) / 1e3, "us"),
        ("engine.revise_us", per(s("engine.revise"), c("engine.revises")) / 1e3, "us"),
        ("engine.round_ms", ms(s("engine.round")), "ms"),
        ("engine.index_entries", c("engine.index_entries") / rounds, "count"),
        ("engine.live", c("engine.live") / rounds, "count"),
        ("party.su_ms", ms(s("mask") + s("codec.encode")), "ms"),
        ("party.auctioneer_ms", ms(auctioneer), "ms"),
        ("party.ttp_ms", ms(s("ttp.charge")), "ms"),
        ("machine.ref_us", ref_us, "us"),
        ("raw.round_ms_p50", median(&wall_rounds).unwrap_or(0.0), "ms"),
        ("raw.bidders_per_s", per(bidders as f64, wall_ns as f64 / 1e9), "bidders/s"),
        ("trace.overhead", overhead, "ratio"),
        ("trace.coverage", 1.0 - per(unattributed, area_total), "ratio"),
        ("unattributed.ms", ms(unattributed), "ms"),
        ("failed_share", e2e.shares.failed_share(), "ratio"),
        ("quarantined_share", e2e.shares.quarantined_share(), "ratio"),
    ]
}
