//! The fault-tolerant auction session state machine.
//!
//! One session runs a full LPPA round — `Announce → Collect → Allocate →
//! Charge → Settle` — as a deterministic discrete-event simulation over
//! the unreliable [`SimTransport`] link and the periodically-online
//! [`TtpLink`]. Every failure is handled per bidder:
//!
//! * **Collect**: each bidder retries with exponential backoff until the
//!   collect deadline; corrupt deliveries (checksum mismatch) are
//!   discarded and retransmissions cover them; bidders whose submission
//!   never arrives intact are quarantined as `MissedDeadline`; ragged or
//!   truncated submissions are quarantined as `Rejected`. The phase
//!   commits with whoever made the deadline, provided the configured
//!   quorum is met.
//! * **Allocate**: the greedy allocation runs over the accepted subset,
//!   seeded from the session seed — independent of transport timing.
//! * **Charge**: sealed winning bids drain through the [`TtpLink`] queue
//!   whenever the TTP's availability schedule permits, retrying failed
//!   batches with backoff. If the TTP misses its window, the affected
//!   grants degrade to *provisional* allocations with deferred charging
//!   instead of failing the round. A refused charge (manipulated price)
//!   strikes only its own grant and quarantines that bidder.
//! * **Settle**: the outcome is finalized and fingerprinted.
//!
//! All randomness — fault schedule, allocation tie-breaks, TTP
//! connection flaps — derives from one seed, so a session replays
//! byte-identically, and the journal of an interrupted session can be
//! [resumed](AuctionSession::resume) to the identical outcome.

use std::borrow::Borrow;

use lppa::backend::RoundLedger;
use lppa::protocol::{
    charge_requests, conflict_graph, validate_submission, AuctioneerModel, SuSubmission,
};
use lppa::psd::table::MaskedBidTable;
use lppa::ttp::{ChargeDecision, Ttp};
use lppa::LppaError;
use lppa_auction::allocation::{greedy_allocate, Grant};
use lppa_auction::bidder::BidderId;
use lppa_auction::conflict::ConflictGraph;
use lppa_auction::outcome::{Assignment, AuctionOutcome};
use lppa_prefix::backend::BackendKind;
use lppa_rng::rngs::StdRng;
use lppa_rng::{RngCore, SeedableRng};

use crate::fault::FaultConfig;
use crate::journal::{Journal, JournalEntry, Phase};
use crate::quarantine::{QuarantineReason, QuarantineReport};
use crate::transport::{SimTransport, TransportStats};
use crate::ttp_link::{ChargeBackend, LocalTtp, TtpLink, TtpLinkConfig, TtpSchedule};

/// Tuning for one auction session.
#[derive(Clone, Copy, Debug)]
pub struct SessionConfig {
    /// Transport fault profile.
    pub faults: FaultConfig,
    /// Last tick of the collect phase; submissions arriving later are
    /// lost.
    pub collect_deadline: u64,
    /// Base resend interval in ticks; doubles per attempt.
    pub retry_backoff: u64,
    /// Send attempts beyond the first each bidder may make.
    pub max_retries: u32,
    /// Minimum accepted submissions for the round to commit; below this
    /// the session fails with [`LppaError::QuorumNotReached`]. Clamped
    /// to at least 1.
    pub min_accepted: usize,
    /// How the auctioneer treats unprovable cells.
    pub model: AuctioneerModel,
    /// When the TTP is reachable.
    pub ttp_schedule: TtpSchedule,
    /// Auctioneer ↔ TTP connection tuning.
    pub ttp_link: TtpLinkConfig,
    /// Ticks the charge phase may spend before undecided grants degrade
    /// to provisional allocations.
    pub charge_deadline: u64,
    /// Which [`MaskingBackend`](lppa_prefix::backend::MaskingBackend)
    /// answers the allocation's masked comparisons. The default reads
    /// the `LPPA_BACKEND` environment knob (falling back to `hmac`).
    /// `ledger` additionally audits the round through a [`RoundLedger`]
    /// whose settle-time root lands in [`SessionOutcome::ledger_root`].
    pub backend: BackendKind,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            faults: FaultConfig::none(),
            collect_deadline: 16,
            retry_backoff: 2,
            max_retries: 4,
            min_accepted: 1,
            model: AuctioneerModel::default(),
            ttp_schedule: TtpSchedule::always_online(),
            ttp_link: TtpLinkConfig::default(),
            charge_deadline: 32,
            backend: BackendKind::from_env(),
        }
    }
}

/// The wire message a bidder sends during collect: the submission plus
/// the sender-computed transport checksum the receiver verifies.
#[derive(Clone, Debug)]
pub struct SubmissionMsg {
    /// Original submission index.
    pub bidder: usize,
    /// 1-based send attempt.
    pub attempt: u32,
    /// [`SuSubmission::checksum`] computed by the sender.
    pub checksum: u64,
    /// The submission payload.
    pub submission: SuSubmission,
}

/// Everything a settled session reports.
#[derive(Debug)]
pub struct SessionOutcome {
    /// Valid, TTP-charged assignments (original bidder ids).
    pub outcome: AuctionOutcome,
    /// Disguised-zero wins the TTP invalidated (original ids).
    pub invalid_grants: Vec<Grant>,
    /// Grants whose charge the TTP never decided before the deadline:
    /// the winner keeps the channel provisionally, charging is deferred
    /// (original ids).
    pub provisional: Vec<Grant>,
    /// Every grant the allocation issued (original ids).
    pub grants: Vec<Grant>,
    /// Conflict graph over the accepted subset (compact ids, indexing
    /// into `accepted`).
    pub conflicts: ConflictGraph,
    /// Original indices of the submissions that entered the auction.
    pub accepted: Vec<usize>,
    /// Per-bidder exclusions with reasons.
    pub quarantine: QuarantineReport,
    /// The session's decision log.
    pub journal: Journal,
    /// Transport counters. Observational only — not part of the
    /// [fingerprint](Self::fingerprint), because a resumed session
    /// cannot reconstruct them from the journal.
    pub stats: TransportStats,
    /// The tick the session settled at.
    pub ticks: u64,
    /// Root of the settle-time-verified commitment ledger
    /// ([`BackendKind::Ledger`] only, `None` otherwise). An audit
    /// artefact, deliberately outside the
    /// [fingerprint](Self::fingerprint) so fingerprints stay comparable
    /// across backends; its own determinism is tested separately.
    pub ledger_root: Option<[u8; 32]>,
}

impl SessionOutcome {
    /// Gross revenue of the charged assignments.
    pub fn revenue(&self) -> u64 {
        self.outcome.revenue()
    }

    /// A stable digest of every round decision: assignments, invalid
    /// and provisional grants, the accepted set, the quarantine report
    /// and the settle tick. Two runs from the same seed — or a run and
    /// its journal-recovered replay — must agree on this value.
    pub fn fingerprint(&self) -> u64 {
        let mut acc = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |value: u64| {
            for b in value.to_le_bytes() {
                acc ^= u64::from(b);
                acc = acc.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for a in self.outcome.assignments() {
            eat(a.bidder.0 as u64);
            eat(a.channel.0 as u64);
            eat(u64::from(a.price));
        }
        for g in self.invalid_grants.iter().chain(&self.provisional).chain(&self.grants) {
            eat(g.bidder.0 as u64);
            eat(g.channel.0 as u64);
        }
        for &i in &self.accepted {
            eat(i as u64);
        }
        eat(self.quarantine.fingerprint());
        eat(self.ticks);
        acc
    }
}

/// Derives the per-subsystem seeds every driver (typed sim, wire sim,
/// socket round) draws from the session master seed, in this exact
/// order: `(transport_seed, auction_seed, ttp_seed)`. Sim-vs-socket
/// equivalence starts here — both sides must agree on all three.
pub fn derive_seeds(seed: u64) -> (u64, u64, u64) {
    let mut master = StdRng::seed_from_u64(seed);
    let transport_seed = master.next_u64();
    let auction_seed = master.next_u64();
    let ttp_seed = master.next_u64();
    (transport_seed, auction_seed, ttp_seed)
}

/// What the collect phase produced.
struct CollectResult {
    accepted: Vec<usize>,
    quarantine: QuarantineReport,
    stats: TransportStats,
    end_tick: u64,
}

/// A fault-tolerant auction session over `ttp`.
#[derive(Debug)]
pub struct AuctionSession<'a> {
    ttp: &'a Ttp,
    config: SessionConfig,
}

impl<'a> AuctionSession<'a> {
    /// A session charging through `ttp` with the given tuning.
    pub fn new(ttp: &'a Ttp, config: SessionConfig) -> Self {
        Self { ttp, config }
    }

    /// Runs one complete round from `seed`. The same `(submissions,
    /// seed, config)` triple always produces the identical outcome and
    /// journal.
    ///
    /// # Errors
    ///
    /// [`LppaError::QuorumNotReached`] if fewer than
    /// [`SessionConfig::min_accepted`] submissions survive collect;
    /// [`LppaError::Internal`] for table inconsistencies (impossible for
    /// validated submissions).
    pub fn run(
        &self,
        submissions: &[SuSubmission],
        seed: u64,
    ) -> Result<SessionOutcome, LppaError> {
        let (transport_seed, auction_seed, ttp_seed) = derive_seeds(seed);

        let mut journal = Journal::new();
        journal.append(JournalEntry::PhaseEntered { phase: Phase::Announce, tick: 0 });
        journal.append(JournalEntry::PhaseEntered { phase: Phase::Collect, tick: 0 });

        let collect = self.collect(submissions, transport_seed, &mut journal);
        let required = self.config.min_accepted.max(1);
        if collect.accepted.len() < required {
            return Err(LppaError::QuorumNotReached { accepted: collect.accepted.len(), required });
        }
        journal.append(JournalEntry::CollectCommitted {
            accepted: collect.accepted.clone(),
            auction_seed,
            ttp_seed,
            tick: collect.end_tick,
        });

        self.finish(
            submissions,
            collect.accepted,
            auction_seed,
            ttp_seed,
            collect.end_tick,
            journal,
            collect.quarantine,
            collect.stats,
        )
    }

    /// As [`Self::run`], but over *encoded bytes*: submissions travel
    /// as framed wire messages through the simulated chaos link. See
    /// [`crate::wire_round::run_wire_round`] — this is the in-process
    /// reference for the socket transport's determinism gate.
    ///
    /// # Errors
    ///
    /// As [`Self::run`].
    pub fn run_wire(
        &self,
        submissions: &[SuSubmission],
        seed: u64,
    ) -> Result<SessionOutcome, LppaError> {
        crate::wire_round::run_wire_round(self.ttp, self.config, submissions, seed)
    }

    /// Recovers an interrupted session from its journal and replays the
    /// remaining phases to the identical outcome.
    ///
    /// `journal` must contain the `CollectCommitted` entry (everything
    /// after it is discarded and regenerated); a session interrupted
    /// before collect committed holds no decisions worth recovering —
    /// rerun it. `submissions` must be the same slice the original run
    /// collected. Transport counters cannot be reconstructed, so
    /// [`SessionOutcome::stats`] is zeroed; every fingerprinted field
    /// matches the original run exactly.
    ///
    /// # Errors
    ///
    /// [`LppaError::Internal`] if the journal has no committed collect
    /// phase or references bidders outside `submissions`.
    pub fn resume(
        &self,
        submissions: &[SuSubmission],
        journal: &Journal,
    ) -> Result<SessionOutcome, LppaError> {
        let prefix = journal.prefix_through_collect().ok_or_else(|| LppaError::Internal {
            what: "journal has no committed collect phase to resume from".into(),
        })?;
        let (accepted, auction_seed, ttp_seed, tick) =
            prefix.collect_snapshot().ok_or_else(|| LppaError::Internal {
                what: "journal prefix lost its collect commitment".into(),
            })?;
        let accepted = accepted.to_vec();
        if let Some(&bad) = accepted.iter().find(|&&i| i >= submissions.len()) {
            return Err(LppaError::Internal {
                what: format!("journal accepts bidder {bad} outside the submission set"),
            });
        }
        let mut quarantine = QuarantineReport::new();
        for (bidder, reason) in prefix.quarantine_events() {
            quarantine.insert(bidder, QuarantineReason::Recovered { detail: reason.to_string() });
        }
        self.finish(
            submissions,
            accepted,
            auction_seed,
            ttp_seed,
            tick,
            prefix,
            quarantine,
            TransportStats::default(),
        )
    }

    /// The collect phase: per-bidder submission over the faulty link
    /// with retry/backoff and a hard deadline.
    fn collect(
        &self,
        submissions: &[SuSubmission],
        transport_seed: u64,
        journal: &mut Journal,
    ) -> CollectResult {
        let n = submissions.len();
        let mut transport: SimTransport<SubmissionMsg> =
            SimTransport::new(self.config.faults, transport_seed);
        let mut next_send = vec![0u64; n];
        let mut attempts = vec![0u32; n];
        let mut corrupt_copies = vec![0u32; n];
        let mut done = vec![false; n];
        let mut accepted: Vec<usize> = Vec::new();
        let mut quarantine = QuarantineReport::new();

        for tick in 0..=self.config.collect_deadline {
            // Bidders (re)send on their backoff schedule.
            for (i, sub) in submissions.iter().enumerate() {
                if !done[i] && tick >= next_send[i] && attempts[i] <= self.config.max_retries {
                    attempts[i] += 1;
                    let msg = SubmissionMsg {
                        bidder: i,
                        attempt: attempts[i],
                        checksum: sub.checksum(),
                        submission: sub.clone(),
                    };
                    transport.send(tick, msg, crate::chaos::corrupt_in_flight);
                    let backoff =
                        self.config.retry_backoff.max(1) << u64::from(attempts[i] - 1).min(16);
                    next_send[i] = tick + backoff;
                }
            }
            // The auctioneer processes this tick's deliveries.
            for msg in transport.deliver(tick) {
                let i = msg.bidder;
                if i >= n {
                    // A corrupted header naming a nonexistent bidder:
                    // nothing to quarantine, nothing to poison.
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
                match validate_submission(&msg.submission, self.ttp) {
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
                        // A structurally-bad submission that passed the
                        // checksum is bad at the *sender* — retries would
                        // fail identically, so quarantine now.
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
        transport.flush();
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
        CollectResult {
            accepted,
            quarantine,
            stats: transport.stats,
            end_tick: self.config.collect_deadline,
        }
    }

    /// Allocate + Charge + Settle over a committed accepted set. Shared
    /// by fresh runs and journal recovery — both paths are driven only
    /// by `(accepted, auction_seed, ttp_seed, start_tick)`, which is
    /// exactly what `CollectCommitted` records.
    #[allow(clippy::too_many_arguments)] // the CollectCommitted tuple, spelled out
    fn finish(
        &self,
        submissions: &[SuSubmission],
        accepted: Vec<usize>,
        auction_seed: u64,
        ttp_seed: u64,
        start_tick: u64,
        journal: Journal,
        quarantine: QuarantineReport,
        stats: TransportStats,
    ) -> Result<SessionOutcome, LppaError> {
        let compact: Vec<&SuSubmission> = accepted.iter().map(|&i| &submissions[i]).collect();
        finish_round(
            &self.config,
            LocalTtp(self.ttp),
            submissions.len(),
            accepted,
            &compact,
            auction_seed,
            ttp_seed,
            start_tick,
            journal,
            quarantine,
            stats,
        )
    }
}

/// Allocate + Charge + Settle over a committed accepted set, charging
/// through any [`ChargeBackend`].
///
/// This is the shared tail of every driver: the in-process
/// [`AuctionSession`] (typed or wire-framed collect) calls it with
/// [`LocalTtp`]; the socket auctioneer calls it with a remote TTP
/// connection. `accepted_submissions` is *compact* — parallel to
/// `accepted`, holding only the submissions that survived collect —
/// because a networked auctioneer never materializes the ones that
/// didn't. It may hold the submissions or references to them: the
/// round reads them in place. `n_bidders` sizes the outcome's bidder
/// space (original indices).
///
/// # Errors
///
/// [`LppaError::Internal`] if `accepted` and `accepted_submissions`
/// disagree in length, or for table inconsistencies (impossible for
/// validated submissions).
#[allow(clippy::too_many_arguments)] // the CollectCommitted tuple, spelled out
pub fn finish_round<B, S>(
    config: &SessionConfig,
    backend: B,
    n_bidders: usize,
    accepted: Vec<usize>,
    accepted_submissions: &[S],
    auction_seed: u64,
    ttp_seed: u64,
    start_tick: u64,
    mut journal: Journal,
    mut quarantine: QuarantineReport,
    stats: TransportStats,
) -> Result<SessionOutcome, LppaError>
where
    B: ChargeBackend,
    S: Borrow<SuSubmission> + Sync,
{
    if accepted.len() != accepted_submissions.len() {
        return Err(LppaError::Internal {
            what: format!(
                "finish_round: {} accepted indices but {} submissions",
                accepted.len(),
                accepted_submissions.len()
            ),
        });
    }
    journal.append(JournalEntry::PhaseEntered { phase: Phase::Allocate, tick: start_tick });
    let conflicts = conflict_graph(accepted_submissions);
    let bids: Vec<_> = accepted_submissions.iter().map(|s| &s.borrow().bids).collect();
    let table = MaskedBidTable::collect_with(bids, config.backend, config.model)?;
    let compact_grants =
        greedy_allocate(&table, &conflicts, &mut StdRng::seed_from_u64(auction_seed));
    let requests = charge_requests(&table, &compact_grants)?;
    let grants: Vec<Grant> = compact_grants
        .iter()
        .map(|g| Grant { bidder: BidderId(accepted[g.bidder.0]), ..*g })
        .collect();
    // The ledger backend's audit chain is built from journal-recoverable
    // data only (accepted set, grants, charge verdicts), so a resumed
    // session replays to the byte-identical root.
    let mut ledger = RoundLedger::for_backend(config.backend);
    if let Some(ledger) = ledger.as_mut() {
        for (&original, submission) in accepted.iter().zip(accepted_submissions) {
            ledger.submission(original, submission.borrow().checksum());
        }
    }
    for grant in &grants {
        journal
            .append(JournalEntry::GrantIssued { bidder: grant.bidder.0, channel: grant.channel.0 });
        if let Some(ledger) = ledger.as_mut() {
            ledger.grant(grant);
        }
    }

    journal.append(JournalEntry::PhaseEntered { phase: Phase::Charge, tick: start_tick });
    let mut link = TtpLink::new(backend, config.ttp_schedule, config.ttp_link, ttp_seed);
    link.enqueue(requests);
    let charge_end = start_tick + config.charge_deadline;
    let mut tick = start_tick;
    while tick <= charge_end {
        if link.pump(tick, &mut journal) {
            break;
        }
        tick += 1;
    }

    let mut assignments = Vec::new();
    let mut invalid_grants = Vec::new();
    let mut provisional = Vec::new();
    let mut deferred = Vec::new();
    for (&original, decision) in grants.iter().zip(link.decisions()) {
        match decision {
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
    // The audited backend replays its chain before the round commits.
    let ledger_root = match ledger {
        Some(mut ledger) => {
            for (grant, decision) in grants.iter().zip(link.decisions()) {
                ledger.charge(grant, decision.as_ref());
            }
            Some(ledger.settle()?.root())
        }
        None => None,
    };
    journal.append(JournalEntry::Settled { tick });

    Ok(SessionOutcome {
        outcome: AuctionOutcome::from_assignments(assignments, n_bidders),
        invalid_grants,
        provisional,
        grants,
        conflicts,
        accepted,
        quarantine,
        journal,
        stats,
        ticks: tick,
        ledger_root,
    })
}
