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
//!   quorum is met. One [`CollectEngine`](crate::wire_round::CollectEngine)
//!   does all of this for typed messages, frames and the socket round;
//!   typed messages borrow each bidder's submission.
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

use std::borrow::{Borrow, Cow};

use lppa::backend::RoundLedger;
use lppa::protocol::{charge_requests, conflict_graph, AuctioneerModel, SuSubmission};
use lppa::psd::table::MaskedBidTable;
use lppa::ttp::{ChargeDecision, ChargeRequest, Ttp};
use lppa::LppaError;
use lppa_auction::allocation::{greedy_allocate, Grant};
use lppa_auction::bidder::BidderId;
use lppa_auction::conflict::ConflictGraph;
use lppa_auction::outcome::{Assignment, AuctionOutcome};
use lppa_prefix::backend::BackendKind;
use lppa_rng::rngs::StdRng;
use lppa_rng::{RngCore, SeedableRng};

use crate::chaos::corrupt_submission;
use crate::fault::FaultConfig;
use crate::journal::{Journal, JournalEntry, Phase};
use crate::quarantine::{QuarantineReason, QuarantineReport};
use crate::transport::TransportStats;
use crate::ttp_link::{ChargeBackend, LocalTtp, TtpLink, TtpLinkConfig, TtpSchedule};
use crate::wire_round::{simulate_round, CollectEngine};

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
/// the sender-computed transport checksum the receiver verifies. `S`
/// holds the payload: an owned [`SuSubmission`] by default, or the
/// `Cow` the typed round sends, which borrows the bidder's submission
/// until the link damages a copy.
#[derive(Clone, Debug)]
pub struct SubmissionMsg<S = SuSubmission> {
    /// Original submission index.
    pub bidder: usize,
    /// 1-based send attempt.
    pub attempt: u32,
    /// [`SuSubmission::checksum`] computed by the sender.
    pub checksum: u64,
    /// The submission payload.
    pub submission: S,
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

/// A committed collect phase: what `CollectCommitted` records plus
/// what the later phases read — the journal through that entry, the
/// quarantine so far and the accepted submissions. A
/// [`CollectEngine`] commits one, [`recover_collect`] reads one back
/// from a journal, and [`finish_round`] settles one.
#[derive(Debug)]
pub struct CommittedCollect<S> {
    /// The journal through the `CollectCommitted` entry.
    pub journal: Journal,
    /// Accepted original indices, ascending.
    pub accepted: Vec<usize>,
    /// The accepted submissions (or references to them), parallel to
    /// `accepted`.
    pub submissions: Vec<S>,
    /// Seed of the allocation RNG.
    pub auction_seed: u64,
    /// Seed of the TTP link's failure RNG.
    pub ttp_seed: u64,
    /// The commit tick; allocation and charging start here.
    pub tick: u64,
    /// Per-bidder exclusions so far.
    pub quarantine: QuarantineReport,
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
    /// journal. Each send borrows its bidder's submission; the link
    /// clones only a copy it damages, exactly as
    /// [`crate::chaos::corrupt_in_flight`] would.
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
        simulate_round(
            self.ttp,
            &self.config,
            submissions,
            seed,
            |bidder, attempt, sub| SubmissionMsg {
                bidder,
                attempt,
                checksum: sub.checksum(),
                submission: Cow::Borrowed(sub),
            },
            |msg, rng| corrupt_submission(msg.submission.to_mut(), rng),
            CollectEngine::ingest_msg,
        )
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
        let committed = recover_collect(journal, |accepted| {
            accepted
                .iter()
                .map(|&i| {
                    submissions.get(i).ok_or_else(|| LppaError::Internal {
                        what: format!("journal accepts bidder {i} outside the submission set"),
                    })
                })
                .collect()
        })?;
        let n = submissions.len();
        finish_round(&self.config, LocalTtp(self.ttp), n, committed, TransportStats::default())
    }
}

/// Reads an interrupted session's journal back into its committed
/// collect phase: the prefix through `CollectCommitted`, the commitment
/// it records, and every journalled quarantine as
/// [`QuarantineReason::Recovered`]. `pick` turns the accepted set into
/// the accepted submissions; it is where a caller checks the journal
/// against the submissions it holds.
///
/// # Errors
///
/// [`LppaError::Internal`] if the journal never committed collect;
/// whatever `pick` returns.
pub fn recover_collect<S>(
    journal: &Journal,
    pick: impl FnOnce(&[usize]) -> Result<Vec<S>, LppaError>,
) -> Result<CommittedCollect<S>, LppaError> {
    let (Some(prefix), Some((accepted, auction_seed, ttp_seed, tick))) =
        (journal.prefix_through_collect(), journal.collect_snapshot())
    else {
        return Err(LppaError::Internal {
            what: "journal has no committed collect phase to resume from".into(),
        });
    };
    let submissions = pick(accepted)?;
    let mut quarantine = QuarantineReport::new();
    for (bidder, reason) in prefix.quarantine_events() {
        quarantine.insert(bidder, QuarantineReason::Recovered { detail: reason.to_string() });
    }
    Ok(CommittedCollect {
        journal: prefix,
        accepted: accepted.to_vec(),
        submissions,
        auction_seed,
        ttp_seed,
        tick,
        quarantine,
    })
}

/// The Allocate phase over committed submissions: the conflict graph,
/// the greedy grants (compact ids, indexing into
/// `accepted_submissions`) and their charge requests, ranked under
/// [`SessionConfig::backend`] and [`SessionConfig::model`], with
/// tie-breaks drawn from `auction_seed`. Every driver allocates here:
/// [`finish_round`], the socket auctioneer's mid-charge kill path and
/// the wire-cost accounting.
///
/// # Errors
///
/// [`LppaError::ChannelCountMismatch`] or [`LppaError::InvalidConfig`]
/// from the bid table; [`LppaError::Internal`] for a grant the table
/// cannot resolve (impossible for validated submissions).
pub fn allocate_round<S: Borrow<SuSubmission> + Sync>(
    config: &SessionConfig,
    accepted_submissions: &[S],
    auction_seed: u64,
) -> Result<(ConflictGraph, Vec<Grant>, Vec<ChargeRequest>), LppaError> {
    let conflicts = conflict_graph(accepted_submissions);
    let bids: Vec<_> = accepted_submissions.iter().map(|s| &s.borrow().bids).collect();
    let table = MaskedBidTable::collect_with(bids, config.backend, config.model)?;
    let grants = greedy_allocate(&table, &conflicts, &mut StdRng::seed_from_u64(auction_seed));
    let requests = charge_requests(&table, &grants)?;
    Ok((conflicts, grants, requests))
}

/// Allocate + Charge + Settle over a committed collect phase, charging
/// through any [`ChargeBackend`].
///
/// This is the shared tail of every driver: the in-process rounds and
/// journal recovery call it with [`LocalTtp`]; the socket auctioneer
/// calls it with a remote TTP connection. The committed submissions are
/// *compact* — parallel to `accepted`, holding only the submissions that
/// survived collect — because a networked auctioneer never materializes
/// the ones that didn't. They may be the submissions or references to
/// them: the round reads them in place. `n_bidders` sizes the outcome's
/// bidder space (original indices).
///
/// # Errors
///
/// [`LppaError::Internal`] if the accepted indices and submissions
/// disagree in length, or for table inconsistencies (impossible for
/// validated submissions).
pub fn finish_round<B, S>(
    config: &SessionConfig,
    backend: B,
    n_bidders: usize,
    committed: CommittedCollect<S>,
    stats: TransportStats,
) -> Result<SessionOutcome, LppaError>
where
    B: ChargeBackend,
    S: Borrow<SuSubmission> + Sync,
{
    let CommittedCollect {
        mut journal,
        accepted,
        submissions,
        auction_seed,
        ttp_seed,
        tick: start_tick,
        mut quarantine,
    } = committed;
    if accepted.len() != submissions.len() {
        return Err(LppaError::Internal {
            what: format!(
                "finish_round: {} accepted indices but {} submissions",
                accepted.len(),
                submissions.len()
            ),
        });
    }
    journal.append(JournalEntry::PhaseEntered { phase: Phase::Allocate, tick: start_tick });
    let (conflicts, compact_grants, requests) = allocate_round(config, &submissions, auction_seed)?;
    let grants: Vec<Grant> = compact_grants
        .iter()
        .map(|g| Grant { bidder: BidderId(accepted[g.bidder.0]), ..*g })
        .collect();
    // The ledger backend's audit chain is built from journal-recoverable
    // data only (accepted set, grants, charge verdicts), so a resumed
    // session replays to the byte-identical root.
    let mut ledger = RoundLedger::for_backend(config.backend);
    if let Some(ledger) = ledger.as_mut() {
        for (&original, submission) in accepted.iter().zip(&submissions) {
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
