//! The collect engine and the simulated rounds that drive it.
//!
//! Every session round collects through one [`CollectEngine`]: it
//! checksums, validates, quarantines and journals each delivered copy
//! of a submission, and it commits the phase. What a delivery is
//! differs by driver. The typed [`crate::session::AuctionSession::run`]
//! moves [`SubmissionMsg`]s that borrow each bidder's submission;
//! [`run_wire_round`] moves encoded frames (the [`lppa::wire`] payload
//! in a [`crate::frame`] header); the socket auctioneer in `lppa-net`
//! feeds the engine the frames it received, in the simulation's order,
//! which is the whole sim-vs-socket equivalence argument. Senders run
//! on [`BidderSendState`], and both in-process rounds share one driver,
//! so the typed and framed rounds differ only in how a send is
//! packaged, how the link damages a copy and which ingest receives it.

use std::borrow::Borrow;

use lppa::protocol::{validate_submission_with, SuSubmission};
use lppa::ttp::Ttp;
use lppa::wire::{decode_submission, encode_submission, submission_payload_len};
use lppa::{LppaConfig, LppaError};
use lppa_rng::rngs::StdRng;

use crate::chaos::corrupt_frame;
use crate::frame::{decode_frame_exact, write_frame, FrameKind, FRAME_HEADER_LEN};
use crate::journal::{Journal, JournalEntry, Phase};
use crate::quarantine::{QuarantineReason, QuarantineReport};
use crate::session::{
    derive_seeds, finish_round, CommittedCollect, SessionConfig, SessionOutcome, SubmissionMsg,
};
use crate::transport::SimTransport;
use crate::ttp_link::LocalTtp;

/// One bidder's retry/backoff bookkeeping during collect.
///
/// This is the *sender's* state machine, kept out of the collect
/// engine so a real bidder process can run it against its own clock:
/// ask [`Self::should_send`] once per tick, transmit when it says so,
/// and [`Self::mark_done`] when the auctioneer acknowledges (accept
/// *or* reject — both end the resend loop). Every simulated sender and
/// the socket auctioneer's mirrors run this one schedule.
#[derive(Clone, Debug, Default)]
pub struct BidderSendState {
    next_send: u64,
    attempts: u32,
    done: bool,
}

impl BidderSendState {
    /// A bidder that has not sent yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether this bidder transmits at `tick`. If so, records the
    /// attempt, schedules the exponential-backoff resend, and returns
    /// the 1-based attempt number to stamp on the wire.
    pub fn should_send(&mut self, tick: u64, config: &SessionConfig) -> Option<u32> {
        if self.done || tick < self.next_send || self.attempts > config.max_retries {
            return None;
        }
        self.attempts += 1;
        let backoff = config.retry_backoff.max(1) << u64::from(self.attempts - 1).min(16);
        self.next_send = tick + backoff;
        Some(self.attempts)
    }

    /// The auctioneer settled this bidder; stop resending.
    pub fn mark_done(&mut self) {
        self.done = true;
    }

    /// Send attempts made so far.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }
}

/// The verdict [`CollectEngine`] asks the driver to relay back to a
/// bidder. Both verdicts end that bidder's resend loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SubmissionAck {
    /// Original submission index.
    pub bidder: usize,
    /// `true` for accepted, `false` for structurally rejected.
    pub accepted: bool,
}

/// The auctioneer's collect phase: one receiver for every delivery.
///
/// Feed it every arriving copy in delivery order, as a frame through
/// [`Self::ingest`] or as a typed message through [`Self::ingest_msg`].
/// Each copy then takes the same per-bidder steps: a copy naming no
/// known bidder is ignored; one for a settled bidder is journalled as
/// [`JournalEntry::DuplicateIgnored`]; a checksum mismatch as
/// [`JournalEntry::CorruptDiscarded`] (a retransmission may still
/// cover it); a copy that fails to materialize or validate quarantines
/// its sender as `Rejected`; anything else is accepted. Frames add one
/// outcome: bytes that don't decode to a submission at all are
/// journalled as [`JournalEntry::FrameRejected`], since they can't even
/// be attributed to a bidder. [`Self::commit`] closes the phase.
///
/// `S` is what the engine keeps of an accepted copy: the decoded
/// [`SuSubmission`] for frames, or for typed messages their payload,
/// which in the typed round borrows the bidder's submission.
#[derive(Debug)]
pub struct CollectEngine<S> {
    n_channels: usize,
    config: LppaConfig,
    done: Vec<bool>,
    corrupt_copies: Vec<u32>,
    accepted: Vec<(usize, S)>,
    quarantine: QuarantineReport,
}

impl<S: Borrow<SuSubmission>> CollectEngine<S> {
    /// An engine for a round of `n_bidders` bidders over `n_channels`
    /// channels under the announced public `config` — everything
    /// validation needs, no TTP keys required.
    pub fn new(n_bidders: usize, n_channels: usize, config: LppaConfig) -> Self {
        Self {
            n_channels,
            config,
            done: vec![false; n_bidders],
            corrupt_copies: vec![0; n_bidders],
            accepted: Vec::new(),
            quarantine: QuarantineReport::new(),
        }
    }

    /// Processes one delivered typed message at `tick`. Returns the ack
    /// to relay when the message settles a bidder (accepted or
    /// rejected); `None` for a corrupt copy, a duplicate or an unknown
    /// bidder.
    pub fn ingest_msg(
        &mut self,
        tick: u64,
        msg: SubmissionMsg<S>,
        journal: &mut Journal,
    ) -> Option<SubmissionAck> {
        let SubmissionMsg { bidder, attempt, checksum, submission } = msg;
        self.settle(tick, bidder, journal, || {
            (submission.borrow().checksum() == checksum).then_some(Ok((submission, attempt)))
        })
    }

    /// The per-copy step behind both ingests. `copy` runs only for a
    /// known, unsettled bidder: `None` is a checksum mismatch, `Some`
    /// the materialized submission and its attempt number (or why it
    /// would not materialize).
    fn settle(
        &mut self,
        tick: u64,
        bidder: usize,
        journal: &mut Journal,
        copy: impl FnOnce() -> Option<Result<(S, u32), LppaError>>,
    ) -> Option<SubmissionAck> {
        if bidder >= self.done.len() {
            // A corrupted header naming a nonexistent bidder: nothing to
            // quarantine, nothing to poison.
            return None;
        }
        if self.done[bidder] {
            journal.append(JournalEntry::DuplicateIgnored { bidder, tick });
            return None;
        }
        let Some(copy) = copy() else {
            self.corrupt_copies[bidder] += 1;
            journal.append(JournalEntry::CorruptDiscarded { bidder, tick });
            return None;
        };
        // Settled either way: a structurally-bad submission that passed
        // the checksum is bad at the *sender*, and retries would fail
        // identically.
        self.done[bidder] = true;
        let checked = copy.and_then(|(submission, attempt)| {
            validate_submission_with(submission.borrow(), self.n_channels, &self.config)
                .map(|()| (submission, attempt))
        });
        match checked {
            Ok((submission, attempt)) => {
                journal.append(JournalEntry::SubmissionAccepted { bidder, tick, attempt });
                self.accepted.push((bidder, submission));
                Some(SubmissionAck { bidder, accepted: true })
            }
            Err(cause) => {
                let reason = QuarantineReason::Rejected { cause };
                journal.append(JournalEntry::Quarantined { bidder, reason: reason.to_string() });
                self.quarantine.insert(bidder, reason);
                Some(SubmissionAck { bidder, accepted: false })
            }
        }
    }

    /// Closes the phase at the deadline and commits it: quarantines
    /// every unsettled bidder as `MissedDeadline` (with the attempts
    /// its `senders` entry counted), checks the quorum, and journals
    /// `CollectCommitted` with the seeds [`derive_seeds`] draws from the
    /// session `seed`, at tick [`SessionConfig::collect_deadline`].
    ///
    /// # Errors
    ///
    /// [`LppaError::QuorumNotReached`] if fewer than
    /// [`SessionConfig::min_accepted`] submissions were accepted.
    pub fn commit(
        mut self,
        senders: &[BidderSendState],
        config: &SessionConfig,
        seed: u64,
        mut journal: Journal,
    ) -> Result<CommittedCollect<S>, LppaError> {
        for (bidder, &done) in self.done.iter().enumerate() {
            if !done {
                let reason = QuarantineReason::MissedDeadline {
                    attempts: senders.get(bidder).map_or(0, BidderSendState::attempts),
                    corrupt_copies: self.corrupt_copies[bidder],
                };
                journal.append(JournalEntry::Quarantined { bidder, reason: reason.to_string() });
                self.quarantine.insert(bidder, reason);
            }
        }
        let required = config.min_accepted.max(1);
        if self.accepted.len() < required {
            return Err(LppaError::QuorumNotReached { accepted: self.accepted.len(), required });
        }
        self.accepted.sort_unstable_by_key(|&(bidder, _)| bidder);
        let (accepted, submissions): (Vec<usize>, Vec<S>) = self.accepted.into_iter().unzip();
        let (_, auction_seed, ttp_seed) = derive_seeds(seed);
        let tick = config.collect_deadline;
        journal.append(JournalEntry::CollectCommitted {
            accepted: accepted.clone(),
            auction_seed,
            ttp_seed,
            tick,
        });
        Ok(CommittedCollect {
            journal,
            accepted,
            submissions,
            auction_seed,
            ttp_seed,
            tick,
            quarantine: self.quarantine,
        })
    }
}

impl CollectEngine<SuSubmission> {
    /// Processes one delivered frame at `tick`. Returns the ack to
    /// relay when the frame settles a bidder (accepted or rejected);
    /// `None` for everything that a retransmission may still cover
    /// (corrupt copies, undecodable frames) or that needs no answer
    /// (duplicates, unknown bidders).
    pub fn ingest(
        &mut self,
        tick: u64,
        bytes: &[u8],
        journal: &mut Journal,
    ) -> Option<SubmissionAck> {
        let view = match decode_frame_exact(bytes) {
            Ok(frame) if frame.kind == FrameKind::Submission => {
                decode_submission(frame.payload).ok()
            }
            _ => None,
        };
        let Some(view) = view else {
            journal.append(JournalEntry::FrameRejected { tick });
            return None;
        };
        self.settle(tick, view.bidder(), journal, || {
            (view.computed_checksum() == view.declared_checksum())
                .then(|| view.materialize().map(|(submission, attempt, _)| (submission, attempt)))
        })
    }
}

/// Encodes one submission as a complete frame: the [`lppa::wire`]
/// payload behind a [`FrameKind::Submission`] header, seq stamped with
/// the attempt number, written into one buffer of the exact size.
pub fn encode_submission_frame(bidder: usize, attempt: u32, sub: &SuSubmission) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + submission_payload_len(sub));
    write_frame(FrameKind::Submission, u64::from(attempt), &mut frame, |out| {
        encode_submission(bidder, attempt, sub.checksum(), sub, out);
    });
    frame
}

/// Runs one complete round over encoded frames through the simulated
/// chaos link — the in-process reference the socket round must match
/// fingerprint-for-fingerprint under the same seeds.
///
/// # Errors
///
/// [`LppaError::QuorumNotReached`] below the configured quorum;
/// [`LppaError::Internal`] for table inconsistencies.
pub fn run_wire_round(
    ttp: &Ttp,
    config: SessionConfig,
    submissions: &[SuSubmission],
    seed: u64,
) -> Result<SessionOutcome, LppaError> {
    simulate_round(
        ttp,
        &config,
        submissions,
        seed,
        encode_submission_frame,
        |frame, rng| corrupt_frame(frame, rng),
        |engine: &mut CollectEngine<SuSubmission>, tick, frame, journal| {
            engine.ingest(tick, &frame, journal)
        },
    )
}

/// The one in-process round, behind [`run_wire_round`] and
/// [`crate::session::AuctionSession::run`]: bidders send on their
/// [`BidderSendState`] schedules through a seeded [`SimTransport`] of
/// `M`s, one [`CollectEngine`] receives and commits, and
/// [`finish_round`] settles through the in-process TTP. `package`
/// builds a send, `corrupt` is the link's damage model and `ingest`
/// hands a delivery to the engine.
pub(crate) fn simulate_round<'s, M: Clone, S: Borrow<SuSubmission>>(
    ttp: &Ttp,
    config: &SessionConfig,
    submissions: &'s [SuSubmission],
    seed: u64,
    package: impl Fn(usize, u32, &'s SuSubmission) -> M,
    mut corrupt: impl FnMut(&mut M, &mut StdRng),
    ingest: impl Fn(&mut CollectEngine<S>, u64, M, &mut Journal) -> Option<SubmissionAck>,
) -> Result<SessionOutcome, LppaError> {
    let (transport_seed, _, _) = derive_seeds(seed);
    let n = submissions.len();
    let mut journal = Journal::new();
    journal.append(JournalEntry::PhaseEntered { phase: Phase::Announce, tick: 0 });
    journal.append(JournalEntry::PhaseEntered { phase: Phase::Collect, tick: 0 });

    let mut link = SimTransport::new(config.faults, transport_seed);
    let mut senders = vec![BidderSendState::new(); n];
    let mut engine = CollectEngine::new(n, ttp.n_channels(), *ttp.config());
    for tick in 0..=config.collect_deadline {
        for (i, sub) in submissions.iter().enumerate() {
            if let Some(attempt) = senders[i].should_send(tick, config) {
                link.send(tick, package(i, attempt, sub), &mut corrupt);
            }
        }
        for msg in link.deliver(tick) {
            if let Some(ack) = ingest(&mut engine, tick, msg, &mut journal) {
                senders[ack.bidder].mark_done();
            }
        }
    }
    link.flush();
    let committed = engine.commit(&senders, config, seed, journal)?;
    finish_round(config, LocalTtp(ttp), n, committed, link.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultConfig;
    use crate::frame::encode_frame;
    use crate::session::AuctionSession;
    use lppa::protocol::build_submissions;
    use lppa::zero_replace::ZeroReplacePolicy;
    use lppa_auction::bidder::Location;
    use lppa_rng::rngs::StdRng;
    use lppa_rng::SeedableRng;

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

    #[test]
    fn reliable_wire_round_matches_typed_round() {
        let (ttp, submissions) = setup(4);
        let config = SessionConfig::default();
        let typed = AuctionSession::new(&ttp, config).run(&submissions, 7).unwrap();
        let wired = run_wire_round(&ttp, config, &submissions, 7).unwrap();
        assert_eq!(typed.fingerprint(), wired.fingerprint());
        assert_eq!(typed.accepted, wired.accepted);
        assert_eq!(typed.outcome.revenue(), wired.outcome.revenue());
    }

    #[test]
    fn chaotic_wire_round_replays_identically() {
        let (ttp, submissions) = setup(6);
        let config = SessionConfig {
            faults: FaultConfig::chaotic(),
            min_accepted: 1,
            ..SessionConfig::default()
        };
        let a = run_wire_round(&ttp, config, &submissions, 1234).unwrap();
        let b = run_wire_round(&ttp, config, &submissions, 1234).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.journal.fingerprint(), b.journal.fingerprint());
        let c = run_wire_round(&ttp, config, &submissions, 1235).unwrap();
        assert_ne!(a.journal.fingerprint(), c.journal.fingerprint());
    }

    #[test]
    fn wire_journal_resumes_to_identical_fingerprint() {
        let (ttp, submissions) = setup(5);
        let config = SessionConfig {
            faults: FaultConfig::chaotic(),
            min_accepted: 1,
            ..SessionConfig::default()
        };
        let full = run_wire_round(&ttp, config, &submissions, 42).unwrap();
        let resumed =
            AuctionSession::new(&ttp, config).resume(&submissions, &full.journal).unwrap();
        assert_eq!(full.fingerprint(), resumed.fingerprint());
    }

    #[test]
    fn send_state_mirrors_the_typed_schedule() {
        let config = SessionConfig { retry_backoff: 2, max_retries: 2, ..SessionConfig::default() };
        let mut state = BidderSendState::new();
        let mut sent = Vec::new();
        for tick in 0..=16 {
            if let Some(attempt) = state.should_send(tick, &config) {
                sent.push((tick, attempt));
            }
        }
        // Backoff: 2 << 0, 2 << 1, 2 << 2 → sends at 0, 2, 6, then the
        // attempt cap (max_retries + 1 total sends) stops the loop. Every
        // simulated sender, typed or framed, runs this schedule.
        assert_eq!(sent, vec![(0, 1), (2, 2), (6, 3)]);
        let mut done = BidderSendState::new();
        assert!(done.should_send(0, &config).is_some());
        done.mark_done();
        assert!(done.should_send(10, &config).is_none());
        assert_eq!(done.attempts(), 1);
    }

    #[test]
    fn engine_rejects_garbage_and_quarantines_bad_senders() {
        let (ttp, submissions) = setup(2);
        let mut journal = Journal::new();
        let mut engine = CollectEngine::new(2, ttp.n_channels(), *ttp.config());

        // Pure garbage: frame-rejected, no ack.
        assert!(engine.ingest(1, &[0xFF; 40], &mut journal).is_none());
        // A non-submission frame: frame-rejected.
        let stray = encode_frame(FrameKind::TickStart, 0, &crate::frame::encode_tick_start(1));
        assert!(engine.ingest(1, &stray, &mut journal).is_none());
        // A checksum mismatch: corrupt-discarded, no ack.
        let mut bad = encode_submission_frame(0, 1, &submissions[0]);
        let len = bad.len();
        bad[len - 1] ^= 0x01;
        assert!(engine.ingest(1, &bad, &mut journal).is_none());
        // The honest copy still lands.
        let good = encode_submission_frame(0, 2, &submissions[0]);
        assert_eq!(
            engine.ingest(2, &good, &mut journal),
            Some(SubmissionAck { bidder: 0, accepted: true })
        );
        // And a duplicate is ignored without an ack.
        let dup = encode_submission_frame(0, 3, &submissions[0]);
        assert!(engine.ingest(3, &dup, &mut journal).is_none());

        let mut senders = vec![BidderSendState::new(); 2];
        let config = SessionConfig::default();
        senders[0].should_send(0, &config);
        senders[0].should_send(2, &config);
        let committed = engine.commit(&senders, &config, 5, journal).unwrap();
        assert_eq!(committed.accepted, vec![0]);
        assert_eq!(committed.submissions.len(), 1);
        assert!(committed.quarantine.contains(1), "silent bidder quarantined at close");
        assert_eq!(
            (committed.auction_seed, committed.ttp_seed),
            (derive_seeds(5).1, derive_seeds(5).2)
        );
        let rendered = committed.journal.to_string();
        assert!(rendered.contains("FrameRejected"), "{rendered}");
        assert!(rendered.contains("CorruptDiscarded"), "{rendered}");
        assert!(rendered.contains("DuplicateIgnored"), "{rendered}");
    }
}
