//! One full LPPA round over real sockets, in lockstep with the
//! simulated transport.
//!
//! The determinism argument: every decision the auctioneer takes is a
//! function of `(submission bytes, arrival order, seeded RNG draws)`.
//! The socket round pins all three to the simulated wire round's
//! values:
//!
//! * **Bytes** — bidders send [`encode_submission_frame`] output
//!   verbatim over TCP; the auctioneer feeds the received bytes into
//!   the same seeded chaos ingress ([`SimTransport<Vec<u8>>`]) the
//!   simulation uses, so drops/duplicates/corruption/delays replay the
//!   identical schedule.
//! * **Order** — a lockstep tick protocol (`TickStart` → at most one
//!   submission per bidder → `TickDone` barrier) lets the auctioneer
//!   ingest each tick's sends sorted by bidder index, which is exactly
//!   the simulation's send order.
//! * **RNG** — all three seeds come from
//!   [`lppa_session::derive_seeds`], and the charge phase drains
//!   through the same seeded [`lppa_session::TtpLink`] machinery, with
//!   the TTP on the far side of a [`FramedConn`] instead of in
//!   process.
//!
//! A socket session killed mid-phase resumes from its journal (plus
//! the collected submissions) to the byte-identical fingerprint — the
//! oracle's `wire_socket_equivalence` invariant and the CI `net-smoke`
//! job both enforce this against the [`lppa_session::run_wire_round`]
//! reference.

use std::net::{SocketAddr, TcpListener};
use std::thread;

use lppa::protocol::SuSubmission;
use lppa::ttp::{ChargeDecision, ChargeRequest, Ttp};
use lppa::wire::{
    decode_charge_request, decode_charge_verdict, encode_charge_request, encode_charge_verdict,
    verdict_of,
};
use lppa::{LppaConfig, LppaError};
use lppa_session::frame::{
    decode_announce, decode_collect_closed, decode_settled, decode_sub_ack, decode_tick_done,
    decode_tick_start, encode_announce, encode_bye, encode_collect_closed, encode_hello,
    encode_settled, encode_sub_ack, encode_tick_start, Announce, FrameKind, Hello,
};
use lppa_session::{
    allocate_round, derive_seeds, encode_submission_frame, finish_round, recover_collect,
    BidderSendState, ChargeBackend, CollectEngine, FrameTransport, Journal, JournalEntry, Phase,
    SessionConfig, SessionOutcome, SimTransport, TransportStats,
};

use crate::config::NetConfig;
use crate::conn::{FramedConn, NetError, WireStats};

impl From<LppaError> for NetError {
    fn from(err: LppaError) -> Self {
        NetError::Protocol(format!("session error: {err}"))
    }
}

/// The public round parameters the auctioneer needs — everything a
/// round announcement carries, never the TTP's keys.
#[derive(Clone, Debug)]
pub struct RoundSpec {
    /// Session master seed.
    pub seed: u64,
    /// Session tuning (fault profile drives the chaos ingress).
    pub session: SessionConfig,
    /// Public auction configuration, for structural validation.
    pub lppa: LppaConfig,
    /// Registered bidder count.
    pub n_bidders: usize,
    /// Auctioned channel count.
    pub n_channels: usize,
}

/// Where to simulate an auctioneer crash.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KillPoint {
    /// Die at the start of the given collect tick, before its sends.
    MidCollect {
        /// The collect tick that never runs.
        tick: u64,
    },
    /// Die during the charge phase, after the TTP answered `served`
    /// requests but before anything settled.
    MidCharge {
        /// Charge requests completed before the crash.
        served: usize,
    },
}

/// What an auctioneer that died after committing collect persists: the
/// journal prefix (through `CollectCommitted`) plus the accepted
/// submissions — together sufficient to resume to the identical
/// outcome, with every already-answered charge re-requested
/// idempotently.
#[derive(Debug)]
pub struct AuctioneerCheckpoint {
    /// Journal through the `CollectCommitted` entry.
    pub journal: Journal,
    /// Accepted original indices, ascending.
    pub accepted: Vec<usize>,
    /// The accepted submissions, parallel to `accepted`.
    pub accepted_submissions: Vec<SuSubmission>,
}

/// How a (possibly killed) auctioneer run ended.
#[derive(Debug)]
pub enum AuctioneerRun {
    /// The round settled normally.
    Settled(Box<SessionOutcome>),
    /// Killed before collect committed: nothing recoverable, rerun the
    /// round from the same seed.
    KilledInCollect,
    /// Killed after collect committed: resume from the checkpoint.
    KilledInCharge(AuctioneerCheckpoint),
}

/// The remote TTP as a [`ChargeBackend`]: each decision is one
/// request/verdict round trip over the framed connection, slot-stamped
/// so verdicts cannot be misattributed.
#[derive(Debug)]
pub struct RemoteTtp<'a> {
    conn: &'a mut FramedConn,
    next_slot: u32,
}

impl<'a> RemoteTtp<'a> {
    /// A backend speaking to the TTP node on `conn`.
    pub fn new(conn: &'a mut FramedConn) -> Self {
        Self { conn, next_slot: 0 }
    }
}

fn link_err(err: NetError) -> LppaError {
    LppaError::Internal { what: format!("ttp link: {err}") }
}

impl ChargeBackend for RemoteTtp<'_> {
    fn decide(&mut self, request: &ChargeRequest) -> Result<ChargeDecision, LppaError> {
        let slot = self.next_slot;
        self.next_slot += 1;
        let mut payload = Vec::new();
        encode_charge_request(slot, request, &mut payload);
        self.conn.send(FrameKind::ChargeRequest, &payload).map_err(link_err)?;
        let frame = self.conn.expect(FrameKind::ChargeVerdict).map_err(link_err)?;
        let (got, verdict) = decode_charge_verdict(&frame.payload)
            .map_err(|err| LppaError::Internal { what: format!("ttp verdict: {err}") })?;
        if got != slot {
            return Err(LppaError::Internal {
                what: format!("ttp verdict for slot {got}, expected {slot}"),
            });
        }
        verdict.into_result()
    }
}

/// The TTP node's serve loop: answer `ChargeRequest` frames with
/// `ChargeVerdict` frames until the auctioneer says `Bye` (or drops
/// the connection). Returns how many requests were answered.
/// Re-requested slots are answered again — `Ttp::open_charge` is
/// deterministic, which is what makes the resend path idempotent.
///
/// # Errors
///
/// Hostile frames or unrepresentable verdicts.
pub fn serve_ttp(conn: &mut FramedConn, ttp: &Ttp) -> Result<u64, NetError> {
    let mut served = 0u64;
    loop {
        let frame = match conn.recv_new() {
            Ok(frame) => frame,
            Err(NetError::Closed | NetError::Timeout) => return Ok(served),
            Err(err) => return Err(err),
        };
        match frame.kind {
            FrameKind::Bye => return Ok(served),
            FrameKind::ChargeRequest => {
                let view = decode_charge_request(&frame.payload)
                    .map_err(|err| NetError::Protocol(format!("charge request: {err}")))?;
                let slot = view.slot;
                let request = view.materialize()?;
                let decision = ttp.open_charge(&request);
                let verdict = verdict_of(&decision)?;
                let mut payload = Vec::new();
                encode_charge_verdict(slot, verdict, &mut payload);
                conn.send(FrameKind::ChargeVerdict, &payload)?;
                served += 1;
            }
            other => {
                return Err(NetError::Protocol(format!("ttp received {other:?} frame")));
            }
        }
    }
}

/// One bidder's client loop: connect, introduce, then follow the
/// lockstep clock — sending on the deterministic
/// [`BidderSendState`] schedule until acknowledged. Returns the settled
/// fingerprint the auctioneer announced, or `None` if the auctioneer
/// went away first (a crash the session layer recovers from).
///
/// # Errors
///
/// Connection setup failures and protocol violations.
pub fn run_bidder(
    addr: SocketAddr,
    id: usize,
    submission: &SuSubmission,
    session: &SessionConfig,
    net: &NetConfig,
) -> Result<Option<u64>, NetError> {
    let mut conn = FramedConn::connect(addr, net)?;
    conn.send(FrameKind::Hello, &encode_hello(Hello { role: 0, id: id as u32 }))?;
    let announce = conn.expect(FrameKind::Announce)?;
    decode_announce(&announce.payload)?;
    let mut state = BidderSendState::new();
    loop {
        let frame = match conn.recv_new() {
            Ok(frame) => frame,
            // The auctioneer died (or moved on without us): nothing
            // more to do here, the session layer owns recovery.
            Err(NetError::Closed) => return Ok(None),
            Err(err) => return Err(err),
        };
        match frame.kind {
            FrameKind::TickStart => {
                let tick = decode_tick_start(&frame.payload)?;
                if let Some(attempt) = state.should_send(tick, session) {
                    conn.send_raw(&encode_submission_frame(id, attempt, submission))?;
                }
                conn.send(
                    FrameKind::TickDone,
                    &lppa_session::frame::encode_tick_done(tick, id as u32),
                )?;
            }
            FrameKind::SubAck => {
                let (bidder, _accepted) = decode_sub_ack(&frame.payload)?;
                if bidder as usize == id {
                    state.mark_done();
                }
            }
            FrameKind::CollectClosed => {
                decode_collect_closed(&frame.payload)?;
            }
            FrameKind::Settled => {
                let fingerprint = decode_settled(&frame.payload)?;
                return Ok(Some(fingerprint));
            }
            FrameKind::Bye => return Ok(None),
            other => {
                return Err(NetError::Protocol(format!("bidder received {other:?} frame")));
            }
        }
    }
}

/// The peers an auctioneer accepted: bidder connections indexed by id,
/// plus the TTP connection.
struct Peers {
    bidders: Vec<FramedConn>,
    ttp: FramedConn,
}

/// Accepts `n_bidders` bidder connections and one TTP connection, in
/// any arrival order, identified by their `Hello` frames.
fn accept_peers(
    listener: &TcpListener,
    n_bidders: usize,
    net: &NetConfig,
) -> Result<Peers, NetError> {
    let mut bidders: Vec<Option<FramedConn>> = (0..n_bidders).map(|_| None).collect();
    let mut ttp = None;
    for _ in 0..=n_bidders {
        let (stream, _) = listener.accept().map_err(NetError::from)?;
        let mut conn = FramedConn::from_stream(stream, net)?;
        let frame = conn.expect(FrameKind::Hello)?;
        let hello = lppa_session::frame::decode_hello(&frame.payload)?;
        match hello.role {
            0 => {
                let id = hello.id as usize;
                let slot = bidders.get_mut(id).ok_or_else(|| {
                    NetError::Protocol(format!("bidder id {id} outside the announced fleet"))
                })?;
                if slot.replace(conn).is_some() {
                    return Err(NetError::Protocol(format!("bidder id {id} connected twice")));
                }
            }
            _ => {
                if ttp.replace(conn).is_some() {
                    return Err(NetError::Protocol("two TTP nodes connected".into()));
                }
            }
        }
    }
    let bidders = bidders
        .into_iter()
        .enumerate()
        .map(|(id, slot)| {
            slot.ok_or_else(|| NetError::Protocol(format!("bidder {id} never connected")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let ttp = ttp.ok_or_else(|| NetError::Protocol("no TTP node connected".into()))?;
    Ok(Peers { bidders, ttp })
}

/// The auctioneer's side of one socket round. Holds no TTP keys — only
/// the public [`RoundSpec`] — and charges through the connected TTP
/// node. `kill` simulates a crash at the given point.
///
/// # Errors
///
/// Connection failures, protocol violations, and session errors
/// (quorum, table inconsistencies).
pub fn serve_auctioneer(
    listener: &TcpListener,
    spec: &RoundSpec,
    net: &NetConfig,
    kill: Option<KillPoint>,
) -> Result<AuctioneerRun, NetError> {
    let n = spec.n_bidders;
    let mut peers = accept_peers(listener, n, net)?;
    let (transport_seed, _, _) = derive_seeds(spec.seed);

    let mut journal = Journal::new();
    journal.append(JournalEntry::PhaseEntered { phase: Phase::Announce, tick: 0 });
    let announce =
        Announce { seed: spec.seed, n_bidders: n as u32, channels: spec.n_channels as u32 };
    for conn in &mut peers.bidders {
        conn.send(FrameKind::Announce, &encode_announce(announce))?;
    }
    journal.append(JournalEntry::PhaseEntered { phase: Phase::Collect, tick: 0 });

    // The seeded chaos ingress: every received submission frame passes
    // through it, so the socket round suffers exactly the simulated
    // round's drop/duplicate/corrupt/delay schedule.
    let mut ingress: SimTransport<Vec<u8>> = SimTransport::new(spec.session.faults, transport_seed);
    let mut engine = CollectEngine::new(n, spec.n_channels, spec.lppa);
    let mut mirrors = vec![BidderSendState::new(); n];

    for tick in 0..=spec.session.collect_deadline {
        if kill == Some(KillPoint::MidCollect { tick }) {
            // Crash: drop every connection on the floor. Nothing was
            // committed, so the documented recovery is a rerun from the
            // same seed.
            return Ok(AuctioneerRun::KilledInCollect);
        }
        // Mirror each bidder's deterministic send schedule so the
        // deadline quarantine can count attempts without trusting the
        // wire.
        let expecting: Vec<bool> =
            mirrors.iter_mut().map(|m| m.should_send(tick, &spec.session).is_some()).collect();
        for conn in &mut peers.bidders {
            conn.send(FrameKind::TickStart, &encode_tick_start(tick))?;
        }
        // Gather this tick's sends: each bidder answers with at most
        // one submission frame, then its TickDone barrier. Iterating
        // bidders in index order feeds the ingress in exactly the
        // simulation's send order.
        for (i, conn) in peers.bidders.iter_mut().enumerate() {
            loop {
                let frame = conn.recv()?;
                match frame.kind {
                    FrameKind::TickDone => {
                        let (done_tick, bidder) = decode_tick_done(&frame.payload)?;
                        if done_tick != tick || bidder as usize != i {
                            return Err(NetError::Protocol(format!(
                                "bidder {i} barrier out of step: tick {done_tick}, id {bidder}"
                            )));
                        }
                        break;
                    }
                    FrameKind::Submission => {
                        if !expecting[i] {
                            return Err(NetError::Protocol(format!(
                                "bidder {i} sent outside its schedule at tick {tick}"
                            )));
                        }
                        ingress.send_frame(tick, frame.raw);
                    }
                    other => {
                        return Err(NetError::Protocol(format!(
                            "bidder {i} sent {other:?} during collect"
                        )));
                    }
                }
            }
        }
        // Deliver whatever the chaos schedule releases this tick and
        // ack the settled bidders (accepted or rejected — both stop
        // the resend loop, next tick, on both sides of the wire).
        for bytes in ingress.poll_frames(tick) {
            if let Some(ack) = engine.ingest(tick, &bytes, &mut journal) {
                mirrors[ack.bidder].mark_done();
                peers.bidders[ack.bidder]
                    .send(FrameKind::SubAck, &encode_sub_ack(ack.bidder as u32, ack.accepted))?;
            }
        }
    }
    ingress.flush_frames();
    let stats: TransportStats = ingress.frame_stats();
    let committed = engine.commit(&mirrors, &spec.session, spec.seed, journal)?;
    for conn in &mut peers.bidders {
        conn.send(FrameKind::CollectClosed, &encode_collect_closed(committed.tick))?;
    }

    if let Some(KillPoint::MidCharge { served }) = kill {
        // Exercise real TTP round trips, then crash before anything
        // settles. The checkpoint is exactly what a persistent
        // auctioneer would have fsynced: the journal through
        // CollectCommitted plus the collected submissions. The answered
        // charges are deliberately *not* persisted — resume re-requests
        // every slot and the TTP answers idempotently.
        let (_, _, requests) =
            allocate_round(&spec.session, &committed.submissions, committed.auction_seed)?;
        let mut remote = RemoteTtp::new(&mut peers.ttp);
        for request in requests.iter().take(served) {
            // Verdicts are discarded — the crash loses them.
            let _ = remote.decide(request);
        }
        return Ok(AuctioneerRun::KilledInCharge(AuctioneerCheckpoint {
            journal: committed.journal,
            accepted: committed.accepted,
            accepted_submissions: committed.submissions,
        }));
    }

    let outcome = finish_round(&spec.session, RemoteTtp::new(&mut peers.ttp), n, committed, stats)?;
    let fingerprint = outcome.fingerprint();
    for conn in &mut peers.bidders {
        conn.send(FrameKind::Settled, &encode_settled(fingerprint))?;
        conn.send(FrameKind::Bye, &encode_bye(0))?;
    }
    peers.ttp.send(FrameKind::Bye, &encode_bye(0))?;
    Ok(AuctioneerRun::Settled(Box::new(outcome)))
}

/// Resumes a socket session from an [`AuctioneerCheckpoint`] over a
/// fresh TTP connection: quarantine decisions are recovered from the
/// journal prefix, the allocation and charge phases replay from the
/// committed seeds, and every charge slot — including any the crashed
/// run already asked about — is re-requested idempotently.
///
/// # Errors
///
/// A checkpoint without a committed collect phase, one whose accepted
/// set or submissions disagree with its journal, or link/session
/// failures.
pub fn resume_from_checkpoint<B: ChargeBackend>(
    checkpoint: &AuctioneerCheckpoint,
    session: &SessionConfig,
    n_bidders: usize,
    backend: B,
) -> Result<SessionOutcome, NetError> {
    let committed = recover_collect(&checkpoint.journal, |accepted| {
        if accepted != checkpoint.accepted {
            return Err(LppaError::Internal {
                what: "checkpoint accepted set disagrees with journal".into(),
            });
        }
        Ok(checkpoint.accepted_submissions.iter().collect())
    })?;
    Ok(finish_round(session, backend, n_bidders, committed, TransportStats::default())?)
}

/// Runs one complete round over loopback sockets: binds a listener,
/// spawns every bidder and the TTP node as threads, and returns the
/// auctioneer's settled outcome. The in-process convenience wrapper
/// the oracle, the tests and `net_round` all share; the standalone
/// binaries run the same role functions across real processes.
///
/// # Errors
///
/// Whatever any role failed with.
pub fn run_socket_round(
    ttp: &Ttp,
    session: SessionConfig,
    submissions: &[SuSubmission],
    seed: u64,
    net: &NetConfig,
) -> Result<SessionOutcome, NetError> {
    match run_socket_round_with_kill(ttp, session, submissions, seed, net, None)? {
        AuctioneerRun::Settled(outcome) => Ok(*outcome),
        killed => Err(NetError::Protocol(format!("unexpected kill outcome: {killed:?}"))),
    }
}

/// As [`run_socket_round`], optionally crashing the auctioneer at
/// `kill` — the harness behind the interrupted-session determinism
/// tests.
///
/// # Errors
///
/// As [`run_socket_round`].
pub fn run_socket_round_with_kill(
    ttp: &Ttp,
    session: SessionConfig,
    submissions: &[SuSubmission],
    seed: u64,
    net: &NetConfig,
    kill: Option<KillPoint>,
) -> Result<AuctioneerRun, NetError> {
    let listener = TcpListener::bind((net.addr.as_str(), net.port)).map_err(NetError::Io)?;
    let addr = listener.local_addr().map_err(NetError::Io)?;
    let spec = RoundSpec {
        seed,
        session,
        lppa: *ttp.config(),
        n_bidders: submissions.len(),
        n_channels: ttp.n_channels(),
    };
    thread::scope(|scope| {
        let bidder_handles: Vec<_> = submissions
            .iter()
            .enumerate()
            .map(|(id, submission)| {
                let session = &spec.session;
                scope.spawn(move || run_bidder(addr, id, submission, session, net))
            })
            .collect();
        let ttp_handle = scope.spawn(move || {
            let mut conn = FramedConn::connect(addr, net)?;
            conn.send(FrameKind::Hello, &encode_hello(Hello { role: 1, id: 0 }))?;
            serve_ttp(&mut conn, ttp)
        });
        let run = serve_auctioneer(&listener, &spec, net, kill);
        // A killed auctioneer dropped its connections; every peer
        // unwinds through `Closed`. Joining keeps the scope clean and
        // surfaces genuine peer errors.
        for (id, handle) in bidder_handles.into_iter().enumerate() {
            match handle.join() {
                Ok(Ok(_)) => {}
                Ok(Err(err)) => {
                    return Err(NetError::Protocol(format!("bidder {id} failed: {err}")))
                }
                Err(_) => return Err(NetError::Protocol(format!("bidder {id} panicked"))),
            }
        }
        match ttp_handle.join() {
            Ok(Ok(_served)) => {}
            Ok(Err(err)) => return Err(NetError::Protocol(format!("ttp node failed: {err}"))),
            Err(_) => return Err(NetError::Protocol("ttp node panicked".into())),
        }
        run
    })
}

/// Resumes a killed socket session over a fresh loopback TTP
/// connection — the full recovery path: new listener, new TTP node
/// thread, every charge slot re-requested.
///
/// # Errors
///
/// As [`resume_from_checkpoint`].
pub fn resume_socket_round(
    ttp: &Ttp,
    session: SessionConfig,
    n_bidders: usize,
    checkpoint: &AuctioneerCheckpoint,
    net: &NetConfig,
) -> Result<SessionOutcome, NetError> {
    let listener = TcpListener::bind((net.addr.as_str(), net.port)).map_err(NetError::Io)?;
    let addr = listener.local_addr().map_err(NetError::Io)?;
    thread::scope(|scope| {
        let ttp_handle = scope.spawn(move || {
            let mut conn = FramedConn::connect(addr, net)?;
            conn.send(FrameKind::Hello, &encode_hello(Hello { role: 1, id: 0 }))?;
            serve_ttp(&mut conn, ttp)
        });
        let (stream, _) = listener.accept().map_err(NetError::from)?;
        let mut conn = FramedConn::from_stream(stream, net)?;
        let hello_frame = conn.expect(FrameKind::Hello)?;
        let hello = lppa_session::frame::decode_hello(&hello_frame.payload)?;
        if hello.role != 1 {
            return Err(NetError::Protocol("resume expected a TTP node".into()));
        }
        let outcome =
            resume_from_checkpoint(checkpoint, &session, n_bidders, RemoteTtp::new(&mut conn));
        conn.send(FrameKind::Bye, &encode_bye(0))?;
        match ttp_handle.join() {
            Ok(Ok(_)) => {}
            Ok(Err(err)) => return Err(NetError::Protocol(format!("ttp node failed: {err}"))),
            Err(_) => return Err(NetError::Protocol("ttp node panicked".into())),
        }
        outcome
    })
}

/// Aggregate wire counters helper for reporting bins: merges per-peer
/// [`WireStats`] into one record.
pub fn merge_wire_stats<'a>(stats: impl IntoIterator<Item = &'a WireStats>) -> WireStats {
    let mut total = WireStats::default();
    for s in stats {
        total.merge(s);
    }
    total
}
