//! # lppa-session — fault-tolerant auction rounds
//!
//! The core `lppa` crate proves the LPPA protocol *correct* on a
//! perfect network; this crate proves it *survivable* on a broken one.
//! It runs one auction round as a deterministic discrete-event
//! simulation:
//!
//! * [`transport::SimTransport`] — an unreliable datagram link with
//!   seeded fault injection: drop, duplicate, corrupt, delay, reorder
//!   ([`fault::FaultConfig`]). Every chaos schedule replays exactly from
//!   its seed.
//! * [`session::AuctionSession`] — the `Announce → Collect → Allocate →
//!   Charge → Settle` state machine. Collect runs per-bidder deadlines
//!   with retry/backoff and commits with whoever made the deadline
//!   (quorum-configurable); malformed or manipulated submissions are
//!   quarantined per bidder ([`quarantine::QuarantineReport`]) instead
//!   of failing the round.
//! * [`wire_round::CollectEngine`] — the one collect receiver. Typed
//!   messages, simulated frames ([`wire_round::run_wire_round`]) and the
//!   socket round in `lppa-net` all collect and commit through it; every
//!   round then allocates through [`session::allocate_round`] and
//!   settles through [`session::finish_round`], and a journal is read
//!   back for recovery by [`session::recover_collect`].
//! * [`ttp_link::TtpLink`] — the periodically-online TTP of §V.C.2 as
//!   an availability schedule: charge requests queue while the TTP is
//!   away, drain in batches on reconnect, retry with backoff, and
//!   degrade to provisional allocation with deferred charging if the
//!   TTP misses its window.
//! * [`journal::Journal`] — an append-only decision log; an interrupted
//!   session resumes from its journal to the byte-identical outcome.
//! * [`chaos`] — the adversarial toolbox: in-flight corruption, ragged
//!   submissions, manipulated prices.
//!
//! Every knob has an `LPPA_CHAOS_*` environment override (see
//! [`fault::FaultConfig::with_env_overrides`] and
//! [`fault::chaos_seed`]); the CI chaos gate runs the same seeds twice
//! and diffs the journals.
//!
//! # Examples
//!
//! A round over a hostile network with a periodically-online TTP:
//!
//! ```
//! use lppa::protocol::build_submissions;
//! use lppa::zero_replace::ZeroReplacePolicy;
//! use lppa::{LppaConfig, Ttp};
//! use lppa_auction::bidder::Location;
//! use lppa_rng::rngs::StdRng;
//! use lppa_rng::SeedableRng;
//! use lppa_session::fault::FaultConfig;
//! use lppa_session::session::{AuctionSession, SessionConfig};
//! use lppa_session::ttp_link::TtpSchedule;
//!
//! # fn main() -> Result<(), lppa::LppaError> {
//! let mut rng = StdRng::seed_from_u64(7);
//! let ttp = Ttp::new(2, LppaConfig::default(), &mut rng)?;
//! let policy = ZeroReplacePolicy::never(ttp.config().bid_max());
//! let bidders = vec![
//!     (Location::new(10, 10), vec![40, 5]),
//!     (Location::new(90, 90), vec![25, 60]),
//! ];
//! let submissions = build_submissions(&bidders, &ttp, &policy, &mut rng)?;
//!
//! let config = SessionConfig {
//!     faults: FaultConfig::chaotic(),
//!     ttp_schedule: TtpSchedule { offline_until: 20, online: 2, offline: 5 },
//!     ..SessionConfig::default()
//! };
//! let outcome = AuctionSession::new(&ttp, config).run(&submissions, 42)?;
//! assert_eq!(outcome.fingerprint(),
//!            AuctionSession::new(&ttp, config).run(&submissions, 42)?.fingerprint());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod fault;
pub mod frame;
pub mod journal;
pub mod quarantine;
pub mod session;
pub mod transport;
pub mod ttp_link;
pub mod wire_round;

pub use fault::{chaos_seed, FaultConfig};
pub use frame::{
    decode_frame, decode_frame_exact, encode_frame, FrameError, FrameKind, FrameView,
    FRAME_HEADER_LEN, MAX_FRAME_PAYLOAD, WIRE_VERSION,
};
pub use journal::{Journal, JournalEntry, Phase};
pub use quarantine::{QuarantineReason, QuarantineReport};
pub use session::{
    allocate_round, derive_seeds, finish_round, recover_collect, AuctionSession, CommittedCollect,
    SessionConfig, SessionOutcome, SubmissionMsg,
};
pub use transport::{FrameTransport, SimTransport, TransportStats};
pub use ttp_link::{ChargeBackend, LocalTtp, TtpLink, TtpLinkConfig, TtpSchedule};
pub use wire_round::{
    encode_submission_frame, run_wire_round, BidderSendState, CollectEngine, SubmissionAck,
};
