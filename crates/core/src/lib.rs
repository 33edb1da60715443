//! # LPPA — Location Privacy Preserving Dynamic Spectrum Auction
//!
//! A faithful reproduction of *"Location Privacy Preserving Dynamic
//! Spectrum Auction in Cognitive Radio Network"* (Liu, Zhu, Du, Chen,
//! Guan — ICDCS 2013).
//!
//! Dynamic spectrum auctions require bidders to reveal their locations
//! (for the interference conflict graph) and their bids (for winner
//! selection); the paper shows a curious auctioneer can geo-locate
//! bidders from either (the BCM and BPM attacks, implemented in the
//! `lppa-attack` crate). LPPA closes both channels:
//!
//! * [`ppbs`] — **Privacy Preserving Bid Submission**: prefix-membership
//!   masked locations ([`ppbs::location`]) and bids ([`ppbs::bid`]) that
//!   let the auctioneer build the conflict graph and find per-channel
//!   maxima without seeing any plaintext;
//! * [`psd`] — **Private Spectrum Distribution**: the greedy allocation
//!   driven by masked comparisons ([`psd::table`], one table for every
//!   masking backend), plus first-price charging through a
//!   periodically-online TTP ([`ttp`]);
//! * [`zero_replace`] — the per-bidder disguise policies that blunt the
//!   BCM attack at a quantifiable performance cost;
//! * [`analysis`] — the paper's Theorems 1–4 with Monte-Carlo
//!   validators;
//! * [`protocol`] — the end-to-end auction round:
//!   [`protocol::build_submissions`] on the bidder side, then
//!   [`protocol::run_private_auction_with_model`] (or
//!   [`backend::run_private_auction_with_backend`] for Vickrey
//!   settlement and the audit ledger) on the auctioneer side;
//! * [`incremental`] — delta-maintained auctioneer state for churn
//!   (joins/leaves/revisions between rounds), bit-identical to a
//!   from-scratch rebuild.
//!
//! # Examples
//!
//! A complete private auction with three bidders and two channels:
//!
//! ```
//! use lppa::protocol::{build_submissions, run_private_auction_with_model, AuctioneerModel};
//! use lppa::ttp::Ttp;
//! use lppa::zero_replace::ZeroReplacePolicy;
//! use lppa::LppaConfig;
//! use lppa_auction::bidder::Location;
//! use lppa_rng::SeedableRng;
//!
//! # fn main() -> Result<(), lppa::LppaError> {
//! let mut rng = lppa_rng::rngs::StdRng::seed_from_u64(1);
//! let config = LppaConfig::default();
//! let ttp = Ttp::new(2, config, &mut rng)?;
//! let policy = ZeroReplacePolicy::geometric(0.3, 0.8, config.bid_max());
//!
//! let bidders = vec![
//!     (Location::new(10, 10), vec![40, 0]),
//!     (Location::new(90, 90), vec![25, 60]),
//!     (Location::new(11, 11), vec![55, 10]),
//! ];
//! let submissions = build_submissions(&bidders, &ttp, &policy, &mut rng)?;
//! let result =
//!     run_private_auction_with_model(&submissions, &ttp, AuctioneerModel::default(), &mut rng)?;
//! println!("revenue: {}", result.outcome.revenue());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod arena;
pub mod backend;
pub mod config;
pub mod error;
pub mod incremental;
pub mod ppbs;
pub mod protocol;
pub mod psd;
pub mod pseudonym;
pub mod rounds;
pub mod ttp;
pub mod wire;
pub mod zero_replace;

pub use analysis::{cost_model, CostModel};
pub use backend::{
    bloom_probe_stats, run_private_auction_with_backend, settle_ledger, BackendAuctionResult,
    BloomProbeStats, RoundLedger,
};
pub use config::LppaConfig;
pub use error::LppaError;
pub use incremental::IncrementalAuctioneer;
pub use ppbs::bid::{AdvancedBidSubmission, BasicBidSubmission, ChannelBid};
pub use ppbs::location::{build_conflict_graph, LocationSubmission};
pub use protocol::{
    charge_requests, run_private_auction_with_model, validate_submission, validate_submission_with,
    AuctioneerModel, PrivateAuctionResult, SuSubmission,
};
pub use psd::table::{backend_classes, MaskedBidTable};
pub use pseudonym::PseudonymPool;
pub use rounds::{RoundDriver, RoundResult};
pub use ttp::{BidderKeys, ChargeDecision, ChargeRequest, Ttp};
pub use wire::{
    decode_charge_request, decode_charge_verdict, decode_submission, encode_charge_request,
    encode_charge_verdict, encode_submission, verdict_of, SubmissionView, WireError, WireVerdict,
};
pub use zero_replace::ZeroReplacePolicy;
