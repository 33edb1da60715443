//! Baseline (non-private) dynamic spectrum auction.
//!
//! This crate implements the plaintext auction the LPPA paper starts
//! from and compares against:
//!
//! * [`bidder`] — secondary users, the `b = qβ + η` bid model and the
//!   plaintext bid table;
//! * [`conflict`] — the `2λ`-square interference conflict graph;
//! * [`allocation`] — the greedy channel-assignment engine
//!   (Algorithm 3), generic over a [`allocation::BidOracle`] so the LPPA
//!   crate can drive the same algorithm with masked comparisons;
//! * [`outcome`] — first-price charging, revenue and user satisfaction;
//! * [`runner`] — a one-call end-to-end baseline auction.
//!
//! # Examples
//!
//! ```
//! use lppa_auction::runner::{run_plain_auction, AuctionConfig};
//! use lppa_spectrum::area::AreaProfile;
//! use lppa_spectrum::synth::SyntheticMapBuilder;
//! use lppa_rng::SeedableRng;
//!
//! let map = SyntheticMapBuilder::new(AreaProfile::area3())
//!     .channels(10).seed(9).build();
//! let mut rng = lppa_rng::rngs::StdRng::seed_from_u64(1);
//! let auction = run_plain_auction(&map, &AuctionConfig::default(), &mut rng);
//! println!(
//!     "revenue {} satisfaction {:.2}",
//!     auction.outcome.revenue(),
//!     auction.outcome.satisfaction(),
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocation;
pub mod bidder;
pub mod conflict;
pub mod outcome;
pub mod pricing;
pub mod runner;

pub use allocation::{greedy_allocate, BidOracle, Grant};
pub use bidder::{generate_bidders, BidModel, BidTable, Bidder, BidderId, Location};
pub use conflict::ConflictGraph;
pub use outcome::{Assignment, AuctionOutcome};
pub use pricing::{charge_traced, greedy_allocate_traced, GrantTrace, PricingRule};
pub use runner::{run_plain_auction, AuctionConfig, PlainAuction};
