//! # lppa-service — sharded multi-auction service layer
//!
//! Runs **many** LPPA regional auctions concurrently as a long-lived
//! service: bidders stream in over a channel to their area's shard
//! thread, which masks each one as it arrives and settles each area's
//! full Announce → Collect → Allocate → Charge → Settle state machine
//! (`lppa-session`) as soon as its last expected bidder is in. Areas
//! are the unit of concurrency: one area's round runs on the one thread
//! that owns its shard, and `LPPA_THREADS` sets the thread count, which
//! is also the shard count.
//!
//! The crate is organized as six modules:
//!
//! - [`shard`] — shard topology (one thread per shard) and the
//!   deterministic per-area ChaCha20 seed derivation everything else
//!   consumes.
//! - [`admission`] — per-area routing of arriving bidders, their seeds
//!   and their masking.
//! - [`service`] — the [`AuctionService`] with its shard threads and
//!   [`drain`](AuctionService::drain), and the unsharded
//!   [`run_sequential`] reference it must match bit for bit.
//! - [`churn`] — the sustained-churn path: persistent areas applying
//!   per-round join/leave/revise deltas through a resident
//!   `IncrementalAuctioneer`, fingerprint-equal to a full per-round
//!   rebuild.
//! - [`workload`] / [`metrics`] — synthetic fleet generation and the
//!   latency accounting used by the `load` harness in `lppa-bench`.
//!
//! ## Determinism contract
//!
//! For a fixed workload, the settled outcomes are **byte-identical**
//! across every `LPPA_THREADS` setting and equal to the sequential
//! reference. Scheduling moves timing, never results;
//! see [`shard`] for the derivation argument and `DESIGN.md` §10 for
//! the full write-up.

#![forbid(unsafe_code)]

pub mod admission;
pub mod churn;
pub mod metrics;
pub mod service;
pub mod shard;
pub mod workload;

pub use admission::{AreaState, BidderInput};
pub use churn::{run_churn, ChurnMode, ChurnReport, ChurnSpec};
pub use metrics::{LatencyRecorder, LatencySummary};
pub use service::{run_sequential, AreaOutcome, AuctionService, ServiceConfig, ServiceReport};
pub use shard::{area_seeds, master_secret, shard_of, AreaSeeds};
pub use workload::{AreaPlan, WorkloadSpec};
