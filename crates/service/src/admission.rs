//! Admission: routing arriving bidders into an area and masking them.
//!
//! Bidder-side masking is the service's dominant cost (hundreds of
//! HMAC-SHA-256 tags per submission). The [`AreaState`] *buffers*
//! arriving bidders and builds their [`SuSubmission`]s on demand
//! ([`AreaState::flush`]), staged through one `MaskScratch` per area.
//! The service's shard thread routes every queued bidder first and,
//! whenever its inbox runs dry, masks each area's routed bidders
//! together ([`AreaState::flush_all`]), so masking follows the arrival
//! stream while one area's keys and scratch serve a run of its bidders;
//! each bidder's tags are batched inside `SuSubmission::build_in`, one
//! value under one key at a time.
//!
//! Determinism: each arriving bidder is assigned a child seed drawn
//! from the area's admission RNG **at routing time, in arrival
//! order**. Flush sizes, shard placement and thread count can then vary
//! freely with `LPPA_THREADS` without moving a single masked bit,
//! because each submission derives only from its own `(seed, input)`
//! pair.

use std::time::Instant;

use lppa::arena::MaskScratch;
use lppa::protocol::SuSubmission;
use lppa::ttp::Ttp;
use lppa::zero_replace::ZeroReplacePolicy;
use lppa::LppaError;
use lppa_auction::bidder::Location;
use lppa_rng::rngs::StdRng;
use lppa_rng::{RngCore, SeedableRng};

/// One bidder's request to join a regional auction.
#[derive(Clone, Debug, PartialEq)]
pub struct BidderInput {
    /// The regional auction (area) this bidder participates in.
    pub area: u32,
    /// The bidder's true location (masked on admission).
    pub location: Location,
    /// Raw per-channel bids.
    pub bids: Vec<u32>,
}

/// A buffered bidder with its pre-assigned derivation seed.
#[derive(Debug)]
struct Buffered {
    seed: u64,
    location: Location,
    bids: Vec<u32>,
}

/// Per-area admission and build state.
///
/// Owned by exactly one shard thread, which alone routes, masks and
/// settles it.
#[derive(Debug)]
pub struct AreaState {
    /// Area id (stable across shard counts).
    pub area: u32,
    /// This area's TTP (independent keys per area via the KDF round).
    pub ttp: Ttp,
    /// The zero-disguise policy this area's bidders share.
    pub policy: ZeroReplacePolicy,
    /// Bidders the area expects before its round can run.
    pub expected: usize,
    /// Seed for this area's session round.
    pub session_seed: u64,
    admission_rng: StdRng,
    buffered: Vec<Buffered>,
    built: Vec<SuSubmission>,
    /// Prefix staging and tag-run pools shared by every build of this
    /// area.
    scratch: MaskScratch,
    routed: usize,
    /// When the final bidder was routed (latency measurement origin).
    pub ready_at: Option<Instant>,
}

impl AreaState {
    /// A fresh area expecting `expected` bidders.
    pub fn new(
        area: u32,
        ttp: Ttp,
        policy: ZeroReplacePolicy,
        expected: usize,
        admission_seed: u64,
        session_seed: u64,
    ) -> Self {
        Self {
            area,
            ttp,
            policy,
            expected,
            session_seed,
            admission_rng: StdRng::seed_from_u64(admission_seed),
            buffered: Vec::new(),
            built: Vec::with_capacity(expected),
            scratch: MaskScratch::new(),
            routed: 0,
            ready_at: None,
        }
    }

    /// Buffers one arriving bidder, drawing its derivation seed from
    /// the admission stream in arrival order. Returns `true` when this
    /// was the final expected bidder (the area is ready to run).
    pub fn route(&mut self, location: Location, bids: Vec<u32>) -> bool {
        let seed = self.admission_rng.next_u64();
        self.buffered.push(Buffered { seed, location, bids });
        self.routed += 1;
        if self.routed == self.expected {
            self.ready_at = Some(Instant::now());
            true
        } else {
            false
        }
    }

    /// Whether every expected bidder has been routed.
    pub fn is_ready(&self) -> bool {
        self.routed == self.expected
    }

    /// Builds the next chunk of at most `chunk` buffered submissions
    /// through the masking pipeline (batched tag kernel inside).
    ///
    /// # Errors
    ///
    /// Propagates the first build error; earlier submissions of the
    /// chunk stay built (the area fails as a unit at round time).
    pub fn flush(&mut self, chunk: usize) -> Result<(), LppaError> {
        let take = self.buffered.len().min(chunk.max(1));
        for b in self.buffered.drain(..take) {
            let mut child = StdRng::seed_from_u64(b.seed);
            self.built.push(SuSubmission::build_in(
                b.location,
                &b.bids,
                &self.ttp,
                &self.policy,
                &mut child,
                &mut self.scratch,
            )?);
        }
        Ok(())
    }

    /// Builds everything still buffered (the final, possibly partial
    /// flush before the round runs).
    ///
    /// # Errors
    ///
    /// As for [`AreaState::flush`].
    pub fn flush_all(&mut self) -> Result<(), LppaError> {
        while !self.buffered.is_empty() {
            self.flush(self.buffered.len())?;
        }
        Ok(())
    }

    /// The built submissions, in arrival order. Only meaningful once
    /// the area [`is_ready`](AreaState::is_ready) and fully flushed.
    pub fn submissions(&self) -> &[SuSubmission] {
        &self.built
    }

    /// Bidders routed so far.
    pub fn routed(&self) -> usize {
        self.routed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{area_seeds, master_secret};
    use lppa::LppaConfig;

    fn area(expected: usize) -> AreaState {
        let config = LppaConfig::default();
        let ttp = Ttp::from_master(&master_secret(1), 0, 2, config).unwrap();
        let policy = ZeroReplacePolicy::never(config.bid_max());
        let seeds = area_seeds(1, 0);
        AreaState::new(0, ttp, policy, expected, seeds.admission, seeds.session)
    }

    fn inputs(n: usize) -> Vec<(Location, Vec<u32>)> {
        (0..n)
            .map(|i| (Location::new(i as u32 % 100, i as u32 / 100), vec![i as u32 % 50, 3]))
            .collect()
    }

    #[test]
    fn chunked_and_single_flush_build_identical_submissions() {
        // Chunk boundaries must never move a masked bit: build the same
        // arrivals with chunk sizes 1, 8 and one big flush_all.
        let mut checksums: Vec<Vec<u64>> = Vec::new();
        for chunk in [1usize, 8, usize::MAX] {
            let mut state = area(20);
            for (loc, bids) in inputs(20) {
                state.route(loc, bids);
                if state.routed().is_multiple_of(chunk) {
                    state.flush(chunk).unwrap();
                }
            }
            state.flush_all().unwrap();
            checksums.push(state.submissions().iter().map(SuSubmission::checksum).collect());
        }
        assert_eq!(checksums[0], checksums[1]);
        assert_eq!(checksums[0], checksums[2]);
        assert_eq!(checksums[0].len(), 20);
    }

    #[test]
    fn route_reports_readiness_exactly_once() {
        let mut state = area(3);
        let ins = inputs(3);
        assert!(!state.route(ins[0].0, ins[0].1.clone()));
        assert!(!state.route(ins[1].0, ins[1].1.clone()));
        assert!(!state.is_ready());
        assert!(state.route(ins[2].0, ins[2].1.clone()));
        assert!(state.is_ready());
        assert!(state.ready_at.is_some());
    }

    #[test]
    fn flush_is_incremental_and_order_preserving() {
        let mut state = area(10);
        for (loc, bids) in inputs(10) {
            state.route(loc, bids);
        }
        state.flush(4).unwrap();
        assert_eq!(state.submissions().len(), 4);
        state.flush_all().unwrap();
        assert_eq!(state.submissions().len(), 10);

        // Same arrivals built in one go agree position by position.
        let mut reference = area(10);
        for (loc, bids) in inputs(10) {
            reference.route(loc, bids);
        }
        reference.flush_all().unwrap();
        let a: Vec<u64> = state.submissions().iter().map(SuSubmission::checksum).collect();
        let b: Vec<u64> = reference.submissions().iter().map(SuSubmission::checksum).collect();
        assert_eq!(a, b);
    }
}
