//! Synthetic multi-area workload generation for load testing.
//!
//! A [`WorkloadSpec`] describes a fleet of regional auctions — how many
//! areas, how many bidders, how many channels — and expands it into the
//! two things the service consumes: per-area [`AreaPlan`]s (TTP, policy
//! and seeds) and a deterministic **arrival stream** of
//! [`BidderInput`]s. The stream interleaves areas round-robin, the
//! worst case for a sharded admission path: consecutive arrivals almost
//! never hit the same shard, so routing, buffering and flushing all see
//! maximal churn.
//!
//! Everything derives from `WorkloadSpec::seed` through the workspace
//! ChaCha20 RNG, so two processes with the same spec generate the same
//! bidders bit for bit regardless of `LPPA_THREADS`.

use lppa::ttp::Ttp;
use lppa::zero_replace::ZeroReplacePolicy;
use lppa::{LppaConfig, LppaError};
use lppa_auction::bidder::Location;
use lppa_rng::rngs::StdRng;
use lppa_rng::{Rng, SeedableRng};

use crate::admission::BidderInput;
use crate::shard::{area_seeds, master_secret, AreaSeeds};

/// Domain separation for the bidder-stream RNG (kept distinct from the
/// per-area streams in [`crate::shard`]).
const STREAM_WORKLOAD: u64 = 0x3014_ad00_0000_0004;

/// Grid side for generated locations; matches the default
/// `loc_bits = 7` geometry used across the workspace.
const GRID_SIDE: u32 = 128;

/// Description of a synthetic fleet of regional auctions.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    /// Master seed; every bidder, key and session derives from it.
    pub seed: u64,
    /// Number of regional auctions (areas).
    pub areas: u32,
    /// Total bidders across all areas (distributed round-robin).
    pub bidders: usize,
    /// Channels auctioned per area.
    pub channels: usize,
    /// Protocol parameters shared by every area.
    pub config: LppaConfig,
}

impl WorkloadSpec {
    /// A spec with `areas`/`bidders`/`channels` and default protocol
    /// parameters.
    pub fn new(seed: u64, areas: u32, bidders: usize, channels: usize) -> Self {
        Self {
            seed,
            areas: areas.max(1),
            bidders,
            channels: channels.max(1),
            config: LppaConfig::default(),
        }
    }

    /// Bidders area `area` will receive from the round-robin stream.
    pub fn expected_in(&self, area: u32) -> usize {
        let areas = self.areas as usize;
        let base = self.bidders / areas;
        let rem = self.bidders % areas;
        base + usize::from((area as usize) < rem)
    }

    /// Expands the spec into per-area plans: independent TTP key
    /// schedules (area id doubles as the KDF round), the shared
    /// zero-disguise policy and the area's derived seed pair.
    ///
    /// # Errors
    ///
    /// Propagates TTP construction failures.
    pub fn plans(&self) -> Result<Vec<AreaPlan>, LppaError> {
        let master = master_secret(self.seed);
        let policy = ZeroReplacePolicy::never(self.config.bid_max());
        (0..self.areas)
            .map(|area| {
                let ttp = Ttp::from_master(&master, u64::from(area), self.channels, self.config)?;
                Ok(AreaPlan {
                    area,
                    ttp,
                    policy: policy.clone(),
                    expected: self.expected_in(area),
                    seeds: area_seeds(self.seed, area),
                })
            })
            .collect()
    }

    /// The deterministic arrival stream: bidder `i` targets area
    /// `i % areas`, with location and bids drawn sequentially from the
    /// workload RNG. About half the per-channel bids are zero
    /// (non-participating), exercising the zero-disguise path.
    pub fn bidders(&self) -> Vec<BidderInput> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ STREAM_WORKLOAD);
        let bid_max = self.config.bid_max().max(1);
        (0..self.bidders)
            .map(|i| {
                let location =
                    Location::new(rng.gen_range(0..GRID_SIDE), rng.gen_range(0..GRID_SIDE));
                let bids = (0..self.channels)
                    .map(|_| if rng.gen_bool(0.5) { 0 } else { rng.gen_range(1..=bid_max) })
                    .collect();
                BidderInput { area: (i % self.areas as usize) as u32, location, bids }
            })
            .collect()
    }
}

/// Everything the service needs to open one regional auction.
#[derive(Clone, Debug)]
pub struct AreaPlan {
    /// Area id.
    pub area: u32,
    /// The area's TTP (independent keys per area).
    pub ttp: Ttp,
    /// Zero-disguise policy shared by the area's bidders.
    pub policy: ZeroReplacePolicy,
    /// Bidders the area expects before its round runs.
    pub expected: usize,
    /// Derived admission/session seeds.
    pub seeds: AreaSeeds,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_counts_sum_to_total_bidders() {
        let spec = WorkloadSpec::new(9, 7, 100, 2);
        let total: usize = (0..7).map(|a| spec.expected_in(a)).sum();
        assert_eq!(total, 100);
        // Round-robin remainder lands on the lowest area ids.
        assert_eq!(spec.expected_in(0), 15);
        assert_eq!(spec.expected_in(1), 15);
        assert_eq!(spec.expected_in(2), 14);
    }

    #[test]
    fn bidder_stream_is_deterministic_and_round_robin() {
        let spec = WorkloadSpec::new(42, 5, 23, 3);
        let a = spec.bidders();
        let b = spec.bidders();
        assert_eq!(a, b);
        assert_eq!(a.len(), 23);
        for (i, bidder) in a.iter().enumerate() {
            assert_eq!(bidder.area, (i % 5) as u32);
            assert_eq!(bidder.bids.len(), 3);
            assert!(bidder.location.x < GRID_SIDE && bidder.location.y < GRID_SIDE);
            assert!(bidder.bids.iter().all(|&b| b <= spec.config.bid_max()));
        }
    }

    #[test]
    fn plans_give_each_area_independent_keys_and_seeds() {
        let spec = WorkloadSpec::new(7, 4, 40, 2);
        let plans = spec.plans().unwrap();
        assert_eq!(plans.len(), 4);
        let mut seeds = std::collections::HashSet::new();
        for plan in &plans {
            assert_eq!(plan.expected, 10);
            assert!(seeds.insert(plan.seeds.session));
            assert!(seeds.insert(plan.seeds.admission));
        }
    }

    #[test]
    fn different_master_seeds_move_the_stream() {
        assert_ne!(
            WorkloadSpec::new(1, 3, 9, 2).bidders(),
            WorkloadSpec::new(2, 3, 9, 2).bidders()
        );
    }
}
