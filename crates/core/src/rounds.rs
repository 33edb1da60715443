//! Multi-round auction orchestration.
//!
//! Ties together the operational advice of §V.C: per-round keys derived
//! from one master secret (so the TTP only needs to be online for
//! charging), batched TTP charging, and pseudonym mixing between rounds
//! so repeated participation cannot be linked
//! (see `lppa_attack::multi_round` for what happens without it).

use lppa_auction::bidder::{BidderId, Location};
use lppa_auction::outcome::{Assignment, AuctionOutcome};
use lppa_rng::Rng;

use crate::config::LppaConfig;
use crate::error::LppaError;
use crate::protocol::{build_submissions, run_private_auction_with_model, AuctioneerModel};
use crate::pseudonym::PseudonymPool;
use crate::ttp::Ttp;
use crate::zero_replace::ZeroReplacePolicy;

/// Drives consecutive private auctions over a stable population.
///
/// # Examples
///
/// ```
/// use lppa::rounds::RoundDriver;
/// use lppa::zero_replace::ZeroReplacePolicy;
/// use lppa::LppaConfig;
/// use lppa_auction::bidder::Location;
/// use lppa_rng::SeedableRng;
///
/// # fn main() -> Result<(), lppa::LppaError> {
/// let mut rng = lppa_rng::rngs::StdRng::seed_from_u64(1);
/// let config = LppaConfig::default();
/// let mut driver = RoundDriver::new([9u8; 32], config, 2, true);
/// let policy = ZeroReplacePolicy::geometric(0.3, 0.75, config.bid_max());
/// let bids = vec![
///     (Location::new(3, 4), vec![10u32, 0]),
///     (Location::new(90, 90), vec![0, 25]),
/// ];
/// let outcome = driver.run_round(&bids, &policy, &mut rng)?;
/// assert!(outcome.outcome.revenue() <= 35);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct RoundDriver {
    master: [u8; 32],
    config: LppaConfig,
    n_channels: usize,
    mix_ids: bool,
    round: u64,
}

/// The result of one driven round, translated back to true identities.
#[derive(Clone, Debug)]
pub struct RoundResult {
    /// Auction outcome with **true** bidder identities.
    pub outcome: AuctionOutcome,
    /// The round number just executed.
    pub round: u64,
    /// How many grants the TTP invalidated (disguised zeros).
    pub invalid_grants: usize,
    /// The pseudonym assignment used on the wire (identity when mixing
    /// is off).
    pub pseudonyms: PseudonymPool,
}

impl RoundDriver {
    /// Creates a driver for auctions of `n_channels` channels.
    ///
    /// `mix_ids` enables per-round pseudonym mixing (§V.C.3) — strongly
    /// recommended; disable only to reproduce the linkage attacks.
    pub fn new(master: [u8; 32], config: LppaConfig, n_channels: usize, mix_ids: bool) -> Self {
        Self { master, config, n_channels, mix_ids, round: 0 }
    }

    /// The next round number to be executed.
    pub fn next_round(&self) -> u64 {
        self.round
    }

    /// Runs one complete round over `bidders` (`(location, raw bids)`
    /// keyed by true identity) and advances the round counter.
    ///
    /// # Errors
    ///
    /// As for [`crate::protocol::build_submissions`] and
    /// [`crate::protocol::run_private_auction_with_model`]; the round
    /// counter only advances on success.
    pub fn run_round<R: Rng>(
        &mut self,
        bidders: &[(Location, Vec<u32>)],
        policy: &ZeroReplacePolicy,
        rng: &mut R,
    ) -> Result<RoundResult, LppaError> {
        let n = bidders.len();
        if n == 0 {
            return Err(LppaError::InvalidConfig { reason: "no bidders".into() });
        }
        let ttp = Ttp::from_master(&self.master, self.round, self.n_channels, self.config)?;
        let pseudonyms =
            if self.mix_ids { PseudonymPool::assign(n, rng) } else { PseudonymPool::identity(n) };

        // Reorder submissions so the wire order is the pseudonym order.
        let wire_bidders: Vec<(Location, Vec<u32>)> = (0..n)
            .map(|wire| {
                let true_id = pseudonyms.true_of(BidderId(wire));
                bidders[true_id.0].clone()
            })
            .collect();

        let submissions = build_submissions(&wire_bidders, &ttp, policy, rng)?;
        let result = run_private_auction_with_model(
            &submissions,
            &ttp,
            AuctioneerModel::IterativeCharging,
            rng,
        )?;

        // Translate winners back to true identities for the caller.
        let assignments = result
            .outcome
            .assignments()
            .iter()
            .map(|a| Assignment {
                bidder: pseudonyms.true_of(a.bidder),
                channel: a.channel,
                price: a.price,
            })
            .collect();
        let outcome = AuctionOutcome::from_assignments(assignments, n);

        let round = self.round;
        self.round += 1;
        Ok(RoundResult { outcome, round, invalid_grants: result.invalid_grants.len(), pseudonyms })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lppa_rng::rngs::StdRng;
    use lppa_rng::SeedableRng;

    fn bidders() -> Vec<(Location, Vec<u32>)> {
        vec![
            (Location::new(5, 5), vec![30, 0, 10]),
            (Location::new(80, 80), vec![0, 22, 15]),
            (Location::new(40, 120), vec![17, 9, 0]),
        ]
    }

    #[test]
    fn rounds_advance_and_produce_outcomes() {
        let config = LppaConfig::default();
        let mut driver = RoundDriver::new([1u8; 32], config, 3, true);
        let policy = ZeroReplacePolicy::never(config.bid_max());
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(driver.next_round(), 0);
        for expected in 0..3u64 {
            let result = driver.run_round(&bidders(), &policy, &mut rng).unwrap();
            assert_eq!(result.round, expected);
            assert!(result.outcome.revenue() > 0);
        }
        assert_eq!(driver.next_round(), 3);
    }

    #[test]
    fn outcomes_are_reported_under_true_identities() {
        // Winners' charges must equal their own raw bids, regardless of
        // the wire permutation.
        let config = LppaConfig::default();
        let mut driver = RoundDriver::new([3u8; 32], config, 3, true);
        let policy = ZeroReplacePolicy::never(config.bid_max());
        let mut rng = StdRng::seed_from_u64(5);
        let population = bidders();
        for _ in 0..4 {
            let result = driver.run_round(&population, &policy, &mut rng).unwrap();
            for a in result.outcome.assignments() {
                assert_eq!(a.price, population[a.bidder.0].1[a.channel.0], "{a:?}");
            }
        }
    }

    #[test]
    fn mixing_changes_wire_order_between_rounds() {
        let config = LppaConfig::default();
        let mut driver = RoundDriver::new([4u8; 32], config, 3, true);
        let policy = ZeroReplacePolicy::never(config.bid_max());
        let mut rng = StdRng::seed_from_u64(7);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..8 {
            let result = driver.run_round(&bidders(), &policy, &mut rng).unwrap();
            distinct.insert(result.pseudonyms.pseudonym_of(BidderId(0)));
        }
        assert!(distinct.len() > 1, "pseudonyms never changed across rounds");
    }

    #[test]
    fn unmixed_driver_uses_identity() {
        let config = LppaConfig::default();
        let mut driver = RoundDriver::new([5u8; 32], config, 3, false);
        let policy = ZeroReplacePolicy::never(config.bid_max());
        let mut rng = StdRng::seed_from_u64(8);
        let result = driver.run_round(&bidders(), &policy, &mut rng).unwrap();
        for i in 0..3 {
            assert_eq!(result.pseudonyms.pseudonym_of(BidderId(i)), BidderId(i));
        }
    }

    #[test]
    fn empty_population_is_rejected() {
        let config = LppaConfig::default();
        let mut driver = RoundDriver::new([6u8; 32], config, 3, true);
        let policy = ZeroReplacePolicy::never(config.bid_max());
        let mut rng = StdRng::seed_from_u64(9);
        assert!(driver.run_round(&[], &policy, &mut rng).is_err());
        // Failed rounds do not advance the counter.
        assert_eq!(driver.next_round(), 0);
    }
}
