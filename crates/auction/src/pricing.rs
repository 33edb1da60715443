//! Pricing rules beyond first price.
//!
//! The paper charges first price and explicitly defers truthfulness
//! (§V.C.1: "we leave the truthfulness of the auction to future work").
//! This module implements that future-work comparator for the plaintext
//! baseline: **critical-value (second-price) charging**, where a winner
//! pays the highest competing bid it displaced in its winning contest —
//! the standard device for making a greedy allocation truthful.
//!
//! Second-price charging needs the loser bids of each contest, which the
//! masked table hides by design; the paper's open problem is exactly
//! that tension, and the comparison here quantifies the revenue gap.

use std::cell::RefCell;

use lppa_rng::Rng;

use crate::allocation::{greedy_allocate, BidOracle, Grant};
use crate::bidder::{BidTable, BidderId};
use crate::conflict::ConflictGraph;
use crate::outcome::{Assignment, AuctionOutcome};
use lppa_spectrum::ChannelId;

/// A grant plus the contest it was won in.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GrantTrace {
    /// The award itself.
    pub grant: Grant,
    /// Every candidate considered in the contest (winner included).
    pub candidates: Vec<BidderId>,
}

impl GrantTrace {
    /// The price-setting losers of this contest: every candidate that
    /// conflicts with the winner. A non-conflicting candidate could
    /// have been granted the channel alongside the winner, so it never
    /// constrains the win — both the plaintext second-price comparator
    /// and the sealed Vickrey settlement price against exactly this
    /// set.
    pub fn conflicting_losers<'a>(
        &'a self,
        conflicts: &'a ConflictGraph,
    ) -> impl Iterator<Item = BidderId> + 'a {
        self.candidates.iter().copied().filter(move |&c| {
            c != self.grant.bidder && conflicts.are_conflicting(c, self.grant.bidder)
        })
    }
}

/// Runs [`crate::allocation::greedy_allocate`] and records each
/// contest's candidate set, enabling post-hoc critical-value pricing.
///
/// A recording wrapper around `oracle` sees every `select_winner` call
/// the greedy loop makes — exactly one per grant, in grant order — so
/// the grants and the RNG draws are those of the untraced allocation.
///
/// # Panics
///
/// Panics if the conflict graph size differs from the oracle's bidder
/// count.
pub fn greedy_allocate_traced<O: BidOracle, R: Rng>(
    oracle: &O,
    conflicts: &ConflictGraph,
    rng: &mut R,
) -> Vec<GrantTrace> {
    let recorder = Recorder { inner: oracle, traces: RefCell::default() };
    greedy_allocate(&recorder, conflicts, rng);
    recorder.traces.into_inner()
}

/// A [`BidOracle`] that delegates to `inner` and logs every contest.
struct Recorder<'a, O> {
    inner: &'a O,
    traces: RefCell<Vec<GrantTrace>>,
}

impl<O: BidOracle> BidOracle for Recorder<'_, O> {
    fn n_bidders(&self) -> usize {
        self.inner.n_bidders()
    }

    fn n_channels(&self) -> usize {
        self.inner.n_channels()
    }

    fn has_entry(&self, bidder: BidderId, channel: ChannelId) -> bool {
        self.inner.has_entry(bidder, channel)
    }

    fn select_winner(
        &self,
        channel: ChannelId,
        candidates: &[BidderId],
        rng: &mut dyn lppa_rng::RngCore,
    ) -> BidderId {
        let winner = self.inner.select_winner(channel, candidates, rng);
        self.traces.borrow_mut().push(GrantTrace {
            grant: Grant { bidder: winner, channel },
            candidates: candidates.to_vec(),
        });
        winner
    }
}

/// Charging rules applicable to a traced plaintext allocation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PricingRule {
    /// Winner pays its own bid (the paper's rule).
    #[default]
    FirstPrice,
    /// Winner pays the highest *conflicting* competing bid in its
    /// contest (its critical value), or its own bid when unopposed is
    /// replaced by zero — the truthful comparator.
    ///
    /// Only candidates that conflict with the winner are price-setting:
    /// a non-conflicting candidate could have been granted the channel
    /// alongside the winner, so it never constrains the winner's win.
    SecondPrice,
}

/// Applies `rule` to a traced allocation over the plaintext `table`.
///
/// Zero-priced results under [`PricingRule::SecondPrice`] (unopposed
/// winners) are kept as zero-price assignments: the winner holds the
/// channel for free, as in any Vickrey-style auction without
/// competition.
pub fn charge_traced(
    traces: &[GrantTrace],
    table: &BidTable,
    conflicts: &ConflictGraph,
    rule: PricingRule,
) -> AuctionOutcome {
    let assignments = traces
        .iter()
        .filter_map(|t| {
            let own = table.bid(t.grant.bidder, t.grant.channel);
            if own == 0 {
                return None; // invalid (cannot happen for plaintext tables)
            }
            let price = match rule {
                PricingRule::FirstPrice => own,
                PricingRule::SecondPrice => t
                    .conflicting_losers(conflicts)
                    .map(|c| table.bid(c, t.grant.channel))
                    .max()
                    .unwrap_or(0),
            };
            Some(Assignment { bidder: t.grant.bidder, channel: t.grant.channel, price })
        })
        .collect();
    AuctionOutcome::from_assignments(assignments, table.n_bidders())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lppa_rng::rngs::StdRng;
    use lppa_rng::SeedableRng;

    fn everyone_conflicts(n: usize) -> ConflictGraph {
        let mut g = ConflictGraph::disconnected(n);
        for i in 0..n {
            for j in (i + 1)..n {
                g.add_conflict(BidderId(i), BidderId(j));
            }
        }
        g
    }

    #[test]
    fn traced_allocation_matches_untraced() {
        let table =
            BidTable::from_rows(vec![vec![9, 2, 0], vec![4, 7, 3], vec![1, 0, 8], vec![6, 5, 2]]);
        let conflicts = everyone_conflicts(4);
        let traces = greedy_allocate_traced(&table, &conflicts, &mut StdRng::seed_from_u64(3));
        let grants =
            crate::allocation::greedy_allocate(&table, &conflicts, &mut StdRng::seed_from_u64(3));
        assert_eq!(traces.iter().map(|t| t.grant).collect::<Vec<_>>(), grants);
        // Each trace's candidate set contains its winner.
        for t in &traces {
            assert!(t.candidates.contains(&t.grant.bidder));
        }
    }

    #[test]
    fn second_price_charges_highest_conflicting_loser() {
        // Two conflicting bidders contest one channel: winner pays the
        // loser's bid.
        let table = BidTable::from_rows(vec![vec![9], vec![4]]);
        let conflicts = everyone_conflicts(2);
        let traces = greedy_allocate_traced(&table, &conflicts, &mut StdRng::seed_from_u64(1));
        let outcome = charge_traced(&traces, &table, &conflicts, PricingRule::SecondPrice);
        assert_eq!(outcome.assignments().len(), 1);
        assert_eq!(outcome.assignments()[0].price, 4);
        // First price charges 9.
        let first = charge_traced(&traces, &table, &conflicts, PricingRule::FirstPrice);
        assert_eq!(first.assignments()[0].price, 9);
    }

    #[test]
    fn non_conflicting_candidates_do_not_set_the_price() {
        // Bidders 0 and 1 do not conflict: both can hold the channel, so
        // 0's "contest" with 1 is not real competition.
        let table = BidTable::from_rows(vec![vec![9], vec![4]]);
        let conflicts = ConflictGraph::disconnected(2);
        let traces = greedy_allocate_traced(&table, &conflicts, &mut StdRng::seed_from_u64(1));
        let outcome = charge_traced(&traces, &table, &conflicts, PricingRule::SecondPrice);
        // Both win, both unopposed → both pay zero.
        assert_eq!(outcome.assignments().len(), 2);
        assert!(outcome.assignments().iter().all(|a| a.price == 0));
    }

    #[test]
    fn second_price_never_exceeds_first_price() {
        let mut rng = StdRng::seed_from_u64(5);
        use lppa_rng::Rng as _;
        for _ in 0..10 {
            let n = 10;
            let rows: Vec<Vec<u32>> =
                (0..n).map(|_| (0..4).map(|_| rng.gen_range(0..20)).collect()).collect();
            let table = BidTable::from_rows(rows);
            let locations: Vec<crate::bidder::Location> = (0..n)
                .map(|_| crate::bidder::Location::new(rng.gen_range(0..20), rng.gen_range(0..20)))
                .collect();
            let conflicts = ConflictGraph::from_locations(&locations, 3);
            let traces = greedy_allocate_traced(&table, &conflicts, &mut rng);
            let first = charge_traced(&traces, &table, &conflicts, PricingRule::FirstPrice);
            let second = charge_traced(&traces, &table, &conflicts, PricingRule::SecondPrice);
            assert!(second.revenue() <= first.revenue());
            // Pairwise: each winner pays no more than its bid.
            for (f, s) in first.assignments().iter().zip(second.assignments()) {
                assert_eq!(f.bidder, s.bidder);
                assert!(s.price <= f.price);
            }
        }
    }

    #[test]
    fn truthful_bidding_is_weakly_dominant_in_a_single_contest() {
        // Classic Vickrey sanity check on one channel with full conflict:
        // with second-price charging, overbidding or underbidding never
        // beats bidding the true value v = 10 against a rival bid of 7.
        let conflicts = everyone_conflicts(2);
        let utility = |my_bid: u32| -> i64 {
            let table = BidTable::from_rows(vec![vec![my_bid], vec![7]]);
            let traces = greedy_allocate_traced(&table, &conflicts, &mut StdRng::seed_from_u64(2));
            let outcome = charge_traced(&traces, &table, &conflicts, PricingRule::SecondPrice);
            outcome
                .assignments()
                .iter()
                .find(|a| a.bidder == BidderId(0))
                .map(|a| 10i64 - i64::from(a.price))
                .unwrap_or(0)
        };
        let truthful = utility(10);
        for misreport in [1u32, 5, 6, 8, 9, 11, 15, 127] {
            assert!(utility(misreport) <= truthful, "misreport {misreport} beat truth");
        }
    }
}
