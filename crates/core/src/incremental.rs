//! Incremental masked auction state: delta updates between rounds.
//!
//! The batch auctioneer ([`crate::protocol::run_private_auction_with_model`])
//! rebuilds everything each round — it re-indexes every bidder's x-range
//! tags, re-probes every point family and re-collects the masked table,
//! `O(n · w)` work even when only a handful of bidders changed. An
//! [`IncrementalAuctioneer`] keeps the masked state *resident* and
//! applies per-bidder deltas instead:
//!
//! - **join** inserts one bidder's x-axis tags into the persistent
//!   [`TagIndex`]es and probes only that bidder's tags to discover its
//!   conflict edges — `O(w + candidates)`, not a rebuild;
//! - **leave** retires the bidder's tags through the index's tombstoned
//!   [`TagIndex::remove`] path and clears one adjacency row — `O(w +
//!   degree)`;
//! - **revise** swaps a bidder's submission in place (detach + attach),
//!   so a bid change never touches the other `n − 1` bidders.
//!
//! ## Equality with the batch path
//!
//! [`build_conflict_graph`] adds the edge `(i, j)`, `i < j`, iff
//! `point_x(i) ∩ range_x(j) ≠ ∅` and `point_y(i) ∈ range_y(j)` — a
//! *directional* test evaluated in the lower-to-higher direction. The
//! incremental graph reproduces it exactly: a join probes **both**
//! directions (its point family against the resident range index, its
//! range cover against the resident point index), so any pair the
//! canonical direction would connect shows up as a candidate, and every
//! candidate is then confirmed with the canonical
//! [`LocationSubmission::conflicts_with`] test in canonical order.
//! Spurious one-directional padding hits are filtered by that re-check;
//! genuine conflicts hit in both directions. The per-round runner
//! ([`IncrementalAuctioneer::run_round_in`]) then feeds the resident
//! graph and tie classes into the auction core's allocate and charge
//! halves, so for equal live sets and equal RNG state the whole round
//! result is bit-identical to a from-scratch rebuild — the property
//! tests and the `incremental_equals_rebuild` oracle invariant hold it
//! to that.
//!
//! [`build_conflict_graph`]: crate::ppbs::location::build_conflict_graph
//! [`LocationSubmission::conflicts_with`]: crate::ppbs::location::LocationSubmission::conflicts_with

use std::collections::BTreeSet;

use lppa_auction::bidder::BidderId;
use lppa_auction::conflict::ConflictGraph;
use lppa_prefix::TagIndex;
use lppa_rng::Rng;

use crate::arena::{CsrRows, RoundScratch};
use crate::error::LppaError;
use crate::ppbs::bid::AdvancedBidSubmission;
use crate::protocol::{settle_allocation_in, AuctioneerModel, PrivateAuctionResult};
use crate::psd::table::MaskedBidTable;
use crate::ttp::Ttp;

/// Delta-maintained masked auction state; see the module docs.
///
/// Slot ids are stable for a bidder's lifetime and reused lowest-first
/// after a leave; the compact per-round [`BidderId`] of a live bidder is
/// its rank in [`live_slots`](IncrementalAuctioneer::live_slots).
#[derive(Clone, Debug)]
pub struct IncrementalAuctioneer {
    model: AuctioneerModel,
    slots: Vec<Option<crate::protocol::SuSubmission>>,
    free: BTreeSet<u32>,
    /// Per-slot live conflict neighbours, ascending — CSR slab rows
    /// patched in place (identical iteration order to the `BTreeSet`
    /// rows they replaced, without per-edge node allocations).
    adj: CsrRows,
    /// Reusable staging for attach candidates / detach neighbour sweeps.
    edge_buf: Vec<u32>,
    /// Persistent index of every live bidder's x-axis range cover.
    x_ranges: TagIndex,
    /// Persistent index of every live bidder's x-axis point family.
    x_points: TagIndex,
    /// Per-channel live slots by **descending masked bid** (ties in
    /// ascending slot order) — the resident form of the table's tie
    /// classes. A join or revision re-ranks one bidder in `O(log n)`
    /// masked comparisons; a from-scratch collect pays a full
    /// masked-comparison sort per channel instead.
    orders: Vec<Vec<u32>>,
    /// Per-channel class-boundary flags parallel to `orders`:
    /// `breaks[ch][i]` is `true` iff `orders[ch][i]` starts a new tie
    /// class relative to its predecessor (always `false` at `i == 0`).
    /// Maintained with **no** extra masked comparisons — an insert knows
    /// its tie-class bounds from the ranking binary searches, and on a
    /// removal tie transitivity merges the two adjacent flags — so
    /// reading the round's classes is pure integer work.
    breaks: Vec<Vec<bool>>,
    live: usize,
}

impl IncrementalAuctioneer {
    /// Empty state under the given auctioneer model.
    pub fn new(model: AuctioneerModel) -> Self {
        Self {
            model,
            slots: Vec::new(),
            free: BTreeSet::new(),
            adj: CsrRows::new(),
            edge_buf: Vec::new(),
            x_ranges: TagIndex::new(),
            x_points: TagIndex::new(),
            orders: Vec::new(),
            breaks: Vec::new(),
            live: 0,
        }
    }

    /// Number of live bidders.
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// Live slot ids, ascending; position = compact round [`BidderId`].
    pub fn live_slots(&self) -> Vec<u32> {
        (0..self.slots.len() as u32).filter(|&s| self.slots[s as usize].is_some()).collect()
    }

    /// Entries currently held by the persistent x-axis indexes
    /// (`(range entries, point entries)`) — observability for tests and
    /// metrics.
    pub fn index_entries(&self) -> (usize, usize) {
        (self.x_ranges.entry_count(), self.x_points.entry_count())
    }

    /// Admits a masked submission; returns its stable slot id.
    ///
    /// Costs `O(w)` index insertions plus one canonical conflict test
    /// per x-axis candidate pair.
    pub fn join(&mut self, submission: crate::protocol::SuSubmission) -> u32 {
        let slot = match self.free.pop_first() {
            Some(s) => s,
            None => {
                self.slots.push(None);
                self.adj.push_row();
                (self.slots.len() - 1) as u32
            }
        };
        self.attach(slot, submission);
        self.live += 1;
        slot
    }

    /// Retires the bidder in `slot`, returning its submission.
    ///
    /// Costs `O(w)` tombstoned index removals plus `O(degree)` adjacency
    /// updates.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not live.
    pub fn leave(&mut self, slot: u32) -> crate::protocol::SuSubmission {
        let submission = self.detach(slot);
        self.free.insert(slot);
        self.live -= 1;
        submission
    }

    /// Replaces the bidder's submission in place (a bid revision, or any
    /// re-mask), returning the retired one so callers can recycle its
    /// tag runs. The slot keeps its id; only this bidder's tags move.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not live.
    pub fn revise(
        &mut self,
        slot: u32,
        submission: crate::protocol::SuSubmission,
    ) -> crate::protocol::SuSubmission {
        let old = self.detach(slot);
        self.attach(slot, submission);
        old
    }

    /// First half of a two-phase bid-only revision: takes the resident
    /// submission out of `slot` (dropping it from every channel order)
    /// so the caller can salvage its parts — typically reusing the
    /// masked location via [`SuSubmission::rebuild_bids_in`] — before
    /// handing a replacement to
    /// [`put_revised`](IncrementalAuctioneer::put_revised).
    ///
    /// The slot stays live but empty in between; no other engine call
    /// may run until `put_revised` restores it. The replacement **must**
    /// carry a masked location identical to the taken one — the caller
    /// guarantees it, normally by moving the same [`LocationSubmission`]
    /// value back in — because the conflict edges and x-axis index
    /// entries stay untouched: a bid-only revision costs
    /// `O(k · (log n + n))` integer-and-compare work, no tag index churn
    /// and no conflict re-probing.
    ///
    /// [`SuSubmission::rebuild_bids_in`]: crate::protocol::SuSubmission::rebuild_bids_in
    /// [`LocationSubmission`]: crate::ppbs::location::LocationSubmission
    ///
    /// # Panics
    ///
    /// Panics if the slot is not live.
    pub fn take_for_revise(&mut self, slot: u32) -> crate::protocol::SuSubmission {
        let submission =
            self.slots[slot as usize].take().expect("take_for_revise of a non-live slot");
        for ch in 0..self.orders.len() {
            self.order_remove(ch, slot);
        }
        submission
    }

    /// Second half of a two-phase bid-only revision: installs the
    /// replacement built from the parts
    /// [`take_for_revise`](IncrementalAuctioneer::take_for_revise)
    /// returned and re-ranks the slot in every channel order.
    pub fn put_revised(&mut self, slot: u32, submission: crate::protocol::SuSubmission) {
        let k = submission.bids.n_channels();
        if self.orders.len() < k {
            self.orders.resize_with(k, Vec::new);
            self.breaks.resize_with(k, Vec::new);
        }
        self.slots[slot as usize] = Some(submission);
        for ch in 0..k {
            self.order_insert(ch, slot);
        }
    }

    /// Wires `slot`'s submission into the resident state: discovers its
    /// conflict edges by probing both index directions, then indexes its
    /// own tags.
    fn attach(&mut self, slot: u32, submission: crate::protocol::SuSubmission) {
        // Candidate peers whose x-sets may intersect ours, from either
        // probe direction (see the module docs for why both are needed).
        // Sort-and-dedup keeps the same ascending visit order a BTreeSet
        // would give, without per-hit tree inserts.
        let mut candidates = std::mem::take(&mut self.edge_buf);
        candidates.clear();
        for tag in submission.location.point_x().iter() {
            candidates.extend_from_slice(self.x_ranges.owners(tag));
        }
        for tag in submission.location.range_x().iter() {
            candidates.extend_from_slice(self.x_points.owners(tag));
        }
        candidates.sort_unstable();
        candidates.dedup();
        for &peer in &candidates {
            debug_assert_ne!(peer, slot, "own tags are indexed after probing");
            let other = self.slots[peer as usize].as_ref().expect("indexed peer is live");
            // Canonical direction: lower slot's point against higher
            // slot's range, both axes — exactly the batch predicate.
            let conflicting = if peer < slot {
                other.location.conflicts_with(&submission.location)
            } else {
                submission.location.conflicts_with(&other.location)
            };
            if conflicting {
                self.adj.insert(slot as usize, peer);
                self.adj.insert(peer as usize, slot);
            }
        }
        self.edge_buf = candidates;
        self.x_ranges.insert_all(submission.location.range_x().iter(), slot);
        self.x_points.insert_all(submission.location.point_x().iter(), slot);
        let k = submission.bids.n_channels();
        if self.orders.len() < k {
            self.orders.resize_with(k, Vec::new);
            self.breaks.resize_with(k, Vec::new);
        }
        self.slots[slot as usize] = Some(submission);
        for ch in 0..k {
            self.order_insert(ch, slot);
        }
    }

    /// The masked column comparison `bid(a, ch) ≥ bid(b, ch)` between
    /// two live slots.
    fn bid_ge(&self, ch: usize, a: u32, b: u32) -> bool {
        let sa = self.slots[a as usize].as_ref().expect("live slot");
        let sb = self.slots[b as usize].as_ref().expect("live slot");
        sa.bids.bids()[ch].point.in_range(&sb.bids.bids()[ch].range)
    }

    /// Ranks `slot` into channel `ch`'s resident order: two binary
    /// searches under the masked total preorder find its tie class, a
    /// third (integer) one its canonical ascending-slot position inside
    /// it.
    fn order_insert(&mut self, ch: usize, slot: u32) {
        let order = &self.orders[ch];
        // First position `slot`'s bid is ≥ of — everything before is
        // strictly greater.
        let lo = order.partition_point(|&o| !self.bid_ge(ch, slot, o));
        // Residents at `lo..` that are still ≥ `slot` are its ties.
        let hi = lo + order[lo..].partition_point(|&o| self.bid_ge(ch, o, slot));
        let pos = lo + order[lo..hi].partition_point(|&o| o < slot);
        self.orders[ch].insert(pos, slot);
        // Boundary flags from the class bounds alone: `slot` starts a
        // new class iff it landed at the top of its class below a
        // strictly-greater predecessor; the displaced successor starts
        // one iff `slot` landed past the bottom of its class.
        let breaks = &mut self.breaks[ch];
        breaks.insert(pos, pos == lo && lo > 0);
        if pos + 1 < breaks.len() {
            breaks[pos + 1] = pos == hi;
        }
    }

    /// Drops `slot` from channel `ch`'s resident order, fusing the
    /// boundary flags around the gap: mutual masked `≥` is transitive,
    /// so the survivors are tied iff both removed pairs were.
    fn order_remove(&mut self, ch: usize, slot: u32) {
        let Some(pos) = self.orders[ch].iter().position(|&s| s == slot) else {
            return;
        };
        self.orders[ch].remove(pos);
        let gone = self.breaks[ch].remove(pos);
        if pos < self.breaks[ch].len() {
            self.breaks[ch][pos] = pos > 0 && (gone || self.breaks[ch][pos]);
        }
    }

    /// Unwires `slot` from the resident state: removes its tags from
    /// both indexes (tombstoned `O(w)` path) and clears its adjacency
    /// row.
    fn detach(&mut self, slot: u32) -> crate::protocol::SuSubmission {
        let submission = self.slots[slot as usize].take().expect("detach of a non-live slot");
        self.x_ranges.remove_all(submission.location.range_x().iter(), slot);
        self.x_points.remove_all(submission.location.point_x().iter(), slot);
        for ch in 0..self.orders.len() {
            self.order_remove(ch, slot);
        }
        let mut neighbors = std::mem::take(&mut self.edge_buf);
        neighbors.clear();
        neighbors.extend_from_slice(self.adj.row(slot as usize));
        for &nb in &neighbors {
            self.adj.remove(nb as usize, slot);
        }
        self.adj.clear_row(slot as usize);
        self.edge_buf = neighbors;
        submission
    }

    /// The compacted conflict graph over the live set — equal to
    /// [`crate::protocol::conflict_graph`] over the live submissions in
    /// [`live_slots`](IncrementalAuctioneer::live_slots) order.
    pub fn conflict_graph(&self) -> ConflictGraph {
        self.conflict_graph_from(&self.live_slots(), Vec::new(), &mut Vec::new())
    }

    /// [`conflict_graph`](Self::conflict_graph) over a precomputed live
    /// order, recycling `buf` as the adjacency-matrix backing store and
    /// `lut` as slot→compact-rank staging. The rank lookup replaces a
    /// per-edge binary search; neighbours are always live, so stale
    /// entries for dead slots are never read.
    fn conflict_graph_from(
        &self,
        order: &[u32],
        buf: Vec<bool>,
        lut: &mut Vec<u32>,
    ) -> ConflictGraph {
        lut.clear();
        lut.resize(self.slots.len(), 0);
        for (i, &slot) in order.iter().enumerate() {
            lut[slot as usize] = i as u32;
        }
        let mut graph = ConflictGraph::disconnected_from(order.len(), buf);
        for (i, &slot) in order.iter().enumerate() {
            for &nb in self.adj.row(slot as usize) {
                let j = lut[nb as usize] as usize;
                if i < j {
                    graph.add_conflict(BidderId(i), BidderId(j));
                }
            }
        }
        graph
    }

    /// The per-channel tie classes over compact ids, read off the
    /// resident orders and their maintained boundary flags — equal to
    /// [`compute_classes`](crate::psd::table::compute_classes) over
    /// [`compact_submissions`](IncrementalAuctioneer::compact_submissions)'
    /// bids, with **zero** masked comparisons per round.
    #[cfg_attr(not(test), allow(dead_code))]
    fn channel_classes(&self) -> Vec<Vec<u32>> {
        self.channel_classes_in(&self.live_slots(), &mut RoundScratch::new())
    }

    /// [`channel_classes`](Self::channel_classes) over a precomputed
    /// live order, filling class vectors checked out of `scratch`.
    fn channel_classes_in(&self, live: &[u32], scratch: &mut RoundScratch) -> Vec<Vec<u32>> {
        self.orders
            .iter()
            .zip(&self.breaks)
            .map(|(order, breaks)| {
                let mut classes = scratch.take_classes();
                classes.resize(live.len(), 0);
                let mut class = 0u32;
                for (i, &slot) in order.iter().enumerate() {
                    class += u32::from(breaks[i]);
                    let compact = live.binary_search(&slot).expect("ordered slot is live");
                    classes[compact] = class;
                }
                classes
            })
            .collect()
    }

    /// The live submissions, cloned in compact order — what a
    /// from-scratch rebuild would collect.
    pub fn compact_submissions(&self) -> Vec<crate::protocol::SuSubmission> {
        self.live_slots()
            .into_iter()
            .map(|s| self.slots[s as usize].as_ref().expect("live slot").clone())
            .collect()
    }

    /// Runs one auction round over the resident state, on caller-owned
    /// [`RoundScratch`]: the persistent conflict graph replaces phase 1,
    /// the tie classes are read off the maintained channel orders, and
    /// the auction core's allocate and charge halves run unchanged.
    /// Grants use compact ids into
    /// [`live_slots`](IncrementalAuctioneer::live_slots).
    ///
    /// Tie classes, the conflict-matrix backing store, allocation
    /// buffers and charge-verification tag runs all come from the pool
    /// and return to it, so a warm sustained-churn round runs nearly
    /// allocation-free. The result is bit-identical to
    /// [`run_private_auction_with_model`](crate::protocol::run_private_auction_with_model)
    /// over [`compact_submissions`](IncrementalAuctioneer::compact_submissions)
    /// with the same RNG state.
    ///
    /// The scratch also memoizes TTP charge verdicts per `(slot,
    /// channel)`; a caller that reuses one scratch across rounds **must**
    /// call [`RoundScratch::charge_clear_slot`] for every slot it joins,
    /// leaves or revises in between, or stale verdicts may be replayed.
    ///
    /// # Errors
    ///
    /// As for [`crate::protocol::run_private_auction_with_model`].
    pub fn run_round_in<R: Rng>(
        &self,
        ttp: &Ttp,
        rng: &mut R,
        scratch: &mut RoundScratch,
    ) -> Result<PrivateAuctionResult, LppaError> {
        // Phase 2 from resident state: borrow the bid submissions in
        // place (locations are already distilled into the resident
        // graph) and read the tie classes off the maintained channel
        // orders — no clones and no per-round masked ranking.
        let order = self.live_slots();
        let bids: Vec<&AdvancedBidSubmission> = order
            .iter()
            .map(|&s| &self.slots[s as usize].as_ref().expect("live slot").bids)
            .collect();
        let classes = self.channel_classes_in(&order, scratch);
        let table = MaskedBidTable::with_classes(bids, classes, self.model)?;
        let mut lut = scratch.take_classes();
        let conflicts = self.conflict_graph_from(&order, scratch.take_matrix(), &mut lut);
        scratch.recycle_classes([lut]);
        let result = settle_allocation_in(&table, conflicts, ttp, rng, scratch, Some(&order));
        scratch.recycle_classes(table.into_classes());
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LppaConfig;
    use crate::protocol::{run_private_auction_with_model, SuSubmission};
    use crate::zero_replace::ZeroReplacePolicy;
    use lppa_auction::bidder::Location;
    use lppa_rng::rngs::StdRng;
    use lppa_rng::SeedableRng;

    fn ttp(k: usize, seed: u64) -> Ttp {
        let mut rng = StdRng::seed_from_u64(seed);
        Ttp::new(k, LppaConfig::default(), &mut rng).unwrap()
    }

    fn submission(ttp: &Ttp, loc: Location, bids: &[u32], seed: u64) -> SuSubmission {
        let policy = ZeroReplacePolicy::never(ttp.config().bid_max());
        let mut rng = StdRng::seed_from_u64(seed);
        SuSubmission::build(loc, bids, ttp, &policy, &mut rng).unwrap()
    }

    #[test]
    fn churned_graph_matches_batch_rebuild_every_round() {
        let ttp = ttp(1, 0xa1);
        let mut rng = StdRng::seed_from_u64(0x90a7);
        let mut state = IncrementalAuctioneer::new(AuctioneerModel::IterativeCharging);
        let mut live: Vec<u32> = Vec::new();
        for round in 0..10 {
            for _ in 0..rng.gen_range(1..4) {
                if live.is_empty() || rng.gen_bool(0.6) {
                    let loc = Location::new(rng.gen_range(0..30), rng.gen_range(0..30));
                    let sub = submission(&ttp, loc, &[1], rng.gen());
                    live.push(state.join(sub));
                } else {
                    let i = rng.gen_range(0..live.len());
                    state.leave(live.swap_remove(i));
                }
            }
            let compacted = state.compact_submissions();
            let rebuilt = crate::protocol::conflict_graph(&compacted);
            assert_eq!(state.conflict_graph(), rebuilt, "round {round}");
        }
    }

    #[test]
    fn run_round_is_bit_identical_to_batch_auction() {
        let ttp = ttp(2, 0xb2);
        let mut rng = StdRng::seed_from_u64(0x1c4e);
        let mut state = IncrementalAuctioneer::new(AuctioneerModel::IterativeCharging);
        let mut live: Vec<u32> = Vec::new();
        for round in 0..5u64 {
            for _ in 0..rng.gen_range(1..4) {
                let op = rng.gen_range(0..3);
                if op == 0 || live.is_empty() {
                    let loc = Location::new(rng.gen_range(0..40), rng.gen_range(0..40));
                    let bids = [rng.gen_range(0..9), rng.gen_range(0..9)];
                    live.push(state.join(submission(&ttp, loc, &bids, rng.gen())));
                } else if op == 1 {
                    let i = rng.gen_range(0..live.len());
                    state.leave(live.swap_remove(i));
                } else {
                    let i = rng.gen_range(0..live.len());
                    let loc = Location::new(rng.gen_range(0..40), rng.gen_range(0..40));
                    let bids = [rng.gen_range(0..9), rng.gen_range(0..9)];
                    state.revise(live[i], submission(&ttp, loc, &bids, rng.gen()));
                }
            }
            if state.live_count() == 0 {
                continue;
            }
            let round_seed = rng.gen::<u64>();
            let delta = state
                .run_round_in(
                    &ttp,
                    &mut StdRng::seed_from_u64(round_seed),
                    &mut RoundScratch::new(),
                )
                .unwrap();
            let scratch = run_private_auction_with_model(
                &state.compact_submissions(),
                &ttp,
                AuctioneerModel::IterativeCharging,
                &mut StdRng::seed_from_u64(round_seed),
            )
            .unwrap();
            assert_eq!(delta.grants, scratch.grants, "round {round}");
            assert_eq!(delta.invalid_grants, scratch.invalid_grants, "round {round}");
            assert_eq!(delta.outcome.assignments(), scratch.outcome.assignments(), "round {round}");
            assert_eq!(delta.conflicts, scratch.conflicts, "round {round}");
        }
    }

    #[test]
    fn resident_channel_orders_match_scratch_classes() {
        let ttp = ttp(3, 0xe5);
        let mut rng = StdRng::seed_from_u64(0x0c7a);
        let mut state = IncrementalAuctioneer::new(AuctioneerModel::IterativeCharging);
        let mut live: Vec<u32> = Vec::new();
        for round in 0..12 {
            for _ in 0..rng.gen_range(1..5) {
                let op = rng.gen_range(0..3);
                if op == 0 || live.is_empty() {
                    let loc = Location::new(rng.gen_range(0..40), rng.gen_range(0..40));
                    let bids = [rng.gen_range(0..6), rng.gen_range(0..6), rng.gen_range(0..6)];
                    live.push(state.join(submission(&ttp, loc, &bids, rng.gen())));
                } else if op == 1 {
                    let i = rng.gen_range(0..live.len());
                    state.leave(live.swap_remove(i));
                } else {
                    let i = rng.gen_range(0..live.len());
                    let loc = Location::new(rng.gen_range(0..40), rng.gen_range(0..40));
                    let bids = [rng.gen_range(0..6), rng.gen_range(0..6), rng.gen_range(0..6)];
                    state.revise(live[i], submission(&ttp, loc, &bids, rng.gen()));
                }
            }
            if state.live_count() == 0 {
                continue;
            }
            let bids: Vec<_> = state.compact_submissions().into_iter().map(|s| s.bids).collect();
            assert_eq!(
                state.channel_classes(),
                crate::psd::table::compute_classes(&bids),
                "round {round}"
            );
        }
    }

    #[test]
    fn two_phase_bid_revise_matches_full_revise() {
        let ttp = ttp(2, 0xf6);
        let policy = ZeroReplacePolicy::never(ttp.config().bid_max());
        let mut rng = StdRng::seed_from_u64(0xbead);
        let mut fast = IncrementalAuctioneer::new(AuctioneerModel::IterativeCharging);
        let mut full = IncrementalAuctioneer::new(AuctioneerModel::IterativeCharging);
        let seeds: Vec<u64> = (0..12).map(|_| rng.gen()).collect();
        let locs: Vec<Location> =
            (0..12).map(|_| Location::new(rng.gen_range(0..30), rng.gen_range(0..30))).collect();
        for (i, (&seed, &loc)) in seeds.iter().zip(&locs).enumerate() {
            let bids = [i as u32 % 7, (i as u32 * 3) % 7];
            fast.join(submission(&ttp, loc, &bids, seed));
            full.join(submission(&ttp, loc, &bids, seed));
        }
        let mut pool = crate::arena::MaskScratch::new();
        for round in 0..6u64 {
            let i = rng.gen_range(0..12u32);
            let (seed, loc) = (seeds[i as usize], locs[i as usize]);
            let bids = [rng.gen_range(0..9), rng.gen_range(0..9)];
            // Same seed + same location: the resident masked location
            // moves back in unchanged and only the bids are re-masked.
            let SuSubmission { location, bids: retired } = fast.take_for_revise(i);
            retired.reclaim(&mut pool);
            let mut child = StdRng::seed_from_u64(seed);
            let revised = SuSubmission::rebuild_bids_in(
                location, loc, &bids, &ttp, &policy, &mut child, &mut pool,
            )
            .unwrap();
            fast.put_revised(i, revised);
            full.revise(i, submission(&ttp, loc, &bids, seed));
            assert_eq!(fast.conflict_graph(), full.conflict_graph(), "round {round}");
            assert_eq!(fast.channel_classes(), full.channel_classes(), "round {round}");
            let round_seed = rng.gen::<u64>();
            let run = |state: &IncrementalAuctioneer| {
                let mut rng = StdRng::seed_from_u64(round_seed);
                state.run_round_in(&ttp, &mut rng, &mut RoundScratch::new()).unwrap()
            };
            let (a, b) = (run(&fast), run(&full));
            assert_eq!(a.grants, b.grants, "round {round}");
            assert_eq!(a.outcome.assignments(), b.outcome.assignments(), "round {round}");
        }
    }

    #[test]
    fn leave_tombstones_are_reclaimed_by_the_index() {
        let ttp = ttp(1, 0xc3);
        let mut state = IncrementalAuctioneer::new(AuctioneerModel::IterativeCharging);
        let mut rng = StdRng::seed_from_u64(7);
        let slots: Vec<u32> = (0..20)
            .map(|i| {
                let loc = Location::new(rng.gen_range(0..50), rng.gen_range(0..50));
                state.join(submission(&ttp, loc, &[1], i))
            })
            .collect();
        let full = state.index_entries();
        for &s in &slots[5..] {
            state.leave(s);
        }
        // Live entries shrink with the live set; slot ids recycle
        // lowest-first on the next join.
        let drained = state.index_entries();
        assert!(drained.0 < full.0 && drained.1 < full.1);
        assert_eq!(state.live_count(), 5);
        let loc = Location::new(1, 1);
        assert_eq!(state.join(submission(&ttp, loc, &[1], 99)), 5);
    }

    #[test]
    fn revise_moves_only_the_revised_bidder() {
        let ttp = ttp(1, 0xd4);
        let mut state = IncrementalAuctioneer::new(AuctioneerModel::IterativeCharging);
        let a = state.join(submission(&ttp, Location::new(0, 0), &[4], 1));
        let b = state.join(submission(&ttp, Location::new(2, 2), &[5], 2));
        let c = state.join(submission(&ttp, Location::new(90, 90), &[6], 3));
        assert_eq!(state.conflict_graph().edge_count(), 1);

        // Relocate b away from a: the edge must dissolve.
        state.revise(b, submission(&ttp, Location::new(60, 60), &[5], 4));
        assert_eq!(state.conflict_graph().edge_count(), 0);

        // And back next to c: a new edge, nothing else.
        state.revise(b, submission(&ttp, Location::new(89, 91), &[7], 5));
        let g = state.conflict_graph();
        assert_eq!(g.edge_count(), 1);
        let order = state.live_slots();
        let rank = |s: u32| order.binary_search(&s).unwrap();
        assert!(g.are_conflicting(BidderId(rank(b)), BidderId(rank(c))));
        let _ = a;
    }
}
