//! The auctioneer's masked bid table.
//!
//! After the bidding phase the auctioneer holds one
//! [`AdvancedBidSubmission`] per bidder. It cannot read any price, but
//! within a channel it can test `a ≥ b` through prefix membership — which
//! is enough to drive the greedy allocation (as the [`BidOracle`]
//! implementation) and to rank a column (which is also exactly the
//! information the §VI attacker can exploit, see
//! `lppa_attack::ChannelRankings`).
//!
//! One table serves every [`BackendKind`]: the backend only decides how
//! the per-channel tie classes are ranked. The exact backends (`hmac`,
//! `ledger`) rank with [`compute_classes`]; `bloom`, whose `≥` can be
//! intransitive, ranks with [`backend_classes`]' dominance count.

use lppa_auction::allocation::BidOracle;
use lppa_auction::bidder::BidderId;
use lppa_prefix::backend::{Backend, BackendKind, BackendPoint, BackendRange};
use lppa_spectrum::ChannelId;

use lppa_crypto::tag::{Tag, TagBuildHasher};
use std::borrow::Borrow;
use std::collections::HashMap;

use crate::error::LppaError;
use crate::ppbs::bid::AdvancedBidSubmission;
use crate::protocol::AuctioneerModel;

/// All bidders' masked submissions, as the auctioneer stores them.
#[derive(Clone, Debug)]
pub struct MaskedBidTable<S = AdvancedBidSubmission> {
    submissions: Vec<S>,
    n_channels: usize,
    prune_plain_zeros: bool,
    /// Per-channel *tie classes*: `classes[ch][b]` is bidder `b`'s rank
    /// class on channel `ch` by descending masked bid, `0` highest, with
    /// equal transformed values (mutual masked `≥`) sharing a class.
    /// Computed once per collect — every later winner selection and
    /// ranking is then pure integer work instead of masked membership
    /// tests.
    classes: Vec<Vec<u32>>,
}

impl<S: Borrow<AdvancedBidSubmission>> MaskedBidTable<S> {
    /// [`Self::collect_with`] for the `hmac` backend and the fully
    /// oblivious model: every cell is an entry, because the auctioneer
    /// cannot tell zeros apart.
    ///
    /// # Errors
    ///
    /// As for [`Self::collect_with`].
    pub fn collect(submissions: Vec<S>) -> Result<Self, LppaError> {
        Self::collect_with(submissions, BackendKind::Hmac, AuctioneerModel::Oblivious)
    }

    /// [`Self::collect_with`] for the `hmac` backend and the
    /// iterative-charging model (plain-zero pruning).
    ///
    /// # Errors
    ///
    /// As for [`Self::collect_with`].
    pub fn collect_pruned(submissions: Vec<S>) -> Result<Self, LppaError> {
        Self::collect_with(submissions, BackendKind::Hmac, AuctioneerModel::IterativeCharging)
    }

    /// Collects the submissions, ranking every channel through the
    /// backend named by `kind`.
    ///
    /// Under [`AuctioneerModel::IterativeCharging`] cells whose presented
    /// value is an undisguised zero are treated as absent (*plain-zero
    /// pruning*): whenever a plain zero wins, the TTP detects it (the
    /// winner's prefixes match its sealed zero-band value), reveals it,
    /// and the auctioneer strikes the cell and re-auctions the channel.
    /// Since a plain zero never beats a positive-looking entry, striking
    /// them all up front yields the same final allocation as the
    /// round-by-round iteration.
    ///
    /// # Errors
    ///
    /// Returns [`LppaError::ChannelCountMismatch`] if the submissions do
    /// not all cover the same channels, or [`LppaError::InvalidConfig`]
    /// if there are none.
    pub fn collect_with(
        submissions: Vec<S>,
        kind: BackendKind,
        model: AuctioneerModel,
    ) -> Result<Self, LppaError> {
        let n_channels = channel_count(&submissions)?;
        let classes = match kind {
            BackendKind::Bloom => backend_classes(&kind.backend(), &submissions, n_channels),
            BackendKind::Hmac | BackendKind::Ledger => compute_classes(&submissions),
        };
        Ok(Self::assemble(submissions, n_channels, classes, model))
    }

    /// A table over *precomputed* tie classes — for the incremental
    /// engine, which maintains the channel orders across rounds and so
    /// skips the per-collect ranking. `classes` must be
    /// `n_channels × n_bidders`.
    ///
    /// # Errors
    ///
    /// As for [`Self::collect_with`].
    pub(crate) fn with_classes(
        submissions: Vec<S>,
        classes: Vec<Vec<u32>>,
        model: AuctioneerModel,
    ) -> Result<Self, LppaError> {
        let n_channels = channel_count(&submissions)?;
        debug_assert!(
            classes.len() == n_channels && classes.iter().all(|c| c.len() == submissions.len()),
            "class table is not n_channels × n_bidders"
        );
        Ok(Self::assemble(submissions, n_channels, classes, model))
    }

    fn assemble(
        submissions: Vec<S>,
        n_channels: usize,
        classes: Vec<Vec<u32>>,
        model: AuctioneerModel,
    ) -> Self {
        let prune_plain_zeros = model == AuctioneerModel::IterativeCharging;
        Self { submissions, n_channels, prune_plain_zeros, classes }
    }

    /// The per-channel tie classes driving winner selection;
    /// `classes()[ch][b]` is bidder `b`'s descending-bid rank class on
    /// channel `ch` (`0` highest, ties share a class).
    pub fn classes(&self) -> &[Vec<u32>] {
        &self.classes
    }

    /// Tears the table down to its tie-class vectors so a pooled round
    /// loop can recycle their backing storage.
    pub(crate) fn into_classes(self) -> Vec<Vec<u32>> {
        self.classes
    }

    /// The stored submissions (owned or borrowed, per `S`).
    pub fn submissions(&self) -> &[S] {
        &self.submissions
    }

    /// The masked comparison `bid(a, channel) ≥ bid(b, channel)`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range; use [`Self::try_ge`] for
    /// untrusted indices.
    pub fn ge(&self, channel: ChannelId, a: BidderId, b: BidderId) -> bool {
        let pa = &self.submissions[a.0].borrow().bids()[channel.0];
        let pb = &self.submissions[b.0].borrow().bids()[channel.0];
        pa.point.in_range(&pb.range)
    }

    /// Bounds-checked [`Self::ge`] for indices from untrusted inputs.
    ///
    /// # Errors
    ///
    /// Returns [`LppaError::Internal`] naming the out-of-range index.
    pub fn try_ge(&self, channel: ChannelId, a: BidderId, b: BidderId) -> Result<bool, LppaError> {
        let cell = |bidder: BidderId| {
            self.submissions
                .get(bidder.0)
                .and_then(|s| s.borrow().bids().get(channel.0))
                .ok_or_else(|| LppaError::Internal {
                    what: format!("bid cell ({}, {}) out of range", bidder.0, channel.0),
                })
        };
        Ok(cell(a)?.point.in_range(&cell(b)?.range))
    }

    /// Ranks all bidders on `channel` by descending masked bid, ties in
    /// ascending id order — the §VI attacker's view of a column, read
    /// off the stored tie classes.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn rank_channel(&self, channel: ChannelId) -> Vec<BidderId> {
        let classes = &self.classes[channel.0];
        let mut order: Vec<BidderId> = (0..self.submissions.len()).map(BidderId).collect();
        // Stable: bidders of one class keep ascending id order.
        order.sort_by_key(|b| classes[b.0]);
        order
    }

    /// Per-channel descending rankings for every channel.
    pub fn channel_rankings(&self) -> Vec<Vec<BidderId>> {
        (0..self.n_channels).map(|c| self.rank_channel(ChannelId(c))).collect()
    }

    /// Reference winner set: one tournament pass of masked comparisons
    /// finds a maximal candidate, a second linear pass collects every
    /// candidate `≥` it. The production selection reads the same set
    /// off the tie classes (the minimum-class candidates); the property
    /// suite and the oracle's `maxima_variants` invariant hold the two
    /// equal.
    ///
    /// Returns an empty vector for empty `candidates`.
    ///
    /// # Panics
    ///
    /// Panics if any id is out of range.
    pub fn maxima_linear(&self, channel: ChannelId, candidates: &[BidderId]) -> Vec<BidderId> {
        let Some((&first, rest)) = candidates.split_first() else { return Vec::new() };
        let mut best = first;
        for &c in rest {
            if !self.ge(channel, best, c) {
                best = c;
            }
        }
        candidates.iter().copied().filter(|&c| self.ge(channel, c, best)).collect()
    }
}

impl<S: Borrow<AdvancedBidSubmission>> BidOracle for MaskedBidTable<S> {
    fn n_bidders(&self) -> usize {
        self.submissions.len()
    }

    fn n_channels(&self) -> usize {
        self.n_channels
    }

    /// In the oblivious model every cell is an entry — the auctioneer
    /// cannot distinguish zeros, which is precisely why disguised zeros
    /// can win and why the TTP must invalidate them at charging time. In
    /// the pruned (iterative-charging) model, cells whose presented value
    /// is a plain zero are absent.
    fn has_entry(&self, bidder: BidderId, channel: ChannelId) -> bool {
        if self.prune_plain_zeros {
            self.submissions[bidder.0].borrow().presented_positive()[channel.0]
        } else {
            true
        }
    }

    fn select_winner(
        &self,
        channel: ChannelId,
        candidates: &[BidderId],
        rng: &mut dyn lppa_rng::RngCore,
    ) -> BidderId {
        // Integer-only maxima via the precomputed tie classes: the
        // candidates in the lowest class are exactly the mutual-`≥` tie
        // set of the column maximum, the same set (in the same candidate
        // order) as [`Self::maxima_linear`].
        let classes = &self.classes[channel.0];
        let Some(best) = candidates.iter().map(|c| classes[c.0]).min() else {
            // Empty candidates break the trait contract; mirror the old
            // fallback shape instead of panicking mid-auction.
            return candidates.first().copied().unwrap_or(BidderId(0));
        };
        // Count-then-draw-then-scan replaces collecting the maxima into
        // a Vec and calling `choose`: `choose` on a length-`m` slice
        // draws exactly `gen_range(0..m)`, so the RNG stream and the
        // picked bidder are bit-identical — with zero allocations in the
        // auction's innermost loop.
        let m = candidates.iter().filter(|c| classes[c.0] == best).count();
        if m == 0 {
            return candidates[0];
        }
        let pick = lppa_rng::Rng::gen_range(rng, 0..m);
        candidates
            .iter()
            .copied()
            .filter(|c| classes[c.0] == best)
            .nth(pick)
            .unwrap_or(candidates[0])
    }
}

/// The channel count every submission must share.
fn channel_count<S: Borrow<AdvancedBidSubmission>>(submissions: &[S]) -> Result<usize, LppaError> {
    let n_channels = submissions
        .first()
        .map(|s| s.borrow().n_channels())
        .ok_or_else(|| LppaError::InvalidConfig { reason: "no submissions".into() })?;
    for s in submissions {
        if s.borrow().n_channels() != n_channels {
            return Err(LppaError::ChannelCountMismatch {
                submitted: s.borrow().n_channels(),
                expected: n_channels,
            });
        }
    }
    Ok(n_channels)
}

/// Computes the per-channel tie classes of [`MaskedBidTable::classes`]
/// under the exact masked `≥`, with one counting pass per channel and
/// no masked comparison.
///
/// The pass counts each point tag's *owners* (the bidders whose family
/// holds it), then gives bidder `b` the sum `S_b` of the owner counts
/// over its range cover's tags. A genuine family of `v_a` meets the
/// genuine cover of `[v_b, max]` in exactly one prefix when
/// `v_a ≥ v_b` and in none otherwise, and padding tags match nothing,
/// so `S_b = #{a : v_a ≥ v_b}`: strictly decreasing in the bid. The
/// dense rank of the sums in ascending order is therefore the tie-class
/// vector of the masked `≥` — `n·(w+1)` map updates and `n·(2w−2)`
/// lookups instead of `n log n` membership tests.
///
/// A tampered family (a dropped, altered or foreign tag) only moves the
/// sums it touches; the classes stay a total preorder, and nothing can
/// panic on an inconsistent comparator because none is consulted.
pub fn compute_classes<S: Borrow<AdvancedBidSubmission>>(submissions: &[S]) -> Vec<Vec<u32>> {
    let n_channels = submissions.first().map_or(0, |s| s.borrow().n_channels());
    // One owner-count map, cleared and reused channel by channel.
    let mut owners = HashMap::<Tag, u32, TagBuildHasher>::default();
    (0..n_channels)
        .map(|ch| {
            let cell = |b: usize| &submissions[b].borrow().bids()[ch];
            owners.clear();
            for b in 0..submissions.len() {
                for &tag in cell(b).point.iter() {
                    *owners.entry(tag).or_insert(0) += 1;
                }
            }
            // `S_b = #{a : v_a ≥ v_b}`, so `S_a ≤ S_b` is `a ≥ b`.
            let dominators: Vec<u32> = (0..submissions.len())
                .map(|b| cell(b).range.iter().filter_map(|t| owners.get(t)).sum())
                .collect();
            let mut order: Vec<usize> = (0..submissions.len()).collect();
            order.sort_unstable_by_key(|&b| dominators[b]);
            class_walk(&order, |a, b| dominators[a] <= dominators[b])
        })
        .collect()
}

/// Computes per-channel tie classes through `backend` probes.
///
/// The descending order is not a pairwise ranking: a lossy backend's
/// `ge` can be intransitive (a Bloom false positive asserts `a ≥ b`
/// spuriously). Each bidder is instead ranked by its **dominance count**
/// `#{b : ge(a, b)}`, stably, ties in index order. For an exact backend
/// the count is strictly monotone in the bid (`v_a > v_b` implies `a`'s
/// dominated set properly contains `b`'s), so the classes equal
/// [`compute_classes`]'; for a lossy backend it is a deterministic total
/// order that degrades gracefully with the false-positive rate.
pub fn backend_classes<S: Borrow<AdvancedBidSubmission>>(
    backend: &Backend,
    submissions: &[S],
    n_channels: usize,
) -> Vec<Vec<u32>> {
    let n = submissions.len();
    (0..n_channels)
        .map(|ch| {
            let cell = |i: usize| &submissions[i].borrow().bids()[ch];
            let points: Vec<BackendPoint> =
                (0..n).map(|i| backend.compile_point(&cell(i).point)).collect();
            let ranges: Vec<BackendRange> =
                (0..n).map(|i| backend.compile_range(&cell(i).range)).collect();
            let mut ge = vec![false; n * n];
            let mut dominated = vec![0usize; n];
            for a in 0..n {
                for b in 0..n {
                    let hit = backend.probe(&points[a], &ranges[b]);
                    ge[a * n + b] = hit;
                    dominated[a] += usize::from(hit);
                }
            }
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by_key(|&a| std::cmp::Reverse(dominated[a]));
            class_walk(&order, |a, b| ge[a * n + b])
        })
        .collect()
}

/// Assigns class ids along a descending `order`: an entry opens a new
/// class unless it is `≥` its predecessor (the predecessor being `≥`
/// it is given by the order).
fn class_walk(order: &[usize], ge: impl Fn(usize, usize) -> bool) -> Vec<u32> {
    let mut classes = vec![0u32; order.len()];
    let mut class = 0u32;
    for (i, &id) in order.iter().enumerate() {
        if i > 0 && !ge(id, order[i - 1]) {
            class += 1;
        }
        classes[id] = class;
    }
    classes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LppaConfig;
    use crate::ttp::Ttp;
    use crate::zero_replace::ZeroReplacePolicy;
    use lppa_rng::rngs::StdRng;
    use lppa_rng::SeedableRng;

    fn table_for(raw_rows: &[Vec<u32>], seed: u64) -> (MaskedBidTable, Vec<Vec<u32>>) {
        let config = LppaConfig::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let k = raw_rows[0].len();
        let ttp = Ttp::new(k, config, &mut rng).unwrap();
        let policy = ZeroReplacePolicy::never(config.bid_max());
        let submissions = raw_rows
            .iter()
            .map(|row| {
                AdvancedBidSubmission::build(row, ttp.bidder_keys(), &config, &policy, &mut rng)
                    .unwrap()
            })
            .collect();
        (MaskedBidTable::collect(submissions).unwrap(), raw_rows.to_vec())
    }

    #[test]
    fn ge_matches_plaintext_for_distinct_bids() {
        let (table, raws) = table_for(&[vec![5, 80], vec![9, 3], vec![1, 40]], 1);
        for (ch, _) in raws[0].iter().enumerate() {
            for a in 0..3usize {
                for b in 0..3usize {
                    let (ra, rb) = (raws[a][ch], raws[b][ch]);
                    if ra == rb {
                        continue;
                    }
                    assert_eq!(
                        table.ge(ChannelId(ch), BidderId(a), BidderId(b)),
                        ra > rb,
                        "ch={ch} {ra} vs {rb}"
                    );
                }
            }
        }
    }

    #[test]
    fn ranking_matches_plaintext_order() {
        let rows = vec![vec![5u32], vec![90], vec![13], vec![0], vec![55]];
        let (table, raws) = table_for(&rows, 2);
        let ranking = table.rank_channel(ChannelId(0));
        let ranked_raws: Vec<u32> = ranking.iter().map(|b| raws[b.0][0]).collect();
        let mut expected: Vec<u32> = rows.iter().map(|r| r[0]).collect();
        expected.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(ranked_raws, expected);
        assert_eq!(table.channel_rankings().len(), 1);
    }

    #[test]
    fn select_winner_picks_the_plaintext_maximum() {
        let (table, _) = table_for(&[vec![5], vec![90], vec![13]], 3);
        let mut rng = StdRng::seed_from_u64(4);
        let winner =
            table.select_winner(ChannelId(0), &[BidderId(0), BidderId(1), BidderId(2)], &mut rng);
        assert_eq!(winner, BidderId(1));
        // Restricting candidates excludes the global maximum.
        let winner = table.select_winner(ChannelId(0), &[BidderId(0), BidderId(2)], &mut rng);
        assert_eq!(winner, BidderId(2));
    }

    #[test]
    fn every_cell_is_an_entry() {
        let (table, _) = table_for(&[vec![0, 0], vec![1, 0]], 5);
        for b in 0..2 {
            for c in 0..2 {
                assert!(BidOracle::has_entry(&table, BidderId(b), ChannelId(c)));
            }
        }
        assert_eq!(BidOracle::n_bidders(&table), 2);
        assert_eq!(BidOracle::n_channels(&table), 2);
    }

    #[test]
    fn collect_rejects_mismatched_submissions() {
        let config = LppaConfig::default();
        let mut rng = StdRng::seed_from_u64(6);
        let policy = ZeroReplacePolicy::never(config.bid_max());
        let ttp2 = Ttp::new(2, config, &mut rng).unwrap();
        let ttp3 = Ttp::new(3, config, &mut rng).unwrap();
        let a =
            AdvancedBidSubmission::build(&[1, 2], ttp2.bidder_keys(), &config, &policy, &mut rng)
                .unwrap();
        let b = AdvancedBidSubmission::build(
            &[1, 2, 3],
            ttp3.bidder_keys(),
            &config,
            &policy,
            &mut rng,
        )
        .unwrap();
        assert!(matches!(
            MaskedBidTable::collect(vec![a, b]),
            Err(LppaError::ChannelCountMismatch { .. })
        ));
        assert!(MaskedBidTable::<AdvancedBidSubmission>::collect(vec![]).is_err());
    }

    /// Counted classes over `n × k` bids masked from known values, against
    /// the plaintext dense rank (class = distinct values above). Values
    /// come from a pool of at most 40, holding both domain ends, so most
    /// classes are ties.
    fn assert_counted_classes_match_plaintext(n: usize, k: usize, seed: u64) {
        use crate::ppbs::bid::ChannelBid;
        use lppa_crypto::keys::{HmacKey, SealKey};
        use lppa_crypto::seal::SealedValue;
        use lppa_prefix::{MaskedPoint, MaskedRange};
        use lppa_rng::seq::SliceRandom;
        use lppa_rng::Rng;

        let config = LppaConfig::default();
        let (width, max) = (config.transformed_bits(), config.transformed_max());
        let mut rng = StdRng::seed_from_u64(seed);
        let keys: Vec<HmacKey> = (0..k).map(|_| HmacKey::random(&mut rng)).collect();
        let seal = SealKey::random(&mut rng);
        let mut pool = vec![0, max];
        pool.extend((0..38).map(|_| rng.gen_range(1..max)));
        let values: Vec<Vec<u32>> =
            (0..n).map(|_| (0..k).map(|_| *pool.choose(&mut rng).unwrap()).collect()).collect();
        let submissions: Vec<AdvancedBidSubmission> = values
            .iter()
            .map(|row| {
                let bids = row
                    .iter()
                    .zip(&keys)
                    .map(|(&v, key)| ChannelBid {
                        point: MaskedPoint::mask(key, width, v).unwrap(),
                        range: MaskedRange::mask_padded(key, width, v, max, &mut rng).unwrap(),
                        sealed: SealedValue::seal(&seal, u64::from(v), &mut rng),
                    })
                    .collect();
                AdvancedBidSubmission::from_parts(bids, vec![true; k]).unwrap()
            })
            .collect();

        let classes = compute_classes(&submissions);
        assert_eq!(classes.len(), k);
        for (ch, got) in classes.iter().enumerate() {
            let mut distinct: Vec<u32> = values.iter().map(|row| row[ch]).collect();
            distinct.sort_unstable();
            distinct.dedup();
            let above = |v: u32| (distinct.len() - 1 - distinct.binary_search(&v).unwrap()) as u32;
            let want: Vec<u32> = values.iter().map(|row| above(row[ch])).collect();
            assert_eq!(got, &want, "n={n} k={k} ch={ch}");
        }
    }

    #[test]
    fn counted_classes_match_plaintext_dense_rank_fleet_shape() {
        assert_counted_classes_match_plaintext(1000, 2, 17);
    }

    #[test]
    fn counted_classes_match_plaintext_dense_rank_wire129_shape() {
        assert_counted_classes_match_plaintext(25, 129, 129);
    }

    #[test]
    fn tampered_tag_families_rank_without_panicking() {
        // A byte flipped in the back half of one point tag drops that
        // prefix from the family, which can make the masked `≥`
        // inconsistent (neither bid ≥ the other). Collect and ranking
        // must still return, never panic.
        use lppa_rng::Rng as _;
        let config = LppaConfig::default();
        let policy = ZeroReplacePolicy::never(config.bid_max());
        for seed in 0..300u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let ttp = Ttp::new(1, config, &mut rng).unwrap();
            let mut subs: Vec<AdvancedBidSubmission> = (0..25)
                .map(|_| {
                    let bid = rng.gen_range(0..=config.bid_max());
                    AdvancedBidSubmission::build(
                        &[bid],
                        ttp.bidder_keys(),
                        &config,
                        &policy,
                        &mut rng,
                    )
                    .unwrap()
                })
                .collect();
            let victim = rng.gen_range(0..subs.len());
            let mut bids = subs[victim].bids().to_vec();
            let mut tags: Vec<_> = bids[0].point.iter().copied().collect();
            let t = rng.gen_range(0..tags.len());
            let mut bytes = *tags[t].as_bytes();
            bytes[rng.gen_range(8..16usize)] ^= rng.gen_range(1..=255u8);
            tags[t] = lppa_crypto::tag::Tag::from_bytes(bytes);
            bids[0].point = lppa_prefix::MaskedPoint::from_tags(tags).unwrap();
            let positive = subs[victim].presented_positive().to_vec();
            subs[victim] = AdvancedBidSubmission::from_parts(bids, positive).unwrap();

            let table = MaskedBidTable::collect(subs).unwrap();
            let ranking = &table.channel_rankings()[0];
            assert_eq!(ranking.len(), 25, "seed {seed}");
        }
    }
}
