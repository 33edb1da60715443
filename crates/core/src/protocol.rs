//! The end-to-end LPPA protocol: bidder side, auctioneer side, TTP
//! charging.
//!
//! The flow mirrors the paper's architecture (Fig. 1a):
//!
//! 1. the TTP issues keys to the bidders ([`crate::ttp::Ttp`]);
//! 2. each SU builds a [`SuSubmission`] — masked location plus masked,
//!    transformed bids — and sends it to the auctioneer;
//! 3. the auctioneer constructs the conflict graph and runs the greedy
//!    allocation entirely on masked data;
//! 4. winning sealed bids go to the TTP in one batch; valid charges come
//!    back, disguised zeros are flagged invalid (the channel grant is
//!    wasted — the §VI performance cost of the defence).

use std::borrow::Borrow;

use lppa_auction::allocation::{greedy_allocate_in, Grant};
use lppa_auction::bidder::Location;
use lppa_auction::conflict::ConflictGraph;
use lppa_auction::outcome::{Assignment, AuctionOutcome};
use lppa_prefix::backend::BackendKind;
use lppa_prefix::MaskScratch;
use lppa_rng::rngs::StdRng;
use lppa_rng::{Rng, SeedableRng};

use crate::arena::RoundScratch;
use crate::backend::RoundLedger;
use crate::config::LppaConfig;
use crate::error::LppaError;
use crate::ppbs::bid::{AdvancedBidSubmission, ChannelBid};
use crate::ppbs::location::{build_conflict_graph, LocationSubmission};
use crate::psd::table::MaskedBidTable;
use crate::ttp::{ChargeDecision, ChargeRequest, Ttp};
use crate::zero_replace::ZeroReplacePolicy;

/// Everything one secondary user transmits to the auctioneer.
#[derive(Clone, Debug)]
pub struct SuSubmission {
    /// Masked location (conflict-graph material).
    pub location: LocationSubmission,
    /// Masked, transformed per-channel bids.
    pub bids: AdvancedBidSubmission,
}

impl SuSubmission {
    /// Builds a submission on the bidder side.
    ///
    /// # Errors
    ///
    /// Propagates location/bid domain violations and configuration
    /// errors.
    pub fn build<R: Rng + ?Sized>(
        location: Location,
        raw_bids: &[u32],
        ttp: &Ttp,
        policy: &ZeroReplacePolicy,
        rng: &mut R,
    ) -> Result<Self, LppaError> {
        Self::build_in(location, raw_bids, ttp, policy, rng, &mut MaskScratch::new())
    }

    /// [`SuSubmission::build`] staging every tag run through a pooled
    /// [`MaskScratch`]: bit-identical output, and allocation-free masking
    /// once the pool holds enough retired runs (see
    /// [`reclaim`](Self::reclaim)).
    ///
    /// # Errors
    ///
    /// As for [`SuSubmission::build`].
    pub fn build_in<R: Rng + ?Sized>(
        location: Location,
        raw_bids: &[u32],
        ttp: &Ttp,
        policy: &ZeroReplacePolicy,
        rng: &mut R,
        scratch: &mut MaskScratch,
    ) -> Result<Self, LppaError> {
        let keys = ttp.bidder_keys();
        let config = ttp.config();
        Ok(Self {
            location: LocationSubmission::build_in(location, &keys.g0, config, rng, scratch)?,
            bids: AdvancedBidSubmission::build_in(raw_bids, keys, config, policy, rng, scratch)?,
        })
    }

    /// Rebuilds only the bid half of a submission, reusing a resident
    /// masked location unchanged.
    ///
    /// For a bidder whose location **and** seed are unchanged since its
    /// last full build, re-masking the location reproduces the resident
    /// tags bit for bit — so a revise can skip those HMACs entirely. The
    /// caller passes the resident [`LocationSubmission`] back in along
    /// with the plaintext `location` it was built from; this replays the
    /// location build's RNG draws (see
    /// [`LocationSubmission::replay_build_draws`]) so the bid build
    /// starts at the same stream position as a full
    /// [`build_in`](Self::build_in), then masks the new bids for real.
    /// Output is bit-identical to a full rebuild with the same RNG seed.
    ///
    /// # Errors
    ///
    /// As for [`SuSubmission::build`].
    pub fn rebuild_bids_in<R: Rng + ?Sized>(
        resident: LocationSubmission,
        location: Location,
        raw_bids: &[u32],
        ttp: &Ttp,
        policy: &ZeroReplacePolicy,
        rng: &mut R,
        scratch: &mut MaskScratch,
    ) -> Result<Self, LppaError> {
        let keys = ttp.bidder_keys();
        let config = ttp.config();
        LocationSubmission::replay_build_draws(location, config, rng, scratch)?;
        Ok(Self {
            location: resident,
            bids: AdvancedBidSubmission::build_in(raw_bids, keys, config, policy, rng, scratch)?,
        })
    }

    /// Retires this submission, recycling every backing tag run into
    /// `scratch` — the churn service reclaims leavers' and revisers'
    /// submissions so sustained rounds stop touching the allocator. The
    /// bids go first and the location last, the reverse of the build
    /// order, so the next build of the same shape refills every run
    /// without growing it.
    pub fn reclaim(self, scratch: &mut MaskScratch) {
        self.bids.reclaim(scratch);
        self.location.reclaim(scratch);
    }

    /// Total transmission size in bytes.
    pub fn wire_len(&self) -> usize {
        self.location.wire_len() + self.bids.wire_len()
    }

    /// Transport integrity checksum over everything transmitted.
    ///
    /// The sender computes it once and attaches it to the wire message;
    /// the receiver recomputes and discards mismatching deliveries as
    /// corrupt. It digests only public wire bytes (masked tags and
    /// ciphertexts), so it leaks nothing new.
    pub fn checksum(&self) -> u64 {
        self.location.checksum().rotate_left(13).wrapping_add(self.bids.checksum())
    }
}

/// Structural validation of a received [`SuSubmission`] at the
/// auctioneer's edge.
///
/// Checks that the channel count matches the auction, every prefix
/// family carries exactly `width + 1` tags, every range cover is
/// padded to the worst-case cardinality, and every point — each location
/// axis and each channel's presented bid — lies in its own cover: the
/// shape every genuine bidder produces by construction (a shown bid
/// lies in `[shown, max]`). Ragged, truncated or made-up groups are the
/// fingerprint of transport damage or tampering and must be quarantined
/// per bidder, not allowed to poison the round.
///
/// # Errors
///
/// [`LppaError::ChannelCountMismatch`] or
/// [`LppaError::MalformedSubmission`] naming the broken part.
pub fn validate_submission(sub: &SuSubmission, ttp: &Ttp) -> Result<(), LppaError> {
    validate_submission_with(sub, ttp.n_channels(), ttp.config())
}

/// [`validate_submission`] against explicit public round parameters.
///
/// Validation needs only the channel count and the (public) auction
/// configuration — never the TTP's keys — so a networked auctioneer
/// that learned both from the round announcement can run the identical
/// check without holding a [`Ttp`].
///
/// # Errors
///
/// As [`validate_submission`].
pub fn validate_submission_with(
    sub: &SuSubmission,
    expected: usize,
    config: &LppaConfig,
) -> Result<(), LppaError> {
    if sub.bids.n_channels() != expected {
        return Err(LppaError::ChannelCountMismatch { submitted: sub.bids.n_channels(), expected });
    }
    sub.location.validate(config)?;
    let width = config.transformed_bits();
    let want_point = usize::from(width) + 1;
    let want_range = lppa_prefix::max_cover_len(width);
    for (ch, bid) in sub.bids.bids().iter().enumerate() {
        if bid.point.len() != want_point {
            return Err(LppaError::MalformedSubmission {
                reason: format!(
                    "channel {ch} point has {} tags, expected {want_point}",
                    bid.point.len()
                ),
            });
        }
        if bid.range.len() != want_range {
            return Err(LppaError::MalformedSubmission {
                reason: format!(
                    "channel {ch} range has {} tags, expected {want_range}",
                    bid.range.len()
                ),
            });
        }
        if !bid.point.in_range(&bid.range) {
            return Err(LppaError::MalformedSubmission {
                reason: format!("channel {ch} point lies outside its own range"),
            });
        }
    }
    Ok(())
}

/// How the auctioneer handles cells it cannot prove are genuine bids.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AuctioneerModel {
    /// Fully oblivious single-shot charging: every cell is an entry, the
    /// TTP is consulted exactly once, and every invalid (zero) win is a
    /// final, wasted grant. This is the most conservative reading of the
    /// paper and over-counts wasted grants in the long tail, where
    /// columns hold only plain zeros.
    Oblivious,
    /// Iterative charging: when a winner turns out to be an *undisguised*
    /// zero, the TTP can prove it (the sealed zero-band value matches the
    /// submitted prefixes), reveal it, and the auctioneer strikes the
    /// cell and re-auctions the channel. Disguised-zero wins stay final —
    /// retrying those would reveal which bids were disguises and defeat
    /// the defence. Equivalent to pruning plain-zero cells up front,
    /// which is how it is implemented. This model matches the paper's
    /// §VI performance curves and is the default.
    #[default]
    IterativeCharging,
}

/// The auctioneer's result of a private auction round.
#[derive(Clone, Debug)]
pub struct PrivateAuctionResult {
    /// Valid assignments with TTP-decrypted first-price charges.
    pub outcome: AuctionOutcome,
    /// Grants the TTP invalidated (disguised zeros that won) — wasted
    /// spectrum, the price of the defence.
    pub invalid_grants: Vec<Grant>,
    /// The conflict graph the auctioneer reconstructed from masked
    /// locations.
    pub conflicts: ConflictGraph,
    /// The raw grants in allocation order (before charging).
    pub grants: Vec<Grant>,
}

/// Runs the auctioneer + TTP side of one complete LPPA auction: the
/// conflict graph from masked locations, the masked table under
/// `model`, greedy allocation and first-price TTP charging.
///
/// # Errors
///
/// Returns an error if the submissions are inconsistent or the TTP
/// detects tampering. Disguised zeros are *not* errors — they surface in
/// `invalid_grants`.
pub fn run_private_auction_with_model<R: Rng>(
    submissions: &[SuSubmission],
    ttp: &Ttp,
    model: AuctioneerModel,
    rng: &mut R,
) -> Result<PrivateAuctionResult, LppaError> {
    let conflicts = conflict_graph(submissions);
    let bids = submissions.iter().map(|s| &s.bids).collect();
    let table = MaskedBidTable::collect_with(bids, BackendKind::Hmac, model)?;
    settle_allocation_in(&table, conflicts, ttp, rng, &mut RoundScratch::new(), None)
}

/// The conflict graph the auctioneer reconstructs from the submissions'
/// masked locations, read in place.
pub fn conflict_graph<S: Borrow<SuSubmission>>(submissions: &[S]) -> ConflictGraph {
    let locations: Vec<&LocationSubmission> =
        submissions.iter().map(|s| &s.borrow().location).collect();
    build_conflict_graph(&locations)
}

/// Phases 3–4 over a collected table: the allocate half (greedy
/// allocation on the scratch's pooled buffers), then the charge half
/// ([`charge_grants_in`]). Shared by the batch path and the incremental
/// engine, which collects its table with precomputed tie classes.
pub(crate) fn settle_allocation_in<S, R>(
    table: &MaskedBidTable<S>,
    conflicts: ConflictGraph,
    ttp: &Ttp,
    rng: &mut R,
    scratch: &mut RoundScratch,
    slots: Option<&[u32]>,
) -> Result<PrivateAuctionResult, LppaError>
where
    S: Borrow<AdvancedBidSubmission>,
    R: Rng,
{
    let grants = greedy_allocate_in(table, &conflicts, rng, &mut scratch.alloc);
    let (outcome, invalid_grants) = charge_grants_in(table, &grants, ttp, scratch, slots, None)?;
    Ok(PrivateAuctionResult { outcome, invalid_grants, conflicts, grants })
}

/// The charge half of a round: opens every grant's sealed bid at the
/// TTP, borrowing each winning bid's sealed value and masked point in
/// place (no [`ChargeRequest`] clones) and verifying through the
/// scratch's tag-run pool. Fail-fast: the first tampering verdict
/// aborts the round. Returns the first-price outcome and the grants
/// the TTP invalidated (disguised zeros), and appends one `charge`
/// record per grant to `ledger` when given.
///
/// `slots`, when given, maps each compact bidder id to its stable slot
/// id and turns on the scratch's per-slot charge-decision memo: a
/// decision is a pure function of the TTP's channel key and the slot's
/// resident `(sealed, point)` pair, so re-verifying an unchurned winner
/// re-derives the identical verdict — the memo skips that HMAC work
/// without moving an output bit. The caller owns invalidation
/// ([`RoundScratch::charge_clear_slot`] on every churn event).
pub(crate) fn charge_grants_in<S>(
    table: &MaskedBidTable<S>,
    grants: &[Grant],
    ttp: &Ttp,
    scratch: &mut RoundScratch,
    slots: Option<&[u32]>,
    mut ledger: Option<&mut RoundLedger>,
) -> Result<(AuctionOutcome, Vec<Grant>), LppaError>
where
    S: Borrow<AdvancedBidSubmission>,
{
    let k = ttp.n_channels();
    let mut assignments = Vec::new();
    let mut invalid_grants = Vec::new();
    for grant in grants {
        let bid = winning_bid(table, grant)?;
        let slot = slots.map(|order| order[grant.bidder.0]);
        let decision = match slot.and_then(|s| scratch.charge_get(s, grant.channel.0)) {
            Some(decision) => decision,
            None => {
                let decision = ttp.open_charge_parts(
                    grant.channel,
                    &bid.sealed,
                    &bid.point,
                    &mut scratch.mask,
                )?;
                if let Some(s) = slot {
                    scratch.charge_put(s, k, grant.channel.0, decision);
                }
                decision
            }
        };
        if let Some(ledger) = ledger.as_deref_mut() {
            ledger.charge(grant, Some(&Ok(decision)));
        }
        match decision {
            ChargeDecision::Valid { raw_price } => assignments.push(Assignment {
                bidder: grant.bidder,
                channel: grant.channel,
                price: raw_price,
            }),
            ChargeDecision::InvalidZero => invalid_grants.push(*grant),
        }
    }
    let outcome = AuctionOutcome::from_assignments(assignments, table.submissions().len());
    Ok((outcome, invalid_grants))
}

/// The table cell a grant awards, checked instead of indexed so a
/// corrupted grant list cannot panic the auctioneer.
fn winning_bid<'a, S: Borrow<AdvancedBidSubmission>>(
    table: &'a MaskedBidTable<S>,
    grant: &Grant,
) -> Result<&'a ChannelBid, LppaError> {
    table
        .submissions()
        .get(grant.bidder.0)
        .and_then(|s| s.borrow().bids().get(grant.channel.0))
        .ok_or_else(|| LppaError::Internal {
            what: format!("grant ({}, {}) outside bid table", grant.bidder.0, grant.channel.0),
        })
}

/// Builds the TTP charging requests for `grants` over `table`.
///
/// # Errors
///
/// Returns [`LppaError::Internal`] if a grant references a cell outside
/// the table — impossible for grants produced by the allocation, but
/// checked instead of indexed so corrupted grant lists cannot panic the
/// auctioneer.
pub fn charge_requests<S: Borrow<AdvancedBidSubmission>>(
    table: &MaskedBidTable<S>,
    grants: &[Grant],
) -> Result<Vec<ChargeRequest>, LppaError> {
    grants
        .iter()
        .map(|g| {
            let bid = winning_bid(table, g)?;
            Ok(ChargeRequest {
                channel: g.channel,
                sealed: bid.sealed.clone(),
                point: bid.point.clone(),
            })
        })
        .collect()
}

/// Builds every bidder's [`SuSubmission`] in parallel.
///
/// Bidders are independent by construction — each one masks its own
/// tags under the shared keys on its own device — so the batch fans out
/// across `LPPA_THREADS` workers (`lppa_par::par_map_staged`), each
/// masking its run of bidders through one `MaskScratch`. To keep the
/// output independent of the thread count, one child seed per bidder is
/// drawn *sequentially* from the caller's RNG first; each submission is
/// then derived from its own seeded [`StdRng`]. The result is
/// bit-identical for every `LPPA_THREADS` value (the reproducibility CI
/// gate diffs pinned-seed runs at 1 and 4 threads to prove it).
///
/// # Errors
///
/// Returns the first (by bidder order) domain or configuration error, as
/// for [`SuSubmission::build`].
pub fn build_submissions<R: Rng>(
    bidders: &[(Location, Vec<u32>)],
    ttp: &Ttp,
    policy: &ZeroReplacePolicy,
    rng: &mut R,
) -> Result<Vec<SuSubmission>, LppaError> {
    let seeded: Vec<(u64, &(Location, Vec<u32>))> =
        bidders.iter().map(|bidder| (rng.next_u64(), bidder)).collect();
    lppa_par::par_map_staged(&seeded, MaskScratch::new, |scratch, (seed, bidder)| {
        let (location, raw_bids) = bidder;
        let mut child = StdRng::seed_from_u64(*seed);
        SuSubmission::build_in(*location, raw_bids, ttp, policy, &mut child, scratch)
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lppa_auction::bidder::BidderId;

    fn ttp(k: usize, seed: u64) -> (Ttp, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ttp = Ttp::new(k, LppaConfig::default(), &mut rng).unwrap();
        (ttp, rng)
    }

    fn run_from_bids(
        bidders: &[(Location, Vec<u32>)],
        ttp: &Ttp,
        policy: &ZeroReplacePolicy,
        rng: &mut StdRng,
    ) -> PrivateAuctionResult {
        let submissions = build_submissions(bidders, ttp, policy, rng).unwrap();
        run_private_auction_with_model(&submissions, ttp, AuctioneerModel::default(), rng).unwrap()
    }

    #[test]
    fn private_auction_matches_plaintext_semantics_without_disguises() {
        // With no zero disguises, the private auction must award channels
        // to plaintext maxima, respect conflicts, and charge first price.
        let (ttp, mut rng) = ttp(3, 1);
        let policy = ZeroReplacePolicy::never(ttp.config().bid_max());
        let bidders: Vec<(Location, Vec<u32>)> = vec![
            (Location::new(0, 0), vec![50, 0, 10]),
            (Location::new(100, 100), vec![40, 20, 0]),
            (Location::new(1, 1), vec![60, 0, 5]), // conflicts with bidder 0
        ];
        let result = run_from_bids(&bidders, &ttp, &policy, &mut rng);

        assert!(result.invalid_grants.is_empty(), "no disguises, no invalid wins");
        // Bidder 2 outbids bidder 0 on channel 0 and they conflict, so
        // bidder 0 cannot also hold channel 0.
        let holders0: Vec<BidderId> = result
            .outcome
            .assignments()
            .iter()
            .filter(|a| a.channel == lppa_spectrum::ChannelId(0))
            .map(|a| a.bidder)
            .collect();
        assert!(result.conflicts.is_independent(&holders0));
        // Every charge equals the raw bid.
        for a in result.outcome.assignments() {
            assert_eq!(a.price, bidders[a.bidder.0].1[a.channel.0], "{a:?}");
            assert!(a.price > 0);
        }
    }

    #[test]
    fn conflict_graph_matches_plaintext() {
        let (ttp, mut rng) = ttp(1, 2);
        let policy = ZeroReplacePolicy::never(ttp.config().bid_max());
        let locs = [
            Location::new(10, 10),
            Location::new(12, 12),
            Location::new(90, 90),
            Location::new(13, 9),
        ];
        let bidders: Vec<(Location, Vec<u32>)> = locs.iter().map(|&l| (l, vec![5u32])).collect();
        let result = run_from_bids(&bidders, &ttp, &policy, &mut rng);
        let plain = ConflictGraph::from_locations(&locs, ttp.config().lambda);
        assert_eq!(result.conflicts, plain);
    }

    #[test]
    fn disguised_zero_wins_are_invalidated_not_charged() {
        // One genuine small bid, many bidders whose zeros always disguise
        // as large values: disguises will win but must never be charged.
        let (ttp, mut rng) = ttp(1, 3);
        let bmax = ttp.config().bid_max();
        let always_high = ZeroReplacePolicy::from_probabilities({
            let mut p = vec![0.0; bmax as usize + 1];
            p[bmax as usize] = 1.0; // always disguise as bmax
            p
        });
        // All bidders conflict (same spot) so exactly one grant happens.
        let bidders: Vec<(Location, Vec<u32>)> = vec![
            (Location::new(5, 5), vec![1]),
            (Location::new(5, 5), vec![0]),
            (Location::new(5, 5), vec![0]),
        ];
        let result = run_from_bids(&bidders, &ttp, &always_high, &mut rng);
        // The disguised zeros (presenting bmax) beat the genuine bid 1.
        assert_eq!(result.grants.len(), 1);
        assert_eq!(result.invalid_grants.len(), 1);
        assert!(result.outcome.assignments().is_empty());
        assert_eq!(result.outcome.revenue(), 0);
    }

    #[test]
    fn revenue_decreases_with_disguise_probability() {
        // The Fig. 5e effect in miniature: more disguising, less revenue.
        let (ttp, _) = ttp(4, 4);
        let run = |replace: f64, seed: u64| -> u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let policy = ZeroReplacePolicy::uniform(replace, ttp.config().bid_max());
            use lppa_rng::Rng as _;
            let bidders: Vec<(Location, Vec<u32>)> = (0..20)
                .map(|_| {
                    let loc = Location::new(rng.gen_range(0..=127), rng.gen_range(0..=127));
                    let bids = (0..4)
                        .map(|_| if rng.gen_bool(0.5) { 0 } else { rng.gen_range(1..=80) })
                        .collect();
                    (loc, bids)
                })
                .collect();
            run_from_bids(&bidders, &ttp, &policy, &mut rng).outcome.revenue()
        };
        let mut none_total = 0u64;
        let mut full_total = 0u64;
        for seed in 0..8 {
            none_total += run(0.0, seed);
            full_total += run(1.0, seed);
        }
        assert!(
            full_total < none_total,
            "full disguising ({full_total}) should cost revenue vs none ({none_total})"
        );
    }

    #[test]
    fn submission_wire_len_accounts_location_and_bids() {
        let (ttp, mut rng) = ttp(2, 5);
        let policy = ZeroReplacePolicy::never(ttp.config().bid_max());
        let sub =
            SuSubmission::build(Location::new(3, 4), &[1, 2], &ttp, &policy, &mut rng).unwrap();
        assert_eq!(sub.wire_len(), sub.location.wire_len() + sub.bids.wire_len());
        assert!(sub.wire_len() > 0);
    }

    #[test]
    fn validate_submission_accepts_genuine_and_names_damage() {
        let (ttp, mut rng) = ttp(2, 6);
        let policy = ZeroReplacePolicy::never(ttp.config().bid_max());
        let sub =
            SuSubmission::build(Location::new(9, 9), &[3, 0], &ttp, &policy, &mut rng).unwrap();
        assert!(validate_submission(&sub, &ttp).is_ok());

        // Ragged channel count.
        let ttp3 = Ttp::new(3, *ttp.config(), &mut rng).unwrap();
        let ragged =
            SuSubmission::build(Location::new(9, 9), &[1, 2, 3], &ttp3, &policy, &mut rng).unwrap();
        assert!(matches!(
            validate_submission(&ragged, &ttp),
            Err(LppaError::ChannelCountMismatch { submitted: 3, expected: 2 })
        ));

        // Truncated point tags on one channel.
        let mut bids = sub.bids.bids().to_vec();
        let kept: Vec<_> = bids[1].point.iter().copied().take(3).collect();
        bids[1].point = lppa_prefix::MaskedPoint::from_tags(kept).unwrap();
        let truncated = SuSubmission {
            location: sub.location.clone(),
            bids: crate::ppbs::bid::AdvancedBidSubmission::from_parts(
                bids,
                sub.bids.presented_positive().to_vec(),
            )
            .unwrap(),
        };
        let err = validate_submission(&truncated, &ttp).unwrap_err();
        assert!(err.to_string().contains("channel 1 point"), "{err}");
    }

    #[test]
    fn validate_submission_rejects_a_point_outside_its_own_cover() {
        // A correctly sized cover that does not contain the channel's
        // presented point: the bid claims one value and ranks as another.
        let (ttp, mut rng) = ttp(2, 8);
        let policy = ZeroReplacePolicy::never(ttp.config().bid_max());
        let sub =
            SuSubmission::build(Location::new(9, 9), &[3, 5], &ttp, &policy, &mut rng).unwrap();
        let config = *ttp.config();
        let max = config.transformed_max();
        let mut bids = sub.bids.bids().to_vec();
        bids[0].range = lppa_prefix::MaskedRange::mask_padded(
            &ttp.bidder_keys().gb[0],
            config.transformed_bits(),
            max - 1,
            max,
            &mut rng,
        )
        .unwrap();
        let forged = SuSubmission {
            location: sub.location.clone(),
            bids: crate::ppbs::bid::AdvancedBidSubmission::from_parts(
                bids,
                sub.bids.presented_positive().to_vec(),
            )
            .unwrap(),
        };
        let err = validate_submission(&forged, &ttp).unwrap_err();
        assert!(err.to_string().contains("channel 0 point lies outside its own range"), "{err}");
    }

    #[test]
    fn checksum_detects_bid_tampering() {
        let (ttp, mut rng) = ttp(2, 7);
        let policy = ZeroReplacePolicy::never(ttp.config().bid_max());
        let sub =
            SuSubmission::build(Location::new(4, 5), &[7, 9], &ttp, &policy, &mut rng).unwrap();
        let original = sub.checksum();
        // Re-mask channel 0's point as a different value: same shape,
        // different tags — the checksum must move.
        let config = *ttp.config();
        let forged = lppa_prefix::MaskedPoint::mask(
            &ttp.bidder_keys().gb[0],
            config.transformed_bits(),
            config.cr * config.offset_bid(100),
        )
        .unwrap();
        let mut bids = sub.bids.bids().to_vec();
        bids[0].point = forged;
        let tampered = SuSubmission {
            location: sub.location,
            bids: crate::ppbs::bid::AdvancedBidSubmission::from_parts(
                bids,
                sub.bids.presented_positive().to_vec(),
            )
            .unwrap(),
        };
        assert_ne!(original, tampered.checksum());
        // Shape is intact, so structural validation still passes — the
        // checksum is the transport-level defence, the TTP the
        // protocol-level one.
        assert!(validate_submission(&tampered, &ttp).is_ok());
    }
}
