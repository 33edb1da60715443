//! Private Bid Submission (§IV.B–C of the paper).
//!
//! Every bidder submits, per channel, three artefacts:
//!
//! * the masked prefix family of its (transformed) bid — the *point*;
//! * the masked cover of `[bid, bmax]` — the *range*, padded to the
//!   worst-case cardinality so its size leaks nothing;
//! * the bid sealed under the TTP key `gc`.
//!
//! The auctioneer compares two bids on the same channel by testing
//! `point_a ∩ range_b ≠ ∅ ⇔ a ≥ b`, which is all the greedy allocation
//! needs.
//!
//! The **basic** scheme ([`BasicBidSubmission`]) masks raw bids under a
//! single key and is kept for the paper's §IV.C.1 leakage analysis. The
//! **advanced** scheme ([`AdvancedBidSubmission`]) adds per-channel keys,
//! the secret offset `rd` (zeros map uniformly into `[0, rd]`), the
//! range-expansion factor `cr` (equal prices get distinct ciphertexts)
//! and probabilistic zero disguises.

use lppa_crypto::keys::{HmacKey, SealKey};
use lppa_crypto::seal::SealedValue;
use lppa_prefix::{MaskScratch, MaskedPoint, MaskedRange};
use lppa_rng::Rng;

use crate::config::LppaConfig;
use crate::error::LppaError;
use crate::ttp::BidderKeys;
use crate::zero_replace::ZeroReplacePolicy;

/// One channel's masked bid: point, range and sealed price.
#[derive(Clone, Debug)]
pub struct ChannelBid {
    /// Masked prefix family of the (possibly disguised) bid value.
    pub point: MaskedPoint,
    /// Masked, padded cover of `[value, domain_max]`.
    pub range: MaskedRange,
    /// The true (never disguised) transformed price, sealed for the TTP.
    pub sealed: SealedValue,
}

impl ChannelBid {
    /// Transmission size in bytes.
    pub fn wire_len(&self) -> usize {
        self.point.wire_len() + self.range.wire_len() + self.sealed.wire_len()
    }

    /// An order-sensitive digest of the transmitted parts, used by
    /// transport integrity checksums.
    pub fn checksum(&self) -> u64 {
        self.point
            .fingerprint()
            .rotate_left(1)
            .wrapping_add(self.range.fingerprint())
            .rotate_left(1)
            .wrapping_add(self.sealed.fingerprint())
    }

    #[allow(clippy::too_many_arguments)] // private constructor mirroring the protocol fields
    fn build<R: Rng + ?Sized>(
        key: &HmacKey,
        gc: &SealKey,
        width: u8,
        domain_max: u32,
        shown_value: u32,
        true_value: u32,
        pad_range: bool,
        rng: &mut R,
    ) -> Result<Self, LppaError> {
        Self::build_in(
            key,
            gc,
            width,
            domain_max,
            shown_value,
            true_value,
            pad_range,
            rng,
            &mut MaskScratch::new(),
        )
    }

    /// [`ChannelBid::build`] staging through a pooled scratch. RNG draw
    /// order (range padding, then seal nonce) is identical to the
    /// unpooled path, so output bits match exactly.
    #[allow(clippy::too_many_arguments)] // private constructor mirroring the protocol fields
    fn build_in<R: Rng + ?Sized>(
        key: &HmacKey,
        gc: &SealKey,
        width: u8,
        domain_max: u32,
        shown_value: u32,
        true_value: u32,
        pad_range: bool,
        rng: &mut R,
        scratch: &mut MaskScratch,
    ) -> Result<Self, LppaError> {
        let range = if pad_range {
            MaskedRange::mask_padded_in(key, width, shown_value, domain_max, rng, scratch)?
        } else {
            // The basic scheme of §IV.B transmits the minimal cover;
            // its size leaks the bid (§IV.C.1 problem 3), which the
            // advanced scheme's padding closes.
            MaskedRange::mask_in(key, width, shown_value, domain_max, scratch)?
        };
        Ok(Self {
            point: MaskedPoint::mask_in(key, width, shown_value, scratch)?,
            range,
            sealed: SealedValue::seal(gc, u64::from(true_value), rng),
        })
    }

    /// Retires this bid, recycling its two tag runs into `scratch`.
    fn reclaim(self, scratch: &mut MaskScratch) {
        scratch.reclaim_point(self.point);
        scratch.reclaim_range(self.range);
    }
}

/// The basic scheme of §IV.B: a single masking key, no transforms.
///
/// Provided for the paper's leakage analysis; real deployments should use
/// [`AdvancedBidSubmission`].
#[derive(Clone, Debug)]
pub struct BasicBidSubmission {
    bids: Vec<ChannelBid>,
    width: u8,
}

impl BasicBidSubmission {
    /// Masks `raw_bids` (one per channel) under the single key `gb`.
    ///
    /// # Errors
    ///
    /// Returns [`LppaError::BidOutOfRange`] for oversized bids, or a
    /// config/prefix error.
    pub fn build<R: Rng + ?Sized>(
        raw_bids: &[u32],
        gb: &HmacKey,
        gc: &SealKey,
        config: &LppaConfig,
        rng: &mut R,
    ) -> Result<Self, LppaError> {
        config.validate()?;
        let width = config.bid_bits;
        let bmax = config.bid_max();
        let bids = raw_bids
            .iter()
            .map(|&b| {
                if b > bmax {
                    return Err(LppaError::BidOutOfRange { bid: b, bmax });
                }
                ChannelBid::build(gb, gc, width, bmax, b, b, false, rng)
            })
            .collect::<Result<_, _>>()?;
        Ok(Self { bids, width })
    }

    /// The masked bids, channel by channel.
    pub fn bids(&self) -> &[ChannelBid] {
        &self.bids
    }

    /// The bid-domain bit width.
    pub fn width(&self) -> u8 {
        self.width
    }
}

/// The advanced scheme of §IV.C.
#[derive(Clone, Debug)]
pub struct AdvancedBidSubmission {
    bids: Vec<ChannelBid>,
    /// Per channel: whether the *presented* value is positive-looking
    /// (a genuine positive bid or a disguise). Plain zeros are `false`.
    /// Not transmitted — used by the iterative-charging auctioneer model
    /// (see `crate::protocol::AuctioneerModel`), where the TTP reveals
    /// plain-zero winners and their cells are struck.
    presented_positive: Vec<bool>,
}

impl AdvancedBidSubmission {
    /// Transforms and masks `raw_bids` (one per channel).
    ///
    /// Per channel `r` the bidder:
    ///
    /// 1. computes the true offset value — `raw + rd`, or uniform in
    ///    `[0, rd]` for a zero;
    /// 2. expands it by `cr` with a uniform slot, yielding the sealed
    ///    *true* transformed price;
    /// 3. decides (for zeros only) whether to *disguise*: with
    ///    probability `p_t` the masked point/range present the value `t`
    ///    instead, while the sealed price stays truthful so a disguised
    ///    win is caught by the TTP;
    /// 4. masks point and range under the per-channel key `gb_r`, padding
    ///    the range to `max(2, 2w − 2)` tags (the worst-case cover
    ///    cardinality, see `lppa_prefix::max_cover_len`).
    ///
    /// # Errors
    ///
    /// Returns [`LppaError::ChannelCountMismatch`] if `raw_bids` does not
    /// match the key count, [`LppaError::BidOutOfRange`] for oversized
    /// bids, or a config/prefix error.
    pub fn build<R: Rng + ?Sized>(
        raw_bids: &[u32],
        keys: &BidderKeys,
        config: &LppaConfig,
        policy: &ZeroReplacePolicy,
        rng: &mut R,
    ) -> Result<Self, LppaError> {
        Self::build_in(raw_bids, keys, config, policy, rng, &mut MaskScratch::new())
    }

    /// [`AdvancedBidSubmission::build`] staging through a pooled
    /// [`MaskScratch`]: bit-identical output, allocation-free tag runs
    /// once the pool is warm.
    ///
    /// # Errors
    ///
    /// As for [`AdvancedBidSubmission::build`].
    pub fn build_in<R: Rng + ?Sized>(
        raw_bids: &[u32],
        keys: &BidderKeys,
        config: &LppaConfig,
        policy: &ZeroReplacePolicy,
        rng: &mut R,
        scratch: &mut MaskScratch,
    ) -> Result<Self, LppaError> {
        config.validate()?;
        if raw_bids.len() != keys.gb.len() {
            return Err(LppaError::ChannelCountMismatch {
                submitted: raw_bids.len(),
                expected: keys.gb.len(),
            });
        }
        let bmax = config.bid_max();
        let width = config.transformed_bits();
        let domain_max = config.transformed_max();

        let transform = |offset_value: u32, rng: &mut R| -> u32 {
            config.cr * offset_value + rng.gen_range(0..config.cr)
        };

        let mut presented_positive = Vec::with_capacity(raw_bids.len());
        let bids = raw_bids
            .iter()
            .zip(keys.gb.iter())
            .map(|(&raw, key)| {
                if raw > bmax {
                    return Err(LppaError::BidOutOfRange { bid: raw, bmax });
                }
                let true_offset =
                    if raw == 0 { rng.gen_range(0..=config.rd) } else { config.offset_bid(raw) };
                let true_value = transform(true_offset, rng);

                let shown_value = if raw == 0 {
                    match policy.sample(rng) {
                        // Disguise: present t as if it were a genuine bid.
                        Some(t) => {
                            presented_positive.push(true);
                            transform(config.offset_bid(t.min(bmax)), rng)
                        }
                        None => {
                            presented_positive.push(false);
                            true_value
                        }
                    }
                } else {
                    presented_positive.push(true);
                    true_value
                };
                ChannelBid::build_in(
                    key,
                    &keys.gc,
                    width,
                    domain_max,
                    shown_value,
                    true_value,
                    true,
                    rng,
                    scratch,
                )
            })
            .collect::<Result<_, _>>()?;
        Ok(Self { bids, presented_positive })
    }

    /// Retires this submission, recycling every per-channel tag run into
    /// `scratch` for the next [`build_in`](Self::build_in). The last
    /// channel goes first, so the next build takes each run back for
    /// the channel it served.
    pub fn reclaim(self, scratch: &mut MaskScratch) {
        for bid in self.bids.into_iter().rev() {
            bid.reclaim(scratch);
        }
    }

    /// Reassembles a submission from raw parts — the receiving side of a
    /// wire transfer, and the hook chaos tooling uses to model tampered
    /// or corrupted submissions.
    ///
    /// No semantic validation happens here (the parts are opaque masked
    /// sets); use `crate::protocol::validate_submission` at the
    /// auctioneer's edge.
    ///
    /// # Errors
    ///
    /// Returns [`LppaError::ChannelCountMismatch`] if the two vectors
    /// disagree on the channel count.
    pub fn from_parts(
        bids: Vec<ChannelBid>,
        presented_positive: Vec<bool>,
    ) -> Result<Self, LppaError> {
        if bids.len() != presented_positive.len() {
            return Err(LppaError::ChannelCountMismatch {
                submitted: presented_positive.len(),
                expected: bids.len(),
            });
        }
        Ok(Self { bids, presented_positive })
    }

    /// The masked bids, channel by channel.
    pub fn bids(&self) -> &[ChannelBid] {
        &self.bids
    }

    /// Per channel: whether the presented value is positive-looking — a
    /// genuine positive bid or a disguise. Plain zeros are `false`.
    ///
    /// This flag never leaves the bidder in the oblivious model; the
    /// iterative-charging model (see `crate::protocol::AuctioneerModel`)
    /// is equivalent to the auctioneer learning it one TTP round at a
    /// time for winners only.
    pub fn presented_positive(&self) -> &[bool] {
        &self.presented_positive
    }

    /// Number of channels covered.
    pub fn n_channels(&self) -> usize {
        self.bids.len()
    }

    /// Total transmission size in bytes.
    pub fn wire_len(&self) -> usize {
        self.bids.iter().map(ChannelBid::wire_len).sum()
    }

    /// Digest over every channel's transmitted parts (channel order is
    /// significant).
    pub fn checksum(&self) -> u64 {
        self.bids.iter().fold(0u64, |acc, bid| acc.rotate_left(7).wrapping_add(bid.checksum()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ttp::Ttp;
    use lppa_rng::rngs::StdRng;
    use lppa_rng::SeedableRng;

    fn setup(k: usize) -> (Ttp, LppaConfig, StdRng) {
        let config = LppaConfig::default();
        let mut rng = StdRng::seed_from_u64(9);
        let ttp = Ttp::new(k, config, &mut rng).unwrap();
        (ttp, config, rng)
    }

    /// The auctioneer's ≥ test between two channel bids.
    fn ge(a: &ChannelBid, b: &ChannelBid) -> bool {
        a.point.in_range(&b.range)
    }

    #[test]
    fn basic_scheme_orders_bids() {
        let (ttp, config, mut rng) = setup(1);
        let keys = ttp.bidder_keys();
        // The paper's example: four bidders bidding {6, 10, 0, 5}.
        let submissions: Vec<BasicBidSubmission> = [6u32, 10, 0, 5]
            .iter()
            .map(|&b| {
                BasicBidSubmission::build(&[b], &keys.gb[0], &keys.gc, &config, &mut rng).unwrap()
            })
            .collect();
        let bid = |i: usize| &submissions[i].bids()[0];
        // 10 dominates everyone.
        for other in [0usize, 2, 3] {
            assert!(ge(bid(1), bid(other)));
        }
        // 6 beats 5 and 0 but not 10.
        assert!(ge(bid(0), bid(3)));
        assert!(ge(bid(0), bid(2)));
        assert!(!ge(bid(0), bid(1)));
        assert_eq!(submissions[0].width(), config.bid_bits);
    }

    #[test]
    fn basic_scheme_rejects_oversized_bid() {
        let (ttp, config, mut rng) = setup(1);
        let keys = ttp.bidder_keys();
        let err = BasicBidSubmission::build(&[200], &keys.gb[0], &keys.gc, &config, &mut rng)
            .unwrap_err();
        assert!(matches!(err, LppaError::BidOutOfRange { bid: 200, .. }));
    }

    #[test]
    fn advanced_scheme_preserves_order_of_nonzero_bids() {
        let (ttp, config, mut rng) = setup(1);
        let keys = ttp.bidder_keys();
        let policy = ZeroReplacePolicy::never(config.bid_max());
        let raws = [3u32, 50, 50, 127, 1];
        let submissions: Vec<AdvancedBidSubmission> = raws
            .iter()
            .map(|&b| AdvancedBidSubmission::build(&[b], keys, &config, &policy, &mut rng).unwrap())
            .collect();
        for (i, &ri) in raws.iter().enumerate() {
            for (j, &rj) in raws.iter().enumerate() {
                let masked_ge = ge(&submissions[i].bids()[0], &submissions[j].bids()[0]);
                if ri > rj {
                    assert!(masked_ge, "{ri} vs {rj}");
                } else if ri < rj {
                    assert!(!masked_ge, "{ri} vs {rj}");
                }
                // Equal raw bids may order either way (cr slots), but the
                // relation must be antisymmetric-or-tie.
            }
        }
    }

    #[test]
    fn per_channel_keys_block_cross_channel_comparison() {
        let (ttp, config, mut rng) = setup(2);
        let keys = ttp.bidder_keys();
        let policy = ZeroReplacePolicy::never(config.bid_max());
        let sub =
            AdvancedBidSubmission::build(&[100, 1], keys, &config, &policy, &mut rng).unwrap();
        // Bid 100 on channel 0 vs bid 1 on channel 1: plaintext says ≥,
        // but the masked test fails because the keys differ.
        assert!(!sub.bids()[0].point.in_range(&sub.bids()[1].range));
    }

    #[test]
    fn channel_count_must_match_keys() {
        let (ttp, config, mut rng) = setup(3);
        let keys = ttp.bidder_keys();
        let policy = ZeroReplacePolicy::never(config.bid_max());
        let err =
            AdvancedBidSubmission::build(&[1, 2], keys, &config, &policy, &mut rng).unwrap_err();
        assert!(matches!(err, LppaError::ChannelCountMismatch { submitted: 2, expected: 3 }));
    }

    #[test]
    fn zeros_stay_below_nonzero_bids_without_disguise() {
        let (ttp, config, mut rng) = setup(1);
        let keys = ttp.bidder_keys();
        let policy = ZeroReplacePolicy::never(config.bid_max());
        for _ in 0..20 {
            let zero =
                AdvancedBidSubmission::build(&[0], keys, &config, &policy, &mut rng).unwrap();
            let one = AdvancedBidSubmission::build(&[1], keys, &config, &policy, &mut rng).unwrap();
            assert!(ge(&one.bids()[0], &zero.bids()[0]));
            assert!(!ge(&zero.bids()[0], &one.bids()[0]));
        }
    }

    #[test]
    fn full_disguise_makes_zeros_beat_small_bids_sometimes() {
        let (ttp, config, mut rng) = setup(1);
        let keys = ttp.bidder_keys();
        let policy = ZeroReplacePolicy::uniform(1.0, config.bid_max());
        let small = AdvancedBidSubmission::build(
            &[1],
            keys,
            &config,
            &ZeroReplacePolicy::never(config.bid_max()),
            &mut rng,
        )
        .unwrap();
        let mut wins = 0;
        for _ in 0..50 {
            let zero =
                AdvancedBidSubmission::build(&[0], keys, &config, &policy, &mut rng).unwrap();
            if ge(&zero.bids()[0], &small.bids()[0]) {
                wins += 1;
            }
        }
        assert!(wins > 20, "disguised zeros won only {wins}/50 against bid 1");
    }

    #[test]
    fn equal_bids_seal_to_distinct_ciphertexts() {
        // The cr expansion plus randomized sealing defeats the
        // plaintext–ciphertext pairing attack of §V.B.
        let (ttp, config, mut rng) = setup(1);
        let keys = ttp.bidder_keys();
        let policy = ZeroReplacePolicy::never(config.bid_max());
        let a = AdvancedBidSubmission::build(&[42], keys, &config, &policy, &mut rng).unwrap();
        let b = AdvancedBidSubmission::build(&[42], keys, &config, &policy, &mut rng).unwrap();
        assert_ne!(a.bids()[0].sealed, b.bids()[0].sealed);
    }

    #[test]
    fn all_range_sets_have_uniform_cardinality() {
        // §IV.C.1 problem 3: range-cover size must not leak the bid.
        let (ttp, config, mut rng) = setup(1);
        let keys = ttp.bidder_keys();
        let policy = ZeroReplacePolicy::never(config.bid_max());
        let sizes: std::collections::HashSet<usize> = [0u32, 1, 9, 64, 127]
            .iter()
            .map(|&b| {
                AdvancedBidSubmission::build(&[b], keys, &config, &policy, &mut rng).unwrap().bids()
                    [0]
                .range
                .len()
            })
            .collect();
        assert_eq!(sizes.len(), 1, "range sizes differ: {sizes:?}");
    }

    #[test]
    fn wire_len_is_bid_independent() {
        let (ttp, config, mut rng) = setup(4);
        let keys = ttp.bidder_keys();
        let policy = ZeroReplacePolicy::uniform(0.5, config.bid_max());
        let sizes: std::collections::HashSet<usize> =
            [vec![0u32, 0, 0, 0], vec![127, 127, 127, 127], vec![0, 3, 77, 127]]
                .into_iter()
                .map(|bids| {
                    AdvancedBidSubmission::build(&bids, keys, &config, &policy, &mut rng)
                        .unwrap()
                        .wire_len()
                })
                .collect();
        assert_eq!(sizes.len(), 1);
    }
}
