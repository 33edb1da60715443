//! The periodically-available Trusted Third Party.
//!
//! The TTP's two jobs (§II.C, §V.B):
//!
//! 1. **Key distribution** — generate the location-masking key `g0`, the
//!    per-channel bid-masking keys `gb_1..gb_k` and its own symmetric key
//!    `gc`, and share them with the bidders (never the auctioneer).
//! 2. **Charging** — open the sealed winning bids the auctioneer
//!    forwards, flag disguised zeros as invalid, verify that the winner's
//!    masked prefixes are consistent with the sealed price (no bid
//!    manipulation), and return the plaintext charge.
//!
//! Charging is a pure function of the request and the TTP's keys, so a
//! periodically-online TTP can drain queued requests in any order and
//! answer retransmitted duplicates identically (§V.C.2).

use lppa_crypto::keys::{HmacKey, SealKey};
use lppa_crypto::seal::SealedValue;
use lppa_prefix::{MaskScratch, MaskedPoint};
use lppa_rng::Rng;
use lppa_spectrum::ChannelId;

use crate::config::LppaConfig;
use crate::error::LppaError;

/// The key material the TTP shares with every bidder.
#[derive(Clone, Debug)]
pub struct BidderKeys {
    /// Location-prefix masking key `g0`.
    pub g0: HmacKey,
    /// Per-channel bid-prefix masking keys `gb_r`.
    pub gb: Vec<HmacKey>,
    /// The TTP's sealing key `gc` (bidders encrypt, TTP decrypts).
    pub gc: SealKey,
}

/// One winning bid forwarded by the auctioneer for charging.
#[derive(Clone, Debug)]
pub struct ChargeRequest {
    /// The channel that was won.
    pub channel: ChannelId,
    /// The sealed (offset- and `cr`-transformed) bid value.
    pub sealed: SealedValue,
    /// The winner's masked prefix family for that channel, used to detect
    /// manipulated prices.
    pub point: MaskedPoint,
}

/// The TTP's verdict on one charging request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChargeDecision {
    /// A genuine winning bid; charge the winner `raw_price`.
    Valid {
        /// The plaintext first-price charge.
        raw_price: u32,
    },
    /// The "winning" bid was a disguised zero — the auctioneer is told
    /// the win is invalid (and learns nothing about the price).
    InvalidZero,
}

/// The trusted third party.
#[derive(Clone, Debug)]
pub struct Ttp {
    keys: BidderKeys,
    config: LppaConfig,
}

impl Ttp {
    /// Creates a TTP for an auction of `n_channels` channels, generating
    /// fresh keys from `rng`.
    ///
    /// # Errors
    ///
    /// Returns [`LppaError::InvalidConfig`] if `config` is inconsistent
    /// or `n_channels` is zero.
    pub fn new<R: Rng + ?Sized>(
        n_channels: usize,
        config: LppaConfig,
        rng: &mut R,
    ) -> Result<Self, LppaError> {
        config.validate()?;
        if n_channels == 0 {
            return Err(LppaError::InvalidConfig { reason: "auction needs channels".into() });
        }
        let keys = BidderKeys {
            g0: HmacKey::random(rng),
            gb: (0..n_channels).map(|_| HmacKey::random(rng)).collect(),
            gc: SealKey::random(rng),
        };
        Ok(Self { keys, config })
    }

    /// Creates a TTP whose keys are derived from a 32-byte master secret
    /// and a round counter.
    ///
    /// With a master secret distributed once, bidders recompute every
    /// round's keys offline — the deployment §V.C.2 wants for a TTP that
    /// is only periodically online. Fresh rounds get independent keys.
    ///
    /// # Errors
    ///
    /// As for [`Ttp::new`].
    pub fn from_master(
        master: &[u8; 32],
        round: u64,
        n_channels: usize,
        config: LppaConfig,
    ) -> Result<Self, LppaError> {
        config.validate()?;
        if n_channels == 0 {
            return Err(LppaError::InvalidConfig { reason: "auction needs channels".into() });
        }
        let schedule = lppa_crypto::kdf::KeySchedule::derive(master, round, n_channels);
        Ok(Self { keys: BidderKeys { g0: schedule.g0, gb: schedule.gb, gc: schedule.gc }, config })
    }

    /// The key material distributed to bidders.
    pub fn bidder_keys(&self) -> &BidderKeys {
        &self.keys
    }

    /// Number of channels this TTP issued keys for.
    pub fn n_channels(&self) -> usize {
        self.keys.gb.len()
    }

    /// The shared protocol configuration.
    pub fn config(&self) -> &LppaConfig {
        &self.config
    }

    /// Processes one charging request.
    ///
    /// # Errors
    ///
    /// * [`LppaError::ChargeAuthentication`] — the sealed value failed
    ///   authentication (corrupted or sealed under a foreign key);
    /// * [`LppaError::ChargeManipulated`] — the sealed price is valid but
    ///   does not match the masked prefixes the winner submitted, i.e.
    ///   the bidder lied to the allocation stage;
    /// * [`LppaError::ChannelCountMismatch`] — unknown channel.
    pub fn open_charge(&self, request: &ChargeRequest) -> Result<ChargeDecision, LppaError> {
        self.open_charge_parts(
            request.channel,
            &request.sealed,
            &request.point,
            &mut MaskScratch::new(),
        )
    }

    /// [`Self::open_charge`] over borrowed request parts, staging the
    /// verification mask through a pooled scratch — the hot settlement
    /// path charges winners without cloning their sealed values or tag
    /// sets and, with a warm scratch, without allocating.
    ///
    /// # Errors
    ///
    /// As for [`Self::open_charge`].
    pub fn open_charge_parts(
        &self,
        channel: ChannelId,
        sealed: &SealedValue,
        point: &MaskedPoint,
        scratch: &mut MaskScratch,
    ) -> Result<ChargeDecision, LppaError> {
        let key = self.keys.gb.get(channel.0).ok_or(LppaError::ChannelCountMismatch {
            submitted: channel.0 + 1,
            expected: self.keys.gb.len(),
        })?;

        let transformed =
            sealed.open(&self.keys.gc).map_err(|_| LppaError::ChargeAuthentication)?;
        let transformed =
            u32::try_from(transformed).map_err(|_| LppaError::ChargeAuthentication)?;

        let offset_value = self.config.decode_transformed(transformed);
        if self.config.is_zero_price(offset_value) {
            // Disguised zero: notify the auctioneer the win is invalid.
            // No prefix check — a disguised zero's prefixes intentionally
            // do not match its sealed value.
            return Ok(ChargeDecision::InvalidZero);
        }

        // Verify the winner did not manipulate its price: the masked
        // family of the sealed transformed value must equal the family it
        // submitted for allocation.
        let expected =
            MaskedPoint::mask_in(key, self.config.transformed_bits(), transformed, scratch)?;
        let manipulated = expected != *point;
        scratch.reclaim_point(expected);
        if manipulated {
            return Err(LppaError::ChargeManipulated);
        }
        Ok(ChargeDecision::Valid { raw_price: self.config.decode_offset(offset_value) })
    }

    /// Sealed-bid second-price (Vickrey) charging: validates the
    /// `winner` exactly like [`Self::open_charge`], but prices the win
    /// at the *critical losing bid* — the maximum true raw value among
    /// the sealed bids of the conflicting losers in the winner's
    /// contest, forwarded by the auctioneer as `losers`.
    ///
    /// The TTP opens each loser's sealed true value, so disguised
    /// zeros among the losers correctly contribute their true price of
    /// 0 (not their presented disguise), and a manipulated *winner* is
    /// still caught by the prefix check. A contest with no conflicting
    /// losers charges 0 — the winner was unopposed.
    ///
    /// # Errors
    ///
    /// As [`Self::open_charge`] for the winner;
    /// [`LppaError::ChargeAuthentication`] if any loser's sealed value
    /// fails to open, since every forwarded seal came from a validated
    /// submission.
    pub fn open_vickrey(
        &self,
        winner: &ChargeRequest,
        losers: &[SealedValue],
    ) -> Result<ChargeDecision, LppaError> {
        match self.open_charge(winner)? {
            ChargeDecision::InvalidZero => Ok(ChargeDecision::InvalidZero),
            ChargeDecision::Valid { .. } => {
                let mut price = 0u32;
                for sealed in losers {
                    let transformed =
                        sealed.open(&self.keys.gc).map_err(|_| LppaError::ChargeAuthentication)?;
                    let transformed =
                        u32::try_from(transformed).map_err(|_| LppaError::ChargeAuthentication)?;
                    let offset_value = self.config.decode_transformed(transformed);
                    if !self.config.is_zero_price(offset_value) {
                        price = price.max(self.config.decode_offset(offset_value));
                    }
                }
                Ok(ChargeDecision::Valid { raw_price: price })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lppa_rng::rngs::StdRng;
    use lppa_rng::SeedableRng;

    fn setup() -> (Ttp, StdRng) {
        let mut rng = StdRng::seed_from_u64(77);
        let ttp = Ttp::new(4, LppaConfig::default(), &mut rng).unwrap();
        (ttp, rng)
    }

    /// Builds a genuine charging request for raw bid `raw` on `channel`.
    fn genuine_request(ttp: &Ttp, channel: ChannelId, raw: u32, rng: &mut StdRng) -> ChargeRequest {
        let config = ttp.config();
        let offset = if raw == 0 { rng.gen_range(0..=config.rd) } else { config.offset_bid(raw) };
        let transformed = config.cr * offset + rng.gen_range(0..config.cr);
        let point = MaskedPoint::mask(
            &ttp.bidder_keys().gb[channel.0],
            config.transformed_bits(),
            transformed,
        )
        .unwrap();
        let sealed = SealedValue::seal(&ttp.bidder_keys().gc, u64::from(transformed), rng);
        ChargeRequest { channel, sealed, point }
    }

    #[test]
    fn valid_charge_roundtrip() {
        let (ttp, mut rng) = setup();
        for raw in [1u32, 17, 127] {
            let req = genuine_request(&ttp, ChannelId(2), raw, &mut rng);
            assert_eq!(ttp.open_charge(&req).unwrap(), ChargeDecision::Valid { raw_price: raw });
        }
    }

    #[test]
    fn zero_price_is_invalid() {
        let (ttp, mut rng) = setup();
        for _ in 0..10 {
            let req = genuine_request(&ttp, ChannelId(0), 0, &mut rng);
            assert_eq!(ttp.open_charge(&req).unwrap(), ChargeDecision::InvalidZero);
        }
    }

    #[test]
    fn disguised_zero_is_invalid_even_with_foreign_prefixes() {
        // A disguised zero presents the prefixes of some t ≥ 1 but seals
        // its true (zero-band) value; the TTP must flag it invalid.
        let (ttp, mut rng) = setup();
        let config = *ttp.config();
        let disguise_transformed = config.cr * config.offset_bid(9); // looks like bid 9
        let point = MaskedPoint::mask(
            &ttp.bidder_keys().gb[1],
            config.transformed_bits(),
            disguise_transformed,
        )
        .unwrap();
        let true_zero = rng.gen_range(0..=config.rd) * config.cr;
        let sealed = SealedValue::seal(&ttp.bidder_keys().gc, u64::from(true_zero), &mut rng);
        let req = ChargeRequest { channel: ChannelId(1), sealed, point };
        assert_eq!(ttp.open_charge(&req).unwrap(), ChargeDecision::InvalidZero);
    }

    #[test]
    fn manipulated_price_is_detected() {
        // Seal one price but submit the prefixes of a higher one.
        let (ttp, mut rng) = setup();
        let config = *ttp.config();
        let low = config.cr * config.offset_bid(5);
        let high = config.cr * config.offset_bid(90);
        let point =
            MaskedPoint::mask(&ttp.bidder_keys().gb[0], config.transformed_bits(), high).unwrap();
        let sealed = SealedValue::seal(&ttp.bidder_keys().gc, u64::from(low), &mut rng);
        let req = ChargeRequest { channel: ChannelId(0), sealed, point };
        assert_eq!(ttp.open_charge(&req), Err(LppaError::ChargeManipulated));
    }

    #[test]
    fn foreign_seal_key_fails_authentication() {
        let (ttp, mut rng) = setup();
        let config = *ttp.config();
        let transformed = config.cr * config.offset_bid(5);
        let point =
            MaskedPoint::mask(&ttp.bidder_keys().gb[0], config.transformed_bits(), transformed)
                .unwrap();
        let foreign = SealKey::random(&mut rng);
        let sealed = SealedValue::seal(&foreign, u64::from(transformed), &mut rng);
        let req = ChargeRequest { channel: ChannelId(0), sealed, point };
        assert_eq!(ttp.open_charge(&req), Err(LppaError::ChargeAuthentication));
    }

    #[test]
    fn unknown_channel_is_rejected() {
        let (ttp, mut rng) = setup();
        let req = genuine_request(&ttp, ChannelId(1), 3, &mut rng);
        let bad = ChargeRequest { channel: ChannelId(9), ..req };
        assert!(matches!(ttp.open_charge(&bad), Err(LppaError::ChannelCountMismatch { .. })));
    }

    /// One verdict per request, each decided on its own.
    fn open_each(ttp: &Ttp, requests: &[ChargeRequest]) -> Vec<Result<ChargeDecision, LppaError>> {
        requests.iter().map(|r| ttp.open_charge(r)).collect()
    }

    #[test]
    fn charge_decisions_are_idempotent_under_duplication() {
        // A retransmitting auctioneer link may deliver the same request
        // several times; every copy must draw the identical verdict —
        // including a bad request, which poisons only its own copies.
        let (ttp, mut rng) = setup();
        let mut reqs = vec![
            genuine_request(&ttp, ChannelId(0), 10, &mut rng),
            genuine_request(&ttp, ChannelId(1), 0, &mut rng),
            genuine_request(&ttp, ChannelId(2), 77, &mut rng),
        ];
        reqs.push(ChargeRequest { channel: ChannelId(9), ..reqs[0].clone() });
        let baseline = open_each(&ttp, &reqs);
        assert_eq!(baseline[0], Ok(ChargeDecision::Valid { raw_price: 10 }));
        assert_eq!(baseline[1], Ok(ChargeDecision::InvalidZero));
        assert_eq!(baseline[2], Ok(ChargeDecision::Valid { raw_price: 77 }));
        assert!(matches!(baseline[3], Err(LppaError::ChannelCountMismatch { .. })));
        // Duplicate every request three times, interleaved.
        let mut duplicated = Vec::new();
        for _ in 0..3 {
            duplicated.extend(reqs.iter().cloned());
        }
        for (i, v) in open_each(&ttp, &duplicated).iter().enumerate() {
            assert_eq!(*v, baseline[i % reqs.len()], "copy {i} diverged");
        }
    }

    #[test]
    fn charge_decisions_are_order_independent() {
        // Reordering the requests must permute the verdicts and change
        // nothing else — no decision may depend on its neighbours or
        // position.
        let (ttp, mut rng) = setup();
        let reqs: Vec<ChargeRequest> = (0..6)
            .map(|i| genuine_request(&ttp, ChannelId(i % 4), (i as u32) * 13 % 120, &mut rng))
            .collect();
        let baseline = open_each(&ttp, &reqs);
        for rotation in 1..reqs.len() {
            let mut rotated = reqs.clone();
            rotated.rotate_left(rotation);
            for (i, v) in open_each(&ttp, &rotated).iter().enumerate() {
                assert_eq!(*v, baseline[(i + rotation) % reqs.len()], "rotation {rotation}");
            }
        }
    }

    /// Seals the true transformed value of raw bid `raw`, the way a
    /// conflicting loser's submission carries it.
    fn loser_seal(ttp: &Ttp, raw: u32, rng: &mut StdRng) -> SealedValue {
        let config = ttp.config();
        let offset = if raw == 0 { rng.gen_range(0..=config.rd) } else { config.offset_bid(raw) };
        let transformed = config.cr * offset + rng.gen_range(0..config.cr);
        SealedValue::seal(&ttp.bidder_keys().gc, u64::from(transformed), rng)
    }

    #[test]
    fn vickrey_prices_at_the_critical_losing_bid() {
        let (ttp, mut rng) = setup();
        let winner = genuine_request(&ttp, ChannelId(1), 90, &mut rng);
        let losers: Vec<SealedValue> =
            [10u32, 77, 40].iter().map(|&raw| loser_seal(&ttp, raw, &mut rng)).collect();
        assert_eq!(
            ttp.open_vickrey(&winner, &losers).unwrap(),
            ChargeDecision::Valid { raw_price: 77 }
        );
    }

    #[test]
    fn vickrey_unopposed_winner_is_charged_zero() {
        let (ttp, mut rng) = setup();
        let winner = genuine_request(&ttp, ChannelId(0), 15, &mut rng);
        assert_eq!(ttp.open_vickrey(&winner, &[]).unwrap(), ChargeDecision::Valid { raw_price: 0 });
    }

    #[test]
    fn vickrey_losing_disguised_zeros_contribute_their_true_price() {
        // Disguised-zero losers presented a positive value but their
        // sealed truth is the zero band: the critical price must ignore
        // the disguise.
        let (ttp, mut rng) = setup();
        let winner = genuine_request(&ttp, ChannelId(2), 60, &mut rng);
        let losers = vec![
            loser_seal(&ttp, 0, &mut rng),
            loser_seal(&ttp, 33, &mut rng),
            loser_seal(&ttp, 0, &mut rng),
        ];
        assert_eq!(
            ttp.open_vickrey(&winner, &losers).unwrap(),
            ChargeDecision::Valid { raw_price: 33 }
        );
        // All-zero opposition is the same as no opposition.
        let zeros = vec![loser_seal(&ttp, 0, &mut rng), loser_seal(&ttp, 0, &mut rng)];
        assert_eq!(
            ttp.open_vickrey(&winner, &zeros).unwrap(),
            ChargeDecision::Valid { raw_price: 0 }
        );
    }

    #[test]
    fn vickrey_invalid_zero_winner_stays_invalid() {
        let (ttp, mut rng) = setup();
        let winner = genuine_request(&ttp, ChannelId(0), 0, &mut rng);
        let losers = vec![loser_seal(&ttp, 50, &mut rng)];
        assert_eq!(ttp.open_vickrey(&winner, &losers).unwrap(), ChargeDecision::InvalidZero);
    }

    #[test]
    fn vickrey_still_detects_winner_manipulation_and_bad_loser_seals() {
        let (ttp, mut rng) = setup();
        let config = *ttp.config();
        // Manipulated winner: sealed low, presented high.
        let low = config.cr * config.offset_bid(5);
        let high = config.cr * config.offset_bid(90);
        let point =
            MaskedPoint::mask(&ttp.bidder_keys().gb[0], config.transformed_bits(), high).unwrap();
        let sealed = SealedValue::seal(&ttp.bidder_keys().gc, u64::from(low), &mut rng);
        let manipulated = ChargeRequest { channel: ChannelId(0), sealed, point };
        assert_eq!(
            ttp.open_vickrey(&manipulated, &[loser_seal(&ttp, 1, &mut rng)]),
            Err(LppaError::ChargeManipulated)
        );
        // A loser seal under a foreign key fails authentication.
        let winner = genuine_request(&ttp, ChannelId(0), 40, &mut rng);
        let foreign = SealKey::random(&mut rng);
        let bad_loser = SealedValue::seal(&foreign, 12, &mut rng);
        assert_eq!(ttp.open_vickrey(&winner, &[bad_loser]), Err(LppaError::ChargeAuthentication));
    }

    #[test]
    fn zero_channels_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(Ttp::new(0, LppaConfig::default(), &mut rng).is_err());
    }
}
