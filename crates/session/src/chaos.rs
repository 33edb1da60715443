//! Adversarial submission tooling: in-flight corruption and the
//! sender-side manipulations the session must survive.
//!
//! Three distinct failure classes, caught at three distinct layers:
//!
//! * [`corrupt_in_flight`] — random transport damage. The sender's
//!   checksum no longer matches, so the receiver discards the copy and a
//!   retransmission covers it.
//! * [`truncate_point`] — a structurally-broken sender (ragged prefix
//!   family, checksum honestly recomputed). Passes the transport check,
//!   fails `validate_submission`, quarantined at collect.
//! * [`forge_presented_bid`] — a manipulated price: the presented
//!   point/range claim one bid, the sealed value holds another. Passes
//!   both the checksum and structural validation by design; only the TTP
//!   can catch it, at charge time, striking exactly that grant.

use lppa::ppbs::bid::AdvancedBidSubmission;
use lppa::protocol::SuSubmission;
use lppa::ttp::Ttp;
use lppa::LppaError;
use lppa_crypto::tag::Tag;
use lppa_prefix::{MaskedPoint, MaskedRange};
use lppa_rng::rngs::StdRng;
use lppa_rng::Rng;

use crate::session::SubmissionMsg;

/// The transport's corruption model: flip one byte of one tag in one
/// channel's masked point. The attached checksum (computed by the
/// sender before the damage) no longer matches, which is how the
/// receiver tells corruption from manipulation.
pub fn corrupt_in_flight(msg: &mut SubmissionMsg, rng: &mut StdRng) {
    corrupt_submission(&mut msg.submission, rng);
}

/// [`corrupt_in_flight`]'s damage, applied to the submission itself:
/// the typed round calls it on the copy it clones from a borrowed
/// message, with the same RNG draws.
pub(crate) fn corrupt_submission(sub: &mut SuSubmission, rng: &mut StdRng) {
    let bids = sub.bids.bids();
    if bids.is_empty() {
        return;
    }
    let channel = rng.gen_range(0..bids.len());
    let mut tags: Vec<Tag> = bids[channel].point.iter().copied().collect();
    if tags.is_empty() {
        return;
    }
    let victim = rng.gen_range(0..tags.len());
    let mut bytes = *tags[victim].as_bytes();
    bytes[0] ^= rng.gen_range(1..=255u8);
    tags[victim] = Tag::from_bytes(bytes);

    let Ok(point) = MaskedPoint::from_tags(tags) else { return };
    let mut damaged = bids.to_vec();
    damaged[channel].point = point;
    if let Ok(rebuilt) =
        AdvancedBidSubmission::from_parts(damaged, sub.bids.presented_positive().to_vec())
    {
        sub.bids = rebuilt;
    }
}

/// The frame-level corruption model: flip one random byte anywhere in
/// the encoded frame. Unlike [`corrupt_in_flight`], which surgically
/// damages one tag, this can hit the header, a length field, or the
/// checksum itself — the receiver must survive all of it, answering
/// with either a checksum discard or a frame rejection, never a panic.
pub fn corrupt_frame(frame: &mut [u8], rng: &mut StdRng) {
    if frame.is_empty() {
        return;
    }
    let pos = rng.gen_range(0..frame.len());
    frame[pos] ^= rng.gen_range(1..=255u8);
}

/// Truncates `channel`'s masked point to `keep` tags — a ragged
/// submission from a buggy sender. The caller should resend the result
/// as a fresh message so its checksum is honestly recomputed (transport
/// checks pass, structural validation fails).
///
/// # Errors
///
/// [`LppaError::Internal`] for an unknown channel, `keep == 0` or `keep`
/// not smaller than the current family.
pub fn truncate_point(
    sub: &mut SuSubmission,
    channel: usize,
    keep: usize,
) -> Result<(), LppaError> {
    let mut bids = sub.bids.bids().to_vec();
    let bid = bids.get_mut(channel).ok_or_else(|| LppaError::Internal {
        what: format!("truncate_point: no channel {channel}"),
    })?;
    if keep == 0 || keep >= bid.point.len() {
        return Err(LppaError::Internal {
            what: format!("truncate_point: cannot keep {keep} of {} tags", bid.point.len()),
        });
    }
    let kept: Vec<Tag> = bid.point.iter().copied().take(keep).collect();
    bid.point = MaskedPoint::from_tags(kept)?;
    sub.bids = AdvancedBidSubmission::from_parts(bids, sub.bids.presented_positive().to_vec())?;
    Ok(())
}

/// Forges `channel`'s presented point and range as raw bid `shown_raw`
/// while leaving the sealed (true) price untouched — the §V.B price
/// manipulation the TTP detects at charge time.
///
/// # Errors
///
/// [`LppaError::Internal`] for an unknown channel; prefix errors from
/// re-masking.
pub fn forge_presented_bid<R: Rng + ?Sized>(
    sub: &mut SuSubmission,
    ttp: &Ttp,
    channel: usize,
    shown_raw: u32,
    rng: &mut R,
) -> Result<(), LppaError> {
    let config = ttp.config();
    let key = ttp.bidder_keys().gb.get(channel).ok_or_else(|| LppaError::Internal {
        what: format!("forge_presented_bid: no channel {channel}"),
    })?;
    let shown = config.cr * config.offset_bid(shown_raw);
    let width = config.transformed_bits();
    let mut bids = sub.bids.bids().to_vec();
    let bid = bids.get_mut(channel).ok_or_else(|| LppaError::Internal {
        what: format!("forge_presented_bid: no channel {channel}"),
    })?;
    bid.point = MaskedPoint::mask(key, width, shown)?;
    bid.range = MaskedRange::mask_padded(key, width, shown, config.transformed_max(), rng)?;
    sub.bids = AdvancedBidSubmission::from_parts(bids, sub.bids.presented_positive().to_vec())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lppa::protocol::validate_submission;
    use lppa::zero_replace::ZeroReplacePolicy;
    use lppa::LppaConfig;
    use lppa_auction::bidder::Location;
    use lppa_rng::SeedableRng;

    fn setup() -> (Ttp, SuSubmission, StdRng) {
        let mut rng = StdRng::seed_from_u64(5);
        let ttp = Ttp::new(2, LppaConfig::default(), &mut rng).unwrap();
        let policy = ZeroReplacePolicy::never(ttp.config().bid_max());
        let sub =
            SuSubmission::build(Location::new(3, 3), &[10, 20], &ttp, &policy, &mut rng).unwrap();
        (ttp, sub, rng)
    }

    #[test]
    fn in_flight_corruption_breaks_the_checksum_only() {
        let (_, sub, mut rng) = setup();
        let mut msg =
            SubmissionMsg { bidder: 0, attempt: 1, checksum: sub.checksum(), submission: sub };
        corrupt_in_flight(&mut msg, &mut rng);
        assert_ne!(msg.submission.checksum(), msg.checksum, "damage must be detectable");
    }

    #[test]
    fn borrowed_message_takes_the_same_damage_as_an_owned_one() {
        use crate::wire_round::encode_submission_frame;
        use lppa_rng::RngCore;
        use std::borrow::Cow;
        let (_, sub, _) = setup();
        let checksum = sub.checksum();
        for seed in 0..16u64 {
            let mut owned_rng = StdRng::seed_from_u64(seed);
            let mut borrowed_rng = StdRng::seed_from_u64(seed);
            let mut owned =
                SubmissionMsg { bidder: 0, attempt: 1, checksum, submission: sub.clone() };
            corrupt_in_flight(&mut owned, &mut owned_rng);
            let mut borrowed =
                SubmissionMsg { bidder: 0, attempt: 1, checksum, submission: Cow::Borrowed(&sub) };
            corrupt_submission(borrowed.submission.to_mut(), &mut borrowed_rng);
            assert!(matches!(borrowed.submission, Cow::Owned(_)), "the damage lands on a copy");
            assert_ne!(owned.submission.checksum(), checksum, "seed {seed}: no damage");
            assert_eq!(
                encode_submission_frame(0, 1, &borrowed.submission),
                encode_submission_frame(0, 1, &owned.submission),
                "seed {seed}: different bytes damaged"
            );
            assert_eq!(borrowed_rng.next_u64(), owned_rng.next_u64(), "seed {seed}: RNG state");
        }
        assert_eq!(sub.checksum(), checksum, "the borrowed original is untouched");
    }

    #[test]
    fn truncation_passes_checksum_but_fails_validation() {
        let (ttp, mut sub, _) = setup();
        truncate_point(&mut sub, 1, 2).unwrap();
        // An honest resend recomputes the checksum over the ragged data.
        assert_eq!(sub.checksum(), sub.checksum());
        assert!(matches!(
            validate_submission(&sub, &ttp),
            Err(LppaError::MalformedSubmission { .. })
        ));
        let mut sub2 = sub.clone();
        assert!(truncate_point(&mut sub2, 9, 1).is_err());
    }

    #[test]
    fn forgery_passes_validation_but_fails_at_the_ttp() {
        let (ttp, mut sub, mut rng) = setup();
        forge_presented_bid(&mut sub, &ttp, 0, 100, &mut rng).unwrap();
        assert!(validate_submission(&sub, &ttp).is_ok(), "forgery is structurally clean");
        let bid = &sub.bids.bids()[0];
        let request = lppa::ttp::ChargeRequest {
            channel: lppa_spectrum::ChannelId(0),
            sealed: bid.sealed.clone(),
            point: bid.point.clone(),
        };
        assert_eq!(ttp.open_charge(&request), Err(LppaError::ChargeManipulated));
    }
}
