//! Zero-copy binary wire codec for protocol payloads.
//!
//! The typed protocol structs ([`SuSubmission`], [`ChargeRequest`],
//! [`ChargeDecision`]) move between processes as compact little-endian
//! byte strings. The decoder is built for hostile input:
//!
//! * **Zero-copy** — [`SubmissionView`] and [`ChargeRequestView`] borrow
//!   the payload; tag groups are validated and checksummed as `&[u8]`
//!   slices (via [`lppa_prefix::TagRunView`], which folds each tag's
//!   [`lppa_prefix::raw_tag_mix`] while it checks the order) before a
//!   single allocation happens. Materialization into typed structs is a
//!   separate, explicit step taken only after the transport checksum
//!   passes.
//! * **Canonical** — tag groups are encoded strictly ascending bytewise
//!   and re-encoding a decoded payload is byte-identical, so frames are
//!   deterministic and duplicates are caught by an `O(n)` adjacency
//!   scan. A masked group already holds its tags as such a run, so the
//!   encoder writes each group as it is stored and the decoder hands
//!   validated runs over without sorting them.
//! * **Bounded** — every count field is checked against a hard cap
//!   ([`MAX_GROUP_TAGS`], [`MAX_WIRE_CHANNELS`]) *before* it is used to
//!   size anything, so a hostile length prefix cannot drive allocation
//!   or scanning. All failures are typed [`WireError`]s; nothing panics.
//!
//! Payload layouts (all integers little-endian):
//!
//! ```text
//! tag group      := count:u16 | count × 16-byte tag   (strictly ascending)
//! location       := group(point_x) group(range_x) group(point_y) group(range_y)
//! channel bid    := group(point) group(range) sealed:36
//! submission     := bidder:u32 attempt:u32 checksum:u64 location
//!                   n_channels:u16 presented_bitmap:⌈n/8⌉ n × channel bid
//! charge request := slot:u32 channel:u32 sealed:36 group(point)
//! charge verdict := slot:u32 code:u8 fields…   (see [`WireVerdict`])
//! ```
//!
//! The submission carries `presented_positive` because the default
//! iterative-charging auctioneer model needs it to prune disguised-zero
//! winners between TTP rounds; the oblivious model simply ignores it.

use lppa_crypto::seal::{SealedValue, SEALED_WIRE_LEN};
use lppa_crypto::tag::{Tag, TAG_LEN};
use lppa_prefix::TagRunView;

use crate::error::LppaError;
use crate::ppbs::bid::{AdvancedBidSubmission, ChannelBid};
use crate::ppbs::location::LocationSubmission;
use crate::protocol::SuSubmission;
use crate::ttp::{ChargeDecision, ChargeRequest};
use lppa_spectrum::coverage::ChannelId;

/// Hard cap on tags per group. The widest genuine group is a padded
/// range cover at `loc_bits = 32` — `max(2, 2·32 − 2) = 62` tags — so
/// 128 leaves headroom for format evolution while keeping a hostile
/// count harmless.
pub const MAX_GROUP_TAGS: usize = 128;

/// Hard cap on channels per submission or table. Real deployments sell
/// a handful; the cap only exists to bound hostile length prefixes.
pub const MAX_WIRE_CHANNELS: usize = 256;

/// Typed decode failure. Every variant is a protocol-level rejection —
/// the decoder never panics on any input.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The payload ended before a declared field.
    Truncated {
        /// Bytes the next field needed.
        need: usize,
        /// Bytes remaining.
        have: usize,
    },
    /// A tag-group count of zero or above [`MAX_GROUP_TAGS`].
    TagCount {
        /// The declared count.
        count: usize,
    },
    /// A tag group was not strictly ascending — either a non-canonical
    /// encoder or a duplicated tag.
    UnsortedTags,
    /// A channel count of zero or above [`MAX_WIRE_CHANNELS`].
    ChannelCount {
        /// The declared count.
        count: usize,
    },
    /// Bytes remained after the last declared field.
    TrailingBytes {
        /// How many.
        extra: usize,
    },
    /// An unknown charge-verdict code byte.
    BadVerdict {
        /// The offending code.
        code: u8,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { need, have } => {
                write!(f, "payload truncated: next field needs {need} bytes, {have} remain")
            }
            WireError::TagCount { count } => {
                write!(f, "tag-group count {count} outside 1..={MAX_GROUP_TAGS}")
            }
            WireError::UnsortedTags => write!(f, "tag group not strictly ascending"),
            WireError::ChannelCount { count } => {
                write!(f, "channel count {count} outside 1..={MAX_WIRE_CHANNELS}")
            }
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after payload")
            }
            WireError::BadVerdict { code } => write!(f, "unknown charge-verdict code {code}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Bounded little-endian reader over a borrowed payload.
struct Cursor<'a> {
    buf: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Truncated { need: n, have: self.buf.len() });
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        let mut word = [0u8; 8];
        word.copy_from_slice(b);
        Ok(u64::from_le_bytes(word))
    }

    fn finish(self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes { extra: self.buf.len() })
        }
    }
}

/// Parses one encoded tag group: a count within `1..=`[`MAX_GROUP_TAGS`],
/// then that many tags, strictly ascending. The returned view's
/// [`fingerprint`](TagRunView::fingerprint) was folded during the order
/// check, and equals the materialized group's fingerprint.
fn parse_group<'a>(cursor: &mut Cursor<'a>) -> Result<TagRunView<'a>, WireError> {
    let count = usize::from(cursor.u16()?);
    if count == 0 || count > MAX_GROUP_TAGS {
        return Err(WireError::TagCount { count });
    }
    TagRunView::parse(cursor.take(count * TAG_LEN)?).ok_or(WireError::UnsortedTags)
}

/// Appends a tag group: its count, then its tags. Masked groups store
/// their tags as a strictly ascending run, which is the canonical wire
/// order, so the run is written as it is.
fn encode_tags(tags: &[Tag], out: &mut Vec<u8>) {
    debug_assert!(u16::try_from(tags.len()).is_ok());
    out.extend_from_slice(&(tags.len() as u16).to_le_bytes());
    for tag in tags {
        out.extend_from_slice(tag.as_bytes());
    }
}

/// [`SealedValue::fingerprint`] computed from the 36 wire bytes.
fn sealed_fingerprint(bytes: &[u8]) -> u64 {
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        acc ^= u64::from(b);
        acc = acc.wrapping_mul(0x0000_0100_0000_01B3);
    }
    acc
}

fn sealed_from_slice(bytes: &[u8]) -> SealedValue {
    let mut wire = [0u8; SEALED_WIRE_LEN];
    wire.copy_from_slice(bytes);
    SealedValue::from_wire_bytes(wire)
}

/// Borrowed view of an encoded location submission (four tag groups).
#[derive(Clone, Copy, Debug)]
pub struct LocationView<'a> {
    /// Masked x-axis point family.
    pub point_x: TagRunView<'a>,
    /// Masked x-axis range cover.
    pub range_x: TagRunView<'a>,
    /// Masked y-axis point family.
    pub point_y: TagRunView<'a>,
    /// Masked y-axis range cover.
    pub range_y: TagRunView<'a>,
}

impl LocationView<'_> {
    fn parse<'a>(cursor: &mut Cursor<'a>) -> Result<LocationView<'a>, WireError> {
        Ok(LocationView {
            point_x: parse_group(cursor)?,
            range_x: parse_group(cursor)?,
            point_y: parse_group(cursor)?,
            range_y: parse_group(cursor)?,
        })
    }

    /// [`LocationSubmission::checksum`] over the borrowed groups.
    pub fn checksum(&self) -> u64 {
        self.point_x
            .fingerprint()
            .rotate_left(1)
            .wrapping_add(self.range_x.fingerprint())
            .rotate_left(1)
            .wrapping_add(self.point_y.fingerprint())
            .rotate_left(1)
            .wrapping_add(self.range_y.fingerprint())
    }

    /// Materializes the typed submission, copying each validated run
    /// out with its fingerprint.
    pub fn materialize(&self) -> LocationSubmission {
        LocationSubmission::from_parts(
            self.point_x.to_point(),
            self.range_x.to_range(),
            self.point_y.to_point(),
            self.range_y.to_range(),
        )
    }
}

/// Borrowed view of one encoded channel bid.
#[derive(Clone, Copy, Debug)]
pub struct ChannelBidView<'a> {
    /// Masked point family of the presented value.
    pub point: TagRunView<'a>,
    /// Masked padded range cover.
    pub range: TagRunView<'a>,
    /// The 36 sealed-price wire bytes.
    pub sealed: &'a [u8],
}

impl ChannelBidView<'_> {
    fn parse<'a>(cursor: &mut Cursor<'a>) -> Result<ChannelBidView<'a>, WireError> {
        Ok(ChannelBidView {
            point: parse_group(cursor)?,
            range: parse_group(cursor)?,
            sealed: cursor.take(SEALED_WIRE_LEN)?,
        })
    }

    /// [`ChannelBid::checksum`] over the borrowed parts.
    pub fn checksum(&self) -> u64 {
        self.point
            .fingerprint()
            .rotate_left(1)
            .wrapping_add(self.range.fingerprint())
            .rotate_left(1)
            .wrapping_add(sealed_fingerprint(self.sealed))
    }

    fn materialize(&self) -> ChannelBid {
        ChannelBid {
            point: self.point.to_point(),
            range: self.range.to_range(),
            sealed: sealed_from_slice(self.sealed),
        }
    }
}

/// Borrowed view of a full encoded submission message.
///
/// Parsing validates structure and computes the transport checksum over
/// the borrowed bytes; compare [`declared_checksum`] against
/// [`computed_checksum`] before calling [`materialize`], exactly as the
/// typed path compares `SubmissionMsg::checksum` against
/// `SuSubmission::checksum`.
///
/// [`declared_checksum`]: Self::declared_checksum
/// [`computed_checksum`]: Self::computed_checksum
/// [`materialize`]: Self::materialize
#[derive(Clone, Debug)]
pub struct SubmissionView<'a> {
    bidder: u32,
    attempt: u32,
    declared_checksum: u64,
    computed_checksum: u64,
    location: LocationView<'a>,
    presented: &'a [u8],
    n_channels: usize,
    bids: &'a [u8],
}

impl<'a> SubmissionView<'a> {
    /// Original submission index of the sender.
    pub fn bidder(&self) -> usize {
        self.bidder as usize
    }

    /// 1-based send attempt.
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// The checksum the sender wrote into the message.
    pub fn declared_checksum(&self) -> u64 {
        self.declared_checksum
    }

    /// The checksum recomputed from the received bytes — equal to the
    /// materialized [`SuSubmission::checksum`] without materializing.
    pub fn computed_checksum(&self) -> u64 {
        self.computed_checksum
    }

    /// Channels covered by the bid block.
    pub fn n_channels(&self) -> usize {
        self.n_channels
    }

    /// The location tag groups.
    pub fn location(&self) -> &LocationView<'a> {
        &self.location
    }

    /// Builds the typed submission plus per-channel presented flags.
    pub fn materialize(&self) -> Result<(SuSubmission, u32, u64), LppaError> {
        let mut cursor = Cursor::new(self.bids);
        let mut bids = Vec::with_capacity(self.n_channels);
        let mut presented = Vec::with_capacity(self.n_channels);
        for ch in 0..self.n_channels {
            // Parse cannot fail here — decode_submission already walked
            // these bytes — but stay total anyway.
            let view = ChannelBidView::parse(&mut cursor)
                .map_err(|e| LppaError::MalformedSubmission { reason: e.to_string() })?;
            bids.push(view.materialize());
            presented.push(self.presented[ch / 8] & (1 << (ch % 8)) != 0);
        }
        let submission = SuSubmission {
            location: self.location.materialize(),
            bids: AdvancedBidSubmission::from_parts(bids, presented)?,
        };
        Ok((submission, self.attempt, self.declared_checksum))
    }
}

/// The number of bytes [`encode_submission`] appends for `submission`:
/// the 16-byte message header, a 2-byte count per tag group, the
/// channel count and presented bitmap, and the transmitted tags and
/// sealed prices themselves ([`SuSubmission::wire_len`]).
pub fn submission_payload_len(submission: &SuSubmission) -> usize {
    let n = submission.bids.n_channels();
    16 + 2 * 4 + 2 + n.div_ceil(8) + 2 * 2 * n + submission.wire_len()
}

/// Encodes a submission message payload, growing `out` once by
/// [`submission_payload_len`].
pub fn encode_submission(
    bidder: usize,
    attempt: u32,
    checksum: u64,
    submission: &SuSubmission,
    out: &mut Vec<u8>,
) {
    out.reserve(submission_payload_len(submission));
    out.extend_from_slice(&(bidder as u32).to_le_bytes());
    out.extend_from_slice(&attempt.to_le_bytes());
    out.extend_from_slice(&checksum.to_le_bytes());
    let loc = &submission.location;
    encode_tags(loc.point_x().as_slice(), out);
    encode_tags(loc.range_x().as_slice(), out);
    encode_tags(loc.point_y().as_slice(), out);
    encode_tags(loc.range_y().as_slice(), out);
    let n = submission.bids.n_channels();
    debug_assert!(n <= MAX_WIRE_CHANNELS);
    out.extend_from_slice(&(n as u16).to_le_bytes());
    // Bit `ch % 8` of byte `ch / 8` is channel `ch`'s presented flag.
    for flags in submission.bids.presented_positive().chunks(8) {
        out.push(flags.iter().rev().fold(0u8, |byte, &flag| byte << 1 | u8::from(flag)));
    }
    for bid in submission.bids.bids() {
        encode_tags(bid.point.as_slice(), out);
        encode_tags(bid.range.as_slice(), out);
        out.extend_from_slice(&bid.sealed.to_wire_bytes());
    }
}

/// Decodes (and structurally validates) a submission payload without
/// allocating, computing the transport checksum along the way.
///
/// # Errors
///
/// Any structural damage — truncation, hostile counts, non-canonical
/// tag order, trailing bytes — returns a typed [`WireError`].
pub fn decode_submission(payload: &[u8]) -> Result<SubmissionView<'_>, WireError> {
    let mut cursor = Cursor::new(payload);
    let bidder = cursor.u32()?;
    let attempt = cursor.u32()?;
    let declared_checksum = cursor.u64()?;
    let location = LocationView::parse(&mut cursor)?;
    let n_channels = usize::from(cursor.u16()?);
    if n_channels == 0 || n_channels > MAX_WIRE_CHANNELS {
        return Err(WireError::ChannelCount { count: n_channels });
    }
    let presented = cursor.take(n_channels.div_ceil(8))?;
    let bids = cursor.buf;
    let mut bids_checksum = 0u64;
    for _ in 0..n_channels {
        let bid = ChannelBidView::parse(&mut cursor)?;
        bids_checksum = bids_checksum.rotate_left(7).wrapping_add(bid.checksum());
    }
    let bids = &bids[..bids.len() - cursor.buf.len()];
    cursor.finish()?;
    let computed_checksum = location.checksum().rotate_left(13).wrapping_add(bids_checksum);
    Ok(SubmissionView {
        bidder,
        attempt,
        declared_checksum,
        computed_checksum,
        location,
        presented,
        n_channels,
        bids,
    })
}

/// Borrowed view of one encoded charge request.
#[derive(Clone, Copy, Debug)]
pub struct ChargeRequestView<'a> {
    /// The request's slot in the session's charge order — the journal
    /// sequence number idempotent resend is keyed on.
    pub slot: u32,
    /// The channel the winner won.
    pub channel: u32,
    sealed: &'a [u8],
    point: TagRunView<'a>,
}

impl ChargeRequestView<'_> {
    /// Materializes the typed request.
    pub fn materialize(&self) -> Result<ChargeRequest, LppaError> {
        Ok(ChargeRequest {
            channel: ChannelId(self.channel as usize),
            sealed: sealed_from_slice(self.sealed),
            point: self.point.to_point(),
        })
    }
}

/// Encodes a charge request payload under its charge-order `slot`.
pub fn encode_charge_request(slot: u32, request: &ChargeRequest, out: &mut Vec<u8>) {
    out.extend_from_slice(&slot.to_le_bytes());
    out.extend_from_slice(&(request.channel.0 as u32).to_le_bytes());
    out.extend_from_slice(&request.sealed.to_wire_bytes());
    encode_tags(request.point.as_slice(), out);
}

/// Decodes a charge request payload.
///
/// # Errors
///
/// Returns a typed [`WireError`] on any structural damage.
pub fn decode_charge_request(payload: &[u8]) -> Result<ChargeRequestView<'_>, WireError> {
    let mut cursor = Cursor::new(payload);
    let slot = cursor.u32()?;
    let channel = cursor.u32()?;
    let sealed = cursor.take(SEALED_WIRE_LEN)?;
    let point = parse_group(&mut cursor)?;
    cursor.finish()?;
    Ok(ChargeRequestView { slot, channel, sealed, point })
}

/// A TTP charge verdict in wire-representable form.
///
/// The session layer records charge failures by their `Display` string;
/// round-tripping through [`verdict_of`]/[`WireVerdict::into_result`]
/// preserves that string exactly for every error the TTP can actually
/// produce, so quarantine reports are byte-identical across transports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireVerdict {
    /// Genuine win; charge `raw_price`.
    Valid {
        /// The plaintext first-price charge.
        raw_price: u32,
    },
    /// A disguised zero — no charge, allocation cell struck.
    InvalidZero,
    /// The sealed bid failed authentication.
    ChargeAuthentication,
    /// The sealed price does not match the masked prefixes.
    ChargeManipulated,
    /// The request's channel id is outside the auction.
    ChannelCountMismatch {
        /// Channels implied by the request.
        submitted: u64,
        /// Channels in the auction.
        expected: u64,
    },
}

impl WireVerdict {
    /// The typed result this verdict decodes to.
    pub fn into_result(self) -> Result<ChargeDecision, LppaError> {
        match self {
            WireVerdict::Valid { raw_price } => Ok(ChargeDecision::Valid { raw_price }),
            WireVerdict::InvalidZero => Ok(ChargeDecision::InvalidZero),
            WireVerdict::ChargeAuthentication => Err(LppaError::ChargeAuthentication),
            WireVerdict::ChargeManipulated => Err(LppaError::ChargeManipulated),
            WireVerdict::ChannelCountMismatch { submitted, expected } => {
                Err(LppaError::ChannelCountMismatch {
                    submitted: submitted as usize,
                    expected: expected as usize,
                })
            }
        }
    }
}

/// Maps a TTP charging result onto its wire verdict.
///
/// # Errors
///
/// Returns the error back if it has no wire representation — the TTP's
/// charging path can only produce the variants above, so hitting this
/// means a logic bug, not hostile input.
pub fn verdict_of(result: &Result<ChargeDecision, LppaError>) -> Result<WireVerdict, LppaError> {
    match result {
        Ok(ChargeDecision::Valid { raw_price }) => Ok(WireVerdict::Valid { raw_price: *raw_price }),
        Ok(ChargeDecision::InvalidZero) => Ok(WireVerdict::InvalidZero),
        Err(LppaError::ChargeAuthentication) => Ok(WireVerdict::ChargeAuthentication),
        Err(LppaError::ChargeManipulated) => Ok(WireVerdict::ChargeManipulated),
        Err(LppaError::ChannelCountMismatch { submitted, expected }) => {
            Ok(WireVerdict::ChannelCountMismatch {
                submitted: *submitted as u64,
                expected: *expected as u64,
            })
        }
        Err(other) => Err(other.clone()),
    }
}

/// Encodes a charge verdict payload under its charge-order `slot`.
pub fn encode_charge_verdict(slot: u32, verdict: WireVerdict, out: &mut Vec<u8>) {
    out.extend_from_slice(&slot.to_le_bytes());
    match verdict {
        WireVerdict::Valid { raw_price } => {
            out.push(0);
            out.extend_from_slice(&raw_price.to_le_bytes());
        }
        WireVerdict::InvalidZero => out.push(1),
        WireVerdict::ChargeAuthentication => out.push(2),
        WireVerdict::ChargeManipulated => out.push(3),
        WireVerdict::ChannelCountMismatch { submitted, expected } => {
            out.push(4);
            out.extend_from_slice(&submitted.to_le_bytes());
            out.extend_from_slice(&expected.to_le_bytes());
        }
    }
}

/// Decodes a charge verdict payload, returning `(slot, verdict)`.
///
/// # Errors
///
/// Returns [`WireError::BadVerdict`] on an unknown code byte, or a
/// structural error on truncation/trailing bytes.
pub fn decode_charge_verdict(payload: &[u8]) -> Result<(u32, WireVerdict), WireError> {
    let mut cursor = Cursor::new(payload);
    let slot = cursor.u32()?;
    let code = cursor.u8()?;
    let verdict = match code {
        0 => WireVerdict::Valid { raw_price: cursor.u32()? },
        1 => WireVerdict::InvalidZero,
        2 => WireVerdict::ChargeAuthentication,
        3 => WireVerdict::ChargeManipulated,
        4 => {
            WireVerdict::ChannelCountMismatch { submitted: cursor.u64()?, expected: cursor.u64()? }
        }
        code => return Err(WireError::BadVerdict { code }),
    };
    cursor.finish()?;
    Ok((slot, verdict))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LppaConfig;
    use crate::ttp::Ttp;
    use crate::zero_replace::ZeroReplacePolicy;
    use lppa_auction::bidder::Location;
    use lppa_rng::rngs::StdRng;
    use lppa_rng::SeedableRng;

    fn sample_submission(seed: u64, channels: usize) -> (Ttp, SuSubmission, StdRng) {
        let config = LppaConfig::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let ttp = Ttp::new(channels, config, &mut rng).unwrap();
        let policy = ZeroReplacePolicy::geometric(0.3, 0.8, config.bid_max());
        let bids: Vec<u32> = (0..channels as u32).map(|c| (c * 17) % 128).collect();
        let sub =
            SuSubmission::build(Location::new(40, 41), &bids, &ttp, &policy, &mut rng).unwrap();
        (ttp, sub, rng)
    }

    fn encoded(seed: u64, channels: usize) -> (Ttp, SuSubmission, Vec<u8>) {
        let (ttp, sub, _) = sample_submission(seed, channels);
        let mut buf = Vec::new();
        encode_submission(3, 2, sub.checksum(), &sub, &mut buf);
        (ttp, sub, buf)
    }

    #[test]
    fn submission_roundtrip_preserves_everything() {
        let (ttp, sub, buf) = encoded(1, 3);
        let view = decode_submission(&buf).unwrap();
        assert_eq!(view.bidder(), 3);
        assert_eq!(view.attempt(), 2);
        assert_eq!(view.n_channels(), 3);
        // The zero-copy checksum equals both the declared and the typed
        // checksum — the core zero-copy correctness equation.
        assert_eq!(view.computed_checksum(), sub.checksum());
        assert_eq!(view.declared_checksum(), sub.checksum());
        let (back, attempt, checksum) = view.materialize().unwrap();
        assert_eq!(attempt, 2);
        assert_eq!(checksum, sub.checksum());
        assert_eq!(back.checksum(), sub.checksum());
        assert_eq!(back.bids.presented_positive(), sub.bids.presented_positive());
        assert!(crate::protocol::validate_submission(&back, &ttp).is_ok());
    }

    #[test]
    fn reencoding_is_canonical() {
        // decode → materialize → encode must reproduce the exact bytes:
        // tag groups are order-normalized, so the frame is a function of
        // the submission's content alone.
        let (_, _, buf) = encoded(2, 2);
        let (sub, attempt, checksum) = decode_submission(&buf).unwrap().materialize().unwrap();
        let mut again = Vec::new();
        encode_submission(3, attempt, checksum, &sub, &mut again);
        assert_eq!(buf, again);
    }

    #[test]
    fn payload_len_is_exact() {
        for channels in [1, 2, 8, 9, 129] {
            let (_, sub, buf) = encoded(7, channels);
            assert_eq!(buf.len(), submission_payload_len(&sub), "k={channels}");
        }
    }

    #[test]
    fn truncation_anywhere_is_a_typed_error() {
        let (_, _, buf) = encoded(3, 2);
        for len in 0..buf.len() {
            let err = decode_submission(&buf[..len]).unwrap_err();
            assert!(
                matches!(
                    err,
                    WireError::Truncated { .. }
                        | WireError::TagCount { .. }
                        | WireError::ChannelCount { .. }
                        | WireError::UnsortedTags
                ),
                "prefix of {len}: {err:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let (_, _, mut buf) = encoded(4, 1);
        buf.push(0);
        assert_eq!(decode_submission(&buf).unwrap_err(), WireError::TrailingBytes { extra: 1 });
    }

    #[test]
    fn hostile_counts_cannot_drive_allocation() {
        // A maximal count field must fail fast on the cap check, not by
        // attempting to take gigabytes.
        let mut buf = Vec::new();
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&u16::MAX.to_le_bytes());
        let err = decode_submission(&buf).unwrap_err();
        assert_eq!(err, WireError::TagCount { count: usize::from(u16::MAX) });
        // Same for a zero count.
        buf.truncate(16);
        buf.extend_from_slice(&0u16.to_le_bytes());
        assert_eq!(decode_submission(&buf).unwrap_err(), WireError::TagCount { count: 0 });
    }

    #[test]
    fn duplicate_or_unsorted_tags_are_rejected() {
        let (_, _, buf) = encoded(5, 1);
        // The first group starts after the 16-byte message header and
        // its 2-byte count; swap the first two tags to break ordering.
        let mut swapped = buf.clone();
        let start = 18;
        let (a, b) = (start, start + TAG_LEN);
        let mut tmp = [0u8; TAG_LEN];
        tmp.copy_from_slice(&swapped[a..a + TAG_LEN]);
        swapped.copy_within(b..b + TAG_LEN, a);
        swapped[b..b + TAG_LEN].copy_from_slice(&tmp);
        assert_eq!(decode_submission(&swapped).unwrap_err(), WireError::UnsortedTags);
        // Duplicate the first tag over the second: also non-ascending.
        let mut duped = buf;
        duped.copy_within(a..a + TAG_LEN, b);
        assert_eq!(decode_submission(&duped).unwrap_err(), WireError::UnsortedTags);
    }

    #[test]
    fn charge_request_roundtrip() {
        let (ttp, sub, _) = sample_submission(6, 2);
        let request = ChargeRequest {
            channel: ChannelId(1),
            sealed: sub.bids.bids()[1].sealed.clone(),
            point: sub.bids.bids()[1].point.clone(),
        };
        let mut buf = Vec::new();
        encode_charge_request(9, &request, &mut buf);
        let view = decode_charge_request(&buf).unwrap();
        assert_eq!(view.slot, 9);
        assert_eq!(view.channel, 1);
        let back = view.materialize().unwrap();
        assert_eq!(back.channel, request.channel);
        assert_eq!(back.sealed, request.sealed);
        assert_eq!(back.point.fingerprint(), request.point.fingerprint());
        // The reconstructed request must still open at the TTP.
        assert!(ttp.open_charge(&back).is_ok());
    }

    #[test]
    fn charge_verdict_roundtrip_preserves_display_strings() {
        let results: Vec<Result<ChargeDecision, LppaError>> = vec![
            Ok(ChargeDecision::Valid { raw_price: 77 }),
            Ok(ChargeDecision::InvalidZero),
            Err(LppaError::ChargeAuthentication),
            Err(LppaError::ChargeManipulated),
            Err(LppaError::ChannelCountMismatch { submitted: 5, expected: 2 }),
        ];
        for (slot, result) in results.iter().enumerate() {
            let verdict = verdict_of(result).unwrap();
            let mut buf = Vec::new();
            encode_charge_verdict(slot as u32, verdict, &mut buf);
            let (got_slot, got) = decode_charge_verdict(&buf).unwrap();
            assert_eq!(got_slot, slot as u32);
            assert_eq!(got, verdict);
            let back = got.into_result();
            match (result, &back) {
                (Ok(a), Ok(b)) => assert_eq!(a, b),
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
                other => panic!("verdict changed shape: {other:?}"),
            }
        }
    }

    #[test]
    fn unrepresentable_charge_error_is_refused() {
        let result = Err(LppaError::Internal { what: "x".into() });
        assert!(verdict_of(&result).is_err());
    }

    #[test]
    fn bad_verdict_code_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.push(250);
        assert_eq!(decode_charge_verdict(&buf).unwrap_err(), WireError::BadVerdict { code: 250 });
    }
}
