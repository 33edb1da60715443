//! The length-prefixed binary frame layer every LPPA transport speaks.
//!
//! A frame is a fixed 16-byte header followed by a payload:
//!
//! ```text
//! offset  size  field
//! 0       2     magic   "LP"
//! 2       1     version (currently 1; unknown versions are rejected)
//! 3       1     kind    (FrameKind discriminant; unknown kinds rejected)
//! 4       8     seq     u64 LE — sender sequence number (dedup/resend)
//! 12      4     len     u32 LE — payload length in bytes
//! 16      len   payload
//! ```
//!
//! The decoder is written for hostile peers: every malformed input —
//! short buffer, wrong magic, unknown version or kind, zero-length or
//! oversized payload, trailing garbage — maps to a typed [`FrameError`];
//! no input can panic it or make it allocate. Payload length is checked
//! against [`MAX_FRAME_PAYLOAD`] *before* any buffer sizing decision, so
//! a hostile length field cannot drive allocation.

use std::error::Error;
use std::fmt;

/// The two magic bytes every frame starts with.
pub const FRAME_MAGIC: [u8; 2] = *b"LP";

/// The only wire version this build speaks. The policy is strict
/// reject-on-unknown: a higher version is a different protocol, not a
/// negotiation opportunity.
pub const WIRE_VERSION: u8 = 1;

/// Fixed header size in bytes.
pub const FRAME_HEADER_LEN: usize = 16;

/// Hard cap on payload size. The largest legitimate payload — a
/// submission over [`lppa::wire::MAX_WIRE_CHANNELS`] channels with full
/// tag groups — stays far below this; anything larger is an attack or a
/// desynchronized stream.
pub const MAX_FRAME_PAYLOAD: usize = 1 << 20;

/// What a frame carries. Discriminants are the wire `kind` byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Peer introduction: role + id, first frame on every connection.
    Hello = 1,
    /// Round announcement: seed, bidder count, channel count.
    Announce = 2,
    /// Lockstep clock: the auctioneer opens a collect tick.
    TickStart = 3,
    /// A bidder's submission (the [`lppa::wire`] submission encoding).
    Submission = 4,
    /// Lockstep barrier: a bidder finished acting for a tick.
    TickDone = 5,
    /// The auctioneer's per-submission verdict.
    SubAck = 6,
    /// The collect phase closed at the announced deadline.
    CollectClosed = 7,
    /// A sealed winning bid sent to the TTP for opening.
    ChargeRequest = 8,
    /// The TTP's charge verdict.
    ChargeVerdict = 9,
    /// The round settled; payload carries the outcome fingerprint.
    Settled = 10,
    /// Orderly teardown.
    Bye = 11,
}

impl FrameKind {
    fn from_byte(byte: u8) -> Option<Self> {
        match byte {
            1 => Some(Self::Hello),
            2 => Some(Self::Announce),
            3 => Some(Self::TickStart),
            4 => Some(Self::Submission),
            5 => Some(Self::TickDone),
            6 => Some(Self::SubAck),
            7 => Some(Self::CollectClosed),
            8 => Some(Self::ChargeRequest),
            9 => Some(Self::ChargeVerdict),
            10 => Some(Self::Settled),
            11 => Some(Self::Bye),
            _ => None,
        }
    }
}

/// Why a buffer is not a valid frame (or control payload).
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum FrameError {
    /// The first two bytes are not [`FRAME_MAGIC`].
    BadMagic,
    /// The version byte is not [`WIRE_VERSION`].
    UnknownVersion {
        /// The version byte received.
        version: u8,
    },
    /// The kind byte maps to no [`FrameKind`].
    UnknownKind {
        /// The kind byte received.
        kind: u8,
    },
    /// The declared payload length exceeds [`MAX_FRAME_PAYLOAD`].
    Oversized {
        /// The declared length.
        len: u64,
    },
    /// The declared payload length is zero — every frame kind carries
    /// at least one payload byte.
    EmptyPayload,
    /// The buffer ends before the header or declared payload does.
    Truncated {
        /// Bytes the frame needs.
        need: usize,
        /// Bytes available.
        have: usize,
    },
    /// Bytes remain after the declared payload.
    TrailingBytes {
        /// How many.
        extra: usize,
    },
    /// A control payload field holds a value outside its domain.
    BadControl {
        /// The offending byte.
        byte: u8,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadMagic => write!(f, "frame does not start with the LP magic"),
            Self::UnknownVersion { version } => write!(f, "unknown wire version {version}"),
            Self::UnknownKind { kind } => write!(f, "unknown frame kind {kind}"),
            Self::Oversized { len } => {
                write!(f, "declared payload of {len} bytes exceeds the {MAX_FRAME_PAYLOAD} cap")
            }
            Self::EmptyPayload => write!(f, "zero-length payload"),
            Self::Truncated { need, have } => {
                write!(f, "truncated frame: need {need} bytes, have {have}")
            }
            Self::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the declared payload")
            }
            Self::BadControl { byte } => write!(f, "control payload byte {byte} out of domain"),
        }
    }
}

impl Error for FrameError {}

/// A decoded frame: header fields plus a borrowed payload view. No
/// payload bytes are copied out of the receive buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameView<'a> {
    /// What the payload is.
    pub kind: FrameKind,
    /// Sender sequence number.
    pub seq: u64,
    /// The payload bytes, borrowed from the input buffer.
    pub payload: &'a [u8],
}

/// Encodes one frame: header plus payload.
///
/// # Panics
///
/// If `payload` is empty or exceeds [`MAX_FRAME_PAYLOAD`] — both are
/// sender-side programming errors, never a function of peer input.
pub fn encode_frame(kind: FrameKind, seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    write_frame(kind, seq, &mut out, |out| out.extend_from_slice(payload));
    out
}

/// Appends one frame to `out`: the header, then whatever `payload`
/// writes after it, with the header's length field set to what it
/// wrote. An encoder can thus build its payload in the frame buffer
/// itself instead of copying it in.
///
/// # Panics
///
/// As [`encode_frame`], if `payload` writes nothing or more than
/// [`MAX_FRAME_PAYLOAD`] bytes.
pub(crate) fn write_frame(
    kind: FrameKind,
    seq: u64,
    out: &mut Vec<u8>,
    payload: impl FnOnce(&mut Vec<u8>),
) {
    let start = out.len();
    out.extend_from_slice(&FRAME_MAGIC);
    out.push(WIRE_VERSION);
    out.push(kind as u8);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&[0; 4]);
    payload(out);
    let len = out.len() - start - FRAME_HEADER_LEN;
    assert!(len > 0, "frames carry at least one payload byte");
    assert!(len <= MAX_FRAME_PAYLOAD, "payload exceeds the frame cap");
    out[start + 12..start + FRAME_HEADER_LEN].copy_from_slice(&(len as u32).to_le_bytes());
}

/// Parses the header at the start of `buf` and returns the total frame
/// length (header + payload) it declares — what a stream reader must
/// accumulate before calling [`decode_frame`]. Validates everything the
/// header alone can prove: magic, version, kind, payload bounds.
///
/// # Errors
///
/// Any [`FrameError`] except `Truncated`/`TrailingBytes` on the
/// payload; `Truncated` if even the header is short.
pub fn peek_frame_len(buf: &[u8]) -> Result<usize, FrameError> {
    if buf.len() < FRAME_HEADER_LEN {
        return Err(FrameError::Truncated { need: FRAME_HEADER_LEN, have: buf.len() });
    }
    if buf[..2] != FRAME_MAGIC {
        return Err(FrameError::BadMagic);
    }
    if buf[2] != WIRE_VERSION {
        return Err(FrameError::UnknownVersion { version: buf[2] });
    }
    if FrameKind::from_byte(buf[3]).is_none() {
        return Err(FrameError::UnknownKind { kind: buf[3] });
    }
    let mut len_bytes = [0u8; 4];
    len_bytes.copy_from_slice(&buf[12..16]);
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(FrameError::Oversized { len: len as u64 });
    }
    if len == 0 {
        return Err(FrameError::EmptyPayload);
    }
    Ok(FRAME_HEADER_LEN + len)
}

/// Decodes one frame from the start of `buf`, returning the view and
/// the bytes consumed. Bytes past the frame are left for the caller — a
/// stream buffer may hold several frames.
///
/// # Errors
///
/// Any [`FrameError`]; `Truncated` if the payload is incomplete.
pub fn decode_frame(buf: &[u8]) -> Result<(FrameView<'_>, usize), FrameError> {
    let total = peek_frame_len(buf)?;
    if buf.len() < total {
        return Err(FrameError::Truncated { need: total, have: buf.len() });
    }
    let mut seq_bytes = [0u8; 8];
    seq_bytes.copy_from_slice(&buf[4..12]);
    let kind = FrameKind::from_byte(buf[3]).expect("peek validated the kind byte");
    Ok((
        FrameView {
            kind,
            seq: u64::from_le_bytes(seq_bytes),
            payload: &buf[FRAME_HEADER_LEN..total],
        },
        total,
    ))
}

/// Decodes a buffer that must hold exactly one frame — the datagram
/// discipline the simulated transport and the lockstep socket round
/// both follow.
///
/// # Errors
///
/// Any [`FrameError`]; `TrailingBytes` if the buffer outlives the
/// declared payload.
pub fn decode_frame_exact(buf: &[u8]) -> Result<FrameView<'_>, FrameError> {
    let (view, consumed) = decode_frame(buf)?;
    if consumed != buf.len() {
        return Err(FrameError::TrailingBytes { extra: buf.len() - consumed });
    }
    Ok(view)
}

// ---------------------------------------------------------------------
// Control payloads. Each is a tiny fixed-size record; decoders demand
// the exact length and reject out-of-domain bytes.
// ---------------------------------------------------------------------

fn expect_len(payload: &[u8], want: usize) -> Result<(), FrameError> {
    match payload.len() {
        have if have < want => Err(FrameError::Truncated { need: want, have }),
        have if have > want => Err(FrameError::TrailingBytes { extra: have - want }),
        _ => Ok(()),
    }
}

fn u32_at(payload: &[u8], at: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&payload[at..at + 4]);
    u32::from_le_bytes(b)
}

fn u64_at(payload: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&payload[at..at + 8]);
    u64::from_le_bytes(b)
}

/// Who a peer is: its role and id, the first frame on every connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hello {
    /// 0 = bidder, 1 = TTP.
    pub role: u8,
    /// Bidder index, or 0 for the TTP.
    pub id: u32,
}

/// Encodes a [`Hello`] payload.
pub fn encode_hello(hello: Hello) -> Vec<u8> {
    let mut out = vec![hello.role];
    out.extend_from_slice(&hello.id.to_le_bytes());
    out
}

/// Decodes a [`Hello`] payload.
///
/// # Errors
///
/// Length mismatches; `BadControl` for a role outside `{0, 1}`.
pub fn decode_hello(payload: &[u8]) -> Result<Hello, FrameError> {
    expect_len(payload, 5)?;
    if payload[0] > 1 {
        return Err(FrameError::BadControl { byte: payload[0] });
    }
    Ok(Hello { role: payload[0], id: u32_at(payload, 1) })
}

/// The round parameters every peer needs before collect opens.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Announce {
    /// The session master seed.
    pub seed: u64,
    /// Number of registered bidders.
    pub n_bidders: u32,
    /// Number of auctioned channels.
    pub channels: u32,
}

/// Encodes an [`Announce`] payload.
pub fn encode_announce(a: Announce) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    out.extend_from_slice(&a.seed.to_le_bytes());
    out.extend_from_slice(&a.n_bidders.to_le_bytes());
    out.extend_from_slice(&a.channels.to_le_bytes());
    out
}

/// Decodes an [`Announce`] payload.
///
/// # Errors
///
/// Length mismatches.
pub fn decode_announce(payload: &[u8]) -> Result<Announce, FrameError> {
    expect_len(payload, 16)?;
    Ok(Announce {
        seed: u64_at(payload, 0),
        n_bidders: u32_at(payload, 8),
        channels: u32_at(payload, 12),
    })
}

/// Encodes a `TickStart` payload: the tick being opened.
pub fn encode_tick_start(tick: u64) -> Vec<u8> {
    tick.to_le_bytes().to_vec()
}

/// Decodes a `TickStart` payload.
///
/// # Errors
///
/// Length mismatches.
pub fn decode_tick_start(payload: &[u8]) -> Result<u64, FrameError> {
    expect_len(payload, 8)?;
    Ok(u64_at(payload, 0))
}

/// Encodes a `TickDone` payload: which bidder finished which tick.
pub fn encode_tick_done(tick: u64, bidder: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(12);
    out.extend_from_slice(&tick.to_le_bytes());
    out.extend_from_slice(&bidder.to_le_bytes());
    out
}

/// Decodes a `TickDone` payload to `(tick, bidder)`.
///
/// # Errors
///
/// Length mismatches.
pub fn decode_tick_done(payload: &[u8]) -> Result<(u64, u32), FrameError> {
    expect_len(payload, 12)?;
    Ok((u64_at(payload, 0), u32_at(payload, 8)))
}

/// Encodes a `SubAck` payload: the auctioneer's verdict on a bidder's
/// submission. `accepted = false` means structurally rejected — the
/// bidder must stop resending either way.
pub fn encode_sub_ack(bidder: u32, accepted: bool) -> Vec<u8> {
    let mut out = Vec::with_capacity(5);
    out.extend_from_slice(&bidder.to_le_bytes());
    out.push(u8::from(accepted));
    out
}

/// Decodes a `SubAck` payload to `(bidder, accepted)`.
///
/// # Errors
///
/// Length mismatches; `BadControl` for a status byte outside `{0, 1}`.
pub fn decode_sub_ack(payload: &[u8]) -> Result<(u32, bool), FrameError> {
    expect_len(payload, 5)?;
    match payload[4] {
        0 => Ok((u32_at(payload, 0), false)),
        1 => Ok((u32_at(payload, 0), true)),
        byte => Err(FrameError::BadControl { byte }),
    }
}

/// Encodes a `CollectClosed` payload: the tick collect ended at.
pub fn encode_collect_closed(end_tick: u64) -> Vec<u8> {
    end_tick.to_le_bytes().to_vec()
}

/// Decodes a `CollectClosed` payload.
///
/// # Errors
///
/// Length mismatches.
pub fn decode_collect_closed(payload: &[u8]) -> Result<u64, FrameError> {
    expect_len(payload, 8)?;
    Ok(u64_at(payload, 0))
}

/// Encodes a `Settled` payload: the outcome fingerprint.
pub fn encode_settled(fingerprint: u64) -> Vec<u8> {
    fingerprint.to_le_bytes().to_vec()
}

/// Decodes a `Settled` payload.
///
/// # Errors
///
/// Length mismatches.
pub fn decode_settled(payload: &[u8]) -> Result<u64, FrameError> {
    expect_len(payload, 8)?;
    Ok(u64_at(payload, 0))
}

/// Encodes a `Bye` payload: a teardown reason code.
pub fn encode_bye(reason: u8) -> Vec<u8> {
    vec![reason]
}

/// Decodes a `Bye` payload.
///
/// # Errors
///
/// Length mismatches.
pub fn decode_bye(payload: &[u8]) -> Result<u8, FrameError> {
    expect_len(payload, 1)?;
    Ok(payload[0])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrips_every_kind() {
        for (kind, byte) in [
            (FrameKind::Hello, 1u8),
            (FrameKind::Announce, 2),
            (FrameKind::TickStart, 3),
            (FrameKind::Submission, 4),
            (FrameKind::TickDone, 5),
            (FrameKind::SubAck, 6),
            (FrameKind::CollectClosed, 7),
            (FrameKind::ChargeRequest, 8),
            (FrameKind::ChargeVerdict, 9),
            (FrameKind::Settled, 10),
            (FrameKind::Bye, 11),
        ] {
            let buf = encode_frame(kind, 0xDEAD_BEEF_0000_0001, &[7, 8, 9]);
            assert_eq!(buf[3], byte);
            let view = decode_frame_exact(&buf).unwrap();
            assert_eq!(view.kind, kind);
            assert_eq!(view.seq, 0xDEAD_BEEF_0000_0001);
            assert_eq!(view.payload, &[7, 8, 9]);
        }
    }

    #[test]
    fn hostile_headers_are_typed_errors() {
        let good = encode_frame(FrameKind::Submission, 3, &[1, 2, 3]);

        let mut bad = good.clone();
        bad[0] = b'X';
        assert_eq!(decode_frame_exact(&bad), Err(FrameError::BadMagic));

        let mut bad = good.clone();
        bad[2] = 9;
        assert_eq!(decode_frame_exact(&bad), Err(FrameError::UnknownVersion { version: 9 }));

        let mut bad = good.clone();
        bad[3] = 200;
        assert_eq!(decode_frame_exact(&bad), Err(FrameError::UnknownKind { kind: 200 }));

        let mut bad = good.clone();
        bad[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_frame_exact(&bad),
            Err(FrameError::Oversized { len: u64::from(u32::MAX) })
        );

        let mut bad = good.clone();
        bad[12..16].copy_from_slice(&0u32.to_le_bytes());
        assert_eq!(decode_frame_exact(&bad), Err(FrameError::EmptyPayload));

        for cut in 0..good.len() {
            assert!(
                matches!(decode_frame_exact(&good[..cut]), Err(FrameError::Truncated { .. })),
                "prefix of {cut} bytes must be Truncated"
            );
        }

        let mut bad = good;
        bad.push(0);
        assert_eq!(decode_frame_exact(&bad), Err(FrameError::TrailingBytes { extra: 1 }));
    }

    #[test]
    fn stream_decode_leaves_following_frames() {
        let mut stream = encode_frame(FrameKind::TickStart, 1, &encode_tick_start(4));
        let second = encode_frame(FrameKind::Bye, 2, &encode_bye(0));
        stream.extend_from_slice(&second);
        let (view, used) = decode_frame(&stream).unwrap();
        assert_eq!(view.kind, FrameKind::TickStart);
        assert_eq!(decode_tick_start(view.payload).unwrap(), 4);
        let (view2, used2) = decode_frame(&stream[used..]).unwrap();
        assert_eq!(view2.kind, FrameKind::Bye);
        assert_eq!(used + used2, stream.len());
    }

    #[test]
    fn control_payloads_roundtrip() {
        let h = Hello { role: 0, id: 42 };
        assert_eq!(decode_hello(&encode_hello(h)).unwrap(), h);
        let a = Announce { seed: 7, n_bidders: 12, channels: 3 };
        assert_eq!(decode_announce(&encode_announce(a)).unwrap(), a);
        assert_eq!(decode_tick_start(&encode_tick_start(9)).unwrap(), 9);
        assert_eq!(decode_tick_done(&encode_tick_done(9, 4)).unwrap(), (9, 4));
        assert_eq!(decode_sub_ack(&encode_sub_ack(5, true)).unwrap(), (5, true));
        assert_eq!(decode_sub_ack(&encode_sub_ack(5, false)).unwrap(), (5, false));
        assert_eq!(decode_collect_closed(&encode_collect_closed(16)).unwrap(), 16);
        assert_eq!(decode_settled(&encode_settled(0xFEED)).unwrap(), 0xFEED);
        assert_eq!(decode_bye(&encode_bye(2)).unwrap(), 2);
    }

    #[test]
    fn control_payloads_reject_malformed_bytes() {
        assert!(matches!(decode_hello(&[2, 0, 0, 0, 0]), Err(FrameError::BadControl { byte: 2 })));
        assert!(matches!(decode_hello(&[0, 0]), Err(FrameError::Truncated { .. })));
        assert!(matches!(
            decode_sub_ack(&[0, 0, 0, 0, 7]),
            Err(FrameError::BadControl { byte: 7 })
        ));
        assert!(matches!(decode_tick_start(&[1; 9]), Err(FrameError::TrailingBytes { extra: 1 })));
        assert!(matches!(decode_announce(&[1; 15]), Err(FrameError::Truncated { .. })));
        assert!(matches!(decode_bye(&[]), Err(FrameError::Truncated { .. })));
    }
}
