//! Hostile-frame hardening: the frame and submission decoders must
//! survive anything the wire can carry — truncations, bit flips,
//! random soups, resized frames — with typed errors, never panics.
//!
//! Two layers of attack:
//!
//! * a hand-built corpus of known-malformed frames, each pinned to the
//!   exact [`FrameError`] it must produce;
//! * a seeded fuzz loop (`lppa-rng`, so failures replay exactly) that
//!   mutates well-formed frames and free-running byte soups through
//!   every decoder entry point.

use lppa::protocol::{build_submissions, SuSubmission};
use lppa::ttp::Ttp;
use lppa::wire::decode_submission;
use lppa::zero_replace::ZeroReplacePolicy;
use lppa::LppaConfig;
use lppa_auction::bidder::Location;
use lppa_rng::rngs::StdRng;
use lppa_rng::{Rng, SeedableRng};
use lppa_session::frame::{decode_hello, decode_sub_ack, decode_tick_done};
use lppa_session::{
    decode_frame, decode_frame_exact, encode_frame, encode_submission_frame, CollectEngine,
    FrameError, FrameKind, Journal, JournalEntry, FRAME_HEADER_LEN, MAX_FRAME_PAYLOAD,
};

fn sample_submission() -> SuSubmission {
    let mut rng = StdRng::seed_from_u64(7);
    let ttp = Ttp::new(2, LppaConfig::default(), &mut rng).unwrap();
    let policy = ZeroReplacePolicy::never(ttp.config().bid_max());
    let bidders = vec![(Location::new(21, 34), vec![5, 9])];
    build_submissions(&bidders, &ttp, &policy, &mut rng).unwrap().remove(0)
}

/// Known-bad frames, each with the typed error it must surface.
#[test]
fn malformed_corpus_produces_the_pinned_errors() {
    let good = encode_frame(FrameKind::TickStart, 3, &3u64.to_le_bytes());

    // Wrong magic.
    let mut bad_magic = good.clone();
    bad_magic[0] = b'X';
    assert!(matches!(decode_frame_exact(&bad_magic), Err(FrameError::BadMagic)));

    // Future protocol version: strict reject, no best-effort parse.
    let mut future = good.clone();
    future[2] = 9;
    assert!(matches!(decode_frame_exact(&future), Err(FrameError::UnknownVersion { version: 9 })));

    // Unknown frame kind.
    let mut alien = good.clone();
    alien[3] = 0xEE;
    assert!(matches!(decode_frame_exact(&alien), Err(FrameError::UnknownKind { kind: 0xEE })));

    // Oversized length claim — rejected from the header alone, before
    // any allocation for the phantom payload.
    let mut huge = good.clone();
    huge[12..16].copy_from_slice(&(MAX_FRAME_PAYLOAD as u32 + 1).to_le_bytes());
    assert!(matches!(decode_frame_exact(&huge), Err(FrameError::Oversized { .. })));

    // Zero-length payload claim.
    let mut empty = good.clone();
    empty[12..16].copy_from_slice(&0u32.to_le_bytes());
    empty.truncate(FRAME_HEADER_LEN);
    assert!(matches!(decode_frame_exact(&empty), Err(FrameError::EmptyPayload)));

    // Every possible truncation of a valid frame.
    for cut in 0..good.len() {
        let err = decode_frame_exact(&good[..cut]).unwrap_err();
        assert!(
            matches!(err, FrameError::Truncated { .. }),
            "cut at {cut} gave {err:?}, expected Truncated"
        );
    }

    // Trailing garbage after a complete frame.
    let mut padded = good.clone();
    padded.extend_from_slice(b"junk");
    assert!(matches!(decode_frame_exact(&padded), Err(FrameError::TrailingBytes { extra: 4 })));

    // Control payloads with hostile discriminants.
    let bad_role = [7u8, 0, 0, 0, 0];
    assert!(matches!(decode_hello(&bad_role), Err(FrameError::BadControl { byte: 7 })));
    let bad_status = [0u8, 0, 0, 0, 9];
    assert!(matches!(decode_sub_ack(&bad_status), Err(FrameError::BadControl { byte: 9 })));
    assert!(matches!(decode_tick_done(&[1, 2, 3]), Err(FrameError::Truncated { .. })));
}

/// Seeded mutation fuzz: flip bytes in well-formed frames; the decoder
/// must return `Ok` or a typed error, and an `Ok` must round back to a
/// decodable payload for submission frames.
#[test]
fn mutated_frames_never_panic() {
    let submission = sample_submission();
    let sub_frame = encode_submission_frame(0, 1, &submission);
    let control_frame = encode_frame(FrameKind::SubAck, 9, &[0, 0, 0, 0, 1]);
    let mut rng = StdRng::seed_from_u64(0x5EED_F8A3);

    for case in 0..4000 {
        let template = if case % 2 == 0 { &sub_frame } else { &control_frame };
        let mut bytes = template.clone();
        // 1–8 independent byte flips, sometimes a resize.
        for _ in 0..rng.gen_range(1..=8u32) {
            let pos = rng.gen_range(0..bytes.len());
            bytes[pos] ^= rng.gen_range(1..=255u8);
        }
        if rng.gen_bool(0.25) {
            let new_len = rng.gen_range(0..=bytes.len());
            bytes.truncate(new_len);
        } else if rng.gen_bool(0.1) {
            let extra = rng.gen_range(1..=16usize);
            for _ in 0..extra {
                let b: u8 = rng.gen_range(0..=255u8);
                bytes.push(b);
            }
        }
        // Typed result either way; a surviving submission frame must
        // still decode at the payload layer without panicking.
        if let Ok(view) = decode_frame_exact(&bytes) {
            if view.kind == FrameKind::Submission {
                let _ = decode_submission(view.payload).map(|v| v.materialize());
            }
        }
    }
}

/// Free-running byte soups: random lengths, random contents, streamed
/// through both the exact and the stream decoder.
#[test]
fn random_soup_never_panics() {
    let mut rng = StdRng::seed_from_u64(0xB0A7);
    for _ in 0..4000 {
        let len = rng.gen_range(0..96usize);
        let mut bytes = vec![0u8; len];
        for b in &mut bytes {
            *b = rng.gen_range(0..=255u8);
        }
        // Bias some soups toward the real magic so the fuzz reaches
        // past the first header check.
        if len >= 3 && rng.gen_bool(0.5) {
            bytes[0] = b'L';
            bytes[1] = b'P';
            bytes[2] = 1;
        }
        let _ = decode_frame_exact(&bytes);
        let _ = decode_frame(&bytes);
        let _ = decode_submission(&bytes);
    }
}

/// Damage confined to the back half (bytes 8–15) of one point tag keeps
/// the frame decodable and the submission well-shaped, so only the
/// transport checksum stands between it and acceptance: every such copy
/// must be discarded as corrupt.
#[test]
fn back_half_tag_damage_is_discarded_as_corrupt() {
    let submission = sample_submission();
    let frame = encode_submission_frame(0, 1, &submission);
    let config = LppaConfig::default();
    for (t, tag) in submission.bids.bids()[0].point.iter().enumerate() {
        let at = frame
            .windows(16)
            .position(|w| w == tag.as_bytes())
            .expect("every point tag travels verbatim in the frame");
        for offset in 8..16 {
            let mut damaged = frame.clone();
            damaged[at + offset] ^= 0x5a;
            let mut engine = CollectEngine::new(1, 2, config);
            let mut journal = Journal::new();
            let ack = engine.ingest(0, &damaged, &mut journal);
            assert_eq!(ack, None, "tag {t} offset {offset}: damaged copy was settled");
            assert!(
                matches!(
                    journal.entries(),
                    [JournalEntry::CorruptDiscarded { bidder: 0, tick: 0 }]
                ),
                "tag {t} offset {offset}: {:?}",
                journal.entries()
            );
        }
    }
}
