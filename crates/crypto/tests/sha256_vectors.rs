//! Long-message SHA-256 known-answer tests (NIST CAVP / RFC 6234 /
//! FIPS 180-4 examples), driven through the hasher (SHA-NI where the CPU
//! has it), the portable reference compression, and the lane dispatch at
//! every supported lane width.
//!
//! The lane-kernel runs use *distinct* per-lane messages so that any
//! cross-lane contamination (a schedule word or working variable leaking
//! between lanes) flips at least one digest.

use lppa_crypto::lanes::{compress_batch_with_width, SUPPORTED_WIDTHS};
use lppa_crypto::sha256::{compress_portable, sha256, Sha256, BLOCK_LEN, DIGEST_LEN};

/// FIPS 180-4 initial hash value for SHA-256 (fractional parts of the
/// square roots of the first eight primes).
const H0: [u32; 8] = [
    0x6a09_e667,
    0xbb67_ae85,
    0x3c6e_f372,
    0xa54f_f53a,
    0x510e_527f,
    0x9b05_688c,
    0x1f83_d9ab,
    0x5be0_cd19,
];

/// RFC 6234 TEST4: "01234567" repeated 80 times (640 bytes).
fn rfc6234_test4() -> Vec<u8> {
    b"01234567".repeat(80)
}

/// FIPS 180-4 two-block example extended by NIST: the 112-byte message
/// "abcdefghbcdefghi...nopqrstu".
const FIPS_112: &[u8] = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";

/// One million repetitions of 'a' (RFC 6234 TEST3 / FIPS 180-4).
fn million_a() -> Vec<u8> {
    vec![b'a'; 1_000_000]
}

fn hex(digest: &[u8; DIGEST_LEN]) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

/// FIPS 180-4 §5.1.1 padding: message ‖ 0x80 ‖ zeros ‖ bit-length as a
/// big-endian u64, split into 64-byte blocks.
fn pad_blocks(msg: &[u8]) -> Vec<[u8; BLOCK_LEN]> {
    let bit_len = (msg.len() as u64) * 8;
    let mut padded = msg.to_vec();
    padded.push(0x80);
    while padded.len() % BLOCK_LEN != BLOCK_LEN - 8 {
        padded.push(0);
    }
    padded.extend_from_slice(&bit_len.to_be_bytes());
    padded.chunks_exact(BLOCK_LEN).map(|c| c.try_into().unwrap()).collect()
}

/// Hashes `width` equal-length messages through the lane kernel: one
/// `compress_batch_with_width` call per block row, all lanes advancing
/// in lockstep.
fn lane_digests(width: usize, messages: &[Vec<u8>]) -> Vec<[u8; DIGEST_LEN]> {
    assert_eq!(messages.len(), width);
    let per_lane: Vec<Vec<[u8; BLOCK_LEN]>> = messages.iter().map(|m| pad_blocks(m)).collect();
    let n_blocks = per_lane[0].len();
    assert!(per_lane.iter().all(|b| b.len() == n_blocks), "lanes must be block-aligned");

    let mut states = vec![H0; width];
    for row in 0..n_blocks {
        let blocks: Vec<[u8; BLOCK_LEN]> = per_lane.iter().map(|b| b[row]).collect();
        compress_batch_with_width(width, &mut states, &blocks);
    }
    states.iter().map(to_digest).collect()
}

/// The portable reference: every padded block of `msg` folded through
/// [`compress_portable`], independent of the CPU's kernels.
fn portable_digest(msg: &[u8]) -> [u8; DIGEST_LEN] {
    let mut state = H0;
    for block in pad_blocks(msg) {
        compress_portable(&mut state, &block);
    }
    to_digest(&state)
}

fn to_digest(state: &[u32; 8]) -> [u8; DIGEST_LEN] {
    let mut digest = [0u8; DIGEST_LEN];
    for (chunk, word) in digest.chunks_exact_mut(4).zip(state) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    digest
}

/// Runs one known-answer vector through the portable reference, the
/// hasher and every lane width with distinct sibling messages in the
/// other lanes.
fn check_vector(msg: &[u8], expected_hex: &str) {
    assert_eq!(hex(&portable_digest(msg)), expected_hex, "portable reference");
    assert_eq!(hex(&sha256(msg)), expected_hex, "scalar one-shot");

    // Incremental, with an uneven split, to exercise buffered blocks.
    let cut = msg.len() / 3;
    let mut hasher = Sha256::new();
    hasher.update(&msg[..cut]);
    hasher.update(&msg[cut..]);
    assert_eq!(hex(&hasher.finalize()), expected_hex, "scalar incremental");

    for width in SUPPORTED_WIDTHS {
        // Lane 0 carries the vector; lanes 1.. carry distinct siblings
        // (first byte perturbed) so cross-lane mixing cannot cancel out.
        let messages: Vec<Vec<u8>> = (0..width)
            .map(|lane| {
                let mut m = msg.to_vec();
                if lane > 0 && !m.is_empty() {
                    m[0] ^= lane as u8;
                }
                m
            })
            .collect();
        let digests = lane_digests(width, &messages);
        assert_eq!(hex(&digests[0]), expected_hex, "width={width} lane 0");
        for (lane, (digest, message)) in digests.iter().zip(&messages).enumerate() {
            assert_eq!(*digest, portable_digest(message), "width={width} lane {lane}");
        }
    }
}

#[test]
fn rfc6234_test4_640_bytes() {
    check_vector(
        &rfc6234_test4(),
        "594847328451bdfa85056225462cc1d867d877fb388df0ce35f25ab5562bfbb5",
    );
}

#[test]
fn fips_two_block_112_bytes() {
    check_vector(FIPS_112, "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
}

#[test]
fn rfc6234_test3_million_a() {
    check_vector(&million_a(), "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

/// CAVP-style short boundary messages: every length around the padding
/// boundaries (55/56/63/64/119/120), portable reference vs the hasher and
/// every lane width.
#[test]
fn padding_boundary_lengths_agree_across_widths() {
    for len in [0usize, 1, 54, 55, 56, 63, 64, 65, 119, 120, 128] {
        let msg: Vec<u8> = (0..len).map(|i| (i * 131 + 7) as u8).collect();
        let expected = portable_digest(&msg);
        assert_eq!(sha256(&msg), expected, "len={len} hasher");
        for width in SUPPORTED_WIDTHS {
            let messages = vec![msg.clone(); width];
            for (lane, digest) in lane_digests(width, &messages).iter().enumerate() {
                assert_eq!(*digest, expected, "len={len} width={width} lane={lane}");
            }
        }
    }
}
