//! Property-based tests for the cryptographic primitives.
//!
//! Run with the in-tree harness: each property draws its inputs from a
//! seeded RNG; failures print the exact reproduction seed (see
//! `lppa_rng::testing`).

use lppa_crypto::chacha20::ChaCha20;
use lppa_crypto::hmac::{hmac_sha256, HmacMidstate, HmacSha256};
use lppa_crypto::keys::{HmacKey, SealKey};
use lppa_crypto::lanes::{compress_batch, compress_batch_with_width, SUPPORTED_WIDTHS};
use lppa_crypto::seal::SealedValue;
use lppa_crypto::sha256::{compress_portable, sha256, Sha256, BLOCK_LEN};
use lppa_crypto::tag::Tag;
use lppa_rng::testing::{byte_vec, check};
use lppa_rng::{Rng, RngCore};

/// Incremental hashing over arbitrary chunk boundaries equals the
/// one-shot digest.
#[test]
fn sha256_incremental_equals_oneshot() {
    check("sha256_incremental_equals_oneshot", |rng| {
        let data = byte_vec(rng, 600);
        let n_cuts = rng.gen_range(0..6usize);
        let mut boundaries: Vec<usize> =
            (0..n_cuts).map(|_| rng.gen_range(0..=data.len())).collect();
        boundaries.sort_unstable();
        let mut hasher = Sha256::new();
        let mut prev = 0;
        for &b in &boundaries {
            hasher.update(&data[prev..b]);
            prev = b;
        }
        hasher.update(&data[prev..]);
        assert_eq!(hasher.finalize(), sha256(&data));
    });
}

/// A cached [`HmacMidstate`] is indistinguishable from a from-scratch
/// HMAC for every key/message length in `0..=257` — below, at and past
/// both the 64-byte key-block and 55-byte single-compression-message
/// boundaries, including the hash-the-key-first path.
#[test]
fn midstate_equals_fresh_hmac() {
    check("midstate_equals_fresh_hmac", |rng| {
        let key = byte_vec(rng, 257);
        let msg = byte_vec(rng, 257);
        let expected = hmac_sha256(&key, &msg);
        let midstate = HmacMidstate::new(&key);
        assert_eq!(midstate.compute(&msg), expected, "key_len={}", key.len());
        // The same midstate, used incrementally with a random split.
        let cut = rng.gen_range(0..=msg.len());
        let mut mac = midstate.mac();
        mac.update(&msg[..cut]);
        mac.update(&msg[cut..]);
        assert_eq!(mac.finalize(), expected, "cut={cut}");
    });
}

/// Same for HMAC, including arbitrary key lengths.
#[test]
fn hmac_incremental_equals_oneshot() {
    check("hmac_incremental_equals_oneshot", |rng| {
        let key = byte_vec(rng, 130);
        let data = byte_vec(rng, 300);
        let cut = rng.gen_range(0..=data.len());
        let mut mac = HmacSha256::new(&key);
        mac.update(&data[..cut]);
        mac.update(&data[cut..]);
        assert_eq!(mac.finalize(), hmac_sha256(&key, &data));
    });
}

/// The keystream XOR is always an involution.
#[test]
fn chacha20_roundtrip() {
    check("chacha20_roundtrip", |rng| {
        let mut key = [0u8; 32];
        rng.fill_bytes(&mut key);
        let mut nonce = [0u8; 12];
        rng.fill_bytes(&mut nonce);
        // Keep the counter away from overflow for multi-block messages.
        let counter = rng.gen_range(0..u32::MAX - 8);
        let data = byte_vec(rng, 300);
        let cipher = ChaCha20::new(&key);
        let mut work = data.clone();
        cipher.apply_keystream(&nonce, counter, &mut work);
        cipher.apply_keystream(&nonce, counter, &mut work);
        assert_eq!(work, data);
    });
}

/// Sealed values always open to the original under the right key and
/// never under a different key.
#[test]
fn seal_roundtrip_and_tamper_detection() {
    check("seal_roundtrip_and_tamper_detection", |rng| {
        let value: u64 = rng.gen();
        let key = SealKey::random(rng);
        let sealed = SealedValue::seal(&key, value, rng);
        assert_eq!(sealed.open(&key), Ok(value));
        let other = SealKey::random(rng);
        assert!(sealed.open(&other).is_err());
    });
}

/// The lane dispatch equals N independent portable compressions on
/// random blocks, for every supported lane width and batch size
/// (including sizes that leave partial-width remainders). The reference
/// is [`compress_portable`], not width 1: on a SHA-NI host width 1 *is*
/// the SHA-NI kernel.
#[test]
fn lane_kernel_equals_scalar_compression() {
    check("lane_kernel_equals_scalar_compression", |rng| {
        let n = rng.gen_range(0..20usize);
        let mut states = Vec::with_capacity(n);
        let mut blocks = Vec::with_capacity(n);
        for _ in 0..n {
            let mut state = [0u32; 8];
            state.iter_mut().for_each(|w| *w = rng.gen());
            let mut block = [0u8; BLOCK_LEN];
            rng.fill_bytes(&mut block);
            states.push(state);
            blocks.push(block);
        }
        let mut reference = states.clone();
        for (state, block) in reference.iter_mut().zip(&blocks) {
            compress_portable(state, block);
        }
        for width in SUPPORTED_WIDTHS {
            let mut lanes = states.clone();
            compress_batch_with_width(width, &mut lanes, &blocks);
            assert_eq!(lanes, reference, "width={width} n={n}");
        }
        let mut default_width = states;
        compress_batch(&mut default_width, &blocks);
        assert_eq!(default_width, reference, "default width, n={n}");
    });
}

/// Batched HMAC over a random mix of message lengths — below, at and
/// past the single-compression boundary (55 bytes), where the batch
/// path falls back to scalar — equals per-message scalar HMAC at every
/// lane width.
#[test]
fn batched_hmac_equals_scalar() {
    check("batched_hmac_equals_scalar", |rng| {
        let key = byte_vec(rng, 80);
        let midstate = HmacMidstate::new(&key);
        let n = rng.gen_range(0..24usize);
        let messages: Vec<Vec<u8>> = (0..n).map(|_| byte_vec(rng, 120)).collect();
        let expected: Vec<_> = messages.iter().map(|m| midstate.compute(m)).collect();
        for width in SUPPORTED_WIDTHS {
            let mut got = vec![[0u8; 32]; n];
            midstate.compute_batch_into_with_width(width, &messages, |i, digest| {
                got[i] = digest;
            });
            assert_eq!(got, expected, "width={width} n={n}");
        }
        assert_eq!(midstate.compute_batch(&messages), expected, "default width");
    });
}

/// Batched tag generation equals scalar [`Tag::compute`] for random
/// 9-byte mask inputs — the exact shape the submission hot path feeds.
#[test]
fn batched_tags_equal_scalar() {
    check("batched_tags_equal_scalar", |rng| {
        let key = HmacKey::random(rng);
        let n = rng.gen_range(0..40usize);
        let messages: Vec<[u8; 9]> = (0..n)
            .map(|_| {
                let mut m = [0u8; 9];
                rng.fill_bytes(&mut m);
                m
            })
            .collect();
        let expected: Vec<Tag> = messages.iter().map(|m| Tag::compute(&key, m)).collect();
        for width in SUPPORTED_WIDTHS {
            let got = Tag::compute_batch_with_width(&key, width, &messages);
            assert_eq!(got, expected, "width={width} n={n}");
        }
        assert_eq!(Tag::compute_batch(&key, &messages), expected, "default width");
    });
}

/// Distinct messages virtually never collide under a fixed key.
#[test]
fn hmac_distinguishes_messages() {
    check("hmac_distinguishes_messages", |rng| {
        let a = byte_vec(rng, 64);
        let b = byte_vec(rng, 64);
        if a == b {
            return;
        }
        assert_ne!(hmac_sha256(b"fixed key", &a), hmac_sha256(b"fixed key", &b));
    });
}
