//! Micro-benchmarks of the from-scratch cryptographic primitives.
//!
//! The paper argues LPPA is cheap because it only uses hashing ("due to
//! the low computational complexity of hash function, the system resource
//! needed for our security scheme is quite small", Theorem 4 discussion);
//! these benchmarks quantify that claim for this implementation.

use lppa_crypto::chacha20::ChaCha20;
use lppa_crypto::hmac::hmac_sha256;
use lppa_crypto::keys::{HmacKey, SealKey};
use lppa_crypto::seal::SealedValue;
use lppa_crypto::sha256::sha256;
use lppa_crypto::tag::{Tag, TagBuildHasher};
use lppa_rng::bench::Bench;
use lppa_rng::rngs::StdRng;
use lppa_rng::SeedableRng;

fn bench_sha256(b: &mut Bench) {
    for size in [9usize, 64, 1024] {
        let data = vec![0xabu8; size];
        b.bench_throughput(&format!("sha256/{size}B"), Some(size as u64), || {
            sha256(std::hint::black_box(&data));
        });
    }
}

fn bench_hmac(b: &mut Bench) {
    let key = [7u8; 32];
    // A numericalized prefix is 9 bytes — the protocol's hot path.
    let prefix_input = [1u8; 9];
    b.bench("hmac_sha256/prefix_input", || {
        hmac_sha256(std::hint::black_box(&key), std::hint::black_box(&prefix_input));
    });
}

fn bench_tag(b: &mut Bench) {
    let key = HmacKey::from_bytes([9u8; 32]);
    b.bench("tag/compute", || {
        Tag::compute(std::hint::black_box(&key), std::hint::black_box(b"011101010"));
    });
}

fn bench_tag_hash(b: &mut Bench) {
    // One probe's hash in the auctioneer's tag sets and indexes.
    use std::hash::BuildHasher;
    let hasher = TagBuildHasher::default();
    let tag = Tag::compute(&HmacKey::from_bytes([9u8; 32]), b"011101010");
    b.bench("tag_hash", || {
        std::hint::black_box(hasher.hash_one(std::hint::black_box(tag)));
    });
}

fn bench_tag_batch(b: &mut Bench) {
    let key = HmacKey::from_bytes([9u8; 32]);
    // Batch sizes the default config masks: a bid point family is
    // transformed_bits() + 1 = 11 tags, a location point family
    // loc_bits + 1 = 8, and a genuine bid cover of [v, 543] about 5
    // (5.3 on average). Then the w=13 shapes: a point family is
    // w+1 = 14 prefixes, a padded range cover max(2, 2w−2) = 24, and a
    // full per-location submission under one key 2·(14+1+24+1) = 80.
    for count in [5usize, 8, 11, 14, 24, 80] {
        let messages: Vec<[u8; 9]> = (0..count as u64)
            .map(|i| {
                let mut m = [0u8; 9];
                m[0] = 13;
                m[1..].copy_from_slice(&i.wrapping_mul(0x9e37_79b9_7f4a_7c15).to_be_bytes());
                m
            })
            .collect();
        b.bench(&format!("tag_batch/{count}x9B"), || {
            std::hint::black_box(Tag::compute_batch(std::hint::black_box(&key), &messages));
        });
    }
}

fn bench_lane_kernel(b: &mut Bench) {
    // The raw multi-lane compression, 32 independent blocks per call —
    // the before/after on this bench isolates the kernel itself from the
    // HMAC/tag plumbing above it.
    const N: usize = 32;
    let blocks: Vec<[u8; 64]> = (0..N as u64)
        .map(|i| {
            let mut block = [0u8; 64];
            for (j, chunk) in block.chunks_exact_mut(8).enumerate() {
                chunk.copy_from_slice(&(i * 8 + j as u64).to_le_bytes());
            }
            block
        })
        .collect();
    let states = vec![[0x6a09_e667u32; 8]; N];
    b.bench_batched(
        &format!("sha256_lanes/compress_batch_{N}x64B"),
        || states.clone(),
        |mut s| lppa_crypto::lanes::compress_batch(&mut s, std::hint::black_box(&blocks)),
    );
}

fn bench_chacha20(b: &mut Bench) {
    let cipher = ChaCha20::new(&[3u8; 32]);
    let nonce = [5u8; 12];
    for size in [8usize, 1024] {
        b.bench_batched(
            &format!("chacha20/{size}B"),
            || vec![0u8; size],
            |mut data| cipher.apply_keystream(&nonce, 1, &mut data),
        );
    }
}

fn bench_seal(b: &mut Bench) {
    let mut rng = StdRng::seed_from_u64(1);
    let key = SealKey::random(&mut rng);
    b.bench("seal/seal_bid", || {
        SealedValue::seal(std::hint::black_box(&key), 1234, &mut rng);
    });
    let sealed = SealedValue::seal(&key, 1234, &mut rng);
    b.bench("seal/open_bid", || {
        let _ = sealed.open(std::hint::black_box(&key));
    });
}

fn main() {
    let mut b = Bench::new("crypto");
    lppa_bench::machine_context(&mut b);
    bench_sha256(&mut b);
    bench_hmac(&mut b);
    bench_tag(&mut b);
    bench_tag_hash(&mut b);
    bench_tag_batch(&mut b);
    bench_lane_kernel(&mut b);
    bench_chacha20(&mut b);
    bench_seal(&mut b);
    b.finish();
}
