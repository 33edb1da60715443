//! From-scratch cryptographic primitives for the LPPA reproduction.
//!
//! The LPPA protocol (Liu et al., ICDCS 2013) masks location and bid
//! prefixes with a keyed hash and seals exact bid values under a symmetric
//! key shared with a trusted third party. No cryptography crates are in
//! this project's allowed dependency set, so the primitives are
//! implemented here directly from their specifications and validated
//! against the published test vectors:
//!
//! * [`sha256`] — SHA-256 (FIPS 180-4);
//! * [`hmac`] — HMAC-SHA256 (RFC 2104, vectors from RFC 4231);
//! * [`chacha20`] — the ChaCha20 stream cipher (RFC 8439);
//! * [`keys`] — opaque key newtypes (`g0`, `gb_r`, `gc`);
//! * [`tag`] — truncated HMAC tags, the unit of every masked submission;
//! * [`seal`] — randomized authenticated encryption of bid values for
//!   the TTP (ChaCha20 + HMAC, encrypt-then-MAC);
//! * [`commit`] — sha-chained append-only commitment ledgers backing
//!   the audited `ledger` masking backend.
//!
//! # Examples
//!
//! Masking a numericalized prefix the way a bidder does:
//!
//! ```
//! use lppa_crypto::keys::HmacKey;
//! use lppa_crypto::tag::Tag;
//!
//! let g0 = HmacKey::from_bytes([0x5a; 32]);
//! let masked = Tag::compute(&g0, b"0111010");
//! assert_eq!(masked, Tag::compute(&g0, b"0111010"));
//! ```
//!
//! These implementations favour clarity and are more than fast enough for
//! the auction workloads in this repository (an entire 129-channel,
//! 400-bidder submission round masks about 8.5·10^5 genuine prefix tags).
//! They are **not** hardened against side channels beyond constant-time
//! tag comparison and must not be lifted into unrelated production
//! systems.

// `deny` rather than `forbid`: the sanctioned exceptions are the two
// `core::arch` modules in [`lanes`] — the SHA-NI single-block kernel and
// the AVX2 8-lane kernel — whose intrinsic calls carry a scoped
// `#[allow(unsafe_code)]` plus a safety argument. Everything else in the
// crate remains unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod chacha20;
pub mod commit;
pub mod hmac;
pub mod kdf;
pub mod keys;
pub mod lanes;
pub mod rand_core;
pub mod seal;
pub mod sha256;
pub mod tag;

pub use commit::{CommitmentLedger, LedgerEntry, LedgerError};
pub use kdf::{derive_key, KeySchedule};
pub use keys::{HmacKey, SealKey};
pub use rand_core::RngCore;
pub use seal::{OpenError, SealedValue};
pub use tag::Tag;
