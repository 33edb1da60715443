//! Prefix membership verification for privacy-preserving range queries.
//!
//! This crate implements the machinery underlying the LPPA protocol's
//! private comparisons (Liu et al., ICDCS 2013, building on SafeQ
//! \[Chen & Liu, INFOCOM 2011\]):
//!
//! * [`prefix::Prefix`] — `{0,1}^s {*}^(w−s)` patterns and their
//!   numericalization `O(·)`;
//! * [`family::prefix_family`] — the family `G(x)` of all prefixes
//!   containing a number;
//! * [`range::range_prefixes`] — the minimal cover `Q([a, b])` of an
//!   interval (≤ `max(2, 2w − 2)` prefixes, see [`range::max_cover_len`]);
//! * [`masked`] — HMAC-masked families and covers, supporting the
//!   oblivious membership test `x ∈ [a, b] ⇔ H(G(x)) ∩ H(Q([a,b])) ≠ ∅`;
//! * [`index`] — an inverted tag index that batches those membership
//!   tests, replacing `O(n²)` pairwise intersections with one linear
//!   build-and-probe pass.
//!
//! # Examples
//!
//! The paper's running example — testing `7 ∈ [6, 14]` without revealing
//! either side:
//!
//! ```
//! use lppa_crypto::keys::HmacKey;
//! use lppa_prefix::masked::{MaskedPoint, MaskedRange};
//!
//! # fn main() -> Result<(), lppa_prefix::PrefixError> {
//! let shared_key = HmacKey::from_bytes([42u8; 32]);
//! let hidden_seven = MaskedPoint::mask(&shared_key, 4, 7)?;
//! let hidden_interval = MaskedRange::mask(&shared_key, 4, 6, 14)?;
//! assert!(hidden_seven.in_range(&hidden_interval));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod error;
pub mod family;
pub mod index;
pub mod masked;
pub mod prefix;
pub mod range;

pub use backend::{
    parse_backend, Backend, BackendKind, BackendPoint, BackendRange, BloomFilter, BloomParams,
    BACKEND_ENV,
};
pub use error::PrefixError;
pub use family::prefix_family;
pub use index::{FrozenTagIndex, TagIndex};
pub use masked::{raw_tag_mix, MaskScratch, MaskedPoint, MaskedRange};
pub use prefix::{Prefix, MASK_INPUT_LEN, MAX_WIDTH};
pub use range::{max_cover_len, range_prefixes};
