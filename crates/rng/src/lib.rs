//! Deterministic randomness for the whole LPPA workspace, built on the
//! in-tree ChaCha20 implementation — no external dependencies.
//!
//! The workspace is built and tested fully offline, so instead of the
//! `rand` / `proptest` / `criterion` stack this crate provides the small
//! API surface the codebase actually uses:
//!
//! * [`StdRng`] — a [`RngCore`] implementation whose stream is the raw
//!   ChaCha20 keystream of [`lppa_crypto::chacha20::ChaCha20`] (RFC 8439),
//!   seedable from a 32-byte seed or a `u64`;
//! * [`Rng`] — convenience extension trait (`gen`, `gen_range`,
//!   `gen_bool`), blanket-implemented for every [`RngCore`];
//! * [`SeedableRng`] — explicit reproducible construction;
//! * [`seq::SliceRandom`] — Fisher–Yates [`shuffle`](seq::SliceRandom::shuffle)
//!   and uniform [`choose`](seq::SliceRandom::choose);
//! * [`testing`] — a minimal seeded property-test harness (replaces
//!   `proptest`): every failure reproduces from a printed seed;
//! * [`bench`](mod@bench) — a warmup + sampling wall-clock benchmark
//!   harness (replaces `criterion`) that emits one JSON line per
//!   benchmark.
//!
//! Determinism is the point: the same seed always yields the same
//! sequence, on every platform, so any test failure in the workspace can
//! be replayed exactly from the seed printed in the failure report.
//!
//! # Examples
//!
//! ```
//! use lppa_rng::{Rng, RngCore, SeedableRng, StdRng};
//! use lppa_rng::seq::SliceRandom;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let d6: u32 = rng.gen_range(1..=6);
//! assert!((1..=6).contains(&d6));
//!
//! let mut deck: Vec<u32> = (0..52).collect();
//! deck.shuffle(&mut rng);
//!
//! // Identical seeds yield identical streams.
//! assert_eq!(
//!     StdRng::seed_from_u64(7).next_u64(),
//!     StdRng::seed_from_u64(7).next_u64(),
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod seq;
pub mod testing;

mod std_rng;
mod uniform;

pub use lppa_crypto::rand_core::RngCore;
pub use std_rng::ChaChaRng;
pub use uniform::{SampleRange, Standard};

/// Compatibility alias: the workspace's standard deterministic RNG.
pub type StdRng = ChaChaRng;

/// Named RNG types, mirroring the layout generic code was written
/// against (`use lppa_rng::rngs::StdRng`).
pub mod rngs {
    pub use crate::std_rng::ChaChaRng as StdRng;
}

/// A reproducible RNG constructible from a fixed-size seed.
pub trait SeedableRng: Sized {
    /// The seed type, e.g. `[u8; 32]`.
    type Seed: Default + AsMut<[u8]>;

    /// Builds the generator from an explicit seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds the generator from a `u64`, expanded to a full seed with
    /// SplitMix64 so nearby inputs yield unrelated streams.
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut s = state;
        for chunk in seed.as_mut().chunks_mut(8) {
            let bytes = splitmix64(&mut s).to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// One step of the SplitMix64 sequence (the standard seed expander).
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Convenience extension methods over any [`RngCore`].
///
/// Blanket-implemented, so it is usable both through generics
/// (`R: Rng + ?Sized`) and through `&mut dyn RngCore` trait objects.
pub trait Rng: RngCore {
    /// Samples a value of type `T` from its full domain
    /// (`f64` is uniform in `[0, 1)`).
    fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Samples uniformly from `range` (`lo..hi` or `lo..=hi`).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool probability out of [0, 1]: {p}");
        uniform::unit_f64(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}
