//! Pluggable masking backends for the oblivious comparison layer.
//!
//! The paper's scheme masks every prefix with HMAC and compares a
//! point's tag family against a range's tag cover by exact set
//! intersection. That is one point in a larger design space: encrypted
//! probabilistic set-membership structures (Bloom filters, per Grissa
//! et al., arXiv:1806.03557) trade a tunable false-positive rate for
//! smaller probe state and different leakage, and an audited
//! commitment-ledger deployment keeps the exact probes but chains every
//! submission and verdict into a tamper-evident log.
//!
//! [`Backend`] abstracts the probe: a backend *compiles* a
//! [`MaskedPoint`] / [`MaskedRange`] pair into its own representation
//! and answers the membership test `point ∈ range`. Three backends
//! ship:
//!
//! * [`BackendKind::Hmac`] — the paper's exact tag-set intersection;
//!   the reference every other backend is differentially tested
//!   against.
//! * [`BackendKind::Bloom`] — range covers are compiled into an
//!   encrypted Bloom filter ([`BloomFilter`]); probes may return false
//!   positives at the analytic rate `(1 − e^{−kn/m})^k`, never false
//!   negatives.
//! * [`BackendKind::Ledger`] — exact probes (identical verdicts to
//!   `Hmac`) plus an append-only sha-chained commitment ledger
//!   maintained by the settlement layer (`lppa_crypto::commit`); the
//!   probe layer itself is shared with `Hmac` by design, so outcome
//!   equivalence is structural.
//!
//! The active backend is selected per run via the `LPPA_BACKEND`
//! environment knob, parsed with the same strict grammar as every
//! `lppa-par` knob: ASCII-trimmed, exact lowercase name, anything else
//! falls back to the default ([`BackendKind::Hmac`]).

use lppa_crypto::tag::Tag;

use crate::masked::{runs_intersect, MaskedPoint, MaskedRange};

/// Environment knob naming the active masking backend.
pub const BACKEND_ENV: &str = "LPPA_BACKEND";

/// The shipped masking backends.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Exact HMAC tag-set intersection — the paper's scheme.
    #[default]
    Hmac,
    /// Encrypted-Bloom set membership: tunable false positives, no
    /// false negatives.
    Bloom,
    /// Exact probes plus an audited append-only commitment ledger,
    /// verified at settle time.
    Ledger,
}

impl BackendKind {
    /// Every shipped backend, in fingerprint-grid order.
    pub const ALL: [BackendKind; 3] = [BackendKind::Hmac, BackendKind::Bloom, BackendKind::Ledger];

    /// The knob spelling of this backend.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Hmac => "hmac",
            BackendKind::Bloom => "bloom",
            BackendKind::Ledger => "ledger",
        }
    }

    /// The backend named by `LPPA_BACKEND`, defaulting to
    /// [`BackendKind::Hmac`] when the knob is unset or malformed —
    /// the same fall-back-to-default contract as the `lppa-par`
    /// thread-count knob.
    pub fn from_env() -> Self {
        parse_backend(std::env::var(BACKEND_ENV).ok().as_deref()).unwrap_or_default()
    }

    /// Instantiates this backend with default parameters.
    pub fn backend(self) -> Backend {
        match self {
            BackendKind::Hmac => Backend::Hmac,
            BackendKind::Bloom => Backend::Bloom(BloomParams::default()),
            BackendKind::Ledger => Backend::Ledger,
        }
    }
}

/// Parses an `LPPA_BACKEND` value with the strict `lppa-par` knob
/// grammar: ASCII-whitespace-trimmed, then an exact lowercase backend
/// name. Anything else — empty, mixed case, abbreviations, trailing
/// garbage — is `None`, and the caller falls back to its default.
pub fn parse_backend(value: Option<&str>) -> Option<BackendKind> {
    let v = value?.trim_matches(|c: char| c.is_ascii_whitespace());
    match v {
        "hmac" => Some(BackendKind::Hmac),
        "bloom" => Some(BackendKind::Bloom),
        "ledger" => Some(BackendKind::Ledger),
        _ => None,
    }
}

/// A point compiled for backend probing.
///
/// Points stay exact ascending tag runs in every shipped backend: the
/// prefix-family side of the membership test is small (`width + 1`
/// tags) and probing it against a compiled range is where the backends
/// differ.
#[derive(Clone, Debug)]
pub struct BackendPoint {
    tags: Vec<Tag>,
}

impl BackendPoint {
    /// Number of tags this point probes with.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// Whether the point carries no tags (unreachable for points built
    /// through [`Backend::compile_point`]).
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }
}

/// A range cover compiled for backend probing.
#[derive(Clone, Debug)]
pub enum BackendRange {
    /// The exact tag cover as an ascending run (Hmac and Ledger
    /// backends), probed by the same merge as
    /// [`MaskedPoint::in_range`].
    Exact(Vec<Tag>),
    /// An encrypted Bloom filter over the cover tags (Bloom backend).
    Bloom(BloomFilter),
}

/// A masking backend: compiles masked points and ranges into probe
/// state and answers the oblivious membership test.
///
/// An enum rather than a trait: probe calls sit on the allocation hot
/// path, and every caller knows the full closed set of backends.
///
/// # Contract
///
/// For every genuine `(point, range)` pair masked under the same key:
///
/// * **Completeness** — if `point.in_range(range)` then
///   `probe(compile_point(point), compile_range(range))` is `true`.
///   No backend may introduce false negatives.
/// * **Soundness (exact backends)** — `Hmac` and `Ledger` return
///   exactly `point.in_range(range)`.
/// * **Soundness (probabilistic backends)** — `Bloom` may answer
///   `true` for a non-member point with probability bounded by
///   [`BloomParams::pair_fp_bound`]; the differential oracle measures
///   the realized rate against that bound on every scenario.
/// * **Determinism** — probes are pure: the same compiled pair always
///   produces the same verdict, so outcomes are independent of thread
///   count and probe order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Backend {
    /// Exact tag-set intersection.
    Hmac,
    /// Bloom-compiled range covers with the given parameters.
    Bloom(BloomParams),
    /// Exact probes; the commitment chain is layered at settle time.
    Ledger,
}

impl Backend {
    /// Which backend this is.
    pub fn kind(&self) -> BackendKind {
        match self {
            Backend::Hmac => BackendKind::Hmac,
            Backend::Bloom(_) => BackendKind::Bloom,
            Backend::Ledger => BackendKind::Ledger,
        }
    }

    /// Compiles a masked point (bid value or location coordinate) for
    /// probing.
    pub fn compile_point(&self, point: &MaskedPoint) -> BackendPoint {
        BackendPoint { tags: point.iter().copied().collect() }
    }

    /// Compiles a masked range cover for probing.
    pub fn compile_range(&self, range: &MaskedRange) -> BackendRange {
        match self {
            Backend::Hmac | Backend::Ledger => BackendRange::Exact(range.iter().copied().collect()),
            Backend::Bloom(params) => {
                BackendRange::Bloom(BloomFilter::from_tags(range.iter(), range.len(), *params))
            }
        }
    }

    /// The oblivious membership test `point ∈ range`.
    pub fn probe(&self, point: &BackendPoint, range: &BackendRange) -> bool {
        match range {
            BackendRange::Exact(tags) => runs_intersect(&point.tags, tags),
            BackendRange::Bloom(filter) => point.tags.iter().any(|t| filter.contains(t)),
        }
    }
}

/// Bloom sizing parameters: bits budgeted per inserted tag and the
/// number of index functions.
///
/// With `n` inserted tags, the filter allocates `m = bits_per_tag · n`
/// bits and derives `k = hashes` indexes per tag, so the analytic
/// false-positive rate per probed non-member tag is the classic
///
/// ```text
/// (1 − e^{−kn/m})^k = (1 − e^{−k/bits_per_tag})^k
/// ```
///
/// — independent of `n` because the filter scales with its load. The
/// trade-off documented in DESIGN.md §13: fewer bits per tag shrink
/// the compiled range (speed, and less structure leaked per cover) at
/// the cost of comparison false positives, which the differential
/// oracle bounds per scenario.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BloomParams {
    /// Filter bits allocated per inserted tag (`m / n`). Clamped to at
    /// least 1.
    pub bits_per_tag: usize,
    /// Index functions per tag (`k`). Clamped to at least 1.
    pub hashes: u32,
}

impl Default for BloomParams {
    /// 16 bits per tag with 8 indexes: per-tag false-positive rate
    /// ≈ 5.7 · 10⁻⁴, chosen so a full scenario sees a handful of
    /// flipped comparisons at most — large enough to exercise the
    /// FP-tolerant oracle invariant, small enough that auction outcomes
    /// rarely move.
    fn default() -> Self {
        Self { bits_per_tag: 16, hashes: 8 }
    }
}

impl BloomParams {
    /// The analytic per-tag false-positive rate
    /// `(1 − e^{−k/bits_per_tag})^k`.
    pub fn analytic_fp_rate(&self) -> f64 {
        let k = f64::from(self.hashes.max(1));
        let c = self.bits_per_tag.max(1) as f64;
        (1.0 - (-k / c).exp()).powf(k)
    }

    /// Upper bound on the probability that a *comparison* flips: a
    /// point probing `point_tags` non-member tags against one compiled
    /// range answers `true` spuriously with probability at most
    /// `1 − (1 − p)^point_tags` for per-tag rate `p`.
    pub fn pair_fp_bound(&self, point_tags: usize) -> f64 {
        1.0 - (1.0 - self.analytic_fp_rate()).powi(point_tags.min(i32::MAX as usize) as i32)
    }
}

/// An encrypted Bloom filter over HMAC tags.
///
/// Tags are already uniform pseudorandom 128-bit values (truncated
/// HMAC-SHA256), so the filter needs no further hashing: the `k`
/// indexes are derived by Kirsch–Mitzenmacher double hashing from the
/// tag's two 64-bit halves. Without the masking key an observer sees
/// only the bit array — the same unforgeability argument as the exact
/// tag sets, with the cover's exact cardinality additionally blurred
/// by bit collisions.
///
/// False negatives are impossible by construction: inserting sets
/// bits, probing tests the same bits, and bits are never cleared.
#[derive(Clone, Debug, PartialEq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    n_bits: u64,
    hashes: u32,
}

impl BloomFilter {
    /// Builds a filter sized for `count` tags under `params` and
    /// inserts `tags` into it.
    ///
    /// The bit count is `bits_per_tag · count`, rounded up to a whole
    /// 64-bit word and at least one word, so the analytic rate in
    /// [`BloomParams::analytic_fp_rate`] is a (slightly conservative)
    /// upper bound on the realized per-tag rate.
    pub fn from_tags<'a>(
        tags: impl Iterator<Item = &'a Tag>,
        count: usize,
        params: BloomParams,
    ) -> Self {
        let wanted = params.bits_per_tag.max(1).saturating_mul(count.max(1));
        let words = wanted.div_ceil(64).max(1);
        let mut filter = Self {
            bits: vec![0u64; words],
            n_bits: (words as u64) * 64,
            hashes: params.hashes.max(1),
        };
        for tag in tags {
            filter.insert(tag);
        }
        filter
    }

    /// The two double-hashing seeds of a tag: its 64-bit halves, with
    /// the stride forced odd so every index function walks the whole
    /// bit space.
    fn seeds(tag: &Tag) -> (u64, u64) {
        let bytes = tag.as_bytes();
        let h1 = u64::from_le_bytes(bytes[..8].try_into().expect("tag half"));
        let h2 = u64::from_le_bytes(bytes[8..].try_into().expect("tag half")) | 1;
        (h1, h2)
    }

    /// Sets this tag's `k` bits.
    pub fn insert(&mut self, tag: &Tag) {
        let (h1, h2) = Self::seeds(tag);
        for i in 0..u64::from(self.hashes) {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) % self.n_bits;
            self.bits[(bit / 64) as usize] |= 1 << (bit % 64);
        }
    }

    /// Whether all of this tag's `k` bits are set. `true` for every
    /// inserted tag; spuriously `true` for others at the analytic rate.
    pub fn contains(&self, tag: &Tag) -> bool {
        let (h1, h2) = Self::seeds(tag);
        (0..u64::from(self.hashes)).all(|i| {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) % self.n_bits;
            self.bits[(bit / 64) as usize] & (1 << (bit % 64)) != 0
        })
    }

    /// Total bits in the filter.
    pub fn n_bits(&self) -> u64 {
        self.n_bits
    }

    /// Fraction of bits set — the load the realized FP rate depends
    /// on.
    pub fn fill_ratio(&self) -> f64 {
        let set: u32 = self.bits.iter().map(|w| w.count_ones()).sum();
        f64::from(set) / self.n_bits as f64
    }
}

#[cfg(test)]
mod tests {
    use lppa_crypto::keys::HmacKey;
    use lppa_rng::rngs::StdRng;
    use lppa_rng::{Rng, RngCore, SeedableRng};

    use super::*;

    fn key(byte: u8) -> HmacKey {
        HmacKey::from_bytes([byte; 32])
    }

    #[test]
    fn parse_backend_accepts_exact_names_only() {
        assert_eq!(parse_backend(Some("hmac")), Some(BackendKind::Hmac));
        assert_eq!(parse_backend(Some("bloom")), Some(BackendKind::Bloom));
        assert_eq!(parse_backend(Some("ledger")), Some(BackendKind::Ledger));
        assert_eq!(parse_backend(Some("  ledger\t")), Some(BackendKind::Ledger));
        for bad in ["", " ", "HMAC", "Bloom", "bloom!", "bl oom", "hmac2", "default", "0"] {
            assert_eq!(parse_backend(Some(bad)), None, "{bad:?} must be rejected");
        }
        assert_eq!(parse_backend(None), None);
    }

    #[test]
    fn kind_names_roundtrip_through_the_parser() {
        for kind in BackendKind::ALL {
            assert_eq!(parse_backend(Some(kind.name())), Some(kind));
        }
        assert_eq!(BackendKind::default(), BackendKind::Hmac);
    }

    #[test]
    fn exact_backends_agree_with_in_range_everywhere() {
        let k = key(3);
        let width = 7;
        for backend in [Backend::Hmac, Backend::Ledger] {
            for value in [0u32, 1, 63, 64, 127] {
                let point = MaskedPoint::mask(&k, width, value).unwrap();
                let compiled = backend.compile_point(&point);
                for (lo, hi) in [(0u32, 0), (0, 63), (5, 90), (64, 127), (127, 127)] {
                    let range = MaskedRange::mask(&k, width, lo, hi).unwrap();
                    let cr = backend.compile_range(&range);
                    assert_eq!(
                        backend.probe(&compiled, &cr),
                        point.in_range(&range),
                        "{backend:?} {value} in [{lo},{hi}]"
                    );
                }
            }
        }
    }

    #[test]
    fn bloom_backend_never_false_negative_on_masked_pairs() {
        let k = key(9);
        let width = 7;
        let backend = Backend::Bloom(BloomParams::default());
        for value in 0u32..=127 {
            let point = MaskedPoint::mask(&k, width, value).unwrap();
            let compiled = backend.compile_point(&point);
            let range = MaskedRange::mask(&k, width, value.saturating_sub(3), value).unwrap();
            let cr = backend.compile_range(&range);
            assert!(backend.probe(&compiled, &cr), "member {value} must be found");
        }
    }

    #[test]
    fn bloom_filter_has_no_false_negatives_on_random_tags() {
        let mut rng = StdRng::seed_from_u64(0xb100_f11e);
        let tags: Vec<Tag> = (0..500)
            .map(|_| {
                let mut b = [0u8; 16];
                rng.fill_bytes(&mut b);
                Tag::from_bytes(b)
            })
            .collect();
        let params = BloomParams { bits_per_tag: 4, hashes: 3 };
        let filter = BloomFilter::from_tags(tags.iter(), tags.len(), params);
        for tag in &tags {
            assert!(filter.contains(tag));
        }
    }

    #[test]
    fn analytic_rate_matches_the_closed_form() {
        let p = BloomParams { bits_per_tag: 16, hashes: 8 };
        let want = (1.0 - (-8.0f64 / 16.0).exp()).powf(8.0);
        assert!((p.analytic_fp_rate() - want).abs() < 1e-12);
        // Pair bound: union bound over point tags, exact for the
        // independent approximation.
        let pair = p.pair_fp_bound(11);
        assert!(pair > p.analytic_fp_rate() && pair < 11.0 * p.analytic_fp_rate() + 1e-9);
    }

    #[test]
    fn filter_fill_ratio_tracks_the_load() {
        let mut rng = StdRng::seed_from_u64(7);
        let tags: Vec<Tag> = (0..1000)
            .map(|_| {
                let mut b = [0u8; 16];
                rng.fill_bytes(&mut b);
                Tag::from_bytes(b)
            })
            .collect();
        let params = BloomParams { bits_per_tag: 8, hashes: 5 };
        let filter = BloomFilter::from_tags(tags.iter(), tags.len(), params);
        // Expected fill 1 − e^{−k/c} ≈ 0.465; allow generous slack.
        let fill = filter.fill_ratio();
        assert!((0.40..0.53).contains(&fill), "fill {fill:.3}");
    }

    #[test]
    fn default_backend_construction_matches_kind() {
        for kind in BackendKind::ALL {
            assert_eq!(kind.backend().kind(), kind);
        }
    }

    #[test]
    fn bloom_probe_only_widens_the_exact_verdict() {
        // Differential: the Bloom verdict may flip false→true, never
        // true→false.
        let k = key(17);
        let width = 7;
        let exact = Backend::Hmac;
        let bloom = Backend::Bloom(BloomParams { bits_per_tag: 2, hashes: 2 });
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..200 {
            let value = rng.gen_range(0..=127u32);
            let lo = rng.gen_range(0..=127u32);
            let hi = rng.gen_range(lo..=127u32);
            let point = MaskedPoint::mask(&k, width, value).unwrap();
            let range = MaskedRange::mask(&k, width, lo, hi).unwrap();
            let pe = exact.compile_point(&point);
            let re = exact.compile_range(&range);
            let pb = bloom.compile_point(&point);
            let rb = bloom.compile_range(&range);
            if exact.probe(&pe, &re) {
                assert!(bloom.probe(&pb, &rb), "false negative at {value} in [{lo},{hi}]");
            }
        }
    }
}
