//! Private Location Submission (§IV.A of the paper).
//!
//! Each bidder submits, per axis, the masked prefix family of its
//! coordinate and the masked cover of its interference range. The
//! auctioneer declares two bidders conflicting iff the point of one lies
//! in the range of the other on **both** axes — exactly the plaintext
//! predicate `|Δx| < 2λ ∧ |Δy| < 2λ`, computed without seeing any
//! coordinate.
//!
//! The transmitted interference range is `[x − (2λ−1), x + (2λ−1)]`
//! (clamped to the domain): with integer coordinates, membership in that
//! closed range is exactly the paper's strict `|Δ| < 2λ` test.

use std::borrow::Borrow;

use lppa_auction::bidder::Location;
use lppa_auction::conflict::ConflictGraph;
use lppa_crypto::keys::HmacKey;
use lppa_crypto::tag::Tag;
use lppa_prefix::{FrozenTagIndex, MaskScratch, MaskedPoint, MaskedRange};
use lppa_rng::Rng;

use crate::config::LppaConfig;
use crate::error::LppaError;

/// A bidder's masked location submission.
///
/// # Examples
///
/// ```
/// use lppa::ppbs::location::LocationSubmission;
/// use lppa::LppaConfig;
/// use lppa_auction::bidder::Location;
/// use lppa_crypto::keys::HmacKey;
/// use lppa_rng::SeedableRng;
///
/// # fn main() -> Result<(), lppa::LppaError> {
/// let g0 = HmacKey::from_bytes([7u8; 32]);
/// let config = LppaConfig::default();
/// let mut rng = lppa_rng::rngs::StdRng::seed_from_u64(1);
/// let a = LocationSubmission::build(Location::new(10, 10), &g0, &config, &mut rng)?;
/// let b = LocationSubmission::build(Location::new(12, 11), &g0, &config, &mut rng)?;
/// assert!(a.conflicts_with(&b)); // both gaps < 2λ = 6
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct LocationSubmission {
    point_x: MaskedPoint,
    range_x: MaskedRange,
    point_y: MaskedPoint,
    range_y: MaskedRange,
}

impl LocationSubmission {
    /// Masks `location` under the shared key `g0`.
    ///
    /// # Errors
    ///
    /// Returns [`LppaError::LocationOutOfRange`] if a coordinate does not
    /// fit the configured domain, or a config/prefix error.
    pub fn build<R: Rng + ?Sized>(
        location: Location,
        g0: &HmacKey,
        config: &LppaConfig,
        rng: &mut R,
    ) -> Result<Self, LppaError> {
        Self::build_in(location, g0, config, rng, &mut MaskScratch::new())
    }

    /// [`LocationSubmission::build`] staging through a pooled
    /// [`MaskScratch`]: bit-identical output, allocation-free once the
    /// pool is warm.
    ///
    /// # Errors
    ///
    /// As for [`LocationSubmission::build`].
    pub fn build_in<R: Rng + ?Sized>(
        location: Location,
        g0: &HmacKey,
        config: &LppaConfig,
        rng: &mut R,
        scratch: &mut MaskScratch,
    ) -> Result<Self, LppaError> {
        config.validate()?;
        let max = config.loc_max();
        for coordinate in [location.x, location.y] {
            if coordinate > max {
                return Err(LppaError::LocationOutOfRange { coordinate, max });
            }
        }
        let w = config.loc_bits;
        let half = 2 * config.lambda - 1; // closed-range radius for strict < 2λ
        let build_axis = |value: u32,
                          rng: &mut R,
                          scratch: &mut MaskScratch|
         -> Result<(MaskedPoint, MaskedRange), LppaError> {
            let lo = value.saturating_sub(half);
            let hi = (value + half).min(max);
            Ok((
                MaskedPoint::mask_in(g0, w, value, scratch)?,
                MaskedRange::mask_padded_in(g0, w, lo, hi, rng, scratch)?,
            ))
        };
        let (point_x, range_x) = build_axis(location.x, rng, scratch)?;
        let (point_y, range_y) = build_axis(location.y, rng, scratch)?;
        Ok(Self { point_x, range_x, point_y, range_y })
    }

    /// Consumes exactly the RNG draws [`build_in`](Self::build_in) would
    /// for `location`, computing no HMAC.
    ///
    /// A revise that keeps the bidder's location and seed can reuse the
    /// resident masked location verbatim (same key + same draws ⇒ the
    /// re-mask is bit-identical) and call this to advance the bidder's
    /// seeded stream to where the bid build starts, keeping the cheap
    /// path bit-aligned with a full re-mask. Mirrors `build_in`'s
    /// validation and interference-range derivation exactly; the
    /// draw-count argument is
    /// [`MaskedRange::replay_padding_draws`]'s.
    ///
    /// # Errors
    ///
    /// As for [`LocationSubmission::build`].
    pub fn replay_build_draws<R: Rng + ?Sized>(
        location: Location,
        config: &LppaConfig,
        rng: &mut R,
        scratch: &mut MaskScratch,
    ) -> Result<(), LppaError> {
        config.validate()?;
        let max = config.loc_max();
        for coordinate in [location.x, location.y] {
            if coordinate > max {
                return Err(LppaError::LocationOutOfRange { coordinate, max });
            }
        }
        let w = config.loc_bits;
        let half = 2 * config.lambda - 1;
        for value in [location.x, location.y] {
            let lo = value.saturating_sub(half);
            let hi = (value + half).min(max);
            MaskedRange::replay_padding_draws(w, lo, hi, rng, scratch)?;
        }
        Ok(())
    }

    /// Retires this submission, recycling its four tag runs into
    /// `scratch` for the next [`build_in`](Self::build_in), in the
    /// reverse of the order it masks them.
    pub fn reclaim(self, scratch: &mut MaskScratch) {
        scratch.reclaim_point(self.point_y);
        scratch.reclaim_range(self.range_y);
        scratch.reclaim_point(self.point_x);
        scratch.reclaim_range(self.range_x);
    }

    /// The auctioneer's conflict test: does `self`'s point fall inside
    /// `other`'s interference range on both axes?
    ///
    /// Symmetric for submissions built with the same `λ`, since the
    /// ranges have equal radius.
    pub fn conflicts_with(&self, other: &LocationSubmission) -> bool {
        self.point_x.in_range(&other.range_x) && self.point_y.in_range(&other.range_y)
    }

    /// The masked x-axis point family (probe material for the conflict
    /// index).
    pub fn point_x(&self) -> &MaskedPoint {
        &self.point_x
    }

    /// The masked x-axis range cover (index material for the conflict
    /// index).
    pub fn range_x(&self) -> &MaskedRange {
        &self.range_x
    }

    /// The masked y-axis point family.
    pub fn point_y(&self) -> &MaskedPoint {
        &self.point_y
    }

    /// The masked y-axis range cover.
    pub fn range_y(&self) -> &MaskedRange {
        &self.range_y
    }

    /// Reassembles a submission from its four masked components, as a
    /// wire decoder does after parsing the tag groups.
    ///
    /// No structural validation happens here — the auctioneer runs
    /// [`validate`](Self::validate) on every received submission, exactly
    /// as it does for submissions that arrived through the typed
    /// transport.
    pub fn from_parts(
        point_x: MaskedPoint,
        range_x: MaskedRange,
        point_y: MaskedPoint,
        range_y: MaskedRange,
    ) -> Self {
        Self { point_x, range_x, point_y, range_y }
    }

    /// Transmission size in bytes (both axes, points and ranges).
    pub fn wire_len(&self) -> usize {
        self.point_x.wire_len()
            + self.range_x.wire_len()
            + self.point_y.wire_len()
            + self.range_y.wire_len()
    }

    /// Structural validation of a *received* submission against the
    /// auction's configuration: every axis must carry a full prefix
    /// family (`loc_bits + 1` point tags) and a fully padded cover
    /// (`max_cover_len(loc_bits)` range tags), and each axis's point
    /// must lie in its own cover.
    ///
    /// Genuine bidders always satisfy this by construction — a
    /// coordinate `x` lies in its interference range
    /// `[x − (2λ−1), x + (2λ−1)]`. A failure means transport truncation
    /// or tampering, and the auctioneer should quarantine the sender
    /// rather than let a partial or made-up group silently erase
    /// conflicts: random tags of the right counts match nobody, so the
    /// forger would share a channel with every neighbour.
    ///
    /// # Errors
    ///
    /// Returns [`LppaError::MalformedSubmission`] naming the broken axis.
    pub fn validate(&self, config: &LppaConfig) -> Result<(), LppaError> {
        let want_point = usize::from(config.loc_bits) + 1;
        let want_range = lppa_prefix::max_cover_len(config.loc_bits);
        let checks = [
            ("x point", self.point_x.len(), want_point),
            ("x range", self.range_x.len(), want_range),
            ("y point", self.point_y.len(), want_point),
            ("y range", self.range_y.len(), want_range),
        ];
        for (axis, got, want) in checks {
            if got != want {
                return Err(LppaError::MalformedSubmission {
                    reason: format!("location {axis} has {got} tags, expected {want}"),
                });
            }
        }
        let axes = [("x", &self.point_x, &self.range_x), ("y", &self.point_y, &self.range_y)];
        for (axis, point, range) in axes {
            if !point.in_range(range) {
                return Err(LppaError::MalformedSubmission {
                    reason: format!("location {axis} point lies outside its own range"),
                });
            }
        }
        Ok(())
    }

    /// An order-independent digest of every transmitted tag, used as the
    /// transport integrity checksum. Reveals nothing beyond the wire
    /// bytes themselves.
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
}

/// Builds the full conflict graph from all bidders' masked submissions —
/// what the curious auctioneer actually computes.
///
/// An index join on both axes. Every bidder's x-axis and y-axis point
/// families are frozen into one [`FrozenTagIndex`] each, and each
/// bidder `j` probes both with its range covers. The x probes mark, in
/// a stamp array, every earlier bidder `i < j` whose x point lies in
/// `j`'s x range; the y probes then emit `(i, j)` for every earlier
/// bidder whose y point lies in `j`'s y range and that carries `j`'s
/// stamp. That is exactly [`LocationSubmission::conflicts_with`]
/// (`point(i) ∩ range(j) ≠ ∅` on both axes) for each pair `i < j`, with
/// no per-pair set probe: the cost is two `O(n · w)` index builds,
/// `O(n · w)` probes, and one read per owner-list entry hit.
///
/// The point families are the indexed side because they carry no
/// padding: a `w`-bit domain has at most `2^(w+1) − 1` distinct point
/// tags however many bidders there are, so each index's row map stays
/// small enough for L1. The covers' random padding tags only cost a
/// probe miss each.
///
/// Each pair is emitted at most once even when several of `j`'s tags
/// reach the same bidder (a tampered family can make a point and a
/// cover share more than one tag): the first y hit clears the stamp.
///
/// Generic over how the caller holds the submissions, so batch drivers
/// can pass references into their own submission lists instead of
/// copying locations. The join runs on the calling thread in one pass
/// over the bidders, adding each edge to the graph as it is found.
pub fn build_conflict_graph<L>(submissions: &[L]) -> ConflictGraph
where
    L: Borrow<LocationSubmission>,
{
    let n = submissions.len();
    let mut graph = ConflictGraph::disconnected(n);
    if n < 2 {
        return graph;
    }

    // The freeze walks the submissions in bidder order, so every owner
    // row lists bidders in ascending order.
    let index_axis = |point: fn(&LocationSubmission) -> &MaskedPoint| {
        let entries = submissions.iter().map(|s| point(s.borrow()).len()).sum();
        FrozenTagIndex::freeze(
            entries,
            submissions
                .iter()
                .enumerate()
                .flat_map(|(i, s)| point(s.borrow()).iter().map(move |t| (t, i as u32))),
        )
    };
    let x_points = index_axis(LocationSubmission::point_x);
    let y_points = index_axis(LocationSubmission::point_y);

    // stamp[i] == j + 1 iff bidder i's x point lies in bidder j's x
    // range and no y hit of j's has consumed the mark yet.
    let mut stamp = vec![0u32; n];
    for (j, s) in submissions.iter().enumerate() {
        let s = s.borrow();
        let mark = j as u32 + 1;
        for tag in s.range_x.iter() {
            for &i in earlier_owners(&x_points, tag, j) {
                stamp[i as usize] = mark;
            }
        }
        for tag in s.range_y.iter() {
            for &i in earlier_owners(&y_points, tag, j) {
                if stamp[i as usize] == mark {
                    stamp[i as usize] = 0;
                    graph.add_conflict((i as usize).into(), j.into());
                }
            }
        }
    }
    graph
}

/// The owners of `tag` before bidder `j` in an index whose rows list
/// bidders in ascending order: the join reads only the `i < j`
/// direction, exactly like the pairwise predicate.
fn earlier_owners<'a>(
    index: &'a FrozenTagIndex,
    tag: &Tag,
    j: usize,
) -> impl Iterator<Item = &'a u32> {
    index.owners(tag).iter().take_while(move |&&i| (i as usize) < j)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lppa_rng::rngs::StdRng;
    use lppa_rng::SeedableRng;

    fn setup() -> (HmacKey, LppaConfig, StdRng) {
        (HmacKey::from_bytes([3u8; 32]), LppaConfig::default(), StdRng::seed_from_u64(5))
    }

    #[test]
    fn masked_conflicts_match_plaintext_predicate() {
        let (g0, config, mut rng) = setup();
        let base = Location::new(50, 50);
        let a = LocationSubmission::build(base, &g0, &config, &mut rng).unwrap();
        // Sweep the whole neighbourhood around the 2λ boundary.
        for dx in 0..=8u32 {
            for dy in 0..=8u32 {
                let other = Location::new(50 + dx, 50 + dy);
                let b = LocationSubmission::build(other, &g0, &config, &mut rng).unwrap();
                let expected = base.conflicts_with(&other, config.lambda);
                assert_eq!(a.conflicts_with(&b), expected, "d=({dx},{dy})");
                assert_eq!(b.conflicts_with(&a), expected, "symmetry d=({dx},{dy})");
            }
        }
    }

    #[test]
    fn graph_matches_plaintext_graph() {
        let (g0, config, mut rng) = setup();
        use lppa_rng::Rng as _;
        let locations: Vec<Location> = (0..25)
            .map(|_| Location::new(rng.gen_range(0..=127), rng.gen_range(0..=127)))
            .collect();
        let submissions: Vec<LocationSubmission> = locations
            .iter()
            .map(|&l| LocationSubmission::build(l, &g0, &config, &mut rng).unwrap())
            .collect();
        let masked = build_conflict_graph(&submissions);
        let plain = ConflictGraph::from_locations(&locations, config.lambda);
        assert_eq!(masked, plain);
    }

    /// Masks every location under one key and RNG stream.
    fn mask_all(
        locations: &[Location],
        g0: &HmacKey,
        config: &LppaConfig,
        rng: &mut StdRng,
    ) -> Vec<LocationSubmission> {
        locations.iter().map(|&l| LocationSubmission::build(l, g0, config, rng).unwrap()).collect()
    }

    #[test]
    fn fleet_scale_graph_matches_plaintext_graph() {
        // The fleet shape: 1,000 bidders on the 128 grid, so owner rows
        // run to dozens of bidders. Co-located bidders share every
        // cover tag, and the grid's edges clamp their covers.
        let (g0, config, mut rng) = setup();
        use lppa_rng::Rng as _;
        let max = config.loc_max();
        let mut locations: Vec<Location> = (0..940)
            .map(|_| Location::new(rng.gen_range(0..=max), rng.gen_range(0..=max)))
            .collect();
        locations.extend_from_within(..36);
        for (x, y) in [(0, 0), (0, max), (max, 0), (max, max), (0, 64), (max, 64)] {
            for _ in 0..4 {
                locations.push(Location::new(x, y));
            }
        }
        assert_eq!(locations.len(), 1000);
        let submissions = mask_all(&locations, &g0, &config, &mut rng);
        let masked = build_conflict_graph(&submissions);
        assert_eq!(masked, ConflictGraph::from_locations(&locations, config.lambda));
        assert!(masked.edge_count() > 3000, "{} edges", masked.edge_count());
    }

    #[test]
    fn owned_and_borrowed_submissions_give_equal_graphs() {
        let (g0, config, mut rng) = setup();
        use lppa_rng::Rng as _;
        let locations: Vec<Location> = (0..200)
            .map(|_| Location::new(rng.gen_range(40..=72), rng.gen_range(40..=72)))
            .collect();
        let owned = mask_all(&locations, &g0, &config, &mut rng);
        let borrowed: Vec<&LocationSubmission> = owned.iter().collect();
        let graph = build_conflict_graph(&owned);
        assert_eq!(graph, build_conflict_graph(&borrowed));
        assert_eq!(graph, ConflictGraph::from_locations(&locations, config.lambda));
    }

    #[test]
    fn repeated_hits_on_one_peer_give_one_edge() {
        // Bidder 0's y family is tampered to carry every tag of bidder
        // 1's y cover, so bidder 1's y probes reach bidder 0 through
        // several owner rows. Bidder 2, level with bidder 1 on y, reaches
        // it through the shared cover tags too. Bidder 1 also conflicts
        // on x and gets exactly one edge; bidder 2 is far away on x and
        // gets none.
        let (g0, config, mut rng) = setup();
        let locations = [Location::new(10, 10), Location::new(12, 12), Location::new(100, 12)];
        let mut submissions = mask_all(&locations, &g0, &config, &mut rng);
        let tampered: Vec<Tag> =
            submissions[0].point_y.iter().chain(submissions[1].range_y.iter()).copied().collect();
        submissions[0].point_y = MaskedPoint::from_tags(tampered).unwrap();
        let shared = submissions[1]
            .range_y
            .iter()
            .filter(|t| submissions[0].point_y.iter().any(|p| p == *t));
        assert!(shared.count() > 1);

        let graph = build_conflict_graph(&submissions);
        assert_eq!(graph.edge_count(), 1);
        assert!(graph.are_conflicting(0.into(), 1.into()));
    }

    #[test]
    fn boundary_coordinates_clamp_cleanly() {
        let (g0, config, mut rng) = setup();
        let corner =
            LocationSubmission::build(Location::new(0, 0), &g0, &config, &mut rng).unwrap();
        let far = LocationSubmission::build(
            Location::new(config.loc_max(), config.loc_max()),
            &g0,
            &config,
            &mut rng,
        )
        .unwrap();
        assert!(!corner.conflicts_with(&far));
        assert!(corner.conflicts_with(&corner));
    }

    #[test]
    fn out_of_domain_location_is_rejected() {
        let (g0, config, mut rng) = setup();
        let err =
            LocationSubmission::build(Location::new(500, 0), &g0, &config, &mut rng).unwrap_err();
        assert!(matches!(err, LppaError::LocationOutOfRange { coordinate: 500, .. }));
    }

    #[test]
    fn different_keys_never_conflict() {
        // Submissions masked under different keys are mutually opaque —
        // the structural reason an eavesdropper without g0 learns nothing.
        let (_, config, mut rng) = setup();
        let k1 = HmacKey::from_bytes([1u8; 32]);
        let k2 = HmacKey::from_bytes([2u8; 32]);
        let a = LocationSubmission::build(Location::new(9, 9), &k1, &config, &mut rng).unwrap();
        let b = LocationSubmission::build(Location::new(9, 9), &k2, &config, &mut rng).unwrap();
        assert!(!a.conflicts_with(&b));
    }

    #[test]
    fn validate_accepts_genuine_and_rejects_truncated() {
        let (g0, config, mut rng) = setup();
        let sub = LocationSubmission::build(Location::new(9, 9), &g0, &config, &mut rng).unwrap();
        assert!(sub.validate(&config).is_ok());
        // Truncate the x point: validation must name the damage.
        let mut broken = sub.clone();
        let kept: Vec<_> = broken.point_x.iter().copied().take(2).collect();
        broken.point_x = MaskedPoint::from_tags(kept).unwrap();
        let err = broken.validate(&config).unwrap_err();
        assert!(matches!(err, LppaError::MalformedSubmission { .. }), "{err}");
        assert!(err.to_string().contains("x point"));
    }

    #[test]
    fn checksum_is_stable_and_damage_sensitive() {
        let (g0, config, mut rng) = setup();
        let sub = LocationSubmission::build(Location::new(30, 40), &g0, &config, &mut rng).unwrap();
        assert_eq!(sub.checksum(), sub.clone().checksum());
        // Swapping the axes changes the digest (rotation breaks XOR
        // symmetry), as does any tag-level damage.
        let mut swapped = sub.clone();
        std::mem::swap(&mut swapped.point_x, &mut swapped.point_y);
        std::mem::swap(&mut swapped.range_x, &mut swapped.range_y);
        assert_ne!(sub.checksum(), swapped.checksum());
    }

    #[test]
    fn wire_len_is_uniform_across_locations() {
        // Padding makes every submission the same size: the auctioneer
        // cannot distinguish edge users by submission length.
        let (g0, config, mut rng) = setup();
        let sizes: std::collections::HashSet<usize> = [
            Location::new(0, 0),
            Location::new(1, 127),
            Location::new(64, 64),
            Location::new(127, 0),
        ]
        .into_iter()
        .map(|l| LocationSubmission::build(l, &g0, &config, &mut rng).unwrap().wire_len())
        .collect();
        assert_eq!(sizes.len(), 1, "submission sizes leak location: {sizes:?}");
    }
}
