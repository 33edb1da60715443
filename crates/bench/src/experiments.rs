//! Shared experiment logic for the figure-regeneration binaries.

use lppa::protocol::{build_submissions, run_private_auction_with_model, AuctioneerModel};
use lppa::ttp::Ttp;
use lppa::zero_replace::ZeroReplacePolicy;
use lppa::LppaConfig;
use lppa_attack::adversary::ChannelRankings;
use lppa_attack::bcm::bcm_attack;
use lppa_attack::bpm::{bpm_attack, BpmConfig};
use lppa_attack::metrics::{AggregateReport, PrivacyReport};
use lppa_auction::bidder::{generate_bidders, BidModel, BidTable, Bidder, Location};
use lppa_auction::runner::{run_plain_auction_with_table, AuctionConfig};
use lppa_rng::rngs::StdRng;
use lppa_rng::SeedableRng;
use lppa_spectrum::area::AreaProfile;
use lppa_spectrum::synth::SyntheticMapBuilder;
use lppa_spectrum::SpectrumMap;

/// The paper's BPM cell-count cap ("we define this threshold as 250").
pub const BPM_CELL_CAP: usize = 250;

/// Decay of the zero-disguise distribution used in the Fig. 5
/// experiments: `p_t ∝ DISGUISE_DECAY^(t−1)`, honouring the paper's
/// requirement `p_1 ≥ … ≥ p_bmax` ("for larger numbers, we set a smaller
/// probability to have the substitution", §IV.C.2).
pub const DISGUISE_DECAY: f64 = 0.75;

/// The disguise policy the Fig. 5 experiments give every bidder.
pub fn experiment_policy(replace_prob: f64, bmax: u32) -> ZeroReplacePolicy {
    ZeroReplacePolicy::geometric(replace_prob, DISGUISE_DECAY, bmax)
}

/// One row of the Fig. 4 attack sweeps.
#[derive(Clone, Debug)]
pub struct AttackRow {
    /// Area name.
    pub area: String,
    /// Number of auctioned channels.
    pub channels: usize,
    /// Attack variant label ("BCM", "BPM 1/2", …).
    pub variant: String,
    /// Aggregated metrics over all victims.
    pub report: AggregateReport,
}

/// Runs BCM and BPM (at the given keep fractions) against a plaintext
/// auction population on `map`, aggregating over every victim with at
/// least one positive bid.
pub fn attack_population(
    map: &SpectrumMap,
    bidders: &[Bidder],
    table: &BidTable,
    fractions: &[f64],
) -> Vec<(String, AggregateReport)> {
    let mut bcm_agg = AggregateReport::new();
    let mut bpm_aggs: Vec<AggregateReport> =
        fractions.iter().map(|_| AggregateReport::new()).collect();

    for b in bidders {
        let channels = table.positive_channels(b.id);
        if channels.is_empty() {
            continue;
        }
        let candidates = bcm_attack(map, &channels);
        bcm_agg.push(PrivacyReport::evaluate(&candidates, b.cell));

        let bids: Vec<_> = channels.iter().map(|&ch| (ch, table.bid(b.id, ch))).collect();
        for (agg, &fraction) in bpm_aggs.iter_mut().zip(fractions) {
            let config = BpmConfig { keep_fraction: fraction, max_cells: Some(BPM_CELL_CAP) };
            let refined = bpm_attack(map, &candidates, &bids, &config);
            agg.push(PrivacyReport::evaluate(&refined.possible, b.cell));
        }
    }

    let mut out = vec![("BCM".to_string(), bcm_agg)];
    for (agg, &fraction) in bpm_aggs.into_iter().zip(fractions) {
        out.push((format!("BPM {fraction:.2}"), agg));
    }
    out
}

/// Fig. 4 sweep: for each channel count, attack a fresh plaintext
/// population on `area`'s map.
pub fn attack_sweep(
    area: &AreaProfile,
    channel_counts: &[usize],
    n_victims: usize,
    fractions: &[f64],
    seed: u64,
) -> Vec<AttackRow> {
    let full_map = SyntheticMapBuilder::new(area.clone()).seed(seed).build();
    let model = BidModel::default();
    let mut rows = Vec::new();
    for &k in channel_counts {
        let map = full_map.take_channels(k);
        let mut rng = StdRng::seed_from_u64(seed ^ (k as u64).wrapping_mul(0x9e37));
        let bidders = generate_bidders(&map, n_victims, &model, &mut rng);
        let table = BidTable::generate(&map, &bidders, &model, &mut rng);
        for (variant, report) in attack_population(&map, &bidders, &table, fractions) {
            rows.push(AttackRow { area: area.name.to_string(), channels: k, variant, report });
        }
    }
    rows
}

/// One row of the Fig. 5 (a)–(d) privacy sweeps.
#[derive(Clone, Debug)]
pub struct PrivacyRow {
    /// Zero-replace probability `1 − p_0` (0 for the no-LPPA baselines).
    pub replace_prob: f64,
    /// Attack variant label.
    pub variant: String,
    /// Aggregated privacy metrics.
    pub report: AggregateReport,
}

/// Fixture shared by the Fig. 5 experiments: one population and its raw
/// plaintext bids on the Area-3 map.
pub struct Fig5Fixture {
    /// The spectrum map.
    pub map: SpectrumMap,
    /// The bidder population.
    pub bidders: Vec<Bidder>,
    /// The plaintext bid table (ground truth, also the no-LPPA view).
    pub table: BidTable,
    /// The protocol configuration.
    pub config: LppaConfig,
}

impl Fig5Fixture {
    /// Builds the fixture: `n_bidders` users on `area` with `k` channels.
    pub fn new(area: &AreaProfile, k: usize, n_bidders: usize, seed: u64) -> Self {
        let map = SyntheticMapBuilder::new(area.clone()).channels(k).seed(seed).build();
        let model = BidModel::default();
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1));
        let bidders = generate_bidders(&map, n_bidders, &model, &mut rng);
        let table = BidTable::generate(&map, &bidders, &model, &mut rng);
        Self { map, bidders, table, config: LppaConfig::default() }
    }

    /// The `(location, raw bids)` pairs the private protocol consumes.
    pub fn raw_bids(&self) -> Vec<(Location, Vec<u32>)> {
        self.bidders.iter().map(|b| (b.location, self.table.row(b.id).to_vec())).collect()
    }
}

/// Fig. 5 (a)–(d): privacy metrics of the attribution-BCM attack against
/// LPPA at each `(replace_prob, top fraction)`, plus the no-LPPA BCM and
/// BPM baselines.
pub fn lppa_privacy_sweep(
    fixture: &Fig5Fixture,
    replace_probs: &[f64],
    fractions: &[f64],
    seed: u64,
) -> Vec<PrivacyRow> {
    let mut rows = Vec::new();

    // Baselines without LPPA: plain BCM and BPM (paper uses 50 %).
    for (variant, report) in
        attack_population(&fixture.map, &fixture.bidders, &fixture.table, &[0.5])
    {
        rows.push(PrivacyRow { replace_prob: 0.0, variant: format!("no-LPPA {variant}"), report });
    }

    let raw = fixture.raw_bids();
    for &replace_prob in replace_probs {
        let mut rng = StdRng::seed_from_u64(seed ^ (replace_prob * 1e6) as u64);
        let ttp =
            Ttp::new(fixture.map.channel_count(), fixture.config, &mut rng).expect("valid config");
        let policy = experiment_policy(replace_prob, fixture.config.bid_max());
        let submissions: Vec<_> = raw
            .iter()
            .map(|(loc, bids)| {
                lppa::protocol::SuSubmission::build(*loc, bids, &ttp, &policy, &mut rng)
                    .expect("submission builds")
            })
            .collect();
        let table = lppa::psd::table::MaskedBidTable::collect(
            submissions.iter().map(|s| s.bids.clone()).collect(),
        )
        .expect("consistent submissions");
        let rankings = ChannelRankings::new(table.channel_rankings(), fixture.bidders.len());

        for &fraction in fractions {
            let attributed = rankings.attribute_top(fraction);
            let mut agg = AggregateReport::new();
            for b in &fixture.bidders {
                let possible = bcm_attack(&fixture.map, &attributed[b.id.0]);
                agg.push(PrivacyReport::evaluate(&possible, b.cell));
            }
            rows.push(PrivacyRow {
                replace_prob,
                variant: format!("LPPA-BCM top {:.0}%", fraction * 100.0),
                report: agg,
            });
        }
    }
    rows
}

/// One row of the Fig. 5 (e)(f) performance sweeps.
#[derive(Clone, Debug)]
pub struct PerformanceRow {
    /// Auctioneer model label ("iterative" matches the paper's curves;
    /// "oblivious" is the single-shot-charging ablation).
    pub model: &'static str,
    /// Zero-replace probability `1 − p_0`.
    pub replace_prob: f64,
    /// Number of bidders.
    pub n_bidders: usize,
    /// Private-auction revenue divided by plaintext revenue.
    pub revenue_ratio: f64,
    /// Private-auction satisfaction divided by plaintext satisfaction.
    pub satisfaction_ratio: f64,
    /// Number of TTP-invalidated (disguised-zero) grants.
    pub invalid_grants: usize,
}

/// Fig. 5 (e)(f): auction-performance cost of LPPA as the zero-replace
/// probability grows, for several population sizes. Each point averages
/// `reps` independent auction rounds (fresh keys, disguises and channel
/// orders) against an equally-averaged plaintext baseline on the same
/// bid table.
pub fn lppa_performance_sweep(
    area: &AreaProfile,
    k: usize,
    n_bidders_list: &[usize],
    replace_probs: &[f64],
    reps: usize,
    seed: u64,
) -> Vec<PerformanceRow> {
    assert!(reps > 0, "at least one repetition required");
    let mut rows = Vec::new();
    for &n in n_bidders_list {
        let fixture = Fig5Fixture::new(area, k, n, seed ^ (n as u64) << 20);
        let raw = fixture.raw_bids();

        // Plaintext baseline on the identical table, averaged over the
        // same number of allocation-order draws.
        let (mut base_revenue, mut base_satisfaction) = (0.0f64, 0.0f64);
        for rep in 0..reps {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xbead ^ rep as u64);
            let plain = run_plain_auction_with_table(
                &fixture.bidders,
                fixture.table.clone(),
                &AuctionConfig {
                    n_bidders: n,
                    lambda: fixture.config.lambda,
                    bid_model: BidModel::default(),
                },
                &mut rng,
            );
            base_revenue += plain.outcome.revenue() as f64;
            base_satisfaction += plain.outcome.satisfaction();
        }
        let base_revenue = (base_revenue / reps as f64).max(1.0);
        let base_satisfaction = (base_satisfaction / reps as f64).max(1e-9);

        for &replace_prob in replace_probs {
            for (label, model) in [
                ("iterative", AuctioneerModel::IterativeCharging),
                ("oblivious", AuctioneerModel::Oblivious),
            ] {
                let (mut revenue, mut satisfaction, mut invalid) = (0.0f64, 0.0f64, 0usize);
                for rep in 0..reps {
                    let mut rng = StdRng::seed_from_u64(
                        seed ^ (replace_prob * 1e6) as u64 ^ n as u64 ^ (rep as u64) << 40,
                    );
                    let ttp = Ttp::new(k, fixture.config, &mut rng).expect("valid config");
                    let policy = experiment_policy(replace_prob, fixture.config.bid_max());
                    let submissions = build_submissions(&raw, &ttp, &policy, &mut rng)
                        .expect("submissions build");
                    let result =
                        run_private_auction_with_model(&submissions, &ttp, model, &mut rng)
                            .expect("private auction runs");
                    revenue += result.outcome.revenue() as f64;
                    satisfaction += result.outcome.satisfaction();
                    invalid += result.invalid_grants.len();
                }
                rows.push(PerformanceRow {
                    model: label,
                    replace_prob,
                    n_bidders: n,
                    revenue_ratio: revenue / reps as f64 / base_revenue,
                    satisfaction_ratio: satisfaction / reps as f64 / base_satisfaction,
                    invalid_grants: invalid / reps,
                });
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use lppa_spectrum::geo::GridSpec;

    fn small_area_map_fixture() -> Fig5Fixture {
        // Shrink everything so the test suite stays fast.
        let area = AreaProfile::area3();
        let map = SyntheticMapBuilder::new(area)
            .grid(GridSpec::new(30, 30, 45.0))
            .channels(8)
            .seed(3)
            .build();
        let model = BidModel::default();
        let mut rng = StdRng::seed_from_u64(4);
        let bidders = generate_bidders(&map, 15, &model, &mut rng);
        let table = BidTable::generate(&map, &bidders, &model, &mut rng);
        Fig5Fixture { map, bidders, table, config: LppaConfig::default() }
    }

    #[test]
    fn attack_population_produces_one_row_per_variant() {
        let fixture = small_area_map_fixture();
        let rows = attack_population(&fixture.map, &fixture.bidders, &fixture.table, &[0.5, 0.25]);
        assert_eq!(rows.len(), 3); // BCM + 2 BPM fractions
        assert_eq!(rows[0].0, "BCM");
        // BPM aggregates cover the same victims as BCM.
        assert_eq!(rows[0].1.len(), rows[1].1.len());
    }

    #[test]
    fn privacy_sweep_has_expected_shape() {
        let fixture = small_area_map_fixture();
        let rows = lppa_privacy_sweep(&fixture, &[0.2, 0.8], &[0.5, 1.0], 9);
        // 2 baselines + 2 replace_probs × 2 fractions.
        assert_eq!(rows.len(), 2 + 4);
        // LPPA rows aggregate every bidder.
        for row in rows.iter().skip(2) {
            assert_eq!(row.report.len(), fixture.bidders.len());
        }
    }

    #[test]
    fn lppa_raises_failure_rate_over_plain_bcm() {
        // The defence's core effect, in miniature: heavy disguising makes
        // the attribution attack fail far more often than plain BCM.
        let fixture = small_area_map_fixture();
        let rows = lppa_privacy_sweep(&fixture, &[1.0], &[0.5], 11);
        let plain_bcm = rows.iter().find(|r| r.variant == "no-LPPA BCM").unwrap();
        let lppa = rows.iter().find(|r| r.variant.starts_with("LPPA")).unwrap();
        assert!(
            lppa.report.failure_rate() > plain_bcm.report.failure_rate(),
            "LPPA {} <= plain {}",
            lppa.report.failure_rate(),
            plain_bcm.report.failure_rate()
        );
    }

    #[test]
    fn performance_sweep_reports_ratios_in_unit_range() {
        let area = AreaProfile::area3();
        // Use a tiny synthetic area via the public API.
        let rows = {
            // Patch: build a small fixture manually to avoid 100×100 cost.
            let map = SyntheticMapBuilder::new(area.clone())
                .grid(GridSpec::new(25, 25, 18.0))
                .channels(6)
                .seed(7)
                .build();
            let model = BidModel::default();
            let mut rng = StdRng::seed_from_u64(8);
            let bidders = generate_bidders(&map, 12, &model, &mut rng);
            let table = BidTable::generate(&map, &bidders, &model, &mut rng);
            let fixture = Fig5Fixture { map, bidders, table, config: LppaConfig::default() };
            let raw = fixture.raw_bids();
            let mut out = Vec::new();
            for replace in [0.0f64, 1.0] {
                let mut rng = StdRng::seed_from_u64(10);
                let ttp = Ttp::new(6, fixture.config, &mut rng).unwrap();
                let policy = experiment_policy(replace, fixture.config.bid_max());
                let submissions = build_submissions(&raw, &ttp, &policy, &mut rng).unwrap();
                let result = run_private_auction_with_model(
                    &submissions,
                    &ttp,
                    AuctioneerModel::IterativeCharging,
                    &mut rng,
                )
                .unwrap();
                out.push((replace, result));
            }
            out
        };
        let (_, none) = &rows[0];
        let (_, full) = &rows[1];
        // Full disguising cannot beat no disguising in expectation on the
        // same table (allow equality for tiny fixtures).
        assert!(full.outcome.revenue() <= none.outcome.revenue());
        // Even without disguising an all-zero column may award a zero,
        // which the TTP invalidates — so invalid grants can exist at
        // replace = 0, but full disguising must produce at least as many.
        assert!(full.invalid_grants.len() >= none.invalid_grants.len());
    }
}
