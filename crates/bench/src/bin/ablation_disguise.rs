//! Ablation: how the shape of the zero-disguise distribution trades
//! privacy against auction performance.
//!
//! ```text
//! ablation_disguise [--quick]
//! ```
//!
//! The paper requires `p_1 ≥ … ≥ p_bmax` but leaves the decay free. This
//! sweep compares, at a fixed total replacement probability, a uniform
//! distribution (maximum privacy, per Theorem 3's best-protection case)
//! against geometric decays of varying steepness (cheaper, per the
//! paper's performance advice). For each policy it reports the
//! attribution-BCM failure rate (privacy) and the revenue/satisfaction
//! ratios (performance).

use lppa::protocol::{
    build_submissions, run_private_auction_with_model, AuctioneerModel, SuSubmission,
};
use lppa::psd::table::MaskedBidTable;
use lppa::ttp::Ttp;
use lppa::zero_replace::ZeroReplacePolicy;
use lppa::LppaConfig;
use lppa_attack::adversary::ChannelRankings;
use lppa_attack::bcm::bcm_attack;
use lppa_attack::metrics::{AggregateReport, PrivacyReport};
use lppa_auction::bidder::{generate_bidders, BidModel, BidTable};
use lppa_auction::runner::{run_plain_auction_with_table, AuctionConfig};
use lppa_bench::csv;
use lppa_rng::rngs::StdRng;
use lppa_rng::SeedableRng;
use lppa_spectrum::area::AreaProfile;
use lppa_spectrum::synth::SyntheticMapBuilder;

const SEED: u64 = 0xab1a;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (k, n, reps) = if quick { (16, 30, 2) } else { (64, 80, 4) };
    let replace = 0.5;

    let config = LppaConfig::default();
    let map = SyntheticMapBuilder::new(AreaProfile::area3()).channels(k).seed(SEED).build();
    let model = BidModel::default();
    let mut rng = StdRng::seed_from_u64(SEED ^ 1);
    let bidders = generate_bidders(&map, n, &model, &mut rng);
    let table = BidTable::generate(&map, &bidders, &model, &mut rng);
    let raw: Vec<_> = bidders.iter().map(|b| (b.location, table.row(b.id).to_vec())).collect();

    // Plaintext reference.
    let plain = run_plain_auction_with_table(
        &bidders,
        table.clone(),
        &AuctionConfig { n_bidders: n, lambda: config.lambda, bid_model: model },
        &mut StdRng::seed_from_u64(SEED ^ 2),
    );
    let base_revenue = plain.outcome.revenue().max(1) as f64;
    let base_satisfaction = plain.outcome.satisfaction().max(1e-9);

    let policies: Vec<(&str, ZeroReplacePolicy)> = vec![
        ("uniform", ZeroReplacePolicy::uniform(replace, config.bid_max())),
        ("geometric d=0.95", ZeroReplacePolicy::geometric(replace, 0.95, config.bid_max())),
        ("geometric d=0.85", ZeroReplacePolicy::geometric(replace, 0.85, config.bid_max())),
        ("geometric d=0.75", ZeroReplacePolicy::geometric(replace, 0.75, config.bid_max())),
        ("geometric d=0.60", ZeroReplacePolicy::geometric(replace, 0.60, config.bid_max())),
        ("never (no disguise)", ZeroReplacePolicy::never(config.bid_max())),
    ];

    csv::header(&[
        "policy",
        "attack_failure_rate",
        "mean_possible_cells",
        "revenue_ratio",
        "satisfaction_ratio",
        "invalid_grants_per_round",
    ]);
    for (name, policy) in policies {
        let (mut fail, mut cells, mut revenue, mut satisfaction, mut invalid) =
            (0.0f64, 0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for rep in 0..reps {
            let mut rng = StdRng::seed_from_u64(SEED ^ 0x100 ^ rep as u64);
            let ttp = Ttp::new(k, config, &mut rng).expect("valid config");

            // Privacy side: attribution-BCM at 50 %.
            let submissions: Vec<SuSubmission> = raw
                .iter()
                .map(|(loc, bids)| {
                    SuSubmission::build(*loc, bids, &ttp, &policy, &mut rng).unwrap()
                })
                .collect();
            let masked =
                MaskedBidTable::collect(submissions.iter().map(|s| s.bids.clone()).collect())
                    .unwrap();
            let rankings = ChannelRankings::new(masked.channel_rankings(), n);
            let attributed = rankings.attribute_top(0.5);
            let attack: AggregateReport = bidders
                .iter()
                .map(|b| PrivacyReport::evaluate(&bcm_attack(&map, &attributed[b.id.0]), b.cell))
                .collect();
            fail += attack.failure_rate();
            cells += attack.mean_possible_cells();

            // Performance side.
            let performance = build_submissions(&raw, &ttp, &policy, &mut rng).unwrap();
            let result = run_private_auction_with_model(
                &performance,
                &ttp,
                AuctioneerModel::IterativeCharging,
                &mut rng,
            )
            .unwrap();
            revenue += result.outcome.revenue() as f64 / base_revenue;
            satisfaction += result.outcome.satisfaction() / base_satisfaction;
            invalid += result.invalid_grants.len() as f64;
        }
        let r = reps as f64;
        println!(
            "{},{},{},{},{},{}",
            name,
            csv::f(fail / r),
            csv::f(cells / r),
            csv::f(revenue / r),
            csv::f(satisfaction / r),
            csv::f(invalid / r),
        );
    }
}
