//! Privacy/performance tradeoff: how much auction do you pay for how
//! much privacy?
//!
//! Run with: `cargo run --release --example privacy_tradeoff`
//!
//! Sweeps the zero-replace probability `1 − p_0` and reports, side by
//! side, the attacker's failure rate (privacy, higher is better) and the
//! auction's revenue/satisfaction relative to a non-private auction on
//! the same bids (performance, higher is better) — the tradeoff each
//! bidder tunes for itself in the LPPA design.

use lppa_rng::rngs::StdRng;
use lppa_rng::SeedableRng;
use lppa_suite::lppa::protocol::{
    build_submissions, run_private_auction_with_model, AuctioneerModel, SuSubmission,
};
use lppa_suite::lppa::psd::table::MaskedBidTable;
use lppa_suite::lppa::ttp::Ttp;
use lppa_suite::lppa::zero_replace::ZeroReplacePolicy;
use lppa_suite::lppa::LppaConfig;
use lppa_suite::lppa_attack::adversary::ChannelRankings;
use lppa_suite::lppa_attack::bcm::bcm_attack;
use lppa_suite::lppa_attack::metrics::{AggregateReport, PrivacyReport};
use lppa_suite::lppa_auction::bidder::{generate_bidders, BidModel, BidTable};
use lppa_suite::lppa_auction::runner::{run_plain_auction_with_table, AuctionConfig};
use lppa_suite::lppa_spectrum::area::AreaProfile;
use lppa_suite::lppa_spectrum::synth::SyntheticMapBuilder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let k = 32;
    let n = 40;
    let config = LppaConfig::default();
    let map = SyntheticMapBuilder::new(AreaProfile::area3()).channels(k).seed(5).build();

    let model = BidModel::default();
    let mut rng = StdRng::seed_from_u64(11);
    let bidders = generate_bidders(&map, n, &model, &mut rng);
    let table = BidTable::generate(&map, &bidders, &model, &mut rng);
    let raw: Vec<_> = bidders.iter().map(|b| (b.location, table.row(b.id).to_vec())).collect();

    // Non-private reference on the identical bids.
    let plain = run_plain_auction_with_table(
        &bidders,
        table.clone(),
        &AuctionConfig { n_bidders: n, lambda: config.lambda, bid_model: model },
        &mut rng,
    );
    println!(
        "plaintext auction: revenue {}, satisfaction {:.0}%  (and the auctioneer can geo-locate everyone)\n",
        plain.outcome.revenue(),
        plain.outcome.satisfaction() * 100.0,
    );

    println!(
        "{:>9} | {:>14} | {:>13} | {:>12} | {:>12}",
        "1-p0", "attack failure", "possible cells", "revenue", "satisfaction"
    );
    for replace in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0] {
        let policy = ZeroReplacePolicy::geometric(replace, 0.75, config.bid_max());
        let ttp = Ttp::new(k, config, &mut rng)?;

        // What the attacker achieves against the masked table: attribute
        // each channel to the top half of its (masked) ranking, then BCM.
        let submissions: Vec<SuSubmission> = raw
            .iter()
            .map(|(loc, bids)| SuSubmission::build(*loc, bids, &ttp, &policy, &mut rng))
            .collect::<Result<_, _>>()?;
        let masked = MaskedBidTable::collect(submissions.iter().map(|s| s.bids.clone()).collect())?;
        let rankings = ChannelRankings::new(masked.channel_rankings(), n);
        let attributed = rankings.attribute_top(0.5);
        let attack: AggregateReport = bidders
            .iter()
            .map(|b| PrivacyReport::evaluate(&bcm_attack(&map, &attributed[b.id.0]), b.cell))
            .collect();

        // What the auction still delivers.
        let performance = build_submissions(&raw, &ttp, &policy, &mut rng)?;
        let result = run_private_auction_with_model(
            &performance,
            &ttp,
            AuctioneerModel::IterativeCharging,
            &mut rng,
        )?;

        println!(
            "{:>9.1} | {:>13.0}% | {:>14.0} | {:>11.0}% | {:>11.0}%",
            replace,
            attack.failure_rate() * 100.0,
            attack.mean_possible_cells(),
            result.outcome.revenue() as f64 / plain.outcome.revenue().max(1) as f64 * 100.0,
            result.outcome.satisfaction() / plain.outcome.satisfaction().max(1e-9) * 100.0,
        );
    }
    println!("\nhigher failure-rate = better privacy; the last two columns are the price paid.");
    Ok(())
}
