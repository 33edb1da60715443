//! Multi-round tracking: why LPPA recommends mixing identifiers between
//! auctions (§V.C.3 of the paper).
//!
//! Run with: `cargo run --release --example multi_round`
//!
//! The same population participates in eight consecutive private
//! auctions. Winners and charges are public, so an attacker can harvest
//! each identifier's *won* channels — which are certainly available at
//! the winner's location — and intersect their availability regions.
//! With stable identifiers this quietly geo-locates frequent winners
//! despite all of PPBS's masking; with per-round pseudonyms the
//! accumulated history mixes different people's wins and collapses.

use lppa_rng::rngs::StdRng;
use lppa_rng::SeedableRng;
use lppa_suite::lppa::protocol::{
    build_submissions, run_private_auction_with_model, AuctioneerModel,
};
use lppa_suite::lppa::pseudonym::PseudonymPool;
use lppa_suite::lppa::ttp::Ttp;
use lppa_suite::lppa::zero_replace::ZeroReplacePolicy;
use lppa_suite::lppa::LppaConfig;
use lppa_suite::lppa_attack::metrics::PrivacyReport;
use lppa_suite::lppa_attack::multi_round::WinnerHistory;
use lppa_suite::lppa_auction::bidder::{generate_bidders, BidModel, BidTable, BidderId};
use lppa_suite::lppa_spectrum::area::AreaProfile;
use lppa_suite::lppa_spectrum::synth::SyntheticMapBuilder;

const ROUNDS: usize = 8;
const N: usize = 20;
const K: usize = 24;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let map = SyntheticMapBuilder::new(AreaProfile::area4()).channels(K).seed(3).build();
    let config = LppaConfig::default();
    let model = BidModel::default();

    for mix in [false, true] {
        let mut rng = StdRng::seed_from_u64(17);
        let bidders = generate_bidders(&map, N, &model, &mut rng);
        let mut history = WinnerHistory::new();

        for _ in 0..ROUNDS {
            let table = BidTable::generate(&map, &bidders, &model, &mut rng);
            let pool =
                if mix { PseudonymPool::assign(N, &mut rng) } else { PseudonymPool::identity(N) };
            let raw: Vec<_> = (0..N)
                .map(|wire| {
                    let true_id = pool.true_of(BidderId(wire));
                    (bidders[true_id.0].location, table.row(true_id).to_vec())
                })
                .collect();
            let ttp = Ttp::new(K, config, &mut rng)?;
            let policy = ZeroReplacePolicy::geometric(0.3, 0.75, config.bid_max());
            let submissions = build_submissions(&raw, &ttp, &policy, &mut rng)?;
            let model = AuctioneerModel::default();
            let result = run_private_auction_with_model(&submissions, &ttp, model, &mut rng)?;
            history.record_outcome(&result.outcome);
        }

        println!(
            "\n=== {} identifiers across {ROUNDS} rounds ===",
            if mix { "MIXED (fresh pseudonyms)" } else { "STABLE" }
        );
        let mut attacked = 0;
        let mut localized = 0;
        for wire in (0..N).map(BidderId) {
            let wins = history.won_channels(wire);
            if wins.len() < 2 {
                continue;
            }
            attacked += 1;
            let possible = history.bcm(&map, wire);
            // Against stable ids the wire id IS the bidder; against
            // mixed ids this comparison shows the attack firing blind.
            let report = PrivacyReport::evaluate(&possible, bidders[wire.0].cell);
            let hit = !report.failed && report.possible_cells < 2000;
            localized += usize::from(hit);
            if attacked <= 5 {
                println!(
                    "  id {wire}: {} wins -> {} possible cells, victim {}",
                    wins.len(),
                    report.possible_cells,
                    if report.failed { "ESCAPED" } else { "inside" },
                );
            }
        }
        println!("  history attack localized {localized} of {attacked} multi-win identifiers");
    }
    println!(
        "\nstable identifiers turn public winner lists into a location oracle;\nper-round pseudonyms (the paper's §V.C.3 countermeasure) break the linkage."
    );
    Ok(())
}
