//! Cross-crate integration: a full LPPA round on a synthetic spectrum
//! map, checked against the plaintext baseline on identical bids.

use lppa_rng::rngs::StdRng;
use lppa_rng::SeedableRng;
use lppa_suite::lppa::protocol::{
    build_submissions, run_private_auction_with_model, AuctioneerModel,
};
use lppa_suite::lppa::ttp::Ttp;
use lppa_suite::lppa::zero_replace::ZeroReplacePolicy;
use lppa_suite::lppa::LppaConfig;
use lppa_suite::lppa_auction::bidder::{BidModel, BidTable};
use lppa_suite::lppa_auction::conflict::ConflictGraph;
use lppa_suite::lppa_auction::runner::{run_plain_auction_with_table, AuctionConfig};
use lppa_suite::lppa_oracle::fixture::{raw_bids, MapFixture};
use lppa_suite::lppa_spectrum::area::AreaProfile;

struct Fixture {
    bidders: Vec<lppa_suite::lppa_auction::bidder::Bidder>,
    table: BidTable,
    config: LppaConfig,
    k: usize,
}

fn fixture(n: usize, k: usize, seed: u64) -> Fixture {
    let fx = MapFixture::forty_by_forty(AreaProfile::area3(), k, seed);
    let (bidders, table) =
        fx.population(n, &BidModel::default(), &mut StdRng::seed_from_u64(seed ^ 1));
    // 40×40 grid: 6-bit coordinates suffice.
    let config = LppaConfig { loc_bits: 6, ..LppaConfig::default() };
    Fixture { bidders, table, config, k }
}

fn run_private(
    fx: &Fixture,
    replace: f64,
    model: AuctioneerModel,
    seed: u64,
) -> lppa_suite::lppa::protocol::PrivateAuctionResult {
    let raw = raw_bids(&fx.bidders, &fx.table);
    let mut rng = StdRng::seed_from_u64(seed);
    let ttp = Ttp::new(fx.k, fx.config, &mut rng).unwrap();
    let policy = ZeroReplacePolicy::geometric(replace, 0.75, fx.config.bid_max());
    let submissions = build_submissions(&raw, &ttp, &policy, &mut rng).unwrap();
    run_private_auction_with_model(&submissions, &ttp, model, &mut rng).unwrap()
}

#[test]
fn masked_conflict_graph_equals_plaintext_graph() {
    let fx = fixture(25, 6, 11);
    let result = run_private(&fx, 0.3, AuctioneerModel::IterativeCharging, 2);
    let locations: Vec<_> = fx.bidders.iter().map(|b| b.location).collect();
    let plain = ConflictGraph::from_locations(&locations, fx.config.lambda);
    assert_eq!(result.conflicts, plain);
}

#[test]
fn private_assignments_charge_true_first_prices() {
    let fx = fixture(25, 6, 12);
    let result = run_private(&fx, 0.5, AuctioneerModel::IterativeCharging, 3);
    for a in result.outcome.assignments() {
        assert_eq!(a.price, fx.table.bid(a.bidder, a.channel), "{a:?}");
        assert!(a.price > 0);
    }
}

#[test]
fn private_assignments_respect_interference() {
    let fx = fixture(30, 6, 13);
    let result = run_private(&fx, 0.5, AuctioneerModel::IterativeCharging, 4);
    for ch in 0..fx.k {
        let holders: Vec<_> = result
            .outcome
            .assignments()
            .iter()
            .filter(|a| a.channel.0 == ch)
            .map(|a| a.bidder)
            .collect();
        assert!(result.conflicts.is_independent(&holders), "channel {ch}");
    }
}

#[test]
fn no_bidder_wins_more_than_one_channel() {
    let fx = fixture(30, 8, 14);
    let result = run_private(&fx, 0.8, AuctioneerModel::Oblivious, 5);
    let mut winners: Vec<_> = result.grants.iter().map(|g| g.bidder).collect();
    winners.sort();
    winners.dedup();
    assert_eq!(winners.len(), result.grants.len());
}

#[test]
fn pruned_private_auction_without_disguises_matches_plaintext_revenue_closely() {
    // With no disguising, the pruned masked table holds exactly the
    // plaintext entries; revenue differs only through allocation-order
    // randomness.
    let fx = fixture(20, 6, 15);
    let (mut private_total, mut plain_total) = (0u64, 0u64);
    for seed in 0..6 {
        let result = run_private(&fx, 0.0, AuctioneerModel::IterativeCharging, seed);
        assert!(result.invalid_grants.is_empty(), "no disguises, no invalid grants");
        private_total += result.outcome.revenue();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xff);
        let plain = run_plain_auction_with_table(
            &fx.bidders,
            fx.table.clone(),
            &AuctionConfig {
                n_bidders: fx.bidders.len(),
                lambda: fx.config.lambda,
                bid_model: BidModel::default(),
            },
            &mut rng,
        );
        plain_total += plain.outcome.revenue();
    }
    let ratio = private_total as f64 / plain_total.max(1) as f64;
    assert!(
        (0.8..=1.25).contains(&ratio),
        "undisguised private auction diverges from plaintext: ratio {ratio}"
    );
}

#[test]
fn oblivious_model_wastes_at_least_as_much_as_iterative() {
    let fx = fixture(25, 5, 16);
    for seed in 0..4 {
        let oblivious = run_private(&fx, 0.5, AuctioneerModel::Oblivious, seed);
        let iterative = run_private(&fx, 0.5, AuctioneerModel::IterativeCharging, seed);
        assert!(
            oblivious.invalid_grants.len() >= iterative.invalid_grants.len(),
            "seed {seed}: oblivious {} < iterative {}",
            oblivious.invalid_grants.len(),
            iterative.invalid_grants.len()
        );
    }
}

#[test]
fn results_are_deterministic_under_seed() {
    let fx = fixture(20, 5, 17);
    let a = run_private(&fx, 0.4, AuctioneerModel::IterativeCharging, 9);
    let b = run_private(&fx, 0.4, AuctioneerModel::IterativeCharging, 9);
    assert_eq!(a.outcome, b.outcome);
    assert_eq!(a.grants, b.grants);
    assert_eq!(a.invalid_grants, b.invalid_grants);
}
