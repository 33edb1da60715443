//! Per-masking-backend leakage regression tests.
//!
//! PR 9's backend abstraction changes *how* the auctioneer evaluates
//! masked comparisons, and therefore exactly what ranking information
//! each backend leaks to a curious auctioneer. This file pins, per
//! [`BackendKind`], the BCM attack accuracy over the channel rankings
//! that backend exposes — the same pinned-seed fixture and committed
//! thresholds discipline as `regression.rs`:
//!
//! * `hmac` and `ledger` answer comparisons exactly, so they leak
//!   exactly what the default masked table leaks — their thresholds are
//!   the `regression.rs` advanced-scheme ceiling;
//! * `bloom` answers with one-sided false positives, which can only
//!   *merge* tie classes (a spurious `a ≥ b` collapses adjacent ranks),
//!   so its ranking is a coarsening of the exact one — the attack must
//!   not get *stronger* through a Bloom deployment.
//!
//! The thresholds are regression fences recorded from the pinned
//! fixture, not claims about the exact numbers.

use lppa::backend::BackendKind;
use lppa::protocol::{AuctioneerModel, SuSubmission};
use lppa::psd::table::MaskedBidTable;
use lppa::ttp::Ttp;
use lppa::zero_replace::ZeroReplacePolicy;
use lppa::LppaConfig;
use lppa_attack::adversary::ChannelRankings;
use lppa_attack::bcm::bcm_attack;
use lppa_attack::metrics::{AggregateReport, PrivacyReport};
use lppa_auction::bidder::{generate_bidders, BidModel, BidTable, Bidder};
use lppa_rng::rngs::StdRng;
use lppa_rng::SeedableRng;
use lppa_spectrum::area::AreaProfile;
use lppa_spectrum::geo::GridSpec;
use lppa_spectrum::synth::SyntheticMapBuilder;
use lppa_spectrum::SpectrumMap;

/// Pinned master seed, shared with `regression.rs` so the fixtures
/// coincide. Changing it invalidates every recorded threshold below.
const SEED: u64 = 0x5eed_4b1d;

fn fixture() -> (SpectrumMap, Vec<Bidder>, BidTable) {
    let map = SyntheticMapBuilder::new(AreaProfile::area3())
        .grid(GridSpec::new(40, 40, 60.0))
        .channels(16)
        .seed(SEED)
        .build();
    let model = BidModel::default();
    let mut rng = StdRng::seed_from_u64(SEED ^ 1);
    let bidders = generate_bidders(&map, 25, &model, &mut rng);
    let table = BidTable::generate(&map, &bidders, &model, &mut rng);
    (map, bidders, table)
}

fn config() -> LppaConfig {
    LppaConfig { loc_bits: 6, ..LppaConfig::default() }
}

fn victims<'a>(bidders: &'a [Bidder], table: &BidTable) -> Vec<&'a Bidder> {
    bidders.iter().filter(|b| table.positive_channels(b.id).len() >= 3).collect()
}

/// The advanced-scheme submissions every backend observes (heavy zero
/// disguising, same derived seed as `regression.rs`'s advanced test).
fn submissions(bidders: &[Bidder], table: &BidTable) -> (Ttp, Vec<SuSubmission>) {
    let config = config();
    let mut rng = StdRng::seed_from_u64(SEED ^ 2);
    let ttp = Ttp::new(16, config, &mut rng).unwrap();
    let policy = ZeroReplacePolicy::uniform(0.9, config.bid_max());
    let subs = bidders
        .iter()
        .map(|b| SuSubmission::build(b.location, table.row(b.id), &ttp, &policy, &mut rng).unwrap())
        .collect();
    (ttp, subs)
}

/// BCM attack accuracy over the channel rankings `kind` exposes.
fn attack_report(kind: BackendKind) -> AggregateReport {
    let (map, bidders, table) = fixture();
    let victims = victims(&bidders, &table);
    let (_ttp, subs) = submissions(&bidders, &table);
    let backend_table = MaskedBidTable::collect_with(
        subs.iter().map(|s| s.bids.clone()).collect(),
        kind,
        AuctioneerModel::Oblivious,
    )
    .unwrap();
    let rankings = ChannelRankings::new(backend_table.channel_rankings(), bidders.len());
    let attributed = rankings.attribute_top(0.5);
    let mut agg = AggregateReport::new();
    for b in &victims {
        agg.push(PrivacyReport::evaluate(&bcm_attack(&map, &attributed[b.id.0]), b.cell));
    }
    agg
}

#[test]
fn exact_backends_leak_exactly_what_the_masked_table_leaks() {
    let (_, bidders, table) = fixture();
    let (_ttp, subs) = submissions(&bidders, &table);
    let masked = MaskedBidTable::collect(subs.iter().map(|s| s.bids.clone()).collect()).unwrap();
    for kind in [BackendKind::Hmac, BackendKind::Ledger] {
        let backend_table = MaskedBidTable::collect_with(
            subs.iter().map(|s| s.bids.clone()).collect(),
            kind,
            AuctioneerModel::Oblivious,
        )
        .unwrap();
        assert_eq!(
            backend_table.channel_rankings(),
            masked.channel_rankings(),
            "{kind:?} must expose the identical observation surface"
        );
    }
}

#[test]
fn hmac_backend_attack_accuracy_stays_below_threshold() {
    let agg = attack_report(BackendKind::Hmac);
    // Committed ceiling, identical to the regression.rs advanced-scheme
    // fence (same fixture, same observation surface).
    assert!(
        agg.success_rate() < 0.35,
        "hmac-backend attack got stronger: success rate {:.3} (must stay < 0.35)",
        agg.success_rate()
    );
    assert!(
        agg.mean_incorrectness_km() > 0.5,
        "hmac-backend incorrectness regressed: {:.3} km (must stay > 0.5)",
        agg.mean_incorrectness_km()
    );
}

#[test]
fn ledger_backend_attack_accuracy_stays_below_threshold() {
    let agg = attack_report(BackendKind::Ledger);
    // The audit chain stores only commitments (digests of what the
    // auctioneer already sees), so the leakage ceiling is the hmac one.
    assert!(
        agg.success_rate() < 0.35,
        "ledger-backend attack got stronger: success rate {:.3} (must stay < 0.35)",
        agg.success_rate()
    );
    assert!(
        agg.mean_incorrectness_km() > 0.5,
        "ledger-backend incorrectness regressed: {:.3} km (must stay > 0.5)",
        agg.mean_incorrectness_km()
    );
}

#[test]
fn bloom_backend_attack_accuracy_stays_below_threshold() {
    let bloom = attack_report(BackendKind::Bloom);
    let exact = attack_report(BackendKind::Hmac);
    // Committed ceiling for the default Bloom parameters (16 bits/tag,
    // 8 hashes): one-sided false positives can only merge rank classes,
    // so the attacker's view is a coarsening of the exact ranking and
    // the pinned accuracy must not exceed the exact backend's fence.
    assert!(
        bloom.success_rate() < 0.35,
        "bloom-backend attack got stronger: success rate {:.3} (must stay < 0.35)",
        bloom.success_rate()
    );
    assert!(
        bloom.mean_incorrectness_km() > 0.5,
        "bloom-backend incorrectness regressed: {:.3} km (must stay > 0.5)",
        bloom.mean_incorrectness_km()
    );
    assert!(
        bloom.success_rate() <= exact.success_rate() + 0.05,
        "bloom deployment must not help the attacker: bloom {:.3} vs exact {:.3}",
        bloom.success_rate(),
        exact.success_rate()
    );
}
