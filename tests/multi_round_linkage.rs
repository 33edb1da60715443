//! Cross-crate integration: repeated participation (§V.C.3) — a stable
//! identifier lets the attacker accumulate wins across rounds and run a
//! sound winner-history BCM; pseudonym mixing poisons the accumulated
//! history with channels won by *different* people.

use std::collections::HashMap;

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
use lppa_suite::lppa_auction::bidder::{generate_bidders, BidModel, BidTable, Bidder, BidderId};
use lppa_suite::lppa_oracle::fixture::MapFixture;
use lppa_suite::lppa_spectrum::area::AreaProfile;
use lppa_suite::lppa_spectrum::SpectrumMap;

const ROUNDS: usize = 6;
const N: usize = 12;
const K: usize = 12;

struct MultiRound {
    /// Attacker's view: wins per *wire* identifier.
    history: WinnerHistory,
    /// Ground truth: which true bidders stand behind each wire id's
    /// recorded wins.
    contributors: HashMap<BidderId, Vec<BidderId>>,
    bidders: Vec<Bidder>,
    map: SpectrumMap,
}

fn run_rounds(mix: bool, seed: u64) -> MultiRound {
    let map = MapFixture::forty_by_forty(AreaProfile::area4(), K, seed).map;
    let config = LppaConfig { loc_bits: 6, ..LppaConfig::default() };
    let model = BidModel::default();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xaaaa);
    let bidders = generate_bidders(&map, N, &model, &mut rng);

    let mut history = WinnerHistory::new();
    let mut contributors: HashMap<BidderId, Vec<BidderId>> = HashMap::new();
    for _ in 0..ROUNDS {
        // Fresh bids each round (new valuation noise), same positions.
        let table = BidTable::generate(&map, &bidders, &model, &mut rng);
        let pool =
            if mix { PseudonymPool::assign(N, &mut rng) } else { PseudonymPool::identity(N) };
        let raw: Vec<_> = (0..N)
            .map(|wire| {
                let true_id = pool.true_of(BidderId(wire));
                (bidders[true_id.0].location, table.row(true_id).to_vec())
            })
            .collect();
        let ttp = Ttp::new(K, config, &mut rng).unwrap();
        let policy = ZeroReplacePolicy::geometric(0.3, 0.75, config.bid_max());
        let submissions = build_submissions(&raw, &ttp, &policy, &mut rng).unwrap();
        let model = AuctioneerModel::default();
        let result = run_private_auction_with_model(&submissions, &ttp, model, &mut rng).unwrap();
        for a in result.outcome.assignments() {
            history.record(a.bidder, a.channel);
            contributors.entry(a.bidder).or_default().push(pool.true_of(a.bidder));
        }
    }
    MultiRound { history, contributors, bidders, map }
}

/// Fraction of multi-win wire identifiers whose winner-history BCM still
/// contains the true cell of *every* contributor — 1.0 means the attack
/// is sound, low values mean the accumulated history is poisoned.
fn soundness(run: &MultiRound) -> (f64, usize) {
    let mut sound = 0usize;
    let mut considered = 0usize;
    for wire in (0..N).map(BidderId) {
        if run.history.won_channels(wire).len() < 2 {
            continue;
        }
        considered += 1;
        let possible = run.history.bcm(&run.map, wire);
        let all_inside =
            run.contributors[&wire].iter().all(|b| possible.contains(run.bidders[b.0].cell));
        sound += usize::from(all_inside);
    }
    (if considered == 0 { 1.0 } else { sound as f64 / considered as f64 }, considered)
}

#[test]
fn stable_ids_yield_sound_history_attacks() {
    let run = run_rounds(false, 5);
    let (sound, considered) = soundness(&run);
    assert!(considered >= 3, "fixture produced too few multi-win bidders: {considered}");
    // Stable ids: every accumulated win truly belongs to that bidder, so
    // the history BCM is perfectly sound.
    assert_eq!(sound, 1.0, "stable-id history attack should never fail");
}

#[test]
fn pseudonym_mixing_poisons_history_attacks() {
    // Aggregate over several populations to keep the check robust.
    let mut stable_sound = 0.0;
    let mut mixed_sound = 0.0;
    let mut samples = 0.0;
    for seed in [5u64, 6, 7] {
        let stable = run_rounds(false, seed);
        let mixed = run_rounds(true, seed);
        let (s, sc) = soundness(&stable);
        let (m, mc) = soundness(&mixed);
        if sc == 0 || mc == 0 {
            continue;
        }
        stable_sound += s;
        mixed_sound += m;
        samples += 1.0;
    }
    assert!(samples > 0.0);
    assert!(
        mixed_sound / samples < stable_sound / samples,
        "mixing should break history soundness: mixed {mixed_sound} vs stable {stable_sound}"
    );
}

#[test]
fn winner_history_bcm_localizes_stable_victims() {
    let run = run_rounds(false, 9);
    let mut checked = 0;
    for b in &run.bidders {
        let wins = run.history.won_channels(b.id);
        if wins.len() < 2 {
            continue;
        }
        checked += 1;
        let possible = run.history.bcm(&run.map, b.id);
        let report = PrivacyReport::evaluate(&possible, b.cell);
        assert!(!report.failed, "{}: won channels must be available at home", b.id);
        assert!(report.possible_cells < run.map.grid().cell_count());
    }
    assert!(checked > 0, "fixture produced no multi-win bidders");
}
