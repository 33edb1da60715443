//! End-to-end benchmarks: a complete LPPA auction round (submissions,
//! conflict graph, masked allocation, TTP charging) vs the plaintext
//! baseline on the same bids, plus the attack pipelines of Fig. 4.

use lppa::protocol::{build_submissions, run_private_auction_with_model, AuctioneerModel};
use lppa::ttp::Ttp;
use lppa::zero_replace::ZeroReplacePolicy;
use lppa::LppaConfig;
use lppa_attack::adversary::{bcm_on_plain_bids, bpm_on_plain_bids};
use lppa_attack::bpm::BpmConfig;
use lppa_auction::bidder::{generate_bidders, BidModel, BidTable};
use lppa_auction::runner::{run_plain_auction_with_table, AuctionConfig};
use lppa_rng::bench::Bench;
use lppa_rng::rngs::StdRng;
use lppa_rng::SeedableRng;
use lppa_spectrum::area::AreaProfile;
use lppa_spectrum::synth::SyntheticMapBuilder;

fn bench_private_auction(b: &mut Bench) {
    let config = LppaConfig::default();
    for (n, k) in [(20usize, 8usize), (50, 16)] {
        let map = SyntheticMapBuilder::new(AreaProfile::area3()).channels(k).seed(9).build();
        let model = BidModel::default();
        let mut rng = StdRng::seed_from_u64(10);
        let bidders = generate_bidders(&map, n, &model, &mut rng);
        let table = BidTable::generate(&map, &bidders, &model, &mut rng);
        let raw: Vec<_> =
            bidders.iter().map(|bd| (bd.location, table.row(bd.id).to_vec())).collect();
        let policy = ZeroReplacePolicy::geometric(0.3, 0.75, config.bid_max());
        b.bench(&format!("end_to_end/private_auction/n{n}_k{k}"), || {
            let mut rng = StdRng::seed_from_u64(11);
            let ttp = Ttp::new(k, config, &mut rng).unwrap();
            let submissions = build_submissions(&raw, &ttp, &policy, &mut rng).unwrap();
            run_private_auction_with_model(
                &submissions,
                &ttp,
                AuctioneerModel::default(),
                &mut rng,
            )
            .unwrap();
        });
        b.bench(&format!("end_to_end/private_auction/plaintext_n{n}_k{k}"), || {
            let mut rng = StdRng::seed_from_u64(11);
            run_plain_auction_with_table(
                &bidders,
                table.clone(),
                &AuctionConfig { n_bidders: n, lambda: config.lambda, bid_model: model },
                &mut rng,
            );
        });
    }
}

fn bench_submission_collection(b: &mut Bench) {
    // The bidder-side cost of one full auction round's submissions.
    let config = LppaConfig::default();
    let k = 32;
    let map = SyntheticMapBuilder::new(AreaProfile::area3()).channels(k).seed(12).build();
    let model = BidModel::default();
    let mut rng = StdRng::seed_from_u64(13);
    let bidders = generate_bidders(&map, 20, &model, &mut rng);
    let table = BidTable::generate(&map, &bidders, &model, &mut rng);
    let ttp = Ttp::new(k, config, &mut rng).unwrap();
    let policy = ZeroReplacePolicy::geometric(0.3, 0.75, config.bid_max());
    let inputs: Vec<_> =
        bidders.iter().map(|bd| (bd.location, table.row(bd.id).to_vec())).collect();
    b.bench("end_to_end/submissions_20x32/build_all", || {
        // The batch path fans out over the lppa_par pool (LPPA_THREADS).
        let subs = build_submissions(&inputs, &ttp, &policy, &mut rng).unwrap();
        std::hint::black_box(subs);
    });
}

fn bench_attacks(b: &mut Bench) {
    let map = SyntheticMapBuilder::new(AreaProfile::area4()).channels(64).seed(14).build();
    let model = BidModel::default();
    let mut rng = StdRng::seed_from_u64(15);
    let bidders = generate_bidders(&map, 20, &model, &mut rng);
    let table = BidTable::generate(&map, &bidders, &model, &mut rng);
    let victim = bidders.iter().max_by_key(|bd| table.positive_channels(bd.id).len()).unwrap();
    b.bench("end_to_end/bcm_attack_k64", || {
        bcm_on_plain_bids(&map, &table, victim.id);
    });
    b.bench("end_to_end/bpm_attack_k64", || {
        bpm_on_plain_bids(&map, &table, victim.id, &BpmConfig::fraction(0.5));
    });
}

fn main() {
    let mut b = Bench::new("end_to_end");
    lppa_bench::machine_context(&mut b);
    bench_private_auction(&mut b);
    bench_submission_collection(&mut b);
    bench_attacks(&mut b);
    b.finish();
}
