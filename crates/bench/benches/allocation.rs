//! Benchmarks of the auctioneer-side work: masked comparisons, masked
//! winner selection, channel ranking, the bid table's tie classes,
//! conflict-graph construction, and the greedy allocation on plaintext
//! vs masked tables.

use lppa::ppbs::location::{build_conflict_graph, LocationSubmission};
use lppa::protocol::build_submissions;
use lppa::psd::table::MaskedBidTable;
use lppa::ttp::Ttp;
use lppa::zero_replace::ZeroReplacePolicy;
use lppa::AdvancedBidSubmission;
use lppa::LppaConfig;
use lppa_auction::allocation::{greedy_allocate, BidOracle};
use lppa_auction::bidder::{BidTable, BidderId, Location};
use lppa_auction::conflict::ConflictGraph;
use lppa_rng::bench::Bench;
use lppa_rng::rngs::StdRng;
use lppa_rng::{Rng, SeedableRng};
use lppa_spectrum::ChannelId;

fn build_masked_fixture(
    n: usize,
    k: usize,
    seed: u64,
) -> (MaskedBidTable, BidTable, ConflictGraph, Vec<LocationSubmission>) {
    let config = LppaConfig::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let ttp = Ttp::new(k, config, &mut rng).unwrap();
    let policy = ZeroReplacePolicy::geometric(0.3, 0.75, config.bid_max());
    let inputs: Vec<(Location, Vec<u32>)> = (0..n)
        .map(|_| {
            let loc = Location::new(rng.gen_range(0..=127), rng.gen_range(0..=127));
            let bids: Vec<u32> = (0..k)
                .map(|_| if rng.gen_bool(0.5) { 0 } else { rng.gen_range(1..=config.bid_max()) })
                .collect();
            (loc, bids)
        })
        .collect();
    // Fixture construction goes through the parallel batch path.
    let subs = build_submissions(&inputs, &ttp, &policy, &mut rng).unwrap();
    let locations: Vec<LocationSubmission> = subs.iter().map(|s| s.location.clone()).collect();
    let submissions = subs.into_iter().map(|s| s.bids).collect();
    let rows = inputs.into_iter().map(|(_, bids)| bids).collect();
    let masked = MaskedBidTable::collect_pruned(submissions).unwrap();
    let plain = BidTable::from_rows(rows);
    let conflicts = build_conflict_graph(&locations);
    (masked, plain, conflicts, locations)
}

fn bench_masked_comparison(b: &mut Bench) {
    let (masked, _, _, _) = build_masked_fixture(8, 2, 1);
    b.bench("allocation/masked_ge", || {
        masked.ge(ChannelId(0), BidderId(0), BidderId(1));
    });
}

fn bench_select_winner(b: &mut Bench) {
    for n in [10usize, 50, 100, 500] {
        let (masked, _, _, _) = build_masked_fixture(n, 1, 2);
        let candidates: Vec<BidderId> = (0..n).map(BidderId).collect();
        let mut rng = StdRng::seed_from_u64(3);
        b.bench(&format!("allocation/masked_select_winner/{n}"), || {
            masked.select_winner(ChannelId(0), &candidates, &mut rng);
        });
    }
}

fn bench_rank_channel(b: &mut Bench) {
    let (masked, _, _, _) = build_masked_fixture(100, 1, 4);
    b.bench("allocation/rank_channel_n100", || {
        masked.rank_channel(ChannelId(0));
    });
}

fn bench_table_collect(b: &mut Bench) {
    // The fleet area (1,000 bidders on 2 channels) and the wire129 area
    // (25 bidders on 129 channels), collected over borrowed submissions
    // as the session round does.
    for (n, k) in [(1000usize, 2usize), (25, 129)] {
        let (masked, _, _, _) = build_masked_fixture(n, k, 8);
        b.bench(&format!("allocation/masked_table_collect_n{n}_k{k}"), || {
            let borrowed: Vec<&AdvancedBidSubmission> = masked.submissions().iter().collect();
            std::hint::black_box(MaskedBidTable::collect_pruned(borrowed).unwrap());
        });
    }
}

fn bench_conflict_graph(b: &mut Bench) {
    // 1,000 bidders is the fleet workload's area.
    for n in [100usize, 500, 1000] {
        let (_, _, _, locations) = build_masked_fixture(n, 1, 5);
        b.bench(&format!("allocation/masked_conflict_graph_n{n}"), || {
            build_conflict_graph(&locations);
        });
    }
}

fn bench_greedy(b: &mut Bench) {
    let (masked, plain, conflicts, _) = build_masked_fixture(50, 16, 6);
    let mut rng = StdRng::seed_from_u64(7);
    b.bench("allocation/greedy_plaintext_n50_k16", || {
        greedy_allocate(&plain, &conflicts, &mut rng);
    });
    b.bench("allocation/greedy_masked_n50_k16", || {
        greedy_allocate(&masked, &conflicts, &mut rng);
    });
}

fn main() {
    let mut b = Bench::new("allocation");
    lppa_bench::machine_context(&mut b);
    bench_masked_comparison(&mut b);
    bench_select_winner(&mut b);
    bench_rank_channel(&mut b);
    bench_table_collect(&mut b);
    bench_conflict_graph(&mut b);
    bench_greedy(&mut b);
    b.finish();
}
