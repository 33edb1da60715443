//! Benchmarks of the bidder-side work: building masked location and bid
//! submissions, the per-auction cost Theorem 4 accounts for, and the
//! codec a submission crosses on its way to the auctioneer (checksum,
//! frame encode, decode and materialize).

use lppa::ppbs::bid::AdvancedBidSubmission;
use lppa::ppbs::location::LocationSubmission;
use lppa::protocol::SuSubmission;
use lppa::ttp::Ttp;
use lppa::wire::decode_submission;
use lppa::zero_replace::ZeroReplacePolicy;
use lppa::LppaConfig;
use lppa_auction::bidder::Location;
use lppa_rng::bench::Bench;
use lppa_rng::rngs::StdRng;
use lppa_rng::{Rng, SeedableRng};
use lppa_session::{decode_frame_exact, encode_submission_frame};

fn bench_location_submission(b: &mut Bench) {
    let config = LppaConfig::default();
    let mut rng = StdRng::seed_from_u64(1);
    let ttp = Ttp::new(1, config, &mut rng).unwrap();
    b.bench("submission/location", || {
        LocationSubmission::build(
            std::hint::black_box(Location::new(64, 64)),
            &ttp.bidder_keys().g0,
            &config,
            &mut rng,
        )
        .unwrap();
    });
}

fn bench_bid_submission(b: &mut Bench) {
    let config = LppaConfig::default();
    let mut rng = StdRng::seed_from_u64(2);
    for k in [16usize, 64, 129] {
        let ttp = Ttp::new(k, config, &mut rng).unwrap();
        let policy = ZeroReplacePolicy::geometric(0.5, 0.75, config.bid_max());
        let bids: Vec<u32> = (0..k)
            .map(|_| if rng.gen_bool(0.5) { 0 } else { rng.gen_range(1..=config.bid_max()) })
            .collect();
        b.bench(&format!("submission/advanced_bids/{k}"), || {
            AdvancedBidSubmission::build(&bids, ttp.bidder_keys(), &config, &policy, &mut rng)
                .unwrap();
        });
    }
}

fn bench_full_submission(b: &mut Bench) {
    let config = LppaConfig::default();
    let mut rng = StdRng::seed_from_u64(3);
    let k = 129;
    let ttp = Ttp::new(k, config, &mut rng).unwrap();
    let policy = ZeroReplacePolicy::geometric(0.5, 0.75, config.bid_max());
    let bids: Vec<u32> = (0..k)
        .map(|_| if rng.gen_bool(0.5) { 0 } else { rng.gen_range(1..=config.bid_max()) })
        .collect();
    b.bench("submission/full_su_submission_k129", || {
        SuSubmission::build(Location::new(30, 40), &bids, &ttp, &policy, &mut rng).unwrap();
    });
}

/// The codec steps of one submission at `k` channels: the sender's
/// checksum, the frame encode (rotating over an area of 25 bidders, so
/// the submission is not hot in cache) and the auctioneer's decode,
/// checksum compare and materialize.
fn bench_codec(b: &mut Bench) {
    let config = LppaConfig::default();
    for k in [2usize, 129] {
        let mut rng = StdRng::seed_from_u64(4);
        let ttp = Ttp::new(k, config, &mut rng).unwrap();
        let policy = ZeroReplacePolicy::geometric(0.5, 0.75, config.bid_max());
        let area: Vec<SuSubmission> = (0..25u32)
            .map(|i| {
                let bids: Vec<u32> = (0..k)
                    .map(
                        |_| if rng.gen_bool(0.5) { 0 } else { rng.gen_range(1..=config.bid_max()) },
                    )
                    .collect();
                let location = Location::new(20 + i, 40 + i % 7);
                SuSubmission::build(location, &bids, &ttp, &policy, &mut rng).unwrap()
            })
            .collect();
        b.bench(&format!("submission/checksum/{k}"), || {
            std::hint::black_box(std::hint::black_box(&area[0]).checksum());
        });
        let mut next = 0;
        b.bench(&format!("wire/encode_submission_frame/{k}"), || {
            next = (next + 1) % area.len();
            std::hint::black_box(encode_submission_frame(next, 1, &area[next]));
        });
        let frame = encode_submission_frame(0, 1, &area[0]);
        b.bench(&format!("wire/decode_materialize/{k}"), || {
            let payload = decode_frame_exact(std::hint::black_box(&frame)).unwrap().payload;
            let view = decode_submission(payload).unwrap();
            assert_eq!(view.computed_checksum(), view.declared_checksum());
            std::hint::black_box(view.materialize().unwrap());
        });
    }
}

fn main() {
    let mut b = Bench::new("submission");
    lppa_bench::machine_context(&mut b);
    bench_location_submission(&mut b);
    bench_bid_submission(&mut b);
    bench_full_submission(&mut b);
    bench_codec(&mut b);
    b.finish();
}
