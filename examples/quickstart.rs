//! Quickstart: a complete location-private spectrum auction in ~60 lines.
//!
//! Run with: `cargo run --example quickstart`
//!
//! Five secondary users bid on three channels. The TTP issues keys, each
//! user submits masked location + masked bids, the auctioneer allocates
//! channels without ever seeing a coordinate or a price, and the TTP
//! decrypts only the winning charges.

use lppa_rng::rngs::StdRng;
use lppa_rng::SeedableRng;
use lppa_suite::lppa::protocol::{
    build_submissions, run_private_auction_with_model, AuctioneerModel,
};
use lppa_suite::lppa::ttp::Ttp;
use lppa_suite::lppa::zero_replace::ZeroReplacePolicy;
use lppa_suite::lppa::LppaConfig;
use lppa_suite::lppa_auction::bidder::Location;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(2013);

    // 1. Shared protocol parameters and the TTP's keys.
    let config = LppaConfig::default();
    let ttp = Ttp::new(3, config, &mut rng)?;

    // 2. Each user disguises 30 % of its zero bids, preferring small
    //    disguise values to protect auction performance.
    let policy = ZeroReplacePolicy::geometric(0.3, 0.75, config.bid_max());

    // 3. Bidder side: masked submissions. A zero bid means "channel not
    //    available here" — exactly what the disguises hide.
    let users: Vec<(&str, Location, Vec<u32>)> = vec![
        ("alice", Location::new(10, 12), vec![55, 0, 20]),
        ("bob", Location::new(11, 13), vec![70, 15, 0]), // conflicts with alice
        ("carol", Location::new(90, 20), vec![30, 40, 25]),
        ("dave", Location::new(40, 95), vec![0, 80, 10]),
        ("erin", Location::new(70, 70), vec![25, 0, 60]),
    ];
    let bidders: Vec<(Location, Vec<u32>)> =
        users.iter().map(|(_, loc, bids)| (*loc, bids.clone())).collect();
    let submissions = build_submissions(&bidders, &ttp, &policy, &mut rng)?;
    println!(
        "each submission ships {} bytes of masked material; no plaintext leaves a bidder",
        submissions[0].wire_len()
    );

    // 4. Auctioneer + TTP: allocation over masked comparisons, then
    //    batch charging.
    let result =
        run_private_auction_with_model(&submissions, &ttp, AuctioneerModel::default(), &mut rng)?;

    println!("\nconflict pairs seen by the auctioneer (from masked locations only):");
    for i in 0..users.len() {
        for j in (i + 1)..users.len() {
            if result.conflicts.are_conflicting(i.into(), j.into()) {
                println!("  {} <-> {}", users[i].0, users[j].0);
            }
        }
    }

    println!("\nassignments (first-price charges decrypted by the TTP):");
    for a in result.outcome.assignments() {
        println!("  {} wins {} and pays {}", users[a.bidder.0].0, a.channel, a.price);
    }
    println!(
        "\nrevenue {} | satisfaction {:.0}% | disguised-zero wins invalidated: {}",
        result.outcome.revenue(),
        result.outcome.satisfaction() * 100.0,
        result.invalid_grants.len(),
    );
    Ok(())
}
