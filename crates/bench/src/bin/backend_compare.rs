//! Masking-backend comparison bench: the same fleet settled through
//! every [`BackendKind`], timed per phase, in the workspace bench-JSON
//! format.
//!
//! Reported per backend:
//!
//! * `collect:<kind>` — building the bid table under that backend's
//!   ranking (exact counted ranking for `hmac`/`ledger`, the
//!   all-pairs dominance count for `bloom`);
//! * `round:<kind>` — one complete private auction (conflict graph,
//!   traced allocation, first-price charging, Vickrey resettlement,
//!   and — for `ledger` — the settle-time audit replay);
//! * an `"outcome"` line with the first-price and Vickrey revenues and
//!   the grant count (exact backends must agree; CI diffs these);
//! * for `bloom`, the measured comparison false-positive rate next to
//!   the analytic `(1 − e^{−k/c})^k` per-tag rate, documenting the
//!   speed/membership-privacy vs exactness trade-off.
//!
//! ```text
//! backend_compare [--bidders N] [--channels N] [--seed N] [--out PATH] [--quick]
//! ```

use std::process::ExitCode;

use lppa::backend::{
    bloom_probe_stats, run_private_auction_with_backend, BackendKind, BloomParams,
};
use lppa::protocol::{build_submissions, AuctioneerModel, SuSubmission};
use lppa::psd::table::MaskedBidTable;
use lppa::ttp::Ttp;
use lppa::zero_replace::ZeroReplacePolicy;
use lppa::{LppaConfig, LppaError};
use lppa_auction::bidder::Location;
use lppa_rng::rngs::StdRng;
use lppa_rng::{Rng, SeedableRng};

/// A spatially clustered fleet: bidders packed into neighbourhoods a
/// few conflict radii wide, so channels are genuinely contested and the
/// Vickrey settlement prices real competition (the scattered
/// `lppa_net::round_fixture` fleet is conflict-free at these sizes).
fn contested_fixture(
    seed: u64,
    n_bidders: usize,
    n_channels: usize,
) -> Result<(Ttp, Vec<SuSubmission>), LppaError> {
    let config = LppaConfig::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let ttp = Ttp::new(n_channels, config, &mut rng)?;
    let span = 4 * config.lambda;
    let clusters = [(10u32, 10u32), (60, 20), (30, 80), (90, 90)];
    let bidders: Vec<(Location, Vec<u32>)> = (0..n_bidders)
        .map(|i| {
            let (cx, cy) = clusters[i % clusters.len()];
            let x = cx + rng.gen_range(0..span);
            let y = cy + rng.gen_range(0..span);
            let bids = (0..n_channels).map(|_| rng.gen_range(0..=config.bid_max())).collect();
            (Location::new(x.min(config.loc_max()), y.min(config.loc_max())), bids)
        })
        .collect();
    let policy = ZeroReplacePolicy::uniform(0.5, config.bid_max());
    let submissions = build_submissions(&bidders, &ttp, &policy, &mut rng)?;
    Ok((ttp, submissions))
}

const USAGE: &str =
    "usage: backend_compare [--bidders N] [--channels N] [--seed N] [--out PATH] [--quick]";

struct Args {
    bidders: usize,
    channels: usize,
    seed: u64,
    out: Option<String>,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { bidders: 48, channels: 8, seed: 20260809, out: None, quick: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--bidders" => {
                args.bidders = value("--bidders")?.parse().map_err(|e| format!("--bidders: {e}"))?
            }
            "--channels" => {
                args.channels =
                    value("--channels")?.parse().map_err(|e| format!("--channels: {e}"))?
            }
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--out" => args.out = Some(value("--out")?),
            "--quick" => args.quick = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn run(args: &Args) -> Result<Vec<String>, String> {
    let mut lines = Vec::new();
    let (ttp, submissions) = contested_fixture(args.seed ^ 0xbac0, args.bidders, args.channels)
        .map_err(|e| e.to_string())?;
    let threads = std::env::var(lppa_par::THREADS_ENV)
        .unwrap_or_else(|_| format!("auto({})", lppa_par::thread_count()));
    lines.push(format!(
        "{{\"group\":\"backend_compare\",\"context\":{{\"bidders\":{},\"channels\":{},\
         \"seed\":{},\"sha_lanes\":\"{}\",\"threads\":\"{threads}\",\"cpu_features\":\"{}\"}}}}",
        args.bidders,
        args.channels,
        args.seed,
        lppa_crypto::lanes::lane_width(),
        lppa_crypto::lanes::cpu_features(),
    ));

    let iters = if args.quick { 3u32 } else { 10 };
    let bids: Vec<_> = submissions.iter().map(|s| s.bids.clone()).collect();
    for kind in BackendKind::ALL {
        // Phase 1: table collection (class computation).
        let start = std::time::Instant::now();
        for _ in 0..iters {
            std::hint::black_box(
                MaskedBidTable::collect_with(
                    bids.clone(),
                    kind,
                    AuctioneerModel::IterativeCharging,
                )
                .map_err(|e| e.to_string())?,
            );
        }
        let collect_ns = start.elapsed().as_nanos() as f64 / f64::from(iters);
        lines.push(format!(
            "{{\"group\":\"backend_compare\",\"bench\":\"collect:{}\",\"iters\":{iters},\
             \"mean_ns\":{collect_ns:.2}}}",
            kind.name()
        ));

        // Phase 2: the complete round (allocation + both settlements).
        let start = std::time::Instant::now();
        let mut last = None;
        for _ in 0..iters {
            last = Some(
                run_private_auction_with_backend(
                    &submissions,
                    &ttp,
                    AuctioneerModel::IterativeCharging,
                    kind,
                    &mut StdRng::seed_from_u64(args.seed ^ 0xa110),
                )
                .map_err(|e| e.to_string())?,
            );
        }
        let round_ns = start.elapsed().as_nanos() as f64 / f64::from(iters);
        lines.push(format!(
            "{{\"group\":\"backend_compare\",\"bench\":\"round:{}\",\"iters\":{iters},\
             \"mean_ns\":{round_ns:.2}}}",
            kind.name()
        ));

        let result = last.expect("iters >= 1");
        lines.push(format!(
            "{{\"group\":\"backend_compare\",\"outcome\":{{\"backend\":\"{}\",\"grants\":{},\
             \"first_price_revenue\":{},\"vickrey_revenue\":{},\"ledger_entries\":{}}}}}",
            kind.name(),
            result.result.grants.len(),
            result.result.outcome.revenue(),
            result.vickrey.revenue(),
            result.ledger.as_ref().map_or(0, |l| l.len()),
        ));
    }

    // The Bloom trade-off record: measured comparison FP rate vs the
    // analytic per-tag rate, for the shipped default parameters.
    let params = BloomParams::default();
    let stats = bloom_probe_stats(params, &bids);
    lines.push(format!(
        "{{\"group\":\"backend_compare\",\"outcome\":{{\"backend\":\"bloom\",\
         \"bits_per_tag\":{},\"hashes\":{},\"probes\":{},\"false_positives\":{},\
         \"false_negatives\":{},\"fp_tags\":{},\"tag_trials\":{},\
         \"measured_fp_rate\":{:.6},\"analytic_tag_fp_rate\":{:.6}}}}}",
        params.bits_per_tag,
        params.hashes,
        stats.probes,
        stats.false_positives,
        stats.false_negatives,
        stats.false_positive_tags,
        stats.tag_trials,
        stats.false_positives as f64 / stats.probes.max(1) as f64,
        params.analytic_fp_rate(),
    ));
    if stats.false_negatives != 0 {
        return Err(format!("bloom produced {} false negatives", stats.false_negatives));
    }
    Ok(lines)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(lines) => {
            let body = lines.join("\n") + "\n";
            if let Some(path) = &args.out {
                if let Err(err) = std::fs::write(path, &body) {
                    eprintln!("error: cannot write {path}: {err}");
                    return ExitCode::FAILURE;
                }
                eprintln!("[backend_compare] report written to {path}");
            }
            print!("{body}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
