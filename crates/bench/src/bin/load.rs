//! Load harness: pushes a large synthetic bidder fleet through the
//! sharded [`lppa_service::AuctionService`] and reports throughput and
//! per-area settlement latency in the workspace bench-JSON format.
//!
//! Default mode runs 100 000 bidders across 100 areas; `--full` scales
//! to 1 000 000 bidders across 1000 areas (the ROADMAP target).
//! Output is one JSON object per line, mirroring `lppa_rng::bench`:
//!
//! * a machine-context metadata line (`"context"`) with the SHA-256
//!   lane width, worker threads, shard count (one shard per worker) and
//!   CPU features;
//! * one **timing-free** outcome line (`"outcome"`) carrying the run's
//!   aggregate decision fingerprint — byte-identical across
//!   `LPPA_THREADS`, which is exactly what the CI `load-smoke` job
//!   diffs;
//! * `"bench"`+`"mean_ns"` records (area latency quantiles, per-bidder
//!   routing cost, total wall clock) that the `compare` bin can join.
//!
//! `--churn` switches to the sustained-churn harness: the fleet is
//! admitted once, then `--rounds` churn rounds (default 8) each touch
//! `--churn-rate` of the live population (default 0.10, split 1:1:2
//! join:leave:revise) and re-settle every area. Both the incremental
//! delta path and the rebuild-everything baseline run; the bin fails if
//! their decision fingerprints diverge and reports the steady-state
//! rounds/s of each plus the speedup.
//!
//! Usage:
//!
//! ```text
//! load [--bidders N] [--areas N] [--channels N] [--seed N] [--out PATH] [--full]
//!      [--churn] [--rounds N] [--churn-rate F] [--mode incremental|rebuild|both]
//! ```

use std::process::ExitCode;
use std::time::Instant;

use lppa_service::{
    run_churn, AuctionService, ChurnMode, ChurnReport, ChurnSpec, ServiceConfig, ServiceReport,
    WorkloadSpec,
};

const USAGE: &str = "usage: load [--bidders N] [--areas N] [--channels N] [--seed N] [--out PATH] [--full]\n            [--churn] [--rounds N] [--churn-rate F] [--mode incremental|rebuild|both]";

/// Command-line knobs, hand-parsed (the workspace takes no CLI crate).
struct Args {
    bidders: usize,
    areas: u32,
    channels: usize,
    seed: u64,
    out: Option<String>,
    churn: bool,
    rounds: usize,
    churn_rate: f64,
    modes: Vec<ChurnMode>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        bidders: 100_000,
        areas: 100,
        channels: 2,
        seed: 20260809,
        out: None,
        churn: false,
        rounds: 8,
        churn_rate: 0.10,
        modes: vec![ChurnMode::Incremental, ChurnMode::Rebuild],
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--bidders" => {
                args.bidders = value("--bidders")?.parse().map_err(|e| format!("--bidders: {e}"))?
            }
            "--areas" => {
                args.areas = value("--areas")?.parse().map_err(|e| format!("--areas: {e}"))?
            }
            "--channels" => {
                args.channels =
                    value("--channels")?.parse().map_err(|e| format!("--channels: {e}"))?
            }
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--out" => args.out = Some(value("--out")?),
            "--full" => {
                args.bidders = 1_000_000;
                args.areas = 1000;
            }
            "--churn" => args.churn = true,
            "--rounds" => {
                args.rounds = value("--rounds")?.parse().map_err(|e| format!("--rounds: {e}"))?
            }
            "--churn-rate" => {
                args.churn_rate =
                    value("--churn-rate")?.parse().map_err(|e| format!("--churn-rate: {e}"))?
            }
            "--mode" => {
                args.modes = match value("--mode")?.as_str() {
                    "incremental" => vec![ChurnMode::Incremental],
                    "rebuild" => vec![ChurnMode::Rebuild],
                    "both" => vec![ChurnMode::Incremental, ChurnMode::Rebuild],
                    other => return Err(format!("--mode: unknown mode {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.areas == 0 || args.channels == 0 {
        return Err("--areas and --channels must be at least 1".into());
    }
    if args.churn && (args.rounds == 0 || !(0.0..=1.0).contains(&args.churn_rate)) {
        return Err("--rounds must be ≥ 1 and --churn-rate within [0, 1]".into());
    }
    Ok(args)
}

/// One emitted report line: printed to stdout and buffered for `--out`.
struct Report {
    lines: Vec<String>,
}

impl Report {
    fn push(&mut self, line: String) {
        println!("{line}");
        self.lines.push(line);
    }

    fn record(&mut self, bench: &str, iters: u64, mean_ns: f64, extra: &str) {
        self.push(format!(
            "{{\"group\":\"load\",\"bench\":\"{bench}\",\"iters\":{iters},\"mean_ns\":{mean_ns:.2}{extra}}}"
        ));
    }
}

/// Writes the buffered report to `--out`, if requested.
fn flush_out(report: &Report, out: Option<&String>) -> Result<(), ExitCode> {
    if let Some(path) = out {
        let body = report.lines.join("\n") + "\n";
        if let Err(err) = std::fs::write(path, body) {
            eprintln!("error: cannot write {path}: {err}");
            return Err(ExitCode::FAILURE);
        }
        eprintln!("[load] report written to {path}");
    }
    Ok(())
}

/// The sustained-churn harness: runs every requested mode over the same
/// spec, records steady-state round metrics per mode, cross-checks the
/// decision fingerprints and reports the rebuild-vs-incremental speedup.
///
/// When the `count-allocs` feature is on, each mode additionally reports
/// its **warm-round allocation count**: the marginal heap-allocation
/// cost of one extra steady-state round, measured by differencing a
/// full run against a second run with twice the rounds — admission and
/// warm-up allocations cancel out of the difference. The first measured
/// mode's figure also lands on the machine-context line (`ctx_core` is
/// the shared context-body prefix built in `main`).
fn run_churn_bench(
    args: &Args,
    config: &ServiceConfig,
    report: &mut Report,
    ctx_core: &str,
) -> ExitCode {
    let spec = ChurnSpec::balanced(
        WorkloadSpec::new(args.seed, args.areas, args.bidders, args.channels),
        args.rounds,
        args.churn_rate,
    );
    eprintln!(
        "[load] churn mode: {} rounds at rate {:.3} (join {:.3} / leave {:.3} / revise {:.3})",
        args.rounds, args.churn_rate, spec.join_rate, spec.leave_rate, spec.revise_rate
    );

    let mut runs: Vec<(ChurnReport, f64, Option<u64>)> = Vec::new();
    for &mode in &args.modes {
        let single_start = lppa_bench::alloc_count::allocations();
        let start = Instant::now();
        let run = match run_churn(&spec, mode, config.threads) {
            Ok(run) => run,
            Err(err) => {
                eprintln!("error: churn run ({}) failed: {err}", mode.name());
                return ExitCode::FAILURE;
            }
        };
        let wall_ns = start.elapsed().as_nanos() as f64;
        let allocs_per_round = single_start.and_then(|a0| {
            let single = lppa_bench::alloc_count::allocations()? - a0;
            let mut doubled = spec;
            doubled.rounds = spec.rounds * 2;
            let b0 = lppa_bench::alloc_count::allocations()?;
            run_churn(&doubled, mode, config.threads).ok()?;
            let double = lppa_bench::alloc_count::allocations()? - b0;
            // Marginal warm rounds: (A(2R) − A(R)) / R.
            Some(double.saturating_sub(single) / spec.rounds.max(1) as u64)
        });
        runs.push((run, wall_ns, allocs_per_round));
    }

    // Machine-context line first — in churn mode it carries the warm
    // allocs/round of the first measured mode (the incremental path when
    // `--mode both`), or "off" without the count-allocs feature.
    let ctx_allocs = runs
        .iter()
        .find_map(|(_, _, allocs)| *allocs)
        .map_or_else(|| "off".to_string(), |n| n.to_string());
    report.push(format!(
        "{{\"group\":\"load\",\"context\":{{{ctx_core},\"allocs_per_round\":\"{ctx_allocs}\"}}}}"
    ));

    for (run, wall_ns, allocs_per_round) in &runs {
        let wall_ns = *wall_ns;
        // Timing-free outcome line per mode: the cross-configuration
        // (and cross-mode) diff target for CI.
        report.push(format!(
            "{{\"group\":\"load\",\"outcome\":{{\"mode\":\"{}\",\"fingerprint\":\"{:#018x}\",\"areas\":{},\"rounds\":{},\"errors\":{},\"initial_bidders\":{},\"final_bidders\":{},\"churn_events\":{},\"assignments\":{},\"revenue\":{}}}}}",
            run.mode.name(),
            run.fingerprint,
            run.areas,
            run.rounds,
            run.errors.len(),
            run.initial_bidders,
            run.final_bidders,
            run.churn_events,
            run.total_assignments,
            run.total_revenue,
        ));
        let lat = run.round_latency;
        let rounds = run.rounds.max(1) as u64;
        let prefix = format!("churn/{}", run.mode.name());
        report.record(&format!("{prefix}/round_p50"), rounds, lat.p50_ns as f64, "");
        report.record(&format!("{prefix}/round_p95"), rounds, lat.p95_ns as f64, "");
        report.record(&format!("{prefix}/round_p99"), rounds, lat.p99_ns as f64, "");
        report.record(&format!("{prefix}/round_mean"), rounds, lat.mean_ns as f64, "");
        let rounds_per_s = run.rounds as f64 / (lat.mean_ns as f64 * run.rounds as f64 * 1e-9);
        report.record(
            &format!("{prefix}/wall"),
            1,
            wall_ns,
            &format!(",\"rounds_per_s\":{rounds_per_s:.3}"),
        );
        // Warm allocs/round doubles as the record's numeric value so the
        // `compare` bin can ratio it across baselines like any metric.
        if let Some(n) = allocs_per_round {
            report.record(
                &format!("{prefix}/allocs_per_round"),
                rounds,
                *n as f64,
                &format!(",\"allocs_per_round\":{n}"),
            );
            eprintln!("[load] {}: {n} heap allocations per warm round", run.mode.name());
        }
        eprintln!(
            "[load] {}: {} rounds in {:.2}s ({:.2} rounds/s); round p50 {:.2}ms p99 {:.2}ms; {} churn events",
            run.mode.name(),
            run.rounds,
            lat.mean_ns as f64 * run.rounds as f64 * 1e-9,
            rounds_per_s,
            lat.p50_ns as f64 * 1e-6,
            lat.p99_ns as f64 * 1e-6,
            run.churn_events,
        );
        for (area, err) in &run.errors {
            eprintln!("error: area {area} failed during churn: {err}");
        }
    }

    if let [(a, _, _), (b, _, _)] = runs.as_slice() {
        if a.fingerprint != b.fingerprint {
            eprintln!(
                "error: {} and {} settled differently ({:#018x} vs {:#018x})",
                a.mode.name(),
                b.mode.name(),
                a.fingerprint,
                b.fingerprint
            );
            return ExitCode::FAILURE;
        }
        let speedup = b.round_latency.mean_ns as f64 / a.round_latency.mean_ns.max(1) as f64;
        report.record(
            "churn/speedup_rebuild_over_incremental",
            1,
            0.0,
            &format!(",\"speedup\":{speedup:.2}"),
        );
        eprintln!(
            "[load] fingerprints agree ({:#018x}); incremental is {speedup:.2}x faster per round",
            a.fingerprint
        );
    }

    if let Err(code) = flush_out(report, args.out.as_ref()) {
        return code;
    }
    if runs.iter().any(|(run, _, _)| !run.errors.is_empty()) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("error: {err}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let config = ServiceConfig::from_env();
    let spec = WorkloadSpec::new(args.seed, args.areas, args.bidders, args.channels);
    let mut report = Report { lines: Vec::new() };

    // Machine-context metadata, same shape as `lppa_bench::machine_context`
    // plus the shard count (the worker count, one shard per worker), so
    // committed baselines stay joinable. The churn harness emits the line
    // itself so it can append the measured warm allocs/round.
    let threads = std::env::var(lppa_par::THREADS_ENV)
        .unwrap_or_else(|_| format!("auto({})", config.threads));
    let shards = config.threads;
    let ctx_core = format!(
        "\"sha_lanes\":\"{}\",\"threads\":\"{threads}\",\"shards\":\"{shards}\",\"cpu_features\":\"{}\"",
        lppa_crypto::lanes::lane_width(),
        lppa_crypto::lanes::cpu_features(),
    );
    eprintln!(
        "[load] {} bidders, {} areas, {} channels, seed {}; shards={shards} threads={threads}",
        args.bidders, args.areas, args.channels, args.seed
    );

    if args.churn {
        return run_churn_bench(&args, &config, &mut report, &ctx_core);
    }
    report.push(format!("{{\"group\":\"load\",\"context\":{{{ctx_core}}}}}"));

    let setup_start = Instant::now();
    let plans = match spec.plans() {
        Ok(plans) => plans,
        Err(err) => {
            eprintln!("error: building area plans failed: {err}");
            return ExitCode::FAILURE;
        }
    };
    let bidders = spec.bidders();
    let setup_ns = setup_start.elapsed().as_nanos() as f64;

    let mut service = AuctionService::new(config, plans);
    let run_start = Instant::now();
    for bidder in bidders {
        if let Err(err) = service.submit(bidder) {
            eprintln!("error: submit failed: {err}");
            return ExitCode::FAILURE;
        }
    }
    let submit_ns = run_start.elapsed().as_nanos() as f64;
    let outcome: ServiceReport = service.drain();
    let total_ns = run_start.elapsed().as_nanos() as f64;

    // Timing-free outcome line: the cross-configuration diff target.
    report.push(format!(
        "{{\"group\":\"load\",\"outcome\":{{\"fingerprint\":\"{:#018x}\",\"areas\":{},\"settled\":{},\"errors\":{},\"bidders\":{},\"assignments\":{},\"revenue\":{}}}}}",
        outcome.fingerprint(),
        args.areas,
        outcome.areas.len(),
        outcome.errors.len(),
        outcome.total_bidders(),
        outcome.total_assignments(),
        outcome.total_revenue(),
    ));

    let lat = outcome.latency;
    let n_areas = lat.count.max(1) as u64;
    report.record("area_latency/p50", n_areas, lat.p50_ns as f64, "");
    report.record("area_latency/p95", n_areas, lat.p95_ns as f64, "");
    report.record("area_latency/p99", n_areas, lat.p99_ns as f64, "");
    report.record("area_latency/mean", n_areas, lat.mean_ns as f64, "");
    report.record("area_latency/max", n_areas, lat.max_ns as f64, "");
    report.record("setup/plans_and_bidders", 1, setup_ns, "");
    let n_bidders = args.bidders.max(1) as u64;
    report.record("submit/per_bidder", n_bidders, submit_ns / n_bidders as f64, "");
    let throughput = args.bidders as f64 / (total_ns * 1e-9);
    report.record(
        "wall/end_to_end",
        1,
        total_ns,
        &format!(",\"throughput_bidders_s\":{throughput:.1}"),
    );
    eprintln!(
        "[load] settled {}/{} areas in {:.2}s ({:.0} bidders/s); latency p50 {:.2}ms p95 {:.2}ms p99 {:.2}ms",
        outcome.areas.len(),
        args.areas,
        total_ns * 1e-9,
        throughput,
        lat.p50_ns as f64 * 1e-6,
        lat.p95_ns as f64 * 1e-6,
        lat.p99_ns as f64 * 1e-6,
    );

    if let Err(code) = flush_out(&report, args.out.as_ref()) {
        return code;
    }
    if !outcome.errors.is_empty() {
        for (area, err) in &outcome.errors {
            eprintln!("error: area {area} failed to settle: {err}");
        }
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
