//! Wire-cost accounting for the binary session protocol: per-phase
//! bytes-on-wire and frames-sent for one lockstep socket round, plus
//! codec timing, in the workspace bench-JSON format.
//!
//! The per-phase counters are computed analytically from the frame
//! codecs against the deterministic lockstep schedule (reliable link:
//! one send per bidder), then cross-checked by actually running the
//! loopback socket round and asserting its fingerprint equals the
//! simulated wire round. Chaos-mode submission traffic is reported from
//! the simulated transport's own counters.
//!
//! Output lines:
//!
//! * a `"context"` machine line (full mode);
//! * timing-free `"outcome"` lines, one per phase, with `frames` and
//!   `bytes`, plus one `"mode":"socket"` line with the round
//!   fingerprint CI can diff;
//! * `"bench"`+`"mean_ns"` codec records (`--quick` trims iterations).
//!
//! ```text
//! wire_cost [--bidders N] [--channels N] [--seed N] [--out PATH] [--quick]
//! ```

use std::process::ExitCode;

use lppa::protocol::SuSubmission;
use lppa::ttp::{ChargeRequest, Ttp};
use lppa::wire::{
    decode_charge_request, decode_submission, encode_charge_request, encode_charge_verdict,
    verdict_of,
};
use lppa::LppaError;
use lppa_net::{round_fixture, run_socket_round, NetConfig};
use lppa_session::frame::{
    encode_announce, encode_bye, encode_collect_closed, encode_frame, encode_hello, encode_settled,
    encode_sub_ack, encode_tick_done, encode_tick_start, Announce, FrameKind, Hello,
    FRAME_HEADER_LEN,
};
use lppa_session::{
    allocate_round, decode_frame_exact, encode_submission_frame, run_wire_round, SessionConfig,
    SessionOutcome,
};

const USAGE: &str =
    "usage: wire_cost [--bidders N] [--channels N] [--seed N] [--out PATH] [--quick]";

struct Args {
    bidders: usize,
    channels: usize,
    seed: u64,
    out: Option<String>,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { bidders: 8, channels: 2, seed: 20260809, out: None, quick: false };
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

struct Report {
    lines: Vec<String>,
}

impl Report {
    fn push(&mut self, line: String) {
        println!("{line}");
        self.lines.push(line);
    }

    fn phase(&mut self, phase: &str, frames: u64, bytes: u64) {
        self.push(format!(
            "{{\"group\":\"wire\",\"outcome\":{{\"phase\":\"{phase}\",\"frames\":{frames},\"bytes\":{bytes}}}}}"
        ));
    }
}

/// Sums `count` frames of the given encoded-payload length.
fn frames(count: u64, payload_len: usize) -> (u64, u64) {
    (count, count * (FRAME_HEADER_LEN + payload_len) as u64)
}

/// The round's charge requests, re-allocated from its committed seed
/// through the session's own allocation front.
fn round_charge_requests(
    config: &SessionConfig,
    outcome: &SessionOutcome,
    submissions: &[SuSubmission],
) -> Result<Vec<ChargeRequest>, LppaError> {
    let (accepted, auction_seed, _, _) = outcome
        .journal
        .collect_snapshot()
        .ok_or_else(|| LppaError::Internal { what: "journal lost its commit".into() })?;
    let accepted: Vec<&SuSubmission> = accepted.iter().map(|&i| &submissions[i]).collect();
    let (_, _, requests) = allocate_round(config, &accepted, auction_seed)?;
    Ok(requests)
}

/// The charge-phase request/verdict traffic for `requests`.
fn charge_traffic(ttp: &Ttp, requests: &[ChargeRequest]) -> Result<(u64, u64), LppaError> {
    let mut total_frames = 0u64;
    let mut total_bytes = 0u64;
    for (slot, request) in requests.iter().enumerate() {
        let mut payload = Vec::new();
        encode_charge_request(slot as u32, request, &mut payload);
        total_frames += 1;
        total_bytes += (FRAME_HEADER_LEN + payload.len()) as u64;
        let decision = ttp.open_charge(request);
        let verdict = verdict_of(&decision)?;
        let mut back = Vec::new();
        encode_charge_verdict(slot as u32, verdict, &mut back);
        total_frames += 1;
        total_bytes += (FRAME_HEADER_LEN + back.len()) as u64;
    }
    Ok((total_frames, total_bytes))
}

fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report { lines: Vec::new() };
    let (ttp, submissions) =
        round_fixture(args.seed ^ 0x66, args.bidders, args.channels).map_err(|e| e.to_string())?;
    let config = SessionConfig { min_accepted: 1, ..SessionConfig::default() };
    let n = args.bidders as u64;

    // Machine-context metadata, same shape as `lppa_bench::machine_context`
    // emits, but unconditional: this report is a committed baseline.
    let threads = std::env::var(lppa_par::THREADS_ENV)
        .unwrap_or_else(|_| format!("auto({})", lppa_par::thread_count()));
    report.push(format!(
        "{{\"group\":\"wire\",\"context\":{{\"sha_lanes\":\"{}\",\"threads\":\"{threads}\",\"cpu_features\":\"{}\"}}}}",
        lppa_crypto::lanes::lane_width(),
        lppa_crypto::lanes::cpu_features(),
    ));

    // --- Per-phase accounting (reliable lockstep schedule) ---------
    let announce = Announce {
        seed: args.seed,
        n_bidders: args.bidders as u32,
        channels: args.channels as u32,
    };
    let hello_len = encode_hello(Hello { role: 0, id: 0 }).len();
    let (hello_frames, hello_bytes) = frames(n + 1, hello_len);
    let (ann_frames, ann_bytes) = frames(n, encode_announce(announce).len());
    report.phase("announce", hello_frames + ann_frames, hello_bytes + ann_bytes);

    let ticks = config.collect_deadline + 1;
    let (ts_frames, ts_bytes) = frames(ticks * n, encode_tick_start(0).len());
    let (td_frames, td_bytes) = frames(ticks * n, encode_tick_done(0, 0).len());
    let mut sub_frames = 0u64;
    let mut sub_bytes = 0u64;
    for (i, submission) in submissions.iter().enumerate() {
        // Reliable link: every bidder is acked on its first attempt.
        sub_frames += 1;
        sub_bytes += encode_submission_frame(i, 1, submission).len() as u64;
    }
    let (ack_frames, ack_bytes) = frames(n, encode_sub_ack(0, true).len());
    report.phase(
        "collect",
        ts_frames + td_frames + sub_frames + ack_frames,
        ts_bytes + td_bytes + sub_bytes + ack_bytes,
    );

    let outcome =
        run_wire_round(&ttp, config, &submissions, args.seed).map_err(|e| e.to_string())?;
    let requests =
        round_charge_requests(&config, &outcome, &submissions).map_err(|e| e.to_string())?;
    let (charge_frames, charge_bytes) =
        charge_traffic(&ttp, &requests).map_err(|e| e.to_string())?;
    report.phase("charge", charge_frames, charge_bytes);

    let (cc_frames, cc_bytes) = frames(n, encode_collect_closed(0).len());
    let (set_frames, set_bytes) = frames(n, encode_settled(0).len());
    let (bye_frames, bye_bytes) = frames(n + 1, encode_bye(0).len());
    report.phase("settle", cc_frames + set_frames + bye_frames, cc_bytes + set_bytes + bye_bytes);

    // --- Cross-check: the socket round lands on the sim fingerprint -
    let net = NetConfig { backoff_ms: 5, backoff_cap_ms: 80, retries: 10, ..NetConfig::default() };
    let socket =
        run_socket_round(&ttp, config, &submissions, args.seed, &net).map_err(|e| e.to_string())?;
    if socket.fingerprint() != outcome.fingerprint() {
        return Err(format!(
            "socket round {:#x} != simulated wire round {:#x}",
            socket.fingerprint(),
            outcome.fingerprint()
        ));
    }
    report.push(format!(
        "{{\"group\":\"wire\",\"outcome\":{{\"mode\":\"socket\",\"fingerprint\":\"{:#018x}\",\
         \"bidders\":{},\"channels\":{},\"accepted\":{},\"grants\":{}}}}}",
        socket.fingerprint(),
        args.bidders,
        args.channels,
        socket.accepted.len(),
        socket.grants.len(),
    ));

    // --- Codec timing ----------------------------------------------
    let iters = if args.quick { 200u64 } else { 2000 };
    let sample = &submissions[0];
    let encoded = encode_submission_frame(0, 1, sample);
    let mut timings: Vec<(String, u64, f64)> = Vec::new();
    let mut time = |name: &str, iters: u64, f: &mut dyn FnMut()| {
        let start = std::time::Instant::now();
        for _ in 0..iters {
            f();
        }
        let mean = start.elapsed().as_nanos() as f64 / iters as f64;
        timings.push((name.to_string(), iters, mean));
    };
    time("encode_submission_frame", iters, &mut || {
        std::hint::black_box(encode_submission_frame(0, 1, sample));
    });
    time("decode_submission_frame", iters, &mut || {
        let view = decode_frame_exact(std::hint::black_box(&encoded)).unwrap();
        let parsed = decode_submission(view.payload).unwrap();
        std::hint::black_box(parsed.computed_checksum());
    });
    time("materialize_submission", iters, &mut || {
        let view = decode_frame_exact(&encoded).unwrap();
        let parsed = decode_submission(view.payload).unwrap();
        std::hint::black_box(parsed.materialize().unwrap());
    });
    let control = encode_frame(FrameKind::TickStart, 1, &1u64.to_le_bytes());
    time("decode_control_frame", iters * 10, &mut || {
        std::hint::black_box(decode_frame_exact(std::hint::black_box(&control)).unwrap());
    });
    if let Some(request) = requests.first() {
        // Charge codec timing over the round's first real request.
        time("charge_request_roundtrip", iters, &mut || {
            let mut payload = Vec::new();
            encode_charge_request(0, request, &mut payload);
            let view = decode_charge_request(&payload).unwrap();
            std::hint::black_box(view.materialize().unwrap());
        });
    }
    for (name, iters, mean) in &timings {
        report.push(format!(
            "{{\"group\":\"wire\",\"bench\":\"{name}\",\"iters\":{iters},\"mean_ns\":{mean:.2}}}"
        ));
    }
    Ok(report)
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
        Ok(report) => {
            if let Some(path) = &args.out {
                let body = report.lines.join("\n") + "\n";
                if let Err(err) = std::fs::write(path, body) {
                    eprintln!("error: cannot write {path}: {err}");
                    return ExitCode::FAILURE;
                }
                eprintln!("[wire_cost] report written to {path}");
            }
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("wire_cost: {msg}");
            ExitCode::FAILURE
        }
    }
}
