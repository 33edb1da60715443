//! Metric assembly and output: one line per metric with its raw value
//! and reference time beside the calibrated one, a context line, and
//! the JSON result as the last line.

use std::fmt::Write as _;
use std::process::ExitCode;

use crate::clock::{Nominal, RefKind, RefRead, Sample};
use crate::stats::{median, summarize, Shares, Summary};

/// Everything a workload's end-to-end run measured.
#[derive(Debug, Default)]
pub struct E2e {
    /// One sample per set-up.
    pub setups: Vec<Sample>,
    /// One sample per settled area round.
    pub rounds: Vec<Sample>,
    /// One sample per SU submission build.
    pub submits: Vec<Sample>,
    /// One sample per settled area: masking plus round (churn: deltas
    /// plus round), paired with the bidders it settled.
    pub areas: Vec<(Sample, u64)>,
    /// Encoded submission bytes and the bidders they belong to.
    pub bytes: (f64, f64),
    /// Round and bidder accounting.
    pub shares: Shares,
    /// `VmHWM` once the workload's fixed count of area rounds was
    /// reached, with that count.
    pub peak_rss: Option<(f64, u64)>,
}

impl E2e {
    /// Records `VmHWM` the first time `rounds` area rounds have been
    /// attempted, so the figure does not depend on how many rounds a
    /// run fits in (the benchmark's own sample storage grows with them).
    pub fn note_rss(&mut self, rounds: u64) {
        if self.peak_rss.is_none() && self.shares.attempted >= rounds {
            self.peak_rss = Some((peak_rss_mb(), self.shares.attempted));
        }
    }
}

/// A workload run's outcome.
#[derive(Debug, Default)]
pub struct RunResult {
    /// End-to-end samples (also kept in traced runs, for the raw and
    /// overhead diagnostics).
    pub e2e: E2e,
    /// Per-layer metrics of a traced run: `(name, value, unit)`.
    pub layers: Vec<(&'static str, f64, &'static str)>,
    /// Correctness-gate mismatches; any entry fails the run.
    pub mismatches: Vec<String>,
    /// Failed area rounds, with their messages.
    pub failures: Vec<String>,
    /// Extra `key=value` context.
    pub notes: Vec<String>,
}

/// The run's context line.
pub struct Context<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub lane_width: usize,
    pub cpu_features: String,
    pub env: Vec<(String, String)>,
    pub nominal: Nominal,
    pub refs: &'a [RefRead],
    pub long_pieces: usize,
}

/// One printed metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    detail: String,
}

fn cal(samples: &[Sample], scale: f64) -> Vec<f64> {
    samples.iter().map(|s| s.calibrated_ns() / scale).collect()
}

fn raw_cpu(samples: &[Sample], scale: f64) -> Vec<f64> {
    samples.iter().map(|s| s.raw_ns as f64 / scale).collect()
}

fn raw_wall(samples: &[Sample], scale: f64) -> Vec<f64> {
    samples.iter().map(|s| s.wall_ns as f64 / scale).collect()
}

fn mean_ref_us(samples: &[Sample]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(|s| s.ref_ns).sum::<f64>() / samples.len() as f64 / 1e3
}

/// Median and tail metrics over `samples` in units of `scale` ns.
fn timing(
    names: (&'static str, &'static str),
    unit: &'static str,
    samples: &[Sample],
    scale: f64,
    tail: f64,
) -> Result<[Metric; 2], String> {
    let c = summarize(&cal(samples, scale), tail).ok_or(format!("no samples for {}", names.0))?;
    let r = summarize(&raw_cpu(samples, scale), tail).expect("same sample count");
    let w = summarize(&raw_wall(samples, scale), tail).expect("same sample count");
    let detail = |pick: fn(&Summary) -> f64, p: f64| {
        format!(
            "raw_cpu={:.6} raw_wall={:.6} ref_us={:.3} n={} p={p}",
            pick(&r),
            pick(&w),
            mean_ref_us(samples),
            c.n
        )
    };
    Ok([
        Metric { name: names.0, value: c.p50, unit, detail: detail(|s| s.p50, 50.0) },
        Metric { name: names.1, value: c.tail, unit, detail: detail(|s| s.tail, c.tail_p) },
    ])
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn end_to_end(e: &E2e) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    let setup = median(&cal(&e.setups, 1e9)).ok_or("no set-up samples")?;
    out.push(Metric {
        name: "setup_s",
        value: setup,
        unit: "s",
        detail: format!(
            "raw_cpu={:.6} raw_wall={:.6} ref_us={:.3} n={}",
            median(&raw_cpu(&e.setups, 1e9)).unwrap_or(0.0),
            median(&raw_wall(&e.setups, 1e9)).unwrap_or(0.0),
            mean_ref_us(&e.setups),
            e.setups.len()
        ),
    });
    let bidders: u64 = e.areas.iter().map(|(_, b)| b).sum();
    let area_samples: Vec<Sample> = e.areas.iter().map(|(s, _)| *s).collect();
    let total = Sample::sum(&area_samples);
    if bidders == 0 || total.raw_ns == 0 {
        return Err("no settled areas".into());
    }
    out.push(Metric {
        name: "bidders_per_s",
        value: bidders as f64 / (total.calibrated_ns() / 1e9),
        unit: "bidders/s",
        detail: format!(
            "raw_cpu={:.3} raw_wall={:.3} ref_us={:.3} areas={} bidders={bidders}",
            bidders as f64 / (total.raw_ns as f64 / 1e9),
            bidders as f64 / (total.wall_ns as f64 / 1e9),
            total.ref_ns / 1e3,
            e.areas.len()
        ),
    });
    out.extend(timing(("round_ms_p50", "round_ms_p90"), "ms", &e.rounds, 1e6, 90.0)?);
    out.extend(timing(("su_submit_ms_p50", "su_submit_ms_p99"), "ms", &e.submits, 1e6, 99.0)?);
    if e.bytes.1 == 0.0 {
        return Err("no encoded submissions".into());
    }
    out.push(Metric {
        name: "bytes_per_bidder",
        value: e.bytes.0 / e.bytes.1,
        unit: "bytes",
        detail: format!("bidders={}", e.bytes.1),
    });
    let (rss, detail) = match e.peak_rss {
        Some((mb, rounds)) => (mb, format!("VmHWM after {rounds} area rounds")),
        None => (peak_rss_mb(), "VmHWM at exit (fewer area rounds than the fixed count)".into()),
    };
    out.push(Metric { name: "peak_rss_mb", value: rss, unit: "MiB", detail });
    let s = &e.shares;
    out.push(Metric {
        name: "settled_share",
        value: s.settled_share(),
        unit: "ratio",
        detail: format!(
            "failed_share={} failed={} attempted={}",
            s.failed_share(),
            s.failed,
            s.attempted
        ),
    });
    out.push(Metric {
        name: "accepted_share",
        value: s.accepted_share(),
        unit: "ratio",
        detail: format!(
            "quarantined_share={} quarantined={} submitted={}",
            s.quarantined_share(),
            s.quarantined,
            s.submitted
        ),
    });
    Ok(out)
}

/// The median reference read as `kind` sees it, µs.
pub fn median_ref_us(refs: &[RefRead], kind: RefKind) -> f64 {
    median(&refs.iter().map(|r| r.of(kind) as f64 / 1e3).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// A JSON number: finite values in full precision, anything else 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Prints the metric lines, the context line and the JSON result, and
/// returns the exit code: 0 for a correct run, 1 for a gate mismatch,
/// 3 when metrics could not be computed.
pub fn print(ctx: &Context, result: &RunResult, trace: bool) -> ExitCode {
    for failure in result.failures.iter().take(20) {
        println!("failed-round {failure}");
    }
    if result.failures.len() > 20 {
        println!("failed-round ... {} more", result.failures.len() - 20);
    }
    for mismatch in &result.mismatches {
        println!("MISMATCH {mismatch}");
    }
    let metrics: Vec<Metric> = if trace {
        result
            .layers
            .iter()
            .map(|&(name, value, unit)| Metric { name, value, unit, detail: String::new() })
            .collect()
    } else {
        match end_to_end(&result.e2e) {
            Ok(m) => m,
            Err(err) => {
                eprintln!("error: {err}");
                return ExitCode::from(3);
            }
        }
    };
    for m in &metrics {
        println!("metric {} {} {} {}", m.name, json_number(m.value), m.unit, m.detail);
    }
    let env: Vec<String> = ctx.env.iter().map(|(k, v)| format!("{k}={v}")).collect();
    let mut line = format!(
        "context workload={} seed={} trace={} lane_width={} cpu_features=\"{}\" env=\"{}\" ref_nominal_us=vector:{},mixed:{} ref_measured_us_p50=vector:{:.3},mixed:{:.3} ref_reads={} long_pieces={}",
        ctx.workload,
        ctx.seed,
        u8::from(trace),
        ctx.lane_width,
        ctx.cpu_features,
        env.join(" "),
        ctx.nominal.vector_ns / 1e3,
        ctx.nominal.mixed_ns / 1e3,
        median_ref_us(ctx.refs, RefKind::Vector),
        median_ref_us(ctx.refs, RefKind::Mixed),
        ctx.refs.len(),
        ctx.long_pieces,
    );
    for note in &result.notes {
        let _ = write!(line, " {note}");
    }
    println!("{line}");

    let correct = result.mismatches.is_empty();
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        result.e2e.shares.attempted.max(1),
        result.e2e.shares.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
