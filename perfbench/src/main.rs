//! The LPPA benchmark.
//!
//! ```text
//! lppa-perfbench --workload <fleet|churn|wire129> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload closed-loop on the calling thread for a fixed
//! amount of work sized from `--seconds` (see [`Args::units`]), checks
//! its outputs, and prints one line per metric followed by a
//! JSON result as the last line of standard output. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` interleaves traced replicas of
//! the same area rounds and reports the per-layer metrics. See
//! `README.md` beside this package for the workloads and metrics.

mod batch;
mod churn;
mod clock;
mod report;
mod stats;
mod trace;
mod traced;

use std::process::ExitCode;
use std::sync::Mutex;
use std::time::Duration;

use lppa::LppaError;
use lppa_rng::rngs::StdRng;
use lppa_rng::{RngCore, SeedableRng};

use crate::clock::{CpuClock, Meter, NOMINAL, PIECE_BUDGET_NS};

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Run length, which sizes the run's work (see [`Args::units`]).
    pub seconds: Duration,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
}

/// Wall time after which a run stops early, so a run on a host many
/// times slower than the one its rates were measured on still ends.
/// A run cut this way says so in its context line (`truncated=1`).
pub const WALL_LIMIT: Duration = Duration::from_secs(140);

impl Args {
    /// Units of work in a run: `per_second` for every second of
    /// `--seconds`, at least one. The rates are nominal throughputs of
    /// the reference host, so a run there takes about `--seconds`; the
    /// work depends only on `--seed` and `--seconds`, never on how fast
    /// the run goes, so two runs with the same arguments settle the same
    /// areas and fail the same rounds.
    pub fn units(&self, per_second: f64) -> u64 {
        ((self.seconds.as_secs_f64() * per_second).round() as u64).max(1)
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds out of range: {s}"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Derives the `index`-th sub-seed of `seed` for stream `domain`.
pub fn sub_seed(seed: u64, domain: u64, index: u64) -> u64 {
    StdRng::seed_from_u64(seed ^ domain ^ index.rotate_left(32)).next_u64()
}

/// The message of the most recent panic, captured by the hook below so
/// a caught panic can be reported without the default stderr dump.
static LAST_PANIC: Mutex<Option<String>> = Mutex::new(None);

fn install_panic_hook() {
    std::panic::set_hook(Box::new(|info| {
        let msg = if let Some(s) = info.payload().downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = info.payload().downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        let at =
            info.location().map(|l| format!(" at {}:{}", l.file(), l.line())).unwrap_or_default();
        if let Ok(mut slot) = LAST_PANIC.lock() {
            *slot = Some(format!("{msg}{at}"));
        }
    }));
}

/// Runs `f`, turning a panic into `Err(message)`. This is the
/// benchmark's unit boundary: a panicking area round is counted as
/// failed and the run goes on.
pub fn catch<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|_| {
        LAST_PANIC
            .lock()
            .ok()
            .and_then(|mut slot| slot.take())
            .unwrap_or_else(|| "panic without message".to_string())
    })
}

/// An area round's result as the benchmark records it: the value, or
/// the error or panic message.
pub fn flatten<T>(result: Result<Result<T, LppaError>, String>) -> Result<T, String> {
    match result {
        Ok(Ok(value)) => Ok(value),
        Ok(Err(err)) => Err(format!("error: {err}")),
        Err(panic) => Err(format!("panic: {panic}")),
    }
}

/// Every `LPPA_*` variable in the environment, sorted.
fn lppa_env() -> Vec<(String, String)> {
    let mut vars: Vec<(String, String)> =
        std::env::vars().filter(|(k, _)| k.starts_with("LPPA_")).collect();
    vars.sort();
    vars
}

/// The environment the workloads are pinned to: exactly
/// `LPPA_THREADS=1`, so every `lppa-par` call runs inline on the
/// calling thread, and no other `LPPA_*` knob that could switch a
/// backend, fault profile, arena or kernel behind the benchmark's back.
fn check_env() -> Result<(), String> {
    let vars = lppa_env();
    if !vars.iter().any(|(k, v)| k == "LPPA_THREADS" && v == "1") {
        return Err("LPPA_THREADS=1 is required (run through perfbench/run.py)".into());
    }
    if let Some((k, v)) = vars.iter().find(|(k, _)| k != "LPPA_THREADS") {
        return Err(format!("{k}={v} is set; the benchmark pins every knob itself"));
    }
    if lppa_par::thread_count() != 1 {
        return Err("lppa-par reports more than one worker".into());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("error: {err}");
            return ExitCode::from(2);
        }
    };
    if let Err(err) = check_env() {
        eprintln!("error: {err}");
        return ExitCode::from(2);
    }
    install_panic_hook();
    let mut meter = Meter::new(CpuClock, NOMINAL, PIECE_BUDGET_NS);
    let result = match args.workload.as_str() {
        "fleet" => batch::run(&args, &batch::FLEET, &mut meter),
        "wire129" => batch::run(&args, &batch::WIRE129, &mut meter),
        "churn" => churn::run(&args, &mut meter),
        other => {
            eprintln!("error: unknown workload {other} (fleet, churn, wire129)");
            return ExitCode::from(2);
        }
    };
    let context = report::Context {
        workload: &args.workload,
        seed: args.seed,
        lane_width: lppa_crypto::lanes::lane_width(),
        cpu_features: lppa_crypto::lanes::cpu_features(),
        env: lppa_env(),
        nominal: meter.nominal(),
        refs: meter.refs(),
        long_pieces: meter.long_pieces(),
    };
    report::print(&context, &result, args.trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(seconds: f64) -> Args {
        Args {
            workload: "wire129".into(),
            seed: 1,
            seconds: Duration::from_secs_f64(seconds),
            trace: false,
        }
    }

    #[test]
    fn work_is_sized_from_seconds_alone() {
        assert_eq!(args(30.0).units(16.0), 480);
        assert_eq!(args(30.0).units(13.0), 390);
        assert_eq!(args(2.5).units(3.0), 8);
        assert_eq!(args(0.01).units(16.0), 1, "at least one unit");
        assert_eq!(args(30.0).units(70.0).div_ceil(30), 70);
    }
}
