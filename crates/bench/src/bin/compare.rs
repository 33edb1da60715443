//! Diffs two bench-harness JSON files and prints per-benchmark speedups.
//!
//! The `lppa_rng::bench` harness emits one JSON object per line:
//!
//! ```json
//! {"group":"crypto","bench":"sha256/64B","iters":123,"mean_ns":640.88,...}
//! ```
//!
//! This tool joins two such files on `group` + `bench` and reports
//! `before_mean / after_mean` for every benchmark present in both
//! (speedup > 1 means *after* is faster), plus a geometric-mean summary.
//! Benchmarks present in only one file are listed separately so silent
//! coverage changes cannot hide in the diff. A bench that appears more
//! than once in a file keeps its fastest record (smallest `mean_ns`), so
//! a baseline made by concatenating N runs gates on the best of N.
//!
//! Usage:
//!
//! ```text
//! compare results/BENCH_pr2_before.json results/BENCH_pr2_after.json
//! compare BENCH_pr2_before.json BENCH_pr2_after.json   # same thing
//! compare --max-regress 1.10 baseline.json current.json
//! compare --filter allocs_per_round --max-regress 1.05 budget.json run.json
//! ```
//!
//! `--max-regress F` turns the diff into a CI gate: every joined
//! benchmark whose `after/before` ratio exceeds `F` (i.e. *after* is
//! more than `F×` the baseline) is reported as a regression, and the
//! tool exits nonzero if any metric — not just the geometric mean —
//! regresses past the bound. `--filter SUBSTR` restricts the join to
//! benchmarks whose `group/bench` name contains `SUBSTR`, so a gate can
//! target one metric family (e.g. `allocs_per_round`) without being
//! perturbed by unrelated timings.
//!
//! A bare `BENCH_*.json` name that does not exist relative to the
//! current directory is retried under `results/` — the committed layout
//! (see the README's *Load testing* section) — so comparisons can be
//! typed without the directory prefix from the repo root.
//!
//! The parser is hand-rolled for the harness's flat numeric/string
//! objects — the workspace is hermetic and takes no serde dependency.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// One parsed benchmark line: the mean latency keyed by `group/bench`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Sample {
    mean_ns: f64,
}

/// Extracts the JSON string value for `key`, if present.
///
/// Harness output never escapes quotes inside names, so scanning to the
/// next `"` is exact for the files this tool consumes.
fn json_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":\"");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let end = rest.find('"')?;
    Some(&rest[..end])
}

/// Extracts the JSON numeric value for `key`, if present.
fn json_num(line: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Extracts the flattened `"k=v k=v"` body of a machine-context
/// metadata line (`{"group":...,"context":{...}}`), if this is one.
fn context_body(line: &str) -> Option<String> {
    let needle = "\"context\":{";
    let start = line.find(needle)? + needle.len();
    let body = &line[start..line[start..].find('}')? + start];
    Some(body.replace("\":\"", "=").replace("\",\"", " ").replace('"', ""))
}

/// Resolves a report path: a bare `BENCH_*.json` file name that does
/// not exist as given is looked up under the committed `results/`
/// directory before giving up.
fn resolve_path(path: &str) -> String {
    if std::path::Path::new(path).exists() {
        return path.to_string();
    }
    let p = std::path::Path::new(path);
    if p.parent().is_none_or(|d| d.as_os_str().is_empty())
        && path.starts_with("BENCH_")
        && path.ends_with(".json")
    {
        let under_results = format!("results/{path}");
        if std::path::Path::new(&under_results).exists() {
            return under_results;
        }
    }
    path.to_string()
}

/// Parses a whole bench file into `group/bench → sample` plus the
/// deduplicated machine-context lines (see [`parse_records`]).
fn parse_file(path: &str) -> Result<(BTreeMap<String, Sample>, Vec<String>), String> {
    let path = &resolve_path(path);
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let (out, contexts) = parse_records(&text);
    if out.is_empty() {
        return Err(format!("{path}: no benchmark records found"));
    }
    Ok((out, contexts))
}

/// Parses bench lines into `group/bench → sample` plus the deduplicated
/// machine-context lines, skipping anything else. A bench recorded more
/// than once keeps its fastest record.
fn parse_records(text: &str) -> (BTreeMap<String, Sample>, Vec<String>) {
    let mut out: BTreeMap<String, Sample> = BTreeMap::new();
    let mut contexts: Vec<String> = Vec::new();
    for line in text.lines() {
        if let Some(ctx) = context_body(line) {
            if !contexts.contains(&ctx) {
                contexts.push(ctx);
            }
            continue;
        }
        let (Some(group), Some(bench), Some(mean_ns)) =
            (json_str(line, "group"), json_str(line, "bench"), json_num(line, "mean_ns"))
        else {
            continue;
        };
        out.entry(format!("{group}/{bench}"))
            .and_modify(|kept| kept.mean_ns = kept.mean_ns.min(mean_ns))
            .or_insert(Sample { mean_ns });
    }
    (out, contexts)
}

/// Parsed command line: the two report paths plus gating options.
#[derive(Debug, PartialEq)]
struct Cli {
    before_path: String,
    after_path: String,
    /// Fail if any joined metric's `after/before` exceeds this ratio.
    max_regress: Option<f64>,
    /// Join only benchmarks whose `group/bench` contains this substring.
    filter: Option<String>,
}

/// Parses `compare`'s arguments (excluding `argv[0]`).
fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut positional: Vec<&String> = Vec::new();
    let mut max_regress = None;
    let mut filter = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--max-regress" => {
                let v = it.next().ok_or("--max-regress needs a ratio (e.g. 1.10)")?;
                let ratio: f64 =
                    v.parse().map_err(|_| format!("--max-regress: not a number: {v}"))?;
                if !(ratio.is_finite() && ratio > 0.0) {
                    return Err(format!("--max-regress: ratio must be positive, got {v}"));
                }
                max_regress = Some(ratio);
            }
            "--filter" => {
                filter = Some(it.next().ok_or("--filter needs a substring")?.clone());
            }
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            _ => positional.push(arg),
        }
    }
    let [before_path, after_path] = positional[..] else {
        return Err(
            "usage: compare [--max-regress F] [--filter SUBSTR] <before.json> <after.json>"
                .to_string(),
        );
    };
    Ok(Cli {
        before_path: before_path.clone(),
        after_path: after_path.clone(),
        max_regress,
        filter,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(err) => {
            eprintln!("error: {err}");
            return ExitCode::FAILURE;
        }
    };
    let (before_path, after_path) = (&cli.before_path, &cli.after_path);
    let ((before, before_ctx), (after, after_ctx)) =
        match (parse_file(before_path), parse_file(after_path)) {
            (Ok(b), Ok(a)) => (b, a),
            (b, a) => {
                for err in [b.err(), a.err()].into_iter().flatten() {
                    eprintln!("error: {err}");
                }
                return ExitCode::FAILURE;
            }
        };
    for (label, contexts) in [("before", &before_ctx), ("after", &after_ctx)] {
        for ctx in contexts {
            println!("{label} context: {ctx}");
        }
    }

    let keep = |name: &str| cli.filter.as_deref().is_none_or(|f| name.contains(f));
    let width =
        before.keys().chain(after.keys()).filter(|n| keep(n)).map(String::len).max().unwrap_or(0);
    println!("{:width$}  {:>12}  {:>12}  {:>8}", "benchmark", "before", "after", "speedup");
    let mut log_sum = 0.0f64;
    let mut joined = 0usize;
    let mut regressions: Vec<(String, f64)> = Vec::new();
    for (name, b) in before.iter().filter(|(n, _)| keep(n)) {
        let Some(a) = after.get(name) else { continue };
        let speedup = b.mean_ns / a.mean_ns;
        log_sum += speedup.ln();
        joined += 1;
        let ratio = a.mean_ns / b.mean_ns;
        let flag = match cli.max_regress {
            Some(bound) if ratio > bound => {
                regressions.push((name.clone(), ratio));
                "  REGRESSED"
            }
            _ => "",
        };
        println!(
            "{name:width$}  {:>10.0}ns  {:>10.0}ns  {speedup:>7.2}x{flag}",
            b.mean_ns, a.mean_ns
        );
    }
    if joined > 0 {
        println!(
            "{:width$}  {:>12}  {:>12}  {:>7.2}x",
            "geometric mean",
            "",
            "",
            (log_sum / joined as f64).exp()
        );
    }
    for name in before.keys().filter(|n| keep(n) && !after.contains_key(*n)) {
        println!("only in before: {name}");
    }
    for name in after.keys().filter(|n| keep(n) && !before.contains_key(*n)) {
        println!("only in after:  {name}");
    }
    if joined == 0 {
        eprintln!("error: the two files share no benchmarks");
        if let Some(f) = &cli.filter {
            eprintln!("(filter was: {f})");
        }
        return ExitCode::FAILURE;
    }
    if let Some(bound) = cli.max_regress {
        if regressions.is_empty() {
            println!("gate: all {joined} metrics within {bound:.2}x of baseline");
        } else {
            eprintln!(
                "gate: {} of {joined} metrics regressed past --max-regress {bound:.2}:",
                regressions.len()
            );
            for (name, ratio) in &regressions {
                eprintln!("  {name}: {ratio:.3}x of baseline");
            }
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = r#"{"group":"crypto","bench":"sha256/64B","iters":440520,"mean_ns":640.88,"min_ns":523.63,"median_ns":651.05,"max_ns":698.30,"throughput_mib_s":95.24}"#;

    #[test]
    fn extracts_string_and_numeric_fields() {
        assert_eq!(json_str(LINE, "group"), Some("crypto"));
        assert_eq!(json_str(LINE, "bench"), Some("sha256/64B"));
        assert_eq!(json_num(LINE, "mean_ns"), Some(640.88));
        // The last field is closed by `}` rather than a comma.
        assert_eq!(json_num(LINE, "throughput_mib_s"), Some(95.24));
        assert_eq!(json_str(LINE, "missing"), None);
        assert_eq!(json_num(LINE, "missing"), None);
    }

    #[test]
    fn context_lines_are_detected_and_flattened() {
        let line = r#"{"group":"crypto","context":{"sha_lanes":"8","threads":"auto(1)","cpu_features":"sse2 avx2"}}"#;
        assert_eq!(
            context_body(line).as_deref(),
            Some("sha_lanes=8 threads=auto(1) cpu_features=sse2 avx2")
        );
        // Benchmark records are not context lines.
        assert_eq!(context_body(LINE), None);
    }

    #[test]
    fn bare_bench_names_fall_back_to_results_dir_only() {
        // Non-BENCH names and missing bare names pass through untouched,
        // so the error message shows the path as typed.
        assert_eq!(resolve_path("nope.json"), "nope.json");
        assert_eq!(resolve_path("BENCH_missing_for_sure.json"), "BENCH_missing_for_sure.json");
        // A path with a directory component is never rewritten.
        assert_eq!(resolve_path("elsewhere/BENCH_x.json"), "elsewhere/BENCH_x.json");
    }

    #[test]
    fn cli_parses_gate_options_in_any_position() {
        let to_vec = |s: &[&str]| s.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        let cli = parse_cli(&to_vec(&["--max-regress", "1.10", "a.json", "b.json"])).unwrap();
        assert_eq!(cli.before_path, "a.json");
        assert_eq!(cli.after_path, "b.json");
        assert_eq!(cli.max_regress, Some(1.10));
        assert_eq!(cli.filter, None);
        let cli =
            parse_cli(&to_vec(&["a.json", "--filter", "allocs_per_round", "b.json"])).unwrap();
        assert_eq!(cli.filter.as_deref(), Some("allocs_per_round"));
        assert_eq!(cli.max_regress, None);
    }

    #[test]
    fn cli_rejects_bad_gate_arguments() {
        let to_vec = |s: &[&str]| s.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        assert!(parse_cli(&to_vec(&["a.json"])).is_err());
        assert!(parse_cli(&to_vec(&["a.json", "b.json", "c.json"])).is_err());
        assert!(parse_cli(&to_vec(&["--max-regress", "zero", "a.json", "b.json"])).is_err());
        assert!(parse_cli(&to_vec(&["--max-regress", "-1", "a.json", "b.json"])).is_err());
        assert!(parse_cli(&to_vec(&["--max-regress"])).is_err());
        assert!(parse_cli(&to_vec(&["--bogus", "a.json", "b.json"])).is_err());
    }

    #[test]
    fn a_repeated_bench_keeps_its_fastest_record() {
        let text = [
            r#"{"group":"allocation","bench":"collect","iters":3,"mean_ns":7.5}"#,
            r#"{"group":"allocation","bench":"collect","iters":3,"mean_ns":4.25}"#,
            r#"{"group":"allocation","bench":"other","iters":3,"mean_ns":9.0}"#,
            r#"{"group":"allocation","bench":"collect","iters":3,"mean_ns":6.0}"#,
        ]
        .join("\n");
        let (records, contexts) = parse_records(&text);
        assert_eq!(records.len(), 2);
        assert_eq!(records["allocation/collect"], Sample { mean_ns: 4.25 });
        assert_eq!(records["allocation/other"], Sample { mean_ns: 9.0 });
        assert!(contexts.is_empty());
    }

    #[test]
    fn non_record_lines_are_ignored_by_field_extraction() {
        assert_eq!(json_str("plain text", "group"), None);
        assert_eq!(json_num("{\"group\":\"x\"}", "mean_ns"), None);
    }
}
