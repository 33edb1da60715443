//! Experiment harness regenerating every figure of the LPPA paper.
//!
//! Each binary in `src/bin/` prints one figure's data as CSV; this
//! library holds the shared experiment logic so Criterion benches and
//! binaries agree on workloads:
//!
//! * [`experiments::attack_sweep`] — Fig. 4 (a)(b)(c): BCM/BPM
//!   effectiveness vs number of channels and across areas;
//! * [`experiments::lppa_privacy_sweep`] — Fig. 5 (a)–(d): the four
//!   privacy metrics with and without LPPA, vs zero-replace probability;
//! * [`experiments::lppa_performance_sweep`] — Fig. 5 (e)(f): revenue
//!   and satisfaction cost of LPPA.

// The counting global allocator (`count-allocs` feature) is the one
// place in the workspace that needs `unsafe`: a `GlobalAlloc` impl is an
// unsafe trait by definition. The default build keeps the workspace-wide
// forbid; the feature build downgrades it to deny with a scoped allow on
// that single module.
#![cfg_attr(not(feature = "count-allocs"), forbid(unsafe_code))]
#![cfg_attr(feature = "count-allocs", deny(unsafe_code))]
#![warn(missing_docs)]

pub mod alloc_count;
pub mod experiments;

/// Emits the standard machine-context metadata line for a bench group:
/// the SHA-256 lane width the CPU detection picked, the worker-thread
/// configuration, and the detected CPU feature flags. Committed
/// baseline files (e.g. `results/BENCH_pr5_*.json`) carry these lines
/// so before/after runs stay interpretable — a "before" captured on a
/// SHA-NI host is distinguishable from one captured on an AVX2-only
/// machine, and a two-thread run from a single-thread one.
pub fn machine_context(b: &mut lppa_rng::bench::Bench) {
    let lanes = lppa_crypto::lanes::lane_width().to_string();
    let threads = std::env::var(lppa_par::THREADS_ENV)
        .unwrap_or_else(|_| format!("auto({})", lppa_par::thread_count()));
    b.context(&[
        ("sha_lanes", &lanes),
        ("threads", &threads),
        ("cpu_features", &lppa_crypto::lanes::cpu_features()),
    ]);
}

/// Tiny CSV helpers shared by the figure binaries.
pub mod csv {
    /// Prints a CSV header line.
    pub fn header(columns: &[&str]) {
        println!("{}", columns.join(","));
    }

    /// Formats a float with fixed precision for CSV cells.
    pub fn f(value: f64) -> String {
        format!("{value:.4}")
    }
}
