//! `lppa-oracle`: the differential-testing backstop of the workspace.
//!
//! LPPA's core promise is an equivalence: the auctioneer working over
//! HMAC-masked prefix tables must reach the same conflict graph, the
//! same winners and the same first-price charges as the plaintext
//! auction (Algorithms 1–3 of the paper), while the fast paths (PR 2)
//! and the fault-tolerant session (PR 3) multiplied the number of
//! implementations of every step. This crate re-proves the equivalences
//! continuously:
//!
//! * [`scenario`] — seeded random scenario generation; a [`Scenario`]
//!   is concrete data (config, locations, bid rows, disguise policy),
//!   so it can be shrunk structurally and serialized whole;
//! * [`pipelines`] — runs one scenario through the plaintext reference,
//!   the masked pipeline, and every shipped variant pair (pairwise vs
//!   indexed conflict graphs, serial vs parallel fan-out, direct vs
//!   midstate HMAC, oblivious vs iterative charging, plain runner vs
//!   `lppa-session` round) plus three metamorphic rebuilds;
//! * [`invariants`] — the named-invariant registry the runs are judged
//!   against;
//! * [`shrink`](mod@shrink) — the greedy structural minimizer (halve bidders, drop
//!   channels, shrink `w`) that reduces a failure to a minimal repro;
//! * [`repro`] — self-contained `repro_<seed>.json` files with a
//!   one-line re-run command, written and parsed without external
//!   dependencies.
//!
//! The `fuzz` binary in `lppa-bench` drives N scenarios per invocation
//! and emits a line-oriented JSON report compatible with the bench
//! harness.
//!
//! # Examples
//!
//! ```
//! use lppa_oracle::{fuzz_one, scenario::ScenarioParams};
//!
//! let verdict = fuzz_one(&ScenarioParams::default(), 7);
//! assert!(verdict.violations.is_empty(), "{:?}", verdict.violations);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fixture;
pub mod invariants;
pub mod pipelines;
pub mod repro;
pub mod scenario;
pub mod shrink;

pub use invariants::{check_all, registry, Invariant, Violation, PIPELINE_ERROR};
pub use pipelines::ScenarioRun;
pub use repro::{from_json, repro_file_name, rerun_command, to_json, Repro};
pub use scenario::{DisguiseSpec, Scenario, ScenarioBuilder, ScenarioParams};
pub use shrink::{shrink, violation_of, ShrinkResult};

/// The verdict of one fuzzed scenario.
#[derive(Clone, Debug)]
pub struct ScenarioVerdict {
    /// The scenario that ran (unshrunk).
    pub scenario: Scenario,
    /// Every invariant violation it produced (empty on a clean pass).
    pub violations: Vec<Violation>,
}

/// Runs the scenario derived from `seed` through every pipeline and the
/// whole invariant registry. Pipeline errors are reported as the
/// [`PIPELINE_ERROR`] pseudo-invariant rather than propagated — for a
/// generated scenario, "the pipeline refused to run" is a finding, not
/// an excuse.
pub fn fuzz_one(params: &ScenarioParams, seed: u64) -> ScenarioVerdict {
    let scenario = Scenario::generate(params, seed);
    let violations = run_scenario(&scenario);
    ScenarioVerdict { scenario, violations }
}

/// Executes a concrete scenario and evaluates the registry.
pub fn run_scenario(scenario: &Scenario) -> Vec<Violation> {
    match ScenarioRun::execute(scenario.clone()) {
        Ok(run) => check_all(&run),
        Err(e) => vec![Violation { invariant: PIPELINE_ERROR, detail: e.to_string() }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzz_one_is_deterministic() {
        let params = ScenarioParams::default();
        let a = fuzz_one(&params, 3);
        let b = fuzz_one(&params, 3);
        assert_eq!(a.scenario, b.scenario);
        assert_eq!(a.violations, b.violations);
    }

    #[test]
    fn run_scenario_reports_pipeline_errors_as_findings() {
        let mut scenario = Scenario::builder(9).bidders(3).channels(1).build();
        scenario.rows[1][0] = scenario.config.bid_max() + 1;
        let violations = run_scenario(&scenario);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].invariant, PIPELINE_ERROR);
    }
}
