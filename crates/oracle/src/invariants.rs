//! The named-invariant registry.
//!
//! Each invariant is a pure predicate over a [`ScenarioRun`]; a failure
//! carries the invariant's registry name (so the shrinker can chase
//! exactly that failure) and a human-readable detail string. Invariants
//! whose precondition a scenario does not meet (e.g. exact equivalence
//! on a tied or disguised scenario) pass vacuously — the generator
//! keeps all preconditions populated across a fuzzing run.

use lppa_auction::allocation::Grant;
use lppa_auction::bidder::BidderId;
use lppa_auction::conflict::ConflictGraph;
use lppa_auction::outcome::AuctionOutcome;
use lppa_crypto::hmac::{hmac_sha256, HmacMidstate, HmacSha256};
use lppa_prefix::{max_cover_len, range_prefixes};
use lppa_rng::rngs::StdRng;
use lppa_rng::{Rng, RngCore, SeedableRng};
use lppa_spectrum::ChannelId;

use crate::pipelines::ScenarioRun;

/// One invariant failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Registry name of the violated invariant.
    pub invariant: &'static str,
    /// What exactly diverged.
    pub detail: String,
}

/// The pseudo-invariant name used when a pipeline errors out instead of
/// producing a result to check.
pub const PIPELINE_ERROR: &str = "pipeline_error";

/// A named check over an executed scenario.
pub struct Invariant {
    /// Registry name (stable; repro files reference it).
    pub name: &'static str,
    /// One-line description for reports and docs.
    pub summary: &'static str,
    /// The predicate; `Err(detail)` on violation.
    pub check: fn(&ScenarioRun) -> Result<(), String>,
}

/// Every registered invariant, in evaluation order.
pub fn registry() -> Vec<Invariant> {
    vec![
        Invariant {
            name: "conflict_graph_cross_check",
            summary: "indexed, pairwise and plaintext conflict graphs agree",
            check: conflict_graph_cross_check,
        },
        Invariant {
            name: "serial_parallel_fanout",
            summary: "serial and lppa-par submission builds are bit-identical",
            check: serial_parallel_fanout,
        },
        Invariant {
            name: "hmac_midstate_direct",
            summary: "midstate HMAC equals direct and streaming HMAC",
            check: hmac_midstate_direct,
        },
        Invariant {
            name: "batch_scalar_tags",
            summary: "multi-lane batched tags equal scalar Tag::compute at every lane width",
            check: batch_scalar_tags,
        },
        Invariant {
            name: "prefix_cover_bound",
            summary: "every range cover is padded to max_cover_len ≤ max(2, 2w−2)",
            check: prefix_cover_bound,
        },
        Invariant {
            name: "maxima_variants",
            summary: "the minimum-class winner set equals the linear masked-scan maxima",
            check: maxima_variants,
        },
        Invariant {
            name: "outcome_equivalence",
            summary: "masked grants equal plaintext grants (tie-free, undisguised)",
            check: outcome_equivalence,
        },
        Invariant {
            name: "interference_freedom",
            summary: "no two conflicting bidders hold the same channel",
            check: interference_freedom,
        },
        Invariant {
            name: "charge_correctness",
            summary: "every charge is the winner's true first-price bid",
            check: charge_correctness,
        },
        Invariant {
            name: "invalid_grants_are_zeros",
            summary: "only true raw zeros are ever invalidated",
            check: invalid_grants_are_zeros,
        },
        Invariant {
            name: "winner_uniqueness",
            summary: "a bidder holds at most one channel",
            check: winner_uniqueness,
        },
        Invariant {
            name: "session_consistency",
            summary: "session runs are deterministic, resumable, and match the plain runner",
            check: session_consistency,
        },
        Invariant {
            name: "wire_socket_equivalence",
            summary:
                "live-socket rounds and killed-and-resumed sessions equal the simulated wire round",
            check: wire_socket_equivalence,
        },
        Invariant {
            name: "service_sequential_equivalence",
            summary: "sharded service outcomes equal the unsharded sequential reference",
            check: service_sequential_equivalence,
        },
        Invariant {
            name: "incremental_equals_rebuild",
            summary: "delta-applied churn rounds settle identically to per-round rebuilds",
            check: incremental_equals_rebuild,
        },
        Invariant {
            name: "backend_outcome_equivalence",
            summary:
                "exact masking backends settle bit-identically; bloom stays within its FP budget",
            check: backend_outcome_equivalence,
        },
        Invariant {
            name: "backend_arena_pool_equivalence",
            summary:
                "one scratch pool reused across all builds and every backend settles bit-identically",
            check: backend_arena_pool_equivalence,
        },
        Invariant {
            name: "vickrey_charge_correctness",
            summary:
                "Vickrey winners pay the critical losing bid, and misreporting never helps them",
            check: vickrey_charge_correctness,
        },
        Invariant {
            name: "permutation_invariance",
            summary: "relabeling bidders permutes the outcome and nothing else",
            check: permutation_invariance,
        },
        Invariant {
            name: "key_rotation_invariance",
            summary: "per-round key rotation leaves the outcome fixed",
            check: key_rotation_invariance,
        },
        Invariant {
            name: "transform_shift_invariance",
            summary: "shifting rd / scaling cr preserves winners and charges",
            check: transform_shift_invariance,
        },
    ]
}

/// Evaluates the whole registry; returns every violation found.
pub fn check_all(run: &ScenarioRun) -> Vec<Violation> {
    registry()
        .iter()
        .filter_map(|inv| {
            (inv.check)(run).err().map(|detail| Violation { invariant: inv.name, detail })
        })
        .collect()
}

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

/// `(bidder, channel, price)` triples, sorted — the order-insensitive
/// projection of an outcome.
fn assignment_set(outcome: &AuctionOutcome) -> Vec<(usize, usize, u32)> {
    let mut set: Vec<_> =
        outcome.assignments().iter().map(|a| (a.bidder.0, a.channel.0, a.price)).collect();
    set.sort_unstable();
    set
}

fn grant_set(grants: &[Grant]) -> Vec<(usize, usize)> {
    let mut set: Vec<_> = grants.iter().map(|g| (g.bidder.0, g.channel.0)).collect();
    set.sort_unstable();
    set
}

/// Checks that no channel is held by two conflicting bidders.
fn grants_interference_free(
    grants: &[Grant],
    conflicts: &ConflictGraph,
    k: usize,
    label: &str,
) -> Result<(), String> {
    for ch in 0..k {
        let holders: Vec<BidderId> =
            grants.iter().filter(|g| g.channel.0 == ch).map(|g| g.bidder).collect();
        if !conflicts.is_independent(&holders) {
            return Err(format!("{label}: channel {ch} holders {holders:?} conflict"));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Invariants
// ---------------------------------------------------------------------

fn conflict_graph_cross_check(run: &ScenarioRun) -> Result<(), String> {
    if run.graph_indexed != run.graph_pairwise {
        return Err("TagIndex conflict graph differs from pairwise reference".into());
    }
    if run.graph_indexed != run.plain.conflicts {
        return Err("masked conflict graph differs from plaintext ground truth".into());
    }
    Ok(())
}

fn serial_parallel_fanout(run: &ScenarioRun) -> Result<(), String> {
    if run.parallel_checksums != run.serial_checksums {
        return Err(format!(
            "parallel fan-out checksums {:?} != serial reference {:?}",
            run.parallel_checksums, run.serial_checksums
        ));
    }
    Ok(())
}

fn hmac_midstate_direct(run: &ScenarioRun) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(run.scenario.seed ^ 0x4dac_0000_0000_0001);
    for case in 0..8 {
        let mut key = vec![0u8; rng.gen_range(1..=80)];
        rng.fill_bytes(&mut key);
        let mut msg = vec![0u8; rng.gen_range(0..=64)];
        rng.fill_bytes(&mut msg);

        let direct = hmac_sha256(&key, &msg);
        let midstate = HmacMidstate::new(&key).compute(&msg);
        if direct != midstate {
            return Err(format!("case {case}: midstate HMAC differs from direct HMAC"));
        }
        let mut streaming = HmacSha256::new(&key);
        let split = msg.len() / 2;
        streaming.update(&msg[..split]);
        streaming.update(&msg[split..]);
        if streaming.finalize() != direct {
            return Err(format!("case {case}: streaming HMAC differs from one-shot HMAC"));
        }
    }
    Ok(())
}

fn batch_scalar_tags(run: &ScenarioRun) -> Result<(), String> {
    let probe = &run.tag_kernel;
    if probe.scalar.len() != probe.messages.len() {
        return Err(format!(
            "probe produced {} scalar tags for {} messages",
            probe.scalar.len(),
            probe.messages.len()
        ));
    }
    for (width, tags) in &probe.batched {
        if tags != &probe.scalar {
            let i = probe.scalar.iter().zip(tags).position(|(a, b)| a != b).unwrap_or(0);
            return Err(format!(
                "lane width {width}: batched tag {i} (message len {}) differs from scalar",
                probe.messages.get(i).map_or(0, Vec::len)
            ));
        }
    }
    if probe.default_batch != probe.scalar {
        return Err("process-default batch width differs from scalar tags".into());
    }
    Ok(())
}

fn prefix_cover_bound(run: &ScenarioRun) -> Result<(), String> {
    let config = &run.scenario.config;
    let w = config.transformed_bits();
    let bound = std::cmp::max(2, 2 * usize::from(w) - 2);
    if max_cover_len(w) > bound {
        return Err(format!(
            "max_cover_len({w}) = {} exceeds max(2, 2w−2) = {bound}",
            max_cover_len(w)
        ));
    }
    for (i, sub) in run.submissions.iter().enumerate() {
        for (ch, bid) in sub.bids.bids().iter().enumerate() {
            if bid.range.len() != max_cover_len(w) {
                return Err(format!(
                    "bidder {i} channel {ch}: range has {} tags, expected padded {}",
                    bid.range.len(),
                    max_cover_len(w)
                ));
            }
            if bid.point.len() != usize::from(w) + 1 {
                return Err(format!(
                    "bidder {i} channel {ch}: point has {} tags, expected {}",
                    bid.point.len(),
                    usize::from(w) + 1
                ));
            }
        }
    }
    // Minimal (unpadded) covers of random intervals respect the
    // Theorem-4 bound too.
    let mut rng = StdRng::seed_from_u64(run.scenario.seed ^ 0xc07e_0000_0000_0002);
    let max = config.transformed_max();
    for _ in 0..16 {
        let a = rng.gen_range(0..=max);
        let b = rng.gen_range(0..=max);
        let (lo, hi) = (a.min(b), a.max(b));
        let cover = range_prefixes(w, lo, hi).map_err(|e| e.to_string())?;
        if cover.len() > bound {
            return Err(format!(
                "minimal cover of [{lo}, {hi}] has {} > {bound} prefixes",
                cover.len()
            ));
        }
    }
    Ok(())
}

fn maxima_variants(run: &ScenarioRun) -> Result<(), String> {
    use lppa_auction::allocation::BidOracle;
    let table = &run.table_pruned;
    let n = table.n_bidders();
    let mut rng = StdRng::seed_from_u64(run.scenario.seed ^ 0x3a1_0000_0000_0003);
    for ch in 0..table.n_channels() {
        let channel = ChannelId(ch);
        let all: Vec<BidderId> =
            (0..n).map(BidderId).filter(|&b| table.has_entry(b, channel)).collect();
        let mut subsets = vec![all.clone()];
        if all.len() > 1 {
            let sub: Vec<BidderId> = all.iter().copied().filter(|_| rng.gen_bool(0.6)).collect();
            if !sub.is_empty() {
                subsets.push(sub);
            }
        }
        for candidates in subsets {
            if candidates.is_empty() {
                continue;
            }
            // The production selection draws among the minimum-class
            // candidates; the reference collects every candidate `≥` a
            // tournament champion with masked tests.
            let classes = &table.classes()[ch];
            let best = candidates.iter().map(|c| classes[c.0]).min();
            let by_class: Vec<BidderId> =
                candidates.iter().copied().filter(|c| Some(classes[c.0]) == best).collect();
            let linear = table.maxima_linear(channel, &candidates);
            if by_class != linear {
                return Err(format!(
                    "channel {ch}: class winner set {by_class:?} != maxima_linear {linear:?} over {candidates:?}"
                ));
            }
        }
    }
    Ok(())
}

fn outcome_equivalence(run: &ScenarioRun) -> Result<(), String> {
    if !run.strong_equivalence_applies() {
        return Ok(());
    }
    if run.masked.grants != run.plain.grants {
        return Err(format!(
            "masked grant sequence {:?} != plaintext {:?}",
            grant_set(&run.masked.grants),
            grant_set(&run.plain.grants)
        ));
    }
    if !run.masked.invalid_grants.is_empty() {
        return Err(format!(
            "undisguised scenario produced invalid grants {:?}",
            run.masked.invalid_grants
        ));
    }
    let masked = assignment_set(&run.masked.outcome);
    let plain = assignment_set(&run.plain.outcome);
    if masked != plain {
        return Err(format!("masked assignments {masked:?} != plaintext {plain:?}"));
    }
    Ok(())
}

fn interference_freedom(run: &ScenarioRun) -> Result<(), String> {
    let k = run.scenario.n_channels;
    let conflicts = &run.plain.conflicts;
    grants_interference_free(&run.plain.grants, conflicts, k, "plain")?;
    grants_interference_free(&run.masked.grants, conflicts, k, "masked")?;
    grants_interference_free(&run.oblivious.grants, conflicts, k, "oblivious")?;
    Ok(())
}

fn charge_correctness(run: &ScenarioRun) -> Result<(), String> {
    let rows = &run.scenario.rows;
    for (label, result) in [("masked", &run.masked), ("oblivious", &run.oblivious)] {
        for a in result.outcome.assignments() {
            let raw = rows[a.bidder.0][a.channel.0];
            if a.price != raw || a.price == 0 {
                return Err(format!(
                    "{label}: bidder {} charged {} on channel {}, true bid {raw}",
                    a.bidder.0, a.price, a.channel.0
                ));
            }
        }
    }
    for a in run.plain.outcome.assignments() {
        let raw = rows[a.bidder.0][a.channel.0];
        if a.price != raw || a.price == 0 {
            return Err(format!(
                "plain: bidder {} charged {} on channel {}, true bid {raw}",
                a.bidder.0, a.price, a.channel.0
            ));
        }
    }
    Ok(())
}

fn invalid_grants_are_zeros(run: &ScenarioRun) -> Result<(), String> {
    let rows = &run.scenario.rows;
    for (label, result) in [("masked", &run.masked), ("oblivious", &run.oblivious)] {
        for g in &result.invalid_grants {
            let raw = rows[g.bidder.0][g.channel.0];
            if raw != 0 {
                return Err(format!(
                    "{label}: invalidated grant ({}, {}) has true bid {raw} ≠ 0",
                    g.bidder.0, g.channel.0
                ));
            }
        }
    }
    Ok(())
}

fn winner_uniqueness(run: &ScenarioRun) -> Result<(), String> {
    for (label, grants) in [
        ("plain", &run.plain.grants),
        ("masked", &run.masked.grants),
        ("oblivious", &run.oblivious.grants),
    ] {
        let mut seen = std::collections::HashSet::new();
        for g in grants.iter() {
            if !seen.insert(g.bidder.0) {
                return Err(format!("{label}: bidder {} granted twice", g.bidder.0));
            }
        }
    }
    Ok(())
}

fn session_consistency(run: &ScenarioRun) -> Result<(), String> {
    let Some(session) = &run.session else {
        return Ok(()); // starved below quorum under chaos — legitimate
    };
    let fp = session.outcome.fingerprint();
    if fp != session.repeat_fingerprint {
        return Err(format!(
            "same-seed session reruns disagree: {fp:#x} vs {:#x}",
            session.repeat_fingerprint
        ));
    }
    if fp != session.resumed_fingerprint {
        return Err(format!(
            "journal-recovered replay disagrees: {fp:#x} vs {:#x}",
            session.resumed_fingerprint
        ));
    }

    // Charges must be true first prices for original-id assignments.
    let rows = &run.scenario.rows;
    for a in session.outcome.outcome.assignments() {
        let raw = rows[a.bidder.0][a.channel.0];
        if a.price != raw || a.price == 0 {
            return Err(format!(
                "session: bidder {} charged {} on channel {}, true bid {raw}",
                a.bidder.0, a.price, a.channel.0
            ));
        }
    }

    // Interference freedom over the accepted-compact conflict graph.
    let compact_of: std::collections::HashMap<usize, usize> = session
        .outcome
        .accepted
        .iter()
        .enumerate()
        .map(|(compact, &original)| (original, compact))
        .collect();
    for ch in 0..run.scenario.n_channels {
        let holders: Vec<BidderId> =
            session
                .outcome
                .grants
                .iter()
                .filter(|g| g.channel.0 == ch)
                .map(|g| {
                    compact_of.get(&g.bidder.0).copied().map(BidderId).ok_or_else(|| {
                        format!("session: grant for unaccepted bidder {}", g.bidder.0)
                    })
                })
                .collect::<Result<_, _>>()?;
        if !session.outcome.conflicts.is_independent(&holders) {
            return Err(format!("session: channel {ch} holders conflict"));
        }
    }

    // A no-fault session equals the direct pipeline with the session's
    // derived allocation seed.
    if let Some(expected) = &session.expected {
        let n = run.scenario.n_bidders();
        if session.outcome.accepted != (0..n).collect::<Vec<_>>() {
            return Err(format!(
                "no-fault session rejected bidders: accepted {:?}",
                session.outcome.accepted
            ));
        }
        if !session.outcome.provisional.is_empty() {
            return Err(format!(
                "no-fault session left provisional grants {:?}",
                session.outcome.provisional
            ));
        }
        let got = assignment_set(&session.outcome.outcome);
        let want = assignment_set(&expected.outcome);
        if got != want {
            return Err(format!("session assignments {got:?} != plain runner {want:?}"));
        }
        let got_invalid = grant_set(&session.outcome.invalid_grants);
        let want_invalid = grant_set(&expected.invalid_grants);
        if got_invalid != want_invalid {
            return Err(format!(
                "session invalid grants {got_invalid:?} != plain runner {want_invalid:?}"
            ));
        }
    }
    Ok(())
}

fn wire_socket_equivalence(run: &ScenarioRun) -> Result<(), String> {
    let Some(wire) = &run.wire else {
        return Ok(()); // starved below quorum under chaos — legitimate
    };
    let fp = wire.sim.fingerprint();
    if wire.socket_fingerprint != fp {
        return Err(format!(
            "socket round outcome {:#x} != simulated wire round {fp:#x}",
            wire.socket_fingerprint
        ));
    }
    if wire.socket_journal_fingerprint != wire.sim.journal.fingerprint() {
        return Err(format!(
            "socket round journal {:#x} != simulated wire journal {:#x}",
            wire.socket_journal_fingerprint,
            wire.sim.journal.fingerprint()
        ));
    }
    if wire.resumed_fingerprint != fp {
        return Err(format!(
            "mid-charge-killed socket session resumed to {:#x}, expected {fp:#x}",
            wire.resumed_fingerprint
        ));
    }
    // On a reliable link the binary wire path must also agree with the
    // typed in-process session (chaos corrupts typed values and raw
    // bytes differently, so the cross-check is no-fault only).
    if !run.scenario.chaos {
        if let Some(session) = &run.session {
            let typed = session.outcome.fingerprint();
            if fp != typed {
                return Err(format!(
                    "no-fault wire round {fp:#x} != typed session round {typed:#x}"
                ));
            }
        }
    }
    Ok(())
}

fn service_sequential_equivalence(run: &ScenarioRun) -> Result<(), String> {
    let probe = &run.service;
    if probe.sharded != probe.sequential {
        let diff = probe
            .sharded
            .iter()
            .zip(&probe.sequential)
            .find(|(a, b)| a != b)
            .map(|(a, b)| format!("first divergence: sharded {a:?} vs sequential {b:?}"))
            .unwrap_or_else(|| {
                format!(
                    "area counts differ: {} sharded vs {} sequential",
                    probe.sharded.len(),
                    probe.sequential.len()
                )
            });
        return Err(format!("sharded service diverged from sequential reference; {diff}"));
    }
    if probe.sharded_errors != probe.sequential_errors {
        return Err(format!(
            "service error rows diverged: sharded {:?} vs sequential {:?}",
            probe.sharded_errors, probe.sequential_errors
        ));
    }
    if probe.sharded_fingerprint != probe.sequential_fingerprint {
        return Err(format!(
            "aggregate fingerprints diverged: {:#x} vs {:#x}",
            probe.sharded_fingerprint, probe.sequential_fingerprint
        ));
    }
    Ok(())
}

fn incremental_equals_rebuild(run: &ScenarioRun) -> Result<(), String> {
    let probe = &run.churn;
    let inc = &probe.incremental;
    let reb = &probe.rebuild;
    if !inc.errors.is_empty() || !reb.errors.is_empty() {
        return Err(format!(
            "churn probe reported area errors: incremental {:?}, rebuild {:?}",
            inc.errors, reb.errors
        ));
    }
    if inc.fingerprint != reb.fingerprint {
        return Err(format!(
            "churn fingerprints diverged: incremental {:#x} vs rebuild {:#x}",
            inc.fingerprint, reb.fingerprint
        ));
    }
    for (what, a, b) in [
        ("final_bidders", inc.final_bidders, reb.final_bidders),
        ("churn_events", inc.churn_events, reb.churn_events),
        ("total_assignments", inc.total_assignments, reb.total_assignments),
    ] {
        if a != b {
            return Err(format!("churn {what} diverged: incremental {a} vs rebuild {b}"));
        }
    }
    if inc.total_revenue != reb.total_revenue {
        return Err(format!(
            "churn total_revenue diverged: incremental {} vs rebuild {}",
            inc.total_revenue, reb.total_revenue
        ));
    }
    Ok(())
}

/// Looks up a metamorphic run by label; vacuous pass when absent.
fn metamorphic_equivalence(run: &ScenarioRun, label: &str) -> Result<(), String> {
    let Some(meta) = run.metamorphic.iter().find(|m| m.label == label) else {
        return Ok(());
    };
    // Map the variant's outcome back to original bidder ids.
    let mut original_of = vec![usize::MAX; meta.permutation.len()];
    for (original, &variant) in meta.permutation.iter().enumerate() {
        original_of[variant] = original;
    }
    let mut got: Vec<(usize, usize, u32)> = meta
        .result
        .outcome
        .assignments()
        .iter()
        .map(|a| (original_of[a.bidder.0], a.channel.0, a.price))
        .collect();
    got.sort_unstable();
    let want = assignment_set(&run.masked.outcome);
    if got != want {
        return Err(format!("{label}: variant assignments {got:?} != base {want:?}"));
    }
    if !meta.result.invalid_grants.is_empty() {
        return Err(format!(
            "{label}: undisguised variant produced invalid grants {:?}",
            meta.result.invalid_grants
        ));
    }
    Ok(())
}

fn permutation_invariance(run: &ScenarioRun) -> Result<(), String> {
    metamorphic_equivalence(run, "permuted_bidders")
}

fn backend_outcome_equivalence(run: &ScenarioRun) -> Result<(), String> {
    use lppa_prefix::backend::BackendKind;
    let probe = &run.backend;
    let hmac = probe.result(BackendKind::Hmac);

    // The hmac backend replays the masked pipeline's classes and RNG
    // draws, so the equivalence is exact.
    if hmac.result.grants != run.masked.grants
        || assignment_set(&hmac.result.outcome) != assignment_set(&run.masked.outcome)
        || grant_set(&hmac.result.invalid_grants) != grant_set(&run.masked.invalid_grants)
    {
        return Err("hmac backend diverged from the masked pipeline".into());
    }
    if hmac.ledger.is_some() {
        return Err("hmac backend unexpectedly built an audit chain".into());
    }

    // The ledger backend compares exactly like hmac; it only adds the
    // audit chain, which must verify against itself at settle.
    let ledger = probe.result(BackendKind::Ledger);
    if ledger.result.grants != hmac.result.grants
        || assignment_set(&ledger.result.outcome) != assignment_set(&hmac.result.outcome)
        || assignment_set(&ledger.vickrey) != assignment_set(&hmac.vickrey)
    {
        return Err("ledger backend diverged from hmac".into());
    }
    let Some(chain) = ledger.ledger.as_ref() else {
        return Err("ledger backend published no audit chain".into());
    };
    chain.verify().map_err(|e| format!("ledger audit chain invalid: {e}"))?;

    // Bloom is FP-tolerant: never a false negative, and with zero
    // measured false positives the outcome must be exact. The FP budget
    // is counted in *distinct colliding tags*, not flipped probes:
    // probe counts are heavy-tailed because one ~p tag collision is
    // shared by every bidder whose family contains the tag (plain
    // zeros share most of theirs) and by every overlapping `[v, max]`
    // cover, so a single Bernoulli event can flip O(n²) probes. Each
    // distinct tag collides with probability ≤ analytic_fp_rate per
    // (tag, range) trial; the envelope is 2× the expectation plus a
    // small-sample cushion.
    let stats = &probe.bloom_stats;
    if stats.false_negatives != 0 {
        return Err(format!("bloom produced {} false negatives", stats.false_negatives));
    }
    let tag_rate = probe.bloom_params.analytic_fp_rate();
    let budget = (tag_rate * stats.tag_trials as f64).mul_add(2.0, 8.0);
    if stats.false_positive_tags as f64 > budget {
        return Err(format!(
            "bloom: {} distinct colliding tags over {} tag trials ({} probe flips) exceeds \
             budget {budget:.2} (per-tag rate {tag_rate:.2e})",
            stats.false_positive_tags, stats.tag_trials, stats.false_positives
        ));
    }
    let bloom = probe.result(BackendKind::Bloom);
    if stats.false_positives == 0 && bloom.result.grants != hmac.result.grants {
        return Err("bloom diverged without any measured false positive".into());
    }
    // Even a divergent bloom round settles a structurally valid
    // allocation (FPs flip comparisons, never conflict edges).
    grants_interference_free(
        &bloom.result.grants,
        &bloom.result.conflicts,
        run.scenario.n_channels,
        "bloom-backend",
    )
}

/// The pool-reuse grid: `LPPA_BACKEND ∈ {hmac, bloom, ledger}` × pooled
/// or fresh builds must land on the same fingerprints.
///
/// The pooled side rebuilds every submission through **one** shared
/// [`MaskScratch`] — warmed by reclaiming a throwaway build first, so
/// later builds genuinely check recycled sets out of the pool — and each
/// backend then settles those pool-built submissions. The recorded
/// `ScenarioRun` results are the fresh side (fresh allocations
/// everywhere). Checksums pin the
/// builds, grant/assignment sets pin every backend's settlement; any
/// state leaking from one bidder's build to the next, or from one
/// backend's round to the next, shows up as a diff.
fn backend_arena_pool_equivalence(run: &ScenarioRun) -> Result<(), String> {
    use lppa::backend::run_private_auction_with_backend;
    use lppa::protocol::{AuctioneerModel, SuSubmission};
    use lppa_prefix::MaskScratch;

    let scenario = &run.scenario;
    let inputs = scenario.bidder_inputs();
    let policy = scenario.policy();

    let mut scratch = MaskScratch::new();
    let mut seed_rng = StdRng::seed_from_u64(scenario.submission_seed());
    let seeds: Vec<u64> = inputs.iter().map(|_| seed_rng.next_u64()).collect();
    if let (Some(&seed), Some((location, raw))) = (seeds.first(), inputs.first()) {
        let mut child = StdRng::seed_from_u64(seed);
        SuSubmission::build_in(*location, raw, &run.ttp, &policy, &mut child, &mut scratch)
            .map_err(|e| format!("pool warm-up build failed: {e}"))?
            .reclaim(&mut scratch);
    }
    let mut pooled = Vec::with_capacity(inputs.len());
    for (i, (&seed, (location, raw))) in seeds.iter().zip(&inputs).enumerate() {
        let mut child = StdRng::seed_from_u64(seed);
        let sub =
            SuSubmission::build_in(*location, raw, &run.ttp, &policy, &mut child, &mut scratch)
                .map_err(|e| format!("pooled build of bidder {i} failed: {e}"))?;
        if sub.checksum() != run.serial_checksums[i] {
            return Err(format!(
                "pooled rebuild of bidder {i} diverged from the fresh serial build"
            ));
        }
        pooled.push(sub);
    }

    for recorded in &run.backend.results {
        let replay = run_private_auction_with_backend(
            &pooled,
            &run.ttp,
            AuctioneerModel::IterativeCharging,
            recorded.kind,
            &mut StdRng::seed_from_u64(scenario.alloc_seed()),
        )
        .map_err(|e| {
            format!("{:?} backend replay over pooled builds failed: {e}", recorded.kind)
        })?;
        if replay.result.grants != recorded.result.grants
            || assignment_set(&replay.result.outcome) != assignment_set(&recorded.result.outcome)
            || grant_set(&replay.result.invalid_grants)
                != grant_set(&recorded.result.invalid_grants)
        {
            return Err(format!(
                "{:?} backend settled pool-built submissions differently from fresh builds",
                recorded.kind
            ));
        }
    }
    Ok(())
}

fn vickrey_charge_correctness(run: &ScenarioRun) -> Result<(), String> {
    use lppa_prefix::backend::BackendKind;
    let rows = &run.scenario.rows;
    for kind in [BackendKind::Hmac, BackendKind::Ledger] {
        let result = run.backend.result(kind);
        let conflicts = &result.result.conflicts;
        for a in result.vickrey.assignments() {
            let trace = result
                .traces
                .iter()
                .find(|t| t.grant.bidder == a.bidder && t.grant.channel == a.channel)
                .ok_or_else(|| {
                    format!(
                        "{kind:?}: vickrey assignment ({}, {}) has no contest trace",
                        a.bidder.0, a.channel.0
                    )
                })?;
            // The winner pays the critical value: the highest *true*
            // bid among the contest's conflicting losers (the TTP opens
            // sealed values, so disguises cannot inflate the price).
            let critical = trace
                .conflicting_losers(conflicts)
                .map(|c| rows[c.0][a.channel.0])
                .max()
                .unwrap_or(0);
            if a.price != critical {
                return Err(format!(
                    "{kind:?}: bidder {} charged {} on channel {}, critical losing bid {critical}",
                    a.bidder.0, a.price, a.channel.0
                ));
            }
            let own = rows[a.bidder.0][a.channel.0];
            if a.price > own {
                return Err(format!(
                    "{kind:?}: bidder {} pays {} above its true value {own}",
                    a.bidder.0, a.price
                ));
            }
        }
        for g in &result.vickrey_invalid {
            if rows[g.bidder.0][g.channel.0] != 0 {
                return Err(format!(
                    "{kind:?}: vickrey invalidated bidder {} channel {} whose true bid is {}",
                    g.bidder.0, g.channel.0, rows[g.bidder.0][g.channel.0]
                ));
            }
        }
    }

    // Truthfulness spot-check on one sampled winner, reduced to its
    // single-channel contest against the critical bid (the multi-minded
    // greedy auction as a whole is *not* truthful; the Vickrey property
    // holds per contest): with the price independent of the winner's
    // own report and ties resolved winner-side as `ge` does, no
    // misreport beats bidding the true value.
    let hmac = run.backend.result(BackendKind::Hmac);
    let assigns = hmac.vickrey.assignments();
    if !assigns.is_empty() {
        let mut rng = StdRng::seed_from_u64(run.scenario.seed ^ 0x71c4_0000_0000_0009);
        let a = &assigns[rng.gen_range(0..assigns.len())];
        let value = i64::from(rows[a.bidder.0][a.channel.0]);
        let critical = a.price;
        let utility =
            |report: u32| if report >= critical { value - i64::from(critical) } else { 0 };
        let truthful = utility(rows[a.bidder.0][a.channel.0]);
        for misreport in
            [0, critical.saturating_sub(1), critical, critical + 1, run.scenario.config.bid_max()]
        {
            if utility(misreport) > truthful {
                return Err(format!(
                    "bidder {} (value {value}, critical {critical}): misreport {misreport} \
                     yields utility {} > truthful {truthful}",
                    a.bidder.0,
                    utility(misreport)
                ));
            }
        }
    }
    Ok(())
}

fn key_rotation_invariance(run: &ScenarioRun) -> Result<(), String> {
    metamorphic_equivalence(run, "rotated_keys")
}

fn transform_shift_invariance(run: &ScenarioRun) -> Result<(), String> {
    metamorphic_equivalence(run, "shifted_transform")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{DisguiseSpec, Scenario, ScenarioParams};

    #[test]
    fn registry_names_are_unique_and_documented() {
        let names: Vec<&str> = registry().iter().map(|i| i.name).collect();
        let unique: std::collections::HashSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len());
        assert!(registry().iter().all(|i| !i.summary.is_empty()));
    }

    #[test]
    fn clean_scenarios_violate_nothing() {
        let params = ScenarioParams::default();
        for seed in 100..110 {
            let scenario = Scenario::generate(&params, seed);
            let run = ScenarioRun::execute(scenario).unwrap();
            let violations = check_all(&run);
            assert!(violations.is_empty(), "seed {seed}: {violations:?}");
        }
    }

    #[test]
    fn heavily_disguised_scenarios_violate_nothing() {
        let scenario = Scenario::builder(500)
            .bidders(10)
            .channels(3)
            .disguise(DisguiseSpec::Uniform { replace: 0.95 })
            .build();
        let run = ScenarioRun::execute(scenario).unwrap();
        let violations = check_all(&run);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn a_seeded_corruption_is_caught() {
        // Flip one raw bid after the pipelines ran: the charge no longer
        // matches ground truth and the registry must notice.
        let scenario = Scenario::builder(7).bidders(8).channels(3).tie_free().build();
        let mut run = ScenarioRun::execute(scenario).unwrap();
        let a = *run.masked.outcome.assignments().first().expect("fixture awards something");
        run.scenario.rows[a.bidder.0][a.channel.0] = a.price.wrapping_add(1) & 0x7f;
        let violations = check_all(&run);
        assert!(violations.iter().any(|v| v.invariant == "charge_correctness"), "{violations:?}");
    }
}
