//! Runs one scenario through every implementation variant.
//!
//! The differential surface, matching the variant pairs the codebase
//! actually ships:
//!
//! * **plaintext vs masked** — the same greedy allocation over the
//!   plaintext [`BidTable`] and the masked [`MaskedBidTable`], seeded
//!   with the same allocation RNG;
//! * **pairwise vs indexed** conflict graphs over the same masked
//!   location submissions;
//! * **serial vs `lppa-par`** submission fan-out (compared by wire
//!   checksums);
//! * **oblivious vs iterative-charging** auctioneer models;
//! * **plain runner vs `lppa-session`** round (with the session's
//!   internally derived allocation seed replicated so the comparison is
//!   exact);
//! * **scalar vs multi-lane batched tags** — the same scenario-derived
//!   mask inputs masked per message through `Tag::compute` and as one
//!   `Tag::compute_batch` per supported SHA-256 lane width;
//! * **sharded service vs sequential reference** — a scenario-derived
//!   multi-area workload settled through the work-stealing
//!   `lppa-service` event loop and through its single-threaded
//!   unsharded reference, compared on decision fingerprints;
//! * **incremental churn vs per-round rebuild** — the same seeded churn
//!   schedule (joins, leaves, bid revisions) settled once through the
//!   delta-applying [`lppa_service::run_churn`] incremental path (on a
//!   sharded executor) and once by rebuilding every round from scratch
//!   (single-threaded), compared on decision fingerprints;
//! * **simulated wire vs live sockets** — the binary-frame round over
//!   the seeded `SimTransport` chaos schedule as reference, replayed
//!   over real loopback TCP (same seeds, same ingress chaos) and once
//!   more with the auctioneer killed mid-charge and resumed from its
//!   checkpoint, all compared on outcome and journal fingerprints;
//! * metamorphic rebuilds: permuted bidders, rotated per-round keys,
//!   shifted `rd` / scaled `cr` — each producing an outcome to compare
//!   against the base masked run.

use lppa::backend::{
    bloom_probe_stats, run_private_auction_with_backend, BackendAuctionResult, BloomProbeStats,
};
use lppa::ppbs::location::{build_conflict_graph, LocationSubmission};
use lppa::protocol::{
    build_submissions, run_private_auction_with_model, AuctioneerModel, PrivateAuctionResult,
    SuSubmission,
};
use lppa::psd::table::MaskedBidTable;
use lppa::ttp::Ttp;
use lppa::{LppaConfig, LppaError};
use lppa_auction::allocation::{greedy_allocate, Grant};
use lppa_auction::conflict::ConflictGraph;
use lppa_auction::outcome::AuctionOutcome;
use lppa_crypto::lanes;
use lppa_crypto::tag::Tag;
use lppa_net::{
    resume_socket_round, run_socket_round, run_socket_round_with_kill, AuctioneerRun, KillPoint,
    NetConfig,
};
use lppa_prefix::backend::{BackendKind, BloomParams};
use lppa_prefix::{prefix_family, range_prefixes};
use lppa_rng::rngs::StdRng;
use lppa_rng::seq::SliceRandom;
use lppa_rng::{Rng, RngCore, SeedableRng};
use lppa_session::{run_wire_round, AuctionSession, FaultConfig, SessionConfig, SessionOutcome};

use crate::scenario::Scenario;

/// The plaintext reference pipeline's products.
#[derive(Clone, Debug)]
pub struct PlainRun {
    /// Conflict graph from ground-truth locations.
    pub conflicts: ConflictGraph,
    /// Grant sequence in allocation order.
    pub grants: Vec<Grant>,
    /// First-price outcome.
    pub outcome: AuctionOutcome,
}

/// The session pipeline's products (absent when chaos starves the
/// round below quorum — a legitimate outcome, not a violation).
#[derive(Debug)]
pub struct SessionRun {
    /// The settled session.
    pub outcome: SessionOutcome,
    /// Fingerprint of an independent second run from the same seed.
    pub repeat_fingerprint: u64,
    /// Fingerprint of a journal-recovered replay.
    pub resumed_fingerprint: u64,
    /// What the direct pipeline computes with the session's internally
    /// derived allocation seed (no-fault sessions only).
    pub expected: Option<PrivateAuctionResult>,
}

/// The wire-vs-socket variant pair's products (absent when chaos
/// starves the wire round below quorum — a legitimate outcome).
///
/// All three runs share the session seed: the simulated wire round is
/// the reference, the loopback socket round must reproduce it
/// fingerprint-for-fingerprint (the chaos ingress replays the same
/// seeded schedule), and the killed-then-resumed socket round must
/// recover to it across a process-crash boundary.
#[derive(Debug)]
pub struct WireRun {
    /// The simulated wire round (binary frames over `SimTransport`).
    pub sim: SessionOutcome,
    /// Outcome fingerprint of the loopback socket round.
    pub socket_fingerprint: u64,
    /// Journal fingerprint of the loopback socket round.
    pub socket_journal_fingerprint: u64,
    /// Outcome fingerprint after a mid-charge kill and checkpoint
    /// resume over a fresh TTP connection.
    pub resumed_fingerprint: u64,
}

/// The scalar-vs-batched tag kernel variant pair's products.
///
/// The probe masks scenario-derived messages — a real prefix family, a
/// real range cover, and raw messages straddling the batched path's
/// single-block boundary — through every tag path the workspace ships.
/// All vectors are index-aligned with [`Self::messages`].
#[derive(Debug)]
pub struct TagKernelRun {
    /// The probe messages.
    pub messages: Vec<Vec<u8>>,
    /// Per-message scalar `Tag::compute` reference.
    pub scalar: Vec<Tag>,
    /// `(lane width, batched tags)` for every supported kernel width.
    pub batched: Vec<(usize, Vec<Tag>)>,
    /// Tags from the process-default batch path (`LPPA_SHA_LANES` or
    /// CPU auto-detection).
    pub default_batch: Vec<Tag>,
}

/// The sharded-service-vs-sequential variant pair's products.
///
/// A small multi-area fleet is derived from the scenario seed and
/// settled twice: once through the [`lppa_service::AuctionService`]
/// (shards + persistent work-stealing executor + admission batching)
/// and once through [`lppa_service::run_sequential`] (one thread, no
/// shards, area-id order). The decision projections must be
/// bit-identical; latency fields are timing and excluded.
#[derive(Debug)]
pub struct ServiceRun {
    /// Per-area decision rows from the sharded service, latency zeroed.
    pub sharded: Vec<lppa_service::AreaOutcome>,
    /// Per-area decision rows from the sequential reference, latency
    /// zeroed.
    pub sequential: Vec<lppa_service::AreaOutcome>,
    /// `(area, error)` rows from the sharded service.
    pub sharded_errors: Vec<(u32, String)>,
    /// `(area, error)` rows from the sequential reference.
    pub sequential_errors: Vec<(u32, String)>,
    /// Aggregate decision fingerprint of the sharded run.
    pub sharded_fingerprint: u64,
    /// Aggregate decision fingerprint of the sequential run.
    pub sequential_fingerprint: u64,
}

/// The incremental-churn-vs-rebuild variant pair's products.
///
/// A small churn schedule is derived from the scenario seed and settled
/// twice through [`lppa_service::run_churn`]: once in
/// [`lppa_service::ChurnMode::Incremental`] (delta TagIndex, resident
/// conflict graph and channel orders, on 2 shards × 2 threads) and once
/// in [`lppa_service::ChurnMode::Rebuild`] (full per-round rebuild, one
/// shard, one thread) — so a fingerprint match certifies both
/// mode-equality and shard/thread-grid invariance at once.
#[derive(Debug)]
pub struct ChurnRun {
    /// Report of the delta-applying incremental run.
    pub incremental: lppa_service::ChurnReport,
    /// Report of the from-scratch per-round rebuild run.
    pub rebuild: lppa_service::ChurnReport,
}

/// The masking-backend variant probe's products.
///
/// The same submissions are settled through every [`BackendKind`] with
/// the masked pipeline's allocation seed, so the `hmac` result must be
/// bit-identical to [`ScenarioRun::masked`], `ledger` must match `hmac`
/// while publishing a verified audit chain, and `bloom` may diverge
/// only within the measured false-positive budget in
/// [`Self::bloom_stats`]. Each result also carries the Vickrey
/// resettlement of its grants for the second-price charge invariant.
#[derive(Debug)]
pub struct BackendRun {
    /// One settled round per [`BackendKind::ALL`] entry, in that order,
    /// iterative-charging model, shared allocation seed with
    /// [`ScenarioRun::masked`].
    pub results: Vec<BackendAuctionResult>,
    /// The Bloom parameters the `bloom` entry ran with.
    pub bloom_params: BloomParams,
    /// Measured Bloom-vs-exact disagreement over every (point, range)
    /// pair of the scenario's bid table.
    pub bloom_stats: BloomProbeStats,
}

impl BackendRun {
    /// The settled round for `kind`.
    ///
    /// # Panics
    ///
    /// Panics if the probe was built without `kind` (impossible for
    /// probes from [`ScenarioRun::execute`]).
    pub fn result(&self, kind: BackendKind) -> &BackendAuctionResult {
        self.results.iter().find(|r| r.kind == kind).expect("probe covers every backend")
    }
}

/// A metamorphic rebuild of the masked pipeline.
#[derive(Debug)]
pub struct MetamorphicRun {
    /// Which transformation produced it.
    pub label: &'static str,
    /// Bidder permutation applied before the run (`variant_index =
    /// permutation[original_index]`); identity when the transformation
    /// does not reorder bidders.
    pub permutation: Vec<usize>,
    /// The rebuilt pipeline's result.
    pub result: PrivateAuctionResult,
}

/// Everything one executed scenario produced, ready for the invariant
/// registry.
#[derive(Debug)]
pub struct ScenarioRun {
    /// The scenario that was executed.
    pub scenario: Scenario,
    /// Round-0 TTP.
    pub ttp: Ttp,
    /// The submissions every pipeline consumed (parallel build).
    pub submissions: Vec<SuSubmission>,
    /// Wire checksums of the parallel fan-out build.
    pub parallel_checksums: Vec<u64>,
    /// Wire checksums of the serial reference build.
    pub serial_checksums: Vec<u64>,
    /// The runtime conflict graph (two-axis index join) over the
    /// masked locations.
    pub graph_indexed: ConflictGraph,
    /// [`build_conflict_graph_pairwise`] over the same submissions.
    pub graph_pairwise: ConflictGraph,
    /// The pruned masked table (for maxima-variant checks).
    pub table_pruned: MaskedBidTable,
    /// Plaintext reference pipeline.
    pub plain: PlainRun,
    /// Masked pipeline, iterative-charging model, shared allocation
    /// seed with `plain`.
    pub masked: PrivateAuctionResult,
    /// Masked pipeline, oblivious model.
    pub oblivious: PrivateAuctionResult,
    /// Session pipeline (None below quorum under chaos).
    pub session: Option<SessionRun>,
    /// Wire/socket pipeline (None below quorum under chaos).
    pub wire: Option<WireRun>,
    /// Scalar-vs-batched tag kernel probe.
    pub tag_kernel: TagKernelRun,
    /// Sharded-service-vs-sequential probe.
    pub service: ServiceRun,
    /// Incremental-churn-vs-rebuild probe.
    pub churn: ChurnRun,
    /// Masking-backend variant probe (hmac / bloom / ledger + Vickrey).
    pub backend: BackendRun,
    /// Metamorphic rebuilds (only for tie-free, disguise-free
    /// scenarios, where exact equivalence is well-defined).
    pub metamorphic: Vec<MetamorphicRun>,
}

impl ScenarioRun {
    /// Whether exact grant-sequence equivalence between the plaintext
    /// and masked pipelines applies: no ties (else the two sides break
    /// them over different value domains) and no disguises (else the
    /// masked side auctions cells the plaintext side does not have).
    pub fn strong_equivalence_applies(&self) -> bool {
        self.scenario.disguise.is_never() && self.scenario.tie_free()
    }

    /// Executes `scenario` through every pipeline variant.
    ///
    /// # Errors
    ///
    /// Propagates protocol errors (invalid configuration, inconsistent
    /// submissions). A pipeline error on a generated scenario is itself
    /// a finding — the fuzzer treats it as the `pipeline_error`
    /// pseudo-invariant.
    pub fn execute(scenario: Scenario) -> Result<Self, LppaError> {
        let ttp = scenario.ttp(0)?;
        let policy = scenario.policy();
        let inputs = scenario.bidder_inputs();

        // Parallel fan-out build vs serial reference build: the child
        // seeds are drawn sequentially in both cases, so the results
        // must be bit-identical regardless of LPPA_THREADS.
        let submissions = build_submissions(
            &inputs,
            &ttp,
            &policy,
            &mut StdRng::seed_from_u64(scenario.submission_seed()),
        )?;
        let parallel_checksums: Vec<u64> = submissions.iter().map(SuSubmission::checksum).collect();
        let serial_checksums = {
            let mut rng = StdRng::seed_from_u64(scenario.submission_seed());
            let seeds: Vec<u64> = inputs.iter().map(|_| rng.next_u64()).collect();
            let mut sums = Vec::with_capacity(inputs.len());
            for (seed, (location, raw)) in seeds.iter().zip(&inputs) {
                let mut child = StdRng::seed_from_u64(*seed);
                sums.push(
                    SuSubmission::build(*location, raw, &ttp, &policy, &mut child)?.checksum(),
                );
            }
            sums
        };

        let locations: Vec<&LocationSubmission> = submissions.iter().map(|s| &s.location).collect();
        let graph_indexed = build_conflict_graph(&locations);
        let graph_pairwise = build_conflict_graph_pairwise(&locations);

        let table_pruned =
            MaskedBidTable::collect_pruned(submissions.iter().map(|s| s.bids.clone()).collect())?;

        let plain = {
            let conflicts = scenario.plain_conflicts();
            let table = scenario.plain_table();
            let grants = greedy_allocate(
                &table,
                &conflicts,
                &mut StdRng::seed_from_u64(scenario.alloc_seed()),
            );
            let outcome = AuctionOutcome::from_grants(&grants, &table);
            PlainRun { conflicts, grants, outcome }
        };

        let masked = run_private_auction_with_model(
            &submissions,
            &ttp,
            AuctioneerModel::IterativeCharging,
            &mut StdRng::seed_from_u64(scenario.alloc_seed()),
        )?;
        let oblivious = run_private_auction_with_model(
            &submissions,
            &ttp,
            AuctioneerModel::Oblivious,
            &mut StdRng::seed_from_u64(scenario.alloc_seed()),
        )?;

        let session = Self::run_session(&scenario, &ttp, &submissions)?;
        let wire = Self::run_wire(&scenario, &ttp, &submissions)?;
        let tag_kernel = Self::run_tag_kernel(&scenario, &ttp);
        let service = Self::run_service(&scenario)?;
        let churn = Self::run_churn(&scenario)?;
        let backend = Self::run_backends(&scenario, &ttp, &submissions)?;

        let mut run = Self {
            scenario,
            ttp,
            submissions,
            parallel_checksums,
            serial_checksums,
            graph_indexed,
            graph_pairwise,
            table_pruned,
            plain,
            masked,
            oblivious,
            session,
            wire,
            tag_kernel,
            service,
            churn,
            backend,
            metamorphic: Vec::new(),
        };
        if run.strong_equivalence_applies() {
            run.metamorphic = run.run_metamorphic()?;
        }
        Ok(run)
    }

    /// Runs the scalar-vs-batched tag probe for this scenario.
    ///
    /// Messages are derived from the scenario seed and its domains, so a
    /// repro file replays the exact probe: one genuine prefix family and
    /// one genuine range cover (the hot-path 9-byte mask inputs), plus
    /// raw messages straddling the batched path's 55-byte single-block
    /// boundary — the longer ones exercise the scalar fallback *inside*
    /// the batch API.
    fn run_tag_kernel(scenario: &Scenario, ttp: &Ttp) -> TagKernelRun {
        let key = &ttp.bidder_keys().g0;
        let config = &scenario.config;
        let mut rng = StdRng::seed_from_u64(scenario.seed ^ 0x6c61_6e65_7350_5235);
        let mut messages: Vec<Vec<u8>> = Vec::new();

        let w = config.transformed_bits();
        let value = rng.gen_range(0..=config.transformed_max());
        if let Ok(family) = prefix_family(w, value) {
            messages.extend(family.iter().map(|p| p.to_mask_input().to_vec()));
        }
        let (a, b) = (rng.gen_range(0..=config.loc_max()), rng.gen_range(0..=config.loc_max()));
        if let Ok(cover) = range_prefixes(config.loc_bits, a.min(b), a.max(b)) {
            messages.extend(cover.iter().map(|p| p.to_mask_input().to_vec()));
        }
        for len in [0usize, 1, 9, 54, 55, 56, 120] {
            let mut msg = vec![0u8; len];
            rng.fill_bytes(&mut msg);
            messages.push(msg);
        }

        let scalar = messages.iter().map(|m| Tag::compute(key, m)).collect();
        let batched = lanes::SUPPORTED_WIDTHS
            .into_iter()
            .map(|width| (width, Tag::compute_batch_with_width(key, width, &messages)))
            .collect();
        let default_batch = Tag::compute_batch(key, &messages);
        TagKernelRun { messages, scalar, batched, default_batch }
    }

    /// Runs the masking-backend variant probe.
    ///
    /// Every backend settles the same submissions with the masked
    /// pipeline's allocation seed, so exact backends replay its RNG
    /// draws; the Bloom disagreement budget is measured over every
    /// (point, range) pair the table could probe.
    fn run_backends(
        scenario: &Scenario,
        ttp: &Ttp,
        submissions: &[SuSubmission],
    ) -> Result<BackendRun, LppaError> {
        let results = BackendKind::ALL
            .into_iter()
            .map(|kind| {
                run_private_auction_with_backend(
                    submissions,
                    ttp,
                    AuctioneerModel::IterativeCharging,
                    kind,
                    &mut StdRng::seed_from_u64(scenario.alloc_seed()),
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        let bids: Vec<_> = submissions.iter().map(|s| s.bids.clone()).collect();
        let bloom_params = BloomParams::default();
        let bloom_stats = bloom_probe_stats(bloom_params, &bids);
        Ok(BackendRun { results, bloom_params, bloom_stats })
    }

    /// Runs the sharded-service-vs-sequential probe.
    ///
    /// The fleet is tiny (3 areas, ~6 bidders each) so the probe stays
    /// cheap per scenario, but it still crosses every service layer:
    /// round-robin routing, chunked admission flushes, affinity tasks on
    /// the work-stealing executor, and per-area session rounds — while
    /// the sequential side never touches a thread.
    fn run_service(scenario: &Scenario) -> Result<ServiceRun, LppaError> {
        use lppa_service::{
            run_sequential, AuctionService, ServiceConfig, ServiceReport, WorkloadSpec,
        };
        let spec = WorkloadSpec::new(
            scenario.seed ^ 0x5e4c_0000_0000_0006,
            3,
            18,
            scenario.n_channels.max(1),
        );
        let plans = spec.plans()?;
        let bidders = spec.bidders();
        let config = ServiceConfig {
            shards: 3,
            threads: 2,
            flush_chunk: 8,
            session: SessionConfig::default(),
        };
        let service = AuctionService::new(config, plans.clone());
        for bidder in &bidders {
            service.submit(bidder.clone())?;
        }
        let sharded = service.drain();
        let sequential = run_sequential(config.session, plans, &bidders);
        let decisions = |report: &ServiceReport| {
            report
                .areas
                .iter()
                .map(|a| lppa_service::AreaOutcome { latency_ns: 0, ..a.clone() })
                .collect::<Vec<_>>()
        };
        Ok(ServiceRun {
            sharded: decisions(&sharded),
            sequential: decisions(&sequential),
            sharded_errors: sharded.errors.clone(),
            sequential_errors: sequential.errors.clone(),
            sharded_fingerprint: sharded.fingerprint(),
            sequential_fingerprint: sequential.fingerprint(),
        })
    }

    /// Runs the incremental-churn-vs-rebuild probe.
    ///
    /// The schedule is tiny (2 areas, ~7 bidders each, 3 rounds at 40 %
    /// total churn) but every delta path fires: tombstoned TagIndex
    /// removals, resident-order re-ranking on bid revisions, dirty
    /// conflict rows on joins/leaves — against the rebuild oracle that
    /// re-masks and re-collects each round from the same member state.
    fn run_churn(scenario: &Scenario) -> Result<ChurnRun, LppaError> {
        use lppa_service::{run_churn, ChurnMode, ChurnSpec, WorkloadSpec};
        let spec = ChurnSpec::balanced(
            WorkloadSpec::new(
                scenario.seed ^ 0xc4b2_0000_0000_0007,
                2,
                14,
                scenario.n_channels.max(1),
            ),
            3,
            0.4,
        );
        let incremental = run_churn(&spec, ChurnMode::Incremental, 2, 2)?;
        let rebuild = run_churn(&spec, ChurnMode::Rebuild, 1, 1)?;
        Ok(ChurnRun { incremental, rebuild })
    }

    fn session_config(scenario: &Scenario) -> SessionConfig {
        if scenario.chaos {
            SessionConfig {
                faults: FaultConfig::chaotic().with_env_overrides(),
                ..SessionConfig::default()
            }
        } else {
            SessionConfig::default()
        }
    }

    fn run_session(
        scenario: &Scenario,
        ttp: &Ttp,
        submissions: &[SuSubmission],
    ) -> Result<Option<SessionRun>, LppaError> {
        let config = Self::session_config(scenario);
        let session = AuctionSession::new(ttp, config);
        let seed = scenario.session_seed();
        let outcome = match session.run(submissions, seed) {
            Ok(outcome) => outcome,
            // Chaos legitimately starves a round below quorum.
            Err(LppaError::QuorumNotReached { .. }) if scenario.chaos => return Ok(None),
            Err(e) => return Err(e),
        };
        let repeat_fingerprint = session.run(submissions, seed)?.fingerprint();
        let resumed_fingerprint = session.resume(submissions, &outcome.journal)?.fingerprint();

        // A no-fault session must match the direct pipeline run with the
        // session's own derived allocation seed (the second draw of the
        // session's master stream — see `AuctionSession::run`).
        let expected = if scenario.chaos {
            None
        } else {
            let mut master = StdRng::seed_from_u64(seed);
            let _transport_seed = master.next_u64();
            let auction_seed = master.next_u64();
            Some(run_private_auction_with_model(
                submissions,
                ttp,
                config.model,
                &mut StdRng::seed_from_u64(auction_seed),
            )?)
        };
        Ok(Some(SessionRun { outcome, repeat_fingerprint, resumed_fingerprint, expected }))
    }

    /// Runs the wire/socket probe: the simulated binary-frame round as
    /// reference, a loopback socket round that must reproduce it, and a
    /// mid-charge-killed socket round resumed from its checkpoint.
    fn run_wire(
        scenario: &Scenario,
        ttp: &Ttp,
        submissions: &[SuSubmission],
    ) -> Result<Option<WireRun>, LppaError> {
        let config = Self::session_config(scenario);
        let seed = scenario.session_seed();
        let sim = match run_wire_round(ttp, config, submissions, seed) {
            Ok(outcome) => outcome,
            // Chaos legitimately starves a round below quorum.
            Err(LppaError::QuorumNotReached { .. }) if scenario.chaos => return Ok(None),
            Err(e) => return Err(e),
        };
        // Loopback with tight backoff so fuzz scenarios stay fast.
        let net =
            NetConfig { backoff_ms: 5, backoff_cap_ms: 80, retries: 10, ..NetConfig::default() };
        let net_err =
            |err: lppa_net::NetError| LppaError::Internal { what: format!("socket probe: {err}") };
        let socket = run_socket_round(ttp, config, submissions, seed, &net).map_err(net_err)?;
        let killed = run_socket_round_with_kill(
            ttp,
            config,
            submissions,
            seed,
            &net,
            Some(KillPoint::MidCharge { served: 1 }),
        )
        .map_err(net_err)?;
        let AuctioneerRun::KilledInCharge(checkpoint) = killed else {
            return Err(LppaError::Internal {
                what: format!("socket probe: kill point never fired: {killed:?}"),
            });
        };
        let resumed = resume_socket_round(ttp, config, submissions.len(), &checkpoint, &net)
            .map_err(net_err)?;
        Ok(Some(WireRun {
            socket_fingerprint: socket.fingerprint(),
            socket_journal_fingerprint: socket.journal.fingerprint(),
            resumed_fingerprint: resumed.fingerprint(),
            sim,
        }))
    }

    /// The metamorphic rebuilds: each transforms the scenario in a way
    /// that must not move the outcome, then runs the masked pipeline
    /// with the same allocation seed.
    fn run_metamorphic(&self) -> Result<Vec<MetamorphicRun>, LppaError> {
        let scenario = &self.scenario;
        let n = scenario.n_bidders();
        let identity: Vec<usize> = (0..n).collect();
        let mut runs = Vec::new();

        // 1. Bidder permutation: relabeling bidders permutes the
        //    outcome and nothing else.
        {
            let mut perm = identity.clone();
            perm.shuffle(&mut StdRng::seed_from_u64(scenario.permute_seed()));
            let inputs = scenario.bidder_inputs();
            let mut permuted_inputs = vec![inputs[0].clone(); n];
            for (original, &variant) in perm.iter().enumerate() {
                permuted_inputs[variant] = inputs[original].clone();
            }
            let submissions = build_submissions(
                &permuted_inputs,
                &self.ttp,
                &scenario.policy(),
                &mut StdRng::seed_from_u64(scenario.submission_seed()),
            )?;
            let result = run_private_auction_with_model(
                &submissions,
                &self.ttp,
                AuctioneerModel::IterativeCharging,
                &mut StdRng::seed_from_u64(scenario.alloc_seed()),
            )?;
            runs.push(MetamorphicRun { label: "permuted_bidders", permutation: perm, result });
        }

        // 2. Key rotation: round-1 keys, same bids, same outcome.
        {
            let ttp = scenario.ttp(1)?;
            let submissions = build_submissions(
                &scenario.bidder_inputs(),
                &ttp,
                &scenario.policy(),
                &mut StdRng::seed_from_u64(scenario.submission_seed()),
            )?;
            let result = run_private_auction_with_model(
                &submissions,
                &ttp,
                AuctioneerModel::IterativeCharging,
                &mut StdRng::seed_from_u64(scenario.alloc_seed()),
            )?;
            runs.push(MetamorphicRun {
                label: "rotated_keys",
                permutation: identity.clone(),
                result,
            });
        }

        // 3. rd shift + cr scale: the transform parameters are secret
        //    bookkeeping; winners and charges must not move.
        if let Some(config) = shifted_config(&scenario.config) {
            let ttp = scenario.ttp_with_config(0, config)?;
            let submissions = build_submissions(
                &scenario.bidder_inputs(),
                &ttp,
                &scenario.policy(),
                &mut StdRng::seed_from_u64(scenario.submission_seed()),
            )?;
            let result = run_private_auction_with_model(
                &submissions,
                &ttp,
                AuctioneerModel::IterativeCharging,
                &mut StdRng::seed_from_u64(scenario.alloc_seed()),
            )?;
            runs.push(MetamorphicRun { label: "shifted_transform", permutation: identity, result });
        }

        Ok(runs)
    }
}

/// Reference `O(n² · w)` conflict-graph construction: one
/// [`LocationSubmission::conflicts_with`] test per bidder pair.
///
/// The semantic specification of [`build_conflict_graph`]'s index join,
/// kept here as a test oracle only: `conflict_graph_cross_check`
/// compares the two, and both with the plaintext graph.
pub fn build_conflict_graph_pairwise(submissions: &[&LocationSubmission]) -> ConflictGraph {
    let n = submissions.len();
    let mut graph = ConflictGraph::disconnected(n);
    for i in 0..n {
        for j in (i + 1)..n {
            if submissions[i].conflicts_with(submissions[j]) {
                graph.add_conflict(i.into(), j.into());
            }
        }
    }
    graph
}

/// An alternative configuration with `rd` shifted and `cr` scaled, or
/// `None` if the shift would leave the valid domain.
pub fn shifted_config(config: &LppaConfig) -> Option<LppaConfig> {
    let shifted = LppaConfig { rd: config.rd + 5, cr: (config.cr * 2).min(8), ..*config };
    if shifted == *config || shifted.validate().is_err() {
        return None;
    }
    Some(shifted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{DisguiseSpec, ScenarioParams};

    #[test]
    fn execute_covers_every_pipeline() {
        let scenario = Scenario::builder(11).bidders(8).channels(3).tie_free().build();
        let run = ScenarioRun::execute(scenario).unwrap();
        assert!(run.strong_equivalence_applies());
        assert_eq!(run.submissions.len(), 8);
        assert_eq!(run.parallel_checksums, run.serial_checksums);
        assert!(run.session.is_some());
        let wire = run.wire.as_ref().expect("wire probe should run");
        assert_eq!(wire.sim.fingerprint(), wire.socket_fingerprint);
        assert_eq!(wire.sim.fingerprint(), wire.resumed_fingerprint);
        assert_eq!(run.metamorphic.len(), 3, "all three metamorphic rebuilds should run");
        assert_eq!(run.service.sharded, run.service.sequential);
        assert_eq!(run.service.sharded.len(), 3, "errors: {:?}", run.service.sharded_errors);
        assert_eq!(run.service.sharded_fingerprint, run.service.sequential_fingerprint);
        assert!(run.churn.incremental.churn_events > 0, "churn probe should apply events");
        assert_eq!(run.churn.incremental.fingerprint, run.churn.rebuild.fingerprint);
        // The backend probe settles every kind, with the ledger audited
        // and the hmac entry bit-identical to the masked pipeline.
        assert_eq!(run.backend.results.len(), BackendKind::ALL.len());
        let hmac = run.backend.result(BackendKind::Hmac);
        assert_eq!(hmac.result.grants, run.masked.grants);
        assert!(run.backend.result(BackendKind::Ledger).ledger.is_some());
        assert_eq!(run.backend.bloom_stats.false_negatives, 0);
        assert!(!hmac.traces.is_empty());
    }

    #[test]
    fn tag_kernel_probe_covers_every_width_and_the_fallback() {
        let scenario = Scenario::builder(21).bidders(4).channels(2).build();
        let run = ScenarioRun::execute(scenario).unwrap();
        let probe = &run.tag_kernel;
        assert_eq!(probe.scalar.len(), probe.messages.len());
        assert_eq!(probe.batched.len(), lanes::SUPPORTED_WIDTHS.len());
        // The probe must include both 9-byte hot-path inputs and
        // multi-block messages (the in-batch scalar fallback).
        assert!(probe.messages.iter().any(|m| m.len() == 9));
        assert!(probe.messages.iter().any(|m| m.len() > 55));
        for (width, tags) in &probe.batched {
            assert_eq!(tags, &probe.scalar, "lane width {width}");
        }
        assert_eq!(probe.default_batch, probe.scalar);
    }

    #[test]
    fn disguised_scenarios_skip_metamorphic_rebuilds() {
        let scenario = Scenario::builder(12)
            .bidders(6)
            .channels(2)
            .disguise(DisguiseSpec::Uniform { replace: 0.8 })
            .build();
        let run = ScenarioRun::execute(scenario).unwrap();
        assert!(!run.strong_equivalence_applies());
        assert!(run.metamorphic.is_empty());
    }

    #[test]
    fn generated_scenarios_execute() {
        let params = ScenarioParams::default();
        for seed in 0..6 {
            let scenario = Scenario::generate(&params, seed);
            ScenarioRun::execute(scenario).unwrap();
        }
    }

    #[test]
    fn shifted_config_stays_valid() {
        let base = LppaConfig::default();
        let shifted = shifted_config(&base).unwrap();
        shifted.validate().unwrap();
        assert_eq!(shifted.rd, base.rd + 5);
    }
}
