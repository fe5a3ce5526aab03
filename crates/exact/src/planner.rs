//! Static cost-model query planner: predict inference cost, pick the engine.
//!
//! The paper fixes its inference strategy per experiment (exact enumeration,
//! or sampling with a fixed 1000 particles). This module does what Batz et
//! al.'s *expected sampling time* analysis does for sampling — estimate the
//! cost of a run **before** starting it — but for all three of our engines,
//! from nothing more than the compiled [`Model`]:
//!
//! * **Enumeration** cost is driven by frontier growth. Each global step
//!   multiplies the frontier by the scheduler's branching (how many enabled
//!   actions it splits mass over) times the handlers' internal branching
//!   (`flip` ×2, `uniform(lo, hi)` ×span), then configuration merging
//!   collapses most of that product back down. Calibrated against the
//!   curated corpus, the *effective* per-step growth is well modeled as
//!   `(sched_branching × handler_branching) ^ ALPHA` with `ALPHA ≈ 0.2` —
//!   merging absorbs roughly the 0.8 power of the raw product. Total
//!   expansions are the geometric sum of that growth over the step horizon
//!   (the program's `num_steps`, else `4·nodes + 2` — the paper's generated
//!   programs use horizons linear in the node count), and each expansion
//!   costs a calibrated constant (~10 µs on the reference host).
//! * **BDD** (knowledge compilation) wins when nodes share a program: the
//!   diagram represents the symmetric product once. The calibrated speedup
//!   over enumeration is approximately the size of the largest group of
//!   nodes sharing one [`CompiledProgram`](bayonet_net::CompiledProgram),
//!   paid for with a constant compilation overhead — so tiny programs route
//!   to enumeration even when symmetric. The backend packs per-node flags
//!   into a `u128`, so models with more than 64 nodes are never routed to
//!   it.
//! * **SMC** cost is linear: `particles × horizon × nodes` simulation steps.
//!   Rather than the paper's fixed 1000 particles, the planner picks an
//!   error-bounded count from the worst-case Bernoulli variance:
//!   `n = ⌈0.25 / target_std_error²⌉` (a posterior probability estimated
//!   from `n` particles has standard error at most `0.5/√n`). Symbolic
//!   parameters rule SMC out — sampling cannot produce piecewise results.
//!
//! The planner prefers exact engines (the cheaper of enumeration and BDD)
//! whenever the estimate fits the budget, falls back to SMC when exact
//! inference would blow the deadline (or the no-deadline cutover), and
//! reports [`PlanDecision::Infeasible`] when nothing fits — turning deadline
//! handling from "interrupt at timeout" into "don't start what can't
//! finish". The decision is a pure function of the model and config, so
//! auto-routing is deterministic and safe to bake into cache keys.

use std::fmt::Write as _;
use std::time::Duration;

use bayonet_net::opt::model_facts;
use bayonet_net::{Model, SchedKind};

use crate::engine::EngineKind;

/// Damping exponent applied to the raw per-step branching product:
/// configuration merging absorbs most of the raw growth. Fitted on the
/// curated corpus (gossip_k4 raw ≈ 15 → effective 1.70, gossip_k5 raw ≈ 26
/// → effective 1.93; both fit `raw^0.2` within a few percent).
const ALPHA: f64 = 0.2;

/// Tuning knobs for the cost model. The defaults are calibrated on the
/// reference host (see `docs/PERFORMANCE.md` § Planner); they only steer
/// routing and admission — posteriors never depend on them.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Wall-clock cost of one enumeration expansion (calibrated ~10 µs:
    /// measured 3–40 µs across the corpus, dominated by handler
    /// re-enumeration and exact arithmetic).
    pub ns_per_expansion: u64,
    /// Wall-clock cost of one node-step of one particle in the SMC engine.
    pub ns_per_particle_step: u64,
    /// Constant compilation overhead of the BDD backend (store setup,
    /// variable ordering, first-diagram construction).
    pub bdd_base_ns: u64,
    /// With no request deadline, exact estimates above this cutover route
    /// to SMC instead (default 60 s — matches the paper's experiments,
    /// which switch to sampling when exact inference stops terminating
    /// "within hours").
    pub smc_cutover_ns: u64,
    /// Target standard error for SMC posterior estimates; the particle
    /// count is `⌈0.25 / target_std_error²⌉` clamped to
    /// [`PlannerConfig::min_particles`]..[`PlannerConfig::max_particles`].
    /// Default 0.015 → 1112 particles (vs the paper's fixed 1000).
    pub target_std_error: f64,
    /// Lower clamp on the error-bounded particle count.
    pub min_particles: usize,
    /// Upper clamp on the error-bounded particle count.
    pub max_particles: usize,
    /// Per-step frontier cap used in the geometric sum (mirrors
    /// `ExactOptions::max_configs`: growth cannot exceed the config limit).
    pub max_frontier: f64,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            ns_per_expansion: 10_000,
            ns_per_particle_step: 2_000,
            bdd_base_ns: 10_000_000,
            smc_cutover_ns: 60_000_000_000,
            target_std_error: 0.015,
            min_particles: 100,
            max_particles: 100_000,
            max_frontier: 4_000_000.0,
        }
    }
}

/// The engine a [`Plan`] routes to. Unlike [`EngineKind`] this includes the
/// sampling engine, which lives above the exact crate (in `bayonet-approx`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanEngine {
    /// Parallel exact enumeration ([`EngineKind::Enum`]).
    Enum,
    /// Knowledge compilation ([`EngineKind::Bdd`]).
    Bdd,
    /// Sequential Monte Carlo with an error-bounded particle count.
    Smc,
}

impl PlanEngine {
    /// Engine name as used by the serve API and CLI.
    pub fn name(self) -> &'static str {
        match self {
            PlanEngine::Enum => "enum",
            PlanEngine::Bdd => "bdd",
            PlanEngine::Smc => "smc",
        }
    }
}

/// What the planner decided to do with the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanDecision {
    /// Run this engine; the estimate fits the budget.
    Run(PlanEngine),
    /// No engine's estimate fits the deadline budget: reject before doing
    /// any engine work. Carries the cheapest estimate so the caller can say
    /// how much time the request *would* need.
    Infeasible {
        /// Estimated cost of the cheapest eligible engine, in nanoseconds.
        needed_ns: u64,
    },
}

/// The raw signals the cost model extracted from the compiled program.
/// Exposed for `--explain-plan` and the golden tests.
#[derive(Debug, Clone)]
pub struct PlanSignals {
    /// Topology node count.
    pub nodes: usize,
    /// Topology link count (undirected).
    pub links: usize,
    /// Input/output queue capacity bound.
    pub queue_capacity: usize,
    /// Scheduler-step horizon: the program's `num_steps`, else `4·nodes+2`.
    pub horizon: u64,
    /// `flip` sites across all distinct programs.
    pub flip_sites: usize,
    /// `uniform` sites across all distinct programs.
    pub uniform_sites: usize,
    /// `dup` sites (each grows queue occupancy, lengthening the run).
    pub dup_sites: usize,
    /// Scheduler branching factor (probabilistic schedulers split mass).
    pub sched_branching: f64,
    /// Mean complete-execution count of one handler run (flip ×2,
    /// uniform ×span, averaged over nodes).
    pub handler_branching: f64,
    /// Effective per-step frontier growth after merging:
    /// `(sched × handler) ^ 0.2`.
    pub effective_branching: f64,
    /// Size of the largest group of nodes sharing one program `Arc` — the
    /// symmetry the BDD backend exploits (0 when no sharing).
    pub shared_program_nodes: usize,
    /// Order of the model's automorphism group, from the pass pipeline
    /// (1 when the model is unoptimized or the group is trivial). Orbit
    /// canonicalization divides the explored frontier by up to this factor.
    pub symmetry_group_order: u64,
    /// Size of the largest node orbit under that group (0 when trivial).
    /// When present this replaces the Arc-sharing heuristic as the BDD
    /// backend's structure-sharing signal: it is the *proven* count of
    /// interchangeable nodes, not a syntactic proxy.
    pub symmetry_largest_orbit: usize,
    /// Whether unbound symbolic parameters remain (rules out SMC).
    pub symbolic_params: bool,
}

/// A routing decision with its supporting estimates.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The decision: an engine to run, or an up-front rejection.
    pub decision: PlanDecision,
    /// Estimated total enumeration expansions over the horizon.
    pub est_expansions: u64,
    /// Estimated cost of the chosen engine (of the cheapest one when
    /// infeasible), in nanoseconds.
    pub est_cost_ns: u64,
    /// Estimated enumeration cost, in nanoseconds.
    pub est_enum_ns: u64,
    /// Estimated BDD cost; `None` when the backend is ineligible
    /// (>64 nodes, or no program sharing to exploit).
    pub est_bdd_ns: Option<u64>,
    /// Estimated SMC cost; `None` when symbolic parameters rule it out.
    pub est_smc_ns: Option<u64>,
    /// Error-bounded particle count for the SMC route (present whenever SMC
    /// is eligible, whether or not it was chosen).
    pub particles: Option<usize>,
    /// The extracted signals.
    pub signals: PlanSignals,
    /// The deadline budget the decision was made against, if any.
    pub budget_ns: Option<u64>,
}

impl Plan {
    /// The chosen engine, if the plan is feasible.
    pub fn engine(&self) -> Option<PlanEngine> {
        match self.decision {
            PlanDecision::Run(e) => Some(e),
            PlanDecision::Infeasible { .. } => None,
        }
    }

    /// Multi-line human-readable rendering (the CLI's `--explain-plan`).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        match self.decision {
            PlanDecision::Run(e) => {
                let _ = writeln!(
                    out,
                    "plan: engine={} est_cost={} est_expansions={} budget={}",
                    e.name(),
                    fmt_ns(self.est_cost_ns),
                    self.est_expansions,
                    self.budget_ns.map_or("unlimited".into(), fmt_ns),
                );
            }
            PlanDecision::Infeasible { needed_ns } => {
                let _ = writeln!(
                    out,
                    "plan: infeasible — cheapest engine needs {} but budget is {}",
                    fmt_ns(needed_ns),
                    self.budget_ns.map_or("unlimited".into(), fmt_ns),
                );
            }
        }
        let s = &self.signals;
        let _ = writeln!(
            out,
            "  signals: nodes={} links={} queue_capacity={} horizon={} \
             flips={} uniforms={} dups={} sched_branching={:.1} \
             handler_branching={:.2} effective_branching={:.3} \
             shared_program_nodes={} symmetry_order={} symmetry_orbit={} \
             symbolic_params={}",
            s.nodes,
            s.links,
            s.queue_capacity,
            s.horizon,
            s.flip_sites,
            s.uniform_sites,
            s.dup_sites,
            s.sched_branching,
            s.handler_branching,
            s.effective_branching,
            s.shared_program_nodes,
            s.symmetry_group_order,
            s.symmetry_largest_orbit,
            s.symbolic_params,
        );
        let _ = writeln!(
            out,
            "  estimates: enum={} bdd={} smc={}",
            fmt_ns(self.est_enum_ns),
            self.est_bdd_ns
                .map_or("ineligible".into(), |ns| fmt_ns(ns).to_string()),
            match (self.est_smc_ns, self.particles) {
                (Some(ns), Some(p)) => format!("{} ({p} particles)", fmt_ns(ns)),
                _ => "ineligible (symbolic params)".into(),
            },
        );
        out
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.1}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.1}us", ns as f64 / 1e3)
    }
}

/// Extracts the cost-model signals from a compiled model.
///
/// An optimized model (see [`bayonet_net::opt::optimize`]) carries its
/// facts in [`bayonet_net::opt::OptInfo`], gathered once by the pass
/// pipeline — extraction is then a field read, fixing the old
/// plan-then-analyze double traversal. Unoptimized models fall back to
/// [`model_facts`], the *same* implementation the pipeline uses, so the
/// two paths cannot diverge.
pub fn extract_signals(model: &Model) -> PlanSignals {
    let nodes = model.num_nodes();
    let fallback;
    let (facts, symmetry) = match model.opt_info() {
        Some(info) => (&info.facts, info.symmetry.as_ref()),
        None => {
            fallback = model_facts(model);
            (&fallback, None)
        }
    };
    let (symmetry_group_order, symmetry_largest_orbit) = match symmetry {
        Some(g) => (g.order() as u64, g.largest_orbit()),
        None => (1, 0),
    };
    let sched_branching = match model.scheduler {
        SchedKind::Uniform | SchedKind::Weighted(_) => 2.0,
        SchedKind::Deterministic | SchedKind::Rotor => 1.0,
    };
    let handler_branching = facts.handler_branching;
    PlanSignals {
        nodes,
        links: model.links().count() / 2,
        queue_capacity: model.queue_capacity,
        horizon: model.num_steps.unwrap_or(4 * nodes as u64 + 2),
        flip_sites: facts.flip_sites,
        uniform_sites: facts.uniform_sites,
        dup_sites: facts.dup_sites,
        sched_branching,
        handler_branching,
        effective_branching: (sched_branching * handler_branching).powf(ALPHA).max(1.0),
        shared_program_nodes: facts.shared_program_nodes,
        symmetry_group_order,
        symmetry_largest_orbit,
        symbolic_params: model.has_symbolic_params(),
    }
}

/// Builds a [`Plan`] for `model` under an optional deadline budget.
///
/// The decision is a pure function of `(model, cfg, budget)` — no clocks,
/// no randomness — so the same request always routes to the same engine and
/// the choice can be baked into result-cache keys.
pub fn plan_model(model: &Model, cfg: &PlannerConfig, budget: Option<Duration>) -> Plan {
    let signals = extract_signals(model);

    // Geometric frontier growth over the horizon, capped per step.
    let b = signals.effective_branching;
    let mut est_expansions = 0.0f64;
    let mut frontier = 1.0f64;
    for _ in 0..signals.horizon.min(100_000) {
        frontier = (frontier * b).min(cfg.max_frontier);
        est_expansions += frontier;
        if est_expansions > 1e15 {
            break;
        }
    }
    // Orbit canonicalization merges symmetric frontier configurations, so
    // a non-trivial automorphism group divides the explored frontier by up
    // to its order.
    let est_expansions = if signals.symmetry_group_order > 1 {
        (est_expansions / signals.symmetry_group_order as f64).max(1.0)
    } else {
        est_expansions.max(1.0)
    };
    let est_enum_ns = (est_expansions * cfg.ns_per_expansion as f64).min(1e18) as u64;

    // BDD: eligible under the backend's flag-packing bound and only worth
    // the base overhead when there is structure sharing to exploit. A proven
    // orbit from the pass pipeline overrides the Arc-sharing proxy.
    let shared = if signals.symmetry_largest_orbit >= 2 {
        signals.symmetry_largest_orbit
    } else {
        signals.shared_program_nodes
    };
    let est_bdd_ns = (signals.nodes <= crate::bdd_engine::MAX_NODES && shared >= 2)
        .then(|| est_enum_ns / shared as u64 + cfg.bdd_base_ns);

    // SMC: error-bounded particle count from worst-case Bernoulli variance.
    let (est_smc_ns, particles) = if signals.symbolic_params {
        (None, None)
    } else {
        let n = (0.25 / (cfg.target_std_error * cfg.target_std_error)).ceil() as usize;
        let n = n.clamp(cfg.min_particles, cfg.max_particles);
        let steps = signals.horizon.max(1) * signals.nodes.max(1) as u64;
        (
            Some(
                (n as u64)
                    .saturating_mul(steps)
                    .saturating_mul(cfg.ns_per_particle_step),
            ),
            Some(n),
        )
    };

    // Route: prefer the cheaper exact engine when it fits the budget (or
    // the no-deadline cutover); fall back to SMC; reject when nothing fits.
    let exact_best_ns = est_bdd_ns.map_or(est_enum_ns, |b| b.min(est_enum_ns));
    let exact_engine = match est_bdd_ns {
        Some(b) if b < est_enum_ns => PlanEngine::Bdd,
        _ => PlanEngine::Enum,
    };
    let budget_ns = budget.map(|d| d.as_nanos().min(u64::MAX as u128) as u64);
    let exact_limit = budget_ns.unwrap_or(cfg.smc_cutover_ns);
    let decision = if exact_best_ns <= exact_limit {
        PlanDecision::Run(exact_engine)
    } else {
        match est_smc_ns {
            Some(smc) if budget_ns.is_none_or(|b| smc <= b) => PlanDecision::Run(PlanEngine::Smc),
            _ => PlanDecision::Infeasible {
                needed_ns: est_smc_ns.map_or(exact_best_ns, |s| s.min(exact_best_ns)),
            },
        }
    };
    let est_cost_ns = match decision {
        PlanDecision::Run(PlanEngine::Enum) => est_enum_ns,
        PlanDecision::Run(PlanEngine::Bdd) => est_bdd_ns.unwrap_or(est_enum_ns),
        PlanDecision::Run(PlanEngine::Smc) => est_smc_ns.unwrap_or(est_enum_ns),
        PlanDecision::Infeasible { needed_ns } => needed_ns,
    };

    Plan {
        decision,
        est_expansions: est_expansions.min(1e18) as u64,
        est_cost_ns,
        est_enum_ns,
        est_bdd_ns,
        est_smc_ns,
        particles,
        signals,
        budget_ns,
    }
}

/// Resolves [`EngineKind::Auto`] to a concrete exact backend. Used by
/// [`crate::analyze`] so auto mode works everywhere an `ExactOptions`
/// travels; the SMC route only exists above this crate (in serve/CLI),
/// which call [`plan_model`] directly.
pub fn choose_exact(model: &Model) -> EngineKind {
    let plan = plan_model(model, &PlannerConfig::default(), None);
    match plan.engine() {
        Some(PlanEngine::Bdd) => EngineKind::Bdd,
        _ => EngineKind::Enum,
    }
}
