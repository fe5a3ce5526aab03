//! Measured query planner: the exact engine from the program's structure,
//! then admission, sampling fallback or rejection from a pilot run.
//!
//! * **Engine choice**, read off the engine matrix
//!   (`crates/exact/tests/data/engine_matrix.tsv`). The diagram engine wins
//!   only where the state factorizes, Holtzen et al.'s condition for
//!   compiled inference to pay: under a deterministic scheduler, packets at
//!   several nodes sharing a branching handler choose independently, and
//!   the diagram stores their product as a sum. A random scheduler couples
//!   every node to every other each step, and handlers that barely branch
//!   leave no product to factor. The choice fixes the cache key.
//! * **Pilot**: the enumeration's own first steps, capped at
//!   [`PILOT_EXPANSIONS`] and counted in work, never clock time, under the
//!   request's deadline. Finished, it knows the exact expansion count;
//!   otherwise it extrapolates (Batz et al.'s cost estimated before the
//!   run, measured instead of guessed). Admission and the SMC cutover read
//!   that count; enumeration continues from the pilot ([`Pilot::resume`]),
//!   so no step runs twice.
//!
//! Exact inference wins whenever it fits the budget (`timeout_ms`, else
//! the cutover); then SMC with `n = ⌈0.25 / target_std_error²⌉` particles
//! (standard error at most `0.5/√n`); else [`PlanDecision::Infeasible`].

use std::fmt::Write as _;
use std::time::Duration;

use bayonet_net::opt::model_facts;
use bayonet_net::{scheduler_for, Model, SchedKind, Scheduler};

use crate::engine::{
    enumerate_from, step_bound, Analysis, EngineKind, EngineStats, EnumState, ExactError,
    ExactOptions,
};

/// Expansions a pilot may run. Every program in the engine matrix
/// enumerates in fewer (the largest, ecmp under the uniform scheduler,
/// takes 2770), so its pilot finishes and the count is exact; past the cap
/// the extrapolation stays within 4× on gossip over five nodes.
pub const PILOT_EXPANSIONS: u64 = 4096;

/// Smallest mean handler branching at which the diagram engine beats
/// enumeration on a deterministic scheduler: in the engine matrix it wins
/// gossip (7.5) and loses every program branching 1.35–1.67.
const DIAGRAM_MIN_BRANCHING: f64 = 2.0;

/// Cost constants of the planner. They steer routing and admission only;
/// posteriors never depend on them.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Wall-clock cost of one enumeration expansion (3–16 µs measured).
    pub ns_per_expansion: u64,
    /// Wall-clock cost of one node-step of one particle in the SMC engine.
    pub ns_per_particle_step: u64,
    /// With no deadline, exact estimates above this route to SMC (60 s).
    pub smc_cutover_ns: u64,
    /// SMC target standard error: 0.015 gives 1112 particles (paper: 1000).
    pub target_std_error: f64,
    /// Lower clamp on the error-bounded particle count.
    pub min_particles: usize,
    /// Upper clamp on the error-bounded particle count.
    pub max_particles: usize,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            ns_per_expansion: 10_000,
            ns_per_particle_step: 2_000,
            smc_cutover_ns: 60_000_000_000,
            target_std_error: 0.015,
            min_particles: 100,
            max_particles: 100_000,
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
    /// No engine fits: reject before any engine work.
    Infeasible {
        /// Estimated cost of the cheapest eligible engine, in nanoseconds.
        needed_ns: u64,
    },
}

/// Structural signals read off the compiled program (`--explain-plan`).
#[derive(Debug, Clone)]
pub struct PlanSignals {
    /// Topology node count.
    pub nodes: usize,
    /// Scheduler branching: 2 when probabilistic, 1 for round-robin, rotor.
    pub sched_branching: f64,
    /// Mean executions of one handler run (flip ×2, uniform ×span).
    pub handler_branching: f64,
    /// Size of the largest group of nodes sharing one program `Arc`.
    pub shared_program_nodes: usize,
    /// Packets can be at several nodes at once (2+ init packets, or `dup`).
    pub concurrent_packets: bool,
    /// Automorphism group order (1 unoptimized); orbits shrink frontiers.
    pub symmetry_group_order: u64,
    /// Whether unbound symbolic parameters remain (rules out SMC).
    pub symbolic_params: bool,
}

/// The opening steps of an enumeration run, single-threaded, stopped
/// before the step that would pass the expansion cap: bounded, and a pure
/// function of the model unless the deadline cuts it short.
/// [`Pilot::resume`] finishes the run.
#[derive(Debug, Clone, Default)]
pub struct Pilot {
    /// `None` when an engine error (the deadline's included) ended the
    /// pilot; resuming then runs from scratch, which reproduces the error.
    state: Option<EnumState>,
    /// Configurations the next step would expand (0 when finished).
    frontier: u64,
    /// Steps since the frontier last stood at its narrowest: how long the
    /// current widening has lasted.
    rise: u64,
    /// Counters of the steps the pilot ran.
    pub stats: EngineStats,
    /// The run's outcome is known (fixpoint, or an error other than the
    /// deadline's): counts are exact.
    pub finished: bool,
    /// The deadline expired during the pilot.
    interrupted: bool,
}

impl Pilot {
    /// Runs the opening steps of `model`'s enumeration under `opts` (its
    /// threads and pool are ignored), at most `cap` expansions.
    fn run(model: &Model, opts: &ExactOptions, cap: u64) -> Pilot {
        let opts = ExactOptions {
            threads: 1,
            pool: None,
            ..opts.clone()
        };
        let scheduler = scheduler_for(model);
        let bound = step_bound(model, &opts);
        let mut pilot = Pilot {
            finished: true,
            ..Pilot::default()
        };
        let Ok(mut state) = EnumState::init(model, &*scheduler, &opts) else {
            return pilot;
        };
        let mut narrowest = usize::MAX;
        while !state.done() && state.stats.expansions + state.frontier_len() as u64 <= cap {
            let width = state.frontier_len();
            if width <= narrowest {
                (narrowest, pilot.rise) = (width, 0);
            }
            pilot.rise += 1;
            pilot.stats = state.stats.clone();
            if let Err(e) = state.step(model, &*scheduler, &opts, 1, bound) {
                if matches!(e, ExactError::Interrupted { .. }) {
                    (pilot.interrupted, pilot.finished) = (true, false);
                    pilot.frontier = width as u64;
                }
                return pilot;
            }
        }
        Pilot {
            frontier: state.frontier_len() as u64,
            finished: state.done(),
            stats: state.stats.clone(),
            state: Some(state),
            ..pilot
        }
    }

    /// The run's expansion count: exact when the pilot finished. Otherwise
    /// the frontier is assumed to narrow as slowly as it widened, keeping
    /// its last width for as many steps as it has been widening, so a long
    /// narrow prefix adds nothing. Frontiers are counted after merging and
    /// orbit canonicalization. Growth still under way is not projected:
    /// past the cap, gossip on six or more nodes is underestimated.
    pub fn est_expansions(&self) -> u64 {
        self.stats.expansions + self.frontier.saturating_mul(self.rise.max(1))
    }

    /// The run's global step count, extrapolated like
    /// [`Pilot::est_expansions`].
    pub fn est_steps(&self) -> u64 {
        self.stats.steps + if self.finished { 0 } else { self.rise.max(1) }
    }

    /// Continues the pilot to the fixpoint: the [`Analysis`], counters
    /// included, of an enumeration run of `model` (the pilot's) under
    /// `opts` (its planning options; deadline, threads and pool may differ).
    pub fn resume(
        self,
        model: &Model,
        scheduler: &dyn Scheduler,
        opts: &ExactOptions,
    ) -> Result<Analysis, ExactError> {
        enumerate_from(self.state, model, scheduler, opts)
    }
}

/// A routing decision with its supporting estimates.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The decision: an engine to run, or an up-front rejection.
    pub decision: PlanDecision,
    /// Enumeration expansions of the whole run (see
    /// [`Pilot::est_expansions`]).
    pub est_expansions: u64,
    /// Estimated cost of the chosen engine (of the cheapest one when
    /// infeasible), in nanoseconds.
    pub est_cost_ns: u64,
    /// Estimated exact cost in nanoseconds, for either exact engine (the
    /// diagram engine is chosen only where the matrix shows it no slower).
    pub est_exact_ns: u64,
    /// Estimated SMC cost; `None` when symbolic parameters rule it out.
    pub est_smc_ns: Option<u64>,
    /// Error-bounded particle count whenever SMC is eligible.
    pub particles: Option<usize>,
    /// The structural signals.
    pub signals: PlanSignals,
    /// The deadline budget the decision was made against, if any.
    pub budget_ns: Option<u64>,
    /// The measurement behind the estimates.
    pub pilot: Pilot,
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
        let fmt_ns = |ns: u64| format!("{:.1}ms", ns as f64 / 1e6);
        let budget = self.budget_ns.map_or("unlimited".into(), fmt_ns);
        let mut out = String::new();
        let _ = match self.decision {
            PlanDecision::Run(e) => writeln!(
                out,
                "plan: engine={} est_cost={} est_expansions={} budget={budget}",
                e.name(),
                fmt_ns(self.est_cost_ns),
                self.est_expansions,
            ),
            PlanDecision::Infeasible { needed_ns } => writeln!(
                out,
                "plan: infeasible — cheapest engine needs {} but budget is {budget}",
                fmt_ns(needed_ns),
            ),
        };
        let p = &self.pilot;
        let _ = writeln!(
            out,
            "  pilot: steps={} expansions={} finished={} (cap {PILOT_EXPANSIONS})",
            p.stats.steps, p.stats.expansions, p.finished
        );
        let s = &self.signals;
        let _ = writeln!(
            out,
            "  signals: nodes={} sched_branching={:.1} handler_branching={:.2} \
             shared_program_nodes={} concurrent_packets={} symmetry_order={} \
             symbolic_params={}",
            s.nodes,
            s.sched_branching,
            s.handler_branching,
            s.shared_program_nodes,
            s.concurrent_packets,
            s.symmetry_group_order,
            s.symbolic_params,
        );
        let _ = writeln!(
            out,
            "  estimates: exact={} ({}) smc={}",
            fmt_ns(self.est_exact_ns),
            exact_engine(s).name(),
            match (self.est_smc_ns, self.particles) {
                (Some(ns), Some(n)) => format!("{} ({n} particles)", fmt_ns(ns)),
                _ => "ineligible (symbolic params)".into(),
            },
        );
        out
    }
}

/// Extracts the structural signals from a compiled model: read off the pass
/// pipeline's facts when optimized, else from [`model_facts`], the same
/// implementation the pipeline uses.
pub fn extract_signals(model: &Model) -> PlanSignals {
    let fallback;
    let (facts, symmetry) = match model.opt_info() {
        Some(info) => (&info.facts, info.symmetry.as_ref()),
        None => {
            fallback = model_facts(model);
            (&fallback, None)
        }
    };
    PlanSignals {
        nodes: model.num_nodes(),
        sched_branching: match model.scheduler {
            SchedKind::Uniform | SchedKind::Weighted(_) => 2.0,
            SchedKind::Deterministic | SchedKind::Rotor => 1.0,
        },
        handler_branching: facts.handler_branching,
        shared_program_nodes: facts.shared_program_nodes,
        concurrent_packets: model.init_packets.len() > 1 || facts.dup_sites > 0,
        symmetry_group_order: symmetry.map_or(1, |g| g.order() as u64),
        symbolic_params: model.has_symbolic_params(),
    }
}

/// The exact engine for a model with these signals: the diagram engine
/// where the state factorizes (a deterministic scheduler, and packets at
/// several nodes sharing a handler that branches), within the backend's
/// node bound; enumeration everywhere else.
fn exact_engine(s: &PlanSignals) -> PlanEngine {
    let factorizes = s.sched_branching <= 1.0
        && s.concurrent_packets
        && s.shared_program_nodes >= 2
        && s.handler_branching >= DIAGRAM_MIN_BRANCHING;
    if factorizes && s.nodes <= crate::bdd_engine::MAX_NODES {
        PlanEngine::Bdd
    } else {
        PlanEngine::Enum
    }
}

/// Resolves [`EngineKind::Auto`] from the model's structure alone (no
/// pilot). [`crate::analyze`], sweeps, the serve cache key and
/// [`plan_model`]'s exact route all make this one choice.
pub fn choose_exact(model: &Model) -> EngineKind {
    match exact_engine(&extract_signals(model)) {
        PlanEngine::Bdd => EngineKind::Bdd,
        _ => EngineKind::Enum,
    }
}

/// Builds a [`Plan`] for `model` under an optional deadline budget, piloting
/// with default engine options. The decision is a pure function of
/// `(model, cfg, budget)`: the pilot counts work, it reads no clock.
pub fn plan_model(model: &Model, cfg: &PlannerConfig, budget: Option<Duration>) -> Plan {
    plan_with(model, cfg, budget, &ExactOptions::default())
}

/// [`plan_model`] piloting under `opts` (a request's feasibility cache,
/// pruning, limits and deadline), so [`Pilot::resume`] with the same
/// options continues the very run the request asked for. With a budget the
/// pilot also stops at the budget's worth of expansions: a run unfinished
/// by then cannot fit, nor can one whose deadline expires mid-pilot.
pub fn plan_with(
    model: &Model,
    cfg: &PlannerConfig,
    budget: Option<Duration>,
    opts: &ExactOptions,
) -> Plan {
    let signals = extract_signals(model);
    let budget_ns = budget.map(|d| d.as_nanos().min(u64::MAX as u128) as u64);
    let ns_per_expansion = cfg.ns_per_expansion.max(1);
    let cap = budget_ns.map_or(PILOT_EXPANSIONS, |b| {
        PILOT_EXPANSIONS.min(b / ns_per_expansion)
    });
    let pilot = Pilot::run(model, opts, cap);
    let est_expansions = pilot.est_expansions();
    // A pilot that ran the budget out leaves the rest of the run to do.
    let spent = budget_ns.filter(|_| pilot.interrupted).unwrap_or(0);
    let est_exact_ns = (est_expansions.saturating_mul(ns_per_expansion)).saturating_add(spent);

    // SMC: error-bounded particle count from worst-case Bernoulli variance,
    // each particle simulating every node for the run's estimated steps.
    let (est_smc_ns, particles) = if signals.symbolic_params {
        (None, None)
    } else {
        let n = (0.25 / (cfg.target_std_error * cfg.target_std_error)).ceil() as usize;
        let n = n.clamp(cfg.min_particles, cfg.max_particles);
        let node_steps = pilot.est_steps().max(1) * signals.nodes.max(1) as u64;
        let ns = (n as u64)
            .saturating_mul(node_steps)
            .saturating_mul(cfg.ns_per_particle_step);
        (Some(ns), Some(n))
    };

    // Route: exact when it fits the budget (or the no-deadline cutover);
    // fall back to SMC; reject when nothing fits.
    let decision = if est_exact_ns <= budget_ns.unwrap_or(cfg.smc_cutover_ns) {
        PlanDecision::Run(exact_engine(&signals))
    } else {
        match est_smc_ns {
            Some(smc) if budget_ns.is_none_or(|b| smc <= b) => PlanDecision::Run(PlanEngine::Smc),
            _ => PlanDecision::Infeasible {
                needed_ns: est_smc_ns.map_or(est_exact_ns, |s| s.min(est_exact_ns)),
            },
        }
    };
    let est_cost_ns = match decision {
        PlanDecision::Run(PlanEngine::Smc) => est_smc_ns.unwrap_or(est_exact_ns),
        PlanDecision::Run(_) => est_exact_ns,
        PlanDecision::Infeasible { needed_ns } => needed_ns,
    };

    Plan {
        decision,
        est_expansions,
        est_cost_ns,
        est_exact_ns,
        est_smc_ns,
        particles,
        signals,
        budget_ns,
        pilot,
    }
}
