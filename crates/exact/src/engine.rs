//! The exact inference engine: exhaustive weighted exploration of the
//! global transition system with configuration merging.
//!
//! This plays the role PSI plays in the paper's toolchain — an exact
//! posterior calculator. The global semantics is a Markov chain over
//! configurations (Figure 7), so identical configurations reached along
//! different traces can have their masses summed; that merging is what makes
//! 30-node networks tractable. Observation failures remove mass, which is
//! restored by normalizing with the surviving mass `Z` (paper §3.2).
//!
//! # Parallel expansion and determinism
//!
//! Large frontiers are expanded by a work-stealing crew: the frontier is cut
//! into chunk tasks, each worker owns a deque seeded with one task, and the
//! remaining tasks queue on a shared injector that idle workers steal from
//! (falling back to raiding each other's deques). Expanding one
//! configuration is independent of every other, so any schedule computes the
//! same multiset of successors; to make the *results byte-for-bit
//! reproducible regardless of schedule*, chunk outputs are re-assembled in
//! chunk order and every merge ([`compress`]) sorts its output by the
//! canonical `(GlobalConfig, Guard)` state key. A single-threaded run and an
//! 8-thread run therefore produce identical [`Analysis`] values (identical
//! terminals, identical statistics — only [`EngineStats::steals`] is
//! schedule-dependent), which `crates/exact/tests/differential.rs` locks
//! down.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bayonet_bdd::FastMap;
use bayonet_num::Rat;
use bayonet_symbolic::{FeasibilityCache, Guard};

use bayonet_net::{
    deliver, initial_config, run_handler, Action, Deadline, GlobalConfig, HandlerOutcome, Model,
    NodeConfig, Scheduler, SemanticsError, Val,
};

use crossbeam::deque::{Injector, Stealer, Worker};

use crate::enumerate::enumerate_eval_cached;
use crate::pool::ComputePool;

/// Which exact backend explores the global transition system. Both produce
/// bit-identical [`Analysis`] posteriors; they differ in how the frontier is
/// represented and therefore in speed on structured state spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Explicit frontier enumeration with configuration merging (the
    /// default). Parallelizes across [`ExactOptions::threads`].
    #[default]
    Enum,
    /// Knowledge compilation to algebraic decision diagrams
    /// (`bayonet-bdd`): the frontier is a set of hash-consed diagrams and
    /// each scheduler action is a set-level transform. Wins — often by an
    /// order of magnitude — when nodes' local states are conditionally
    /// independent. Single-threaded; ignores [`ExactOptions::threads`].
    Bdd,
    /// Let the planner's structural choice pick between
    /// [`EngineKind::Enum`] and [`EngineKind::Bdd`] (see
    /// [`crate::planner::choose_exact`]). The choice is a pure function of
    /// the model, so results stay deterministic.
    Auto,
}

/// Options controlling the exact engine.
#[derive(Debug, Clone)]
pub struct ExactOptions {
    /// Maximum number of global steps before reporting non-termination
    /// (the paper's generated programs assert `terminated()` after
    /// `num_steps`; we iterate to the fixpoint with this safety bound).
    pub max_global_steps: u64,
    /// Safety bound on simultaneously tracked configurations.
    pub max_configs: usize,
    /// Prune symbolically infeasible branches with Fourier–Motzkin.
    pub fm_pruning: bool,
    /// Merge identical configurations (the ablation switch; disabling this
    /// recovers naive trace enumeration).
    pub merge_configs: bool,
    /// Worker threads for frontier expansion (1 = single-threaded). When
    /// [`ExactOptions::pool`] is set this is a *request*: the engine leases
    /// up to `threads - 1` extra workers from the pool and degrades toward
    /// single-threaded when the pool is busy. Results are identical for
    /// every value; only wall-clock time changes.
    pub threads: usize,
    /// Smallest frontier worth parallelizing; frontiers below this expand
    /// sequentially even when `threads > 1` (spawn overhead dominates).
    pub par_threshold: usize,
    /// Shared compute pool to lease extra workers from (see
    /// [`ComputePool`]); `None` means `threads` is taken at face value.
    pub pool: Option<ComputePool>,
    /// Cooperative deadline/cancellation, polled between expansion batches.
    /// Defaults to unlimited.
    pub deadline: Deadline,
    /// Memo table for Fourier–Motzkin feasibility verdicts. `None` (the
    /// default) gives each [`analyze`] run a private cache; pass a shared
    /// [`FeasibilityCache`] to reuse verdicts across the analyze and
    /// query-answering passes of one request.
    pub feasibility_cache: Option<Arc<FeasibilityCache>>,
    /// Which backend to run; see [`EngineKind`]. Both backends honor every
    /// other option and produce bit-identical posteriors.
    pub engine: EngineKind,
    /// Run the model-optimization pass pipeline (`bayonet_net::opt`) before
    /// inference (default on; the CLI's `--no-opt` and the serve API's
    /// `"passes": false` turn it off). Posteriors are bit-identical either
    /// way; passes only shrink the explored state space. Models that
    /// already carry pass results ([`Model::opt_info`]) are not re-optimized.
    pub passes: bool,
}

impl Default for ExactOptions {
    fn default() -> Self {
        ExactOptions {
            max_global_steps: 100_000,
            max_configs: 4_000_000,
            fm_pruning: true,
            merge_configs: true,
            threads: 1,
            par_threshold: 16,
            pool: None,
            deadline: Deadline::default(),
            feasibility_cache: None,
            engine: EngineKind::default(),
            passes: true,
        }
    }
}

/// Statistics from an exact-engine run.
///
/// Every field except [`EngineStats::steals`] and the feasibility-cache
/// counters is a pure function of the model and options — independent of
/// thread count and schedule. The cache counters depend on which worker
/// reaches a guard first, so they are reported out-of-band (CLI `--stats`
/// stderr, server `/metrics` aggregates) and never in pinned output.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Global steps executed (depth of the exploration).
    pub steps: u64,
    /// Configuration expansions performed.
    pub expansions: u64,
    /// Peak number of simultaneously tracked configurations.
    pub peak_configs: usize,
    /// Number of times a successor merged into an existing configuration.
    pub merge_hits: u64,
    /// Number of distinct terminal configurations.
    pub terminal_configs: usize,
    /// Expansion tasks stolen across worker deques (schedule-dependent;
    /// 0 for single-threaded runs).
    pub steals: u64,
    /// Fourier–Motzkin feasibility checks answered from the per-run guard
    /// cache (schedule-dependent under parallel expansion).
    pub feasibility_hits: u64,
    /// Feasibility checks that ran the full elimination.
    pub feasibility_misses: u64,
    /// Decision nodes allocated in the ADD store ([`EngineKind::Bdd`] only;
    /// 0 under enumeration).
    pub bdd_nodes: u64,
    /// ADD constructions answered by the unique table (structural merges;
    /// [`EngineKind::Bdd`] only).
    pub bdd_unique_hits: u64,
    /// ADD operations answered by the apply/operation memo caches
    /// ([`EngineKind::Bdd`] only).
    pub bdd_apply_cache_hits: u64,
    /// Successor configurations replaced by a smaller member of their
    /// symmetry orbit (see `bayonet_net::opt`; 0 when the model has no
    /// non-trivial automorphisms or canonicalization is gated off).
    /// Schedule-independent: a pure function of the model and options.
    pub orbit_merges: u64,
}

/// Errors from the exact engine.
#[derive(Debug)]
pub enum ExactError {
    /// A semantic error in the model (hard failure).
    Semantics(SemanticsError),
    /// Mass remained on non-terminal configurations after the step bound.
    Unterminated {
        /// Number of live configurations.
        live_configs: usize,
        /// Total unresolved probability mass (approximate display).
        mass: String,
    },
    /// The configuration frontier exceeded [`ExactOptions::max_configs`].
    ConfigLimit(usize),
    /// A symbolic query answer would split parameter space on more distinct
    /// constraints than the cell decomposition supports
    /// ([`MAX_CELL_ATOMS`](crate::MAX_CELL_ATOMS); cells grow as `3^atoms`).
    TooManyCellAtoms {
        /// Distinct constraint expressions the answer needs.
        atoms: usize,
        /// The supported maximum.
        max: usize,
    },
    /// All probability mass was discarded by observations (Z = 0), so the
    /// posterior is undefined.
    AllMassObservedOut,
    /// The run was cut short by its [`Deadline`] (timeout or cancellation).
    Interrupted {
        /// Global steps completed before the interruption.
        steps: u64,
        /// Configuration expansions completed before the interruption.
        expansions: u64,
    },
}

impl fmt::Display for ExactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExactError::Semantics(e) => write!(f, "semantic error: {e}"),
            ExactError::Unterminated { live_configs, mass } => write!(
                f,
                "network did not terminate within the step bound \
                 ({live_configs} live configurations, mass ≈ {mass})"
            ),
            ExactError::ConfigLimit(n) => {
                write!(
                    f,
                    "exact state space exceeded the configuration limit ({n})"
                )
            }
            ExactError::TooManyCellAtoms { atoms, max } => write!(
                f,
                "symbolic answer splits on {atoms} distinct parameter constraints, \
                 more than the {max} a piecewise result supports; bind some parameters"
            ),
            ExactError::AllMassObservedOut => {
                f.write_str("all probability mass was discarded by observations (Z = 0)")
            }
            ExactError::Interrupted { steps, expansions } => write!(
                f,
                "exact inference interrupted by deadline \
                 (after {steps} steps, {expansions} expansions)"
            ),
        }
    }
}

impl std::error::Error for ExactError {}

impl ExactError {
    /// Stamps an interruption with how far the run got. Enumerations raise
    /// [`ExactError::Interrupted`] with zero counters, since only the
    /// engine driving them knows its progress; other errors pass through.
    pub(crate) fn at_progress(self, steps: u64, expansions: u64) -> ExactError {
        match self {
            ExactError::Interrupted { .. } => ExactError::Interrupted { steps, expansions },
            other => other,
        }
    }
}

impl From<SemanticsError> for ExactError {
    fn from(e: SemanticsError) -> Self {
        ExactError::Semantics(e)
    }
}

/// The exact posterior over terminal configurations.
///
/// `terminals` and `discarded` are sorted by canonical state key / guard,
/// so two runs of the same model produce structurally identical values
/// regardless of thread count.
#[derive(Debug)]
pub struct Analysis {
    /// Terminal configurations with their guards and unnormalized masses.
    pub terminals: Vec<(GlobalConfig, Guard, Rat)>,
    /// Mass discarded by failed observations, per guard.
    pub discarded: Vec<(Guard, Rat)>,
    /// Run statistics.
    pub stats: EngineStats,
}

impl Analysis {
    /// Total surviving (terminal) mass; with no symbolic parameters this is
    /// the paper's normalization constant `Z`.
    pub fn total_terminal_mass(&self) -> Rat {
        self.terminals
            .iter()
            .fold(Rat::zero(), |acc, (_, _, m)| acc + m)
    }

    /// Total mass discarded by observations.
    pub fn total_discarded_mass(&self) -> Rat {
        self.discarded
            .iter()
            .fold(Rat::zero(), |acc, (_, m)| acc + m)
    }
}

/// How many configuration expansions (or, inside one enumeration, branch
/// replays) to run between deadline polls.
pub(crate) const DEADLINE_POLL_STRIDE: usize = 256;

/// Target number of chunk tasks per parallel worker. More tasks than
/// workers is what makes stealing effective under uneven chunk costs.
const TASKS_PER_WORKER: usize = 4;

/// A weighted set of guarded configurations. Kept as a `Vec`; merging
/// compresses it through a hash map.
type Weighted = Vec<(Guard, GlobalConfig, Rat)>;

/// Successors produced by expanding a batch of configurations.
#[derive(Default)]
struct Expansion {
    next: Weighted,
    terminal: Weighted,
    discarded: Vec<(Guard, Rat)>,
    orbit_merges: u64,
}

impl Expansion {
    fn absorb(&mut self, part: Expansion) {
        self.next.extend(part.next);
        self.terminal.extend(part.terminal);
        self.discarded.extend(part.discarded);
        self.orbit_merges += part.orbit_merges;
    }
}

/// The symmetry group to canonicalize frontier configurations with, when
/// both gates pass: the model was optimized and has a non-trivial
/// automorphism group, and the scheduler *actually running* is
/// permutation-invariant (a `set_scheduler` override can differ from the
/// model's declared kind).
///
/// Unbound symbolic parameters do not gate it. Guards constrain global
/// parameters only, and the group preserves programs, wiring and queries,
/// so the step kernel commutes with it on `(guard, config)` pairs and the
/// orbit key stays parameter-agnostic. The piecewise answer does not depend
/// on which representative survives either: query `and`/`or` split on both
/// operands whatever their order ([`bayonet_net::apply_binop`]), and
/// [`bayonet_symbolic::atom_exprs`] sorts the cell atoms structurally, so
/// cells come out in one canonical order.
pub(crate) fn symmetry_for<'a>(
    model: &'a Model,
    scheduler: &dyn Scheduler,
) -> Option<&'a bayonet_net::opt::SymmetryGroup> {
    if !scheduler.permutation_invariant() {
        return None;
    }
    model.opt_info().and_then(|i| i.symmetry.as_ref())
}

/// Canonicalizes a successor configuration by symmetry orbit, counting the
/// replacement when it changed anything.
fn canon_config(
    sym: Option<&bayonet_net::opt::SymmetryGroup>,
    cfg: &mut GlobalConfig,
    merges: &mut u64,
) {
    if let Some(group) = sym {
        if group.canonicalize(cfg) {
            *merges += 1;
        }
    }
}

/// Expands one non-terminal configuration by one global step, appending
/// successors to `out`.
#[allow(clippy::too_many_arguments)]
fn expand_config(
    model: &Model,
    scheduler: &dyn Scheduler,
    sym: Option<&bayonet_net::opt::SymmetryGroup>,
    guard: &Guard,
    cfg: &GlobalConfig,
    mass: &Rat,
    opts: &ExactOptions,
    out: &mut Expansion,
) -> Result<(), ExactError> {
    let k = model.num_nodes();
    let enabled = cfg.enabled_actions();
    debug_assert!(!enabled.is_empty(), "frontier configs are non-terminal");
    for (action, p_sched, sched_next) in scheduler.distribution(cfg.sched_state, &enabled, k) {
        let step_mass = mass * &p_sched;
        match action {
            Action::Fwd(i) => {
                let mut c2 = cfg.clone();
                c2.sched_state = sched_next;
                deliver(model, &mut c2, i)?;
                canon_config(sym, &mut c2, &mut out.orbit_merges);
                if c2.is_terminal() {
                    out.terminal.push((guard.clone(), c2, step_mass));
                } else {
                    out.next.push((guard.clone(), c2, step_mass));
                }
            }
            Action::Run(i) => {
                // G-Run: enumerate every complete handler execution.
                let branches = enumerate_eval_cached(
                    guard,
                    opts.fm_pruning,
                    opts.feasibility_cache.as_deref(),
                    &opts.deadline,
                    |driver| {
                        let mut node_cfg = NodeConfig::clone(&cfg.nodes[i]);
                        let outcome = run_handler(model, i, &mut node_cfg, driver)?;
                        Ok((node_cfg, outcome))
                    },
                )?;
                for b in branches {
                    let (mut node_cfg, outcome) = b.result;
                    let branch_mass = &step_mass * &b.weight;
                    match outcome {
                        HandlerOutcome::ObserveFailed => {
                            // Conditioning: remove this mass from the
                            // distribution.
                            out.discarded.push((b.guard, branch_mass));
                        }
                        HandlerOutcome::Completed | HandlerOutcome::AssertFailed => {
                            if outcome == HandlerOutcome::AssertFailed {
                                node_cfg.error = true;
                            }
                            // Only node `i` changed; the clone shares the rest.
                            let mut c2 = cfg.clone();
                            c2.sched_state = sched_next;
                            c2.nodes[i] = Arc::new(node_cfg);
                            canon_config(sym, &mut c2, &mut out.orbit_merges);
                            if c2.is_terminal() {
                                out.terminal.push((b.guard, c2, branch_mass));
                            } else {
                                out.next.push((b.guard, c2, branch_mass));
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// Merges identical `(guard, config)` entries by summing their masses, then
/// sorts by the canonical state key so the output order — and everything
/// derived from it downstream — is independent of both hash-map iteration
/// order and the parallel schedule that produced `items`.
///
/// The map uses the Fx hasher: it lives for one call and holds at most one
/// frontier (bounded by [`ExactOptions::max_configs`]), so SipHash's
/// collision resistance buys nothing for its cost per key.
fn compress(items: Weighted, stats: &mut EngineStats) -> Weighted {
    let mut map: FastMap<(Guard, GlobalConfig), Rat> =
        FastMap::with_capacity_and_hasher(items.len(), Default::default());
    for (g, c, m) in items {
        match map.entry((g, c)) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                *e.get_mut() += &m;
                stats.merge_hits += 1;
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(m);
            }
        }
    }
    let mut out: Weighted = map.into_iter().map(|((g, c), m)| (g, c, m)).collect();
    out.sort_unstable_by(|(g1, c1, _), (g2, c2, _)| (c1, g1).cmp(&(c2, g2)));
    out
}

/// One parallel expansion task: chunk `ordinal` covering
/// `frontier[start..end]`.
#[derive(Clone, Copy)]
struct Task {
    ordinal: usize,
    start: usize,
    end: usize,
}

/// A worker's error, tagged with the chunk it occurred in so the caller can
/// surface the error the *sequential* engine would have hit first.
/// Interruptions are tagged `usize::MAX` so real errors take precedence.
type TaggedError = (usize, ExactError);

/// Expands `frontier` with a work-stealing crew of `workers` threads.
///
/// Tasks are chunk ranges of the frontier. Each worker's deque is seeded
/// with one task; the remainder queue on a shared injector. A worker whose
/// deque runs dry first steals from the injector, then raids its peers —
/// each successful steal is counted. Chunk outputs are re-assembled in
/// ordinal order, so the merged [`Expansion`] is byte-identical to what the
/// sequential loop produces.
fn expand_frontier_parallel(
    model: &Model,
    scheduler: &dyn Scheduler,
    sym: Option<&bayonet_net::opt::SymmetryGroup>,
    frontier: &[(Guard, GlobalConfig, Rat)],
    opts: &ExactOptions,
    workers: usize,
) -> Result<(Expansion, u64), TaggedError> {
    let chunk = frontier.len().div_ceil(workers * TASKS_PER_WORKER).max(1);
    let locals: Vec<Worker<Task>> = (0..workers).map(|_| Worker::new_fifo()).collect();
    let stealers: Vec<Stealer<Task>> = locals.iter().map(Worker::stealer).collect();
    let injector = Injector::new();
    for (ordinal, start) in (0..frontier.len()).step_by(chunk).enumerate() {
        let task = Task {
            ordinal,
            start,
            end: (start + chunk).min(frontier.len()),
        };
        if ordinal < workers {
            locals[ordinal].push(task);
        } else {
            injector.push(task);
        }
    }
    // Raised by the first worker to fail (deadline or semantics), making
    // the others abandon their remaining tasks promptly.
    let stop = AtomicBool::new(false);

    type WorkerResult = Result<(Vec<(usize, Expansion)>, u64), TaggedError>;
    let results: Vec<WorkerResult> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = locals
            .into_iter()
            .enumerate()
            .map(|(me, local)| {
                let stealers = &stealers;
                let injector = &injector;
                let stop = &stop;
                scope.spawn(move |_| -> WorkerResult {
                    let mut done: Vec<(usize, Expansion)> = Vec::new();
                    let mut steals = 0u64;
                    loop {
                        let task = local.pop().or_else(|| {
                            injector
                                .steal()
                                .success()
                                .or_else(|| {
                                    stealers
                                        .iter()
                                        .enumerate()
                                        .filter(|(victim, _)| *victim != me)
                                        .find_map(|(_, s)| s.steal().success())
                                })
                                .inspect(|_| steals += 1)
                        });
                        let Some(task) = task else { break };
                        let mut out = Expansion::default();
                        for (i, (g, c, m)) in frontier[task.start..task.end].iter().enumerate() {
                            if i % DEADLINE_POLL_STRIDE == 0 {
                                if stop.load(Ordering::Relaxed) {
                                    return Ok((done, steals));
                                }
                                if opts.deadline.expired() {
                                    stop.store(true, Ordering::Relaxed);
                                    return Err((
                                        usize::MAX,
                                        // steps/expansions are filled in by
                                        // the caller.
                                        ExactError::Interrupted {
                                            steps: 0,
                                            expansions: 0,
                                        },
                                    ));
                                }
                            }
                            if let Err(e) =
                                expand_config(model, scheduler, sym, g, c, m, opts, &mut out)
                            {
                                stop.store(true, Ordering::Relaxed);
                                let tag = match e {
                                    ExactError::Interrupted { .. } => usize::MAX,
                                    _ => task.ordinal,
                                };
                                return Err((tag, e));
                            }
                        }
                        done.push((task.ordinal, out));
                    }
                    Ok((done, steals))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("expansion worker panicked"))
            .collect()
    })
    .expect("crossbeam scope");

    let mut chunks: Vec<(usize, Expansion)> = Vec::new();
    let mut steals = 0u64;
    let mut first_err: Option<TaggedError> = None;
    for r in results {
        match r {
            Ok((done, s)) => {
                chunks.extend(done);
                steals += s;
            }
            Err((ordinal, e)) => {
                // Keep the error from the earliest chunk — the one the
                // sequential engine would have reported.
                if first_err.as_ref().is_none_or(|(o, _)| ordinal < *o) {
                    first_err = Some((ordinal, e));
                }
            }
        }
    }
    if let Some(err) = first_err {
        return Err(err);
    }
    // Deterministic merge: concatenate chunk outputs in ordinal order,
    // exactly reproducing the sequential iteration order.
    chunks.sort_unstable_by_key(|(ordinal, _)| *ordinal);
    let mut merged = Expansion::default();
    for (_, part) in chunks {
        merged.absorb(part);
    }
    Ok((merged, steals))
}

/// The enumeration engine's exploration state between global steps.
///
/// [`analyze`] drives it straight to the fixpoint; the sweep engine
/// ([`crate::sweep`]) instead snapshots it (it is `Clone`) at the last step
/// that provably did not depend on a swept parameter, and replays the
/// remainder once per grid point.
#[derive(Debug, Clone)]
pub(crate) struct EnumState {
    frontier: Weighted,
    terminal_acc: Weighted,
    discarded: HashMap<Guard, Rat>,
    pub(crate) stats: EngineStats,
}

impl EnumState {
    /// Builds the initial distribution: enumerate the (possibly random)
    /// state initializers of every node, then the cartesian product.
    pub(crate) fn init(
        model: &Model,
        scheduler: &dyn Scheduler,
        opts: &ExactOptions,
    ) -> Result<EnumState, ExactError> {
        let sym = symmetry_for(model, scheduler);
        let mut stats = EngineStats::default();
        let k = model.num_nodes();
        let mut initial: Vec<(Vec<Vec<Val>>, Rat, Guard)> =
            vec![(Vec::with_capacity(k), Rat::one(), Guard::top())];
        for node in 0..k {
            let prog = &model.programs[node];
            let node_branches = enumerate_eval_cached(
                &Guard::top(),
                opts.fm_pruning,
                opts.feasibility_cache.as_deref(),
                &opts.deadline,
                |driver| bayonet_net::eval_state_init(model, prog, driver),
            )?;
            let mut next = Vec::with_capacity(initial.len() * node_branches.len());
            for (states, mass, guard) in &initial {
                for b in &node_branches {
                    let Some(combined) = guard.conjoin(&b.guard) else {
                        continue; // contradictory parameter assumptions
                    };
                    let mut states = states.clone();
                    states.push(b.result.clone());
                    next.push((states, mass * &b.weight, combined));
                }
            }
            initial = next;
        }

        let mut frontier: Weighted = Vec::new();
        let mut terminal_acc: Weighted = Vec::new();
        for (states, mass, guard) in initial {
            let mut cfg = initial_config(model, states)?;
            // Canonicalize from the initial distribution onward: orbit
            // masses then evolve exactly under the permutation-invariant
            // step kernel, for any initial packet placement.
            canon_config(sym, &mut cfg, &mut stats.orbit_merges);
            if cfg.is_terminal() {
                terminal_acc.push((guard, cfg, mass));
            } else {
                frontier.push((guard, cfg, mass));
            }
        }
        frontier = compress(frontier, &mut stats);
        Ok(EnumState {
            frontier,
            terminal_acc,
            discarded: HashMap::new(),
            stats,
        })
    }

    /// Has the exploration reached its fixpoint (empty frontier)?
    pub(crate) fn done(&self) -> bool {
        self.frontier.is_empty()
    }

    /// Configurations the next [`EnumState::step`] will expand.
    pub(crate) fn frontier_len(&self) -> usize {
        self.frontier.len()
    }

    /// Executes one global step: bound checks, then a (possibly parallel)
    /// expansion of the whole frontier, then merging.
    ///
    /// Callers must not invoke this once [`EnumState::done`] holds.
    pub(crate) fn step(
        &mut self,
        model: &Model,
        scheduler: &dyn Scheduler,
        opts: &ExactOptions,
        workers: usize,
        step_bound: u64,
    ) -> Result<(), ExactError> {
        let stats = &mut self.stats;
        stats.steps += 1;
        if stats.steps > step_bound {
            let mass: Rat = self
                .frontier
                .iter()
                .fold(Rat::zero(), |acc, (_, _, m)| acc + m);
            return Err(ExactError::Unterminated {
                live_configs: self.frontier.len(),
                mass: format!("{:.6}", mass.to_f64()),
            });
        }
        stats.peak_configs = stats.peak_configs.max(self.frontier.len());
        if self.frontier.len() > opts.max_configs {
            return Err(ExactError::ConfigLimit(opts.max_configs));
        }
        if opts.deadline.expired() {
            return Err(ExactError::Interrupted {
                steps: stats.steps - 1,
                expansions: stats.expansions,
            });
        }

        let sym = symmetry_for(model, scheduler);
        stats.expansions += self.frontier.len() as u64;
        let expanded = if workers > 1 && self.frontier.len() >= opts.par_threshold.max(2) {
            expand_frontier_parallel(model, scheduler, sym, &self.frontier, opts, workers)
                .map(|(merged, steals)| {
                    stats.steals += steals;
                    if let Some(pool) = &opts.pool {
                        pool.add_steals(steals);
                    }
                    merged
                })
                .map_err(|(_, e)| e)
        } else {
            let mut out = Expansion::default();
            self.frontier
                .iter()
                .enumerate()
                .try_for_each(|(i, (g, c, m))| {
                    if i > 0 && i % DEADLINE_POLL_STRIDE == 0 && opts.deadline.expired() {
                        return Err(ExactError::Interrupted {
                            steps: 0,
                            expansions: 0,
                        });
                    }
                    expand_config(model, scheduler, sym, g, c, m, opts, &mut out)
                })
                .map(|()| out)
        };
        let expansion = expanded.map_err(|e| e.at_progress(stats.steps - 1, stats.expansions))?;
        self.stats.orbit_merges += expansion.orbit_merges;
        self.frontier.clear();
        self.terminal_acc.extend(expansion.terminal);
        for (g, m) in expansion.discarded {
            *self.discarded.entry(g).or_insert_with(Rat::zero) += &m;
        }
        self.frontier = if opts.merge_configs {
            compress(expansion.next, &mut self.stats)
        } else {
            expansion.next
        };
        Ok(())
    }

    /// Seals the exploration into an [`Analysis`]: merge and sort terminals,
    /// sort discarded mass. Feasibility-cache counters are the caller's
    /// responsibility (they are deltas against a shared cache).
    pub(crate) fn finish(self) -> Analysis {
        let mut stats = self.stats;
        // Terminal configurations are always merged: soundness does not
        // depend on it, and it keeps the posterior small.
        let terminals = compress(self.terminal_acc, &mut stats);
        stats.terminal_configs = terminals.len();
        let mut discarded: Vec<(Guard, Rat)> = self.discarded.into_iter().collect();
        discarded.sort_unstable_by(|(g1, _), (g2, _)| g1.cmp(g2));
        Analysis {
            terminals: terminals.into_iter().map(|(g, c, m)| (c, g, m)).collect(),
            discarded,
            stats,
        }
    }
}

/// Rebinds `opts` with a run-level feasibility cache: a caller-provided
/// cache is shared (its counters delta-reported), otherwise the run gets a
/// private one. Returns the cache and its counter snapshot.
pub(crate) fn run_cache_opts(
    opts: &ExactOptions,
) -> (Arc<FeasibilityCache>, ExactOptions, (u64, u64)) {
    let run_cache: Arc<FeasibilityCache> = opts.feasibility_cache.clone().unwrap_or_default();
    let counts_before = run_cache.counts();
    let opts = ExactOptions {
        feasibility_cache: Some(Arc::clone(&run_cache)),
        ..opts.clone()
    };
    (run_cache, opts, counts_before)
}

/// Leases extra expansion workers for a whole run: a big request holds its
/// crew from the shared pool (degrading gracefully when the pool is busy),
/// while `threads` is taken at face value without a pool. Returns the lease
/// guard (workers return to the pool on drop) and the effective crew size.
pub(crate) fn lease_workers(opts: &ExactOptions) -> (Option<crate::pool::PoolLease>, usize) {
    let requested = opts.threads.max(1);
    let lease = match &opts.pool {
        Some(pool) if requested > 1 => Some(pool.lease(requested - 1)),
        _ => None,
    };
    let workers = match &lease {
        Some(lease) => 1 + lease.granted(),
        None => requested,
    };
    (lease, workers)
}

/// The global step bound: the source's `num_steps N;` bounds the
/// exploration like the paper's generated `repeat N { step() };
/// assert(terminated())` (Figure 10), falling back to the options' safety
/// bound.
pub(crate) fn step_bound(model: &Model, opts: &ExactOptions) -> u64 {
    model.num_steps.unwrap_or(opts.max_global_steps)
}

/// Runs the exact engine to the termination fixpoint.
///
/// With `opts.threads > 1` the frontier expansion of each global step is
/// parallelized via per-worker deques with work stealing; the returned
/// [`Analysis`] is byte-identical to a single-threaded run.
///
/// # Errors
///
/// See [`ExactError`]. In particular, networks that cannot reach a terminal
/// configuration within `opts.max_global_steps` are reported rather than
/// looping forever.
pub fn analyze(
    model: &Model,
    scheduler: &dyn Scheduler,
    opts: &ExactOptions,
) -> Result<Analysis, ExactError> {
    // Run the pass pipeline unless the caller opted out or already did it
    // (serve and sweep optimize up front so one optimized model serves many
    // runs); the pipeline is semantics-preserving, so this changes engine
    // statistics, never posteriors.
    let optimized;
    let model = if opts.passes && model.opt_info().is_none() {
        optimized = bayonet_net::opt::optimize(model);
        &optimized
    } else {
        model
    };
    let engine = match opts.engine {
        // Auto resolves through the planner's structural choice; it depends
        // only on the model, so posteriors (bit-identical across backends
        // anyway) and statistics stay deterministic.
        EngineKind::Auto => crate::planner::choose_exact(model),
        explicit => explicit,
    };
    if engine == EngineKind::Bdd && model.num_nodes() <= crate::bdd_engine::MAX_NODES {
        // Larger models fall back to enumeration, which has no such bound.
        return crate::bdd_engine::analyze_bdd(model, scheduler, opts);
    }
    enumerate_from(None, model, scheduler, opts)
}

/// Runs enumeration to the fixpoint, from `start` (a state some earlier
/// steps of the same run reached, such as the planner's pilot) or from the
/// initial distribution.
pub(crate) fn enumerate_from(
    start: Option<EnumState>,
    model: &Model,
    scheduler: &dyn Scheduler,
    opts: &ExactOptions,
) -> Result<Analysis, ExactError> {
    let bound = step_bound(model, opts);
    let (run_cache, opts, (hits_before, misses_before)) = run_cache_opts(opts);
    let (_lease, workers) = lease_workers(&opts);

    let mut state = match start {
        Some(state) => state,
        None => EnumState::init(model, scheduler, &opts)?,
    };
    while !state.done() {
        state.step(model, scheduler, &opts, workers, bound)?;
    }
    let mut analysis = state.finish();
    let (hits_after, misses_after) = run_cache.counts();
    analysis.stats.feasibility_hits = hits_after - hits_before;
    analysis.stats.feasibility_misses = misses_after - misses_before;
    Ok(analysis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayonet_net::scheduler_for;

    #[test]
    fn sharing_run_successor_replaces_only_the_run_node() {
        let model = bayonet_net::compile(
            &bayonet_lang::parse(
                r#"
                packet_fields { dst }
                topology {
                    nodes { A, B, C }
                    links { (A, pt1) <-> (B, pt1), (B, pt2) <-> (C, pt1) }
                }
                programs { A -> idle, B -> coin, C -> idle }
                init { packet -> (B, pt1); }
                query probability(hits@B == 1);
                def idle(pkt, pt) state seen(0) { drop; }
                def coin(pkt, pt) state hits(0) {
                    if flip(1/3) { hits = 1; fwd(2); } else { drop; }
                }
                "#,
            )
            .unwrap(),
        )
        .unwrap();
        let scheduler = scheduler_for(&model);
        let parent = initial_config(&model, vec![vec![Val::int(0)]; 3]).unwrap();
        assert_eq!(parent.enabled_actions(), vec![Action::Run(1)]);
        let mut out = Expansion::default();
        let opts = ExactOptions::default();
        expand_config(
            &model,
            &*scheduler,
            None,
            &Guard::top(),
            &parent,
            &Rat::one(),
            &opts,
            &mut out,
        )
        .unwrap();
        let successors: Vec<&GlobalConfig> = out
            .next
            .iter()
            .chain(&out.terminal)
            .map(|(_, c, _)| c)
            .collect();
        assert_eq!(successors.len(), 2, "one successor per coin outcome");
        for child in successors {
            let shared: Vec<bool> = (0..3)
                .map(|i| Arc::ptr_eq(&parent.nodes[i], &child.nodes[i]))
                .collect();
            assert_eq!(shared, vec![true, false, true]);
        }
    }
}
