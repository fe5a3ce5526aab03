//! Parameter sweeps: one Bayonet program evaluated across a grid of
//! parameter values, sharing work between grid points.
//!
//! The paper's headline use case is what-if analysis — the same program
//! under many link-loss rates or protocol constants (Figure 3). Running
//! every grid point from scratch repeats the entire exploration; this
//! module shares it three ways, picking the cheapest route that provably
//! preserves **bit-identical** results against independent pointwise runs:
//!
//! * [`SweepRoute::Symbolic`] — leave the swept parameters unbound and run
//!   the symbolic engine once. Its piecewise cells answer every grid point
//!   inside a cell exactly; per-point work is a sign check per cell atom
//!   plus one linear-expression evaluation.
//! * [`SweepRoute::Prefix`] — bind the first point and explore with a
//!   [`ParamWatch`] on the swept parameters. Every global step that
//!   completes without reading a swept binding is independent of the grid,
//!   so the exploration state up to the *first* read (the shared prefix) is
//!   snapshotted once and replayed across points; only the suffix runs per
//!   point. Programs whose queries (but not handlers) mention the swept
//!   parameter share the entire exploration.
//! * [`SweepRoute::PerPoint`] — full independent runs (the diagram backend,
//!   and the fallback when nothing can be shared). Trivially identical to
//!   pointwise runs.
//!
//! Identity holds because the engine's rational arithmetic is exact and
//! canonical: masses summed in any grouping produce the same [`Rat`], and
//! a prefix that never consulted a swept binding is a pure function of the
//! non-swept model.

use std::sync::Arc;

use bayonet_num::Rat;
use bayonet_symbolic::{Assignment, Guard, ParamId};

use bayonet_net::{scheduler_for, Model, ParamWatch, Scheduler, Val};

use crate::engine::{
    analyze, lease_workers, run_cache_opts, step_bound, Analysis, EngineKind, EngineStats,
    EnumState, ExactError, ExactOptions,
};
use crate::query::{answer_cached, CellAnswer, QueryResult};

/// How a sweep's work was shared across grid points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepRoute {
    /// One symbolic run; points answered from its piecewise cells.
    Symbolic,
    /// A shared exploration prefix replayed across points, forked at the
    /// first read of a swept parameter. `shared_steps == 0` means nothing
    /// could be shared and every point ran in full.
    Prefix,
    /// Full independent per-point runs (diagram backend, or no queries).
    PerPoint,
}

impl SweepRoute {
    /// Stable lowercase name (metrics / JSON).
    pub fn name(self) -> &'static str {
        match self {
            SweepRoute::Symbolic => "symbolic",
            SweepRoute::Prefix => "prefix",
            SweepRoute::PerPoint => "per_point",
        }
    }
}

/// The answer at one grid point — exactly what a pointwise run of the same
/// bound model would produce, minus schedule-dependent statistics.
#[derive(Debug)]
pub struct SweepPointResult {
    /// Per-query results, in program order.
    pub results: Vec<QueryResult>,
    /// Surviving terminal mass at this point (the paper's `Z`).
    pub z: Rat,
    /// Mass discarded by observations at this point.
    pub discarded: Rat,
    /// Statistics for the work attributable to *this point only*: under
    /// [`SweepRoute::Prefix`] the shared prefix is excluded (it is reported
    /// once in [`SweepResult::prefix_stats`]); `steps` stays absolute so
    /// step bounds read the same as a pointwise run.
    pub stats: EngineStats,
}

/// The result of a parameter sweep.
#[derive(Debug)]
pub struct SweepResult {
    /// The sharing route taken.
    pub route: SweepRoute,
    /// The backend that ran: `Auto` resolves to enumeration, the backend
    /// with sharing routes, unless the grid has a single point.
    pub engine: EngineKind,
    /// Statistics of the work done once and shared by every point: the
    /// symbolic run ([`SweepRoute::Symbolic`]) or the shared prefix
    /// ([`SweepRoute::Prefix`]). Zero under [`SweepRoute::PerPoint`].
    pub prefix_stats: EngineStats,
    /// Global steps of the shared prefix (equals `prefix_stats.steps`;
    /// under [`SweepRoute::Symbolic`] the whole exploration was shared).
    pub shared_steps: u64,
    /// One result (or error) per grid point, in input order. A point's
    /// error is exactly the error an independent run at that point reports.
    pub points: Vec<Result<SweepPointResult, ExactError>>,
}

impl SweepResult {
    /// Number of points that were answered by reusing shared work rather
    /// than a full independent exploration. The first point is charged with
    /// computing the shared work, so a fully-shared 16-point sweep reports
    /// 15 reuses.
    pub fn reused_points(&self) -> usize {
        match self.route {
            SweepRoute::PerPoint => 0,
            SweepRoute::Prefix if self.shared_steps == 0 => 0,
            _ => self.points.len().saturating_sub(1),
        }
    }
}

/// Runs `model` across a parameter grid.
///
/// `params` names the swept parameters and each element of `points` gives
/// one value per swept parameter, in the same order. Non-swept parameters
/// keep whatever bindings `model` carries; swept parameters are rebound per
/// point (any binding they carry in `model` is ignored).
///
/// The result at every point is bit-identical to compiling the same model,
/// binding the point's values, and running [`analyze`] + query answering —
/// at any thread count and for every [`EngineKind`].
///
/// # Errors
///
/// Global errors (a grid row whose arity does not match `params`) are
/// reported at the top level; engine and query errors are per-point.
pub fn sweep(
    model: &Model,
    params: &[ParamId],
    points: &[Vec<Rat>],
    opts: &ExactOptions,
) -> Result<SweepResult, ExactError> {
    for row in points {
        if row.len() != params.len() {
            return Err(ExactError::Semantics(
                bayonet_net::SemanticsError::SymbolicValueInConcreteContext(format!(
                    "sweep grid row has {} values for {} swept parameters",
                    row.len(),
                    params.len()
                )),
            ));
        }
    }

    // The base model: swept parameters unbound, everything else as given.
    let mut base = model.clone();
    base.clear_param_watch();
    for id in params {
        let name = base.params.name(*id).to_string();
        base.unbind_param(&name)
            .expect("swept parameter exists in the model");
    }
    // Optimize once for the whole sweep: passes are binding-independent, so
    // every grid point (and the probe run) shares the result, and the
    // pointwise `analyze` runs the points are pinned against make the same
    // transformation themselves.
    let base = if opts.passes && base.opt_info().is_none() {
        bayonet_net::opt::optimize(&base)
    } else {
        base
    };
    let scheduler = scheduler_for(&base);

    // Resolve `Auto` to enumeration whenever there are points to share work
    // between: the symbolic and prefix routes exist only for it, while the
    // diagram engine reruns every point. A single point resolves as a
    // pointwise run would, on the bound model.
    let engine = match opts.engine {
        EngineKind::Auto if points.len() > 1 => EngineKind::Enum,
        EngineKind::Auto => {
            let mut bound0 = base.clone();
            if let Some(first) = points.first() {
                bind_point(&mut bound0, params, first);
            }
            crate::planner::choose_exact(&bound0)
        }
        explicit => explicit,
    };
    let opts = ExactOptions {
        engine,
        ..opts.clone()
    };

    if engine == EngineKind::Bdd && base.num_nodes() <= crate::bdd_engine::MAX_NODES {
        // The diagram backend has no incremental frontier to snapshot;
        // every point runs in full (still through the shared plan/options).
        return Ok(per_point_route(&base, &*scheduler, &opts, params, points));
    }

    // Symbolic route: only sound to evaluate cells at a point when the
    // swept parameters are the *only* unbound ones.
    if base_unbound_is_exactly(&base, params) {
        if let Some(result) = try_symbolic_route(&base, &*scheduler, &opts, params, points) {
            return Ok(result);
        }
    }
    Ok(prefix_route(&base, &*scheduler, &opts, params, points))
}

/// Binds each swept parameter to the point's value.
fn bind_point(model: &mut Model, params: &[ParamId], point: &[Rat]) {
    for (id, value) in params.iter().zip(point) {
        let name = model.params.name(*id).to_string();
        model
            .bind_param(&name, value.clone())
            .expect("swept parameter exists in the model");
    }
}

/// Are the unbound parameters of `base` exactly the swept set?
fn base_unbound_is_exactly(base: &Model, params: &[ParamId]) -> bool {
    base.params
        .iter()
        .all(|id| params.contains(&id) == base.binding(id).is_none())
}

/// Does `guard` hold at the assignment? `None` when an atom mentions a
/// parameter outside the assignment (cannot be decided).
fn guard_satisfied_at(guard: &Guard, assign: &Assignment) -> Option<bool> {
    for (expr, sign) in guard.atoms() {
        for p in expr.params() {
            assign.get(&p)?;
        }
        let v = expr.eval(&|p| assign[&p].clone());
        if v.sign() != sign {
            return Some(false);
        }
    }
    Some(true)
}

/// Evaluates a cell's value at the assignment; `None` when it mentions a
/// parameter outside the assignment.
fn value_at(value: &Val, assign: &Assignment) -> Option<Rat> {
    match value {
        Val::Rat(r) => Some(r.clone()),
        Val::Sym(e) => {
            for p in e.params() {
                assign.get(&p)?;
            }
            Some(e.eval(&|p| assign[&p].clone()))
        }
    }
}

/// One symbolic run answers every point: analyze with the swept parameters
/// unbound, then select + evaluate each point's cell. Returns `None` when
/// anything resists (symbolic arguments to randomness, too many cell atoms,
/// an undecidable guard, …) — the caller falls back to the prefix route,
/// which handles all of those by running concrete.
fn try_symbolic_route(
    base: &Model,
    scheduler: &dyn Scheduler,
    opts: &ExactOptions,
    params: &[ParamId],
    points: &[Vec<Rat>],
) -> Option<SweepResult> {
    let (run_cache, opts, _) = run_cache_opts(opts);
    let analysis = analyze(base, scheduler, &opts).ok()?;
    let mut query_results = Vec::with_capacity(base.queries.len());
    for q in &base.queries {
        query_results
            .push(answer_cached(base, &analysis, q, opts.fm_pruning, Some(&run_cache)).ok()?);
    }

    // Validate and evaluate every point before committing to the route.
    let mut out_points: Vec<Result<SweepPointResult, ExactError>> =
        Vec::with_capacity(points.len());
    for point in points {
        let assign: Assignment = params.iter().copied().zip(point.iter().cloned()).collect();

        // Z and discarded mass at the point: the masses of the terminals /
        // discarded branches whose guards hold there. Exact rational sums
        // are grouping-independent, so these equal the pointwise values.
        let mut z = Rat::zero();
        for (_, guard, mass) in &analysis.terminals {
            if guard_satisfied_at(guard, &assign)? {
                z += mass;
            }
        }
        let mut discarded = Rat::zero();
        for (guard, mass) in &analysis.discarded {
            if guard_satisfied_at(guard, &assign)? {
                discarded += mass;
            }
        }

        let mut results = Vec::with_capacity(query_results.len());
        let mut defined = false;
        for qr in &query_results {
            // Cells partition parameter space: exactly one admits the point.
            let cell = qr
                .cells
                .iter()
                .find(|c| guard_satisfied_at(&c.guard, &assign) == Some(true))?;
            let value = match &cell.value {
                None => None,
                Some(v) => Some(Val::Rat(value_at(v, &assign)?)),
            };
            defined |= value.is_some();
            results.push(QueryResult {
                kind: qr.kind,
                source: qr.source.clone(),
                cells: vec![CellAnswer {
                    guard: Guard::top(),
                    constraint: "true".to_string(),
                    witness: Assignment::new(),
                    value,
                    z: z.clone(),
                    discarded: discarded.clone(),
                }],
            });
        }
        // A pointwise run with every query undefined reports Z = 0; so do
        // we. (With no queries there is nothing to be undefined.)
        if !defined && !query_results.is_empty() {
            out_points.push(Err(ExactError::AllMassObservedOut));
            continue;
        }
        out_points.push(Ok(SweepPointResult {
            results,
            z,
            discarded,
            stats: EngineStats::default(),
        }));
    }

    Some(SweepResult {
        route: SweepRoute::Symbolic,
        engine: opts.engine,
        shared_steps: analysis.stats.steps,
        prefix_stats: analysis.stats,
        points: out_points,
    })
}

/// Shared-prefix route: explore with the first point's bindings and a
/// [`ParamWatch`] on the swept parameters; snapshot the exploration state
/// before the first step that read one, and replay only the suffix per
/// point. When the watch never trips, the entire exploration is shared and
/// per-point work is query answering alone.
fn prefix_route(
    base: &Model,
    scheduler: &dyn Scheduler,
    opts: &ExactOptions,
    params: &[ParamId],
    points: &[Vec<Rat>],
) -> SweepResult {
    let (run_cache, opts, _) = run_cache_opts(opts);
    let (_lease, workers) = lease_workers(&opts);
    let bound = step_bound(base, &opts);

    // Outcome of the probe run: the exploration state at the fork point
    // (shared prefix), a completed shared analysis, or nothing shareable.
    enum Probe {
        Fork(EnumState),
        Complete(Analysis),
        Nothing,
    }

    let probe_outcome = 'probe: {
        if points.is_empty() {
            break 'probe Probe::Nothing;
        }
        let mut probe = base.clone();
        bind_point(&mut probe, params, &points[0]);
        let watch = Arc::new(ParamWatch::new(probe.params.len(), params));
        probe.set_param_watch(Arc::clone(&watch));

        let Ok(mut state) = EnumState::init(&probe, scheduler, &opts) else {
            // Initialization failed; whether the error depends on the grid
            // is unknown, so let every point reproduce it independently.
            break 'probe Probe::Nothing;
        };
        if watch.hit() {
            // A state initializer read a swept parameter: no shared prefix.
            break 'probe Probe::Nothing;
        }
        loop {
            if state.done() {
                break 'probe Probe::Complete(state.finish());
            }
            let snapshot = state.clone();
            match state.step(&probe, scheduler, &opts, workers, bound) {
                Ok(()) => {
                    if watch.hit() {
                        // This step consumed a swept binding: its successors
                        // are point-specific. The pre-step snapshot is the
                        // shared prefix.
                        break 'probe Probe::Fork(snapshot);
                    }
                }
                Err(_) => {
                    // The erroring step may or may not depend on the grid;
                    // keep whatever prefix is provably shared and let each
                    // point re-derive its own (identical or not) error.
                    break 'probe if watch.hit() {
                        Probe::Fork(snapshot)
                    } else {
                        Probe::Nothing
                    };
                }
            }
        }
    };

    let answer_point =
        |model: &Model, analysis: &Analysis| -> Result<Vec<QueryResult>, ExactError> {
            let mut results = Vec::with_capacity(model.queries.len());
            for q in &model.queries {
                results.push(answer_cached(
                    model,
                    analysis,
                    q,
                    opts.fm_pruning,
                    Some(&run_cache),
                )?);
            }
            Ok(results)
        };

    match probe_outcome {
        Probe::Complete(analysis) => {
            // The whole exploration is grid-independent; per-point work is
            // query answering against the shared posterior.
            let shared_steps = analysis.stats.steps;
            let points_out = points
                .iter()
                .map(|point| {
                    let mut pm = base.clone();
                    bind_point(&mut pm, params, point);
                    Ok(SweepPointResult {
                        results: answer_point(&pm, &analysis)?,
                        z: analysis.total_terminal_mass(),
                        discarded: analysis.total_discarded_mass(),
                        stats: EngineStats::default(),
                    })
                })
                .collect();
            SweepResult {
                route: SweepRoute::Prefix,
                engine: opts.engine,
                shared_steps,
                prefix_stats: analysis.stats,
                points: points_out,
            }
        }
        Probe::Fork(prefix) => {
            let prefix_stats = prefix.stats.clone();
            let points_out = points
                .iter()
                .map(|point| {
                    let mut pm = base.clone();
                    bind_point(&mut pm, params, point);
                    let mut state = prefix.clone();
                    // Charge this point only for its suffix; `steps` stays
                    // absolute so the step bound behaves pointwise.
                    state.stats = EngineStats {
                        steps: prefix_stats.steps,
                        ..EngineStats::default()
                    };
                    while !state.done() {
                        state.step(&pm, scheduler, &opts, workers, bound)?;
                    }
                    let analysis = state.finish();
                    Ok(SweepPointResult {
                        results: answer_point(&pm, &analysis)?,
                        z: analysis.total_terminal_mass(),
                        discarded: analysis.total_discarded_mass(),
                        stats: analysis.stats,
                    })
                })
                .collect();
            SweepResult {
                route: SweepRoute::Prefix,
                engine: opts.engine,
                shared_steps: prefix_stats.steps,
                prefix_stats,
                points: points_out,
            }
        }
        Probe::Nothing => {
            let mut result = per_point_route(base, scheduler, &opts, params, points);
            result.route = SweepRoute::Prefix;
            result
        }
    }
}

/// Full independent runs, one per point (shared feasibility cache only).
fn per_point_route(
    base: &Model,
    scheduler: &dyn Scheduler,
    opts: &ExactOptions,
    params: &[ParamId],
    points: &[Vec<Rat>],
) -> SweepResult {
    let (run_cache, opts, _) = run_cache_opts(opts);
    let points_out = points
        .iter()
        .map(|point| {
            let mut pm = base.clone();
            bind_point(&mut pm, params, point);
            let analysis = analyze(&pm, scheduler, &opts)?;
            let mut results = Vec::with_capacity(pm.queries.len());
            for q in &pm.queries {
                results.push(answer_cached(
                    &pm,
                    &analysis,
                    q,
                    opts.fm_pruning,
                    Some(&run_cache),
                )?);
            }
            Ok(SweepPointResult {
                z: analysis.total_terminal_mass(),
                discarded: analysis.total_discarded_mass(),
                results,
                stats: analysis.stats,
            })
        })
        .collect();
    SweepResult {
        route: SweepRoute::PerPoint,
        engine: opts.engine,
        prefix_stats: EngineStats::default(),
        shared_steps: 0,
        points: points_out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayonet_lang::parse;
    use bayonet_net::compile;

    /// The *receiver* reads the swept parameter inside `flip`, so the
    /// sender's steps form a genuine non-empty shared prefix before the
    /// exploration forks — the prefix route with a real fork.
    const LOSSY: &str = r#"
        packet_fields { tag }
        parameters { P }
        topology { nodes { A, B } links { (A, pt1) <-> (B, pt1) } }
        programs { A -> send, B -> recv }
        init { packet -> (A, pt1); }
        query probability(got@B >= 1);
        def send(pkt, pt) state d(0) {
            if d == 0 { d = 1; if flip(1/3) { dup; } }
            fwd(1);
        }
        def recv(pkt, pt) state got(0) { if flip(P) { got = got + 1; } drop; }
    "#;

    /// Only the query mentions the swept parameter — the entire exploration
    /// is shared (symbolic route, or a complete prefix).
    const QUERY_ONLY: &str = r#"
        packet_fields { tag }
        parameters { K }
        topology { nodes { A, B } links { (A, pt1) <-> (B, pt1) } }
        programs { A -> send, B -> recv }
        init { packet -> (A, pt1); }
        query probability(got@B >= K);
        def send(pkt, pt) { if flip(1/3) { fwd(1); } else { drop; } }
        def recv(pkt, pt) state got(0) { got = got + 1; drop; }
    "#;

    fn grid_1d(values: &[i64]) -> Vec<Vec<Rat>> {
        values.iter().map(|v| vec![Rat::int(*v)]).collect()
    }

    fn run_sweep(source: &str, points: &[Vec<Rat>], opts: &ExactOptions) -> SweepResult {
        let model = compile(&parse(source).unwrap()).unwrap();
        let params: Vec<ParamId> = model.params.iter().collect();
        sweep(&model, &params, points, opts).unwrap()
    }

    fn pointwise(source: &str, param: &str, value: &Rat) -> (Rat, Rat, Vec<String>) {
        let mut model = compile(&parse(source).unwrap()).unwrap();
        model.bind_param(param, value.clone()).unwrap();
        let scheduler = scheduler_for(&model);
        let analysis = analyze(&model, &*scheduler, &ExactOptions::default()).unwrap();
        let rendered = model
            .queries
            .iter()
            .map(|q| {
                crate::query::answer(&model, &analysis, q, true)
                    .unwrap()
                    .to_string()
            })
            .collect();
        (
            analysis.total_terminal_mass(),
            analysis.total_discarded_mass(),
            rendered,
        )
    }

    #[test]
    fn flip_parameter_takes_prefix_route_and_matches_pointwise() {
        let points: Vec<Vec<Rat>> = [(1u64, 4u64), (1, 2), (3, 4)]
            .iter()
            .map(|(n, d)| vec![Rat::ratio(*n as i64, *d as i64)])
            .collect();
        let result = run_sweep(LOSSY, &points, &ExactOptions::default());
        assert_eq!(result.route, SweepRoute::Prefix);
        assert!(result.shared_steps > 0, "lossy sweep shares its prefix");
        for (row, point) in points.iter().zip(&result.points) {
            let got = point.as_ref().unwrap();
            let (z, disc, rendered) = pointwise(LOSSY, "P", &row[0]);
            assert_eq!(got.z, z);
            assert_eq!(got.discarded, disc);
            let sweep_rendered: Vec<String> = got.results.iter().map(|r| r.to_string()).collect();
            assert_eq!(sweep_rendered, rendered);
        }
    }

    #[test]
    fn query_only_parameter_shares_the_whole_exploration() {
        let points = grid_1d(&[0, 1, 2]);
        let result = run_sweep(QUERY_ONLY, &points, &ExactOptions::default());
        // Whole exploration shared, by either the symbolic or complete-
        // prefix mechanism; every point after the first is a reuse.
        assert!(matches!(
            result.route,
            SweepRoute::Symbolic | SweepRoute::Prefix
        ));
        assert!(result.shared_steps > 0);
        assert_eq!(result.reused_points(), points.len() - 1);
        for (row, point) in points.iter().zip(&result.points) {
            let got = point.as_ref().unwrap();
            // Per-point engine work is zero: the exploration ran once.
            assert_eq!(got.stats.expansions, 0);
            let (z, disc, rendered) = pointwise(QUERY_ONLY, "K", &row[0]);
            assert_eq!(got.z, z);
            assert_eq!(got.discarded, disc);
            let sweep_rendered: Vec<String> = got.results.iter().map(|r| r.to_string()).collect();
            assert_eq!(sweep_rendered, rendered);
        }
    }

    #[test]
    fn bdd_engine_sweeps_per_point() {
        let points = grid_1d(&[0, 1, 2]);
        let model = compile(&parse(QUERY_ONLY).unwrap()).unwrap();
        let params: Vec<ParamId> = model.params.iter().collect();
        let opts = ExactOptions {
            engine: EngineKind::Bdd,
            ..ExactOptions::default()
        };
        let result = sweep(&model, &params, &points, &opts).unwrap();
        assert_eq!(result.route, SweepRoute::PerPoint);
        assert_eq!(result.reused_points(), 0);
        let enum_result = run_sweep(QUERY_ONLY, &points, &ExactOptions::default());
        for (bdd, en) in result.points.iter().zip(&enum_result.points) {
            let (bdd, en) = (bdd.as_ref().unwrap(), en.as_ref().unwrap());
            assert_eq!(bdd.z, en.z);
            let a: Vec<String> = bdd.results.iter().map(|r| r.to_string()).collect();
            let b: Vec<String> = en.results.iter().map(|r| r.to_string()).collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn mismatched_grid_row_is_a_global_error() {
        let model = compile(&parse(QUERY_ONLY).unwrap()).unwrap();
        let params: Vec<ParamId> = model.params.iter().collect();
        let bad = vec![vec![Rat::int(1), Rat::int(2)]];
        assert!(sweep(&model, &params, &bad, &ExactOptions::default()).is_err());
    }
}
