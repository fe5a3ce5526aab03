//! The in-process replay: every request a run sent goes again through the
//! layers' public functions, single-threaded, with a span around each call.
//!
//! The replay's rendered posteriors are the reference every server response
//! is checked against. With tracing on it also runs the diagram engine and
//! an in-process [`Service::handle`] per request, and replays each request
//! once more untraced to measure the spans' own overhead.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bayonet_exact::{
    analyze, answer_cached, plan_model, sweep, Analysis, EngineKind, EngineStats, ExactOptions,
    FeasibilityCache, PlanDecision, PlanEngine, PlannerConfig, QueryResult,
};
use bayonet_lang::{check, parse, pretty_program};
use bayonet_net::opt::optimize;
use bayonet_net::{compile, scheduler_for, Model};
use bayonet_serve::{Request, Service};

use crate::gen::{Item, Job, Prog, Work};

/// One timed call. `parent` indexes the tracer's span list; `req` is the
/// job id all spans of one request share.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: usize,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans in memory. When off, `begin`/`end` do nothing.
pub struct Tracer {
    on: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    req: usize,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            req: self.req,
        });
        self.stack.push(index);
        index
    }

    pub fn end(&mut self, index: usize) {
        if self.on {
            self.spans[index].end_ns = self.now();
            self.stack.pop();
        }
    }
}

/// Work counts and input properties of one request, exact at one thread.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// Posteriors answered.
    pub items: u64,
    /// Engine runs: one per run or batch item, one per sweep.
    pub runs: u64,
    pub steps: u64,
    pub expansions: u64,
    pub peak_configs: u64,
    pub merge_hits: u64,
    pub orbit_merges: u64,
    /// Summed symmetry group order of the optimized models, per run.
    pub group_order: u64,
    pub bdd_runs: u64,
    pub bdd_nodes: u64,
    pub bdd_unique_hits: u64,
    pub est_expansions: u64,
    pub sweep_points: u64,
    pub sweep_reused: u64,
    pub sweep_expansions: u64,
    /// Input properties, counted per item.
    pub symmetric: u64,
    pub unbound: u64,
    pub sched_uniform: u64,
    pub sched_roundrobin: u64,
    pub sched_rotor: u64,
    pub auto: u64,
    pub route_symbolic: u64,
    pub route_prefix: u64,
    pub route_per_point: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        macro_rules! sum {
            ($($f:ident),*) => { $(self.$f += o.$f;)* };
        }
        sum!(
            items,
            runs,
            steps,
            expansions,
            peak_configs,
            merge_hits,
            orbit_merges,
            group_order,
            bdd_runs,
            bdd_nodes,
            bdd_unique_hits,
            est_expansions,
            sweep_points,
            sweep_reused,
            sweep_expansions,
            symmetric,
            unbound,
            sched_uniform,
            sched_roundrobin,
            sched_rotor,
            auto,
            route_symbolic,
            route_prefix,
            route_per_point
        );
    }

    fn engine(&mut self, stats: &EngineStats) {
        self.steps += stats.steps;
        self.expansions += stats.expansions;
        self.merge_hits += stats.merge_hits;
        self.orbit_merges += stats.orbit_merges;
    }

    /// Counts one posterior's input properties. `unbound`: the engine
    /// explored with a parameter left symbolic.
    fn item(&mut self, prog: Prog, model: &Model, unbound: bool, auto: bool) {
        self.items += 1;
        self.symmetric += u64::from(group_order(model) > 1);
        self.unbound += u64::from(unbound);
        self.auto += u64::from(auto);
        match prog.scheduler() {
            "roundrobin" => self.sched_roundrobin += 1,
            "rotor" => self.sched_rotor += 1,
            _ => self.sched_uniform += 1,
        }
    }
}

/// The replay of one request.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Rendered posterior per item, in item (grid) order.
    pub answers: Vec<String>,
    pub counts: Counts,
    pub feas_hits: u64,
    pub feas_misses: u64,
    /// `auto` items: analysis time of the routed engine and of the faster
    /// exact engine, overall and for symmetric models.
    pub routed_ns: u64,
    pub best_ns: u64,
    pub routed_sym_ns: u64,
    pub best_sym_ns: u64,
    /// The same core replay with and without spans (tracing only).
    pub traced_ns: u64,
    pub untraced_ns: u64,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn group_order(model: &Model) -> u64 {
    model
        .opt_info()
        .map_or(1, |info| info.report.group_order as u64)
}

/// The posterior part of a rendered `text`: everything up to and including
/// the `Z = ...` line (run bodies add an engine-stats line after it).
pub fn posterior(text: &str) -> String {
    let mut out = String::new();
    for line in text.split_inclusive('\n') {
        out.push_str(line);
        if line.starts_with("Z = ") {
            break;
        }
    }
    out
}

fn render(results: &[QueryResult], analysis_z: String, discarded: String) -> String {
    let mut text = String::new();
    for r in results {
        let _ = write!(text, "{r}");
    }
    let _ = writeln!(
        text,
        "Z = {analysis_z} (discarded by observations: {discarded})"
    );
    text
}

fn front_end(t: &mut Tracer, source: &str) -> Result<Model, String> {
    let s = t.begin("lang.parse");
    let program = parse(source).map_err(err)?;
    t.end(s);
    let s = t.begin("lang.pretty");
    std::hint::black_box(pretty_program(&program));
    t.end(s);
    let s = t.begin("lang.check");
    check(&program).map_err(|errors| format!("{} check errors", errors.len()))?;
    t.end(s);
    let s = t.begin("net.compile");
    let model = compile(&program).map_err(err)?;
    t.end(s);
    Ok(model)
}

fn bind(
    t: &mut Tracer,
    base: &Model,
    bindings: &[(String, bayonet_num::Rat)],
) -> Result<Model, String> {
    let s = t.begin("net.bind");
    let mut model = base.clone();
    for (name, value) in bindings {
        model.bind_param(name, value.clone()).map_err(err)?;
    }
    t.end(s);
    Ok(model)
}

fn exact_options(feas: &Arc<FeasibilityCache>, engine: EngineKind) -> ExactOptions {
    ExactOptions {
        threads: 1,
        engine,
        feasibility_cache: Some(Arc::clone(feas)),
        ..ExactOptions::default()
    }
}

/// How much of the pipeline a replay runs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Answers only: an `auto` item runs on the engine the planner routes
    /// it to, as on the server, which is the cheaper one on this mix.
    Check,
    /// Enumeration for every item, untimed by spans: the baseline the
    /// traced replay's overhead is measured against.
    Untraced,
    /// Enumeration for every item, then the diagram engine beside it.
    Traced,
}

/// One `/v1/run` posterior: bind, optimize, plan, analyze, answer and
/// render.
fn run_item(
    t: &mut Tracer,
    base: &Model,
    prog: Prog,
    item: &Item,
    mode: Mode,
    out: &mut Outcome,
) -> Result<String, String> {
    let model = bind(t, base, &item.bindings)?;
    let s = t.begin("opt.optimize");
    let model = optimize(&model);
    t.end(s);
    let s = t.begin("planner.plan");
    let plan = plan_model(&model, &PlannerConfig::default(), None);
    t.end(s);
    let scheduler = scheduler_for(&model);

    let routed_bdd = matches!(plan.decision, PlanDecision::Run(PlanEngine::Bdd));
    let engine = if mode == Mode::Check && item.auto && routed_bdd {
        EngineKind::Bdd
    } else {
        EngineKind::Enum
    };
    let feas = Arc::new(FeasibilityCache::new());
    let opts = exact_options(&feas, engine);
    let s = t.begin("engine.analyze");
    let started = Instant::now();
    let analysis: Analysis = analyze(&model, &*scheduler, &opts).map_err(err)?;
    let enum_ns = started.elapsed().as_nanos() as u64;
    t.end(s);
    let s = t.begin("query.answer");
    let results = model
        .queries
        .iter()
        .map(|q| answer_cached(&model, &analysis, q, opts.fm_pruning, Some(&feas)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(err)?;
    t.end(s);
    let s = t.begin("render.text");
    let text = render(
        &results,
        analysis.total_terminal_mass().to_string(),
        analysis.total_discarded_mass().to_string(),
    );
    t.end(s);

    let (hits, misses) = feas.counts();
    out.feas_hits += hits;
    out.feas_misses += misses;
    let c = &mut out.counts;
    c.item(prog, &model, model.has_symbolic_params(), item.auto);
    c.runs += 1;
    c.engine(&analysis.stats);
    c.peak_configs += analysis.stats.peak_configs as u64;
    c.group_order += group_order(&model);
    c.est_expansions += plan.est_expansions;

    if mode == Mode::Traced {
        let feas = Arc::new(FeasibilityCache::new());
        let s = t.begin("bdd.analyze");
        let started = Instant::now();
        let bdd =
            analyze(&model, &*scheduler, &exact_options(&feas, EngineKind::Bdd)).map_err(err)?;
        let bdd_ns = started.elapsed().as_nanos() as u64;
        t.end(s);
        c.bdd_runs += 1;
        c.bdd_nodes += bdd.stats.bdd_nodes;
        c.bdd_unique_hits += bdd.stats.bdd_unique_hits;
        if item.auto {
            let routed = match plan.decision {
                PlanDecision::Run(PlanEngine::Enum) => enum_ns,
                PlanDecision::Run(PlanEngine::Bdd) => bdd_ns,
                other => return Err(format!("planner routed an exact request to {other:?}")),
            };
            let best = enum_ns.min(bdd_ns);
            out.routed_ns += routed;
            out.best_ns += best;
            if group_order(&model) > 1 {
                out.routed_sym_ns += routed;
                out.best_sym_ns += best;
            }
        }
    }
    Ok(text)
}

fn sweep_job(
    t: &mut Tracer,
    prog: Prog,
    fixed: &[(String, bayonet_num::Rat)],
    values: &[bayonet_num::Rat],
    route: &str,
    out: &mut Outcome,
) -> Result<Vec<String>, String> {
    let base = front_end(t, prog.source())?;
    let model = bind(t, &base, fixed)?;
    let s = t.begin("opt.optimize");
    let model = optimize(&model);
    t.end(s);
    let param = model
        .params
        .iter()
        .find(|id| model.params.name(*id) == prog.param())
        .ok_or("swept parameter missing")?;
    let points: Vec<Vec<bayonet_num::Rat>> = values.iter().map(|v| vec![v.clone()]).collect();
    let feas = Arc::new(FeasibilityCache::new());
    let s = t.begin("sweep.sweep");
    let result = sweep(
        &model,
        &[param],
        &points,
        &exact_options(&feas, EngineKind::Enum),
    )
    .map_err(err)?;
    t.end(s);
    if result.route.name() != route {
        return Err(format!(
            "{} sweep took the {} route, not {route}",
            prog.name(),
            result.route.name()
        ));
    }
    let s = t.begin("render.text");
    let texts = result
        .points
        .iter()
        .map(|p| {
            let p = p.as_ref().map_err(err)?;
            Ok(render(&p.results, p.z.to_string(), p.discarded.to_string()))
        })
        .collect::<Result<Vec<_>, String>>()?;
    t.end(s);

    let (hits, misses) = feas.counts();
    out.feas_hits += hits;
    out.feas_misses += misses;
    let c = &mut out.counts;
    c.runs += 1;
    c.group_order += group_order(&model);
    let mut peak = result.prefix_stats.peak_configs;
    let before = c.expansions;
    c.engine(&result.prefix_stats);
    for p in result.points.iter().flatten() {
        c.engine(&p.stats);
        peak = peak.max(p.stats.peak_configs);
    }
    c.sweep_expansions += c.expansions - before;
    c.peak_configs += peak as u64;
    c.sweep_points += values.len() as u64;
    c.sweep_reused += result.reused_points() as u64;
    for _ in values {
        c.item(prog, &model, route == "symbolic", false);
        match route {
            "symbolic" => c.route_symbolic += 1,
            "prefix" => c.route_prefix += 1,
            _ => c.route_per_point += 1,
        }
    }
    Ok(texts)
}

/// Replays `job` through the layers, returning its reference posteriors.
fn core(t: &mut Tracer, job: &Job, mode: Mode) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.answers = match &job.work {
        Work::Run(prog, item) => {
            let base = front_end(t, prog.source())?;
            vec![run_item(t, &base, *prog, item, mode, &mut out)?]
        }
        Work::Batch(prog, items) => {
            // One compile per batch, as the server shares it across items.
            let base = front_end(t, prog.source())?;
            items
                .iter()
                .map(|item| run_item(t, &base, *prog, item, mode, &mut out))
                .collect::<Result<_, _>>()?
        }
        Work::Sweep {
            prog,
            fixed,
            values,
            route,
        } => sweep_job(t, *prog, fixed, values, route, &mut out)?,
    };
    Ok(out)
}

/// Posteriors of one server (or in-process service) response, in item
/// order. Error responses, error frames, a wrong item count and a sweep
/// frame on another route than intended are errors.
pub fn answers(job: &Job, status: u16, body: &[u8]) -> Result<Vec<String>, String> {
    if status != 200 {
        return Err(format!("status {status}"));
    }
    let text = std::str::from_utf8(body).map_err(err)?;
    let text_of = |body: &bayonet_serve::Json| -> Result<String, String> {
        body.get("text")
            .and_then(|t| t.as_str())
            .map(posterior)
            .ok_or_else(|| "response without text".to_string())
    };
    if let Work::Run(..) = job.work {
        let json = bayonet_serve::parse_json(text).map_err(err)?;
        return Ok(vec![text_of(&json)?]);
    }
    let mut frames: Vec<Option<String>> = vec![None; job.items()];
    for line in text.lines().filter(|l| !l.is_empty()) {
        let frame = bayonet_serve::parse_json(line).map_err(err)?;
        let index = frame
            .get("index")
            .and_then(|i| i.as_u64())
            .ok_or("frame without index")? as usize;
        let body = frame.get("body").ok_or("frame without body")?;
        if frame.get("status").and_then(|s| s.as_u64()) != Some(200) {
            return Err(format!("error frame {index}: {body}"));
        }
        if let Work::Sweep { route, .. } = &job.work {
            let got = body.get("route").and_then(|r| r.as_str()).unwrap_or("");
            if got != *route {
                return Err(format!("sweep point {index} took route {got}, not {route}"));
            }
        }
        let slot = frames.get_mut(index).ok_or("frame index out of range")?;
        *slot = Some(text_of(body)?);
    }
    frames
        .into_iter()
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "missing frames".to_string())
}

fn http_request(job: &Job) -> Request {
    Request {
        method: "POST".into(),
        path: job.path.into(),
        headers: Vec::new(),
        body: job.body.clone().into_bytes(),
    }
}

/// Replays one job. Traced, it runs the core twice (once untraced, in
/// alternating order, to price the spans), then the diagram engine inside
/// the core, then [`Service::handle`] on the same request.
fn replay_job(
    t: &mut Tracer,
    service: &Service,
    job: &Job,
    traced: bool,
) -> Result<Outcome, String> {
    if !traced {
        return core(&mut Tracer::new(false, Instant::now()), job, Mode::Check);
    }
    let mut quiet = Tracer::new(false, Instant::now());
    let untraced = |quiet: &mut Tracer| -> Result<(Outcome, u64), String> {
        let started = Instant::now();
        let out = core(quiet, job, Mode::Untraced)?;
        Ok((out, started.elapsed().as_nanos() as u64))
    };
    let untraced_first = job.id.is_multiple_of(2);
    let mut plain = None;
    if untraced_first {
        plain = Some(untraced(&mut quiet)?);
    }

    t.req = job.id;
    let root = t.begin("request");
    let first_span = t.spans.len();
    let started = Instant::now();
    let mut out = core(t, job, Mode::Traced)?;
    let core_ns = started.elapsed().as_nanos() as u64;
    let bdd_ns: u64 = t.spans[first_span..]
        .iter()
        .filter(|s| s.name == "bdd.analyze")
        .map(Span::ns)
        .sum();
    let s = t.begin("serve.handle");
    let response = service.handle(&http_request(job));
    t.end(s);
    t.end(root);

    let (reference, untraced_ns) = match plain {
        Some(p) => p,
        None => untraced(&mut quiet)?,
    };
    if reference.answers != out.answers {
        return Err(format!("request {}: replay is not deterministic", job.id));
    }
    if answers(job, response.status, &response.body)? != out.answers {
        return Err(format!(
            "request {}: in-process service disagrees with the layers",
            job.id
        ));
    }
    out.traced_ns = core_ns - bdd_ns;
    out.untraced_ns = untraced_ns;
    Ok(out)
}

/// Outcomes by job id, plus every span recorded.
pub struct Replay {
    pub outcomes: BTreeMap<usize, Outcome>,
    pub spans: Vec<Span>,
}

/// Replays `jobs` on `threads` threads, tracing those with an id below
/// `traced_below`.
pub fn replay(jobs: &[Job], traced_below: usize, threads: usize) -> Result<Replay, String> {
    let origin = Instant::now();
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Result<(usize, Outcome), String>>> = Mutex::new(Vec::new());
    let spans: Mutex<Vec<Span>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let service = Service::new(4 * jobs.len().max(64));
                let mut tracer = Tracer::new(true, origin);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(i) else { break };
                    let traced = job.id < traced_below;
                    let result = replay_job(&mut tracer, &service, job, traced);
                    let failed = result.is_err();
                    results
                        .lock()
                        .expect("results lock")
                        .push(result.map(|o| (job.id, o)));
                    if failed {
                        break;
                    }
                }
                // Parents index this thread's list; rebase them onto the
                // merged one.
                let mut all = spans.lock().expect("spans lock");
                let offset = all.len();
                all.extend(tracer.spans.into_iter().map(|mut s| {
                    s.parent = s.parent.map(|p| p + offset);
                    s
                }));
            });
        }
    });
    let mut outcomes = BTreeMap::new();
    for result in results.into_inner().expect("results lock") {
        let (id, outcome) = result?;
        outcomes.insert(id, outcome);
    }
    Ok(Replay {
        outcomes,
        spans: spans.into_inner().expect("spans lock"),
    })
}

#[cfg(test)]
/// The exact work counters over the workload's counted jobs, replayed at
/// one thread without a server. Two calls with one seed must agree.
pub fn exact_counts(workload: crate::gen::Workload, seed: u64) -> Result<Counts, String> {
    let jobs: Vec<Job> = (0..workload.counted_jobs())
        .map(|id| workload.job(seed, id))
        .collect();
    let replayed = replay(&jobs, jobs.len(), 2)?;
    let mut total = Counts::default();
    for outcome in replayed.outcomes.values() {
        total.add(&outcome.counts);
    }
    Ok(total)
}
