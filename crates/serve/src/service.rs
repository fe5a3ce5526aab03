//! Request routing and inference execution.
//!
//! The [`Service`] is the transport-independent core of the server. Every
//! inference request — `/v1/check`, `/v1/run`, `/v1/synthesize`, a
//! `/v1/batch` item, a `/v1/sweep` — runs one pipeline:
//!
//! 1. **Decode**: one field reader ([`Fields`]) checks the body against the
//!    endpoint's field table; the first bad field is a `400` naming it.
//! 2. **Resolve**: each distinct source is parsed once, compiled and
//!    optimized at most once ([`Sources`]); bindings go on a copy.
//! 3. **Plan**: `"engine": "auto"` resolves against the optimized model,
//!    before the cache key is computed.
//! 4. **Execute**: through the result cache, with one options builder, one
//!    deadline builder and one engine-error map.
//! 5. **Frame**: `/v1/batch` (a `/v1/run` per item, fanned out over pool
//!    lanes) and `/v1/sweep` (grid points sharing work through
//!    [`bayonet_exact::sweep`]) emit NDJSON frames, sorted by index for
//!    [`Service::handle`] or streamed as chunks by [`Service::serve`].
//!
//! A `/v1/run` is a batch of one, run inline, so a batch item's frame is
//! byte-identical to the same run. Every `200` inference body carries a
//! `text` field, which `bayonet run`, `check` and `synthesize` print: the
//! CLI is an in-process client of this service.
//!
//! Successful inference responses are cached in an LRU keyed by a hash of
//! the canonically pretty-printed program, the engine, the query selection,
//! the engine options, and the sorted parameter bindings — so textually
//! different but structurally identical requests share cache entries. The
//! deadline and the `threads` hint are deliberately left out of the key: a
//! successful result is valid regardless of the budget that produced it,
//! parallel runs are bit-identical to single-threaded ones, and error
//! responses (including timeouts) are never cached.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt::{Display, Write as _};
use std::hash::{Hash, Hasher};
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use bayonet_approx::{rejection, smc, ApproxError, ApproxOptions};
use bayonet_exact::{
    analyze, answer_cached, choose_exact, plan_with, synthesize_result, Analysis, ComputePool,
    EngineKind, EngineStats, ExactError, ExactOptions, FeasibilityCache, Objective, Pilot, Plan,
    PlanDecision, PlanEngine, PlannerConfig, QueryResult, SynthesisOptions,
};
use bayonet_lang::{check, parse, pretty_program, Program};
use bayonet_net::opt::optimize;
use bayonet_net::{compile, scheduler_for, CompiledQuery, Deadline, Model};
use bayonet_num::Rat;

use crate::cache::LruCache;
use crate::http::{ChunkedWriter, Request, Response};
use crate::json::{self, Json};
use crate::metrics::Metrics;
use crate::persist::{PersistConfig, PersistentStore};

/// Default result-cache capacity (entries).
pub const DEFAULT_CACHE_ENTRIES: usize = 128;

/// Largest accepted `items` array in a `/v1/batch` request. The cap keeps
/// one hostile or confused client from parking an unbounded amount of work
/// behind a single connection; bigger workloads split into several batches.
pub const MAX_BATCH_ITEMS: usize = 256;

/// Largest accepted parameter-sweep grid (cartesian-product points) in a
/// `/v1/sweep` request — the same resource argument as [`MAX_BATCH_ITEMS`],
/// scaled up because grid points share one compile and most engine work.
pub const MAX_SWEEP_POINTS: usize = 1024;

/// Largest per-request `threads` value accepted before server-side
/// clamping; anything above this is a client error rather than a hint.
pub const MAX_REQUEST_THREADS: u64 = 64;

/// Largest accepted `timeout_ms`; uncapped deadlines are expressed by
/// omitting the field.
pub const MAX_TIMEOUT_MS: u64 = 600_000;

/// The fields of a `/v1/check`, `/v1/run` or `/v1/synthesize` body and of
/// one `/v1/batch` item, in the order an unknown-field error lists them.
const RUN_FIELDS: &[&str] = &[
    "source",
    "engine",
    "query",
    "bindings",
    "particles",
    "seed",
    "timeout_ms",
    "threads",
    "maximize",
    "allow_zero_params",
    "passes",
];

/// The top-level fields of a `/v1/batch` body.
const BATCH_FIELDS: &[&str] = &["source", "items", "timeout_ms"];

/// The fields of a `/v1/sweep` body (`program` is an alias for `source`).
const SWEEP_FIELDS: &[&str] = &[
    "source",
    "program",
    "sweep",
    "engine",
    "bindings",
    "timeout_ms",
    "threads",
    "passes",
];

const NDJSON: &str = "application/x-ndjson";

/// Everything [`Service::with_options`] needs to build a service.
#[derive(Default)]
pub struct ServiceOptions {
    /// Result-cache capacity in entries (0 disables caching *and*
    /// persistence).
    pub cache_entries: usize,
    /// Shared compute pool for parallel exact expansion; `None` keeps
    /// every request single-threaded regardless of its `threads` hint.
    pub pool: Option<ComputePool>,
    /// On-disk persistence for the result cache; `None` keeps it
    /// memory-only.
    pub persist: Option<PersistConfig>,
}

/// The transport-independent request handler shared by all workers.
pub struct Service {
    metrics: Arc<Metrics>,
    cache: Arc<Mutex<LruCache<u64, Response>>>,
    /// Where `"engine": "auto"` requests the planner routed off their
    /// structural cache key went: [`route_key`] → (routed cache key,
    /// engine). A repeat finds its answer through it without a pilot.
    routes: Mutex<LruCache<u64, (u64, Engine)>>,
    /// Shared compute pool for parallel exact expansion; `None` keeps every
    /// request single-threaded regardless of its `threads` hint.
    pool: Option<ComputePool>,
    /// Write-behind persistence for cached responses; dropped last-ish so
    /// a graceful shutdown flushes queued appends.
    persist: Option<PersistentStore>,
}

impl Service {
    /// Creates a service with a result cache of `cache_entries` entries
    /// (0 disables caching) and no compute pool: every request runs
    /// single-threaded.
    pub fn new(cache_entries: usize) -> Service {
        Service::with_options(ServiceOptions {
            cache_entries,
            ..ServiceOptions::default()
        })
        .expect("no persistence requested, so construction cannot fail")
    }

    /// Creates a service that leases workers for parallel exact expansion
    /// from `pool`. The pool's occupancy and steal counters are exported
    /// through `/metrics`.
    pub fn with_pool(cache_entries: usize, pool: ComputePool) -> Service {
        Service::with_options(ServiceOptions {
            cache_entries,
            pool: Some(pool),
            ..ServiceOptions::default()
        })
        .expect("no persistence requested, so construction cannot fail")
    }

    /// Creates a fully configured service. With [`ServiceOptions::persist`]
    /// set, surviving records are warm-loaded into the LRU before the
    /// first request and every subsequent cached response is appended
    /// (write-behind) to the segment file.
    ///
    /// # Errors
    ///
    /// Fails only if the persistence directory or segment file cannot be
    /// created/opened. Corrupt segment *contents* never fail construction;
    /// they are skipped and counted (`bayonet_cache_persist_load_corrupt_total`).
    pub fn with_options(opts: ServiceOptions) -> io::Result<Service> {
        let metrics = Arc::new(Metrics::new());
        let cache: Arc<Mutex<LruCache<u64, Response>>> =
            Arc::new(Mutex::new(LruCache::new(opts.cache_entries)));
        let persist = match &opts.persist {
            Some(cfg) if opts.cache_entries > 0 => {
                let snapshot_cache = Arc::clone(&cache);
                let (store, loaded) = PersistentStore::open(
                    cfg,
                    Box::new(move || {
                        snapshot_cache
                            .lock()
                            .expect("cache mutex")
                            .iter_lru_to_mru()
                            .map(|(key, resp)| (*key, resp.body.clone()))
                            .collect()
                    }),
                )?;
                {
                    let mut c = cache.lock().expect("cache mutex");
                    // File order is oldest-first, so sequential insertion
                    // reproduces the pre-restart recency order.
                    for (key, body) in loaded {
                        c.insert(key, Response::json(200, body));
                    }
                    metrics.set_cache_evictions(c.evictions());
                }
                metrics.bind_persist(store.counters());
                Some(store)
            }
            _ => None,
        };
        if let Some(pool) = &opts.pool {
            metrics.bind_pool(pool.clone());
        }
        Ok(Service {
            metrics,
            cache,
            routes: Mutex::new(LruCache::new(opts.cache_entries)),
            pool: opts.pool,
            persist,
        })
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    /// Handles one request to one buffered response, recording request
    /// metrics. A `/v1/batch` or `/v1/sweep` body holds its NDJSON frames
    /// sorted by index, so in-process callers (the CLI's `run --batch` and
    /// `run --sweep`, tests) get deterministic output.
    pub fn handle(&self, req: &Request) -> Response {
        let started = Instant::now();
        self.respond(req, started, self.open_stream(req))
    }

    /// The server's single worker entry point: answers `req` on `out`.
    /// `/v1/batch` and `/v1/sweep` stream their frames as chunked NDJSON,
    /// batch items in completion order; every other request, and any
    /// streaming request that fails validation, gets one buffered response
    /// — no chunk is written before a stream is known to be well-formed.
    /// If the client disconnects mid-batch, the remaining items are
    /// cancelled so engine time is not wasted on an unreadable response.
    ///
    /// # Errors
    ///
    /// Propagates transport errors, including the client disconnecting
    /// mid-stream.
    pub fn serve<W: Write + Send>(&self, req: &Request, out: &mut W) -> io::Result<()> {
        let started = Instant::now();
        let mut stream = match self.open_stream(req) {
            Some(Ok(stream)) => stream,
            other => return self.respond(req, started, other).write_to(out),
        };
        let cancel = match &mut stream {
            Stream::Batch(batch) => Some(batch.deadline.cancel_handle()),
            Stream::Sweep(_) => None,
        };
        let writer = Mutex::new(ChunkedWriter::begin(out, 200, NDJSON)?);
        let broken = AtomicBool::new(false);
        self.run_stream(&stream, &|index, resp| {
            if broken.load(Ordering::Relaxed) {
                return;
            }
            let frame = ndjson_frame(index, resp);
            if writer
                .lock()
                .expect("chunk writer mutex")
                .chunk(&frame)
                .is_err()
            {
                broken.store(true, Ordering::Relaxed);
                // The client is gone; expire the remaining items instead of
                // burning engine time on frames nobody will read.
                if let Some(cancel) = &cancel {
                    cancel.cancel();
                }
            }
        });
        self.metrics
            .record_request(normalize_endpoint(&req.path), 200, started.elapsed());
        if broken.into_inner() {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "client disconnected mid-stream",
            ));
        }
        writer.into_inner().expect("chunk writer mutex").finish()
    }

    /// Builds the buffered response for `req`, whose streaming part (if
    /// any) [`Service::open_stream`] already decoded, and records request
    /// metrics.
    fn respond(
        &self,
        req: &Request,
        started: Instant,
        stream: Option<Result<Stream, ApiError>>,
    ) -> Response {
        let response = match stream {
            None => self.route(req),
            Some(Err(e)) => e.into_response(),
            Some(Ok(stream)) => {
                let frames = Mutex::new(Vec::new());
                self.run_stream(&stream, &|index, resp| {
                    let frame = ndjson_frame(index, resp);
                    frames.lock().expect("frames mutex").push((index, frame));
                });
                let mut frames = frames.into_inner().expect("frames mutex");
                frames.sort_by_key(|(index, _)| *index);
                Response {
                    status: 200,
                    headers: Vec::new(),
                    content_type: NDJSON,
                    body: frames.into_iter().flat_map(|(_, frame)| frame).collect(),
                }
            }
        };
        self.metrics.record_request(
            normalize_endpoint(&req.path),
            response.status,
            started.elapsed(),
        );
        response
    }

    fn route(&self, req: &Request) -> Response {
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => Response::json(200, r#"{"status":"ok"}"#),
            ("GET", "/metrics") => Response::text(200, self.metrics.render())
                .with_content_type("text/plain; version=0.0.4; charset=utf-8"),
            ("POST", endpoint @ ("/v1/check" | "/v1/run" | "/v1/synthesize")) => decode_body(req)
                .and_then(|doc| {
                    let sources = Sources::resolve(item_source(&doc, None), false);
                    self.item(endpoint, &doc, None, &sources, &Deadline::unlimited())
                })
                .unwrap_or_else(ApiError::into_response),
            ("GET", "/v1/check" | "/v1/run" | "/v1/synthesize" | "/v1/batch" | "/v1/sweep")
            | ("POST", "/healthz" | "/metrics") => ApiError::new(
                405,
                "method_not_allowed",
                format!("{} does not support {}", req.path, req.method),
            )
            .into_response(),
            _ => ApiError::new(404, "not_found", format!("no such endpoint: {}", req.path))
                .into_response(),
        }
    }

    /// Decodes a `/v1/batch` request, or decodes and runs a `/v1/sweep`
    /// (all grid points are answered by one shared exploration); `None`
    /// for every other route.
    fn open_stream(&self, req: &Request) -> Option<Result<Stream, ApiError>> {
        let sweep = match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/v1/batch") => false,
            ("POST", "/v1/sweep") => true,
            _ => return None,
        };
        Some(decode_body(req).and_then(|doc| {
            Ok(if sweep {
                Stream::Sweep(self.sweep(&doc)?)
            } else {
                Stream::Batch(BatchRequest::decode(&doc)?)
            })
        }))
    }

    /// Emits every frame of a validated stream. `emit` may be called from
    /// several pool lanes at once, hence `Sync`.
    fn run_stream(&self, stream: &Stream, emit: &(dyn Fn(usize, &Response) + Sync)) {
        match stream {
            Stream::Batch(batch) => self.run_batch(batch, emit),
            Stream::Sweep(points) => points.iter().enumerate().for_each(|(i, r)| emit(i, r)),
        }
    }

    /// Runs every batch item through [`Service::item`], calling `emit` with
    /// each item's index and `/v1/run`-shaped response as it completes.
    /// Items fan out across lanes leased from the compute pool; the
    /// request's own thread always works as lane zero, so a fully busy pool
    /// degrades to sequential execution instead of blocking.
    fn run_batch(&self, batch: &BatchRequest, emit: &(dyn Fn(usize, &Response) + Sync)) {
        let shared = batch.shared_source.as_deref();
        // Items without a resolvable source report the same missing-field
        // error `/v1/run` would.
        let texts: Vec<&str> = batch
            .items
            .iter()
            .filter_map(|item| item_source(item, shared))
            .collect();
        // Sequential: check and compile each distinct source exactly once.
        let sources = Sources::resolve(texts.iter().copied(), true);

        // Parallel: fan items out over pool lanes.
        let next = AtomicUsize::new(0);
        let item_errors = AtomicU64::new(0);
        let run_lane = || loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = batch.items.get(index) else {
                break;
            };
            let resp = self
                .item("/v1/run", item, shared, &sources, &batch.deadline)
                .unwrap_or_else(ApiError::into_response);
            if resp.status != 200 {
                item_errors.fetch_add(1, Ordering::Relaxed);
            }
            emit(index, &resp);
        };
        let lease = self
            .pool
            .as_ref()
            .map(|pool| pool.lease(batch.items.len().saturating_sub(1)));
        let extra_lanes = lease.as_ref().map_or(0, |l| l.granted());
        if extra_lanes == 0 {
            run_lane();
        } else {
            let run_lane = &run_lane;
            std::thread::scope(|scope| {
                for _ in 0..extra_lanes {
                    scope.spawn(run_lane);
                }
                run_lane();
            });
        }
        drop(lease);

        self.metrics.record_batch(
            batch.items.len() as u64,
            item_errors.into_inner(),
            sources.compiles,
            (texts.len() as u64).saturating_sub(sources.fresh),
        );
    }

    /// Runs one inference item — a whole `/v1/check`, `/v1/run` or
    /// `/v1/synthesize` request, or one `/v1/batch` item (an item without
    /// its own `source` inherits `shared`) — to its response, success or
    /// structured error. `batch` is the enclosing batch's deadline
    /// (unlimited for a single request); the item's `timeout_ms` can only
    /// shorten it.
    fn item(
        &self,
        endpoint: &str,
        doc: &Json,
        shared: Option<&str>,
        sources: &Sources,
        batch: &Deadline,
    ) -> Result<Response, ApiError> {
        let mut req = InferenceRequest::decode(doc, shared)?;
        let source = sources.get(&req.source)?;
        let deadline = deadline_within(batch, req.timeout_ms);

        // `"engine": "auto"` takes the planner's structural engine choice
        // *before* the cache key is computed, so a planner-routed result and
        // the same request with the chosen engine spelled out share one
        // cache entry, and a hit runs no pilot (nor does a repeat the
        // planner routed elsewhere, found through `routes`). `/v1/check`
        // never runs an engine and `/v1/synthesize` always runs the exact
        // enumeration core, so there auto resolves to the default
        // request's key.
        let mut planned = None;
        if req.engine == Engine::Auto && endpoint == "/v1/run" {
            // Choose on the optimized model: the structure the engines see.
            let model = source.bound(req.passes, &req.bindings)?;
            req.engine = match choose_exact(&model) {
                EngineKind::Bdd => Engine::Bdd,
                _ => Engine::Exact,
            };
            planned = Some(model);
        } else if req.engine == Engine::Auto {
            req.engine = Engine::Exact;
        }

        // Batch items use the `/v1/run` key, so they share cache
        // entries with single runs in both directions.
        let mut key = req.cache_key(endpoint, &source.canonical);
        let (probe_key, engine) = match planned {
            Some(_) => {
                let mut routes = self.routes.lock().expect("routes mutex");
                routes
                    .get(&route_key(key, req.timeout_ms))
                    .copied()
                    .unwrap_or((key, req.engine))
            }
            None => (key, req.engine),
        };
        if let Some(mut hit) = self.probe(&[probe_key]) {
            if planned.is_some() {
                self.metrics.record_planner_decision(engine.name());
            }
            return Ok(hit.remove(0));
        }
        if batch.expired() {
            return Err(ApiError::new(
                504,
                "timeout",
                "batch budget exhausted before this item started",
            ));
        }
        let response = match (endpoint, planned) {
            ("/v1/check", _) => check_response(&source.program)?,
            ("/v1/synthesize", _) => self.synthesize(&req, source, deadline)?,
            (_, Some(model)) => {
                let (routed_key, response) =
                    self.run_planned(&mut req, source, model, deadline, key)?;
                key = routed_key;
                response
            }
            (_, None) => {
                let model = source.bound(req.passes && req.engine.is_exact(), &req.bindings)?;
                self.run(&req, &model, deadline)?
            }
        };
        self.store(key, &response);
        Ok(response)
    }

    /// Runs a `/v1/run` auto request that missed the cache under its
    /// structural `key`, returning the response and the key it belongs to.
    ///
    /// The pilot runs only where its count can change the outcome: on an
    /// enumeration route (the SMC cutover; the pilot is the run's own
    /// first steps, so it costs nothing) and under a budget (admission).
    /// An infeasible budget (one the pilot ran out, too) is the structured
    /// 422 of [`infeasible`], with no engine work done; a feasible plan
    /// whose deadline expired while piloting is the usual 504. The answer is then keyed and produced exactly as
    /// the explicit request for the engine that computes it: an SMC route
    /// rewrites `req.engine` (and an absent `particles`), and a diagram
    /// route whose pilot already enumerated the whole run answers as
    /// `exact` from it. A route off `key` is remembered in `routes`.
    fn run_planned(
        &self,
        req: &mut InferenceRequest,
        source: &Source,
        model: Model,
        deadline: Deadline,
        key: u64,
    ) -> Result<(u64, Response), ApiError> {
        let budget = deadline.remaining();
        if req.engine == Engine::Bdd && budget.is_none() {
            self.metrics.record_planner_decision(req.engine.name());
            return Ok((key, self.run(req, &model, deadline)?));
        }
        let started = Instant::now();
        let opts = self.exact_options(req.threads, req.passes, req.engine, deadline.clone());
        let plan = plan_with(&model, &PlannerConfig::default(), budget, &opts);
        self.metrics.record_pilot(plan.pilot.stats.expansions);
        let pilot = match plan.decision {
            PlanDecision::Infeasible { needed_ns } => {
                self.metrics.record_planner_rejection();
                return Err(infeasible(&plan, needed_ns));
            }
            _ if deadline.expired() => {
                let s = &plan.pilot.stats;
                return Err(ExactError::Interrupted {
                    steps: s.steps,
                    expansions: s.expansions,
                }
                .into());
            }
            PlanDecision::Run(PlanEngine::Smc) => {
                req.engine = Engine::Smc;
                req.particles = req.particles.or(plan.particles);
                None
            }
            PlanDecision::Run(engine) if engine == PlanEngine::Enum || plan.pilot.finished => {
                req.engine = Engine::Exact;
                Some(plan.pilot)
            }
            PlanDecision::Run(_) => None,
        };
        self.metrics.record_planner_decision(req.engine.name());
        let routed = req.cache_key("/v1/run", &source.canonical);
        if routed != key {
            let route = (routed, req.engine);
            self.routes
                .lock()
                .expect("routes mutex")
                .insert(route_key(key, req.timeout_ms), route);
            if let Some(mut hit) = self.probe(&[routed]) {
                return Ok((routed, hit.remove(0)));
            }
        }
        let response = match pilot {
            Some(pilot) => self.run_exact(req, &model, &opts, Some(pilot))?,
            // Sampling runs the unoptimized model (see `run`).
            None if req.engine == Engine::Smc && req.passes => {
                self.run(req, &source.bound(false, &req.bindings)?, deadline)?
            }
            None => self.run(req, &model, deadline)?,
        };
        let actual_ns = started.elapsed().as_nanos() as f64;
        self.metrics
            .record_planner_ratio(actual_ns / plan.est_cost_ns.max(1) as f64);
        Ok((routed, response))
    }

    /// Runs the `/v1/run` engine dispatch on a bound model: optimized for
    /// the exact family unless the request opted out, unoptimized for the
    /// sampling engines because pass rewrites change the draw sequence for
    /// a fixed seed.
    fn run(
        &self,
        req: &InferenceRequest,
        model: &Model,
        deadline: Deadline,
    ) -> Result<Response, ApiError> {
        if req.engine.is_exact() {
            let opts = self.exact_options(req.threads, req.passes, req.engine, deadline);
            return self.run_exact(req, model, &opts, None);
        }

        let opts = ApproxOptions {
            particles: req.particles.unwrap_or(1000),
            seed: req.seed.unwrap_or(0),
            deadline,
            ..ApproxOptions::default()
        };
        let indices: Vec<usize> = match req.query {
            Some(idx) => {
                check_query(idx, model.queries.len())?;
                vec![idx]
            }
            None => (0..model.queries.len()).collect(),
        };
        let scheduler = scheduler_for(model);
        let mut text = String::new();
        let mut estimates = Vec::new();
        for idx in indices {
            let q = &model.queries[idx];
            let est = if req.engine == Engine::Smc {
                smc(model, &*scheduler, q, &opts)
            } else {
                rejection(model, &*scheduler, q, &opts)
            }?;
            let _ = writeln!(text, "{}: {est}  (Ẑ ≈ {:.4})", q.source, est.z_estimate);
            estimates.push(Json::obj(vec![
                ("query", Json::Str(q.source.clone())),
                ("value", Json::Num(est.value)),
                ("std_error", Json::Num(est.std_error)),
                ("samples", Json::Num(est.samples as f64)),
                ("z_estimate", Json::Num(est.z_estimate)),
            ]));
        }
        Ok(Response::json(
            200,
            Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("engine", Json::Str(req.engine.name().into())),
                ("estimates", Json::Arr(estimates)),
                ("text", Json::Str(text)),
            ])
            .to_string(),
        ))
    }

    /// The exact-engine half of [`Service::run`], continuing from `pilot`
    /// when the planner's pilot already ran the run's first steps.
    fn run_exact(
        &self,
        req: &InferenceRequest,
        model: &Model,
        opts: &ExactOptions,
        pilot: Option<Pilot>,
    ) -> Result<Response, ApiError> {
        self.record_opt(model);
        let (analysis, results) = self.analyze(model, &model.queries, opts, pilot)?;
        Ok(posterior_response(
            req.engine.name(),
            Vec::new(),
            &results,
            &analysis.total_terminal_mass(),
            &analysis.total_discarded_mass(),
            Some(&analysis.stats),
        ))
    }

    fn synthesize(
        &self,
        req: &InferenceRequest,
        source: &Source,
        deadline: Deadline,
    ) -> Result<Response, ApiError> {
        let model = source.bound(false, &req.bindings)?;
        let query_idx = req.query.unwrap_or(0);
        check_query(query_idx, model.queries.len())?;

        let opts = self.exact_options(req.threads, req.passes, Engine::Exact, deadline);
        let (_, results) =
            self.analyze(&model, &model.queries[query_idx..=query_idx], &opts, None)?;
        let synthesis = synthesize_result(
            &model,
            &results[0],
            SynthesisOptions {
                objective: if req.maximize {
                    Objective::Maximize
                } else {
                    Objective::Minimize
                },
                positive_params: !req.allow_zero_params,
            },
        )
        .map_err(|e| engine_failure(false, &e))?;

        let mut text = String::new();
        let _ = writeln!(text, "piecewise result:");
        let mut cells = Vec::new();
        for (i, cell) in synthesis.result.cells.iter().enumerate() {
            let marker = if i == synthesis.best_cell { "*" } else { " " };
            let value = cell
                .value
                .as_ref()
                .map(|v| format!("{v}"))
                .unwrap_or_else(|| "undefined".into());
            let _ = writeln!(text, "{marker} [{}] {value}", cell.constraint);
            cells.push(Json::obj(vec![
                ("constraint", Json::Str(cell.constraint.clone())),
                (
                    "value",
                    cell.value
                        .as_ref()
                        .map(|v| Json::Str(v.to_string()))
                        .unwrap_or(Json::Null),
                ),
                ("best", Json::Bool(i == synthesis.best_cell)),
            ]));
        }
        let _ = writeln!(
            text,
            "optimal value: {} ≈ {:.4}",
            synthesis.value,
            synthesis.value.to_f64()
        );
        let _ = writeln!(text, "constraint:    {}", synthesis.constraint);
        let _ = write!(text, "witness:      ");
        let mut witness = Vec::new();
        for (pid, v) in &synthesis.assignment {
            let _ = write!(text, " {} = {v}", model.params.name(*pid));
            witness.push((
                model.params.name(*pid).to_string(),
                Json::Str(v.to_string()),
            ));
        }
        text.push('\n');

        Ok(Response::json(
            200,
            Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("best_cell", Json::Num(synthesis.best_cell as f64)),
                ("value", Json::Str(synthesis.value.to_string())),
                ("value_f64", Json::Num(synthesis.value.to_f64())),
                ("constraint", Json::Str(synthesis.constraint.clone())),
                ("witness", Json::Obj(witness)),
                ("cells", Json::Arr(cells)),
                ("text", Json::Str(text)),
            ])
            .to_string(),
        ))
    }

    /// Decodes and runs one `/v1/sweep` request to one response per grid
    /// point (row-major). The program compiles and optimizes once; the
    /// exact sweep engine then shares work across grid points —
    /// symbolically (piecewise cells answer every point), via a replayed
    /// exploration prefix, or not at all when nothing is shareable — while
    /// staying bit-identical to independent pointwise runs.
    fn sweep(&self, doc: &Json) -> Result<Vec<Response>, ApiError> {
        let req = SweepRequest::decode(doc)?;
        let sources = Sources::resolve([req.source.as_str()], false);
        let source = sources.get(&req.source)?;
        let model = source.bound(req.passes, &req.bindings)?;
        self.record_opt(&model);

        // Resolve swept names against the declared parameter table before
        // any engine work; a typo'd name is a structured 400, not 16
        // identical per-point errors.
        let params = req
            .sweep
            .iter()
            .map(|(name, _)| {
                model.params.lookup(name).ok_or_else(|| {
                    bad(
                        format!(
                            "unknown swept parameter `{name}` (not declared in \
                             `parameters {{ ... }}`)"
                        ),
                        format!("sweep.{name}"),
                    )
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let points = req.points();

        // Every point of an all-hit sweep is served from cache with no
        // engine work. A partial hit reruns the whole grid — shared
        // exploration makes skipping individual points a wash — and
        // refreshes every entry.
        let keys: Vec<u64> = points
            .iter()
            .map(|p| req.point_key(&source.canonical, p))
            .collect();
        if let Some(hits) = self.probe(&keys) {
            self.metrics
                .record_sweep("cached", points.len() as u64, 0, 0, 0);
            return Ok(hits);
        }

        let deadline = deadline_within(&Deadline::unlimited(), req.timeout_ms);
        let opts = self.exact_options(req.threads, req.passes, req.engine, deadline);
        let result = bayonet_exact::sweep(&model, &params, &points, &opts)?;
        self.metrics.record_engine(&result.prefix_stats);
        let engine = match result.engine {
            EngineKind::Bdd => "bdd",
            _ => "exact",
        };
        let mut point_errors = 0u64;
        let mut responses = Vec::with_capacity(points.len());
        for ((point, outcome), key) in points.iter().zip(&result.points).zip(keys) {
            let resp = match outcome {
                Ok(p) => {
                    // Per-point stats cover only this point's continuation;
                    // the shared prefix was folded in once above, so the
                    // exported expansion totals reflect the actual saving.
                    self.metrics.record_engine(&p.stats);
                    let point = req
                        .sweep
                        .iter()
                        .zip(point)
                        .map(|((name, _), value)| (name.clone(), Json::Str(value.to_string())))
                        .collect();
                    // Per-point statistics are not meaningful under shared
                    // exploration, so the body carries none.
                    posterior_response(
                        engine,
                        vec![
                            ("route", Json::Str(result.route.name().into())),
                            ("point", Json::Obj(point)),
                        ],
                        &p.results,
                        &p.z,
                        &p.discarded,
                        None,
                    )
                }
                Err(e) => {
                    point_errors += 1;
                    ApiError::from(e).into_response()
                }
            };
            self.store(key, &resp);
            responses.push(resp);
        }
        self.record_feasibility(&opts);
        self.metrics.record_sweep(
            result.route.name(),
            points.len() as u64,
            point_errors,
            result.reused_points() as u64,
            result.shared_steps,
        );
        Ok(responses)
    }

    /// Exact-engine options for one request: the `threads` hint clamped to
    /// the pool capacity, the shared pool handle, the exact `engine`'s
    /// backend, and a fresh feasibility memo table shared by the analysis
    /// and every query answer.
    fn exact_options(
        &self,
        threads: Option<usize>,
        passes: bool,
        engine: Engine,
        deadline: Deadline,
    ) -> ExactOptions {
        ExactOptions {
            deadline,
            threads: self
                .pool
                .as_ref()
                .map_or(1, |pool| threads.unwrap_or(1).min(pool.capacity())),
            pool: self.pool.clone(),
            passes,
            engine: match engine {
                Engine::Bdd => EngineKind::Bdd,
                Engine::Auto => EngineKind::Auto,
                _ => EngineKind::Enum,
            },
            feasibility_cache: Some(Arc::new(FeasibilityCache::new())),
            ..ExactOptions::default()
        }
    }

    /// Runs the exact engine on `model` (from `pilot`'s state when given)
    /// and answers `queries`, exporting the engine and feasibility-cache
    /// metrics. The engine counters take only the work after the pilot,
    /// which the pilot counter already holds.
    fn analyze(
        &self,
        model: &Model,
        queries: &[CompiledQuery],
        opts: &ExactOptions,
        pilot: Option<Pilot>,
    ) -> Result<(Analysis, Vec<QueryResult>), ApiError> {
        let scheduler = scheduler_for(model);
        let (analysis, piloted) = match pilot {
            Some(pilot) => {
                let piloted = pilot.stats.clone();
                (pilot.resume(model, &*scheduler, opts)?, piloted)
            }
            None => (analyze(model, &*scheduler, opts)?, EngineStats::default()),
        };
        let stats = &analysis.stats;
        self.metrics.record_engine(&EngineStats {
            steps: stats.steps.saturating_sub(piloted.steps),
            expansions: stats.expansions.saturating_sub(piloted.expansions),
            merge_hits: stats.merge_hits.saturating_sub(piloted.merge_hits),
            orbit_merges: stats.orbit_merges.saturating_sub(piloted.orbit_merges),
            ..stats.clone()
        });
        let feasibility = opts.feasibility_cache.as_deref();
        let results = queries
            .iter()
            .map(|q| answer_cached(model, &analysis, q, opts.fm_pruning, feasibility))
            .collect::<Result<Vec<_>, _>>()?;
        self.record_feasibility(opts);
        Ok((analysis, results))
    }

    /// Folds the totals of a run's feasibility memo table into the metrics.
    fn record_feasibility(&self, opts: &ExactOptions) {
        if let Some(cache) = &opts.feasibility_cache {
            let (hits, misses) = cache.counts();
            self.metrics.record_feasibility(hits, misses);
        }
    }

    /// Exports what the pass pipeline did to an optimized model.
    fn record_opt(&self, model: &Model) {
        if let Some(info) = model.opt_info() {
            let r = &info.report;
            self.metrics
                .record_opt(r.pass_runs, r.flips_eliminated, r.guards_folded);
        }
    }

    /// Looks every key up in the result cache, counting one hit when all
    /// of them are cached and one miss otherwise.
    fn probe(&self, keys: &[u64]) -> Option<Vec<Response>> {
        let hits: Vec<Response> = {
            let mut cache = self.cache.lock().expect("cache mutex");
            keys.iter().filter_map(|k| cache.get(k).cloned()).collect()
        };
        let hit = hits.len() == keys.len();
        self.metrics.record_cache(hit);
        hit.then_some(hits)
    }

    /// Caches a successful response in memory and, with persistence on,
    /// appends it (write-behind) to the segment file.
    fn store(&self, key: u64, response: &Response) {
        if response.status != 200 {
            return;
        }
        let evictions = {
            let mut cache = self.cache.lock().expect("cache mutex");
            cache.insert(key, response.clone());
            cache.evictions()
        };
        self.metrics.set_cache_evictions(evictions);
        if let Some(store) = &self.persist {
            store.append(key, response.body.clone());
        }
    }
}

/// A validated streaming request.
enum Stream {
    /// A `/v1/batch` whose items are still to run.
    Batch(BatchRequest),
    /// A `/v1/sweep`'s per-point responses, computed up front.
    Sweep(Vec<Response>),
}

/// One item's source string: its own `source` field if set, else the
/// batch-level shared source.
fn item_source<'a>(item: &'a Json, shared: Option<&'a str>) -> Option<&'a str> {
    item.get("source").and_then(Json::as_str).or(shared)
}

/// Renders one NDJSON frame: `{"index":N,"status":S,"body":...}\n` with the
/// response body spliced in verbatim. This is the single framing used by
/// *both* streaming endpoints — `/v1/batch` items and `/v1/sweep` grid
/// points — so each frame's `body` is byte-identical to the equivalent
/// standalone response and clients decode one shape.
fn ndjson_frame(index: usize, resp: &Response) -> Vec<u8> {
    let mut frame = Vec::with_capacity(resp.body.len() + 48);
    frame.extend_from_slice(format!("{{\"index\":{index},\"status\":{}", resp.status).as_bytes());
    frame.extend_from_slice(b",\"body\":");
    frame.extend_from_slice(&resp.body);
    frame.extend_from_slice(b"}\n");
    frame
}

/// The exact-family body shared by `/v1/run` and each `/v1/sweep` point:
/// `engine`, then any endpoint-specific `extra` fields, the results, `z`,
/// `discarded`, the engine `stats` (runs only) and a `text` that is the
/// `bayonet run` stdout — without its stats bracket when `stats` is `None`.
fn posterior_response(
    engine: &str,
    extra: Vec<(&str, Json)>,
    results: &[QueryResult],
    z: &Rat,
    discarded: &Rat,
    stats: Option<&EngineStats>,
) -> Response {
    let mut text = String::new();
    for result in results {
        let _ = write!(text, "{result}");
    }
    let _ = writeln!(text, "Z = {z} (discarded by observations: {discarded})");
    let mut fields = vec![
        ("ok", Json::Bool(true)),
        ("engine", Json::Str(engine.into())),
    ];
    fields.extend(extra);
    fields.push((
        "results",
        Json::Arr(results.iter().map(query_result_json).collect()),
    ));
    fields.push(("z", Json::Str(z.to_string())));
    fields.push(("discarded", Json::Str(discarded.to_string())));
    if let Some(stats) = stats {
        let _ = writeln!(
            text,
            "[{} steps, {} expansions, peak {} configs, {} merge hits]",
            stats.steps, stats.expansions, stats.peak_configs, stats.merge_hits
        );
        fields.push((
            "stats",
            Json::obj(vec![
                ("steps", Json::Num(stats.steps as f64)),
                ("expansions", Json::Num(stats.expansions as f64)),
                ("peak_configs", Json::Num(stats.peak_configs as f64)),
                ("merge_hits", Json::Num(stats.merge_hits as f64)),
                ("terminal_configs", Json::Num(stats.terminal_configs as f64)),
            ]),
        ));
    }
    fields.push(("text", Json::Str(text)));
    Response::json(200, Json::obj(fields).to_string())
}

/// The `/v1/check` response: the integrity report, or its errors as a 422.
fn check_response(program: &Program) -> Result<Response, ApiError> {
    let report = check(program).map_err(|errors| {
        let details = errors.iter().map(|e| Json::Str(e.to_string())).collect();
        let message = format!("{} integrity error(s)", errors.len());
        ApiError {
            extra: Some(("details", Json::Arr(details))),
            ..ApiError::new(422, "check_error", message)
        }
    })?;
    let mut text = String::new();
    for w in &report.warnings {
        let _ = writeln!(text, "warning: {}", w.message);
    }
    let _ = writeln!(text, "ok: {} warning(s)", report.warnings.len());
    let warnings = report
        .warnings
        .iter()
        .map(|w| Json::Str(w.message.clone()))
        .collect();
    Ok(Response::json(
        200,
        Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("warnings", Json::Arr(warnings)),
            ("text", Json::Str(text)),
        ])
        .to_string(),
    ))
}

/// Collapses request paths onto a bounded label set, so hostile paths
/// cannot blow up metric cardinality.
fn normalize_endpoint(path: &str) -> &'static str {
    match path {
        "/healthz" => "/healthz",
        "/metrics" => "/metrics",
        "/v1/check" => "/v1/check",
        "/v1/run" => "/v1/run",
        "/v1/synthesize" => "/v1/synthesize",
        "/v1/batch" => "/v1/batch",
        "/v1/sweep" => "/v1/sweep",
        _ => "other",
    }
}

fn query_result_json(result: &QueryResult) -> Json {
    let cells = result
        .cells
        .iter()
        .map(|c| {
            Json::obj(vec![
                ("constraint", Json::Str(c.constraint.clone())),
                (
                    "value",
                    c.value
                        .as_ref()
                        .map(|v| Json::Str(v.to_string()))
                        .unwrap_or(Json::Null),
                ),
                ("z", Json::Str(c.z.to_string())),
                ("discarded", Json::Str(c.discarded.to_string())),
            ])
        })
        .collect();
    Json::obj(vec![
        ("query", Json::Str(result.source.clone())),
        ("cells", Json::Arr(cells)),
    ])
}

/// The [`Service`]'s `routes` key of an auto request: its structural
/// cache key and its `timeout_ms`, the budget the route was planned
/// against.
fn route_key(key: u64, timeout_ms: Option<u64>) -> u64 {
    let mut h = DefaultHasher::new();
    (key, timeout_ms).hash(&mut h);
    h.finish()
}

/// The structured 422 for an `"engine": "auto"` request no engine fits:
/// the cheapest estimate exceeds its deadline budget, or, with no budget,
/// exact inference is above the sampling cutover and symbolic parameters
/// rule sampling out. Explicit engines keep the run-then-interrupt
/// contract. The `plan` object carries the estimates so the client can
/// raise `timeout_ms` by an informed amount, pick an engine explicitly, or
/// shrink the program. See `docs/SERVER.md`.
fn infeasible(plan: &Plan, needed_ns: u64) -> ApiError {
    let ms = |ns: u64| Json::Num((ns as f64 / 1e6 * 1000.0).round() / 1000.0);
    let mut plan_obj = vec![
        ("needed_ms", ms(needed_ns)),
        ("budget_ms", plan.budget_ns.map_or(Json::Null, ms)),
        ("est_expansions", Json::Num(plan.est_expansions as f64)),
        (
            "pilot_expansions",
            Json::Num(plan.pilot.stats.expansions as f64),
        ),
        ("est_exact_ms", ms(plan.est_exact_ns)),
    ];
    if let (Some(ns), Some(particles)) = (plan.est_smc_ns, plan.particles) {
        plan_obj.push(("est_smc_ms", ms(ns)));
        plan_obj.push(("est_smc_particles", Json::Num(particles as f64)));
    }
    let needed_ms = needed_ns as f64 / 1e6;
    let (kind, message, field) = match plan.budget_ns {
        Some(budget_ns) => (
            "infeasible_deadline",
            format!(
                "planner estimates {needed_ms:.1} ms of work for the cheapest eligible engine \
                 but the deadline budget is {:.1} ms; raise timeout_ms, select an engine \
                 explicitly, or shrink the program",
                budget_ns as f64 / 1e6,
            ),
            "timeout_ms",
        ),
        None => (
            "no_feasible_engine",
            format!(
                "no feasible engine: exact inference needs an estimated {needed_ms:.1} ms, \
                 above the sampling cutover, and sampling cannot answer symbolic parameters; \
                 bind the parameters, select an engine explicitly, or shrink the program"
            ),
            "engine",
        ),
    };
    ApiError {
        status: 422,
        kind,
        extra: Some(("plan", Json::obj(plan_obj))),
        ..bad(message, field)
    }
}

/// A structured API error, rendered as `{"ok":false,"error":{...}}`.
/// When the error is about one specific request field, `field` names it
/// machine-readably alongside the human message. `Clone` lets a batch
/// report one shared compile failure from every affected item.
#[derive(Clone)]
struct ApiError {
    status: u16,
    kind: &'static str,
    message: String,
    field: Option<String>,
    /// One more structured entry: the planner's `plan` estimates on an
    /// `infeasible_deadline` rejection, the `details` of a `/v1/check`
    /// failure.
    extra: Option<(&'static str, Json)>,
}

impl ApiError {
    fn new(status: u16, kind: &'static str, message: impl Into<String>) -> ApiError {
        ApiError {
            status,
            kind,
            message: message.into(),
            field: None,
            extra: None,
        }
    }

    fn into_response(self) -> Response {
        let mut error = vec![
            ("kind", Json::Str(self.kind.into())),
            ("message", Json::Str(self.message)),
        ];
        if let Some(field) = self.field {
            error.push(("field", Json::Str(field)));
        }
        error.extend(self.extra);
        Response::json(
            self.status,
            Json::obj(vec![("ok", Json::Bool(false)), ("error", Json::obj(error))]).to_string(),
        )
    }
}

/// A `400 bad_request` about one request field.
fn bad(message: impl Into<String>, field: impl Into<String>) -> ApiError {
    ApiError {
        field: Some(field.into()),
        ..ApiError::new(400, "bad_request", message)
    }
}

/// The one engine-error map: an interrupted run is a `504 timeout`, any
/// other engine failure a `422 engine_error`.
fn engine_failure(interrupted: bool, e: &dyn Display) -> ApiError {
    if interrupted {
        ApiError::new(504, "timeout", e.to_string())
    } else {
        ApiError::new(422, "engine_error", e.to_string())
    }
}

impl From<&ExactError> for ApiError {
    fn from(e: &ExactError) -> ApiError {
        engine_failure(matches!(e, ExactError::Interrupted { .. }), e)
    }
}

impl From<ExactError> for ApiError {
    fn from(e: ExactError) -> ApiError {
        ApiError::from(&e)
    }
}

impl From<ApproxError> for ApiError {
    fn from(e: ApproxError) -> ApiError {
        engine_failure(matches!(e, ApproxError::Interrupted { .. }), &e)
    }
}

/// The deadline for an optional `timeout_ms` budget that never outlives
/// `within` (a batch's deadline, or unlimited).
fn deadline_within(within: &Deadline, timeout_ms: Option<u64>) -> Deadline {
    timeout_ms.map_or_else(
        || within.clone(),
        |ms| within.clamped(Duration::from_millis(ms)),
    )
}

fn check_query(idx: usize, len: usize) -> Result<(), ApiError> {
    let message = format!("query index {idx} out of range ({len} queries declared)");
    (idx < len)
        .then_some(())
        .ok_or_else(|| bad(message, "query"))
}

/// Inference engines the service can run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Engine {
    Exact,
    /// The `bayonet-bdd` knowledge-compilation backend: same posteriors as
    /// [`Engine::Exact`], bit for bit, often much faster on structured
    /// topologies. `"enum"` is accepted as an alias for `"exact"`.
    Bdd,
    Smc,
    Rejection,
    /// Planner-routed: the measured planner picks exact, bdd, or smc per
    /// request (`crate`-level docs; `bayonet_exact::planner`). Resolved to
    /// a concrete engine *before* the cache key is computed, so an
    /// auto-routed result and the same request with the chosen engine
    /// spelled out share one cache entry.
    Auto,
}

impl Engine {
    fn name(self) -> &'static str {
        match self {
            Engine::Exact => "exact",
            Engine::Bdd => "bdd",
            Engine::Smc => "smc",
            Engine::Rejection => "rejection",
            Engine::Auto => "auto",
        }
    }

    /// The exact family, which runs the optimized model.
    fn is_exact(self) -> bool {
        !matches!(self, Engine::Smc | Engine::Rejection)
    }
}

/// Reads a request body as one JSON value.
fn decode_body(req: &Request) -> Result<Json, ApiError> {
    json::parse(req.body_str().map_err(malformed)?).map_err(malformed)
}

/// A `400 bad_request` about the body as a whole.
fn malformed(e: impl Display) -> ApiError {
    ApiError::new(400, "bad_request", e.to_string())
}

/// The one request-field reader. Every endpoint decodes its JSON object
/// through these checks, so a given field fails with one message (and one
/// `error.field`) everywhere.
struct Fields<'a>(&'a Json);

impl<'a> Fields<'a> {
    /// Opens a `noun` ("request", "batch", "sweep") object whose keys must
    /// all appear in `known`.
    fn open(doc: &'a Json, noun: &str, known: &[&str]) -> Result<Fields<'a>, ApiError> {
        let Some(pairs) = doc.as_obj() else {
            return Err(malformed("request body must be a JSON object"));
        };
        // Named structurally (`error.field`) so clients can catch a typo
        // like `"cache": false` programmatically instead of having it
        // silently change nothing.
        match pairs.iter().find(|(key, _)| !known.contains(&key.as_str())) {
            Some((key, _)) => Err(bad(
                format!(
                    "unknown {noun} field `{key}` (known fields: {})",
                    known.join(", ")
                ),
                key.clone(),
            )),
            None => Ok(Fields(doc)),
        }
    }

    /// A field that is present and not `null`.
    fn get(&self, name: &str) -> Option<&'a Json> {
        self.0.get(name).filter(|v| !matches!(v, Json::Null))
    }

    fn string(&self, name: &str) -> Result<Option<String>, ApiError> {
        match self.get(name) {
            None => Ok(None),
            Some(Json::Str(s)) => Ok(Some(s.clone())),
            Some(_) => Err(bad(format!("`{name}` must be a string"), name)),
        }
    }

    fn uint(&self, name: &str) -> Result<Option<u64>, ApiError> {
        self.get(name)
            .map(|v| {
                v.as_u64()
                    .ok_or_else(|| bad(format!("`{name}` must be a nonnegative integer"), name))
            })
            .transpose()
    }

    /// A bounded integer knob: wrong type, negative, zero, and
    /// out-of-range values are all structured 400s, never silent defaults.
    /// `timeout_ms: 0` would be a deadline that has already expired, and
    /// `threads: 0` a run with no workers — both are client mistakes worth
    /// naming.
    fn bounded(&self, name: &str, lo: u64, hi: u64) -> Result<Option<u64>, ApiError> {
        match self.uint(name)? {
            Some(v) if !(lo..=hi).contains(&v) => Err(bad(
                format!("`{name}` must be between {lo} and {hi}, got {v}"),
                name,
            )),
            v => Ok(v),
        }
    }

    fn flag(&self, name: &str, default: bool) -> Result<bool, ApiError> {
        self.get(name).map_or(Ok(default), |v| {
            v.as_bool()
                .ok_or_else(|| bad(format!("`{name}` must be a boolean"), name))
        })
    }

    /// The `engine` field; a sweep accepts only the exact family. Unlike
    /// other fields, an explicit `null` is a bad value, not an absent one.
    fn engine(&self, exact_only: bool) -> Result<Engine, ApiError> {
        let Some(v) = self.0.get("engine") else {
            return Ok(Engine::Exact);
        };
        let known = if exact_only {
            "exact, enum, bdd, auto"
        } else {
            "exact, enum, bdd, smc, rejection, auto"
        };
        match (v.as_str(), exact_only) {
            (Some("exact" | "enum"), _) => Ok(Engine::Exact),
            (Some("bdd"), _) => Ok(Engine::Bdd),
            (Some("auto"), _) => Ok(Engine::Auto),
            (Some("smc"), false) => Ok(Engine::Smc),
            (Some("rejection"), false) => Ok(Engine::Rejection),
            (Some("smc" | "rejection"), true) => Err(bad(
                format!(
                    "sweeps are exact-only (known engines: {known}); sampling engines \
                     cannot share work across grid points"
                ),
                "engine",
            )),
            _ => Err(bad(
                format!("unknown engine {v} (known engines: {known})"),
                "engine",
            )),
        }
    }

    /// Parameter bindings, sorted by name for canonical hashing.
    fn bindings(&self) -> Result<Vec<(String, Rat)>, ApiError> {
        let mut bindings = match self.get("bindings") {
            None => Vec::new(),
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(name, value)| {
                    let rat = rat_from_json(value).ok_or_else(|| {
                        bad(
                            format!(
                                "binding `{name}` must be an integer or a rational string \
                                 like \"1/2\""
                            ),
                            format!("bindings.{name}"),
                        )
                    })?;
                    Ok((name.clone(), rat))
                })
                .collect::<Result<Vec<_>, ApiError>>()?,
            Some(_) => return Err(bad("`bindings` must be an object", "bindings")),
        };
        bindings.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(bindings)
    }
}

/// Decodes one parameter value: a JSON integer or a rational string like
/// `"1/2"`.
fn rat_from_json(value: &Json) -> Option<Rat> {
    match value {
        Json::Str(s) => s.parse::<Rat>().ok(),
        Json::Num(n) if n.fract() == 0.0 && n.abs() < 9e15 => Some(Rat::ratio(*n as i64, 1)),
        _ => None,
    }
}

/// The decoded body of a `/v1/check`, `/v1/run` or `/v1/synthesize`
/// request, or of one `/v1/batch` item.
struct InferenceRequest {
    source: String,
    engine: Engine,
    query: Option<usize>,
    /// Parameter bindings, sorted by name for canonical hashing.
    bindings: Vec<(String, Rat)>,
    timeout_ms: Option<u64>,
    /// Requested exact-engine worker threads; validated at decode time and
    /// clamped to the server's pool capacity at execution time.
    threads: Option<usize>,
    /// Whether to run the model-optimization pass pipeline (default true;
    /// `"passes": false` mirrors the CLI's `--no-opt`). Part of the cache
    /// key: pass-on and pass-off runs report different engine stats.
    passes: bool,
    particles: Option<usize>,
    seed: Option<u64>,
    maximize: bool,
    allow_zero_params: bool,
}

impl InferenceRequest {
    /// Decodes a request body, or a batch item that inherits `shared` when
    /// it has no `source` of its own. Fields are checked in declaration
    /// order and the first bad one is reported.
    fn decode(doc: &Json, shared: Option<&str>) -> Result<InferenceRequest, ApiError> {
        let f = Fields::open(doc, "request", RUN_FIELDS)?;
        Ok(InferenceRequest {
            source: item_source(doc, shared)
                .ok_or_else(|| bad("missing required string field `source`", "source"))?
                .to_string(),
            engine: f.engine(false)?,
            query: f.uint("query")?.map(|v| v as usize),
            bindings: f.bindings()?,
            timeout_ms: f.bounded("timeout_ms", 1, MAX_TIMEOUT_MS)?,
            threads: f
                .bounded("threads", 1, MAX_REQUEST_THREADS)?
                .map(|v| v as usize),
            // Unlike the other boolean knobs, `passes` defaults to *true*.
            passes: f.flag("passes", true)?,
            particles: f.uint("particles")?.map(|v| v as usize),
            seed: f.uint("seed")?,
            maximize: f.flag("maximize", false)?,
            allow_zero_params: f.flag("allow_zero_params", false)?,
        })
    }

    fn cache_key(&self, endpoint: &str, canonical_program: &str) -> u64 {
        let mut h = DefaultHasher::new();
        endpoint.hash(&mut h);
        canonical_program.hash(&mut h);
        self.engine.name().hash(&mut h);
        self.query.hash(&mut h);
        self.particles.hash(&mut h);
        self.seed.hash(&mut h);
        self.maximize.hash(&mut h);
        self.allow_zero_params.hash(&mut h);
        self.passes.hash(&mut h);
        for (name, value) in &self.bindings {
            name.hash(&mut h);
            value.to_string().hash(&mut h);
        }
        h.finish()
    }
}

/// The decoded body of a `/v1/batch` request.
struct BatchRequest {
    /// The raw per-item JSON objects, validated to be objects; each is
    /// decoded by its lane.
    items: Vec<Json>,
    /// Batch-level shared program source, if any.
    shared_source: Option<String>,
    /// The batch-level `timeout_ms` budget covering every item.
    deadline: Deadline,
}

impl BatchRequest {
    fn decode(doc: &Json) -> Result<BatchRequest, ApiError> {
        let f = Fields::open(doc, "batch", BATCH_FIELDS)?;
        let shared_source = f.string("source")?;
        let timeout_ms = f.bounded("timeout_ms", 1, MAX_TIMEOUT_MS)?;
        let items = doc
            .get("items")
            .ok_or_else(|| bad("missing required array field `items`", "items"))?
            .as_arr()
            .ok_or_else(|| bad("`items` must be an array", "items"))?;
        if items.is_empty() || items.len() > MAX_BATCH_ITEMS {
            return Err(bad(
                format!(
                    "`items` must contain between 1 and {MAX_BATCH_ITEMS} items, got {}",
                    items.len()
                ),
                "items",
            ));
        }
        for (i, item) in items.iter().enumerate() {
            if item.as_obj().is_none() {
                return Err(bad(
                    format!("batch item {i} must be a JSON object"),
                    format!("items[{i}]"),
                ));
            }
            let has_own_source = matches!(item.get("source"), Some(v) if !matches!(v, Json::Null));
            if shared_source.is_some() && has_own_source {
                return Err(bad(
                    format!(
                        "batch item {i} sets `source` while the batch has a shared top-level \
                         `source`; use one or the other"
                    ),
                    format!("items[{i}].source"),
                ));
            }
        }
        Ok(BatchRequest {
            items: items.to_vec(),
            shared_source,
            deadline: deadline_within(&Deadline::unlimited(), timeout_ms),
        })
    }
}

/// The decoded body of a `/v1/sweep` request.
struct SweepRequest {
    source: String,
    /// Exact backends only (`exact`/`enum`, `bdd`, or `auto` resolved by
    /// the sweep engine); sampling engines cannot share work across points.
    engine: Engine,
    /// Fixed (non-swept) parameter bindings, sorted by name.
    bindings: Vec<(String, Rat)>,
    /// Swept parameters with their value lists, sorted by name. The grid is
    /// their cartesian product, row-major in this order: the last-sorted
    /// parameter varies fastest, and frame `index` follows this order.
    sweep: Vec<(String, Vec<Rat>)>,
    timeout_ms: Option<u64>,
    threads: Option<usize>,
    /// Whether to run the model-optimization pass pipeline (default true).
    passes: bool,
}

impl SweepRequest {
    fn decode(doc: &Json) -> Result<SweepRequest, ApiError> {
        let f = Fields::open(doc, "sweep", SWEEP_FIELDS)?;
        // `program` is accepted as an alias for `source` (a grid file pairs
        // naturally with a program file); setting both is ambiguous.
        if f.get("source").is_some() && f.get("program").is_some() {
            return Err(bad(
                "`program` conflicts with `source`; set exactly one",
                "program",
            ));
        }
        let source = match f.string("source")? {
            Some(source) => source,
            None => f
                .string("program")?
                .ok_or_else(|| bad("missing required string field `source`", "source"))?,
        };
        let engine = f.engine(true)?;
        let bindings = f.bindings()?;

        let grid = match f.get("sweep") {
            None => return Err(bad("missing required object field `sweep`", "sweep")),
            Some(Json::Obj(grid)) if grid.is_empty() => {
                return Err(bad("`sweep` must name at least one parameter", "sweep"))
            }
            Some(Json::Obj(grid)) => grid,
            Some(_) => {
                return Err(bad(
                    "`sweep` must be an object mapping parameter names to value arrays",
                    "sweep",
                ))
            }
        };
        let mut sweep: Vec<(String, Vec<Rat>)> = Vec::new();
        for (name, values) in grid {
            let field = format!("sweep.{name}");
            let Some(arr) = values.as_arr() else {
                return Err(bad(format!("`{field}` must be an array of values"), field));
            };
            if arr.is_empty() {
                return Err(bad(
                    format!("`{field}` must contain at least one value"),
                    field,
                ));
            }
            if sweep.iter().any(|(n, _)| n == name) {
                return Err(bad(
                    format!("parameter `{name}` appears twice in `sweep`"),
                    field,
                ));
            }
            let Some(vals) = arr.iter().map(rat_from_json).collect() else {
                return Err(bad(
                    format!(
                        "values in `{field}` must be integers or rational strings like \"1/2\""
                    ),
                    field,
                ));
            };
            sweep.push((name.clone(), vals));
        }
        sweep.sort_by(|a, b| a.0.cmp(&b.0));
        if let Some((name, _)) = sweep
            .iter()
            .find(|(name, _)| bindings.iter().any(|(b, _)| b == name))
        {
            return Err(bad(
                format!("parameter `{name}` is set in both `bindings` and `sweep`"),
                format!("sweep.{name}"),
            ));
        }
        let total = sweep
            .iter()
            .fold(1usize, |acc, (_, v)| acc.saturating_mul(v.len()));
        if total > MAX_SWEEP_POINTS {
            return Err(bad(
                format!("sweep grid has {total} points; the maximum is {MAX_SWEEP_POINTS}"),
                "sweep",
            ));
        }

        Ok(SweepRequest {
            source,
            engine,
            bindings,
            sweep,
            timeout_ms: f.bounded("timeout_ms", 1, MAX_TIMEOUT_MS)?,
            threads: f
                .bounded("threads", 1, MAX_REQUEST_THREADS)?
                .map(|v| v as usize),
            // Defaults to *true*, matching `/v1/run` and the CLI.
            passes: f.flag("passes", true)?,
        })
    }

    /// The full grid: cartesian product of the per-parameter value lists,
    /// row-major over the name-sorted parameter order.
    fn points(&self) -> Vec<Vec<Rat>> {
        let mut points: Vec<Vec<Rat>> = vec![Vec::new()];
        for (_, values) in &self.sweep {
            let mut next = Vec::with_capacity(points.len() * values.len());
            for prefix in &points {
                for v in values {
                    let mut row = prefix.clone();
                    row.push(v.clone());
                    next.push(row);
                }
            }
            points = next;
        }
        points
    }

    /// Cache key for one grid point's response body. Sweep bodies carry
    /// extra fields (`point`, `route`) and omit `stats`, so they live under
    /// sweep-specific keys rather than sharing `/v1/run` entries.
    fn point_key(&self, canonical_program: &str, point: &[Rat]) -> u64 {
        let mut h = DefaultHasher::new();
        "/v1/sweep".hash(&mut h);
        canonical_program.hash(&mut h);
        self.engine.name().hash(&mut h);
        self.passes.hash(&mut h);
        for (name, value) in &self.bindings {
            name.hash(&mut h);
            value.to_string().hash(&mut h);
        }
        for ((name, _), value) in self.sweep.iter().zip(point) {
            name.hash(&mut h);
            value.to_string().hash(&mut h);
        }
        h.finish()
    }
}

/// One distinct program of a request: parsed and canonicalized once,
/// checked and compiled at most once, optimized at most once. The pass
/// pipeline never folds parameters, so one optimized model serves every
/// binding.
struct Source {
    program: Program,
    /// Canonical pretty-printed program: the cache key's program part.
    canonical: String,
    compiled: OnceLock<Result<Model, ApiError>>,
    optimized: OnceLock<Model>,
}

impl Source {
    /// The compiled model, optimized when `passes` is set.
    fn model(&self, passes: bool) -> Result<&Model, ApiError> {
        let compiled = self
            .compiled
            .get_or_init(|| check_and_compile(&self.program))
            .as_ref()
            .map_err(Clone::clone)?;
        Ok(if passes {
            self.optimized.get_or_init(|| optimize(compiled))
        } else {
            compiled
        })
    }

    /// A copy of [`Source::model`] with `bindings` applied.
    fn bound(&self, passes: bool, bindings: &[(String, Rat)]) -> Result<Model, ApiError> {
        let mut model = self.model(passes)?.clone();
        for (name, value) in bindings {
            model
                .bind_param(name, value.clone())
                .map_err(|e| bad(e.to_string(), format!("bindings.{name}")))?;
        }
        Ok(model)
    }
}

/// The distinct sources of one request, keyed by raw text.
struct Sources {
    /// Shared outcome per distinct raw text. A parse failure is kept too,
    /// so every item with that source reports it without re-parsing.
    by_text: HashMap<String, Arc<Result<Source, ApiError>>>,
    /// Distinct canonical programs.
    compiles: u64,
    /// Distinct outcomes (canonical programs plus parse failures);
    /// everything else was a reuse.
    fresh: u64,
}

impl Sources {
    /// Resolves each distinct text once. Sources that differ only in
    /// formatting share one [`Source`] through the canonical form. With
    /// `compile`, every source is checked and compiled up front (a batch's
    /// sequential phase); otherwise on first use, so a cache hit never
    /// compiles.
    fn resolve<'a>(texts: impl IntoIterator<Item = &'a str>, compile: bool) -> Sources {
        let mut by_text = HashMap::new();
        let mut by_canonical = HashMap::new();
        let mut parse_failures = 0;
        for text in texts {
            if by_text.contains_key(text) {
                continue;
            }
            let resolved = match parse(text) {
                Err(e) => {
                    parse_failures += 1;
                    Arc::new(Err(ApiError::new(422, "parse_error", e.to_string())))
                }
                Ok(program) => {
                    let canonical = pretty_program(&program);
                    let shared = by_canonical.entry(canonical.clone()).or_insert_with(|| {
                        let source = Source {
                            program,
                            canonical,
                            compiled: OnceLock::new(),
                            optimized: OnceLock::new(),
                        };
                        if compile {
                            let _ = source.model(false);
                        }
                        Arc::new(Ok(source))
                    });
                    Arc::clone(shared)
                }
            };
            by_text.insert(text.to_string(), resolved);
        }
        let compiles = by_canonical.len() as u64;
        Sources {
            by_text,
            compiles,
            fresh: compiles + parse_failures,
        }
    }

    /// The source for `text`, which [`Sources::resolve`] saw. Fails with
    /// its parse error, or with its check/compile error once that is known.
    fn get(&self, text: &str) -> Result<&Source, ApiError> {
        let source = self.by_text[text].as_ref().as_ref().map_err(Clone::clone)?;
        match source.compiled.get() {
            Some(Err(e)) => Err(e.clone()),
            _ => Ok(source),
        }
    }
}

/// Integrity-checks and compiles a parsed program.
fn check_and_compile(program: &Program) -> Result<Model, ApiError> {
    check(program).map_err(|errors| {
        let details: Vec<String> = errors.iter().map(ToString::to_string).collect();
        let message = format!(
            "{} integrity error(s): {}",
            errors.len(),
            details.join("; ")
        );
        ApiError::new(422, "check_error", message)
    })?;
    compile(program).map_err(|e| ApiError::new(422, "compile_error", e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOSSIP: &str = r#"
        packet_fields { dst }
        topology { nodes { A, B } links { (A, pt1) <-> (B, pt1) } }
        programs { A -> send, B -> recv }
        init { packet -> (A, pt1); }
        query probability(got@B == 1);
        def send(pkt, pt) { if flip(1/3) { fwd(1); } else { drop; } }
        def recv(pkt, pt) state got(0) { got = 1; drop; }
    "#;

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn get(path: &str) -> Request {
        Request {
            method: "GET".into(),
            path: path.into(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    fn body_json(resp: &Response) -> Json {
        json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap()
    }

    /// Pins the one NDJSON framing shared by `/v1/batch` items and
    /// `/v1/sweep` grid points: `{"index":N,"status":S,"body":...}\n` with
    /// the response body spliced in verbatim.
    #[test]
    fn ndjson_frame_encoding_is_pinned() {
        let resp = Response::json(207, r#"{"ok":true}"#);
        assert_eq!(
            ndjson_frame(3, &resp),
            br#"{"index":3,"status":207,"body":{"ok":true}}
"#
        );
    }

    #[test]
    fn healthz_and_unknown_routes() {
        let svc = Service::new(4);
        assert_eq!(svc.handle(&get("/healthz")).status, 200);
        assert_eq!(svc.handle(&get("/nope")).status, 404);
        assert_eq!(svc.handle(&get("/v1/run")).status, 405);
    }

    #[test]
    fn run_exact_returns_cli_text() {
        let svc = Service::new(4);
        let body = Json::obj(vec![("source", Json::Str(GOSSIP.into()))]).to_string();
        let resp = svc.handle(&post("/v1/run", &body));
        assert_eq!(
            resp.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&resp.body)
        );
        let doc = body_json(&resp);
        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(true));
        let text = doc.get("text").unwrap().as_str().unwrap();
        assert!(text.contains("1/3"), "{text}");
        assert!(text.contains("Z = 1"), "{text}");
        assert!(text.ends_with("merge hits]\n"), "{text}");
    }

    #[test]
    fn identical_requests_hit_the_cache() {
        let svc = Service::new(4);
        let body = Json::obj(vec![("source", Json::Str(GOSSIP.into()))]).to_string();
        let first = svc.handle(&post("/v1/run", &body));
        // Different surface syntax, same canonical program: extra blank
        // lines don't defeat the cache.
        let body2 = Json::obj(vec![("source", Json::Str(format!("\n\n{GOSSIP}\n")))]).to_string();
        let second = svc.handle(&post("/v1/run", &body2));
        assert_eq!(first, second);
        assert_eq!(svc.metrics().cache_counts(), (1, 1));
    }

    #[test]
    fn errors_are_structured_and_uncached() {
        let svc = Service::new(4);
        let resp = svc.handle(&post("/v1/run", "not json"));
        assert_eq!(resp.status, 400);
        let doc = body_json(&resp);
        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(
            doc.get("error").unwrap().get("kind").unwrap().as_str(),
            Some("bad_request")
        );

        let bad_field = r#"{"source":"x","fuel":1}"#;
        let resp = svc.handle(&post("/v1/run", bad_field));
        assert_eq!(resp.status, 400);
        assert!(String::from_utf8_lossy(&resp.body).contains("unknown request field"));

        let parse_fail = Json::obj(vec![("source", Json::Str("not a program".into()))]).to_string();
        let resp = svc.handle(&post("/v1/run", &parse_fail));
        assert_eq!(resp.status, 422);
        assert_eq!(
            body_json(&resp)
                .get("error")
                .unwrap()
                .get("kind")
                .unwrap()
                .as_str(),
            Some("parse_error")
        );
        // All three failed before reaching the cache, so no hits or misses.
        assert_eq!(svc.metrics().cache_counts(), (0, 0));
    }

    #[test]
    fn smc_engine_estimates() {
        let svc = Service::new(4);
        let body = Json::obj(vec![
            ("source", Json::Str(GOSSIP.into())),
            ("engine", Json::Str("smc".into())),
            ("particles", Json::Num(200.0)),
            ("seed", Json::Num(7.0)),
        ])
        .to_string();
        let resp = svc.handle(&post("/v1/run", &body));
        assert_eq!(
            resp.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&resp.body)
        );
        let doc = body_json(&resp);
        let est = &doc.get("estimates").unwrap();
        let value = est
            .get_index(0)
            .and_then(|e| e.get("value"))
            .and_then(Json::as_f64)
            .unwrap();
        assert!((value - 1.0 / 3.0).abs() < 0.15, "estimate {value}");
    }

    /// Gossip on K4 (examples/bay/gossip_k4.bay): big enough that a 1 ms
    /// deadline reliably expires mid-exploration.
    const GOSSIP_K4: &str = r#"
        packet_fields { dst }
        topology {
            nodes { S0, S1, S2, S3 }
            links {
                (S0, pt1) <-> (S1, pt1), (S0, pt2) <-> (S2, pt1),
                (S0, pt3) <-> (S3, pt1), (S1, pt2) <-> (S2, pt2),
                (S1, pt3) <-> (S3, pt2), (S2, pt3) <-> (S3, pt3)
            }
        }
        programs { S0 -> seed, S1 -> gossip, S2 -> gossip, S3 -> gossip }
        init { packet -> (S0, pt1); }
        query expectation(infected@S0 + infected@S1 + infected@S2 + infected@S3);
        def seed(pkt, pt) state infected(0) {
            if infected == 0 { infected = 1; fwd(uniformInt(1, 3)); }
            else { drop; }
        }
        def gossip(pkt, pt) state infected(0) {
            if infected == 0 {
                infected = 1;
                dup;
                fwd(uniformInt(1, 3));
                fwd(uniformInt(1, 3));
            } else { drop; }
        }
    "#;

    #[test]
    fn timeout_returns_structured_error() {
        let svc = Service::new(4);
        let body = Json::obj(vec![
            ("source", Json::Str(GOSSIP_K4.into())),
            ("timeout_ms", Json::Num(1.0)),
        ])
        .to_string();
        let resp = svc.handle(&post("/v1/run", &body));
        assert_eq!(
            resp.status,
            504,
            "{:?}",
            String::from_utf8_lossy(&resp.body)
        );
        let doc = body_json(&resp);
        assert_eq!(
            doc.get("error").unwrap().get("kind").unwrap().as_str(),
            Some("timeout")
        );
    }

    /// Splits an NDJSON batch body into `(index, status, raw body)` frame
    /// parts, keeping the body bytes verbatim for byte-identity checks.
    fn frames(resp: &Response) -> Vec<(u64, u64, String)> {
        assert_eq!(
            resp.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&resp.body)
        );
        let text = std::str::from_utf8(&resp.body).unwrap();
        text.lines()
            .map(|line| {
                let doc = json::parse(line).unwrap();
                let index = doc.get("index").unwrap().as_u64().unwrap();
                let status = doc.get("status").unwrap().as_u64().unwrap();
                let start = line.find(",\"body\":").unwrap() + ",\"body\":".len();
                let body = line[start..line.len() - 1].to_string();
                (index, status, body)
            })
            .collect()
    }

    #[test]
    fn batch_shared_source_compiles_once_and_matches_single_runs() {
        // Independent service computes the sequential baselines.
        let single = Service::new(8);
        let item_bodies = [
            Json::obj(vec![("source", Json::Str(GOSSIP.into()))]).to_string(),
            Json::obj(vec![
                ("source", Json::Str(GOSSIP.into())),
                ("engine", Json::Str("smc".into())),
                ("particles", Json::Num(100.0)),
                ("seed", Json::Num(1.0)),
            ])
            .to_string(),
            Json::obj(vec![
                ("source", Json::Str(GOSSIP.into())),
                ("engine", Json::Str("smc".into())),
                ("particles", Json::Num(100.0)),
                ("seed", Json::Num(2.0)),
            ])
            .to_string(),
        ];
        let baselines: Vec<Vec<u8>> = item_bodies
            .iter()
            .map(|b| {
                let resp = single.handle(&post("/v1/run", b));
                assert_eq!(resp.status, 200);
                resp.body
            })
            .collect();

        let svc = Service::new(8);
        let batch = format!(
            r#"{{"source":{},"items":[{{}},{{"engine":"smc","particles":100,"seed":1}},{{"engine":"smc","particles":100,"seed":2}}]}}"#,
            Json::Str(GOSSIP.into())
        );
        let resp = svc.handle(&post("/v1/batch", &batch));
        assert_eq!(resp.content_type, "application/x-ndjson");
        let frames = frames(&resp);
        assert_eq!(frames.len(), 3);
        for (i, (index, status, body)) in frames.iter().enumerate() {
            assert_eq!(*index, i as u64);
            assert_eq!(*status, 200);
            assert_eq!(body.as_bytes(), baselines[i], "item {i} diverged");
        }

        let metrics = svc.metrics().render();
        assert!(
            metrics.contains("bayonet_batch_requests_total 1"),
            "{metrics}"
        );
        assert!(metrics.contains("bayonet_batch_items_total 3"), "{metrics}");
        assert!(
            metrics.contains("bayonet_batch_item_errors_total 0"),
            "{metrics}"
        );
        // One shared source: compiled exactly once, reused by the other two.
        assert!(
            metrics.contains("bayonet_batch_compiles_total 1"),
            "{metrics}"
        );
        assert!(
            metrics.contains("bayonet_batch_source_reuse_total 2"),
            "{metrics}"
        );
    }

    #[test]
    fn batch_items_share_the_result_cache_with_single_runs() {
        let svc = Service::new(8);
        let run_body = Json::obj(vec![("source", Json::Str(GOSSIP.into()))]).to_string();
        let warm = svc.handle(&post("/v1/run", &run_body));
        assert_eq!(warm.status, 200);

        let batch = format!(r#"{{"items":[{{"source":{}}}]}}"#, Json::Str(GOSSIP.into()));
        let resp = svc.handle(&post("/v1/batch", &batch));
        let frames = frames(&resp);
        assert_eq!(frames[0].2.as_bytes(), warm.body);
        // One miss from the warm-up run, one hit from the batch item.
        assert_eq!(svc.metrics().cache_counts(), (1, 1));
    }

    #[test]
    fn batch_validation_is_structured_and_preflight() {
        let svc = Service::new(4);

        // Empty items array.
        let resp = svc.handle(&post("/v1/batch", r#"{"items":[]}"#));
        assert_eq!(resp.status, 400);
        let doc = body_json(&resp);
        assert_eq!(
            doc.get("error").unwrap().get("field").unwrap().as_str(),
            Some("items")
        );

        // Conflicting shared and per-item source.
        let body = format!(
            r#"{{"source":{},"items":[{{"source":"x"}}]}}"#,
            Json::Str(GOSSIP.into())
        );
        let resp = svc.handle(&post("/v1/batch", &body));
        assert_eq!(resp.status, 400);
        let doc = body_json(&resp);
        assert_eq!(
            doc.get("error").unwrap().get("field").unwrap().as_str(),
            Some("items[0].source")
        );

        // Unknown top-level batch field.
        let resp = svc.handle(&post("/v1/batch", r#"{"items":[{}],"engine":"smc"}"#));
        assert_eq!(resp.status, 400);
        let doc = body_json(&resp);
        assert_eq!(
            doc.get("error").unwrap().get("field").unwrap().as_str(),
            Some("engine")
        );

        // Non-object item.
        let resp = svc.handle(&post("/v1/batch", r#"{"items":[{},7]}"#));
        assert_eq!(resp.status, 400);
        let doc = body_json(&resp);
        assert_eq!(
            doc.get("error").unwrap().get("field").unwrap().as_str(),
            Some("items[1]")
        );

        // Nothing ran, so no batch metrics were recorded.
        let metrics = svc.metrics().render();
        assert!(
            metrics.contains("bayonet_batch_requests_total 0"),
            "{metrics}"
        );
    }

    #[test]
    fn batch_item_failures_do_not_abort_siblings() {
        let svc = Service::new(4);
        let batch = format!(
            r#"{{"source":{},"items":[{{}},{{"fuel":1}},{{"timeout_ms":0}}]}}"#,
            Json::Str(GOSSIP.into())
        );
        let resp = svc.handle(&post("/v1/batch", &batch));
        let frames = frames(&resp);
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0].1, 200);
        // Unknown per-item field: same structured error as /v1/run.
        assert_eq!(frames[1].1, 400);
        assert!(
            frames[1].2.contains("unknown request field `fuel`"),
            "{}",
            frames[1].2
        );
        // Invalid per-item timeout.
        assert_eq!(frames[2].1, 400);
        assert!(frames[2].2.contains("timeout_ms"), "{}", frames[2].2);

        let metrics = svc.metrics().render();
        assert!(
            metrics.contains("bayonet_batch_item_errors_total 2"),
            "{metrics}"
        );
    }

    #[test]
    fn batch_deadline_expires_unstarted_items() {
        let svc = Service::new(0);
        // A batch whose budget is practically zero: every item that is not
        // already cached times out with a structured per-item 504.
        let batch = format!(
            r#"{{"source":{},"timeout_ms":1,"items":[{{}},{{"seed":1,"engine":"smc"}}]}}"#,
            Json::Str(GOSSIP_K4.into())
        );
        let resp = svc.handle(&post("/v1/batch", &batch));
        let frames = frames(&resp);
        assert_eq!(frames.len(), 2);
        for (_, status, body) in &frames {
            assert_eq!(*status, 504, "{body}");
            assert!(body.contains("timeout"), "{body}");
        }
    }

    #[test]
    fn threads_hint_is_accepted_and_results_match_single_threaded() {
        let single = Service::new(0);
        let body1 = Json::obj(vec![("source", Json::Str(GOSSIP.into()))]).to_string();
        let baseline = single.handle(&post("/v1/run", &body1));
        assert_eq!(baseline.status, 200);

        let pooled = Service::with_pool(0, ComputePool::new(4));
        let body8 = Json::obj(vec![
            ("source", Json::Str(GOSSIP.into())),
            ("threads", Json::Num(8.0)),
        ])
        .to_string();
        let parallel = pooled.handle(&post("/v1/run", &body8));
        assert_eq!(parallel.status, 200);
        // Identical posterior and identical rendered text: the threads
        // hint must never change what a request computes.
        assert_eq!(baseline.body, parallel.body);
    }
}
