//! `perfbench`: the end-to-end and per-layer benchmark of `bayonet-served`.
//!
//! ```text
//! perfbench --server <bayonet-served> --workload <run_cold|sweep_batch>
//!           --seed N --seconds S --trace <0|1>
//! ```
//!
//! Each run spawns the server out of process, drives it from two load
//! threads over at most two concurrent connections, then replays every
//! request it sent in process to check every answer. The last line of
//! stdout is the JSON report; progress and a summary go to stderr. See
//! `README.md` for the workloads and metrics.

mod client;
mod gen;
mod replay;
mod server;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use client::Reply;
use gen::{Job, Work, Workload, PROBE_SET};
use replay::{Counts, Replay};
use server::{PortGuard, Scrape, Server};

/// Load threads and concurrent connections.
const CLIENTS: usize = 2;
/// Linux clock ticks per second (`USER_HZ`), the unit of `/proc/<pid>/stat`.
const TICKS_PER_S: f64 = 100.0;
/// Working space inside the checkout: cache directories and span dumps.
const WORK_DIR: &str = ".bench_build/perfbench-work";

struct Args {
    server: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let take = |name: &str| flags.get(name).cloned().ok_or(format!("missing {name}"));
    let number = |name: &str| -> Result<u64, String> {
        take(name)?
            .parse()
            .map_err(|_| format!("{name} must be a whole number"))
    };
    let workload = take("--workload")?;
    Ok(Args {
        server: PathBuf::from(take("--server")?),
        workload: Workload::parse(&workload).ok_or(format!("unknown workload {workload}"))?,
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1),
        trace: number("--trace")? == 1,
    })
}

/// One request as the load loop saw it.
struct Sample {
    id: usize,
    latency: Duration,
    connect: Duration,
    reply: Result<Reply, String>,
}

fn send(addr: SocketAddr, job: &Job) -> (Result<Reply, String>, Duration) {
    match client::request(addr, "POST", job.path, job.body.as_bytes()) {
        Ok((reply, connect)) => (Ok(reply), connect),
        Err(e) => (Err(format!("connect/transport: {e}")), Duration::ZERO),
    }
}

/// Closed loop: each client sends its next request when the previous one
/// is answered; client `c` sends ids `c, c + 2, c + 4, ...`.
fn closed_loop(
    addr: SocketAddr,
    job: &(dyn Fn(usize) -> Job + Sync),
    seconds: u64,
) -> (Vec<Sample>, Duration) {
    let start = Instant::now();
    let stop = start + Duration::from_secs(seconds);
    let samples = Mutex::new(Vec::new());
    let last = Mutex::new(start);
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let (samples, last) = (&samples, &last);
            scope.spawn(move || {
                let mut mine = Vec::new();
                let mut id = client;
                while Instant::now() < stop {
                    let job = job(id);
                    let sent = Instant::now();
                    let (reply, connect) = send(addr, &job);
                    mine.push(Sample {
                        id,
                        latency: sent.elapsed(),
                        connect,
                        reply,
                    });
                    id += CLIENTS;
                }
                let mut last = last.lock().expect("last lock");
                *last = (*last).max(Instant::now());
                samples.lock().expect("samples lock").extend(mine);
            });
        }
    });
    let elapsed = last.into_inner().expect("last lock") - start;
    (samples.into_inner().expect("samples lock"), elapsed)
}

/// Sends every job once over two connections and requires a 200 for each
/// (the router probe's cache fill).
fn fill(addr: SocketAddr, jobs: &[Job]) -> Result<(), String> {
    let next = AtomicUsize::new(0);
    let failures = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                while let Some(job) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
                    match send(addr, job).0 {
                        Ok(reply) if reply.status == 200 => {}
                        other => failures.lock().expect("failures lock").push(format!(
                            "fill request {}: {:?}",
                            job.id,
                            other.map(|r| r.status)
                        )),
                    }
                }
            });
        }
    });
    match failures.into_inner().expect("failures lock").first() {
        Some(f) => Err(f.clone()),
        None => Ok(()),
    }
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Everything one timed window produced.
struct Window {
    setups: Vec<f64>,
    samples: Vec<Sample>,
    elapsed: Duration,
    cpu_ticks: u64,
    rss_kib: u64,
    /// Metric deltas over the window.
    delta: Scrape,
    /// Client connections opened, router hops included.
    connections: u64,
    hop_us: f64,
    /// Client latency of a cached request sent straight to its replica.
    hit_us: f64,
    /// Share of CPU time the hypervisor stole during the window.
    steal_share: f64,
}

fn server_args(workload: Workload, cache_dir: &Path) -> Vec<String> {
    let mut args = vec!["--threads".to_string(), "2".to_string()];
    if workload == Workload::RunCold {
        args.push("--cache-dir".into());
        args.push(cache_dir.display().to_string());
    }
    args
}

/// The traced pass's router fleet: two replicas whose worker threads sum
/// to the host's two CPUs.
const FLEET_ARGS: [&str; 4] = ["--replicas", "2", "--threads", "1"];

/// Connections a run may open: the load itself with generous headroom,
/// plus set-up probes, scrapes and the traced pass's router fill and
/// probes, where a routed request costs two.
fn planned_connections(workload: Workload, seconds: u64) -> u64 {
    let load = match workload {
        Workload::RunCold => 250 * seconds,
        Workload::SweepBatch => 100 * seconds,
    };
    500 + load + 2 * 7 * PROBE_SET as u64
}

fn measure(args: &Args, guard: &PortGuard) -> Result<Window, String> {
    let workload = args.workload;
    let planned = planned_connections(workload, args.seconds);
    guard.admit(planned)?;
    let opened_before = client::connections();
    let setups_wanted = 15;
    let mut setups = Vec::new();
    let mut live = None;
    let setup_phase = Instant::now();
    for round in 0..setups_wanted {
        let cache_dir = Path::new(WORK_DIR).join(format!("cache-{}-{round}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache_dir);
        let started = Instant::now();
        let server = Server::start(&args.server, &server_args(workload, &cache_dir))?;
        setups.push(started.elapsed().as_secs_f64());
        if round + 1 == setups_wanted {
            live = Some((server, cache_dir));
        } else {
            drop(server);
            let _ = std::fs::remove_dir_all(&cache_dir);
        }
    }
    let (server, cache_dir) = live.expect("at least one set-up");
    eprintln!(
        "perfbench: {} set-ups took {:.2} s",
        setups.len(),
        setup_phase.elapsed().as_secs_f64()
    );
    let tree = server.tree();
    let before = server::scrape(server.addr)?;
    let cpu_before = server::cpu_ticks(&tree);
    let steal_before = server::steal_ticks();

    let (samples, elapsed) =
        closed_loop(server.addr, &|id| workload.job(args.seed, id), args.seconds);

    let cpu_ticks = server::cpu_ticks(&tree) - cpu_before;
    let steal_after = server::steal_ticks();
    let steal_share = ratio(
        (steal_after.0 - steal_before.0) as f64,
        (steal_after.1 - steal_before.1) as f64,
    );
    let delta = server::scrape(server.addr)?.since(&before);
    let rss_kib = server::peak_rss_kib(&tree);
    drop(server);
    let _ = std::fs::remove_dir_all(&cache_dir);
    // No workload has a router in its timed path, so the traced pass
    // measures the router and the cache-hit path on a warm fleet of its
    // own, after the window.
    let mut routed_connections = 0;
    let (hop_us, hit_us) = if args.trace {
        let before = client::connections();
        let fleet_args: Vec<String> = FLEET_ARGS.iter().map(|a| a.to_string()).collect();
        let fleet = Server::start(&args.server, &fleet_args)?;
        let probes: Vec<Job> = (0..PROBE_SET)
            .map(|id| Workload::RunCold.job(args.seed, id))
            .collect();
        fill(fleet.addr, &probes)?;
        let probed = router_hop_us(fleet.addr, &fleet.replicas()?, &probes)?;
        routed_connections = client::connections() - before;
        probed
    } else {
        (0.0, 0.0)
    };
    let mut connections = client::connections() - opened_before;
    // A request through the router opens a second connection behind it.
    connections += routed_connections;
    guard.audit(planned, connections)?;
    Ok(Window {
        setups,
        samples,
        elapsed,
        cpu_ticks,
        rss_kib,
        delta,
        connections,
        hop_us,
        hit_us,
        steal_share,
    })
}

/// The router's share of a cached request: each probe sent through the
/// router and straight to its home replica, alternating, three times.
/// Returns the difference of the two medians and the direct median, in
/// microseconds.
fn router_hop_us(
    router: SocketAddr,
    replicas: &[SocketAddr],
    jobs: &[Job],
) -> Result<(f64, f64), String> {
    let (mut via, mut direct) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        for job in jobs {
            let started = Instant::now();
            let reply = send(router, job).0?;
            via.push(started.elapsed().as_secs_f64() * 1e6);
            let home = reply
                .header("x-bayonet-replica")
                .and_then(|i| i.parse::<usize>().ok())
                .and_then(|i| replicas.get(i))
                .ok_or("routed reply without a home replica")?;
            let started = Instant::now();
            send(*home, job).0?;
            direct.push(started.elapsed().as_secs_f64() * 1e6);
        }
    }
    Ok((median(&via) - median(&direct), median(&direct)))
}

/// Checks that the run stayed the workload it claims to be.
fn check_preconditions(
    workload: Workload,
    window: &Window,
    jobs: &BTreeMap<usize, Job>,
) -> Result<(), String> {
    let hits = window.delta.get("bayonet_cache_hits_total");
    if hits != 0.0 {
        return Err(format!(
            "{}: {hits} cache hits; every request must miss",
            workload.name()
        ));
    }
    if workload == Workload::SweepBatch {
        for route in ["symbolic", "prefix", "per_point"] {
            let intended = jobs
                .values()
                .filter(|j| matches!(&j.work, Work::Sweep { route: r, .. } if *r == route))
                .count() as f64;
            let served = window.delta.get(&format!(
                "bayonet_sweep_requests_total{{route=\"{route}\"}}"
            ));
            if served != intended {
                return Err(format!(
                    "sweep_batch: server answered {served} sweeps on the {route} route, \
                     the generator intended {intended}"
                ));
            }
        }
    }
    Ok(())
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

fn end_to_end(window: &Window, items: u64, attempted: u64, failed: u64) -> Metrics {
    let mut latencies: Vec<f64> = window
        .samples
        .iter()
        .map(|s| s.latency.as_secs_f64() * 1e3)
        .collect();
    latencies.sort_by(f64::total_cmp);
    vec![
        ("setup_s", median(&window.setups), "s"),
        (
            "items_per_s",
            items as f64 / window.elapsed.as_secs_f64(),
            "1/s",
        ),
        ("latency_p50_ms", quantile(&latencies, 0.5), "ms"),
        ("latency_p90_ms", quantile(&latencies, 0.9), "ms"),
        (
            "server_cpu_ms_per_item",
            ratio(window.cpu_ticks as f64 * 1e3 / TICKS_PER_S, items as f64),
            "ms",
        ),
        ("peak_rss_mb", window.rss_kib as f64 / 1024.0, "MB"),
        (
            "success_rate",
            1.0 - ratio(failed as f64, attempted as f64),
            "share",
        ),
    ]
}

/// Sum of `name{endpoint="..."}` over the endpoints the load uses.
fn endpoint_sum(delta: &Scrape, name: &str) -> f64 {
    ["/v1/run", "/v1/sweep", "/v1/batch"]
        .iter()
        .map(|e| delta.get(&format!("{name}{{endpoint=\"{e}\"}}")))
        .sum()
}

fn per_layer(
    workload: Workload,
    window: &Window,
    jobs: &BTreeMap<usize, Job>,
    replayed: &Replay,
    attempted: u64,
) -> Metrics {
    let d = &window.delta;
    let per_req = |v: f64| ratio(v, attempted as f64);

    // Span means, per call.
    let mut spans: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for s in &replayed.spans {
        let e = spans.entry(s.name).or_default();
        e.0 += s.ns();
        e.1 += 1;
    }
    let span_us = |name: &str| {
        spans
            .get(name)
            .map_or(0.0, |(ns, n)| *ns as f64 / *n as f64 / 1e3)
    };

    // Exact counters over the counted jobs; the rest over every replayed job.
    let mut exact = Counts::default();
    let (mut feas_hits, mut feas_misses) = (0u64, 0u64);
    let (mut routed, mut best, mut routed_sym, mut best_sym) = (0u64, 0u64, 0u64, 0u64);
    let (mut traced, mut untraced) = (0u64, 0u64);
    for (id, o) in &replayed.outcomes {
        if *id < workload.counted_jobs() {
            exact.add(&o.counts);
        }
        feas_hits += o.feas_hits;
        feas_misses += o.feas_misses;
        routed += o.routed_ns;
        best += o.best_ns;
        routed_sym += o.routed_sym_ns;
        best_sym += o.best_sym_ns;
        traced += o.traced_ns;
        untraced += o.untraced_ns;
    }
    let items = exact.items as f64;
    let runs = exact.runs as f64;
    let run_expansions = (exact.expansions - exact.sweep_expansions) as f64;

    // Unattributed time: root self time over root wall time, on
    // uniform-gossip runs where the workload has them.
    let mut children: BTreeMap<usize, u64> = BTreeMap::new();
    for s in &replayed.spans {
        if let Some(p) = s.parent {
            *children.entry(p).or_default() += s.ns();
        }
    }
    let (mut root_self, mut root_wall) = (0u64, 0u64);
    let gossip_uniform =
        |req: usize| matches!(jobs[&req].work, Work::Run(gen::Prog::GossipUniform, _));
    let any_gossip = replayed
        .spans
        .iter()
        .any(|s| s.parent.is_none() && gossip_uniform(s.req));
    for (i, s) in replayed.spans.iter().enumerate() {
        if s.parent.is_none() && (!any_gossip || gossip_uniform(s.req)) {
            root_wall += s.ns();
            root_self += s.ns() - children.get(&i).copied().unwrap_or(0);
        }
    }

    let client_ms: f64 = window
        .samples
        .iter()
        .map(|s| s.latency.as_secs_f64() * 1e3)
        .sum::<f64>()
        / window.samples.len().max(1) as f64;
    let server_ms = 1e3
        * ratio(
            endpoint_sum(d, "bayonet_request_seconds_sum"),
            endpoint_sum(d, "bayonet_request_seconds_count"),
        );
    let mut connects: Vec<f64> = window
        .samples
        .iter()
        .map(|s| s.connect.as_secs_f64() * 1e6)
        .collect();
    connects.sort_by(f64::total_cmp);
    let hits = d.get("bayonet_cache_hits_total");
    let lookups = hits + d.get("bayonet_cache_misses_total");

    vec![
        ("lang.parse_us", span_us("lang.parse"), "us"),
        ("lang.pretty_us", span_us("lang.pretty"), "us"),
        ("lang.check_us", span_us("lang.check"), "us"),
        ("net.compile_us", span_us("net.compile"), "us"),
        ("net.bind_us", span_us("net.bind"), "us"),
        ("opt.optimize_us", span_us("opt.optimize"), "us"),
        (
            "opt.group_order",
            ratio(exact.group_order as f64, runs),
            "count",
        ),
        ("planner.plan_us", span_us("planner.plan"), "us"),
        (
            "planner.est_over_actual",
            ratio(exact.est_expansions as f64, run_expansions),
            "ratio",
        ),
        ("planner.regret", ratio(routed as f64, best as f64), "ratio"),
        (
            "planner.regret_symmetric",
            ratio(routed_sym as f64, best_sym as f64),
            "ratio",
        ),
        ("engine.analyze_us", span_us("engine.analyze"), "us"),
        ("engine.steps", ratio(exact.steps as f64, items), "count"),
        (
            "engine.expansions",
            ratio(exact.expansions as f64, items),
            "count",
        ),
        (
            "engine.peak_configs",
            ratio(exact.peak_configs as f64, runs),
            "count",
        ),
        (
            "engine.merge_hits",
            ratio(exact.merge_hits as f64, items),
            "count",
        ),
        (
            "engine.merge_ratio",
            ratio(exact.merge_hits as f64, exact.expansions as f64),
            "ratio",
        ),
        (
            "engine.orbit_merges",
            ratio(exact.orbit_merges as f64, items),
            "count",
        ),
        ("bdd.analyze_us", span_us("bdd.analyze"), "us"),
        (
            "bdd.nodes",
            ratio(exact.bdd_nodes as f64, exact.bdd_runs as f64),
            "count",
        ),
        (
            "bdd.unique_hit_ratio",
            ratio(
                exact.bdd_unique_hits as f64,
                (exact.bdd_unique_hits + exact.bdd_nodes) as f64,
            ),
            "ratio",
        ),
        (
            "symbolic.feasibility_checks",
            ratio(
                (feas_hits + feas_misses) as f64,
                replayed.outcomes.len() as f64,
            ),
            "count",
        ),
        (
            "symbolic.feasibility_hit_ratio",
            ratio(feas_hits as f64, (feas_hits + feas_misses) as f64),
            "ratio",
        ),
        ("query.answer_us", span_us("query.answer"), "us"),
        ("render.text_us", span_us("render.text"), "us"),
        ("sweep.sweep_us", span_us("sweep.sweep"), "us"),
        (
            "sweep.expansions_per_point",
            ratio(exact.sweep_expansions as f64, exact.sweep_points as f64),
            "count",
        ),
        (
            "sweep.prefix_reuse_frac",
            ratio(exact.sweep_reused as f64, exact.sweep_points as f64),
            "share",
        ),
        (
            "sweep.symbolic_route_frac",
            ratio(exact.route_symbolic as f64, exact.sweep_points as f64),
            "share",
        ),
        (
            "batch.compiles_per_request",
            ratio(
                d.get("bayonet_batch_compiles_total"),
                d.get("bayonet_batch_requests_total"),
            ),
            "count",
        ),
        (
            "batch.source_reuse_frac",
            ratio(
                d.get("bayonet_batch_source_reuse_total"),
                d.get("bayonet_batch_items_total"),
            ),
            "share",
        ),
        (
            "pool.steals",
            per_req(d.get("bayonet_pool_steals_total")),
            "count",
        ),
        ("serve.handle_us", span_us("serve.handle"), "us"),
        ("serve.cache_hit_ratio", ratio(hits, lookups), "ratio"),
        (
            "serve.cache_evictions",
            d.get("bayonet_cache_evictions_total"),
            "count",
        ),
        ("http.connect_us", quantile(&connects, 0.5), "us"),
        ("http.outside_us", (client_ms - server_ms) * 1e3, "us"),
        (
            "http.loop_wakeups_per_req",
            per_req(d.get("bayonet_http_loop_wakeups_total")),
            "count",
        ),
        ("router.hop_us", window.hop_us, "us"),
        ("serve.hit_us", window.hit_us, "us"),
        (
            "persist.writes",
            per_req(d.get("bayonet_cache_persist_writes_total")),
            "count",
        ),
        (
            "trace.overhead_frac",
            ratio(traced as f64, untraced as f64) - 1.0,
            "share",
        ),
        (
            "trace.unattributed_frac",
            ratio(root_self as f64, root_wall as f64),
            "share",
        ),
        (
            "input.symmetric_share",
            ratio(exact.symmetric as f64, items),
            "share",
        ),
        (
            "input.unbound_share",
            ratio(exact.unbound as f64, items),
            "share",
        ),
        (
            "input.sched_uniform_share",
            ratio(exact.sched_uniform as f64, items),
            "share",
        ),
        (
            "input.sched_roundrobin_share",
            ratio(exact.sched_roundrobin as f64, items),
            "share",
        ),
        (
            "input.sched_rotor_share",
            ratio(exact.sched_rotor as f64, items),
            "share",
        ),
        ("input.auto_share", ratio(exact.auto as f64, items), "share"),
        (
            "input.route_symbolic_share",
            ratio(exact.route_symbolic as f64, items),
            "share",
        ),
        (
            "input.route_prefix_share",
            ratio(exact.route_prefix as f64, items),
            "share",
        ),
        (
            "input.route_per_point_share",
            ratio(exact.route_per_point as f64, items),
            "share",
        ),
    ]
}

fn write_spans(workload: Workload, seed: u64, replayed: &Replay) -> Result<PathBuf, String> {
    let path = Path::new(WORK_DIR).join(format!("spans-{}-{seed}.jsonl", workload.name()));
    let mut out = String::new();
    for (i, s) in replayed.spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"req\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}\n",
            s.name, s.req, s.start_ns, s.end_ns
        ));
    }
    std::fs::write(&path, out).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}

fn report(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    std::fs::create_dir_all(WORK_DIR).map_err(|e| format!("creating {WORK_DIR}: {e}"))?;
    let guard = PortGuard::new()?;
    let workload = args.workload;
    let window = measure(&args, &guard)?;

    // Every request the window sent, plus the counted set the exact
    // counters are taken over.
    let mut jobs: BTreeMap<usize, Job> = BTreeMap::new();
    for s in &window.samples {
        jobs.entry(s.id)
            .or_insert_with(|| workload.job(args.seed, s.id));
    }
    check_preconditions(workload, &window, &jobs)?;
    if args.trace {
        for id in 0..workload.counted_jobs() {
            jobs.entry(id)
                .or_insert_with(|| workload.job(args.seed, id));
        }
    }
    let list: Vec<Job> = jobs.values().cloned().collect();
    let replay_started = Instant::now();
    let traced_below = if args.trace {
        workload.traced_jobs()
    } else {
        0
    };
    let replayed = replay::replay(&list, traced_below, CLIENTS)?;
    let replay_s = replay_started.elapsed().as_secs_f64();

    let mut failed = 0u64;
    let mut items = 0u64;
    for s in &window.samples {
        let job = &jobs[&s.id];
        let verdict = s
            .reply
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|r| replay::answers(job, r.status, &r.body))
            .and_then(|got| {
                if got == replayed.outcomes[&s.id].answers {
                    Ok(())
                } else {
                    Err("posterior differs from the in-process answer".to_string())
                }
            });
        match verdict {
            Ok(()) => items += job.items() as u64,
            Err(e) => {
                failed += 1;
                if failed <= 3 {
                    eprintln!("perfbench: request {} failed: {e}", s.id);
                }
            }
        }
    }
    let attempted = window.samples.len() as u64;
    if attempted == 0 {
        return Err("no request completed".into());
    }

    let metrics = if args.trace {
        let path = write_spans(workload, args.seed, &replayed)?;
        eprintln!(
            "perfbench: {} spans written to {}",
            replayed.spans.len(),
            path.display()
        );
        per_layer(workload, &window, &jobs, &replayed, attempted)
    } else {
        end_to_end(&window, items, attempted, failed)
    };
    let mut by_kind: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for s in &window.samples {
        let kind = match &jobs[&s.id].work {
            Work::Run(prog, item) => {
                format!(
                    "run {} {}",
                    prog.name(),
                    if item.auto { "auto" } else { "exact" }
                )
            }
            Work::Batch(prog, _) => format!("batch {}", prog.name()),
            Work::Sweep { prog, .. } => format!("sweep {}", prog.name()),
        };
        by_kind
            .entry(kind)
            .or_default()
            .push(s.latency.as_secs_f64() * 1e3);
    }
    for (kind, latencies) in &by_kind {
        eprintln!(
            "perfbench:   {kind:28} {:5} requests, median {:8.3} ms",
            latencies.len(),
            median(latencies)
        );
    }
    let mut all: Vec<f64> = by_kind.values().flatten().copied().collect();
    all.sort_by(f64::total_cmp);
    let deciles: Vec<String> = [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99]
        .iter()
        .map(|q| format!("p{}={:.3}", (q * 100.0) as u32, quantile(&all, *q)))
        .collect();
    eprintln!("perfbench:   latency ms: {}", deciles.join(" "));
    eprintln!("perfbench:   set-ups (s): {:?}", window.setups);
    eprintln!(
        "perfbench: {} seed {}: {attempted} requests ({items} posteriors) in {:.2} s, {failed} failed; \
         {} connections; host steal {:.1}%; replay {:.1} s",
        workload.name(),
        args.seed,
        window.elapsed.as_secs_f64(),
        window.connections,
        window.steal_share * 100.0,
        replay_s
    );
    Ok(report(failed == 0, attempted, failed, &metrics))
}

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            let mut stdout = std::io::stdout().lock();
            let _ = writeln!(stdout, "{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_counters_repeat_bit_for_bit() {
        for workload in [Workload::RunCold, Workload::SweepBatch] {
            let first = replay::exact_counts(workload, 7).expect("replay");
            let second = replay::exact_counts(workload, 7).expect("replay");
            assert_eq!(first, second, "{}", workload.name());
            assert!(first.expansions > 0);
        }
    }

    #[test]
    fn cold_requests_are_distinct_and_balanced() {
        let jobs: Vec<Job> = (0..4 * gen::COLD_CYCLE)
            .map(|id| Workload::RunCold.job(3, id))
            .collect();
        let bodies: std::collections::BTreeSet<&str> =
            jobs.iter().map(|j| j.body.as_str()).collect();
        assert_eq!(bodies.len(), jobs.len());
        let auto = jobs
            .iter()
            .filter(|j| matches!(&j.work, Work::Run(_, item) if item.auto))
            .count();
        assert_eq!(auto, jobs.len() / 2);
    }
}
