//! The `bayonet` command-line tool: check, run, synthesize, and compile
//! Bayonet network programs.
//!
//! `check`, `synthesize` and `run` (bar its `psi` and `simulate` engines)
//! are in-process clients of `bayonet serve`: they send the matching
//! `/v1/*` request to a [`Service`] and print its `text` or NDJSON frames.
//!
//! ```text
//! bayonet check <file.bay>
//! bayonet run <file.bay> [--engine auto|exact|enum|bdd|smc|rejection|psi]
//!                        [--particles N] [--seed N] [--threads N]
//!                        [--scheduler uniform|det|rotor]
//!                        [--bind NAME=VALUE]... [--stats] [--explain-plan]
//!                        [--no-opt] [--explain-passes]
//! bayonet run <batch.json> --batch [--threads N]
//! bayonet run <file.bay> --sweep <grid.json> [--engine auto|exact|enum|bdd]
//!                        [--bind NAME=VALUE]... [--scheduler S] [--threads N]
//! bayonet synthesize <file.bay> [--query N] [--maximize]
//! bayonet codegen <file.bay> [--target psi|webppl]
//! bayonet pretty <file.bay>
//! bayonet serve [--addr A] [--threads N] [--cache-entries K]
//!               [--cache-dir DIR] [--cache-max-bytes N]
//!               [--replicas N] [--max-connections N]
//! ```

use std::process::ExitCode;
use std::time::Instant;

use bayonet::{plan_model, ApproxOptions, Model, Network, PlannerConfig, Rat};
use bayonet_lang::SchedulerSpec;
use bayonet_serve::{parse_json, Json, Request, Service};

fn main() -> ExitCode {
    // When spawned as a `serve --replicas N` shard this process is a
    // replica server, not a CLI: the hook detects the replica spec in the
    // environment and never returns.
    bayonet_serve::replica_entry();

    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> String {
    "usage: bayonet <check|run|synthesize|codegen|pretty|serve> [<file.bay>] [options]\n\
     run options: --engine auto|exact|enum|bdd|smc|rejection|psi|simulate  --particles N\n\
                  --seed N  --scheduler uniform|det|rotor  --bind NAME=VALUE  --threads N\n\
                  --stats  --explain-plan (print the planner's routing and cost estimate)\n\
                  --no-opt (skip the model-optimization pass pipeline)\n\
                  --explain-passes (print what each optimization pass did)\n\
                  --batch (file is a /v1/batch JSON request; NDJSON frames to stdout)\n\
                  --sweep GRID.json (sweep parameters over a value grid; one NDJSON\n\
                                     frame per grid point, sharing exploration work)\n\
     synthesize options: --query N  --maximize  --allow-zero-params\n\
     codegen options: --target psi|webppl\n\
     serve options: --addr HOST:PORT  --threads N  --cache-entries K\n\
                    --cache-dir DIR  --cache-max-bytes N\n\
                    --replicas N  --max-connections N"
        .to_string()
}

/// Allowed flags per subcommand: `(name, takes_value)`.
const RUN_FLAGS: &[(&str, bool)] = &[
    ("--engine", true),
    ("--particles", true),
    ("--seed", true),
    ("--scheduler", true),
    ("--bind", true),
    ("--threads", true),
    ("--stats", false),
    ("--explain-plan", false),
    ("--no-opt", false),
    ("--explain-passes", false),
    ("--batch", false),
    ("--sweep", true),
];
const SYNTHESIZE_FLAGS: &[(&str, bool)] = &[
    ("--query", true),
    ("--maximize", false),
    ("--allow-zero-params", false),
    ("--scheduler", true),
    ("--bind", true),
];
/// The `run` engines `/v1/run` answers; `psi` and `simulate` run locally.
const SERVED_ENGINES: &[&str] = &["exact", "enum", "bdd", "auto", "smc", "rejection"];
const CODEGEN_FLAGS: &[(&str, bool)] = &[("--target", true)];
const NO_FLAGS: &[(&str, bool)] = &[];
const SERVE_FLAGS: &[(&str, bool)] = &[
    ("--addr", true),
    ("--threads", true),
    ("--cache-entries", true),
    ("--cache-dir", true),
    ("--cache-max-bytes", true),
    ("--replicas", true),
    ("--max-connections", true),
];

fn run(args: &[String]) -> Result<(), String> {
    if args.first().map(String::as_str) == Some("serve") {
        return serve_cmd(&args[1..]);
    }
    let (cmd, file) = match args {
        [cmd, file, ..] => (cmd.as_str(), file.as_str()),
        _ => return Err(usage()),
    };
    let rest = &args[2..];
    let source = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;

    match cmd {
        "check" => {
            validate_flags(rest, NO_FLAGS)?;
            call("/v1/check", body(&source, &[], Vec::new()), 1).map(drop)
        }
        "run" => {
            validate_flags(rest, RUN_FLAGS)?;
            run_cmd(&source, rest)
        }
        "synthesize" => {
            validate_flags(rest, SYNTHESIZE_FLAGS)?;
            synthesize_cmd(&source, rest)
        }
        "codegen" => {
            validate_flags(rest, CODEGEN_FLAGS)?;
            let network = network(&program_source(&source, rest)?, &[])?;
            match flag_value(rest, "--target").unwrap_or("psi") {
                "psi" => print!("{}", network.to_psi()),
                "webppl" => print!("{}", network.to_webppl()),
                other => return Err(format!("unknown codegen target `{other}`")),
            }
            Ok(())
        }
        "pretty" => {
            validate_flags(rest, NO_FLAGS)?;
            let program = bayonet::parse(&source).map_err(|e| e.to_string())?;
            print!("{}", bayonet::pretty_program(&program));
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

/// Checks `rest` against a flag specification: every argument must be a
/// known flag, and every value-taking flag must be followed by a value
/// (which may not itself look like a flag).
fn validate_flags(rest: &[String], spec: &[(&str, bool)]) -> Result<(), String> {
    let mut i = 0;
    while i < rest.len() {
        let arg = rest[i].as_str();
        match spec.iter().find(|(name, _)| *name == arg) {
            Some((name, true)) => match rest.get(i + 1) {
                Some(v) if !v.starts_with("--") => i += 2,
                _ => return Err(format!("{name} needs a value\n{}", usage())),
            },
            Some((_, false)) => i += 1,
            None if arg.starts_with("--") => {
                return Err(format!("unknown flag `{arg}`\n{}", usage()))
            }
            None => return Err(format!("unexpected argument `{arg}`\n{}", usage())),
        }
    }
    Ok(())
}

fn flag_value<'a>(rest: &'a [String], name: &str) -> Option<&'a str> {
    rest.iter()
        .position(|a| a == name)
        .and_then(|i| rest.get(i + 1))
        .map(String::as_str)
}

fn has_flag(rest: &[String], name: &str) -> bool {
    rest.iter().any(|a| a == name)
}

/// The value of the numeric flag `name`, if given. Requests carry numbers
/// as JSON doubles, so a value above 2^53 is refused rather than rounded.
fn number(rest: &[String], name: &str) -> Result<Option<u64>, String> {
    flag_value(rest, name)
        .map(|value| match value.parse::<u64>() {
            Ok(n) if n <= 1 << 53 => Ok(n),
            Ok(_) => Err(format!("bad {name} value: must be at most 2^53")),
            Err(e) => Err(format!("bad {name} value: {e}")),
        })
        .transpose()
}

/// `--threads N`, if given; at least 1.
fn threads(rest: &[String]) -> Result<Option<usize>, String> {
    match number(rest, "--threads")? {
        Some(0) => Err("bad --threads value: must be at least 1".to_string()),
        n => Ok(n.map(|n| n as usize)),
    }
}

/// Every `--bind NAME=VALUE`, in order.
fn bindings(rest: &[String]) -> Result<Vec<(String, Rat)>, String> {
    let mut bindings = Vec::new();
    for pair in rest.windows(2).filter(|pair| pair[0] == "--bind") {
        let spec = &pair[1];
        let (name, value) = spec
            .split_once('=')
            .ok_or_else(|| format!("malformed --bind `{spec}` (want NAME=VALUE)"))?;
        let value: Rat = value
            .parse()
            .map_err(|e| format!("bad value in --bind `{spec}`: {e}"))?;
        bindings.push((name.to_string(), value));
    }
    Ok(bindings)
}

/// The program every engine runs. Under `--scheduler X` it is `source`
/// re-rendered as if it declared `scheduler X;`, so the planner, the pass
/// pipeline and every back end see the scheduler that actually runs.
/// Prints the integrity check's warnings to stderr; its errors are left
/// for the compile that follows to report.
fn program_source(source: &str, rest: &[String]) -> Result<String, String> {
    let mut program = bayonet::parse(source).map_err(|e| e.to_string())?;
    if let Ok(report) = bayonet::check(&program) {
        for w in &report.warnings {
            eprintln!("warning: {}", w.message);
        }
    }
    program.scheduler = match flag_value(rest, "--scheduler") {
        None => return Ok(source.to_string()),
        Some("uniform") => SchedulerSpec::Uniform,
        Some("det" | "deterministic") => SchedulerSpec::RoundRobin,
        Some("rotor") => SchedulerSpec::Rotor,
        Some(other) => return Err(format!("unknown scheduler `{other}`")),
    };
    Ok(bayonet::pretty_program(&program))
}

/// A local compile of `source` with `bindings` applied, for the paths that
/// have no endpoint and for the diagnostics.
fn network(source: &str, bindings: &[(String, Rat)]) -> Result<Network, String> {
    let mut network = Network::from_source(source).map_err(|e| e.to_string())?;
    for (name, value) in bindings {
        network
            .bind(name, value.clone())
            .map_err(|e| e.to_string())?;
    }
    Ok(network)
}

/// A request body: `source`, every field that is set, and the bindings.
fn body(source: &str, bindings: &[(String, Rat)], fields: Vec<(&str, Option<Json>)>) -> String {
    let bindings = bindings
        .iter()
        .map(|(name, value)| (name.clone(), Json::Str(value.to_string())))
        .collect();
    let fields = [("source", Some(Json::Str(source.to_string())))]
        .into_iter()
        .chain(fields)
        .chain([("bindings", Some(Json::Obj(bindings)))])
        .filter_map(|(name, value)| Some((name, value?)))
        .collect();
    Json::obj(fields).to_string()
}

/// A numeric request field.
fn num(n: u64) -> Json {
    Json::Num(n as f64)
}

/// Sends one request to a fresh in-process service — the one `bayonet
/// serve` runs, with `threads` exact-engine workers — and prints its
/// answer: a JSON response's `text`, or the NDJSON frames of a batch or
/// sweep. Returns the service, for its `/metrics`, and the JSON body.
///
/// A non-200 response fails with its error message (a failed check first
/// lists its integrity errors on stdout); so does a stream with any
/// non-200 frame, after printing every frame.
fn call(path: &str, body: String, threads: usize) -> Result<(Service, Json), String> {
    let cache = bayonet_serve::DEFAULT_CACHE_ENTRIES;
    let service = if threads > 1 {
        Service::with_pool(cache, bayonet::ComputePool::new(threads))
    } else {
        Service::new(cache)
    };
    let response = service.handle(&Request {
        method: "POST".into(),
        path: path.into(),
        headers: Vec::new(),
        body: body.into_bytes(),
    });
    let text = String::from_utf8_lossy(&response.body);
    let noun = match path {
        "/v1/batch" => "batch item(s)",
        "/v1/sweep" => "sweep point(s)",
        _ => "",
    };
    if response.status == 200 && !noun.is_empty() {
        print!("{text}");
        let status = |line: &str| parse_json(line).ok()?.get("status")?.as_u64();
        let failed = text
            .lines()
            .filter(|line| status(line) != Some(200))
            .count();
        if failed > 0 {
            let total = text.lines().count();
            return Err(format!("{failed} of {total} {noun} failed"));
        }
        return Ok((service, Json::Null));
    }
    let doc = parse_json(&text).map_err(|e| format!("malformed response: {e}"))?;
    if response.status != 200 {
        let error = |field| doc.get("error").and_then(|e| e.get(field));
        for detail in error("details").and_then(Json::as_arr).unwrap_or_default() {
            println!("{}", detail.as_str().unwrap_or_default());
        }
        let message = error("message").and_then(Json::as_str);
        return Err(message.unwrap_or("request failed").to_string());
    }
    let text = doc.get("text").and_then(Json::as_str);
    print!("{}", text.unwrap_or_default());
    Ok((service, doc))
}

/// `bayonet run`: one `/v1/run`, or a `/v1/batch` (`--batch`) or
/// `/v1/sweep` (`--sweep`). The `psi` and `simulate` engines have no
/// endpoint and run locally.
fn run_cmd(source: &str, rest: &[String]) -> Result<(), String> {
    let threads = threads(rest)?.unwrap_or(1);
    if let Some(grid_file) = flag_value(rest, "--sweep") {
        return sweep_cmd(source, grid_file, rest, threads);
    }
    if has_flag(rest, "--batch") {
        // The file is a `/v1/batch` request body, not a program: every
        // other option is set per item there.
        let per_item = |arg: &&String| !matches!(arg.as_str(), "--batch" | "--threads");
        if let Some(flag) = rest.iter().find(|a| a.starts_with("--") && per_item(a)) {
            return Err(format!(
                "{flag} cannot be combined with --batch; set it per item in the batch file"
            ));
        }
        return call("/v1/batch", source.to_string(), threads).map(drop);
    }

    let engine = flag_value(rest, "--engine").unwrap_or("exact");
    let passes = !has_flag(rest, "--no-opt");
    let explain_plan = has_flag(rest, "--explain-plan");
    let explain_passes = has_flag(rest, "--explain-passes");
    let want_stats = has_flag(rest, "--stats");
    if explain_passes && !passes {
        return Err("--explain-passes cannot be combined with --no-opt".into());
    }
    if threads > 1 && !matches!(engine, "auto" | "exact" | "enum") {
        // The other engines are single-threaded; `auto` is exempt, as the
        // planner may route anywhere and the pool then goes unused.
        return Err(format!(
            "--threads only applies to the exact enumeration engine, not `{engine}`"
        ));
    }
    let particles = number(rest, "--particles")?;
    let seed = number(rest, "--seed")?;
    let bindings = bindings(rest)?;
    let source = program_source(source, rest)?;
    let started = Instant::now();

    // `psi` and `simulate` run on a local compile, as do the diagnostics
    // (on stderr, so the answer stays diffable); every other posterior
    // comes from the service.
    let diagnose = explain_plan || explain_passes || want_stats;
    let local = (diagnose || !SERVED_ENGINES.contains(&engine))
        .then(|| network(&source, &bindings))
        .transpose()?;
    let optimized = local
        .as_ref()
        .filter(|_| diagnose)
        .map(|n| bayonet::opt::optimize(n.model()));
    if let (Some(network), Some(optimized)) = (&local, &optimized) {
        if explain_plan {
            let model = if passes { optimized } else { network.model() };
            let plan = plan_model(model, &PlannerConfig::default(), None);
            eprintln!("{}", plan.explain());
        }
        if explain_passes {
            let info = optimized.opt_info().expect("optimize attaches a report");
            eprint!("{}", info.report.explain(&optimized.node_names));
        }
    }

    let answer = match (engine, &local) {
        ("simulate", Some(network)) => {
            let opts = ApproxOptions {
                seed: seed.unwrap_or(0),
                ..ApproxOptions::default()
            };
            let sim = network.simulate(&opts).map_err(|e| e.to_string())?;
            print!("{}", sim.render(network.model()));
            None
        }
        ("psi", Some(network)) => {
            for (idx, query) in network.queries().iter().enumerate() {
                let value = network.infer_via_psi(idx).map_err(|e| e.to_string())?;
                println!("{}: {value} ≈ {:.4}", query.source, value.to_f64());
            }
            None
        }
        (engine, _) if SERVED_ENGINES.contains(&engine) => {
            let fields = vec![
                ("engine", Some(Json::Str(engine.to_string()))),
                ("particles", particles.map(num)),
                ("seed", seed.map(num)),
                ("passes", (!passes).then_some(Json::Bool(false))),
                ("threads", (threads > 1).then(|| num(threads as u64))),
            ];
            Some(call("/v1/run", body(&source, &bindings, fields), threads)?)
        }
        (other, _) => return Err(format!("unknown engine `{other}`\n{}", usage())),
    };
    if want_stats {
        let optimized = optimized.filter(|_| passes);
        print_stats(answer.as_ref(), optimized.as_ref(), started);
    }
    Ok(())
}

/// `--stats` on stderr. An exact-family run reports the engine counters of
/// the response `stats`, the feasibility, diagram and pass-pipeline series
/// of the service's `/metrics` exposition, and the symmetry group order of the
/// locally `optimized` model (given when the passes ran). Every other run
/// reports only its wall time.
fn print_stats(answer: Option<&(Service, Json)>, optimized: Option<&Model>, started: Instant) {
    let wall_ms = started.elapsed().as_secs_f64() * 1000.0;
    let Some((service, doc, stats)) =
        answer.and_then(|(service, doc)| Some((service, doc, doc.get("stats")?)))
    else {
        eprintln!("stats: {wall_ms:.1} ms wall");
        return;
    };
    let metrics = service.metrics().render();
    let series = |name: &str| {
        metrics
            .lines()
            .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or(0u64)
    };
    let count = |name| stats.get(name).and_then(Json::as_u64).unwrap_or(0);
    eprintln!(
        "stats: {} states expanded, {} merged, terminal mass {}, \
         feasibility cache {} hits / {} misses, {wall_ms:.1} ms wall",
        count("expansions"),
        count("merge_hits"),
        doc.get("z").and_then(Json::as_str).unwrap_or_default(),
        series("bayonet_engine_feasibility_hits_total"),
        series("bayonet_engine_feasibility_misses_total"),
    );
    if doc.get("engine").and_then(Json::as_str) == Some("bdd") {
        eprintln!(
            "stats: bdd {} nodes, {} unique-table hits, {} apply-cache hits",
            series("bayonet_bdd_nodes_total"),
            series("bayonet_bdd_unique_hits_total"),
            series("bayonet_bdd_apply_cache_hits_total"),
        );
    }
    if let Some(info) = optimized.and_then(Model::opt_info) {
        eprintln!(
            "stats: opt {} pass runs, {} flips eliminated, {} guards folded, \
             group order {}, {} orbit merges",
            series("bayonet_opt_pass_runs_total"),
            series("bayonet_opt_flips_eliminated_total"),
            series("bayonet_opt_guards_folded_total"),
            info.report.group_order,
            series("bayonet_opt_orbit_states_merged_total"),
        );
    }
}

/// `bayonet run <file.bay> --sweep <grid.json>`: sweeps the program across
/// a parameter grid (the file maps parameter names to value arrays, e.g.
/// `{"K": [1, 2, 3, 4]}`) through `/v1/sweep`, sharing exploration work
/// across grid points. One NDJSON frame per point is printed in row-major
/// grid order; each frame's `body` is the answer an independent
/// `run --bind` of that point would produce.
fn sweep_cmd(source: &str, grid_file: &str, rest: &[String], threads: usize) -> Result<(), String> {
    let pointwise = [
        "--batch",
        "--particles",
        "--seed",
        "--stats",
        "--explain-plan",
    ];
    let pointwise = pointwise.into_iter().chain(["--explain-passes"]);
    if let Some(flag) = pointwise.into_iter().find(|flag| has_flag(rest, flag)) {
        return Err(format!("{flag} cannot be combined with --sweep"));
    }
    let grid_text = std::fs::read_to_string(grid_file)
        .map_err(|e| format!("cannot read sweep grid {grid_file}: {e}"))?;
    let grid = parse_json(&grid_text).map_err(|e| format!("bad sweep grid {grid_file}: {e}"))?;
    let fields = vec![
        ("sweep", Some(grid)),
        (
            "engine",
            flag_value(rest, "--engine").map(|e| Json::Str(e.to_string())),
        ),
        (
            "passes",
            has_flag(rest, "--no-opt").then_some(Json::Bool(false)),
        ),
        ("threads", (threads > 1).then(|| num(threads as u64))),
    ];
    let bindings = bindings(rest)?;
    let source = program_source(source, rest)?;
    call("/v1/sweep", body(&source, &bindings, fields), threads).map(drop)
}

fn serve_cmd(rest: &[String]) -> Result<(), String> {
    validate_flags(rest, SERVE_FLAGS)?;
    let mut config = bayonet_serve::ServerConfig::default();
    if let Some(addr) = flag_value(rest, "--addr") {
        config.addr = addr.to_string();
    }
    if let Some(dir) = flag_value(rest, "--cache-dir") {
        config.cache_dir = Some(dir.into());
    }
    config.threads = threads(rest)?.unwrap_or(config.threads);
    let sizes = [
        ("--cache-entries", &mut config.cache_entries),
        ("--replicas", &mut config.replicas),
        ("--max-connections", &mut config.max_connections),
    ];
    for (name, field) in sizes {
        *field = number(rest, name)?.map_or(*field, |n| n as usize);
    }
    config.cache_max_bytes = number(rest, "--cache-max-bytes")?.unwrap_or(config.cache_max_bytes);
    if config.replicas == 0 {
        return Err("--replicas must be at least 1".to_string());
    }
    let replicas = config.replicas;
    let handle = bayonet_serve::start(config).map_err(|e| format!("cannot start server: {e}"))?;
    if replicas > 1 {
        eprintln!(
            "bayonet-serve router on http://{} ({replicas} replicas)",
            handle.addr()
        );
    } else {
        eprintln!("bayonet-serve listening on http://{}", handle.addr());
    }
    handle.join();
    Ok(())
}

/// `bayonet synthesize`: one `/v1/synthesize`.
fn synthesize_cmd(source: &str, rest: &[String]) -> Result<(), String> {
    let fields = vec![
        ("query", number(rest, "--query")?.map(num)),
        (
            "maximize",
            has_flag(rest, "--maximize").then_some(Json::Bool(true)),
        ),
        (
            "allow_zero_params",
            has_flag(rest, "--allow-zero-params").then_some(Json::Bool(true)),
        ),
    ];
    let bindings = bindings(rest)?;
    let source = program_source(source, rest)?;
    call("/v1/synthesize", body(&source, &bindings, fields), 1).map(drop)
}
