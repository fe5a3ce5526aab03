//! Golden tests for the measured planner.
//!
//! The committed engine matrix (`data/engine_matrix.tsv`) pins the engine
//! `auto` chooses on every `examples/bay` program, and the single-packet
//! relay chain in `data/`, under every scheduler; a table of curated
//! programs pins more routes. Both check that the pilot's expansion
//! estimate stays within a **documented factor of 4** of the count the
//! enumeration engine reports (the CLI's `--stats`). None of the tests
//! reads a clock.

use std::time::Duration;

use bayonet_exact::planner::PILOT_EXPANSIONS;
use bayonet_exact::{
    analyze, plan_model, EngineKind, ExactOptions, PlanDecision, PlanEngine, PlannerConfig,
};
use bayonet_lang::parse;
use bayonet_net::{compile, scheduler_for, Model};
use bayonet_num::Rat;

mod common;

/// Documented accuracy bound: predicted expansions stay within this factor
/// of the measured count, in both directions (see docs/PERFORMANCE.md).
const COST_FACTOR: f64 = 4.0;

/// `source` as if it declared `scheduler <sched>;` (replacing any
/// declaration it has).
fn with_scheduler(source: &str, sched: &str) -> String {
    let kept: Vec<&str> = source
        .lines()
        .filter(|line| !line.trim_start().starts_with("scheduler "))
        .collect();
    format!("{}\nscheduler {sched};\n", kept.join("\n"))
}

const TINY: &str = r#"
    packet_fields { dst }
    topology { nodes { A, B } links { (A, pt1) <-> (B, pt1) } }
    programs { A -> send, B -> recv }
    init { packet -> (A, pt1); }
    query probability(got@B == 1);
    def send(pkt, pt) { if flip(1/3) { fwd(1); } else { drop; } }
    def recv(pkt, pt) state got(0) { got = 1; drop; }
"#;

const NARROW_THEN_WIDE: &str = r#"
    packet_fields { ttl }
    topology { nodes { A, B } links { (A, pt1) <-> (B, pt1) } }
    programs { A -> draw, B -> bounce }
    init { packet -> (A, pt1); }
    query expectation(x@A);
    def draw(pkt, pt) state x(0) {
        if pkt.ttl < 500 { pkt.ttl = pkt.ttl + 1; fwd(1); }
        else { x = uniformInt(1, 6000); fwd(1); }
    }
    def bounce(pkt, pt) {
        if pkt.ttl < 500 { pkt.ttl = pkt.ttl + 1; fwd(1); } else { drop; }
    }
"#;

/// Local copy of the `bayonet::scenarios` gossip generator (the core crate
/// depends on this one, so the test cannot import it).
fn gossip_source(n: usize) -> String {
    let nodes: Vec<String> = (0..n).map(|i| format!("S{i}")).collect();
    let mut links = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            links.push(format!("(S{i}, pt{}) <-> (S{j}, pt{})", j, i + 1));
        }
    }
    let mut programs = vec!["S0 -> seed".to_string()];
    for node in nodes.iter().skip(1) {
        programs.push(format!("{node} -> gossip"));
    }
    let sum = (0..n)
        .map(|i| format!("infected@S{i}"))
        .collect::<Vec<_>>()
        .join(" + ");
    let deg = n - 1;
    format!(
        r#"
packet_fields {{ dst }}
topology {{ nodes {{ {nodes} }} links {{ {links} }} }}
programs {{ {programs} }}
queue_capacity 2;
init {{ packet -> (S0, pt1); }}
query expectation({sum});
def seed(pkt, pt) state infected(0) {{
    if infected == 0 {{ infected = 1; fwd(uniformInt(1, {deg})); }} else {{ drop; }}
}}
def gossip(pkt, pt) state infected(0) {{
    if infected == 0 {{
        infected = 1; dup; fwd(uniformInt(1, {deg})); fwd(uniformInt(1, {deg}));
    }} else {{ drop; }}
}}
"#,
        nodes = nodes.join(", "),
        links = links.join(",\n        "),
        programs = programs.join(", "),
    )
}

/// A round-robin relay chain of `n` nodes sharing one branching handler:
/// two packets hop end to end, each lost with probability 1/2 at every
/// hop. Every structural signal says the state factorizes, but with
/// `n > 64` the diagram engine's `u128` packing bound rules it out, so the
/// planner must fall back to enumeration.
fn chain_source(n: usize) -> String {
    let nodes: Vec<String> = (0..n).map(|i| format!("N{i}")).collect();
    let links: Vec<String> = (0..n - 1)
        .map(|i| format!("(N{i}, pt2) <-> (N{}, pt1)", i + 1))
        .collect();
    let mut programs = vec![format!("N0 -> relay"), format!("N{} -> sink", n - 1)];
    for node in nodes.iter().take(n - 1).skip(1) {
        programs.push(format!("{node} -> relay"));
    }
    format!(
        r#"
packet_fields {{ dst }}
topology {{ nodes {{ {nodes} }} links {{ {links} }} }}
programs {{ {programs} }}
scheduler roundrobin;
init {{ packet -> (N0, pt1); packet -> (N0, pt1); }}
query probability(done@N{last} == 1);
def relay(pkt, pt) {{ if flip(1/2) {{ fwd(2); }} else {{ drop; }} }}
def sink(pkt, pt) state done(0) {{ if flip(1/2) {{ done = 1; }} drop; }}
"#,
        nodes = nodes.join(", "),
        links = links.join(",\n        "),
        programs = programs.join(", "),
        last = n - 1,
    )
}

/// Compiles and optimizes `source`, as the serve pipeline and the CLI plan
/// it.
fn model_of(source: &str) -> Model {
    bayonet_net::opt::optimize(&compile(&parse(source).expect("parse")).expect("compile"))
}

fn measured_expansions(model: &Model) -> u64 {
    let analysis =
        analyze(model, &*scheduler_for(model), &ExactOptions::default()).expect("analyze");
    analysis.stats.expansions
}

/// Asserts the plan's expansion estimate is within [`COST_FACTOR`] of the
/// enumerated count.
fn assert_estimate(name: &str, model: &Model) {
    let plan = plan_model(model, &PlannerConfig::default(), None);
    let measured = measured_expansions(model).max(1);
    let ratio = plan.est_expansions as f64 / measured as f64;
    assert!(
        (1.0 / COST_FACTOR..=COST_FACTOR).contains(&ratio),
        "{name}: predicted {} vs measured {measured} expansions (ratio {ratio:.2}) \
         outside the documented {COST_FACTOR}x envelope\n{}",
        plan.est_expansions,
        plan.explain()
    );
}

/// Every cell of the committed engine matrix: `auto` picks the cell's
/// label, the label is within 1.2x of the faster engine's measured time,
/// and the pilot's estimate is within the documented envelope.
#[test]
fn engine_matrix_pins_auto_choice_and_estimates() {
    let matrix = include_str!("data/engine_matrix.tsv");
    let mut cells = 0;
    for line in matrix.lines().filter(|l| !l.starts_with('#')) {
        let cols: Vec<&str> = line.split('\t').collect();
        let [program, sched, enum_ms, bdd_ms, label] = cols[..] else {
            panic!("malformed matrix row {line:?}");
        };
        let (enum_ms, bdd_ms): (f64, f64) = (enum_ms.parse().unwrap(), bdd_ms.parse().unwrap());
        let dir = env!("CARGO_MANIFEST_DIR");
        let source = std::fs::read_to_string(format!("{dir}/../../examples/bay/{program}.bay"))
            .or_else(|_| std::fs::read_to_string(format!("{dir}/tests/data/{program}.bay")))
            .expect("matrix program");
        let sched = if sched == "det" { "roundrobin" } else { sched };
        let mut model =
            compile(&parse(&with_scheduler(&source, sched)).expect("parse")).expect("compile");
        if model.params.lookup("P_LOSS").is_some() {
            model.bind_param("P_LOSS", Rat::ratio(1, 4)).unwrap();
        }
        let model = bayonet_net::opt::optimize(&model);
        let name = format!("{program}/{sched}");

        let plan = plan_model(&model, &PlannerConfig::default(), None);
        let (expect, label_ms) = match label {
            "bdd" => (PlanEngine::Bdd, bdd_ms),
            "enum" => (PlanEngine::Enum, enum_ms),
            other => panic!("unknown label {other:?}"),
        };
        assert_eq!(plan.engine(), Some(expect), "{name}\n{}", plan.explain());
        assert!(
            label_ms <= 1.2 * enum_ms.min(bdd_ms),
            "{name}: labelled engine is not within 1.2x of the faster one"
        );
        assert_estimate(&name, &model);
        cells += 1;
    }
    assert_eq!(cells, 24, "8 programs x 3 schedulers");
}

/// The golden table: program → pinned engine, with the estimate checked
/// for every row cheap enough to enumerate under the debug profile
/// (`release_only` rows are checked in release builds, which CI runs).
#[test]
fn golden_table_pins_routing_and_cost_accuracy() {
    struct Row {
        name: &'static str,
        source: String,
        expect: PlanEngine,
        release_only: bool,
    }
    let row = |name, source, expect, release_only| Row {
        name,
        source,
        expect,
        release_only,
    };
    let rows = [
        row("tiny", TINY.to_string(), PlanEngine::Enum, false),
        // A random scheduler couples every node's state: enumeration.
        row("gossip_k4", gossip_source(4), PlanEngine::Enum, false),
        row(
            "gossip_k4_roundrobin",
            with_scheduler(&gossip_source(4), "roundrobin"),
            PlanEngine::Bdd,
            false,
        ),
        // 53 257 expansions: past the pilot's cap, so the count is
        // extrapolated.
        row(
            "gossip_k5_roundrobin",
            with_scheduler(&gossip_source(5), "roundrobin"),
            PlanEngine::Bdd,
            true,
        ),
        row(
            "chain_70_fallback",
            chain_source(70),
            PlanEngine::Enum,
            false,
        ),
        // 13 001 expansions: a packet bounces 500 times, then a 6000-way
        // draw widens the frontier for its last two steps. The pilot stops
        // at the draw; the long narrow prefix must not stretch its
        // extrapolation.
        row(
            "narrow_then_wide",
            NARROW_THEN_WIDE.into(),
            PlanEngine::Enum,
            false,
        ),
    ];
    for row in &rows {
        let model = model_of(&row.source);
        let plan = plan_model(&model, &PlannerConfig::default(), None);
        assert_eq!(
            plan.engine(),
            Some(row.expect),
            "{}: wrong route\n{}",
            row.name,
            plan.explain()
        );
        if row.expect == PlanEngine::Bdd {
            assert!(
                plan.signals.shared_program_nodes >= 2 && plan.signals.sched_branching == 1.0,
                "{}: bdd route must rest on shared handlers under a deterministic scheduler",
                row.name
            );
        }
        if row.name == "chain_70_fallback" {
            let s = &plan.signals;
            assert!(
                s.nodes > 64
                    && s.sched_branching == 1.0
                    && s.concurrent_packets
                    && s.shared_program_nodes >= 2
                    && s.handler_branching >= 2.0,
                "only the node bound may rule the diagram engine out\n{}",
                plan.explain()
            );
        }
        if !row.release_only || !cfg!(debug_assertions) {
            assert_estimate(row.name, &model);
        }
    }
}

/// The pilot is the first part of the run: resuming it gives the analysis
/// and counters of a fresh enumeration, its own work stays within the cap,
/// and it finishes exactly when the run fits under the cap.
#[test]
fn pilot_resumes_into_the_same_run() {
    for source in [gossip_source(4), with_scheduler(&gossip_source(4), "rotor")] {
        let model = model_of(&source);
        let plan = plan_model(&model, &PlannerConfig::default(), None);
        let pilot = plan.pilot.clone();
        assert!(pilot.stats.expansions <= PILOT_EXPANSIONS);
        let scheduler = scheduler_for(&model);
        let opts = ExactOptions::default();
        let fresh = analyze(&model, &*scheduler, &opts).expect("fresh run");
        assert_eq!(pilot.finished, fresh.stats.expansions <= PILOT_EXPANSIONS);
        if pilot.finished {
            assert_eq!(plan.est_expansions, fresh.stats.expansions);
        }
        let resumed = pilot
            .resume(&model, &*scheduler, &opts)
            .expect("resumed run");
        assert_eq!(resumed.terminals, fresh.terminals);
        assert_eq!(resumed.discarded, fresh.discarded);
        let counters = |s: &bayonet_exact::EngineStats| {
            (
                s.steps,
                s.expansions,
                s.peak_configs,
                s.merge_hits,
                s.orbit_merges,
            )
        };
        assert_eq!(counters(&resumed.stats), counters(&fresh.stats));
    }
    // A budget stops the pilot at the budget's worth of expansions: 1 ms
    // at 10 us each.
    let model = model_of(&gossip_source(4));
    let plan = plan_model(
        &model,
        &PlannerConfig::default(),
        Some(Duration::from_millis(1)),
    );
    assert!(!plan.pilot.finished && plan.pilot.stats.expansions <= 100);
}

/// `EngineKind::Auto` resolves through the planner inside `analyze`, and
/// the posterior is bit-identical to the explicitly chosen backend.
#[test]
fn auto_engine_matches_explicit_choice() {
    let gossip_rr = with_scheduler(&gossip_source(4), "roundrobin");
    for source in [TINY.to_string(), gossip_source(4), gossip_rr] {
        let model = model_of(&source);
        let auto = analyze(
            &model,
            &*scheduler_for(&model),
            &ExactOptions {
                engine: EngineKind::Auto,
                ..ExactOptions::default()
            },
        )
        .expect("auto analyze");
        let chosen = match plan_model(&model, &PlannerConfig::default(), None).engine() {
            Some(PlanEngine::Bdd) => EngineKind::Bdd,
            _ => EngineKind::Enum,
        };
        let explicit = analyze(
            &model,
            &*scheduler_for(&model),
            &ExactOptions {
                engine: chosen,
                ..ExactOptions::default()
            },
        )
        .expect("explicit analyze");
        assert_eq!(auto.terminals, explicit.terminals);
        assert_eq!(auto.discarded, explicit.discarded);
        assert_eq!(auto.stats.steps, explicit.stats.steps);
        assert_eq!(auto.stats.expansions, explicit.stats.expansions);
    }
}

/// Deadline admission: a budget nothing can meet is rejected up front; a
/// budget only sampling can meet routes to SMC with the error-bounded
/// particle count; symbolic parameters keep the request on exact engines.
#[test]
fn budget_routing_and_admission() {
    let cfg = PlannerConfig::default();

    // Gossip on six nodes: the pilot estimates 27 169 expansions (272 ms),
    // over a 250 ms budget, while 1112 particles over its estimated 16
    // steps take 214 ms, so the planner samples. (Enumeration really takes
    // 319 719 expansions: past the cap the estimate is low, see
    // `Pilot::est_expansions`.)
    let k6 = model_of(&gossip_source(6));
    let plan = plan_model(&k6, &cfg, Some(Duration::from_millis(250)));
    assert_eq!(plan.engine(), Some(PlanEngine::Smc), "{}", plan.explain());
    let expected_n = (0.25 / (cfg.target_std_error * cfg.target_std_error)).ceil() as usize;
    assert_eq!(
        plan.particles,
        Some(expected_n.clamp(cfg.min_particles, cfg.max_particles))
    );

    // A nanosecond budget admits nothing: structured rejection, with the
    // cheapest estimate attached so the caller can report what was needed.
    let plan = plan_model(&k6, &cfg, Some(Duration::from_nanos(1)));
    match plan.decision {
        PlanDecision::Infeasible { needed_ns } => assert!(needed_ns > 1),
        other => panic!("expected infeasible, got {other:?}\n{}", plan.explain()),
    }
    assert_eq!(plan.pilot.stats.expansions, 0, "no budget, no pilot steps");

    // Unlimited budget: exact inference is preferred whenever its estimate
    // sits under the SMC cutover, even when sampling would be cheaper.
    let k5 = model_of(&with_scheduler(&gossip_source(5), "roundrobin"));
    let plan = plan_model(&k5, &cfg, None);
    assert_eq!(plan.engine(), Some(PlanEngine::Bdd), "{}", plan.explain());

    // A budget the pilot's run fits is admitted: the k=4 fat-tree enumerates
    // 13 expansions.
    let fattree = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/bay/fattree_k4.bay"
    ))
    .expect("read fattree_k4.bay");
    let mut fattree = compile(&parse(&fattree).expect("parse")).expect("compile");
    fattree.bind_param("P_LOSS", Rat::ratio(1, 4)).unwrap();
    let fattree = bayonet_net::opt::optimize(&fattree);
    let plan = plan_model(&fattree, &cfg, Some(Duration::from_secs(1)));
    assert_eq!(plan.engine(), Some(PlanEngine::Enum), "{}", plan.explain());
    assert!(plan.pilot.finished && plan.est_expansions < 100);

    // Symbolic parameters rule sampling out entirely.
    let ecmp = model_of(
        &std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../examples/bay/ecmp_costs.bay"
        ))
        .expect("read ecmp_costs.bay"),
    );
    let plan = plan_model(&ecmp, &cfg, None);
    assert!(plan.signals.symbolic_params);
    assert!(plan.est_smc_ns.is_none() && plan.particles.is_none());
}
