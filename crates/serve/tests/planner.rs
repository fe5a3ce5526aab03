//! End-to-end tests of `"engine": "auto"`: the planner picks the exact
//! engine from the program's structure before the cache lookup, admits or
//! rejects on a bounded pilot run that enumeration then continues, shares
//! cache entries with explicitly-routed requests in both directions, and
//! plans `/v1/batch` items independently while still amortizing the shared
//! compile.

use bayonet_serve::{parse_json, start, Json};

mod common;
use common::{http, metric, metrics, parse_frames, post_batch, GOSSIP_K4, TINY};

/// Gossip on K4 under the round-robin scheduler: the shape the diagram
/// engine wins (the uniform-scheduler `GOSSIP_K4` routes to enumeration).
fn gossip_k4_roundrobin() -> String {
    format!("{GOSSIP_K4}\nscheduler roundrobin;\n")
}

fn run_auto(source: &str) -> String {
    Json::obj(vec![
        ("source", Json::Str(source.into())),
        ("engine", Json::Str("auto".into())),
    ])
    .to_string()
}

fn engine_of(body: &str) -> String {
    parse_json(body)
        .expect("json body")
        .get("engine")
        .and_then(Json::as_str)
        .expect("engine field")
        .to_string()
}

/// Auto routes the tiny program and uniform-scheduler gossip to plain
/// enumeration and round-robin gossip on K4 to the BDD backend, with the
/// decisions and the predicted-vs-actual cost ratio visible on `/metrics`.
#[test]
fn auto_routes_by_cost_and_reports_decisions() {
    let handle = start(common::test_config()).expect("start server");
    let addr = handle.addr();

    let (status, _, tiny) = http(addr, "POST", "/v1/run", &run_auto(TINY));
    assert_eq!(status, 200, "{tiny}");
    assert_eq!(engine_of(&tiny), "exact");

    let (status, _, uniform) = http(addr, "POST", "/v1/run", &run_auto(GOSSIP_K4));
    assert_eq!(status, 200, "{uniform}");
    assert_eq!(engine_of(&uniform), "exact");

    let (status, _, gossip) = http(addr, "POST", "/v1/run", &run_auto(&gossip_k4_roundrobin()));
    assert_eq!(status, 200, "{gossip}");
    assert_eq!(engine_of(&gossip), "bdd");

    let text = metrics(addr);
    assert_eq!(
        metric(&text, r#"bayonet_planner_decisions_total{engine="exact"}"#),
        2,
        "{text}"
    );
    assert_eq!(
        metric(&text, r#"bayonet_planner_decisions_total{engine="bdd"}"#),
        1,
        "{text}"
    );
    assert_eq!(metric(&text, "bayonet_planner_rejections_total"), 0);
    // The two enumeration routes ran a pilot and recorded an
    // actual/predicted wall-clock ratio; the diagram route with no budget
    // runs none, so it has no prediction.
    assert_eq!(metric(&text, "bayonet_planner_cost_ratio_count"), 2);
    assert!(
        common::metric_value(&text, "bayonet_planner_cost_ratio_sum") > 0.0,
        "{text}"
    );
    handle.shutdown();
}

/// The posterior an auto-routed request returns is byte-identical to the
/// same program run with the chosen engine spelled out — proven across
/// independent servers so no cache can smooth over a divergence.
#[test]
fn auto_posterior_is_bit_identical_to_explicit_engine() {
    let auto_server = start(common::test_config()).expect("start auto server");
    let explicit_server = start(common::test_config()).expect("start explicit server");

    let gossip_rr = gossip_k4_roundrobin();
    for (source, engine) in [
        (TINY, "exact"),
        (GOSSIP_K4, "exact"),
        (gossip_rr.as_str(), "bdd"),
    ] {
        let (status, _, auto_body) = http(auto_server.addr(), "POST", "/v1/run", &run_auto(source));
        assert_eq!(status, 200, "{auto_body}");
        let explicit = Json::obj(vec![
            ("source", Json::Str(source.into())),
            ("engine", Json::Str(engine.into())),
        ])
        .to_string();
        let (status, _, explicit_body) = http(explicit_server.addr(), "POST", "/v1/run", &explicit);
        assert_eq!(status, 200, "{explicit_body}");
        assert_eq!(
            auto_body, explicit_body,
            "auto and explicit {engine} diverged for {source:?}"
        );
    }
    auto_server.shutdown();
    explicit_server.shutdown();
}

/// A budget no engine can meet is rejected with a structured 422 *before*
/// any engine work: the error carries the planner's estimates and the
/// engine counters stay at zero.
#[test]
fn over_budget_auto_request_gets_structured_422_before_engine_work() {
    let handle = start(common::test_config()).expect("start server");
    let addr = handle.addr();

    let body = Json::obj(vec![
        ("source", Json::Str(GOSSIP_K4.into())),
        ("engine", Json::Str("auto".into())),
        ("timeout_ms", Json::Num(1.0)),
    ])
    .to_string();
    let (status, _, payload) = http(addr, "POST", "/v1/run", &body);
    assert_eq!(status, 422, "{payload}");
    let doc = parse_json(&payload).expect("json body");
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
    let error = doc.get("error").expect("error object");
    assert_eq!(
        error.get("kind").and_then(Json::as_str),
        Some("infeasible_deadline"),
        "{payload}"
    );
    assert_eq!(
        error.get("field").and_then(Json::as_str),
        Some("timeout_ms"),
        "{payload}"
    );
    let plan = error.get("plan").expect("plan object in 422");
    let needed = plan
        .get("needed_ms")
        .and_then(Json::as_f64)
        .expect("needed_ms");
    let budget = plan
        .get("budget_ms")
        .and_then(Json::as_f64)
        .expect("budget_ms");
    assert!(needed > budget, "{payload}");
    assert!(
        plan.get("est_expansions")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
            > 0.0,
        "{payload}"
    );

    let text = metrics(addr);
    assert_eq!(metric(&text, "bayonet_planner_rejections_total"), 1);
    assert_eq!(
        metric(&text, "bayonet_engine_expansions_total"),
        0,
        "rejection must happen before any engine work\n{text}"
    );
    // The pilot stopped at the budget's worth of expansions (1 ms at the
    // planner's 10 us each), or earlier when the deadline ran out.
    let pilot = metric(&text, "bayonet_planner_pilot_expansions_total");
    assert!(pilot <= 100, "{text}");
    assert!(
        !text.contains("bayonet_planner_decisions_total{"),
        "no decision may be recorded for a rejected request\n{text}"
    );
    handle.shutdown();
}

/// Regression test for the cache-key identity, in both orders: an
/// auto-routed result and the same program with the chosen engine explicit
/// must occupy one cache entry, whichever arrives first.
#[test]
fn auto_and_explicit_share_one_cache_entry_both_orders() {
    let gossip_rr = gossip_k4_roundrobin();
    let explicit_bdd = Json::obj(vec![
        ("source", Json::Str(gossip_rr.clone())),
        ("engine", Json::Str("bdd".into())),
    ])
    .to_string();

    // Order 1: auto first, explicit second.
    let handle = start(common::test_config()).expect("start server");
    let (status, _, first) = http(handle.addr(), "POST", "/v1/run", &run_auto(&gossip_rr));
    assert_eq!(status, 200, "{first}");
    let (status, _, second) = http(handle.addr(), "POST", "/v1/run", &explicit_bdd);
    assert_eq!(status, 200, "{second}");
    assert_eq!(first, second);
    let text = metrics(handle.addr());
    assert_eq!(metric(&text, "bayonet_cache_hits_total"), 1, "{text}");
    assert_eq!(metric(&text, "bayonet_cache_misses_total"), 1, "{text}");
    handle.shutdown();

    // Order 2: explicit first, auto second.
    let handle = start(common::test_config()).expect("start server");
    let (status, _, first) = http(handle.addr(), "POST", "/v1/run", &explicit_bdd);
    assert_eq!(status, 200, "{first}");
    let (status, _, second) = http(handle.addr(), "POST", "/v1/run", &run_auto(&gossip_rr));
    assert_eq!(status, 200, "{second}");
    assert_eq!(first, second);
    let text = metrics(handle.addr());
    assert_eq!(metric(&text, "bayonet_cache_hits_total"), 1, "{text}");
    assert_eq!(metric(&text, "bayonet_cache_misses_total"), 1, "{text}");
    // The default engine IS exact, so a bare request and an auto-routed
    // tiny program also land on one entry.
    let (status, _, bare) = http(handle.addr(), "POST", "/v1/run", &common::run_body(TINY));
    assert_eq!(status, 200, "{bare}");
    let (status, _, auto) = http(handle.addr(), "POST", "/v1/run", &run_auto(TINY));
    assert_eq!(status, 200, "{auto}");
    assert_eq!(bare, auto);
    let text = metrics(handle.addr());
    assert_eq!(metric(&text, "bayonet_cache_hits_total"), 2, "{text}");
    assert_eq!(metric(&text, "bayonet_cache_misses_total"), 2, "{text}");
    // Both auto requests were cache hits: neither ran a pilot.
    assert_eq!(
        metric(&text, "bayonet_planner_pilot_expansions_total"),
        0,
        "{text}"
    );
    handle.shutdown();
}

/// An auto request routed to enumeration continues the planner's pilot:
/// its body (counters included) is the explicit `exact` request's, and
/// the pilot's expansions plus the engine's add up to the run's, so no
/// step ran twice.
#[test]
fn auto_enumeration_continues_the_pilot() {
    let handle = start(common::test_config()).expect("start server");
    let explicit = start(common::test_config()).expect("start explicit server");
    let (status, _, auto) = http(handle.addr(), "POST", "/v1/run", &run_auto(GOSSIP_K4));
    assert_eq!(status, 200, "{auto}");
    let (status, _, exact) = http(
        explicit.addr(),
        "POST",
        "/v1/run",
        &common::run_body(GOSSIP_K4),
    );
    assert_eq!(status, 200, "{exact}");
    assert_eq!(auto, exact);

    let doc = parse_json(&auto).expect("json body");
    let expansions = doc
        .get("stats")
        .and_then(|s| s.get("expansions"))
        .and_then(Json::as_f64)
        .expect("stats.expansions") as u64;
    let text = metrics(handle.addr());
    let pilot = metric(&text, "bayonet_planner_pilot_expansions_total");
    let engine = metric(&text, "bayonet_engine_expansions_total");
    assert!(pilot > 0, "{text}");
    assert_eq!(pilot + engine, expansions, "{text}");
    handle.shutdown();
    explicit.shutdown();
}

/// A packet bounces 400 hops between A and B. After 100 hops A draws one
/// of 50 000 states, which the next 100 hops carry: enumeration expands
/// 2 configurations for 200 steps, then 50 000 for 200 steps, about ten
/// million expansions in all, past the one-minute sampling cutover at the
/// planner's 10 us each. The pilot stops at the draw, having widened for
/// 201 steps, and extrapolates 10 050 401. `head` declares the
/// parameters and the query.
fn wide_phase(head: &str) -> String {
    format!(
        r#"
        packet_fields {{ ttl }}
        {head}
        topology {{ nodes {{ A, B }} links {{ (A, pt1) <-> (B, pt1) }} }}
        programs {{ A -> draw, B -> bounce }}
        init {{ packet -> (A, pt1); }}
        def draw(pkt, pt) state x(0), y(0) {{
            if pkt.ttl == 0 {{ y = uniformInt(0, 1); }}
            if pkt.ttl == 100 {{ x = uniformInt(1, 25000); }}
            if pkt.ttl < 200 {{ pkt.ttl = pkt.ttl + 1; fwd(1); }} else {{ drop; }}
        }}
        def bounce(pkt, pt) {{
            if pkt.ttl < 200 {{ pkt.ttl = pkt.ttl + 1; fwd(1); }} else {{ drop; }}
        }}
    "#
    )
}

/// With no deadline, a program whose exact run is above the sampling
/// cutover and whose symbolic parameter rules sampling out gets a 422 that
/// says no engine is feasible, not a deadline message with a 0 ms budget.
#[test]
fn no_feasible_engine_without_a_budget() {
    let source = wide_phase("parameters { P } query probability(x@A + y@A < P);");
    let handle = start(common::test_config()).expect("start server");
    let (status, _, payload) = http(handle.addr(), "POST", "/v1/run", &run_auto(&source));
    assert_eq!(status, 422, "{payload}");
    let doc = parse_json(&payload).expect("json body");
    let error = doc.get("error").expect("error object");
    assert_eq!(
        error.get("kind").and_then(Json::as_str),
        Some("no_feasible_engine"),
        "{payload}"
    );
    let message = error
        .get("message")
        .and_then(Json::as_str)
        .expect("message");
    assert!(message.starts_with("no feasible engine"), "{message}");
    assert!(!message.contains("budget"), "{message}");
    let plan = error.get("plan").expect("plan object");
    assert_eq!(plan.get("budget_ms"), Some(&Json::Null), "{payload}");
    // Within the documented 4x of the 1 + 2·200 + 50 000·200 expansions
    // the enumeration runs.
    let est = plan
        .get("est_expansions")
        .and_then(Json::as_f64)
        .expect("est_expansions");
    let actual = 10_000_401.0;
    assert!((actual / 4.0..=actual * 4.0).contains(&est), "{payload}");
    handle.shutdown();
}

/// An auto request the planner sends to sampling is answered, and cached,
/// as the explicit `{"engine":"smc","particles":N}` request; a repeat finds
/// that entry without running the pilot again.
#[test]
fn smc_routed_auto_repeat_runs_no_pilot() {
    let source = wide_phase("query probability(x@A + y@A < 100);");
    let handle = start(common::test_config()).expect("start server");
    let addr = handle.addr();
    let (status, _, first) = http(addr, "POST", "/v1/run", &run_auto(&source));
    assert_eq!(status, 200, "{first}");
    assert_eq!(engine_of(&first), "smc");
    let pilot = metric(&metrics(addr), "bayonet_planner_pilot_expansions_total");
    assert!(pilot > 0);

    let (status, _, again) = http(addr, "POST", "/v1/run", &run_auto(&source));
    assert_eq!(status, 200, "{again}");
    assert_eq!(again, first);
    let explicit = Json::obj(vec![
        ("source", Json::Str(source.clone())),
        ("engine", Json::Str("smc".into())),
        ("particles", Json::Num(1112.0)),
    ])
    .to_string();
    let (status, _, explicit) = http(addr, "POST", "/v1/run", &explicit);
    assert_eq!(status, 200, "{explicit}");
    assert_eq!(explicit, first);

    let text = metrics(addr);
    assert_eq!(
        metric(&text, "bayonet_planner_pilot_expansions_total"),
        pilot,
        "the repeat ran a pilot\n{text}"
    );
    assert_eq!(metric(&text, "bayonet_cache_hits_total"), 2, "{text}");
    assert_eq!(
        metric(&text, r#"bayonet_planner_decisions_total{engine="smc"}"#),
        2,
        "{text}"
    );
    handle.shutdown();
}

/// Under a budget a diagram route pilots for admission; when the pilot has
/// already enumerated the whole run, the answer comes from it, as the
/// explicit `exact` request, with no engine work after the pilot, and a
/// repeat runs no pilot.
#[test]
fn budgeted_diagram_route_answers_from_a_finished_pilot() {
    let source = gossip_k4_roundrobin();
    let body = Json::obj(vec![
        ("source", Json::Str(source.clone())),
        ("engine", Json::Str("auto".into())),
        ("timeout_ms", Json::Num(60_000.0)),
    ])
    .to_string();
    let handle = start(common::test_config()).expect("start server");
    let explicit = start(common::test_config()).expect("start explicit server");
    let addr = handle.addr();
    let (status, _, auto) = http(addr, "POST", "/v1/run", &body);
    assert_eq!(status, 200, "{auto}");
    let (status, _, exact) = http(
        explicit.addr(),
        "POST",
        "/v1/run",
        &common::run_body(&source),
    );
    assert_eq!(status, 200, "{exact}");
    assert_eq!(auto, exact);

    let text = metrics(addr);
    let pilot = metric(&text, "bayonet_planner_pilot_expansions_total");
    assert!(pilot > 0, "{text}");
    assert_eq!(
        metric(&text, "bayonet_engine_expansions_total"),
        0,
        "{text}"
    );

    let (status, _, again) = http(addr, "POST", "/v1/run", &body);
    assert_eq!(status, 200, "{again}");
    assert_eq!(again, auto);
    let text = metrics(addr);
    assert_eq!(
        metric(&text, "bayonet_planner_pilot_expansions_total"),
        pilot,
        "{text}"
    );
    handle.shutdown();
    explicit.shutdown();
}

/// `/v1/batch` items with `"engine": "auto"` plan **per item**: the shared
/// source compiles once, but a per-item source override routes on its own
/// signals, and an over-budget item is rejected with the same structured
/// 422 a single request gets — without sinking the rest of the batch.
#[test]
fn batch_auto_items_plan_independently() {
    let handle = start(common::test_config()).expect("start server");
    let addr = handle.addr();

    // A shared top-level `source` forbids per-item overrides, so every
    // item carries its own; the scan phase still compiles each distinct
    // canonical program exactly once.
    let gossip = Json::Str(gossip_k4_roundrobin());
    let tiny = Json::Str(TINY.into());
    let batch = format!(
        r#"{{"items":[{{"source":{gossip},"engine":"auto"}},{{"source":{gossip},"engine":"bdd"}},{{"source":{tiny},"engine":"auto"}},{{"source":{gossip},"engine":"auto","timeout_ms":1}}]}}"#,
    );
    let (status, payload) = post_batch(addr, &batch);
    assert_eq!(status, 200, "{payload}");
    let mut frames = parse_frames(&payload);
    assert_eq!(frames.len(), 4, "{payload}");
    frames.sort_by_key(|f| f.index);

    // Item 0 (auto) and item 1 (explicit bdd) are the same cache entry.
    assert_eq!(frames[0].status, 200, "{}", frames[0].body);
    assert_eq!(frames[1].status, 200, "{}", frames[1].body);
    assert_eq!(frames[0].body, frames[1].body);
    assert_eq!(engine_of(&frames[0].body), "bdd");

    // Item 2's per-item source is tiny: independent routing to exact.
    assert_eq!(frames[2].status, 200, "{}", frames[2].body);
    assert_eq!(engine_of(&frames[2].body), "exact");

    // Item 3's 1 ms budget is infeasible for gossip: structured 422 in its
    // frame, everything else unharmed.
    assert_eq!(frames[3].status, 422, "{}", frames[3].body);
    let doc = parse_json(&frames[3].body).expect("frame body json");
    assert_eq!(
        doc.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("infeasible_deadline"),
        "{}",
        frames[3].body
    );

    let text = metrics(addr);
    // Two distinct canonical programs, two compiles — the three gossip
    // items shared one.
    assert_eq!(metric(&text, "bayonet_batch_compiles_total"), 2, "{text}");
    // Three auto items planned: two routed (bdd for gossip, exact for
    // tiny), one rejected.
    assert_eq!(
        metric(&text, r#"bayonet_planner_decisions_total{engine="bdd"}"#),
        1,
        "{text}"
    );
    assert_eq!(
        metric(&text, r#"bayonet_planner_decisions_total{engine="exact"}"#),
        1,
        "{text}"
    );
    assert_eq!(
        metric(&text, "bayonet_planner_rejections_total"),
        1,
        "{text}"
    );
    handle.shutdown();
}

/// A `/v1/batch` item with `"engine": "auto"` plans exactly like the same
/// `/v1/run`: against the optimized model, so the symmetry-reduced cost
/// estimate routes both to the same engine. On the k=4 fat-tree the
/// unoptimized estimate is an order of magnitude larger, which used to
/// push a 20 s batch item onto SMC while the run stayed exact.
#[test]
fn batch_auto_items_plan_like_single_runs() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/bay/fattree_k4.bay"
    );
    let source = std::fs::read_to_string(path).expect("fat-tree example");
    let run_server = start(common::test_config()).expect("start run server");
    let batch_server = start(common::test_config()).expect("start batch server");

    for timeout_ms in [5000, 20000, 60000] {
        let item = format!(
            r#""engine":"auto","bindings":{{"P_LOSS":"1/100003"}},"timeout_ms":{timeout_ms}"#
        );
        let source = Json::Str(source.clone());
        let run = format!("{{\"source\":{source},{item}}}");
        let (status, _, run_body) = http(run_server.addr(), "POST", "/v1/run", &run);
        assert_eq!(status, 200, "timeout {timeout_ms}: {run_body}");

        let batch = format!("{{\"items\":[{{\"source\":{source},{item}}}]}}");
        let (status, payload) = post_batch(batch_server.addr(), &batch);
        assert_eq!(status, 200, "timeout {timeout_ms}: {payload}");
        let frames = parse_frames(&payload);
        assert_eq!(frames.len(), 1, "timeout {timeout_ms}: {payload}");
        assert_eq!(frames[0].status, 200, "timeout {timeout_ms}: {payload}");
        assert_eq!(
            frames[0].body,
            run_body,
            "timeout {timeout_ms}: batch item routed to {} but the run to {}",
            engine_of(&frames[0].body),
            engine_of(&run_body)
        );
    }
    run_server.shutdown();
    batch_server.shutdown();
}
