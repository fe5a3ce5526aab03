//! Table-driven request-validation tests: malformed `threads` and
//! `timeout_ms` values, unknown fields, and malformed `/v1/batch` bodies
//! must all produce structured `400` responses — never a panic, never a
//! half-written chunked body, and never a silent fall-back to a default.

use std::net::SocketAddr;

use bayonet_serve::{parse_json, start, Json, ServerConfig, MAX_BATCH_ITEMS};

mod common;
use common::TINY;

fn http(addr: SocketAddr, body: &str) -> (u16, String) {
    let (status, _, payload) = common::http(addr, "POST", "/v1/run", body);
    (status, payload)
}

/// Raw request body with `source` set to the tiny program and one extra
/// field spliced in verbatim (so the table can express wrong types,
/// fractions, and negatives that `Json` builders would normalize away).
fn body_with(field: &str) -> String {
    let source = Json::Str(TINY.into()).to_string();
    format!("{{\"source\":{source},{field}}}")
}

/// Malformed knobs: (raw field, expected `error.field`, expected message
/// fragment). Replayed against `/v1/run` and as `/v1/batch` items.
#[rustfmt::skip]
const KNOB_CASES: &[(&str, &str, &str)] = &[
    ("\"threads\":0",            "threads", "`threads` must be between 1 and 64, got 0"),
    ("\"threads\":65",           "threads", "`threads` must be between 1 and 64, got 65"),
    ("\"threads\":1000000000",   "threads", "`threads` must be between 1 and 64"),
    ("\"threads\":-1",           "threads", "`threads` must be a nonnegative integer"),
    ("\"threads\":1.5",          "threads", "`threads` must be a nonnegative integer"),
    ("\"threads\":\"four\"",     "threads", "`threads` must be a nonnegative integer"),
    ("\"threads\":true",         "threads", "`threads` must be a nonnegative integer"),
    ("\"threads\":[2]",          "threads", "`threads` must be a nonnegative integer"),
    ("\"timeout_ms\":0",         "timeout_ms", "`timeout_ms` must be between 1 and 600000, got 0"),
    ("\"timeout_ms\":600001",    "timeout_ms", "`timeout_ms` must be between 1 and 600000"),
    ("\"timeout_ms\":-5",        "timeout_ms", "`timeout_ms` must be a nonnegative integer"),
    ("\"timeout_ms\":0.25",      "timeout_ms", "`timeout_ms` must be a nonnegative integer"),
    ("\"timeout_ms\":\"1s\"",    "timeout_ms", "`timeout_ms` must be a nonnegative integer"),
    ("\"timeout_ms\":{}",        "timeout_ms", "`timeout_ms` must be a nonnegative integer"),
    ("\"thread\":2",             "thread", "unknown request field `thread`"),
    ("\"query\":-1",             "query", "`query` must be a nonnegative integer"),
    ("\"query\":\"0\"",          "query", "`query` must be a nonnegative integer"),
    ("\"engine\":\"smc\",\"query\":5", "query", "query index 5 out of range (1 queries declared)"),
    ("\"bindings\":[1]",         "bindings", "`bindings` must be an object"),
    ("\"bindings\":{\"P\":true}",  "bindings.P",
     "binding `P` must be an integer or a rational string like \"1/2\""),
    ("\"bindings\":{\"P\":\"1/0\"}", "bindings.P",
     "binding `P` must be an integer or a rational string like \"1/2\""),
    ("\"bindings\":{\"P\":1}",     "bindings.P", "unknown parameter `P`"),
    ("\"passes\":1",             "passes", "`passes` must be a boolean"),
    ("\"particles\":-3",         "particles", "`particles` must be a nonnegative integer"),
    ("\"seed\":\"x\"",           "seed", "`seed` must be a nonnegative integer"),
    ("\"maximize\":\"yes\"",     "maximize", "`maximize` must be a boolean"),
    ("\"allow_zero_params\":0",  "allow_zero_params", "`allow_zero_params` must be a boolean"),
];

/// Asserts one `bad_request` error body names `field` and mentions
/// `expected`.
fn assert_knob_error(case: &str, body: &str, field: &str, expected: &str) {
    let doc = parse_json(body).unwrap_or_else(|e| panic!("case {case}: bad json {e}: {body}"));
    assert_eq!(
        doc.get("ok").and_then(Json::as_bool),
        Some(false),
        "case {case}: {body}"
    );
    let error = doc
        .get("error")
        .unwrap_or_else(|| panic!("case {case}: no error object: {body}"));
    assert_eq!(
        error.get("kind").and_then(Json::as_str),
        Some("bad_request"),
        "case {case}: {body}"
    );
    let message = error.get("message").and_then(Json::as_str).unwrap_or("");
    assert!(
        message.contains(expected),
        "case {case}: message {message:?} does not mention {expected:?}"
    );
    assert_eq!(
        error.get("field").and_then(Json::as_str),
        Some(field),
        "case {case}: {body}"
    );
}

#[test]
fn malformed_knobs_are_structured_400s() {
    let handle = start(common::test_config()).expect("start server");
    let addr = handle.addr();

    for (case, field, expected) in KNOB_CASES {
        let (status, body) = http(addr, &body_with(case));
        assert_eq!(status, 400, "case {case}: expected 400, got body {body}");
        assert_knob_error(case, &body, field, expected);
    }

    handle.shutdown();
}

/// The same malformed knobs as `/v1/batch` items: each is a per-item 400
/// frame with the identical message and `error.field`, and the healthy
/// sibling item still completes.
#[test]
fn malformed_batch_item_knobs_name_the_same_field() {
    let handle = start(common::test_config()).expect("start server");
    let addr = handle.addr();
    let source = Json::Str(TINY.into()).to_string();

    for (case, field, expected) in KNOB_CASES {
        let batch = format!(r#"{{"source":{source},"items":[{{{case}}},{{}}]}}"#);
        let (status, payload) = common::post_batch(addr, &batch);
        assert_eq!(status, 200, "case {case}: {payload}");
        let frames = common::parse_frames(&payload);
        assert_eq!(frames.len(), 2, "case {case}: {payload}");
        let bad = frames.iter().find(|f| f.index == 0).unwrap();
        assert_eq!(bad.status, 400, "case {case}: {}", bad.body);
        assert_knob_error(case, &bad.body, field, expected);
        let good = frames.iter().find(|f| f.index == 1).unwrap();
        assert_eq!(good.status, 200, "case {case}: {}", good.body);
    }

    handle.shutdown();
}

/// Unknown top-level fields (typos like `"cache": false`) must be loud
/// structured 400s, never silently ignored: the error names the offending
/// key both in the message and machine-readably in `error.field`.
#[test]
fn unknown_fields_are_named_structured_400s() {
    #[rustfmt::skip]
    let cases: &[(&str, &str)] = &[
        // (raw extra field, expected `error.field`)
        ("\"cache\":false",        "cache"),
        ("\"Source\":\"x\"",       "Source"),
        ("\"time_out_ms\":5",      "time_out_ms"),
        ("\"particle\":100",       "particle"),
        ("\"binding\":{}",         "binding"),
        ("\"extra\":null",         "extra"),
    ];

    let handle = start(common::test_config()).expect("start server");
    let addr = handle.addr();

    for (field, name) in cases {
        let (status, body) = http(addr, &body_with(field));
        assert_eq!(status, 400, "case {field}: expected 400, got body {body}");
        let doc = parse_json(&body).expect("json body");
        let error = doc
            .get("error")
            .unwrap_or_else(|| panic!("case {field}: no error object: {body}"));
        assert_eq!(
            error.get("kind").and_then(Json::as_str),
            Some("bad_request"),
            "case {field}: {body}"
        );
        assert_eq!(
            error.get("field").and_then(Json::as_str),
            Some(*name),
            "case {field}: {body}"
        );
        let message = error.get("message").and_then(Json::as_str).unwrap_or("");
        assert!(
            message.contains(&format!("unknown request field `{name}`")),
            "case {field}: message {message:?}"
        );
        // The message also lists the accepted fields, so a typo is
        // self-correcting from the error alone.
        assert!(
            message.contains("known fields: source, engine"),
            "{message}"
        );
    }

    // Known fields with the error-producing values spliced *as values* are
    // not unknown-field errors; sanity-check one to pin the distinction.
    let (status, body) = http(addr, &body_with("\"engine\":\"warp\""));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("unknown engine"), "{body}");

    handle.shutdown();
}

/// Every way `engine` can be wrong — unknown names, case mismatches,
/// empty strings, and non-string JSON values — is a structured 400 with
/// `error.field == "engine"` and a message that lists the known engines,
/// so the caller can fix the request from the error alone. The same table
/// is replayed as `/v1/batch` items, where the rejection must arrive as a
/// per-item 400 frame with the identical error shape.
#[test]
fn engine_validation_is_table_driven_across_run_and_batch() {
    #[rustfmt::skip]
    let cases: &[&str] = &[
        // Unknown engine names.
        "\"engine\":\"warp\"",
        "\"engine\":\"exhaustive\"",
        // Known names are matched case-sensitively and unpadded.
        "\"engine\":\"BDD\"",
        "\"engine\":\"Enum\"",
        "\"engine\":\" bdd\"",
        "\"engine\":\"\"",
        // Wrong JSON types are the same error, not a type error.
        "\"engine\":5",
        "\"engine\":null",
        "\"engine\":true",
        "\"engine\":[\"bdd\"]",
        "\"engine\":{\"name\":\"bdd\"}",
    ];

    let handle = start(common::test_config()).expect("start server");
    let addr = handle.addr();

    let check_error = |case: &str, error: &Json, body: &str| {
        assert_eq!(
            error.get("kind").and_then(Json::as_str),
            Some("bad_request"),
            "case {case}: {body}"
        );
        assert_eq!(
            error.get("field").and_then(Json::as_str),
            Some("engine"),
            "case {case}: {body}"
        );
        let message = error.get("message").and_then(Json::as_str).unwrap_or("");
        assert!(message.contains("unknown engine"), "case {case}: {message}");
        assert!(
            message.contains("known engines: exact, enum, bdd, smc, rejection, auto"),
            "case {case}: {message}"
        );
    };

    for case in cases {
        // `/v1/run`: a buffered structured 400.
        let (status, body) = http(addr, &body_with(case));
        assert_eq!(status, 400, "case {case}: {body}");
        let doc = parse_json(&body).unwrap_or_else(|e| panic!("case {case}: bad json {e}: {body}"));
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
        let error = doc
            .get("error")
            .unwrap_or_else(|| panic!("case {case}: no error object: {body}"));
        check_error(case, error, &body);

        // `/v1/batch`: the same table entry as an item-level field becomes
        // a per-item 400 frame; the healthy sibling item still completes.
        let source = Json::Str(TINY.into()).to_string();
        let batch = format!(r#"{{"source":{source},"items":[{{{case}}},{{}}]}}"#);
        let (status, payload) = common::post_batch(addr, &batch);
        assert_eq!(status, 200, "case {case}: {payload}");
        let frames = common::parse_frames(&payload);
        assert_eq!(frames.len(), 2, "case {case}: {payload}");
        let bad = frames.iter().find(|f| f.index == 0).unwrap();
        assert_eq!(bad.status, 400, "case {case}: {}", bad.body);
        let doc = parse_json(&bad.body).expect("frame body json");
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
        let error = doc
            .get("error")
            .unwrap_or_else(|| panic!("case {case}: frame has no error: {}", bad.body));
        check_error(case, error, &bad.body);
        let good = frames.iter().find(|f| f.index == 1).unwrap();
        assert_eq!(good.status, 200, "case {case}: {}", good.body);
    }

    // The accepted spellings, for contrast: each runs and echoes its
    // canonical engine name back (`enum` is an alias for `exact`).
    for (spelling, echoed) in [
        ("\"engine\":\"exact\"", "exact"),
        ("\"engine\":\"enum\"", "exact"),
        ("\"engine\":\"bdd\"", "bdd"),
    ] {
        let (status, body) = http(addr, &body_with(spelling));
        assert_eq!(status, 200, "case {spelling}: {body}");
        let doc = parse_json(&body).expect("json body");
        assert_eq!(
            doc.get("engine").and_then(Json::as_str),
            Some(echoed),
            "case {spelling}: {body}"
        );
        let text = doc.get("text").and_then(Json::as_str).unwrap();
        assert!(text.contains("1/3"), "case {spelling}: {text}");
    }

    handle.shutdown();
}

#[test]
fn edge_values_are_accepted_not_rejected() {
    let handle = start(ServerConfig {
        threads: 2,
        ..common::test_config()
    })
    .expect("start server");
    let addr = handle.addr();

    // Boundary values inside the contract must work; `threads` beyond the
    // pool is clamped (not rejected), and `null` means "not provided".
    for field in [
        "\"threads\":1",
        "\"threads\":64",
        "\"threads\":null",
        "\"timeout_ms\":600000",
        "\"timeout_ms\":null",
    ] {
        let (status, body) = http(addr, &body_with(field));
        assert_eq!(status, 200, "case {field}: {body}");
        let doc = parse_json(&body).expect("json body");
        assert_eq!(
            doc.get("ok").and_then(Json::as_bool),
            Some(true),
            "case {field}: {body}"
        );
        let text = doc.get("text").and_then(Json::as_str).unwrap();
        assert!(text.contains("1/3"), "case {field}: {text}");
    }

    handle.shutdown();
}

/// Malformed `/v1/batch` bodies are rejected *before* any chunk is
/// written: a buffered 400 naming the offending field in `error.field`.
#[test]
fn malformed_batches_are_structured_400s() {
    let source = Json::Str(TINY.into()).to_string();
    let over_cap = format!(
        r#"{{"source":{source},"items":[{}]}}"#,
        vec!["{}"; MAX_BATCH_ITEMS + 1].join(",")
    );
    #[rustfmt::skip]
    let cases: &[(String, &str, &str)] = &[
        // (raw body, expected `error.field`, expected message fragment)
        (r#"{"items":[]}"#.into(), "items",
         "`items` must contain between 1 and 256 items, got 0"),
        (over_cap, "items",
         "`items` must contain between 1 and 256 items, got 257"),
        (format!(r#"{{"source":{source}}}"#), "items",
         "missing required array field `items`"),
        (format!(r#"{{"source":{source},"items":{{}}}}"#), "items",
         "`items` must be an array"),
        (format!(r#"{{"source":{source},"items":[{{}},4]}}"#), "items[1]",
         "batch item 1 must be a JSON object"),
        (format!(r#"{{"source":{source},"items":[{{"source":"x"}}]}}"#), "items[0].source",
         "batch item 0 sets `source` while the batch has a shared top-level `source`"),
        (format!(r#"{{"source":{source},"items":[{{}}],"engine":"smc"}}"#), "engine",
         "unknown batch field `engine`"),
        (format!(r#"{{"source":{source},"items":[{{}}],"timeout_ms":0}}"#), "timeout_ms",
         "`timeout_ms` must be between 1 and 600000, got 0"),
        (r#"{"source":7,"items":[{}]}"#.into(), "source",
         "`source` must be a string"),
    ];

    let handle = start(common::test_config()).expect("start server");
    let addr = handle.addr();

    for (body, field, expected) in cases {
        let (status, payload) = common::post_batch(addr, body);
        assert_eq!(status, 400, "case {field}: got {status}: {payload}");
        let doc = parse_json(&payload)
            .unwrap_or_else(|e| panic!("case {field}: bad json {e}: {payload}"));
        let error = doc
            .get("error")
            .unwrap_or_else(|| panic!("case {field}: no error object: {payload}"));
        assert_eq!(
            error.get("kind").and_then(Json::as_str),
            Some("bad_request"),
            "case {field}: {payload}"
        );
        assert_eq!(
            error.get("field").and_then(Json::as_str),
            Some(*field),
            "case {field}: {payload}"
        );
        let message = error.get("message").and_then(Json::as_str).unwrap_or("");
        assert!(
            message.contains(expected),
            "case {field}: message {message:?} does not mention {expected:?}"
        );
    }

    // None of the rejected batches may have recorded batch work.
    let text = common::metrics(addr);
    assert_eq!(common::metric(&text, "bayonet_batch_requests_total"), 0);
    assert_eq!(common::metric(&text, "bayonet_batch_items_total"), 0);

    handle.shutdown();
}

/// Per-item problems — unknown item fields, bad item types, a missing
/// source — become per-item error frames with the exact `/v1/run` error
/// shape, and never abort sibling items.
#[test]
fn invalid_items_fail_individually_without_aborting_siblings() {
    let handle = start(common::test_config()).expect("start server");
    let addr = handle.addr();

    let source = Json::Str(TINY.into()).to_string();
    let body = format!(
        r#"{{"source":{source},"items":[{{}},{{"fuel":1}},{{"threads":0}},{{"engine":"warp"}}]}}"#
    );
    let (status, payload) = common::post_batch(addr, &body);
    assert_eq!(status, 200, "{payload}");
    let frames = common::parse_frames(&payload);
    assert_eq!(frames.len(), 4, "{payload}");

    let by_index = |i: u64| frames.iter().find(|f| f.index == i).unwrap();
    assert_eq!(by_index(0).status, 200, "{}", by_index(0).body);
    assert!(by_index(0).body.contains("1/3"), "{}", by_index(0).body);

    for (i, fragment) in [
        (1, "unknown request field `fuel`"),
        (2, "`threads` must be between 1 and 64, got 0"),
        (3, "unknown engine"),
    ] {
        let frame = by_index(i);
        assert_eq!(frame.status, 400, "{}", frame.body);
        let doc = parse_json(&frame.body).expect("frame body json");
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
        let message = doc
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap_or("");
        assert!(
            message.contains(fragment),
            "item {i}: message {message:?} does not mention {fragment:?}"
        );
    }

    // An item with no source at all (and no shared source) gets the same
    // missing-field error a bare `/v1/run` would.
    let (status, payload) = common::post_batch(addr, r#"{"items":[{"seed":1}]}"#);
    assert_eq!(status, 200, "{payload}");
    let frames = common::parse_frames(&payload);
    assert_eq!(frames[0].status, 400);
    assert!(
        frames[0]
            .body
            .contains("missing required string field `source`"),
        "{}",
        frames[0].body
    );

    let text = common::metrics(addr);
    assert_eq!(common::metric(&text, "bayonet_batch_requests_total"), 2);
    assert_eq!(common::metric(&text, "bayonet_batch_items_total"), 5);
    assert_eq!(common::metric(&text, "bayonet_batch_item_errors_total"), 4);

    handle.shutdown();
}

/// `timeout_ms` must hold even when the time goes into one handler's
/// branch enumeration, for an explicit engine and for `auto`'s pilot: a
/// single `(Run, B)` expansion here replays three million draws, so a
/// deadline polled only between expansions would let the request run to
/// completion (tens of seconds) and answer 200.
#[test]
fn deadline_holds_inside_one_handler_enumeration() {
    const WIDE_DRAW: &str = r#"
        packet_fields { dst }
        topology { nodes { A, B } links { (A, pt1) <-> (B, pt1) } }
        programs { A -> send, B -> recv }
        init { packet -> (A, pt1); }
        query expectation(got@B);
        def send(pkt, pt) { fwd(1); }
        def recv(pkt, pt) state got(0) { got = uniformInt(0, 3000000); drop; }
    "#;
    let handle = start(common::test_config()).expect("start server");
    // `auto` pilots the enumeration before routing; the pilot's steps run
    // under the same deadline.
    for engine in ["exact", "auto"] {
        let body = Json::obj(vec![
            ("source", Json::Str(WIDE_DRAW.into())),
            ("engine", Json::Str(engine.into())),
            ("timeout_ms", Json::Num(1000.0)),
        ])
        .to_string();
        let started = std::time::Instant::now();
        let (status, payload) = http(handle.addr(), &body);
        let elapsed = started.elapsed();
        assert_eq!(status, 504, "{engine}: {payload}");
        let doc = parse_json(&payload).expect("json body");
        let kind = doc
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str);
        assert_eq!(kind, Some("timeout"), "{engine}: {payload}");
        assert!(
            elapsed < std::time::Duration::from_secs(3),
            "{engine}: answered after {elapsed:?}"
        );
    }
    handle.shutdown();
}
