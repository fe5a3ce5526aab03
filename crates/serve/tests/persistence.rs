//! In-process persistence tests: a server restarted on the same
//! `--cache-dir` must serve byte-identical cached results without
//! recomputing, and corrupt segment records must be skipped (counted,
//! never fatal).

use bayonet_serve::{start, ServerConfig, SEGMENT_FILE};

mod common;
use common::{metric, metrics, post_run, unique_dir, TINY};

fn config_with_dir(dir: &std::path::Path) -> ServerConfig {
    ServerConfig {
        cache_dir: Some(dir.to_path_buf()),
        ..common::test_config()
    }
}

#[test]
fn warm_reload_serves_identical_bytes_without_recomputation() {
    let dir = unique_dir("persist-warm");

    // First life: compute once, which must hit the engine and then be
    // persisted. Graceful shutdown flushes the write-behind queue.
    let handle = start(config_with_dir(&dir)).expect("start server");
    let (status, first) = post_run(handle.addr(), TINY);
    assert_eq!(status, 200, "{first}");
    let text = metrics(handle.addr());
    assert!(metric(&text, "bayonet_engine_expansions_total") > 0);
    assert_eq!(metric(&text, "bayonet_cache_persist_load_ok_total"), 0);
    handle.shutdown();

    let segment = dir.join(SEGMENT_FILE);
    assert!(segment.is_file(), "no segment at {}", segment.display());

    // Second life: the result comes back from disk — same bytes, zero
    // engine work, and the hit is visible in the metrics.
    let handle = start(config_with_dir(&dir)).expect("restart server");
    let text = metrics(handle.addr());
    assert!(metric(&text, "bayonet_cache_persist_load_ok_total") >= 1);
    assert_eq!(metric(&text, "bayonet_cache_persist_load_corrupt_total"), 0);

    let (status, second) = post_run(handle.addr(), TINY);
    assert_eq!(status, 200, "{second}");
    assert_eq!(first, second, "persisted result must be byte-identical");

    let text = metrics(handle.addr());
    assert_eq!(metric(&text, "bayonet_cache_hits_total"), 1);
    assert_eq!(metric(&text, "bayonet_engine_expansions_total"), 0);
    handle.shutdown();

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_flipped_record_is_skipped_and_counted() {
    let dir = unique_dir("persist-flip");

    let handle = start(config_with_dir(&dir)).expect("start server");
    let (status, body) = post_run(handle.addr(), TINY);
    assert_eq!(status, 200, "{body}");
    handle.shutdown();

    // Flip one byte inside the record payload (header is 8 bytes, each
    // record carries an 8-byte frame and an 8-byte key before the body).
    let segment = dir.join(SEGMENT_FILE);
    let mut bytes = std::fs::read(&segment).expect("read segment");
    assert!(bytes.len() > 32, "segment too small: {}", bytes.len());
    bytes[30] ^= 0x40;
    std::fs::write(&segment, &bytes).expect("rewrite segment");

    // The damaged record is skipped — not loaded, not fatal — and the
    // server recomputes the same answer from scratch.
    let handle = start(config_with_dir(&dir)).expect("restart server");
    let text = metrics(handle.addr());
    assert!(metric(&text, "bayonet_cache_persist_load_corrupt_total") >= 1);
    assert_eq!(metric(&text, "bayonet_cache_persist_load_ok_total"), 0);

    let (status, recomputed) = post_run(handle.addr(), TINY);
    assert_eq!(status, 200, "{recomputed}");
    assert_eq!(body, recomputed, "recompute must match the original");
    let text = metrics(handle.addr());
    assert_eq!(metric(&text, "bayonet_cache_hits_total"), 0);
    assert!(metric(&text, "bayonet_engine_expansions_total") > 0);
    handle.shutdown();

    let _ = std::fs::remove_dir_all(&dir);
}

/// A segment written under an older format version is never replayed: its
/// bodies may list piecewise cells in an order a fresh run no longer
/// produces. The server recomputes instead, and the rewritten segment then
/// serves the fresh bytes across the next restart.
#[test]
fn older_format_version_is_recomputed_not_replayed() {
    let dir = unique_dir("persist-version");

    let handle = start(config_with_dir(&dir)).expect("start server");
    let (status, body) = post_run(handle.addr(), TINY);
    assert_eq!(status, 200, "{body}");
    handle.shutdown();

    // Rewrite the header's format version (bytes 4..8) to version 1.
    let segment = dir.join(SEGMENT_FILE);
    let mut bytes = std::fs::read(&segment).expect("read segment");
    assert!(u32::from_le_bytes(bytes[4..8].try_into().unwrap()) > 1);
    bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
    std::fs::write(&segment, &bytes).expect("rewrite segment");

    let handle = start(config_with_dir(&dir)).expect("restart server");
    let text = metrics(handle.addr());
    assert_eq!(metric(&text, "bayonet_cache_persist_load_ok_total"), 0);
    assert_eq!(metric(&text, "bayonet_cache_persist_load_corrupt_total"), 1);
    let (status, recomputed) = post_run(handle.addr(), TINY);
    assert_eq!(status, 200, "{recomputed}");
    assert_eq!(body, recomputed);
    let text = metrics(handle.addr());
    assert_eq!(metric(&text, "bayonet_cache_hits_total"), 0);
    assert!(metric(&text, "bayonet_engine_expansions_total") > 0);
    handle.shutdown();

    let handle = start(config_with_dir(&dir)).expect("third start");
    let text = metrics(handle.addr());
    assert_eq!(metric(&text, "bayonet_cache_persist_load_ok_total"), 1);
    let (status, replayed) = post_run(handle.addr(), TINY);
    assert_eq!(status, 200, "{replayed}");
    assert_eq!(body, replayed);
    handle.shutdown();

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_tail_is_truncated_and_the_server_recovers() {
    let dir = unique_dir("persist-torn");

    let handle = start(config_with_dir(&dir)).expect("start server");
    let (status, body) = post_run(handle.addr(), TINY);
    assert_eq!(status, 200, "{body}");
    handle.shutdown();

    // Chop a few bytes off the tail, as a crash mid-append would.
    let segment = dir.join(SEGMENT_FILE);
    let bytes = std::fs::read(&segment).expect("read segment");
    std::fs::write(&segment, &bytes[..bytes.len() - 3]).expect("truncate");

    let handle = start(config_with_dir(&dir)).expect("restart server");
    let text = metrics(handle.addr());
    assert!(metric(&text, "bayonet_cache_persist_load_corrupt_total") >= 1);

    // The torn record was discarded and the segment re-framed: a new
    // result appends cleanly and survives the *next* restart.
    let (status, recomputed) = post_run(handle.addr(), TINY);
    assert_eq!(status, 200, "{recomputed}");
    assert_eq!(body, recomputed);
    handle.shutdown();

    let handle = start(config_with_dir(&dir)).expect("third start");
    let text = metrics(handle.addr());
    assert!(metric(&text, "bayonet_cache_persist_load_ok_total") >= 1);
    let (status, replayed) = post_run(handle.addr(), TINY);
    assert_eq!(status, 200, "{replayed}");
    assert_eq!(body, replayed);
    let text = metrics(handle.addr());
    assert_eq!(metric(&text, "bayonet_cache_hits_total"), 1);
    handle.shutdown();

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn persistence_off_exposes_no_persist_metrics_and_writes_nothing() {
    let handle = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        cache_dir: None,
        ..ServerConfig::default()
    })
    .expect("start server");
    let (status, body) = post_run(handle.addr(), TINY);
    assert_eq!(status, 200, "{body}");
    let text = metrics(handle.addr());
    assert!(!text.contains("bayonet_cache_persist_"), "{text}");
    // The always-on eviction counter is still exported.
    assert_eq!(metric(&text, "bayonet_cache_evictions_total"), 0);
    handle.shutdown();
}

/// Batch items persist through the same write-behind path as single runs:
/// a batch computed in one life is served from disk in the next, item for
/// item, byte for byte.
#[test]
fn batch_results_survive_a_restart() {
    let dir = unique_dir("persist-batch");
    let batch_body = format!(
        r#"{{"source":{},"items":[{{}},{{"engine":"smc","particles":60,"seed":7}}]}}"#,
        bayonet_serve::Json::Str(TINY.into())
    );

    let handle = start(config_with_dir(&dir)).expect("start server");
    let (status, payload) = common::post_batch(handle.addr(), &batch_body);
    assert_eq!(status, 200, "{payload}");
    let mut first = common::parse_frames(&payload);
    first.sort_by_key(|f| f.index);
    assert_eq!(first.len(), 2);
    handle.shutdown();

    // Second life: both items come back from disk with identical bytes
    // and zero engine work.
    let handle = start(config_with_dir(&dir)).expect("restart server");
    let text = metrics(handle.addr());
    assert!(metric(&text, "bayonet_cache_persist_load_ok_total") >= 2);

    let (status, payload) = common::post_batch(handle.addr(), &batch_body);
    assert_eq!(status, 200, "{payload}");
    let mut second = common::parse_frames(&payload);
    second.sort_by_key(|f| f.index);
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.body, b.body, "item {} changed across restart", a.index);
    }
    let text = metrics(handle.addr());
    assert_eq!(metric(&text, "bayonet_cache_hits_total"), 2);
    assert_eq!(metric(&text, "bayonet_engine_expansions_total"), 0);
    handle.shutdown();

    let _ = std::fs::remove_dir_all(&dir);
}

/// The cache key incorporates the engine: an `enum` result must never be
/// served to a `"engine": "bdd"` request (or vice versa), in memory *or*
/// from disk. Both orders are exercised — enum-then-bdd computes twice in
/// the first life, and the restarted server replays bdd-then-enum from the
/// persisted segment, each request matching its own engine's bytes.
#[test]
fn engine_is_part_of_the_persisted_cache_key() {
    let dir = unique_dir("persist-engine");
    let post = |addr, engine: &str| {
        let body = format!(
            r#"{{"source":{},"engine":"{engine}"}}"#,
            bayonet_serve::Json::Str(TINY.into())
        );
        let (status, _, payload) = common::http(addr, "POST", "/v1/run", &body);
        (status, payload)
    };

    // First life, enum then bdd: the second request must MISS the cache
    // and run the diagram backend, not replay the enumeration result.
    let handle = start(config_with_dir(&dir)).expect("start server");
    let (status, enum_body) = post(handle.addr(), "enum");
    assert_eq!(status, 200, "{enum_body}");
    let (status, bdd_body) = post(handle.addr(), "bdd");
    assert_eq!(status, 200, "{bdd_body}");
    let text = metrics(handle.addr());
    assert_eq!(
        metric(&text, "bayonet_cache_hits_total"),
        0,
        "bdd request was served the enum entry"
    );
    assert!(metric(&text, "bayonet_bdd_nodes_total") > 0);
    // Same posterior, different engine echo (`merge_hits` is also allowed
    // to differ — the backends count merges at different granularities).
    assert_ne!(enum_body, bdd_body);
    let enum_doc = bayonet_serve::parse_json(&enum_body).expect("enum json");
    let bdd_doc = bayonet_serve::parse_json(&bdd_body).expect("bdd json");
    assert_eq!(
        enum_doc.get("engine").and_then(bayonet_serve::Json::as_str),
        Some("exact")
    );
    assert_eq!(
        bdd_doc.get("engine").and_then(bayonet_serve::Json::as_str),
        Some("bdd")
    );
    for field in ["results", "z", "discarded"] {
        assert_eq!(
            enum_doc.get(field).map(|v| v.to_string()),
            bdd_doc.get(field).map(|v| v.to_string()),
            "posterior field `{field}` diverges between engines"
        );
    }
    handle.shutdown();

    // Second life, REVERSED order: both answers come back from disk,
    // byte-identical to their own engine's first-life response, with zero
    // engine work.
    let handle = start(config_with_dir(&dir)).expect("restart server");
    let text = metrics(handle.addr());
    assert!(metric(&text, "bayonet_cache_persist_load_ok_total") >= 2);

    let (status, bdd_replayed) = post(handle.addr(), "bdd");
    assert_eq!(status, 200, "{bdd_replayed}");
    assert_eq!(bdd_body, bdd_replayed, "bdd replay diverged");
    let (status, enum_replayed) = post(handle.addr(), "enum");
    assert_eq!(status, 200, "{enum_replayed}");
    assert_eq!(enum_body, enum_replayed, "enum replay diverged");

    let text = metrics(handle.addr());
    assert_eq!(metric(&text, "bayonet_cache_hits_total"), 2);
    assert_eq!(metric(&text, "bayonet_engine_expansions_total"), 0);
    assert_eq!(metric(&text, "bayonet_bdd_nodes_total"), 0);
    handle.shutdown();

    let _ = std::fs::remove_dir_all(&dir);
}
