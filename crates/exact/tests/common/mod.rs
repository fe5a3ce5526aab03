//! Shared helpers for the exact-engine integration suites.
//!
//! The whole suite can be re-run under the knowledge-compilation backend by
//! setting `BAYONET_TEST_ENGINE=bdd` (the CI test matrix has a leg that does
//! exactly that). Both backends promise bit-identical posteriors, so every
//! assertion on terminals, discarded mass, and step counts must hold
//! unchanged; only `merge_hits` is engine-specific.

use bayonet_exact::{EngineKind, ExactOptions};

/// The engine this test process runs under: `BAYONET_TEST_ENGINE=bdd`
/// selects the diagram backend, `auto` the planner-routed backend (the
/// planner's structural choice, per model, deterministically), anything else (or
/// unset) the enumeration default. Unknown values are an error — a typo
/// silently falling back to the default would quietly skip the whole
/// matrix leg.
pub fn test_engine() -> EngineKind {
    match std::env::var("BAYONET_TEST_ENGINE") {
        Ok(v) if v == "bdd" => EngineKind::Bdd,
        Ok(v) if v == "auto" => EngineKind::Auto,
        Ok(v) if v == "enum" || v.is_empty() => EngineKind::Enum,
        Ok(v) => panic!("BAYONET_TEST_ENGINE must be `enum`, `bdd`, or `auto`, got `{v}`"),
        Err(_) => EngineKind::Enum,
    }
}

/// Whether this test process runs the model-optimization pass pipeline:
/// `BAYONET_TEST_PASSES=off` disables it, `on` (or unset) keeps the
/// default. The CI matrix runs both legs — posteriors must be identical.
/// Unknown values are an error for the same reason as [`test_engine`].
pub fn test_passes() -> bool {
    match std::env::var("BAYONET_TEST_PASSES") {
        Ok(v) if v == "off" => false,
        Ok(v) if v == "on" || v.is_empty() => true,
        Ok(v) => panic!("BAYONET_TEST_PASSES must be `on` or `off`, got `{v}`"),
        Err(_) => true,
    }
}

/// [`ExactOptions::default`] with the suite engine and pass toggle applied.
/// Use this (or struct-update from it) instead of `ExactOptions::default()`
/// so the `BAYONET_TEST_ENGINE=bdd` and `BAYONET_TEST_PASSES=off` CI legs
/// actually exercise their configurations.
#[allow(dead_code)]
pub fn test_options() -> ExactOptions {
    ExactOptions {
        engine: test_engine(),
        passes: test_passes(),
        ..ExactOptions::default()
    }
}

/// Gossip on K4 whose relays branch on an unbound threshold `T` while the
/// network runs, with a query over a second parameter `K`: the symbolic
/// guards are non-trivial during exploration, not only at query time, and
/// the three gossip nodes form one symmetry orbit.
#[allow(dead_code)]
pub const GOSSIP_TK_SOURCE: &str = r#"
packet_fields { dst }
parameters { T, K }
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
query probability(infected@S0 + infected@S1 + infected@S2 + infected@S3 >= K);

def seed(pkt, pt) state infected(0) {
    if infected == 0 { infected = 1; fwd(uniformInt(1, 3)); }
    else { drop; }
}
def gossip(pkt, pt) state infected(0), seen(0) {
    seen = seen + 1;
    if infected == 0 {
        infected = 1;
        if seen < T { dup; fwd(uniformInt(1, 3)); }
        fwd(uniformInt(1, 3));
    } else { drop; }
}
"#;
