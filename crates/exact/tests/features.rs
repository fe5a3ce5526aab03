//! Tests for engine features beyond the core benchmarks: the stateful
//! rotor scheduler, source-level `num_steps` bounds, symbolic expectation
//! values, and engine diagnostics.

use bayonet_exact::{analyze, answer, ExactError, ExactOptions, MAX_CELL_ATOMS};
use bayonet_lang::parse;
use bayonet_net::{compile, scheduler_for, Model, Val};
use bayonet_num::Rat;

mod common;

fn model(src: &str) -> Model {
    compile(&parse(src).unwrap()).unwrap()
}

fn value(m: &Model, idx: usize) -> Rat {
    let analysis = analyze(m, &*scheduler_for(m), &common::test_options()).unwrap();
    answer(m, &analysis, &m.queries[idx], true)
        .unwrap()
        .rat()
        .clone()
}

const GOSSIP_K4_HEADER: &str = r#"
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
"#;

const GOSSIP_BODY: &str = r#"
    init { packet -> (S0, pt1); }
    query expectation(infected@S0 + infected@S1 + infected@S2 + infected@S3);
    def seed(pkt, pt) state infected(0) {
        if infected == 0 { infected = 1; fwd(uniformInt(1, 3)); } else { drop; }
    }
    def gossip(pkt, pt) state infected(0) {
        if infected == 0 {
            infected = 1; dup;
            fwd(uniformInt(1, 3)); fwd(uniformInt(1, 3));
        } else { drop; }
    }
"#;

#[test]
fn rotor_scheduler_gives_the_scheduler_independent_gossip_value() {
    // The rotor scheduler is stateful (its cursor lives in the global
    // configuration); gossip's expectation is schedule-independent, so this
    // exercises scheduler state threading end to end.
    let src = format!("{GOSSIP_K4_HEADER} scheduler rotor; {GOSSIP_BODY}");
    let m = model(&src);
    assert_eq!(value(&m, 0), Rat::ratio(94, 27));
}

#[test]
fn rotor_scheduler_is_deterministic_but_fair() {
    // Under rotor, only program randomness remains: the analysis of the
    // seed-only network has exactly 3 terminals (one per first hop).
    let src = format!("{GOSSIP_K4_HEADER} scheduler rotor; {GOSSIP_BODY}");
    let m = model(&src);
    // Compare raw trace trees: symmetry reduction (uniform-scheduler only)
    // would mask the scheduler-branching effect this test measures.
    let opts = bayonet_exact::ExactOptions {
        passes: false,
        ..common::test_options()
    };
    let analysis = analyze(&m, &*scheduler_for(&m), &opts).unwrap();
    // Every step is deterministic except uniformInt draws: the trace tree
    // has far fewer configurations than under the uniform scheduler.
    let uniform_src = format!("{GOSSIP_K4_HEADER} scheduler uniform; {GOSSIP_BODY}");
    let uni = model(&uniform_src);
    let uni_analysis = analyze(&uni, &*scheduler_for(&uni), &opts).unwrap();
    assert!(analysis.stats.peak_configs < uni_analysis.stats.peak_configs);
}

#[test]
fn num_steps_bound_too_small_reports_untermination() {
    // Mirrors the paper's assert(terminated()) after `num_steps` steps.
    let src = r#"
        packet_fields { dst }
        num_steps 1;
        topology { nodes { A, B } links { (A, pt1) <-> (B, pt1) } }
        programs { A -> fwd1, B -> sink }
        init { packet -> (A, pt1); }
        query probability(got@B == 1);
        def fwd1(pkt, pt) { fwd(1); }
        def sink(pkt, pt) state got(0) { got = 1; drop; }
    "#;
    let m = model(src);
    let err = analyze(&m, &*scheduler_for(&m), &common::test_options()).unwrap_err();
    assert!(matches!(err, ExactError::Unterminated { .. }), "{err}");
}

#[test]
fn num_steps_bound_large_enough_succeeds() {
    let src = r#"
        packet_fields { dst }
        num_steps 8;
        topology { nodes { A, B } links { (A, pt1) <-> (B, pt1) } }
        programs { A -> fwd1, B -> sink }
        init { packet -> (A, pt1); }
        query probability(got@B == 1);
        def fwd1(pkt, pt) { fwd(1); }
        def sink(pkt, pt) state got(0) { got = 1; drop; }
    "#;
    let m = model(src);
    assert_eq!(value(&m, 0), Rat::one());
}

#[test]
fn expectation_of_a_symbolic_state_is_a_linear_expression() {
    let src = r#"
        packet_fields { dst }
        parameters { COST }
        topology { nodes { A, B } links { (A, pt1) <-> (B, pt1) } }
        programs { A -> a, B -> b }
        init { packet -> (A, pt1); }
        query expectation(x@A);
        def a(pkt, pt) state x(0) {
            if flip(1/2) { x = COST; } else { x = COST + 2; }
            drop;
        }
        def b(pkt, pt) { drop; }
    "#;
    let m = model(src);
    let analysis = analyze(&m, &*scheduler_for(&m), &common::test_options()).unwrap();
    let result = answer(&m, &analysis, &m.queries[0], true).unwrap();
    // E[x] = COST + 1, a symbolic value on the single (trivial) cell.
    assert_eq!(result.cells.len(), 1);
    let Some(Val::Sym(e)) = &result.cells[0].value else {
        panic!(
            "expected a symbolic expectation, got {:?}",
            result.cells[0].value
        );
    };
    let cost = m.params.lookup("COST").unwrap();
    assert_eq!(e.coeff(cost), Rat::one());
    assert_eq!(*e.constant_part(), Rat::one());
}

#[test]
fn probability_query_splitting_on_symbolic_state() {
    // The query itself compares symbolic state with a constant: the answer
    // is piecewise over sign(COST - 5).
    let src = r#"
        packet_fields { dst }
        parameters { COST }
        topology { nodes { A, B } links { (A, pt1) <-> (B, pt1) } }
        programs { A -> a, B -> b }
        init { packet -> (A, pt1); }
        query probability(x@A < 5);
        def a(pkt, pt) state x(0) {
            if flip(1/3) { x = COST; } else { x = 7; }
            drop;
        }
        def b(pkt, pt) { drop; }
    "#;
    let m = model(src);
    let analysis = analyze(&m, &*scheduler_for(&m), &common::test_options()).unwrap();
    let result = answer(&m, &analysis, &m.queries[0], true).unwrap();
    assert_eq!(result.cells.len(), 3);
    let vals: Vec<Rat> = result
        .cells
        .iter()
        .map(|c| c.value.as_ref().unwrap().as_rat().unwrap().clone())
        .collect();
    // COST < 5: P = 1/3 (x=COST qualifies); COST == 5 or COST > 5: P = 0.
    assert_eq!(vals[0], Rat::ratio(1, 3));
    assert_eq!(vals[1], Rat::zero());
    assert_eq!(vals[2], Rat::zero());
}

#[test]
fn engine_stats_are_plausible() {
    let src = r#"
        packet_fields { dst }
        topology { nodes { A, B } links { (A, pt1) <-> (B, pt1) } }
        programs { A -> a, B -> b }
        init { packet -> (A, pt1); }
        query probability(got@B == 1);
        def a(pkt, pt) { if flip(1/2) { fwd(1); } else { drop; } }
        def b(pkt, pt) state got(0) { got = 1; drop; }
    "#;
    let m = model(src);
    let analysis = analyze(&m, &*scheduler_for(&m), &common::test_options()).unwrap();
    assert!(analysis.stats.steps >= 3);
    assert!(analysis.stats.expansions >= 3);
    assert_eq!(analysis.stats.terminal_configs, 2); // delivered vs dropped
    assert!(analysis.stats.peak_configs >= 1);
}

#[test]
fn config_limit_is_enforced() {
    let src = format!("{GOSSIP_K4_HEADER} scheduler uniform; {GOSSIP_BODY}");
    let m = model(&src);
    let err = analyze(
        &m,
        &*scheduler_for(&m),
        &ExactOptions {
            max_configs: 10,
            ..Default::default()
        },
    )
    .unwrap_err();
    assert!(matches!(err, ExactError::ConfigLimit(10)));
}

/// A query splitting on more distinct parameter constraints than a
/// piecewise answer supports reports that cause, with the atom count and
/// the limit kept apart — not the configuration-limit error.
#[test]
fn too_many_cell_atoms_is_its_own_error() {
    // Each of the uniformInt outcomes stores a different parameter, so the
    // query splits every terminal on its own atom `Pi > 0`.
    let n = MAX_CELL_ATOMS + 1;
    let params: Vec<String> = (1..=n).map(|i| format!("P{i}")).collect();
    let arms: String = (1..=n)
        .map(|i| format!("if r == {i} {{ x = P{i}; }} "))
        .collect();
    let src = format!(
        r#"
        packet_fields {{ dst }}
        parameters {{ {} }}
        topology {{ nodes {{ A, B }} links {{ (A, pt1) <-> (B, pt1) }} }}
        programs {{ A -> a, B -> b }}
        init {{ packet -> (A, pt1); }}
        query probability(x@A > 0);
        def a(pkt, pt) state x(0) {{ r = uniformInt(1, {n}); {arms} drop; }}
        def b(pkt, pt) {{ drop; }}
        "#,
        params.join(", "),
    );
    let m = model(&src);
    let analysis = analyze(&m, &*scheduler_for(&m), &common::test_options()).unwrap();
    let err = answer(&m, &analysis, &m.queries[0], true).unwrap_err();
    assert!(
        matches!(
            err,
            ExactError::TooManyCellAtoms { atoms, max }
                if atoms == MAX_CELL_ATOMS + 1 && max == MAX_CELL_ATOMS
        ),
        "{err:?}"
    );
    let message = err.to_string();
    assert!(
        message.contains(&format!("{n} distinct parameter constraints")),
        "{message}"
    );
    assert!(
        message.contains(&format!("the {MAX_CELL_ATOMS} a piecewise result supports")),
        "{message}"
    );
    assert!(!message.contains("configuration limit"), "{message}");
}

#[test]
fn parallel_expansion_matches_single_threaded() {
    // Parallel frontier expansion must be a pure performance knob: the
    // posterior is identical (merging happens after the parallel phase).
    let src = format!("{GOSSIP_K4_HEADER} scheduler uniform; {GOSSIP_BODY}");
    let m = model(&src);
    let single = analyze(&m, &*scheduler_for(&m), &common::test_options()).unwrap();
    let parallel = analyze(
        &m,
        &*scheduler_for(&m),
        &ExactOptions {
            threads: 4,
            ..Default::default()
        },
    )
    .unwrap();
    let a = answer(&m, &single, &m.queries[0], true).unwrap();
    let b = answer(&m, &parallel, &m.queries[0], true).unwrap();
    assert_eq!(a.rat(), b.rat());
    assert_eq!(single.total_terminal_mass(), parallel.total_terminal_mass());
}

#[test]
fn expired_deadline_interrupts_analysis() {
    let src = format!("{GOSSIP_K4_HEADER} scheduler uniform; {GOSSIP_BODY}");
    let m = model(&src);
    let err = analyze(
        &m,
        &*scheduler_for(&m),
        &ExactOptions {
            deadline: bayonet_net::Deadline::after(std::time::Duration::ZERO),
            ..Default::default()
        },
    )
    .unwrap_err();
    assert!(matches!(err, ExactError::Interrupted { .. }), "{err}");
    assert!(err.to_string().contains("interrupted by deadline"), "{err}");
}

#[test]
fn cancel_handle_interrupts_analysis() {
    // A pre-cancelled handle is indistinguishable from a deadline that
    // fired mid-run: the engine must stop at its next poll point.
    let src = format!("{GOSSIP_K4_HEADER} scheduler uniform; {GOSSIP_BODY}");
    let m = model(&src);
    let mut deadline = bayonet_net::Deadline::unlimited();
    let handle = deadline.cancel_handle();
    handle.cancel();
    let err = analyze(
        &m,
        &*scheduler_for(&m),
        &ExactOptions {
            deadline,
            ..Default::default()
        },
    )
    .unwrap_err();
    assert!(matches!(err, ExactError::Interrupted { .. }), "{err}");
}

#[test]
fn unlimited_deadline_changes_nothing() {
    let src = format!("{GOSSIP_K4_HEADER} scheduler uniform; {GOSSIP_BODY}");
    let m = model(&src);
    let analysis = analyze(
        &m,
        &*scheduler_for(&m),
        &ExactOptions {
            deadline: bayonet_net::Deadline::unlimited(),
            ..Default::default()
        },
    )
    .unwrap();
    let v = answer(&m, &analysis, &m.queries[0], true).unwrap();
    assert_eq!(v.rat().clone(), Rat::ratio(94, 27));
}
