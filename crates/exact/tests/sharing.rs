//! Frontier states share node configurations and guard atoms by `Arc`, but
//! the canonical state key must stay structural: a configuration and a deep
//! rebuild of it with freshly allocated nodes and atoms compare `Equal`,
//! hash equal under the engine's merge-map hasher, and sort identically.
//! Otherwise merging and the canonical terminal order — and with them every
//! posterior and work counter — would depend on allocation history.

use std::cmp::Ordering;
use std::hash::{BuildHasher, BuildHasherDefault};
use std::sync::Arc;

use bayonet_bdd::FxHasher;
use bayonet_exact::{analyze, ExactOptions};
use bayonet_lang::parse;
use bayonet_lang::testgen::ProgramGen;
use bayonet_net::{compile, scheduler_for, GlobalConfig, NodeConfig};
use bayonet_symbolic::Guard;
use proptest::prelude::*;

/// The terminal `(guard, config)` keys of a generated program, or `None`
/// when the program fails (the generator's soft observes can discard all
/// mass).
fn terminal_keys(seed: u64, parameterized: bool) -> Option<Vec<(Guard, GlobalConfig)>> {
    let source = if parameterized {
        ProgramGen::new_parameterized(seed).generate()
    } else {
        ProgramGen::new(seed).generate()
    };
    let model = compile(&parse(&source).ok()?).ok()?;
    let analysis = analyze(&model, &*scheduler_for(&model), &ExactOptions::default()).ok()?;
    Some(
        analysis
            .terminals
            .into_iter()
            .map(|(c, g, _)| (g, c))
            .collect(),
    )
}

/// A structurally equal copy sharing no allocation with the original.
fn deep_rebuild((guard, cfg): &(Guard, GlobalConfig)) -> (Guard, GlobalConfig) {
    let guard = guard.atoms().fold(Guard::top(), |g, (e, s)| {
        g.assume_sign(e, s).expect("rebuilding a consistent guard")
    });
    let nodes = cfg.nodes.iter().map(|n| NodeConfig::clone(n)).collect();
    (guard, GlobalConfig::new(cfg.sched_state, nodes))
}

/// Indices of `keys` in sorted order (ties broken by index).
fn sort_order(keys: &[(Guard, GlobalConfig)]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by(|&a, &b| {
        let ((g1, c1), (g2, c2)) = (&keys[a], &keys[b]);
        (c1, g1).cmp(&(c2, g2))
    });
    order
}

proptest! {
    #[test]
    fn sharing_never_changes_order_equality_or_hash(
        seed in 0u64..400,
        parameterized in any::<bool>(),
    ) {
        let Some(keys) = terminal_keys(seed, parameterized) else {
            return Ok(());
        };
        let hasher = BuildHasherDefault::<FxHasher>::default();
        let rebuilt: Vec<(Guard, GlobalConfig)> = keys.iter().map(deep_rebuild).collect();
        for (key, copy) in keys.iter().zip(&rebuilt) {
            for (a, b) in key.1.nodes.iter().zip(&copy.1.nodes) {
                prop_assert!(!Arc::ptr_eq(a, b));
            }
            prop_assert_eq!(key, copy);
            prop_assert_eq!(key.cmp(copy), Ordering::Equal);
            prop_assert_eq!(hasher.hash_one(key), hasher.hash_one(copy));
        }
        // Reversing the input exercises a different comparison sequence
        // without changing the result.
        let reversed: Vec<(Guard, GlobalConfig)> = rebuilt.iter().rev().cloned().collect();
        let n = keys.len();
        let reversed_order: Vec<usize> =
            sort_order(&reversed).into_iter().map(|i| n - 1 - i).collect();
        prop_assert_eq!(sort_order(&keys), sort_order(&rebuilt));
        prop_assert_eq!(sort_order(&keys), reversed_order);
    }
}
