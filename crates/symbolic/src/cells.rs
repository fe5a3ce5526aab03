//! Sign cells: the piecewise case structure of a symbolic inference result.
//!
//! During symbolic execution different branches may split on different
//! expressions, so terminal guards are not a partition of parameter space.
//! To report a well-defined piecewise result (paper Figure 3), we collect
//! every canonical expression that occurs in any terminal guard and
//! enumerate all *feasible* full sign assignments — the **cells**. Each
//! terminal guard is then compatible with exactly the cells that extend it.

use bayonet_num::Sign;

use crate::cache::FeasibilityCache;
use crate::feasible::{feasibility, Assignment, Feasibility};
use crate::guard::Guard;
use crate::linexpr::LinExpr;
use crate::param::ParamTable;

/// A full sign assignment to a set of canonical expressions, represented as
/// a [`Guard`] that constrains every one of them.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Cell {
    guard: Guard,
}

impl Cell {
    /// The cell's guard (one atom per expression).
    pub fn guard(&self) -> &Guard {
        &self.guard
    }

    /// Returns `true` if `guard` holds everywhere in the cell, i.e. the
    /// cell's sign assignment extends the guard's atoms.
    pub fn admits(&self, guard: &Guard) -> bool {
        guard.implied_by(&self.guard)
    }

    /// A rational parameter assignment lying inside the cell.
    pub fn witness(&self) -> Assignment {
        match feasibility(&self.guard) {
            Feasibility::Sat(w) => w,
            Feasibility::Unsat => unreachable!("cells are feasible by construction"),
        }
    }

    /// Renders with parameter names from `table`.
    pub fn display<'a>(&'a self, table: &'a ParamTable) -> impl std::fmt::Display + 'a {
        self.guard.display(table)
    }
}

/// Collects the distinct canonical expressions occurring in `guards`, in
/// their structural order.
///
/// The order is independent of the order of `guards`, so
/// [`enumerate_cells`] over the result lists cells in one canonical order
/// whichever engine, thread count or symmetry-orbit representative
/// produced the guards.
pub fn atom_exprs(guards: &[Guard]) -> Vec<LinExpr> {
    let exprs: std::collections::BTreeSet<&LinExpr> = guards
        .iter()
        .flat_map(|g| g.atoms().map(|(e, _)| e))
        .collect();
    exprs.into_iter().cloned().collect()
}

/// Enumerates all feasible cells over `exprs` (up to `3^n` candidates,
/// pruned by feasibility as the assignment is extended).
///
/// # Examples
///
/// ```
/// use bayonet_symbolic::{enumerate_cells, LinExpr, ParamTable};
///
/// let mut t = ParamTable::new();
/// let x = LinExpr::param(t.intern("x"));
/// let cells = enumerate_cells(&[x]);
/// assert_eq!(cells.len(), 3); // x < 0, x == 0, x > 0
/// ```
pub fn enumerate_cells(exprs: &[LinExpr]) -> Vec<Cell> {
    enumerate_cells_cached(exprs, None)
}

/// [`enumerate_cells`] with the pruning feasibility checks routed through a
/// [`FeasibilityCache`], sharing memoized verdicts with the rest of a run.
pub fn enumerate_cells_cached(exprs: &[LinExpr], cache: Option<&FeasibilityCache>) -> Vec<Cell> {
    let is_sat = |g: &Guard| match cache {
        Some(c) => c.is_sat(g),
        None => feasibility(g).is_sat(),
    };
    let mut out = Vec::new();
    let mut stack = vec![(Guard::top(), 0usize)];
    while let Some((guard, i)) = stack.pop() {
        if i == exprs.len() {
            out.push(Cell { guard });
            continue;
        }
        for s in [Sign::Minus, Sign::Zero, Sign::Plus] {
            if let Some(extended) = guard.assume_sign(&exprs[i], s) {
                if is_sat(&extended) {
                    stack.push((extended, i + 1));
                }
            }
        }
    }
    out.reverse(); // DFS pushed in reverse sign order; restore Minus→Plus order
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ParamTable;
    use bayonet_num::Rat;

    #[test]
    fn one_expr_gives_three_cells() {
        let mut t = ParamTable::new();
        let x = LinExpr::param(t.intern("x"));
        let cells = enumerate_cells(std::slice::from_ref(&x));
        assert_eq!(cells.len(), 3);
        for c in &cells {
            let w = c.witness();
            assert!(c.admits(c.guard()));
            // witness satisfies the cell's own guard
            let v = x.eval(&|p| w.get(&p).cloned().unwrap_or_else(Rat::zero));
            let (e, s) = c.guard().atoms().next().unwrap();
            assert_eq!(e, &x);
            assert_eq!(v.sign(), s);
        }
    }

    #[test]
    fn dependent_exprs_prune_infeasible_cells() {
        // x and x - 1: sign(x) = Minus is incompatible with sign(x-1) = Plus etc.
        let mut t = ParamTable::new();
        let x = LinExpr::param(t.intern("x"));
        let xm1 = x.sub(&LinExpr::constant(Rat::one()));
        let cells = enumerate_cells(&[x.clone(), xm1.clone()]);
        // Feasible combinations: (-,-), (0,-), (+,-), (+,0), (+,+) = 5 of 9.
        assert_eq!(cells.len(), 5);
    }

    #[test]
    fn cells_admit_weaker_guards() {
        let mut t = ParamTable::new();
        let x = LinExpr::param(t.intern("x"));
        let y = LinExpr::param(t.intern("y"));
        let cells = enumerate_cells(&[x.clone(), y.clone()]);
        assert_eq!(cells.len(), 9);
        let gx_pos = Guard::top().assume_sign(&x, Sign::Plus).unwrap();
        let admitting: Vec<_> = cells.iter().filter(|c| c.admits(&gx_pos)).collect();
        assert_eq!(admitting.len(), 3); // one per sign of y
                                        // The trivial guard is admitted by every cell.
        assert!(cells.iter().all(|c| c.admits(&Guard::top())));
    }

    #[test]
    fn atom_exprs_deduplicates() {
        let mut t = ParamTable::new();
        let x = LinExpr::param(t.intern("x"));
        let g1 = Guard::top().assume_sign(&x, Sign::Plus).unwrap();
        let g2 = Guard::top()
            .assume_sign(&x.scale(&Rat::int(5)), Sign::Minus)
            .unwrap();
        let exprs = atom_exprs(&[g1, g2]);
        assert_eq!(exprs.len(), 1);
    }

    /// Every permutation of the same guards yields the same atom list and
    /// hence the same cells in the same order: the piecewise table must not
    /// depend on the order terminals were produced in.
    #[test]
    fn cell_order_is_independent_of_guard_order() {
        let mut t = ParamTable::new();
        let k = LinExpr::param(t.intern("K"));
        let tt = LinExpr::param(t.intern("T"));
        let minus = |e: &LinExpr, c: i64| e.sub(&LinExpr::constant(Rat::int(c)));
        let guards = vec![
            Guard::top()
                .assume_sign(&minus(&k, 3), Sign::Plus)
                .unwrap()
                .assume_sign(&minus(&tt, 1), Sign::Minus)
                .unwrap(),
            Guard::top().assume_sign(&minus(&k, 2), Sign::Zero).unwrap(),
            Guard::top()
                .assume_sign(&minus(&tt, 1), Sign::Plus)
                .unwrap(),
            Guard::top()
                .assume_sign(&k.add(&tt), Sign::Minus)
                .unwrap()
                .assume_sign(&minus(&k, 4), Sign::Minus)
                .unwrap(),
        ];
        let reference: Vec<Guard> = enumerate_cells(&atom_exprs(&guards))
            .into_iter()
            .map(|c| c.guard().clone())
            .collect();
        assert!(reference.len() > 1);

        // Heap's algorithm: visit every permutation of the four guards.
        let mut perm = guards.clone();
        let mut c = vec![0usize; perm.len()];
        let mut visited = 1;
        let mut i = 0;
        while i < perm.len() {
            if c[i] < i {
                perm.swap(if i % 2 == 0 { 0 } else { c[i] }, i);
                let cells: Vec<Guard> = enumerate_cells(&atom_exprs(&perm))
                    .into_iter()
                    .map(|c| c.guard().clone())
                    .collect();
                assert_eq!(cells, reference, "guard order {perm:?}");
                visited += 1;
                c[i] += 1;
                i = 0;
            } else {
                c[i] = 0;
                i += 1;
            }
        }
        assert_eq!(visited, 24);
    }
}
