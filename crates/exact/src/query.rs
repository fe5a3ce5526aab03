//! Query answering over the exact posterior, with piecewise-symbolic
//! results (paper Figures 3 and 8).
//!
//! With concrete parameters a query has a single rational answer. With
//! symbolic parameters, execution splits on sign atoms; the answer is
//! reported per **cell** — one consistent sign assignment to every atom
//! expression that occurred — exactly the three-row table of Figure 3.

use std::fmt;

use bayonet_num::Rat;
use bayonet_symbolic::{atom_exprs, enumerate_cells_cached, Assignment, FeasibilityCache, Guard};

use bayonet_net::{eval_query_expr, truth_of, CompiledQuery, Deadline, Model, QueryKind, Val};

use crate::engine::{Analysis, ExactError};
use crate::enumerate::enumerate_eval_cached;

/// Maximum number of distinct sign-atom expressions a query result may
/// involve (cells grow as 3^n).
pub const MAX_CELL_ATOMS: usize = 12;

/// The answer restricted to one cell of parameter space.
#[derive(Debug, Clone)]
pub struct CellAnswer {
    /// The cell: a sign constraint on every atom expression.
    pub guard: Guard,
    /// The cell's constraint rendered with parameter names (`"true"` for
    /// the trivial cell).
    pub constraint: String,
    /// A concrete parameter assignment inside the cell.
    pub witness: Assignment,
    /// The query value on this cell. `None` when undefined there (all mass
    /// observed out, or an expectation with zero non-error mass).
    pub value: Option<Val>,
    /// Surviving (terminal) mass on this cell — the paper's `Z`.
    pub z: Rat,
    /// Mass discarded by observations on this cell.
    pub discarded: Rat,
}

/// A complete query result: one [`CellAnswer`] per feasible cell.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Probability or expectation.
    pub kind: QueryKind,
    /// Source text of the query.
    pub source: String,
    /// Per-cell answers (a single cell when no symbolic splits occurred).
    pub cells: Vec<CellAnswer>,
}

impl QueryResult {
    /// The unique cell of a non-symbolic result.
    ///
    /// # Panics
    ///
    /// Panics if the result is piecewise (more than one cell).
    pub fn single(&self) -> &CellAnswer {
        assert_eq!(
            self.cells.len(),
            1,
            "query result is piecewise; inspect .cells"
        );
        &self.cells[0]
    }

    /// The value of a non-symbolic, defined result as a rational.
    ///
    /// # Panics
    ///
    /// Panics if the result is piecewise, undefined, or symbolic.
    pub fn rat(&self) -> &Rat {
        match self.single().value.as_ref() {
            Some(Val::Rat(r)) => r,
            Some(Val::Sym(_)) => panic!("query value is symbolic"),
            None => panic!("query value is undefined (Z = 0)"),
        }
    }

    /// The value as `f64` (single-cell, defined results).
    pub fn to_f64(&self) -> f64 {
        self.rat().to_f64()
    }
}

impl fmt::Display for QueryResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            QueryKind::Probability => "probability",
            QueryKind::Expectation => "expectation",
        };
        writeln!(f, "{kind}({}):", self.source)?;
        for cell in &self.cells {
            let value = match &cell.value {
                Some(Val::Rat(r)) => format!("{r} ≈ {:.4}", r.to_f64()),
                Some(v) => format!("{v}"),
                None => "undefined (Z = 0)".to_string(),
            };
            if cell.constraint == "true" {
                writeln!(f, "  {value}")?;
            } else {
                writeln!(f, "  [{}] {value}", cell.constraint)?;
            }
        }
        Ok(())
    }
}

enum Contribution {
    /// Probability query: does the condition hold on this terminal?
    Truth(bool),
    /// Expectation query: the expression value (`None` on error terminals,
    /// which expectations exclude).
    Value(Option<Val>),
}

/// Computes the full posterior distribution of a query expression over the
/// non-error terminal configurations (normalized by the surviving mass):
/// the paper's §5.3 "analyze the distribution of the number of nodes that
/// will become infected in total".
///
/// Restricted to concrete models (no unbound parameters); entries are
/// sorted by value.
///
/// # Errors
///
/// Fails on symbolic splits, evaluation errors, or `Z = 0`.
pub fn value_distribution(
    model: &Model,
    analysis: &Analysis,
    query: &CompiledQuery,
) -> Result<Vec<(Rat, Rat)>, ExactError> {
    let mut acc: Vec<(Rat, Rat)> = Vec::new();
    let mut z = Rat::zero();
    for (cfg, guard, mass) in &analysis.terminals {
        if cfg.has_error() {
            continue;
        }
        if !guard.is_top() {
            return Err(ExactError::Semantics(
                bayonet_net::SemanticsError::SymbolicValueInConcreteContext(
                    "value_distribution needs all parameters bound".into(),
                ),
            ));
        }
        let states = |node: usize, slot: usize| cfg.nodes[node].state[slot].clone();
        let mut driver = bayonet_net::NoChoiceDriver;
        let v = eval_query_expr(model, &query.expr, &states, &mut driver)?;
        let Val::Rat(r) = v else {
            return Err(ExactError::Semantics(
                bayonet_net::SemanticsError::SymbolicValueInConcreteContext(
                    "value_distribution needs concrete values".into(),
                ),
            ));
        };
        z += mass;
        match acc.iter_mut().find(|(val, _)| *val == r) {
            Some((_, m)) => *m += mass,
            None => acc.push((r, mass.clone())),
        }
    }
    if z.is_zero() {
        return Err(ExactError::AllMassObservedOut);
    }
    for (_, m) in &mut acc {
        *m = &*m / &z;
    }
    acc.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(acc)
}

/// Answers a compiled query against an exact [`Analysis`].
///
/// # Errors
///
/// Fails on semantic evaluation errors, too many symbolic atoms, or a
/// globally-undefined posterior (`Z = 0` everywhere).
pub fn answer(
    model: &Model,
    analysis: &Analysis,
    query: &CompiledQuery,
    fm_pruning: bool,
) -> Result<QueryResult, ExactError> {
    answer_cached(model, analysis, query, fm_pruning, None)
}

/// [`answer`] with the feasibility checks of query-time sign splits and the
/// cell decomposition routed through a shared [`FeasibilityCache`].
///
/// The answering pass revisits the same guard prefixes the analysis already
/// proved feasible, so sharing the analysis run's cache (see
/// [`ExactOptions::feasibility_cache`](crate::ExactOptions)) answers most
/// checks from the memo table.
///
/// # Errors
///
/// As for [`answer`].
pub fn answer_cached(
    model: &Model,
    analysis: &Analysis,
    query: &CompiledQuery,
    fm_pruning: bool,
    cache: Option<&FeasibilityCache>,
) -> Result<QueryResult, ExactError> {
    // Evaluate the query on every terminal configuration, enumerating any
    // symbolic sign splits the evaluation itself introduces.
    let mut contributions: Vec<(Guard, Rat, Contribution)> = Vec::new();
    for (cfg, guard, mass) in &analysis.terminals {
        let states = |node: usize, slot: usize| cfg.nodes[node].state[slot].clone();
        // Query evaluation draws no randomness: only sign splits branch it,
        // so it needs no deadline.
        let unlimited = Deadline::unlimited();
        let branches = enumerate_eval_cached(guard, fm_pruning, cache, &unlimited, |driver| {
            Ok(match query.kind {
                QueryKind::Probability => {
                    let v = eval_query_expr(model, &query.expr, &states, driver)?;
                    Contribution::Truth(truth_of(&v, driver)?)
                }
                QueryKind::Expectation => {
                    if cfg.has_error() {
                        Contribution::Value(None)
                    } else {
                        let v = eval_query_expr(model, &query.expr, &states, driver)?;
                        Contribution::Value(Some(v))
                    }
                }
            })
        })?;
        for b in branches {
            debug_assert!(b.weight.is_one(), "query evaluation draws no randomness");
            contributions.push((b.guard, mass.clone(), b.result));
        }
    }

    // Build the cell decomposition from every guard in sight.
    let mut all_guards: Vec<Guard> = contributions.iter().map(|(g, _, _)| g.clone()).collect();
    all_guards.extend(analysis.discarded.iter().map(|(g, _)| g.clone()));
    let exprs = atom_exprs(&all_guards);
    if exprs.len() > MAX_CELL_ATOMS {
        return Err(ExactError::TooManyCellAtoms {
            atoms: exprs.len(),
            max: MAX_CELL_ATOMS,
        });
    }
    let cells = enumerate_cells_cached(&exprs, cache);

    let mut out = Vec::with_capacity(cells.len());
    let mut any_defined = false;
    for cell in &cells {
        let mut z = Rat::zero();
        let mut numer_mass = Rat::zero();
        let mut exp_num = Val::zero();
        let mut exp_den = Rat::zero();
        for (g, mass, contribution) in &contributions {
            if !cell.admits(g) {
                continue;
            }
            z += mass;
            match contribution {
                Contribution::Truth(true) => numer_mass += mass,
                Contribution::Truth(false) => {}
                Contribution::Value(Some(v)) => {
                    exp_num = exp_num.add(
                        &v.mul(&Val::Rat(mass.clone()))
                            .map_err(|e| -> ExactError { e.into() })?,
                    );
                    exp_den += mass;
                }
                Contribution::Value(None) => {}
            }
        }
        let discarded = analysis
            .discarded
            .iter()
            .filter(|(g, _)| cell.admits(g))
            .fold(Rat::zero(), |acc, (_, m)| acc + m);

        let value = match query.kind {
            QueryKind::Probability => {
                if z.is_zero() {
                    None
                } else {
                    Some(Val::Rat(&numer_mass / &z))
                }
            }
            QueryKind::Expectation => {
                if exp_den.is_zero() {
                    None
                } else {
                    Some(exp_num.div(&Val::Rat(exp_den)).map_err(ExactError::from)?)
                }
            }
        };
        any_defined |= value.is_some();
        out.push(CellAnswer {
            constraint: cell.guard().display(&model.params).to_string(),
            guard: cell.guard().clone(),
            witness: cell.witness(),
            value,
            z,
            discarded,
        });
    }

    if !any_defined {
        return Err(ExactError::AllMassObservedOut);
    }
    Ok(QueryResult {
        kind: query.kind,
        source: query.source.clone(),
        cells: out,
    })
}
