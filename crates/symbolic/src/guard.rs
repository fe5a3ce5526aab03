//! Symbolic guards: conjunctions of sign constraints on linear expressions.
//!
//! When the exact engine evaluates a comparison whose operands contain
//! symbolic parameters, it forks the world three ways on the *sign* of the
//! difference (trichotomy) and records the assumed sign as an atom of the
//! current [`Guard`]. Guards are kept in a canonical form so that configs
//! reached under the same assumptions merge.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use bayonet_num::Sign;

use crate::linexpr::LinExpr;
use crate::param::ParamTable;

/// A conjunction of sign atoms `sign(expr) = s` over canonicalized linear
/// expressions. The empty guard is `true`.
///
/// The atom map is shared copy-on-write: cloning a guard bumps a reference
/// count, and [`Guard::assume_sign`] and [`Guard::conjoin`] copy the map
/// only when they actually add an atom. `Arc` delegates `Eq`, `Ord` and
/// `Hash` to the map, so sharing never changes how guards compare or hash.
///
/// # Examples
///
/// ```
/// use bayonet_symbolic::{Guard, LinExpr, ParamTable};
/// use bayonet_num::{Rat, Sign};
///
/// let mut t = ParamTable::new();
/// let x = LinExpr::param(t.intern("x"));
/// let g = Guard::top().assume_sign(&x, Sign::Plus).unwrap();
/// // x > 0 together with x < 0 is contradictory:
/// assert!(g.assume_sign(&x, Sign::Minus).is_none());
/// // x > 0 together with -2x < 0 is redundant:
/// let neg2x = x.scale(&Rat::int(-2));
/// assert_eq!(g.assume_sign(&neg2x, Sign::Minus), Some(g.clone()));
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Guard {
    atoms: Arc<BTreeMap<LinExpr, Sign>>,
}

impl Guard {
    /// The trivially true guard.
    pub fn top() -> Self {
        Guard::default()
    }

    /// Returns `true` if the guard has no atoms.
    pub fn is_top(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Returns `true` if the guard has no atoms.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Iterates over `(canonical expr, sign)` atoms.
    pub fn atoms(&self) -> impl Iterator<Item = (&LinExpr, Sign)> + '_ {
        self.atoms.iter().map(|(e, &s)| (e, s))
    }

    /// The sign of `expr` under this guard, if syntactically determined:
    /// either `expr` is constant, or its canonical form is already
    /// constrained by an atom.
    pub fn known_sign(&self, expr: &LinExpr) -> Option<Sign> {
        if let Some(c) = expr.as_constant() {
            return Some(c.sign());
        }
        let (canon, flipped) = expr.canonicalize();
        let s = *self.atoms.get(&canon)?;
        Some(if flipped { s.negate() } else { s })
    }

    /// Conjoins the assumption `sign(expr) = sign`. Returns the extended
    /// guard, or `None` if the assumption *syntactically* contradicts an
    /// existing atom or a constant expression. (Deeper contradictions are
    /// caught by [`feasibility`](crate::feasibility).)
    pub fn assume_sign(&self, expr: &LinExpr, sign: Sign) -> Option<Guard> {
        if let Some(c) = expr.as_constant() {
            return if c.sign() == sign {
                Some(self.clone())
            } else {
                None
            };
        }
        let (canon, flipped) = expr.canonicalize();
        let sign = if flipped { sign.negate() } else { sign };
        match self.atoms.get(&canon) {
            Some(&existing) if existing == sign => Some(self.clone()),
            Some(_) => None,
            None => {
                let mut out = self.clone();
                Arc::make_mut(&mut out.atoms).insert(canon, sign);
                Some(out)
            }
        }
    }

    /// Returns `true` if every atom of `self` appears in `other` with the
    /// same sign (i.e., `other` syntactically implies `self`).
    pub fn implied_by(&self, other: &Guard) -> bool {
        self.atoms
            .iter()
            .all(|(e, s)| other.atoms.get(e) == Some(s))
    }

    /// Conjunction of two guards; `None` on syntactic contradiction.
    pub fn conjoin(&self, other: &Guard) -> Option<Guard> {
        let mut out = self.clone();
        for (e, &s) in other.atoms.iter() {
            match out.atoms.get(e) {
                Some(&existing) if existing != s => return None,
                Some(_) => {}
                None => {
                    Arc::make_mut(&mut out.atoms).insert(e.clone(), s);
                }
            }
        }
        Some(out)
    }

    /// Renders with parameter names from `table`.
    pub fn display<'a>(&'a self, table: &'a ParamTable) -> DisplayGuard<'a> {
        DisplayGuard { guard: self, table }
    }
}

/// Helper rendering a [`Guard`] with its parameter names.
pub struct DisplayGuard<'a> {
    guard: &'a Guard,
    table: &'a ParamTable,
}

impl fmt::Display for DisplayGuard<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.guard.is_top() {
            return f.write_str("true");
        }
        let mut first = true;
        for (e, s) in self.guard.atoms() {
            if !first {
                f.write_str(" and ")?;
            }
            first = false;
            let op = match s {
                Sign::Minus => "<",
                Sign::Zero => "==",
                Sign::Plus => ">",
            };
            write!(f, "{} {} 0", e.display(self.table), op)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ParamTable;
    use bayonet_num::Rat;

    fn xy() -> (ParamTable, LinExpr, LinExpr) {
        let mut t = ParamTable::new();
        let x = LinExpr::param(t.intern("x"));
        let y = LinExpr::param(t.intern("y"));
        (t, x, y)
    }

    #[test]
    fn constant_assumptions_resolve_immediately() {
        let g = Guard::top();
        let five = LinExpr::constant(Rat::int(5));
        assert_eq!(g.assume_sign(&five, Sign::Plus), Some(g.clone()));
        assert_eq!(g.assume_sign(&five, Sign::Zero), None);
        assert_eq!(g.assume_sign(&five, Sign::Minus), None);
        let zero = LinExpr::zero();
        assert_eq!(g.assume_sign(&zero, Sign::Zero), Some(g.clone()));
    }

    #[test]
    fn scaled_expressions_share_one_atom() {
        let (_, x, y) = xy();
        let d = x.sub(&y); // x - y
        let g = Guard::top().assume_sign(&d, Sign::Plus).unwrap();
        assert_eq!(g.len(), 1);
        // 3(x - y) > 0 is the same atom.
        let d3 = d.scale(&Rat::int(3));
        assert_eq!(g.assume_sign(&d3, Sign::Plus), Some(g.clone()));
        // y - x < 0 is also the same atom (flipped).
        let rev = y.sub(&x);
        assert_eq!(g.assume_sign(&rev, Sign::Minus), Some(g.clone()));
        assert_eq!(g.assume_sign(&rev, Sign::Plus), None);
    }

    #[test]
    fn known_sign_through_flip() {
        let (_, x, y) = xy();
        let g = Guard::top().assume_sign(&x.sub(&y), Sign::Plus).unwrap();
        assert_eq!(g.known_sign(&x.sub(&y)), Some(Sign::Plus));
        assert_eq!(g.known_sign(&y.sub(&x)), Some(Sign::Minus));
        assert_eq!(g.known_sign(&x), None);
        assert_eq!(
            g.known_sign(&LinExpr::constant(Rat::int(-2))),
            Some(Sign::Minus)
        );
    }

    #[test]
    fn conjoin_and_implication() {
        let (_, x, y) = xy();
        let gx = Guard::top().assume_sign(&x, Sign::Plus).unwrap();
        let gy = Guard::top().assume_sign(&y, Sign::Minus).unwrap();
        let both = gx.conjoin(&gy).unwrap();
        assert_eq!(both.len(), 2);
        assert!(gx.implied_by(&both));
        assert!(gy.implied_by(&both));
        assert!(!both.implied_by(&gx));
        let gx_neg = Guard::top().assume_sign(&x, Sign::Minus).unwrap();
        assert_eq!(gx.conjoin(&gx_neg), None);
    }

    #[test]
    fn sharing_redundant_assumptions_keep_the_parent_atoms() {
        let (_, x, y) = xy();
        let g = Guard::top().assume_sign(&x.sub(&y), Sign::Plus).unwrap();
        // Already implied (also through scaling and flipping): shared.
        for (e, s) in [
            (x.sub(&y), Sign::Plus),
            (y.sub(&x).scale(&Rat::int(2)), Sign::Minus),
        ] {
            let same = g.assume_sign(&e, s).unwrap();
            assert!(Arc::ptr_eq(&g.atoms, &same.atoms));
        }
        assert!(Arc::ptr_eq(
            &g.atoms,
            &g.conjoin(&Guard::top()).unwrap().atoms
        ));
        assert!(Arc::ptr_eq(&g.atoms, &g.conjoin(&g.clone()).unwrap().atoms));
        // A new atom copies the map once and leaves the parent as it was.
        let wider = g.assume_sign(&x, Sign::Zero).unwrap();
        assert!(!Arc::ptr_eq(&g.atoms, &wider.atoms));
        assert_eq!((g.len(), wider.len()), (1, 2));
    }

    #[test]
    fn display_guard() {
        let (t, x, y) = xy();
        let g = Guard::top().assume_sign(&x.sub(&y), Sign::Zero).unwrap();
        assert_eq!(g.display(&t).to_string(), "x - y == 0");
        assert_eq!(Guard::top().display(&t).to_string(), "true");
    }
}
