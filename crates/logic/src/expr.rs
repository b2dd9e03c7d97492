//! Boolean expression AST.

use crate::signal::{SignalId, SignalTable};
use crate::valuation::Valuation;
use std::collections::BTreeSet;
use std::fmt;

/// A Boolean expression over interned signals.
///
/// Used to describe combinational gate functions in netlists and the Boolean
/// layer of temporal formulas. Constructors perform light simplification
/// (constant folding, flattening of nested `And`/`Or`, double-negation
/// elimination) but expressions are *not* canonical — use
/// [`BddManager::from_expr`](crate::BddManager::from_expr) for canonical
/// comparison.
///
/// # Example
///
/// ```
/// use dic_logic::{BoolExpr, SignalTable, Valuation};
///
/// let mut t = SignalTable::new();
/// let a = t.intern("a");
/// let b = t.intern("b");
/// let e = BoolExpr::and([BoolExpr::var(a), BoolExpr::var(b).not()]);
/// let mut v = Valuation::all_false(t.len());
/// v.set(a, true);
/// assert!(e.eval(&v));
/// assert_eq!(e.display(&t).to_string(), "a & !b");
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum BoolExpr {
    /// Constant true/false.
    Const(bool),
    /// A signal.
    Var(SignalId),
    /// Negation.
    Not(Box<BoolExpr>),
    /// N-ary conjunction (flattened, never nested `And` directly inside).
    And(Vec<BoolExpr>),
    /// N-ary disjunction (flattened).
    Or(Vec<BoolExpr>),
    /// Exclusive or.
    Xor(Box<BoolExpr>, Box<BoolExpr>),
}

impl BoolExpr {
    /// The constant `true`.
    pub fn tt() -> Self {
        BoolExpr::Const(true)
    }

    /// The constant `false`.
    pub fn ff() -> Self {
        BoolExpr::Const(false)
    }

    /// A signal variable.
    pub fn var(id: SignalId) -> Self {
        BoolExpr::Var(id)
    }

    /// Negation with double-negation and constant elimination.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        match self {
            BoolExpr::Const(b) => BoolExpr::Const(!b),
            BoolExpr::Not(inner) => *inner,
            e => BoolExpr::Not(Box::new(e)),
        }
    }

    /// N-ary conjunction with flattening and constant folding.
    pub fn and<I: IntoIterator<Item = BoolExpr>>(parts: I) -> Self {
        let mut out = Vec::new();
        for p in parts {
            match p {
                BoolExpr::Const(true) => {}
                BoolExpr::Const(false) => return BoolExpr::ff(),
                BoolExpr::And(inner) => out.extend(inner),
                e => out.push(e),
            }
        }
        match out.len() {
            0 => BoolExpr::tt(),
            1 => out.pop().expect("len checked"),
            _ => BoolExpr::And(out),
        }
    }

    /// N-ary disjunction with flattening and constant folding.
    pub fn or<I: IntoIterator<Item = BoolExpr>>(parts: I) -> Self {
        let mut out = Vec::new();
        for p in parts {
            match p {
                BoolExpr::Const(false) => {}
                BoolExpr::Const(true) => return BoolExpr::tt(),
                BoolExpr::Or(inner) => out.extend(inner),
                e => out.push(e),
            }
        }
        match out.len() {
            0 => BoolExpr::ff(),
            1 => out.pop().expect("len checked"),
            _ => BoolExpr::Or(out),
        }
    }

    /// Exclusive or with constant folding.
    pub fn xor(a: BoolExpr, b: BoolExpr) -> Self {
        match (a, b) {
            (BoolExpr::Const(x), BoolExpr::Const(y)) => BoolExpr::Const(x ^ y),
            (BoolExpr::Const(false), e) | (e, BoolExpr::Const(false)) => e,
            (BoolExpr::Const(true), e) | (e, BoolExpr::Const(true)) => e.not(),
            (a, b) => BoolExpr::Xor(Box::new(a), Box::new(b)),
        }
    }

    /// `a -> b`, desugared to `!a | b`.
    pub fn implies(a: BoolExpr, b: BoolExpr) -> Self {
        BoolExpr::or([a.not(), b])
    }

    /// `a <-> b`, desugared to `!(a ^ b)`.
    pub fn iff(a: BoolExpr, b: BoolExpr) -> Self {
        BoolExpr::xor(a, b).not()
    }

    /// Evaluates under a full valuation.
    ///
    /// # Panics
    ///
    /// Panics if the expression mentions a signal outside the valuation.
    pub fn eval(&self, v: &Valuation) -> bool {
        match self {
            BoolExpr::Const(b) => *b,
            BoolExpr::Var(id) => v.get(*id),
            BoolExpr::Not(e) => !e.eval(v),
            BoolExpr::And(es) => es.iter().all(|e| e.eval(v)),
            BoolExpr::Or(es) => es.iter().any(|e| e.eval(v)),
            BoolExpr::Xor(a, b) => a.eval(v) ^ b.eval(v),
        }
    }

    /// The set of signals mentioned by this expression.
    pub fn support(&self) -> BTreeSet<SignalId> {
        let mut out = BTreeSet::new();
        self.collect_support(&mut out);
        out
    }

    fn collect_support(&self, out: &mut BTreeSet<SignalId>) {
        match self {
            BoolExpr::Const(_) => {}
            BoolExpr::Var(id) => {
                out.insert(*id);
            }
            BoolExpr::Not(e) => e.collect_support(out),
            BoolExpr::And(es) | BoolExpr::Or(es) => {
                for e in es {
                    e.collect_support(out);
                }
            }
            BoolExpr::Xor(a, b) => {
                a.collect_support(out);
                b.collect_support(out);
            }
        }
    }

    /// Substitutes constant `value` for `signal` and re-simplifies.
    pub fn assign(&self, signal: SignalId, value: bool) -> BoolExpr {
        match self {
            BoolExpr::Const(_) => self.clone(),
            BoolExpr::Var(id) => {
                if *id == signal {
                    BoolExpr::Const(value)
                } else {
                    self.clone()
                }
            }
            BoolExpr::Not(e) => e.assign(signal, value).not(),
            BoolExpr::And(es) => BoolExpr::and(es.iter().map(|e| e.assign(signal, value))),
            BoolExpr::Or(es) => BoolExpr::or(es.iter().map(|e| e.assign(signal, value))),
            BoolExpr::Xor(a, b) => BoolExpr::xor(a.assign(signal, value), b.assign(signal, value)),
        }
    }

    /// Renders with signal names; see [`BoolExpr`] docs for the syntax.
    pub fn display<'a>(&'a self, table: &'a SignalTable) -> DisplayBoolExpr<'a> {
        DisplayBoolExpr { expr: self, table }
    }

    /// Number of AST nodes (a rough size metric used by benchmarks).
    pub fn size(&self) -> usize {
        match self {
            BoolExpr::Const(_) | BoolExpr::Var(_) => 1,
            BoolExpr::Not(e) => 1 + e.size(),
            BoolExpr::And(es) | BoolExpr::Or(es) => {
                1 + es.iter().map(BoolExpr::size).sum::<usize>()
            }
            BoolExpr::Xor(a, b) => 1 + a.size() + b.size(),
        }
    }
}

impl fmt::Debug for BoolExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoolExpr::Const(b) => write!(f, "{b}"),
            BoolExpr::Var(id) => write!(f, "{id:?}"),
            BoolExpr::Not(e) => write!(f, "!{e:?}"),
            BoolExpr::And(es) => {
                write!(f, "(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, " & ")?;
                    }
                    write!(f, "{e:?}")?;
                }
                write!(f, ")")
            }
            BoolExpr::Or(es) => {
                write!(f, "(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, " | ")?;
                    }
                    write!(f, "{e:?}")?;
                }
                write!(f, ")")
            }
            BoolExpr::Xor(a, b) => write!(f, "({a:?} ^ {b:?})"),
        }
    }
}

/// Displays a [`BoolExpr`] with signal names; created by
/// [`BoolExpr::display`].
pub struct DisplayBoolExpr<'a> {
    expr: &'a BoolExpr,
    table: &'a SignalTable,
}

impl DisplayBoolExpr<'_> {
    fn fmt_prec(&self, e: &BoolExpr, prec: u8, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // precedence: Or=1, Xor=2, And=3, Not/atom=4
        let my = match e {
            BoolExpr::Or(_) => 1,
            BoolExpr::Xor(..) => 2,
            BoolExpr::And(_) => 3,
            _ => 4,
        };
        let parens = my < prec;
        if parens {
            write!(f, "(")?;
        }
        match e {
            BoolExpr::Const(b) => write!(f, "{}", if *b { "true" } else { "false" })?,
            BoolExpr::Var(id) => write!(f, "{}", self.table.name(*id))?,
            BoolExpr::Not(inner) => {
                write!(f, "!")?;
                self.fmt_prec(inner, 4, f)?;
            }
            BoolExpr::And(es) => {
                for (i, part) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, " & ")?;
                    }
                    self.fmt_prec(part, 4, f)?;
                }
            }
            BoolExpr::Or(es) => {
                for (i, part) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, " | ")?;
                    }
                    self.fmt_prec(part, 2, f)?;
                }
            }
            BoolExpr::Xor(a, b) => {
                self.fmt_prec(a, 3, f)?;
                write!(f, " ^ ")?;
                self.fmt_prec(b, 3, f)?;
            }
        }
        if parens {
            write!(f, ")")?;
        }
        Ok(())
    }
}

impl fmt::Display for DisplayBoolExpr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_prec(self.expr, 0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sigs() -> (SignalTable, SignalId, SignalId, SignalId) {
        let mut t = SignalTable::new();
        let a = t.intern("a");
        let b = t.intern("b");
        let c = t.intern("c");
        (t, a, b, c)
    }

    #[test]
    fn constant_folding() {
        let (_t, a, ..) = sigs();
        assert_eq!(
            BoolExpr::and([BoolExpr::tt(), BoolExpr::var(a)]),
            BoolExpr::var(a)
        );
        assert_eq!(
            BoolExpr::and([BoolExpr::ff(), BoolExpr::var(a)]),
            BoolExpr::ff()
        );
        assert_eq!(BoolExpr::or([BoolExpr::ff()]), BoolExpr::ff());
        assert_eq!(
            BoolExpr::or([BoolExpr::tt(), BoolExpr::var(a)]),
            BoolExpr::tt()
        );
        assert_eq!(BoolExpr::var(a).not().not(), BoolExpr::var(a));
        assert_eq!(
            BoolExpr::xor(BoolExpr::tt(), BoolExpr::var(a)),
            BoolExpr::var(a).not()
        );
    }

    #[test]
    fn and_flattens() {
        let (_t, a, b, c) = sigs();
        let nested = BoolExpr::and([
            BoolExpr::and([BoolExpr::var(a), BoolExpr::var(b)]),
            BoolExpr::var(c),
        ]);
        match nested {
            BoolExpr::And(parts) => assert_eq!(parts.len(), 3),
            other => panic!("expected flattened And, got {other:?}"),
        }
    }

    #[test]
    fn eval_matches_semantics() {
        let (t, a, b, c) = sigs();
        let e = BoolExpr::or([
            BoolExpr::and([BoolExpr::var(a), BoolExpr::var(b).not()]),
            BoolExpr::xor(BoolExpr::var(b), BoolExpr::var(c)),
        ]);
        for bits in 0..8u64 {
            let mut v = Valuation::all_false(t.len());
            v.assign_key(&[a, b, c], bits);
            let (va, vb, vc) = (v.get(a), v.get(b), v.get(c));
            assert_eq!(e.eval(&v), (va && !vb) || (vb ^ vc));
        }
    }

    #[test]
    fn implies_and_iff_desugar() {
        let (t, a, b, _c) = sigs();
        let imp = BoolExpr::implies(BoolExpr::var(a), BoolExpr::var(b));
        let iff = BoolExpr::iff(BoolExpr::var(a), BoolExpr::var(b));
        for bits in 0..4u64 {
            let mut v = Valuation::all_false(t.len());
            v.assign_key(&[a, b], bits);
            assert_eq!(imp.eval(&v), !v.get(a) | v.get(b));
            assert_eq!(iff.eval(&v), v.get(a) == v.get(b));
        }
    }

    #[test]
    fn support_and_assign() {
        let (_t, a, b, c) = sigs();
        let e = BoolExpr::and([
            BoolExpr::var(a),
            BoolExpr::or([BoolExpr::var(b), BoolExpr::var(c)]),
        ]);
        assert_eq!(e.support().into_iter().collect::<Vec<_>>(), vec![a, b, c]);
        let e2 = e.assign(a, true);
        assert_eq!(e2.support().into_iter().collect::<Vec<_>>(), vec![b, c]);
        assert_eq!(e.assign(a, false), BoolExpr::ff());
    }

    #[test]
    fn display_respects_precedence() {
        let (t, a, b, c) = sigs();
        let e = BoolExpr::and([
            BoolExpr::or([BoolExpr::var(a), BoolExpr::var(b)]),
            BoolExpr::var(c).not(),
        ]);
        assert_eq!(e.display(&t).to_string(), "(a | b) & !c");
    }
}
