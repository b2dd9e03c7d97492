//! The LTL abstract syntax tree.

use dic_logic::{BoolExpr, SignalId, SignalTable};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// An LTL formula.
///
/// `Ltl` is an immutable handle (an `Arc` to the node), so cloning is O(1)
/// and formulas can be shared freely across specs, automata and reports.
/// Equality is structural.
///
/// Constructors apply cheap, local simplifications (constant folding,
/// flattening of `And`/`Or`, double-negation elimination, idempotence of
/// `G`/`F`) but do **not** canonicalize: the paper's gap-representation
/// algorithm depends on preserving the syntactic shape the designer wrote.
///
/// # Example
///
/// ```
/// use dic_logic::SignalTable;
/// use dic_ltl::Ltl;
///
/// let mut t = SignalTable::new();
/// let req = Ltl::atom(t.intern("req"));
/// let grant = Ltl::atom(t.intern("grant"));
/// let prop = Ltl::globally(Ltl::implies(req, Ltl::next(grant)));
/// assert_eq!(prop.display(&t).to_string(), "G(req -> X grant)");
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Ltl(Arc<LtlNode>);

/// The node type behind [`Ltl`].
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum LtlNode {
    /// Constant true.
    True,
    /// Constant false.
    False,
    /// An atomic proposition (a circuit signal).
    Atom(SignalId),
    /// Negation.
    Not(Ltl),
    /// N-ary conjunction (flattened).
    And(Vec<Ltl>),
    /// N-ary disjunction (flattened).
    Or(Vec<Ltl>),
    /// Next.
    Next(Ltl),
    /// Strong until.
    Until(Ltl, Ltl),
    /// Release (dual of until).
    Release(Ltl, Ltl),
    /// Globally (always).
    Globally(Ltl),
    /// Finally (eventually).
    Finally(Ltl),
}

impl Ltl {
    fn wrap(node: LtlNode) -> Self {
        Ltl(Arc::new(node))
    }

    /// The node behind this handle.
    pub fn node(&self) -> &LtlNode {
        &self.0
    }

    /// Constant true.
    pub fn tt() -> Self {
        Ltl::wrap(LtlNode::True)
    }

    /// Constant false.
    pub fn ff() -> Self {
        Ltl::wrap(LtlNode::False)
    }

    /// An atomic proposition.
    pub fn atom(signal: SignalId) -> Self {
        Ltl::wrap(LtlNode::Atom(signal))
    }

    /// A literal: `signal` or `!signal`.
    pub fn literal(signal: SignalId, positive: bool) -> Self {
        let a = Ltl::atom(signal);
        if positive {
            a
        } else {
            Ltl::not(a)
        }
    }

    /// Negation with double-negation and constant elimination.
    // Named after the connective, like the other smart constructors; this
    // is an associated function, not a method, so it cannot shadow
    // `std::ops::Not::not` at call sites.
    #[allow(clippy::should_implement_trait)]
    pub fn not(f: Ltl) -> Self {
        match f.node() {
            LtlNode::True => Ltl::ff(),
            LtlNode::False => Ltl::tt(),
            LtlNode::Not(inner) => inner.clone(),
            _ => Ltl::wrap(LtlNode::Not(f)),
        }
    }

    /// N-ary conjunction with flattening and constant folding.
    pub fn and<I: IntoIterator<Item = Ltl>>(parts: I) -> Self {
        let mut out: Vec<Ltl> = Vec::new();
        for p in parts {
            match p.node() {
                LtlNode::True => {}
                LtlNode::False => return Ltl::ff(),
                LtlNode::And(inner) => out.extend(inner.iter().cloned()),
                _ => out.push(p),
            }
        }
        match out.len() {
            0 => Ltl::tt(),
            1 => out.pop().expect("len checked"),
            _ => Ltl::wrap(LtlNode::And(out)),
        }
    }

    /// N-ary disjunction with flattening and constant folding.
    pub fn or<I: IntoIterator<Item = Ltl>>(parts: I) -> Self {
        let mut out: Vec<Ltl> = Vec::new();
        for p in parts {
            match p.node() {
                LtlNode::False => {}
                LtlNode::True => return Ltl::tt(),
                LtlNode::Or(inner) => out.extend(inner.iter().cloned()),
                _ => out.push(p),
            }
        }
        match out.len() {
            0 => Ltl::ff(),
            1 => out.pop().expect("len checked"),
            _ => Ltl::wrap(LtlNode::Or(out)),
        }
    }

    /// `a -> b`, kept as `!a | b`.
    pub fn implies(a: Ltl, b: Ltl) -> Self {
        Ltl::or([Ltl::not(a), b])
    }

    /// `a <-> b`, kept as `(a -> b) & (b -> a)`.
    pub fn iff(a: Ltl, b: Ltl) -> Self {
        Ltl::and([Ltl::implies(a.clone(), b.clone()), Ltl::implies(b, a)])
    }

    /// Next. `X true == true`, `X false == false`.
    pub fn next(f: Ltl) -> Self {
        match f.node() {
            LtlNode::True => Ltl::tt(),
            LtlNode::False => Ltl::ff(),
            _ => Ltl::wrap(LtlNode::Next(f)),
        }
    }

    /// `X^k f`.
    pub fn next_n(mut f: Ltl, k: usize) -> Self {
        for _ in 0..k {
            f = Ltl::next(f);
        }
        f
    }

    /// Strong until with constant folding.
    pub fn until(a: Ltl, b: Ltl) -> Self {
        match (a.node(), b.node()) {
            (_, LtlNode::True) => Ltl::tt(),
            (_, LtlNode::False) => Ltl::ff(),
            (LtlNode::False, _) => b,
            (LtlNode::True, _) => Ltl::finally(b),
            _ => Ltl::wrap(LtlNode::Until(a, b)),
        }
    }

    /// Release with constant folding.
    pub fn release(a: Ltl, b: Ltl) -> Self {
        match (a.node(), b.node()) {
            (_, LtlNode::True) => Ltl::tt(),
            (_, LtlNode::False) => Ltl::ff(),
            (LtlNode::True, _) => b,
            (LtlNode::False, _) => Ltl::globally(b),
            _ => Ltl::wrap(LtlNode::Release(a, b)),
        }
    }

    /// Weak until, desugared: `a W b == (a U b) | G a`.
    pub fn weak_until(a: Ltl, b: Ltl) -> Self {
        Ltl::or([Ltl::until(a.clone(), b), Ltl::globally(a)])
    }

    /// Globally with idempotence (`G G f == G f`) and constants.
    pub fn globally(f: Ltl) -> Self {
        match f.node() {
            LtlNode::True => Ltl::tt(),
            LtlNode::False => Ltl::ff(),
            LtlNode::Globally(_) => f,
            _ => Ltl::wrap(LtlNode::Globally(f)),
        }
    }

    /// Finally with idempotence and constants.
    pub fn finally(f: Ltl) -> Self {
        match f.node() {
            LtlNode::True => Ltl::tt(),
            LtlNode::False => Ltl::ff(),
            LtlNode::Finally(_) => f,
            _ => Ltl::wrap(LtlNode::Finally(f)),
        }
    }

    /// Lifts a Boolean expression into LTL (no temporal operators).
    pub fn from_bool_expr(e: &BoolExpr) -> Self {
        match e {
            BoolExpr::Const(true) => Ltl::tt(),
            BoolExpr::Const(false) => Ltl::ff(),
            BoolExpr::Var(id) => Ltl::atom(*id),
            BoolExpr::Not(inner) => Ltl::not(Ltl::from_bool_expr(inner)),
            BoolExpr::And(es) => Ltl::and(es.iter().map(Ltl::from_bool_expr)),
            BoolExpr::Or(es) => Ltl::or(es.iter().map(Ltl::from_bool_expr)),
            BoolExpr::Xor(a, b) => {
                let la = Ltl::from_bool_expr(a);
                let lb = Ltl::from_bool_expr(b);
                Ltl::or([
                    Ltl::and([la.clone(), Ltl::not(lb.clone())]),
                    Ltl::and([Ltl::not(la), lb]),
                ])
            }
        }
    }

    /// The set of atomic propositions (the paper's `AP_A` / `AP_R`).
    pub fn atoms(&self) -> BTreeSet<SignalId> {
        let mut out = BTreeSet::new();
        self.collect_atoms(&mut out);
        out
    }

    fn collect_atoms(&self, out: &mut BTreeSet<SignalId>) {
        match self.node() {
            LtlNode::True | LtlNode::False => {}
            LtlNode::Atom(id) => {
                out.insert(*id);
            }
            LtlNode::Not(f) | LtlNode::Next(f) | LtlNode::Globally(f) | LtlNode::Finally(f) => {
                f.collect_atoms(out)
            }
            LtlNode::And(fs) | LtlNode::Or(fs) => {
                for f in fs {
                    f.collect_atoms(out);
                }
            }
            LtlNode::Until(a, b) | LtlNode::Release(a, b) => {
                a.collect_atoms(out);
                b.collect_atoms(out);
            }
        }
    }

    /// Number of AST nodes.
    pub fn size(&self) -> usize {
        match self.node() {
            LtlNode::True | LtlNode::False | LtlNode::Atom(_) => 1,
            LtlNode::Not(f) | LtlNode::Next(f) | LtlNode::Globally(f) | LtlNode::Finally(f) => {
                1 + f.size()
            }
            LtlNode::And(fs) | LtlNode::Or(fs) => 1 + fs.iter().map(Ltl::size).sum::<usize>(),
            LtlNode::Until(a, b) | LtlNode::Release(a, b) => 1 + a.size() + b.size(),
        }
    }

    /// Whether the formula contains no temporal operator.
    pub fn is_boolean(&self) -> bool {
        match self.node() {
            LtlNode::True | LtlNode::False | LtlNode::Atom(_) => true,
            LtlNode::Not(f) => f.is_boolean(),
            LtlNode::And(fs) | LtlNode::Or(fs) => fs.iter().all(Ltl::is_boolean),
            LtlNode::Next(_)
            | LtlNode::Until(..)
            | LtlNode::Release(..)
            | LtlNode::Globally(_)
            | LtlNode::Finally(_) => false,
        }
    }

    /// Negation normal form: negations pushed down to atoms, keeping
    /// `G`/`F` as first-class operators.
    pub fn nnf(&self) -> Ltl {
        self.nnf_inner(false)
    }

    /// Negation normal form with `G`/`F` expanded into `R`/`U`
    /// (`G f == false R f`, `F f == true U f`) — the input form of the
    /// automaton translation.
    pub fn core_nnf(&self) -> Ltl {
        self.core(false)
    }

    fn nnf_inner(&self, neg: bool) -> Ltl {
        match self.node() {
            LtlNode::True => {
                if neg {
                    Ltl::ff()
                } else {
                    Ltl::tt()
                }
            }
            LtlNode::False => {
                if neg {
                    Ltl::tt()
                } else {
                    Ltl::ff()
                }
            }
            LtlNode::Atom(id) => Ltl::literal(*id, !neg),
            LtlNode::Not(f) => f.nnf_inner(!neg),
            LtlNode::And(fs) => {
                let parts = fs.iter().map(|f| f.nnf_inner(neg));
                if neg {
                    Ltl::or(parts)
                } else {
                    Ltl::and(parts)
                }
            }
            LtlNode::Or(fs) => {
                let parts = fs.iter().map(|f| f.nnf_inner(neg));
                if neg {
                    Ltl::and(parts)
                } else {
                    Ltl::or(parts)
                }
            }
            LtlNode::Next(f) => Ltl::next(f.nnf_inner(neg)),
            LtlNode::Until(a, b) => {
                let na = a.nnf_inner(neg);
                let nb = b.nnf_inner(neg);
                if neg {
                    Ltl::release(na, nb)
                } else {
                    Ltl::until(na, nb)
                }
            }
            LtlNode::Release(a, b) => {
                let na = a.nnf_inner(neg);
                let nb = b.nnf_inner(neg);
                if neg {
                    Ltl::until(na, nb)
                } else {
                    Ltl::release(na, nb)
                }
            }
            LtlNode::Globally(f) => {
                let inner = f.nnf_inner(neg);
                if neg {
                    Ltl::finally(inner)
                } else {
                    Ltl::globally(inner)
                }
            }
            LtlNode::Finally(f) => {
                let inner = f.nnf_inner(neg);
                if neg {
                    Ltl::globally(inner)
                } else {
                    Ltl::finally(inner)
                }
            }
        }
    }

    /// Until without the `true U b == F b` sugar (used by `core_nnf`, whose
    /// whole point is to *remove* `G`/`F`).
    fn until_raw(a: Ltl, b: Ltl) -> Ltl {
        match (a.node(), b.node()) {
            (_, LtlNode::True) => Ltl::tt(),
            (_, LtlNode::False) => Ltl::ff(),
            (LtlNode::False, _) => b,
            _ => Ltl::wrap(LtlNode::Until(a, b)),
        }
    }

    /// Release without the `false R b == G b` sugar.
    fn release_raw(a: Ltl, b: Ltl) -> Ltl {
        match (a.node(), b.node()) {
            (_, LtlNode::True) => Ltl::tt(),
            (_, LtlNode::False) => Ltl::ff(),
            (LtlNode::True, _) => b,
            _ => Ltl::wrap(LtlNode::Release(a, b)),
        }
    }

    fn core(&self, neg: bool) -> Ltl {
        match self.node() {
            LtlNode::Globally(f) => {
                let inner = f.core(neg);
                if neg {
                    Ltl::until_raw(Ltl::tt(), inner)
                } else {
                    Ltl::release_raw(Ltl::ff(), inner)
                }
            }
            LtlNode::Finally(f) => {
                let inner = f.core(neg);
                if neg {
                    Ltl::release_raw(Ltl::ff(), inner)
                } else {
                    Ltl::until_raw(Ltl::tt(), inner)
                }
            }
            LtlNode::Not(f) => f.core(!neg),
            LtlNode::And(fs) => {
                let parts = fs.iter().map(|f| f.core(neg));
                if neg {
                    Ltl::or(parts)
                } else {
                    Ltl::and(parts)
                }
            }
            LtlNode::Or(fs) => {
                let parts = fs.iter().map(|f| f.core(neg));
                if neg {
                    Ltl::and(parts)
                } else {
                    Ltl::or(parts)
                }
            }
            LtlNode::Next(f) => Ltl::next(f.core(neg)),
            LtlNode::Until(a, b) => {
                let ca = a.core(neg);
                let cb = b.core(neg);
                if neg {
                    Ltl::release_raw(ca, cb)
                } else {
                    Ltl::until_raw(ca, cb)
                }
            }
            LtlNode::Release(a, b) => {
                let ca = a.core(neg);
                let cb = b.core(neg);
                if neg {
                    Ltl::until_raw(ca, cb)
                } else {
                    Ltl::release_raw(ca, cb)
                }
            }
            _ => self.nnf_inner(neg),
        }
    }

    /// Renders the formula with signal names.
    pub fn display<'a>(&'a self, table: &'a SignalTable) -> DisplayLtl<'a> {
        DisplayLtl { f: self, table }
    }
}

impl fmt::Debug for Ltl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.node() {
            LtlNode::True => write!(f, "true"),
            LtlNode::False => write!(f, "false"),
            LtlNode::Atom(id) => write!(f, "{id:?}"),
            LtlNode::Not(g) => write!(f, "!{g:?}"),
            LtlNode::And(gs) => {
                write!(f, "(")?;
                for (i, g) in gs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " & ")?;
                    }
                    write!(f, "{g:?}")?;
                }
                write!(f, ")")
            }
            LtlNode::Or(gs) => {
                write!(f, "(")?;
                for (i, g) in gs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " | ")?;
                    }
                    write!(f, "{g:?}")?;
                }
                write!(f, ")")
            }
            LtlNode::Next(g) => write!(f, "X{g:?}"),
            LtlNode::Until(a, b) => write!(f, "({a:?} U {b:?})"),
            LtlNode::Release(a, b) => write!(f, "({a:?} R {b:?})"),
            LtlNode::Globally(g) => write!(f, "G{g:?}"),
            LtlNode::Finally(g) => write!(f, "F{g:?}"),
        }
    }
}

/// Displays an [`Ltl`] with signal names; created by [`Ltl::display`].
///
/// The output reparses to an equal formula (tested); precedence follows the
/// parser: `U`/`R` bind tighter than `&`, which binds tighter than `|`.
pub struct DisplayLtl<'a> {
    f: &'a Ltl,
    table: &'a SignalTable,
}

impl DisplayLtl<'_> {
    /// Recognizes `!a | b` (a desugared implication) so it can be printed
    /// back as `a -> b`, the way the paper writes properties.
    fn as_implication(f: &Ltl) -> Option<(&Ltl, &Ltl)> {
        if let LtlNode::Or(gs) = f.node() {
            if gs.len() == 2 {
                if let LtlNode::Not(ant) = gs[0].node() {
                    return Some((ant, &gs[1]));
                }
            }
        }
        None
    }

    // precedence: Imp=1, Or=2, And=3, Until/Release=4, unary=5, atom=6
    fn prec(f: &Ltl) -> u8 {
        match f.node() {
            LtlNode::Or(_) => {
                if Self::as_implication(f).is_some() {
                    1
                } else {
                    2
                }
            }
            LtlNode::And(_) => 3,
            LtlNode::Until(..) | LtlNode::Release(..) => 4,
            LtlNode::Not(_) | LtlNode::Next(_) | LtlNode::Globally(_) | LtlNode::Finally(_) => 5,
            LtlNode::True | LtlNode::False | LtlNode::Atom(_) => 6,
        }
    }

    fn fmt_prec(&self, f: &Ltl, min: u8, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        let my = Self::prec(f);
        let parens = my < min;
        if parens {
            write!(out, "(")?;
        }
        match f.node() {
            LtlNode::True => write!(out, "true")?,
            LtlNode::False => write!(out, "false")?,
            LtlNode::Atom(id) => write!(out, "{}", self.table.name(*id))?,
            LtlNode::Not(g) => {
                write!(out, "!")?;
                self.fmt_prec(g, 5, out)?;
            }
            LtlNode::Next(g) => {
                write!(out, "X")?;
                self.fmt_unary_spaced(g, out)?;
            }
            LtlNode::Globally(g) => {
                write!(out, "G")?;
                self.fmt_unary_spaced(g, out)?;
            }
            LtlNode::Finally(g) => {
                write!(out, "F")?;
                self.fmt_unary_spaced(g, out)?;
            }
            LtlNode::And(gs) => {
                for (i, g) in gs.iter().enumerate() {
                    if i > 0 {
                        write!(out, " & ")?;
                    }
                    self.fmt_prec(g, 4, out)?;
                }
            }
            LtlNode::Or(_) if Self::as_implication(f).is_some() => {
                let (ant, cons) = Self::as_implication(f).expect("checked");
                self.fmt_prec(ant, 2, out)?;
                write!(out, " -> ")?;
                self.fmt_prec(cons, 1, out)?; // right associative
            }
            LtlNode::Or(gs) => {
                for (i, g) in gs.iter().enumerate() {
                    if i > 0 {
                        write!(out, " | ")?;
                    }
                    self.fmt_prec(g, 3, out)?;
                }
            }
            LtlNode::Until(a, b) => {
                self.fmt_prec(a, 5, out)?;
                write!(out, " U ")?;
                self.fmt_prec(b, 4, out)?; // right associative
            }
            LtlNode::Release(a, b) => {
                self.fmt_prec(a, 5, out)?;
                write!(out, " R ")?;
                self.fmt_prec(b, 4, out)?;
            }
        }
        if parens {
            write!(out, ")")?;
        }
        Ok(())
    }

    /// Argument of `X`/`G`/`F`: parenthesized if weaker-binding, otherwise
    /// separated by a space so stacked operators (`G F p`, `X !q`) do not
    /// lex back as a single identifier.
    fn fmt_unary_spaced(&self, g: &Ltl, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        if Self::prec(g) >= 5 {
            write!(out, " ")?;
            self.fmt_prec(g, 5, out)
        } else {
            write!(out, "(")?;
            self.fmt_prec(g, 0, out)?;
            write!(out, ")")
        }
    }
}

impl fmt::Display for DisplayLtl<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_prec(self.f, 0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sigs() -> (SignalTable, SignalId, SignalId, SignalId) {
        let mut t = SignalTable::new();
        let p = t.intern("p");
        let q = t.intern("q");
        let r = t.intern("r");
        (t, p, q, r)
    }

    #[test]
    fn smart_constructors_fold_constants() {
        let (_t, p, ..) = sigs();
        let a = Ltl::atom(p);
        assert_eq!(Ltl::and([Ltl::tt(), a.clone()]), a);
        assert_eq!(Ltl::or([Ltl::ff(), a.clone()]), a);
        assert_eq!(Ltl::until(a.clone(), Ltl::ff()), Ltl::ff());
        assert_eq!(Ltl::until(Ltl::ff(), a.clone()), a);
        assert_eq!(Ltl::until(Ltl::tt(), a.clone()), Ltl::finally(a.clone()));
        assert_eq!(Ltl::release(Ltl::tt(), a.clone()), a);
        assert_eq!(Ltl::release(Ltl::ff(), a.clone()), Ltl::globally(a.clone()));
        assert_eq!(
            Ltl::globally(Ltl::globally(a.clone())),
            Ltl::globally(a.clone())
        );
        assert_eq!(Ltl::not(Ltl::not(a.clone())), a);
        assert_eq!(Ltl::next(Ltl::tt()), Ltl::tt());
    }

    #[test]
    fn nnf_pushes_negations() {
        let (t, p, q, _r) = sigs();
        let f = Ltl::not(Ltl::until(Ltl::atom(p), Ltl::atom(q)));
        let n = f.nnf();
        assert_eq!(n.display(&t).to_string(), "!p R !q");
        let g = Ltl::not(Ltl::globally(Ltl::atom(p)));
        assert_eq!(g.nnf().display(&t).to_string(), "F !p");
    }

    #[test]
    fn core_nnf_removes_g_f() {
        let (t, p, ..) = sigs();
        let f = Ltl::globally(Ltl::finally(Ltl::atom(p)));
        let c = f.core_nnf();
        // U/R are right-associative, so the parens are redundant.
        assert_eq!(c.display(&t).to_string(), "false R true U p");
        // Negated: !GFp == FG!p == true U (false R !p)
        let n = Ltl::not(f).core_nnf();
        assert_eq!(n.display(&t).to_string(), "true U false R !p");
    }

    #[test]
    fn atoms_and_size() {
        let (_t, p, q, r) = sigs();
        let f = Ltl::globally(Ltl::implies(
            Ltl::atom(p),
            Ltl::until(Ltl::atom(q), Ltl::atom(r)),
        ));
        let atoms: Vec<_> = f.atoms().into_iter().collect();
        assert_eq!(atoms, vec![p, q, r]);
        assert!(f.size() >= 6);
        assert!(!f.is_boolean());
        assert!(Ltl::and([Ltl::atom(p), Ltl::atom(q)]).is_boolean());
    }

    #[test]
    fn weak_until_desugars() {
        let (t, p, q, _r) = sigs();
        let w = Ltl::weak_until(Ltl::atom(p), Ltl::atom(q));
        assert_eq!(w.display(&t).to_string(), "p U q | G p");
    }

    #[test]
    fn paper_property_displays() {
        let mut t = SignalTable::new();
        let wait = t.intern("wait");
        let r1 = t.intern("r1");
        let r2 = t.intern("r2");
        let d1 = t.intern("d1");
        let d2 = t.intern("d2");
        // A = G(!wait & r1 & X(r1 U r2) -> X(!d2 U d1))
        let a = Ltl::globally(Ltl::implies(
            Ltl::and([
                Ltl::not(Ltl::atom(wait)),
                Ltl::atom(r1),
                Ltl::next(Ltl::until(Ltl::atom(r1), Ltl::atom(r2))),
            ]),
            Ltl::next(Ltl::until(Ltl::not(Ltl::atom(d2)), Ltl::atom(d1))),
        ));
        let s = a.display(&t).to_string();
        assert_eq!(s, "G(!wait & r1 & X(r1 U r2) -> X(!d2 U d1))");
    }
}
