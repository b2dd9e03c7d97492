//! CNF formulas and a Tseitin gate builder.
//!
//! The bounded-refutation encoder ([`crate::bmc`]) lowers every circuit
//! gate and automaton constraint into clauses through the helpers here,
//! handing them to the [`Solver`](crate::Solver) in batches: the shared
//! base encoding first, then one batch per candidate query.

use std::fmt;

/// A propositional variable, identified by a dense index.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub(crate) u32);

impl Var {
    /// The variable's dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A literal: a variable with a polarity, packed as `var << 1 | negated`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SatLit(u32);

impl SatLit {
    /// The positive literal of `v`.
    pub fn pos(v: Var) -> Self {
        SatLit(v.0 << 1)
    }

    /// The negative literal of `v`.
    pub fn neg(v: Var) -> Self {
        SatLit(v.0 << 1 | 1)
    }

    /// `v` with the given polarity (`true` = positive).
    pub fn new(v: Var, positive: bool) -> Self {
        if positive {
            Self::pos(v)
        } else {
            Self::neg(v)
        }
    }

    /// The literal's variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Whether the literal is positive.
    pub fn is_pos(self) -> bool {
        self.0 & 1 == 0
    }

    /// The opposite literal over the same variable.
    pub fn negated(self) -> Self {
        SatLit(self.0 ^ 1)
    }

    /// The packed code (`var << 1 | negated`), the watch-list index.
    pub(crate) fn code(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for SatLit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_pos() {
            write!(f, "x{}", self.var().0)
        } else {
            write!(f, "!x{}", self.var().0)
        }
    }
}

/// A CNF under construction: a variable counter, a clause list, and
/// Tseitin helpers that introduce definition variables for gates.
///
/// Clauses are normalized on entry: duplicate literals are dropped and
/// tautological clauses (`l ∨ ¬l ∨ …`) are discarded. An *empty* clause is
/// recorded as-is and makes the formula trivially unsatisfiable.
#[derive(Default)]
pub struct Cnf {
    num_vars: u32,
    clauses: Vec<Vec<SatLit>>,
    /// Lazily created variable pinned true by a unit clause, backing
    /// [`Cnf::lit_true`] (gates over constants reduce to it).
    const_true: Option<SatLit>,
}

impl Cnf {
    /// An empty formula (vacuously satisfiable).
    pub fn new() -> Self {
        Cnf::default()
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.num_vars);
        self.num_vars += 1;
        v
    }

    /// Number of variables allocated so far.
    pub fn num_vars(&self) -> usize {
        self.num_vars as usize
    }

    /// The recorded clauses.
    pub fn clauses(&self) -> &[Vec<SatLit>] {
        &self.clauses
    }

    /// Consumes the builder into `(num_vars, clauses)` for the solver.
    pub(crate) fn into_parts(self) -> (u32, Vec<Vec<SatLit>>) {
        (self.num_vars, self.clauses)
    }

    /// Removes and returns the clauses recorded so far, keeping the
    /// variable counter and the constant-true literal: an incremental
    /// encoder hands each batch to a live [`Solver`](crate::Solver) and
    /// goes on allocating variables where the batch left off.
    pub(crate) fn take_clauses(&mut self) -> Vec<Vec<SatLit>> {
        std::mem::take(&mut self.clauses)
    }

    /// Adds a clause (a disjunction of literals). Duplicates are removed;
    /// tautologies are dropped; an empty clause is kept (unsatisfiable).
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = SatLit>) {
        let mut c: Vec<SatLit> = lits.into_iter().collect();
        c.sort_unstable();
        c.dedup();
        for w in c.windows(2) {
            if w[0].var() == w[1].var() {
                return; // l and !l in one clause: tautology
            }
        }
        self.clauses.push(c);
    }

    /// A literal that is always true (created on first use).
    pub fn lit_true(&mut self) -> SatLit {
        match self.const_true {
            Some(l) => l,
            None => {
                let l = SatLit::pos(self.new_var());
                self.add_clause([l]);
                self.const_true = Some(l);
                l
            }
        }
    }

    /// A literal that is always false.
    pub fn lit_false(&mut self) -> SatLit {
        self.lit_true().negated()
    }

    /// Forces `a ↔ b`.
    pub fn equate(&mut self, a: SatLit, b: SatLit) {
        self.add_clause([a.negated(), b]);
        self.add_clause([a, b.negated()]);
    }

    /// Forces `cond → (a ↔ b)`.
    pub fn equate_if(&mut self, cond: SatLit, a: SatLit, b: SatLit) {
        self.add_clause([cond.negated(), a.negated(), b]);
        self.add_clause([cond.negated(), a, b.negated()]);
    }

    /// Tseitin AND: a fresh literal `g` with `g ↔ ⋀ lits`. The empty
    /// conjunction is true.
    pub fn lit_and(&mut self, lits: &[SatLit]) -> SatLit {
        match lits {
            [] => self.lit_true(),
            [l] => *l,
            _ => {
                let g = SatLit::pos(self.new_var());
                for &l in lits {
                    self.add_clause([g.negated(), l]);
                }
                let mut long: Vec<SatLit> = lits.iter().map(|l| l.negated()).collect();
                long.push(g);
                self.add_clause(long);
                g
            }
        }
    }

    /// Tseitin OR: a fresh literal `g` with `g ↔ ⋁ lits`. The empty
    /// disjunction is false.
    pub fn lit_or(&mut self, lits: &[SatLit]) -> SatLit {
        match lits {
            [] => self.lit_false(),
            [l] => *l,
            _ => {
                let g = SatLit::pos(self.new_var());
                for &l in lits {
                    self.add_clause([g, l.negated()]);
                }
                let mut long: Vec<SatLit> = lits.to_vec();
                long.push(g.negated());
                self.add_clause(long);
                g
            }
        }
    }

    /// Tseitin XOR: a fresh literal `g` with `g ↔ a ⊕ b`.
    pub fn lit_xor(&mut self, a: SatLit, b: SatLit) -> SatLit {
        let g = SatLit::pos(self.new_var());
        self.add_clause([g.negated(), a, b]);
        self.add_clause([g.negated(), a.negated(), b.negated()]);
        self.add_clause([g, a.negated(), b]);
        self.add_clause([g, a, b.negated()]);
        g
    }

    /// At most one of `lits` is true (pairwise encoding — the automaton
    /// state blocks this encodes are a handful of states wide).
    pub fn at_most_one(&mut self, lits: &[SatLit]) {
        for (i, &a) in lits.iter().enumerate() {
            for &b in &lits[i + 1..] {
                self.add_clause([a.negated(), b.negated()]);
            }
        }
    }

    /// Exactly one of `lits` is true.
    pub fn exactly_one(&mut self, lits: &[SatLit]) {
        self.add_clause(lits.iter().copied());
        self.at_most_one(lits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_packing_round_trips() {
        let v = Var(7);
        let p = SatLit::pos(v);
        let n = SatLit::neg(v);
        assert_eq!(p.var(), v);
        assert_eq!(n.var(), v);
        assert!(p.is_pos() && !n.is_pos());
        assert_eq!(p.negated(), n);
        assert_eq!(n.negated(), p);
        assert_eq!(SatLit::new(v, true), p);
        assert_eq!(SatLit::new(v, false), n);
    }

    #[test]
    fn tautologies_and_duplicates_normalized() {
        let mut cnf = Cnf::new();
        let a = SatLit::pos(cnf.new_var());
        let b = SatLit::pos(cnf.new_var());
        cnf.add_clause([a, a, b]);
        assert_eq!(cnf.clauses()[0].len(), 2, "duplicate dropped");
        cnf.add_clause([a, a.negated()]);
        assert_eq!(cnf.clauses().len(), 1, "tautology dropped");
    }

    #[test]
    fn const_true_is_memoized() {
        let mut cnf = Cnf::new();
        let t1 = cnf.lit_true();
        let t2 = cnf.lit_true();
        assert_eq!(t1, t2);
        assert_eq!(cnf.lit_false(), t1.negated());
        assert_eq!(cnf.clauses().len(), 1);
    }

    #[test]
    fn gate_helpers_collapse_trivial_arities() {
        let mut cnf = Cnf::new();
        let a = SatLit::pos(cnf.new_var());
        assert_eq!(cnf.lit_and(&[a]), a);
        assert_eq!(cnf.lit_or(&[a]), a);
        let t = cnf.lit_true();
        assert_eq!(cnf.lit_and(&[]), t);
        assert_eq!(cnf.lit_or(&[]), t.negated());
    }
}
