//! Temporal cubes: bounded conjunctions of `X^k literal` terms.
//!
//! The "uncovered terms" `UM` computed by step 2(a) of the paper's
//! Algorithm 1 are exactly of this shape, e.g.
//! `r1 & X r2 & X X !hit & X d1`. A temporal cube of depth `d` is a Boolean
//! cube over *positioned* variables `(signal, time)` with `time <= d`, which
//! lets us reuse the BDD engine for the universal quantification of
//! step 2(b): `∀v. Φ` treats every `(v, t)` instance as an independent
//! Boolean variable, which is sound for bounded formulas.

use crate::formula::Ltl;
use crate::semantics::LassoWord;
use dic_logic::{Bdd, BddManager, Cube, Lit, SignalId, SignalTable};
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// A positioned literal: `X^time literal`.
pub type TimedLit = (usize, Lit);

/// A conjunction of positioned literals, all distinct and consistent.
///
/// The empty cube is the constant `true`.
///
/// # Example
///
/// ```
/// use dic_logic::{Lit, SignalTable};
/// use dic_ltl::TemporalCube;
///
/// let mut t = SignalTable::new();
/// let r1 = t.intern("r1");
/// let hit = t.intern("hit");
/// let c = TemporalCube::from_lits([(0, Lit::pos(r1)), (2, Lit::neg(hit))])
///     .expect("consistent");
/// assert_eq!(c.display(&t).to_string(), "r1 & XX!hit");
/// assert_eq!(c.depth(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TemporalCube {
    /// Sorted by (time, signal); at most one literal per (time, signal).
    lits: Vec<TimedLit>,
}

impl TemporalCube {
    /// The empty cube (constant true).
    pub fn top() -> Self {
        TemporalCube::default()
    }

    /// Builds a cube from positioned literals; `None` on contradiction.
    pub fn from_lits<I>(lits: I) -> Option<Self>
    where
        I: IntoIterator<Item = TimedLit>,
    {
        let mut v: Vec<TimedLit> = lits.into_iter().collect();
        v.sort_by_key(|(t, l)| (*t, l.signal(), l.polarity()));
        v.dedup();
        for w in v.windows(2) {
            if w[0].0 == w[1].0 && w[0].1.signal() == w[1].1.signal() {
                return None;
            }
        }
        Some(TemporalCube { lits: v })
    }

    /// Captures the first `depth + 1` positions of a word as a full cube
    /// over `signals`.
    pub fn from_word_prefix(word: &LassoWord, depth: usize, signals: &[SignalId]) -> Self {
        let mut lits = Vec::with_capacity((depth + 1) * signals.len());
        for t in 0..=depth {
            let v = word.at(t);
            for &s in signals {
                lits.push((t, Lit::new(s, v.get(s))));
            }
        }
        TemporalCube { lits }
    }

    /// The positioned literals, sorted by (time, signal).
    pub fn lits(&self) -> &[TimedLit] {
        &self.lits
    }

    /// Number of literals.
    pub fn len(&self) -> usize {
        self.lits.len()
    }

    /// Whether this is the constant-true cube.
    pub fn is_empty(&self) -> bool {
        self.lits.is_empty()
    }

    /// Largest time offset mentioned (0 for the empty cube).
    pub fn depth(&self) -> usize {
        self.lits.iter().map(|(t, _)| *t).max().unwrap_or(0)
    }

    /// The set of signals mentioned at any offset.
    pub fn signals(&self) -> BTreeSet<SignalId> {
        self.lits.iter().map(|(_, l)| l.signal()).collect()
    }

    /// The cube without the literal at `(time, signal)`, if present.
    pub fn without(&self, time: usize, signal: SignalId) -> Self {
        TemporalCube {
            lits: self
                .lits
                .iter()
                .copied()
                .filter(|(t, l)| !(*t == time && l.signal() == signal))
                .collect(),
        }
    }

    /// Conjoins a positioned literal; `None` on contradiction.
    pub fn and_lit(&self, time: usize, lit: Lit) -> Option<Self> {
        let mut lits = self.lits.clone();
        for (t, l) in &lits {
            if *t == time && l.signal() == lit.signal() {
                return if l.polarity() == lit.polarity() {
                    Some(self.clone())
                } else {
                    None
                };
            }
        }
        lits.push((time, lit));
        TemporalCube::from_lits(lits)
    }

    /// Whether the cube holds at position `offset` of the word.
    pub fn holds_on(&self, word: &LassoWord, offset: usize) -> bool {
        self.lits.iter().all(|(t, l)| l.eval(word.at(offset + t)))
    }

    /// Converts to an LTL formula `⋀ X^t lit`.
    pub fn to_ltl(&self) -> Ltl {
        Ltl::and(
            self.lits
                .iter()
                .map(|(t, l)| Ltl::next_n(Ltl::literal(l.signal(), l.polarity()), *t)),
        )
    }

    /// Renders the cube with signal names (`r1 & XX!hit`).
    pub fn display<'a>(&'a self, table: &'a SignalTable) -> DisplayTemporalCube<'a> {
        DisplayTemporalCube { cube: self, table }
    }
}

impl fmt::Debug for TemporalCube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.lits.is_empty() {
            return write!(f, "true");
        }
        for (i, (t, l)) in self.lits.iter().enumerate() {
            if i > 0 {
                write!(f, " & ")?;
            }
            for _ in 0..*t {
                write!(f, "X")?;
            }
            write!(f, "{l:?}")?;
        }
        Ok(())
    }
}

/// Displays a [`TemporalCube`]; created by [`TemporalCube::display`].
pub struct DisplayTemporalCube<'a> {
    cube: &'a TemporalCube,
    table: &'a SignalTable,
}

impl fmt::Display for DisplayTemporalCube<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cube.is_empty() {
            return write!(f, "true");
        }
        for (i, (t, l)) in self.cube.lits().iter().enumerate() {
            if i > 0 {
                write!(f, " & ")?;
            }
            for _ in 0..*t {
                write!(f, "X")?;
            }
            write!(f, "{}", l.display(self.table))?;
        }
        Ok(())
    }
}

/// A mapping between positioned `(signal, time)` pairs and fresh BDD signals.
///
/// Bounded temporal formulas are Boolean functions over positioned
/// variables; this table makes that identification explicit so the BDD
/// engine can quantify, simplify and re-extract cubes.
#[derive(Debug, Default)]
pub struct PositionedVars {
    table: SignalTable,
    fwd: HashMap<(SignalId, usize), SignalId>,
    back: HashMap<SignalId, (SignalId, usize)>,
}

impl PositionedVars {
    /// Creates an empty mapping.
    pub fn new() -> Self {
        Self::default()
    }

    /// The positioned variable for `(signal, time)`, created on first use.
    pub fn var(&mut self, signal: SignalId, time: usize) -> SignalId {
        if let Some(&v) = self.fwd.get(&(signal, time)) {
            return v;
        }
        let v = self.table.intern(&format!("@{}_{}", signal.index(), time));
        self.fwd.insert((signal, time), v);
        self.back.insert(v, (signal, time));
        v
    }

    /// Reverse lookup.
    pub fn origin(&self, var: SignalId) -> Option<(SignalId, usize)> {
        self.back.get(&var).copied()
    }

    /// All positioned variables registered for `signal`.
    pub fn vars_of_signal(&self, signal: SignalId) -> Vec<SignalId> {
        let mut out: Vec<_> = self
            .fwd
            .iter()
            .filter(|((s, _), _)| *s == signal)
            .map(|(_, &v)| v)
            .collect();
        out.sort();
        out
    }

    /// Builds the BDD of a disjunction of temporal cubes.
    pub fn dnf_to_bdd(&mut self, man: &mut BddManager, cubes: &[TemporalCube]) -> Bdd {
        let mut acc = Bdd::FALSE;
        for cube in cubes {
            let mut c = Bdd::TRUE;
            for (t, l) in cube.lits() {
                let v = self.var(l.signal(), *t);
                let bv = man.var_for_signal(v);
                let lit = if l.polarity() { bv } else { man.not(bv) };
                c = man.and(c, lit);
            }
            acc = man.or(acc, c);
        }
        acc
    }

    /// Extracts an irredundant DNF of temporal cubes from a BDD over
    /// positioned variables.
    ///
    /// # Panics
    ///
    /// Panics if the BDD mentions a variable not registered in this mapping.
    pub fn bdd_to_dnf(&self, man: &mut BddManager, f: Bdd) -> Vec<TemporalCube> {
        let cover = man.cubes(f);
        cover
            .into_iter()
            .map(|c: Cube| {
                TemporalCube::from_lits(c.lits().iter().map(|l| {
                    let (sig, t) = self
                        .origin(l.signal())
                        .expect("BDD variable must be positioned");
                    (t, Lit::new(sig, l.polarity()))
                }))
                .expect("cover cubes are consistent")
            })
            .collect()
    }
}

/// Universally quantifies out all instances of `signals` from the
/// disjunction of `cubes`, returning the result as an irredundant DNF.
///
/// This is step 2(b) of Algorithm 1: positioned instances `(v, t)` are
/// treated as independent Boolean variables (sound for bounded formulas),
/// and `∀v. Φ = Φ[v:=0] ∧ Φ[v:=1]` is applied per instance via the BDD.
pub fn forall_eliminate(cubes: &[TemporalCube], signals: &BTreeSet<SignalId>) -> Vec<TemporalCube> {
    quantify_eliminate(cubes, signals, true)
}

/// Existentially quantifies out all instances of `signals`; the dual of
/// [`forall_eliminate`], useful for over-approximating a gap.
pub fn exists_eliminate(cubes: &[TemporalCube], signals: &BTreeSet<SignalId>) -> Vec<TemporalCube> {
    quantify_eliminate(cubes, signals, false)
}

fn quantify_eliminate(
    cubes: &[TemporalCube],
    signals: &BTreeSet<SignalId>,
    universal: bool,
) -> Vec<TemporalCube> {
    let mut man = BddManager::new();
    let mut pv = PositionedVars::new();
    let mut f = pv.dnf_to_bdd(&mut man, cubes);
    for &s in signals {
        for v in pv.vars_of_signal(s) {
            f = if universal {
                man.forall(f, v)
            } else {
                man.exists(f, v)
            };
        }
    }
    pv.bdd_to_dnf(&mut man, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dic_logic::Valuation;

    fn sigs() -> (SignalTable, SignalId, SignalId, SignalId) {
        let mut t = SignalTable::new();
        let a = t.intern("a");
        let b = t.intern("b");
        let c = t.intern("c");
        (t, a, b, c)
    }

    #[test]
    fn contradiction_detected_per_time() {
        let (_t, a, ..) = sigs();
        assert!(TemporalCube::from_lits([(0, Lit::pos(a)), (0, Lit::neg(a))]).is_none());
        // Same signal at different times is fine.
        assert!(TemporalCube::from_lits([(0, Lit::pos(a)), (1, Lit::neg(a))]).is_some());
    }

    #[test]
    fn to_ltl_matches_cube_semantics() {
        let (t, a, b, _c) = sigs();
        let cube = TemporalCube::from_lits([(0, Lit::pos(a)), (1, Lit::neg(b)), (2, Lit::pos(b))])
            .expect("consistent");
        let f = cube.to_ltl();
        // Build a word: a at 0; !b at 1; b at 2; loop.
        let mut s0 = Valuation::all_false(t.len());
        s0.set(a, true);
        let s1 = Valuation::all_false(t.len());
        let mut s2 = Valuation::all_false(t.len());
        s2.set(b, true);
        let w = LassoWord::new(vec![s0, s1, s2], 2).expect("word");
        assert!(cube.holds_on(&w, 0));
        assert!(f.holds_on(&w));
    }

    #[test]
    fn display_format() {
        let (t, a, b, _c) = sigs();
        let cube = TemporalCube::from_lits([(0, Lit::pos(a)), (2, Lit::neg(b))]).unwrap();
        assert_eq!(cube.display(&t).to_string(), "a & XX!b");
        assert_eq!(TemporalCube::top().display(&t).to_string(), "true");
    }

    #[test]
    fn forall_elimination_drops_unconstrained() {
        let (_t, a, b, c) = sigs();
        // Φ = (a & Xb) | (a & X!b): b is a "don't care" → ∀b.Φ = a
        let c1 = TemporalCube::from_lits([(0, Lit::pos(a)), (1, Lit::pos(b))]).unwrap();
        let c2 = TemporalCube::from_lits([(0, Lit::pos(a)), (1, Lit::neg(b))]).unwrap();
        let result = forall_eliminate(&[c1, c2], &BTreeSet::from([b]));
        assert_eq!(result.len(), 1);
        assert_eq!(
            result[0],
            TemporalCube::from_lits([(0, Lit::pos(a))]).unwrap()
        );
        let _ = c;
    }

    #[test]
    fn forall_elimination_kills_essential_vars() {
        let (_t, a, b, _c) = sigs();
        // Φ = a & Xb: ∀b.Φ = false (no cubes).
        let c1 = TemporalCube::from_lits([(0, Lit::pos(a)), (1, Lit::pos(b))]).unwrap();
        let result = forall_eliminate(&[c1], &BTreeSet::from([b]));
        assert!(result.is_empty());
    }

    #[test]
    fn exists_elimination_keeps_scenarios() {
        let (_t, a, b, _c) = sigs();
        let c1 = TemporalCube::from_lits([(0, Lit::pos(a)), (1, Lit::pos(b))]).unwrap();
        let result = exists_eliminate(&[c1], &BTreeSet::from([b]));
        assert_eq!(result.len(), 1);
        assert_eq!(
            result[0],
            TemporalCube::from_lits([(0, Lit::pos(a))]).unwrap()
        );
    }

    #[test]
    fn from_word_prefix_captures_values() {
        let (t, a, b, _c) = sigs();
        let mut s0 = Valuation::all_false(t.len());
        s0.set(a, true);
        let mut s1 = Valuation::all_false(t.len());
        s1.set(b, true);
        let w = LassoWord::new(vec![s0, s1], 1).expect("word");
        let cube = TemporalCube::from_word_prefix(&w, 1, &[a, b]);
        assert_eq!(cube.display(&t).to_string(), "a & !b & X!a & Xb");
    }

    #[test]
    fn and_lit_and_without() {
        let (_t, a, b, _c) = sigs();
        let cube = TemporalCube::from_lits([(0, Lit::pos(a))]).unwrap();
        let cube2 = cube.and_lit(1, Lit::neg(b)).unwrap();
        assert_eq!(cube2.len(), 2);
        assert!(cube2.and_lit(1, Lit::pos(b)).is_none());
        assert_eq!(cube2.without(1, b), cube);
    }
}
