//! Literals and cubes (conjunctions of literals).

use crate::signal::{SignalId, SignalTable};
use crate::valuation::Valuation;
use std::fmt;

/// A signal literal: a signal or its negation.
///
/// # Example
///
/// ```
/// use dic_logic::{Lit, SignalTable};
///
/// let mut t = SignalTable::new();
/// let a = t.intern("a");
/// let l = Lit::neg(a);
/// assert_eq!(l.signal(), a);
/// assert!(!l.polarity());
/// assert_eq!(l.negated(), Lit::pos(a));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit {
    signal: SignalId,
    positive: bool,
}

impl Lit {
    /// The positive literal of `signal`.
    pub fn pos(signal: SignalId) -> Self {
        Lit {
            signal,
            positive: true,
        }
    }

    /// The negative literal of `signal`.
    pub fn neg(signal: SignalId) -> Self {
        Lit {
            signal,
            positive: false,
        }
    }

    /// A literal with explicit polarity.
    pub fn new(signal: SignalId, positive: bool) -> Self {
        Lit { signal, positive }
    }

    /// The underlying signal.
    pub fn signal(self) -> SignalId {
        self.signal
    }

    /// `true` for the positive literal, `false` for the negated one.
    pub fn polarity(self) -> bool {
        self.positive
    }

    /// The literal of the same signal with opposite polarity.
    pub fn negated(self) -> Self {
        Lit {
            signal: self.signal,
            positive: !self.positive,
        }
    }

    /// Evaluates the literal under `v`.
    pub fn eval(self, v: &Valuation) -> bool {
        v.get(self.signal) == self.positive
    }

    /// Renders the literal with its signal name (`a` or `!a`).
    pub fn display<'a>(&'a self, table: &'a SignalTable) -> DisplayLit<'a> {
        DisplayLit { lit: self, table }
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.positive {
            write!(f, "!")?;
        }
        write!(f, "{:?}", self.signal)
    }
}

/// Displays a [`Lit`] with its signal name; created by [`Lit::display`].
pub struct DisplayLit<'a> {
    lit: &'a Lit,
    table: &'a SignalTable,
}

impl fmt::Display for DisplayLit<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.lit.positive {
            write!(f, "!")?;
        }
        write!(f, "{}", self.table.name(self.lit.signal))
    }
}

/// A cube: a consistent conjunction of literals over distinct signals.
///
/// The empty cube is the constant *true*. Construction deduplicates literals
/// and rejects contradictions (`a ∧ ¬a`).
///
/// # Example
///
/// ```
/// use dic_logic::{Cube, Lit, SignalTable};
///
/// let mut t = SignalTable::new();
/// let a = t.intern("a");
/// let b = t.intern("b");
/// let c = Cube::from_lits([Lit::pos(a), Lit::neg(b)]).expect("consistent");
/// assert_eq!(c.len(), 2);
/// assert!(Cube::from_lits([Lit::pos(a), Lit::neg(a)]).is_none());
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cube {
    /// Sorted by signal, one literal per signal.
    lits: Vec<Lit>,
}

impl Cube {
    /// The empty cube (constant true).
    pub fn top() -> Self {
        Cube::default()
    }

    /// Builds a cube from literals, deduplicating; returns `None` on a
    /// contradiction.
    pub fn from_lits<I>(lits: I) -> Option<Self>
    where
        I: IntoIterator<Item = Lit>,
    {
        let mut v: Vec<Lit> = lits.into_iter().collect();
        v.sort();
        v.dedup();
        for w in v.windows(2) {
            if w[0].signal() == w[1].signal() {
                return None; // same signal, both polarities
            }
        }
        Some(Cube { lits: v })
    }

    /// The literals, sorted by signal.
    pub fn lits(&self) -> &[Lit] {
        &self.lits
    }

    /// Number of literals.
    pub fn len(&self) -> usize {
        self.lits.len()
    }

    /// Whether this is the empty cube (constant true).
    pub fn is_empty(&self) -> bool {
        self.lits.is_empty()
    }

    /// The polarity of `signal` in this cube, if constrained.
    pub fn polarity_of(&self, signal: SignalId) -> Option<bool> {
        self.lits
            .binary_search_by_key(&signal, |l| l.signal())
            .ok()
            .map(|i| self.lits[i].polarity())
    }

    /// Conjoins another literal; returns `None` on contradiction.
    pub fn and_lit(&self, lit: Lit) -> Option<Self> {
        match self.polarity_of(lit.signal()) {
            Some(p) if p == lit.polarity() => Some(self.clone()),
            Some(_) => None,
            None => {
                let mut lits = self.lits.clone();
                let pos = lits
                    .binary_search_by_key(&lit.signal(), |l| l.signal())
                    .unwrap_err();
                lits.insert(pos, lit);
                Some(Cube { lits })
            }
        }
    }

    /// Conjoins two cubes; returns `None` on contradiction.
    pub fn and(&self, other: &Cube) -> Option<Self> {
        let mut out = self.clone();
        for &l in other.lits() {
            out = out.and_lit(l)?;
        }
        Some(out)
    }

    /// Removes the literal on `signal` if present.
    pub fn without(&self, signal: SignalId) -> Self {
        Cube {
            lits: self
                .lits
                .iter()
                .copied()
                .filter(|l| l.signal() != signal)
                .collect(),
        }
    }

    /// Evaluates the cube under `v`.
    pub fn eval(&self, v: &Valuation) -> bool {
        self.lits.iter().all(|l| l.eval(v))
    }

    /// Whether every assignment satisfying `self` satisfies `other`
    /// (syntactic subsumption: `other ⊆ self` as literal sets).
    pub fn implies(&self, other: &Cube) -> bool {
        other
            .lits
            .iter()
            .all(|l| self.polarity_of(l.signal()) == Some(l.polarity()))
    }

    /// Renders the cube as `a & !b & c` (or `true` when empty).
    pub fn display<'a>(&'a self, table: &'a SignalTable) -> DisplayCube<'a> {
        DisplayCube { cube: self, table }
    }
}

impl FromIterator<Lit> for Option<Cube> {
    fn from_iter<I: IntoIterator<Item = Lit>>(iter: I) -> Self {
        Cube::from_lits(iter)
    }
}

impl fmt::Debug for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.lits.is_empty() {
            return write!(f, "true");
        }
        let mut first = true;
        for l in &self.lits {
            if !first {
                write!(f, " & ")?;
            }
            first = false;
            write!(f, "{l:?}")?;
        }
        Ok(())
    }
}

/// Displays a [`Cube`] with signal names; created by [`Cube::display`].
pub struct DisplayCube<'a> {
    cube: &'a Cube,
    table: &'a SignalTable,
}

impl fmt::Display for DisplayCube<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cube.is_empty() {
            return write!(f, "true");
        }
        let mut first = true;
        for l in self.cube.lits() {
            if !first {
                write!(f, " & ")?;
            }
            first = false;
            write!(f, "{}", l.display(self.table))?;
        }
        Ok(())
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
    fn contradiction_rejected() {
        let (_t, a, ..) = sigs();
        assert!(Cube::from_lits([Lit::pos(a), Lit::neg(a)]).is_none());
    }

    #[test]
    fn dedup_and_sort() {
        let (_t, a, b, _c) = sigs();
        let c1 = Cube::from_lits([Lit::pos(b), Lit::pos(a), Lit::pos(b)]).unwrap();
        assert_eq!(c1.len(), 2);
        assert_eq!(c1.lits()[0], Lit::pos(a));
    }

    #[test]
    fn and_lit_behaviour() {
        let (_t, a, b, _c) = sigs();
        let c = Cube::from_lits([Lit::pos(a)]).unwrap();
        assert_eq!(c.and_lit(Lit::pos(a)).unwrap(), c);
        assert!(c.and_lit(Lit::neg(a)).is_none());
        let cb = c.and_lit(Lit::neg(b)).unwrap();
        assert_eq!(cb.polarity_of(b), Some(false));
    }

    #[test]
    fn cube_and_cube() {
        let (_t, a, b, c) = sigs();
        let x = Cube::from_lits([Lit::pos(a), Lit::neg(b)]).unwrap();
        let y = Cube::from_lits([Lit::neg(b), Lit::pos(c)]).unwrap();
        let xy = x.and(&y).unwrap();
        assert_eq!(xy.len(), 3);
        let z = Cube::from_lits([Lit::pos(b)]).unwrap();
        assert!(x.and(&z).is_none());
    }

    #[test]
    fn eval_and_implies() {
        let (t, a, b, _c) = sigs();
        let cube = Cube::from_lits([Lit::pos(a), Lit::neg(b)]).unwrap();
        let mut v = Valuation::all_false(t.len());
        v.set(a, true);
        assert!(cube.eval(&v));
        v.set(b, true);
        assert!(!cube.eval(&v));

        let wider = Cube::from_lits([Lit::pos(a)]).unwrap();
        assert!(cube.implies(&wider));
        assert!(!wider.implies(&cube));
        assert!(cube.implies(&Cube::top()));
    }

    #[test]
    fn without_removes_literal() {
        let (_t, a, b, _c) = sigs();
        let cube = Cube::from_lits([Lit::pos(a), Lit::neg(b)]).unwrap();
        let smaller = cube.without(a);
        assert_eq!(smaller.len(), 1);
        assert_eq!(smaller.polarity_of(b), Some(false));
        assert_eq!(cube.without(a).without(b), Cube::top());
    }

    #[test]
    fn display_names() {
        let (t, a, b, _c) = sigs();
        let cube = Cube::from_lits([Lit::pos(a), Lit::neg(b)]).unwrap();
        assert_eq!(cube.display(&t).to_string(), "a & !b");
        assert_eq!(Cube::top().display(&t).to_string(), "true");
    }
}
