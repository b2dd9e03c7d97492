//! LTL semantics on ultimately periodic words.
//!
//! The paper's Definition 1 talks about *runs*: infinite sequences of states
//! (valuations). Every counterexample produced by an explicit-state model
//! checker is an ultimately periodic run — a finite prefix followed by a
//! repeated loop — and every LTL formula that is satisfiable at all is
//! satisfiable by such a *lasso*. This module evaluates formulas on lassos
//! exactly, which gives us an executable oracle for testing the automaton
//! translation and the model checker.

use crate::formula::{Ltl, LtlNode};
use dic_logic::Valuation;

/// An ultimately periodic infinite word `u · v^ω` over valuations.
///
/// `states[0..loop_start]` is the finite prefix `u`;
/// `states[loop_start..]` is the loop `v`, which must be non-empty.
///
/// # Example
///
/// ```
/// use dic_logic::{SignalTable, Valuation};
/// use dic_ltl::{LassoWord, Ltl};
///
/// let mut t = SignalTable::new();
/// let p = t.intern("p");
/// let mut on = Valuation::all_false(1);
/// on.set(p, true);
/// let off = Valuation::all_false(1);
///
/// // word: off, then (on)^ω  — satisfies F p and X G p but not p.
/// let w = LassoWord::new(vec![off, on], 1).expect("well-formed");
/// assert!(Ltl::finally(Ltl::atom(p)).holds_on(&w));
/// assert!(!Ltl::atom(p).holds_on(&w));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LassoWord {
    states: Vec<Valuation>,
    loop_start: usize,
}

impl LassoWord {
    /// Creates a lasso word; `loop_start` must index into `states`.
    ///
    /// Returns `None` if `states` is empty or `loop_start >= states.len()`.
    pub fn new(states: Vec<Valuation>, loop_start: usize) -> Option<Self> {
        if states.is_empty() || loop_start >= states.len() {
            return None;
        }
        Some(LassoWord { states, loop_start })
    }

    /// The stored states (prefix followed by one copy of the loop).
    pub fn states(&self) -> &[Valuation] {
        &self.states
    }

    /// Index of the first loop state.
    pub fn loop_start(&self) -> usize {
        self.loop_start
    }

    /// Number of stored positions.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// A lasso always denotes an infinite word, so it is never "empty";
    /// provided for API completeness (always `false`).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The valuation at absolute position `i` of the infinite word.
    pub fn at(&self, i: usize) -> &Valuation {
        if i < self.states.len() {
            &self.states[i]
        } else {
            let loop_len = self.states.len() - self.loop_start;
            &self.states[self.loop_start + (i - self.loop_start) % loop_len]
        }
    }

    /// Successor of a stored position (wraps the last position to
    /// `loop_start`).
    pub fn succ(&self, i: usize) -> usize {
        if i + 1 < self.states.len() {
            i + 1
        } else {
            self.loop_start
        }
    }
}

impl Ltl {
    /// Whether the formula holds at position 0 of the lasso word.
    pub fn holds_on(&self, word: &LassoWord) -> bool {
        self.eval_positions(word)[0]
    }

    /// Truth value of the formula at every stored position of the word.
    ///
    /// Temporal operators are evaluated by fixpoint iteration over the lasso
    /// graph (each position has exactly one successor, the last wrapping to
    /// the loop start), which terminates because the graph is finite.
    pub fn eval_positions(&self, word: &LassoWord) -> Vec<bool> {
        let n = word.len();
        match self.node() {
            LtlNode::True => vec![true; n],
            LtlNode::False => vec![false; n],
            LtlNode::Atom(id) => (0..n).map(|i| word.at(i).get(*id)).collect(),
            LtlNode::Not(f) => f.eval_positions(word).into_iter().map(|b| !b).collect(),
            LtlNode::And(fs) => {
                let mut acc = vec![true; n];
                for f in fs {
                    for (a, b) in acc.iter_mut().zip(f.eval_positions(word)) {
                        *a &= b;
                    }
                }
                acc
            }
            LtlNode::Or(fs) => {
                let mut acc = vec![false; n];
                for f in fs {
                    for (a, b) in acc.iter_mut().zip(f.eval_positions(word)) {
                        *a |= b;
                    }
                }
                acc
            }
            LtlNode::Next(f) => {
                let c = f.eval_positions(word);
                (0..n).map(|i| c[word.succ(i)]).collect()
            }
            LtlNode::Until(a, b) => {
                let va = a.eval_positions(word);
                let vb = b.eval_positions(word);
                lfp(word, |u, i| vb[i] || (va[i] && u[word.succ(i)]))
            }
            LtlNode::Release(a, b) => {
                let va = a.eval_positions(word);
                let vb = b.eval_positions(word);
                gfp(word, |r, i| vb[i] && (va[i] || r[word.succ(i)]))
            }
            LtlNode::Globally(f) => {
                let c = f.eval_positions(word);
                gfp(word, |g, i| c[i] && g[word.succ(i)])
            }
            LtlNode::Finally(f) => {
                let c = f.eval_positions(word);
                lfp(word, |g, i| c[i] || g[word.succ(i)])
            }
        }
    }
}

/// Least fixpoint of a monotone step function over the lasso positions.
fn lfp(word: &LassoWord, step: impl Fn(&[bool], usize) -> bool) -> Vec<bool> {
    let n = word.len();
    let mut cur = vec![false; n];
    loop {
        let mut changed = false;
        // Iterate backwards for fast convergence along the chain.
        for i in (0..n).rev() {
            let v = step(&cur, i);
            if v != cur[i] {
                cur[i] = v;
                changed = true;
            }
        }
        if !changed {
            return cur;
        }
    }
}

/// Greatest fixpoint of a monotone step function over the lasso positions.
fn gfp(word: &LassoWord, step: impl Fn(&[bool], usize) -> bool) -> Vec<bool> {
    let n = word.len();
    let mut cur = vec![true; n];
    loop {
        let mut changed = false;
        for i in (0..n).rev() {
            let v = step(&cur, i);
            if v != cur[i] {
                cur[i] = v;
                changed = true;
            }
        }
        if !changed {
            return cur;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dic_logic::{SignalId, SignalTable};

    /// Builds a word from per-position sets of true signals.
    fn word(t: &SignalTable, positions: &[&[SignalId]], loop_start: usize) -> LassoWord {
        let states = positions
            .iter()
            .map(|sigs| {
                let mut v = Valuation::all_false(t.len());
                for &s in *sigs {
                    v.set(s, true);
                }
                v
            })
            .collect();
        LassoWord::new(states, loop_start).expect("well-formed word")
    }

    fn table() -> (SignalTable, SignalId, SignalId) {
        let mut t = SignalTable::new();
        let p = t.intern("p");
        let q = t.intern("q");
        (t, p, q)
    }

    #[test]
    fn atoms_and_boolean() {
        let (t, p, q) = table();
        let w = word(&t, &[&[p], &[q]], 1);
        assert!(Ltl::atom(p).holds_on(&w));
        assert!(!Ltl::atom(q).holds_on(&w));
        assert!(Ltl::and([Ltl::atom(p), Ltl::not(Ltl::atom(q))]).holds_on(&w));
    }

    #[test]
    fn next_wraps_into_loop() {
        let (t, p, q) = table();
        // states: {p}, then loop {q}
        let w = word(&t, &[&[p], &[q]], 1);
        assert!(Ltl::next(Ltl::atom(q)).holds_on(&w));
        // X at the last stored position wraps to loop_start.
        assert!(Ltl::next(Ltl::next(Ltl::atom(q))).holds_on(&w));
    }

    #[test]
    fn until_semantics() {
        let (t, p, q) = table();
        // p p q then loop on empty
        let w = word(&t, &[&[p], &[p], &[q], &[]], 3);
        assert!(Ltl::until(Ltl::atom(p), Ltl::atom(q)).holds_on(&w));
        // until requires the goal eventually: p forever without q fails
        let w2 = word(&t, &[&[p]], 0);
        assert!(!Ltl::until(Ltl::atom(p), Ltl::atom(q)).holds_on(&w2));
        // but weak until (release form) holds: q R ... dual check below
        assert!(Ltl::weak_until(Ltl::atom(p), Ltl::atom(q)).holds_on(&w2));
    }

    #[test]
    fn globally_and_finally() {
        let (t, p, q) = table();
        let w = word(&t, &[&[p], &[p, q]], 1);
        assert!(Ltl::globally(Ltl::atom(p)).holds_on(&w));
        assert!(Ltl::finally(Ltl::atom(q)).holds_on(&w));
        assert!(!Ltl::globally(Ltl::atom(q)).holds_on(&w));
        // GF q: q holds infinitely often (it's in the loop).
        assert!(Ltl::globally(Ltl::finally(Ltl::atom(q))).holds_on(&w));
        // FG q fails if the loop has a q-free state.
        let w2 = word(&t, &[&[q], &[]], 0);
        assert!(!Ltl::finally(Ltl::globally(Ltl::atom(q))).holds_on(&w2));
    }

    #[test]
    fn release_duality() {
        let (t, p, q) = table();
        let words = [
            word(&t, &[&[p], &[q], &[]], 2),
            word(&t, &[&[p, q]], 0),
            word(&t, &[&[], &[p], &[q]], 1),
        ];
        let f = Ltl::release(Ltl::atom(p), Ltl::atom(q));
        let dual = Ltl::not(Ltl::until(Ltl::not(Ltl::atom(p)), Ltl::not(Ltl::atom(q))));
        for w in &words {
            assert_eq!(f.holds_on(w), dual.holds_on(w));
        }
    }

    #[test]
    fn expansion_laws_hold_on_words() {
        let (t, p, q) = table();
        let words = [
            word(&t, &[&[p], &[q], &[]], 1),
            word(&t, &[&[p, q], &[p]], 0),
            word(&t, &[&[], &[p], &[p, q]], 2),
        ];
        let a = Ltl::atom(p);
        let b = Ltl::atom(q);
        // p U q == q | (p & X(p U q))
        let u = Ltl::until(a.clone(), b.clone());
        let u_exp = Ltl::or([b.clone(), Ltl::and([a.clone(), Ltl::next(u.clone())])]);
        // G p == p & X G p
        let g = Ltl::globally(a.clone());
        let g_exp = Ltl::and([a.clone(), Ltl::next(g.clone())]);
        for w in &words {
            assert_eq!(u.holds_on(w), u_exp.holds_on(w));
            assert_eq!(g.holds_on(w), g_exp.holds_on(w));
        }
    }

    #[test]
    fn nnf_preserves_semantics_on_words() {
        let (t, p, q) = table();
        let words = [
            word(&t, &[&[p], &[q], &[]], 1),
            word(&t, &[&[p, q], &[p]], 0),
        ];
        let formulas = [
            Ltl::not(Ltl::until(Ltl::atom(p), Ltl::atom(q))),
            Ltl::not(Ltl::globally(Ltl::finally(Ltl::atom(p)))),
            Ltl::not(Ltl::and([Ltl::atom(p), Ltl::next(Ltl::atom(q))])),
        ];
        for f in &formulas {
            for w in &words {
                assert_eq!(f.holds_on(w), f.nnf().holds_on(w), "{f:?}");
                assert_eq!(f.holds_on(w), f.core_nnf().holds_on(w), "{f:?}");
            }
        }
    }
}
