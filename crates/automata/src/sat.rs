//! Pure-formula decisions: satisfiability, validity, implication, strength.
//!
//! These run directly on GPVW automata (their states are internally
//! consistent, so automaton non-emptiness coincides with formula
//! satisfiability) — no 2^AP product is ever built. Implication, the
//! question the gap phase asks most, is decided on the product of the two
//! cached automata of `f` and `¬g`, so each formula is translated once per
//! process however many pairs it takes part in.

use crate::mc::translate_cached;
use crate::product::{find_accepting_lasso, has_accepting_lasso, GbaGraph, GbaPairGraph};
use dic_logic::Valuation;
use dic_ltl::{LassoWord, Ltl};

/// Whether some infinite word satisfies `formula`.
pub fn is_satisfiable(formula: &Ltl) -> bool {
    witness(formula, 0).is_some()
}

/// A satisfying lasso word over a table of `n_signals` signals, if any.
/// Signals unconstrained by the automaton run are set low.
pub fn witness(formula: &Ltl, n_signals: usize) -> Option<LassoWord> {
    let gba = translate_cached(formula);
    let graph = GbaGraph(&gba);
    let (states, loop_start) = find_accepting_lasso(&graph, gba.full_acc_mask())?;
    let n = n_signals.max(
        formula
            .atoms()
            .iter()
            .map(|s| s.index() + 1)
            .max()
            .unwrap_or(0),
    );
    let vals: Vec<Valuation> = states
        .iter()
        .map(|&q| gba.state(q).witness_valuation(n))
        .collect();
    Some(LassoWord::new(vals, loop_start).expect("lasso has a loop"))
}

/// Whether every infinite word satisfies `formula`.
pub fn is_valid(formula: &Ltl) -> bool {
    !is_satisfiable(&Ltl::not(formula.clone()))
}

/// Whether `f ⇒ g` is valid (every word satisfying `f` satisfies `g`).
///
/// Decided as the emptiness of the synchronous product of the cached
/// automata of `f` and `¬g`, which accepts exactly the models of
/// `f ∧ ¬g`: a pair of weakenings is a conjunction the translation cache
/// has never seen, but each side recurs across pairs. When the two
/// automata have more than 32 acceptance sets between them, the
/// conjunction is translated instead — its automaton may need fewer, as
/// `Until`s shared by both sides get one set. Traced as
/// `automata.implies`.
pub fn implies(f: &Ltl, g: &Ltl) -> bool {
    let _span = dic_trace::span("automata.implies");
    let not_g = Ltl::not(g.clone());
    let (left, right) = (translate_cached(f), translate_cached(&not_g));
    let product = GbaPairGraph(&left, &right);
    match product.joint_mask() {
        Some(mask) => !has_accepting_lasso(&product, mask),
        None => !is_satisfiable(&Ltl::and([f.clone(), not_g])),
    }
}

/// The paper's Definition 2: `f` is *stronger* than `g` iff `f ⇒ g` and
/// not `g ⇒ f`.
pub fn stronger_than(f: &Ltl, g: &Ltl) -> bool {
    implies(f, g) && !implies(g, f)
}

/// Whether `f` and `g` have the same models.
pub fn equivalent(f: &Ltl, g: &Ltl) -> bool {
    implies(f, g) && implies(g, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dic_logic::SignalTable;
    use dic_ltl::random::{random_formula, XorShift64};
    use dic_ltl::Polarity;
    use proptest::prelude::*;

    fn parse(t: &mut SignalTable, src: &str) -> Ltl {
        Ltl::parse(src, t).expect("parse")
    }

    /// The reference decision: `f ∧ ¬g` translated as one formula.
    fn implies_by_conjunction(f: &Ltl, g: &Ltl) -> bool {
        !is_satisfiable(&Ltl::and([f.clone(), Ltl::not(g.clone())]))
    }

    fn assert_implies_matches(f: &Ltl, g: &Ltl, t: &SignalTable) {
        for (a, b) in [(f, g), (g, f)] {
            assert_eq!(
                implies(a, b),
                implies_by_conjunction(a, b),
                "{} => {}",
                a.display(t),
                b.display(t)
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// The product decision answers as the conjunction's automaton on
        /// random pairs, and on pairs one side of which implies the other.
        #[test]
        fn product_implication_matches_the_conjunction(seed in 1u64..1_000_000) {
            let mut t = SignalTable::new();
            let atoms = ["p", "q", "r"].map(|a| t.intern(a));
            let mut rng = XorShift64::new(seed);
            let f = random_formula(&mut rng, &atoms, 6);
            let g = random_formula(&mut rng, &atoms, 6);
            assert_implies_matches(&f, &g, &t);
            assert_implies_matches(&f, &Ltl::or([f.clone(), g.clone()]), &t);
            assert_implies_matches(&Ltl::and([f.clone(), g.clone()]), &g, &t);
        }
    }

    /// Every one-literal weakening of `intent` with the literal at `X`
    /// offset 0 or 1: conjoined to a negative occurrence, disjoined to a
    /// positive one — the candidate shape of Algorithm 1.
    fn weakenings(intent: &Ltl, signals: &[dic_logic::SignalId]) -> Vec<Ltl> {
        let mut out = Vec::new();
        for occ in intent.atom_occurrences() {
            for &s in signals {
                for (offset, positive) in [(0, true), (0, false), (1, true), (1, false)] {
                    let lit = Ltl::next_n(Ltl::literal(s, positive), offset);
                    let part = occ.subformula.clone();
                    let replacement = match occ.polarity {
                        Polarity::Negative => Ltl::and([part, lit]),
                        Polarity::Positive => Ltl::or([part, lit]),
                    };
                    out.extend(intent.replace_at(&occ.position, replacement));
                }
            }
        }
        out
    }

    #[test]
    fn product_implication_matches_on_weakenings() {
        let mut t = SignalTable::new();
        for src in [
            "G(r1 & X(r1 U r2) -> X(!d2 U d1))",
            "G(r1 -> X(!d1 U d2))",
            "G(r2 & !d1 -> F d2)",
        ] {
            let intent = parse(&mut t, src);
            let signals = ["r1", "d1", "hit"].map(|a| t.intern(a));
            let weak = weakenings(&intent, &signals);
            assert!(weak.len() >= 12, "{src}: too few weakenings");
            for (i, w) in weak.iter().enumerate() {
                assert!(implies(&intent, w), "{src} must imply its weakening");
                assert_implies_matches(&intent, w, &t);
                assert_implies_matches(w, &weak[(i + 1) % weak.len()], &t);
            }
        }
    }

    /// `f = a0 U (a1 U … (a16 U a17))` against `g = ¬f`: the automata of
    /// `f` and `¬g` have 17 acceptance sets each, 34 between them, past
    /// the product's 32-bit mask; the conjunction `f ∧ ¬¬f` is `f` and
    /// needs 17, so the decision falls back to it. Only positive chains
    /// are translated: the tableau of a negated chain, like that of a
    /// conjunction of many `F`s, grows exponentially with its length.
    #[test]
    fn implication_past_the_product_mask_falls_back() {
        let mut t = SignalTable::new();
        let f = (0..17).rev().fold(Ltl::atom(t.intern("a17")), |inner, i| {
            Ltl::until(Ltl::atom(t.intern(&format!("a{i}"))), inner)
        });
        let g = Ltl::not(f.clone());
        let (left, right) = (translate_cached(&f), translate_cached(&Ltl::not(g.clone())));
        assert!(GbaPairGraph(&left, &right).joint_mask().is_none());
        assert!(!implies(&f, &g));
    }

    #[test]
    fn satisfiability_basics() {
        let mut t = SignalTable::new();
        assert!(is_satisfiable(&parse(&mut t, "p")));
        assert!(is_satisfiable(&parse(&mut t, "G F p & G F !p")));
        assert!(!is_satisfiable(&parse(&mut t, "p & !p")));
        assert!(!is_satisfiable(&parse(&mut t, "G p & F !p")));
        assert!(!is_satisfiable(&parse(&mut t, "(p U q) & G !q")));
        assert!(is_satisfiable(&parse(&mut t, "(p U q) & G !p")));
    }

    #[test]
    fn validity_basics() {
        let mut t = SignalTable::new();
        assert!(is_valid(&parse(&mut t, "p | !p")));
        assert!(is_valid(&parse(&mut t, "G p -> p")));
        assert!(is_valid(&parse(&mut t, "G p -> F p")));
        assert!(is_valid(&parse(&mut t, "p U q -> F q")));
        assert!(!is_valid(&parse(&mut t, "F p -> G p")));
        // Expansion law as a validity.
        assert!(is_valid(&parse(&mut t, "(p U q) <-> (q | p & X(p U q))")));
        // Distribution of X over U.
        assert!(is_valid(&parse(&mut t, "X(p U q) <-> (X p) U (X q)")));
    }

    #[test]
    fn implication_lattice() {
        let mut t = SignalTable::new();
        let gp = parse(&mut t, "G p");
        let p = parse(&mut t, "p");
        let fp = parse(&mut t, "F p");
        assert!(implies(&gp, &p));
        assert!(implies(&p, &fp));
        assert!(implies(&gp, &fp));
        assert!(!implies(&fp, &p));
        assert!(!implies(&p, &gp));
    }

    #[test]
    fn strength_is_strict() {
        let mut t = SignalTable::new();
        let gp = parse(&mut t, "G p");
        let fp = parse(&mut t, "F p");
        assert!(stronger_than(&gp, &fp));
        assert!(!stronger_than(&fp, &gp));
        // Not strictly stronger than itself.
        assert!(!stronger_than(&gp, &gp));
    }

    #[test]
    fn equivalences() {
        let mut t = SignalTable::new();
        let a = parse(&mut t, "!(p U q)");
        let b = parse(&mut t, "(!p R !q)");
        assert!(equivalent(&a, &b));
        let c = parse(&mut t, "G(p & q)");
        let d = parse(&mut t, "G p & G q");
        assert!(equivalent(&c, &d));
        let e = parse(&mut t, "F(p | q)");
        let f = parse(&mut t, "F p | F q");
        assert!(equivalent(&e, &f));
        assert!(!equivalent(
            &parse(&mut t, "F(p & q)"),
            &parse(&mut t, "F p & F q")
        ));
    }

    #[test]
    fn witness_satisfies_formula() {
        let mut t = SignalTable::new();
        for src in [
            "p U q",
            "G F p",
            "(X X p) & G(p -> X !p)",
            "F(p & X q) & G(q -> r)",
        ] {
            let f = parse(&mut t, src);
            let w = witness(&f, t.len()).expect("satisfiable");
            assert!(f.holds_on(&w), "witness for {src} does not satisfy it");
        }
    }

    #[test]
    fn paper_strength_example() {
        // The paper's Example 4: U is stronger than the raw hole formula,
        // here checked in miniature: strengthening an antecedent weakens
        // the property.
        let mut t = SignalTable::new();
        let a = parse(&mut t, "G(r1 & X(r1 U r2) -> X(!d2 U d1))");
        let u = parse(&mut t, "G(r1 & X(r1 U (r2 & X !hit)) -> X(!d2 U d1))");
        assert!(implies(&a, &u), "A must imply the weakened U");
        assert!(stronger_than(&a, &u));
    }
}
