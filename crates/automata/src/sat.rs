//! Pure-formula decisions: satisfiability, validity, implication, strength.
//!
//! These run directly on the GPVW automaton (its states are internally
//! consistent, so automaton non-emptiness coincides with formula
//! satisfiability) — no 2^AP product is ever built.

use crate::mc::translate_cached;
use crate::product::{find_accepting_lasso, GbaGraph};
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
pub fn implies(f: &Ltl, g: &Ltl) -> bool {
    !is_satisfiable(&Ltl::and([f.clone(), Ltl::not(g.clone())]))
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

    fn parse(t: &mut SignalTable, src: &str) -> Ltl {
        Ltl::parse(src, t).expect("parse")
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
        assert!(!equivalent(&parse(&mut t, "F(p & q)"), &parse(&mut t, "F p & F q")));
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
