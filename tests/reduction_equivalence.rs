//! Reduction equivalence: the automaton reduction pipeline (LTL rewriting
//! → tableau pruning → simulation quotienting) must be *invisible* in
//! every answer.
//!
//! On random netlists × random LTL conjunctions, the multi-automaton
//! product over **raw GPVW** translations and over **fully reduced**
//! translations must agree on satisfiability, and reduced-path witnesses
//! must satisfy every original conjunct and the lasso-semantics oracle.

use proptest::prelude::*;
use specmatcher::automata::{reduce, satisfiable_in_conj_gbas, translate, Gba};
use specmatcher::logic::{BoolExpr, SignalId, SignalTable};
use specmatcher::ltl::random::{random_formula, XorShift64};
use specmatcher::ltl::Ltl;
use specmatcher::netlist::ModuleBuilder;

/// A random Kripke structure, mirroring the `backend_agreement` generator.
fn random_kripke(rng: &mut XorShift64) -> (SignalTable, specmatcher::fsm::Kripke, Vec<SignalId>) {
    let mut t = SignalTable::new();
    let mut b = ModuleBuilder::new("rand", &mut t);
    let n_inputs = 1 + rng.below(3);
    let mut pool: Vec<SignalId> = (0..n_inputs).map(|i| b.input(&format!("i{i}"))).collect();
    let leaf = |pool: &[SignalId], rng: &mut XorShift64| -> BoolExpr {
        let v = BoolExpr::var(pool[rng.below(pool.len())]);
        if rng.flip() {
            v.not()
        } else {
            v
        }
    };
    for i in 0..1 + rng.below(2) {
        let a = leaf(&pool, rng);
        let c = leaf(&pool, rng);
        let func = match rng.below(3) {
            0 => BoolExpr::and([a, c]),
            1 => BoolExpr::or([a, c]),
            _ => BoolExpr::xor(a, c),
        };
        pool.push(b.wire(&format!("w{i}"), func));
    }
    for i in 0..1 + rng.below(3) {
        let next = leaf(&pool, rng);
        pool.push(b.latch(&format!("q{i}"), next, rng.flip()));
    }
    let m = b.finish().expect("generated netlist is valid");
    let atoms: Vec<SignalId> = m.signals().into_iter().collect();
    let k = specmatcher::fsm::Kripke::from_module(&m, &t, &[]).expect("small");
    (t, k, atoms)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Raw vs reduced automata: identical conjunction verdicts on random
    /// models, and reduced witnesses satisfy the original formulas.
    #[test]
    fn raw_and_reduced_products_agree(seed in 1u64..100_000) {
        let mut rng = XorShift64::new(seed.wrapping_mul(0xA076_1D64_78BD_642F).wrapping_add(7));
        let (t, k, atoms) = random_kripke(&mut rng);
        let n_conj = 1 + rng.below(3);
        let formulas: Vec<Ltl> = (0..n_conj)
            .map(|_| {
                let budget = 3 + rng.below(5);
                random_formula(&mut rng, &atoms, budget)
            })
            .collect();

        let raw: Vec<Gba> = formulas.iter().map(|f| translate(&f.core_nnf())).collect();
        let reduced: Vec<Gba> = formulas
            .iter()
            .map(|f| reduce(&translate(&f.simplify())))
            .collect();
        for (full, small) in raw.iter().zip(&reduced) {
            prop_assert!(small.num_states() <= full.num_states());
        }

        let raw_refs: Vec<&Gba> = raw.iter().collect();
        let red_refs: Vec<&Gba> = reduced.iter().collect();
        let v_raw = satisfiable_in_conj_gbas(&raw_refs, &k);
        let v_red = satisfiable_in_conj_gbas(&red_refs, &k);
        prop_assert_eq!(
            v_raw.is_some(),
            v_red.is_some(),
            "raw vs reduced verdicts diverge on seed {} ({:?})",
            seed,
            formulas.iter().map(|f| f.display(&t).to_string()).collect::<Vec<_>>()
        );
        if let Some(w) = v_red {
            for f in &formulas {
                prop_assert!(
                    f.holds_on(&w),
                    "reduced-path witness violates {} (seed {})",
                    f.display(&t),
                    seed
                );
            }
        }
    }
}
