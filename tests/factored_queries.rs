//! Integration test: the factored-product query path (materialized base
//! product + per-query automaton) agrees with the direct multi-automaton
//! product on randomized models and formulas.
//!
//! This is the soundness backbone of the gap pipeline's performance layer:
//! `CoverageModel::satisfiable_factored(base, extra)` must coincide with
//! `satisfiable(base ++ extra)` — same verdicts, and every returned
//! witness must genuinely satisfy all conjuncts.

use specmatcher::automata::{materialize_product, satisfiable_in_conj};
use specmatcher::core::{ArchSpec, CoverageModel, RtlSpec};
use specmatcher::fsm::Kripke;
use specmatcher::logic::{BoolExpr, Lit, SignalTable};
use specmatcher::ltl::random::{random_formula, XorShift64};
use specmatcher::ltl::{LassoWord, Ltl, TemporalCube};
use specmatcher::netlist::{Module, ModuleBuilder};
use specmatcher::symbolic::{SymbolicModel, SymbolicOptions};

/// A 2-latch module with three free inputs; small enough that hundreds of
/// queries stay fast, rich enough to exercise liveness and safety paths.
fn fixture() -> (SignalTable, Module) {
    let mut t = SignalTable::new();
    let mut b = ModuleBuilder::new("fix", &mut t);
    let i0 = b.input("i0");
    let i1 = b.input("i1");
    let q0 = b.table().intern("q0");
    let q1 = b.table().intern("q1");
    b.latch(
        "q0",
        BoolExpr::or([BoolExpr::var(i0), BoolExpr::var(q1)]),
        false,
    );
    b.latch(
        "q1",
        BoolExpr::and([BoolExpr::var(i1), BoolExpr::var(q0).not()]),
        false,
    );
    let o = b.wire("o", BoolExpr::xor(BoolExpr::var(q0), BoolExpr::var(q1)));
    b.mark_output(o);
    let q0id = q0;
    b.mark_output(q0id);
    b.mark_output(q1);
    let m = b.finish().expect("valid module");
    (t, m)
}

#[test]
fn materialized_base_agrees_with_direct_product() {
    let (t, m) = fixture();
    let kripke = Kripke::from_module(&m, &t, &[]).expect("fits");
    let atoms = vec![
        t.lookup("i0").unwrap(),
        t.lookup("i1").unwrap(),
        t.lookup("q0").unwrap(),
        t.lookup("o").unwrap(),
    ];
    let mut rng = XorShift64::new(0xDA7E_2006);
    let mut disagreements = 0;
    for round in 0..60 {
        let base: Vec<Ltl> = (0..1 + round % 3)
            .map(|_| random_formula(&mut rng, &atoms, 6))
            .collect();
        let extra: Vec<Ltl> = (0..1 + round % 2)
            .map(|_| random_formula(&mut rng, &atoms, 6))
            .collect();

        let mut all = base.clone();
        all.extend(extra.iter().cloned());
        let direct = satisfiable_in_conj(&all, &kripke);

        let product = materialize_product(&base, &kripke);
        let factored = satisfiable_in_conj(&extra, &product);

        if direct.is_some() != factored.is_some() {
            disagreements += 1;
            eprintln!(
                "round {round}: direct={} factored={} base={base:?} extra={extra:?}",
                direct.is_some(),
                factored.is_some()
            );
        }
        // Witnesses must satisfy every conjunct on both paths.
        for w in direct.iter().chain(factored.iter()) {
            for f in &all {
                assert!(f.holds_on(w), "witness violates conjunct in round {round}");
            }
        }
    }
    assert_eq!(disagreements, 0);
}

#[test]
fn empty_extra_queries_the_base_itself() {
    let (mut t, m) = fixture();
    let kripke = Kripke::from_module(&m, &t, &[]).expect("fits");
    let sat = Ltl::parse("G F o", &mut t).expect("parses");
    let unsat = Ltl::parse("G o & G !o & F i0", &mut t).expect("parses");

    let p_sat = materialize_product(&[sat], &kripke);
    assert!(satisfiable_in_conj(&[], &p_sat).is_some());

    let p_unsat = materialize_product(&[unsat], &kripke);
    assert!(satisfiable_in_conj(&[], &p_unsat).is_none());
}

#[test]
fn coverage_model_factored_matches_flat() {
    let (mut t, m) = fixture();
    let a = Ltl::parse("G(i0 -> X q0)", &mut t).expect("parses");
    let r = Ltl::parse("G(i1 -> X !q0)", &mut t).expect("parses");
    let arch = ArchSpec::new([("A", a.clone())]);
    let rtl = RtlSpec::new([("R", r.clone())], [m]);
    let model = CoverageModel::build(&arch, &rtl, &t).expect("builds");

    let atoms = vec![
        t.lookup("i0").unwrap(),
        t.lookup("q1").unwrap(),
        t.lookup("o").unwrap(),
    ];
    let mut rng = XorShift64::new(7);
    for _ in 0..40 {
        let extra = random_formula(&mut rng, &atoms, 5);
        let flat = model.satisfiable(&[r.clone(), Ltl::not(a.clone()), extra.clone()]);
        let factored = model.satisfiable_factored(
            &[r.clone(), Ltl::not(a.clone())],
            std::slice::from_ref(&extra),
        );
        assert_eq!(
            flat.is_some(),
            factored.is_some(),
            "disagreement on extra = {extra:?}"
        );
    }
}

/// Asserts that a witness of `conjuncts` satisfies every one of them.
fn assert_witness(w: Option<&LassoWord>, conjuncts: &[Ltl], what: &str) {
    for f in conjuncts {
        assert!(
            w.is_none_or(|w| f.holds_on(w)),
            "{what}: witness violates {f:?}"
        );
    }
}

/// The symbolic engine's extension products — a closure check against a
/// plain base, an anchored `R ∧ ¬A` extension, a closure check on top of
/// that extension, and a bounded-scenario query against it — agree with
/// the flat conjunction on the same engine and with the explicit engine.
#[test]
fn symbolic_extensions_match_flat_and_explicit() {
    let (mut t, m) = fixture();
    let a = Ltl::parse("G(i1 -> X q1)", &mut t).expect("parses");
    let r = Ltl::parse("G(i1 -> X !q0)", &mut t).expect("parses");
    let not_a = Ltl::not(a);
    let kripke = Kripke::from_module(&m, &t, &[]).expect("fits");
    let mut sym =
        SymbolicModel::from_module(&m, &t, &[], SymbolicOptions::default()).expect("builds");

    // The anchored extension the primary question builds (R ∧ ¬A is
    // satisfiable on this fixture), which the nested closures below
    // extend in turn.
    let anchored_base = [r.clone(), not_a.clone()];
    let primary = sym
        .satisfiable_anchored(std::slice::from_ref(&r), std::slice::from_ref(&not_a))
        .expect("within budget");
    assert!(primary.is_some(), "R ∧ ¬A has a run");
    assert_witness(primary.as_ref(), &anchored_base, "anchored");

    let atoms: Vec<_> = ["i0", "i1", "q0", "q1"]
        .iter()
        .map(|s| t.lookup(s).unwrap())
        .collect();
    let mut rng = XorShift64::new(0x5EED_F00D);
    let paths = ["plain", "nested", "cube"];
    let mut satisfiable = [0; 3];
    for round in 0..40 {
        let extra = random_formula(&mut rng, &atoms, 5);
        for (k, base) in [vec![r.clone()], anchored_base.to_vec()]
            .into_iter()
            .enumerate()
        {
            let mut all = base.clone();
            all.push(extra.clone());
            let factored = sym
                .satisfiable_factored(&base, std::slice::from_ref(&extra))
                .expect("within budget");
            let flat = sym.satisfiable_conj(&all).expect("within budget");
            let explicit = satisfiable_in_conj(&all, &kripke);
            let tag = format!("round {round} {}: extra = {extra:?}", paths[k]);
            assert_eq!(
                factored.is_some(),
                flat.is_some(),
                "{tag}: factored vs flat"
            );
            assert_eq!(factored.is_some(), explicit.is_some(), "{tag}: vs explicit");
            assert_witness(factored.as_ref(), &all, &tag);
            assert_witness(flat.as_ref(), &all, &tag);
            satisfiable[k] += usize::from(factored.is_some());
        }

        // A random bounded scenario over the first four cycles.
        let lits = (0..2 + rng.below(4)).map(|_| {
            let s = atoms[rng.below(atoms.len())];
            (rng.below(4), Lit::new(s, rng.flip()))
        });
        let Some(cube) = TemporalCube::from_lits(lits) else {
            continue;
        };
        let symbolic = sym
            .factored_cube_sat(std::slice::from_ref(&r), Some(&not_a), &cube)
            .expect("within budget");
        let mut all = anchored_base.to_vec();
        all.push(cube.to_ltl());
        let explicit = satisfiable_in_conj(&all, &kripke);
        assert_eq!(symbolic, explicit.is_some(), "round {round}: cube {cube:?}");
        assert_witness(explicit.as_ref(), &all, "explicit cube");
        satisfiable[2] += usize::from(symbolic);
    }
    // Both verdicts occur on every path, so neither side is vacuous.
    for (what, n) in paths.iter().zip(satisfiable) {
        assert!(0 < n && n < 40, "{what}: {n} of 40 satisfiable");
    }
}

#[test]
fn product_system_reports_shape() {
    let (mut t, m) = fixture();
    let kripke = Kripke::from_module(&m, &t, &[]).expect("fits");
    let f = Ltl::parse("G(i0 -> X q0)", &mut t).expect("parses");
    let p = materialize_product(&[f], &kripke);
    assert!(!p.is_empty());
    assert!(p.num_states() > 0);
    assert!(
        p.num_transitions() >= p.num_states(),
        "total transition relation"
    );

    // A contradictory base materializes to an empty system.
    let f2 = Ltl::parse("o & !o", &mut t).expect("parses");
    let p2 = materialize_product(&[f2], &kripke);
    assert!(p2.is_empty());
}
