//! Property tests: the symbolic engine must agree with the explicit
//! automata-theoretic engine on verdicts, and its witnesses must satisfy
//! the bounded-semantics oracle.

use dic_automata::satisfiable_in_conj;
use dic_fsm::Kripke;
use dic_logic::{BoolExpr, SignalId, SignalTable};
use dic_ltl::random::{random_formula, XorShift64};
use dic_ltl::Ltl;
use dic_netlist::{Module, ModuleBuilder};
use dic_symbolic::{SymbolicModel, SymbolicOptions};

/// A small random netlist: `n_latch` latches over `n_in` inputs with
/// random AND/OR/XOR next-state functions (depth 1 over signals seen so
/// far), mirroring the generators in the netlist property suites.
fn random_module(rng: &mut XorShift64, n_in: usize, n_latch: usize) -> (SignalTable, Module) {
    let mut t = SignalTable::new();
    let mut b = ModuleBuilder::new("rand", &mut t);
    let mut pool: Vec<SignalId> = (0..n_in).map(|i| b.input(&format!("i{i}"))).collect();
    for l in 0..n_latch {
        let a = pool[rng.below(pool.len())];
        let c = pool[rng.below(pool.len())];
        let (ea, ec) = (BoolExpr::var(a), BoolExpr::var(c));
        let f = match rng.below(4) {
            0 => BoolExpr::and([ea, ec]),
            1 => BoolExpr::or([ea, ec]),
            2 => BoolExpr::xor(ea, ec),
            _ => ea.not(),
        };
        let q = b.latch(&format!("q{l}"), f, rng.flip());
        pool.push(q);
    }
    let out = *pool.last().expect("non-empty");
    b.mark_output(out);
    let m = b.finish().expect("generated netlist is valid");
    (t, m)
}

#[test]
fn symbolic_agrees_with_explicit_on_random_instances() {
    let mut rng = XorShift64::new(0xD1C_5EED);
    let mut checked = 0;
    for case in 0..40 {
        let (mut t, m) = random_module(&mut rng, 2, 2);
        let atoms: Vec<SignalId> = m.signals().into_iter().collect();
        let formulas: Vec<Ltl> = (0..1 + case % 2)
            .map(|_| random_formula(&mut rng, &atoms, 5))
            .collect();
        // Free signals: atoms the module does not drive (none here, atoms
        // come from the module), plus one synthetic spec signal sometimes.
        let free = if case % 3 == 0 {
            vec![t.intern("spec_only")]
        } else {
            Vec::new()
        };
        let k = Kripke::from_module(&m, &t, &free).expect("small module fits");
        let explicit = satisfiable_in_conj(&formulas, &k);

        let mut sym =
            SymbolicModel::from_module(&m, &t, &free, SymbolicOptions::default()).expect("builds");
        let symbolic = sym.satisfiable_conj(&formulas).expect("within limits");

        assert_eq!(
            explicit.is_some(),
            symbolic.is_some(),
            "verdict disagreement on case {case}: formulas {:?}",
            formulas
                .iter()
                .map(|f| f.display(&t).to_string())
                .collect::<Vec<_>>()
        );
        if let Some(w) = symbolic {
            for f in &formulas {
                assert!(
                    f.holds_on(&w),
                    "symbolic witness violates {} on case {case}",
                    f.display(&t)
                );
            }
        }
        checked += 1;
    }
    assert_eq!(checked, 40);
}

#[test]
fn agreement_on_handwritten_suite() {
    let mut t = SignalTable::new();
    let mut b = ModuleBuilder::new("simple", &mut t);
    let a = b.input("a");
    let bb = b.input("b");
    b.latch(
        "c",
        BoolExpr::and([BoolExpr::var(a), BoolExpr::var(bb)]),
        false,
    );
    let m = b.finish().expect("valid");
    let k = Kripke::from_module(&m, &t, &[]).expect("fits");
    let mut sym =
        SymbolicModel::from_module(&m, &t, &[], SymbolicOptions::default()).expect("builds");

    let cases = [
        "G(a & b -> X c)",
        "G(a -> X c)",
        "c",
        "!c",
        "!a & X c",
        "!c U c",
        "G !c",
        "F c & G !a",
        "G F (a & b) & G F !c",
        "X X c & !a",
    ];
    for src in cases {
        let f = Ltl::parse(src, &mut t).expect("parses");
        let explicit = satisfiable_in_conj(std::slice::from_ref(&f), &k);
        let symbolic = sym
            .satisfiable_conj(std::slice::from_ref(&f))
            .expect("within limits");
        assert_eq!(
            explicit.is_some(),
            symbolic.is_some(),
            "verdict disagreement on {src}"
        );
        if let Some(w) = symbolic {
            assert!(f.holds_on(&w), "witness violates {src}");
        }
    }
}

#[test]
fn conjunction_suites_agree() {
    let mut t = SignalTable::new();
    let mut b = ModuleBuilder::new("simple", &mut t);
    let a = b.input("a");
    let bb = b.input("b");
    b.latch(
        "c",
        BoolExpr::and([BoolExpr::var(a), BoolExpr::var(bb)]),
        false,
    );
    let m = b.finish().expect("valid");
    let k = Kripke::from_module(&m, &t, &[]).expect("fits");
    let mut sym =
        SymbolicModel::from_module(&m, &t, &[], SymbolicOptions::default()).expect("builds");

    let suites: Vec<Vec<&str>> = vec![
        vec!["G(a & b -> X c)", "F c"],
        vec!["G !c", "F c"],
        vec!["a", "b", "X c", "X X !c"],
        vec!["G(a -> X c)", "G F a", "F !c"],
        vec!["G F b", "!c U c"],
        vec![],
    ];
    for case in suites {
        let fs: Vec<Ltl> = case
            .iter()
            .map(|s| Ltl::parse(s, &mut t).expect("parses"))
            .collect();
        let explicit = satisfiable_in_conj(&fs, &k);
        let symbolic = sym.satisfiable_conj(&fs).expect("within limits");
        assert_eq!(
            explicit.is_some(),
            symbolic.is_some(),
            "verdict disagreement on {case:?}"
        );
        if let Some(w) = symbolic {
            for f in &fs {
                assert!(f.holds_on(&w), "witness misses a conjunct of {case:?}");
            }
        }
    }
}

#[test]
fn handles_models_beyond_the_explicit_limit() {
    // A 24-stage latch chain: 25 state bits, rejected by the explicit
    // engine (KRIPKE_BIT_LIMIT = 20) but trivial symbolically.
    let mut t = SignalTable::new();
    let mut b = ModuleBuilder::new("chain", &mut t);
    let mut prev = b.input("a");
    let n = 24usize;
    for i in 1..=n {
        prev = b.latch_from(&format!("q{i}"), prev, false);
    }
    b.mark_output(prev);
    let m = b.finish().expect("valid");
    assert!(
        Kripke::from_module(&m, &t, &[]).is_err(),
        "chain-24 must exceed the explicit limit for this test to mean anything"
    );

    let mut sym =
        SymbolicModel::from_module(&m, &t, &[], SymbolicOptions::default()).expect("builds");
    assert_eq!(sym.state_bits(), 25);

    // a propagates to q24 after 24 cycles: G(a -> X^24 q24) is
    // unfalsifiable, its negation's satisfiability query returns None.
    let xs = "X ".repeat(n);
    let holds = Ltl::parse(&format!("G(a -> {xs}q{n})"), &mut t).expect("parses");
    let refute = Ltl::not(holds);
    assert!(sym.satisfiable_conj(&[refute]).expect("fits").is_none());

    // The converse claim is falsified, with a replayable witness.
    let wrong = Ltl::parse(&format!("G(a -> {xs}!q{n})"), &mut t).expect("parses");
    let refute_wrong = Ltl::not(wrong);
    let w = sym
        .satisfiable_conj(std::slice::from_ref(&refute_wrong))
        .expect("fits")
        .expect("counterexample exists");
    assert!(refute_wrong.holds_on(&w));
}

#[test]
fn node_limit_fails_closed_mid_analysis() {
    let mut t = SignalTable::new();
    let mut b = ModuleBuilder::new("twin", &mut t);
    let mut pa = b.input("a");
    let mut pb = b.input("b");
    for i in 1..=6 {
        pa = b.latch_from(&format!("qa{i}"), pa, false);
        pb = b.latch_from(&format!("qb{i}"), pb, i % 2 == 1);
    }
    let eq = b.wire(
        "match",
        BoolExpr::xor(BoolExpr::var(pa), BoolExpr::var(pb)).not(),
    );
    b.mark_output(eq);
    let m = b.finish().expect("valid");
    // The encoding itself fits in a few hundred nodes; the reachability
    // and fixpoint phases do not.
    let mut sym = SymbolicModel::from_module(
        &m,
        &t,
        &[],
        SymbolicOptions {
            node_limit: 400,
            ..SymbolicOptions::default()
        },
    )
    .expect("encoding fits the tiny budget");
    let f = Ltl::parse("G F match & G F !match", &mut t).expect("parses");
    let err = sym
        .satisfiable_conj(&[f])
        .expect_err("analysis must refuse at 400 nodes");
    assert!(matches!(
        err,
        dic_symbolic::SymbolicError::NodeLimit { limit: 400, .. }
    ));
}

#[test]
fn forced_compactions_preserve_verdicts() {
    // A trigger of 1 fires a compaction at (almost) every fixpoint step
    // and scratch exit, the harshest schedule possible: every cached
    // product, memoized fixpoint and in-flight local must be remapped
    // correctly or the engine corrupts silently. Verdicts and witnesses
    // must match the rebuild-free engine's.
    let mut rng = XorShift64::new(0x0051_17ED);
    let mut total_compactions = 0usize;
    for case in 0..25 {
        let (t, m) = random_module(&mut rng, 2, 3);
        let atoms: Vec<SignalId> = m.signals().into_iter().collect();
        let formulas: Vec<Ltl> = (0..1 + case % 3)
            .map(|_| random_formula(&mut rng, &atoms, 5))
            .collect();
        let mut plain =
            SymbolicModel::from_module(&m, &t, &[], SymbolicOptions::default()).expect("builds");
        let baseline = plain.satisfiable_conj(&formulas).expect("within limits");
        assert_eq!(plain.gc_stats().gc_collections, 0, "case {case}");

        let mut stressed = SymbolicModel::from_module(
            &m,
            &t,
            &[],
            SymbolicOptions {
                compact_trigger: 1,
                ..SymbolicOptions::default()
            },
        )
        .expect("builds");
        let verdict = stressed.satisfiable_conj(&formulas).expect("within limits");
        // A conjunct unsatisfiable before translation builds no product,
        // so not every case rebuilds — but the batch must.
        total_compactions += stressed.gc_stats().gc_collections;
        assert_eq!(
            baseline.is_some(),
            verdict.is_some(),
            "compacting changed a verdict on case {case}: {:?}",
            formulas
                .iter()
                .map(|f| f.display(&t).to_string())
                .collect::<Vec<_>>()
        );
        if let Some(w) = verdict {
            for f in &formulas {
                assert!(
                    f.holds_on(&w),
                    "witness after compactions violates {} (case {case})",
                    f.display(&t)
                );
            }
        }
        // Querying again reuses the (remapped) cached product.
        let again = stressed.satisfiable_conj(&formulas).expect("within limits");
        assert_eq!(
            again.is_some(),
            baseline.is_some(),
            "repeat query (case {case})"
        );
    }
    assert!(
        total_compactions > 0,
        "trigger 1 must compact across the batch"
    );
}
