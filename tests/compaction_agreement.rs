//! Garbage collection must be *invisible* in every answer: on random
//! coverage problems, the full pipeline at the default rebuild trigger
//! (no rebuild on models this small) and with a compaction forced at
//! every trigger point must produce identical verdicts, byte-identical
//! gap-property sets, and witnesses that replay on the concrete modules.
//!
//! Also pins the per-phase `Backend::Auto` choices the two-axis crossover
//! (state bits × predicted product width) makes for the packaged designs:
//! amba-ahb — 7 state bits but 29 conjunct automata — and the narrower
//! pipeline stay explicit, while mal-26 crosses over to symbolic.

use proptest::prelude::*;
use specmatcher::automata::translate_all;
use specmatcher::core::{ArchSpec, RtlSpec};
use specmatcher::core::{
    Backend, CoverageModel, CoverageRun, GapConfig, PropertyReport, SpecMatcher, SymbolicOptions,
};
use specmatcher::logic::{BoolExpr, SignalId, SignalTable};
use specmatcher::ltl::random::{random_formula, XorShift64};
use specmatcher::ltl::Ltl;
use specmatcher::netlist::{Module, ModuleBuilder};

// Only the simulator replay oracle is shared: this suite keeps its own
// problem generator, whose seeds and shapes differ from the common one.
#[allow(dead_code)]
mod common;
use common::replay;

/// Deterministically generates a small random module (same shape as the
/// backend-agreement suite).
fn random_module(rng: &mut XorShift64) -> (SignalTable, Module) {
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
        let q = b.latch(&format!("q{i}"), next, rng.flip());
        pool.push(q);
    }
    let out = *pool.last().expect("non-empty");
    b.mark_output(out);
    let m = b.finish().expect("generated netlist is valid");
    (t, m)
}

fn random_problem(seed: u64) -> (SignalTable, ArchSpec, RtlSpec) {
    let mut rng = XorShift64::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
    let (mut t, m) = random_module(&mut rng);
    let mod_atoms: Vec<SignalId> = m.signals().into_iter().collect();
    let mut atoms = mod_atoms.clone();
    atoms.push(t.intern("env"));
    let fa_budget = 4 + rng.below(4);
    let fa = random_formula(&mut rng, &mod_atoms, fa_budget);
    let n_props = rng.below(3);
    let props: Vec<(String, Ltl)> = (0..n_props)
        .map(|i| {
            let budget = 3 + rng.below(3);
            (format!("R{i}"), random_formula(&mut rng, &atoms, budget))
        })
        .collect();
    (
        t,
        ArchSpec::new([("A", fa)]),
        RtlSpec::new(props.iter().map(|(n, f)| (n.as_str(), f.clone())), [m]),
    )
}

/// Asserts that `run` (on `model`) gives `plain`'s answers: the same
/// verdicts and the same ordered gap-property sets, with witnesses that
/// replay on the modules.
fn assert_same_answers(
    t: &SignalTable,
    plain: &CoverageRun,
    run: &CoverageRun,
    model: &CoverageModel,
    what: &str,
) {
    assert_eq!(plain.all_covered(), run.all_covered(), "verdicts ({what})");
    // Byte-identical gap-property sets, *in order* — the canonical
    // candidate enumeration plus semantic closure verdicts must make the
    // report a function of the model, not of when the engine collected
    // garbage.
    let render = |rep: &PropertyReport| {
        rep.gap_properties
            .iter()
            .map(|g| {
                format!(
                    "{} @{} +{} {}",
                    g.formula.display(t),
                    g.position,
                    g.offset,
                    g.literal.display(t)
                )
            })
            .collect::<Vec<_>>()
    };
    for (rp, rr) in plain.properties.iter().zip(&run.properties) {
        assert_eq!(rp.covered, rr.covered, "per-property verdict ({what})");
        assert_eq!(render(rp), render(rr), "gap property sets diverge ({what})");
        // Witnesses may differ but must replay on the modules.
        if let Some(w) = &rr.witness {
            replay(model, t, w);
        }
        for g in &rr.gap_properties {
            assert!(!rr.formula.holds_on(&g.witness), "gap witness ({what})");
            replay(model, t, &g.witness);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Full-pipeline equivalence of a run with no rebuild vs one with a
    /// compaction forced at every fixpoint step and scratch exit.
    #[test]
    fn compaction_is_invisible_on_random_coverage_problems(seed in 1u64..100_000) {
        let (t, arch, rtl) = random_problem(seed);
        let config = GapConfig {
            term_depth: 2,
            max_terms: 3,
            max_candidates: 24,
            max_gap_properties: 4,
            ..GapConfig::default()
        };
        let matcher = SpecMatcher::new(config).with_backend(Backend::Symbolic);

        let build = |opts: SymbolicOptions| {
            CoverageModel::build_with_symbolic_options(&arch, &rtl, &t, Backend::Symbolic, opts)
                .expect("symbolic model builds")
        };
        let plain = build(SymbolicOptions::default());
        let run_plain = matcher
            .check_with_model(&arch, &rtl, &t, &plain)
            .expect("rebuild-free pipeline runs");
        let plain_stats = plain.gc_stats().expect("symbolic model");
        prop_assert_eq!(plain_stats.gc_collections, 0, "no rebuild at the default trigger");

        let stressed = build(SymbolicOptions {
            compact_trigger: 1,
            ..SymbolicOptions::default()
        });
        let run = matcher
            .check_with_model(&arch, &rtl, &t, &stressed)
            .expect("stressed pipeline runs");
        let what = format!("seed {seed}, trigger 1");
        assert_same_answers(&t, &run_plain, &run, &stressed, &what);
        // Every reachability fixpoint collects at trigger 1. A query whose
        // automata are empty (an intent equivalent to `true`, an
        // unsatisfiable RTL property) is settled before any product, and
        // with it any fixpoint, exists.
        let mut query = rtl.formulas().to_vec();
        query.push(Ltl::not(arch.properties()[0].formula().clone()));
        let stats = stressed.gc_stats().expect("symbolic model");
        if translate_all(&query).is_some() {
            prop_assert!(stats.gc_collections > 0, "trigger 1 must collect ({})", what);
        }
    }
}

#[test]
fn auto_crossover_reflects_product_width() {
    // Re-derived for the automaton reduction pipeline, and re-checked
    // after the complement-edge BDD core: amba-ahb — 7 state bits, 29
    // conjuncts, post-reduction predicted cost ≈ 1980 — runs its
    // *explicit* gap phase in ~8 s (the reduced per-candidate closure
    // automata are ~4x smaller). The anchored/partitioned symbolic
    // engine cut its forced-symbolic run from ~230 s to ~40 s, still
    // ~5x behind explicit, so Auto must keep resolving explicit for
    // both phases; the pre-reduction crossover (800) sent it symbolic.
    // (n=4 tuning caveat: the four packaged designs are the only
    // calibration set for the 2600 threshold.)
    let amba = specmatcher::designs::amba::ahb29();
    let model = CoverageModel::build(&amba.arch, &amba.rtl, &amba.table).expect("builds");
    assert_eq!(model.primary_backend(), Backend::Explicit, "amba primary");
    assert_eq!(
        model.gap_backend_choice(Backend::Auto),
        Backend::Explicit,
        "amba gap"
    );
    assert!(
        model.has_explicit(),
        "explicit structure carries Algorithm 1"
    );

    // The narrower pipeline design (12 properties, cost ≈ 350) stays
    // explicit on both axes, as before.
    let pipe = specmatcher::designs::pipeline::pipeline12();
    let model = CoverageModel::build(&pipe.arch, &pipe.rtl, &pipe.table).expect("builds");
    assert_eq!(
        model.primary_backend(),
        Backend::Explicit,
        "pipeline primary"
    );
    assert_eq!(
        model.gap_backend_choice(Backend::Auto),
        Backend::Explicit,
        "pipeline gap"
    );

    // mal-ex2 (6 properties) likewise.
    let ex2 = specmatcher::designs::mal::ex2();
    let model = CoverageModel::build(&ex2.arch, &ex2.rtl, &ex2.table).expect("builds");
    assert_eq!(
        model.primary_backend(),
        Backend::Explicit,
        "mal-ex2 primary"
    );

    // mal-26 still crosses over on the state-bit axis (17 bits > 14).
    let mal26 = specmatcher::designs::mal::mal26();
    let model = CoverageModel::build(&mal26.arch, &mal26.rtl, &mal26.table).expect("builds");
    assert_eq!(model.primary_backend(), Backend::Symbolic, "mal-26 primary");
    assert_eq!(
        model.gap_backend_choice(Backend::Auto),
        Backend::Symbolic,
        "mal-26 gap"
    );
}
