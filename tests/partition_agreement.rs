//! Clustering the conjunctively partitioned transition relation must be
//! *invisible* in every answer: on random coverage problems, the full
//! pipeline at `cluster_size: 1` (one conjunct per latch/automaton, the
//! unclustered relation), at `cluster_size: 2` (maximally different
//! cluster boundaries) and at the default cap must produce identical
//! verdicts, byte-identical gap-property sets, and witnesses that replay
//! on the concrete modules.
//!
//! Clustering changes only which conjuncts each `and_exists` sweep sees —
//! the conjunction itself, and therefore every fixpoint, is unchanged.
//! The heavier four-design Table 1 comparison (fingerprints diffed
//! unclustered vs default) is an `--ignored` test, which the nightly CI
//! lane runs.

use proptest::prelude::*;
use specmatcher::core::{ArchSpec, RtlSpec};
use specmatcher::core::{Backend, CoverageModel, GapConfig, SpecMatcher, SymbolicOptions};
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
/// collection-agreement suite in `compaction_agreement.rs`, offset seeds so
/// the two suites explore different problems).
fn random_module(rng: &mut XorShift64) -> (SignalTable, Module) {
    let mut t = SignalTable::new();
    let mut b = ModuleBuilder::new("rand", &mut t);
    let n_inputs = 1 + rng.below(3);
    let mut pool: Vec<SignalId> = (0..n_inputs)
        .map(|i| b.input(&format!("i{i}")))
        .collect();

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
    for i in 0..2 + rng.below(3) {
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
    let mut rng = XorShift64::new(seed.wrapping_mul(0xA076_1D64_78BD_642F).wrapping_add(7));
    let (mut t, m) = random_module(&mut rng);
    let mod_atoms: Vec<SignalId> = m.signals().into_iter().collect();
    let mut atoms = mod_atoms.clone();
    atoms.push(t.intern("env"));
    let fa_budget = 4 + rng.below(4);
    let fa = random_formula(&mut rng, &mod_atoms, fa_budget);
    let n_props = 1 + rng.below(3);
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

fn gap_render(rep: &specmatcher::core::PropertyReport, t: &SignalTable) -> Vec<String> {
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
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Full-pipeline equivalence of the unclustered relation vs clustering
    /// at a pathologically small cluster cap (and the default cap).
    #[test]
    fn partitioning_is_invisible_on_random_coverage_problems(seed in 1u64..100_000) {
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
        let clustered = |cluster_size| SymbolicOptions {
            cluster_size,
            ..SymbolicOptions::default()
        };
        let run_off = matcher
            .check_with_model(&arch, &rtl, &t, &build(clustered(1)))
            .expect("unclustered pipeline runs");
        let run_tiny = matcher
            // Nearly every merge overflows: cluster boundaries everywhere.
            .check_with_model(&arch, &rtl, &t, &build(clustered(2)))
            .expect("tiny-cluster pipeline runs");
        let run_auto = matcher
            .check_with_model(&arch, &rtl, &t, &build(SymbolicOptions::default()))
            .expect("default-cluster pipeline runs");

        for runs in [[&run_off, &run_tiny], [&run_off, &run_auto]] {
            let [ro, ra] = runs;
            prop_assert_eq!(ro.all_covered(), ra.all_covered(), "verdicts (seed {})", seed);
            for (po, pa) in ro.properties.iter().zip(&ra.properties) {
                prop_assert_eq!(po.covered, pa.covered, "per-property verdict (seed {})", seed);
                // Byte-identical gap-property sets, *in order*: the report
                // must be a function of the model, not of how the
                // transition relation happened to be clustered.
                prop_assert_eq!(
                    gap_render(po, &t),
                    gap_render(pa, &t),
                    "gap property sets diverge under clustering (seed {})",
                    seed
                );
                for g in &pa.gap_properties {
                    prop_assert!(!pa.formula.holds_on(&g.witness));
                }
            }
        }
        // Witnesses may differ between representations but must replay.
        let stressed = build(clustered(2));
        for p in &run_tiny.properties {
            if let Some(w) = &p.witness {
                replay(&stressed, &t, w);
            }
            for g in &p.gap_properties {
                replay(&stressed, &t, &g.witness);
            }
        }
    }
}

/// The four Table 1 designs, gap fingerprints diffed unclustered
/// (`cluster_size: 1`) vs the default cap. Slow (amba-ahb runs its full
/// symbolic gap phase twice); the nightly CI lane runs it — locally:
/// `cargo test --release -- --ignored table1`.
#[test]
#[ignore = "minutes-long; nightly CI lane runs it (see .github/workflows/ci.yml)"]
fn table1_gap_fingerprints_agree_unclustered_vs_clustered() {
    let matcher = SpecMatcher::new(GapConfig::default()).with_backend(Backend::Symbolic);
    for design in specmatcher::designs::table1_designs() {
        let (arch, rtl, t) = (&design.arch, &design.rtl, &design.table);
        let mut fingerprints = Vec::new();
        for cluster_size in [1, SymbolicOptions::default().cluster_size] {
            let options = SymbolicOptions {
                cluster_size,
                ..SymbolicOptions::default()
            };
            let mut model = CoverageModel::build_with_symbolic_options(
                arch,
                rtl,
                t,
                Backend::Symbolic,
                options,
            )
            .expect("table1 design builds");
            model.set_bmc_mode(matcher.bmc());
            let run = matcher
                .check_with_model(arch, rtl, t, &model)
                .expect("table1 design checks");
            fingerprints.push(dic_bench::gap_fingerprint(&run, t));
        }
        assert_eq!(
            fingerprints[0], fingerprints[1],
            "{}: gap fingerprints diverge unclustered vs clustered",
            design.name
        );
    }
}
