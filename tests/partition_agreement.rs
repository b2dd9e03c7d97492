//! Conjunctive transition-relation partitioning must be *invisible* in
//! every answer: on random coverage problems, the full pipeline with
//! `--partition off` (one conjunct per latch/automaton) and with greedy
//! clustering forced at a tiny cluster cap (maximally different cluster
//! boundaries) must produce identical verdicts, byte-identical
//! gap-property sets, and witnesses that replay on the concrete modules.
//!
//! Clustering changes only which conjuncts each `and_exists` sweep sees —
//! the conjunction itself, and therefore every fixpoint, is unchanged.
//! The heavier four-design Table 1 comparison (fingerprints diffed
//! partition on vs off) runs in the nightly CI lane; here an `--ignored`
//! test carries it for local runs.

use proptest::prelude::*;
use specmatcher::core::{
    Backend, CoverageModel, GapConfig, PartitionMode, ReorderMode, SpecMatcher, SymbolicOptions,
};
use specmatcher::core::{ArchSpec, RtlSpec};
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
/// reorder-agreement suite, offset seeds so the two suites explore
/// different problems).
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

    /// Full-pipeline equivalence of `--partition off` vs clustering forced
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
        // Reordering off in all three runs: this suite isolates the
        // partitioning axis (the reorder suite covers the other one).
        let base = SymbolicOptions::default().with_reorder(ReorderMode::Off);
        let run_off = matcher
            .check_with_model(&arch, &rtl, &t, &build(
                base.with_partition(PartitionMode::Off),
            ))
            .expect("partition-off pipeline runs");
        let run_tiny = matcher
            .check_with_model(&arch, &rtl, &t, &build(SymbolicOptions {
                partition: PartitionMode::Auto,
                cluster_size: 2, // every merge overflows: cluster boundaries everywhere
                ..base
            }))
            .expect("tiny-cluster pipeline runs");
        let run_auto = matcher
            .check_with_model(&arch, &rtl, &t, &build(
                base.with_partition(PartitionMode::Auto),
            ))
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
                    "gap property sets diverge under partitioning (seed {})",
                    seed
                );
                for g in &pa.gap_properties {
                    prop_assert!(!pa.formula.holds_on(&g.witness));
                }
            }
        }
        // Witnesses may differ between representations but must replay.
        let stressed = CoverageModel::build_with_symbolic_options(
            &arch, &rtl, &t, Backend::Symbolic,
            SymbolicOptions {
                partition: PartitionMode::Auto,
                cluster_size: 2,
                ..SymbolicOptions::default().with_reorder(ReorderMode::Off)
            },
        ).expect("symbolic model builds");
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

/// The four Table 1 designs, gap fingerprints diffed partition on vs off.
/// Slow (amba-ahb runs its full symbolic gap phase twice); the nightly CI
/// lane runs it — locally: `cargo test --release -- --ignored table1`.
#[test]
#[ignore = "minutes-long; nightly CI lane runs it (see .github/workflows/ci.yml)"]
fn table1_gap_fingerprints_agree_partition_on_vs_off() {
    for design in specmatcher::designs::table1_designs() {
        let mut fingerprints = Vec::new();
        for mode in [PartitionMode::Off, PartitionMode::Auto] {
            let matcher = SpecMatcher::new(GapConfig::default())
                .with_backend(Backend::Symbolic)
                .with_partition(mode);
            let run = design.check(&matcher).expect("table1 design checks");
            fingerprints.push(dic_bench::gap_fingerprint(&run, &design.table));
        }
        assert_eq!(
            fingerprints[0], fingerprints[1],
            "{}: gap fingerprints diverge partition off vs auto",
            design.name
        );
    }
}
