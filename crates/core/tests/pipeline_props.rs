//! End-to-end property tests for the coverage pipeline on *random* specs:
//! whatever the inputs, the reported verdicts and gap properties must obey
//! the paper's definitions.

use dic_core::{closes_gap, ArchSpec, CoverageModel, GapConfig, RtlSpec, SpecMatcher};
use dic_logic::{BoolExpr, SignalTable};
use dic_ltl::Ltl;
use dic_netlist::{Module, ModuleBuilder};
use proptest::prelude::*;

/// Deterministic xorshift for structure generation.
fn xs(mut s: u64) -> impl FnMut() -> u64 {
    move || {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        s.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// A small random glue module over `req`, `en`, driving `q` (and maybe a
/// wire `w`), plus a random arch property and a random RTL property chosen
/// from shapes that sometimes cover and sometimes gap.
fn random_problem(seed: u64) -> (SignalTable, ArchSpec, RtlSpec) {
    let mut rng = xs(seed | 1);
    let mut t = SignalTable::new();
    let mut b = ModuleBuilder::new("glue", &mut t);
    let a_in = b.input("a");
    let en = b.input("en");
    let q = match rng() % 3 {
        0 => b.latch_from("q", a_in, false),
        1 => b.latch(
            "q",
            BoolExpr::and([BoolExpr::var(a_in), BoolExpr::var(en)]),
            false,
        ),
        _ => b.latch(
            "q",
            BoolExpr::or([BoolExpr::var(a_in), BoolExpr::var(en)]),
            rng().is_multiple_of(2),
        ),
    };
    b.mark_output(q);
    let m: Module = b.finish().expect("generated module is valid");

    let arch_src = match rng() % 3 {
        0 => "G(req -> X X q)",
        1 => "G(req & en -> X X q)",
        _ => "G(req -> X X (q | !en))",
    };
    let rtl_src = match rng() % 4 {
        0 => "G(req -> X a)",
        1 => "G(req & en -> X a)",
        2 => "G(req -> X (a & en))",
        _ => "G(!req -> X !a)",
    };
    let arch = ArchSpec::new([("A", Ltl::parse(arch_src, &mut t).expect("parses"))]);
    let rtl = RtlSpec::new([("R", Ltl::parse(rtl_src, &mut t).expect("parses"))], [m]);
    (t, arch, rtl)
}

fn small_config() -> GapConfig {
    GapConfig {
        term_depth: 2,
        max_terms: 3,
        max_candidates: 24,
        ..GapConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The fundamental contract: gap properties are (a) weaker than the
    /// architectural property and (b) close the gap; witnesses really
    /// refute coverage; covered properties produce neither.
    #[test]
    fn pipeline_invariants(seed in 1u64..10_000) {
        let (t, arch, rtl) = random_problem(seed);
        let matcher = SpecMatcher::new(small_config());
        let run = matcher.check(&arch, &rtl, &t).expect("runs");
        let model = CoverageModel::build(&arch, &rtl, &t).expect("builds");
        for rep in &run.properties {
            if rep.covered {
                prop_assert!(rep.witness.is_none());
                prop_assert!(rep.gap_properties.is_empty());
                prop_assert!(rep.uncovered_terms.is_empty());
            } else {
                // Witness refutes A while satisfying every R property.
                let w = rep.witness.as_ref().expect("uncovered needs witness");
                prop_assert!(!rep.formula.holds_on(w));
                for p in rtl.properties() {
                    prop_assert!(p.formula().holds_on(w));
                }
                for g in &rep.gap_properties {
                    prop_assert!(
                        dic_automata::implies(&rep.formula, &g.formula),
                        "gap property must be weaker than A"
                    );
                    prop_assert!(
                        closes_gap(&g.formula, &rep.formula, &rtl, &model).expect("runs"),
                        "gap property must close the gap"
                    );
                    // The per-property demonstrating run is a genuine bad run.
                    prop_assert!(!rep.formula.holds_on(&g.witness));
                }
            }
        }
    }

    /// Theorem 2's exact hole always closes the gap, covered or not.
    #[test]
    fn exact_hole_always_closes(seed in 1u64..10_000) {
        let (t, arch, rtl) = random_problem(seed);
        let matcher = SpecMatcher::new(small_config());
        let run = matcher.check(&arch, &rtl, &t).expect("runs");
        let model = CoverageModel::build(&arch, &rtl, &t).expect("builds");
        for rep in &run.properties {
            prop_assert!(
                closes_gap(&rep.exact_hole, &rep.formula, &rtl, &model).expect("runs"),
                "Theorem 2 hole failed to close for {}",
                rep.formula.display(&t)
            );
        }
    }

    /// The primary verdict agrees between the pipeline and a direct
    /// Theorem 1 check.
    #[test]
    fn verdict_matches_direct_theorem1(seed in 1u64..10_000) {
        let (t, arch, rtl) = random_problem(seed);
        let model = CoverageModel::build(&arch, &rtl, &t).expect("builds");
        let run = SpecMatcher::new(small_config())
            .check(&arch, &rtl, &t)
            .expect("runs");
        for (rep, p) in run.properties.iter().zip(arch.properties()) {
            let direct =
                dic_core::primary_coverage(p.formula(), &rtl, &model).expect("within limits");
            prop_assert_eq!(rep.covered, direct.is_none());
        }
    }
}
