//! Integration tests: the paper's Examples 1–4 through the public facade.

use specmatcher::automata::{implies, stronger_than};
use specmatcher::core::{closes_gap, CoverageModel, GapConfig, SpecMatcher};
use specmatcher::designs::{mal, simple};
use specmatcher::fsm::extract_fsm;
use specmatcher::ltl::LtlNode;

/// Bounded budget: the full-budget run (which also reproduces the verbatim
/// paper U) lives in the designs crate; integration level checks verdicts.
fn quick() -> GapConfig {
    GapConfig {
        max_terms: 2,
        max_candidates: 16,
        ..GapConfig::default()
    }
}

#[test]
fn ex1_coverage_holds() {
    let d = mal::ex1();
    let run = d.check(&SpecMatcher::new(quick())).expect("runs");
    assert!(run.all_covered(), "Example 1: the decomposition is sound");
    assert_eq!(run.properties.len(), 1);
    assert!(run.properties[0].witness.is_none());
}

#[test]
fn ex2_gap_exists_and_is_represented() {
    let d = mal::ex2();
    let run = d.check(&SpecMatcher::new(quick())).expect("runs");
    let rep = &run.properties[0];
    assert!(!rep.covered, "Example 2: the gap must be found");
    // The tool produces uncovered terms and at least one structured gap
    // property, and the exact Theorem 2 hole is always reported.
    assert!(!rep.uncovered_terms.is_empty());
    assert!(matches!(rep.exact_hole.node(), LtlNode::Or(_)));
    // Gap properties are weaker than A and close the gap (re-verified).
    let model = CoverageModel::build(&d.arch, &d.rtl, &d.table).expect("builds");
    for g in &rep.gap_properties {
        assert!(implies(&rep.formula, &g.formula));
        assert!(closes_gap(&g.formula, &rep.formula, &d.rtl, &model).expect("runs"));
    }
}

#[test]
fn ex4_paper_gap_property_closes() {
    let mut d = mal::ex2();
    let u = mal::paper_gap_property(&mut d);
    let model = CoverageModel::build(&d.arch, &d.rtl, &d.table).expect("builds");
    let fa = d.arch.properties()[0].formula();
    assert!(stronger_than(fa, &u), "A is strictly stronger than U");
    assert!(
        closes_gap(&u, fa, &d.rtl, &model).expect("runs"),
        "U closes the gap"
    );
}

#[test]
fn ex3_fsm_and_tm() {
    let (t, m) = simple::model();
    let fsm = extract_fsm(&m, &t).expect("small");
    assert_eq!(fsm.num_states(), 2, "Fig. 5(b) has two states");
    // T_M holds on the model itself.
    let k = specmatcher::fsm::Kripke::from_module(&m, &t, &[]).expect("small");
    let tm = specmatcher::core::tm::relational_tm(&m);
    assert!(specmatcher::automata::holds_in(&tm, &k).holds());
}

#[test]
fn gap_report_renders_for_humans() {
    let d = mal::ex2();
    let run = d.check(&SpecMatcher::new(quick())).expect("runs");
    let text = run.render(&d.table);
    assert!(text.contains("NOT covered"));
    assert!(text.contains("uncovered terms"));
    assert!(text.contains("timings"));
}
