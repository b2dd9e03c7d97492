//! Integration smoke tests over the Table 1 designs: every packaged design
//! builds, runs the full pipeline, and matches its documented verdict.
//!
//! The wide designs (mal-26, amba-ahb) take tens of seconds each even with
//! the reduced gap budget, so their full-pipeline runs live behind
//! `#[ignore]` and execute in the nightly lane (`cargo test -q --
//! --ignored`); the default lane keeps the fast rows plus the structural
//! assertions, so tier-1 wall time stays low without losing the coverage.
//! Every row's primary verdict is cheap on both engines, so those pins
//! (plus the scaling rows past the explicit limit and two gap-phase
//! smokes) run in tier 1 under the `Auto` and the `Symbolic` request: a
//! backend-selection regression, a lost paper gap property or a
//! reintroduced state-explosion cliff fails here.

use specmatcher::core::{primary_coverage, Backend, GapConfig, SpecMatcher};
use specmatcher::designs::{amba, mal, pipeline, scaling, table1_designs, Design};

/// The engine requests every pin below holds under.
const REQUESTS: [Backend; 2] = [Backend::Auto, Backend::Symbolic];

/// Cheap configuration: the full Table 1 run happens in the bench
/// harness; here we only assert the pipeline completes and verdicts hold.
fn smoke_config() -> GapConfig {
    GapConfig {
        max_terms: 2,
        max_candidates: 24,
        max_gap_properties: 2,
        ..GapConfig::default()
    }
}

/// Full-pipeline assertions shared by the fast and nightly lanes.
fn assert_design_runs(design: &Design) {
    let matcher = SpecMatcher::new(smoke_config());
    let run = design
        .check(&matcher)
        .unwrap_or_else(|e| panic!("design {} failed to run: {e}", design.name));
    assert_eq!(run.properties.len(), 1, "{}", design.name);
    assert!(
        !run.all_covered(),
        "{}: Table 1 designs are tuned to exercise gap finding",
        design.name
    );
    assert!(
        run.num_rtl_properties >= 2,
        "{}: property suite missing",
        design.name
    );
}

#[test]
fn fast_table1_designs_run() {
    assert_design_runs(&pipeline::pipeline12());
    assert_design_runs(&mal::ex2());
}

#[test]
#[ignore = "tens of seconds even with the reduced gap budget; nightly lane"]
fn mal26_full_pipeline_runs() {
    assert_design_runs(&mal::mal26());
}

#[test]
#[ignore = "tens of seconds even with the reduced gap budget; nightly lane"]
fn amba_ahb_full_pipeline_runs() {
    assert_design_runs(&specmatcher::designs::amba::ahb29());
}

#[test]
fn table1_property_counts_match_paper() {
    let designs = table1_designs();
    let counts: Vec<(_, _)> = designs
        .iter()
        .map(|d| (d.name, d.rtl.num_properties()))
        .collect();
    assert_eq!(counts[0], ("mal-26", 26));
    assert_eq!(counts[1], ("pipeline", 12));
    assert_eq!(counts[2], ("amba-ahb", 29));
}

#[test]
fn pipeline_gap_mentions_ack_timing() {
    let d = pipeline::pipeline12();
    let run = d
        .check(&SpecMatcher::new(GapConfig::default()))
        .expect("runs");
    let rep = &run.properties[0];
    assert!(!rep.covered);
    let ack = d.table.lookup("ack").expect("ack interned");
    assert!(
        rep.gap_properties
            .iter()
            .any(|g| g.formula.atoms().contains(&ack)),
        "the pipeline gap is about ack timing: {:?}",
        rep.gap_properties
            .iter()
            .map(|g| g.describe(&d.table))
            .collect::<Vec<_>>()
    );
}

/// Every Table 1 row, mal-ex1 and the two scaling rows past the explicit
/// limit, with their pinned primary verdict (`true` = covered).
fn pinned_verdicts() -> Vec<(Design, bool)> {
    vec![
        (mal::mal26(), false),
        (pipeline::pipeline12(), false),
        (amba::ahb29(), false),
        (mal::ex2(), false),
        (mal::ex1(), true),
        (scaling::chain_design(24, false), true),
        (scaling::chain_design(22, true), false),
    ]
}

#[test]
fn primary_verdicts_are_pinned_under_both_requests() {
    for backend in REQUESTS {
        let matcher = SpecMatcher::new(GapConfig::default()).with_backend(backend);
        for (design, covered) in pinned_verdicts() {
            let label = format!("{} under {backend}", design.name);
            let model = matcher
                .build_model(&design.arch, &design.rtl, &design.table)
                .unwrap_or_else(|e| panic!("{label}: model build failed: {e}"));
            let fa = design.arch.properties()[0].formula();
            let witness = primary_coverage(fa, &design.rtl, &model)
                .unwrap_or_else(|e| panic!("{label}: primary question failed: {e}"));
            assert_eq!(witness.is_none(), covered, "{label}");
        }
    }
}

/// The full pipeline on mal-ex2 at the default configuration reports the
/// paper's Example 4 property `U` and its `X !g2` sibling among the
/// weakest gap properties, on either engine.
#[test]
fn mal_ex2_reports_the_paper_gap_properties_under_both_requests() {
    let mut ex2 = mal::ex2();
    let paper_u = mal::paper_gap_property(&mut ex2);
    let adapted_u = mal::adapted_gap_property(&mut ex2);
    for backend in REQUESTS {
        let matcher = SpecMatcher::new(GapConfig::default()).with_backend(backend);
        let run = ex2.check(&matcher).expect("mal-ex2 runs");
        let rep = &run.properties[0];
        assert!(!rep.covered && rep.unknown.is_none(), "under {backend}");
        for (what, u) in [("paper U", &paper_u), ("X !g2 sibling", &adapted_u)] {
            assert!(
                rep.gap_properties
                    .iter()
                    .any(|g| specmatcher::automata::equivalent(&g.formula, u)),
                "{what} missing under {backend}: {:?}",
                rep.gap_properties
                    .iter()
                    .map(|g| g.describe(&ex2.table))
                    .collect::<Vec<_>>()
            );
        }
    }
}

/// Past the explicit limit the gap phase still runs (symbolically) and
/// enumerates the uncovered terms of the chain's off-by-one gap.
#[test]
fn chain_22_gap_reports_uncovered_terms_under_both_requests() {
    let chain = scaling::chain_design(22, true);
    for backend in REQUESTS {
        let matcher = SpecMatcher::new(GapConfig::default()).with_backend(backend);
        let run = chain.check(&matcher).expect("chain-22-gap runs");
        assert_eq!(run.backend, Backend::Symbolic, "under {backend}");
        let rep = &run.properties[0];
        assert!(!rep.covered && rep.unknown.is_none(), "under {backend}");
        assert!(!rep.uncovered_terms.is_empty(), "under {backend}");
    }
}
