//! Worker-count determinism: the gap-property sets reported by Algorithm 1
//! are a function of the model alone — `--jobs 1` and `--jobs N` must
//! produce byte-identical *ordered* reports (formula, position, literal,
//! offset, attribution term and witness), on random problems and on the
//! packaged Table 1 designs alike.
//!
//! This is the acid test for the parallel closure stage. Every worker
//! count runs one loop: workers claim candidates in canonical order,
//! share one bad-run pool and probe memo, wait only on the earlier
//! candidates a verdict depends on, and whichever worker delivers the
//! frontier's verdict advances the merge in canonical order. At
//! `--jobs 1` nothing is ever in flight; at `--jobs N` the claims, waits
//! and pooled runs follow the thread schedule, so agreement here pins the
//! deterministic-merge contract.

use proptest::prelude::*;
use specmatcher::core::{CoverageModel, GapConfig, PropertyReport, SpecMatcher};
use specmatcher::designs::{amba, mal, pipeline, Design};
use specmatcher::logic::SignalTable;

mod common;
use common::{random_problem, replay};

/// The full ordered fingerprint of a property report's gap set: every
/// field that reaches the rendered report or the JSON document.
fn fingerprint(rep: &PropertyReport, t: &SignalTable) -> Vec<String> {
    rep.gap_properties
        .iter()
        .map(|g| {
            format!(
                "{} @ {} lit {} off {} term {} wit {:?}",
                g.formula.display(t),
                g.position,
                g.literal.display(t),
                g.offset,
                g.term.display(t),
                g.witness,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Ordered gap reports are identical at one worker and at four, and
    /// every witness of the parallel run replays on the concrete modules.
    #[test]
    fn jobs_one_and_four_report_identical_gap_sets(seed in 1u64..100_000) {
        let (t, arch, rtl) = random_problem(seed);
        let config = GapConfig {
            term_depth: 2,
            max_terms: 3,
            max_candidates: 24,
            max_gap_properties: 4,
            ..GapConfig::default()
        };

        let run_1 = SpecMatcher::new(config.clone())
            .with_jobs(1)
            .check(&arch, &rtl, &t)
            .expect("sequential pipeline runs");
        let run_4 = SpecMatcher::new(config)
            .with_jobs(4)
            .check(&arch, &rtl, &t)
            .expect("parallel pipeline runs");

        prop_assert_eq!(run_1.all_covered(), run_4.all_covered(), "verdicts (seed {})", seed);
        let model = CoverageModel::build(&arch, &rtl, &t).expect("builds");
        for (r1, r4) in run_1.properties.iter().zip(&run_4.properties) {
            prop_assert_eq!(
                fingerprint(r1, &t),
                fingerprint(r4, &t),
                "ordered gap reports diverge on seed {}: A = {}",
                seed,
                r1.formula.display(&t)
            );
            for g in &r4.gap_properties {
                prop_assert!(!r1.formula.holds_on(&g.witness), "witness fails (seed {seed})");
                replay(&model, &t, &g.witness);
            }
        }
    }
}

/// The smoke budget of `table1_designs.rs`: enough to exercise merge
/// refunds on every packaged design while keeping the fast lane fast.
fn smoke_config() -> GapConfig {
    GapConfig {
        max_terms: 2,
        max_candidates: 24,
        max_gap_properties: 2,
        ..GapConfig::default()
    }
}

/// Runs `design` at the given worker count and returns the ordered gap
/// formulas of its (single) architectural property.
fn gap_formulas(design: &Design, jobs: usize) -> Vec<String> {
    let run = design
        .check(&SpecMatcher::new(smoke_config()).with_jobs(jobs))
        .unwrap_or_else(|e| panic!("design {} failed to run: {e}", design.name));
    run.properties[0]
        .gap_properties
        .iter()
        .map(|g| g.formula.display(&design.table).to_string())
        .collect()
}

/// Pins a design's exact ordered gap set at one worker and at four.
fn assert_pinned(design: &Design, expected: &[&str]) {
    let one = gap_formulas(design, 1);
    assert_eq!(
        one, expected,
        "{}: gap set drifted at --jobs 1",
        design.name
    );
    let four = gap_formulas(design, 4);
    assert_eq!(
        one, four,
        "{}: gap set depends on the worker count",
        design.name
    );
}

#[test]
fn pipeline_gap_set_is_jobs_invariant() {
    assert_pinned(
        &pipeline::pipeline12(),
        &[
            "G(req & X !fill & !stall & !pend -> X X X fill)",
            "G(req & X X !ack & !stall & !pend -> X X X fill)",
        ],
    );
}

#[test]
fn mal_ex2_gap_set_is_jobs_invariant() {
    assert_pinned(
        &mal::ex2(),
        &[
            "G(!wait & r1 & X((r1 & !g1) U r2) -> X(!d2 U d1))",
            "G(!wait & r1 & X((r1 & !g2) U r2) -> X(!d2 U d1))",
        ],
    );
}

#[test]
#[ignore = "tens of seconds per worker count; nightly lane"]
fn mal26_gap_set_is_jobs_invariant() {
    assert_pinned(
        &mal::mal26(),
        &[
            "G(!wait & r1 & X((r1 & !hit) U r2) -> X(!d2 U d1))",
            "G(!wait & r1 & X((r1 & hit) U r2) -> X(!d2 U d1))",
        ],
    );
}

#[test]
#[ignore = "tens of seconds per worker count; nightly lane"]
fn amba_ahb_gap_set_is_jobs_invariant() {
    assert_pinned(
        &amba::ahb29(),
        &[
            "G(!htrans1 & !htrans2 & hbusreq1 -> X(!(htrans2 & hready) U htrans1))",
            "G(!htrans1 & !htrans2 & hbusreq1 -> X(!(htrans2 & X !htrans2) U htrans1))",
        ],
    );
}
