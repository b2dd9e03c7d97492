//! Regression pins for the automaton reduction pipeline: exact
//! post-reduction state and acceptance-set counts for every Table-1 spec
//! conjunct (each RTL property and the negated intent). A future rewrite
//! or tableau regression then shows up as a *diff in this table*, not as
//! an unexplained slowdown three layers downstream.
//!
//! The `pre` numbers are the legacy (pre-pipeline) GPVW tableau. The
//! paper's Table-1 RTL suites are dominated by shallow `G(x -> X y)`-class
//! safety properties whose tableaus are already simulation-minimal; the
//! pipeline's measured wins are on the `U`/`F`-shaped liveness conjuncts
//! pinned as strict decreases below, and (above all) on the deep
//! weakened-candidate automata of Algorithm 1's closure loop, which are
//! not per-design constants and are exercised by
//! `tests/reduction_equivalence.rs`.

use specmatcher::automata::translation_reduction;
use specmatcher::designs::table1_designs;
use specmatcher::ltl::Ltl;

/// (conjunct, pre states, post states, pre acceptance sets, post ones).
type Pin = (&'static str, usize, usize, usize, usize);

fn pins() -> Vec<(&'static str, Vec<Pin>)> {
    vec![
        (
            "mal-26",
            vec![
                ("G1", 6, 6, 0, 0),
                ("G2", 8, 8, 0, 0),
                ("G3", 10, 10, 0, 0),
                ("G4", 12, 12, 0, 0),
                ("C1", 4, 4, 0, 0),
                ("C2", 4, 4, 0, 0),
                ("C3", 4, 4, 0, 0),
                ("C4", 4, 4, 0, 0),
                ("B2", 4, 4, 0, 0),
                ("B3", 4, 4, 0, 0),
                ("B4", 4, 4, 0, 0),
                ("X1", 2, 2, 0, 0),
                ("X2", 2, 2, 0, 0),
                ("X3", 2, 2, 0, 0),
                ("X4", 2, 2, 0, 0),
                ("X5", 2, 2, 0, 0),
                ("X6", 2, 2, 0, 0),
                ("W1", 4, 4, 0, 0),
                ("W2", 4, 4, 0, 0),
                ("W3", 4, 4, 0, 0),
                ("W4", 4, 4, 0, 0),
                ("K2", 4, 4, 0, 0),
                ("K3", 4, 4, 0, 0),
                ("K4", 4, 4, 0, 0),
                ("INIT", 2, 2, 0, 0),
                ("FAIR", 2, 2, 1, 1),
                ("!A", 11, 11, 2, 2),
            ],
        ),
        (
            "pipeline",
            vec![
                ("R1_FILL", 6, 6, 0, 0),
                ("R2_ONLY", 4, 4, 0, 0),
                ("R3_QUIET", 4, 4, 0, 0),
                ("R4_MEMFAIR", 2, 2, 1, 1),
                ("R5_INIT", 2, 2, 0, 0),
                ("R6_STALL", 4, 4, 0, 0),
                ("R7_ISSUE", 6, 6, 0, 0),
                ("R8_ACKPULSE", 3, 2, 0, 0),
                ("R9_REQHOLD", 5, 5, 0, 0),
                ("R10_NOREQ", 4, 4, 0, 0),
                ("R11_INIT", 2, 2, 0, 0),
                ("R12_PENDHOLD", 5, 5, 0, 0),
                ("!A", 6, 6, 1, 1),
            ],
        ),
        (
            "amba-ahb",
            vec![
                ("M1_START", 8, 8, 0, 0),
                ("M1_NOGRANT", 4, 4, 0, 0),
                ("M1_HOLD", 7, 7, 0, 0),
                ("M1_REQHOLD", 5, 5, 0, 0),
                ("M1_DONE", 7, 4, 0, 0),
                ("M1_NOREQ", 5, 5, 0, 0),
                ("M1_INIT", 2, 2, 0, 0),
                ("M1_CONT", 9, 9, 0, 0),
                ("M2_START", 8, 8, 0, 0),
                ("M2_NOGRANT", 4, 4, 0, 0),
                ("M2_HOLD", 7, 7, 0, 0),
                ("M2_REQHOLD", 5, 5, 0, 0),
                ("M2_DONE", 7, 4, 0, 0),
                ("M2_NOREQ", 5, 5, 0, 0),
                ("M2_INIT", 2, 2, 0, 0),
                ("M2_CONT", 9, 9, 0, 0),
                ("S_IDLE_READY", 6, 6, 0, 0),
                ("S_FAIR", 2, 2, 1, 1),
                ("S_COMPLETE", 5, 3, 1, 1),
                ("S_INIT", 2, 2, 0, 0),
                ("S_LIVE", 4, 2, 1, 1),
                ("S_WAIT2", 7, 3, 0, 0),
                ("P_TRANS_MUTEX", 2, 2, 0, 0),
                ("P_OWN1", 4, 4, 0, 0),
                ("P_OWN2", 4, 4, 0, 0),
                ("P_INIT", 2, 2, 0, 0),
                ("P_GRANT_MUTEX", 2, 2, 0, 0),
                ("P_SERVE1", 5, 3, 1, 1),
                ("P_SERVE2", 8, 4, 1, 1),
                ("!A", 5, 5, 1, 1),
            ],
        ),
        (
            "mal-ex2",
            vec![
                ("R'1", 4, 4, 0, 0),
                ("R'2", 6, 6, 0, 0),
                ("C'1", 4, 4, 0, 0),
                ("C'2", 4, 4, 0, 0),
                ("INIT", 2, 2, 0, 0),
                ("FAIR", 2, 2, 1, 1),
                ("!A", 11, 11, 2, 2),
            ],
        ),
    ]
}

#[test]
fn table1_conjunct_sizes_are_pinned() {
    let designs = table1_designs();
    for (design_name, expected) in pins() {
        let design = designs
            .iter()
            .find(|d| d.name == design_name)
            .expect("packaged design");
        let mut conjuncts: Vec<(String, Ltl)> = design
            .rtl
            .properties()
            .iter()
            .map(|p| (p.name().to_owned(), p.formula().clone()))
            .collect();
        for p in design.arch.properties() {
            conjuncts.push((format!("!{}", p.name()), Ltl::not(p.formula().clone())));
        }
        assert_eq!(
            conjuncts.len(),
            expected.len(),
            "{design_name}: conjunct count drifted"
        );
        for ((name, f), &(pin_name, pre_s, post_s, pre_a, post_a)) in
            conjuncts.iter().zip(&expected)
        {
            assert_eq!(name, pin_name, "{design_name}: conjunct order drifted");
            let s = translation_reduction(f);
            assert_eq!(
                (s.pre.states, s.post.states, s.pre.acceptance_sets, s.post.acceptance_sets),
                (pre_s, post_s, pre_a, post_a),
                "{design_name}/{name}: automaton sizes drifted (pre/post states, pre/post acc)"
            );
            assert!(
                s.post.states <= s.pre.states
                    && s.post.transitions <= s.pre.transitions
                    && s.post.acceptance_sets <= s.pre.acceptance_sets,
                "{design_name}/{name}: reduction must never grow"
            );
        }
    }
}

#[test]
fn liveness_conjuncts_strictly_shrink() {
    // The conjuncts where the pipeline provably bites on Table 1 — every
    // `U`/`F`-shaped liveness property with a postponement branch — must
    // keep strictly decreasing; losing one of these is a reduction
    // regression even if nothing slows down immediately.
    let strict: &[(&str, &str)] = &[
        ("pipeline", "R8_ACKPULSE"),
        ("amba-ahb", "M1_DONE"),
        ("amba-ahb", "M2_DONE"),
        ("amba-ahb", "S_COMPLETE"),
        ("amba-ahb", "S_LIVE"),
        ("amba-ahb", "S_WAIT2"),
        ("amba-ahb", "P_SERVE1"),
        ("amba-ahb", "P_SERVE2"),
    ];
    let designs = table1_designs();
    for &(design_name, prop) in strict {
        let design = designs
            .iter()
            .find(|d| d.name == design_name)
            .expect("packaged design");
        let p = design
            .rtl
            .properties()
            .iter()
            .find(|p| p.name() == prop)
            .expect("pinned property exists");
        let s = translation_reduction(p.formula());
        assert!(
            s.post.states < s.pre.states,
            "{design_name}/{prop}: expected a strict state decrease, got {} -> {}",
            s.pre.states,
            s.post.states
        );
    }
}

#[test]
fn weakened_candidate_automata_shrink_hard() {
    // The gap phase's real automaton load: Algorithm 1 verifies hundreds
    // of weakened candidates `U`, each conjoined positively into a
    // closure product. Their tableaus carry doomed postponement branches
    // the reduction removes wholesale — pin the flagship shape so the
    // 4x product shrink (and with it the measured 14x explicit gap-phase
    // speedup) cannot silently regress.
    let mut t = specmatcher::logic::SignalTable::new();
    let u = Ltl::parse(
        "G(!wait & r1 & X((r1 & !g1) U r2) -> X(!d2 U d1))",
        &mut t,
    )
    .expect("parse");
    let s = translation_reduction(&u);
    assert_eq!(s.pre.states, 48, "legacy tableau size drifted");
    assert!(
        s.post.states <= 11,
        "weakened-candidate reduction regressed: {} -> {}",
        s.pre.states,
        s.post.states
    );
}
