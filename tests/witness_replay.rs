//! Cross-layer validation: witnesses produced by the model checkers are
//! replayed on the cycle-accurate netlist simulator.
//!
//! The Kripke structure (`dic-fsm`), the symbolic engine (`dic-symbolic`)
//! and the simulator (`dic-netlist`) implement the same synchronous
//! semantics through entirely different code paths — explicit state
//! enumeration vs BDD image computation vs event-free cycle evaluation.
//! Every counterexample run the coverage pipeline reports, from either
//! backend, must therefore *replay*: driving the simulator with the
//! witness's input projection has to reproduce the witness's values on
//! every module-driven signal.

use specmatcher::core::{primary_coverage, Backend, CoverageModel, GapConfig, SpecMatcher};
use specmatcher::designs::{mal, scaling, table1_designs};
use specmatcher::logic::SignalId;
use specmatcher::netlist::Simulator;

/// Replays `witness` against the design's composed concrete modules,
/// checking each driven signal at each stored position.
fn assert_word_replays(
    design: &specmatcher::designs::Design,
    model: &CoverageModel,
    witness: &specmatcher::ltl::LassoWord,
) {
    // The model is the *composed* module (with cone-of-influence applied),
    // so replay against the composition the model actually used.
    let composed = model.composed();
    let mut sim = Simulator::new(composed, &design.table).expect("simulates");
    let driven: Vec<SignalId> = composed.driven_signals().into_iter().collect();
    let inputs: Vec<SignalId> = composed
        .inputs()
        .iter()
        .copied()
        .chain(model.input_signals().iter().copied())
        .filter(|s| !driven.contains(s))
        .collect();

    for (pos, expected) in witness.states().iter().enumerate() {
        let stimulus: Vec<(SignalId, bool)> =
            inputs.iter().map(|&i| (i, expected.get(i))).collect();
        let settled = sim.settle(&stimulus).clone();
        for &s in &driven {
            assert_eq!(
                settled.get(s),
                expected.get(s),
                "{}: driven signal {} diverges at position {pos}",
                design.name,
                design.table.name(s)
            );
        }
        sim.step(&stimulus);
    }
}

/// Builds the model with `backend`, demands a primary-coverage witness and
/// replays it.
fn assert_replays(design: &specmatcher::designs::Design, backend: Backend) {
    let model =
        CoverageModel::build_with_backend(&design.arch, &design.rtl, &design.table, backend)
            .expect("builds");
    let fa = design.arch.properties()[0].formula();
    let Some(witness) = primary_coverage(fa, &design.rtl, &model).expect("within limits") else {
        panic!(
            "{} must have a coverage gap to produce a witness",
            design.name
        );
    };
    assert_word_replays(design, &model, &witness);
}

#[test]
fn mal_ex2_witness_replays_on_simulator() {
    assert_replays(&mal::ex2(), Backend::Explicit);
}

#[test]
fn mal_ex2_symbolic_witness_replays_on_simulator() {
    assert_replays(&mal::ex2(), Backend::Symbolic);
}

#[test]
fn all_gapped_table1_witnesses_replay() {
    for design in table1_designs() {
        let model = CoverageModel::build(&design.arch, &design.rtl, &design.table).expect("builds");
        let fa = design.arch.properties()[0].formula();
        if design.name == "mal-26" {
            continue; // minutes-scale explicit primary; see the test below
        }
        if primary_coverage(fa, &design.rtl, &model)
            .expect("within limits")
            .is_some()
        {
            assert_replays(&design, Backend::Explicit);
        }
    }
}

#[test]
fn gapped_table1_symbolic_witnesses_replay() {
    // The symbolic engine makes mal-26 affordable here, so no row is
    // skipped: every gapped design's symbolic witness replays.
    for design in table1_designs() {
        let model = CoverageModel::build_with_backend(
            &design.arch,
            &design.rtl,
            &design.table,
            Backend::Symbolic,
        )
        .expect("builds");
        let fa = design.arch.properties()[0].formula();
        if let Some(witness) = primary_coverage(fa, &design.rtl, &model).expect("within limits") {
            assert_word_replays(&design, &model, &witness);
        }
    }
}

#[test]
#[ignore = "explicit mal-26 primary is minutes-scale; nightly lane"]
fn mal26_explicit_witness_replays() {
    assert_replays(&mal::mal26(), Backend::Explicit);
}

#[test]
fn scaling_witness_beyond_explicit_limit_replays() {
    // 22 latches + 1 input: only the symbolic engine can even pose the
    // question; its witness must still replay on the simulator.
    assert_replays(&scaling::chain_design(22, true), Backend::Symbolic);
}

/// Every reported gap property carries a run demonstrating the uncovered
/// scenario it addresses; like the primary witnesses, those runs must
/// replay on the simulator — for both gap engines.
fn assert_gap_witnesses_replay(design: &specmatcher::designs::Design, backend: Backend) {
    let model =
        CoverageModel::build_with_backend(&design.arch, &design.rtl, &design.table, backend)
            .expect("builds");
    let matcher = SpecMatcher::new(GapConfig::default()).with_backend(backend);
    let run = matcher
        .check_with_model(&design.arch, &design.rtl, &design.table, &model)
        .expect("pipeline runs");
    let mut seen = 0usize;
    for rep in &run.properties {
        for g in &rep.gap_properties {
            // The witness is a genuine bad run (refutes the intent)…
            assert!(
                !rep.formula.holds_on(&g.witness),
                "{}: gap witness fails to refute A",
                design.name
            );
            // …and replays on the concrete modules.
            assert_word_replays(design, &model, &g.witness);
            seen += 1;
        }
    }
    assert!(
        seen > 0,
        "{}: fixture must actually report gap properties",
        design.name
    );
}

#[test]
fn mal_ex2_gap_property_witnesses_replay_explicit() {
    assert_gap_witnesses_replay(&mal::ex2(), Backend::Explicit);
}

#[test]
fn mal_ex2_gap_property_witnesses_replay_symbolic() {
    assert_gap_witnesses_replay(&mal::ex2(), Backend::Symbolic);
}

#[test]
fn pipeline_gap_property_witnesses_replay_both_backends() {
    let d = specmatcher::designs::pipeline::pipeline12();
    assert_gap_witnesses_replay(&d, Backend::Explicit);
    assert_gap_witnesses_replay(&d, Backend::Symbolic);
}
