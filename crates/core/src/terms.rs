//! Uncovered terms: step 2(a)/2(b) of the paper's Algorithm 1.
//!
//! The hole `U = FA ∨ ¬(R ∧ T_M)` is approximated by a set `UM` of bounded
//! *uncovered terms* — temporal cubes like `r1 & X r2 & X X !hit` describing
//! scenarios on which the RTL spec can still violate the intent. Instead of
//! unfolding `U` symbolically to its fixpoint, we enumerate distinct
//! counterexample runs of `R ∧ ¬FA` in `M` (each is a lasso), truncate them
//! to depth-bounded cubes, and *generalize* each cube by dropping literals
//! while the scenario stays realizable-and-bad. Signals outside the
//! observable alphabet are then removed by universal quantification over
//! positioned variables (sound for bounded formulas), exactly as in the
//! paper's step 2(b).
//!
//! Every scenario query runs on the model's engine (the crate-private
//! gap-engine handle): the explicit engine answers it on
//! memoized factored products, the symbolic engine by pushing the
//! scenario cube through the cached base product's frontier BDDs — so term
//! enumeration works (and stays fast) on models far beyond the explicit
//! state limit.

use crate::error::CoreError;
use crate::model::{CoverageModel, GapEngine};
use crate::spec::RtlSpec;
use crate::weaken::GapConfig;
use dic_ltl::cube::{exists_eliminate, forall_eliminate};
use dic_ltl::{LassoWord, Ltl, LtlNode, TemporalCube};

/// Computes the uncovered terms `UM` for one architectural property, and
/// the counterexample runs they were enumerated from.
///
/// Each returned cube `c` satisfies: some run of `M` consistent with `R`
/// matches `c` at time 0 and violates `fa` — i.e. the gap is non-empty on
/// the scenario `c` — and every literal of `c` is *essential*: flipping it
/// makes the (window-anchored) violation impossible. Together the cubes
/// cover every counterexample found within the enumeration budget.
///
/// The runs are genuine runs of `M ⊨ R ∧ ¬fa`:
/// [`find_gap`](crate::weaken::find_gap) seeds its bad-run pool with them,
/// rejecting most non-closing weakening candidates by word evaluation
/// before any closure model check runs.
///
/// # Errors
///
/// [`CoreError::Symbolic`] when the lazy symbolic build or a query
/// exceeds the node budget.
pub fn uncovered_terms(
    fa: &Ltl,
    rtl: &RtlSpec,
    model: &CoverageModel,
    config: &GapConfig,
) -> Result<(Vec<TemporalCube>, Vec<LassoWord>), CoreError> {
    let engine = model.gap_engine()?;
    let base: Vec<Ltl> = rtl
        .formulas()
        .iter()
        .cloned()
        .chain([Ltl::not(fa.clone())])
        .collect();
    let term_signals = model.term_signals();

    // Scenario enumeration by *probing*: after the first counterexample,
    // new scenarios are sought by pinning single literals to their opposite
    // values. (Excluding whole previous cubes with ¬cube conjuncts is
    // exponentially worse: each negated cube is a highly nondeterministic
    // automaton and the on-the-fly intersection multiplies them out.)
    let mut terms: Vec<TemporalCube> = Vec::new();
    let mut runs: Vec<LassoWord> = Vec::new();
    let mut probes: Vec<TemporalCube> = vec![TemporalCube::top()];
    let mut probed = 0usize;
    while let Some(probe) = probes.get(probed).cloned() {
        probed += 1;
        if terms.len() >= config.max_terms || probed > 4 * config.max_terms {
            break;
        }
        let Some(word) = engine.scenario(&base, &probe)? else {
            continue;
        };
        // Anchor the violation: for G(body), locate the first window where
        // the body fails on this run; generalization then asks which
        // literals are necessary for *that* violation, not for a violation
        // somewhere (which every literal is irrelevant to).
        let (anchored, window) = anchor_violation(fa, &word);
        let depth = window + config.term_depth;
        let raw = TemporalCube::from_word_prefix(&word, depth, &term_signals);
        let cube = generalize(engine, raw, rtl, &anchored, model)?;
        if terms.contains(&cube) {
            continue;
        }
        // Queue opposite-value probes for the literals of the new term.
        for &(t, l) in cube.lits() {
            let flipped =
                TemporalCube::from_lits([(t, l.negated())]).expect("single literal is consistent");
            probes.push(flipped);
        }
        terms.push(cube);
        runs.push(word);
    }

    let hidden = model.hidden();
    if !hidden.is_empty() {
        let universal = forall_eliminate(&terms, hidden);
        // Universal elimination can collapse to `false` when scenarios
        // pin hidden signals; fall back to the existential projection,
        // which over-approximates but stays informative.
        if !universal.is_empty() {
            return Ok((universal, runs));
        }
        return Ok((exists_eliminate(&terms, hidden), runs));
    }
    Ok((terms, runs))
}

/// For `fa = G(body)`, returns `X^w ¬body` where `w` is the first stored
/// position of `word` at which `body` fails (such a position exists because
/// the word refutes `fa`); otherwise `(¬fa, 0)`. The anchored formula
/// implies `¬fa`, so checks against it stay sound.
fn anchor_violation(fa: &Ltl, word: &LassoWord) -> (Ltl, usize) {
    if let LtlNode::Globally(body) = fa.node() {
        let vals = body.eval_positions(word);
        if let Some(w) = vals.iter().position(|ok| !ok) {
            return (Ltl::next_n(Ltl::not(body.clone()), w), w);
        }
    }
    (Ltl::not(fa.clone()), 0)
}

/// Flip-based generalization. A literal is dropped when either
///
/// * the scenario remains a realizable anchored violation with the literal
///   *negated* — its value is irrelevant to the gap — or
/// * the literal is on a signal *driven by the concrete modules* and the
///   flipped cube is unrealizable in `M` under `R` even without the
///   violation requirement — a model fact implied by the rest of the cube,
///   which the paper's unfolding absorbs into `T_M` rather than report.
///
/// The second test is deliberately not applied to free inputs: an input
/// literal whose flip kills the violation (e.g. `X X !hit` in Example 2)
/// is a genuine *cause* the designer must see, even where an output
/// literal would pin it; dropping causes in favour of effects would strip
/// `UM` of exactly the literals step 2(d) needs.
fn generalize(
    engine: GapEngine<'_>,
    cube: TemporalCube,
    rtl: &RtlSpec,
    anchored: &Ltl,
    model: &CoverageModel,
) -> Result<TemporalCube, CoreError> {
    let free = model.input_signals();
    let mut current = cube;
    // Iterate literals by decreasing time so late (usually incidental)
    // constraints go first.
    let mut lits: Vec<_> = current.lits().to_vec();
    lits.sort_by_key(|(t, l)| (usize::MAX - t, l.signal()));
    for (t, l) in lits {
        let without = current.without(t, l.signal());
        let Some(flipped) = without.and_lit(t, l.negated()) else {
            continue;
        };
        // Both tests share the `R`(-and-anchor) product of `M`; either
        // engine materializes it once and memoizes.
        if engine.scenario_sat(rtl.formulas(), Some(anchored), &flipped)? {
            // Violation survives the flip: the literal is irrelevant.
            current = without;
            continue;
        }
        if free.contains(&l.signal()) {
            continue; // causes are kept even when effects pin them
        }
        if !engine.scenario_sat(rtl.formulas(), None, &flipped)? {
            // The flip is impossible altogether: the literal is implied by
            // the rest of the cube on every R-consistent run of M.
            current = without;
        }
    }
    Ok(current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CoverageModel;
    use crate::spec::{ArchSpec, RtlSpec};
    use dic_logic::SignalTable;
    use dic_netlist::ModuleBuilder;

    /// Gap fixture: R forwards req to a only under en.
    fn gapped() -> (SignalTable, ArchSpec, RtlSpec, CoverageModel) {
        let mut t = SignalTable::new();
        let a_prop = Ltl::parse("G(req -> X X q)", &mut t).unwrap();
        let r_prop = Ltl::parse("G(req & en -> X a)", &mut t).unwrap();
        let mut b = ModuleBuilder::new("glue", &mut t);
        let ain = b.input("a");
        b.input("en");
        let q = b.latch_from("q", ain, false);
        b.mark_output(q);
        let m = b.finish().unwrap();
        let arch = ArchSpec::new([("A1", a_prop)]);
        let rtl = RtlSpec::new([("R1", r_prop)], [m]);
        let model = CoverageModel::build(&arch, &rtl, &t).unwrap();
        (t, arch, rtl, model)
    }

    #[test]
    fn terms_describe_bad_scenarios() {
        let (_t, arch, rtl, model) = gapped();
        let fa = arch.properties()[0].formula();
        let config = GapConfig::default();
        let (terms, _) = uncovered_terms(fa, &rtl, &model, &config).expect("runs");
        assert!(!terms.is_empty(), "the gap must produce terms");
        // Every term, conjoined with R ∧ ¬FA, is satisfiable in M.
        for term in &terms {
            let mut conj: Vec<Ltl> = rtl.formulas().to_vec();
            conj.push(Ltl::not(fa.clone()));
            conj.push(term.to_ltl());
            assert!(
                model.satisfiable(&conj).is_some(),
                "term {term:?} is not a realizable bad scenario"
            );
        }
    }

    #[test]
    fn runs_exhibit_their_terms() {
        let (_t, arch, rtl, model) = gapped();
        let fa = arch.properties()[0].formula();
        // Quantification would rewrite the terms away from their runs; the
        // fixture hides no signal, so the terms are the enumerated cubes.
        assert!(model.hidden().is_empty());
        let config = GapConfig::default();
        let (terms, runs) = uncovered_terms(fa, &rtl, &model, &config).expect("runs");
        assert_eq!(terms.len(), runs.len());
        for (term, run) in terms.iter().zip(&runs) {
            assert!(term.holds_on(run, 0), "{term:?} must hold on its run");
            assert!(!fa.holds_on(run), "enumeration runs must refute fa");
        }
    }

    #[test]
    fn generalization_shrinks_terms() {
        let (_t, arch, rtl, model) = gapped();
        let fa = arch.properties()[0].formula();
        let engine = model.gap_engine().expect("engine builds");
        let mut base = rtl.formulas().to_vec();
        base.push(Ltl::not(fa.clone()));
        let word = engine
            .scenario(&base, &TemporalCube::top())
            .expect("runs")
            .expect("the gap has a bad scenario");
        let (anchored, window) = anchor_violation(fa, &word);
        let depth = window + GapConfig::default().term_depth;
        let raw = TemporalCube::from_word_prefix(&word, depth, &model.term_signals());
        let small = generalize(engine, raw.clone(), &rtl, &anchored, &model).expect("runs");
        assert!(
            small.len() < raw.len(),
            "generalization must drop literals ({} vs {})",
            small.len(),
            raw.len()
        );
    }

    #[test]
    fn covered_property_has_no_terms() {
        let mut t = SignalTable::new();
        let a_prop = Ltl::parse("G(req -> X X q)", &mut t).unwrap();
        let r_prop = Ltl::parse("G(req -> X a)", &mut t).unwrap();
        let mut b = ModuleBuilder::new("glue", &mut t);
        let ain = b.input("a");
        let q = b.latch_from("q", ain, false);
        b.mark_output(q);
        let m = b.finish().unwrap();
        let arch = ArchSpec::new([("A1", a_prop)]);
        let rtl = RtlSpec::new([("R1", r_prop)], [m]);
        let model = CoverageModel::build(&arch, &rtl, &t).unwrap();
        let (terms, _) = uncovered_terms(
            arch.properties()[0].formula(),
            &rtl,
            &model,
            &GapConfig::default(),
        )
        .expect("runs");
        assert!(terms.is_empty());
    }

    #[test]
    fn terms_mention_the_missing_condition() {
        // The gap is about `en` being low: after generalization and
        // quantification the terms should still mention `en` (it is a
        // module input, hence observable).
        let (t, arch, rtl, model) = gapped();
        let fa = arch.properties()[0].formula();
        let (terms, _) = uncovered_terms(fa, &rtl, &model, &GapConfig::default()).expect("runs");
        let en = t.lookup("en").unwrap();
        assert!(
            terms.iter().any(|c| c.signals().contains(&en)),
            "terms {terms:?} should mention en"
        );
    }

    #[test]
    fn symbolic_terms_agree_with_explicit() {
        // The same fixture, forced through the symbolic gap engine: the
        // generalized, quantified term set must coincide with the explicit
        // engine's (the backends share the algorithm, not the oracle).
        let (t, arch, rtl, _) = gapped();
        let fa = arch.properties()[0].formula();
        let explicit = CoverageModel::build_with_backend(&arch, &rtl, &t, crate::Backend::Explicit)
            .expect("builds");
        let symbolic = CoverageModel::build_with_backend(&arch, &rtl, &t, crate::Backend::Symbolic)
            .expect("builds");
        let config = GapConfig::default();
        let (mut te, _) = uncovered_terms(fa, &rtl, &explicit, &config).expect("explicit runs");
        let (mut ts, _) = uncovered_terms(fa, &rtl, &symbolic, &config).expect("symbolic runs");
        te.sort();
        ts.sort();
        assert_eq!(te, ts, "term sets must agree across backends");
    }
}
