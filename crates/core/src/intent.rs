//! Uncovered architectural intent (Definition 5) and iterative closure.
//!
//! Definition 5 asks for the weakest property **over `AP_A`** that closes
//! the coverage hole — unlike the gap properties of [`find_gap`], which may
//! mention any observable signal (like `hit` in the paper's `U`). The
//! architectural projection tells the designer *which part of the intent
//! itself* is not yet enforced, in the intent's own vocabulary.
//!
//! This module also provides [`close_gap_iteratively`], the natural
//! extension the paper's "weakest **set** of temporal properties" language
//! suggests: when no single-instance weakening closes the gap, compose
//! several (each step strengthens one variable instance), until the gap is
//! closed or the budget runs out.

use crate::error::CoreError;
use crate::hole::closes_gap;
use crate::model::CoverageModel;
use crate::spec::{ArchSpec, RtlSpec};
use crate::terms::uncovered_terms;
use crate::weaken::{find_gap, GapConfig, GapProperty};
use dic_ltl::cube::exists_eliminate;
use dic_ltl::{Ltl, TemporalCube};
use std::collections::BTreeSet;

/// Definition 5: the weakest property over `AP_A` (the architectural
/// alphabet) closing the hole of `fa`, among the structure-preserving
/// candidates. Returns `Ok(None)` when the property is covered or no
/// candidate over `AP_A` closes the gap (the gap then genuinely needs
/// non-`AP_A` conditions, as in the paper's Example 2 where `hit` is
/// indispensable).
///
/// The candidate class ranges over the whole observable alphabet (see
/// [`find_gap`]) and the `AP_A` restriction is applied to the *verified*
/// candidates, so on designs with many observables the closing budget
/// can be consumed before an `AP_A` candidate is reached — raise
/// [`GapConfig::max_gap_properties`]/[`GapConfig::max_candidates`] when
/// Definition 5 matters more than wall-clock.
///
/// # Errors
///
/// [`CoreError::Symbolic`] when the lazy symbolic build or a query
/// exceeds the node budget.
pub fn uncovered_intent(
    fa: &Ltl,
    arch: &ArchSpec,
    rtl: &RtlSpec,
    model: &CoverageModel,
    config: &GapConfig,
) -> Result<Option<GapProperty>, CoreError> {
    let terms = uncovered_terms(fa, rtl, model, config)?;
    if terms.is_empty() {
        return Ok(None);
    }
    // Project the terms onto AP_A, then run the same push/weaken pipeline
    // restricted to the architectural alphabet. The projection is
    // *existential*: the universal projection collapses to `false` whenever
    // a non-architectural literal is essential to the scenario (almost
    // always — the model's internal wiring is), while the existential
    // shadow keeps the AP_A-visible part. Soundness is unaffected: every
    // candidate is verified to close the gap by model checking.
    let ap_a = arch.alphabet();
    let all_signals: BTreeSet<_> = terms
        .iter()
        .flat_map(TemporalCube::signals)
        .collect();
    let hidden: BTreeSet<_> = all_signals.difference(&ap_a).copied().collect();
    let projected = if hidden.is_empty() {
        terms
    } else {
        exists_eliminate(&terms, &hidden)
    };
    if projected.is_empty() {
        return Ok(None);
    }
    Ok(find_gap(fa, &projected, rtl, model, config)?
        .into_iter()
        .find(|g| g.formula.atoms().is_subset(&ap_a)))
}

/// Iteratively composes single-instance weakenings until the gap closes.
///
/// Round `k` runs Algorithm 1 on the *current* candidate (initially `fa`
/// itself): any closing weakening of the current candidate that also
/// closes the **original** gap is returned; otherwise the weakest
/// candidate becomes the next round's start, accumulating one weakened
/// variable instance per round — the "weakest *set* of temporal
/// properties" reading of the paper, folded into one formula.
///
/// Returns `(property, rounds)` — `(true, 0)` when the intent was already
/// covered (nothing needs to be added) — or `Ok(None)` when `max_rounds`
/// is exhausted. The result is always verified to close the original gap.
///
/// # Errors
///
/// [`CoreError::Symbolic`] when the lazy symbolic build or a query
/// exceeds the node budget.
pub fn close_gap_iteratively(
    fa: &Ltl,
    rtl: &RtlSpec,
    model: &CoverageModel,
    config: &GapConfig,
    max_rounds: usize,
) -> Result<Option<(Ltl, usize)>, CoreError> {
    if crate::primary_coverage(fa, rtl, model)?.is_none() {
        // Covered: the empty addition suffices.
        return Ok(Some((Ltl::tt(), 0)));
    }
    let mut current = fa.clone();
    for round in 1..=max_rounds {
        let terms = uncovered_terms(&current, rtl, model, config)?;
        if terms.is_empty() {
            // No scenario found although the gap is open: give up.
            return Ok(None);
        }
        let gaps = find_gap(&current, &terms, rtl, model, config)?;
        let mut best_closing = None;
        for g in &gaps {
            if closes_gap(&g.formula, fa, rtl, model)? {
                best_closing = Some(g);
                break;
            }
        }
        if let Some(best) = best_closing {
            // Closes the gap of `current` *and* of the original intent.
            return Ok(Some((best.formula.clone(), round)));
        }
        if let Some(best) = gaps.first() {
            current = best.formula.clone();
            continue;
        }
        // No closing candidate this round: weaken by the first candidate
        // that at least changes the formula, to make progress.
        let occurrences = current.atom_occurrences();
        let Some((occ, (t, lit))) = occurrences.iter().find_map(|occ| {
            terms
                .iter()
                .flat_map(|c| c.lits())
                .find(|(t, l)| *t >= occ.x_depth && l.signal() != atom_of(occ))
                .map(|&tl| (occ, tl))
        }) else {
            return Ok(None);
        };
        let lit_f = Ltl::next_n(Ltl::literal(lit.signal(), lit.polarity()), t - occ.x_depth);
        let replacement = match occ.polarity {
            dic_ltl::Polarity::Negative => Ltl::and([occ.subformula.clone(), lit_f]),
            dic_ltl::Polarity::Positive => Ltl::or([occ.subformula.clone(), lit_f]),
        };
        current = current
            .replace_at(&occ.position, replacement)
            .unwrap_or(current);
    }
    Ok(None)
}

fn atom_of(occ: &dic_ltl::position::Occurrence) -> dic_logic::SignalId {
    match occ.subformula.node() {
        dic_ltl::LtlNode::Atom(s) => *s,
        _ => unreachable!("atom_occurrences returns atoms"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dic_logic::SignalTable;
    use dic_netlist::ModuleBuilder;

    /// Gap fixture where the missing condition (en) is *architectural*:
    /// A mentions en itself, so Definition 5 has a non-trivial answer.
    fn arch_gap() -> (SignalTable, ArchSpec, RtlSpec, CoverageModel) {
        let mut t = SignalTable::new();
        // Intent over req, en, q — en ∈ AP_A.
        let a_prop = Ltl::parse("G(req -> X X q)", &mut t).unwrap();
        let helper = Ltl::parse("G(en & req -> X a)", &mut t).unwrap();
        let mut b = ModuleBuilder::new("glue", &mut t);
        let ain = b.input("a");
        b.input("en");
        let q = b.latch_from("q", ain, false);
        b.mark_output(q);
        let m = b.finish().unwrap();
        // Put en into AP_A via a second (trivially covered) intent property.
        let a2 = Ltl::parse("G(q & en -> F q)", &mut t).unwrap();
        let arch = ArchSpec::new([("A1", a_prop), ("A2", a2)]);
        let rtl = RtlSpec::new([("R1", helper)], [m]);
        let model = CoverageModel::build(&arch, &rtl, &t).unwrap();
        (t, arch, rtl, model)
    }

    #[test]
    fn definition5_projects_to_arch_alphabet() {
        let (t, arch, rtl, model) = arch_gap();
        let fa = arch.properties()[0].formula();
        let config = GapConfig::default();
        let intent = uncovered_intent(fa, &arch, &rtl, &model, &config).expect("runs");
        let Some(g) = intent else {
            panic!("expected an uncovered-intent property over AP_A");
        };
        assert!(
            g.formula.atoms().is_subset(&arch.alphabet()),
            "Def 5 result must stay in AP_A: {}",
            g.formula.display(&t)
        );
        assert!(closes_gap(&g.formula, fa, &rtl, &model).expect("runs"));
    }

    #[test]
    fn covered_property_has_no_uncovered_intent() {
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
        let fa = arch.properties()[0].formula();
        assert!(uncovered_intent(fa, &arch, &rtl, &model, &GapConfig::default())
            .expect("runs")
            .is_none());
    }

    #[test]
    fn iterative_closure_converges_on_single_literal_gap() {
        let (_t, arch, rtl, model) = arch_gap();
        let fa = arch.properties()[0].formula();
        let config = GapConfig::default();
        let result = close_gap_iteratively(fa, &rtl, &model, &config, 3).expect("runs");
        let Some((formula, rounds)) = result else {
            panic!("iterative closure must succeed on the en gap");
        };
        assert!((1..=2).contains(&rounds), "genuine gap needs ≥1 round");
        assert_ne!(&formula, fa, "must return a weakening, not fa itself");
        assert!(closes_gap(&formula, fa, &rtl, &model).expect("runs"));
    }

    #[test]
    fn iterative_closure_zero_rounds_when_covered() {
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
        let fa = arch.properties()[0].formula();
        let (formula, rounds) =
            close_gap_iteratively(fa, &rtl, &model, &GapConfig::default(), 3)
                .expect("runs")
                .expect("covered: closes immediately");
        assert_eq!(rounds, 0);
        assert_eq!(formula, Ltl::tt(), "covered intent needs no addition");
    }
}
