//! Coverage holes: Theorem 2 and gap-closure checks.

use crate::error::CoreError;
use crate::model::CoverageModel;
use crate::spec::RtlSpec;
use dic_ltl::Ltl;

/// Theorem 2: the unique weakest property over `AP_R` closing the coverage
/// gap is `RH = A ∨ ¬(R ∧ T_M)`.
///
/// This is exact but — as the paper's Example 4 stresses — "does not convey
/// a meaningful information to the designer"; it is reported as the sound
/// fallback next to the structure-preserving gap properties of
/// [`find_gap`](crate::find_gap).
pub fn exact_hole(fa: &Ltl, rtl: &RtlSpec, tm: &Ltl) -> Ltl {
    let r = Ltl::and(rtl.formulas().iter().cloned());
    Ltl::or([fa.clone(), Ltl::not(Ltl::and([r, tm.clone()]))])
}

/// Whether adding `candidate` to the RTL properties closes the coverage
/// gap for `fa`: `(R ∧ candidate) ∧ ¬fa` must be false in `M`
/// (Definition 3).
///
/// Runs on the model's engine (explicit factored products or the symbolic
/// closure engine, resolved when the [`CoverageModel`] was built), so it
/// works on models beyond the explicit state limit.
///
/// # Errors
///
/// [`CoreError::Symbolic`] when the symbolic engine exceeds its node
/// budget mid-check.
pub fn closes_gap(
    candidate: &Ltl,
    fa: &Ltl,
    rtl: &RtlSpec,
    model: &CoverageModel,
) -> Result<bool, CoreError> {
    Ok(closure_witness(candidate, fa, rtl, model)?.is_none())
}

/// Like [`closes_gap`], but exposes the refuting run when the candidate
/// does *not* close the gap: a run of `M` satisfying `R ∧ candidate ∧ ¬fa`.
///
/// The witness is reusable — any later candidate that holds on it cannot
/// close the gap either, which lets [`find_gap`](crate::find_gap) reject
/// most candidates with a word evaluation instead of a model check.
///
/// # Errors
///
/// As for [`closes_gap`].
pub fn closure_witness(
    candidate: &Ltl,
    fa: &Ltl,
    rtl: &RtlSpec,
    model: &CoverageModel,
) -> Result<Option<dic_ltl::LassoWord>, CoreError> {
    let engine = model.gap_engine()?;
    // `R ∧ ¬fa` is shared by every closure query for `fa`; its product
    // with `M` is materialized once and memoized in the serving engine.
    // A one-off query: its bounded-tier session is thrown away after.
    let mut base: Vec<Ltl> = rtl.formulas().to_vec();
    base.push(Ltl::not(fa.clone()));
    engine.closure(&base, std::slice::from_ref(candidate), &mut None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CoverageModel;
    use crate::spec::{ArchSpec, RtlSpec};
    use crate::tm::tm_for_modules;
    use dic_logic::SignalTable;
    use dic_netlist::ModuleBuilder;

    /// Fixture with a real gap: the glue latches `a` into `q`, the intent
    /// wants `req -> X X q`, but R only propagates `req` to `a` when `en`
    /// is high — without saying anything about `en`.
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
    fn gap_exists_and_theorem2_hole_closes_it() {
        let (_, arch, rtl, model) = gapped();
        let fa = arch.properties()[0].formula();
        // Gap: primary coverage fails.
        assert!(crate::primary_coverage(fa, &rtl, &model)
            .expect("runs")
            .is_some());
        // Theorem 2 hole closes it.
        let tm = tm_for_modules(rtl.concrete());
        let hole = exact_hole(fa, &rtl, &tm);
        assert!(
            closes_gap(&hole, fa, &rtl, &model).expect("runs"),
            "RH must close the gap"
        );
    }

    #[test]
    fn trivial_candidates() {
        let (mut t, arch, rtl, model) = gapped();
        let fa = arch.properties()[0].formula();
        // `false` closes any gap (vacuously — it excludes all runs).
        assert!(closes_gap(&Ltl::ff(), fa, &rtl, &model).expect("runs"));
        // `true` closes nothing here.
        assert!(!closes_gap(&Ltl::tt(), fa, &rtl, &model).expect("runs"));
        // The missing environment fact closes the gap meaningfully.
        let en_always = Ltl::parse("G en", &mut t).unwrap();
        assert!(closes_gap(&en_always, fa, &rtl, &model).expect("runs"));
        // The architectural property itself always closes its own gap.
        assert!(closes_gap(fa, fa, &rtl, &model).expect("runs"));
    }

    #[test]
    fn closure_checks_agree_across_backends() {
        let (mut t, arch, rtl, _) = gapped();
        let fa = arch.properties()[0].formula();
        let sym = CoverageModel::build_with_backend(&arch, &rtl, &t, crate::Backend::Symbolic)
            .expect("builds");
        let en_always = Ltl::parse("G en", &mut t).unwrap();
        assert!(closes_gap(&en_always, fa, &rtl, &sym).expect("runs"));
        assert!(!closes_gap(&Ltl::tt(), fa, &rtl, &sym).expect("runs"));
        // The refuting run of a non-closing candidate satisfies R ∧ ¬fa.
        let run = closure_witness(&Ltl::tt(), fa, &rtl, &sym)
            .expect("runs")
            .expect("true closes nothing here");
        assert!(!fa.holds_on(&run));
        for p in rtl.properties() {
            assert!(p.formula().holds_on(&run));
        }
    }

    #[test]
    fn no_gap_when_rtl_complete() {
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
        assert!(crate::primary_coverage(fa, &rtl, &model)
            .expect("runs")
            .is_none());
    }
}
