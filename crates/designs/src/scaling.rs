//! Parameterized designs for the state-explosion experiments.
//!
//! The paper's Section 5 warns: *"If we bring in larger RTL blocks into the
//! picture, we will have state explosion in two of the steps. Firstly, the
//! primary coverage question requires model checking on the RTL blocks.
//! Secondly, the building time for T_M will go up."* These latch chains
//! make that quantitative: `T_M` growth (see
//! `enumerated_tm_grows_much_faster_than_relational`) and state spaces past
//! the explicit engine's limit. The MAL family with more requesters is
//! [`crate::mal::mal`].

use crate::Design;
use dic_core::{ArchSpec, RtlSpec};
use dic_logic::SignalTable;
use dic_ltl::Ltl;
use dic_netlist::{Module, ModuleBuilder};

/// An `n`-stage latch chain `q1 <= a, q2 <= q1, …` (2^n FSM states under a
/// free input): the concrete module of [`chain_design`].
pub fn latch_chain(n: usize) -> (SignalTable, Module) {
    let mut t = SignalTable::new();
    let mut b = ModuleBuilder::new("chain", &mut t);
    let mut prev = b.input("a");
    for i in 1..=n {
        prev = b.latch_from(&format!("q{i}"), prev, false);
    }
    b.mark_output(prev);
    let m = b.finish().expect("chain is a valid netlist");
    (t, m)
}

/// A packaged coverage problem over an `n`-stage latch chain: the intent
/// says the input reaches the chain's tail after `n` cycles (true by
/// construction when `gapped` is false; off by one — and therefore gapped
/// with a witness — when `gapped` is true). `R` is empty: the question is
/// pure model checking of `¬A` against the concrete chain.
///
/// At `n ≥ 20` the explicit engine rejects this design with
/// `FsmError::TooLarge` (`n` latches + 1 input exceed the Kripke bit
/// limit), which is the point: these are the rows only the symbolic
/// backend can check. Packaged in the CLI as `chain-<n>` / `chain-<n>-gap`.
pub fn chain_design(n: usize, gapped: bool) -> Design {
    assert!(n >= 1, "chain needs at least one stage");
    let (mut table, module) = latch_chain(n);
    let (name, src) = if gapped {
        // Claims the value arrives one cycle early: refuted by any run
        // toggling `a`, so the checker must produce a witness lasso.
        let xs_short = "X ".repeat(n - 1);
        (format!("chain-{n}-gap"), format!("G(a -> {xs_short}q{n})"))
    } else {
        let xs = "X ".repeat(n);
        (format!("chain-{n}"), format!("G(a -> {xs}q{n})"))
    };
    let a = Ltl::parse(&src, &mut table).expect("chain intent parses");
    Design {
        // Fixture generators are called a handful of times per process;
        // leaking the name buys `&'static str` parity with the packaged
        // designs without rippling `Design.name` to `String`.
        name: Box::leak(name.into_boxed_str()),
        arch: ArchSpec::new([("A", a)]),
        rtl: RtlSpec::new(Vec::<(&str, Ltl)>::new(), [module]),
        table,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dic_core::tm::{enumerated_tm, relational_tm};

    #[test]
    fn latch_chain_shape() {
        let (t, m) = latch_chain(4);
        assert_eq!(m.latches().len(), 4);
        assert_eq!(m.inputs().len(), 1);
        let fsm = dic_fsm::extract_fsm(&m, &t).expect("fits");
        assert_eq!(fsm.num_states(), 16);
    }

    #[test]
    fn enumerated_tm_grows_much_faster_than_relational() {
        let (t3, m3) = latch_chain(3);
        let (t5, m5) = latch_chain(5);
        let e3 = enumerated_tm(&m3, &t3).expect("fits").size();
        let e5 = enumerated_tm(&m5, &t5).expect("fits").size();
        let r3 = relational_tm(&m3).size();
        let r5 = relational_tm(&m5).size();
        // Enumerated blows up exponentially; relational stays linear.
        assert!(e5 > 3 * e3, "enumerated: {e3} -> {e5}");
        assert!(r5 < 2 * r3 + 16, "relational: {r3} -> {r5}");
    }

    #[test]
    fn chain_design_beyond_explicit_limit_needs_symbolic() {
        use dic_core::{Backend, CoreError, CoverageModel};
        let d = chain_design(24, false);
        assert_eq!(d.name, "chain-24");
        // The explicit engine refuses this state space…
        match CoverageModel::build_with_backend(&d.arch, &d.rtl, &d.table, Backend::Explicit) {
            Err(CoreError::Fsm(dic_fsm::FsmError::TooLarge { .. })) => {}
            other => panic!("expected the explicit limit to trip, got {other:?}"),
        }
        // …while Auto resolves to (pure) symbolic and proves coverage.
        let model = CoverageModel::build(&d.arch, &d.rtl, &d.table).expect("symbolic builds");
        assert_eq!(model.primary_backend(), Backend::Symbolic);
        assert!(!model.has_explicit());
        let fa = d.arch.properties()[0].formula();
        let witness = dic_core::primary_coverage(fa, &d.rtl, &model).expect("within limits");
        assert!(witness.is_none(), "the chain intent holds by construction");
    }

    #[test]
    fn gapped_chain_produces_replayable_witness_at_scale() {
        let d = chain_design(22, true);
        let model =
            dic_core::CoverageModel::build(&d.arch, &d.rtl, &d.table).expect("symbolic builds");
        let fa = d.arch.properties()[0].formula();
        let witness = dic_core::primary_coverage(fa, &d.rtl, &model)
            .expect("within limits")
            .expect("off-by-one intent must be refuted");
        assert!(!fa.holds_on(&witness), "witness must break the intent");
    }
}
