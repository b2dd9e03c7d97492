//! A pipelined memory-port controller — the "Intel Design" substitute.
//!
//! Table 1's second row is a proprietary Intel block with 12 RTL
//! properties. We substitute a synthetic design with the same workload
//! shape (one architectural property whose proof needs contributions from
//! a property-specified submodule *and* a concrete glue block; 12 RTL
//! properties, several of them redundant restatements as real suites have).
//! See DESIGN.md §3 for the substitution rationale.
//!
//! Structure: a request `req` (unless `stall`ed) is issued into the pipe
//! (`issue` register), then parks as a pending fetch (`pend`) until the
//! memory acknowledges (`ack`), after which the return unit raises `fill`.
//! The issue/pending stage is the concrete module; the return unit and the
//! environment are specified by properties.
//!
//! Architectural intent:
//!
//! ```text
//! A = G(req & !stall & !pend -> X X X fill)
//! ```
//!
//! — a fresh request fills in exactly three cycles. This is **not**
//! covered: nothing in the RTL spec forces the memory to acknowledge in
//! the window; the gap property strengthens the antecedent with the
//! acknowledge timing (`X X ack`), which Algorithm 1 finds from the
//! uncovered terms.

use crate::Design;
use dic_core::{ArchSpec, RtlSpec};
use dic_logic::{BoolExpr, SignalTable};
use dic_ltl::Ltl;
use dic_netlist::ModuleBuilder;

/// Builds the 12-property pipeline coverage problem.
pub fn pipeline12() -> Design {
    let mut table = SignalTable::new();

    // ---- Concrete issue/pending stage -------------------------------------
    let stage = {
        let mut b = ModuleBuilder::new("issue_stage", &mut table);
        let req = b.input("req");
        let stall = b.input("stall");
        let ack = b.input("ack");
        let issue = b.table().intern("issue");
        let pend = b.table().intern("pend");
        b.latch(
            "issue",
            BoolExpr::and([BoolExpr::var(req), BoolExpr::var(stall).not()]),
            false,
        );
        // A pending fetch holds until acknowledged; a fresh issue always
        // (re)arms it.
        b.latch(
            "pend",
            BoolExpr::or([
                BoolExpr::var(issue),
                BoolExpr::and([BoolExpr::var(pend), BoolExpr::var(ack).not()]),
            ]),
            false,
        );
        for name in ["issue", "pend"] {
            let id = b.table().intern(name);
            b.mark_output(id);
        }
        b.finish().expect("issue stage is a valid netlist")
    };

    // ---- Return-unit and environment properties (12) ----------------------
    let mut props: Vec<(String, Ltl)> = Vec::new();
    {
        let mut p = |name: &str, src: &str, props: &mut Vec<(String, Ltl)>| {
            props.push((
                name.to_owned(),
                Ltl::parse(src, &mut table).expect("static property parses"),
            ));
        };
        // Return unit.
        p("R1_FILL", "G(pend & ack -> X fill)", &mut props);
        p("R2_ONLY", "G(X fill -> pend & ack)", &mut props);
        p("R3_QUIET", "G(!pend -> X !fill)", &mut props);
        p("R4_MEMFAIR", "G F ack", &mut props);
        p("R5_INIT", "!fill", &mut props);
        // Issue stage restatements (redundant with the RTL, as written by
        // the validation team).
        p("R6_STALL", "G(stall -> X !issue)", &mut props);
        p("R7_ISSUE", "G(req & !stall -> X issue)", &mut props);
        p("R8_ACKPULSE", "G(ack -> X !ack)", &mut props);
        p("R9_REQHOLD", "G(stall & req -> X req)", &mut props);
        p("R10_NOREQ", "G(!req -> X !issue)", &mut props);
        p("R11_INIT", "!pend & !issue", &mut props);
        p("R12_PENDHOLD", "G(!ack & pend -> X pend)", &mut props);
    }
    assert_eq!(props.len(), 12, "Table 1 row must carry 12 RTL properties");

    let a = Ltl::parse("G(req & !stall & !pend -> X X X fill)", &mut table).expect("A parses");

    Design {
        name: "pipeline",
        arch: ArchSpec::new([("A", a)]),
        rtl: RtlSpec::new(props.iter().map(|(n, f)| (n.as_str(), f.clone())), [stage]),
        table,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dic_core::{closes_gap, CoverageModel};

    #[test]
    fn property_count_matches_table1() {
        let d = pipeline12();
        assert_eq!(d.rtl.num_properties(), 12);
    }

    #[test]
    fn spec_is_consistent() {
        let d = pipeline12();
        let model = CoverageModel::build(&d.arch, &d.rtl, &d.table).expect("builds");
        assert!(
            dic_automata::satisfiable_in_conj(d.rtl.formulas(), model.kripke()).is_some(),
            "the pipeline property suite is contradictory"
        );
    }

    #[test]
    fn fill_deadline_has_gap() {
        let d = pipeline12();
        let model = CoverageModel::build(&d.arch, &d.rtl, &d.table).expect("builds");
        let fa = d.arch.properties()[0].formula();
        let witness = dic_core::primary_coverage(fa, &d.rtl, &model).expect("within limits");
        assert!(witness.is_some(), "the ack-timing gap must exist");
    }

    #[test]
    fn ack_timing_property_closes_gap() {
        // Every violation of A happens on a window with !ack two cycles in
        // (with ack the fill is forced by R1). The closing property pins the
        // *bad* scenario, exactly like the paper's `r2 & X !hit`:
        let mut d = pipeline12();
        let u = Ltl::parse(
            "G(req & !stall & !pend & X X !ack -> X X X fill)",
            &mut d.table,
        )
        .expect("parses");
        let model = CoverageModel::build(&d.arch, &d.rtl, &d.table).expect("builds");
        let fa = d.arch.properties()[0].formula();
        assert!(dic_automata::implies(fa, &u));
        assert!(
            closes_gap(&u, fa, &d.rtl, &model).expect("runs"),
            "the ack-timing strengthening must close the gap"
        );
    }
}
