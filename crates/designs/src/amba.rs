//! A simplified ARM AMBA AHB subsystem (the Table 1 "ARM AMBA AHB" row).
//!
//! The paper: *"ARM AMBA AHB is bus protocol involving master, slave and
//! arbiter devices. The exact arbitration policy is not defined in the
//! protocol, we therefore targeted a system level property with the RTL of
//! the arbiter and set of properties over the master and slave."*
//!
//! We mirror that split: a fixed-priority **arbiter** is given as RTL (the
//! concrete module), two **masters** and a **slave** are described by 29
//! properties. Signals (AHB names, one-bit simplification):
//!
//! * `hbusreq1/2` — master bus requests (environment),
//! * `hgrant1/2` — arbiter grants (registered, change on `hready`),
//! * `hmaster` — current bus owner (arbiter register),
//! * `htrans1/2` — master transfer in progress (property-specified),
//! * `hready` — slave ready (property-specified).
//!
//! The architectural intent is a system-level priority property:
//!
//! ```text
//! A = G(!htrans1 & !htrans2 & hbusreq1 -> X(!htrans2 U htrans1))
//! ```
//!
//! — *"from a quiet bus, a master-1 request is served before any master-2
//! transfer starts"*. It is **not** covered: a grant for master 2 may
//! already be latched when the window opens (the same in-flight race as the
//! paper's Example 2), so the gap property strengthens the antecedent with
//! the in-flight condition.

use crate::Design;
use dic_core::{ArchSpec, RtlSpec};
use dic_logic::{BoolExpr, SignalTable};
use dic_ltl::Ltl;
use dic_netlist::ModuleBuilder;

/// Builds the 29-property AHB coverage problem.
pub fn ahb29() -> Design {
    let mut table = SignalTable::new();

    // ---- Concrete arbiter -------------------------------------------------
    let arbiter = {
        let mut b = ModuleBuilder::new("arbiter", &mut table);
        let hbusreq1 = b.input("hbusreq1");
        let hbusreq2 = b.input("hbusreq2");
        let hready = b.input("hready");
        let hgrant1 = b.table().intern("hgrant1");
        let hgrant2 = b.table().intern("hgrant2");
        let hmaster = b.table().intern("hmaster");
        // Grants re-arbitrate only on ready cycles; fixed priority 1 > 2.
        b.latch(
            "hgrant1",
            BoolExpr::or([
                BoolExpr::and([BoolExpr::var(hready), BoolExpr::var(hbusreq1)]),
                BoolExpr::and([BoolExpr::var(hready).not(), BoolExpr::var(hgrant1)]),
            ]),
            false,
        );
        b.latch(
            "hgrant2",
            BoolExpr::or([
                BoolExpr::and([
                    BoolExpr::var(hready),
                    BoolExpr::var(hbusreq1).not(),
                    BoolExpr::var(hbusreq2),
                ]),
                BoolExpr::and([BoolExpr::var(hready).not(), BoolExpr::var(hgrant2)]),
            ]),
            false,
        );
        // Owner register: takes the granted master at a ready edge.
        b.latch(
            "hmaster",
            BoolExpr::or([
                BoolExpr::and([BoolExpr::var(hready), BoolExpr::var(hgrant2)]),
                BoolExpr::and([
                    BoolExpr::var(hready),
                    BoolExpr::var(hgrant1).not(),
                    BoolExpr::var(hgrant2).not(),
                    BoolExpr::var(hmaster),
                ]),
                BoolExpr::and([BoolExpr::var(hready).not(), BoolExpr::var(hmaster)]),
            ]),
            false,
        );
        for name in ["hgrant1", "hgrant2", "hmaster"] {
            let id = b.table().intern(name);
            b.mark_output(id);
        }
        b.finish().expect("arbiter is a valid netlist")
    };

    // ---- Master and slave properties (29) ---------------------------------
    let mut props: Vec<(String, Ltl)> = Vec::new();
    {
        let mut p = |name: &str, src: &str, props: &mut Vec<(String, Ltl)>| {
            props.push((
                name.to_owned(),
                Ltl::parse(src, &mut table).expect("static property parses"),
            ));
        };
        for i in 1..=2u32 {
            // Masters: 8 properties each.
            p(
                &format!("M{i}_START"),
                &format!("G(hgrant{i} & hready & hbusreq{i} -> X htrans{i})"),
                &mut props,
            );
            p(
                &format!("M{i}_NOGRANT"),
                &format!("G(!hgrant{i} -> X !htrans{i})"),
                &mut props,
            );
            p(
                &format!("M{i}_HOLD"),
                &format!("G(htrans{i} & !hready & hgrant{i} -> X htrans{i})"),
                &mut props,
            );
            p(
                &format!("M{i}_REQHOLD"),
                &format!("G(hbusreq{i} & !hgrant{i} -> X hbusreq{i})"),
                &mut props,
            );
            p(
                &format!("M{i}_DONE"),
                &format!("G(htrans{i} & hready & !hbusreq{i} -> X !htrans{i})"),
                &mut props,
            );
            p(
                &format!("M{i}_NOREQ"),
                &format!("G(!hbusreq{i} & !htrans{i} -> X !htrans{i})"),
                &mut props,
            );
            p(
                &format!("M{i}_INIT"),
                &format!("!htrans{i} & !hbusreq{i}"),
                &mut props,
            );
            p(
                &format!("M{i}_CONT"),
                &format!("G(htrans{i} & hready & hbusreq{i} & hgrant{i} -> X htrans{i})"),
                &mut props,
            );
        }
        // Slave: 6 properties.
        p(
            "S_IDLE_READY",
            "G(!htrans1 & !htrans2 -> X hready)",
            &mut props,
        );
        p("S_FAIR", "G F hready", &mut props);
        p("S_COMPLETE", "G(htrans1 | htrans2 -> F hready)", &mut props);
        p("S_INIT", "hready", &mut props);
        p("S_LIVE", "G(!hready -> F hready)", &mut props);
        p(
            "S_WAIT2",
            "G(!hready & X !hready -> X X hready)",
            &mut props,
        );
        // Protocol-level: 7 properties.
        p("P_TRANS_MUTEX", "G !(htrans1 & htrans2)", &mut props);
        p("P_OWN1", "G(X htrans1 -> hgrant1)", &mut props);
        p("P_OWN2", "G(X htrans2 -> hgrant2)", &mut props);
        p("P_INIT", "!htrans1 & !htrans2", &mut props);
        p("P_GRANT_MUTEX", "G !(hgrant1 & hgrant2)", &mut props);
        p("P_SERVE1", "G(hbusreq1 -> F htrans1)", &mut props);
        p(
            "P_SERVE2",
            "G(hbusreq2 & !hbusreq1 -> F htrans2)",
            &mut props,
        );
    }
    assert_eq!(props.len(), 29, "Table 1 row must carry 29 RTL properties");

    let a = Ltl::parse(
        "G(!htrans1 & !htrans2 & hbusreq1 -> X(!htrans2 U htrans1))",
        &mut table,
    )
    .expect("A parses");

    Design {
        name: "amba-ahb",
        arch: ArchSpec::new([("A", a)]),
        rtl: RtlSpec::new(
            props.iter().map(|(n, f)| (n.as_str(), f.clone())),
            [arbiter],
        ),
        table,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dic_core::CoverageModel;

    #[test]
    fn property_count_matches_table1() {
        let d = ahb29();
        assert_eq!(d.rtl.num_properties(), 29);
    }

    #[test]
    fn model_builds_within_limits() {
        // Force the explicit build to inspect the Kripke structure
        // directly (Auto also resolves explicit since the automaton
        // reduction pipeline moved the product-width crossover).
        let d = ahb29();
        let model = CoverageModel::build_with_backend(
            &d.arch,
            &d.rtl,
            &d.table,
            dic_core::Backend::Explicit,
        )
        .expect("builds");
        // The cone-of-influence reduction drops `hmaster` (no property
        // mentions it), leaving the two grant registers; 5 free signals.
        assert_eq!(model.kripke().state_vars().len(), 2);
        assert_eq!(model.kripke().input_vars().len(), 5);
    }

    #[test]
    fn spec_is_consistent() {
        // The 29 properties must admit at least one run of the model —
        // otherwise coverage would hold vacuously. (Forced explicit: the
        // consistency check drives the explicit product directly.)
        let d = ahb29();
        let model = CoverageModel::build_with_backend(
            &d.arch,
            &d.rtl,
            &d.table,
            dic_core::Backend::Explicit,
        )
        .expect("builds");
        let w = dic_automata::satisfiable_in_conj(d.rtl.formulas(), model.kripke());
        assert!(w.is_some(), "the AHB property suite is contradictory");
    }

    #[test]
    fn priority_property_has_gap() {
        let d = ahb29();
        let model = CoverageModel::build(&d.arch, &d.rtl, &d.table).expect("builds");
        let fa = d.arch.properties()[0].formula();
        let witness = dic_core::primary_coverage(fa, &d.rtl, &model).expect("within limits");
        assert!(
            witness.is_some(),
            "the in-flight grant race must open a coverage gap"
        );
        let w = witness.expect("checked");
        assert!(!fa.holds_on(&w));
        for p in d.rtl.properties() {
            assert!(p.formula().holds_on(&w), "witness violates {}", p.name());
        }
    }
}
