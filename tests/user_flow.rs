//! Integration test: the user-facing flow — SNL text in, coverage report
//! out — exactly what the CLI wires together.

use specmatcher::core::{ArchSpec, GapConfig, RtlSpec, SpecMatcher};
use specmatcher::logic::SignalTable;
use specmatcher::ltl::Ltl;
use specmatcher::netlist::parse_snl;

const GLUE_SNL: &str = "
# A two-stage glue block: en-gated forwarding into a register.
module front
  input req en
  output a
  assign a = req & en
endmodule

module back
  input a
  output q
  latch q = a init 0
endmodule
";

#[test]
fn snl_coverage_flow_covered() {
    let mut t = SignalTable::new();
    let modules = parse_snl(GLUE_SNL, &mut t).expect("SNL parses");
    assert_eq!(modules.len(), 2);
    let arch = ArchSpec::new([(
        "A1",
        Ltl::parse("G(req & en -> X q)", &mut t).expect("parses"),
    )]);
    let rtl = RtlSpec::new(
        [("ENV", Ltl::parse("G(req -> en)", &mut t).expect("parses"))],
        modules,
    );
    let run = SpecMatcher::new(GapConfig::default())
        .check(&arch, &rtl, &t)
        .expect("runs");
    assert!(run.all_covered());
}

#[test]
fn snl_coverage_flow_gap() {
    let mut t = SignalTable::new();
    let modules = parse_snl(GLUE_SNL, &mut t).expect("SNL parses");
    // Intent ignores the en gate: not covered without an en property.
    let arch = ArchSpec::new([("A1", Ltl::parse("G(req -> X q)", &mut t).expect("parses"))]);
    let rtl = RtlSpec::new(
        [("TRIVIAL", Ltl::parse("G(q -> q)", &mut t).expect("parses"))],
        modules,
    );
    let run = SpecMatcher::new(GapConfig::default())
        .check(&arch, &rtl, &t)
        .expect("runs");
    let rep = &run.properties[0];
    assert!(!rep.covered);
    // The gap property must mention the forgotten enable.
    let en = t.lookup("en").expect("en interned");
    assert!(
        rep.gap_properties
            .iter()
            .any(|g| g.formula.atoms().contains(&en)),
        "gap properties should mention en: {:?}",
        rep.gap_properties
            .iter()
            .map(|g| g.describe(&t))
            .collect::<Vec<_>>()
    );
}

#[test]
fn snl_round_trip_preserves_coverage() {
    let mut t = SignalTable::new();
    let modules = parse_snl(GLUE_SNL, &mut t).expect("SNL parses");
    // Print both modules back to SNL and re-parse into a fresh table.
    let printed: String = modules.iter().map(|m| m.to_snl(&t)).collect();
    let mut t2 = SignalTable::new();
    let modules2 = parse_snl(&printed, &mut t2).expect("round trip parses");
    let arch = ArchSpec::new([(
        "A1",
        Ltl::parse("G(req & en -> X q)", &mut t2).expect("parses"),
    )]);
    let rtl = RtlSpec::new(
        [("ENV", Ltl::parse("G(req -> en)", &mut t2).expect("parses"))],
        modules2,
    );
    let run = SpecMatcher::new(GapConfig::default())
        .check(&arch, &rtl, &t2)
        .expect("runs");
    assert!(run.all_covered());
}
