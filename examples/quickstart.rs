//! Quickstart: the paper's Example 3 (Fig. 5) end to end.
//!
//! Builds the one-latch model, extracts its FSM, derives the exact `T_M`
//! formula of Definition 4, and then runs a miniature design-intent-coverage
//! check against it.
//!
//! Run with: `cargo run --release --example quickstart`

use specmatcher::core::tm::{enumerated_tm, relational_tm};
use specmatcher::core::{ArchSpec, GapConfig, RtlSpec, SpecMatcher};
use specmatcher::designs::simple;
use specmatcher::fsm::extract_fsm;
use specmatcher::ltl::Ltl;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- The Fig. 5 model: c' = a & b, reset to 0 -------------------------
    let (mut table, module) = simple::model();
    println!("== SNL of the model ==\n{}", module.to_snl(&table));

    // ---- FSM extraction (Section 3) ---------------------------------------
    let fsm = extract_fsm(&module, &table)?;
    println!(
        "extracted FSM: {} states, {} transitions (input guards merged)",
        fsm.num_states(),
        fsm.num_transitions()
    );
    println!("{}", fsm.to_dot(&table));

    // ---- T_M (Definition 4) ------------------------------------------------
    let tm_enum = enumerated_tm(&module, &table)?;
    let tm_rel = relational_tm(&module);
    println!(
        "T_M (enumerated, as in the paper):\n  {}",
        tm_enum.display(&table)
    );
    println!(
        "T_M (relational, equivalent):\n  {}",
        tm_rel.display(&table)
    );

    // ---- A miniature coverage run ------------------------------------------
    // Architectural intent: if p and q then c two cycles later; RTL property
    // of the (unmodeled) front-end: p & q propagate to a & b.
    let arch = ArchSpec::new([("A1", Ltl::parse("G(p & q -> X X c)", &mut table)?)]);
    let rtl = RtlSpec::new(
        [
            ("R1", Ltl::parse("G(p -> X a)", &mut table)?),
            ("R2", Ltl::parse("G(q -> X b)", &mut table)?),
        ],
        [module],
    );
    let run = SpecMatcher::new(GapConfig::default()).check(&arch, &rtl, &table)?;
    println!("== coverage ==\n{}", run.render(&table));
    assert!(
        run.all_covered(),
        "this decomposition is sound and complete"
    );
    Ok(())
}
