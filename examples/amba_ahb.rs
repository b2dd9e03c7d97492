//! The ARM AMBA AHB coverage run (Table 1, third row).
//!
//! Arbiter as RTL, masters and slave as 29 properties, one system-level
//! priority property. Prints the full coverage report with the per-phase
//! timing breakdown the paper tabulates.
//!
//! Run with: `cargo run --release --example amba_ahb`

use specmatcher::core::{GapConfig, SpecMatcher};
use specmatcher::designs::amba;
use specmatcher::fsm::extract_fsm;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let design = amba::ahb29();
    println!(
        "design: {} ({} RTL properties)",
        design.name,
        design.rtl.num_properties()
    );

    // The concrete arbiter, as the tool sees it.
    let arbiter = &design.rtl.concrete()[0];
    println!("\n== arbiter RTL ==\n{}", arbiter.to_snl(&design.table));
    let fsm = extract_fsm(arbiter, &design.table)?;
    println!(
        "arbiter FSM: {} states, {} transitions",
        fsm.num_states(),
        fsm.num_transitions()
    );

    println!("\n== architectural intent ==");
    for p in design.arch.properties() {
        println!("  {} = {}", p.name(), p.formula().display(&design.table));
    }

    // Bounded gap budget keeps the demo interactive; crank it up for the
    // full candidate sweep.
    let config = GapConfig {
        max_terms: 3,
        max_candidates: 32,
        ..GapConfig::default()
    };
    let run = design.check(&SpecMatcher::new(config))?;
    println!("\n== coverage report ==");
    print!("{}", run.render(&design.table));
    Ok(())
}
