//! Definition 5 — the *uncovered architectural intent* — and iterative
//! gap closure.
//!
//! The gap properties of Algorithm 1 may mention any observable signal
//! (the paper's `U` mentions the cache input `hit`). Definition 5 asks a
//! stricter question: what is the weakest property **in the intent's own
//! vocabulary** (`AP_A`) that closes the hole? This example contrasts the
//! two on a small bus-bridge spec, then shows `close_gap_iteratively`
//! composing several single-instance weakenings when one is not enough.
//!
//! Run with `cargo run --release --example uncovered_intent`.

use dic_core::{
    close_gap_iteratively, find_gap, uncovered_intent, uncovered_terms, ArchSpec, CoverageModel,
    GapConfig, RtlSpec,
};
use dic_logic::SignalTable;
use dic_ltl::Ltl;
use dic_netlist::ModuleBuilder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut t = SignalTable::new();

    // A bus bridge: requests are queued (`pend`), granted downstream as
    // `gnt`, and the response `rsp` is latched back. The architectural
    // intent speaks about `req`, `busy` and `rsp`; the RTL team wrote one
    // property for the (property-specified) downstream arbiter and gave us
    // the bridge glue as RTL.
    let a1 = Ltl::parse("G(req -> X X rsp)", &mut t)?;
    let a2 = Ltl::parse("G(busy & req -> F rsp)", &mut t)?; // puts busy in AP_A
    let r1 = Ltl::parse("G(req & !busy -> X gnt)", &mut t)?;

    let glue = {
        let mut b = ModuleBuilder::new("bridge", &mut t);
        let gnt = b.input("gnt");
        let rsp = b.latch_from("rsp", gnt, false);
        b.mark_output(rsp);
        b.finish()?
    };

    let arch = ArchSpec::new([("A1", a1.clone()), ("A2", a2)]);
    let rtl = RtlSpec::new([("R1", r1)], [glue]);
    let model = CoverageModel::build(&arch, &rtl, &t)?;
    let config = GapConfig::default();

    println!("intent A1 = {}", a1.display(&t));
    println!("RTL spec covers it? — no: R1 is silent when busy is high.\n");

    // Algorithm 1's gap properties: free to mention any observable signal.
    let (terms, _) = uncovered_terms(&a1, &rtl, &model, &config)?;
    let gaps = find_gap(&a1, &terms, &[], &rtl, &model, &config)?.properties;
    println!("== Algorithm 1 gap properties (over all observables):");
    for g in &gaps {
        println!("  {}", g.describe(&t));
    }

    // Definition 5: restricted to AP_A = {req, busy, rsp}.
    println!("\n== Uncovered architectural intent (Definition 5, over AP_A):");
    match uncovered_intent(&a1, &arch, &rtl, &model, &config)? {
        Some(g) => {
            println!("  {}", g.formula.display(&t));
            let ap_a = arch.alphabet();
            assert!(g.formula.atoms().is_subset(&ap_a));
            println!("  (verified: closes the gap, alphabet within AP_A)");
        }
        None => println!("  none — the gap genuinely needs non-AP_A conditions"),
    }

    // Iterative closure: strengthen instance by instance until closed.
    println!("\n== Iterative closure:");
    match close_gap_iteratively(&a1, &rtl, &model, &config, 4)? {
        Some((formula, rounds)) => {
            println!("  closed after {rounds} round(s): {}", formula.display(&t));
        }
        None => println!("  not closed within the round budget"),
    }
    Ok(())
}
