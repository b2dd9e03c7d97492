//! Anatomy of Algorithm 1 on the paper's Example 2 (Fig. 4).
//!
//! Walks the gap-finding pipeline phase by phase, printing the
//! intermediate objects the paper describes: the refuting run (primary
//! coverage), the uncovered terms `UM` (step 2(a)/(b)), the variable
//! instances of `A` they are pushed against (step 2(c)), and the final
//! structure-preserving gap properties (step 2(d)) — among them the
//! paper's
//!
//! ```text
//! U = G(!wait & r1 & X(r1 U (r2 & X !hit)) -> X(!d2 U d1))
//! ```
//!
//! Run with `cargo run --release --example gap_anatomy`.

use dic_core::{closes_gap, find_gap, primary_coverage, uncovered_terms, CoverageModel, GapConfig};
use dic_designs::mal;
use dic_ltl::LtlNode;
use std::time::Instant;

fn main() {
    let d = mal::ex2();
    let model = CoverageModel::build(&d.arch, &d.rtl, &d.table).expect("model builds");
    let fa = d.arch.properties()[0].formula();
    let config = GapConfig::default();

    println!("== Design: {} (paper Fig. 4)", d.name);
    println!("architectural intent A = {}", fa.display(&d.table));
    for p in d.rtl.properties() {
        println!(
            "  RTL property {:>5} = {}",
            p.name(),
            p.formula().display(&d.table)
        );
    }
    for m in d.rtl.concrete() {
        println!(
            "  concrete module {} ({} wires, {} latches)",
            m.name(),
            m.wires().len(),
            m.latches().len()
        );
    }

    // Phase 1 — the primary coverage question (Theorem 1).
    let t0 = Instant::now();
    let witness = primary_coverage(fa, &d.rtl, &model).expect("within backend limits");
    println!("\n== Primary coverage (Theorem 1): {:?}", t0.elapsed());
    let Some(run) = witness else {
        println!("covered — nothing to explain");
        return;
    };
    println!(
        "NOT covered; a run passing R but refuting A (loop at t{}):",
        run.loop_start()
    );
    for (i, st) in run.states().iter().enumerate() {
        let mark = if i == run.loop_start() { "->" } else { "  " };
        println!("  {mark} t{i}: {}", st.display(&d.table));
    }

    // Phase 2 — uncovered terms UM (steps 2(a)/(b)).
    let t1 = Instant::now();
    let (terms, _) = uncovered_terms(fa, &d.rtl, &model, &config).expect("within backend limits");
    println!(
        "\n== Uncovered terms UM ({} terms, {:?}):",
        terms.len(),
        t1.elapsed()
    );
    for term in &terms {
        println!("  {}", term.display(&d.table));
    }

    // Phase 3 — where the terms land in A's parse tree (step 2(c)).
    println!("\n== Variable instances of A (push targets):");
    for occ in fa.atom_occurrences() {
        let LtlNode::Atom(id) = occ.subformula.node() else {
            continue;
        };
        println!(
            "  {:<5} at {:<16} X-depth {}  polarity {:?}  unbounded-depth {}",
            d.table.name(*id),
            occ.position.to_string(),
            occ.x_depth,
            occ.polarity,
            occ.unbounded_depth,
        );
    }

    // Phase 4 — weakening and verification (step 2(d)).
    let t2 = Instant::now();
    let gaps = find_gap(fa, &terms, &[], &d.rtl, &model, &config)
        .expect("within backend limits")
        .properties;
    println!(
        "\n== Gap properties ({} closing candidates, {:?}; weakest first):",
        gaps.len(),
        t2.elapsed()
    );
    for g in &gaps {
        println!("  {}", g.describe(&d.table));
    }

    // Every reported property is re-verified here, end to end.
    for g in &gaps {
        assert!(dic_automata::stronger_than(fa, &g.formula));
        assert!(closes_gap(&g.formula, fa, &d.rtl, &model).expect("within backend limits"));
    }
    println!(
        "\nall {} gap properties re-verified: weaker than A and gap-closing",
        gaps.len()
    );
}
