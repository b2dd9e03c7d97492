//! Regenerates the paper's Fig. 3 timing diagrams by simulating the MAL.
//!
//! Scenario (a): cache hit for `r1` — the data signal `d1` follows the
//! grant promptly. Scenario (b): cache miss for `r1` — `wait` rises and
//! holds until `hit`, and `d1` fires with the arriving data.
//!
//! Run with: `cargo run --release --example timing_diagram`

use specmatcher::designs::mal;
use specmatcher::netlist::{Module, Simulator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let design = mal::ex1();
    let t = &design.table;
    let sig = |name: &str| {
        t.lookup(name)
            .unwrap_or_else(|| panic!("signal {name} must exist in the MAL"))
    };
    let (r1, r2, hit) = (sig("r1"), sig("r2"), sig("hit"));
    let (n1, n2) = (sig("n1"), sig("n2"));
    let shown = vec![
        sig("r1"),
        sig("r2"),
        sig("g1"),
        sig("g2"),
        sig("hit"),
        sig("wait"),
        sig("d1"),
        sig("d2"),
    ];

    // The concrete modules (M1 + L1); the arbiter is property-specified, so
    // the simulation drives n1/n2 the way the properties dictate
    // (n1 follows r1 by one cycle, n2 follows !r1 & r2).
    let composed = Module::compose(
        "MAL",
        &[&design.rtl.concrete()[0], &design.rtl.concrete()[1]],
        t,
    )?;

    println!("== Fig. 3(a): cache hit for r1 ==");
    let mut sim = Simulator::new(&composed, t)?;
    let trace = sim.run(&[
        // cycle 0: r1 pulses
        vec![
            (r1, true),
            (r2, false),
            (hit, false),
            (n1, false),
            (n2, false),
        ],
        // cycle 1: arbiter raises n1; cache hits immediately; r2 arrives
        vec![
            (r1, false),
            (r2, true),
            (hit, true),
            (n1, true),
            (n2, false),
        ],
        // cycle 2: d1 delivered; arbiter turns to r2
        vec![(r2, false), (hit, true), (n1, false), (n2, true)],
        // cycle 3: d2 delivered
        vec![(hit, false), (n2, false)],
        vec![],
    ]);
    print!("{}", trace.render(t, &shown));

    println!("\n== Fig. 3(b): cache miss for r1 ==");
    let mut sim = Simulator::new(&composed, t)?;
    let trace = sim.run(&[
        // cycle 0: r1 pulses
        vec![
            (r1, true),
            (r2, false),
            (hit, false),
            (n1, false),
            (n2, false),
        ],
        // cycle 1: grant for r1 — but the cache misses
        vec![
            (r1, false),
            (r2, true),
            (hit, false),
            (n1, true),
            (n2, false),
        ],
        // cycles 2-3: wait holds; the arbiter decision for r2 is masked
        vec![(r2, false), (hit, false), (n1, false), (n2, true)],
        vec![(hit, false), (n2, true)],
        // cycle 4: the data arrives — d1 fires with the hit
        vec![(hit, true), (n2, true)],
        // cycle 5: wait clears, r2's grant can finally pass
        vec![(hit, false), (n2, true)],
        vec![(hit, true), (n2, false)],
        vec![],
    ]);
    print!("{}", trace.render(t, &shown));
    Ok(())
}
