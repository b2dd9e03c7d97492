//! Shared helpers for the randomized integration suites: deterministic
//! random coverage problems and the simulator replay oracle.

use specmatcher::core::{ArchSpec, CoverageModel, RtlSpec};
use specmatcher::logic::{BoolExpr, SignalId, SignalTable};
use specmatcher::ltl::random::{random_formula, XorShift64};
use specmatcher::ltl::Ltl;
use specmatcher::netlist::{Module, ModuleBuilder, Simulator};

/// Deterministically generates a small random module: a couple of wires
/// over inputs/earlier signals, then a few latches.
pub fn random_module(rng: &mut XorShift64) -> (SignalTable, Module) {
    let mut t = SignalTable::new();
    let mut b = ModuleBuilder::new("rand", &mut t);
    let n_inputs = 1 + rng.below(3);
    let mut pool: Vec<SignalId> = (0..n_inputs).map(|i| b.input(&format!("i{i}"))).collect();

    let leaf = |pool: &[SignalId], rng: &mut XorShift64| -> BoolExpr {
        let v = BoolExpr::var(pool[rng.below(pool.len())]);
        if rng.flip() {
            v.not()
        } else {
            v
        }
    };

    for i in 0..1 + rng.below(2) {
        let a = leaf(&pool, rng);
        let c = leaf(&pool, rng);
        let func = match rng.below(3) {
            0 => BoolExpr::and([a, c]),
            1 => BoolExpr::or([a, c]),
            _ => BoolExpr::xor(a, c),
        };
        pool.push(b.wire(&format!("w{i}"), func));
    }
    for i in 0..1 + rng.below(3) {
        let next = leaf(&pool, rng);
        let q = b.latch(&format!("q{i}"), next, rng.flip());
        pool.push(q);
    }
    let out = *pool.last().expect("non-empty");
    b.mark_output(out);
    let m = b.finish().expect("generated netlist is valid");
    (t, m)
}

/// A random coverage problem over the module: an intent and a small RTL
/// property suite, all over module signals (plus one free spec atom).
pub fn random_problem(seed: u64) -> (SignalTable, ArchSpec, RtlSpec) {
    let mut rng = XorShift64::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
    let (mut t, m) = random_module(&mut rng);
    // Assumption 1 (AP_A ⊆ AP_R): the intent stays over module signals;
    // the RTL properties may additionally mention a free environment atom.
    let mod_atoms: Vec<SignalId> = m.signals().into_iter().collect();
    let mut atoms = mod_atoms.clone();
    atoms.push(t.intern("env"));
    let fa_budget = 4 + rng.below(4);
    let fa = random_formula(&mut rng, &mod_atoms, fa_budget);
    let n_props = rng.below(3);
    let props: Vec<(String, Ltl)> = (0..n_props)
        .map(|i| {
            let budget = 3 + rng.below(3);
            (format!("R{i}"), random_formula(&mut rng, &atoms, budget))
        })
        .collect();
    (
        t,
        ArchSpec::new([("A", fa)]),
        RtlSpec::new(props.iter().map(|(n, f)| (n.as_str(), f.clone())), [m]),
    )
}

/// Replays a witness word against the composed module on the simulator.
pub fn replay(model: &CoverageModel, table: &SignalTable, witness: &specmatcher::ltl::LassoWord) {
    let composed = model.composed();
    let mut sim = Simulator::new(composed, table).expect("simulates");
    let driven: Vec<SignalId> = composed.driven_signals().into_iter().collect();
    let inputs: Vec<SignalId> = model
        .input_signals()
        .iter()
        .copied()
        .filter(|s| !driven.contains(s))
        .collect();
    for (pos, expected) in witness.states().iter().enumerate() {
        let stimulus: Vec<(SignalId, bool)> =
            inputs.iter().map(|&i| (i, expected.get(i))).collect();
        let settled = sim.settle(&stimulus).clone();
        for &s in &driven {
            assert_eq!(
                settled.get(s),
                expected.get(s),
                "driven signal {} diverges at position {pos}",
                table.name(s)
            );
        }
        sim.step(&stimulus);
    }
}
