//! Property tests: the Kripke structure agrees with cycle-accurate
//! simulation on random modules and random stimulus, and FSM extraction is
//! faithful to the latch logic.

use dic_fsm::{extract_fsm, Kripke};
use dic_logic::{BoolExpr, SignalId, SignalTable, Valuation};
use dic_netlist::{Module, ModuleBuilder, Simulator};
use proptest::prelude::*;

/// Deterministic xorshift for structure generation inside strategies.
fn xs(mut s: u64) -> impl FnMut() -> u64 {
    move || {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        s.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// A random expression over the given signals (depth-bounded).
fn rand_expr(rng: &mut impl FnMut() -> u64, sigs: &[SignalId], depth: usize) -> BoolExpr {
    if depth == 0 || rng().is_multiple_of(4) {
        let v = BoolExpr::var(sigs[(rng() % sigs.len() as u64) as usize]);
        return if rng().is_multiple_of(2) { v } else { v.not() };
    }
    match rng() % 3 {
        0 => BoolExpr::and([
            rand_expr(rng, sigs, depth - 1),
            rand_expr(rng, sigs, depth - 1),
        ]),
        1 => BoolExpr::or([
            rand_expr(rng, sigs, depth - 1),
            rand_expr(rng, sigs, depth - 1),
        ]),
        _ => BoolExpr::xor(
            rand_expr(rng, sigs, depth - 1),
            rand_expr(rng, sigs, depth - 1),
        ),
    }
}

/// Builds a random module: `n_in` inputs, `n_latch` latches, a couple of
/// wires reading anything, latches reading inputs and latches.
fn rand_module(seed: u64, n_in: usize, n_latch: usize) -> (SignalTable, Module) {
    let mut rng = xs(seed | 1);
    let mut t = SignalTable::new();
    let mut b = ModuleBuilder::new("rnd", &mut t);
    let mut ins = Vec::new();
    for i in 0..n_in {
        ins.push(b.input(&format!("in{i}")));
    }
    let mut latches = Vec::new();
    for i in 0..n_latch {
        latches.push(b.table().intern(&format!("q{i}")));
    }
    let state_deps: Vec<SignalId> = ins.iter().chain(latches.iter()).copied().collect();
    for (i, &q) in latches.iter().enumerate() {
        let next = rand_expr(&mut rng, &state_deps, 2);
        let init = rng().is_multiple_of(2);
        let name = format!("q{i}");
        let _ = q;
        b.latch(&name, next, init);
    }
    // Wires depend on inputs and latches (no wire-wire deps → loop-free).
    for i in 0..2 {
        let f = rand_expr(&mut rng, &state_deps, 2);
        b.wire(&format!("w{i}"), f);
    }
    let m = b.finish().expect("generated module is valid");
    (t, m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Walking the Kripke structure along a concrete input sequence
    /// reproduces exactly the simulator's settled valuations.
    #[test]
    fn kripke_paths_match_simulation(
        seed in 1u64..10_000,
        stim_seed in 1u64..10_000,
        n_in in 1usize..3,
        n_latch in 1usize..4,
    ) {
        let (t, m) = rand_module(seed, n_in, n_latch);
        let k = Kripke::from_module(&m, &t, &[]).expect("small module fits");
        let mut sim = Simulator::new(&m, &t).expect("sim");
        let mut rng = xs(stim_seed | 1);
        let inputs: Vec<SignalId> = m.inputs().to_vec();

        // Choose the first input vector, find the matching initial state.
        let key0 = rng() & ((1 << inputs.len()) - 1);
        let settled0 = sim.settle(&assign(&inputs, key0)).clone();
        let mut cur = k
            .initial_states()
            .find(|&s| k.label(s) == &settled0)
            .expect("matching initial state exists");

        for _ in 0..6 {
            // Clock the simulator with a fresh input vector.
            let key = rng() & ((1 << inputs.len()) - 1);
            sim.step(&[]);
            let settled = sim.settle(&assign(&inputs, key)).clone();
            let next = k
                .successors(cur)
                .find(|&s| k.label(s) == &settled);
            prop_assert!(next.is_some(), "simulator state unreachable in Kripke");
            cur = next.expect("checked");
        }
    }

    /// Every FSM transition's guard + source state reproduces the claimed
    /// destination when pushed through the module logic, and the guards out
    /// of each state cover all inputs.
    #[test]
    fn fsm_transitions_are_sound_and_complete(
        seed in 1u64..10_000,
        n_in in 1usize..3,
        n_latch in 1usize..4,
    ) {
        let (t, m) = rand_module(seed, n_in, n_latch);
        let fsm = extract_fsm(&m, &t).expect("fits");
        let state_vars = fsm.state_vars().to_vec();
        let input_vars = fsm.input_vars().to_vec();

        for s in 0..fsm.num_states() {
            for input_key in 0..(1u64 << input_vars.len()) {
                let mut v = Valuation::all_false(t.len());
                v.assign_key(&state_vars, fsm.state_key(s));
                v.assign_key(&input_vars, input_key);
                m.eval_wires(&mut v);
                let nexts = m.next_latch_values(&v);
                let mut to_key = 0u64;
                for (bit, b) in nexts.iter().enumerate() {
                    if *b {
                        to_key |= 1 << bit;
                    }
                }
                // Exactly the transitions whose guard matches this input
                // claim this (from, input) pair, and they agree on `to`.
                let claimed: Vec<_> = fsm
                    .transitions()
                    .iter()
                    .filter(|tr| tr.from == s && tr.guard.eval(&v))
                    .collect();
                prop_assert!(!claimed.is_empty(), "input not covered by any guard");
                for tr in claimed {
                    prop_assert_eq!(fsm.state_key(tr.to), to_key, "guard sends to wrong state");
                }
            }
        }
    }
}

fn assign(inputs: &[SignalId], key: u64) -> Vec<(SignalId, bool)> {
    inputs
        .iter()
        .enumerate()
        .map(|(bit, &s)| (s, key >> bit & 1 == 1))
        .collect()
}
