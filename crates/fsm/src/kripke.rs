//! Kripke structures: the runs consistent with the concrete modules.

use crate::error::FsmError;
use dic_logic::{SignalId, SignalTable, Valuation};
use dic_netlist::Module;
use std::collections::HashMap;

/// Bit budget for the Kripke state space (`latch bits + input bits`).
///
/// Tighter than the FSM limit because Kripke states are materialized with
/// full signal labels.
pub const KRIPKE_BIT_LIMIT: usize = 20;

/// Identifier of a Kripke state.
pub type StateId = u32;

/// An explicit Kripke structure over circuit signal valuations.
///
/// A state is a pair *(latch valuation, free-signal valuation)* — the
/// paper's "valuation of the signals at a given time" (Definition 1)
/// restricted to its deterministic part (wires are functions of the rest).
/// Transitions step the latches through the module logic and re-choose
/// every free signal nondeterministically, so the paths of this structure
/// are exactly the runs consistent with the concrete modules, with all
/// other spec signals unconstrained.
///
/// See the [crate-level example](crate) for usage.
#[derive(Clone, Debug)]
pub struct Kripke {
    state_vars: Vec<SignalId>,
    input_vars: Vec<SignalId>,
    /// Reachable latch valuations; index = latch index. Entry 0 is initial.
    latch_keys: Vec<u64>,
    n_input_bits: u32,
    /// `next_latch[latch_idx << n_input_bits | input_key]` = next latch idx.
    next_latch: Vec<u32>,
    /// Full signal valuation per state id.
    labels: Vec<Valuation>,
}

impl Kripke {
    /// Builds the Kripke structure of `module` with `extra_free` signals
    /// (spec signals not driven by the module) added as nondeterministic
    /// inputs. Signals in `extra_free` that the module drives are ignored;
    /// duplicates are ignored.
    ///
    /// # Errors
    ///
    /// [`FsmError::TooLarge`] if the state space exceeds
    /// [`KRIPKE_BIT_LIMIT`] bits; [`FsmError::Deadline`] if the cooperative
    /// deadline passes while the reachable latch states are enumerated.
    pub fn from_module(
        module: &Module,
        table: &SignalTable,
        extra_free: &[SignalId],
    ) -> Result<Self, FsmError> {
        let state_vars: Vec<SignalId> = module.state_signals();
        let input_vars: Vec<SignalId> = module.nondet_inputs(extra_free);
        if state_vars.len() + input_vars.len() > KRIPKE_BIT_LIMIT {
            return Err(FsmError::TooLarge {
                state_bits: state_vars.len(),
                input_bits: input_vars.len(),
                limit: KRIPKE_BIT_LIMIT,
            });
        }
        let n_input_bits = input_vars.len() as u32;
        let mut build_span = dic_trace::span("fsm.kripke_build");
        let (latch_keys, next_latch) = reachable_latches(module, table, &state_vars, &input_vars)?;

        // Labels for every (latch, input) pair.
        let mut labels = Vec::with_capacity(latch_keys.len() << n_input_bits);
        for &lk in &latch_keys {
            for input_key in 0..(1u64 << n_input_bits) {
                let mut v = Valuation::all_false(table.len());
                v.assign_key(&state_vars, lk);
                v.assign_key(&input_vars, input_key);
                module.eval_wires(&mut v);
                labels.push(v);
            }
        }

        if dic_trace::enabled() {
            dic_trace::count(
                dic_trace::Counter::ExplicitStatesExpanded,
                labels.len() as u64,
            );
            build_span.meta("states", labels.len() as u64);
            build_span.meta("latch_states", latch_keys.len() as u64);
            dic_trace::gauge_max(dic_trace::Gauge::ExplicitKripkeStates, labels.len() as u64);
        }
        Ok(Kripke {
            state_vars,
            input_vars,
            latch_keys,
            n_input_bits,
            next_latch,
            labels,
        })
    }

    /// The latch signals.
    pub fn state_vars(&self) -> &[SignalId] {
        &self.state_vars
    }

    /// The nondeterministic input signals (module inputs + free signals).
    pub fn input_vars(&self) -> &[SignalId] {
        &self.input_vars
    }

    /// Total number of states.
    pub fn num_states(&self) -> usize {
        self.latch_keys.len() << self.n_input_bits
    }

    /// The initial states: reset latches, any input valuation.
    pub fn initial_states(&self) -> impl Iterator<Item = StateId> + '_ {
        0..(1u32 << self.n_input_bits)
    }

    /// The successors of `state`: stepped latches, any next input valuation.
    pub fn successors(&self, state: StateId) -> impl Iterator<Item = StateId> + '_ {
        let next_latch = self.next_latch[state as usize];
        let base = next_latch << self.n_input_bits;
        (0..(1u32 << self.n_input_bits)).map(move |i| base | i)
    }

    /// The full signal valuation labelling `state`.
    pub fn label(&self, state: StateId) -> &Valuation {
        &self.labels[state as usize]
    }
}

/// The reachable latch states of `module`, breadth-first from reset: the
/// packed latch valuations over `state_vars` in discovery order (entry 0
/// is the reset state), and the successor table
/// `next[latch_idx << input_vars.len() | input_key]` = next latch index.
///
/// # Errors
///
/// [`FsmError::Deadline`] when the cooperative deadline has passed; it is
/// checked once per latch state expanded.
pub(crate) fn reachable_latches(
    module: &Module,
    table: &SignalTable,
    state_vars: &[SignalId],
    input_vars: &[SignalId],
) -> Result<(Vec<u64>, Vec<u32>), FsmError> {
    let mut scratch = Valuation::all_false(table.len());
    module.apply_reset(&mut scratch);
    let init_key = scratch.project_key(state_vars);
    let mut latch_keys = vec![init_key];
    let mut index: HashMap<u64, u32> = HashMap::from([(init_key, 0)]);
    let mut next_latch: Vec<u32> = Vec::new();
    let mut frontier = 0usize;
    while frontier < latch_keys.len() {
        if dic_fault::deadline_expired() {
            return Err(FsmError::Deadline);
        }
        let from_key = latch_keys[frontier];
        for input_key in 0..(1u64 << input_vars.len()) {
            scratch.assign_key(state_vars, from_key);
            scratch.assign_key(input_vars, input_key);
            module.eval_wires(&mut scratch);
            let next = module.next_latch_values(&scratch);
            let mut to_key = 0u64;
            for (bit, v) in next.iter().enumerate() {
                if *v {
                    to_key |= 1 << bit;
                }
            }
            let to = *index.entry(to_key).or_insert_with(|| {
                latch_keys.push(to_key);
                (latch_keys.len() - 1) as u32
            });
            next_latch.push(to);
        }
        frontier += 1;
    }
    Ok((latch_keys, next_latch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dic_logic::BoolExpr;
    use dic_netlist::ModuleBuilder;

    fn simple(t: &mut SignalTable) -> Module {
        let mut b = ModuleBuilder::new("simple", t);
        let a = b.input("a");
        let bb = b.input("b");
        b.latch(
            "c",
            BoolExpr::and([BoolExpr::var(a), BoolExpr::var(bb)]),
            false,
        );
        b.finish().expect("valid")
    }

    #[test]
    fn state_count_and_labels() {
        let mut t = SignalTable::new();
        let m = simple(&mut t);
        let k = Kripke::from_module(&m, &t, &[]).expect("fits");
        assert_eq!(k.num_states(), 8); // 2 latch x 4 inputs
        let a = t.lookup("a").unwrap();
        let c = t.lookup("c").unwrap();
        // Initial states have c = 0.
        for s in k.initial_states() {
            assert!(!k.label(s).get(c));
        }
        // Some initial state has a = 1.
        assert!(k.initial_states().any(|s| k.label(s).get(a)));
    }

    #[test]
    fn transitions_follow_latch_logic() {
        let mut t = SignalTable::new();
        let m = simple(&mut t);
        let k = Kripke::from_module(&m, &t, &[]).expect("fits");
        let a = t.lookup("a").unwrap();
        let b = t.lookup("b").unwrap();
        let c = t.lookup("c").unwrap();
        // From a state with a & b, every successor has c = 1.
        let s = k
            .initial_states()
            .find(|&s| k.label(s).get(a) && k.label(s).get(b))
            .expect("exists");
        for succ in k.successors(s) {
            assert!(k.label(succ).get(c));
        }
        // From a state with !a, every successor has c = 0.
        let s = k
            .initial_states()
            .find(|&s| !k.label(s).get(a))
            .expect("exists");
        for succ in k.successors(s) {
            assert!(!k.label(succ).get(c));
        }
    }

    #[test]
    fn extra_free_signals_are_unconstrained() {
        let mut t = SignalTable::new();
        let m = simple(&mut t);
        let r = t.intern("r_free");
        let k = Kripke::from_module(&m, &t, &[r]).expect("fits");
        assert_eq!(k.num_states(), 16);
        // Both r values occur among initial states.
        assert!(k.initial_states().any(|s| k.label(s).get(r)));
        assert!(k.initial_states().any(|s| !k.label(s).get(r)));
        // And both occur among successors of any state.
        let s0 = k.initial_states().next().unwrap();
        assert!(k.successors(s0).any(|s| k.label(s).get(r)));
        assert!(k.successors(s0).any(|s| !k.label(s).get(r)));
    }

    #[test]
    fn driven_signals_filtered_from_free() {
        let mut t = SignalTable::new();
        let m = simple(&mut t);
        let c = t.lookup("c").unwrap();
        let k = Kripke::from_module(&m, &t, &[c]).expect("fits");
        assert_eq!(k.input_vars().len(), 2, "c is driven, stays constrained");
    }

    #[test]
    fn too_large_rejected() {
        let mut t = SignalTable::new();
        let mut b = ModuleBuilder::new("wide", &mut t);
        let inputs: Vec<_> = (0..25).map(|i| b.input(&format!("i{i}"))).collect();
        b.latch("q", BoolExpr::var(inputs[0]), false);
        let m = b.finish().expect("valid");
        assert!(matches!(
            Kripke::from_module(&m, &t, &[]),
            Err(FsmError::TooLarge { .. })
        ));
    }

    #[test]
    fn wires_in_labels_are_settled() {
        // Module with a wire: w = a | c.
        let mut t = SignalTable::new();
        let mut b = ModuleBuilder::new("m", &mut t);
        let a = b.input("a");
        let c = b.table().intern("c");
        b.latch("c", BoolExpr::var(a), false);
        let w = b.or_gate("w", [a, c], []);
        let m = b.finish().expect("valid");
        let k = Kripke::from_module(&m, &t, &[]).expect("fits");
        for s in 0..k.num_states() as u32 {
            let l = k.label(s);
            assert_eq!(l.get(w), l.get(a) || l.get(c));
        }
    }
}
