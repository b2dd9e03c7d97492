//! Explicit FSM extraction from a netlist module.

use crate::error::FsmError;
use crate::kripke::reachable_latches;
use dic_logic::{BddManager, Cube, Lit, SignalId, SignalTable};
use dic_netlist::Module;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Bit budget for explicit enumeration (`state_bits + input_bits`).
pub const EXPLICIT_BIT_LIMIT: usize = 24;

/// One FSM transition `(s, guard, s')`: taken from state `s` under any input
/// valuation satisfying `guard` (a cube over the module's input signals).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FsmTransition {
    /// Source state index.
    pub from: usize,
    /// Destination state index.
    pub to: usize,
    /// Input guard cube (`true` cube = unconditional).
    pub guard: Cube,
}

/// The explicit finite state machine of a concrete module.
///
/// States are reachable latch valuations, state 0 being the reset state;
/// transitions are guarded by input cubes. This is the
/// `S_M = (I, O, S, S0, L, T)` of the paper's Section 3, with `L(s)`
/// exposed as [`Fsm::state_cube`] and `T` as [`Fsm::transitions`].
#[derive(Clone, Debug)]
pub struct Fsm {
    state_vars: Vec<SignalId>,
    input_vars: Vec<SignalId>,
    /// Latch valuations (packed keys over `state_vars`), index = state id.
    states: Vec<u64>,
    transitions: Vec<FsmTransition>,
}

impl Fsm {
    /// The latch signals, in key bit order.
    pub fn state_vars(&self) -> &[SignalId] {
        &self.state_vars
    }

    /// The module input signals, in key bit order.
    pub fn input_vars(&self) -> &[SignalId] {
        &self.input_vars
    }

    /// Number of reachable states.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Number of transitions (after guard merging).
    pub fn num_transitions(&self) -> usize {
        self.transitions.len()
    }

    /// The packed latch valuation of state `id`.
    pub fn state_key(&self, id: usize) -> u64 {
        self.states[id]
    }

    /// All transitions.
    pub fn transitions(&self) -> &[FsmTransition] {
        &self.transitions
    }

    /// The paper's `L(s)`: the cube over the state variables characterizing
    /// state `id`.
    pub fn state_cube(&self, id: usize) -> Cube {
        let key = self.states[id];
        Cube::from_lits(
            self.state_vars
                .iter()
                .enumerate()
                .map(|(bit, &s)| Lit::new(s, key >> bit & 1 == 1)),
        )
        .expect("one literal per distinct signal")
    }

    /// Renders the FSM in Graphviz DOT format.
    pub fn to_dot(&self, table: &SignalTable) -> String {
        let mut out = String::from("digraph fsm {\n  rankdir=LR;\n");
        for (i, _key) in self.states.iter().enumerate() {
            let label = self.state_cube(i).display(table).to_string();
            let shape = if i == 0 { "doublecircle" } else { "circle" };
            let _ = writeln!(out, "  s{i} [label=\"{label}\", shape={shape}];");
        }
        for t in &self.transitions {
            let guard = t.guard.display(table).to_string();
            let _ = writeln!(out, "  s{} -> s{} [label=\"{}\"];", t.from, t.to, guard);
        }
        out.push_str("}\n");
        out
    }
}

/// Extracts the explicit FSM of `module`.
///
/// States are numbered in breadth-first order from reset. Input valuations
/// leading from the same source to the same destination are merged into
/// irredundant guard cubes via the BDD engine (the form used in the
/// paper's Example 3, where the four minterm transitions collapse to
/// guards `a & b` and `!(a & b)`).
///
/// # Errors
///
/// [`FsmError::TooLarge`] if `latches + inputs` exceeds
/// [`EXPLICIT_BIT_LIMIT`] bits; [`FsmError::Deadline`] if the cooperative
/// deadline passes while the reachable states are enumerated.
///
/// See the [crate-level example](crate) for usage.
pub fn extract_fsm(module: &Module, table: &SignalTable) -> Result<Fsm, FsmError> {
    let state_vars: Vec<SignalId> = module.state_signals();
    let input_vars: Vec<SignalId> = module.inputs().to_vec();
    if state_vars.len() + input_vars.len() > EXPLICIT_BIT_LIMIT {
        return Err(FsmError::TooLarge {
            state_bits: state_vars.len(),
            input_bits: input_vars.len(),
            limit: EXPLICIT_BIT_LIMIT,
        });
    }

    let (states, next_latch) = reachable_latches(module, table, &state_vars, &input_vars)?;
    let transitions = merge_guards(&next_latch, &input_vars);
    Ok(Fsm {
        state_vars,
        input_vars,
        states,
        transitions,
    })
}

/// Builds the full input minterm cube for a packed key.
fn minterm(input_vars: &[SignalId], key: u64) -> Cube {
    Cube::from_lits(
        input_vars
            .iter()
            .enumerate()
            .map(|(bit, &s)| Lit::new(s, key >> bit & 1 == 1)),
    )
    .expect("one literal per signal")
}

/// Merges the input keys leading from one state to the same successor
/// into irredundant cube covers, ordered by source, then successor;
/// `next_latch` is the walk's successor table, one row of `2^inputs`
/// entries per state.
fn merge_guards(next_latch: &[u32], input_vars: &[SignalId]) -> Vec<FsmTransition> {
    let mut man = BddManager::new();
    let mut out = Vec::new();
    for (from, row) in next_latch.chunks(1 << input_vars.len()).enumerate() {
        let mut by_target: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
        for (input_key, &to) in row.iter().enumerate() {
            by_target
                .entry(to as usize)
                .or_default()
                .push(input_key as u64);
        }
        for (to, keys) in by_target {
            let mut f = dic_logic::Bdd::FALSE;
            for key in keys {
                let c = minterm(input_vars, key);
                let cb = man.from_cube(&c);
                f = man.or(f, cb);
            }
            for guard in man.cubes(f) {
                out.push(FsmTransition { from, to, guard });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dic_logic::BoolExpr;
    use dic_netlist::ModuleBuilder;

    /// The paper's Example 3 / Fig. 5 model: latch c with next = a & b.
    fn simple_model(t: &mut SignalTable) -> Module {
        let mut b = ModuleBuilder::new("simple", t);
        let a = b.input("a");
        let bb = b.input("b");
        let c = b.latch(
            "c",
            BoolExpr::and([BoolExpr::var(a), BoolExpr::var(bb)]),
            false,
        );
        b.mark_output(c);
        b.finish().expect("valid")
    }

    #[test]
    fn example3_fsm_shape() {
        let mut t = SignalTable::new();
        let m = simple_model(&mut t);
        let fsm = extract_fsm(&m, &t).expect("fits");
        // Two states (c=0, c=1) as in Fig. 5(b).
        assert_eq!(fsm.num_states(), 2);
        assert_eq!(fsm.state_key(0), 0);
        // Four merged transitions: from each state, (a&b) -> c=1 and
        // !(a&b) (two cubes: !a, !b or similar cover) -> c=0.
        let to_one: Vec<_> = fsm
            .transitions()
            .iter()
            .filter(|tr| fsm.state_key(tr.to) == 1)
            .collect();
        assert_eq!(to_one.len(), 2); // one a&b guard from each state
        for tr in to_one {
            assert_eq!(tr.guard.len(), 2, "guard must be the a&b cube");
        }
    }

    #[test]
    fn state_cube_characterizes_state() {
        let mut t = SignalTable::new();
        let m = simple_model(&mut t);
        let fsm = extract_fsm(&m, &t).expect("fits");
        let c = t.lookup("c").unwrap();
        assert_eq!(fsm.state_cube(0).polarity_of(c), Some(false));
        let one = (0..fsm.num_states())
            .find(|&i| fsm.state_key(i) == 1)
            .expect("state c=1 reachable");
        assert_eq!(fsm.state_cube(one).polarity_of(c), Some(true));
    }

    #[test]
    fn unreachable_states_not_enumerated() {
        // A latch that can never become 1: next = q & !q == false.
        let mut t = SignalTable::new();
        let mut b = ModuleBuilder::new("stuck", &mut t);
        b.latch("q", BoolExpr::ff(), false);
        let m = b.finish().expect("valid");
        let fsm = extract_fsm(&m, &t).expect("fits");
        assert_eq!(fsm.num_states(), 1);
        assert_eq!(fsm.num_transitions(), 1); // true-guard self loop
        assert!(fsm.transitions()[0].guard.is_empty());
    }

    #[test]
    fn counter_has_cyclic_structure() {
        // 2-bit counter: b0' = !b0; b1' = b1 ^ b0.
        let mut t = SignalTable::new();
        let mut b = ModuleBuilder::new("cnt", &mut t);
        let b0 = b.table().intern("b0");
        let b1 = b.table().intern("b1");
        b.latch("b0", BoolExpr::var(b0).not(), false);
        b.latch(
            "b1",
            BoolExpr::xor(BoolExpr::var(b1), BoolExpr::var(b0)),
            false,
        );
        let m = b.finish().expect("valid");
        let fsm = extract_fsm(&m, &t).expect("fits");
        assert_eq!(fsm.num_states(), 4);
        assert_eq!(fsm.num_transitions(), 4); // deterministic, no inputs
                                              // Each state has exactly one successor, forming one cycle of length 4.
        let mut next = [usize::MAX; 4];
        for tr in fsm.transitions() {
            assert!(tr.guard.is_empty());
            next[tr.from] = tr.to;
        }
        let mut seen = [false; 4];
        let mut cur = 0;
        for _ in 0..4 {
            assert!(!seen[cur]);
            seen[cur] = true;
            cur = next[cur];
        }
        assert_eq!(cur, 0);
    }

    #[test]
    fn too_large_rejected() {
        let mut t = SignalTable::new();
        let mut b = ModuleBuilder::new("wide", &mut t);
        let mut first = None;
        for i in 0..30 {
            let id = b.input(&format!("i{i}"));
            first.get_or_insert(id);
        }
        b.latch("q", BoolExpr::var(first.expect("30 inputs")), false);
        let m = b.finish().expect("valid");
        assert!(matches!(
            extract_fsm(&m, &t),
            Err(FsmError::TooLarge { .. })
        ));
    }

    #[test]
    fn dot_export_mentions_states() {
        let mut t = SignalTable::new();
        let m = simple_model(&mut t);
        let fsm = extract_fsm(&m, &t).expect("fits");
        let dot = fsm.to_dot(&t);
        assert!(dot.contains("digraph fsm"));
        assert!(dot.contains("!c"));
        assert!(dot.contains("doublecircle"));
    }
}
