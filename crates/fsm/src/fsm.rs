//! Explicit FSM extraction from a netlist module.

use crate::error::FsmError;
use dic_logic::{BddManager, Cube, Lit, SignalId, SignalTable, Valuation};
use dic_netlist::Module;
use std::collections::HashMap;
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
/// States are reachable latch valuations; transitions are guarded by input
/// cubes. This is the `S_M = (I, O, S, S0, L, T)` of the paper's Section 3,
/// with `L(s)` exposed as [`Fsm::state_cube`] and `T` as
/// [`Fsm::transitions`].
#[derive(Clone, Debug)]
pub struct Fsm {
    state_vars: Vec<SignalId>,
    input_vars: Vec<SignalId>,
    /// Latch valuations (packed keys over `state_vars`), index = state id.
    states: Vec<u64>,
    initial: usize,
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

    /// Number of transitions (after any guard merging).
    pub fn num_transitions(&self) -> usize {
        self.transitions.len()
    }

    /// Index of the initial (reset) state.
    pub fn initial(&self) -> usize {
        self.initial
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
            let shape = if i == self.initial {
                "doublecircle"
            } else {
                "circle"
            };
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
/// With `merge_inputs` set, input valuations leading from the same source to
/// the same destination are merged into irredundant guard cubes via the BDD
/// engine (the form used in the paper's Example 3, where the four minterm
/// transitions collapse to guards `a & b` and `!(a & b)`); otherwise each
/// transition carries a full input minterm.
///
/// # Errors
///
/// [`FsmError::TooLarge`] if `latches + inputs` exceeds
/// [`EXPLICIT_BIT_LIMIT`] bits.
///
/// See the [crate-level example](crate) for usage.
pub fn extract_fsm(
    module: &Module,
    table: &SignalTable,
    merge_inputs: bool,
) -> Result<Fsm, FsmError> {
    let state_vars: Vec<SignalId> = module.state_signals();
    let input_vars: Vec<SignalId> = module.inputs().to_vec();
    if state_vars.len() + input_vars.len() > EXPLICIT_BIT_LIMIT {
        return Err(FsmError::TooLarge {
            state_bits: state_vars.len(),
            input_bits: input_vars.len(),
            limit: EXPLICIT_BIT_LIMIT,
        });
    }

    // Reset state key.
    let mut reset = Valuation::all_false(table.len());
    module.apply_reset(&mut reset);
    let init_key = reset.project_key(&state_vars);

    let mut states = vec![init_key];
    let mut index: HashMap<u64, usize> = HashMap::from([(init_key, 0)]);
    // (from, to) -> input keys (for merging); or direct transition list.
    let mut raw: Vec<(usize, u64, usize)> = Vec::new();
    let mut work = vec![0usize];
    let n_inputs = input_vars.len();
    let mut scratch = Valuation::all_false(table.len());

    while let Some(from) = work.pop() {
        let from_key = states[from];
        for input_key in 0..(1u64 << n_inputs) {
            scratch.assign_key(&state_vars, from_key);
            scratch.assign_key(&input_vars, input_key);
            module.eval_wires(&mut scratch);
            let next = module.next_latch_values(&scratch);
            let mut to_key = 0u64;
            for (bit, v) in next.iter().enumerate() {
                if *v {
                    to_key |= 1 << bit;
                }
            }
            let to = *index.entry(to_key).or_insert_with(|| {
                states.push(to_key);
                work.push(states.len() - 1);
                states.len() - 1
            });
            raw.push((from, input_key, to));
        }
    }

    let transitions = if merge_inputs {
        merge_guards(&raw, &input_vars)
    } else {
        raw.iter()
            .map(|&(from, input_key, to)| FsmTransition {
                from,
                to,
                guard: minterm(&input_vars, input_key),
            })
            .collect()
    };

    Ok(Fsm {
        state_vars,
        input_vars,
        states,
        initial: 0,
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

/// Merges per-(from,to) input sets into irredundant cube covers.
fn merge_guards(raw: &[(usize, u64, usize)], input_vars: &[SignalId]) -> Vec<FsmTransition> {
    let mut grouped: HashMap<(usize, usize), Vec<u64>> = HashMap::new();
    for &(from, input_key, to) in raw {
        grouped.entry((from, to)).or_default().push(input_key);
    }
    let mut pairs: Vec<((usize, usize), Vec<u64>)> = grouped.into_iter().collect();
    pairs.sort();
    let mut man = BddManager::new();
    let mut out = Vec::new();
    for ((from, to), keys) in pairs {
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
        let fsm = extract_fsm(&m, &t, true).expect("fits");
        // Two states (c=0, c=1) as in Fig. 5(b).
        assert_eq!(fsm.num_states(), 2);
        assert_eq!(fsm.initial(), 0);
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
    fn unmerged_transitions_are_minterms() {
        let mut t = SignalTable::new();
        let m = simple_model(&mut t);
        let fsm = extract_fsm(&m, &t, false).expect("fits");
        // 2 states x 4 input minterms.
        assert_eq!(fsm.num_transitions(), 8);
        for tr in fsm.transitions() {
            assert_eq!(tr.guard.len(), 2, "full minterms over a,b");
        }
    }

    #[test]
    fn state_cube_characterizes_state() {
        let mut t = SignalTable::new();
        let m = simple_model(&mut t);
        let fsm = extract_fsm(&m, &t, true).expect("fits");
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
        let fsm = extract_fsm(&m, &t, true).expect("fits");
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
        let fsm = extract_fsm(&m, &t, true).expect("fits");
        assert_eq!(fsm.num_states(), 4);
        assert_eq!(fsm.num_transitions(), 4); // deterministic, no inputs
                                              // Each state has exactly one successor, forming one cycle of length 4.
        let mut next = [usize::MAX; 4];
        for tr in fsm.transitions() {
            assert!(tr.guard.is_empty());
            next[tr.from] = tr.to;
        }
        let mut seen = [false; 4];
        let mut cur = fsm.initial();
        for _ in 0..4 {
            assert!(!seen[cur]);
            seen[cur] = true;
            cur = next[cur];
        }
        assert_eq!(cur, fsm.initial());
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
            extract_fsm(&m, &t, true),
            Err(FsmError::TooLarge { .. })
        ));
    }

    #[test]
    fn dot_export_mentions_states() {
        let mut t = SignalTable::new();
        let m = simple_model(&mut t);
        let fsm = extract_fsm(&m, &t, true).expect("fits");
        let dot = fsm.to_dot(&t);
        assert!(dot.contains("digraph fsm"));
        assert!(dot.contains("!c"));
        assert!(dot.contains("doublecircle"));
    }
}
