//! The model interface: transition systems over signal valuations.

use dic_fsm::Kripke;
use dic_logic::Valuation;
use dic_ltl::{LassoWord, TemporalCube};

/// What the model checker needs from a model: initial states, successors
/// and signal-valuation labels.
///
/// Implemented by [`dic_fsm::Kripke`] (netlist semantics), by
/// [`WordSystem`] (a single lasso word, used to replay witnesses and as a
/// test oracle bridge) and by `CubeView` (a system's runs that match a
/// temporal cube).
pub trait TransitionSystem {
    /// The initial states.
    fn initial_states(&self) -> Vec<u32>;
    /// Calls `f` on each successor of `state`, in a fixed order, without
    /// allocating.
    fn for_each_successor(&self, state: u32, f: impl FnMut(u32));
    /// The valuation labelling `state`.
    fn label(&self, state: u32) -> &Valuation;
    /// A small number standing for `state`'s label: states with the same
    /// id have the same label (equal labels may still get distinct ids).
    /// Ids lie below [`num_label_ids`](TransitionSystem::num_label_ids),
    /// so a product search can tabulate per-label facts in a flat array.
    fn label_id(&self, state: u32) -> u32;
    /// The bound on [`label_id`](TransitionSystem::label_id).
    fn num_label_ids(&self) -> usize;

    /// Number of *fairness* (generalized acceptance) sets the system itself
    /// imposes: a path of the system counts as a run only if it visits each
    /// set infinitely often. Plain models have none; a
    /// [`ProductSystem`](crate::ProductSystem) carries the acceptance bits
    /// of the automata folded into it.
    fn num_acc_sets(&self) -> u32 {
        0
    }

    /// Membership bitmask of `state` in the system fairness sets
    /// (bit `j` ⇔ member of set `j`); always `0` for plain models.
    fn acc_bits(&self, _state: u32) -> u32 {
        0
    }
}

impl TransitionSystem for Kripke {
    fn initial_states(&self) -> Vec<u32> {
        Kripke::initial_states(self).collect()
    }

    fn for_each_successor(&self, state: u32, f: impl FnMut(u32)) {
        Kripke::successors(self, state).for_each(f);
    }

    fn label(&self, state: u32) -> &Valuation {
        Kripke::label(self, state)
    }

    fn label_id(&self, state: u32) -> u32 {
        state
    }

    fn num_label_ids(&self) -> usize {
        self.num_states()
    }
}

/// A transition system with exactly one run: the given lasso word.
///
/// State `i` is position `i` of the word; the last stored position loops
/// back to `loop_start`. Model-checking a formula existentially against a
/// `WordSystem` therefore decides `w ⊨ φ`, which is how the automaton
/// construction is validated against the bounded semantics oracle.
///
/// # Example
///
/// ```
/// use dic_logic::{SignalTable, Valuation};
/// use dic_ltl::{LassoWord, Ltl};
/// use dic_automata::{satisfiable_in, WordSystem};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut t = SignalTable::new();
/// let p = t.intern("p");
/// let mut hi = Valuation::all_false(1);
/// hi.set(p, true);
/// let w = LassoWord::new(vec![Valuation::all_false(1), hi], 1).expect("word");
/// let sys = WordSystem::new(w);
/// let fp = Ltl::parse("F p", &mut t)?;
/// assert!(satisfiable_in(&fp, &sys).is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct WordSystem {
    word: LassoWord,
}

impl WordSystem {
    /// Wraps a lasso word as a single-run transition system.
    pub fn new(word: LassoWord) -> Self {
        WordSystem { word }
    }

    /// The underlying word.
    pub fn word(&self) -> &LassoWord {
        &self.word
    }
}

impl TransitionSystem for WordSystem {
    fn initial_states(&self) -> Vec<u32> {
        vec![0]
    }

    fn for_each_successor(&self, state: u32, mut f: impl FnMut(u32)) {
        f(self.word.succ(state as usize) as u32);
    }

    fn label(&self, state: u32) -> &Valuation {
        self.word.at(state as usize)
    }

    fn label_id(&self, state: u32) -> u32 {
        state
    }

    fn num_label_ids(&self) -> usize {
        self.word.len()
    }
}

/// The runs of a base system that match a temporal cube at time 0.
///
/// A state is a base state `k` paired with the time `t` it is reached
/// at, `t` capped at `cube.depth() + 1` (past every literal), numbered
/// `k << shift | t`. Only the states whose label satisfies the cube's
/// literals at their time exist: the roots and successors of the base are
/// filtered, in the base's order, and fairness bits pass through. So a
/// bounded-scenario query needs no automaton for its cube. The empty
/// cube's view is the base itself, with the base's state numbers.
pub(crate) struct CubeView<'a, S> {
    base: &'a S,
    cube: &'a TemporalCube,
    /// The cube's literals at time `t` are `cube.lits()[starts[t]..starts[t + 1]]`;
    /// the range is empty at `t = cap`.
    starts: Vec<usize>,
    /// The time of the states past the cube's last literal (0 for the
    /// empty cube).
    cap: u32,
    /// Bits of a state number that hold its time.
    shift: u32,
}

impl<'a, S: TransitionSystem> CubeView<'a, S> {
    /// The view of `base` constrained by `cube`.
    pub(crate) fn new(base: &'a S, cube: &'a TemporalCube) -> Self {
        let cap = if cube.is_empty() {
            0
        } else {
            u32::try_from(cube.depth() + 1).expect("cube depth fits a state number")
        };
        let lits = cube.lits();
        let starts = (0..=cap as usize + 1)
            .map(|t| lits.partition_point(|&(u, _)| u < t))
            .collect();
        CubeView {
            base,
            cube,
            starts,
            cap,
            shift: u32::BITS - cap.leading_zeros(),
        }
    }

    /// Whether `label` satisfies the cube's literals at time `t`.
    fn matches(&self, t: u32, label: &Valuation) -> bool {
        let t = t as usize;
        self.cube.lits()[self.starts[t]..self.starts[t + 1]]
            .iter()
            .all(|&(_, l)| l.eval(label))
    }

    /// The number of the state `(k, t)`.
    fn state(&self, k: u32, t: u32) -> u32 {
        u32::try_from(u64::from(k) << self.shift | u64::from(t))
            .expect("cube view state fits a state number")
    }

    /// The base state of `state`.
    fn base_state(&self, state: u32) -> u32 {
        state >> self.shift
    }
}

impl<S: TransitionSystem> TransitionSystem for CubeView<'_, S> {
    fn initial_states(&self) -> Vec<u32> {
        self.base
            .initial_states()
            .into_iter()
            .filter(|&k| self.matches(0, self.base.label(k)))
            .map(|k| self.state(k, 0))
            .collect()
    }

    fn for_each_successor(&self, state: u32, mut f: impl FnMut(u32)) {
        let time = ((1u64 << self.shift) - 1) as u32;
        let t = ((state & time) + 1).min(self.cap);
        self.base.for_each_successor(self.base_state(state), |k| {
            if self.matches(t, self.base.label(k)) {
                f(self.state(k, t));
            }
        });
    }

    fn label(&self, state: u32) -> &Valuation {
        self.base.label(self.base_state(state))
    }

    fn label_id(&self, state: u32) -> u32 {
        self.base.label_id(self.base_state(state))
    }

    fn num_label_ids(&self) -> usize {
        self.base.num_label_ids()
    }

    fn num_acc_sets(&self) -> u32 {
        self.base.num_acc_sets()
    }

    fn acc_bits(&self, state: u32) -> u32 {
        self.base.acc_bits(self.base_state(state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dic_logic::SignalTable;

    #[test]
    fn word_system_wraps_positions() {
        let mut t = SignalTable::new();
        let p = t.intern("p");
        let mut hi = Valuation::all_false(t.len());
        hi.set(p, true);
        let w = LassoWord::new(vec![Valuation::all_false(t.len()), hi], 1).expect("word");
        let sys = WordSystem::new(w);
        let succs = |s: u32| {
            let mut out = Vec::new();
            sys.for_each_successor(s, |t| out.push(t));
            out
        };
        assert_eq!(sys.initial_states(), vec![0]);
        assert_eq!(succs(0), vec![1]);
        assert_eq!(succs(1), vec![1], "last position loops");
        assert!(sys.label(1).get(p));
    }
}
