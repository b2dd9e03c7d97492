//! Cycle-accurate two-valued simulation and waveform rendering.
//!
//! Used to regenerate the paper's Fig. 3 timing diagrams (cache hit and
//! cache miss scenarios of the memory arbitration logic) and as a
//! cross-check for FSM extraction.

use crate::module::Module;
use crate::NetlistError;
use dic_logic::{SignalId, SignalTable, Valuation};
use std::fmt::Write as _;

/// A cycle-accurate simulator for a [`Module`].
///
/// Semantics per cycle: primary inputs are applied, wires settle (evaluated
/// in dependency order), outputs are observable; at the clock edge all
/// latches simultaneously load their next-state functions.
///
/// # Example
///
/// ```
/// use dic_logic::{BoolExpr, SignalTable};
/// use dic_netlist::{ModuleBuilder, Simulator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut t = SignalTable::new();
/// let mut b = ModuleBuilder::new("counter_bit", &mut t);
/// let en = b.input("en");
/// let q = b.table().intern("q");
/// b.latch("q", BoolExpr::xor(BoolExpr::var(q), BoolExpr::var(en)), false);
/// let m = b.finish()?;
///
/// let mut sim = Simulator::new(&m, &t)?;
/// assert!(!sim.state().get(q));
/// sim.step(&[(en, true)]); // q toggles at the edge
/// assert!(sim.state().get(q));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Simulator<'m> {
    module: &'m Module,
    state: Valuation,
}

impl<'m> Simulator<'m> {
    /// Creates a simulator with latches at their reset values and all other
    /// signals low.
    ///
    /// # Errors
    ///
    /// Currently infallible for validated modules; returns `Result` so the
    /// signature stays stable if later validation is added.
    pub fn new(module: &'m Module, table: &SignalTable) -> Result<Self, NetlistError> {
        let mut state = Valuation::all_false(table.len());
        module.apply_reset(&mut state);
        let mut sim = Simulator { module, state };
        sim.settle(&[]);
        Ok(sim)
    }

    /// The current settled valuation (after the last [`Simulator::step`]).
    pub fn state(&self) -> &Valuation {
        &self.state
    }

    /// Applies inputs and lets the combinational logic settle, *without*
    /// clocking the latches. Returns the settled valuation.
    pub fn settle(&mut self, inputs: &[(SignalId, bool)]) -> &Valuation {
        for &(s, v) in inputs {
            self.state.set(s, v);
        }
        self.module.eval_wires(&mut self.state);
        &self.state
    }

    /// One full clock cycle: apply inputs, settle wires, then clock all
    /// latches. Returns the valuation *before* the edge (what a waveform
    /// viewer shows for the cycle).
    pub fn step(&mut self, inputs: &[(SignalId, bool)]) -> Valuation {
        self.settle(inputs);
        let observed = self.state.clone();
        let next = self.module.next_latch_values(&self.state);
        for (l, v) in self.module.latches().iter().zip(next) {
            self.state.set(l.output(), v);
        }
        // Re-settle so `state()` reflects the new cycle (with held inputs).
        self.module.eval_wires(&mut self.state);
        observed
    }

    /// Runs a stimulus (one input vector per cycle) and records the trace.
    pub fn run(&mut self, stimulus: &[Vec<(SignalId, bool)>]) -> Trace {
        let mut states = Vec::with_capacity(stimulus.len());
        for cycle in stimulus {
            states.push(self.step(cycle));
        }
        Trace { states }
    }
}

/// A recorded simulation trace: one settled valuation per cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    states: Vec<Valuation>,
}

impl Trace {
    /// The recorded valuations.
    pub fn states(&self) -> &[Valuation] {
        &self.states
    }

    /// Number of recorded cycles.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether no cycle was recorded.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Value of `signal` at `cycle`.
    pub fn value(&self, cycle: usize, signal: SignalId) -> bool {
        self.states[cycle].get(signal)
    }

    /// Renders an ASCII timing diagram for the given signals, in the style
    /// of the paper's Fig. 3:
    ///
    /// ```text
    /// r1   : ▔▔▁▁▁
    /// wait : ▁▁▔▔▁
    /// ```
    ///
    /// High is `▔`, low is `▁`.
    pub fn render(&self, table: &SignalTable, signals: &[SignalId]) -> String {
        let name_width = signals
            .iter()
            .map(|&s| table.name(s).len())
            .max()
            .unwrap_or(0);
        let mut out = String::new();
        // Header with cycle numbers (mod 10 to stay one char wide).
        let _ = write!(out, "{:name_width$}   ", "");
        for c in 0..self.len() {
            let _ = write!(out, "{}", c % 10);
        }
        out.push('\n');
        for &s in signals {
            let _ = write!(out, "{:name_width$} : ", table.name(s));
            for st in &self.states {
                out.push(if st.get(s) { '▔' } else { '▁' });
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::ModuleBuilder;
    use dic_logic::BoolExpr;

    /// A 2-bit shift register: q2' = q1, q1' = d.
    fn shift_register(t: &mut SignalTable) -> (Module, SignalId, SignalId, SignalId) {
        let mut b = ModuleBuilder::new("shift", t);
        let d = b.input("d");
        let q1 = b.latch_from("q1", d, false);
        let q2 = b.latch_from("q2", q1, false);
        b.mark_output(q2);
        (b.finish().expect("valid"), d, q1, q2)
    }

    #[test]
    fn latches_delay_by_one_cycle() {
        let mut t = SignalTable::new();
        let (m, d, q1, q2) = shift_register(&mut t);
        let mut sim = Simulator::new(&m, &t).expect("sim");
        let tr = sim.run(&[
            vec![(d, true)],
            vec![(d, false)],
            vec![(d, false)],
            vec![(d, false)],
        ]);
        // d pulses at cycle 0; q1 sees it at cycle 1; q2 at cycle 2.
        assert!(tr.value(0, d) && !tr.value(0, q1) && !tr.value(0, q2));
        assert!(!tr.value(1, d) && tr.value(1, q1) && !tr.value(1, q2));
        assert!(!tr.value(2, q1) && tr.value(2, q2));
        assert!(!tr.value(3, q2));
    }

    #[test]
    fn reset_values_respected() {
        let mut t = SignalTable::new();
        let mut b = ModuleBuilder::new("m", &mut t);
        let q = b.latch("q", BoolExpr::ff(), true);
        b.mark_output(q);
        let m = b.finish().expect("valid");
        let mut sim = Simulator::new(&m, &t).expect("sim");
        assert!(sim.state().get(q), "starts at reset value 1");
        sim.step(&[]);
        assert!(!sim.state().get(q), "next function forces 0");
    }

    #[test]
    fn combinational_logic_settles_within_cycle() {
        let mut t = SignalTable::new();
        let mut b = ModuleBuilder::new("m", &mut t);
        let a = b.input("a");
        let nb = b.not_gate("nb", a);
        let both = b.or_gate("both", [a, nb], []);
        b.mark_output(both);
        let m = b.finish().expect("valid");
        let mut sim = Simulator::new(&m, &t).expect("sim");
        for v in [false, true] {
            let st = sim.step(&[(a, v)]);
            assert!(st.get(both), "tautology wire must always read 1");
        }
    }

    #[test]
    fn inputs_hold_between_steps() {
        let mut t = SignalTable::new();
        let (m, d, q1, _q2) = shift_register(&mut t);
        let mut sim = Simulator::new(&m, &t).expect("sim");
        sim.step(&[(d, true)]);
        // No new assignment to d: it holds its value.
        let st = sim.step(&[]);
        assert!(st.get(d));
        assert!(st.get(q1));
    }

    #[test]
    fn trace_render_shape() {
        let mut t = SignalTable::new();
        let (m, d, _q1, q2) = shift_register(&mut t);
        let mut sim = Simulator::new(&m, &t).expect("sim");
        let tr = sim.run(&[vec![(d, true)], vec![(d, false)], vec![], vec![]]);
        let art = tr.render(&t, &[d, q2]);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 3); // header + 2 signals
        assert!(lines[0].contains("0123"));
        assert!(lines[1].starts_with("d "));
        assert!(lines[1].contains("▔▁▁▁"));
        assert!(lines[2].contains("▁▁▔▔") || lines[2].contains("▁▁▔▁"));
    }
}
