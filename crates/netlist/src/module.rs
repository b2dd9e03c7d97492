//! Modules, wires, latches, the builder and structural composition.

use crate::error::NetlistError;
use dic_logic::{BoolExpr, SignalId, SignalTable, Valuation};
use std::collections::{BTreeSet, HashMap, HashSet};

/// A combinational wire: `output = func(...)` evaluated every cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Wire {
    output: SignalId,
    func: BoolExpr,
}

impl Wire {
    /// The driven signal.
    pub fn output(&self) -> SignalId {
        self.output
    }

    /// The combinational function.
    pub fn func(&self) -> &BoolExpr {
        &self.func
    }
}

/// A D-type latch: `output` takes the value of `next` at every clock edge,
/// starting from `init` at reset.
///
/// This is the `L` element of the paper's Fig. 2/Fig. 5 — the only state
/// element in the netlist model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Latch {
    output: SignalId,
    next: BoolExpr,
    init: bool,
}

impl Latch {
    /// The latch output (a state variable).
    pub fn output(&self) -> SignalId {
        self.output
    }

    /// The next-state function sampled at the clock edge.
    pub fn next(&self) -> &BoolExpr {
        &self.next
    }

    /// The reset value.
    pub fn init(&self) -> bool {
        self.init
    }
}

/// A synchronous structural module: inputs, outputs, combinational wires and
/// latches over signals interned in a shared [`SignalTable`].
///
/// Modules are validated on construction: every signal has a single driver,
/// referenced signals are declared, and the wires are cycle-free. Use
/// [`ModuleBuilder`] or [`parse_snl`](crate::parse_snl) to create one, and
/// [`Module::compose`] to stitch several into the paper's composite `M`.
#[derive(Clone, Debug)]
pub struct Module {
    name: String,
    inputs: Vec<SignalId>,
    outputs: Vec<SignalId>,
    wires: Vec<Wire>,
    latches: Vec<Latch>,
    /// Indices into `wires` in dependency order.
    topo: Vec<usize>,
}

impl Module {
    /// The module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declared input signals (in declaration order).
    pub fn inputs(&self) -> &[SignalId] {
        &self.inputs
    }

    /// Declared output signals.
    pub fn outputs(&self) -> &[SignalId] {
        &self.outputs
    }

    /// All combinational wires.
    pub fn wires(&self) -> &[Wire] {
        &self.wires
    }

    /// All latches.
    pub fn latches(&self) -> &[Latch] {
        &self.latches
    }

    /// Latch output signals, in declaration order (the FSM state variables).
    pub fn state_signals(&self) -> Vec<SignalId> {
        self.latches.iter().map(Latch::output).collect()
    }

    /// Wire indices in dependency order.
    pub fn wire_order(&self) -> &[usize] {
        &self.topo
    }

    /// Every signal this module drives (wires and latches).
    pub fn driven_signals(&self) -> BTreeSet<SignalId> {
        self.wires
            .iter()
            .map(Wire::output)
            .chain(self.latches.iter().map(Latch::output))
            .collect()
    }

    /// The module's nondeterministic inputs extended with `extra_free`:
    /// declared inputs first, then every extra signal the module does not
    /// drive, deduplicated in order.
    ///
    /// This is *the* state-variable accounting shared by the explicit
    /// Kripke construction, the symbolic encoding and the backend auto
    /// selection — one definition, so a size threshold can never disagree
    /// with the engines' own bit counts.
    pub fn nondet_inputs(&self, extra_free: &[SignalId]) -> Vec<SignalId> {
        let driven = self.driven_signals();
        let mut inputs: Vec<SignalId> = self.inputs.clone();
        for &s in extra_free {
            if !driven.contains(&s) && !inputs.contains(&s) {
                inputs.push(s);
            }
        }
        inputs
    }

    /// Every signal mentioned anywhere in the module.
    pub fn signals(&self) -> BTreeSet<SignalId> {
        let mut all: BTreeSet<SignalId> = self.driven_signals();
        all.extend(self.inputs.iter().copied());
        for w in &self.wires {
            all.extend(w.func.support());
        }
        for l in &self.latches {
            all.extend(l.next.support());
        }
        all
    }

    /// Evaluates all wires (in dependency order) into `state`, assuming the
    /// input and latch-output bits of `state` are already set.
    pub fn eval_wires(&self, state: &mut Valuation) {
        for &i in &self.topo {
            let w = &self.wires[i];
            let v = w.func.eval(state);
            state.set(w.output, v);
        }
    }

    /// Computes the next value of every latch from the *current* `state`
    /// (call after [`Module::eval_wires`]).
    pub fn next_latch_values(&self, state: &Valuation) -> Vec<bool> {
        self.latches.iter().map(|l| l.next.eval(state)).collect()
    }

    /// The reset valuation of the latches, applied to `state`.
    pub fn apply_reset(&self, state: &mut Valuation) {
        for l in &self.latches {
            state.set(l.output, l.init);
        }
    }

    /// Structurally composes `modules` into one module named `name`.
    ///
    /// Signals connect by identity: a wire driving `g1` in one module feeds
    /// every reader of `g1` in the others. The composite inputs are the
    /// signals read but driven by no member; the outputs are the union of
    /// member outputs.
    ///
    /// # Errors
    ///
    /// Fails with [`NetlistError::DoubleDrive`] if two members drive the
    /// same signal and [`NetlistError::CombinationalLoop`] if gluing the
    /// members creates a cycle through wires.
    pub fn compose(
        name: &str,
        modules: &[&Module],
        table: &SignalTable,
    ) -> Result<Module, NetlistError> {
        let mut wires = Vec::new();
        let mut latches = Vec::new();
        let mut outputs = Vec::new();
        let mut seen_outputs = HashSet::new();
        for m in modules {
            wires.extend(m.wires.iter().cloned());
            latches.extend(m.latches.iter().cloned());
            for &o in &m.outputs {
                if seen_outputs.insert(o) {
                    outputs.push(o);
                }
            }
        }
        // Inputs: read anywhere, driven nowhere.
        let mut driven = HashSet::new();
        for w in &wires {
            if !driven.insert(w.output) {
                return Err(NetlistError::DoubleDrive {
                    signal: w.output,
                    name: table.name(w.output).to_owned(),
                });
            }
        }
        for l in &latches {
            if !driven.insert(l.output) {
                return Err(NetlistError::DoubleDrive {
                    signal: l.output,
                    name: table.name(l.output).to_owned(),
                });
            }
        }
        let mut inputs = Vec::new();
        let mut seen_inputs = HashSet::new();
        for m in modules {
            for w in &m.wires {
                for s in w.func.support() {
                    if !driven.contains(&s) && seen_inputs.insert(s) {
                        inputs.push(s);
                    }
                }
            }
            for l in &m.latches {
                for s in l.next.support() {
                    if !driven.contains(&s) && seen_inputs.insert(s) {
                        inputs.push(s);
                    }
                }
            }
        }
        let topo = topo_sort(&wires, table)?;
        Ok(Module {
            name: name.to_owned(),
            inputs,
            outputs,
            wires,
            latches,
            topo,
        })
    }

    /// Restricts the module to the *cone of influence* of `targets`: only
    /// the wires and latches whose outputs can affect a target signal
    /// (transitively, through combinational logic and state) are kept.
    ///
    /// This is the standard model-checking reduction applied before state
    /// enumeration: latches outside the cone contribute exponential state
    /// without affecting the property. Targets that the module does not
    /// drive are simply absent from the result (they stay free inputs of
    /// the surrounding analysis).
    pub fn cone_of_influence(&self, targets: &[SignalId], table: &SignalTable) -> Module {
        use std::collections::VecDeque;
        // Map each driven signal to its defining element's support.
        let mut support_of: HashMap<SignalId, Vec<SignalId>> = HashMap::new();
        for w in &self.wires {
            support_of.insert(w.output, w.func.support().into_iter().collect());
        }
        for l in &self.latches {
            support_of.insert(l.output, l.next.support().into_iter().collect());
        }
        let mut keep: HashSet<SignalId> = HashSet::new();
        let mut queue: VecDeque<SignalId> = targets.iter().copied().collect();
        while let Some(s) = queue.pop_front() {
            if !keep.insert(s) {
                continue;
            }
            if let Some(deps) = support_of.get(&s) {
                queue.extend(deps.iter().copied());
            }
        }
        let wires: Vec<Wire> = self
            .wires
            .iter()
            .filter(|w| keep.contains(&w.output))
            .cloned()
            .collect();
        let latches: Vec<Latch> = self
            .latches
            .iter()
            .filter(|l| keep.contains(&l.output))
            .cloned()
            .collect();
        let driven: HashSet<SignalId> = wires
            .iter()
            .map(Wire::output)
            .chain(latches.iter().map(Latch::output))
            .collect();
        let mut inputs: Vec<SignalId> = Vec::new();
        for s in wires
            .iter()
            .flat_map(|w| w.func.support())
            .chain(latches.iter().flat_map(|l| l.next.support()))
        {
            if !driven.contains(&s) && !inputs.contains(&s) {
                inputs.push(s);
            }
        }
        let outputs: Vec<SignalId> = self
            .outputs
            .iter()
            .copied()
            .filter(|o| driven.contains(o) || inputs.contains(o))
            .collect();
        let topo =
            topo_sort(&wires, table).expect("a sub-netlist of an acyclic netlist is acyclic");
        Module {
            name: format!("{}_coi", self.name),
            inputs,
            outputs,
            wires,
            latches,
            topo,
        }
    }

    /// Renders the module in SNL text format (see [`crate::snl`]).
    pub fn to_snl(&self, table: &SignalTable) -> String {
        let mut out = format!("module {}\n", self.name);
        if !self.inputs.is_empty() {
            out.push_str("  input");
            for &i in &self.inputs {
                out.push(' ');
                out.push_str(table.name(i));
            }
            out.push('\n');
        }
        if !self.outputs.is_empty() {
            out.push_str("  output");
            for &o in &self.outputs {
                out.push(' ');
                out.push_str(table.name(o));
            }
            out.push('\n');
        }
        for w in &self.wires {
            out.push_str(&format!(
                "  assign {} = {}\n",
                table.name(w.output),
                w.func.display(table)
            ));
        }
        for l in &self.latches {
            out.push_str(&format!(
                "  latch {} = {} init {}\n",
                table.name(l.output),
                l.next.display(table),
                u8::from(l.init)
            ));
        }
        out.push_str("endmodule\n");
        out
    }
}

/// Kahn-style topological sort of wires; errors on combinational loops.
fn topo_sort(wires: &[Wire], table: &SignalTable) -> Result<Vec<usize>, NetlistError> {
    let by_output: HashMap<SignalId, usize> = wires
        .iter()
        .enumerate()
        .map(|(i, w)| (w.output, i))
        .collect();
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    let mut marks = vec![Mark::White; wires.len()];
    let mut order = Vec::with_capacity(wires.len());

    fn visit(
        i: usize,
        wires: &[Wire],
        by_output: &HashMap<SignalId, usize>,
        marks: &mut [Mark],
        order: &mut Vec<usize>,
        table: &SignalTable,
        trail: &mut Vec<SignalId>,
    ) -> Result<(), NetlistError> {
        match marks[i] {
            Mark::Black => return Ok(()),
            Mark::Grey => {
                let mut cycle: Vec<String> =
                    trail.iter().map(|&s| table.name(s).to_owned()).collect();
                cycle.push(table.name(wires[i].output).to_owned());
                return Err(NetlistError::CombinationalLoop { cycle });
            }
            Mark::White => {}
        }
        marks[i] = Mark::Grey;
        trail.push(wires[i].output);
        for dep in wires[i].func.support() {
            if let Some(&j) = by_output.get(&dep) {
                visit(j, wires, by_output, marks, order, table, trail)?;
            }
        }
        trail.pop();
        marks[i] = Mark::Black;
        order.push(i);
        Ok(())
    }

    let mut trail = Vec::new();
    for i in 0..wires.len() {
        visit(
            i, wires, &by_output, &mut marks, &mut order, table, &mut trail,
        )?;
    }
    Ok(order)
}

/// Incremental builder for [`Module`]; see the crate-level example.
#[derive(Debug)]
pub struct ModuleBuilder<'t> {
    name: String,
    table: &'t mut SignalTable,
    inputs: Vec<SignalId>,
    outputs: Vec<SignalId>,
    wires: Vec<Wire>,
    latches: Vec<Latch>,
}

impl<'t> ModuleBuilder<'t> {
    /// Starts a new module named `name` over the shared signal table.
    pub fn new(name: &str, table: &'t mut SignalTable) -> Self {
        ModuleBuilder {
            name: name.to_owned(),
            table,
            inputs: Vec::new(),
            outputs: Vec::new(),
            wires: Vec::new(),
            latches: Vec::new(),
        }
    }

    /// Access to the shared signal table.
    pub fn table(&mut self) -> &mut SignalTable {
        self.table
    }

    /// Declares (or reuses) an input signal.
    pub fn input(&mut self, name: &str) -> SignalId {
        let id = self.table.intern(name);
        if !self.inputs.contains(&id) {
            self.inputs.push(id);
        }
        id
    }

    /// Adds a combinational wire `name = func`.
    pub fn wire(&mut self, name: &str, func: BoolExpr) -> SignalId {
        let output = self.table.intern(name);
        self.wires.push(Wire { output, func });
        output
    }

    /// AND gate with optional inverted inputs: `name = ⋀pos ∧ ⋀¬neg`.
    pub fn and_gate<P, N>(&mut self, name: &str, pos: P, neg: N) -> SignalId
    where
        P: IntoIterator<Item = SignalId>,
        N: IntoIterator<Item = SignalId>,
    {
        let func = BoolExpr::and(
            pos.into_iter()
                .map(BoolExpr::var)
                .chain(neg.into_iter().map(|s| BoolExpr::var(s).not())),
        );
        self.wire(name, func)
    }

    /// OR gate with optional inverted inputs.
    pub fn or_gate<P, N>(&mut self, name: &str, pos: P, neg: N) -> SignalId
    where
        P: IntoIterator<Item = SignalId>,
        N: IntoIterator<Item = SignalId>,
    {
        let func = BoolExpr::or(
            pos.into_iter()
                .map(BoolExpr::var)
                .chain(neg.into_iter().map(|s| BoolExpr::var(s).not())),
        );
        self.wire(name, func)
    }

    /// Inverter.
    pub fn not_gate(&mut self, name: &str, a: SignalId) -> SignalId {
        self.wire(name, BoolExpr::var(a).not())
    }

    /// Buffer (an alias wire).
    pub fn buf_gate(&mut self, name: &str, a: SignalId) -> SignalId {
        self.wire(name, BoolExpr::var(a))
    }

    /// Adds a latch with an arbitrary next-state function.
    pub fn latch(&mut self, name: &str, next: BoolExpr, init: bool) -> SignalId {
        let output = self.table.intern(name);
        self.latches.push(Latch { output, next, init });
        output
    }

    /// Adds a latch clocked from a single signal (`q' = d`).
    pub fn latch_from(&mut self, name: &str, d: SignalId, init: bool) -> SignalId {
        self.latch(name, BoolExpr::var(d), init)
    }

    /// Marks a signal as a module output.
    pub fn mark_output(&mut self, signal: SignalId) {
        if !self.outputs.contains(&signal) {
            self.outputs.push(signal);
        }
    }

    /// Validates and produces the [`Module`].
    ///
    /// # Errors
    ///
    /// * [`NetlistError::DoubleDrive`] — a signal driven twice, or a driven
    ///   signal also declared as input,
    /// * [`NetlistError::Parse`] — a wire or latch references a signal that
    ///   is neither driven nor declared as an input,
    /// * [`NetlistError::CombinationalLoop`] — the wires form a cycle,
    /// * [`NetlistError::UndrivenOutput`] — an output with no driver.
    pub fn finish(self) -> Result<Module, NetlistError> {
        let ModuleBuilder {
            name,
            table,
            inputs,
            outputs,
            wires,
            latches,
        } = self;
        let mut driven: HashSet<SignalId> = HashSet::new();
        for w in &wires {
            if !driven.insert(w.output) || inputs.contains(&w.output) {
                return Err(NetlistError::DoubleDrive {
                    signal: w.output,
                    name: table.name(w.output).to_owned(),
                });
            }
        }
        for l in &latches {
            if !driven.insert(l.output) || inputs.contains(&l.output) {
                return Err(NetlistError::DoubleDrive {
                    signal: l.output,
                    name: table.name(l.output).to_owned(),
                });
            }
        }
        // Every referenced signal must be declared or driven.
        for (what, support) in wires
            .iter()
            .map(|w| (w.output, w.func.support()))
            .chain(latches.iter().map(|l| (l.output, l.next.support())))
        {
            for s in support {
                if !driven.contains(&s) && !inputs.contains(&s) {
                    return Err(NetlistError::Parse {
                        line: 0,
                        message: format!(
                            "{} references undeclared signal {}",
                            table.name(what),
                            table.name(s)
                        ),
                    });
                }
            }
        }
        for &o in &outputs {
            if !driven.contains(&o) && !inputs.contains(&o) {
                return Err(NetlistError::UndrivenOutput {
                    name: table.name(o).to_owned(),
                });
            }
        }
        let topo = topo_sort(&wires, table)?;
        Ok(Module {
            name,
            inputs,
            outputs,
            wires,
            latches,
            topo,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_valid_module() {
        let mut t = SignalTable::new();
        let mut b = ModuleBuilder::new("m", &mut t);
        let a = b.input("a");
        let bsig = b.input("b");
        let x = b.and_gate("x", [a, bsig], []);
        let q = b.latch_from("q", x, false);
        b.mark_output(q);
        let m = b.finish().expect("valid");
        assert_eq!(m.name(), "m");
        assert_eq!(m.inputs().len(), 2);
        assert_eq!(m.wires().len(), 1);
        assert_eq!(m.latches().len(), 1);
        assert_eq!(m.state_signals(), vec![q]);
    }

    #[test]
    fn double_drive_rejected() {
        let mut t = SignalTable::new();
        let mut b = ModuleBuilder::new("m", &mut t);
        let a = b.input("a");
        b.buf_gate("x", a);
        b.buf_gate("x", a);
        assert!(matches!(b.finish(), Err(NetlistError::DoubleDrive { .. })));
    }

    #[test]
    fn input_cannot_be_driven() {
        let mut t = SignalTable::new();
        let mut b = ModuleBuilder::new("m", &mut t);
        let a = b.input("a");
        b.buf_gate("a", a);
        assert!(matches!(b.finish(), Err(NetlistError::DoubleDrive { .. })));
    }

    #[test]
    fn undeclared_reference_rejected() {
        let mut t = SignalTable::new();
        let ghost = t.intern("ghost");
        let mut b = ModuleBuilder::new("m", &mut t);
        b.wire("x", BoolExpr::var(ghost));
        assert!(b.finish().is_err());
    }

    #[test]
    fn comb_loop_detected() {
        let mut t = SignalTable::new();
        let x = t.intern("x");
        let y = t.intern("y");
        let mut b = ModuleBuilder::new("m", &mut t);
        b.wire("x", BoolExpr::var(y));
        b.wire("y", BoolExpr::var(x));
        match b.finish() {
            Err(NetlistError::CombinationalLoop { cycle }) => {
                assert!(cycle.len() >= 2);
            }
            other => panic!("expected loop, got {other:?}"),
        }
    }

    #[test]
    fn latch_breaks_loops() {
        // x = q; q' = x is fine (the loop goes through the latch).
        let mut t = SignalTable::new();
        let mut b = ModuleBuilder::new("m", &mut t);
        let q = b.table().intern("q");
        let x = b.wire("x", BoolExpr::var(q));
        b.latch("q", BoolExpr::var(x), false);
        assert!(b.finish().is_ok());
    }

    #[test]
    fn wires_evaluate_in_dependency_order() {
        let mut t = SignalTable::new();
        let mut b = ModuleBuilder::new("m", &mut t);
        let a = b.input("a");
        // Declare z first, depending on y, which depends on a.
        let y = b.table().intern("y");
        b.wire("z", BoolExpr::var(y));
        b.wire("y", BoolExpr::var(a).not());
        let m = b.finish().expect("valid");
        let mut v = Valuation::all_false(t.len());
        v.set(a, false);
        m.eval_wires(&mut v);
        assert!(v.get(t.lookup("z").unwrap()));
    }

    #[test]
    fn compose_connects_by_name() {
        let mut t = SignalTable::new();
        // producer: y = !a ; consumer: z = y & b
        let mut b1 = ModuleBuilder::new("producer", &mut t);
        let a = b1.input("a");
        let y = b1.not_gate("y", a);
        b1.mark_output(y);
        let producer = b1.finish().expect("valid");

        let mut b2 = ModuleBuilder::new("consumer", &mut t);
        let y2 = b2.input("y");
        let bb = b2.input("b");
        let z = b2.and_gate("z", [y2, bb], []);
        b2.mark_output(z);
        let consumer = b2.finish().expect("valid");

        let m = Module::compose("top", &[&producer, &consumer], &t).expect("compose");
        // Composite inputs are a and b only; y is now internal.
        assert_eq!(m.inputs().len(), 2);
        assert!(m.inputs().contains(&a));
        let mut v = Valuation::all_false(t.len());
        v.set(a, false);
        v.set(bb, true);
        m.eval_wires(&mut v);
        assert!(v.get(z));
    }

    #[test]
    fn compose_detects_cross_module_loop() {
        let mut t = SignalTable::new();
        let p = t.intern("p");
        let q = t.intern("q");
        let mut b1 = ModuleBuilder::new("m1", &mut t);
        b1.input("q");
        b1.wire("p", BoolExpr::var(q));
        let m1 = b1.finish().expect("valid");
        let mut b2 = ModuleBuilder::new("m2", &mut t);
        b2.input("p");
        b2.wire("q", BoolExpr::var(p));
        let m2 = b2.finish().expect("valid");
        assert!(matches!(
            Module::compose("top", &[&m1, &m2], &t),
            Err(NetlistError::CombinationalLoop { .. })
        ));
    }

    #[test]
    fn compose_rejects_shared_driver() {
        let mut t = SignalTable::new();
        let mut b1 = ModuleBuilder::new("m1", &mut t);
        let a = b1.input("a");
        b1.buf_gate("x", a);
        let m1 = b1.finish().expect("valid");
        let mut b2 = ModuleBuilder::new("m2", &mut t);
        let a2 = b2.input("a");
        b2.not_gate("x", a2);
        let m2 = b2.finish().expect("valid");
        assert!(matches!(
            Module::compose("top", &[&m1, &m2], &t),
            Err(NetlistError::DoubleDrive { .. })
        ));
    }

    #[test]
    fn cone_of_influence_drops_unrelated_state() {
        let mut t = SignalTable::new();
        let mut b = ModuleBuilder::new("m", &mut t);
        let a = b.input("a");
        let bb = b.input("b");
        // Two independent chains: q1 <- a (target), q2 <- b (unrelated).
        let q1 = b.latch_from("q1", a, false);
        b.latch_from("q2", bb, false);
        let y = b.not_gate("y", q1);
        b.mark_output(y);
        let m = b.finish().expect("valid");
        let cone = m.cone_of_influence(&[y], &t);
        assert_eq!(cone.latches().len(), 1, "q2 is outside the cone");
        assert_eq!(cone.wires().len(), 1);
        assert_eq!(cone.inputs(), &[a]);
        // Latch chains are followed through state.
        let all = m.cone_of_influence(&[y, t.lookup("q2").unwrap()], &t);
        assert_eq!(all.latches().len(), 2);
    }

    #[test]
    fn cone_of_influence_keeps_cyclic_state_dependencies() {
        // q feeds itself through a wire: the cone of q contains both.
        let mut t = SignalTable::new();
        let mut b = ModuleBuilder::new("m", &mut t);
        let q = b.table().intern("q");
        let x = b.not_gate("x", q);
        b.latch("q", BoolExpr::var(x), false);
        let m = b.finish().expect("valid");
        let cone = m.cone_of_influence(&[q], &t);
        assert_eq!(cone.latches().len(), 1);
        assert_eq!(cone.wires().len(), 1);
        assert!(cone.inputs().is_empty());
    }

    #[test]
    fn to_snl_mentions_everything() {
        let mut t = SignalTable::new();
        let mut b = ModuleBuilder::new("m", &mut t);
        let a = b.input("a");
        let x = b.not_gate("x", a);
        let q = b.latch_from("q", x, true);
        b.mark_output(q);
        let m = b.finish().expect("valid");
        let snl = m.to_snl(&t);
        assert!(snl.contains("module m"));
        assert!(snl.contains("assign x = !a"));
        assert!(snl.contains("latch q = x init 1"));
        assert!(snl.contains("endmodule"));
    }
}
