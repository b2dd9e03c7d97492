//! Bounded refutation: SAT-encoded lasso search over the netlist × GBA
//! product.
//!
//! [`bounded_lasso`] asks: *is there an ultimately periodic run of the
//! model, with prefix + period fitting inside `depth` cycles, satisfying
//! every formula of the conjunction?* A `Some` answer is a genuine run —
//! extracted from the SAT model, re-settled through the netlist evaluator
//! and re-verified against every formula with the word-level semantics —
//! so the caller may treat it exactly like a counterexample from the
//! unbounded engines. A `None` answer proves nothing (the run may simply
//! need more cycles), which is why the coverage pipeline uses this as a
//! *refutation-only* tier in front of the fixpoint engines.
//!
//! [`BmcSession`] asks the same question for many candidates against one
//! shared base conjunction (Algorithm 1's `R ∧ ¬FA`): the unrolling, the
//! base automata and the loop structure are encoded and solved once, and
//! each candidate only adds its own automaton, guarded by a fresh
//! activation literal (incremental BMC in the style of Eén & Sörensson,
//! *Temporal induction by incremental SAT solving*, 2003).
//! [`bounded_lasso`] is a session with the whole conjunction as its base
//! and one empty-candidate query.
//!
//! # Encoding
//!
//! Positions `0 ..= k` (`k = depth`), with position `k` identified with
//! some earlier position `j` by a one-hot loop selector:
//!
//! * **netlist**: one variable per latch/input/wire per position; latches
//!   pinned to their reset value at position 0 and tied to their
//!   next-state function across steps; wires Tseitin-defined from their
//!   gate functions per position; signals the model does not constrain
//!   are pinned false, matching the explicit engine's label convention;
//! * **automata**: per conjunct, the same GPVW automaton both engines use
//!   (via [`dic_automata::translate_cached`]), encoded one-hot per
//!   position: the chosen state's literal obligations hold on the
//!   position's valuation, and consecutive states follow the transition
//!   relation;
//! * **loop**: selector `l_j` forces latch/input/automaton-state equality
//!   between positions `k` and `j`, making `j .. k-1` the period;
//! * **acceptance**: for every acceptance set of every automaton, some
//!   in-loop position visits it (generalized Büchi acceptance localized
//!   to the period).
//!
//! # Sessions
//!
//! The base (netlist, base automata, loop selectors, and the constant-true
//! literal every later gate may reduce to) goes into the solver unguarded.
//! A candidate's clauses each carry `¬act` for a fresh variable `act`; the
//! query solves under the assumption `act` and then retires it with the
//! unit clause `¬act`, which satisfies every clause of that candidate for
//! good. Learned clauses are consequences of the clause database, which
//! only ever grows, so they stay sound in later queries; a learned clause
//! that depended on a candidate contains its `¬act` and is satisfied once
//! that candidate is retired.
//!
//! Retiring also marks the candidate's variables (`act` and everything
//! allocated after it) as non-decision, so later queries never branch on
//! them. That is sound because every clause mentioning one of them
//! carries `¬act`: the candidate's own clauses by construction — [`Cnf`]
//! shares no gate across batches except the base's constant, so a
//! candidate's gates are defined inside its own batch — and every learned
//! clause that resolved on one of them, because `act` is an assumption
//! (a decision without a reason) that analysis and minimization never
//! resolve away. Once `¬act` is a unit, all those clauses are satisfied
//! whatever the retired variables hold; the model fills them from their
//! saved phase, and [`BmcSession::query`] reads only base variables.

use crate::cnf::{Cnf, SatLit, Var};
use crate::solver::{SatResult, Solver};
use dic_automata::{translate_all, Gba};
use dic_logic::hashing::FastMap;
use dic_logic::{BoolExpr, SignalId, SignalTable, Valuation};
use dic_ltl::{LassoWord, Ltl};
use dic_netlist::Module;
use std::sync::Arc;

/// Unroll depth of the bounded tier.
pub const DEFAULT_BMC_DEPTH: usize = 16;

/// Conflict budget per bounded query: exhausting it abandons the query
/// (falling through to the unbounded engines) instead of stalling on a
/// hard instance. Part of the query, hence deterministic.
pub const BMC_CONFLICT_BUDGET: u64 = 50_000;

/// Variable cap for the bounded tier: a query whose encoding (base plus
/// candidate) would be wider than this is skipped outright (`None`) — the
/// CNF build itself would dominate the fixpoint it is supposed to
/// short-circuit.
pub const BMC_VAR_LIMIT: usize = 400_000;

/// Searches for a lasso run of `module` (with `free` spec signals as
/// additional nondeterministic inputs) satisfying every formula in
/// `formulas`, with prefix + period within `depth` cycles.
///
/// Returns a replayable [`LassoWord`] on success; `None` means *no verdict*
/// (bounded-unsatisfiable, over budget, or too large to encode), never
/// "unsatisfiable". A one-query [`BmcSession`] over the whole conjunction.
///
/// # Panics
///
/// Panics if `depth == 0` (callers validate the configured depth).
pub fn bounded_lasso(
    module: &Module,
    table: &SignalTable,
    free: &[SignalId],
    formulas: &[Ltl],
    depth: usize,
) -> Option<LassoWord> {
    BmcSession::new(module, table, free, formulas, depth).query(&[])
}

/// An incremental bounded-refutation session: many [`BmcSession::query`]
/// calls against one shared base conjunction, each answering what
/// [`bounded_lasso`] would answer for `base ∧ candidate`.
///
/// The base encoding is built by the first query that gets past the
/// cheap pre-checks and then reused; what the solver learns in one query
/// carries into the next. Answers are sound regardless of query history,
/// but a `Some` witness is one of possibly many runs and may differ from
/// the one a fresh session would return.
///
/// A query that panics (an injected fault, say) can leave the session
/// half-extended: discard it rather than query it again.
pub struct BmcSession<'a> {
    table: &'a SignalTable,
    base: Vec<Ltl>,
    /// The base automata; `None` when some base conjunct has no initial
    /// state, so no query has a run.
    base_gbas: Option<Vec<Arc<Gba>>>,
    enc: Encoder<'a>,
    /// The solver over the base encoding, built on first use.
    solver: Option<Solver>,
}

impl<'a> BmcSession<'a> {
    /// A session for runs of `module` (with `free` spec signals as extra
    /// nondeterministic inputs) within `depth` cycles satisfying every
    /// formula of `base`. Nothing is encoded until the first query.
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0` (callers validate the configured depth).
    pub fn new(
        module: &'a Module,
        table: &'a SignalTable,
        free: &[SignalId],
        base: &[Ltl],
        depth: usize,
    ) -> Self {
        assert!(depth > 0, "BMC depth must be positive");
        BmcSession {
            table,
            base: base.to_vec(),
            base_gbas: translate_all(base),
            enc: Encoder::new(module, free, depth),
            solver: None,
        }
    }

    /// The base conjunction every query extends.
    pub fn base(&self) -> &[Ltl] {
        &self.base
    }

    /// Searches for a run satisfying the base and every formula of
    /// `candidate`, with the contract of [`bounded_lasso`]: `Some` is a
    /// re-verified run, `None` is no verdict. The candidate is retired
    /// before this returns, whatever the answer.
    pub fn query(&mut self, candidate: &[Ltl]) -> Option<LassoWord> {
        let (Some(cand_gbas), Some(base_gbas)) = (translate_all(candidate), &self.base_gbas) else {
            // Some conjunct is unsatisfiable on its own: no run exists at
            // any depth. Still "no verdict" here — the unbounded engines
            // answer the query with the same `None` for free.
            return None;
        };
        // `bmc.encode` injection site, crossed once per query: the tier
        // is refutation-only, so any non-panic kind degrades to `None`
        // ("no verdict"), which is sound by construction.
        match dic_fault::hit(dic_fault::Site::BmcEncode) {
            Some(dic_fault::FaultKind::Panic) => dic_fault::injected_panic(),
            Some(_) => return None,
            None => {}
        }
        // A tripped deadline skips the bounded tier outright — the closure
        // engines behind it carry their own checkpoints and report the
        // trip.
        if dic_fault::deadline_expired() {
            return None;
        }
        let mut span = dic_trace::span("bmc.encode");
        let states: usize = base_gbas
            .iter()
            .chain(&cand_gbas)
            .map(|g| g.num_states())
            .sum();
        if self.enc.predicted_vars(states) > BMC_VAR_LIMIT {
            return None;
        }
        // What this query encodes: the base on first use, then the
        // candidate (trace metadata).
        let vars_before = self.enc.cnf.num_vars();
        let mut clauses = 0;
        if self.solver.is_none() {
            self.enc.encode_model();
            for g in base_gbas {
                self.enc.encode_automaton(g);
            }
            self.enc.encode_loop();
            // Candidates may reduce gates to constants; the literal they
            // reduce to must live in the unguarded base, or retiring the
            // first candidate to create it would set it free.
            self.enc.cnf.lit_true();
            let base = self.enc.cnf.take_clauses();
            clauses += base.len();
            self.solver = Some(Solver::from_clauses(self.enc.cnf.num_vars() as u32, base));
        }
        let solver = self.solver.as_mut().expect("just built");
        // An empty candidate needs no guard: the query is the base alone.
        let act = (!cand_gbas.is_empty()).then(|| {
            let act = SatLit::pos(self.enc.cnf.new_var());
            for g in &cand_gbas {
                self.enc.encode_automaton(g);
            }
            while solver.num_vars() < self.enc.cnf.num_vars() {
                solver.new_var();
            }
            let guarded = self.enc.cnf.take_clauses();
            clauses += guarded.len();
            for c in guarded {
                solver.add_clause(c.into_iter().chain([act.negated()]));
            }
            act
        });
        if dic_trace::enabled() {
            span.meta("vars", (self.enc.cnf.num_vars() - vars_before) as u64);
            span.meta("clauses", clauses as u64);
            span.meta("depth", self.enc.depth as u64);
        }
        drop(span);

        let _solve_span = dic_trace::span("bmc.solve");
        let result = solver.solve_assuming(act.as_slice(), Some(BMC_CONFLICT_BUDGET));
        if let Some(act) = act {
            // Retire the candidate: `¬act` satisfies each of its clauses,
            // so its variables (act's and every later one) need never be
            // decided again.
            solver.add_clause([act.negated()]);
            for v in act.var().index()..solver.num_vars() {
                solver.set_non_decision(Var(v as u32));
            }
        }
        let SatResult::Sat(model) = result else {
            return None;
        };
        let word = self.enc.extract(&model, self.table)?;
        // Belt and braces: the word is only trusted if every formula holds
        // on it under the word-level semantics — an encoding discrepancy
        // then degrades to a missed short-circuit, never an unsound
        // verdict.
        if self.base.iter().chain(candidate).all(|f| f.holds_on(&word)) {
            Some(word)
        } else {
            debug_assert!(false, "BMC witness failed word-level re-verification");
            None
        }
    }
}

/// The unrolling encoder: variables and clauses for one session.
struct Encoder<'a> {
    module: &'a Module,
    depth: usize,
    cnf: Cnf,
    /// `latch_vars[t][i]`: latch `i` (in `state_signals` order) at `t`.
    latch_vars: Vec<Vec<SatLit>>,
    /// `input_vars[t][i]`: nondet input `i` at `t`.
    input_vars: Vec<Vec<SatLit>>,
    /// Wire definitions per position, filled during model encoding.
    wire_vars: Vec<FastMap<SignalId, SatLit>>,
    /// Signal → latch/input index maps.
    latch_index: FastMap<SignalId, usize>,
    input_index: FastMap<SignalId, usize>,
    /// One-hot loop selectors `l_0 .. l_{depth-1}`.
    selectors: Vec<SatLit>,
    /// Prefix-or of the selectors: `inloop[t] ⇔ ⋁_{j ≤ t} l_j`.
    inloop: Vec<SatLit>,
    nondet: Vec<SignalId>,
}

impl<'a> Encoder<'a> {
    fn new(module: &'a Module, free: &[SignalId], depth: usize) -> Self {
        let state_signals = module.state_signals();
        let nondet = module.nondet_inputs(free);
        let latch_index = state_signals
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, i))
            .collect();
        let input_index = nondet.iter().enumerate().map(|(i, &s)| (s, i)).collect();
        Encoder {
            module,
            depth,
            cnf: Cnf::new(),
            latch_vars: Vec::new(),
            input_vars: Vec::new(),
            wire_vars: vec![FastMap::default(); depth + 1],
            latch_index,
            input_index,
            selectors: Vec::new(),
            inloop: Vec::new(),
            nondet,
        }
    }

    /// Rough size estimate of the whole encoding with `automaton_states`
    /// automaton states in total, to bail out before building an encoding
    /// the solver could never repay.
    fn predicted_vars(&self, automaton_states: usize) -> usize {
        let per_step = self.latch_index.len()
            + self.input_index.len()
            + self.module.wires().len() * 2
            + automaton_states;
        (self.depth + 1) * per_step
    }

    /// The run a SAT model encodes: latch and input bits from the model,
    /// wires re-settled through the netlist evaluator (exactly the
    /// explicit engine's label convention — unconstrained signals stay
    /// false).
    fn extract(&self, model: &[bool], table: &SignalTable) -> Option<LassoWord> {
        let state_signals = self.module.state_signals();
        let lit_val = |l: SatLit| model[l.var().index()] == l.is_pos();
        let mut states = Vec::with_capacity(self.depth);
        for t in 0..self.depth {
            let mut v = Valuation::all_false(table.len());
            for (i, &s) in state_signals.iter().enumerate() {
                v.set(s, lit_val(self.latch_vars[t][i]));
            }
            for (i, &s) in self.nondet.iter().enumerate() {
                v.set(s, lit_val(self.input_vars[t][i]));
            }
            self.module.eval_wires(&mut v);
            states.push(v);
        }
        let loop_start = self.selectors.iter().position(|&l| lit_val(l))?;
        LassoWord::new(states, loop_start)
    }

    /// The literal carrying `signal` at position `t`. Latches and inputs
    /// have dedicated variables; wires resolve to their Tseitin
    /// definition; anything else is pinned false (the explicit engine's
    /// label convention for signals the model does not constrain).
    fn signal_lit(&mut self, s: SignalId, t: usize) -> SatLit {
        if let Some(&i) = self.latch_index.get(&s) {
            return self.latch_vars[t][i];
        }
        if let Some(&i) = self.input_index.get(&s) {
            return self.input_vars[t][i];
        }
        if let Some(&l) = self.wire_vars[t].get(&s) {
            return l;
        }
        self.cnf.lit_false()
    }

    /// Tseitin of a gate function over position `t`'s signals.
    fn expr_lit(&mut self, e: &BoolExpr, t: usize) -> SatLit {
        match e {
            BoolExpr::Const(true) => self.cnf.lit_true(),
            BoolExpr::Const(false) => self.cnf.lit_false(),
            BoolExpr::Var(s) => self.signal_lit(*s, t),
            BoolExpr::Not(inner) => self.expr_lit(inner, t).negated(),
            BoolExpr::And(parts) => {
                let lits: Vec<SatLit> = parts.iter().map(|p| self.expr_lit(p, t)).collect();
                self.cnf.lit_and(&lits)
            }
            BoolExpr::Or(parts) => {
                let lits: Vec<SatLit> = parts.iter().map(|p| self.expr_lit(p, t)).collect();
                self.cnf.lit_or(&lits)
            }
            BoolExpr::Xor(a, b) => {
                let la = self.expr_lit(a, t);
                let lb = self.expr_lit(b, t);
                self.cnf.lit_xor(la, lb)
            }
        }
    }

    /// Unrolls the netlist: variables per position, reset at 0, wires as
    /// definitions, latches tied across steps.
    fn encode_model(&mut self) {
        let latches = self.module.latches().to_vec();
        let n_inputs = self.nondet.len();
        for _t in 0..=self.depth {
            let lv: Vec<SatLit> = latches
                .iter()
                .map(|_| SatLit::pos(self.cnf.new_var()))
                .collect();
            let iv: Vec<SatLit> = (0..n_inputs)
                .map(|_| SatLit::pos(self.cnf.new_var()))
                .collect();
            self.latch_vars.push(lv);
            self.input_vars.push(iv);
        }
        // Reset values at position 0. `state_signals` is the latch-output
        // list in latch order, so index i matches latches[i].
        for (i, l) in latches.iter().enumerate() {
            let lit = self.latch_vars[0][i];
            self.cnf
                .add_clause([if l.init() { lit } else { lit.negated() }]);
        }
        // Wires, in topological order, per position.
        let order = self.module.wire_order().to_vec();
        for t in 0..=self.depth {
            for &wi in &order {
                let wire = &self.module.wires()[wi];
                let (out, func) = (wire.output(), wire.func().clone());
                let def = self.expr_lit(&func, t);
                self.wire_vars[t].insert(out, def);
            }
        }
        // Transition: latch at t+1 equals its next function over t.
        for t in 0..self.depth {
            for (i, l) in latches.iter().enumerate() {
                let next = self.expr_lit(&l.next().clone(), t);
                let target = self.latch_vars[t + 1][i];
                self.cnf.equate(target, next);
            }
        }
    }

    /// Encodes one conjunct automaton: one-hot states per position,
    /// initial-state restriction, literal obligations, transition
    /// relation, and loop-localized generalized acceptance.
    fn encode_automaton(&mut self, gba: &dic_automata::Gba) {
        let n = gba.num_states();
        let k = self.depth;
        // One-hot state variables per position.
        let mut at: Vec<Vec<SatLit>> = Vec::with_capacity(k + 1);
        for _t in 0..=k {
            let row: Vec<SatLit> = (0..n).map(|_| SatLit::pos(self.cnf.new_var())).collect();
            self.cnf.exactly_one(&row);
            at.push(row);
        }
        // Initial states only at position 0.
        for (q, &here) in at[0].iter().enumerate() {
            if !gba.is_initial(q as u32) {
                self.cnf.add_clause([here.negated()]);
            }
        }
        // Literal obligations: being in q at t forces q's literals on the
        // position's valuation.
        for (t, row) in at.iter().enumerate() {
            for (q, &here) in row.iter().enumerate() {
                for &lit in gba.state(q as u32).literals() {
                    let sig = self.signal_lit(lit.signal(), t);
                    let obligation = if lit.polarity() { sig } else { sig.negated() };
                    self.cnf.add_clause([here.negated(), obligation]);
                }
            }
        }
        // Transitions: q at t allows only its successors at t+1.
        for t in 0..k {
            for q in 0..n {
                let mut clause: Vec<SatLit> = vec![at[t][q].negated()];
                clause.extend(
                    gba.successors(q as u32)
                        .iter()
                        .map(|&q2| at[t + 1][q2 as usize]),
                );
                self.cnf.add_clause(clause);
            }
        }
        // Loop closure for this automaton: selector j ties position k to
        // position j (selectors exist by the time this runs — see
        // `encode_loop`'s ordering note).
        self.ensure_selectors();
        for (j, &sel) in self.selectors.clone().iter().enumerate() {
            for (&at_end, &at_loop) in at[k].iter().zip(&at[j]) {
                self.cnf.equate_if(sel, at_end, at_loop);
            }
        }
        // Acceptance: every set visited at some in-loop position.
        for m in 0..gba.num_acceptance_sets() {
            let mut witnesses: Vec<SatLit> = Vec::new();
            for (t, row) in at.iter().enumerate().take(k) {
                let members: Vec<SatLit> = row
                    .iter()
                    .enumerate()
                    .filter(|&(q, _)| gba.state(q as u32).in_acceptance_set(m))
                    .map(|(_, &l)| l)
                    .collect();
                if members.is_empty() {
                    continue;
                }
                let visited = self.cnf.lit_or(&members);
                let inloop = self.inloop[t];
                witnesses.push(self.cnf.lit_and(&[inloop, visited]));
            }
            self.cnf.add_clause(witnesses);
        }
    }

    /// Creates the one-hot loop selectors and the prefix-or in-loop
    /// indicators on first use.
    fn ensure_selectors(&mut self) {
        if !self.selectors.is_empty() {
            return;
        }
        let k = self.depth;
        self.selectors = (0..k).map(|_| SatLit::pos(self.cnf.new_var())).collect();
        let sels = self.selectors.clone();
        self.cnf.exactly_one(&sels);
        // inloop[t] ⇔ l_0 ∨ … ∨ l_t.
        let mut prev: Option<SatLit> = None;
        for t in 0..k {
            let here = match prev {
                None => self.selectors[0],
                Some(p) => self.cnf.lit_or(&[p, self.selectors[t]]),
            };
            self.inloop.push(here);
            prev = Some(here);
        }
    }

    /// Ties the model state at position `k` back to the selected loop
    /// position: latches and inputs equal (wires follow functionally).
    fn encode_loop(&mut self) {
        self.ensure_selectors();
        let k = self.depth;
        for (j, &sel) in self.selectors.clone().iter().enumerate() {
            for i in 0..self.latch_vars[0].len() {
                self.cnf
                    .equate_if(sel, self.latch_vars[k][i], self.latch_vars[j][i]);
            }
            for i in 0..self.input_vars[0].len() {
                self.cnf
                    .equate_if(sel, self.input_vars[k][i], self.input_vars[j][i]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dic_logic::SignalTable;
    use dic_netlist::ModuleBuilder;

    /// `q` latches `a`; free spec signal `req` rides along.
    fn latch_module(t: &mut SignalTable) -> Module {
        let mut b = ModuleBuilder::new("glue", t);
        let a = b.input("a");
        let q = b.latch_from("q", a, false);
        b.mark_output(q);
        b.finish().expect("valid")
    }

    #[test]
    fn finds_bounded_witness_for_reachable_scenario() {
        let mut t = SignalTable::new();
        let m = latch_module(&mut t);
        // F(q): reachable in one step by driving a.
        let f = Ltl::parse("F q", &mut t).unwrap();
        let word = bounded_lasso(&m, &t, &[], std::slice::from_ref(&f), DEFAULT_BMC_DEPTH)
            .expect("q is reachable");
        assert!(f.holds_on(&word));
    }

    #[test]
    fn respects_conjunction() {
        let mut t = SignalTable::new();
        let m = latch_module(&mut t);
        let req = t.intern("req");
        let f1 = Ltl::parse("G(req -> X q)", &mut t).unwrap();
        let f2 = Ltl::parse("F req", &mut t).unwrap();
        let f3 = Ltl::parse("G !a", &mut t).unwrap();
        // req with a pinned low: q never rises, so G(req -> X q) ∧ F req
        // ∧ G !a has no run of this module.
        assert!(bounded_lasso(&m, &t, &[req], &[f1, f2, f3], 8).is_none());
    }

    #[test]
    fn bounded_none_on_unsatisfiable_conjunct() {
        let mut t = SignalTable::new();
        let m = latch_module(&mut t);
        let contradiction = Ltl::parse("G q & F !q", &mut t).unwrap();
        assert!(bounded_lasso(&m, &t, &[], &[contradiction], 8).is_none());
    }

    #[test]
    fn witness_replays_reset_and_transition_semantics() {
        let mut t = SignalTable::new();
        let m = latch_module(&mut t);
        let f = Ltl::parse("F(q & X !q)", &mut t).unwrap();
        let word = bounded_lasso(&m, &t, &[], std::slice::from_ref(&f), DEFAULT_BMC_DEPTH)
            .expect("reachable");
        assert!(f.holds_on(&word));
        // Replay: every consecutive pair respects the latch function
        // q' = a, and position 0 carries the reset value q = 0.
        let a = t.lookup("a").unwrap();
        let q = t.lookup("q").unwrap();
        assert!(!word.states()[0].get(q), "reset value");
        for i in 0..word.states().len() {
            let succ = word.succ(i);
            assert_eq!(
                word.states()[succ].get(q),
                word.states()[i].get(a),
                "latch semantics broken at step {i}"
            );
        }
    }

    #[test]
    fn liveness_needs_acceptance_in_the_loop() {
        let mut t = SignalTable::new();
        let m = latch_module(&mut t);
        // G F q: q must recur forever — the loop itself must visit q.
        let f = Ltl::parse("G F q", &mut t).unwrap();
        let word = bounded_lasso(&m, &t, &[], std::slice::from_ref(&f), 6).expect("satisfiable");
        assert!(f.holds_on(&word));
        let q = t.lookup("q").unwrap();
        let loop_has_q = word.states()[word.loop_start()..].iter().any(|s| s.get(q));
        assert!(loop_has_q, "acceptance must fall inside the period");
    }

    #[test]
    fn zero_state_module_still_encodes() {
        // Pure combinational module: only inputs and wires.
        let mut t = SignalTable::new();
        let mut b = ModuleBuilder::new("comb", &mut t);
        let x = b.input("x");
        let y = b.not_gate("y", x);
        b.mark_output(y);
        let m = b.finish().unwrap();
        let f = Ltl::parse("G(x -> !y)", &mut t).unwrap();
        let word =
            bounded_lasso(&m, &t, &[], std::slice::from_ref(&f), 4).expect("tautology holds");
        assert!(f.holds_on(&word));
    }

    /// A random netlist (1–3 inputs, up to 2 wires, 1–3 latches) plus
    /// one free spec signal `env`, and the atoms formulas may mention.
    fn random_setup(
        rng: &mut dic_ltl::random::XorShift64,
    ) -> (SignalTable, Module, Vec<SignalId>, SignalId) {
        let mut t = SignalTable::new();
        let mut b = ModuleBuilder::new("rand", &mut t);
        let mut pool: Vec<SignalId> = (0..1 + rng.below(3))
            .map(|i| b.input(&format!("i{i}")))
            .collect();
        let leaf = |pool: &[SignalId], rng: &mut dic_ltl::random::XorShift64| {
            let v = BoolExpr::var(pool[rng.below(pool.len())]);
            if rng.flip() {
                v.not()
            } else {
                v
            }
        };
        for i in 0..rng.below(3) {
            let (a, c) = (leaf(&pool, rng), leaf(&pool, rng));
            let func = match rng.below(3) {
                0 => BoolExpr::and([a, c]),
                1 => BoolExpr::or([a, c]),
                _ => BoolExpr::xor(a, c),
            };
            pool.push(b.wire(&format!("w{i}"), func));
        }
        for i in 0..1 + rng.below(3) {
            let next = leaf(&pool, rng);
            pool.push(b.latch(&format!("q{i}"), next, rng.flip()));
        }
        b.mark_output(*pool.last().expect("non-empty"));
        let m = b.finish().expect("valid netlist");
        let env = t.intern("env");
        let mut atoms: Vec<SignalId> = m.signals().into_iter().collect();
        atoms.push(env);
        (t, m, atoms, env)
    }

    #[test]
    fn session_answers_match_one_shot_in_any_query_order() {
        use dic_ltl::random::{random_formula, XorShift64};
        let mut refuted = 0;
        let mut inconclusive = 0;
        for seed in 1..=40u64 {
            let mut rng = XorShift64::new(seed.wrapping_mul(0x9E37_79B9) + 7);
            let (t, m, atoms, env) = random_setup(&mut rng);
            let base: Vec<Ltl> = (0..rng.below(3))
                .map(|_| {
                    let budget = 3 + rng.below(3);
                    random_formula(&mut rng, &atoms, budget)
                })
                .collect();
            let cands: Vec<Ltl> = (0..6)
                .map(|_| {
                    let budget = 2 + rng.below(4);
                    random_formula(&mut rng, &atoms, budget)
                })
                .collect();
            let depth = 2 + rng.below(5);
            let expected: Vec<bool> = cands
                .iter()
                .map(|c| {
                    let mut all = base.clone();
                    all.push(c.clone());
                    bounded_lasso(&m, &t, &[env], &all, depth).is_some()
                })
                .collect();
            let forward: Vec<usize> = (0..cands.len()).collect();
            let backward: Vec<usize> = forward.iter().rev().copied().collect();
            let interleaved: Vec<usize> =
                forward.iter().map(|&i| (i * 5 + 3) % cands.len()).collect();
            for order in [forward, backward, interleaved] {
                let mut session = BmcSession::new(&m, &t, &[env], &base, depth);
                for &i in &order {
                    let got = session.query(std::slice::from_ref(&cands[i]));
                    assert_eq!(
                        got.is_some(),
                        expected[i],
                        "seed {seed}: session and one-shot disagree on candidate {i} (order {order:?})"
                    );
                    if let Some(word) = got {
                        for f in base.iter().chain([&cands[i]]) {
                            assert!(
                                f.holds_on(&word),
                                "seed {seed}: witness violates {}",
                                f.display(&t)
                            );
                        }
                    }
                }
            }
            refuted += expected.iter().filter(|&&e| e).count();
            inconclusive += expected.iter().filter(|&&e| !e).count();
        }
        assert!(
            refuted > 20 && inconclusive > 20,
            "both answers exercised: {refuted}/{inconclusive}"
        );
    }

    #[test]
    fn constant_true_is_never_retired_with_a_candidate() {
        // The latch module's base encoding reduces no gate to a constant.
        // `G !z` over the unconstrained `z` pins `z` false through the
        // constant literal; if that literal were first created inside the
        // candidate, retiring the candidate would set it free and the
        // later `F z` would find a bogus run.
        let mut t = SignalTable::new();
        let m = latch_module(&mut t);
        let never = Ltl::parse("G !z", &mut t).unwrap();
        let eventually = Ltl::parse("F z", &mut t).unwrap();
        let mut session = BmcSession::new(&m, &t, &[], &[], 4);
        assert!(session.query(std::slice::from_ref(&never)).is_some());
        assert!(session.query(std::slice::from_ref(&eventually)).is_none());
        assert!(session.query(std::slice::from_ref(&never)).is_some());
    }

    #[test]
    fn retired_candidate_variables_are_never_decided() {
        // Between base queries the session retires ever wider candidates
        // (an `X`-chain of growing depth over the latch module). Without
        // non-decision marking, a base query would decide every retired
        // variable, since ¬act leaves each of them free; with it, a base
        // query decides at most every base variable once per conflict.
        let mut t = SignalTable::new();
        let m = latch_module(&mut t);
        let cands: Vec<Ltl> = (1..=6)
            .map(|depth| {
                let chain = format!("F(q{})", " & X(a".repeat(depth) + &")".repeat(depth));
                Ltl::parse(&chain, &mut t).unwrap()
            })
            .collect();
        let mut session = BmcSession::new(&m, &t, &[], &[], 12);
        assert!(session.query(&[]).is_some());
        let solver = |s: &BmcSession| s.solver.as_ref().expect("built").stats();
        let base_vars = session.solver.as_ref().expect("built").num_vars() as u64;
        for (i, cand) in cands.iter().enumerate() {
            assert!(session.query(std::slice::from_ref(cand)).is_some());
            let before = solver(&session);
            assert!(session.query(&[]).is_some());
            let after = solver(&session);
            let (decisions, conflicts) = (
                after.decisions - before.decisions,
                after.conflicts - before.conflicts,
            );
            assert!(
                decisions <= (conflicts + 1) * base_vars,
                "base query after {} retired candidates: {decisions} decisions, \
                 {conflicts} conflicts over {base_vars} base variables",
                i + 1
            );
        }
        let retired = session.solver.as_ref().expect("built").num_vars() as u64 - base_vars;
        assert!(
            retired > 4 * base_vars,
            "candidates too narrow to tell: {retired} retired"
        );
    }

    #[test]
    fn unsatisfiable_conjuncts_short_circuit_either_side() {
        let mut t = SignalTable::new();
        let m = latch_module(&mut t);
        let contradiction = Ltl::parse("G q & F !q", &mut t).unwrap();
        let reachable = Ltl::parse("F q", &mut t).unwrap();
        let mut dead_base = BmcSession::new(&m, &t, &[], std::slice::from_ref(&contradiction), 4);
        assert!(dead_base.query(std::slice::from_ref(&reachable)).is_none());
        let mut live = BmcSession::new(&m, &t, &[], &[], 4);
        assert!(live.query(std::slice::from_ref(&contradiction)).is_none());
        assert!(live.query(std::slice::from_ref(&reachable)).is_some());
        assert_eq!(live.base(), &[] as &[Ltl]);
    }
}
