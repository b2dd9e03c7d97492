//! A small conflict-driven clause-learning SAT solver.
//!
//! Classic MiniSat-style architecture (Eén & Sörensson, *An extensible
//! SAT-solver*, SAT 2003), dependency-free and deterministic:
//!
//! * **two watched literals** per clause for unit propagation, over one
//!   flat literal arena (a clause is a `(start, len)` window into it);
//!   each watch carries a **blocker literal** (another literal of the
//!   clause), and a watch whose blocker is true is kept without reading
//!   the arena,
//! * **first-UIP conflict analysis** with learned-clause assertion and
//!   non-chronological backjumping; every learned clause is **minimized
//!   recursively** (MiniSat's `litRedundant`): a literal whose reason
//!   chain bottoms out in the clause's other literals is dropped,
//! * **VSIDS-style decisions**: per-variable activities bumped on conflict
//!   participation and decayed geometrically, kept in a binary heap
//!   ordered by *(activity descending, variable index ascending)* — the
//!   highest-activity unassigned decision variable wins and ties go to
//!   the smallest index,
//! * **phase saving**: backtracking records each unassigned variable's
//!   last value, and a decision tries that phase (false before a variable
//!   was ever assigned — runs and automaton codes are sparse, so
//!   negatives satisfy most constraints at once),
//! * **non-decision variables** (`Solver::set_non_decision`): never
//!   picked by the decision heuristic; a model fills any left unassigned
//!   from its saved phase. Sound when every clause mentioning such a
//!   variable is already satisfied — the bounded tier's retired
//!   candidates (see [`BmcSession`](crate::BmcSession)),
//! * geometric **restarts** (activities and phases survive, the trail
//!   resets),
//! * **incremental use**: [`Solver::new_var`] and [`Solver::add_clause`]
//!   extend the formula between solves, and [`Solver::solve_assuming`]
//!   decides it under assumption literals. Learned clauses are consequences
//!   of the clause database alone, so they stay valid across calls — the
//!   bounded tier's [`BmcSession`](crate::BmcSession) relies on this to
//!   carry what one candidate query learned into the next.
//!
//! Every solve takes an optional **conflict budget**, counted per call:
//! exhausting it returns [`SatResult::Unknown`], letting the bounded tier
//! fall through to the unbounded engines instead of stalling on a hard
//! instance. The budget is part of the input, so verdicts stay
//! deterministic.
//!
//! **Determinism.** No step reads a clock, a hash or an address: the
//! solver is a deterministic function of its call sequence (variables,
//! clauses in order, decision flags, assumptions and budgets), which the
//! byte-identical-output contract of the BMC tier leans on.

use crate::cnf::{Cnf, SatLit, Var};

/// Outcome of a [`Solver::solve`] call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable; the vector assigns every variable by index.
    Sat(Vec<bool>),
    /// Proved unsatisfiable (under the call's assumptions, if any).
    Unsat,
    /// Conflict budget exhausted before a verdict.
    Unknown,
}

/// Sentinel for "no reason clause" (decision or unassigned).
const NO_REASON: u32 = u32::MAX;

/// A clause: its literals are `arena[start .. start + len]`.
#[derive(Clone, Copy)]
struct ClauseRef {
    start: u32,
    len: u32,
}

impl ClauseRef {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// Counters a solve accumulates, surfaced through `dic_trace` by
/// [`Solver::solve_assuming`] on completion.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Decision-variable picks (assumption levels are not counted).
    pub decisions: u64,
    /// Conflicts hit (equals the number of analysis rounds).
    pub conflicts: u64,
    /// Clauses learned from first-UIP analysis.
    pub learned_clauses: u64,
    /// Watch-list entries propagation visited (blocker hits included).
    pub propagations: u64,
}

/// A watch-list entry: a clause watching a literal, plus a blocker —
/// another literal of the clause. While the blocker is true the clause is
/// satisfied and propagation skips it without touching the arena.
#[derive(Clone, Copy)]
struct Watch {
    clause: u32,
    blocker: SatLit,
}

/// Sentinel heap position of a variable outside the decision heap.
const NOT_IN_HEAP: u32 = u32::MAX;

/// The decision heap: a binary max-heap of variables ordered by
/// *(activity descending, index ascending)*. Every unassigned decision
/// variable is in it; assigned and non-decision ones are dropped lazily
/// when they surface at the top.
#[derive(Default)]
struct VarOrder {
    heap: Vec<u32>,
    /// `pos[v]`: index of `v` in `heap`, or [`NOT_IN_HEAP`].
    pos: Vec<u32>,
}

impl VarOrder {
    /// Whether `a` is picked before `b`.
    fn before(activity: &[f64], a: u32, b: u32) -> bool {
        let (x, y) = (activity[a as usize], activity[b as usize]);
        x > y || (x == y && a < b)
    }

    fn contains(&self, v: u32) -> bool {
        self.pos[v as usize] != NOT_IN_HEAP
    }

    /// Registers a new variable (indices are dense, so `v == pos.len()`)
    /// and inserts it.
    fn grow(&mut self, v: u32, activity: &[f64]) {
        debug_assert_eq!(v as usize, self.pos.len());
        self.pos.push(NOT_IN_HEAP);
        self.insert(v, activity);
    }

    fn insert(&mut self, v: u32, activity: &[f64]) {
        debug_assert!(!self.contains(v));
        self.pos[v as usize] = self.heap.len() as u32;
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, activity);
    }

    /// Removes and returns the first variable in pick order.
    fn pop(&mut self, activity: &[f64]) -> Option<u32> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty");
        self.pos[top as usize] = NOT_IN_HEAP;
        if last != top {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    /// Restores the order after `v`'s activity grew.
    fn increased(&mut self, v: u32, activity: &[f64]) {
        if self.contains(v) {
            self.sift_up(self.pos[v as usize] as usize, activity);
        }
    }

    /// Re-heapifies from scratch (after a rescale, which may merge
    /// activities that used to differ).
    fn rebuild(&mut self, activity: &[f64]) {
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i, activity);
        }
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.heap[parent];
            if !Self::before(activity, v, p) {
                break;
            }
            self.heap[i] = p;
            self.pos[p as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        let n = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let child = if right < n && Self::before(activity, self.heap[right], self.heap[left]) {
                right
            } else {
                left
            };
            let c = self.heap[child];
            if !Self::before(activity, c, v) {
                break;
            }
            self.heap[i] = c;
            self.pos[c as usize] = i as u32;
            i = child;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }
}

/// The CDCL solver; build with [`Solver::new`] from a finished [`Cnf`],
/// then optionally extend it between solves.
pub struct Solver {
    num_vars: usize,
    /// Every clause's literals, back to back.
    arena: Vec<SatLit>,
    /// Clause windows into `arena`, by clause index.
    clauses: Vec<ClauseRef>,
    /// `watches[lit.code()]`: the clauses currently watching `¬lit` (they
    /// must be revisited when `lit` becomes true), each with its blocker.
    watches: Vec<Vec<Watch>>,
    /// Assignment per variable: `None` unassigned.
    assign: Vec<Option<bool>>,
    /// Assigned literals in assignment order.
    trail: Vec<SatLit>,
    /// Trail index where each decision level starts.
    trail_lim: Vec<usize>,
    /// Next trail position to propagate from.
    qhead: usize,
    /// Clause index that implied each variable (`NO_REASON` for decisions).
    reason: Vec<u32>,
    /// Decision level of each variable's assignment.
    level: Vec<u32>,
    /// VSIDS activity per variable.
    activity: Vec<f64>,
    var_inc: f64,
    /// Decision candidates in pick order.
    order: VarOrder,
    /// Saved phase per variable: its value when backtracking last
    /// unassigned it (false before that). Decisions try it first.
    phase: Vec<bool>,
    /// Whether the decision heuristic may pick the variable.
    decision: Vec<bool>,
    /// Scratch for conflict analysis.
    seen: Vec<bool>,
    /// Scratch for learned-clause minimization: the literals still to
    /// expand, and every literal marked `seen` (cleared after analysis).
    analyze_stack: Vec<SatLit>,
    analyze_toclear: Vec<SatLit>,
    /// Set when the clause database itself is unsatisfiable (an empty
    /// clause, or a conflict with no decision on the trail). Permanent:
    /// clauses are only ever added.
    unsat: bool,
    stats: SolverStats,
}

/// Geometric activity decay per conflict (MiniSat's stock 0.95).
const VAR_DECAY: f64 = 0.95;
/// Activity rescale threshold.
const RESCALE_AT: f64 = 1e100;
/// First restart after this many conflicts; each restart interval grows
/// geometrically by 3/2.
const RESTART_FIRST: u64 = 100;

impl Solver {
    /// Builds a solver over the finished formula.
    pub fn new(cnf: Cnf) -> Self {
        let (num_vars, raw) = cnf.into_parts();
        Self::from_clauses(num_vars, raw)
    }

    /// Builds a solver over `num_vars` variables and the given clauses, in
    /// order (the clause list of a [`Cnf`]).
    pub(crate) fn from_clauses(num_vars: u32, raw: Vec<Vec<SatLit>>) -> Self {
        let mut s = Solver {
            num_vars: 0,
            arena: Vec::with_capacity(raw.iter().map(Vec::len).sum()),
            clauses: Vec::with_capacity(raw.len()),
            watches: Vec::new(),
            assign: Vec::new(),
            trail: Vec::with_capacity(num_vars as usize),
            trail_lim: Vec::new(),
            qhead: 0,
            reason: Vec::new(),
            level: Vec::new(),
            activity: Vec::new(),
            var_inc: 1.0,
            order: VarOrder::default(),
            phase: Vec::new(),
            decision: Vec::new(),
            seen: Vec::new(),
            analyze_stack: Vec::new(),
            analyze_toclear: Vec::new(),
            unsat: false,
            stats: SolverStats::default(),
        };
        for _ in 0..num_vars {
            s.new_var();
        }
        for c in raw {
            s.add_input_clause(c);
            if s.unsat {
                break;
            }
        }
        s
    }

    /// Counters accumulated over the solver's lifetime.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Number of variables allocated so far.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Allocates a fresh decision variable (activity zero, so it is
    /// decided after every bumped variable and after every older
    /// zero-activity one; saved phase false).
    pub fn new_var(&mut self) -> Var {
        let v = self.num_vars as u32;
        self.num_vars += 1;
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.assign.push(None);
        self.reason.push(NO_REASON);
        self.level.push(0);
        self.activity.push(0.0);
        self.phase.push(false);
        self.decision.push(true);
        self.seen.push(false);
        self.order.grow(v, &self.activity);
        Var(v)
    }

    /// Takes `v` out of the decision heuristic for good (every variable
    /// starts as a decision variable).
    ///
    /// A non-decision variable is assigned only by propagation; one still
    /// unassigned when every decision variable is takes its saved phase in
    /// the model. That model satisfies the formula only if every clause
    /// mentioning a non-decision variable is satisfied by the rest of the
    /// assignment — the caller's contract. A [`BmcSession`](crate::BmcSession)
    /// meets it for a retired candidate: each of the candidate's clauses,
    /// learned ones included, carries the literal its unit `¬act` makes
    /// true.
    pub(crate) fn set_non_decision(&mut self, v: Var) {
        self.decision[v.index()] = false;
    }

    /// Adds a clause between solves (the solver always returns to
    /// decision level 0). The clause is simplified against the top-level
    /// assignment first: a clause with a literal fixed true is dropped,
    /// literals fixed false are removed, a remaining unit is enqueued, and
    /// an empty remainder makes the solver permanently unsatisfiable.
    ///
    /// # Panics
    ///
    /// Panics if a literal names a variable that was never allocated.
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = SatLit>) {
        debug_assert_eq!(self.decision_level(), 0);
        let mut c: Vec<SatLit> = lits.into_iter().collect();
        c.sort_unstable();
        c.dedup();
        if c.windows(2).any(|w| w[0].var() == w[1].var()) {
            return; // l and ¬l in one clause: tautology
        }
        assert!(
            c.iter().all(|l| l.var().index() < self.num_vars),
            "clause names an unallocated variable"
        );
        if c.iter().any(|&l| self.value(l) == Some(true)) {
            return;
        }
        c.retain(|&l| self.value(l).is_none());
        self.add_input_clause(c);
    }

    /// Attaches a clause without simplification. Only sound while every
    /// assigned literal is still queued for propagation (construction) or
    /// when no literal of `lits` is assigned ([`Solver::add_clause`]).
    fn add_input_clause(&mut self, lits: Vec<SatLit>) {
        match lits.len() {
            0 => self.unsat = true,
            1 => {
                // Top-level unit: enqueue now, conflict means UNSAT.
                match self.value(lits[0]) {
                    Some(false) => self.unsat = true,
                    Some(true) => {}
                    None => self.enqueue(lits[0], NO_REASON),
                }
            }
            _ => {
                self.attach(&lits);
            }
        }
    }

    /// Stores a clause of two or more literals in the arena and watches
    /// its first two, each with the other as blocker; returns its index.
    fn attach(&mut self, lits: &[SatLit]) -> u32 {
        let idx = self.clauses.len() as u32;
        for (w, other) in [(lits[0], lits[1]), (lits[1], lits[0])] {
            self.watches[w.negated().code()].push(Watch {
                clause: idx,
                blocker: other,
            });
        }
        self.clauses.push(ClauseRef {
            start: self.arena.len() as u32,
            len: lits.len() as u32,
        });
        self.arena.extend_from_slice(lits);
        idx
    }

    fn value(&self, l: SatLit) -> Option<bool> {
        self.assign[l.var().index()].map(|v| v == l.is_pos())
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, l: SatLit, reason: u32) {
        let v = l.var().index();
        debug_assert!(self.assign[v].is_none());
        self.assign[v] = Some(l.is_pos());
        self.reason[v] = reason;
        self.level[v] = self.decision_level();
        self.trail.push(l);
    }

    /// Propagates until fixpoint; returns the conflicting clause index, if
    /// any.
    fn propagate(&mut self) -> Option<u32> {
        let mut conflict = None;
        while conflict.is_none() && self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            // Clauses watching ¬p (registered under `watches[p]`) must
            // find a new watch or become unit. Kept watches are compacted
            // to the front in their original order.
            let false_lit = p.negated();
            let mut ws = std::mem::take(&mut self.watches[p.code()]);
            let (mut i, mut j) = (0, 0);
            while i < ws.len() {
                self.stats.propagations += 1;
                let w = ws[i];
                i += 1;
                if self.value(w.blocker) == Some(true) {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let ci = w.clause;
                let lits = self.clauses[ci as usize].range();
                let (w0, w1) = (lits.start, lits.start + 1);
                // Normalize: the false literal sits at position 1.
                if self.arena[w0] == false_lit {
                    self.arena.swap(w0, w1);
                }
                debug_assert_eq!(self.arena[w1], false_lit);
                let first = self.arena[w0];
                let kept = Watch {
                    clause: ci,
                    blocker: first,
                };
                if first != w.blocker && self.value(first) == Some(true) {
                    ws[j] = kept;
                    j += 1;
                    continue;
                }
                // Look for a non-false literal to watch instead.
                let free = (w1 + 1..lits.end).find(|&k| self.value(self.arena[k]) != Some(false));
                if let Some(k) = free {
                    self.arena.swap(w1, k);
                    self.watches[self.arena[w1].negated().code()].push(kept);
                    continue;
                }
                // Unit or conflicting: the watch stays either way.
                ws[j] = kept;
                j += 1;
                if self.value(first) == Some(false) {
                    conflict = Some(ci);
                    self.qhead = self.trail.len();
                    ws.copy_within(i.., j);
                    j += ws.len() - i;
                    break;
                }
                self.enqueue(first, ci);
            }
            ws.truncate(j);
            self.watches[p.code()] = ws;
        }
        conflict
    }

    fn bump(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > RESCALE_AT {
            for a in &mut self.activity {
                *a *= 1.0 / RESCALE_AT;
            }
            self.var_inc *= 1.0 / RESCALE_AT;
            self.order.rebuild(&self.activity);
        } else {
            self.order.increased(v as u32, &self.activity);
        }
    }

    fn decay(&mut self) {
        self.var_inc *= 1.0 / VAR_DECAY;
    }

    /// First-UIP conflict analysis. Returns the learned clause (asserting
    /// literal first) and the backjump level.
    fn analyze(&mut self, confl: u32) -> (Vec<SatLit>, u32) {
        let mut learnt: Vec<SatLit> = vec![SatLit::pos(Var(0))]; // slot 0 = UIP
        let mut counter = 0usize;
        let mut p: Option<SatLit> = None;
        let mut index = self.trail.len();
        let mut confl = confl;
        loop {
            // Skip the asserted literal itself on continuation rounds.
            let mut lits = self.clauses[confl as usize].range();
            lits.start += usize::from(p.is_some());
            for k in lits {
                let q = self.arena[k];
                let v = q.var().index();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump(v);
                    if self.level[v] == self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Walk the trail backwards to the next marked literal.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let lit = self.trail[index];
            self.seen[lit.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = lit.negated();
                break;
            }
            confl = self.reason[lit.var().index()];
            debug_assert_ne!(confl, NO_REASON);
            p = Some(lit);
        }
        // Minimize: drop every literal whose reason chain ends in the
        // clause's other literals (decisions and assumptions always stay).
        self.analyze_toclear.clear();
        self.analyze_toclear.extend_from_slice(&learnt[1..]);
        let levels = learnt[1..]
            .iter()
            .fold(0, |acc, l| acc | self.abstract_level(l.var().index()));
        let mut kept = 1;
        for k in 1..learnt.len() {
            let l = learnt[k];
            if self.reason[l.var().index()] == NO_REASON || !self.lit_redundant(l, levels) {
                learnt[kept] = l;
                kept += 1;
            }
        }
        learnt.truncate(kept);
        let toclear = std::mem::take(&mut self.analyze_toclear);
        for l in &toclear {
            self.seen[l.var().index()] = false;
        }
        self.analyze_toclear = toclear;
        // Backjump to the second-highest level in the clause.
        let mut back = 0;
        let mut at = 1;
        for (k, l) in learnt.iter().enumerate().skip(1) {
            let lv = self.level[l.var().index()];
            if lv > back {
                back = lv;
                at = k;
            }
        }
        if learnt.len() > 1 {
            learnt.swap(1, at);
        }
        (learnt, back)
    }

    /// A 32-bit signature of `v`'s decision level, for the cheap "can
    /// this reason chain stay inside the clause's levels" test.
    fn abstract_level(&self, v: usize) -> u32 {
        1 << (self.level[v] & 31)
    }

    /// Whether `p` (a literal of the learned clause, with a reason) is
    /// implied by the clause's other literals: every path back through
    /// reasons ends in a `seen` literal or at level 0. Iterative; literals
    /// proved redundant on the way stay `seen` (in `analyze_toclear`), a
    /// failed attempt unmarks what it marked.
    fn lit_redundant(&mut self, p: SatLit, levels: u32) -> bool {
        self.analyze_stack.clear();
        self.analyze_stack.push(p);
        let top = self.analyze_toclear.len();
        while let Some(q) = self.analyze_stack.pop() {
            let reason = self.reason[q.var().index()];
            debug_assert_ne!(reason, NO_REASON);
            // Position 0 of a reason clause is the literal it implied.
            for k in self.clauses[reason as usize].range().skip(1) {
                let r = self.arena[k];
                let v = r.var().index();
                if self.seen[v] || self.level[v] == 0 {
                    continue;
                }
                if self.reason[v] != NO_REASON && self.abstract_level(v) & levels != 0 {
                    self.seen[v] = true;
                    self.analyze_stack.push(r);
                    self.analyze_toclear.push(r);
                } else {
                    for l in self.analyze_toclear.drain(top..) {
                        self.seen[l.var().index()] = false;
                    }
                    return false;
                }
            }
        }
        true
    }

    /// Undoes every decision level above `level`, saving each unassigned
    /// variable's phase.
    fn cancel_until(&mut self, level: u32) {
        while self.decision_level() > level {
            let start = self.trail_lim.pop().expect("level > 0");
            for l in self.trail.drain(start..) {
                let v = l.var().index();
                self.assign[v] = None;
                self.reason[v] = NO_REASON;
                self.phase[v] = l.is_pos();
                if self.decision[v] && !self.order.contains(v as u32) {
                    self.order.insert(v as u32, &self.activity);
                }
            }
        }
        self.qhead = self.trail.len();
    }

    /// Records a learned clause and enqueues its asserting literal.
    fn learn(&mut self, learnt: Vec<SatLit>) {
        self.stats.learned_clauses += 1;
        if learnt.len() == 1 {
            self.enqueue(learnt[0], NO_REASON);
            return;
        }
        let idx = self.attach(&learnt);
        self.enqueue(learnt[0], idx);
    }

    /// The unassigned decision variable with the highest activity; ties
    /// break toward the smallest index (the determinism contract).
    /// Assigned and non-decision variables surfacing at the top of the
    /// heap are dropped; backtracking re-inserts the decision ones.
    fn pick_branch(&mut self) -> Option<Var> {
        let pick = loop {
            match self.order.pop(&self.activity) {
                None => break None,
                Some(v) if self.assign[v as usize].is_none() && self.decision[v as usize] => {
                    break Some(v)
                }
                Some(_) => {}
            }
        };
        #[cfg(test)]
        assert_eq!(
            pick,
            self.pick_branch_linear(),
            "decision heap diverged from the linear-scan rule"
        );
        pick.map(Var)
    }

    /// The pick rule the heap implements, as a linear scan: the test
    /// build checks every heap decision against it.
    #[cfg(test)]
    fn pick_branch_linear(&self) -> Option<u32> {
        let mut best: Option<(f64, usize)> = None;
        for v in 0..self.num_vars {
            if self.assign[v].is_none() && self.decision[v] {
                let a = self.activity[v];
                match best {
                    Some((ba, _)) if ba >= a => {}
                    _ => best = Some((a, v)),
                }
            }
        }
        best.map(|(_, v)| v as u32)
    }

    /// Decides satisfiability. `max_conflicts` bounds the search
    /// (`None` = run to a verdict).
    pub fn solve(&mut self, max_conflicts: Option<u64>) -> SatResult {
        self.solve_assuming(&[], max_conflicts)
    }

    /// Decides satisfiability with every literal of `assumptions` forced
    /// true. [`SatResult::Unsat`] then means "unsatisfiable under these
    /// assumptions" (the solver stays usable); a model assigns every
    /// assumption true. `max_conflicts` bounds this call's search alone.
    ///
    /// The `sat.decisions`, `sat.conflicts` and `sat.learned_clauses`
    /// trace counters receive this call's increments, never the running
    /// totals of [`Solver::stats`].
    pub fn solve_assuming(
        &mut self,
        assumptions: &[SatLit],
        max_conflicts: Option<u64>,
    ) -> SatResult {
        // `sat.solve` injection site: any non-panic kind degrades to
        // Unknown, which every caller treats as "no refutation found" —
        // unconditionally sound for the bounded tier.
        match dic_fault::hit(dic_fault::Site::SatSolve) {
            Some(dic_fault::FaultKind::Panic) => dic_fault::injected_panic(),
            Some(_) => return SatResult::Unknown,
            None => {}
        }
        let before = self.stats;
        let result = self.run(assumptions, max_conflicts);
        if dic_trace::enabled() {
            let after = self.stats;
            dic_trace::count(
                dic_trace::Counter::SatDecisions,
                after.decisions - before.decisions,
            );
            dic_trace::count(
                dic_trace::Counter::SatConflicts,
                after.conflicts - before.conflicts,
            );
            dic_trace::count(
                dic_trace::Counter::SatLearnedClauses,
                after.learned_clauses - before.learned_clauses,
            );
        }
        result
    }

    fn run(&mut self, assumptions: &[SatLit], max_conflicts: Option<u64>) -> SatResult {
        if self.unsat {
            return SatResult::Unsat;
        }
        let mut restart_at = RESTART_FIRST;
        let mut conflicts_here = 0u64;
        let mut conflicts = 0u64;
        loop {
            if let Some(ci) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts += 1;
                conflicts_here += 1;
                if self.decision_level() == 0 {
                    self.unsat = true;
                    return SatResult::Unsat;
                }
                let (learnt, back) = self.analyze(ci);
                self.cancel_until(back);
                self.learn(learnt);
                self.decay();
                if max_conflicts.is_some_and(|budget| conflicts >= budget) {
                    self.cancel_until(0);
                    return SatResult::Unknown;
                }
                if conflicts_here >= restart_at {
                    conflicts_here = 0;
                    restart_at += restart_at / 2;
                    self.cancel_until(0);
                    // Cooperative deadline checkpoint at the restart
                    // boundary: the trail is already unwound to level 0,
                    // so Unknown here leaves the solver reusable.
                    if dic_fault::deadline_expired() {
                        return SatResult::Unknown;
                    }
                }
            } else {
                // Assumptions occupy the first decision levels, one each;
                // an assumption already true gets an empty level so the
                // level ↔ assumption correspondence survives backjumps.
                let next = match assumptions.get(self.decision_level() as usize) {
                    Some(&a) => match self.value(a) {
                        Some(true) => {
                            self.trail_lim.push(self.trail.len());
                            continue;
                        }
                        Some(false) => {
                            self.cancel_until(0);
                            return SatResult::Unsat;
                        }
                        None => a,
                    },
                    None => match self.pick_branch() {
                        None => {
                            // Every decision variable is assigned; a
                            // non-decision one left open takes its phase.
                            let model = self
                                .assign
                                .iter()
                                .zip(&self.phase)
                                .map(|(a, &phase)| a.unwrap_or(phase))
                                .collect();
                            self.cancel_until(0);
                            return SatResult::Sat(model);
                        }
                        Some(v) => {
                            self.stats.decisions += 1;
                            SatLit::new(v, self.phase[v.index()])
                        }
                    },
                };
                self.trail_lim.push(self.trail.len());
                self.enqueue(next, NO_REASON);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(cnf: &mut Cnf, n: usize) -> Vec<SatLit> {
        (0..n).map(|_| SatLit::pos(cnf.new_var())).collect()
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new(Cnf::new());
        assert_eq!(s.solve(None), SatResult::Sat(Vec::new()));
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut cnf = Cnf::new();
        cnf.add_clause([]);
        assert_eq!(Solver::new(cnf).solve(None), SatResult::Unsat);
    }

    #[test]
    fn unit_contradiction_is_unsat() {
        let mut cnf = Cnf::new();
        let a = SatLit::pos(cnf.new_var());
        cnf.add_clause([a]);
        cnf.add_clause([a.negated()]);
        assert_eq!(Solver::new(cnf).solve(None), SatResult::Unsat);
    }

    #[test]
    fn simple_model_found() {
        let mut cnf = Cnf::new();
        let v = lits(&mut cnf, 2);
        cnf.add_clause([v[0], v[1]]);
        cnf.add_clause([v[0].negated(), v[1]]);
        cnf.add_clause([v[1].negated(), v[0]]);
        match Solver::new(cnf).solve(None) {
            SatResult::Sat(m) => {
                assert!(m[0] && m[1]);
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // p[i][j]: pigeon i in hole j. Each pigeon somewhere; no two
        // pigeons share a hole. Classic small UNSAT with real conflicts.
        let mut cnf = Cnf::new();
        let p: Vec<Vec<SatLit>> = (0..3).map(|_| lits(&mut cnf, 2)).collect();
        for row in &p {
            cnf.add_clause(row.iter().copied());
        }
        for (i1, row1) in p.iter().enumerate() {
            for row2 in &p[i1 + 1..] {
                for (&a, &b) in row1.iter().zip(row2) {
                    cnf.add_clause([a.negated(), b.negated()]);
                }
            }
        }
        let mut s = Solver::new(cnf);
        assert_eq!(s.solve(None), SatResult::Unsat);
        assert!(s.stats().conflicts > 0, "analysis actually exercised");
    }

    #[test]
    fn xor_chain_satisfied_consistently() {
        // x0 ⊕ x1 = t, x1 ⊕ x2 = t', chained constraints with a forced
        // parity — checks Tseitin + solving end to end.
        let mut cnf = Cnf::new();
        let v = lits(&mut cnf, 3);
        let x01 = cnf.lit_xor(v[0], v[1]);
        let x12 = cnf.lit_xor(v[1], v[2]);
        cnf.add_clause([x01]); // x0 != x1
        cnf.add_clause([x12]); // x1 != x2
        cnf.add_clause([v[0]]); // x0 = 1
        match Solver::new(cnf).solve(None) {
            SatResult::Sat(m) => {
                assert!(m[0] && !m[1] && m[2]);
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        // A formula needing some search, with a 1-conflict budget.
        let mut cnf = Cnf::new();
        let p: Vec<Vec<SatLit>> = (0..5).map(|_| lits(&mut cnf, 4)).collect();
        for row in &p {
            cnf.add_clause(row.iter().copied());
        }
        for (i1, row1) in p.iter().enumerate() {
            for row2 in &p[i1 + 1..] {
                for (&a, &b) in row1.iter().zip(row2) {
                    cnf.add_clause([a.negated(), b.negated()]);
                }
            }
        }
        assert_eq!(Solver::new(cnf).solve(Some(1)), SatResult::Unknown);
    }

    #[test]
    fn deterministic_across_runs() {
        let build = || {
            let mut cnf = Cnf::new();
            let v = lits(&mut cnf, 6);
            cnf.add_clause([v[0], v[1], v[2]]);
            cnf.add_clause([v[0].negated(), v[3]]);
            cnf.add_clause([v[3].negated(), v[4].negated()]);
            cnf.add_clause([v[1].negated(), v[4]]);
            cnf.add_clause([v[2], v[5]]);
            cnf.add_clause([v[5].negated(), v[0]]);
            Solver::new(cnf)
        };
        let r1 = build().solve(None);
        let r2 = build().solve(None);
        assert_eq!(r1, r2, "same formula, same verdict and model");
    }

    #[test]
    fn exactly_one_blocks_pairs() {
        let mut cnf = Cnf::new();
        let v = lits(&mut cnf, 3);
        cnf.exactly_one(&v);
        cnf.add_clause([v[1]]);
        match Solver::new(cnf).solve(None) {
            SatResult::Sat(m) => {
                assert!(!m[0] && m[1] && !m[2]);
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }
    #[test]
    fn assumptions_restrict_without_sticking() {
        let mut cnf = Cnf::new();
        let v = lits(&mut cnf, 2);
        cnf.add_clause([v[0], v[1]]);
        let mut s = Solver::new(cnf);
        assert_eq!(
            s.solve_assuming(&[v[0].negated(), v[1].negated()], None),
            SatResult::Unsat
        );
        match s.solve_assuming(&[v[0].negated()], None) {
            SatResult::Sat(m) => assert!(!m[0] && m[1]),
            other => panic!("expected SAT, got {other:?}"),
        }
        // The failed assumption set left nothing behind.
        assert!(matches!(s.solve(None), SatResult::Sat(_)));
    }

    #[test]
    fn clauses_added_between_solves_respect_top_level_units() {
        let mut cnf = Cnf::new();
        let v = lits(&mut cnf, 3);
        cnf.add_clause([v[0]]);
        let mut s = Solver::new(cnf);
        assert!(matches!(s.solve(None), SatResult::Sat(_)));
        // ¬v0 is false at the top level: the clause reduces to the unit v1.
        s.add_clause([v[0].negated(), v[1]]);
        let w = SatLit::pos(s.new_var());
        s.add_clause([v[1].negated(), w]);
        match s.solve(None) {
            SatResult::Sat(m) => assert!(m[0] && m[1] && m[3]),
            other => panic!("expected SAT, got {other:?}"),
        }
        s.add_clause([w.negated()]);
        assert_eq!(s.solve(None), SatResult::Unsat);
        assert_eq!(
            s.solve_assuming(&[v[2]], None),
            SatResult::Unsat,
            "UNSAT is permanent"
        );
    }

    #[test]
    fn conflict_budget_counts_per_call() {
        // Pigeonhole 5 into 4 needs well over 5 conflicts; an easy first
        // query must not eat into the second query's budget.
        let mut cnf = Cnf::new();
        let p: Vec<Vec<SatLit>> = (0..5).map(|_| lits(&mut cnf, 4)).collect();
        let act = SatLit::pos(cnf.new_var());
        for row in &p {
            cnf.add_clause(row.iter().copied().chain([act.negated()]));
        }
        for (i1, row1) in p.iter().enumerate() {
            for row2 in &p[i1 + 1..] {
                for (&a, &b) in row1.iter().zip(row2) {
                    cnf.add_clause([a.negated(), b.negated()]);
                }
            }
        }
        let mut s = Solver::new(cnf);
        let mut spent = 0;
        for _ in 0..3 {
            assert_eq!(s.solve_assuming(&[act], Some(5)), SatResult::Unknown);
            let now = s.stats().conflicts;
            assert_eq!(now - spent, 5, "each call gets its own budget");
            spent = now;
        }
        assert_eq!(s.solve_assuming(&[act], None), SatResult::Unsat);
        assert!(matches!(
            s.solve_assuming(&[act.negated()], Some(5)),
            SatResult::Sat(_)
        ));
    }

    /// A deterministic random clause over `vars`, 1–4 literals.
    fn random_clause(rng: &mut proptest::prelude::TestRng, vars: &[Var]) -> Vec<SatLit> {
        let len = 1 + rng.below(4) as usize;
        (0..len)
            .map(|_| {
                SatLit::new(
                    vars[rng.below(vars.len() as u64) as usize],
                    rng.below(2) == 0,
                )
            })
            .collect()
    }

    fn satisfies(model: &[bool], clauses: &[Vec<SatLit>]) -> bool {
        clauses
            .iter()
            .all(|c| c.iter().any(|l| model[l.var().index()] == l.is_pos()))
    }

    #[test]
    fn non_decision_variables_are_never_picked() {
        // A guarded "candidate" over x0..x7, retired by the unit ¬act and
        // its variables marked non-decision: the solver decides only the
        // base variables (the test build also checks each pick against
        // the linear-scan rule, which skips non-decision variables), and
        // the model still satisfies every clause.
        let mut cnf = Cnf::new();
        let base = lits(&mut cnf, 3);
        cnf.add_clause([base[0], base[1], base[2]]);
        let mut s = Solver::new(cnf);
        let act = SatLit::pos(s.new_var());
        let xs: Vec<SatLit> = (0..8).map(|_| SatLit::pos(s.new_var())).collect();
        let mut all = vec![vec![base[0], base[1], base[2]], vec![act.negated()]];
        for w in xs.windows(2) {
            all.push(vec![act.negated(), w[0], w[1].negated()]);
            all.push(vec![act.negated(), w[0].negated(), base[1]]);
        }
        for c in &all[2..] {
            s.add_clause(c.iter().copied());
        }
        s.add_clause([act.negated()]);
        for v in act.var().index()..s.num_vars() {
            s.set_non_decision(Var(v as u32));
        }
        match s.solve(None) {
            SatResult::Sat(m) => assert!(satisfies(&m, &all)),
            other => panic!("expected SAT, got {other:?}"),
        }
        assert!(s.stats().decisions <= 3, "decided a non-decision variable");
    }

    /// Whether some assignment of the `n` variables satisfies every clause
    /// and every assumption: plain enumeration, the reference the random
    /// test checks the solver against.
    fn brute_force_sat(n: usize, clauses: &[Vec<SatLit>], assumptions: &[SatLit]) -> bool {
        (0u32..1 << n).any(|bits| {
            let model: Vec<bool> = (0..n).map(|v| bits >> v & 1 == 1).collect();
            satisfies(&model, clauses)
                && assumptions
                    .iter()
                    .all(|l| model[l.var().index()] == l.is_pos())
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(200))]

        /// Random CNFs of up to 12 variables, each solved under several
        /// random assumption sets in turn (so learned clauses, saved
        /// phases and minimized clauses carry over between calls): every
        /// verdict equals brute-force enumeration, and every model
        /// satisfies every clause and every assumption.
        #[test]
        fn random_cnfs_agree_with_brute_force(seed in 1u64..1_000_000) {
            let mut rng = proptest::prelude::TestRng::new(seed);
            let n = 1 + rng.below(12) as usize;
            let mut cnf = Cnf::new();
            let vars: Vec<Var> = (0..n).map(|_| cnf.new_var()).collect();
            let clauses: Vec<Vec<SatLit>> = (0..rng.below(5 * n as u64 + 1))
                .map(|_| random_clause(&mut rng, &vars))
                .collect();
            for c in &clauses {
                cnf.add_clause(c.iter().copied());
            }
            let mut s = Solver::new(cnf);
            for _ in 0..4 {
                let assumptions: Vec<SatLit> = (0..rng.below(4))
                    .map(|_| SatLit::new(vars[rng.below(n as u64) as usize], rng.below(2) == 0))
                    .collect();
                let got = s.solve_assuming(&assumptions, None);
                proptest::prop_assert_eq!(
                    matches!(got, SatResult::Sat(_)),
                    brute_force_sat(n, &clauses, &assumptions),
                    "verdict diverges from enumeration (seed {})",
                    seed
                );
                if let SatResult::Sat(m) = &got {
                    proptest::prop_assert!(
                        satisfies(m, &clauses),
                        "model violates a clause (seed {})",
                        seed
                    );
                    proptest::prop_assert!(
                        assumptions.iter().all(|l| m[l.var().index()] == l.is_pos()),
                        "model violates an assumption (seed {})",
                        seed
                    );
                }
            }
        }

        /// Incremental use agrees with one-shot solving: a base formula,
        /// then a sequence of candidate clause sets each guarded by a
        /// fresh activation literal, solved under that literal and then
        /// retired. Every verdict equals a fresh solve of base ∪
        /// candidate, and every model satisfies base ∪ candidate.
        #[test]
        fn guarded_candidates_agree_with_one_shot_solves(seed in 1u64..1_000_000) {
            let mut rng = proptest::prelude::TestRng::new(seed);
            let base_vars = 3 + rng.below(10) as u32;
            let mut cnf = Cnf::new();
            // Candidate clauses range over every variable but the
            // activation literals (which the one-shot oracle lacks).
            let mut vars: Vec<Var> = (0..base_vars).map(|_| cnf.new_var()).collect();
            let base: Vec<Vec<SatLit>> = (0..rng.below(3 * u64::from(base_vars)))
                .map(|_| random_clause(&mut rng, &vars))
                .collect();
            for c in &base {
                cnf.add_clause(c.iter().copied());
            }
            let mut session = Solver::new(cnf);
            for _ in 0..5 {
                for _ in 0..rng.below(3) {
                    vars.push(session.new_var());
                }
                let act = SatLit::pos(session.new_var());
                let nvars = session.num_vars();
                let cand: Vec<Vec<SatLit>> = (0..1 + rng.below(2 * u64::from(base_vars)))
                    .map(|_| random_clause(&mut rng, &vars))
                    .collect();
                for c in &cand {
                    session.add_clause(c.iter().copied().chain([act.negated()]));
                }
                let incremental = session.solve_assuming(&[act], None);
                session.add_clause([act.negated()]);

                let mut fresh = Cnf::new();
                for _ in 0..nvars {
                    fresh.new_var();
                }
                for c in base.iter().chain(&cand) {
                    fresh.add_clause(c.iter().copied());
                }
                let one_shot = Solver::new(fresh).solve(None);
                proptest::prop_assert_eq!(
                    matches!(incremental, SatResult::Sat(_)),
                    matches!(one_shot, SatResult::Sat(_)),
                    "verdicts diverge (seed {})",
                    seed
                );
                proptest::prop_assert!(incremental != SatResult::Unknown);
                if let SatResult::Sat(m) = &incremental {
                    proptest::prop_assert!(m[act.var().index()], "assumption honored");
                    proptest::prop_assert!(satisfies(m, &base), "base violated (seed {})", seed);
                    proptest::prop_assert!(
                        satisfies(m, &cand),
                        "candidate violated (seed {})",
                        seed
                    );
                }
            }
        }
    }
}
