//! GPVW translation: LTL → generalized Büchi automaton.
//!
//! This is the node-splitting tableau of Gerth, Peled, Vardi & Wolper,
//! *Simple on-the-fly automatic verification of linear temporal logic*
//! (PSTV 1995), operating on formulas in U/R-core negation normal form
//! ([`Ltl::core_nnf`]). States carry the conjunction of literals that must
//! hold while the automaton sits in them; acceptance is generalized, one
//! set per `Until` subformula.

use dic_logic::{Lit, SignalId, Valuation};
use dic_ltl::{Ltl, LtlNode};
use std::collections::{BTreeSet, HashMap};

/// Interned subformula id inside the translator.
type Fid = u32;

/// Structure of an interned subformula.
#[derive(Clone, Debug, PartialEq, Eq)]
enum FKind {
    True,
    False,
    Lit(SignalId, bool),
    And(Vec<Fid>),
    Or(Vec<Fid>),
    Next(Fid),
    Until(Fid, Fid),
    Release(Fid, Fid),
}

/// A state of the generalized Büchi automaton.
#[derive(Clone, Debug)]
pub struct GbaState {
    /// Literals that must hold at any position where this state is visited.
    /// Consistent by construction (contradictory tableau nodes are pruned).
    literals: Vec<Lit>,
    /// Bit `j` set ⇔ this state belongs to acceptance set `j`.
    acc: u32,
}

impl GbaState {
    /// Creates a state from its literal constraints and acceptance-set
    /// bitmask (used by the [degeneralization](fn@crate::degeneralize)).
    pub fn new(literals: Vec<Lit>, acc: u32) -> Self {
        GbaState { literals, acc }
    }

    /// The literal constraints of this state.
    pub fn literals(&self) -> &[Lit] {
        &self.literals
    }

    /// Acceptance-set membership bitmask.
    pub fn acc_bits(&self) -> u32 {
        self.acc
    }

    /// Whether this state belongs to acceptance set `m`.
    pub fn in_acceptance_set(&self, m: u32) -> bool {
        self.acc & (1 << m) != 0
    }

    /// Whether a valuation satisfies all literal constraints.
    pub fn compatible(&self, v: &Valuation) -> bool {
        self.literals.iter().all(|l| l.eval(v))
    }

    /// A minimal valuation (unconstrained signals low) satisfying the state
    /// over a table of `n_signals` signals.
    pub fn witness_valuation(&self, n_signals: usize) -> Valuation {
        let mut v = Valuation::all_false(n_signals);
        for l in &self.literals {
            v.set(l.signal(), l.polarity());
        }
        v
    }
}

/// A generalized Büchi automaton produced by [`translate`].
///
/// A run over an infinite word `w` is a sequence of states `q0 q1 …` with
/// `q0` initial, `q_{i+1}` a successor of `q_i`, and `w_i` satisfying the
/// literals of `q_i`. The run accepts iff it visits every acceptance set
/// infinitely often; the automaton accepts exactly the words satisfying the
/// translated formula.
#[derive(Clone, Debug)]
pub struct Gba {
    states: Vec<GbaState>,
    initial: Vec<u32>,
    succs: Vec<Vec<u32>>,
    n_acc: u32,
}

impl Gba {
    /// Assembles an automaton from explicit parts (used by the
    /// [degeneralization](fn@crate::degeneralize)).
    ///
    /// # Panics
    ///
    /// Panics if a successor list length disagrees with the state count,
    /// or an edge/initial index is out of range.
    pub fn from_parts(
        states: Vec<GbaState>,
        initial: Vec<u32>,
        succs: Vec<Vec<u32>>,
        n_acc: u32,
    ) -> Self {
        assert_eq!(states.len(), succs.len(), "one successor list per state");
        let n = states.len() as u32;
        assert!(initial.iter().all(|&q| q < n), "initial state in range");
        assert!(
            succs.iter().flatten().all(|&q| q < n),
            "successors in range"
        );
        Gba {
            states,
            initial,
            succs,
            n_acc,
        }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Number of transitions.
    pub fn num_transitions(&self) -> usize {
        self.succs.iter().map(Vec::len).sum()
    }

    /// Number of acceptance sets (one per `Until` subformula).
    pub fn num_acceptance_sets(&self) -> u32 {
        self.n_acc
    }

    /// The bitmask with every acceptance bit set.
    pub fn full_acc_mask(&self) -> u32 {
        if self.n_acc == 32 {
            u32::MAX
        } else {
            (1u32 << self.n_acc) - 1
        }
    }

    /// Initial state indices.
    pub fn initial(&self) -> &[u32] {
        &self.initial
    }

    /// Whether `q` is an initial state. The initial list is a handful of
    /// entries, so a scan beats materializing a set — the SAT encoder
    /// asks this once per state per query.
    pub fn is_initial(&self, q: u32) -> bool {
        self.initial.contains(&q)
    }

    /// Successor state indices of `q`.
    pub fn successors(&self, q: u32) -> &[u32] {
        &self.succs[q as usize]
    }

    /// The state `q`.
    pub fn state(&self, q: u32) -> &GbaState {
        &self.states[q as usize]
    }

    /// All states.
    pub fn states(&self) -> &[GbaState] {
        &self.states
    }

    /// Renders the automaton in Graphviz DOT format: states are labelled
    /// with their literal constraints, accepting-set membership is shown
    /// as `∈{j,…}`, initial states are double circles.
    pub fn to_dot(&self, table: &dic_logic::SignalTable) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph gba {\n  rankdir=LR;\n");
        for (i, st) in self.states.iter().enumerate() {
            let lits = if st.literals.is_empty() {
                "true".to_owned()
            } else {
                st.literals
                    .iter()
                    .map(|l| l.display(table).to_string())
                    .collect::<Vec<_>>()
                    .join(" & ")
            };
            let mut acc = String::new();
            if self.n_acc > 0 && st.acc != 0 {
                let sets: Vec<String> = (0..self.n_acc)
                    .filter(|j| st.acc >> j & 1 == 1)
                    .map(|j| j.to_string())
                    .collect();
                acc = format!("\\n∈{{{}}}", sets.join(","));
            }
            let shape = if self.initial.contains(&(i as u32)) {
                "doublecircle"
            } else {
                "circle"
            };
            let _ = writeln!(out, "  q{i} [label=\"{lits}{acc}\", shape={shape}];");
        }
        for (i, succs) in self.succs.iter().enumerate() {
            for &j in succs {
                let _ = writeln!(out, "  q{i} -> q{j};");
            }
        }
        out.push_str("}\n");
        out
    }

    /// Summary statistics, used by the benchmark reports.
    pub fn stats(&self) -> GbaStats {
        GbaStats {
            states: self.num_states(),
            transitions: self.num_transitions(),
            acceptance_sets: self.n_acc as usize,
            initial: self.initial.len(),
        }
    }
}

/// Number of binary code bits a symbolic encoding allocates for an
/// `n`-state automaton (⌈log₂ n⌉, minimum 1) — the single source of
/// truth shared by the symbolic encoder, the `Backend::Auto` cost
/// predictor and the benchmark accounting.
pub fn code_bits(states: usize) -> usize {
    let mut bits = 1;
    while (1usize << bits) < states {
        bits += 1;
    }
    bits
}

/// Size summary of a [`Gba`]; produced by [`Gba::stats`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GbaStats {
    /// Number of states.
    pub states: usize,
    /// Number of transitions.
    pub transitions: usize,
    /// Number of generalized acceptance sets.
    pub acceptance_sets: usize,
    /// Number of initial states.
    pub initial: usize,
}

/// Translates an LTL formula into a [`Gba`], with the on-the-fly tableau
/// prunes (cover-equivalent node merging, subsumed-branch and
/// literal-contradiction skipping) active.
///
/// The formula is first brought into U/R-core NNF, so any [`Ltl`] is
/// accepted. See the [crate-level example](crate).
pub fn translate(formula: &Ltl) -> Gba {
    Translator::new(true).run(&formula.core_nnf())
}

/// The legacy GPVW translation: tableau nodes keyed by their full
/// `(Old, Next)` sets, no branch subsumption. This is the pre-reduction
/// baseline — what the engines consumed before the automaton reduction
/// pipeline existed, kept as the `pre` side of the benchmark accounting
/// ([`crate::translation_reduction`]).
pub fn translate_unreduced(formula: &Ltl) -> Gba {
    Translator::new(false).run(&formula.core_nnf())
}

/// A tableau node during construction.
#[derive(Clone, Debug)]
struct Node {
    incoming: BTreeSet<usize>, // node ids; INIT marks initial edges
    new: BTreeSet<Fid>,
    old: BTreeSet<Fid>,
    next: BTreeSet<Fid>,
}

/// Pseudo node id marking "incoming from init".
const INIT: usize = usize::MAX;

struct Translator {
    formulas: Vec<FKind>,
    ids: HashMap<Ltl, Fid>,
    /// Finished tableau nodes keyed by their *cover*: the literal
    /// constraints, acceptance bits and next-obligations that determine
    /// the emitted state. Two nodes whose `Old` sets differ only in
    /// discharged Boolean structure (`And`/`Or`/`True` entries, or
    /// `Until`s whose acceptance status coincides) are cover-equivalent
    /// and merge here — the original GPVW `(Old, Next)` key keeps them
    /// apart and emits duplicate states.
    done: HashMap<(Vec<Lit>, u32, Vec<Fid>), usize>,
    /// Legacy `(Old, Next)` node key, used when pruning is off.
    done_legacy: HashMap<(Vec<Fid>, Vec<Fid>), usize>,
    nodes: Vec<Node>,
    /// Until subformulas (fid of the Until, fid of its right operand).
    untils: Vec<(Fid, Fid)>,
    /// Whether the on-the-fly prunes (cover merging, branch subsumption,
    /// early contradiction drops) are active.
    prune: bool,
}

impl Translator {
    fn new(prune: bool) -> Self {
        Translator {
            formulas: Vec::new(),
            ids: HashMap::new(),
            done: HashMap::new(),
            done_legacy: HashMap::new(),
            nodes: Vec::new(),
            untils: Vec::new(),
            prune,
        }
    }

    /// Interns a core-NNF formula, decomposing it structurally.
    fn intern(&mut self, f: &Ltl) -> Fid {
        if let Some(&id) = self.ids.get(f) {
            return id;
        }
        let kind = match f.node() {
            LtlNode::True => FKind::True,
            LtlNode::False => FKind::False,
            LtlNode::Atom(s) => FKind::Lit(*s, true),
            LtlNode::Not(inner) => match inner.node() {
                LtlNode::Atom(s) => FKind::Lit(*s, false),
                _ => unreachable!("input must be in NNF"),
            },
            LtlNode::And(fs) => FKind::And(fs.iter().map(|g| self.intern(g)).collect()),
            LtlNode::Or(fs) => FKind::Or(fs.iter().map(|g| self.intern(g)).collect()),
            LtlNode::Next(g) => FKind::Next(self.intern(g)),
            LtlNode::Until(a, b) => {
                let (ia, ib) = (self.intern(a), self.intern(b));
                FKind::Until(ia, ib)
            }
            LtlNode::Release(a, b) => {
                let (ia, ib) = (self.intern(a), self.intern(b));
                FKind::Release(ia, ib)
            }
            LtlNode::Globally(_) | LtlNode::Finally(_) => {
                unreachable!("input must be in U/R-core form")
            }
        };
        let id = self.formulas.len() as Fid;
        self.formulas.push(kind.clone());
        self.ids.insert(f.clone(), id);
        if let FKind::Until(_, b) = kind {
            self.untils.push((id, b));
        }
        id
    }

    fn run(mut self, formula: &Ltl) -> Gba {
        let root = self.intern(formula);
        let start = Node {
            incoming: BTreeSet::from([INIT]),
            new: BTreeSet::from([root]),
            old: BTreeSet::new(),
            next: BTreeSet::new(),
        };
        // Explicit worklist: the recursive formulation of GPVW nests one
        // stack frame per processed formula *and* per generated node, which
        // overflows the native stack on moderately sized formulas.
        let mut work = vec![start];
        while let Some(node) = work.pop() {
            self.expand_step(node, &mut work);
        }
        self.finish()
    }

    /// The literal constraints a finished node's `Old` set induces.
    fn literals_of(&self, old: &BTreeSet<Fid>) -> Vec<Lit> {
        let mut literals: Vec<Lit> = old
            .iter()
            .filter_map(|&f| match self.formulas[f as usize] {
                FKind::Lit(s, p) => Some(Lit::new(s, p)),
                _ => None,
            })
            .collect();
        literals.sort();
        literals
    }

    /// The acceptance bits a finished node's `Old` set induces: for Until
    /// θ = aUb with index j, the state is in F_j iff θ ∉ Old or b ∈ Old.
    fn acc_of(&self, old: &BTreeSet<Fid>) -> u32 {
        let mut acc = 0u32;
        for (j, &(theta, b)) in self.untils.iter().enumerate() {
            if !old.contains(&theta) || old.contains(&b) {
                acc |= 1 << j;
            }
        }
        acc
    }

    /// Finishes a fully expanded node: merge with an equivalent finished
    /// node (cover key when pruning, the legacy `(Old, Next)` key
    /// otherwise) or emit it and queue its successor seed.
    fn finish_node(&mut self, mut node: Node, work: &mut Vec<Node>) {
        let found = if self.prune {
            let key = (
                self.literals_of(&node.old),
                self.acc_of(&node.old),
                node.next.iter().copied().collect::<Vec<_>>(),
            );
            self.done.get(&key).copied()
        } else {
            let key = (
                node.old.iter().copied().collect::<Vec<_>>(),
                node.next.iter().copied().collect::<Vec<_>>(),
            );
            self.done_legacy.get(&key).copied()
        };
        if let Some(existing) = found {
            let incoming = std::mem::take(&mut node.incoming);
            self.nodes[existing].incoming.extend(incoming);
            return;
        }
        let id = self.nodes.len();
        self.nodes.push(node.clone());
        if self.prune {
            let key = (
                self.literals_of(&node.old),
                self.acc_of(&node.old),
                node.next.iter().copied().collect::<Vec<_>>(),
            );
            self.done.insert(key, id);
        } else {
            let key = (
                node.old.iter().copied().collect::<Vec<_>>(),
                node.next.iter().copied().collect::<Vec<_>>(),
            );
            self.done_legacy.insert(key, id);
        }
        work.push(Node {
            incoming: BTreeSet::from([id]),
            new: node.next.clone(),
            old: BTreeSet::new(),
            next: BTreeSet::new(),
        });
    }

    /// One GPVW expansion step; pushes follow-up nodes on `work`.
    fn expand_step(&mut self, mut node: Node, work: &mut Vec<Node>) {
        let Some(&eta) = node.new.iter().next() else {
            self.finish_node(node, work);
            return;
        };
        node.new.remove(&eta);
        match self.formulas[eta as usize].clone() {
            FKind::False => { /* contradiction: drop the node */ }
            FKind::True => {
                work.push(node);
            }
            FKind::Lit(sig, pol) => {
                // Contradiction with Old?
                if self.lit_contradicts(&node.old, sig, pol) {
                    return;
                }
                node.old.insert(eta);
                work.push(node);
            }
            FKind::And(parts) => {
                // A part whose negation is already in Old kills the whole
                // node — drop it before expanding the rest.
                if parts.iter().any(|&p| self.fid_contradicts(&node.old, p)) {
                    return;
                }
                for p in parts {
                    if !node.old.contains(&p) {
                        node.new.insert(p);
                    }
                }
                node.old.insert(eta);
                work.push(node);
            }
            FKind::Or(parts) => {
                node.old.insert(eta);
                for p in parts {
                    // Literal-contradictory alternatives die later anyway;
                    // skipping them here avoids expanding their subtree.
                    if self.fid_contradicts(&node.old, p) {
                        continue;
                    }
                    let mut branch = node.clone();
                    if !branch.old.contains(&p) {
                        branch.new.insert(p);
                    }
                    work.push(branch);
                }
            }
            FKind::Next(g) => {
                node.old.insert(eta);
                node.next.insert(g);
                work.push(node);
            }
            FKind::Until(a, b) => {
                node.old.insert(eta);
                let b_known = self.prune && node.old.contains(&b);
                // Branch 1: b holds now.
                if !self.fid_contradicts(&node.old, b) {
                    let mut sat = node.clone();
                    if !sat.old.contains(&b) {
                        sat.new.insert(b);
                    }
                    work.push(sat);
                }
                // Branch 2: a holds now, Until postponed. When b already
                // holds, branch 1 is this very node with strictly weaker
                // obligations — the postponement is subsumed and skipped.
                if !b_known && !self.fid_contradicts(&node.old, a) {
                    let mut wait = node;
                    if !wait.old.contains(&a) {
                        wait.new.insert(a);
                    }
                    wait.next.insert(eta);
                    work.push(wait);
                }
            }
            FKind::Release(a, b) => {
                node.old.insert(eta);
                let discharged =
                    self.prune && node.old.contains(&a) && node.old.contains(&b);
                // Branch 1: a & b hold now (release discharged).
                if ![a, b]
                    .iter()
                    .any(|&p| self.fid_contradicts(&node.old, p))
                {
                    let mut done = node.clone();
                    for p in [a, b] {
                        if !done.old.contains(&p) {
                            done.new.insert(p);
                        }
                    }
                    work.push(done);
                }
                // Branch 2: b holds now, Release postponed — subsumed by
                // branch 1 when the release is already discharged.
                if !discharged && !self.fid_contradicts(&node.old, b) {
                    let mut wait = node;
                    if !wait.old.contains(&b) {
                        wait.new.insert(b);
                    }
                    wait.next.insert(eta);
                    work.push(wait);
                }
            }
        }
    }

    /// Whether adding the literal `(sig, pol)` to a node with `Old = old`
    /// would contradict an already-recorded literal.
    fn lit_contradicts(&self, old: &BTreeSet<Fid>, sig: SignalId, pol: bool) -> bool {
        self.lookup_lit(sig, !pol)
            .is_some_and(|neg| old.contains(&neg))
    }

    /// Whether the interned formula `f` is a literal contradicting `old`
    /// (an early-drop prune; always false in legacy mode, where the
    /// contradiction surfaces when the literal is processed).
    fn fid_contradicts(&self, old: &BTreeSet<Fid>, f: Fid) -> bool {
        if !self.prune {
            return false;
        }
        match self.formulas[f as usize] {
            FKind::Lit(s, p) => self.lit_contradicts(old, s, p),
            FKind::False => true,
            _ => false,
        }
    }

    /// Finds the interned id of a literal if it exists.
    fn lookup_lit(&self, sig: SignalId, pol: bool) -> Option<Fid> {
        // Linear scan is fine: formula closures are small.
        self.formulas.iter().position(|k| match k {
            FKind::Lit(s, p) => *s == sig && *p == pol,
            _ => false,
        }).map(|i| i as Fid)
    }

    fn finish(self) -> Gba {
        let n = self.nodes.len();
        let n_acc = self.untils.len() as u32;
        assert!(n_acc <= 32, "more than 32 Until subformulas");
        let mut states = Vec::with_capacity(n);
        for node in &self.nodes {
            states.push(GbaState {
                literals: self.literals_of(&node.old),
                acc: self.acc_of(&node.old),
            });
        }
        let mut initial = Vec::new();
        let mut succs: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (id, node) in self.nodes.iter().enumerate() {
            for &inc in &node.incoming {
                if inc == INIT {
                    initial.push(id as u32);
                } else {
                    succs[inc].push(id as u32);
                }
            }
        }
        for s in &mut succs {
            s.sort_unstable();
            s.dedup();
        }
        initial.sort_unstable();
        initial.dedup();
        Gba {
            states,
            initial,
            succs,
            n_acc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dic_logic::SignalTable;

    fn tr(src: &str) -> (Gba, SignalTable) {
        let mut t = SignalTable::new();
        let f = Ltl::parse(src, &mut t).expect("parse");
        (translate(&f), t)
    }

    #[test]
    fn translate_atom() {
        let (gba, _t) = tr("p");
        // One state requiring p (then anything), plus the "anything" sink.
        assert!(gba.num_states() >= 1);
        assert!(!gba.initial().is_empty());
        assert_eq!(gba.num_acceptance_sets(), 0);
        // Every initial state requires p.
        for &q in gba.initial() {
            assert!(gba.state(q).literals().iter().any(|l| l.polarity()));
        }
    }

    #[test]
    fn translate_globally() {
        let (gba, _t) = tr("G p");
        assert_eq!(gba.num_acceptance_sets(), 0); // G == false R p, no Until
        // All reachable states require p and loop.
        for &q in gba.initial() {
            assert_eq!(gba.state(q).literals().len(), 1);
            assert!(!gba.successors(q).is_empty());
        }
    }

    #[test]
    fn translate_until_has_acceptance() {
        let (gba, _t) = tr("p U q");
        assert_eq!(gba.num_acceptance_sets(), 1);
        // There must exist a state satisfying the acceptance bit (q seen).
        assert!(gba.states().iter().any(|s| s.acc_bits() == 1));
        // And a pending state not in the acceptance set.
        assert!(gba.states().iter().any(|s| s.acc_bits() == 0));
    }

    #[test]
    fn contradictory_nodes_pruned() {
        let (gba, _t) = tr("p & !p");
        assert_eq!(gba.initial().len(), 0, "unsatisfiable boolean has no states");
    }

    #[test]
    fn gf_has_one_acceptance_set() {
        let (gba, _t) = tr("G F p");
        assert_eq!(gba.num_acceptance_sets(), 1);
        assert!(gba.num_states() >= 2);
    }

    #[test]
    fn literal_sets_are_consistent() {
        let (gba, _t) = tr("(p U q) & (!p U r) & F(p & q)");
        for s in gba.states() {
            for w in s.literals().windows(2) {
                assert!(
                    w[0].signal() != w[1].signal(),
                    "state carries contradictory or duplicate literals"
                );
            }
        }
    }

    #[test]
    fn dot_export_shape() {
        let mut t = dic_logic::SignalTable::new();
        let f = Ltl::parse("p U q", &mut t).expect("parse");
        let gba = translate(&f);
        let dot = gba.to_dot(&t);
        assert!(dot.contains("digraph gba"));
        assert!(dot.contains("doublecircle"));
        assert!(dot.contains("->"));
        let stats = gba.stats();
        assert_eq!(stats.acceptance_sets, 1);
        assert!(stats.states >= 2);
        assert!(stats.initial >= 1);
    }

    #[test]
    fn state_count_reasonable_for_patterns() {
        // GPVW is not minimal, but known patterns must stay small.
        let (g1, _) = tr("G(req -> F grant)");
        assert!(g1.num_states() <= 16, "got {}", g1.num_states());
        let (g2, _) = tr("p U (q U r)");
        assert!(g2.num_states() <= 16);
    }
}
