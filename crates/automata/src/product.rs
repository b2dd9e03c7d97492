//! Generalized-Büchi emptiness via Tarjan SCCs, with lasso extraction.
//!
//! The search works on an abstract rooted graph whose nodes carry
//! acceptance bitmasks. A counterexample exists iff some reachable
//! non-trivial SCC covers every acceptance bit; the witness is assembled as
//! a lasso: shortest path to the SCC, then a cycle inside it that touches
//! one state per acceptance set.
//!
//! The kernel numbers nodes by DFS discovery order and keeps every
//! per-node fact (lowlink, stack membership, acceptance bits, self-loop) in
//! flat vectors indexed by that number; one hash map takes a node to its
//! number. Witnesses depend only on the order in which roots and
//! successors are visited.

use crate::gba::Gba;
use dic_logic::hashing::FastMap;
use crate::system::TransitionSystem;
use std::cell::RefCell;
use std::hash::Hash;

/// An implicitly-represented rooted graph with per-node acceptance bits.
pub(crate) trait SccGraph {
    /// Node type (small and copyable).
    type Node: Copy + Eq + Hash;
    /// Root nodes the search starts from, in search order.
    fn roots(&self) -> Vec<Self::Node>;
    /// Appends the successors of `n` to `out`, in search order.
    fn succs_into(&self, n: Self::Node, out: &mut Vec<Self::Node>);
    /// Acceptance bits of a node.
    fn bits(&self, n: Self::Node) -> u32;

    /// Successors of a node, in search order.
    #[cfg(test)]
    fn succs(&self, n: Self::Node) -> Vec<Self::Node> {
        let mut out = Vec::new();
        self.succs_into(n, &mut out);
        out
    }
}

/// The product of a transition system and a GBA.
///
/// A product node pairs a system state with an automaton state whose
/// literals its label satisfies. That test goes through a table filled on
/// first sight of each label id ([`TransitionSystem::label_id`]): one row
/// of `⌈|Q|/64⌉` words per label, bit `q` set iff state `q` is compatible
/// with the label. A base product has far fewer labels than edges, so
/// each edge pays one bit test per automaton successor instead of a scan
/// of that successor's literals. Successors keep `gba.successors(q)`
/// order, so the search visits what a literal scan would, in that order.
pub(crate) struct Product<'a, S: TransitionSystem> {
    sys: &'a S,
    gba: &'a Gba,
    compat: RefCell<CompatTable>,
}

/// The label-indexed compatibility rows of a [`Product`].
struct CompatTable {
    /// Words per row: `⌈|Q|/64⌉`.
    words: usize,
    /// Per label id: 1 + the start of its row in `rows`, or 0 while the
    /// row is unfilled (so the vector starts zeroed).
    slot: Vec<u32>,
    /// The filled rows, `words` words each, in fill order.
    rows: Vec<u64>,
}

impl CompatTable {
    /// The start in `rows` of the row of `state`'s label, filled first if
    /// this is the label's first sight.
    fn row<S: TransitionSystem>(&mut self, sys: &S, gba: &Gba, state: u32) -> usize {
        let id = sys.label_id(state) as usize;
        if let Some(start) = self.slot[id].checked_sub(1) {
            return start as usize;
        }
        let start = self.rows.len();
        self.rows.resize(start + self.words, 0);
        let label = sys.label(state);
        for q in 0..gba.num_states() as u32 {
            if gba.state(q).compatible(label) {
                self.rows[start + (q / 64) as usize] |= 1 << (q % 64);
            }
        }
        self.slot[id] = u32::try_from(start + 1).expect("label rows fit u32");
        start
    }

    /// Whether automaton state `q` is set in the row starting at `row`.
    fn has(&self, row: usize, q: u32) -> bool {
        self.rows[row + (q / 64) as usize] >> (q % 64) & 1 != 0
    }
}

impl<'a, S: TransitionSystem> Product<'a, S> {
    pub fn new(sys: &'a S, gba: &'a Gba) -> Self {
        let compat = CompatTable {
            words: gba.num_states().div_ceil(64),
            slot: vec![0; sys.num_label_ids()],
            rows: Vec::new(),
        };
        Product {
            sys,
            gba,
            compat: RefCell::new(compat),
        }
    }

    /// The joint acceptance mask: system fairness bits first, then the
    /// automaton's acceptance sets.
    pub fn joint_mask(&self) -> u32 {
        let sys = self.sys.num_acc_sets();
        let total = sys + self.gba.num_acceptance_sets();
        assert!(total <= 32, "too many joint acceptance sets");
        mask_of(total)
    }
}

impl<S: TransitionSystem> SccGraph for Product<'_, S> {
    type Node = (u32, u32); // (system state, automaton state)

    fn roots(&self) -> Vec<Self::Node> {
        let mut compat = self.compat.borrow_mut();
        let mut out = Vec::new();
        for k in self.sys.initial_states() {
            let row = compat.row(self.sys, self.gba, k);
            for &q in self.gba.initial() {
                if compat.has(row, q) {
                    out.push((k, q));
                }
            }
        }
        out
    }

    fn succs_into(&self, (k, q): Self::Node, out: &mut Vec<Self::Node>) {
        let mut compat = self.compat.borrow_mut();
        let next = self.gba.successors(q);
        self.sys.for_each_successor(k, |k2| {
            let row = compat.row(self.sys, self.gba, k2);
            for &q2 in next {
                if compat.has(row, q2) {
                    out.push((k2, q2));
                }
            }
        });
    }

    fn bits(&self, (k, q): Self::Node) -> u32 {
        self.sys.acc_bits(k) | self.gba.state(q).acc_bits() << self.sys.num_acc_sets()
    }
}

/// A transition system alone as a graph: the emptiness search of a query
/// that conjoins no automaton.
pub(crate) struct SystemGraph<'a, S: TransitionSystem>(pub &'a S);

impl<S: TransitionSystem> SystemGraph<'_, S> {
    /// The system's fairness mask.
    pub fn mask(&self) -> u32 {
        mask_of(self.0.num_acc_sets())
    }
}

impl<S: TransitionSystem> SccGraph for SystemGraph<'_, S> {
    type Node = u32;

    fn roots(&self) -> Vec<u32> {
        self.0.initial_states()
    }

    fn succs_into(&self, n: u32, out: &mut Vec<u32>) {
        self.0.for_each_successor(n, |m| out.push(m));
    }

    fn bits(&self, n: u32) -> u32 {
        self.0.acc_bits(n)
    }
}

/// The bitmask with the low `n` bits set.
fn mask_of(n: u32) -> u32 {
    if n >= 32 {
        u32::MAX
    } else {
        (1u32 << n) - 1
    }
}

/// The synchronous product of a transition system with *several* GBAs at
/// once (one per specification property).
///
/// Translating a conjunction `R1 ∧ … ∧ Rn ∧ ¬A` through one GPVW call
/// explodes: the tableau enumerates subsets of the combined closure. This
/// product keeps one small automaton per conjunct instead, and controls the
/// remaining tuple blowup with *on-the-fly subset determinization* of the
/// safety conjuncts:
///
/// * an automaton with **no acceptance set** (no `Until` — the
///   `G(x -> X y)`-shaped bulk of RTL suites) accepts a word iff it has
///   *some* infinite run on it; by König's lemma that holds iff the set of
///   states reachable on each prefix stays non-empty, so the component can
///   be tracked as one deterministic bitmask — zero branching;
/// * automata **with** acceptance sets (liveness: `F`, `U`, `G F`) must
///   keep their explicit nondeterministic states, because acceptance
///   depends on *which* run is taken; their bits are packed side by side
///   into one generalized acceptance mask.
///
/// Safety automata wider than 64 states (rare) fall back to the explicit
/// branching representation.
pub(crate) struct MultiProduct<'a, S: TransitionSystem> {
    pub sys: &'a S,
    /// Subset-determinized safety components (≤ 64 states each).
    safety: Vec<&'a Gba>,
    /// Explicit components (liveness, or oversized safety).
    explicit: Vec<&'a Gba>,
    /// Bit offset of each explicit automaton's acceptance sets.
    offsets: Vec<u32>,
    /// Interned (safety bitmasks, explicit states) tuples.
    tuples: RefCell<TupleTable>,
    /// Reused buffers of successor generation.
    scratch: RefCell<Scratch>,
}

/// Interning table for product tuples. A tuple is one word per safety
/// automaton (its state bitmask) followed by one per explicit automaton
/// (its state); tuples are stored flat, `width` words each, in id order.
#[derive(Default)]
struct TupleTable {
    by_key: FastMap<Box<[u64]>, u32>,
    words: Vec<u64>,
    width: usize,
    /// Acceptance bits of each tuple's explicit states, at their offsets.
    bits: Vec<u32>,
}

impl TupleTable {
    /// The id of `key`, interned with `bits()` on first sight.
    fn intern(&mut self, key: &[u64], bits: impl FnOnce() -> u32) -> u32 {
        if let Some(&id) = self.by_key.get(key) {
            return id;
        }
        let id = self.bits.len() as u32;
        self.words.extend_from_slice(key);
        self.bits.push(bits());
        self.by_key.insert(key.into(), id);
        id
    }

    fn tuple(&self, id: u32) -> &[u64] {
        let at = id as usize * self.width;
        &self.words[at..at + self.width]
    }
}

/// Successor-generation buffers of a [`MultiProduct`].
#[derive(Default)]
struct Scratch {
    /// The source tuple, copied out of the table before it grows.
    prev: Vec<u64>,
    /// The tuple under construction.
    key: Vec<u64>,
    /// Compatible states of each explicit component, one after another.
    choices: Vec<u32>,
    /// End of each component's run in `choices`.
    ends: Vec<usize>,
    /// Current choice of each component while enumerating branches.
    cursor: Vec<usize>,
}

impl<'a, S: TransitionSystem> MultiProduct<'a, S> {
    /// Builds the product; panics if the packed acceptance mask would
    /// exceed 32 bits (far beyond the suites this tool targets).
    pub fn new(sys: &'a S, gbas: &[&'a Gba]) -> Self {
        let mut safety = Vec::new();
        let mut explicit = Vec::new();
        for &g in gbas {
            if g.num_acceptance_sets() == 0 && g.num_states() <= 64 {
                safety.push(g);
            } else {
                explicit.push(g);
            }
        }
        let mut offsets = Vec::with_capacity(explicit.len());
        let mut total = sys.num_acc_sets();
        for g in &explicit {
            offsets.push(total);
            total += g.num_acceptance_sets();
        }
        assert!(total <= 32, "too many Until subformulas across the spec");
        let tuples = TupleTable {
            width: safety.len() + explicit.len(),
            ..TupleTable::default()
        };
        MultiProduct {
            sys,
            safety,
            explicit,
            offsets,
            tuples: RefCell::new(tuples),
            scratch: RefCell::default(),
        }
    }

    /// The packed all-bits mask: system fairness bits first, then every
    /// explicit component's acceptance sets.
    pub fn full_mask(&self) -> u32 {
        let total: u32 = self.sys.num_acc_sets()
            + self
                .explicit
                .iter()
                .map(|g| g.num_acceptance_sets())
                .sum::<u32>();
        mask_of(total)
    }

    /// Advances one safety bitmask over an edge to a state labelled
    /// `label`; `from_initial` selects the automaton's initial states as
    /// sources. Returns `None` when the subset dies (word rejected).
    fn step_safety(
        g: &Gba,
        mask: u64,
        label: &dic_logic::Valuation,
        from_initial: bool,
    ) -> Option<u64> {
        let mut next = 0u64;
        if from_initial {
            for &q in g.initial() {
                if g.state(q).compatible(label) {
                    next |= 1 << q;
                }
            }
        } else {
            let mut m = mask;
            while m != 0 {
                let q = m.trailing_zeros();
                m &= m - 1;
                for &q2 in g.successors(q) {
                    if next >> q2 & 1 == 0 && g.state(q2).compatible(label) {
                        next |= 1 << q2;
                    }
                }
            }
        }
        (next != 0).then_some(next)
    }

    /// Acceptance bits of the explicit states in `tuple`.
    fn explicit_bits(&self, tuple: &[u64]) -> u32 {
        let states = &tuple[self.safety.len()..];
        let mut bits = 0;
        for ((g, &q), &off) in self.explicit.iter().zip(states).zip(&self.offsets) {
            bits |= g.state(q as u32).acc_bits() << off;
        }
        bits
    }

    /// Appends every product continuation into system state `k` to `out`;
    /// `prev` is the source tuple, `None` for the initial step. Branches
    /// come in lexicographic order of the explicit components' choices,
    /// the first component most significant.
    fn continuations(
        &self,
        k: u32,
        prev: Option<&[u64]>,
        scratch: &mut Scratch,
        table: &mut TupleTable,
        out: &mut Vec<(u32, u32)>,
    ) {
        let label = self.sys.label(k);
        // Safety components are deterministic: advance every bitmask, give
        // up on this branch as soon as one dies.
        scratch.key.clear();
        for (i, g) in self.safety.iter().enumerate() {
            let (mask, initial) = match prev {
                None => (0, true),
                Some(t) => (t[i], false),
            };
            match Self::step_safety(g, mask, label, initial) {
                Some(next) => scratch.key.push(next),
                None => return,
            }
        }
        let n_safety = self.safety.len();
        scratch.choices.clear();
        scratch.ends.clear();
        for (i, g) in self.explicit.iter().enumerate() {
            let sources = match prev {
                None => g.initial(),
                Some(t) => g.successors(t[n_safety + i] as u32),
            };
            let begin = scratch.choices.len();
            for &q2 in sources {
                if g.state(q2).compatible(label) {
                    scratch.choices.push(q2);
                }
            }
            if scratch.choices.len() == begin {
                return;
            }
            scratch.ends.push(scratch.choices.len());
        }
        let Scratch {
            key,
            choices,
            ends,
            cursor,
            ..
        } = scratch;
        cursor.clear();
        cursor.extend(std::iter::once(0).chain(ends.iter().copied()).take(ends.len()));
        loop {
            key.truncate(n_safety);
            key.extend(cursor.iter().map(|&c| u64::from(choices[c])));
            let id = table.intern(key, || self.explicit_bits(key));
            out.push((k, id));
            // Odometer step, last component fastest.
            let mut i = cursor.len();
            loop {
                if i == 0 {
                    return;
                }
                i -= 1;
                cursor[i] += 1;
                if cursor[i] < ends[i] {
                    break;
                }
                cursor[i] = if i == 0 { 0 } else { ends[i - 1] };
            }
        }
    }
}

impl<S: TransitionSystem> SccGraph for MultiProduct<'_, S> {
    type Node = (u32, u32); // (system state, tuple id)

    fn roots(&self) -> Vec<Self::Node> {
        let mut out = Vec::new();
        let mut scratch = self.scratch.borrow_mut();
        let mut table = self.tuples.borrow_mut();
        for k in self.sys.initial_states() {
            self.continuations(k, None, &mut scratch, &mut table, &mut out);
        }
        out
    }

    fn succs_into(&self, (k, tid): Self::Node, out: &mut Vec<Self::Node>) {
        let mut scratch = self.scratch.borrow_mut();
        let mut table = self.tuples.borrow_mut();
        let mut prev = std::mem::take(&mut scratch.prev);
        prev.clear();
        prev.extend_from_slice(table.tuple(tid));
        self.sys.for_each_successor(k, |k2| {
            self.continuations(k2, Some(&prev), &mut scratch, &mut table, out);
        });
        scratch.prev = prev;
    }

    fn bits(&self, (k, tid): Self::Node) -> u32 {
        self.sys.acc_bits(k) | self.tuples.borrow().bits[tid as usize]
    }
}

/// The GBA alone as a graph (its states are internally consistent, so any
/// accepting lasso of the automaton denotes a real word — this decides LTL
/// satisfiability without building a 2^AP product).
pub(crate) struct GbaGraph<'a>(pub &'a Gba);

impl SccGraph for GbaGraph<'_> {
    type Node = u32;

    fn roots(&self) -> Vec<u32> {
        self.0.initial().to_vec()
    }

    fn succs_into(&self, n: u32, out: &mut Vec<u32>) {
        out.extend_from_slice(self.0.successors(n));
    }

    fn bits(&self, n: u32) -> u32 {
        self.0.state(n).acc_bits()
    }
}

/// The synchronous product of two automata as a graph. A node is a pair
/// of states whose literal constraints do not clash, so some letter
/// satisfies both, and an accepting lasso of the product denotes a word
/// both automata accept: this decides the satisfiability of a conjunction
/// from the automata of its conjuncts. The second automaton's acceptance
/// bits sit above the first's.
pub(crate) struct GbaPairGraph<'a>(pub &'a Gba, pub &'a Gba);

impl GbaPairGraph<'_> {
    /// The joint acceptance mask, or `None` when the two automata have
    /// more than 32 acceptance sets between them.
    pub fn joint_mask(&self) -> Option<u32> {
        let total = self.0.num_acceptance_sets() + self.1.num_acceptance_sets();
        (total <= 32).then(|| mask_of(total))
    }

    /// Appends the pairs of `lefts × rights` whose literal constraints do
    /// not clash, left-major.
    fn push_joint(&self, lefts: &[u32], rights: &[u32], out: &mut Vec<(u32, u32)>) {
        for &p in lefts {
            let lits = self.0.state(p).literals();
            for &q in rights {
                let right = self.1.state(q).literals();
                if !lits.iter().any(|l| right.contains(&l.negated())) {
                    out.push((p, q));
                }
            }
        }
    }
}

impl SccGraph for GbaPairGraph<'_> {
    type Node = (u32, u32); // (left state, right state)

    fn roots(&self) -> Vec<Self::Node> {
        let mut out = Vec::new();
        self.push_joint(self.0.initial(), self.1.initial(), &mut out);
        out
    }

    fn succs_into(&self, (p, q): Self::Node, out: &mut Vec<Self::Node>) {
        self.push_joint(self.0.successors(p), self.1.successors(q), out);
    }

    fn bits(&self, (p, q): Self::Node) -> u32 {
        // A 32-set left automaton leaves no room above it, and then the
        // right one has no sets: its bits are all zero.
        let high = self.1.state(q).acc_bits();
        self.0.state(p).acc_bits() | high.checked_shl(self.0.num_acceptance_sets()).unwrap_or(0)
    }
}

/// A lasso `(states, loop_start)`: `states[loop_start..]` is the cycle
/// (the successor of the last state is `states[loop_start]`).
pub(crate) type Lasso<N> = (Vec<N>, usize);

/// Searches for an accepting lasso: a path from a root to a cycle whose
/// states jointly cover `full_mask`.
pub(crate) fn find_accepting_lasso<G: SccGraph>(g: &G, full_mask: u32) -> Option<Lasso<G::Node>> {
    let mut search = Search::new(g);
    let scc = search.accepting_scc(full_mask)?;
    Some(search.lasso(&scc, full_mask))
}

/// Whether [`find_accepting_lasso`] would find a lasso, decided by the
/// same search stopped at the accepting SCC: no lasso is built.
pub(crate) fn has_accepting_lasso<G: SccGraph>(g: &G, full_mask: u32) -> bool {
    Search::new(g).accepting_scc(full_mask).is_some()
}

/// Where a lasso BFS stops.
#[derive(Clone, Copy)]
enum Goal {
    /// At this node.
    Node(u32),
    /// At any node carrying one of these acceptance bits.
    AnyBit(u32),
}

/// Unseen slot of a BFS parent array.
const UNSEEN: u32 = u32::MAX;

/// State of one emptiness search and of its lasso extraction.
struct Search<'g, G: SccGraph> {
    g: &'g G,
    /// Node → id.
    index: FastMap<G::Node, u32>,
    /// Nodes by id. Ids `0..visited` number the nodes the Tarjan search
    /// discovered, in DFS order (they double as Tarjan's indices); the
    /// prefix BFS of a lasso may append nodes the search never reached.
    nodes: Vec<G::Node>,
    /// Per Tarjan id: acceptance bits, recorded once at discovery.
    bits: Vec<u32>,
    /// Per Tarjan id: lowlink.
    low: Vec<u32>,
    /// Per Tarjan id: whether the node is on the Tarjan stack.
    on_stack: Vec<bool>,
    /// Per Tarjan id: whether the node has an edge to itself.
    self_loop: Vec<bool>,
    /// Number of nodes the Tarjan search numbered.
    visited: u32,
    /// Successor buffer reused by every BFS step.
    succ: Vec<G::Node>,
}

impl<'g, G: SccGraph> Search<'g, G> {
    fn new(g: &'g G) -> Self {
        Search {
            g,
            index: FastMap::default(),
            nodes: Vec::new(),
            bits: Vec::new(),
            low: Vec::new(),
            on_stack: Vec::new(),
            self_loop: Vec::new(),
            visited: 0,
            succ: Vec::new(),
        }
    }

    /// The id of `n`, if it has one.
    fn id_of(&self, n: G::Node) -> Option<u32> {
        self.index.get(&n).copied()
    }

    /// Gives `n` the next id.
    fn push_node(&mut self, n: G::Node) -> u32 {
        let id = self.nodes.len() as u32;
        self.index.insert(n, id);
        self.nodes.push(n);
        id
    }

    /// The id of `n`, numbering it first if it has none.
    fn intern(&mut self, n: G::Node) -> u32 {
        match self.id_of(n) {
            Some(id) => id,
            None => self.push_node(n),
        }
    }

    /// Numbers a node the Tarjan search discovers and pushes it on the
    /// Tarjan stack.
    fn discover(&mut self, n: G::Node, stack: &mut Vec<u32>) -> u32 {
        let id = self.push_node(n);
        self.bits.push(self.g.bits(n));
        self.low.push(id);
        self.on_stack.push(true);
        self.self_loop.push(false);
        stack.push(id);
        id
    }

    /// Iterative Tarjan search; returns the ids of the first reachable SCC
    /// that is non-trivial (contains an edge) and covers `full_mask`, in
    /// Tarjan-stack pop order (the most recently discovered member first).
    fn accepting_scc(&mut self, full_mask: u32) -> Option<Vec<u32>> {
        /// An open DFS frame; its successors are `arena[start..]` up to the
        /// next frame's `start`, and `next` is the first unvisited one.
        struct Frame {
            id: u32,
            start: usize,
            next: usize,
        }
        let g = self.g;
        let mut arena: Vec<G::Node> = Vec::new();
        let mut call: Vec<Frame> = Vec::new();
        let mut stack: Vec<u32> = Vec::new();
        let mut found = None;

        'roots: for root in g.roots() {
            if self.id_of(root).is_some() {
                continue;
            }
            let id = self.discover(root, &mut stack);
            let start = arena.len();
            g.succs_into(root, &mut arena);
            call.push(Frame {
                id,
                start,
                next: start,
            });

            while let Some(frame) = call.last_mut() {
                if frame.next < arena.len() {
                    let child = arena[frame.next];
                    frame.next += 1;
                    let parent = frame.id as usize;
                    match self.id_of(child) {
                        None => {
                            let id = self.discover(child, &mut stack);
                            let start = arena.len();
                            g.succs_into(child, &mut arena);
                            call.push(Frame {
                                id,
                                start,
                                next: start,
                            });
                        }
                        Some(c) => {
                            let c = c as usize;
                            if c == parent {
                                self.self_loop[c] = true;
                            }
                            if self.on_stack[c] {
                                self.low[parent] = self.low[parent].min(c as u32);
                            }
                        }
                    }
                } else {
                    // Post-order: pop the frame, maybe emit its SCC.
                    let Frame { id, start, .. } = call.pop().expect("non-empty");
                    arena.truncate(start);
                    let node = id as usize;
                    if let Some(parent) = call.last() {
                        let p = parent.id as usize;
                        self.low[p] = self.low[p].min(self.low[node]);
                    }
                    if self.low[node] == id {
                        // The stack holds ids in increasing order, so the
                        // SCC is the suffix starting at `id`.
                        let at = stack.iter().rposition(|&m| m == id).expect("scc root");
                        let mut bits = 0u32;
                        for &m in &stack[at..] {
                            bits |= self.bits[m as usize];
                            self.on_stack[m as usize] = false;
                        }
                        // Accepting? Needs all bits and at least one edge.
                        let nontrivial = stack.len() - at > 1 || self.self_loop[node];
                        if bits & full_mask == full_mask && nontrivial {
                            found = Some(stack[at..].iter().rev().copied().collect());
                            break 'roots;
                        }
                        stack.truncate(at);
                    }
                }
            }
        }
        self.visited = self.nodes.len() as u32;
        // Every distinct state this search visited has an id: flush the
        // count once, not per node.
        if dic_trace::enabled() {
            dic_trace::count(
                dic_trace::Counter::ExplicitStatesExpanded,
                u64::from(self.visited),
            );
        }
        found
    }

    /// The lasso through the accepting SCC `scc` (as returned by
    /// [`Search::accepting_scc`]): the shortest path from the roots to the
    /// SCC's first member, then a cycle inside the SCC that covers
    /// `full_mask` and returns to that member.
    fn lasso(&mut self, scc: &[u32], full_mask: u32) -> Lasso<G::Node> {
        let entry = scc[0];
        let mut in_scc = vec![false; self.visited as usize];
        for &m in scc {
            in_scc[m as usize] = true;
        }

        // Prefix: BFS from roots to the SCC entry node.
        let roots: Vec<u32> = self.g.roots().into_iter().map(|n| self.intern(n)).collect();
        let prefix = self
            .bfs(&roots, Goal::Node(entry), None)
            .expect("the Tarjan search reached the entry from a root");

        // Cycle inside the SCC covering all bits, returning to `entry`.
        let mut cycle: Vec<u32> = vec![entry];
        let mut covered = self.bits[entry as usize];
        let mut cur = entry;
        while covered & full_mask != full_mask {
            let missing = full_mask & !covered;
            // Walk to any node providing a missing bit, staying in the SCC.
            let hop = self
                .bfs(&[cur], Goal::AnyBit(missing), Some(&in_scc))
                .expect("SCC covers the mask, so a provider is reachable inside it");
            for &n in &hop[1..] {
                covered |= self.bits[n as usize];
                cycle.push(n);
            }
            cur = *cycle.last().expect("non-empty");
        }
        // Close the cycle back to `entry` with at least one edge.
        let mut starts = Vec::new();
        self.scc_succs(cur, &in_scc, &mut starts);
        let back = self
            .bfs(&starts, Goal::Node(entry), Some(&in_scc))
            .expect("SCC is strongly connected");
        cycle.extend(back);
        // `cycle` now starts and ends at `entry`; drop the duplicate.
        debug_assert!(cycle[0] == *cycle.last().expect("non-empty"));
        cycle.pop();

        let mut states = prefix;
        states.pop(); // prefix ends at entry; the cycle re-adds it
        let loop_start = states.len();
        states.extend(cycle);
        let states = states.iter().map(|&id| self.nodes[id as usize]).collect();
        (states, loop_start)
    }

    /// Appends the ids of `id`'s successors that lie in the SCC to `out`,
    /// in successor order.
    fn scc_succs(&mut self, id: u32, in_scc: &[bool], out: &mut Vec<u32>) {
        let mut succ = std::mem::take(&mut self.succ);
        succ.clear();
        self.g.succs_into(self.nodes[id as usize], &mut succ);
        for &m in &succ {
            // Every successor of an SCC member was numbered by the search.
            if let Some(m) = self.id_of(m).filter(|&m| in_scc.get(m as usize) == Some(&true)) {
                out.push(m);
            }
        }
        self.succ = succ;
    }

    /// BFS from `starts` to the first node meeting `goal`, over the whole
    /// graph (`in_scc = None`) or inside the SCC marked in `in_scc`;
    /// returns the path of ids, start and goal included.
    fn bfs(&mut self, starts: &[u32], goal: Goal, in_scc: Option<&[bool]>) -> Option<Vec<u32>> {
        // `parent[id]` is the BFS parent; a start is its own parent.
        let mut parent = vec![UNSEEN; self.nodes.len()];
        let mut queue: Vec<u32> = Vec::new();
        for &s in starts {
            if parent[s as usize] == UNSEEN {
                parent[s as usize] = s;
                queue.push(s);
            }
        }
        let mut succ = std::mem::take(&mut self.succ);
        let mut path = None;
        let mut head = 0;
        while let Some(&n) = queue.get(head) {
            head += 1;
            let reached = match goal {
                Goal::Node(target) => n == target,
                Goal::AnyBit(mask) => self.bits[n as usize] & mask != 0,
            };
            if reached {
                let mut p = vec![n];
                let mut cur = n;
                while parent[cur as usize] != cur {
                    cur = parent[cur as usize];
                    p.push(cur);
                }
                p.reverse();
                path = Some(p);
                break;
            }
            succ.clear();
            self.g.succs_into(self.nodes[n as usize], &mut succ);
            for &m in &succ {
                let m = match in_scc {
                    None => self.intern(m),
                    Some(in_scc) => match self.id_of(m) {
                        Some(m) if in_scc.get(m as usize) == Some(&true) => m,
                        _ => continue,
                    },
                };
                if m as usize >= parent.len() {
                    parent.resize(self.nodes.len(), UNSEEN);
                }
                if parent[m as usize] == UNSEEN {
                    parent[m as usize] = n;
                    queue.push(m);
                }
            }
        }
        self.succ = succ;
        path
    }
}

/// The hashed Tarjan search and BFS lasso the kernel above replaced, kept
/// as the reference its witnesses and visit counts are checked against.
#[cfg(test)]
mod reference {
    use super::{Lasso, SccGraph};
    use crate::gba::Gba;
    use dic_logic::hashing::{FastMap, FastSet};
    use crate::system::TransitionSystem;
    use std::collections::VecDeque;
    use std::hash::Hash;

    /// The product the label-indexed [`super::Product`] replaced: every
    /// pair of system successor and automaton successor scans the
    /// automaton state's literals against the system state's label.
    pub(super) struct LiteralProduct<'a, S> {
        pub sys: &'a S,
        pub gba: &'a Gba,
    }

    impl<S: TransitionSystem> SccGraph for LiteralProduct<'_, S> {
        type Node = (u32, u32);

        fn roots(&self) -> Vec<Self::Node> {
            let mut out = Vec::new();
            for k in self.sys.initial_states() {
                let label = self.sys.label(k);
                for &q in self.gba.initial() {
                    if self.gba.state(q).compatible(label) {
                        out.push((k, q));
                    }
                }
            }
            out
        }

        fn succs_into(&self, (k, q): Self::Node, out: &mut Vec<Self::Node>) {
            let next = self.gba.successors(q);
            self.sys.for_each_successor(k, |k2| {
                let label = self.sys.label(k2);
                for &q2 in next {
                    if self.gba.state(q2).compatible(label) {
                        out.push((k2, q2));
                    }
                }
            });
        }

        fn bits(&self, (k, q): Self::Node) -> u32 {
            self.sys.acc_bits(k) | self.gba.state(q).acc_bits() << self.sys.num_acc_sets()
        }
    }

    /// The lasso (as [`super::find_accepting_lasso`]) and the number of
    /// distinct nodes the Tarjan search numbered.
    pub(super) fn find_accepting_lasso<G: SccGraph>(
        g: &G,
        full_mask: u32,
    ) -> (Option<Lasso<G::Node>>, u32) {
        let (scc, visited) = find_accepting_scc(g, full_mask);
        let Some(scc) = scc else {
            return (None, visited);
        };
        let scc_set: FastSet<G::Node> = scc.iter().copied().collect();
        let entry = scc[0];
        let prefix = bfs_path(g.roots(), |n| n == entry, |n| g.succs(n)).expect("reached");
        let in_scc = |n: &G::Node| scc_set.contains(n);
        let mut cycle: Vec<G::Node> = vec![entry];
        let mut covered = g.bits(entry);
        let mut cur = entry;
        while covered & full_mask != full_mask {
            let missing = full_mask & !covered;
            let hop = bfs_path(
                vec![cur],
                |n| g.bits(n) & missing != 0,
                |n| g.succs(n).into_iter().filter(in_scc).collect(),
            )
            .expect("provider inside the SCC");
            for n in hop.into_iter().skip(1) {
                covered |= g.bits(n);
                cycle.push(n);
            }
            cur = *cycle.last().expect("non-empty");
        }
        let back = bfs_path(
            g.succs(cur).into_iter().filter(in_scc).collect(),
            |n| n == entry,
            |n| g.succs(n).into_iter().filter(in_scc).collect(),
        )
        .expect("SCC is strongly connected");
        cycle.extend(back);
        cycle.pop();
        let mut states = prefix;
        states.pop();
        let loop_start = states.len();
        states.extend(cycle);
        (Some((states, loop_start)), visited)
    }

    fn bfs_path<N, FG, FS>(starts: Vec<N>, goal: FG, succs: FS) -> Option<Vec<N>>
    where
        N: Copy + Eq + Hash,
        FG: Fn(N) -> bool,
        FS: Fn(N) -> Vec<N>,
    {
        let mut parent: FastMap<N, Option<N>> = FastMap::default();
        let mut queue = VecDeque::new();
        for s in starts {
            if let std::collections::hash_map::Entry::Vacant(e) = parent.entry(s) {
                e.insert(None);
                queue.push_back(s);
            }
        }
        while let Some(n) = queue.pop_front() {
            if goal(n) {
                let mut path = vec![n];
                let mut cur = n;
                while let Some(Some(p)) = parent.get(&cur) {
                    path.push(*p);
                    cur = *p;
                }
                path.reverse();
                return Some(path);
            }
            for m in succs(n) {
                if let std::collections::hash_map::Entry::Vacant(e) = parent.entry(m) {
                    e.insert(Some(n));
                    queue.push_back(m);
                }
            }
        }
        None
    }

    fn find_accepting_scc<G: SccGraph>(g: &G, full_mask: u32) -> (Option<Vec<G::Node>>, u32) {
        struct Frame<N> {
            node: N,
            succs: Vec<N>,
            next_child: usize,
        }
        let mut index: FastMap<G::Node, u32> = FastMap::default();
        let mut lowlink: FastMap<G::Node, u32> = FastMap::default();
        let mut on_stack: FastSet<G::Node> = FastSet::default();
        let mut stack: Vec<G::Node> = Vec::new();
        let mut counter: u32 = 0;
        let mut call: Vec<Frame<G::Node>> = Vec::new();
        for root in g.roots() {
            if index.contains_key(&root) {
                continue;
            }
            index.insert(root, counter);
            lowlink.insert(root, counter);
            counter += 1;
            stack.push(root);
            on_stack.insert(root);
            call.push(Frame {
                node: root,
                succs: g.succs(root),
                next_child: 0,
            });
            while let Some(frame) = call.last_mut() {
                if frame.next_child < frame.succs.len() {
                    let child = frame.succs[frame.next_child];
                    frame.next_child += 1;
                    if let std::collections::hash_map::Entry::Vacant(e) = index.entry(child) {
                        e.insert(counter);
                        lowlink.insert(child, counter);
                        counter += 1;
                        stack.push(child);
                        on_stack.insert(child);
                        call.push(Frame {
                            node: child,
                            succs: g.succs(child),
                            next_child: 0,
                        });
                    } else if on_stack.contains(&child) {
                        let node = frame.node;
                        let low = lowlink[&node].min(index[&child]);
                        lowlink.insert(node, low);
                    }
                } else {
                    let node = frame.node;
                    call.pop();
                    if let Some(parent) = call.last() {
                        let low = lowlink[&parent.node].min(lowlink[&node]);
                        lowlink.insert(parent.node, low);
                    }
                    if lowlink[&node] == index[&node] {
                        let mut members = Vec::new();
                        loop {
                            let m = stack.pop().expect("scc member");
                            on_stack.remove(&m);
                            members.push(m);
                            if m == node {
                                break;
                            }
                        }
                        let mut bits = 0u32;
                        for &m in &members {
                            bits |= g.bits(m);
                        }
                        if bits & full_mask == full_mask {
                            let nontrivial = members.len() > 1
                                || g.succs(members[0]).contains(&members[0]);
                            if nontrivial {
                                return (Some(members), counter);
                            }
                        }
                    }
                }
            }
        }
        (None, counter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mc::{
        is_satisfiable_cube, is_satisfiable_in_conj, materialize_product, satisfiable_cube,
        satisfiable_in_conj, translate_cached,
    };
    use crate::system::CubeView;
    use dic_fsm::Kripke;
    use dic_logic::{BoolExpr, Lit, SignalId, SignalTable};
    use dic_ltl::random::{random_formula, XorShift64};
    use dic_ltl::{Ltl, TemporalCube};
    use dic_netlist::ModuleBuilder;
    use proptest::prelude::*;

    /// A tiny hand-built graph for direct SCC testing.
    struct Toy {
        roots: Vec<u32>,
        edges: Vec<Vec<u32>>,
        bits: Vec<u32>,
    }

    impl SccGraph for Toy {
        type Node = u32;
        fn roots(&self) -> Vec<u32> {
            self.roots.clone()
        }
        fn succs_into(&self, n: u32, out: &mut Vec<u32>) {
            out.extend_from_slice(&self.edges[n as usize]);
        }
        fn bits(&self, n: u32) -> u32 {
            self.bits[n as usize]
        }
    }

    /// The kernel's lasso and visit count, checked against the reference
    /// search and against the verdict-only entry point.
    fn assert_matches_reference<G: SccGraph>(g: &G, mask: u32) -> Option<Lasso<G::Node>>
    where
        G::Node: std::fmt::Debug,
    {
        let mut search = Search::new(g);
        let scc = search.accepting_scc(mask);
        let visited = search.visited;
        let lasso = scc.map(|scc| search.lasso(&scc, mask));
        let (expected, expected_visited) = reference::find_accepting_lasso(g, mask);
        assert_eq!(lasso, expected, "lasso differs from the reference");
        assert_eq!(visited, expected_visited, "visit count differs from the reference");
        assert_eq!(has_accepting_lasso(g, mask), lasso.is_some());
        assert_eq!(find_accepting_lasso(g, mask), lasso);
        lasso
    }

    #[test]
    fn finds_self_loop() {
        // 0 -> 1 -> 1 (self loop with bit 0).
        let g = Toy {
            roots: vec![0],
            edges: vec![vec![1], vec![1]],
            bits: vec![0, 1],
        };
        let (states, loop_start) = find_accepting_lasso(&g, 1).expect("accepting");
        assert_eq!(states, vec![0, 1]);
        assert_eq!(loop_start, 1);
    }

    #[test]
    fn rejects_trivial_scc() {
        // 0 -> 1, no cycle at all.
        let g = Toy {
            roots: vec![0],
            edges: vec![vec![1], vec![]],
            bits: vec![1, 1],
        };
        assert!(find_accepting_lasso(&g, 1).is_none());
        assert!(!has_accepting_lasso(&g, 1));
    }

    #[test]
    fn needs_all_bits_in_one_scc() {
        // Two separate loops, each with one bit: neither covers both.
        let g = Toy {
            roots: vec![0],
            edges: vec![vec![0, 1], vec![1]],
            bits: vec![0b01, 0b10],
        };
        assert!(find_accepting_lasso(&g, 0b11).is_none());
        // One loop containing both bits works.
        let g2 = Toy {
            roots: vec![0],
            edges: vec![vec![1], vec![0]],
            bits: vec![0b01, 0b10],
        };
        let (states, loop_start) = find_accepting_lasso(&g2, 0b11).expect("accepting");
        // Cycle must contain both states.
        let cycle: Vec<u32> = states[loop_start..].to_vec();
        assert!(cycle.contains(&0) && cycle.contains(&1));
    }

    #[test]
    fn zero_mask_accepts_any_cycle() {
        let g = Toy {
            roots: vec![0],
            edges: vec![vec![1], vec![0]],
            bits: vec![0, 0],
        };
        let (states, loop_start) = find_accepting_lasso(&g, 0).expect("any cycle");
        assert!(states.len() - loop_start >= 1);
    }

    #[test]
    fn unreachable_accepting_scc_ignored() {
        // Accepting loop at 2 is unreachable from root 0.
        let g = Toy {
            roots: vec![0],
            edges: vec![vec![0], vec![2], vec![2]],
            bits: vec![0, 0, 1],
        };
        assert!(find_accepting_lasso(&g, 1).is_none());
    }

    #[test]
    fn lasso_is_well_formed() {
        // Diamond into a 3-cycle with distributed bits.
        let g = Toy {
            roots: vec![0],
            edges: vec![vec![1, 2], vec![3], vec![3], vec![4], vec![5], vec![3]],
            bits: vec![0, 0, 0, 0b01, 0b10, 0],
        };
        let (states, loop_start) = find_accepting_lasso(&g, 0b11).expect("accepting");
        // Check edges along the path.
        for i in 0..states.len() - 1 {
            assert!(
                g.succs(states[i]).contains(&states[i + 1]),
                "broken edge {} -> {}",
                states[i],
                states[i + 1]
            );
        }
        // Loop closes.
        let last = *states.last().unwrap();
        assert!(g.succs(last).contains(&states[loop_start]));
        // Cycle covers both bits.
        let mut bits = 0;
        for &s in &states[loop_start..] {
            bits |= g.bits(s);
        }
        assert_eq!(bits & 0b11, 0b11);
    }

    #[test]
    fn prefix_may_run_through_nodes_the_search_never_reached() {
        // Root 0 reaches the accepting loop {3, 4} the long way; root 1,
        // never expanded because the search stops first, is one step from
        // it. The loop is entered at 4 (the last member discovered), and
        // the shortest prefix to it starts at root 1.
        let g = Toy {
            roots: vec![0, 1],
            edges: vec![vec![2], vec![3], vec![5], vec![4], vec![3], vec![3]],
            bits: vec![0, 0, 0, 1, 0, 0],
        };
        let (states, loop_start) = assert_matches_reference(&g, 1).expect("accepting");
        assert_eq!((&states[..loop_start], &states[loop_start..]), (&[1, 3][..], &[4, 3][..]));
    }

    /// A random rooted graph: self-loops, duplicate roots and edges, and
    /// multi-bit acceptance masks.
    fn random_graph(rng: &mut XorShift64) -> (Toy, u32) {
        let n = 1 + rng.below(14);
        let n_acc = rng.below(4) as u32;
        let edges = (0..n)
            .map(|_| (0..rng.below(4)).map(|_| rng.below(n) as u32).collect())
            .collect();
        let bits = (0..n)
            .map(|_| {
                if n_acc == 0 {
                    0
                } else {
                    (rng.next_u64() as u32) & mask_of(n_acc)
                }
            })
            .collect();
        let roots = (0..1 + rng.below(4)).map(|_| rng.below(n) as u32).collect();
        (Toy { roots, edges, bits }, mask_of(n_acc))
    }

    /// A random two-input, two-latch netlist as a Kripke structure, with
    /// its four signals as formula atoms.
    fn random_kripke(rng: &mut XorShift64) -> (Kripke, Vec<SignalId>) {
        let mut t = SignalTable::new();
        let mut b = ModuleBuilder::new("random", &mut t);
        let a = b.input("a");
        let c = b.input("c");
        let l0 = b.table().intern("l0");
        let l1 = b.table().intern("l1");
        let atoms = vec![a, c, l0, l1];
        let expr = |rng: &mut XorShift64| {
            let x = BoolExpr::var(atoms[rng.below(4)]);
            let y = BoolExpr::var(atoms[rng.below(4)]);
            match rng.below(4) {
                0 => BoolExpr::and([x, y.not()]),
                1 => BoolExpr::or([x, y]),
                2 => BoolExpr::xor(x, y),
                _ => x.not(),
            }
        };
        let n0 = expr(rng);
        let n1 = expr(rng);
        b.latch("l0", n0, rng.flip());
        b.latch("l1", n1, false);
        let m = b.finish().expect("valid netlist");
        let k = Kripke::from_module(&m, &t, &[]).expect("fits");
        (k, atoms)
    }

    /// The label-indexed product of `sys` and `gba` against the literal
    /// scan it replaced: the same roots, the same successors of every node
    /// the search reached, and the lasso and visit count of the reference
    /// search over the literal scan.
    fn assert_product_matches_literal_scan<S: TransitionSystem>(sys: &S, gba: &Gba) {
        let product = Product::new(sys, gba);
        let literal = reference::LiteralProduct { sys, gba };
        let mask = product.joint_mask();
        assert_eq!(
            product.roots(),
            literal.roots(),
            "roots differ from the literal scan"
        );
        let lasso = assert_matches_reference(&product, mask);
        let (expected, expected_visited) = reference::find_accepting_lasso(&literal, mask);
        assert_eq!(lasso, expected, "lasso differs from the literal scan's");
        let mut search = Search::new(&product);
        search.accepting_scc(mask);
        assert_eq!(
            search.visited, expected_visited,
            "visit count differs from the literal scan's"
        );
        for &n in &search.nodes {
            assert_eq!(
                product.succs(n),
                literal.succs(n),
                "successors of {n:?} differ"
            );
        }
    }

    /// Every query shape the explicit engine issues over `sys`: a single
    /// formula, and a conjunction of two.
    fn check_queries<S: TransitionSystem>(sys: &S, fs: &[Ltl]) {
        let gbas: Vec<_> = fs.iter().map(translate_cached).collect();
        assert_product_matches_literal_scan(sys, &gbas[0]);
        let refs: Vec<&Gba> = gbas.iter().map(|g| g.as_ref()).collect();
        let multi = MultiProduct::new(sys, &refs);
        assert_matches_reference(&multi, multi.full_mask());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// On random graphs the kernel returns the reference's lasso and
        /// visit count.
        #[test]
        fn kernel_matches_reference_on_random_graphs(seed in 1u64..1_000_000) {
            let mut rng = XorShift64::new(seed);
            let (g, mask) = random_graph(&mut rng);
            assert_matches_reference(&g, mask);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random formulas over random Kripke structures and over the
        /// products materialized from them: the kernel agrees with the
        /// reference on every query shape.
        #[test]
        fn kernel_matches_reference_on_random_products(
            seed in 1u64..1_000_000,
            budget in 2usize..9,
        ) {
            let mut rng = XorShift64::new(seed);
            let (k, atoms) = random_kripke(&mut rng);
            let fs: Vec<Ltl> = (0..3).map(|_| random_formula(&mut rng, &atoms, budget)).collect();
            check_queries(&k, &fs[..2]);
            let base = materialize_product(&fs[2..], &k);
            check_queries(&base, &fs[..2]);
        }
    }

    /// An automaton past 64 states needs two-word compatibility rows: the
    /// label-indexed product still matches the literal scan, over a Kripke
    /// structure and over a product materialized from it.
    #[test]
    fn wide_automata_match_the_literal_scan() {
        let mut rng = XorShift64::new(7);
        let (k, atoms) = random_kripke(&mut rng);
        let deep = Ltl::next_n(Ltl::atom(atoms[1]), 66);
        let fs = [
            Ltl::finally(Ltl::and([Ltl::atom(atoms[2]), deep.clone()])),
            Ltl::or([deep, Ltl::globally(Ltl::atom(atoms[0]))]),
        ];
        for f in &fs {
            let gba = translate_cached(f);
            let product = Product::new(&k, &gba);
            let mut search = Search::new(&product);
            search.accepting_scc(product.joint_mask());
            assert!(
                search.nodes.iter().any(|&(_, q)| q >= 64),
                "the search reaches no automaton state past 64"
            );
            assert_product_matches_literal_scan(&k, &gba);
        }
        let base = materialize_product(&[Ltl::globally(Ltl::finally(Ltl::atom(atoms[0])))], &k);
        for f in &fs {
            assert_product_matches_literal_scan(&base, &translate_cached(f));
        }
    }

    /// A random temporal cube over `atoms`, up to five cycles deep: the
    /// empty cube one time in five, and one time in five a cube that pins
    /// the latch `l1` (reset low) high at time 0, which no initial state
    /// satisfies.
    fn random_cube(rng: &mut XorShift64, atoms: &[SignalId]) -> TemporalCube {
        if rng.below(5) == 0 {
            return TemporalCube::top();
        }
        let mut cube = if rng.below(4) == 0 {
            TemporalCube::from_lits([(0, Lit::pos(atoms[3]))]).expect("one literal")
        } else {
            TemporalCube::top()
        };
        for _ in 0..rng.below(6) {
            let lit = Lit::new(atoms[rng.below(atoms.len())], rng.flip());
            if let Some(more) = cube.and_lit(rng.below(6), lit) {
                cube = more;
            }
        }
        cube
    }

    /// Every bounded-scenario query shape over `sys`, against the cube's
    /// translation: the verdict agrees, with or without an anchor; and
    /// without one the witness matches the cube, satisfies `baked` (the
    /// formulas `sys` carries) and is the translated query's own.
    fn check_cube_queries<S: TransitionSystem>(
        sys: &S,
        anchor: Option<&Ltl>,
        cube: &TemporalCube,
        baked: &[Ltl],
    ) {
        if let Some(f) = anchor {
            assert_product_matches_literal_scan(&CubeView::new(sys, cube), &translate_cached(f));
        }
        let translated: Vec<Ltl> = anchor.cloned().into_iter().chain([cube.to_ltl()]).collect();
        let expected = is_satisfiable_in_conj(&translated, sys);
        assert_eq!(is_satisfiable_cube(sys, anchor, cube), expected, "{cube:?}");
        if anchor.is_some() {
            return;
        }
        let witness = satisfiable_cube(sys, cube);
        assert_eq!(witness.is_some(), expected, "{cube:?}");
        if let Some(w) = witness {
            assert!(cube.holds_on(&w, 0), "witness misses {cube:?}");
            for f in baked {
                assert!(f.holds_on(&w), "witness misses {f:?}");
            }
            assert_eq!(Some(w), satisfiable_in_conj(&translated, sys));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random cubes, with and without a random anchor, over random
        /// Kripke structures and over products materialized from them:
        /// the cube view answers as the translated cube does.
        #[test]
        fn cube_queries_match_the_translated_cube(
            seed in 1u64..1_000_000,
            budget in 2usize..7,
        ) {
            let mut rng = XorShift64::new(seed);
            let (k, atoms) = random_kripke(&mut rng);
            let cube = random_cube(&mut rng, &atoms);
            let anchor = rng.flip().then(|| random_formula(&mut rng, &atoms, budget));
            let baked = random_formula(&mut rng, &atoms, budget);
            check_cube_queries(&k, anchor.as_ref(), &cube, &[]);
            let base = materialize_product(std::slice::from_ref(&baked), &k);
            check_cube_queries(&base, anchor.as_ref(), &cube, &[baked]);
        }
    }
}
