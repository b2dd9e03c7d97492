//! A reduced ordered binary decision diagram (ROBDD) engine with
//! complement edges.
//!
//! The engine is deliberately small but complete enough for the workloads in
//! this workspace: canonical Boolean function representation, the full set
//! of binary connectives via `ite`, existential/universal quantification,
//! restriction, functional composition, satisfying-assignment extraction,
//! model counting and Minato–Morreale irredundant sum-of-products covers
//! (used to present gap terms as readable cubes).
//!
//! # Complement edges
//!
//! A [`Bdd`] handle is an *edge*: a node index in the high bits plus a
//! **complement bit** in bit 0. The edge `(n, 1)` denotes the negation of
//! the function at node `n`, so negation is a single XOR — no traversal, no
//! allocation — and a function and its complement share every node. There
//! is a single terminal node (index 0, the constant **true**); `FALSE` is
//! its complemented edge. Canonicity is kept by the classic invariant:
//! **stored then-edges are always regular** (complement bit clear). `mk`
//! re-establishes the invariant by flipping both children and returning a
//! complemented edge whenever the then-child comes in complemented, so two
//! handles are equal iff they denote the same function — including across
//! negation.
//!
//! # One collector
//!
//! The node store is append-only: nothing is freed until a caller that
//! knows every live handle asks for a compaction
//! ([`BddManager::compact`]), which keeps exactly the functions reachable
//! from the given roots, drops the operation memos and hands back an
//! old→new handle map.
//!
//! # Tables
//!
//! The unique table and the `ite`/`and_exists`/`rename` memos are
//! [`FastMap`]s, hashed with the fixed multiplicative
//! [`NodeHasher`](crate::hashing::NodeHasher) instead of SipHash: every
//! `mk` and every memo probe hashes one key, and the keys are node-index
//! triples the manager assigned itself, so flood resistance buys nothing.
//! The hasher decides only where an entry sits, never which entries
//! exist, so node numbering, results and counters do not depend on it.
//! Nor does any output depend on iteration order: the only walks over
//! such tables are the compaction's (see [`mod@crate::compact`]), which
//! sorts each variable's nodes by their child edges before numbering them.
//!
//! Variables are registered per [`SignalId`] on first use, and the
//! variable *order* is the registration order: variable ids are levels,
//! id 0 at the top, and no operation ever moves a variable. Clients that
//! need an order (the symbolic engine's automaton bits on top, its
//! adjacent current/next pairs) get it by registering variables in that
//! order. All operations are memoized in the manager, so [`Bdd`] handles
//! are plain indices that are cheap to copy and compare — two handles are
//! equal iff they denote the same function.

use crate::cube::{Cube, Lit};
use crate::expr::BoolExpr;
use crate::hashing::{FastMap, FastSet};
use crate::signal::SignalId;
use crate::valuation::Valuation;
use std::collections::HashMap;

/// A handle to a BDD edge (node index plus complement bit) inside a
/// [`BddManager`].
///
/// Handles are canonical: `a == b` iff they represent the same Boolean
/// function *within the same manager*. Mixing handles across managers is a
/// logic error (not memory-unsafe, but meaningless).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Bdd(u32);

impl Bdd {
    /// The constant true function: the regular edge to the terminal.
    pub const TRUE: Bdd = Bdd(0);
    /// The constant false function: the complemented edge to the terminal.
    pub const FALSE: Bdd = Bdd(1);

    /// Whether this handle is the constant false.
    pub fn is_false(self) -> bool {
        self == Bdd::FALSE
    }

    /// Whether this handle is the constant true.
    pub fn is_true(self) -> bool {
        self == Bdd::TRUE
    }

    /// The complemented edge: `¬f` in O(1), no manager access. The
    /// manager's [`BddManager::not`] is this operation.
    pub fn complement(self) -> Bdd {
        Bdd(self.0 ^ 1)
    }

    /// Whether the edge carries the complement bit.
    fn is_complement(self) -> bool {
        self.0 & 1 == 1
    }

    /// The underlying node index (complement bit stripped).
    pub(crate) fn index(self) -> usize {
        (self.0 >> 1) as usize
    }

    pub(crate) fn raw(self) -> u32 {
        self.0
    }

    pub(crate) fn from_raw(n: u32) -> Bdd {
        Bdd(n)
    }
}

/// Variable of the terminal node: below every registered variable in the
/// order.
pub(crate) const TERMINAL_VAR: u32 = u32::MAX;

/// Largest storable node index: one bit of the handle is the complement
/// tag.
const MAX_NODE_INDEX: usize = (u32::MAX >> 1) as usize;

/// An interior node. `lo` and `hi` are *edges* (complement bit included);
/// the canonical-form invariant keeps `hi` regular.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Node {
    pub(crate) var: u32,
    pub(crate) lo: u32,
    pub(crate) hi: u32,
}

/// The BDD manager: node store, unique table and operation caches.
///
/// # Example
///
/// ```
/// use dic_logic::{BddManager, SignalTable};
///
/// let mut t = SignalTable::new();
/// let (a, b) = (t.intern("a"), t.intern("b"));
/// let mut man = BddManager::new();
/// let (va, vb) = (man.var_for_signal(a), man.var_for_signal(b));
/// let f = man.and(va, vb);
/// let g = man.not(f);
/// let na = man.not(va);
/// let nb = man.not(vb);
/// let h = man.or(na, nb); // De Morgan
/// assert_eq!(g, h);
/// ```
#[derive(Debug, Default)]
pub struct BddManager {
    pub(crate) nodes: Vec<Node>,
    /// Unique table: `(var, lo, hi)` in canonical form → node index.
    pub(crate) unique: FastMap<(u32, u32, u32), u32>,
    ite_cache: FastMap<(u32, u32, u32), u32>,
    var_to_signal: Vec<SignalId>,
    signal_to_var: HashMap<SignalId, u32>,
    /// Interned variable sets for [`BddManager::and_exists`], each sorted
    /// by variable id (the traversal order).
    var_sets: Vec<Vec<u32>>,
    /// Interned variable pairings for [`BddManager::rename`], sorted by
    /// source variable id.
    pairings: Vec<Vec<(u32, u32)>>,
    /// Memo for `and_exists`, keyed by `(set, f, g)` with `f <= g`.
    and_exists_cache: FastMap<(u32, u32, u32), u32>,
    /// Memo for `rename`, keyed by `(pairing, f)` with `f` regular
    /// (renaming commutes with complement).
    rename_cache: FastMap<(u32, u32), u32>,
    /// High-water mark of the node store, including garbage a later
    /// rebuild collected (the trace gauge only sees peaks while tracing is
    /// on; this one is always exact).
    peak_nodes: usize,
}

/// A handle to a registered quantification variable set
/// (see [`BddManager::register_var_set`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct VarSetId(u32);

/// A handle to a registered variable pairing
/// (see [`BddManager::register_pairing`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PairingId(u32);

impl BddManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        let mut m = BddManager {
            nodes: Vec::with_capacity(1024),
            ..BddManager::default()
        };
        // Index 0: the single terminal (constant true as a regular edge).
        m.nodes.push(Node { var: TERMINAL_VAR, lo: 0, hi: 0 });
        m.peak_nodes = 1;
        m
    }

    /// Registers (or finds) the BDD variable for `signal` and returns the
    /// single-variable function.
    pub fn var_for_signal(&mut self, signal: SignalId) -> Bdd {
        let var = self.var_index(signal);
        self.mk(var, Bdd::FALSE, Bdd::TRUE)
    }

    /// Returns the variable index for `signal`, registering it if new.
    pub fn var_index(&mut self, signal: SignalId) -> u32 {
        if let Some(&v) = self.signal_to_var.get(&signal) {
            return v;
        }
        let v = u32::try_from(self.var_to_signal.len()).expect("too many BDD variables");
        self.var_to_signal.push(signal);
        self.signal_to_var.insert(signal, v);
        v
    }

    /// Number of registered variables.
    pub(crate) fn var_count(&self) -> usize {
        self.var_to_signal.len()
    }

    /// The signal behind a variable index.
    ///
    /// # Panics
    ///
    /// Panics if `var` has not been registered.
    pub fn signal_of_var(&self, var: u32) -> SignalId {
        self.var_to_signal[var as usize]
    }

    /// Number of nodes in the store, including the terminal and any
    /// garbage no rebuild has collected yet.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// High-water mark of the node store over the manager's lifetime,
    /// including garbage collected by rebuilds since. This is the honest
    /// peak for memory accounting — [`BddManager::node_count`] after a
    /// rebuild understates what was actually allocated.
    pub fn peak_node_count(&self) -> usize {
        self.peak_nodes
    }

    /// Total number of entries across the operation memo tables (`ite`,
    /// `and_exists`, `rename`).
    ///
    /// Together with [`BddManager::node_count`] this is the memory-growth
    /// accounting the symbolic engine's fail-closed limit is built on: the
    /// node store and the memo tables are the only unbounded allocations in
    /// the manager.
    pub fn cache_entries(&self) -> usize {
        self.ite_cache.len() + self.and_exists_cache.len() + self.rename_cache.len()
    }

    /// Drops every operation memo table (the unique table and node store are
    /// kept, so all existing [`Bdd`] handles stay valid and canonical).
    ///
    /// Subsequent operations recompute from scratch; callers under memory
    /// pressure trade time for space.
    pub fn clear_op_caches(&mut self) {
        self.ite_cache.clear();
        self.and_exists_cache.clear();
        self.rename_cache.clear();
    }

    /// Registers a set of variables for [`BddManager::and_exists`],
    /// returning its handle. Registering the same set again returns the
    /// existing handle.
    pub fn register_var_set(&mut self, vars: &[u32]) -> VarSetId {
        // Sets are kept sorted by variable id, the traversal order
        // `and_exists` needs, so equal sets intern to one entry.
        let mut sorted: Vec<u32> = vars.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        if let Some(i) = self.var_sets.iter().position(|s| *s == sorted) {
            return VarSetId(i as u32);
        }
        self.var_sets.push(sorted);
        VarSetId((self.var_sets.len() - 1) as u32)
    }

    /// Combined and-exists (the *relational product*): `∃ S. f ∧ g` in one
    /// recursive pass, without ever materializing the conjunction `f ∧ g`.
    ///
    /// This is the primitive behind symbolic image/preimage computation: the
    /// intermediate `T ∧ S` of a naive implementation is routinely orders of
    /// magnitude larger than either operand or the result, and this operator
    /// quantifies variables out as soon as the recursion passes their level.
    pub fn and_exists(&mut self, f: Bdd, g: Bdd, set: VarSetId) -> Bdd {
        let vars = std::mem::take(&mut self.var_sets[set.0 as usize]);
        let r = self.and_exists_rec(f, g, &vars, 0, set.0);
        self.var_sets[set.0 as usize] = vars;
        r
    }

    fn and_exists_rec(&mut self, f: Bdd, g: Bdd, vars: &[u32], from: usize, set: u32) -> Bdd {
        if f.is_false() || g.is_false() || f == g.complement() {
            return Bdd::FALSE;
        }
        // f ∧ f = f: degrade the duplicate operand to plain
        // quantification (free with complement edges, where ¬f-vs-f is
        // the equality check above).
        let g = if f == g { Bdd::TRUE } else { g };
        if f.is_true() && g.is_true() {
            return Bdd::TRUE;
        }
        // Normalize for the commutative cache.
        let (f, g) = if f <= g { (f, g) } else { (g, f) };
        let key = (set, f.0, g.0);
        if dic_trace::enabled() {
            dic_trace::count(dic_trace::Counter::BddAndExistsOps, 1);
            dic_trace::count(dic_trace::Counter::BddMemoLookups, 1);
        }
        if let Some(&r) = self.and_exists_cache.get(&key) {
            if dic_trace::enabled() {
                dic_trace::count(dic_trace::Counter::BddMemoHits, 1);
            }
            return Bdd(r);
        }
        let v = self.top_var(f).min(self.top_var(g));
        // Quantified variables above `v` cannot occur below it (`vars` is
        // sorted).
        let mut from = from;
        while from < vars.len() && vars[from] < v {
            from += 1;
        }
        let (f0, f1) = self.cofactors(f, v);
        let (g0, g1) = self.cofactors(g, v);
        let quantify = from < vars.len() && vars[from] == v;
        let lo = self.and_exists_rec(f0, g0, vars, from, set);
        let r = if quantify && lo.is_true() {
            // Short-circuit: lo ∨ hi is true regardless of hi.
            Bdd::TRUE
        } else {
            let hi = self.and_exists_rec(f1, g1, vars, from, set);
            if quantify {
                self.or(lo, hi)
            } else {
                self.mk(v, lo, hi)
            }
        };
        self.and_exists_cache.insert(key, r.0);
        r
    }

    /// Registers a variable pairing for [`BddManager::rename`], returning
    /// its handle. Registering the same pairing again returns the existing
    /// handle.
    ///
    /// # Panics
    ///
    /// Panics unless the pairing is *order-preserving*: sorting the pairs
    /// by source must also sort them by target, and no target may collide
    /// with a source of a different pair. (Current/next state variables
    /// registered interleaved satisfy this by construction. The
    /// restriction is what keeps renaming a single linear rebuild instead
    /// of a general compose.)
    pub fn register_pairing(&mut self, pairs: &[(u32, u32)]) -> PairingId {
        let mut sorted: Vec<(u32, u32)> = pairs.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        for w in sorted.windows(2) {
            assert!(
                w[0].0 != w[1].0,
                "pairing maps variable {} twice",
                w[0].0
            );
        }
        for w in sorted.windows(2) {
            assert!(
                w[0].1 < w[1].1,
                "pairing is not order-preserving: {} -> {} but {} -> {}",
                w[0].0,
                w[0].1,
                w[1].0,
                w[1].1
            );
        }
        for &(from, to) in &sorted {
            assert!(
                from == to || sorted.binary_search_by_key(&to, |&(f, _)| f).is_err(),
                "pairing target {to} is also a source"
            );
        }
        if let Some(i) = self.pairings.iter().position(|p| *p == sorted) {
            return PairingId(i as u32);
        }
        self.pairings.push(sorted);
        PairingId((self.pairings.len() - 1) as u32)
    }

    /// Renames variables of `f` according to a registered pairing
    /// (simultaneous substitution `f[x := x']` for every `(x, x')` pair).
    ///
    /// Used to swap between current-state and next-state variable banks in
    /// symbolic image computation.
    pub fn rename(&mut self, f: Bdd, pairing: PairingId) -> Bdd {
        let pairs = std::mem::take(&mut self.pairings[pairing.0 as usize]);
        let r = self.rename_rec(f, &pairs, pairing.0);
        self.pairings[pairing.0 as usize] = pairs;
        r
    }

    fn rename_rec(&mut self, f: Bdd, pairs: &[(u32, u32)], pairing: u32) -> Bdd {
        if f.is_true() || f.is_false() {
            return f;
        }
        // Renaming commutes with complement: recurse on the regular edge
        // and re-apply the bit, so f and ¬f share one memo entry.
        let c = f.0 & 1;
        let fr = Bdd(f.0 & !1);
        let key = (pairing, fr.0);
        if dic_trace::enabled() {
            dic_trace::count(dic_trace::Counter::BddRenameOps, 1);
            dic_trace::count(dic_trace::Counter::BddMemoLookups, 1);
        }
        if let Some(&r) = self.rename_cache.get(&key) {
            if dic_trace::enabled() {
                dic_trace::count(dic_trace::Counter::BddMemoHits, 1);
            }
            return Bdd(r ^ c);
        }
        let n = self.node(fr);
        let lo = self.rename_rec(Bdd(n.lo), pairs, pairing);
        let hi = self.rename_rec(Bdd(n.hi), pairs, pairing);
        let var = match pairs.binary_search_by_key(&n.var, |&(from, _)| from) {
            Ok(i) => pairs[i].1,
            Err(_) => n.var,
        };
        debug_assert!(
            self.top_var(lo) > var && self.top_var(hi) > var,
            "pairing broke the variable order at {var}"
        );
        let r = self.mk(var, lo, hi);
        debug_assert!(!r.is_complement(), "renaming a regular edge stays regular");
        self.rename_cache.insert(key, r.0);
        Bdd(r.0 ^ c)
    }

    fn mk(&mut self, var: u32, lo: Bdd, hi: Bdd) -> Bdd {
        if lo == hi {
            return lo;
        }
        // Canonical form: the then-edge must be regular. A complemented
        // then-child flips both children and tags the returned edge.
        let flip = hi.0 & 1;
        let (lo, hi) = (Bdd(lo.0 ^ flip), Bdd(hi.0 ^ flip));
        let key = (var, lo.0, hi.0);
        if dic_trace::enabled() {
            dic_trace::count(dic_trace::Counter::BddUniqueLookups, 1);
        }
        if let Some(&n) = self.unique.get(&key) {
            if dic_trace::enabled() {
                dic_trace::count(dic_trace::Counter::BddUniqueHits, 1);
            }
            return Bdd((n << 1) | flip);
        }
        let idx = self.nodes.len();
        assert!(idx <= MAX_NODE_INDEX, "BDD node store overflow");
        let n = idx as u32;
        self.nodes.push(Node { var, lo: lo.0, hi: hi.0 });
        self.unique.insert(key, n);
        if self.nodes.len() > self.peak_nodes {
            self.peak_nodes = self.nodes.len();
        }
        if dic_trace::enabled() {
            let live = self.nodes.len() as u64;
            dic_trace::gauge_set(dic_trace::Gauge::BddLiveNodes, live);
            dic_trace::gauge_max(dic_trace::Gauge::BddPeakNodes, live);
        }
        Bdd((n << 1) | flip)
    }

    fn node(&self, f: Bdd) -> Node {
        self.nodes[f.index()]
    }

    pub(crate) fn top_var(&self, f: Bdd) -> u32 {
        self.nodes[f.index()].var
    }

    /// The children of `f` as functions: the stored edges with the
    /// parent's complement bit pushed down.
    fn children(&self, f: Bdd) -> (Bdd, Bdd) {
        let n = self.node(f);
        let c = f.0 & 1;
        (Bdd(n.lo ^ c), Bdd(n.hi ^ c))
    }

    /// The topmost (smallest) variable among the roots of `f`, `g`, `h` —
    /// the branch variable of the `ite` recursion.
    fn top_of_three(&self, f: Bdd, g: Bdd, h: Bdd) -> u32 {
        self.top_var(f).min(self.top_var(g)).min(self.top_var(h))
    }

    /// Low/high cofactors of `f` with respect to variable `var`, assuming
    /// `var <= top_var(f)` in the order.
    fn cofactors(&self, f: Bdd, var: u32) -> (Bdd, Bdd) {
        if self.top_var(f) == var {
            self.children(f)
        } else {
            (f, f)
        }
    }

    /// If-then-else: `ite(f, g, h) = f·g ∨ ¬f·h`. The workhorse all other
    /// connectives are built from.
    pub fn ite(&mut self, f: Bdd, g: Bdd, h: Bdd) -> Bdd {
        // Terminal cases.
        if f.is_true() {
            return g;
        }
        if f.is_false() {
            return h;
        }
        let mut f = f;
        let mut g = g;
        let mut h = h;
        // Branches that repeat (or complement) the test collapse.
        if g == f {
            g = Bdd::TRUE;
        } else if g == f.complement() {
            g = Bdd::FALSE;
        }
        if h == f {
            h = Bdd::FALSE;
        } else if h == f.complement() {
            h = Bdd::TRUE;
        }
        if g == h {
            return g;
        }
        if g.is_true() && h.is_false() {
            return f;
        }
        if g.is_false() && h.is_true() {
            return f.complement();
        }
        // Normalize the test regular: ite(¬f, g, h) = ite(f, h, g).
        if f.is_complement() {
            f = f.complement();
            std::mem::swap(&mut g, &mut h);
        }
        // Commutative operand order for the two binary shapes the engine
        // issues constantly: f∧g = ite(f,g,0) and f∨h = ite(f,1,h). Only
        // swap when the other operand is regular, keeping f regular.
        if h.is_false() && !g.is_complement() && g.0 < f.0 {
            std::mem::swap(&mut f, &mut g);
        } else if g.is_true() && !h.is_complement() && h.0 < f.0 {
            std::mem::swap(&mut f, &mut h);
        }
        // Normalize the then-branch regular so ¬r shares the cache entry:
        // ite(f, ¬g, ¬h) = ¬ite(f, g, h).
        let flip = g.0 & 1;
        g = Bdd(g.0 ^ flip);
        h = Bdd(h.0 ^ flip);
        let key = (f.0, g.0, h.0);
        if dic_trace::enabled() {
            dic_trace::count(dic_trace::Counter::BddIteOps, 1);
            dic_trace::count(dic_trace::Counter::BddMemoLookups, 1);
        }
        if let Some(&r) = self.ite_cache.get(&key) {
            if dic_trace::enabled() {
                dic_trace::count(dic_trace::Counter::BddMemoHits, 1);
            }
            return Bdd(r ^ flip);
        }
        let v = self.top_of_three(f, g, h);
        let (f0, f1) = self.cofactors(f, v);
        let (g0, g1) = self.cofactors(g, v);
        let (h0, h1) = self.cofactors(h, v);
        let lo = self.ite(f0, g0, h0);
        let hi = self.ite(f1, g1, h1);
        let r = self.mk(v, lo, hi);
        self.ite_cache.insert(key, r.0);
        Bdd(r.0 ^ flip)
    }

    /// Negation — with complement edges a constant-time bit flip
    /// ([`Bdd::complement`]); kept as a manager method for symmetry with
    /// the other connectives.
    pub fn not(&mut self, f: Bdd) -> Bdd {
        f.complement()
    }

    /// Conjunction.
    pub fn and(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, g, Bdd::FALSE)
    }

    /// Disjunction.
    pub fn or(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, Bdd::TRUE, g)
    }

    /// Exclusive or.
    pub fn xor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, g.complement(), g)
    }

    /// Implication `f -> g`.
    pub fn implies(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, g, Bdd::TRUE)
    }

    /// Biconditional `f <-> g`.
    pub fn iff(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, g, g.complement())
    }

    /// Restriction `f[signal := value]`.
    pub fn restrict(&mut self, f: Bdd, signal: SignalId, value: bool) -> Bdd {
        let var = self.var_index(signal);
        self.restrict_var(f, var, value)
    }

    fn restrict_var(&mut self, f: Bdd, var: u32, value: bool) -> Bdd {
        let fv = self.top_var(f);
        if fv > var {
            // f does not depend on var (or is terminal).
            return f;
        }
        let (lo, hi) = self.children(f);
        if fv == var {
            return if value { hi } else { lo };
        }
        let lo = self.restrict_var(lo, var, value);
        let hi = self.restrict_var(hi, var, value);
        self.mk(fv, lo, hi)
    }

    /// Existential quantification `∃ signal. f`.
    pub fn exists(&mut self, f: Bdd, signal: SignalId) -> Bdd {
        let lo = self.restrict(f, signal, false);
        let hi = self.restrict(f, signal, true);
        self.or(lo, hi)
    }

    /// Universal quantification `∀ signal. f`.
    pub fn forall(&mut self, f: Bdd, signal: SignalId) -> Bdd {
        let lo = self.restrict(f, signal, false);
        let hi = self.restrict(f, signal, true);
        self.and(lo, hi)
    }

    /// Existential quantification over several signals.
    pub fn exists_all(&mut self, mut f: Bdd, signals: &[SignalId]) -> Bdd {
        for &s in signals {
            f = self.exists(f, s);
        }
        f
    }

    /// Functional composition `f[signal := g]`.
    pub fn compose(&mut self, f: Bdd, signal: SignalId, g: Bdd) -> Bdd {
        let f1 = self.restrict(f, signal, true);
        let f0 = self.restrict(f, signal, false);
        self.ite(g, f1, f0)
    }

    /// Builds the BDD of a [`BoolExpr`], registering variables on first use.
    pub fn from_expr(&mut self, e: &BoolExpr) -> Bdd {
        match e {
            BoolExpr::Const(true) => Bdd::TRUE,
            BoolExpr::Const(false) => Bdd::FALSE,
            BoolExpr::Var(id) => self.var_for_signal(*id),
            BoolExpr::Not(inner) => {
                let f = self.from_expr(inner);
                self.not(f)
            }
            BoolExpr::And(es) => {
                let mut acc = Bdd::TRUE;
                for part in es {
                    let f = self.from_expr(part);
                    acc = self.and(acc, f);
                    if acc.is_false() {
                        break;
                    }
                }
                acc
            }
            BoolExpr::Or(es) => {
                let mut acc = Bdd::FALSE;
                for part in es {
                    let f = self.from_expr(part);
                    acc = self.or(acc, f);
                    if acc.is_true() {
                        break;
                    }
                }
                acc
            }
            BoolExpr::Xor(a, b) => {
                let fa = self.from_expr(a);
                let fb = self.from_expr(b);
                self.xor(fa, fb)
            }
        }
    }

    /// Builds the BDD of a [`Cube`].
    pub fn from_cube(&mut self, cube: &Cube) -> Bdd {
        let mut acc = Bdd::TRUE;
        for &l in cube.lits() {
            let v = self.var_for_signal(l.signal());
            let lit = if l.polarity() { v } else { self.not(v) };
            acc = self.and(acc, lit);
        }
        acc
    }

    /// Evaluates `f` under a valuation of its signals.
    ///
    /// # Panics
    ///
    /// Panics if a signal in the support of `f` is outside the valuation.
    pub fn eval(&self, f: Bdd, v: &Valuation) -> bool {
        let mut cur = f;
        loop {
            if cur.is_true() {
                return true;
            }
            if cur.is_false() {
                return false;
            }
            let sig = self.var_to_signal[self.top_var(cur) as usize];
            let (lo, hi) = self.children(cur);
            cur = if v.get(sig) { hi } else { lo };
        }
    }

    /// The signals `f` actually depends on, in registration (variable-id)
    /// order.
    pub fn support(&self, f: Bdd) -> Vec<SignalId> {
        self.support_vars(f)
            .into_iter()
            .map(|v| self.var_to_signal[v as usize])
            .collect()
    }

    /// The variable indices `f` actually depends on, in registration
    /// (variable-id) order.
    ///
    /// Like [`BddManager::support`] but in terms of raw variables, for
    /// callers (the symbolic engine) whose variables are not all backed by
    /// table signals.
    pub fn support_vars(&self, f: Bdd) -> Vec<u32> {
        // Complement bits do not affect the support: walk node indices.
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![f.index()];
        let mut varset = std::collections::BTreeSet::new();
        while let Some(i) = stack.pop() {
            let n = self.nodes[i];
            if n.var == TERMINAL_VAR || !seen.insert(i) {
                continue;
            }
            varset.insert(n.var);
            stack.push((n.lo >> 1) as usize);
            stack.push((n.hi >> 1) as usize);
        }
        varset.into_iter().collect()
    }

    /// Number of BDD nodes reachable from `f` (excluding the terminal).
    /// With complement edges a function and its negation share all their
    /// nodes, so `size(f) == size(¬f)`.
    pub fn size(&self, f: Bdd) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![f.index()];
        let mut count = 0;
        while let Some(i) = stack.pop() {
            let n = self.nodes[i];
            if n.var == TERMINAL_VAR || !seen.insert(i) {
                continue;
            }
            count += 1;
            stack.push((n.lo >> 1) as usize);
            stack.push((n.hi >> 1) as usize);
        }
        count
    }

    /// One satisfying assignment as a [`Cube`] (over the support only), or
    /// `None` if `f` is unsatisfiable.
    pub fn any_sat(&self, f: Bdd) -> Option<Cube> {
        if f.is_false() {
            return None;
        }
        let mut lits = Vec::new();
        let mut cur = f;
        while !cur.is_true() {
            let sig = self.var_to_signal[self.top_var(cur) as usize];
            let (lo, hi) = self.children(cur);
            if hi.is_false() {
                lits.push(Lit::neg(sig));
                cur = lo;
            } else {
                lits.push(Lit::pos(sig));
                cur = hi;
            }
        }
        Cube::from_lits(lits)
    }

    /// Up to `limit` distinct satisfying assignments of `f`, each the cube
    /// of one BDD path (variables off the path are unconstrained, so the
    /// cubes are short where `f` is insensitive). The high branch is
    /// explored first, making `sat_cubes(f, 1)` consistent with
    /// [`BddManager::any_sat`] whenever the high branch is non-false.
    ///
    /// The symbolic gap engine uses this to read scenario catalogues
    /// directly off region BDDs instead of replaying lassos.
    pub fn sat_cubes(&self, f: Bdd, limit: usize) -> Vec<Cube> {
        let mut out = Vec::new();
        let mut stack: Vec<(Bdd, Vec<Lit>)> = vec![(f, Vec::new())];
        while let Some((g, lits)) = stack.pop() {
            if out.len() >= limit {
                break;
            }
            if g.is_false() {
                continue;
            }
            if g.is_true() {
                out.push(Cube::from_lits(lits).expect("path literals are distinct"));
                continue;
            }
            let sig = self.var_to_signal[self.top_var(g) as usize];
            let (lo, hi) = self.children(g);
            let mut lo_lits = lits.clone();
            lo_lits.push(Lit::neg(sig));
            let mut hi_lits = lits;
            hi_lits.push(Lit::pos(sig));
            // Last-in-first-out: push low first so the high branch pops
            // (and is emitted) first.
            stack.push((lo, lo_lits));
            stack.push((hi, hi_lits));
        }
        out
    }

    /// Number of satisfying assignments over an `nvars`-variable universe.
    ///
    /// `nvars` must be at least the number of registered variables appearing
    /// in `f`'s support. Counts saturate at `u128::MAX`: past a
    /// 127-variable universe the exact count can exceed the word (already
    /// `sat_count(TRUE, 128)` is `2^128`), and a pegged maximum is more
    /// useful than the shift overflow the unchecked arithmetic used to
    /// hit (a debug panic, silently wrong counts in release).
    ///
    /// The memo is keyed on the full edge (complement bit included):
    /// computing the complement's count as `2^n - count` would defeat the
    /// saturation contract, so `f` and `¬f` are counted independently.
    pub fn sat_count(&self, f: Bdd, nvars: u32) -> u128 {
        /// `x << n`, saturating at `u128::MAX` instead of overflowing.
        fn shl_sat(x: u128, n: u32) -> u128 {
            if x == 0 {
                0
            } else if n > x.leading_zeros() {
                u128::MAX
            } else {
                x << n
            }
        }
        fn go(
            man: &BddManager,
            f: Bdd,
            nvars: u32,
            cache: &mut HashMap<u32, u128>,
        ) -> u128 {
            if f.is_false() {
                return 0;
            }
            if f.is_true() {
                return 1;
            }
            if let Some(&c) = cache.get(&f.0) {
                return c;
            }
            let v = man.top_var(f);
            let (lo_f, hi_f) = man.children(f);
            let lo = go(man, lo_f, nvars, cache);
            let hi = go(man, hi_f, nvars, cache);
            let skipped_lo = man.var_below(lo_f, nvars) - v - 1;
            let skipped_hi = man.var_below(hi_f, nvars) - v - 1;
            let c = shl_sat(lo, skipped_lo).saturating_add(shl_sat(hi, skipped_hi));
            cache.insert(f.0, c);
            c
        }
        let mut cache = HashMap::new();
        let total = go(self, f, nvars, &mut cache);
        // Account for variables above the root.
        shl_sat(total, self.var_below(f, nvars))
    }

    /// The top variable of `f` for counting over an `nvars`-variable
    /// universe: the terminal counts as variable `nvars`, just below the
    /// last one.
    fn var_below(&self, f: Bdd, nvars: u32) -> u32 {
        match self.top_var(f) {
            TERMINAL_VAR => nvars,
            v => v,
        }
    }

    /// An irredundant sum-of-products cover of `f` (Minato–Morreale ISOP).
    ///
    /// The returned cubes are pairwise irredundant and their disjunction is
    /// exactly `f`. This is how gap terms are rendered legibly.
    pub fn cubes(&mut self, f: Bdd) -> Vec<Cube> {
        let (cover, _bdd) = self.isop(f, f);
        cover
    }

    /// Minato–Morreale ISOP between lower bound `l` and upper bound `u`
    /// (requires `l -> u`). Returns the cover and its BDD `d` with
    /// `l -> d` and `d -> u`.
    pub fn isop(&mut self, l: Bdd, u: Bdd) -> (Vec<Cube>, Bdd) {
        debug_assert!(self.entails(l, u), "ISOP requires l -> u");
        if l.is_false() {
            return (Vec::new(), Bdd::FALSE);
        }
        if u.is_true() {
            return (vec![Cube::top()], Bdd::TRUE);
        }
        let v = self.top_var(l).min(self.top_var(u));
        let sig = self.var_to_signal[v as usize];
        let (l0, l1) = self.cofactors(l, v);
        let (u0, u1) = self.cofactors(u, v);

        // Cubes that must contain ¬v.
        let nu1 = self.not(u1);
        let l0_only = self.and(l0, nu1);
        let (c0, d0) = self.isop(l0_only, u0);

        // Cubes that must contain v.
        let nu0 = self.not(u0);
        let l1_only = self.and(l1, nu0);
        let (c1, d1) = self.isop(l1_only, u1);

        // Remainder, covered without mentioning v.
        let nd0 = self.not(d0);
        let nd1 = self.not(d1);
        let rem0 = self.and(l0, nd0);
        let rem1 = self.and(l1, nd1);
        let rem = self.or(rem0, rem1);
        let u01 = self.and(u0, u1);
        let (cd, dd) = self.isop(rem, u01);

        let mut cover = Vec::with_capacity(c0.len() + c1.len() + cd.len());
        for c in c0 {
            cover.push(c.and_lit(Lit::neg(sig)).expect("fresh literal"));
        }
        for c in c1 {
            cover.push(c.and_lit(Lit::pos(sig)).expect("fresh literal"));
        }
        cover.extend(cd);

        let hi = self.or(d1, dd);
        let lo = self.or(d0, dd);
        let var_bdd = self.mk(v, Bdd::FALSE, Bdd::TRUE);
        let d = self.ite(var_bdd, hi, lo);
        (cover, d)
    }

    /// Whether `l -> u` holds, decided by a read-only walk of both graphs
    /// (`l ∧ ¬u` has no path to true) that creates no node, touches no
    /// memo and counts nothing — so a debug build's precondition checks
    /// do exactly the BDD work a release build does.
    fn entails(&self, l: Bdd, u: Bdd) -> bool {
        fn disjoint(m: &BddManager, f: Bdd, g: Bdd, done: &mut FastSet<(u32, u32)>) -> bool {
            if f.is_false() || g.is_false() || f == g.complement() {
                return true;
            }
            if f.is_true() || g.is_true() || f == g {
                return false;
            }
            let (f, g) = if f <= g { (f, g) } else { (g, f) };
            if done.contains(&(f.0, g.0)) {
                return true;
            }
            let v = m.top_var(f).min(m.top_var(g));
            let (f0, f1) = m.cofactors(f, v);
            let (g0, g1) = m.cofactors(g, v);
            let r = disjoint(m, f0, g0, done) && disjoint(m, f1, g1, done);
            if r {
                done.insert((f.0, g.0));
            }
            r
        }
        disjoint(self, l, u.complement(), &mut FastSet::default())
    }

    /// Converts `f` back into a [`BoolExpr`] (as an irredundant SOP).
    pub fn to_expr(&mut self, f: Bdd) -> BoolExpr {
        if f.is_true() {
            return BoolExpr::tt();
        }
        if f.is_false() {
            return BoolExpr::ff();
        }
        let cover = self.cubes(f);
        BoolExpr::or(cover.into_iter().map(|cube| {
            BoolExpr::and(cube.lits().iter().map(|l| {
                let v = BoolExpr::var(l.signal());
                if l.polarity() {
                    v
                } else {
                    v.not()
                }
            }))
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::SignalTable;

    fn setup() -> (SignalTable, BddManager, Vec<SignalId>) {
        let mut t = SignalTable::new();
        let ids: Vec<_> = ["a", "b", "c", "d"].iter().map(|n| t.intern(n)).collect();
        (t, BddManager::new(), ids)
    }

    #[test]
    fn canonicity_de_morgan() {
        let (_t, mut m, ids) = setup();
        let a = m.var_for_signal(ids[0]);
        let b = m.var_for_signal(ids[1]);
        let ab = m.and(a, b);
        let lhs = m.not(ab);
        let na = m.not(a);
        let nb = m.not(b);
        let rhs = m.or(na, nb);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn tautology_and_contradiction() {
        let (_t, mut m, ids) = setup();
        let a = m.var_for_signal(ids[0]);
        let na = m.not(a);
        assert!(m.or(a, na).is_true());
        assert!(m.and(a, na).is_false());
    }

    #[test]
    fn negation_is_free_and_shares_nodes() {
        let (_t, mut m, ids) = setup();
        let a = m.var_for_signal(ids[0]);
        let b = m.var_for_signal(ids[1]);
        let f = m.xor(a, b);
        let before = m.node_count();
        // Complement edges: negation allocates nothing and double
        // negation is the identity on the handle.
        let g = m.not(f);
        assert_eq!(m.node_count(), before);
        assert_eq!(m.not(g), f);
        assert_ne!(g, f);
        assert_eq!(m.size(f), m.size(g), "f and ¬f share all nodes");
        // The constants are each other's complements around one terminal.
        assert_eq!(Bdd::TRUE.complement(), Bdd::FALSE);
        assert!(m.node_count() >= 1);
    }

    #[test]
    fn eval_agrees_with_expr() {
        let (t, mut m, ids) = setup();
        let e = BoolExpr::or([
            BoolExpr::and([BoolExpr::var(ids[0]), BoolExpr::var(ids[1]).not()]),
            BoolExpr::xor(BoolExpr::var(ids[2]), BoolExpr::var(ids[3])),
        ]);
        let f = m.from_expr(&e);
        for bits in 0..16u64 {
            let mut v = Valuation::all_false(t.len());
            v.assign_key(&ids, bits);
            assert_eq!(m.eval(f, &v), e.eval(&v), "bits {bits:04b}");
        }
    }

    #[test]
    fn quantification() {
        let (t, mut m, ids) = setup();
        let a = m.var_for_signal(ids[0]);
        let b = m.var_for_signal(ids[1]);
        let f = m.and(a, b);
        // ∃a. a&b == b ; ∀a. a&b == false ; ∀a. a|!a&b ... basic checks.
        let ex = m.exists(f, ids[0]);
        assert_eq!(ex, b);
        let fa = m.forall(f, ids[0]);
        assert!(fa.is_false());
        let g = m.or(a, b);
        let fg = m.forall(g, ids[0]);
        assert_eq!(fg, b);
        let _ = t;
    }

    #[test]
    fn compose_substitutes() {
        let (_t, mut m, ids) = setup();
        let a = m.var_for_signal(ids[0]);
        let b = m.var_for_signal(ids[1]);
        let c = m.var_for_signal(ids[2]);
        let f = m.xor(a, c);
        let bc = m.and(b, c);
        let comp = m.compose(f, ids[0], bc); // (b&c) ^ c
        let expect_hi = m.not(b); // when c=1: (b)^1 = !b
        let restricted = m.restrict(comp, ids[2], true);
        assert_eq!(restricted, expect_hi);
        let restricted0 = m.restrict(comp, ids[2], false);
        assert!(restricted0.is_false()); // (b&0)^0 = 0
    }

    #[test]
    fn sat_count_counts() {
        let (_t, mut m, ids) = setup();
        let a = m.var_for_signal(ids[0]);
        let b = m.var_for_signal(ids[1]);
        let f = m.or(a, b);
        // over 2 vars: 3 satisfying rows; over 4 vars: 3 * 4 = 12.
        assert_eq!(m.sat_count(f, 2), 3);
        let _c = m.var_for_signal(ids[2]);
        let _d = m.var_for_signal(ids[3]);
        assert_eq!(m.sat_count(f, 4), 12);
        assert_eq!(m.sat_count(Bdd::TRUE, 4), 16);
        assert_eq!(m.sat_count(Bdd::FALSE, 4), 0);
        // Complemented edges count their own paths, not 2^n - count.
        let nf = m.not(f);
        assert_eq!(m.sat_count(nf, 2), 1);
        assert_eq!(m.sat_count(nf, 4), 4);
    }

    #[test]
    fn sat_count_saturates_past_word_width() {
        let (_t, mut m, ids) = setup();
        // 127 free variables is the largest exact power: 2^127 fits.
        assert_eq!(m.sat_count(Bdd::TRUE, 127), 1u128 << 127);
        // At 128 the exact count is 2^128: saturate, don't overflow.
        assert_eq!(m.sat_count(Bdd::TRUE, 128), u128::MAX);
        assert_eq!(m.sat_count(Bdd::TRUE, 500), u128::MAX);
        // FALSE stays 0 at any width.
        assert_eq!(m.sat_count(Bdd::FALSE, 500), 0);
        // A one-variable function over a 128-variable universe: the count
        // is 2^127 exactly — the boundary where the old shift was fine.
        let a = m.var_for_signal(ids[0]);
        assert_eq!(m.sat_count(a, 128), 1u128 << 127);
        // Over 129 variables it would be 2^128: saturated.
        assert_eq!(m.sat_count(a, 129), u128::MAX);
        // The complement saturates independently (no 2^n - MAX underflow):
        // ¬a over 128 vars is also 2^127; over 129, saturated.
        let na = m.not(a);
        assert_eq!(m.sat_count(na, 128), 1u128 << 127);
        assert_eq!(m.sat_count(na, 129), u128::MAX);
    }

    #[test]
    fn any_sat_satisfies() {
        let (t, mut m, ids) = setup();
        let e = BoolExpr::and([
            BoolExpr::or([BoolExpr::var(ids[0]), BoolExpr::var(ids[1])]),
            BoolExpr::var(ids[2]).not(),
        ]);
        let f = m.from_expr(&e);
        let cube = m.any_sat(f).expect("satisfiable");
        // Extend the cube to a full valuation and check it satisfies f.
        let mut v = Valuation::all_false(t.len());
        for l in cube.lits() {
            v.set(l.signal(), l.polarity());
        }
        assert!(m.eval(f, &v));
        assert!(m.any_sat(Bdd::FALSE).is_none());
        // Negated functions extract satisfying cubes through the
        // complement bit too.
        let nf = m.not(f);
        let ncube = m.any_sat(nf).expect("complement satisfiable");
        let mut nv = Valuation::all_false(t.len());
        for l in ncube.lits() {
            nv.set(l.signal(), l.polarity());
        }
        assert!(!m.eval(f, &nv));
    }

    #[test]
    fn isop_cover_is_exact() {
        let (_t, mut m, ids) = setup();
        // f = a&!b | c&d | a&c
        let e = BoolExpr::or([
            BoolExpr::and([BoolExpr::var(ids[0]), BoolExpr::var(ids[1]).not()]),
            BoolExpr::and([BoolExpr::var(ids[2]), BoolExpr::var(ids[3])]),
            BoolExpr::and([BoolExpr::var(ids[0]), BoolExpr::var(ids[2])]),
        ]);
        let f = m.from_expr(&e);
        let cover = m.cubes(f);
        let mut back = Bdd::FALSE;
        for cube in &cover {
            let cb = m.from_cube(cube);
            back = m.or(back, cb);
        }
        assert_eq!(back, f, "cover must rebuild exactly f");
        // And the same through a complemented root.
        let nf = m.not(f);
        let ncover = m.cubes(nf);
        let mut nback = Bdd::FALSE;
        for cube in &ncover {
            let cb = m.from_cube(cube);
            nback = m.or(nback, cb);
        }
        assert_eq!(nback, nf, "cover of the complement rebuilds ¬f");
    }

    #[test]
    fn to_expr_round_trips() {
        let (_t, mut m, ids) = setup();
        let a = m.var_for_signal(ids[0]);
        let b = m.var_for_signal(ids[1]);
        let c = m.var_for_signal(ids[2]);
        let ab = m.and(a, b);
        let f = m.or(ab, c);
        let e = m.to_expr(f);
        let f2 = m.from_expr(&e);
        assert_eq!(f, f2);
        assert_eq!(m.to_expr(Bdd::TRUE), BoolExpr::tt());
        assert_eq!(m.to_expr(Bdd::FALSE), BoolExpr::ff());
    }

    #[test]
    fn support_and_size() {
        let (_t, mut m, ids) = setup();
        let a = m.var_for_signal(ids[0]);
        let c = m.var_for_signal(ids[2]);
        let f = m.and(a, c);
        assert_eq!(m.support(f), vec![ids[0], ids[2]]);
        assert_eq!(m.size(f), 2);
        assert_eq!(m.size(Bdd::TRUE), 0);
        assert_eq!(m.size(Bdd::FALSE), 0);
        let nf = m.not(f);
        assert_eq!(m.support(nf), vec![ids[0], ids[2]]);
    }

    #[test]
    fn and_exists_matches_naive() {
        let (_t, mut m, ids) = setup();
        let a = m.var_for_signal(ids[0]);
        let b = m.var_for_signal(ids[1]);
        let c = m.var_for_signal(ids[2]);
        let d = m.var_for_signal(ids[3]);
        let nb = m.not(b);
        let f = m.or(a, nb);
        let cd = m.and(c, d);
        let g = m.xor(b, cd);
        let vb = m.var_index(ids[1]);
        let vc = m.var_index(ids[2]);
        let set = m.register_var_set(&[vb, vc]);
        let fast = m.and_exists(f, g, set);
        let conj = m.and(f, g);
        let naive = m.exists_all(conj, &[ids[1], ids[2]]);
        assert_eq!(fast, naive);
        // Quantifying nothing is plain conjunction.
        let empty = m.register_var_set(&[]);
        assert_eq!(m.and_exists(f, g, empty), conj);
        // One operand true degrades to plain quantification.
        let quantified = m.exists_all(g, &[ids[1], ids[2]]);
        assert_eq!(m.and_exists(g, Bdd::TRUE, set), quantified);
        // New complement-edge short-circuits: f ∧ ¬f and f ∧ f.
        let ng = m.not(g);
        assert!(m.and_exists(g, ng, set).is_false());
        assert_eq!(m.and_exists(g, g, set), quantified);
    }

    #[test]
    fn sat_cubes_enumerates_disjoint_paths() {
        let (_t, mut m, ids) = setup();
        let a = m.var_for_signal(ids[0]);
        let b = m.var_for_signal(ids[1]);
        let f = m.or(a, b); // paths: a, !a&b
        let cubes = m.sat_cubes(f, 10);
        assert_eq!(cubes.len(), 2);
        // Each cube satisfies f; their disjunction rebuilds f exactly
        // (paths partition the satisfying space).
        let mut back = Bdd::FALSE;
        for c in &cubes {
            let cb = m.from_cube(c);
            let implied = m.implies(cb, f);
            assert!(implied.is_true());
            back = m.or(back, cb);
        }
        assert_eq!(back, f);
        // The limit truncates; the first cube matches any_sat.
        let one = m.sat_cubes(f, 1);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0], m.any_sat(f).unwrap());
        assert!(m.sat_cubes(Bdd::FALSE, 4).is_empty());
        assert_eq!(m.sat_cubes(Bdd::TRUE, 4).len(), 1);
        // Complemented roots enumerate the complement's paths.
        let nf = m.not(f); // !a & !b — one path
        let ncubes = m.sat_cubes(nf, 10);
        assert_eq!(ncubes.len(), 1);
        let ncb = m.from_cube(&ncubes[0]);
        assert_eq!(ncb, nf);
    }

    #[test]
    fn rename_swaps_variable_banks() {
        // Interleaved banks: a (curr), b (next), c (curr), d (next).
        let (_t, mut m, ids) = setup();
        let a = m.var_for_signal(ids[0]);
        let _b = m.var_for_signal(ids[1]);
        let c = m.var_for_signal(ids[2]);
        let _d = m.var_for_signal(ids[3]);
        let (va, vb, vc, vd) = (
            m.var_index(ids[0]),
            m.var_index(ids[1]),
            m.var_index(ids[2]),
            m.var_index(ids[3]),
        );
        // f over the "next" bank: b & !d.
        let b = m.var_for_signal(ids[1]);
        let d = m.var_for_signal(ids[3]);
        let nd = m.not(d);
        let f = m.and(b, nd);
        let next_to_curr = m.register_pairing(&[(vb, va), (vd, vc)]);
        let renamed = m.rename(f, next_to_curr);
        let nc = m.not(c);
        let expect = m.and(a, nc);
        assert_eq!(renamed, expect);
        // Functions not mentioning paired variables are untouched.
        assert_eq!(m.rename(a, next_to_curr), a);
        assert_eq!(m.rename(Bdd::TRUE, next_to_curr), Bdd::TRUE);
        // Renaming commutes with complement (shared memo entry).
        let nf = m.not(f);
        let nrenamed = m.rename(nf, next_to_curr);
        assert_eq!(nrenamed, renamed.complement());
    }

    #[test]
    fn registration_is_idempotent() {
        let (_t, mut m, ids) = setup();
        let va = m.var_index(ids[0]);
        let vb = m.var_index(ids[1]);
        assert_eq!(
            m.register_var_set(&[vb, va, va]),
            m.register_var_set(&[va, vb])
        );
        assert_eq!(
            m.register_pairing(&[(va, vb)]),
            m.register_pairing(&[(va, vb)])
        );
    }

    #[test]
    #[should_panic(expected = "order-preserving")]
    fn non_monotone_pairing_rejected() {
        let (_t, mut m, ids) = setup();
        let va = m.var_index(ids[0]);
        let vb = m.var_index(ids[1]);
        let vc = m.var_index(ids[2]);
        let vd = m.var_index(ids[3]);
        // a -> d and c -> b reverses the order of the targets.
        m.register_pairing(&[(va, vd), (vc, vb)]);
    }

    #[test]
    fn cache_accounting_moves() {
        let (_t, mut m, ids) = setup();
        let a = m.var_for_signal(ids[0]);
        let b = m.var_for_signal(ids[1]);
        let _f = m.and(a, b);
        assert!(m.cache_entries() > 0);
        let before_nodes = m.node_count();
        m.clear_op_caches();
        assert_eq!(m.cache_entries(), 0);
        assert_eq!(m.node_count(), before_nodes, "nodes survive a cache clear");
        // Handles stay canonical after clearing.
        let f2 = m.and(a, b);
        assert_eq!(f2, _f);
    }

    #[test]
    fn entails_matches_implies_without_counted_work() {
        let (_t, mut m, ids) = setup();
        let v: Vec<Bdd> = ids.iter().map(|&s| m.var_for_signal(s)).collect();
        let mut fs = vec![Bdd::TRUE, Bdd::FALSE];
        for i in 0..v.len() {
            for j in i + 1..v.len() {
                let (and, or, xor) = (m.and(v[i], v[j]), m.or(v[i], v[j]), m.xor(v[i], v[j]));
                fs.extend([v[i], and, or, xor, and.complement(), xor.complement()]);
            }
        }
        let abc = m.and(fs[5], v[2]);
        fs.push(abc);
        // The read-only walk allocates nothing and touches no memo.
        let (nodes, memo) = (m.node_count(), m.cache_entries());
        let walked: Vec<bool> = fs
            .iter()
            .flat_map(|&f| fs.iter().map(move |&g| (f, g)))
            .map(|(f, g)| m.entails(f, g))
            .collect();
        assert_eq!((m.node_count(), m.cache_entries()), (nodes, memo));
        let mut k = 0;
        for &f in &fs {
            for &g in &fs {
                assert_eq!(walked[k], m.implies(f, g).is_true(), "{f:?} -> {g:?}");
                k += 1;
            }
        }
    }

    #[test]
    fn from_cube_matches_lits() {
        let (_t, mut m, ids) = setup();
        let cube = Cube::from_lits([Lit::pos(ids[0]), Lit::neg(ids[1])]).unwrap();
        let f = m.from_cube(&cube);
        let a = m.var_for_signal(ids[0]);
        let b = m.var_for_signal(ids[1]);
        let nb = m.not(b);
        let expect = m.and(a, nb);
        assert_eq!(f, expect);
    }
}
