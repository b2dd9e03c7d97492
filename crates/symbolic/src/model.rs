//! Symbolic encoding of a netlist: transition relation over BDD variable
//! banks, never materializing states.
//!
//! A *symbolic state* is an assignment to the **state signals** — the
//! module's latches plus its nondeterministic inputs (declared inputs and
//! the spec signals passed as `extra_free`), exactly the state notion of
//! the explicit `dic_fsm::Kripke` structure. Every state signal gets two
//! BDD variables, a *current* and a *next* one, allocated interleaved
//! (`curr(s) < next(s) < curr(s')`) so that swapping banks is an
//! order-preserving rename ([`dic_logic::BddManager::rename`]).
//!
//! Combinational wires never get variables: their functions are built once
//! as BDDs over the current bank and substituted wherever a property or
//! automaton literal mentions them. The transition relation stays
//! *partitioned* — one conjunct `next(l) ↔ f_l(current)` per latch — so
//! image computation can interleave conjunction with early quantification
//! through the combined and-exists operator instead of ever building the
//! monolithic relation.

use crate::check::ProductData;
use crate::error::SymbolicError;
use dic_logic::{Bdd, BddManager, BoolExpr, SignalId, SignalTable};
use dic_ltl::Ltl;
use dic_netlist::Module;
use std::collections::HashMap;
use std::fmt;

/// Default budget for live BDD nodes (see [`SymbolicOptions::node_limit`]).
///
/// At roughly 60 bytes per node (node store + unique table entry) this
/// bounds the manager around 1.5 GB before the engine refuses — sized so
/// every packaged design fits the full pipeline with headroom under the
/// complement-edge core's defaults while still failing closed long before
/// a development container OOMs. Measured node-store peaks, garbage
/// included (nothing is collected below the first rebuild trigger):
/// amba-ahb forced-symbolic 10.95 M at `--jobs 1` and 11.58 M at
/// `--jobs 2`, mal-26 8.14 M / 8.42 M, mal-ex2 symbolic ≈0.22–0.29 M. The
/// first rebuild trigger ([`COMPACT_FIRST_TRIGGER`], capped at three
/// quarters of the budget) sits between those peaks and this budget, so
/// packaged runs never pay a rebuild and runs that would refuse get one
/// collection first.
pub const DEFAULT_NODE_LIMIT: usize = 24_000_000;

/// Automaton state bits pre-allocated *above* the module variable banks.
///
/// BDD variable order is registration order (nothing reorders it), and
/// sets produced by the
/// fair-cycle fixpoints are typically "multiplexers": a disjunction over
/// automaton codes of per-code signal conditions. With the code bits at
/// the top of the order such a set is the disjoint union of its branches
/// (linear); with the code bits at the bottom every signal combination
/// must be remembered before the code is read (exponential). Queries
/// needing more bits than this still work — overflow bits are allocated
/// below the banks — they just lose the good ordering.
pub const AUT_BITS_ON_TOP: usize = 160;

/// Node-store size arming the first automatic rebuild (capped at three
/// quarters of the node budget), and the minimum growth between
/// consecutive rebuilds (capped at a quarter of the budget).
///
/// Deliberately high — a safety valve short of the default node budget
/// ([`DEFAULT_NODE_LIMIT`]), not an eager policy: every rebuild clears
/// the operation memos, and on fixpoint-heavy runs recomputing those
/// dwarfs what a collection saves (amba-ahb forced-symbolic peaks near
/// 11–12 M nodes and fits the budget outright). Smaller budgets trigger
/// at three quarters of the budget, so a run collects its garbage before
/// it refuses.
pub const COMPACT_FIRST_TRIGGER: usize = 1 << 24;

/// Default cluster-size cap (BDD nodes) for the conjunctively partitioned
/// transition relation (see [`SymbolicOptions::cluster_size`]).
///
/// The per-latch/per-automaton conjunct list is greedily merged into
/// clusters no larger than this many nodes: each image step then runs one
/// `and_exists` sweep per *cluster* instead of one per conjunct, cutting
/// the number of passes over the (large) frontier set by an order of
/// magnitude while keeping each cluster small enough that the combined
/// conjoin-and-quantify step stays local. Tuned on the packaged designs
/// (the 20K–100K range is flat on amba-ahb, smaller caps ~15% slower,
/// the unclustered list ~2× slower; see DESIGN.md § "BDD core") — the n=4
/// caveat of every other crossover constant applies.
pub const DEFAULT_CLUSTER_SIZE: usize = 60_000;

/// A retired transition-relation switch, kept so the benchmark probe's
/// provenance record still compiles. The engine always clusters the
/// relation (see [`SymbolicOptions::cluster_size`]), so
/// [`SymbolicOptions::partition`] always reads [`PartitionMode::Auto`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PartitionMode {
    /// The only mode the engine has: greedy clustering.
    #[default]
    Auto,
}

impl fmt::Display for PartitionMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("auto")
    }
}

/// A retired dynamic-reordering switch, kept so the benchmark probe's
/// calls still compile. The engine never reads it: the variable order is
/// always the registration order, and a triggered rebuild only compacts.
/// [`SymbolicOptions::with_reorder`] ignores its argument, so
/// [`SymbolicOptions::reorder`] always reads [`ReorderMode::Off`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ReorderMode {
    /// The only mode the engine has: no reordering.
    #[default]
    Off,
    /// Accepted by [`SymbolicOptions::with_reorder`] and ignored.
    Auto,
}

impl fmt::Display for ReorderMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ReorderMode::Off => "off",
            ReorderMode::Auto => "auto",
        })
    }
}

/// Cumulative rebuild statistics for one symbolic model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Garbage collections: every rebuild (each one a compaction).
    pub gc_collections: usize,
    /// Total nodes those rebuilds dropped from the store.
    pub gc_freed: usize,
    /// Honest node-store high-water mark, *including* garbage collected
    /// since (the `bdd.peak_nodes` trace gauge only records peaks while
    /// tracing is enabled, and the node count after a rebuild understates
    /// what was actually allocated). Packaged runs at the default budget
    /// never rebuild, so this is their whole store.
    pub peak_nodes: usize,
}

/// Tuning knobs for the symbolic engine.
#[derive(Clone, Copy, Debug)]
pub struct SymbolicOptions {
    /// Fail-closed budget for live BDD nodes, checked between fixpoint
    /// steps (the symbolic analogue of `dic_fsm::KRIPKE_BIT_LIMIT`).
    pub node_limit: usize,
    /// Retired; always [`ReorderMode::Off`] and never read by the engine
    /// (see [`ReorderMode`]).
    pub reorder: ReorderMode,
    /// Node count arming the first automatic rebuild (tests lower it to
    /// exercise collection on small models).
    pub compact_trigger: usize,
    /// Retired; always [`PartitionMode::Auto`] and never read by the
    /// engine (see [`PartitionMode`]).
    pub partition: PartitionMode,
    /// Cluster-size cap (BDD nodes) of the transition relation: adjacent
    /// conjuncts merge while their conjunction stays within this many
    /// nodes. At `1` only a conjunction of one node or a constant merges,
    /// which keeps the per-latch/per-automaton conjuncts apart: the
    /// unclustered relation tests compare clustering against.
    pub cluster_size: usize,
}

impl Default for SymbolicOptions {
    /// The baked-in defaults: [`DEFAULT_NODE_LIMIT`], the first rebuild at
    /// [`COMPACT_FIRST_TRIGGER`], clustered partitioning. Environment
    /// overrides (which can be *invalid* and must
    /// error, not silently fall back) live in
    /// [`SymbolicOptions::from_env`].
    fn default() -> Self {
        SymbolicOptions {
            node_limit: DEFAULT_NODE_LIMIT,
            reorder: ReorderMode::default(),
            compact_trigger: COMPACT_FIRST_TRIGGER,
            partition: PartitionMode::default(),
            cluster_size: DEFAULT_CLUSTER_SIZE,
        }
    }
}

impl SymbolicOptions {
    /// The default options with the `SPECMATCHER_BDD_NODE_LIMIT`
    /// override applied, strict-parsed (unset means the default): the
    /// node budget, a count with an optional `K`/`M` suffix (`24M`, `96m`,
    /// `500K`); an escape hatch for models just past
    /// [`DEFAULT_NODE_LIMIT`] on machines with memory to spare (the limit
    /// exists to fail closed, not to cap capability).
    ///
    /// # Errors
    ///
    /// [`SymbolicError::InvalidNodeLimit`] when the variable is set but
    /// does not parse — a typo'd override must not silently become the
    /// default it was meant to replace.
    pub fn from_env() -> Result<Self, SymbolicError> {
        let mut opts = SymbolicOptions::default();
        if let Ok(v) = std::env::var("SPECMATCHER_BDD_NODE_LIMIT") {
            opts.node_limit = parse_node_limit(&v)?;
        }
        Ok(opts)
    }

    /// Returns the options unchanged: `_mode` is ignored, like the rest
    /// of [`ReorderMode`]. The method keeps the benchmark probe's call
    /// working.
    pub fn with_reorder(self, _mode: ReorderMode) -> Self {
        self
    }
}

/// Parses a node-limit value: a positive integer with an optional `K`/`M`
/// (×10³/×10⁶) suffix, case-insensitive.
fn parse_node_limit(v: &str) -> Result<usize, SymbolicError> {
    let invalid = || SymbolicError::InvalidNodeLimit {
        value: v.to_owned(),
    };
    let s = v.trim();
    let (digits, scale) = match s.as_bytes().last() {
        Some(b'k' | b'K') => (&s[..s.len() - 1], 1_000usize),
        Some(b'm' | b'M') => (&s[..s.len() - 1], 1_000_000usize),
        _ => (s, 1),
    };
    let n: usize = digits.trim().parse().map_err(|_| invalid())?;
    match n.checked_mul(scale) {
        Some(limit) if limit > 0 => Ok(limit),
        _ => Err(invalid()),
    }
}

/// A netlist encoded as BDDs: variable banks, partitioned transition
/// relation, initial states and wire functions.
///
/// Build one per model with [`SymbolicModel::from_module`], then answer
/// existential LTL queries with
/// [`SymbolicModel::satisfiable_conj`](crate::check). The BDD manager is
/// owned by the model and shared across queries, so repeated checks reuse
/// node structure and operation caches.
#[derive(Debug)]
pub struct SymbolicModel {
    pub(crate) man: BddManager,
    pub(crate) module: Module,
    /// Snapshot of the signal table at build time (diagnostics + word
    /// reconstruction; the model is only meaningful for formulas whose
    /// atoms were interned before the snapshot).
    pub(crate) table: SignalTable,
    /// State signals: latch outputs first, then nondeterministic inputs.
    pub(crate) state_signals: Vec<SignalId>,
    pub(crate) n_latches: usize,
    /// Current/next variable index per state signal (parallel to
    /// `state_signals`).
    pub(crate) curr_var: Vec<u32>,
    pub(crate) next_var: Vec<u32>,
    /// Signal → BDD over the current bank, for every signal a literal may
    /// mention: latches and inputs map to their variable, wires to their
    /// substituted function.
    pub(crate) sig_bdd: HashMap<SignalId, Bdd>,
    /// One conjunct `next(l) ↔ f_l(current)` per latch, in latch order.
    pub(crate) trans_latches: Vec<Bdd>,
    /// Reset states: latches at their init values, inputs free.
    pub(crate) init: Bdd,
    /// Synthetic ids handed to the manager for next-bank and automaton
    /// variables; the next fresh one is `table.len() + synth_count`.
    pub(crate) synth_count: usize,
    /// Pool of automaton state bits, `(curr var, next var)` per bit,
    /// reused across queries (bit `i` always maps to the same variables).
    pub(crate) aut_pool: Vec<(u32, u32)>,
    /// Symbolic products cached per conjunct list: encoded automata,
    /// quantification schedules and memoized fixpoints (reachable set,
    /// fair hull, onion rings). The gap phase issues hundreds of queries
    /// against the same base (`R ∧ ¬FA`), so this cache is the symbolic
    /// counterpart of the explicit engine's materialized sub-products.
    pub(crate) products: HashMap<Vec<Ltl>, ProductData>,
    /// Nesting depth of active [`SymbolicModel::scratch`] closures. While
    /// positive, no rebuild may run: the running query holds intermediate
    /// handles that are not in the root set.
    pub(crate) scratch_depth: usize,
    /// Node-store size arming the next rebuild (see
    /// [`SymbolicModel::maybe_rebuild`]).
    rebuild_next: usize,
    gc_stats: GcStats,
    pub(crate) options: SymbolicOptions,
}

impl SymbolicModel {
    /// Encodes `module` with `extra_free` signals (spec signals the module
    /// does not drive) as additional nondeterministic inputs — the same
    /// contract as `dic_fsm::Kripke::from_module`, without the explicit
    /// state-space limit.
    ///
    /// # Errors
    ///
    /// [`SymbolicError::NodeLimit`] if encoding the next-state functions
    /// alone exceeds the node budget (pathological netlists only).
    pub fn from_module(
        module: &Module,
        table: &SignalTable,
        extra_free: &[SignalId],
        options: SymbolicOptions,
    ) -> Result<Self, SymbolicError> {
        let mut m = SymbolicModel {
            man: BddManager::new(),
            module: module.clone(),
            table: table.clone(),
            state_signals: Vec::new(),
            n_latches: 0,
            curr_var: Vec::new(),
            next_var: Vec::new(),
            sig_bdd: HashMap::new(),
            trans_latches: Vec::new(),
            init: Bdd::TRUE,
            synth_count: 0,
            aut_pool: Vec::new(),
            products: HashMap::new(),
            scratch_depth: 0,
            rebuild_next: options
                .compact_trigger
                .min(options.node_limit - options.node_limit / 4),
            gc_stats: GcStats::default(),
            options,
        };

        // The variable order is the registration order, so the order
        // invariants hold by construction: automaton bits first, at the
        // top of the order (see [`AUT_BITS_ON_TOP`]), then one adjacent
        // current/next pair per state signal.
        m.ensure_aut_bits(AUT_BITS_ON_TOP);

        // State signals: latches, then declared inputs, then free spec
        // signals (dedup'd, driven ones ignored) — the same accounting as
        // the explicit Kripke constructor.
        let latch_signals = module.state_signals();
        m.n_latches = latch_signals.len();
        let inputs = module.nondet_inputs(extra_free);
        m.state_signals = latch_signals.into_iter().chain(inputs).collect();

        // Interleaved variable banks: curr(s) immediately above next(s).
        for i in 0..m.state_signals.len() {
            let s = m.state_signals[i];
            let curr = m.man.var_index(s);
            let next = m.fresh_var();
            m.curr_var.push(curr);
            m.next_var.push(next);
            let v = m.man.var_for_signal(s);
            m.sig_bdd.insert(s, v);
        }

        // Wire functions over the current bank, in dependency order.
        for &wi in module.wire_order() {
            let w = &module.wires()[wi];
            let f = m.expr_bdd(w.func())?;
            m.sig_bdd.insert(w.output(), f);
        }

        // Partitioned transition relation and initial states.
        for (li, latch) in module.latches().iter().enumerate() {
            let f = m.expr_bdd(latch.next())?;
            let nv = m.var_bdd(m.next_var[li]);
            let conjunct = m.man.iff(nv, f);
            m.trans_latches.push(conjunct);

            let cv = m.var_bdd(m.curr_var[li]);
            let lit = if latch.init() { cv } else { m.man.not(cv) };
            m.init = m.man.and(m.init, lit);
        }
        m.check_limit()?;
        Ok(m)
    }

    /// Number of state bits (latches + nondeterministic inputs) — the
    /// quantity the explicit engine compares against its bit limit, and
    /// what `Backend::Auto` thresholds on.
    pub fn state_bits(&self) -> usize {
        self.state_signals.len()
    }

    /// Live BDD nodes in the owned manager.
    pub fn node_count(&self) -> usize {
        self.man.node_count()
    }

    /// Operation-cache entries in the owned manager.
    pub fn cache_entries(&self) -> usize {
        self.man.cache_entries()
    }

    /// The configured node budget.
    pub fn node_limit(&self) -> usize {
        self.options.node_limit
    }

    /// Runs `f` as a *scratch* query on `pd`, the product taken out of the
    /// cache: its result is extracted to non-BDD form (a verdict, a
    /// witness valuation sequence), so the nodes it creates are garbage.
    /// Its intermediate handles are not rebuild roots, so no rebuild runs
    /// inside the scope. On exit every live handle is a root again, and
    /// the same trigger the fixpoint loop heads check runs here
    /// ([`SymbolicModel::maybe_rebuild`]) — so consecutive queries share
    /// warm operation memos until the store outgrows the trigger, and
    /// one compaction then collects all of their garbage at once.
    pub(crate) fn scratch<T>(
        &mut self,
        pd: &mut ProductData,
        f: impl FnOnce(&mut SymbolicModel, &mut ProductData) -> Result<T, SymbolicError>,
    ) -> Result<T, SymbolicError> {
        self.scratch_depth += 1;
        let result = f(self, pd);
        self.scratch_depth -= 1;
        // Collect even after a refusal, so a caller that survives it does
        // not find the store still over budget.
        let rebuilt = self.maybe_rebuild(pd, &mut []);
        let value = result?;
        rebuilt?;
        Ok(value)
    }

    /// Fails closed once the manager outgrows its budget; called between
    /// fixpoint steps so the error surfaces before memory pressure does.
    /// (Operation memos are not part of the refusal: every rebuild drops
    /// them, and a single query's cache growth is collateral of its node
    /// growth, which this limit bounds.)
    pub(crate) fn check_limit(&self) -> Result<(), SymbolicError> {
        match dic_fault::hit(dic_fault::Site::BddAlloc) {
            Some(dic_fault::FaultKind::NodeLimit) => {
                return Err(SymbolicError::NodeLimit {
                    nodes: self.man.node_count(),
                    cache_entries: self.man.cache_entries(),
                    limit: self.options.node_limit,
                })
            }
            Some(dic_fault::FaultKind::Deadline) => return Err(SymbolicError::Deadline),
            Some(dic_fault::FaultKind::Panic) => dic_fault::injected_panic(),
            Some(dic_fault::FaultKind::SatUnknown) | None => {}
        }
        let nodes = self.man.node_count();
        if nodes > self.options.node_limit {
            return Err(SymbolicError::NodeLimit {
                nodes,
                cache_entries: self.man.cache_entries(),
                limit: self.options.node_limit,
            });
        }
        Ok(())
    }

    /// Cooperative governance checkpoint at every fixpoint loop head
    /// (`reachable`/`until`/`hull`/`rings_to`): polls the process-wide
    /// deadline and hosts the `symbolic.fixpoint_step` injection site.
    /// Raised between steps like [`SymbolicModel::check_limit`], so a trip
    /// leaves the manager consistent and the query resumable-from-scratch.
    pub(crate) fn check_governance(&self) -> Result<(), SymbolicError> {
        match dic_fault::hit(dic_fault::Site::SymbolicFixpointStep) {
            Some(dic_fault::FaultKind::NodeLimit) => {
                return Err(SymbolicError::NodeLimit {
                    nodes: self.man.node_count(),
                    cache_entries: self.man.cache_entries(),
                    limit: self.options.node_limit,
                })
            }
            Some(dic_fault::FaultKind::Deadline) => return Err(SymbolicError::Deadline),
            Some(dic_fault::FaultKind::Panic) => dic_fault::injected_panic(),
            Some(dic_fault::FaultKind::SatUnknown) | None => {}
        }
        if dic_fault::deadline_expired() {
            return Err(SymbolicError::Deadline);
        }
        Ok(())
    }

    /// Cumulative rebuild and node-store statistics (the peak comes
    /// straight from the manager).
    pub fn gc_stats(&self) -> GcStats {
        GcStats {
            peak_nodes: self.man.peak_node_count(),
            ..self.gc_stats
        }
    }

    /// Compacts the manager over its root set once the node store reaches
    /// the trigger — the only garbage collection the append-only manager
    /// has. Checked at every fixpoint loop head and at every scratch exit.
    ///
    /// Safety contract (see the module docs of [`crate::check`]): this may
    /// only run where the complete set of live handles is known — the
    /// model's encodings, every cached product, the product currently
    /// taken out of the cache (`pd`), and the running fixpoint's local
    /// handles (`live`), which are remapped in place. It therefore never
    /// fires inside a scratch scope, whose running query holds untracked
    /// intermediates. A rebuild drops every handle outside the root set.
    pub(crate) fn maybe_rebuild(
        &mut self,
        pd: &mut ProductData,
        live: &mut [Bdd],
    ) -> Result<(), SymbolicError> {
        if self.scratch_depth > 0 || self.man.node_count() < self.rebuild_next {
            return Ok(());
        }

        let t0 = dic_trace::Stopwatch::start();
        let mut roots: Vec<Bdd> = Vec::new();
        self.visit_model_roots(&mut |b| roots.push(*b));
        for cached in self.products.values_mut() {
            cached.visit_roots(&mut |b| roots.push(*b));
        }
        pd.visit_roots(&mut |b| roots.push(*b));
        roots.extend_from_slice(live);
        let outcome = self.man.compact(&roots);
        self.visit_model_roots(&mut |b| outcome.remap(b));
        for cached in self.products.values_mut() {
            cached.visit_roots(&mut |b| outcome.remap(b));
        }
        pd.visit_roots(&mut |b| outcome.remap(b));
        for b in live.iter_mut() {
            outcome.remap(b);
        }

        self.gc_stats.gc_collections += 1;
        self.gc_stats.gc_freed += outcome.store_before - self.man.node_count();
        if dic_trace::enabled() {
            dic_trace::count(dic_trace::Counter::BddCompactions, 1);
            dic_trace::count(dic_trace::Counter::BddGcCollections, 1);
            dic_trace::event(
                "bdd.compact",
                &[
                    ("store_before", outcome.store_before as u64),
                    ("live", outcome.live as u64),
                    ("dur_ns", t0.elapsed().as_nanos() as u64),
                ],
            );
        }
        let growth = self
            .options
            .compact_trigger
            .min(self.options.node_limit / 4);
        self.rebuild_next = outcome.live.saturating_mul(2).max(outcome.live + growth);
        self.check_limit()
    }

    /// Visits every BDD handle the model itself keeps (product handles are
    /// visited via [`ProductData::visit_roots`]).
    fn visit_model_roots(&mut self, f: &mut dyn FnMut(&mut Bdd)) {
        f(&mut self.init);
        for c in &mut self.trans_latches {
            f(c);
        }
        for b in self.sig_bdd.values_mut() {
            f(b);
        }
    }

    /// Allocates a fresh manager variable backed by a synthetic signal id
    /// (next-bank and automaton variables have no table entry).
    pub(crate) fn fresh_var(&mut self) -> u32 {
        let id = SignalId::from_index(self.table.len() + self.synth_count);
        self.synth_count += 1;
        self.man.var_index(id)
    }

    /// Ensures the automaton bit pool holds at least `n` bits and returns
    /// nothing; bit `i` is stable across queries, so reusing the pool keeps
    /// the variable count bounded no matter how many queries run.
    pub(crate) fn ensure_aut_bits(&mut self, n: usize) {
        while self.aut_pool.len() < n {
            let curr = self.fresh_var();
            let next = self.fresh_var();
            self.aut_pool.push((curr, next));
        }
    }

    /// The single-variable function for a raw variable index.
    pub(crate) fn var_bdd(&mut self, var: u32) -> Bdd {
        let sig = self.man.signal_of_var(var);
        self.man.var_for_signal(sig)
    }

    /// The BDD of a signal over the current bank (latch/input variable or
    /// substituted wire function).
    pub(crate) fn signal_bdd(&self, s: SignalId) -> Result<Bdd, SymbolicError> {
        self.sig_bdd
            .get(&s)
            .copied()
            .ok_or_else(|| SymbolicError::UnknownSignal {
                name: if s.index() < self.table.len() {
                    self.table.name(s).to_owned()
                } else {
                    format!("{s:?}")
                },
            })
    }

    /// Builds the BDD of a wire/latch function, substituting state
    /// variables and previously built wire functions.
    fn expr_bdd(&mut self, e: &BoolExpr) -> Result<Bdd, SymbolicError> {
        Ok(match e {
            BoolExpr::Const(true) => Bdd::TRUE,
            BoolExpr::Const(false) => Bdd::FALSE,
            BoolExpr::Var(s) => self.signal_bdd(*s)?,
            BoolExpr::Not(inner) => {
                let f = self.expr_bdd(inner)?;
                self.man.not(f)
            }
            BoolExpr::And(parts) => {
                let mut acc = Bdd::TRUE;
                for p in parts {
                    let f = self.expr_bdd(p)?;
                    acc = self.man.and(acc, f);
                    if acc.is_false() {
                        break;
                    }
                }
                acc
            }
            BoolExpr::Or(parts) => {
                let mut acc = Bdd::FALSE;
                for p in parts {
                    let f = self.expr_bdd(p)?;
                    acc = self.man.or(acc, f);
                    if acc.is_true() {
                        break;
                    }
                }
                acc
            }
            BoolExpr::Xor(a, b) => {
                let fa = self.expr_bdd(a)?;
                let fb = self.expr_bdd(b)?;
                self.man.xor(fa, fb)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dic_netlist::ModuleBuilder;

    fn simple() -> (SignalTable, Module) {
        let mut t = SignalTable::new();
        let mut b = ModuleBuilder::new("simple", &mut t);
        let a = b.input("a");
        let bb = b.input("b");
        b.latch(
            "c",
            BoolExpr::and([BoolExpr::var(a), BoolExpr::var(bb)]),
            false,
        );
        let m = b.finish().expect("valid");
        (t, m)
    }

    #[test]
    fn banks_are_interleaved() {
        // The variable order is the registration order: the pre-allocated
        // automaton pairs take the lowest ids, every current/next pair is
        // adjacent, and overflow automaton pairs land below the banks.
        let (t, m) = simple();
        let mut sm =
            SymbolicModel::from_module(&m, &t, &[], SymbolicOptions::default()).expect("builds");
        assert_eq!(sm.state_bits(), 3); // c, a, b
        assert_eq!(sm.trans_latches.len(), 1);
        assert!(!sm.init.is_false());
        assert_eq!(sm.aut_pool.len(), AUT_BITS_ON_TOP);
        for (i, &(c, n)) in sm.aut_pool.iter().enumerate() {
            assert_eq!((c, n), (2 * i as u32, 2 * i as u32 + 1), "aut pair {i}");
        }
        let top = 2 * AUT_BITS_ON_TOP as u32;
        for i in 0..sm.state_bits() {
            assert!(
                sm.curr_var[i] >= top,
                "state pair {i} inside the automaton block"
            );
            assert_eq!(sm.next_var[i], sm.curr_var[i] + 1, "state pair {i}");
        }
        let last_state = sm.next_var.iter().copied().max().expect("state bits");
        sm.ensure_aut_bits(AUT_BITS_ON_TOP + 2);
        for &(c, n) in &sm.aut_pool[AUT_BITS_ON_TOP..] {
            assert!(
                c > last_state,
                "overflow pair {c}/{n} must sit below the banks"
            );
            assert_eq!(n, c + 1, "overflow pair {c}/{n}");
        }
    }

    #[test]
    fn extra_free_extends_the_state() {
        let (mut t, m) = simple();
        let r = t.intern("r_free");
        let c = t.lookup("c").unwrap();
        let sm = SymbolicModel::from_module(&m, &t, &[r, c], SymbolicOptions::default())
            .expect("builds");
        // r is free (added); c is driven (ignored).
        assert_eq!(sm.state_bits(), 4);
        assert!(sm.state_signals.contains(&r));
    }

    #[test]
    fn wire_functions_are_substituted() {
        let mut t = SignalTable::new();
        let mut b = ModuleBuilder::new("m", &mut t);
        let a = b.input("a");
        let c = b.table().intern("c");
        b.latch("c", BoolExpr::var(a), false);
        let w = b.or_gate("w", [a, c], []);
        let m = b.finish().expect("valid");
        let mut sm =
            SymbolicModel::from_module(&m, &t, &[], SymbolicOptions::default()).expect("builds");
        let wf = sm.signal_bdd(w).expect("wire known");
        let va = sm.man.var_for_signal(a);
        let vc = sm.man.var_for_signal(c);
        let expect = sm.man.or(va, vc);
        assert_eq!(wf, expect, "w = a | c over the current bank");
    }

    #[test]
    fn unknown_signal_is_reported() {
        let (mut t, m) = simple();
        let ghost = t.intern("ghost");
        let sm =
            SymbolicModel::from_module(&m, &t, &[], SymbolicOptions::default()).expect("builds");
        match sm.signal_bdd(ghost) {
            Err(SymbolicError::UnknownSignal { name }) => assert_eq!(name, "ghost"),
            other => panic!("expected UnknownSignal, got {other:?}"),
        }
    }

    #[test]
    fn tiny_node_limit_fails_closed() {
        let (t, m) = simple();
        let err = SymbolicModel::from_module(
            &m,
            &t,
            &[],
            SymbolicOptions {
                node_limit: 2,
                ..SymbolicOptions::default()
            },
        )
        .expect_err("limit of 2 nodes cannot hold the relation");
        assert!(matches!(err, SymbolicError::NodeLimit { limit: 2, .. }));
    }
}
