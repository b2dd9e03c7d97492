//! The coverage model: composed concrete modules + free spec signals.

use crate::backend::{
    predicted_product_cost, Backend, AUTO_SYMBOLIC_BITS, AUTO_SYMBOLIC_PRODUCT_COST,
};
use crate::bmc::BmcMode;
use crate::error::CoreError;
use crate::spec::{ArchSpec, RtlSpec};
use dic_fsm::Kripke;
use dic_logic::{SignalId, SignalTable};
use dic_netlist::Module;
use dic_symbolic::{ReorderStats, SymbolicModel, SymbolicOptions};
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// The model `M` of the paper's Definition 1: the synchronous composition
/// of the concrete modules, with every specification signal that the
/// modules do not drive left as a free (nondeterministic) input.
///
/// Its runs are exactly the runs "consistent with the concrete modules",
/// so satisfiability of `R ∧ ¬A` *within this model* is the paper's
/// "`¬A ∧ R` is true in M".
///
/// A model carries up to two engines for that question, selected by
/// [`Backend`]: the explicit Kripke structure and the symbolic BDD model.
/// Both the primary coverage question (Theorem 1) and the gap phase
/// (Algorithm 1) dispatch per phase: [`CoverageModel::build`] resolves
/// [`Backend::Auto`] by state-bit count at build time (see
/// [`CoverageModel::primary_backend`]), and resolves the gap phase's own
/// engine at the same time ([`CoverageModel::gap_backend`]).
#[derive(Debug)]
pub struct CoverageModel {
    composed: Module,
    table: SignalTable,
    free: Vec<SignalId>,
    /// The explicit Kripke structure. Populated at build time when the
    /// resolved backend wants it, or lazily by
    /// [`CoverageModel::ensure_explicit_fallback`] when a per-candidate
    /// symbolic refusal retries on the explicit engine. `Some(None)` in
    /// the cell records a *failed* lazy attempt, so it is not repeated.
    kripke: OnceLock<Option<Kripke>>,
    /// Build-time verdict of the explicit-hostility axes (state bits and
    /// predicted product cost) — gates the lazy explicit fallback.
    explicit_hostile: bool,
    symbolic: Mutex<Option<SymbolicModel>>,
    /// Options any lazily built symbolic engine is constructed with.
    sym_options: SymbolicOptions,
    /// The engine answering primary queries (`Explicit` or `Symbolic`).
    primary_backend: Backend,
    /// The engine the gap phase runs on (`Explicit` or `Symbolic`).
    gap_backend: Backend,
    /// Nondeterministic inputs: module primary inputs + free spec signals.
    inputs: Vec<SignalId>,
    observable: BTreeSet<SignalId>,
    hidden: BTreeSet<SignalId>,
    cache: dic_automata::GbaCache,
    /// Materialized base products, keyed by the baked-in conjunction.
    products: Mutex<HashMap<Vec<dic_ltl::Ltl>, Arc<dic_automata::ProductSystem>>>,
    /// Whether gap queries first try the bounded SAT refutation tier
    /// ([`BmcMode::Auto`] by default; see [`CoverageModel::gap_query`]).
    bmc_mode: BmcMode,
    /// Unroll depth of the SAT tier (`SPECMATCHER_BMC_DEPTH` override or
    /// [`dic_sat::DEFAULT_BMC_DEPTH`], resolved at build time).
    bmc_depth: usize,
}

impl CoverageModel {
    /// Builds the model with the default [`Backend::Auto`] selection.
    ///
    /// See [`CoverageModel::build_with_backend`].
    ///
    /// # Errors
    ///
    /// As for [`CoverageModel::build_with_backend`].
    pub fn build(
        arch: &ArchSpec,
        rtl: &RtlSpec,
        table: &SignalTable,
    ) -> Result<Self, CoreError> {
        Self::build_with_backend(arch, rtl, table, Backend::Auto)
    }

    /// Builds the model for a spec pair with an explicit backend choice.
    ///
    /// Free signals are all atoms of `A` and `R` not driven by the concrete
    /// modules. The *observable* alphabet — what uncovered terms may mention
    /// after quantification — defaults to `AP_A` plus the primary inputs of
    /// the composition (the paper eliminates `AP_R − AP_A`, which is the
    /// complement of this set among term signals).
    ///
    /// Backend resolution: [`Backend::Explicit`] and [`Backend::Symbolic`]
    /// build only their engine; [`Backend::Auto`] goes symbolic past
    /// [`AUTO_SYMBOLIC_BITS`] state bits **or**
    /// [`AUTO_SYMBOLIC_PRODUCT_COST`] predicted product cost (a wide
    /// conjunction over a small design is just as explicit-hostile as a
    /// large state space) — for *both* phases, since the gap engine
    /// (Algorithm 1) runs symbolically too. The gap engine is resolved
    /// here, once ([`CoverageModel::gap_backend`]).
    ///
    /// Symbolic-engine options come from [`SymbolicOptions::from_env`]
    /// (with defaults: the stock node budget, dynamic reordering on); use
    /// [`CoverageModel::build_with_symbolic_options`] to override them.
    ///
    /// # Errors
    ///
    /// * [`CoreError::Netlist`] if the concrete modules cannot be composed,
    /// * [`CoreError::Fsm`] if the explicit backend was requested and the
    ///   state space exceeds the explicit limit,
    /// * [`CoreError::Symbolic`] if the symbolic encoding exceeds its node
    ///   budget — or if `SPECMATCHER_BDD_NODE_LIMIT` is set to garbage,
    /// * [`CoreError::UnknownArchSignal`] if an architectural signal appears
    ///   nowhere in the RTL spec (Assumption 1).
    pub fn build_with_backend(
        arch: &ArchSpec,
        rtl: &RtlSpec,
        table: &SignalTable,
        backend: Backend,
    ) -> Result<Self, CoreError> {
        let options = SymbolicOptions::from_env().map_err(CoreError::Symbolic)?;
        Self::build_with_symbolic_options(arch, rtl, table, backend, options)
    }

    /// Like [`CoverageModel::build_with_backend`] with explicit symbolic
    /// engine options (node budget, reorder mode/trigger) instead of the
    /// environment defaults.
    ///
    /// # Errors
    ///
    /// As for [`CoverageModel::build_with_backend`].
    pub fn build_with_symbolic_options(
        arch: &ArchSpec,
        rtl: &RtlSpec,
        table: &SignalTable,
        backend: Backend,
        options: SymbolicOptions,
    ) -> Result<Self, CoreError> {
        // Strict environment validation, fail-closed like the symbolic
        // options' node-limit parse: a typo in an override must surface
        // as a usage error before any analysis runs, never silently
        // select a default worker count or unroll depth.
        crate::backend::jobs_from_env().map_err(CoreError::InvalidEnv)?;
        crate::bmc::bmc_depth_from_env().map_err(CoreError::InvalidEnv)?;

        // Assumption 1: AP_A ⊆ AP_R.
        let ap_r = rtl.alphabet();
        for &s in &arch.alphabet() {
            if !ap_r.contains(&s) {
                return Err(CoreError::UnknownArchSignal {
                    name: table.name(s).to_owned(),
                });
            }
        }

        let module_refs: Vec<&Module> = rtl.concrete().iter().collect();
        let composed = Module::compose("M", &module_refs, table)?;

        // Cone-of-influence reduction: only the logic that can affect a
        // signal some property mentions matters for coverage; unrelated
        // latches would inflate the explicit state space exponentially.
        let mut spec_signals: Vec<SignalId> = Vec::new();
        for p in arch.properties() {
            spec_signals.extend(p.formula().atoms());
        }
        for p in rtl.properties() {
            spec_signals.extend(p.formula().atoms());
        }
        spec_signals.sort();
        spec_signals.dedup();
        let composed = composed.cone_of_influence(&spec_signals, table);

        // Free signals: every *property* atom the (reduced) composition
        // does not drive. Signals that only ever appeared inside dropped
        // cone logic stay out entirely.
        let mut free: Vec<SignalId> = Vec::new();
        let driven = composed.driven_signals();
        for &s in &spec_signals {
            if !driven.contains(&s) && !free.contains(&s) {
                free.push(s);
            }
        }
        // State-bit count, by the same accounting both engines use.
        let input_vars = composed.nondet_inputs(&free);
        let state_bits = composed.state_signals().len() + input_vars.len();
        // The Auto crossover reflects both cost axes: the state space the
        // explicit engine must enumerate, and the width of the property
        // product it must explore on the fly (see
        // [`AUTO_SYMBOLIC_PRODUCT_COST`]).
        let explicit_hostile = state_bits > AUTO_SYMBOLIC_BITS
            || predicted_product_cost(arch, rtl) > AUTO_SYMBOLIC_PRODUCT_COST;

        let (kripke, symbolic, primary_backend) = match backend {
            Backend::Explicit => (
                Some(Kripke::from_module(&composed, table, &free)?),
                None,
                Backend::Explicit,
            ),
            Backend::Symbolic => (
                None,
                Some(SymbolicModel::from_module(&composed, table, &free, options)?),
                Backend::Symbolic,
            ),
            Backend::Auto => {
                if !explicit_hostile {
                    (
                        Some(Kripke::from_module(&composed, table, &free)?),
                        None,
                        Backend::Explicit,
                    )
                } else {
                    // Symbolic for both phases: the gap engine runs on the
                    // same BDD product caches, so the explicit structure no
                    // longer needs to ride along for Algorithm 1.
                    (
                        None,
                        Some(SymbolicModel::from_module(&composed, table, &free, options)?),
                        Backend::Symbolic,
                    )
                }
            }
        };
        // The gap engine: a forced backend runs both phases; under Auto,
        // below the crossover the explicit factored products win, above
        // it the symbolic gap engine takes over.
        let gap_backend = match backend {
            Backend::Auto if explicit_hostile => Backend::Symbolic,
            Backend::Auto => Backend::Explicit,
            forced => forced,
        };

        // Observable: the architectural alphabet plus every nondeterministic
        // input of the model (design primary inputs and free environment
        // signals). This is why the paper's gap property U may mention
        // `hit`: it is an input of the concrete L1, not an internal signal.
        let mut observable: BTreeSet<SignalId> = arch.alphabet();
        observable.extend(input_vars.iter().copied());
        // Terms may mention anything the model constrains or the spec
        // names — but only signals the (cone-reduced) model actually
        // carries. A concrete-module signal whose logic fell outside every
        // property's cone is unconstrained in `M`: the explicit engine
        // would only ever record it as a pinned-false artifact (and drop
        // it again during generalization), and the symbolic engine fails
        // closed on it. The rest is quantified away.
        let mut term_signals: BTreeSet<SignalId> = observable.clone();
        term_signals.extend(
            rtl.alphabet()
                .into_iter()
                .filter(|s| driven.contains(s) || input_vars.contains(s)),
        );
        let hidden: BTreeSet<SignalId> = term_signals
            .difference(&observable)
            .copied()
            .collect();

        let kripke_cell = OnceLock::new();
        if let Some(k) = kripke {
            let _ = kripke_cell.set(Some(k));
        }
        Ok(CoverageModel {
            composed,
            table: table.clone(),
            free,
            kripke: kripke_cell,
            explicit_hostile,
            symbolic: Mutex::new(symbolic),
            sym_options: options,
            primary_backend,
            gap_backend,
            inputs: input_vars,
            observable,
            hidden,
            cache: dic_automata::GbaCache::new(),
            products: Mutex::new(HashMap::new()),
            bmc_mode: BmcMode::default(),
            bmc_depth: crate::bmc::effective_bmc_depth(),
        })
    }

    /// Selects whether gap queries consult the bounded SAT refutation
    /// tier first (the CLI's `--bmc`; [`BmcMode::Auto`] by default). The
    /// reported gap-property sets are identical either way — the tier
    /// only ever short-circuits verdicts the fixpoint engines would reach
    /// themselves.
    pub fn set_bmc_mode(&mut self, mode: BmcMode) {
        self.bmc_mode = mode;
    }

    /// The bounded-refutation mode gap queries run with.
    pub fn bmc_mode(&self) -> BmcMode {
        self.bmc_mode
    }

    /// The engine answering primary coverage queries: [`Backend::Explicit`]
    /// or [`Backend::Symbolic`] (never `Auto` — resolution happens at build
    /// time).
    pub fn primary_backend(&self) -> Backend {
        self.primary_backend
    }

    /// Whether the explicit Kripke structure is available (required by the
    /// gap-representation machinery of Algorithm 1).
    pub fn has_explicit(&self) -> bool {
        matches!(self.kripke.get(), Some(Some(_)))
    }

    /// Builds the explicit Kripke structure on demand for a per-candidate
    /// retry after a symbolic resource refusal, when the explicit-
    /// hostility axes (state bits, predicted product cost) allow it.
    /// Returns whether the explicit engine is now available. A failed
    /// attempt (bit-limit refusal, deadline trip) is recorded and never
    /// repeated; an already-available structure returns `true` for free.
    pub fn ensure_explicit_fallback(&self) -> bool {
        if self.explicit_hostile {
            return false;
        }
        self.kripke
            .get_or_init(|| Kripke::from_module(&self.composed, &self.table, &self.free).ok())
            .is_some()
    }

    /// The nondeterministic inputs of the model: the composition's primary
    /// inputs plus every free spec signal — the stimulus alphabet a witness
    /// run must be driven with to replay on the simulator. Available for
    /// every backend (unlike `kripke().input_vars()`).
    pub fn input_signals(&self) -> &[SignalId] {
        &self.inputs
    }

    /// The free spec signals: property atoms the (cone-reduced)
    /// composition does not drive. Together with [`Module::inputs`] these
    /// are the unconstrained bits a bounded query must leave open —
    /// exactly the `free` argument of [`dic_sat::bounded_lasso`].
    pub fn free_signals(&self) -> &[SignalId] {
        &self.free
    }

    /// Backend-dispatched existential query: is some run of `M` satisfying
    /// every formula in `formulas`? The primitive behind the paper's
    /// Theorem 1.
    ///
    /// # Errors
    ///
    /// [`CoreError::Symbolic`] when the symbolic engine exceeds its node
    /// budget mid-analysis (the explicit path is infallible once built).
    pub fn primary_query(
        &self,
        formulas: &[dic_ltl::Ltl],
    ) -> Result<Option<dic_ltl::LassoWord>, CoreError> {
        match self.primary_backend {
            Backend::Symbolic => self.with_symbolic(|sym| sym.satisfiable_conj(formulas)),
            _ => Ok(self.satisfiable(formulas)),
        }
    }

    /// [`CoverageModel::primary_query`] for `base ++ [anchor]`, split so
    /// the symbolic engine can anchor the query: the `base` product (the
    /// RTL conjunction, shared by every architectural property) is built
    /// and fixpointed once, and each per-property `¬A` automaton becomes
    /// a cached extension restricted by the base's reachable set and
    /// seeded with its fair hull — the same sound projection argument the
    /// gap phase's closure extensions rest on. The explicit engine takes
    /// the flat conjunction as before; verdicts are identical either way.
    ///
    /// # Errors
    ///
    /// As for [`CoverageModel::primary_query`].
    pub fn primary_query_anchored(
        &self,
        base: &[dic_ltl::Ltl],
        anchor: &dic_ltl::Ltl,
    ) -> Result<Option<dic_ltl::LassoWord>, CoreError> {
        match self.primary_backend {
            Backend::Symbolic => self.with_symbolic(|sym| {
                sym.satisfiable_anchored(base, std::slice::from_ref(anchor))
            }),
            _ => {
                let mut conj = base.to_vec();
                conj.push(anchor.clone());
                Ok(self.satisfiable(&conj))
            }
        }
    }

    /// The engine the gap phase runs on, *without* ensuring it is built —
    /// for reporting (the pipeline labels runs before knowing whether any
    /// property even needs a gap phase). The gap engine is resolved once,
    /// at build, from the backend the model was built with, so `_requested`
    /// is ignored; the parameter keeps the benchmark probe's call working.
    pub fn gap_backend_choice(&self, _requested: Backend) -> Backend {
        self.gap_backend
    }

    /// The engine the gap phase (Algorithm 1) runs on, ensuring it is
    /// available: a forced backend runs both phases, and [`Backend::Auto`]
    /// resolves by the build-time crossover (explicit below it, symbolic
    /// above). The explicit engine is always built with a model whose gap
    /// engine it is; the symbolic one is rebuilt here if a panicking
    /// worker discarded it.
    ///
    /// # Errors
    ///
    /// [`CoreError::Symbolic`] when the lazy symbolic build exceeds its
    /// node budget.
    pub fn gap_backend(&self) -> Result<Backend, CoreError> {
        if self.gap_backend == Backend::Symbolic {
            self.ensure_symbolic()?;
        }
        Ok(self.gap_backend)
    }

    /// Locks the symbolic engine, recovering from a poisoned lock: a gap
    /// worker that panicked (and was caught upstream) may have died while
    /// holding the engine mid-operation, so the engine it held is
    /// *discarded* — the BDD manager could be inconsistent — and lazily
    /// rebuilt by the next query. Correctness over warm caches.
    fn lock_symbolic(&self) -> MutexGuard<'_, Option<SymbolicModel>> {
        match self.symbolic.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.symbolic.clear_poison();
                let mut guard = poisoned.into_inner();
                *guard = None;
                guard
            }
        }
    }

    /// Runs `f` on the symbolic engine, building it on first use (a model
    /// built explicit can still serve symbolic gap queries).
    fn with_symbolic<T>(
        &self,
        f: impl FnOnce(&mut SymbolicModel) -> Result<T, dic_symbolic::SymbolicError>,
    ) -> Result<T, CoreError> {
        self.ensure_symbolic()?;
        let mut guard = self.lock_symbolic();
        let sym = match guard.as_mut() {
            Some(sym) => sym,
            // The engine was discarded between ensure and lock (poison
            // recovery on a racing worker); rebuild in place.
            None => {
                *guard = Some(SymbolicModel::from_module(
                    &self.composed,
                    &self.table,
                    &self.free,
                    self.sym_options,
                )?);
                guard.as_mut().expect("just built")
            }
        };
        Ok(f(sym)?)
    }

    fn ensure_symbolic(&self) -> Result<(), CoreError> {
        let mut guard = self.lock_symbolic();
        if guard.is_none() {
            *guard = Some(SymbolicModel::from_module(
                &self.composed,
                &self.table,
                &self.free,
                self.sym_options,
            )?);
        }
        Ok(())
    }

    /// Cumulative dynamic-reordering statistics of the symbolic engine:
    /// `None` when no symbolic engine was ever built, `Some(zeroed)` when
    /// it was but never reordered.
    pub fn reorder_stats(&self) -> Option<ReorderStats> {
        self.lock_symbolic().as_ref().map(|sym| sym.reorder_stats())
    }

    /// Backend-dispatched factored gap query: is some run of `M`
    /// satisfying `base` and every formula in `extra`? Both engines
    /// materialize the `base` product once and reuse it across calls —
    /// Algorithm 1's closure loop issues hundreds of these against the
    /// same base, which makes the product reuse the dominant performance
    /// lever of the whole gap phase.
    ///
    /// `backend` must be resolved ([`CoverageModel::gap_backend`]), never
    /// [`Backend::Auto`].
    ///
    /// With [`BmcMode::Auto`] (the default) a bounded SAT refutation runs
    /// *before* the symbolic fixpoint engine: if a lasso satisfying the
    /// whole conjunction exists within [`CoverageModel::bmc_depth`] steps,
    /// the SAT tier finds it, replays it through the netlist evaluator,
    /// and returns it without ever touching a fixpoint. An inconclusive
    /// bound (UNSAT within the depth, or the per-query conflict budget)
    /// falls through, so verdicts are identical across modes — only the
    /// engine that produces them changes. `Auto` deliberately skips the
    /// tier when the resolved gap backend is explicit: those models fit
    /// the enumerative engine precisely because their fixpoints cost
    /// milliseconds, less than a single unrolled SAT query, while each
    /// symbolic Emerson–Lei fixpoint costs seconds. The gate is a pure
    /// function of the resolved backend, so determinism is unaffected.
    ///
    /// # Errors
    ///
    /// [`CoreError::Symbolic`] when the symbolic engine exceeds its node
    /// budget mid-query.
    pub fn gap_query(
        &self,
        backend: Backend,
        base: &[dic_ltl::Ltl],
        extra: &[dic_ltl::Ltl],
    ) -> Result<Option<dic_ltl::LassoWord>, CoreError> {
        if self.bmc_mode == BmcMode::Auto && backend == Backend::Symbolic {
            let formulas: Vec<dic_ltl::Ltl> =
                base.iter().chain(extra.iter()).cloned().collect();
            if let Some(run) = self.bmc_refute(&formulas) {
                return Ok(Some(run));
            }
        }
        match backend {
            Backend::Symbolic => self.with_symbolic(|sym| sym.satisfiable_factored(base, extra)),
            _ => Ok(self.satisfiable_factored(base, extra)),
        }
    }

    /// The bounded tier of [`CoverageModel::gap_query`]: a `k`-step SAT
    /// query for a run of `M` satisfying the conjunction. `Some` is a
    /// genuine, re-verified run (sound to report as a closure refutation);
    /// `None` proves nothing.
    fn bmc_refute(&self, formulas: &[dic_ltl::Ltl]) -> Option<dic_ltl::LassoWord> {
        let _span = dic_trace::span("bmc.query");
        dic_trace::count(dic_trace::Counter::BmcQueries, 1);
        let run = dic_sat::bounded_lasso(
            &self.composed,
            &self.table,
            &self.free,
            formulas,
            self.bmc_depth,
        )?;
        dic_trace::count(dic_trace::Counter::BmcRefuted, 1);
        Some(run)
    }

    /// Backend-dispatched bounded-scenario query with witness: is some run
    /// of `M ⊨ base ∧ anchored` matching `cube` in its first cycles? On
    /// the symbolic engine the cube is pushed through the cached product's
    /// frontier BDDs (no automaton is ever built for it); on the explicit
    /// engine it becomes an extra conjunct of the factored query.
    ///
    /// # Errors
    ///
    /// As for [`CoverageModel::gap_query`].
    pub fn gap_scenario_query(
        &self,
        backend: Backend,
        base: &[dic_ltl::Ltl],
        anchored: Option<&dic_ltl::Ltl>,
        cube: &dic_ltl::TemporalCube,
    ) -> Result<Option<dic_ltl::LassoWord>, CoreError> {
        match backend {
            Backend::Symbolic => {
                let full = Self::anchored_base(base, anchored);
                self.with_symbolic(|sym| sym.satisfiable_factored_cube(&full, cube))
            }
            _ => {
                let extras = Self::anchored_extras(anchored, cube);
                Ok(self.satisfiable_factored(base, &extras))
            }
        }
    }

    /// Verdict-only variant of [`CoverageModel::gap_scenario_query`]: the
    /// generalization loop of Algorithm 1 needs thousands of these, and
    /// skipping witness extraction keeps each to a handful of constrained
    /// images on the symbolic engine.
    ///
    /// # Errors
    ///
    /// As for [`CoverageModel::gap_query`].
    pub fn gap_scenario_sat(
        &self,
        backend: Backend,
        base: &[dic_ltl::Ltl],
        anchored: Option<&dic_ltl::Ltl>,
        cube: &dic_ltl::TemporalCube,
    ) -> Result<bool, CoreError> {
        match backend {
            Backend::Symbolic => {
                self.with_symbolic(|sym| sym.factored_cube_sat(base, anchored, cube))
            }
            _ => {
                let extras = Self::anchored_extras(anchored, cube);
                Ok(self.satisfiable_factored(base, &extras).is_some())
            }
        }
    }

    fn anchored_base(
        base: &[dic_ltl::Ltl],
        anchored: Option<&dic_ltl::Ltl>,
    ) -> Vec<dic_ltl::Ltl> {
        base.iter().cloned().chain(anchored.cloned()).collect()
    }

    fn anchored_extras(
        anchored: Option<&dic_ltl::Ltl>,
        cube: &dic_ltl::TemporalCube,
    ) -> Vec<dic_ltl::Ltl> {
        anchored
            .cloned()
            .into_iter()
            .chain([cube.to_ltl()])
            .collect()
    }

    /// Existential query against the *explicit* model with memoized
    /// automaton translations: is some run of `M` satisfying every formula
    /// in `formulas`? Repeated conjuncts (the `R` suite, `¬FA`) are
    /// translated once per model.
    ///
    /// # Panics
    ///
    /// Panics if the model was built without the explicit backend; use
    /// [`CoverageModel::primary_query`] for backend-dispatched queries and
    /// [`CoverageModel::has_explicit`] to test availability.
    pub fn satisfiable(&self, formulas: &[dic_ltl::Ltl]) -> Option<dic_ltl::LassoWord> {
        dic_automata::satisfiable_in_conj_cached(formulas, self.kripke(), &self.cache)
    }

    /// Factored existential query: is some run of `M` satisfying `base`
    /// *and* `extra`?
    ///
    /// The sub-product of `M` with `base` is materialized on first use and
    /// memoized (see [`dic_automata::materialize_product`]); only the
    /// `extra` conjuncts are explored per call. Algorithm 1 issues hundreds
    /// of queries sharing the same base (`R ∧ ¬FA` for candidate closure,
    /// `R` for term generalization), which makes this the dominant
    /// performance lever of the whole pipeline.
    ///
    /// # Panics
    ///
    /// Panics if the model was built without the explicit backend (like
    /// [`CoverageModel::satisfiable`]).
    pub fn satisfiable_factored(
        &self,
        base: &[dic_ltl::Ltl],
        extra: &[dic_ltl::Ltl],
    ) -> Option<dic_ltl::LassoWord> {
        let product = {
            // Poison-tolerant: the memo only ever holds fully-built
            // `Arc<ProductSystem>` values, so a worker that panicked while
            // holding the lock cannot have left a half-entry behind.
            let mut products = self
                .products
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            match products.get(base) {
                Some(p) => Arc::clone(p),
                None => {
                    let p = Arc::new(dic_automata::materialize_product(
                        base,
                        self.kripke(),
                        &self.cache,
                    ));
                    products.insert(base.to_vec(), Arc::clone(&p));
                    p
                }
            }
        };
        dic_automata::satisfiable_in_conj_cached(extra, product.as_ref(), &self.cache)
    }

    /// The composed concrete module `M`.
    pub fn composed(&self) -> &Module {
        &self.composed
    }

    /// The explicit Kripke structure explored by the model checker.
    ///
    /// # Panics
    ///
    /// Panics if the model was built without the explicit backend (pure
    /// [`Backend::Symbolic`], or [`Backend::Auto`] past the explicit bit
    /// limit); guard with [`CoverageModel::has_explicit`].
    pub fn kripke(&self) -> &Kripke {
        self.kripke
            .get()
            .and_then(|k| k.as_ref())
            .expect("explicit backend not available for this model")
    }

    /// Signals that may appear in reported gap terms.
    pub fn observable(&self) -> &BTreeSet<SignalId> {
        &self.observable
    }

    /// Signals quantified out of gap terms (the paper's `AP_R − AP_A`
    /// step, keeping design primary inputs observable).
    pub fn hidden(&self) -> &BTreeSet<SignalId> {
        &self.hidden
    }

    /// Signals recorded in raw uncovered terms before quantification.
    pub fn term_signals(&self) -> Vec<SignalId> {
        let mut v: Vec<SignalId> = self
            .observable
            .union(&self.hidden)
            .copied()
            .collect();
        v.sort();
        v
    }

    /// Overrides the observable alphabet (ablation hook).
    pub fn set_observable(&mut self, observable: BTreeSet<SignalId>) {
        let all: BTreeSet<SignalId> = self.observable.union(&self.hidden).copied().collect();
        self.hidden = all.difference(&observable).copied().collect();
        self.observable = observable;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dic_ltl::Ltl;
    use dic_netlist::ModuleBuilder;

    /// The closure workers of Algorithm 1 share `&CoverageModel` across
    /// threads; its interior mutability is all `Mutex`-wrapped, so the
    /// auto-traits must hold. Compile-time pin.
    #[test]
    fn coverage_model_is_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoverageModel>();
    }

    fn setup() -> (SignalTable, ArchSpec, RtlSpec) {
        let mut t = SignalTable::new();
        let a = Ltl::parse("G(req -> X X q)", &mut t).unwrap();
        let r = Ltl::parse("G(req -> X a)", &mut t).unwrap();
        let mut b = ModuleBuilder::new("glue", &mut t);
        let ain = b.input("a");
        let q = b.latch_from("q", ain, false);
        b.mark_output(q);
        let m = b.finish().unwrap();
        (
            t,
            ArchSpec::new([("A1", a)]),
            RtlSpec::new([("R1", r)], [m]),
        )
    }

    #[test]
    fn builds_with_free_signals() {
        let (t, arch, rtl) = setup();
        let model = CoverageModel::build(&arch, &rtl, &t).expect("builds");
        // Free signals: req (spec only) and a (module input).
        let req = t.lookup("req").unwrap();
        let a = t.lookup("a").unwrap();
        assert!(model.kripke().input_vars().contains(&req));
        assert!(model.kripke().input_vars().contains(&a));
        // q is driven, so it is not free.
        let q = t.lookup("q").unwrap();
        assert!(!model.kripke().input_vars().contains(&q));
    }

    #[test]
    fn assumption1_enforced() {
        let (mut t, _arch, rtl) = setup();
        let bogus = Ltl::parse("G phantom", &mut t).unwrap();
        let arch2 = ArchSpec::new([("A2", bogus)]);
        match CoverageModel::build(&arch2, &rtl, &t) {
            Err(CoreError::UnknownArchSignal { name }) => assert_eq!(name, "phantom"),
            other => panic!("expected Assumption 1 violation, got {other:?}"),
        }
    }

    #[test]
    fn backend_resolution_and_dispatch() {
        let (t, arch, rtl) = setup();
        // Small model: Auto resolves explicit.
        let auto = CoverageModel::build(&arch, &rtl, &t).expect("builds");
        assert_eq!(auto.primary_backend(), Backend::Explicit);
        assert!(auto.has_explicit());

        // Forced symbolic: no explicit structure, primary still answers,
        // and the verdict matches the explicit engine's.
        let sym = CoverageModel::build_with_backend(&arch, &rtl, &t, Backend::Symbolic)
            .expect("builds");
        assert_eq!(sym.primary_backend(), Backend::Symbolic);
        assert!(!sym.has_explicit());
        let fa = arch.properties()[0].formula();
        let ve = crate::primary_coverage(fa, &rtl, &auto).expect("explicit total");
        let vs = crate::primary_coverage(fa, &rtl, &sym).expect("within budget");
        assert_eq!(ve.is_some(), vs.is_some());

        // Inputs are reported for every backend (witness replay needs them).
        assert_eq!(auto.input_signals(), sym.input_signals());
        let req = t.lookup("req").unwrap();
        assert!(sym.input_signals().contains(&req));
    }

    #[test]
    #[should_panic(expected = "explicit backend not available")]
    fn kripke_accessor_guards_symbolic_models() {
        let (t, arch, rtl) = setup();
        let sym = CoverageModel::build_with_backend(&arch, &rtl, &t, Backend::Symbolic)
            .expect("builds");
        let _ = sym.kripke();
    }

    #[test]
    fn observable_defaults() {
        let (t, arch, rtl) = setup();
        let model = CoverageModel::build(&arch, &rtl, &t).expect("builds");
        let req = t.lookup("req").unwrap();
        let q = t.lookup("q").unwrap();
        let a = t.lookup("a").unwrap();
        assert!(model.observable().contains(&req));
        assert!(model.observable().contains(&q));
        // `a` is a module primary input → observable; nothing hidden here.
        assert!(model.observable().contains(&a));
        assert!(model.hidden().is_empty());
    }
}
