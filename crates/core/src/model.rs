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
use dic_sat::BmcSession;
use dic_symbolic::{GcStats, SymbolicModel, SymbolicOptions};
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
/// A model answers that question on one engine, selected by [`Backend`]:
/// the explicit Kripke structure or the symbolic BDD model. It memoizes
/// the engine's products (the explicit base products, the symbolic
/// product cache) but no automata: every translation goes through the
/// process-wide [`dic_automata::translate_cached`].
/// [`CoverageModel::build`] resolves [`Backend::Auto`] once, by state-bit
/// count and predicted product cost (see
/// [`CoverageModel::primary_backend`]), and both the primary coverage
/// question (Theorem 1) and the gap phase (Algorithm 1) run on the
/// resolved engine.
#[derive(Debug)]
pub struct CoverageModel {
    composed: Module,
    table: SignalTable,
    free: Vec<SignalId>,
    /// The explicit Kripke structure. Populated at build time when the
    /// resolved engine is explicit, or lazily by
    /// [`GapEngine::explicit_fallback`] when a per-candidate symbolic
    /// refusal retries on the explicit engine. `Some(None)` in the cell
    /// records a *failed* lazy attempt, so it is not repeated.
    kripke: OnceLock<Option<Kripke>>,
    /// Build-time verdict of the explicit-hostility axes (state bits and
    /// predicted product cost) — gates the lazy explicit fallback.
    explicit_hostile: bool,
    symbolic: Mutex<Option<SymbolicModel>>,
    /// Options any lazily built symbolic engine is constructed with.
    sym_options: SymbolicOptions,
    /// The engine answering both the primary and the gap queries.
    engine: Engine,
    /// Nondeterministic inputs: module primary inputs + free spec signals.
    inputs: Vec<SignalId>,
    observable: BTreeSet<SignalId>,
    hidden: BTreeSet<SignalId>,
    /// Materialized base products, keyed by the baked-in conjunction.
    products: Mutex<HashMap<Vec<dic_ltl::Ltl>, Arc<dic_automata::ProductSystem>>>,
    /// Whether gap queries first try the bounded SAT refutation tier
    /// ([`BmcMode::Auto`] by default; see [`GapEngine::closure`]).
    bmc_mode: BmcMode,
}

/// A resolved engine: what [`Backend::Auto`] becomes at build time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Engine {
    Explicit,
    Symbolic,
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
    /// large state space). The engine is resolved here, once, and runs
    /// both phases: the primary question and Algorithm 1.
    ///
    /// Symbolic-engine options come from [`SymbolicOptions::from_env`]
    /// (with defaults: the stock node budget and rebuild trigger); use
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
    ///   nowhere in the RTL spec (Assumption 1),
    /// * [`CoreError::TooManyAcceptanceSets`] if the automata for an intent
    ///   and the RTL properties could carry more than
    ///   [`MAX_ACCEPTANCE_SETS`](crate::MAX_ACCEPTANCE_SETS)
    ///   acceptance sets.
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
    /// engine options (node budget, rebuild trigger, partition mode) instead of the
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
        // select a default worker count.
        crate::backend::jobs_from_env().map_err(CoreError::InvalidEnv)?;

        // Assumption 1: AP_A ⊆ AP_R.
        let ap_r = rtl.alphabet();
        for &s in &arch.alphabet() {
            if !ap_r.contains(&s) {
                return Err(CoreError::UnknownArchSignal {
                    name: table.name(s).to_owned(),
                });
            }
        }

        crate::spec::check_acceptance_sets(arch, rtl)?;

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

        let engine = match backend {
            Backend::Explicit => Engine::Explicit,
            Backend::Symbolic => Engine::Symbolic,
            Backend::Auto if explicit_hostile => Engine::Symbolic,
            Backend::Auto => Engine::Explicit,
        };
        let kripke = OnceLock::new();
        let mut symbolic = None;
        match engine {
            Engine::Explicit => {
                let _ = kripke.set(Some(Kripke::from_module(&composed, table, &free)?));
            }
            Engine::Symbolic => {
                symbolic = Some(SymbolicModel::from_module(&composed, table, &free, options)?);
            }
        }

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

        Ok(CoverageModel {
            composed,
            table: table.clone(),
            free,
            kripke,
            explicit_hostile,
            symbolic: Mutex::new(symbolic),
            sym_options: options,
            engine,
            inputs: input_vars,
            observable,
            hidden,
            products: Mutex::new(HashMap::new()),
            bmc_mode: BmcMode::default(),
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
        match self.engine {
            Engine::Explicit => Backend::Explicit,
            Engine::Symbolic => Backend::Symbolic,
        }
    }

    /// Whether the explicit Kripke structure is available: built with an
    /// explicit model, or lazily by the gap phase's explicit retry.
    pub fn has_explicit(&self) -> bool {
        matches!(self.kripke.get(), Some(Some(_)))
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
    /// exactly the `free` argument of [`dic_sat::bounded_lasso`] and
    /// [`BmcSession::new`].
    pub fn free_signals(&self) -> &[SignalId] {
        &self.free
    }

    /// Engine-dispatched existential query for `base ++ [anchor]`: is
    /// some run of `M` satisfying every formula in `base` and `anchor`?
    /// The primitive behind the paper's Theorem 1.
    ///
    /// The split lets the symbolic engine anchor the query: the `base`
    /// product (the RTL conjunction, shared by every architectural
    /// property) is built and fixpointed once, and each per-property `¬A`
    /// automaton becomes a cached extension restricted by the base's
    /// reachable set and seeded with its fair hull — the same sound
    /// projection argument the gap phase's closure extensions rest on.
    /// The explicit engine takes the flat conjunction; verdicts are
    /// identical either way.
    ///
    /// # Errors
    ///
    /// [`CoreError::Symbolic`] when the symbolic engine exceeds its node
    /// budget mid-analysis (the explicit path is infallible once built).
    pub fn primary_query_anchored(
        &self,
        base: &[dic_ltl::Ltl],
        anchor: &dic_ltl::Ltl,
    ) -> Result<Option<dic_ltl::LassoWord>, CoreError> {
        match self.engine {
            Engine::Symbolic => self.with_symbolic(|sym| {
                sym.satisfiable_anchored(base, std::slice::from_ref(anchor))
            }),
            Engine::Explicit => {
                let mut conj = base.to_vec();
                conj.push(anchor.clone());
                Ok(self.satisfiable(&conj))
            }
        }
    }

    /// The engine the gap phase runs on — the one resolved at build, so
    /// the same as [`CoverageModel::primary_backend`]. `_requested` is
    /// ignored; the parameter keeps the benchmark probe's call working.
    pub fn gap_backend_choice(&self, _requested: Backend) -> Backend {
        self.primary_backend()
    }

    /// The gap phase's handle on the resolved engine, with the symbolic
    /// engine built (it is rebuilt here if a panicking worker discarded
    /// it). Algorithm 1 asks every question through it.
    ///
    /// # Errors
    ///
    /// [`CoreError::Symbolic`] when the lazy symbolic build exceeds its
    /// node budget.
    pub(crate) fn gap_engine(&self) -> Result<GapEngine<'_>, CoreError> {
        if self.engine == Engine::Symbolic {
            self.with_symbolic(|_| Ok(()))?;
        }
        Ok(GapEngine {
            model: self,
            engine: self.engine,
        })
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

    /// Runs `f` on the symbolic engine, building it first if it is absent
    /// (a model built explicit, or one whose engine a poison recovery
    /// discarded).
    fn with_symbolic<T>(
        &self,
        f: impl FnOnce(&mut SymbolicModel) -> Result<T, dic_symbolic::SymbolicError>,
    ) -> Result<T, CoreError> {
        let mut guard = self.lock_symbolic();
        if guard.is_none() {
            *guard = Some(SymbolicModel::from_module(
                &self.composed,
                &self.table,
                &self.free,
                self.sym_options,
            )?);
        }
        Ok(f(guard.as_mut().expect("just built"))?)
    }

    /// Cumulative collection statistics of the symbolic engine: `None`
    /// when no symbolic engine was ever built, `Some` with zero
    /// collections when it was but never collected.
    pub fn gc_stats(&self) -> Option<GcStats> {
        self.lock_symbolic().as_ref().map(|sym| sym.gc_stats())
    }

    /// The bounded tier of [`GapEngine::closure`]: a `k`-step SAT query
    /// for a run of `M` satisfying `base` and `extra`, answered by the
    /// caller's session for `base` (built here on first use, or when the
    /// slot holds a session for another base). `Some` is a genuine,
    /// re-verified run (sound to report as a closure refutation); `None`
    /// proves nothing.
    ///
    /// The session is out of `slot` while it answers and goes back only
    /// when the query returns, so a panic mid-query (caught by the gap
    /// worker) discards the half-extended session.
    fn bmc_refute<'m>(
        &'m self,
        base: &[dic_ltl::Ltl],
        extra: &[dic_ltl::Ltl],
        slot: &mut Option<BmcSession<'m>>,
    ) -> Option<dic_ltl::LassoWord> {
        let _span = dic_trace::span("bmc.query");
        dic_trace::count(dic_trace::Counter::BmcQueries, 1);
        let mut session = match slot.take() {
            Some(s) if s.base() == base => s,
            _ => BmcSession::new(
                &self.composed,
                &self.table,
                &self.free,
                base,
                dic_sat::DEFAULT_BMC_DEPTH,
            ),
        };
        let run = session.query(extra);
        *slot = Some(session);
        let run = run?;
        dic_trace::count(dic_trace::Counter::BmcRefuted, 1);
        Some(run)
    }

    /// Existential query against the *explicit* model: is some run of `M`
    /// satisfying every formula in `formulas`? The conjuncts translate
    /// through [`dic_automata::translate_cached`], so repeated ones (the
    /// `R` suite, `¬FA`) are translated once per process, whichever engine
    /// or query met them first.
    ///
    /// # Panics
    ///
    /// Panics if the model was built without the explicit backend; use
    /// [`CoverageModel::primary_query_anchored`] for engine-dispatched
    /// queries and [`CoverageModel::has_explicit`] to test availability.
    pub fn satisfiable(&self, formulas: &[dic_ltl::Ltl]) -> Option<dic_ltl::LassoWord> {
        dic_automata::satisfiable_in_conj(formulas, self.kripke())
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
        let product = self.base_product(base);
        dic_automata::satisfiable_in_conj(extra, product.as_ref())
    }

    /// The memoized product of `M` with `base`, materialized on first use.
    fn base_product(&self, base: &[dic_ltl::Ltl]) -> Arc<dic_automata::ProductSystem> {
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
                let p = Arc::new(dic_automata::materialize_product(base, self.kripke()));
                products.insert(base.to_vec(), Arc::clone(&p));
                p
            }
        }
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
}

/// The gap phase's handle on a model's resolved engine: the three
/// questions Algorithm 1 asks (closure, scenario, scenario verdict), the
/// bounded SAT pre-filter, and the per-candidate explicit retry policy.
/// Obtained from [`CoverageModel::gap_engine`]; a copy is as good as the
/// original. Both engines take their automata from
/// [`dic_automata::translate_cached`], so a formula the primary question
/// or an implication screen already translated is a memo hit here.
#[derive(Clone, Copy)]
pub(crate) struct GapEngine<'m> {
    model: &'m CoverageModel,
    engine: Engine,
}

impl<'m> GapEngine<'m> {
    /// Factored closure query: is some run of `M` satisfying `base` and
    /// every formula in `extra`? Both engines materialize the `base`
    /// product once and reuse it across calls — Algorithm 1's closure
    /// loop issues hundreds of these against the same base, which makes
    /// the product reuse the dominant performance lever of the whole gap
    /// phase.
    ///
    /// With [`BmcMode::Auto`] (the default) a bounded SAT refutation runs
    /// *before* the symbolic fixpoint engine: if a lasso satisfying the
    /// whole conjunction exists within [`dic_sat::DEFAULT_BMC_DEPTH`] steps,
    /// the SAT tier finds it, replays it through the netlist evaluator,
    /// and returns it without ever touching a fixpoint. An inconclusive
    /// bound (UNSAT within the depth, or the per-query conflict budget)
    /// falls through, so verdicts are identical across modes — only the
    /// engine that produces them changes. `bmc` holds the caller's
    /// [`BmcSession`] for `base`: a gap worker keeps one across its
    /// candidates, so the unrolling and the base automata are encoded
    /// once per worker and what the solver learns carries over; a
    /// one-off caller passes an empty slot. The tier is skipped on the
    /// explicit engine: those models fit the enumerative engine precisely
    /// because their fixpoints cost milliseconds, less than a single
    /// unrolled SAT query, while each symbolic Emerson–Lei fixpoint costs
    /// seconds. The gate is a pure function of the resolved engine, so
    /// determinism is unaffected.
    ///
    /// # Errors
    ///
    /// [`CoreError::Symbolic`] when the symbolic engine exceeds its node
    /// budget mid-query.
    pub(crate) fn closure(
        self,
        base: &[dic_ltl::Ltl],
        extra: &[dic_ltl::Ltl],
        bmc: &mut Option<BmcSession<'m>>,
    ) -> Result<Option<dic_ltl::LassoWord>, CoreError> {
        if let Some(run) = self.bounded_refutation(base, extra, bmc) {
            return Ok(Some(run));
        }
        self.fixpoint(base, extra)
    }

    /// The bounded SAT tier of [`GapEngine::closure`] alone: a refuting
    /// run, or `None` when the tier is off, skipped (explicit engine) or
    /// inconclusive.
    pub(crate) fn bounded_refutation(
        self,
        base: &[dic_ltl::Ltl],
        extra: &[dic_ltl::Ltl],
        bmc: &mut Option<BmcSession<'m>>,
    ) -> Option<dic_ltl::LassoWord> {
        if self.engine == Engine::Symbolic && self.model.bmc_mode == BmcMode::Auto {
            self.model.bmc_refute(base, extra, bmc)
        } else {
            None
        }
    }

    /// The unbounded fixpoint tier of [`GapEngine::closure`] alone.
    ///
    /// # Errors
    ///
    /// As for [`GapEngine::closure`].
    pub(crate) fn fixpoint(
        self,
        base: &[dic_ltl::Ltl],
        extra: &[dic_ltl::Ltl],
    ) -> Result<Option<dic_ltl::LassoWord>, CoreError> {
        match self.engine {
            Engine::Symbolic => self
                .model
                .with_symbolic(|sym| sym.satisfiable_factored(base, extra)),
            Engine::Explicit => Ok(self.model.satisfiable_factored(base, extra)),
        }
    }

    /// Bounded-scenario query with witness: is some run of `M ⊨ base`
    /// matching `cube` in its first cycles? Neither engine builds an
    /// automaton for the cube. The symbolic engine pushes it through the
    /// cached product's frontier BDDs; the explicit engine searches the
    /// memoized `base` product with its states filtered by the cube's
    /// literals at their time (see [`dic_automata::satisfiable_cube`]).
    ///
    /// # Errors
    ///
    /// As for [`GapEngine::closure`].
    pub(crate) fn scenario(
        self,
        base: &[dic_ltl::Ltl],
        cube: &dic_ltl::TemporalCube,
    ) -> Result<Option<dic_ltl::LassoWord>, CoreError> {
        match self.engine {
            Engine::Symbolic => self
                .model
                .with_symbolic(|sym| sym.satisfiable_factored_cube(base, cube)),
            Engine::Explicit => Ok(dic_automata::satisfiable_cube(
                self.model.base_product(base).as_ref(),
                cube,
            )),
        }
    }

    /// Verdict-only variant of [`GapEngine::scenario`]: the
    /// generalization loop of Algorithm 1 needs thousands of these, and
    /// skipping witness extraction keeps each to a handful of constrained
    /// images on the symbolic engine, and to the SCC search on the
    /// explicit one.
    ///
    /// # Errors
    ///
    /// As for [`GapEngine::closure`].
    pub(crate) fn scenario_sat(
        self,
        base: &[dic_ltl::Ltl],
        anchored: Option<&dic_ltl::Ltl>,
        cube: &dic_ltl::TemporalCube,
    ) -> Result<bool, CoreError> {
        match self.engine {
            Engine::Symbolic => self
                .model
                .with_symbolic(|sym| sym.factored_cube_sat(base, anchored, cube)),
            Engine::Explicit => Ok(dic_automata::is_satisfiable_cube(
                self.model.base_product(base).as_ref(),
                anchored,
                cube,
            )),
        }
    }

    /// The retry policy after a symbolic resource refusal: the explicit
    /// handle on the same model, when this handle is symbolic, the
    /// model's explicit-hostility axes (state bits, predicted product
    /// cost) allow it, and the Kripke structure builds — lazily, on the
    /// first retry. A failed build (bit-limit refusal, deadline trip) is
    /// recorded and never repeated.
    pub(crate) fn explicit_fallback(self) -> Option<GapEngine<'m>> {
        let model = self.model;
        if self.engine != Engine::Symbolic || model.explicit_hostile {
            return None;
        }
        model
            .kripke
            .get_or_init(|| Kripke::from_module(&model.composed, &model.table, &model.free).ok())
            .as_ref()?;
        Some(GapEngine {
            model,
            engine: Engine::Explicit,
        })
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

        // One engine per model: the gap phase runs where the primary
        // question did, whatever backend the caller names.
        for model in [&auto, &sym] {
            for b in [Backend::Explicit, Backend::Symbolic, Backend::Auto] {
                assert_eq!(model.primary_backend(), model.gap_backend_choice(b));
            }
        }

        // The explicit retry: a small forced-symbolic model builds its
        // Kripke structure on the first fallback; an explicit model has
        // nothing to fall back to.
        let engine = sym.gap_engine().expect("symbolic engine builds");
        assert!(engine.explicit_fallback().is_some());
        assert!(sym.has_explicit());
        let engine = auto.gap_engine().expect("explicit engine is built");
        assert!(engine.explicit_fallback().is_none());

        // Past the state-bit crossover the model is explicit-hostile: no
        // fallback, and no Kripke structure is ever built.
        let mut t = SignalTable::new();
        let a = Ltl::parse("G(x -> F q14)", &mut t).unwrap();
        let mut b = ModuleBuilder::new("chain", &mut t);
        let mut prev = b.input("x");
        for i in 0..15 {
            prev = b.latch_from(&format!("q{i}"), prev, false);
        }
        b.mark_output(prev);
        let chain = b.finish().unwrap();
        let arch = ArchSpec::new([("A1", a.clone())]);
        let rtl = RtlSpec::new([("R1", a)], [chain]);
        let wide = CoverageModel::build_with_backend(&arch, &rtl, &t, Backend::Symbolic)
            .expect("builds");
        assert!(wide.composed().state_signals().len() > AUTO_SYMBOLIC_BITS);
        let engine = wide.gap_engine().expect("symbolic engine builds");
        assert!(engine.explicit_fallback().is_none());
        assert!(!wide.has_explicit());
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
