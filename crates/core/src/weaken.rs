//! Structure-preserving gap representation: steps 2(c)/2(d) of Algorithm 1.
//!
//! The uncovered terms are *pushed* against the parse tree of the
//! architectural property: every atomic variable instance of `FA` (with its
//! `X`-depth and polarity) is paired with term literals at compatible time
//! offsets, producing weakened variants of `FA`:
//!
//! * a **negative** occurrence `v` (antecedent side) becomes `v ∧ X^k ℓ` —
//!   strengthening the antecedent restricts the property to the uncovered
//!   scenarios, weakening the property overall (the paper's Example 4:
//!   `r2` becomes `r2 ∧ X ¬hit`);
//! * a **positive** occurrence `v` (consequent side) becomes `v ∨ X^k ℓ`.
//!
//! Every candidate is weaker than `FA` by construction; candidates are kept
//! only if they *close the gap* (Definition 3, model-checked on the
//! model's engine), and the survivors are reduced to the weakest ones under
//! the strength order of Definition 2.
//!
//! Closure checks are the expensive half of Algorithm 1, and two levers
//! keep their count down:
//!
//! * the bad-run pool is **seeded** with the runs term enumeration already
//!   produced ([`find_gap_with_runs`]), so most non-closing candidates are
//!   rejected by a word evaluation before any model check;
//! * on the symbolic engine, every check reuses one cached design product
//!   (`R ∧ ¬FA`) and re-encodes only the small candidate automaton.

use crate::error::CoreError;
use crate::model::{CoverageModel, GapEngine};
use crate::spec::RtlSpec;
use dic_logic::{Lit, SignalTable};
use dic_ltl::{LassoWord, Ltl, LtlNode, Polarity, Position, TemporalCube};
use dic_sat::BmcSession;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Tuning knobs for the gap-finding pipeline (Algorithm 1).
#[derive(Clone, Debug)]
pub struct GapConfig {
    /// Depth (in cycles) of uncovered terms.
    pub term_depth: usize,
    /// Maximum number of counterexample scenarios to enumerate.
    pub max_terms: usize,
    /// Whether to generalize terms by literal dropping.
    pub generalize: bool,
    /// Whether to quantify hidden signals out of the terms (step 2(b)).
    pub quantify: bool,
    /// Maximum number of weakening candidates to verify.
    pub max_candidates: usize,
    /// Largest `X` offset allowed between a variable instance and an
    /// augmented literal.
    pub max_offset: usize,
    /// Stop verifying candidates once this many closing gap properties
    /// have been found (gap-closure checks of *closing* candidates explore
    /// the whole product and dominate the runtime on wide models).
    pub max_gap_properties: usize,
    /// Skip the structured-weakening phase entirely when a variable
    /// instance of the intent sits deeper than this many `X` operators.
    /// A candidate for a deep intent pairs an `X`-obligation chain of
    /// that length with the design registers, which blows up the closure
    /// product on *either* engine (the `chain-<n>-gap` family past
    /// roughly a dozen stages) — such intents report their uncovered
    /// terms and Theorem 2's exact hole instead. The bound is a property
    /// of the formula alone, so both backends skip identically.
    pub max_intent_depth: usize,
    /// Worker threads for candidate closure verification (the parallel
    /// stage of Algorithm 1). `0` — the default — resolves through
    /// [`GapConfig::effective_jobs`]: `SPECMATCHER_JOBS` when set, the
    /// machine's available parallelism otherwise. The reported property
    /// set is identical for every value (verification is per-candidate
    /// and the merge is deterministic); only wall-clock changes.
    pub jobs: usize,
}

impl Default for GapConfig {
    fn default() -> Self {
        GapConfig {
            term_depth: 3,
            max_terms: 6,
            generalize: true,
            quantify: true,
            max_candidates: 128,
            max_offset: 2,
            max_gap_properties: 24,
            max_intent_depth: 8,
            jobs: 0,
        }
    }
}

impl GapConfig {
    /// Resolves [`GapConfig::jobs`]: an explicit setting wins, then a
    /// valid `SPECMATCHER_JOBS`, then the machine's available parallelism
    /// (1 when that cannot be determined). Garbage in the environment
    /// variable is ignored *here* — the pipeline entry points reject it
    /// loudly first ([`crate::backend::jobs_from_env`]).
    pub fn effective_jobs(&self) -> usize {
        if self.jobs > 0 {
            return self.jobs;
        }
        if let Ok(Some(n)) = crate::backend::jobs_from_env() {
            return n;
        }
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }
}

/// A structure-preserving gap property produced by [`find_gap`].
#[derive(Clone, Debug)]
pub struct GapProperty {
    /// The weakened architectural property that closes the gap.
    pub formula: Ltl,
    /// Position of the weakened variable instance in `FA`'s parse tree.
    pub position: Position,
    /// The literal pushed into that position.
    pub literal: Lit,
    /// `X` offset of the literal relative to the variable instance.
    pub offset: usize,
    /// The uncovered term exhibiting this weakening's literal at its
    /// position, when the enumeration found one (the empty cube
    /// otherwise — the candidate class ranges over the whole observable
    /// alphabet, not only the literals the enumerated terms mention).
    pub term: TemporalCube,
    /// A run of `M ⊨ R ∧ ¬FA` demonstrating the uncovered scenario this
    /// property addresses (matching [`GapProperty::term`] where the term
    /// is realizable as stated). Like every counterexample either engine
    /// reports, it replays on the netlist simulator.
    pub witness: LassoWord,
}

impl GapProperty {
    /// Human-readable rendering (the motivating term and demonstrating run
    /// stay in [`GapProperty::term`]/[`GapProperty::witness`] and the JSON
    /// report; inlining a full term here would drown the formula).
    pub fn describe(&self, table: &SignalTable) -> String {
        format!(
            "{}   [instance at {}, augmented with X^{} {}]",
            self.formula.display(table),
            self.position,
            self.offset,
            self.literal.display(table),
        )
    }
}

/// A candidate whose closure verdict could not be settled: a degradable
/// resource refusal (that the explicit retry could not rescue), a caught
/// worker panic, or an injected fault left it `unknown`. Unknown verdicts
/// never enter the weakest-merge antichain — the reported gap properties
/// stay a subset of what the fault-free run reports.
#[derive(Clone, Debug)]
pub struct UnknownGap {
    /// The weakened property whose closure went unverified.
    pub formula: Ltl,
    /// Why the verdict is unknown (diagnostic, human-readable).
    pub diagnostic: String,
}

/// The gap phase's outcome under graceful degradation
/// ([`find_gap_outcome`]): the confirmed weakest gap properties, any
/// candidates left unknown, and — when the scan stopped early on a
/// deadline — the reason. Because candidates are verified (and the merge
/// frontier advances) strictly in canonical order, the confirmed set of a
/// stopped scan is exactly what a fault-free scan had accepted at the
/// same stop point: a canonical-order *prefix* of its scan, never a
/// different selection.
#[derive(Clone, Debug)]
pub struct GapOutcome {
    /// Confirmed gap properties (weakest first), as in [`find_gap`].
    pub properties: Vec<GapProperty>,
    /// Candidates whose verdict could not be settled.
    pub unknown: Vec<UnknownGap>,
    /// `Some(reason)` when the scan stopped before settling every
    /// candidate (cooperative deadline); `None` for a complete run.
    pub incomplete: Option<String>,
}

impl GapOutcome {
    fn complete(properties: Vec<GapProperty>) -> Self {
        GapOutcome {
            properties,
            unknown: Vec::new(),
            incomplete: None,
        }
    }
}

/// One weakening candidate before verification.
#[derive(Clone, Debug)]
struct Candidate {
    position: Position,
    literal: Lit,
    offset: usize,
    /// `X`-depth of the weakened instance inside `fa`.
    x_depth: usize,
    /// The first term whose literal produced this candidate.
    term: TemporalCube,
}

/// Steps 2(c) + 2(d): pushes the uncovered terms into `fa`'s parse tree,
/// generates polarity-aware weakenings, verifies gap closure, and returns
/// the weakest closing candidates (weakest first; empty when no structured
/// candidate closes the gap — callers then fall back to Theorem 2's
/// [`exact_hole`](crate::exact_hole)).
///
/// Candidate verification runs on the model's engine; both engines answer
/// it on one memoized base product per property.
///
/// # Errors
///
/// [`CoreError::Symbolic`] when the lazy symbolic build or a query
/// exceeds the node budget.
pub fn find_gap(
    fa: &Ltl,
    terms: &[TemporalCube],
    rtl: &RtlSpec,
    model: &CoverageModel,
    config: &GapConfig,
) -> Result<Vec<GapProperty>, CoreError> {
    find_gap_with_runs(fa, terms, &[], rtl, model, config)
}

/// Like [`find_gap`], additionally seeding the bad-run pool with known
/// counterexample runs (the ones
/// [`uncovered_terms_with_runs`](crate::terms::uncovered_terms_with_runs)
/// enumerated). Every seeded run rejects — by a word evaluation — each
/// candidate that still holds on it, so the expensive closure model checks
/// are reached almost exclusively by candidates that actually close the
/// gap, and the `max_gap_properties` budget is hit with far fewer full
/// fixpoints.
///
/// # Errors
///
/// As for [`find_gap`].
pub fn find_gap_with_runs(
    fa: &Ltl,
    terms: &[TemporalCube],
    seed_runs: &[LassoWord],
    rtl: &RtlSpec,
    model: &CoverageModel,
    config: &GapConfig,
) -> Result<Vec<GapProperty>, CoreError> {
    find_gap_outcome(fa, terms, seed_runs, rtl, model, config).map(|o| o.properties)
}

/// The degradation-aware gap phase: like [`find_gap_with_runs`], but a
/// deadline trip, a per-candidate resource refusal, or a worker panic
/// mid-scan no longer aborts — the scan stops (or skips the candidate)
/// and reports what it settled, with the remainder accounted for in
/// [`GapOutcome::unknown`] / [`GapOutcome::incomplete`]. A per-candidate
/// `NodeLimit` on the symbolic engine first retries that one candidate
/// on the explicit engine (when the model's explicit-hostility axes
/// allow) before marking it unknown; worker panics are isolated with
/// `catch_unwind` and demoted to an unknown verdict plus diagnostic.
///
/// # Errors
///
/// Only non-degradable failures: the lazy symbolic build and
/// configuration/spec errors.
pub fn find_gap_outcome(
    fa: &Ltl,
    terms: &[TemporalCube],
    seed_runs: &[LassoWord],
    rtl: &RtlSpec,
    model: &CoverageModel,
    config: &GapConfig,
) -> Result<GapOutcome, CoreError> {
    let engine = model.gap_engine()?;
    if terms.is_empty() {
        // No uncovered scenario was found (covered property, or the
        // enumeration budget produced nothing): there is no gap for the
        // candidate class to close.
        return Ok(GapOutcome::complete(Vec::new()));
    }
    let occurrences = fa.atom_occurrences();
    if occurrences.iter().any(|o| o.x_depth > config.max_intent_depth) {
        // Deep-X intent: every closure product pairs an obligation chain
        // of that depth with the design registers — a cliff for either
        // engine. Report the exact hole instead (see
        // [`GapConfig::max_intent_depth`]).
        return Ok(GapOutcome::complete(Vec::new()));
    }
    // Stage 1: canonical candidate enumeration, fixed up front. Every
    // later stage refers to candidates by their index in this order.
    let mut enum_span = dic_trace::span("gap.enumerate");
    let candidates: Vec<Candidate> = push_candidates(fa, terms, model.observable(), config)
        .into_iter()
        .take(config.max_candidates)
        .collect();
    if dic_trace::enabled() {
        dic_trace::count(
            dic_trace::Counter::GapCandidatesEnumerated,
            candidates.len() as u64,
        );
        enum_span.meta("candidates", candidates.len() as u64);
    }
    drop(enum_span);
    let base: Vec<Ltl> = rtl
        .formulas()
        .iter()
        .cloned()
        .chain([Ltl::not(fa.clone())])
        .collect();
    // Deterministic sample words over the property atoms and the whole
    // candidate-literal universe, used to refute implications between
    // candidates cheaply (subsumption screen and merge).
    let screen_words = {
        let mut signals: BTreeSet<dic_logic::SignalId> = fa.atoms();
        signals.extend(model.observable().iter().copied());
        random_words(&signals)
    };
    // Stage 2 + 3: per-candidate verification, then the deterministic
    // merge. One worker runs both inline (the merge's early exit then
    // prunes exactly like the historical sequential loop); more workers
    // fan stage 2 out and the merge runs on the coordinating thread.
    let jobs = config.effective_jobs().min(candidates.len().max(1));
    let verify_span = dic_trace::span("gap.verify");
    let verified = if jobs <= 1 {
        verify_sequential(
            fa,
            &candidates,
            seed_runs,
            &base,
            engine,
            &screen_words,
            config.max_gap_properties,
        )?
    } else {
        verify_parallel(
            fa,
            &candidates,
            seed_runs,
            &base,
            engine,
            &screen_words,
            config.max_gap_properties,
            jobs,
        )?
    };
    drop(verify_span);
    if dic_trace::enabled() && !verified.unknown.is_empty() {
        dic_trace::count(
            dic_trace::Counter::GapUnknownCandidates,
            verified.unknown.len() as u64,
        );
    }
    let _merge_span = dic_trace::span("gap.witnesses");
    let properties = attach_witnesses(verified.closing, seed_runs, &base, engine)?;
    Ok(GapOutcome {
        properties,
        unknown: verified.unknown,
        incomplete: verified.incomplete,
    })
}

/// Outcome of verifying one candidate, a function of the candidate alone
/// (plus, for [`Verdict::Subsumed`], formulas already accepted by the
/// merge — see the soundness note there).
enum Verdict {
    /// Degenerate candidate: the smart constructors absorbed the
    /// augmentation (or the position vanished).
    Skip,
    /// Some genuine bad run of `M ⊨ R ∧ ¬fa` satisfies the weakened
    /// property, so it cannot close the gap. *Which* run refuted it is a
    /// worker-local detail; the verdict itself is semantic.
    NotClosing,
    /// The weakened property implies a formula the merge had already
    /// accepted when this candidate was verified. That proves closure
    /// without a fixpoint (every run it admits is admitted by a closing
    /// formula) — and guarantees the merge drops it, so the formula is
    /// not carried.
    Subsumed,
    /// No run of `M ⊨ R ∧ ¬fa` satisfies the weakened property: it
    /// closes the gap (Definition 3).
    Closing(Ltl),
}

/// Per-worker verification scratch. Each worker owns its pool, probe
/// memo and bounded-tier session outright, so no verdict ever depends on
/// what another worker happened to discover first: every pooled run is a
/// genuine bad run (rejections are sound regardless of pool content), the
/// probe memo only suppresses *repeat* probes within one worker, and a
/// session answer is a re-verified run or no verdict at all.
struct WorkerState<'m> {
    /// Known bad runs — runs of `M` satisfying `R ∧ ¬fa`. Seeded with the
    /// term-enumeration runs; every failed closure check and probe hit
    /// contributes one more. A candidate that holds on any pooled run is
    /// rejected by a word evaluation instead of a model check.
    bad_runs: Vec<LassoWord>,
    /// Directed refutation probes already answered by this worker, per
    /// probed (time, literal) pair.
    probed: BTreeSet<(usize, Lit)>,
    /// The incremental bounded-refutation session for this worker's
    /// `R ∧ ¬fa` base, built by the first closure query that reaches the
    /// SAT tier. Only ever taken out for the duration of one query (see
    /// [`GapEngine::closure`]): a panic mid-query leaves it `None`.
    bmc: Option<BmcSession<'m>>,
}

impl WorkerState<'_> {
    fn new(seed_runs: &[LassoWord]) -> Self {
        WorkerState {
            bad_runs: seed_runs.to_vec(),
            probed: BTreeSet::new(),
            bmc: None,
        }
    }
}

/// `f ⇒ g`, decided by the automata procedure behind a sample-word
/// screen: a word satisfying `f` but not `g` refutes the implication
/// outright, and only unrefuted pairs pay for the automata check. The
/// screen never changes the answer — words refute soundly — so the
/// result is deterministic and identical on every worker.
fn implies_screened(f: &Ltl, g: &Ltl, screen_words: &[LassoWord]) -> bool {
    let refuted = screen_words.iter().any(|w| f.holds_on(w) && !g.holds_on(w));
    !refuted && dic_automata::implies(f, g)
}

/// Verifies one candidate against the model: apply, word-screen against
/// the worker's bad-run pool, subsumption screen against the accepted
/// formulas, directed refutation probe, then the full closure fixpoint.
///
/// `accepted` is a (possibly stale) snapshot of the merge's accepted
/// formulas; see [`WeakestMerge`] for why staleness is sound.
fn verify_candidate<'m>(
    fa: &Ltl,
    cand: &Candidate,
    base: &[Ltl],
    engine: GapEngine<'m>,
    accepted: &[Ltl],
    screen_words: &[LassoWord],
    state: &mut WorkerState<'m>,
) -> Result<Verdict, CoreError> {
    let Some(weakened) = apply(fa, cand) else {
        return Ok(Verdict::Skip);
    };
    if weakened == *fa {
        return Ok(Verdict::Skip); // smart constructors absorbed the change
    }
    if state.bad_runs.iter().any(|run| weakened.holds_on(run)) {
        return Ok(Verdict::NotClosing); // a known bad run slips through
    }
    // Subsumption by an already-accepted closing formula: if
    // `weakened ⇒ g` for a closing `g`, every run the candidate admits is
    // admitted by `g`, so the candidate closes too — and the merge drops
    // it as (at best) equivalent to the earlier `g`. Confirming closure
    // by formula implication replaces a whole-product fixpoint per
    // redundant candidate.
    if accepted
        .iter()
        .any(|g| implies_screened(&weakened, g, screen_words))
    {
        if dic_trace::enabled() {
            dic_trace::count(dic_trace::Counter::GapImplicationSettled, 1);
        }
        return Ok(Verdict::Subsumed);
    }
    // Directed cheap refutation before the full closure fixpoint: a
    // bad run exhibiting the *negated* augmentation at the candidate's
    // position usually satisfies the weakened property outright (the
    // strengthened antecedent never fires / the weakened consequent is
    // not exercised), and any bad run satisfying the candidate refutes
    // closure by word evaluation alone. The probe is one bounded-cube
    // query against the memoized `R ∧ ¬fa` base product; when the run
    // it finds does not settle the candidate, the full check below
    // still decides it — the probe is an early exit, never an oracle.
    let probe_at = (cand.x_depth + cand.offset, cand.literal.negated());
    if state.probed.insert(probe_at) {
        let probe = TemporalCube::from_lits([probe_at]).expect("single literal");
        if let Some(run) = engine.scenario(base, None, &probe)? {
            state.bad_runs.push(run);
            let run = state.bad_runs.last().expect("just pushed");
            if weakened.holds_on(run) {
                if dic_trace::enabled() {
                    dic_trace::count(dic_trace::Counter::GapProbeRefuted, 1);
                }
                return Ok(Verdict::NotClosing);
            }
        }
    }
    if dic_trace::enabled() {
        dic_trace::count(dic_trace::Counter::GapFixpointVerified, 1);
    }
    // The full closure check. With `BmcMode::Auto`, `closure` itself
    // fronts this with the bounded SAT tier — a shallow refuting lasso
    // comes back without running either fixpoint engine, and lands in
    // the shared bad-run pool exactly like a fixpoint counterexample.
    match engine.closure(base, std::slice::from_ref(&weakened), &mut state.bmc)? {
        Some(run) => {
            state.bad_runs.push(run);
            Ok(Verdict::NotClosing)
        }
        None => Ok(Verdict::Closing(weakened)),
    }
}

/// The deterministic merge (stage 3): consumes *closing* verdicts in
/// canonical candidate order and maintains the running weakest antichain
/// under the strength order of Definition 2.
///
/// For each offered formula `f`, in order:
///
/// * if `f ⇒ g` for an accepted `g`, `f` is dropped — it is at best
///   equivalent to `g` (keep-first dedup) and otherwise strictly
///   stronger, which the "weakest gap properties" contract excludes;
/// * otherwise every accepted `g` with `g ⇒ f` is *removed* and its
///   budget slot refunded (`f` did not imply `g`, so the implication is
///   strict: `g` is strictly stronger than the newly found weaker `f`).
///   This is the post-pass that replaces the historical mid-loop screen,
///   whose confirmed-earlier formulas burned budget slots that the final
///   weakest-only filter then discarded — reporting fewer weakest
///   properties than the budget allowed;
/// * `f` is accepted. Scanning stops once the antichain reaches the
///   `max_gap_properties` budget.
///
/// Subsumption screens against *stale* snapshots of the accepted set are
/// sound: a formula is only ever removed in favor of a strictly weaker
/// one, so `f ⇒ g` with `g` accepted at any point implies `f ⇒ h` for
/// some `h` accepted at every later point — a [`Verdict::Subsumed`]
/// candidate stays dropped no matter how the antichain evolves.
struct WeakestMerge<'a> {
    accepted: Vec<(Candidate, Ltl)>,
    screen_words: &'a [LassoWord],
    budget: usize,
}

impl<'a> WeakestMerge<'a> {
    fn new(screen_words: &'a [LassoWord], budget: usize) -> Self {
        WeakestMerge {
            accepted: Vec::new(),
            screen_words,
            budget,
        }
    }

    fn is_full(&self) -> bool {
        self.accepted.len() >= self.budget
    }

    /// Snapshot of the accepted formulas, for the workers' subsumption
    /// screen.
    fn formulas(&self) -> Vec<Ltl> {
        self.accepted.iter().map(|(_, g)| g.clone()).collect()
    }

    fn offer(&mut self, cand: Candidate, formula: Ltl) {
        let words = self.screen_words;
        if self
            .accepted
            .iter()
            .any(|(_, g)| implies_screened(&formula, g, words))
        {
            return; // equivalent to or strictly stronger than an accepted g
        }
        // The refund: `formula` implies no accepted formula (checked
        // above), so any accepted `g ⇒ formula` is strictly stronger and
        // Definition 2 drops it in favor of the weaker newcomer.
        let before = self.accepted.len();
        self.accepted
            .retain(|(_, g)| !implies_screened(g, &formula, words));
        if dic_trace::enabled() {
            dic_trace::count(
                dic_trace::Counter::GapBudgetRefunds,
                (before - self.accepted.len()) as u64,
            );
        }
        self.accepted.push((cand, formula));
    }

    fn into_closing(self) -> Vec<(Candidate, Ltl)> {
        self.accepted
    }
}

/// What the guarded per-candidate driver concluded: a settled verdict, an
/// unresolvable candidate, a scan-wide deadline stop, or a genuinely
/// fatal error.
enum Guarded {
    Settled(Verdict),
    /// The candidate could not be settled (degradable refusal, caught
    /// panic, injected unknown); the scan continues without it.
    Unknown(String),
    /// The cooperative deadline tripped — stop the scan; later candidates
    /// would trip at the same checkpoint.
    DeadlineStop,
    /// Non-degradable error: propagate, aborting the phase.
    Fatal(CoreError),
}

/// Best-effort rendering of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// The graceful-degradation wrapper around [`verify_candidate`]: hosts
/// the `gap.worker` injection site and the per-candidate deadline
/// checkpoint, isolates panics with `catch_unwind`, and retries a
/// symbolic `NodeLimit` refusal on the explicit engine (lazily built,
/// when the model's explicit-hostility axes allow) before giving the
/// candidate up as unknown.
fn verify_candidate_guarded<'m>(
    fa: &Ltl,
    cand: &Candidate,
    base: &[Ltl],
    engine: GapEngine<'m>,
    accepted: &[Ltl],
    screen_words: &[LassoWord],
    state: &mut WorkerState<'m>,
) -> Guarded {
    let forced = dic_fault::hit(dic_fault::Site::GapWorker);
    match forced {
        Some(dic_fault::FaultKind::Deadline) => return Guarded::DeadlineStop,
        Some(dic_fault::FaultKind::SatUnknown) => {
            return Guarded::Unknown("injected fault: inconclusive verdict".to_string())
        }
        _ => {}
    }
    if dic_fault::deadline_expired() {
        return Guarded::DeadlineStop;
    }
    // One guarded attempt on `e`. The injected panic fires *inside* the
    // unwind scope, so it exercises exactly the isolation an organic
    // worker panic would.
    let attempt = |e: GapEngine<'m>, state: &mut WorkerState<'m>, inject_panic: bool| {
        catch_unwind(AssertUnwindSafe(|| {
            if inject_panic {
                dic_fault::injected_panic();
            }
            verify_candidate(fa, cand, base, e, accepted, screen_words, state)
        }))
        .map_err(|payload| panic_message(payload.as_ref()))
    };
    // An injected NodeLimit takes the organic refusal path verbatim.
    let first = if forced == Some(dic_fault::FaultKind::NodeLimit) {
        Ok(Err(CoreError::Symbolic(
            dic_symbolic::SymbolicError::NodeLimit {
                nodes: 0,
                cache_entries: 0,
                limit: 0,
            },
        )))
    } else {
        attempt(engine, state, forced == Some(dic_fault::FaultKind::Panic))
    };
    let settle = |outcome: Result<Result<Verdict, CoreError>, String>| match outcome {
        Err(panic_msg) => Guarded::Unknown(format!("worker panic caught: {panic_msg}")),
        Ok(Ok(verdict)) => Guarded::Settled(verdict),
        Ok(Err(e)) if e.is_deadline() => Guarded::DeadlineStop,
        Ok(Err(e)) if e.is_degradable() => Guarded::Unknown(e.to_string()),
        Ok(Err(e)) => Guarded::Fatal(e),
    };
    let node_limited = matches!(
        first,
        Ok(Err(CoreError::Symbolic(
            dic_symbolic::SymbolicError::NodeLimit { .. }
        )))
    );
    if let Some(explicit) = node_limited.then(|| engine.explicit_fallback()).flatten() {
        if dic_trace::enabled() {
            dic_trace::event("gap.retry_explicit", &[]);
        }
        return settle(attempt(explicit, state, false));
    }
    settle(first)
}

/// Result of a verification scan: the accepted antichain plus the
/// degradation ledger the caller folds into the [`GapOutcome`].
struct VerifyOutcome {
    closing: Vec<(Candidate, Ltl)>,
    unknown: Vec<UnknownGap>,
    incomplete: Option<String>,
}

fn deadline_reason(unverified: usize) -> String {
    format!("deadline exceeded during gap verification; {unverified} candidates unverified")
}

/// Records an unsettled candidate, skipping degenerates the smart
/// constructors would have absorbed anyway.
fn push_unknown(unknown: &mut Vec<UnknownGap>, fa: &Ltl, cand: &Candidate, diagnostic: String) {
    if let Some(formula) = apply(fa, cand) {
        if formula != *fa {
            unknown.push(UnknownGap {
                formula,
                diagnostic,
            });
        }
    }
}

/// One-worker verification: the verify/merge stages run interleaved on
/// the calling thread, so the merge's budget exit stops verification at
/// exactly the candidate the historical sequential loop stopped at —
/// the refactor is free when `jobs == 1`.
fn verify_sequential(
    fa: &Ltl,
    candidates: &[Candidate],
    seed_runs: &[LassoWord],
    base: &[Ltl],
    engine: GapEngine<'_>,
    screen_words: &[LassoWord],
    budget: usize,
) -> Result<VerifyOutcome, CoreError> {
    let mut state = WorkerState::new(seed_runs);
    let mut merge = WeakestMerge::new(screen_words, budget);
    let mut accepted: Vec<Ltl> = Vec::new();
    let mut unknown: Vec<UnknownGap> = Vec::new();
    let mut incomplete = None;
    for (idx, cand) in candidates.iter().enumerate() {
        if merge.is_full() {
            break;
        }
        match verify_candidate_guarded(
            fa,
            cand,
            base,
            engine,
            &accepted,
            screen_words,
            &mut state,
        ) {
            Guarded::Settled(Verdict::Closing(formula)) => {
                merge.offer(cand.clone(), formula);
                accepted = merge.formulas();
            }
            Guarded::Settled(_) => {}
            Guarded::Unknown(diagnostic) => push_unknown(&mut unknown, fa, cand, diagnostic),
            Guarded::DeadlineStop => {
                incomplete = Some(deadline_reason(candidates.len() - idx));
                for rest in &candidates[idx..] {
                    push_unknown(
                        &mut unknown,
                        fa,
                        rest,
                        "deadline exceeded before this candidate was verified".to_owned(),
                    );
                }
                break;
            }
            Guarded::Fatal(e) => return Err(e),
        }
    }
    Ok(VerifyOutcome {
        closing: merge.into_closing(),
        unknown,
        incomplete,
    })
}

/// Fan-out verification: `jobs` scoped workers claim candidates from a
/// shared index in canonical order, each owning its bad-run pool and
/// probe memo ([`WorkerState`]); verdicts stream back to this thread,
/// which advances a merge frontier strictly in canonical order. The
/// frontier applies the budget and the subsumption post-pass only to
/// in-order verdicts, so the result — including the point verification
/// stops — is byte-identical to the one-worker path.
///
/// Errors propagate deterministically too: the first error *in canonical
/// order* reached by the frontier wins (exactly the one the sequential
/// scan would have hit), the cutoff releases the workers, and the error
/// surfaces after they drain — a worker-thread resource refusal
/// (state-space limit, BDD node budget) reaches the caller as the same
/// [`CoreError`] it would raise inline.
///
/// On the symbolic engine the closure fixpoints serialize on the
/// engine's internal lock (the one `BddManager` is single-threaded); the
/// workers still overlap all word-level screens and act as the queue that
/// coordinating thread drains. See
/// [`JobsStats::gap_fixpoints`](crate::JobsStats::gap_fixpoints).
#[allow(clippy::too_many_arguments)]
fn verify_parallel(
    fa: &Ltl,
    candidates: &[Candidate],
    seed_runs: &[LassoWord],
    base: &[Ltl],
    engine: GapEngine<'_>,
    screen_words: &[LassoWord],
    budget: usize,
    jobs: usize,
) -> Result<VerifyOutcome, CoreError> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Mutex, PoisonError};

    let total = candidates.len();
    let next = AtomicUsize::new(0);
    // First candidate index whose verdict the merge no longer needs:
    // moves to the budget point once the antichain fills (or to 0 on an
    // error), releasing the workers early.
    let cutoff = AtomicUsize::new(total);
    // Accepted formulas, republished by the merge after every accept for
    // the workers' subsumption screen. Stale reads are sound (see
    // [`WeakestMerge`]); the screen only ever *adds* fixpoint savings.
    let subsumers: Mutex<Vec<Ltl>> = Mutex::new(Vec::new());
    let (tx, rx) = mpsc::channel::<(usize, Guarded)>();

    // Workers run on their own threads, outside the coordinator's
    // thread-local span stack — attach their spans to the verify span
    // explicitly so the profile tree keeps per-worker busy time.
    let parent_span = dic_trace::current_span_id();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let tx = tx.clone();
            let next = &next;
            let cutoff = &cutoff;
            let subsumers = &subsumers;
            scope.spawn(move || {
                let mut worker_span = dic_trace::span_with_parent("gap.worker", parent_span);
                let mut state = WorkerState::new(seed_runs);
                let mut claimed = 0u64;
                let mut closing = 0u64;
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= total || i >= cutoff.load(Ordering::SeqCst) {
                        break;
                    }
                    claimed += 1;
                    // Poison-tolerant: the snapshot is a fully-assigned
                    // `Vec` under the lock, so a panicking worker cannot
                    // leave it half-written.
                    let accepted = subsumers
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .clone();
                    let verdict = verify_candidate_guarded(
                        fa,
                        &candidates[i],
                        base,
                        engine,
                        &accepted,
                        screen_words,
                        &mut state,
                    );
                    if matches!(verdict, Guarded::Settled(Verdict::Closing(_))) {
                        closing += 1;
                    }
                    if tx.send((i, verdict)).is_err() {
                        break;
                    }
                }
                if dic_trace::enabled() {
                    worker_span.meta("claimed", claimed);
                    worker_span.meta("closing", closing);
                }
            });
        }
        drop(tx);

        let mut merge = WeakestMerge::new(screen_words, budget);
        let mut slots: Vec<Option<Guarded>> = Vec::new();
        slots.resize_with(total, || None);
        let mut frontier = 0usize;
        let mut error: Option<CoreError> = None;
        let mut unknown: Vec<UnknownGap> = Vec::new();
        let mut incomplete = None;
        // Drain until every worker exits (the scope joins them anyway);
        // verdicts past the cutoff are received and discarded.
        for (i, verdict) in rx {
            if slots[i].is_none() {
                slots[i] = Some(verdict);
            }
            while frontier < cutoff.load(Ordering::SeqCst) {
                let Some(slot) = slots[frontier].take() else {
                    break; // the canonical next verdict is still in flight
                };
                match slot {
                    Guarded::Fatal(e) => {
                        error = Some(e);
                        cutoff.store(0, Ordering::SeqCst);
                    }
                    Guarded::DeadlineStop => {
                        // The scan stops at the first in-order trip: every
                        // verdict before it merged, everything after is
                        // unverified — the same stop point the sequential
                        // scan reports.
                        incomplete = Some(deadline_reason(total - frontier));
                        cutoff.store(frontier, Ordering::SeqCst);
                    }
                    Guarded::Unknown(diagnostic) => {
                        push_unknown(&mut unknown, fa, &candidates[frontier], diagnostic);
                    }
                    Guarded::Settled(Verdict::Closing(formula)) => {
                        merge.offer(candidates[frontier].clone(), formula);
                        *subsumers.lock().unwrap_or_else(PoisonError::into_inner) =
                            merge.formulas();
                        if merge.is_full() {
                            cutoff.store(frontier + 1, Ordering::SeqCst);
                        }
                    }
                    Guarded::Settled(_) => {}
                }
                frontier += 1;
            }
        }
        match error {
            Some(e) => Err(e),
            None => {
                if incomplete.is_some() {
                    // Mirror the sequential stop point: everything at or
                    // past the first in-order deadline trip is unverified,
                    // even if an out-of-order worker verdict arrived for it.
                    for rest in &candidates[cutoff.load(Ordering::SeqCst)..] {
                        push_unknown(
                            &mut unknown,
                            fa,
                            rest,
                            "deadline exceeded before this candidate was verified".to_owned(),
                        );
                    }
                }
                Ok(VerifyOutcome {
                    closing: merge.into_closing(),
                    unknown,
                    incomplete,
                })
            }
        }
    })
}

/// Attaches the demonstrating run per accepted candidate: a run matching
/// the motivating term where one exists (quantified terms are not always
/// realizable verbatim), otherwise a *seeded* run — term-matching first,
/// then the first seed — otherwise any bad run. Candidates sharing a
/// motivating term share the run (one query per distinct term). Only
/// deterministic sources are consulted — never the verification pools,
/// whose content depends on worker scheduling — so the reported
/// witnesses are identical for every worker count.
fn attach_witnesses(
    closing: Vec<(Candidate, Ltl)>,
    seed_runs: &[LassoWord],
    base: &[Ltl],
    engine: GapEngine<'_>,
) -> Result<Vec<GapProperty>, CoreError> {
    let mut term_runs: std::collections::BTreeMap<TemporalCube, Option<LassoWord>> =
        std::collections::BTreeMap::new();
    // A degradable refusal here (deadline trip, node budget) must not
    // discard already-confirmed properties: the query result degrades to
    // "no run found" and the deterministic seeded fallback takes over.
    let soft = |r: Result<Option<LassoWord>, CoreError>| match r {
        Ok(w) => Ok(w),
        Err(e) if e.is_degradable() => Ok(None),
        Err(e) => Err(e),
    };
    // Memoized unconstrained bad-run query, for the seedless path.
    let mut any_run: Option<Option<LassoWord>> = None;
    let mut props = Vec::with_capacity(closing.len());
    for (cand, formula) in closing {
        let queried = match term_runs.get(&cand.term) {
            Some(w) => w.clone(),
            None => {
                let w = soft(engine.scenario(base, None, &cand.term))?;
                term_runs.insert(cand.term.clone(), w.clone());
                w
            }
        };
        let seeded = || {
            seed_runs
                .iter()
                .find(|r| cand.term.holds_on(r, 0))
                .or_else(|| seed_runs.first())
                .cloned()
        };
        let witness = match queried.or_else(seeded) {
            Some(w) => w,
            // The seed pool is empty on the unseeded path; any bad run
            // demonstrates the gap the candidate closes.
            None => {
                let fallback = match &any_run {
                    Some(w) => w.clone(),
                    None => {
                        let w = soft(engine.scenario(base, None, &TemporalCube::top()))?;
                        any_run = Some(w.clone());
                        w
                    }
                };
                match fallback {
                    Some(r) => r,
                    // Genuinely no bad run: `R ∧ ¬fa` is unsatisfiable
                    // (the property is covered), so there is no gap to
                    // represent.
                    None => continue,
                }
            }
        };
        props.push(GapProperty {
            formula,
            position: cand.position,
            literal: cand.literal,
            offset: cand.offset,
            term: cand.term,
            witness,
        });
    }
    Ok(props)
}

/// Step 2(c): pair the variable instances of `fa` with augmentation
/// literals over the *observable alphabet* — the candidate class of
/// Definitions 2/3, enumerated canonically.
///
/// After step 2(b)'s quantification, every term literal `(t, ℓ)` matching
/// an instance at `X`-depth `d` (`t ≥ d`, `t − d ≤ max_offset`) lies in
/// exactly this class, so the terms *prune nothing*: they attribute.
/// Enumerating the whole class — rather than only the literals the
/// enumerated terms happened to mention — makes the candidate pool (and
/// with it the reported weakest-property set) a function of the model
/// alone: two engines that agree on closure verdicts report byte-identical
/// sets, regardless of which counterexample runs their term enumeration
/// found. Candidates are ordered the way the paper's heuristics explore
/// them: instances nested deepest inside *unbounded* temporal operators
/// first (step 2(c) determines that "the gaps lie inside the unbounded
/// operator"; Fig. 6 weakens the until), antecedent (negative) positions
/// before consequent ones, small `X` offsets before large ones; the full
/// sort key (down to the pushed literal) is total, hence canonical.
fn push_candidates(
    fa: &Ltl,
    terms: &[TemporalCube],
    observable: &BTreeSet<dic_logic::SignalId>,
    config: &GapConfig,
) -> Vec<Candidate> {
    let mut seen: BTreeSet<(Vec<usize>, Lit, usize)> = BTreeSet::new();
    let mut out: Vec<(usize, usize, usize, Candidate)> = Vec::new();
    let occurrences = fa.atom_occurrences();
    let max_unbounded = occurrences
        .iter()
        .map(|o| o.unbounded_depth)
        .max()
        .unwrap_or(0);
    for occ in &occurrences {
        let LtlNode::Atom(own) = occ.subformula.node() else {
            continue;
        };
        for offset in 0..=config.max_offset {
            for &s in observable {
                if s == *own && offset == 0 {
                    continue; // augmenting v with v or !v is degenerate
                }
                for l in [Lit::pos(s), Lit::neg(s)] {
                    let key = (occ.position.path().to_vec(), l, offset);
                    if !seen.insert(key) {
                        continue;
                    }
                    let unbounded_rank = max_unbounded - occ.unbounded_depth;
                    let pol_rank = match occ.polarity {
                        Polarity::Negative => 0,
                        Polarity::Positive => 1,
                    };
                    // Attribution: the first enumerated term exhibiting
                    // this literal (in either polarity) at the matching
                    // time, when one exists.
                    let t = occ.x_depth + offset;
                    let term = terms
                        .iter()
                        .find(|term| {
                            term.lits()
                                .iter()
                                .any(|&(tt, tl)| tt == t && tl.signal() == s)
                        })
                        .cloned()
                        .unwrap_or_default();
                    out.push((
                        unbounded_rank,
                        pol_rank,
                        offset,
                        Candidate {
                            position: occ.position.clone(),
                            literal: l,
                            offset,
                            x_depth: occ.x_depth,
                            term,
                        },
                    ));
                }
            }
        }
    }
    out.sort_by_key(|(ur, pol, off, c)| {
        (*ur, *pol, *off, c.position.path().to_vec(), c.literal)
    });
    out.into_iter().map(|(_, _, _, c)| c).collect()
}

/// Applies a candidate: `v ∧ X^k ℓ` at negative positions, `v ∨ X^k ℓ` at
/// positive ones.
fn apply(fa: &Ltl, cand: &Candidate) -> Option<Ltl> {
    let occ = fa.subformula_at(&cand.position)?.clone();
    // Recompute polarity from the stored occurrence list is avoided: the
    // position determines it, so re-walk the tree.
    let polarity = fa
        .atom_occurrences()
        .into_iter()
        .find(|o| o.position == cand.position)?
        .polarity;
    let lit = Ltl::next_n(
        Ltl::literal(cand.literal.signal(), cand.literal.polarity()),
        cand.offset,
    );
    let replacement = match polarity {
        Polarity::Negative => Ltl::and([occ, lit]),
        Polarity::Positive => Ltl::or([occ, lit]),
    };
    fa.replace_at(&cand.position, replacement)
}

/// A fixed-seed pseudo-random sample of lasso words over `signals`.
fn random_words(signals: &BTreeSet<dic_logic::SignalId>) -> Vec<LassoWord> {
    let n = signals.iter().map(|s| s.index() + 1).max().unwrap_or(1);
    let signals: Vec<_> = signals.iter().copied().collect();
    let mut state = 0x9e37_79b9_7f4a_7c15u64; // fixed seed: runs are reproducible
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut words = Vec::with_capacity(64);
    for _ in 0..64 {
        let len = 4 + (next() % 8) as usize;
        let loop_start = (next() % len as u64) as usize;
        let states: Vec<dic_logic::Valuation> = (0..len)
            .map(|_| {
                let mut v = dic_logic::Valuation::all_false(n);
                let bits = next();
                for (k, &s) in signals.iter().enumerate() {
                    v.set(s, bits >> (k % 64) & 1 == 1);
                }
                v
            })
            .collect();
        words.push(LassoWord::new(states, loop_start).expect("loop_start < len"));
    }
    words
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hole::closes_gap;
    use crate::model::CoverageModel;
    use crate::spec::{ArchSpec, RtlSpec};
    use crate::terms::{uncovered_terms, uncovered_terms_with_runs};
    use dic_logic::SignalTable;
    use dic_netlist::ModuleBuilder;

    /// The `en` gap fixture: A = G(req -> XX q), R = G(req & en -> X a),
    /// glue q <= a. The gap is exactly "req with en low".
    fn gapped() -> (SignalTable, ArchSpec, RtlSpec, CoverageModel) {
        let mut t = SignalTable::new();
        let a_prop = Ltl::parse("G(req -> X X q)", &mut t).unwrap();
        let r_prop = Ltl::parse("G(req & en -> X a)", &mut t).unwrap();
        let mut b = ModuleBuilder::new("glue", &mut t);
        let ain = b.input("a");
        b.input("en");
        let q = b.latch_from("q", ain, false);
        b.mark_output(q);
        let m = b.finish().unwrap();
        let arch = ArchSpec::new([("A1", a_prop)]);
        let rtl = RtlSpec::new([("R1", r_prop)], [m]);
        let model = CoverageModel::build(&arch, &rtl, &t).unwrap();
        (t, arch, rtl, model)
    }

    #[test]
    fn finds_structure_preserving_gap() {
        let (t, arch, rtl, model) = gapped();
        let fa = arch.properties()[0].formula();
        let config = GapConfig::default();
        let terms = uncovered_terms(fa, &rtl, &model, &config).expect("runs");
        let gaps = find_gap(fa, &terms, &rtl, &model, &config).expect("runs");
        assert!(!gaps.is_empty(), "expected a structured gap property");
        for g in &gaps {
            // Weaker than FA and closes the gap — re-verify both.
            assert!(dic_automata::implies(fa, &g.formula));
            assert!(closes_gap(&g.formula, fa, &rtl, &model).expect("runs"));
            // The demonstrating run is a genuine bad run.
            assert!(!fa.holds_on(&g.witness));
        }
        // The expected shape mirrors the paper's U: the antecedent is
        // strengthened with the *uncovered scenario* literal (en low is
        // where R says nothing), i.e. G(req & !en -> X X q).
        let expected = {
            let mut t2 = t.clone();
            Ltl::parse("G(req & !en -> X X q)", &mut t2).unwrap()
        };
        assert!(
            gaps.iter()
                .any(|g| dic_automata::equivalent(&g.formula, &expected)),
            "expected G(req & !en -> XX q) among {:?}",
            gaps.iter().map(|g| g.describe(&t)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn gap_properties_are_weakest() {
        let (_t, arch, rtl, model) = gapped();
        let fa = arch.properties()[0].formula();
        let config = GapConfig::default();
        let terms = uncovered_terms(fa, &rtl, &model, &config).expect("runs");
        let gaps = find_gap(fa, &terms, &rtl, &model, &config).expect("runs");
        // No kept candidate is strictly stronger than another kept one.
        for i in 0..gaps.len() {
            for j in 0..gaps.len() {
                if i != j {
                    assert!(
                        !dic_automata::stronger_than(&gaps[i].formula, &gaps[j].formula),
                        "candidate {i} strictly stronger than {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn seeded_pool_does_not_change_the_result() {
        let (_t, arch, rtl, model) = gapped();
        let fa = arch.properties()[0].formula();
        let config = GapConfig::default();
        let (terms, runs) =
            uncovered_terms_with_runs(fa, &rtl, &model, &config).expect("runs");
        let unseeded = find_gap(fa, &terms, &rtl, &model, &config).expect("runs");
        let seeded =
            find_gap_with_runs(fa, &terms, &runs, &rtl, &model, &config).expect("runs");
        let fmt = |gs: &[GapProperty]| {
            let mut v: Vec<String> = gs.iter().map(|g| format!("{:?}", g.formula)).collect();
            v.sort();
            v
        };
        assert_eq!(fmt(&unseeded), fmt(&seeded), "seeding is a pure optimization");
    }

    /// Regression: a subsumed closing candidate must refund its
    /// `max_gap_properties` slot. FA = `G(p -> q U r)` over four free
    /// inputs; the lone RTL property `G !l` pins `l` low, so three
    /// candidates close the gap in strictly increasing weakness along
    /// the canonical order: `q ∨ r` (≡ FA), then `q ∨ l` (≡ FA under
    /// `G !l`, strictly weaker as a formula), then `r ∨ l` — the
    /// weakest, `G(p -> q U (r | l))`. With a budget of 2 the
    /// historical loop admitted the first two closing candidates, hit
    /// the budget, stopped verifying, and the weakest-only post-filter
    /// then dropped one of them — reporting the strictly stronger
    /// `G(p -> (q | l) U r)` with an underfilled budget, a function of
    /// the verification order rather than of the model. The merge
    /// refunds the slot of every subsumed candidate, so verification
    /// reaches the genuinely weakest one and reports exactly it — at
    /// any worker count.
    #[test]
    fn subsumed_candidates_refund_their_budget_slot() {
        let mut t = SignalTable::new();
        let fa = Ltl::parse("G(p -> q U r)", &mut t).unwrap();
        let r_prop = Ltl::parse("G !l", &mut t).unwrap();
        let mut b = ModuleBuilder::new("free", &mut t);
        b.input("p");
        b.input("q");
        b.input("r");
        let l = b.input("l");
        let d = b.latch_from("d", l, false);
        b.mark_output(d);
        let m = b.finish().unwrap();
        let arch = ArchSpec::new([("A1", fa)]);
        let rtl = RtlSpec::new([("R1", r_prop)], [m]);
        let model = CoverageModel::build(&arch, &rtl, &t).unwrap();
        let fa = arch.properties()[0].formula();
        let term = TemporalCube::from_lits([(0, Lit::neg(l))]).unwrap();
        let weakest = {
            let mut t2 = t.clone();
            Ltl::parse("G(p -> q U (r | l))", &mut t2).unwrap()
        };
        let stronger = {
            let mut t2 = t.clone();
            Ltl::parse("G(p -> (q | l) U r)", &mut t2).unwrap()
        };
        for jobs in [1, 4] {
            let config = GapConfig {
                max_offset: 0,
                max_gap_properties: 2,
                jobs,
                ..GapConfig::default()
            };
            let gaps = find_gap(fa, std::slice::from_ref(&term), &rtl, &model, &config)
                .expect("runs");
            let shown: Vec<String> = gaps.iter().map(|g| g.describe(&t)).collect();
            assert_eq!(
                gaps.len(),
                1,
                "jobs={jobs}: expected exactly the weakest property, got {shown:?}"
            );
            assert!(
                dic_automata::equivalent(&gaps[0].formula, &weakest),
                "jobs={jobs}: expected G(p -> q U (r | l)), got {shown:?}"
            );
            assert!(
                !dic_automata::implies(&gaps[0].formula, &stronger),
                "jobs={jobs}: reported a property at least as strong as the \
                 order-dependent screen's G(p -> (q | l) U r)"
            );
            // The demonstrating run is a genuine bad run.
            assert!(!fa.holds_on(&gaps[0].witness));
        }
    }

    #[test]
    fn covered_spec_yields_no_candidates() {
        let mut t = SignalTable::new();
        let a_prop = Ltl::parse("G(req -> X X q)", &mut t).unwrap();
        let r_prop = Ltl::parse("G(req -> X a)", &mut t).unwrap();
        let mut b = ModuleBuilder::new("glue", &mut t);
        let ain = b.input("a");
        let q = b.latch_from("q", ain, false);
        b.mark_output(q);
        let m = b.finish().unwrap();
        let arch = ArchSpec::new([("A1", a_prop)]);
        let rtl = RtlSpec::new([("R1", r_prop)], [m]);
        let model = CoverageModel::build(&arch, &rtl, &t).unwrap();
        let fa = arch.properties()[0].formula();
        let config = GapConfig::default();
        let terms = uncovered_terms(fa, &rtl, &model, &config).expect("runs");
        assert!(terms.is_empty());
        let gaps = find_gap(fa, &terms, &rtl, &model, &config).expect("runs");
        assert!(gaps.is_empty());
    }
}
