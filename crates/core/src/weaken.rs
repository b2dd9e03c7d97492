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
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

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
            jobs: 0,
        }
    }
}

/// The structured-weakening phase is skipped entirely when a variable
/// instance of the intent sits deeper than this many `X` operators. A
/// candidate for a deep intent pairs an `X`-obligation chain of that
/// length with the design registers, which blows up the closure product
/// on *either* engine (the `chain-<n>-gap` family past roughly a dozen
/// stages) — such intents report their uncovered terms and Theorem 2's
/// exact hole instead. The bound is a property of the formula alone, so
/// both engines skip identically.
const MAX_INTENT_DEPTH: usize = 8;

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
/// deadline — the reason. Because candidates are claimed and merged
/// strictly in canonical order, the confirmed set of a
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
    if occurrences.iter().any(|o| o.x_depth > MAX_INTENT_DEPTH) {
        // Deep-X intent: every closure product pairs an obligation chain
        // of that depth with the design registers — a cliff for either
        // engine. Report the exact hole instead (see [`MAX_INTENT_DEPTH`]).
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
    // candidates cheaply (subsumption screen and merge; see [`Screen`]).
    let screen_words = {
        let mut signals: BTreeSet<dic_logic::SignalId> = fa.atoms();
        signals.extend(model.observable().iter().copied());
        random_words(&signals)
    };
    // Stage 2 + 3: per-candidate verification and the deterministic
    // merge, on one worker or fanned out (see [`Verifier`]).
    let jobs = config.effective_jobs().min(candidates.len().max(1));
    let verify_span = dic_trace::span("gap.verify");
    let verified = Verifier::new(
        fa,
        &candidates,
        seed_runs,
        &base,
        engine,
        &screen_words,
        config.max_gap_properties,
    )
    .run(jobs)?;
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
/// (plus, for [`Verdict::Subsumed`], the closers before it — see the
/// soundness note there).
#[derive(Clone)]
enum Verdict {
    /// Nothing to merge: a degenerate candidate (the smart constructors
    /// absorbed the augmentation, or the position vanished), or one the
    /// scan stopped before while it waited
    /// ([`Verifier::await_earlier`]), whose verdict is discarded.
    Skip,
    /// Some genuine bad run of `M ⊨ R ∧ ¬fa` satisfies the weakened
    /// property, so it cannot close the gap. *Which* run refuted it
    /// depends on the schedule; the verdict itself is semantic.
    NotClosing,
    /// The weakened property implies the formula of an earlier closing
    /// candidate. That proves closure without a fixpoint (every run it
    /// admits is admitted by a closing formula) — and guarantees the
    /// merge drops it, so the formula is not carried.
    Subsumed,
    /// No run of `M ⊨ R ∧ ¬fa` satisfies the weakened property: it
    /// closes the gap (Definition 3).
    Closing,
}

/// The sample-word screen in front of every implication between
/// candidates: a screen word satisfying `f` but not `g` refutes `f ⇒ g`
/// outright, and only unrefuted pairs pay for the automata check. A
/// candidate's *signature* has bit `w` set iff its weakening holds on
/// screen word `w`; it is computed at most once per run, by whichever
/// worker needs it first, so each screen is one mask operation. The
/// screen never changes the answer — words refute soundly — so the
/// result is deterministic and identical on every worker.
struct Screen<'a> {
    /// At most [`SCREEN_WORDS`] sample words.
    words: &'a [LassoWord],
    /// Per candidate: its signature, once computed.
    signatures: Vec<OnceLock<u64>>,
}

impl<'a> Screen<'a> {
    fn new(words: &'a [LassoWord], candidates: usize) -> Self {
        assert!(
            words.len() <= SCREEN_WORDS,
            "one signature bit per screen word"
        );
        Screen {
            words,
            signatures: (0..candidates).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The signature of candidate `i`, whose weakening is `f`.
    fn signature(&self, i: usize, f: &Ltl) -> u64 {
        *self.signatures[i].get_or_init(|| {
            let _span = dic_trace::span("gap.screen");
            self.words
                .iter()
                .enumerate()
                .fold(0, |sig, (w, word)| sig | u64::from(f.holds_on(word)) << w)
        })
    }

    /// Whether a screen word refutes `f ⇒ g`, for candidates `i` and `j`
    /// with weakenings `f` and `g`.
    fn refutes(&self, (i, f): (usize, &Ltl), (j, g): (usize, &Ltl)) -> bool {
        self.signature(i, f) & !self.signature(j, g) != 0
    }
}

/// The deterministic merge (stage 3): consumes *closing* verdicts in
/// canonical candidate order and maintains the running weakest antichain
/// under the strength order of Definition 2. Closers are held by
/// candidate index; their formulas are the candidates' weakenings.
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
/// candidate stays dropped no matter how the antichain evolves. By the
/// same transitivity, the accepted set before candidate `j` subsumes `j`
/// exactly when `j` implies the formula of some closing candidate before
/// it, accepted or not.
struct WeakestMerge {
    /// Indices of the accepted closers, in acceptance order.
    accepted: Vec<usize>,
    budget: usize,
}

impl WeakestMerge {
    fn is_full(&self) -> bool {
        self.accepted.len() >= self.budget
    }

    /// Offers closer `f`; `implies(a, b)` decides whether closer `a`'s
    /// formula implies closer `b`'s.
    fn offer(&mut self, f: usize, implies: impl Fn(usize, usize) -> bool) {
        if self.accepted.iter().any(|&g| implies(f, g)) {
            return; // equivalent to or strictly stronger than an accepted g
        }
        // The refund: `f` implies no accepted formula (checked above), so
        // any accepted `g ⇒ f` is strictly stronger and Definition 2 drops
        // it in favor of the weaker newcomer.
        let before = self.accepted.len();
        self.accepted.retain(|&g| !implies(g, f));
        if dic_trace::enabled() {
            dic_trace::count(
                dic_trace::Counter::GapBudgetRefunds,
                (before - self.accepted.len()) as u64,
            );
        }
        self.accepted.push(f);
    }
}

/// What the guarded per-candidate verification concluded: a settled
/// verdict, an unresolvable candidate, a scan-wide deadline stop, or a
/// genuinely fatal error.
#[derive(Clone)]
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

/// Result of a verification scan: the accepted antichain plus the
/// degradation ledger the caller folds into the [`GapOutcome`].
struct VerifyOutcome {
    closing: Vec<(Candidate, Ltl)>,
    unknown: Vec<UnknownGap>,
    incomplete: Option<String>,
}

/// The verification scan's shared state, behind [`Verifier::scan`].
struct Scan {
    /// The next candidate to claim; claims follow canonical order.
    next: usize,
    /// The first candidate whose verdict the merge no longer needs: the
    /// one after the candidate that filled the budget, the first deadline
    /// trip in canonical order, or 0 after a fatal error. Starts at the
    /// candidate count and only ever moves down.
    cutoff: usize,
    /// Every candidate before the frontier has been merged.
    frontier: usize,
    /// Delivered verdicts by candidate index; `None` while a candidate is
    /// unclaimed or in flight.
    verdicts: Vec<Option<Guarded>>,
    merge: WeakestMerge,
    unknown: Vec<UnknownGap>,
    incomplete: Option<String>,
    error: Option<CoreError>,
    /// Known bad runs — runs of `M` satisfying `R ∧ ¬fa` — shared by
    /// every worker. Seeded with the term-enumeration runs; every probe
    /// hit, SAT-tier run and refuting fixpoint adds one. Every pooled run
    /// is a genuine bad run, so a rejection is sound whichever worker
    /// found the run, and no verdict depends on the schedule.
    pool: Vec<LassoWord>,
    /// The (time, literal) pairs a directed refutation probe has been
    /// issued for, by any worker.
    probed: BTreeSet<(usize, Lit)>,
}

impl Scan {
    /// Whether a pooled bad run satisfies `f`, which then cannot close.
    fn refutes(&self, f: &Ltl) -> bool {
        self.pool.iter().any(|run| f.holds_on(run))
    }

    /// Whether candidate `i` closes the gap; `None` while it is in flight.
    fn closes(&self, i: usize) -> Option<bool> {
        self.verdicts[i]
            .as_ref()
            .map(|v| matches!(v, Guarded::Settled(Verdict::Closing | Verdict::Subsumed)))
    }

    /// Whether the antichain could fill before candidate `j` is merged:
    /// each candidate between the frontier and `j` that is in flight or
    /// closing may add one formula, unless `cannot_close` says otherwise.
    fn may_fill_before(&self, j: usize, cannot_close: impl Fn(usize) -> bool) -> bool {
        let pending = (self.frontier..j)
            .filter(|&i| {
                !cannot_close(i)
                    && matches!(
                        self.verdicts[i],
                        None | Some(Guarded::Settled(Verdict::Closing))
                    )
            })
            .count();
        self.merge.accepted.len() + pending >= self.merge.budget
    }
}

/// The gap phase's verification scan (stages 2 + 3). `jobs` workers —
/// the calling thread and `jobs − 1` scoped threads — claim candidates in
/// canonical order from one [`Scan`], which also holds the bad-run pool
/// and the probe memo they share; a worker's own state is only its
/// incremental BMC session. Whichever worker delivers the verdict at the
/// merge frontier advances the merge, strictly in canonical order, so the
/// result — including the point the scan stops at and the first error in
/// canonical order — is the same for every worker count.
///
/// Before a closure fixpoint a worker waits for exactly what the
/// sequential scan's decision on its candidate depends on
/// ([`Verifier::await_earlier`]), so every worker count runs the
/// sequential scan's closing fixpoints, on either engine. With one worker
/// nothing is ever in flight before the claimed candidate, the waits
/// return at once, and the loop is the sequential scan.
struct Verifier<'a, 'm> {
    candidates: &'a [Candidate],
    /// Each candidate applied to `fa`; `None` when it is degenerate.
    weakened: Vec<Option<Ltl>>,
    base: &'a [Ltl],
    engine: GapEngine<'m>,
    screen: Screen<'a>,
    scan: Mutex<Scan>,
    /// Signalled after every delivery, which is also when the frontier
    /// and the cutoff move.
    delivered: Condvar,
}

impl<'a, 'm> Verifier<'a, 'm> {
    fn new(
        fa: &'a Ltl,
        candidates: &'a [Candidate],
        seed_runs: &[LassoWord],
        base: &'a [Ltl],
        engine: GapEngine<'m>,
        screen_words: &'a [LassoWord],
        budget: usize,
    ) -> Self {
        let weakened = candidates
            .iter()
            .map(|cand| apply(fa, cand).filter(|w| w != fa))
            .collect();
        Verifier {
            candidates,
            weakened,
            base,
            engine,
            screen: Screen::new(screen_words, candidates.len()),
            scan: Mutex::new(Scan {
                next: 0,
                cutoff: candidates.len(),
                frontier: 0,
                verdicts: vec![None; candidates.len()],
                merge: WeakestMerge {
                    accepted: Vec::new(),
                    budget,
                },
                unknown: Vec::new(),
                incomplete: None,
                error: None,
                pool: seed_runs.to_vec(),
                probed: BTreeSet::new(),
            }),
            delivered: Condvar::new(),
        }
    }

    /// Poison-tolerant: candidate panics are caught inside
    /// [`Verifier::verify_guarded`], and a verification holds the lock
    /// only for a single read, push or insert, so a panic there leaves the
    /// scan consistent.
    fn lock(&self) -> MutexGuard<'_, Scan> {
        self.scan.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether candidate `i`'s weakening implies candidate `j`'s: the
    /// automata procedure decides the pairs the [`Screen`] does not
    /// refute.
    fn implies_screened(&self, i: usize, j: usize) -> bool {
        let formula = |k: usize| {
            self.weakened[k]
                .as_ref()
                .expect("screened candidates apply")
        };
        let (f, g) = (formula(i), formula(j));
        !self.screen.refutes((i, f), (j, g)) && dic_automata::implies(f, g)
    }

    /// Runs the scan on `jobs` workers and folds it into its outcome.
    fn run(self, jobs: usize) -> Result<VerifyOutcome, CoreError> {
        // Spawned workers run outside this thread's span stack: attach
        // every worker span to the verify span explicitly.
        let parent_span = dic_trace::current_span_id();
        std::thread::scope(|scope| {
            for _ in 1..jobs {
                scope.spawn(|| self.work(parent_span));
            }
            self.work(parent_span);
        });
        let scan = self
            .scan
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(e) = scan.error {
            return Err(e);
        }
        let mut unknown = scan.unknown;
        if scan.incomplete.is_some() {
            // Everything at or past the first in-order deadline trip is
            // unverified, even if a worker delivered a verdict for it.
            unknown.extend(
                self.weakened[scan.cutoff..]
                    .iter()
                    .flatten()
                    .map(|f| UnknownGap {
                        formula: f.clone(),
                        diagnostic: "deadline exceeded before this candidate was verified"
                            .to_owned(),
                    }),
            );
        }
        let closing = scan
            .merge
            .accepted
            .iter()
            .map(|&i| {
                let formula = self.weakened[i].clone().expect("closers apply");
                (self.candidates[i].clone(), formula)
            })
            .collect();
        Ok(VerifyOutcome {
            closing,
            unknown,
            incomplete: scan.incomplete,
        })
    }

    /// One worker: claims candidates until the merge needs no more,
    /// verifies each, and delivers its verdict.
    fn work(&self, parent_span: u64) {
        let mut worker_span = dic_trace::span_with_parent("gap.worker", parent_span);
        // Built by the first closure query that reaches the SAT tier, and
        // only ever taken out for the duration of one query (see
        // [`GapEngine::closure`]): a panic mid-query leaves it `None`.
        let mut bmc: Option<BmcSession<'m>> = None;
        let (mut claimed, mut closing) = (0u64, 0u64);
        loop {
            let (i, accepted, since) = {
                let mut scan = self.lock();
                let i = scan.next;
                if i >= scan.cutoff {
                    break;
                }
                scan.next += 1;
                (i, scan.merge.accepted.clone(), scan.frontier)
            };
            claimed += 1;
            let verdict = self.verify_guarded(i, &accepted, since, &mut bmc);
            if matches!(verdict, Guarded::Settled(Verdict::Closing)) {
                closing += 1;
            }
            let mut scan = self.lock();
            scan.verdicts[i] = Some(verdict);
            self.advance(&mut scan);
            drop(scan);
            self.delivered.notify_all();
        }
        if dic_trace::enabled() {
            worker_span.meta("claimed", claimed);
            worker_span.meta("closing", closing);
        }
    }

    /// Merges the delivered verdicts at the frontier, in canonical order,
    /// until one is still in flight or the cutoff is reached.
    fn advance(&self, scan: &mut Scan) {
        while scan.frontier < scan.cutoff {
            let f = scan.frontier;
            let Some(verdict) = scan.verdicts[f].clone() else {
                break; // the canonical next verdict is still in flight
            };
            scan.frontier += 1;
            match verdict {
                Guarded::Settled(Verdict::Closing) => {
                    scan.merge.offer(f, |a, b| self.implies_screened(a, b));
                    if scan.merge.is_full() {
                        scan.cutoff = f + 1;
                    }
                }
                // Counted here rather than where it is decided, so the
                // count covers exactly the candidates the scan reaches.
                Guarded::Settled(Verdict::Subsumed) if dic_trace::enabled() => {
                    dic_trace::count(dic_trace::Counter::GapImplicationSettled, 1);
                }
                Guarded::Settled(_) => {}
                Guarded::Unknown(diagnostic) => {
                    if let Some(formula) = &self.weakened[f] {
                        scan.unknown.push(UnknownGap {
                            formula: formula.clone(),
                            diagnostic,
                        });
                    }
                }
                Guarded::DeadlineStop => {
                    scan.incomplete = Some(format!(
                        "deadline exceeded during gap verification; {} candidates unverified",
                        self.candidates.len() - f
                    ));
                    scan.cutoff = f;
                }
                Guarded::Fatal(e) => {
                    scan.error = Some(e);
                    scan.cutoff = 0;
                }
            }
        }
    }

    /// The graceful-degradation wrapper around
    /// [`Verifier::verify_candidate`]: hosts the `gap.worker` injection
    /// site and the per-candidate deadline checkpoint, isolates panics
    /// with `catch_unwind`, and retries a symbolic `NodeLimit` refusal on
    /// the explicit engine (lazily built, when the model's
    /// explicit-hostility axes allow) before giving the candidate up as
    /// unknown.
    fn verify_guarded(
        &self,
        i: usize,
        accepted: &[usize],
        since: usize,
        bmc: &mut Option<BmcSession<'m>>,
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
        // One guarded attempt on `e`. The injected panic fires *inside*
        // the unwind scope, so it exercises exactly the isolation an
        // organic worker panic would.
        let attempt = |e: GapEngine<'m>, bmc: &mut Option<BmcSession<'m>>, inject_panic: bool| {
            catch_unwind(AssertUnwindSafe(|| {
                if inject_panic {
                    dic_fault::injected_panic();
                }
                self.verify_candidate(i, e, accepted, since, bmc)
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
            attempt(
                self.engine,
                bmc,
                forced == Some(dic_fault::FaultKind::Panic),
            )
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
        if let Some(explicit) = node_limited
            .then(|| self.engine.explicit_fallback())
            .flatten()
        {
            if dic_trace::enabled() {
                dic_trace::event("gap.retry_explicit", &[]);
            }
            return settle(attempt(explicit, bmc, false));
        }
        settle(first)
    }

    /// Verifies candidate `i` on `engine`: word-screen against the shared
    /// bad-run pool, subsumption screen against the `accepted` closers (a
    /// snapshot taken at frontier `since`), directed refutation probe, the
    /// bounded SAT tier, then — after
    /// [`await_earlier`](Verifier::await_earlier) and a second pool screen
    /// — the full closure fixpoint.
    fn verify_candidate(
        &self,
        i: usize,
        engine: GapEngine<'m>,
        accepted: &[usize],
        since: usize,
        bmc: &mut Option<BmcSession<'m>>,
    ) -> Result<Verdict, CoreError> {
        let Some(weakened) = &self.weakened[i] else {
            return Ok(Verdict::Skip);
        };
        if self.pool_refutes(weakened) {
            dic_trace::count(dic_trace::Counter::GapProbeRefuted, 1);
            return Ok(Verdict::NotClosing); // a known bad run slips through
        }
        // Subsumption by an already-accepted closing formula: if
        // `weakened ⇒ g` for a closing `g`, every run the candidate admits
        // is admitted by `g`, so the candidate closes too — and the merge
        // drops it as (at best) equivalent to the earlier `g`. Confirming
        // closure by formula implication replaces a whole-product
        // fixpoint per redundant candidate.
        if accepted.iter().any(|&g| self.implies_screened(i, g)) {
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
        let cand = &self.candidates[i];
        let probe_at = (cand.x_depth + cand.offset, cand.literal.negated());
        if self.lock().probed.insert(probe_at) {
            let probe = TemporalCube::from_lits([probe_at]).expect("single literal");
            let found = {
                let _span = dic_trace::span("gap.probe");
                engine.scenario(self.base, &probe)?
            };
            if let Some(run) = found {
                let refuted = weakened.holds_on(&run);
                self.lock().pool.push(run);
                if refuted {
                    dic_trace::count(dic_trace::Counter::GapProbeRefuted, 1);
                    return Ok(Verdict::NotClosing);
                }
            }
        }
        // The closure check, tier by tier (`GapEngine::closure` split
        // open). With `BmcMode::Auto` the bounded SAT tier goes first — a
        // shallow refuting lasso comes back without running either
        // fixpoint engine, and lands in the bad-run pool exactly like a
        // fixpoint counterexample.
        let extra = std::slice::from_ref(weakened);
        if let Some(run) = engine.bounded_refutation(self.base, extra, bmc) {
            self.lock().pool.push(run);
            return Ok(Verdict::NotClosing);
        }
        if let Some(verdict) = self.await_earlier(i, since) {
            return Ok(verdict);
        }
        // Other workers may have pooled runs while this one waited.
        if self.pool_refutes(weakened) {
            dic_trace::count(dic_trace::Counter::GapProbeRefuted, 1);
            return Ok(Verdict::NotClosing);
        }
        dic_trace::count(dic_trace::Counter::GapFixpointVerified, 1);
        match engine.fixpoint(self.base, extra)? {
            Some(run) => {
                self.lock().pool.push(run);
                Ok(Verdict::NotClosing)
            }
            None => Ok(Verdict::Closing),
        }
    }

    /// Whether a pooled bad run satisfies `f`, which then cannot close.
    fn pool_refutes(&self, f: &Ltl) -> bool {
        let _span = dic_trace::span("gap.pool_screen");
        self.lock().refutes(f)
    }

    /// The wait before candidate `j`'s closure fixpoint, on what the
    /// sequential scan's decision on `j` depends on; returns the verdict
    /// that makes the fixpoint unnecessary, or `None` to run it.
    ///
    /// * *Subsumption.* The sequential scan drops `j` iff `j` implies the
    ///   formula of an earlier closing candidate (see [`WeakestMerge`]).
    ///   The accepted snapshot covered the candidates before `since`;
    ///   this checks the rest and waits for each one still in flight that
    ///   `j` implies. A closer is never refuted by a pool word, a probe
    ///   or the SAT tier, so subsumption by an in-flight closer is the
    ///   only thing a stale snapshot misses.
    /// * *Budget.* While the candidates between the frontier and `j` could
    ///   fill the antichain, the sequential scan might stop before `j`:
    ///   wait for the frontier to settle that.
    ///
    /// Neither wait is held for an earlier candidate that cannot close:
    /// a degenerate one, or one a pooled run satisfies. Waits only ever go
    /// to earlier candidates, so the lowest in-flight candidate never
    /// waits and the scan cannot deadlock. When the cutoff passes `j`
    /// meanwhile, its verdict is discarded: `Skip`.
    fn await_earlier(&self, j: usize, since: usize) -> Option<Verdict> {
        let refuted: Vec<bool> = {
            let _span = dic_trace::span("gap.pool_screen");
            let scan = self.lock();
            self.weakened[since..j]
                .iter()
                .map(|w| w.as_ref().is_none_or(|f| scan.refutes(f)))
                .collect()
        };
        let cannot_close = |i: usize| i >= since && refuted[i - since];
        let wait_while = |blocked: &dyn Fn(&Scan) -> bool| {
            self.delivered
                .wait_while(self.lock(), |scan| j < scan.cutoff && blocked(scan))
                .unwrap_or_else(PoisonError::into_inner)
        };
        for i in since..j {
            let may_close = !cannot_close(i) && self.lock().closes(i) != Some(false);
            if !may_close || !self.implies_screened(j, i) {
                continue;
            }
            let scan = wait_while(&|scan| scan.closes(i).is_none());
            if j >= scan.cutoff {
                return Some(Verdict::Skip);
            }
            if scan.closes(i) == Some(true) {
                return Some(Verdict::Subsumed);
            }
        }
        let scan = wait_while(&|scan| scan.may_fill_before(j, cannot_close));
        (j >= scan.cutoff).then_some(Verdict::Skip)
    }
}

/// Attaches the demonstrating run per accepted candidate: a run matching
/// the motivating term where one exists (quantified terms are not always
/// realizable verbatim), otherwise a *seeded* run — term-matching first,
/// then the first seed — otherwise any bad run. Candidates sharing a
/// motivating term share the run (one query per distinct term). Only
/// deterministic sources are consulted — never the verification pool,
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
                let w = soft(engine.scenario(base, &cand.term))?;
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
                        let w = soft(engine.scenario(base, &TemporalCube::top()))?;
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

/// Number of sample words [`random_words`] draws: one bit each in a
/// candidate's screen signature ([`Screen`]).
const SCREEN_WORDS: usize = 64;

/// A fixed-seed pseudo-random sample of [`SCREEN_WORDS`] lasso words over
/// `signals`.
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
    let mut words = Vec::with_capacity(SCREEN_WORDS);
    for _ in 0..SCREEN_WORDS {
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
    use dic_logic::{SignalId, SignalTable};
    use dic_ltl::random::{random_formula, XorShift64};
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

    /// `gapped`'s canonical candidates and `R ∧ ¬fa` base, for driving a
    /// [`Verifier`] by hand.
    fn gapped_scan() -> (ArchSpec, RtlSpec, CoverageModel, Vec<Candidate>, Vec<Ltl>) {
        let (_t, arch, rtl, model) = gapped();
        let fa = arch.properties()[0].formula();
        let config = GapConfig::default();
        let terms = uncovered_terms(fa, &rtl, &model, &config).expect("runs");
        let candidates = push_candidates(fa, &terms, model.observable(), &config);
        let base = rtl
            .formulas()
            .iter()
            .cloned()
            .chain([Ltl::not(fa.clone())])
            .collect();
        (arch, rtl, model, candidates, base)
    }

    /// The first candidate that does not close, with the bad run its
    /// closure fixpoint returns — what a worker pools on refuting it.
    fn first_refuted(verifier: &Verifier<'_, '_>) -> (usize, LassoWord) {
        verifier
            .weakened
            .iter()
            .enumerate()
            .find_map(|(k, w)| {
                let run = verifier
                    .engine
                    .fixpoint(verifier.base, std::slice::from_ref(w.as_ref()?))
                    .expect("runs")?;
                Some((k, run))
            })
            .expect("some candidate does not close")
    }

    /// The pool belongs to the scan, not to a worker: a run that another
    /// worker's fixpoint pooled rejects a later candidate by a word
    /// evaluation — before the directed probe, whose shared memo stays
    /// empty, and so before any fixpoint.
    #[test]
    fn a_pooled_run_rejects_later_candidates_without_a_fixpoint() {
        let (arch, _rtl, model, candidates, base) = gapped_scan();
        let fa = arch.properties()[0].formula();
        let engine = model.gap_engine().expect("engine");
        let verifier = || Verifier::new(fa, &candidates, &[], &base, engine, &[], 24);
        let weakened = verifier().weakened;
        let (k, run) = first_refuted(&verifier());
        let j = (k + 1..candidates.len())
            .find(|&j| weakened[j].as_ref().is_some_and(|w| w.holds_on(&run)))
            .expect("the run refutes a later candidate too");
        // Candidate `j` is claimed at the frontier, after `k` was merged.
        let claim = |pooled: bool| {
            let v = verifier();
            {
                let mut scan = v.lock();
                (scan.next, scan.frontier) = (j + 1, j);
                if pooled {
                    scan.pool.push(run.clone());
                }
            }
            let verdict = v.verify_candidate(j, engine, &[], j, &mut None);
            let probed = !v.lock().probed.is_empty();
            (matches!(verdict, Ok(Verdict::NotClosing)), probed)
        };
        assert_eq!(claim(true), (true, false), "the pooled run settles j alone");
        assert!(claim(false).1, "without it, j reaches the probe");
    }

    /// `await_earlier`'s "cannot close" test reads the shared pool. With
    /// one budget slot, candidate `k + 1` waits for the in-flight `k`,
    /// which could fill it — unless a pooled run refutes `k`.
    #[test]
    fn await_earlier_does_not_wait_on_a_candidate_the_pool_refutes() {
        let (arch, _rtl, model, candidates, base) = gapped_scan();
        let fa = arch.properties()[0].formula();
        let engine = model.gap_engine().expect("engine");
        let verifier = || Verifier::new(fa, &candidates, &[], &base, engine, &[], 1);
        let (k, run) = first_refuted(&verifier());
        let j = k + 1;
        for pooled in [false, true] {
            let v = verifier();
            {
                let mut scan = v.lock();
                (scan.next, scan.frontier) = (j + 1, k);
                if pooled {
                    scan.pool.push(run.clone());
                }
            }
            // A watchdog ends a wait that nothing else would: it moves the
            // cutoff, which turns the verdict into `Skip`.
            let (done, watchdog) = std::sync::mpsc::channel::<()>();
            let patience = std::time::Duration::from_millis(if pooled { 30_000 } else { 200 });
            let verdict = std::thread::scope(|s| {
                let v = &v;
                s.spawn(move || {
                    if watchdog.recv_timeout(patience).is_err() {
                        v.lock().cutoff = 0;
                        v.delivered.notify_all();
                    }
                });
                let verdict = v.await_earlier(j, k);
                let _ = done.send(());
                verdict
            });
            if pooled {
                assert!(verdict.is_none(), "k cannot close: no wait");
            } else {
                assert!(
                    matches!(verdict, Some(Verdict::Skip)),
                    "k could fill the budget: waited until released"
                );
            }
        }
    }

    /// Requires the signature screen to refute exactly the pairs the
    /// word-by-word screen refutes, among every ordered pair of `fa`'s
    /// candidate weakenings over `observable`, on the words
    /// `find_gap_outcome` draws for them. An unrefuted pair goes to the
    /// same automata check either way, so `implies_screened` answers as
    /// before. Returns the number of weakenings.
    fn assert_screen_matches_word_by_word(fa: &Ltl, observable: &BTreeSet<SignalId>) -> usize {
        let config = GapConfig::default();
        let weakened: Vec<Ltl> = push_candidates(fa, &[], observable, &config)
            .iter()
            .take(config.max_candidates)
            .filter_map(|cand| apply(fa, cand).filter(|w| w != fa))
            .collect();
        let mut signals = fa.atoms();
        signals.extend(observable.iter().copied());
        let words = random_words(&signals);
        let screen = Screen::new(&words, weakened.len());
        // The word-by-word screen the signatures replaced refutes `f ⇒ g`
        // when some word satisfies `f` but not `g`; each formula's truth
        // on each word is evaluated once here, not once per pair.
        let truth: Vec<Vec<bool>> = weakened
            .iter()
            .map(|f| words.iter().map(|w| f.holds_on(w)).collect())
            .collect();
        for (i, f) in weakened.iter().enumerate() {
            for (j, g) in weakened.iter().enumerate() {
                let refuted = (0..words.len()).any(|w| truth[i][w] && !truth[j][w]);
                assert_eq!(screen.refutes((i, f), (j, g)), refuted, "{f:?} => {g:?}");
            }
        }
        weakened.len()
    }

    /// The signature screen answers as the word-by-word screen did, on
    /// mal-ex2's candidates and on random intents over four signals.
    #[test]
    fn signature_screen_matches_the_word_by_word_screen() {
        // mal-ex2, rebuilt from the packaged design's parts.
        let d = dic_designs::mal::ex2();
        let arch = ArchSpec::new(
            d.arch
                .properties()
                .iter()
                .map(|p| (p.name(), p.formula().clone())),
        );
        let rtl = RtlSpec::new(
            d.rtl
                .properties()
                .iter()
                .map(|p| (p.name(), p.formula().clone())),
            d.rtl.concrete().iter().cloned(),
        );
        let model = CoverageModel::build(&arch, &rtl, &d.table).unwrap();
        let fa = arch.properties()[0].formula();
        assert_eq!(
            assert_screen_matches_word_by_word(fa, model.observable()),
            128
        );

        let mut t = SignalTable::new();
        let atoms: Vec<SignalId> = (0..4).map(|k| t.intern(&format!("s{k}"))).collect();
        let observable: BTreeSet<SignalId> = atoms.iter().copied().collect();
        for seed in 1..=32 {
            let mut rng = XorShift64::new(seed);
            let budget = 4 + rng.below(4);
            let fa = random_formula(&mut rng, &atoms, budget);
            assert_screen_matches_word_by_word(&fa, &observable);
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
