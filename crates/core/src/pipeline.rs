//! The SpecMatcher pipeline: end-to-end coverage analysis with the
//! per-phase timing breakdown of the paper's Table 1.

use crate::backend::Backend;
use crate::bmc::BmcMode;
use crate::error::CoreError;
use crate::hole::exact_hole;
use crate::model::CoverageModel;
use crate::spec::{ArchSpec, Property, RtlSpec};
use crate::terms::uncovered_terms_with_runs;
use crate::tm::{tm_for_modules, TmStyle};
use crate::weaken::{find_gap_outcome, GapConfig, GapProperty, UnknownGap};
use dic_logic::SignalTable;
use dic_ltl::{LassoWord, Ltl, TemporalCube};
use dic_symbolic::{GcStats, SymbolicOptions};
use std::fmt::Write as _;
use std::time::Duration;

/// Wall-clock spent in each phase of the analysis — the three timing
/// columns of the paper's Table 1.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimings {
    /// Answering the primary coverage question (Theorem 1 model checking).
    pub primary: Duration,
    /// Building `T_M` for the concrete modules (Definition 4).
    pub tm_build: Duration,
    /// Finding and representing the coverage gap (Algorithm 1).
    pub gap_find: Duration,
}

impl PhaseTimings {
    fn add(&mut self, other: PhaseTimings) {
        self.primary += other.primary;
        self.tm_build += other.tm_build;
        self.gap_find += other.gap_find;
    }
}

/// Engine counter deltas attributed to each pipeline phase — the counter
/// analogue of [`PhaseTimings`], populated only when `dic_trace` is
/// enabled (the snapshots cost atomic reads per phase boundary, which the
/// disabled path must not pay).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseCounters {
    /// Work answering the primary coverage questions (Theorem 1).
    pub primary: dic_trace::CounterSnapshot,
    /// Work building `T_M` (Definition 4).
    pub tm_build: dic_trace::CounterSnapshot,
    /// Work finding and representing the gap (Algorithm 1).
    pub gap_find: dic_trace::CounterSnapshot,
}

/// Worker-thread accounting for the run, per phase — the parallel
/// analogue of the collection statistics: enough to see from a report
/// whether the closure fan-out actually ran and how wide.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobsStats {
    /// The resolved worker count for candidate closure verification
    /// ([`GapConfig::effective_jobs`]).
    pub requested: usize,
    /// Workers on the primary coverage question — always 1 (one Theorem 1
    /// query per property; parallelizing across properties is a ROADMAP
    /// item, not this refactor).
    pub primary: usize,
    /// Workers on gap-phase candidate verification, the calling thread
    /// included.
    pub gap_workers: usize,
    /// Closure *fixpoints* that can run concurrently on the model's engine:
    /// equals `gap_workers` on the explicit engine, 1 on the symbolic
    /// engine (the one `BddManager` is single-threaded — workers still
    /// overlap the word-level screens and SAT queries). Every worker
    /// verifies candidates; none coordinates. See
    /// [`Backend::fixpoint_parallelism`].
    pub gap_fixpoints: usize,
}

/// Coverage result for one architectural property.
#[derive(Clone, Debug)]
pub struct PropertyReport {
    /// Name of the architectural property.
    pub name: String,
    /// The property itself.
    pub formula: Ltl,
    /// Whether the RTL specification covers it (Theorem 1). Meaningless
    /// when [`PropertyReport::unknown`] is set — the question was never
    /// settled.
    pub covered: bool,
    /// Why the primary verdict could not be settled (resource refusal or
    /// deadline trip), when the run degraded instead of aborting. `None`
    /// for every settled verdict.
    pub unknown: Option<String>,
    /// A run refuting coverage, when not covered.
    pub witness: Option<LassoWord>,
    /// Uncovered terms `UM` (Algorithm 1 step 2(a)/(b)).
    pub uncovered_terms: Vec<TemporalCube>,
    /// Structure-preserving gap properties (steps 2(c)/(d)), weakest first.
    pub gap_properties: Vec<GapProperty>,
    /// Gap candidates whose closure verdict could not be settled before a
    /// resource refusal or deadline trip (empty on a complete run).
    pub unknown_gaps: Vec<UnknownGap>,
    /// The exact hole `FA ∨ ¬(R ∧ T_M)` of Theorem 2 (fallback form).
    pub exact_hole: Ltl,
    /// Per-phase wall-clock for this property.
    pub timings: PhaseTimings,
}

impl PropertyReport {
    /// The report of a property whose verdict was not settled: `reason`
    /// says what stopped the analysis.
    fn unsettled(
        prop: &Property,
        rtl: &RtlSpec,
        tm: &Ltl,
        reason: String,
        timings: PhaseTimings,
    ) -> Self {
        let fa = prop.formula();
        PropertyReport {
            name: prop.name().to_owned(),
            formula: fa.clone(),
            covered: false,
            unknown: Some(reason),
            witness: None,
            uncovered_terms: Vec::new(),
            gap_properties: Vec::new(),
            unknown_gaps: Vec::new(),
            exact_hole: exact_hole(fa, rtl, tm),
            timings,
        }
    }

    /// Human-readable report.
    pub fn render(&self, table: &SignalTable) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "property {}: {}", self.name, self.formula.display(table));
        if let Some(reason) = &self.unknown {
            let _ = writeln!(out, "  UNKNOWN — verdict not settled: {reason}");
            return out;
        }
        if self.covered {
            let _ = writeln!(out, "  COVERED by the RTL specification");
            return out;
        }
        let _ = writeln!(out, "  NOT covered — coverage gap exists");
        if let Some(w) = &self.witness {
            let _ = writeln!(
                out,
                "  witness run ({} states, loop at {}):",
                w.len(),
                w.loop_start()
            );
            for (i, st) in w.states().iter().enumerate() {
                let mark = if i == w.loop_start() { "->" } else { "  " };
                let _ = writeln!(out, "   {mark} t{i}: {}", st.display(table));
            }
        }
        if !self.uncovered_terms.is_empty() {
            let _ = writeln!(out, "  uncovered terms UM:");
            for term in &self.uncovered_terms {
                let _ = writeln!(out, "    {}", term.display(table));
            }
        }
        if self.gap_properties.is_empty() {
            let _ = writeln!(
                out,
                "  no structure-preserving gap property found; exact hole (Thm 2):"
            );
            let _ = writeln!(out, "    {}", self.exact_hole.display(table));
        } else {
            let _ = writeln!(out, "  gap properties (weakest first):");
            for g in &self.gap_properties {
                let _ = writeln!(out, "    {}", g.describe(table));
            }
        }
        if !self.unknown_gaps.is_empty() {
            let _ = writeln!(out, "  unverified gap candidates:");
            for u in &self.unknown_gaps {
                let _ = writeln!(
                    out,
                    "    unknown: {} — {}",
                    u.formula.display(table),
                    u.diagnostic
                );
            }
        }
        out
    }
}

/// Result of a full [`SpecMatcher::check`] run.
#[derive(Clone, Debug)]
pub struct CoverageRun {
    /// Per-property reports, in intent order.
    pub properties: Vec<PropertyReport>,
    /// `T_M` of the composed concrete modules.
    pub tm: Ltl,
    /// Aggregate timings (the Table 1 row for this design).
    pub timings: PhaseTimings,
    /// Number of RTL properties (Table 1's first column).
    pub num_rtl_properties: usize,
    /// The engine that answered the primary questions and ran the gap
    /// phases (resolved from the matcher's requested backend at
    /// model-build time).
    pub backend: Backend,
    /// Whether the bounded SAT refutation tier ran ahead of the closure
    /// fixpoints (the gap-property sets are identical either way).
    pub bmc: BmcMode,
    /// Collection statistics of the symbolic engine (`None` when no
    /// symbolic engine was built for this run).
    pub bdd_gc: Option<GcStats>,
    /// Worker-thread accounting per phase.
    pub jobs: JobsStats,
    /// Per-phase engine counter deltas; `None` unless `dic_trace` was
    /// enabled for the run (e.g. the CLI's `--profile` / `--trace-out`).
    pub counters: Option<PhaseCounters>,
    /// Why the run degraded to a partial report (deadline trip or resource
    /// refusal mid-analysis), when it did. Every verdict in the report is
    /// still settled and sound — the reason names what was left undone.
    pub incomplete: Option<String>,
}

impl CoverageRun {
    /// Whether every architectural property is covered. Unsettled verdicts
    /// count as not covered — a partial run never claims full coverage.
    pub fn all_covered(&self) -> bool {
        self.properties.iter().all(|p| p.covered && p.unknown.is_none())
    }

    /// Whether at least one property was *settled* as not covered —
    /// unknown verdicts don't count. This is what decides exit 1 vs exit 3
    /// for an incomplete run: a confirmed gap is actionable even when the
    /// scan was cut short.
    pub fn has_confirmed_gap(&self) -> bool {
        self.properties.iter().any(|p| !p.covered && p.unknown.is_none())
    }

    /// Renders all reports plus the timing summary.
    pub fn render(&self, table: &SignalTable) -> String {
        let mut out = String::new();
        for p in &self.properties {
            out.push_str(&p.render(table));
        }
        let _ = writeln!(
            out,
            "timings (primary backend {}, gap backend {}, bmc {}): primary {:?}, TM build {:?}, gap finding {:?}",
            self.backend,
            self.backend,
            self.bmc,
            self.timings.primary,
            self.timings.tm_build,
            self.timings.gap_find
        );
        if let Some(r) = &self.bdd_gc {
            if r.gc_collections > 0 || r.peak_nodes > 0 {
                let _ = writeln!(
                    out,
                    "bdd gc: {} collections freed {} nodes (peak {} nodes)",
                    r.gc_collections, r.gc_freed, r.peak_nodes
                );
            }
        }
        let _ = writeln!(
            out,
            "jobs: {} workers (primary {}, gap verification {}, gap fixpoints {})",
            self.jobs.requested, self.jobs.primary, self.jobs.gap_workers, self.jobs.gap_fixpoints
        );
        if let Some(reason) = &self.incomplete {
            let _ = writeln!(out, "incomplete: {reason}");
        }
        out
    }
}

/// The coverage checker (the paper's *SpecMatcher* tool).
///
/// See the [crate-level example](crate).
#[derive(Clone, Debug, Default)]
pub struct SpecMatcher {
    config: GapConfig,
    tm_style: TmStyle,
    backend: Backend,
    bmc: BmcMode,
}

impl SpecMatcher {
    /// Creates a checker with the given gap-finding configuration (and the
    /// default [`Backend::Auto`] engine selection).
    pub fn new(config: GapConfig) -> Self {
        SpecMatcher {
            config,
            tm_style: TmStyle::default(),
            backend: Backend::default(),
            bmc: BmcMode::default(),
        }
    }

    /// Overrides the `T_M` construction style (ablation hook).
    pub fn with_tm_style(mut self, style: TmStyle) -> Self {
        self.tm_style = style;
        self
    }

    /// Selects the model-checking backend for *both* phases: the primary
    /// coverage question and the gap phase run on the one engine resolved
    /// when the model is built ([`CoverageModel::primary_backend`]).
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// The configuration.
    pub fn config(&self) -> &GapConfig {
        &self.config
    }

    /// The requested backend.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Selects the bounded-refutation mode (the CLI's `--bmc`;
    /// [`BmcMode::Auto`] by default). With `Auto`, every gap-phase closure
    /// query first asks the SAT tier for a `k`-bounded refuting run and
    /// only falls through to the fixpoint engines on an inconclusive
    /// bound; the reported gap-property sets are byte-identical across
    /// modes. Takes effect on the model [`SpecMatcher::check`] builds —
    /// when reusing a prebuilt model via [`SpecMatcher::check_with_model`],
    /// set [`CoverageModel::set_bmc_mode`] on it instead.
    pub fn with_bmc(mut self, bmc: BmcMode) -> Self {
        self.bmc = bmc;
        self
    }

    /// The requested bounded-refutation mode.
    pub fn bmc(&self) -> BmcMode {
        self.bmc
    }

    /// Overrides the closure-verification worker count (the CLI's
    /// `--jobs`). `0` keeps the default resolution:
    /// `SPECMATCHER_JOBS` when set, otherwise the machine's available
    /// parallelism. The reported property set is identical for every
    /// value; see [`GapConfig::jobs`].
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.config.jobs = jobs;
        self
    }

    /// Runs the full analysis: primary coverage for every architectural
    /// property (Theorem 1), `T_M` construction (Definition 4), and — for
    /// every uncovered property — gap extraction and representation
    /// (Algorithm 1, with Theorem 2 as fallback). A model build refused
    /// for resources or time degrades to a partial run, every verdict
    /// unknown.
    ///
    /// # Errors
    ///
    /// Model-construction failures other than those refusals; see
    /// [`CoverageModel::build`].
    pub fn check(
        &self,
        arch: &ArchSpec,
        rtl: &RtlSpec,
        table: &SignalTable,
    ) -> Result<CoverageRun, CoreError> {
        match self.build_model(arch, rtl, table) {
            Ok(model) => self.check_with_model(arch, rtl, table, &model),
            Err(e) if e.is_degradable() => self.run(arch, rtl, table, Err(&e)),
            Err(e) => Err(e),
        }
    }

    /// The model [`SpecMatcher::check`] runs on: built for the requested
    /// backend, with the symbolic options from the environment and the
    /// requested bounded-refutation mode set.
    ///
    /// # Errors
    ///
    /// Model-construction failures; see [`CoverageModel::build`].
    pub fn build_model(
        &self,
        arch: &ArchSpec,
        rtl: &RtlSpec,
        table: &SignalTable,
    ) -> Result<CoverageModel, CoreError> {
        let options = SymbolicOptions::from_env().map_err(CoreError::Symbolic)?;
        let mut model =
            CoverageModel::build_with_symbolic_options(arch, rtl, table, self.backend, options)?;
        model.set_bmc_mode(self.bmc);
        Ok(model)
    }

    /// Like [`SpecMatcher::check`] but reusing a prebuilt model (the
    /// benchmark harness separates model construction from the timed
    /// phases).
    ///
    /// # Errors
    ///
    /// `T_M` construction can exceed the explicit state-space limit.
    pub fn check_with_model(
        &self,
        arch: &ArchSpec,
        rtl: &RtlSpec,
        table: &SignalTable,
        model: &CoverageModel,
    ) -> Result<CoverageRun, CoreError> {
        self.run(arch, rtl, table, Ok(model))
    }

    /// The analysis on `model`, or, when the model build was refused for
    /// resources or time, a partial run with every verdict unknown.
    fn run(
        &self,
        arch: &ArchSpec,
        rtl: &RtlSpec,
        table: &SignalTable,
        model: Result<&CoverageModel, &CoreError>,
    ) -> Result<CoverageRun, CoreError> {
        let mut counters = dic_trace::enabled().then(PhaseCounters::default);

        // Phase: TM building (Definition 4) — once per design.
        let base = counters.as_ref().map(|_| dic_trace::CounterSnapshot::capture());
        let tm_span = dic_trace::span("phase.tm_build");
        let tm_start = dic_trace::Stopwatch::start();
        let tm = tm_for_modules(rtl.concrete(), table, self.tm_style)?;
        let tm_build = tm_start.elapsed();
        drop(tm_span);
        if let (Some(c), Some(b)) = (counters.as_mut(), base.as_ref()) {
            c.tm_build.merge(&b.delta_since());
        }

        let backend = model.map_or(self.backend, CoverageModel::primary_backend);
        let requested_jobs = self.config.effective_jobs();
        let jobs = JobsStats {
            requested: requested_jobs,
            primary: 1,
            gap_workers: requested_jobs,
            gap_fixpoints: backend.fixpoint_parallelism(requested_jobs),
        };
        let mut reports = Vec::with_capacity(arch.len());
        let mut total = PhaseTimings {
            tm_build,
            ..PhaseTimings::default()
        };
        let mut incomplete = model.err().map(|e| format!("{e} while building the model"));
        let mut deadline_hit = false;
        for prop in arch.properties() {
            let fa = prop.formula();
            let model = match model {
                Ok(model) => model,
                Err(e) => {
                    reports.push(PropertyReport::unsettled(
                        prop,
                        rtl,
                        &tm,
                        e.to_string(),
                        PhaseTimings::default(),
                    ));
                    continue;
                }
            };

            // A deadline trip is terminal for the whole scan — later
            // properties would trip at their first checkpoint anyway, so
            // report them unknown without spinning the engines up again.
            if deadline_hit {
                reports.push(PropertyReport::unsettled(
                    prop,
                    rtl,
                    &tm,
                    "deadline exceeded before this property was analyzed".into(),
                    PhaseTimings::default(),
                ));
                continue;
            }

            // Phase: primary coverage question (Theorem 1), answered by
            // the engine the model was built with.
            let base = counters.as_ref().map(|_| dic_trace::CounterSnapshot::capture());
            let primary_span = dic_trace::span("phase.primary");
            let t0 = dic_trace::Stopwatch::start();
            let primary_result = crate::primary_coverage(fa, rtl, model);
            let primary = t0.elapsed();
            drop(primary_span);
            if let (Some(c), Some(b)) = (counters.as_mut(), base.as_ref()) {
                c.primary.merge(&b.delta_since());
            }
            let witness = match primary_result {
                Ok(w) => w,
                Err(e) if e.is_degradable() => {
                    // Degrade: the verdict stays unknown, the run keeps
                    // going (a deadline stops the scan, a per-model
                    // resource refusal may still let later properties
                    // settle — they drive different automata products).
                    deadline_hit = e.is_deadline();
                    let reason = e.to_string();
                    if incomplete.is_none() {
                        incomplete = Some(format!(
                            "{reason} while answering the primary question for {}",
                            prop.name()
                        ));
                    }
                    let timings = PhaseTimings {
                        primary,
                        ..PhaseTimings::default()
                    };
                    total.add(timings);
                    reports.push(PropertyReport::unsettled(prop, rtl, &tm, reason, timings));
                    continue;
                }
                Err(e) => return Err(e),
            };
            let covered = witness.is_none();

            // Phase: gap finding (Algorithm 1), on the same engine: the
            // explicit factored products below the crossover, the
            // symbolic closure engine above it — so models past the
            // explicit state limit get structured gap reports too. The
            // enumeration runs seed the closure loop's bad-run pool.
            let base = counters.as_ref().map(|_| dic_trace::CounterSnapshot::capture());
            let gap_span = dic_trace::span("phase.gap_find");
            let t1 = dic_trace::Stopwatch::start();
            let mut gap_incomplete: Option<String> = None;
            let (terms, gaps, unknown_gaps) = if covered {
                (Vec::new(), Vec::new(), Vec::new())
            } else {
                match uncovered_terms_with_runs(fa, rtl, model, &self.config) {
                    Ok((terms, runs)) => {
                        match find_gap_outcome(fa, &terms, &runs, rtl, model, &self.config) {
                            Ok(outcome) => {
                                gap_incomplete = outcome.incomplete;
                                (terms, outcome.properties, outcome.unknown)
                            }
                            Err(e) if e.is_degradable() => {
                                gap_incomplete = Some(format!(
                                    "{e} during gap extraction for {}",
                                    prop.name()
                                ));
                                deadline_hit |= e.is_deadline();
                                (terms, Vec::new(), Vec::new())
                            }
                            Err(e) => return Err(e),
                        }
                    }
                    Err(e) if e.is_degradable() => {
                        gap_incomplete =
                            Some(format!("{e} while enumerating uncovered terms for {}", prop.name()));
                        deadline_hit |= e.is_deadline();
                        (Vec::new(), Vec::new(), Vec::new())
                    }
                    Err(e) => return Err(e),
                }
            };
            if let Some(reason) = &gap_incomplete {
                // A deadline trip is sticky (monotone wall clock), so ask
                // the governor directly rather than parsing the reason.
                deadline_hit |= dic_fault::deadline_expired();
                if incomplete.is_none() {
                    incomplete = Some(reason.clone());
                }
            }
            let gap_find = t1.elapsed();
            drop(gap_span);
            if let (Some(c), Some(b)) = (counters.as_mut(), base.as_ref()) {
                c.gap_find.merge(&b.delta_since());
            }

            let timings = PhaseTimings {
                primary,
                tm_build: Duration::ZERO,
                gap_find,
            };
            total.add(timings);
            reports.push(PropertyReport {
                name: prop.name().to_owned(),
                formula: fa.clone(),
                covered,
                unknown: None,
                witness,
                uncovered_terms: terms,
                gap_properties: gaps,
                unknown_gaps,
                exact_hole: exact_hole(fa, rtl, &tm),
                timings,
            });
        }

        Ok(CoverageRun {
            properties: reports,
            tm,
            timings: total,
            num_rtl_properties: rtl.num_properties(),
            backend,
            bmc: model.map_or(self.bmc, CoverageModel::bmc_mode),
            bdd_gc: model.ok().and_then(CoverageModel::gc_stats),
            jobs,
            counters,
            incomplete,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dic_netlist::ModuleBuilder;

    fn fixture(gap: bool) -> (SignalTable, ArchSpec, RtlSpec) {
        let mut t = SignalTable::new();
        let a_prop = Ltl::parse("G(req -> X X q)", &mut t).unwrap();
        let r_src = if gap {
            "G(req & en -> X a)"
        } else {
            "G(req -> X a)"
        };
        let r_prop = Ltl::parse(r_src, &mut t).unwrap();
        let mut b = ModuleBuilder::new("glue", &mut t);
        let ain = b.input("a");
        if gap {
            b.input("en");
        }
        let q = b.latch_from("q", ain, false);
        b.mark_output(q);
        let m = b.finish().unwrap();
        (
            t,
            ArchSpec::new([("A1", a_prop)]),
            RtlSpec::new([("R1", r_prop)], [m]),
        )
    }

    #[test]
    fn covered_run() {
        let (t, arch, rtl) = fixture(false);
        let run = SpecMatcher::new(GapConfig::default())
            .check(&arch, &rtl, &t)
            .expect("runs");
        assert!(run.all_covered());
        assert!(run.properties[0].witness.is_none());
        assert!(run.properties[0].gap_properties.is_empty());
        let text = run.render(&t);
        assert!(text.contains("COVERED"));
    }

    #[test]
    fn uncovered_run_produces_gap() {
        let (t, arch, rtl) = fixture(true);
        let run = SpecMatcher::new(GapConfig::default())
            .check(&arch, &rtl, &t)
            .expect("runs");
        assert!(!run.all_covered());
        let rep = &run.properties[0];
        assert!(rep.witness.is_some());
        assert!(!rep.uncovered_terms.is_empty());
        assert!(!rep.gap_properties.is_empty());
        let text = run.render(&t);
        assert!(text.contains("NOT covered"));
        assert!(text.contains("gap properties"));
    }

    #[test]
    fn timings_are_populated() {
        let (t, arch, rtl) = fixture(true);
        let run = SpecMatcher::new(GapConfig::default())
            .check(&arch, &rtl, &t)
            .expect("runs");
        assert!(run.timings.primary > Duration::ZERO);
        assert!(run.timings.gap_find > Duration::ZERO);
        assert_eq!(run.num_rtl_properties, 1);
    }

    #[test]
    fn enumerated_style_also_works() {
        let (t, arch, rtl) = fixture(false);
        let run = SpecMatcher::new(GapConfig::default())
            .with_tm_style(TmStyle::Enumerated)
            .check(&arch, &rtl, &t)
            .expect("runs");
        assert!(run.all_covered());
        assert!(run.tm.size() > 1);
    }
}
