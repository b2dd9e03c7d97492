//! Observability is observational: enabling `dic_trace` (the CLI's
//! `--profile` / `--trace-out`) must not change a single reported bit.
//! Random gapped netlists are checked with tracing off and on — both
//! backends, one and four workers — and the verdicts plus the full
//! ordered gap fingerprints must be byte-identical. The traced runs are
//! then inspected: every pipeline phase span is present, the counters
//! attribute work to the right phase, and the JSONL stream replays into
//! the identical rendered tree.
//!
//! Trace state is process-global, so every test takes `exclusive()`
//! (this file is its own process; other integration suites never see
//! tracing enabled).

use proptest::prelude::*;
use specmatcher::core::{Backend, CoverageModel, GapConfig, PropertyReport, SpecMatcher};
use specmatcher::designs::mal;
use specmatcher::logic::SignalTable;
use specmatcher::trace;
use std::process::{Command, Stdio};
use std::sync::{Mutex, MutexGuard, OnceLock};

mod common;
use common::{random_problem, replay};

/// Serializes tests (trace state is process-global) and restores the
/// disabled default afterwards.
fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    trace::set_enabled(false);
    trace::reset();
    guard
}

/// The full ordered fingerprint of a property report: everything that
/// reaches the rendered report or the JSON document.
fn fingerprint(rep: &PropertyReport, t: &SignalTable) -> Vec<String> {
    let mut out = vec![format!(
        "{} covered={} witness={:?} terms={}",
        rep.formula.display(t),
        rep.covered,
        rep.witness,
        rep.uncovered_terms
            .iter()
            .map(|c| c.display(t).to_string())
            .collect::<Vec<_>>()
            .join(";"),
    )];
    out.extend(rep.gap_properties.iter().map(|g| {
        format!(
            "{} @ {} lit {} off {} term {} wit {:?}",
            g.formula.display(t),
            g.position,
            g.literal.display(t),
            g.offset,
            g.term.display(t),
            g.witness,
        )
    }));
    out
}

fn small_config() -> GapConfig {
    GapConfig {
        term_depth: 2,
        max_terms: 3,
        max_candidates: 24,
        max_gap_properties: 4,
        ..GapConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Tracing on vs. off: byte-identical verdicts and ordered gap sets
    /// on random problems, per backend and worker count.
    #[test]
    fn tracing_never_changes_a_reported_bit(seed in 1u64..100_000) {
        let _guard = exclusive();
        let (t, arch, rtl) = random_problem(seed);
        for backend in [Backend::Explicit, Backend::Symbolic] {
            for jobs in [1usize, 4] {
                let matcher = SpecMatcher::new(small_config())
                    .with_backend(backend)
                    .with_jobs(jobs);

                trace::set_enabled(false);
                let off = matcher.check(&arch, &rtl, &t).expect("untraced run");
                prop_assert!(off.counters.is_none(), "untraced runs carry no counters");

                trace::set_enabled(true);
                trace::reset();
                let on = matcher.check(&arch, &rtl, &t).expect("traced run");
                trace::set_enabled(false);
                prop_assert!(on.counters.is_some(), "traced runs carry phase counters");

                prop_assert_eq!(
                    off.all_covered(),
                    on.all_covered(),
                    "verdict changed under tracing (seed {}, {} backend, {} jobs)",
                    seed, backend, jobs
                );
                for (o, n) in off.properties.iter().zip(&on.properties) {
                    prop_assert_eq!(
                        fingerprint(o, &t),
                        fingerprint(n, &t),
                        "report changed under tracing (seed {}, {} backend, {} jobs)",
                        seed, backend, jobs
                    );
                }

                // The traced run's witnesses still replay on the modules.
                let model = CoverageModel::build(&arch, &rtl, &t).expect("builds");
                for rep in &on.properties {
                    for g in &rep.gap_properties {
                        replay(&model, &t, &g.witness);
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The gap scan's dependency waits on random problems: at four
    /// workers each engine reports what one worker reports, and runs the
    /// same closing fixpoints and implication settlements — with a budget
    /// small enough to fill (the budget wait) and with the default one.
    #[test]
    fn four_workers_run_the_sequential_scan(seed in 1u64..100_000) {
        let _guard = exclusive();
        let (t, arch, rtl) = random_problem(seed);
        for backend in [Backend::Explicit, Backend::Symbolic] {
            for budget in [2, GapConfig::default().max_gap_properties] {
                let config = GapConfig {
                    max_gap_properties: budget,
                    ..small_config()
                };
                let run = |jobs: usize| {
                    trace::set_enabled(true);
                    trace::reset();
                    let report = SpecMatcher::new(config.clone())
                        .with_backend(backend)
                        .with_jobs(jobs)
                        .check(&arch, &rtl, &t)
                        .expect("runs");
                    trace::set_enabled(false);
                    let reports: Vec<Vec<String>> =
                        report.properties.iter().map(|p| fingerprint(p, &t)).collect();
                    (reports, scan_counts())
                };
                prop_assert_eq!(
                    run(1),
                    run(4),
                    "seed {}, {} backend, budget {}",
                    seed, backend, budget
                );
            }
        }
    }
}

/// Names of all recorded spans.
fn span_names(data: &trace::TraceData) -> Vec<String> {
    data.spans.iter().map(|s| s.name.clone()).collect()
}

#[test]
fn every_pipeline_phase_span_is_present() {
    let _guard = exclusive();
    trace::set_enabled(true);
    trace::reset();
    let design = mal::ex2();
    let run = design
        .check(&SpecMatcher::new(small_config()))
        .expect("runs");
    trace::set_enabled(false);
    assert!(!run.all_covered(), "mal-ex2 is the gapped fixture");

    let data = trace::capture();
    let names = span_names(&data);
    for phase in [
        "phase.tm_build",
        "phase.primary",
        "phase.gap_find",
        "gap.enumerate",
        "gap.verify",
        "fsm.kripke_build",
    ] {
        assert!(
            names.iter().any(|n| n == phase),
            "span {phase} missing from {names:?}"
        );
    }

    // Phase spans nest under the gap phase, not beside it.
    let gap_find = data
        .spans
        .iter()
        .find(|s| s.name == "phase.gap_find")
        .expect("present");
    let verify = data
        .spans
        .iter()
        .find(|s| s.name == "gap.verify")
        .expect("present");
    assert_eq!(
        verify.parent, gap_find.id,
        "gap.verify nests in phase.gap_find"
    );

    // Counter attribution: the gap phase did the candidate work.
    let counters = run.counters.expect("traced");
    assert!(
        counters
            .gap_find
            .get(trace::Counter::GapCandidatesEnumerated)
            > 0
    );
    assert!(counters.gap_find.get(trace::Counter::GapFixpointVerified) > 0);
    assert_eq!(
        counters
            .tm_build
            .get(trace::Counter::GapCandidatesEnumerated),
        0
    );
    assert!(
        counters.primary.get(trace::Counter::ExplicitStatesExpanded) > 0
            || counters.primary.get(trace::Counter::BddIteOps) > 0,
        "the primary phase ran an engine"
    );
}

/// The translation spans of a `mal-ex2` run in a fresh process. The
/// translation memo is process-wide, so an in-process run after other
/// tests may find every automaton translated already; a new
/// `specmatcher check` process starts with an empty memo. Each miss is
/// one `automata.translate` span with its tableau and its reduction
/// inside, and the spans count `gba.cache_misses`. No translation runs
/// inside an `explicit.search`, whose span times the search alone.
#[test]
fn translation_misses_have_their_own_spans() {
    let path = std::env::temp_dir().join(format!("trace-profile-{}.jsonl", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_specmatcher"))
        .args(["check", "--design", "mal-ex2", "--jobs", "1", "--trace-out"])
        .arg(&path)
        .stdout(Stdio::null())
        .status()
        .expect("the CLI runs");
    assert_eq!(status.code(), Some(1), "mal-ex2 is the gapped fixture");
    let text = std::fs::read_to_string(&path).expect("trace written");
    std::fs::remove_file(&path).ok();
    let data = trace::parse_jsonl(&text).expect("the CLI's stream parses");

    let translate_ids: Vec<u64> = data
        .spans
        .iter()
        .filter(|s| s.name == "automata.translate")
        .map(|s| s.id)
        .collect();
    let misses = data
        .counters
        .iter()
        .find(|(name, _)| name == "gba.cache_misses")
        .map_or(0, |&(_, v)| v);
    assert!(misses > 0, "a fresh process translates");
    assert_eq!(
        translate_ids.len() as u64,
        misses,
        "one automata.translate per miss"
    );
    let by_id: std::collections::HashMap<u64, &trace::SpanRecord> =
        data.spans.iter().map(|s| (s.id, s)).collect();
    for &id in &translate_ids {
        let mut up = by_id[&id].parent;
        while let Some(s) = by_id.get(&up) {
            assert_ne!(
                s.name, "explicit.search",
                "automata.translate nests in explicit.search"
            );
            up = s.parent;
        }
    }
    for child in ["automata.tableau", "automata.reduce"] {
        let spans: Vec<_> = data.spans.iter().filter(|s| s.name == child).collect();
        assert_eq!(
            spans.len(),
            translate_ids.len(),
            "one {child} per translation miss"
        );
        for s in spans {
            assert!(
                translate_ids.contains(&s.parent),
                "{child} must nest under automata.translate"
            );
        }
    }
}

#[test]
fn parallel_workers_attach_to_the_verify_span() {
    let _guard = exclusive();
    trace::set_enabled(true);
    trace::reset();
    let design = mal::ex2();
    design
        .check(&SpecMatcher::new(small_config()).with_jobs(4))
        .expect("runs");
    trace::set_enabled(false);

    let data = trace::capture();
    let workers: Vec<_> = data
        .spans
        .iter()
        .filter(|s| s.name == "gap.worker")
        .collect();
    assert_eq!(workers.len(), 4, "one span per worker");
    let verify_ids: Vec<u64> = data
        .spans
        .iter()
        .filter(|s| s.name == "gap.verify")
        .map(|s| s.id)
        .collect();
    for w in &workers {
        assert!(
            verify_ids.contains(&w.parent),
            "worker span must parent under gap.verify"
        );
    }
    let claimed: u64 = workers
        .iter()
        .flat_map(|w| &w.meta)
        .filter(|(k, _)| k == "claimed")
        .map(|(_, v)| *v)
        .sum();
    assert!(claimed > 0, "workers recorded their claimed candidates");
}

/// The sum of one meta field over the gap workers of the last traced run.
fn worker_meta(key: &str) -> u64 {
    trace::capture()
        .spans
        .iter()
        .filter(|s| s.name == "gap.worker")
        .flat_map(|s| &s.meta)
        .filter(|(k, _)| k == key)
        .map(|(_, v)| *v)
        .sum()
}

/// The closing fixpoints the gap workers of the last traced run ran, and
/// the candidates it settled by implication.
fn scan_counts() -> (u64, u64) {
    (
        worker_meta("closing"),
        trace::counter_value(trace::Counter::GapImplicationSettled),
    )
}

/// Runs one traced `mal-ex2` check with the default gap configuration;
/// its trace stays in the process-global state.
fn trace_mal_ex2(backend: Backend, jobs: usize) {
    trace::set_enabled(true);
    trace::reset();
    mal::ex2()
        .check(
            &SpecMatcher::new(GapConfig::default())
                .with_backend(backend)
                .with_jobs(jobs),
        )
        .expect("runs");
    trace::set_enabled(false);
}

/// [`scan_counts`] of one traced `mal-ex2` check.
fn closing_fixpoints(backend: Backend, jobs: usize) -> (u64, u64) {
    trace_mal_ex2(backend, jobs);
    scan_counts()
}

/// Each gap tier counts the candidates it settles, pinned on `mal-ex2`
/// at `--jobs 1`: the 90 claimed candidates split into those rejected by
/// a pooled run or a directed probe (51 explicit, 55 symbolic), 6 settled
/// by implication, those refuted by the bounded SAT tier (4; symbolic
/// only, the explicit engine has no SAT tier) and the rest verified by a
/// closure fixpoint, 25 of which close. On the symbolic engine, which
/// runs the SAT tier returns decides how many later candidates the shared
/// pool rejects before they reach it; the two together stay at 59.
#[test]
fn gap_tier_counters_count_what_each_tier_settles() {
    let _guard = exclusive();
    for (backend, probe_refuted, bmc_refuted, fixpoints) in [
        (Backend::Explicit, 51, 0, 33),
        (Backend::Symbolic, 55, 4, 25),
    ] {
        trace_mal_ex2(backend, 1);
        let tiers = [
            trace::Counter::GapProbeRefuted,
            trace::Counter::GapImplicationSettled,
            trace::Counter::BmcRefuted,
            trace::Counter::GapFixpointVerified,
        ]
        .map(trace::counter_value);
        assert_eq!(
            (worker_meta("claimed"), tiers),
            (90, [probe_refuted, 6, bmc_refuted, fixpoints]),
            "{backend:?}: (claimed, [probe_refuted, implication_settled, bmc.refuted, \
             fixpoint_verified])"
        );
        if backend == Backend::Symbolic {
            assert_eq!(tiers[0] + tiers[2], 59, "pool and SAT rejections together");
        }
    }
}

/// The explicit kernel's visit order, pinned: at `--jobs 1`, mal-ex2's
/// explicit searches number exactly these many states on each engine
/// (on the symbolic engine, its scenario and implication searches). A
/// search that visited roots or successors in another order, or reached
/// other nodes, would move them.
#[test]
fn explicit_visit_counts_are_pinned_at_one_job() {
    let _guard = exclusive();
    for (backend, states) in [(Backend::Explicit, 140_351), (Backend::Symbolic, 2_302)] {
        trace_mal_ex2(backend, 1);
        assert_eq!(
            trace::counter_value(trace::Counter::ExplicitStatesExpanded),
            states,
            "{backend:?}: explicit.states_expanded"
        );
    }
}

/// Each candidate's screen signature is computed at most once, inside
/// its gap worker: on `mal-ex2` every `gap.screen` span is a child of
/// `gap.worker`, on both engines and at one and two workers, and there
/// are no more of them than candidates.
#[test]
fn screen_signatures_are_computed_under_the_gap_worker() {
    let _guard = exclusive();
    for backend in [Backend::Explicit, Backend::Symbolic] {
        for jobs in [1, 2] {
            trace_mal_ex2(backend, jobs);
            let data = trace::capture();
            let by_id: std::collections::HashMap<u64, &trace::SpanRecord> =
                data.spans.iter().map(|s| (s.id, s)).collect();
            let name_of = |id: u64| by_id.get(&id).map_or("", |s| s.name.as_str());
            let screens: Vec<_> = data
                .spans
                .iter()
                .filter(|s| s.name == "gap.screen")
                .collect();
            assert!(
                !screens.is_empty(),
                "{backend:?} --jobs {jobs}: no gap.screen span"
            );
            for screen in &screens {
                assert_eq!(
                    name_of(screen.parent),
                    "gap.worker",
                    "{backend:?} --jobs {jobs}: gap.screen outside gap.worker"
                );
            }
            let candidates = trace::counter_value(trace::Counter::GapCandidatesEnumerated);
            assert!(
                screens.len() as u64 <= candidates,
                "{backend:?} --jobs {jobs}: {} signatures for {candidates} candidates",
                screens.len()
            );
        }
    }
}

/// The directed probe and the bad-run pool screens have their own spans,
/// inside the gap worker: on `mal-ex2` every `gap.probe` and
/// `gap.pool_screen` span is a child of `gap.worker`, on both engines and
/// at one and two workers.
#[test]
fn probes_and_pool_screens_nest_under_the_gap_worker() {
    let _guard = exclusive();
    for backend in [Backend::Explicit, Backend::Symbolic] {
        for jobs in [1, 2] {
            trace_mal_ex2(backend, jobs);
            let data = trace::capture();
            let by_id: std::collections::HashMap<u64, &trace::SpanRecord> =
                data.spans.iter().map(|s| (s.id, s)).collect();
            let name_of = |id: u64| by_id.get(&id).map_or("", |s| s.name.as_str());
            for name in ["gap.probe", "gap.pool_screen"] {
                let spans: Vec<_> = data.spans.iter().filter(|s| s.name == name).collect();
                assert!(
                    !spans.is_empty(),
                    "{backend:?} --jobs {jobs}: no {name} span"
                );
                for span in spans {
                    assert_eq!(
                        name_of(span.parent),
                        "gap.worker",
                        "{backend:?} --jobs {jobs}: {name} outside gap.worker"
                    );
                }
            }
        }
    }
}

/// Implication checks have their own span: on `mal-ex2` at `--jobs 1`
/// they run under the gap worker on both engines, and on the product of
/// two automata, never through an explicit model search.
#[test]
fn implication_checks_have_their_own_span() {
    let _guard = exclusive();
    for backend in [Backend::Explicit, Backend::Symbolic] {
        trace_mal_ex2(backend, 1);
        let data = trace::capture();
        let by_id: std::collections::HashMap<u64, &trace::SpanRecord> =
            data.spans.iter().map(|s| (s.id, s)).collect();
        let name_of = |id: u64| by_id.get(&id).map_or("", |s| s.name.as_str());
        assert!(
            data.spans
                .iter()
                .any(|s| s.name == "automata.implies" && name_of(s.parent) == "gap.worker"),
            "{backend:?}: no automata.implies under gap.worker"
        );
        for search in data.spans.iter().filter(|s| s.name == "explicit.search") {
            let mut up = search.parent;
            while up != 0 {
                assert_ne!(
                    name_of(up),
                    "automata.implies",
                    "{backend:?}: explicit.search nests in automata.implies"
                );
                up = by_id.get(&up).map_or(0, |s| s.parent);
            }
        }
    }
}

/// Before a closure fixpoint, a worker waits for the earlier candidates
/// its candidate's sequential decision depends on, so on either engine no
/// worker count or schedule lets a redundant closer through to a
/// fixpoint: the closing fixpoints and the candidates settled by
/// implication are the one-worker scan's.
#[test]
fn workers_run_only_the_sequential_closing_fixpoints() {
    let _guard = exclusive();
    for backend in [Backend::Explicit, Backend::Symbolic] {
        let counts: Vec<(u64, u64)> = [1, 2, 4, 2, 4]
            .into_iter()
            .map(|jobs| closing_fixpoints(backend, jobs))
            .collect();
        assert!(counts[0].0 > 0, "mal-ex2 has closing candidates");
        assert!(
            counts.iter().all(|&c| c == counts[0]),
            "{backend:?}: (closing fixpoints, implication-settled) varied with \
             the worker count (--jobs 1, 2, 4, 2, 4): {counts:?}"
        );
    }
}

#[test]
fn symbolic_runs_count_bdd_work() {
    let _guard = exclusive();
    trace::set_enabled(true);
    trace::reset();
    let design = mal::ex2();
    design
        .check(&SpecMatcher::new(small_config()).with_backend(Backend::Symbolic))
        .expect("runs");
    trace::set_enabled(false);

    assert!(trace::counter_value(trace::Counter::BddIteOps) > 0);
    assert!(trace::counter_value(trace::Counter::BddUniqueLookups) > 0);
    assert!(trace::gauge_value(trace::Gauge::BddPeakNodes) > 0);
    let names = span_names(&trace::capture());
    for span in [
        "symbolic.product_build",
        "symbolic.reachable",
        "symbolic.fair_hull",
    ] {
        assert!(names.iter().any(|n| n == span), "span {span} missing");
    }
}

/// Every explicit emptiness search has its own span: present on explicit
/// runs, under a `gap.worker` span at every worker count, and never around an automaton translation, which
/// happens before the search starts. The explicit size gauges are set on
/// traced runs only, like every other gauge.
#[test]
fn explicit_searches_have_their_own_span() {
    let _guard = exclusive();
    for jobs in [1, 2] {
        trace::set_enabled(true);
        trace::reset();
        mal::ex2()
            .check(
                &SpecMatcher::new(small_config())
                    .with_backend(Backend::Explicit)
                    .with_jobs(jobs),
            )
            .expect("runs");
        trace::set_enabled(false);

        let data = trace::capture();
        let by_id: std::collections::HashMap<u64, &trace::SpanRecord> =
            data.spans.iter().map(|s| (s.id, s)).collect();
        let name_of = |id: u64| by_id.get(&id).map_or("", |s| s.name.as_str());
        let searches: Vec<_> = data
            .spans
            .iter()
            .filter(|s| s.name == "explicit.search")
            .collect();
        assert!(
            !searches.is_empty(),
            "no explicit.search span at --jobs {jobs}"
        );
        assert!(
            searches.iter().any(|s| name_of(s.parent) == "gap.worker"),
            "no explicit.search under gap.worker at --jobs {jobs}"
        );
        for t in data.spans.iter().filter(|s| s.name == "automata.translate") {
            let mut up = t.parent;
            while up != 0 {
                assert_ne!(
                    name_of(up),
                    "explicit.search",
                    "automata.translate nests in explicit.search"
                );
                up = by_id.get(&up).map_or(0, |s| s.parent);
            }
        }
        assert!(trace::gauge_value(trace::Gauge::ExplicitKripkeStates) > 0);
        assert!(trace::gauge_value(trace::Gauge::ExplicitProductStates) > 0);
    }

    trace::reset();
    mal::ex2()
        .check(&SpecMatcher::new(small_config()).with_backend(Backend::Explicit))
        .expect("runs");
    assert_eq!(trace::gauge_value(trace::Gauge::ExplicitKripkeStates), 0);
    assert_eq!(trace::gauge_value(trace::Gauge::ExplicitProductStates), 0);
}

#[test]
fn jsonl_stream_replays_into_the_live_tree() {
    let _guard = exclusive();
    trace::set_enabled(true);
    trace::reset();
    let design = mal::ex2();
    design
        .check(&SpecMatcher::new(small_config()).with_jobs(2))
        .expect("runs");
    trace::set_enabled(false);

    let live = trace::render_profile();
    let replayed =
        trace::parse_jsonl(&trace::to_jsonl(&trace::capture())).expect("own stream parses");
    assert_eq!(
        live,
        trace::render_tree(&replayed),
        "JSONL replay must render the identical profile tree"
    );
    assert!(live.starts_with("profile:\n"));
    assert!(live.contains("phase.gap_find"));
}
