//! `perfbench-probe` — one coverage check of the specmatcher benchmark per
//! process, printed as one JSON line on stdout.
//!
//! ```text
//! perfbench-probe --workload <name> [--trace] [--jobs N]
//! ```
//!
//! The probe builds the design fixture and its coverage model — the
//! set-up `specmatcher check` does before its first verdict, timed as
//! `setup_s` — then runs `SpecMatcher::check_with_model` with the `check`
//! defaults (`GapConfig::default()`, BMC `auto`). It reports the phase
//! times, the per-property verdicts, the ordered gap fingerprint, the
//! process's peak RSS and what the measured program was (resolved
//! backends and engine knobs). Before the set-up it times a fixed
//! reference kernel (`ref_s`), so the benchmark can tell the shared
//! host's speed swings from the program's.
//!
//! With `--trace` the same check runs with `dic_trace` enabled, and the
//! record adds the per-layer metrics read from the benchmark's own
//! `core.model_build` span around the set-up and from the spans,
//! counters and gauges the program already records.
//!
//! Every probe is a fresh process, so the process-wide translation cache
//! starts cold exactly as it does for a `specmatcher check`. The
//! probe refuses to measure while any `SPECMATCHER_*` override is set:
//! such a run would measure a different program.
//!
//! Exit codes: 0 with a record, 1 with an `error` record (the check
//! failed or panicked), 2 on a usage error or a refused environment.

use dic_core::{
    Backend, BmcMode, CoreError, CoverageModel, GapConfig, ReorderMode, SpecMatcher,
    SymbolicOptions,
};
use dic_designs::{amba, mal, Design};
use dic_trace::{Counter, Gauge, Stopwatch};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::process::ExitCode;

/// A benchmark workload: a packaged design under one backend request.
struct Workload {
    name: &'static str,
    design: fn() -> Design,
    backend: Backend,
}

const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "malex2-symbolic",
        design: mal::ex2,
        backend: Backend::Symbolic,
    },
    Workload {
        name: "malex2-explicit",
        design: mal::ex2,
        backend: Backend::Auto,
    },
    Workload {
        name: "mal26-symbolic",
        design: mal::mal26,
        backend: Backend::Auto,
    },
    Workload {
        name: "amba-explicit",
        design: amba::ahb29,
        backend: Backend::Auto,
    },
    Workload {
        name: "amba-symbolic",
        design: amba::ahb29,
        backend: Backend::Symbolic,
    },
];

fn main() -> ExitCode {
    if let Err(msg) = audit_env() {
        eprintln!("perfbench-probe: {msg}");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args {
        workload,
        traced,
        jobs,
    } = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("perfbench-probe: {msg}");
            return ExitCode::from(2);
        }
    };
    let ref_s = reference_s();
    let outcome = std::panic::catch_unwind(|| check_record(workload, jobs, traced));
    let error = match outcome {
        Ok(Ok(mut record)) => {
            record.num("peak_rss_mib", peak_rss_mib());
            record.num("ref_s", ref_s);
            println!("{}", record.finish());
            return ExitCode::SUCCESS;
        }
        Ok(Err(e)) => e.to_string(),
        Err(payload) => panic_message(payload.as_ref()),
    };
    let mut record = Record::new(workload);
    record.str("error", &error);
    println!("{}", record.finish());
    ExitCode::from(1)
}

/// The fail-closed environment gate: every override must parse
/// (`dic_core::validate_env`), and none may be set at all.
fn audit_env() -> Result<(), String> {
    dic_core::validate_env()?;
    let set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("SPECMATCHER_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to measure with {} set: the benchmark measures the defaults",
            set.join(", ")
        ))
    }
}

struct Args {
    workload: &'static Workload,
    /// Whether `dic_trace` records the check (`--trace`).
    traced: bool,
    /// Gap-phase worker threads (`--jobs`, default 2).
    jobs: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |key: &str| {
        args.iter()
            .position(|a| a == key)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let name = value("--workload").ok_or("--workload <name> is required")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let jobs = match value("--jobs") {
        None => 2,
        Some(s) => s
            .parse::<usize>()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("invalid --jobs {s:?}"))?,
    };
    Ok(Args {
        workload,
        traced: args.iter().any(|a| a == "--trace"),
        jobs,
    })
}

/// The symbolic-engine options `specmatcher check` runs with.
fn check_options() -> Result<SymbolicOptions, CoreError> {
    Ok(SymbolicOptions::from_env()
        .map_err(CoreError::Symbolic)?
        .with_reorder(ReorderMode::Auto))
}

/// Fixture plus model construction, as `SpecMatcher::check` does it.
fn setup(w: &Workload) -> Result<(Design, CoverageModel), CoreError> {
    let design = (w.design)();
    let mut model = CoverageModel::build_with_symbolic_options(
        &design.arch,
        &design.rtl,
        &design.table,
        w.backend,
        check_options()?,
    )?;
    model.set_bmc_mode(BmcMode::Auto);
    Ok((design, model))
}

fn check_record(w: &'static Workload, jobs: usize, traced: bool) -> Result<Record, CoreError> {
    if traced {
        dic_trace::set_enabled(true);
        dic_trace::reset();
    }
    let t0 = Stopwatch::start();
    let (design, model) = {
        let _span = dic_trace::span("core.model_build");
        setup(w)?
    };
    let setup_s = t0.elapsed().as_secs_f64();
    let matcher = SpecMatcher::new(GapConfig::default())
        .with_backend(w.backend)
        .with_jobs(jobs)
        .with_bmc(BmcMode::Auto);
    let run = matcher.check_with_model(&design.arch, &design.rtl, &design.table, &model)?;
    let report_s = t0.elapsed().as_secs_f64();

    let mut record = Record::new(w);
    record.num("setup_s", setup_s);
    record.num("primary_s", run.timings.primary.as_secs_f64());
    record.num("gap_s", run.timings.gap_find.as_secs_f64());
    record.num("report_s", report_s);
    record.opt_str("incomplete", run.incomplete.as_deref());
    let verdicts: Vec<(String, &str)> = run
        .properties
        .iter()
        .map(|p| {
            let verdict = match (&p.unknown, p.covered) {
                (Some(_), _) => "unknown",
                (None, true) => "covered",
                (None, false) => "gap",
            };
            (p.name.clone(), verdict)
        })
        .collect();
    record.verdicts(&verdicts);
    record.str_list(
        "fingerprint",
        &dic_bench::gap_fingerprint(&run, &design.table),
    );
    record.provenance(&model, w, jobs);
    if traced {
        record.metrics(&layer_metrics(report_s));
    }
    Ok(record)
}

/// The per-layer metrics of a traced check, from the recorded spans,
/// counters and gauges.
fn layer_metrics(report_s: f64) -> Vec<(&'static str, f64)> {
    let data = dic_trace::capture();
    let dur = |s: &dic_trace::SpanRecord| s.end_ns.saturating_sub(s.start_ns) as f64 * 1e-9;
    let named = |name: &'static str| data.spans.iter().filter(move |s| s.name == name);
    let secs = |name| named(name).fold(0.0, |total, s| total + dur(s));
    let c = |counter| dic_trace::counter_value(counter) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    // `find_gap_outcome` is its three stages; the rest of the gap phase
    // is `uncovered_terms_with_runs`.
    let find_gap_s = secs("gap.enumerate") + secs("gap.verify") + secs("gap.witnesses");
    // A worker's time not covered by its child spans is time spent
    // waiting on the shared symbolic model.
    let workers: HashSet<u64> = named("gap.worker").map(|s| s.id).collect();
    let worker_s = secs("gap.worker");
    let busy_s = data
        .spans
        .iter()
        .filter(|s| workers.contains(&s.parent))
        .fold(0.0, |total, s| total + dur(s));
    let verify_s = secs("gap.verify");
    let fixpoints = c(Counter::GapFixpointVerified);
    let candidates = c(Counter::GapCandidatesEnumerated);
    let gba_hits = c(Counter::GbaCacheHits);
    let gba_misses = c(Counter::GbaCacheMisses);
    let states = c(Counter::ExplicitStatesExpanded);

    vec![
        ("core.model_build_s", secs("core.model_build")),
        ("core.primary_s", secs("phase.primary")),
        ("core.tm_s", secs("phase.tm_build")),
        (
            "core.terms_s",
            (secs("phase.gap_find") - find_gap_s).max(0.0),
        ),
        ("core.find_gap_s", find_gap_s),
        ("gap.verify_s", verify_s),
        ("gap.worker_busy_s", busy_s),
        ("gap.worker_wait_s", (worker_s - busy_s).max(0.0)),
        ("gap.candidates_enumerated", candidates),
        ("gap.implication_settled", c(Counter::GapImplicationSettled)),
        ("gap.probe_refuted", c(Counter::GapProbeRefuted)),
        ("gap.fixpoint_verified", fixpoints),
        ("gap.budget_refunds", c(Counter::GapBudgetRefunds)),
        ("gap.fixpoint_share", ratio(fixpoints, candidates)),
        ("gap.s_per_fixpoint", ratio(verify_s, fixpoints)),
        ("symbolic.product_build_s", secs("symbolic.product_build")),
        ("symbolic.reachable_s", secs("symbolic.reachable")),
        ("symbolic.fair_hull_s", secs("symbolic.fair_hull")),
        (
            "symbolic.product_builds",
            named("symbolic.product_build").count() as f64,
        ),
        ("bdd.ite_ops", c(Counter::BddIteOps)),
        ("bdd.and_exists_ops", c(Counter::BddAndExistsOps)),
        ("bdd.rename_ops", c(Counter::BddRenameOps)),
        (
            "bdd.memo_hit_ratio",
            ratio(c(Counter::BddMemoHits), c(Counter::BddMemoLookups)),
        ),
        (
            "bdd.unique_hit_ratio",
            ratio(c(Counter::BddUniqueHits), c(Counter::BddUniqueLookups)),
        ),
        (
            "bdd.peak_nodes",
            dic_trace::gauge_value(Gauge::BddPeakNodes) as f64,
        ),
        ("bdd.partition_images", c(Counter::BddPartitionImages)),
        ("bdd.gc_collections", c(Counter::BddGcCollections)),
        ("bdd.reorders", c(Counter::BddReorders)),
        ("bdd.compactions", c(Counter::BddCompactions)),
        ("bmc.queries", c(Counter::BmcQueries)),
        (
            "bmc.refute_ratio",
            ratio(c(Counter::BmcRefuted), c(Counter::BmcQueries)),
        ),
        ("bmc.encode_s", secs("bmc.encode")),
        ("bmc.solve_s", secs("bmc.solve")),
        ("sat.conflicts", c(Counter::SatConflicts)),
        ("sat.decisions", c(Counter::SatDecisions)),
        ("automata.translate_s", secs("automata.translate")),
        ("gba.cache_misses", gba_misses),
        (
            "gba.cache_hit_ratio",
            ratio(gba_hits, gba_hits + gba_misses),
        ),
        ("explicit.states_expanded", states),
        ("explicit.states_per_s", ratio(states, report_s)),
        ("fsm.kripke_build_s", secs("fsm.kripke_build")),
    ]
}

/// The host's current speed: the median wall time of `REFERENCE_RUNS`
/// runs of a fixed kernel of hashing, allocation and scattered memory
/// access — the kind of work the engines do — that uses none of the
/// repository's code. It runs on a thread of its own, so the main thread's
/// heap is still cold when the set-up starts.
fn reference_s() -> f64 {
    let mut times: Vec<f64> = (0..REFERENCE_RUNS)
        .map(|_| std::thread::spawn(reference_kernel).join().unwrap_or(f64::NAN))
        .collect();
    times.sort_by(f64::total_cmp);
    times[REFERENCE_RUNS / 2]
}

const REFERENCE_RUNS: usize = 5;

/// One run of the reference kernel; returns its wall time.
fn reference_kernel() -> f64 {
    const KEYS: usize = 1 << 16;
    let t0 = Stopwatch::start();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut seen: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
    let mut rows: Vec<Vec<u32>> = Vec::with_capacity(KEYS);
    for i in 0..KEYS {
        let key = next() % (KEYS as u64 * 2);
        *seen.entry(key).or_insert(i as u32) += 1;
        rows.push((0..(key % 8) as u32).collect());
    }
    let mut sum: u64 = 0;
    for _ in 0..KEYS * 4 {
        let key = next() % (KEYS as u64 * 2);
        sum += u64::from(seen.get(&key).copied().unwrap_or(0));
        sum += rows[(key as usize) % KEYS].len() as u64;
    }
    let mut keys: Vec<u64> = seen.into_keys().collect();
    keys.sort_unstable();
    std::hint::black_box((sum, keys));
    t0.elapsed().as_secs_f64()
}

/// The process's peak resident set (`VmHWM`), in MiB; 0 where the
/// kernel does not report it.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into());
    format!("panic: {msg}")
}

/// A one-line JSON object, built field by field.
struct Record {
    out: String,
}

impl Record {
    fn new(w: &Workload) -> Self {
        let mut record = Record { out: String::new() };
        record.str("workload", w.name);
        record
    }

    fn key(&mut self, key: &str) {
        self.out.push(if self.out.is_empty() { '{' } else { ',' });
        self.out.push_str(&json_string(key));
        self.out.push(':');
    }

    fn num(&mut self, key: &str, value: f64) {
        self.key(key);
        // `{:?}` keeps every digit of the measured value.
        let _ = write!(self.out, "{value:?}");
    }

    fn str(&mut self, key: &str, value: &str) {
        self.key(key);
        self.out.push_str(&json_string(value));
    }

    fn opt_str(&mut self, key: &str, value: Option<&str>) {
        match value {
            Some(v) => self.str(key, v),
            None => {
                self.key(key);
                self.out.push_str("null");
            }
        }
    }

    fn str_list(&mut self, key: &str, values: &[String]) {
        self.key(key);
        let items: Vec<String> = values.iter().map(|v| json_string(v)).collect();
        let _ = write!(self.out, "[{}]", items.join(","));
    }

    fn verdicts(&mut self, verdicts: &[(String, &str)]) {
        self.key("verdicts");
        let items: Vec<String> = verdicts
            .iter()
            .map(|(name, v)| format!("{}:{}", json_string(name), json_string(v)))
            .collect();
        let _ = write!(self.out, "{{{}}}", items.join(","));
    }

    fn metrics(&mut self, metrics: &[(&str, f64)]) {
        self.key("metrics");
        let items: Vec<String> = metrics
            .iter()
            .map(|(name, v)| format!("{}:{v:?}", json_string(name)))
            .collect();
        let _ = write!(self.out, "{{{}}}", items.join(","));
    }

    /// What the measured program was: resolved backends and engine knobs.
    fn provenance(&mut self, model: &CoverageModel, w: &Workload, jobs: usize) {
        let options = check_options().unwrap_or_default();
        self.str("primary_backend", &model.primary_backend().to_string());
        self.str(
            "gap_backend",
            &model.gap_backend_choice(w.backend).to_string(),
        );
        self.str("bmc", &model.bmc_mode().to_string());
        self.num("jobs", jobs as f64);
        self.num(
            "nproc",
            std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
        );
        self.str(
            "reduction",
            if dic_automata::reduction_enabled() {
                "on"
            } else {
                "off"
            },
        );
        self.num("bdd_node_limit", options.node_limit as f64);
        self.str("partition", &options.partition.to_string());
        self.str("reorder", &options.reorder.to_string());
    }

    fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
