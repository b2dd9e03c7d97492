//! The `specmatcher` command-line tool.
//!
//! ```text
//! specmatcher check --design <name> [--backend B] [--jobs N] [--bmc M] [--json] [--profile] [--trace-out F]
//! specmatcher check --snl <file> --spec <file> [--backend B] [--jobs N] [--bmc M]
//! specmatcher table1 [--backend B] [--jobs N] [--bmc M] [--quick | --json] [--profile] [--trace-out F]
//! specmatcher fsm --design <name>              dump concrete-module FSMs (DOT)
//! specmatcher list                             list packaged designs
//! ```
//!
//! `--backend` selects the model-checking engine for the primary coverage
//! question: `explicit` (state enumeration, refuses large models),
//! `symbolic` (BDD reachability + fair cycles) or `auto` (the default:
//! explicit for small state spaces and narrow products, symbolic past
//! either threshold). `--jobs` sets the worker-thread count for
//! Algorithm 1's candidate closure verification
//! (default: `SPECMATCHER_JOBS`, else the machine's available
//! parallelism); the reported property set is identical for every value.
//! `--bmc` controls the bounded SAT refutation tier fronting the
//! gap-phase closure fixpoints (`auto`, the default, or `off`; unroll
//! depth 16) — the reported gap properties
//! are byte-identical either way, only the time to reach them changes.
//! `--profile` appends the `dic_trace` span/counter tree to the report
//! and `--trace-out <path>` writes the run as a replayable JSONL event
//! stream; with both absent tracing stays disabled and output is
//! byte-identical to earlier releases. `--timeout <secs>` (or
//! `SPECMATCHER_TIMEOUT`) arms a cooperative deadline checked between
//! engine steps: on expiry the run degrades to a *partial report* —
//! settled verdicts are kept, unresolved candidates are listed as
//! `unknown`, and the report carries an `incomplete:` line. Each flag may
//! be given once; an unknown or repeated flag is a usage error.
//!
//! Exit codes: `0` — every architectural property is covered; `1` — a
//! coverage gap was found and reported (including a partial run with at
//! least one settled gap verdict); `2` — usage or specification
//! error (bad flags, unparsable input, Assumption 1 violations);
//! `3` — a model-checking engine refused the model for resource reasons
//! (explicit state-space limit, BDD node budget), or a partial run in
//! which no gap verdict was settled before the deadline.
//!
//! Spec files contain one property per line:
//!
//! ```text
//! # architectural intent
//! arch A  = G(!wait & r1 & X(r1 U r2) -> X(!d2 U d1))
//! # RTL properties
//! rtl R1  = G(r1 -> X n1)
//! rtl FAIR = G F hit
//! ```

use dic_core::{ArchSpec, Backend, BmcMode, CoreError, GapConfig, RtlSpec, SpecMatcher, TmStyle};
use dic_designs::{mal, scaling, table1_designs, Design};
use dic_fsm::extract_fsm;
use dic_logic::SignalTable;
use dic_ltl::Ltl;
use dic_netlist::parse_snl;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Duration;

/// `print!` to standard output through [`write_stdout`]: evaluates to
/// `Result<(), CliError>` instead of panicking on a failed write.
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` counterpart of [`out!`].
macro_rules! outln {
    ($($arg:tt)*) => {
        out!("{}\n", format_args!($($arg)*))
    };
}

/// The one stdout writer every report line goes through. A reader that
/// went away (`| head`) drops the rest of the output, and the run ends
/// with the exit code it would have returned anyway (Rust ignores
/// SIGPIPE, so every later write fails the same quiet way); any other
/// write failure (a full disk, `> /dev/full`) is an exit-2 error, like
/// an unwritable `--trace-out` path.
fn write_stdout(args: std::fmt::Arguments) -> Result<(), CliError> {
    let mut stdout = std::io::stdout().lock();
    match stdout.write_fmt(args).and_then(|()| stdout.flush()) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            Err(CliError::Usage(format!("cannot write the report: {e}")))
        }
        _ => Ok(()),
    }
}

/// `eprintln!` through [`write_stderr`].
macro_rules! errln {
    ($($arg:tt)*) => {
        write_stderr(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// The one stderr writer every diagnostic goes through. It drops write
/// errors: stderr only mirrors what the exit code already says, so an
/// unwritable stderr (`2>/dev/full`, a closed pipe) ends the run with its
/// own exit code instead of a panic.
fn write_stderr(args: std::fmt::Arguments) {
    let mut stderr = std::io::stderr().lock();
    let _ = stderr.write_fmt(args).and_then(|()| stderr.flush());
}

/// A CLI failure, carrying its exit-code class: usage/spec errors exit 2,
/// engine resource refusals exit 3 (so scripts can retry with a bigger
/// budget or another backend instead of fixing their invocation).
enum CliError {
    Usage(String),
    Resource(String),
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Usage(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> Self {
        CliError::Usage(msg.to_owned())
    }
}

/// Classifies a pipeline error: state-space/node-budget refusals are
/// resource errors, everything else is the caller's problem.
/// [`core_err`] with a design-name prefix for batch runs.
fn ctx_err(name: &str, e: CoreError) -> CliError {
    match core_err(e) {
        CliError::Usage(m) => CliError::Usage(format!("{name}: {m}")),
        CliError::Resource(m) => CliError::Resource(format!("{name}: {m}")),
    }
}

fn core_err(e: CoreError) -> CliError {
    // Degradable errors (state-space and node-budget refusals, deadline
    // trips) end in a partial report; one that still escapes the
    // pipeline (only an enumerated `T_M` past the explicit limit can, and
    // the CLI builds the relational one) is a resource error.
    if e.is_degradable() {
        CliError::Resource(e.to_string())
    } else {
        CliError::Usage(e.to_string())
    }
}

fn main() -> ExitCode {
    // Fail-closed env audit before anything reads an override through a
    // defaulting path: a typoed SPECMATCHER_* setting is a usage error
    // (exit 2), never a silently defaulted run.
    if let Err(msg) = dic_core::validate_env() {
        errln!("specmatcher: {msg}");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(CliError::Usage(msg)) => {
            errln!("specmatcher: {msg}");
            ExitCode::from(2)
        }
        Err(CliError::Resource(msg)) => {
            errln!("specmatcher: {msg}");
            ExitCode::from(3)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, CliError> {
    let Some(cmd) = args.first() else {
        print_usage();
        return Ok(ExitCode::from(2));
    };
    match cmd.as_str() {
        "check" => cmd_check(&args[1..]),
        "table1" => cmd_table1(&args[1..]),
        "fsm" => cmd_fsm(&args[1..]),
        "list" => {
            for d in table1_designs() {
                outln!("{}", d.name)?;
            }
            outln!("{}", mal::ex1().name)?;
            outln!(
                "mal-<p>          (MAL family, p RTL properties: {})",
                mal_family()
            )?;
            outln!("chain-<n>        (scaling: n-stage latch chain, covered)")?;
            outln!("chain-<n>-gap    (scaling: off-by-one intent, gapped)")?;
            Ok(ExitCode::SUCCESS)
        }
        "--help" | "-h" | "help" => {
            print_usage();
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command {other:?}; try --help").into()),
    }
}

fn print_usage() {
    errln!(
        "usage:\n  specmatcher check --design <name> [--backend explicit|symbolic|auto] [--jobs N] [--bmc off|auto] [--timeout S] [--json] [--profile] [--trace-out <path>]\n  specmatcher check --snl <file> --spec <file> [--backend ...] [--jobs N] [--bmc ...] [--timeout S] [--json] [--profile] [--trace-out <path>]\n  specmatcher table1 [--backend ...] [--jobs N] [--bmc ...] [--timeout S] [--quick | --json] [--profile] [--trace-out <path>]\n  specmatcher fsm --design <name>\n  specmatcher list\n\nbackends: explicit = state enumeration (paper-faithful, limited size),\n          symbolic = BDD reachability + fair cycles (scales further),\n          auto     = pick by state-space size and product width (default)\njobs:     worker threads for gap-phase candidate verification\n          (default: SPECMATCHER_JOBS, else available parallelism;\n          the reported property set is identical for every value)\nbmc:      auto = bounded SAT refutation ahead of the closure fixpoints\n          (unroll depth 16; default mode),\n          off  = fixpoint engines only; gap reports are byte-identical\ntimeout:  cooperative run deadline in seconds (default:\n          SPECMATCHER_TIMEOUT, else none); on expiry the run degrades\n          to a partial report — settled verdicts are kept, unresolved\n          candidates are listed as unknown, and the report carries an\n          'incomplete:' line\nprofile:  append the structured span/counter tree to the report\n          (stderr under --json); --trace-out writes the same run as a\n          JSONL event stream (schema specmatcher-trace/1)\n\neach option may be given once; an unknown or repeated option is a\nusage error (exit 2)\n\nexit codes: 0 = covered, 1 = coverage gap reported (complete, or\n                partial with at least one settled gap verdict),\n            2 = usage/specification error,\n            3 = engine resource refusal (state-space or BDD node\n                budget) or a partial run with no settled gap"
    );
}

/// Every flag a subcommand can take, with the values it takes for a flag
/// that takes one (the "needs a value" hint) or `None` for a switch.
const FLAGS: &[(&str, Option<&str>)] = &[
    ("--design", Some("a design name")),
    ("--snl", Some("a netlist file")),
    ("--spec", Some("a spec file")),
    ("--backend", Some("explicit, symbolic or auto")),
    ("--jobs", Some("a positive worker count")),
    ("--bmc", Some("off or auto")),
    ("--timeout", Some("a positive whole number of seconds")),
    ("--trace-out", Some("a JSONL output path")),
    ("--json", None),
    ("--profile", None),
    ("--quick", None),
];

/// The engine and observability flags `check` and `table1` share.
const RUN_FLAGS: [&str; 7] = [
    "--backend",
    "--jobs",
    "--bmc",
    "--timeout",
    "--trace-out",
    "--json",
    "--profile",
];

/// A subcommand's flags, each given at most once: `(flag, value)`, with
/// `None` for a switch.
struct Flags<'a>(Vec<(&'static str, Option<&'a str>)>);

impl<'a> Flags<'a> {
    /// Parses `args` against the flags `cmd` accepts. An unknown or
    /// repeated flag, a stray argument and a value-taking flag at the end
    /// are usage errors that name the flag.
    fn parse(cmd: &str, args: &'a [String], accepted: &[&str]) -> Result<Self, String> {
        let mut given: Vec<(&'static str, Option<&'a str>)> = Vec::new();
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            let Some(&(flag, hint)) = FLAGS.iter().find(|(f, _)| f == arg && accepted.contains(f))
            else {
                return Err(format!("{cmd} does not take {arg:?}; try --help"));
            };
            if given.iter().any(|(f, _)| *f == flag) {
                return Err(format!("{flag} given twice"));
            }
            let value = match hint {
                Some(hint) => Some(
                    rest.next()
                        .ok_or_else(|| format!("{flag} needs a value: {hint}"))?
                        .as_str(),
                ),
                None => None,
            };
            given.push((flag, value));
        }
        Ok(Flags(given))
    }

    /// The value of a value-taking flag, if given.
    fn value(&self, flag: &str) -> Option<&'a str> {
        self.0
            .iter()
            .find(|(f, _)| *f == flag)
            .and_then(|&(_, v)| v)
    }

    /// Whether a switch was given.
    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|(f, _)| *f == flag)
    }

    /// A mode flag (`--backend`, `--bmc`) parsed by `parse`, or the mode's
    /// default when absent.
    fn mode<T: Default>(
        &self,
        flag: &str,
        what: &str,
        parse: fn(&str) -> Option<T>,
    ) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(T::default()),
            Some(s) => parse(s).ok_or_else(|| {
                let choices = FLAGS.iter().find(|(f, _)| *f == flag).and_then(|(_, h)| *h);
                format!("unknown {what} {s:?}; use {}", choices.unwrap_or_default())
            }),
        }
    }

    /// The matcher the engine flags describe: `--backend`, `--jobs`
    /// (absent → `0`, the default resolution; a positive integer wins,
    /// anything else is a usage error) and `--bmc`.
    fn matcher(&self) -> Result<SpecMatcher, String> {
        let backend = self.mode("--backend", "backend", Backend::parse)?;
        let matcher = SpecMatcher::new(GapConfig::default()).with_backend(backend);
        let jobs = match self.value("--jobs") {
            None => 0,
            Some(s) => match s.parse::<usize>() {
                Ok(n) if n > 0 => n,
                _ => {
                    return Err(format!(
                        "invalid --jobs {s:?}: expected a positive worker count"
                    ))
                }
            },
        };
        Ok(matcher
            .with_jobs(jobs)
            .with_bmc(self.mode("--bmc", "bmc mode", BmcMode::parse)?))
    }

    /// `--profile` / `--trace-out <path>`. Either flag turns `dic_trace`
    /// on for the run; with both absent the engines never pay more than
    /// the disabled-gate branch, so reports and timings are unchanged.
    fn trace(&self) -> (bool, Option<String>) {
        let profile = self.has("--profile");
        let trace_out = self.value("--trace-out").map(str::to_owned);
        if profile || trace_out.is_some() {
            dic_trace::set_enabled(true);
            dic_trace::reset();
        }
        (profile, trace_out)
    }

    /// Arms the run-wide governors before any engine work: the
    /// cooperative deadline (`--timeout`, a positive whole number of
    /// seconds, else `SPECMATCHER_TIMEOUT`, else none) and the
    /// deterministic fault plan (`SPECMATCHER_FAULT`; off in production).
    fn arm_governance(&self) -> Result<(), CliError> {
        let budget = match self.value("--timeout") {
            None => dic_fault::timeout_from_env()?,
            Some(s) => match s.parse::<u64>() {
                Ok(n) if n > 0 => Some(Duration::from_secs(n)),
                _ => {
                    return Err(format!(
                        "invalid --timeout {s:?}: expected a positive whole number of seconds"
                    )
                    .into())
                }
            },
        };
        if let Some(budget) = budget {
            dic_fault::arm_deadline(budget);
        }
        dic_fault::arm_fault_from_env().map_err(CliError::Usage)?;
        Ok(())
    }
}

/// Emits the enabled trace sinks after a traced run: the rendered
/// `profile:` tree (to stderr when stdout must stay machine-readable)
/// and the JSONL event stream.
fn emit_trace_sinks(
    profile: bool,
    trace_out: Option<&str>,
    profile_to_stderr: bool,
) -> Result<(), CliError> {
    if profile {
        let tree = dic_trace::render_profile();
        if profile_to_stderr {
            write_stderr(format_args!("{tree}"));
        } else {
            out!("{tree}")?;
        }
    }
    if let Some(path) = trace_out {
        dic_trace::write_jsonl(std::path::Path::new(path))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

/// Records the structured abort marker so a `--trace-out` stream is
/// terminated by a final `run.aborted` event on deadline/resource/panic
/// paths (no-op with tracing disabled).
fn trace_abort(panicked: bool) {
    dic_trace::event(
        "run.aborted",
        &[
            ("deadline", dic_fault::deadline_expired() as u64),
            ("panic", panicked as u64),
        ],
    );
}

fn find_design(name: &str) -> Result<Design, String> {
    // The chain-<n>[-gap] scaling family is generated on demand.
    if let Some(rest) = name.strip_prefix("chain-") {
        let (n_str, gapped) = match rest.strip_suffix("-gap") {
            Some(n_str) => (n_str, true),
            None => (rest, false),
        };
        if let Ok(n) = n_str.parse::<usize>() {
            if (1..=62).contains(&n) {
                return Ok(scaling::chain_design(n, gapped));
            }
        }
        return Err(format!("unknown design {name:?}; chain stages must be 1..=62"));
    }
    // So is the mal-<p> family, named by property count.
    if name
        .strip_prefix("mal-")
        .is_some_and(|p| p.parse::<usize>().is_ok())
    {
        let family = mal_family();
        return mal::CHANNELS
            .into_iter()
            .find(|&k| mal::name(k) == name)
            .map(mal::mal)
            .ok_or_else(|| format!("unknown design {name:?}; the MAL family is {family}"));
    }
    let mut all = table1_designs();
    all.push(mal::ex1());
    all.into_iter()
        .find(|d| d.name == name)
        .ok_or_else(|| format!("unknown design {name:?}; see `specmatcher list`"))
}

/// The MAL family's names, e.g. `mal-11, mal-18, …`.
fn mal_family() -> String {
    mal::CHANNELS.map(mal::name).collect::<Vec<_>>().join(", ")
}

fn cmd_check(args: &[String]) -> Result<ExitCode, CliError> {
    let accepted = [&RUN_FLAGS[..], &["--design", "--snl", "--spec"]].concat();
    let flags = Flags::parse("check", args, &accepted)?;
    let json = flags.has("--json");
    let matcher = flags.matcher()?;
    let (profile, trace_out) = flags.trace();
    flags.arm_governance()?;
    let run_span = dic_trace::span("check");
    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
        || -> Result<(Design, dic_core::CoverageRun), CliError> {
            if let Some(name) = flags.value("--design") {
                let design = find_design(name)?;
                let run = design.check(&matcher).map_err(core_err)?;
                Ok((design, run))
            } else {
                let snl_path = flags
                    .value("--snl")
                    .ok_or("check needs --design or --snl/--spec")?;
                let spec_path = flags
                    .value("--spec")
                    .ok_or("check needs --spec with --snl")?;
                let snl =
                    std::fs::read_to_string(snl_path).map_err(|e| format!("{snl_path}: {e}"))?;
                let spec =
                    std::fs::read_to_string(spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
                let mut table = SignalTable::new();
                let parse_span = dic_trace::span("parse");
                let modules = parse_snl(&snl, &mut table).map_err(|e| e.to_string())?;
                let (arch, rtl_props) = parse_spec(&spec, &mut table)?;
                drop(parse_span);
                let rtl = RtlSpec::new(
                    rtl_props.iter().map(|(n, f)| (n.as_str(), f.clone())),
                    modules,
                );
                let arch = ArchSpec::new(arch.iter().map(|(n, f)| (n.as_str(), f.clone())));
                let design = Design {
                    name: "user",
                    table,
                    arch,
                    rtl,
                };
                let run = design.check(&matcher).map_err(core_err)?;
                Ok((design, run))
            }
        },
    ));
    drop(run_span);
    // Abort paths still flush the trace sinks: a `--trace-out` stream is
    // terminated with a final `run.aborted` event instead of vanishing.
    let (design, run) = match attempt {
        Ok(Ok(v)) => v,
        Ok(Err(e)) => {
            trace_abort(false);
            if let Err(CliError::Usage(m) | CliError::Resource(m)) =
                emit_trace_sinks(profile, trace_out.as_deref(), json)
            {
                errln!("specmatcher: {m}");
            }
            return Err(e);
        }
        Err(payload) => {
            trace_abort(true);
            if let Err(CliError::Usage(m) | CliError::Resource(m)) =
                emit_trace_sinks(profile, trace_out.as_deref(), json)
            {
                errln!("specmatcher: {m}");
            }
            std::panic::resume_unwind(payload);
        }
    };
    if json {
        outln!("{}", run.to_json(&design.table))?;
    } else {
        out!("{}", run.render(&design.table))?;
    }
    if let Some(reason) = &run.incomplete {
        // Mirror the reason on stderr so scripts that only watch the exit
        // code and stderr still see why the run degraded.
        errln!("specmatcher: incomplete: {reason}");
        trace_abort(false);
    }
    // Under --json the profile tree goes to stderr so stdout stays pure
    // JSON; the JSONL stream always goes to its own file.
    emit_trace_sinks(profile, trace_out.as_deref(), json)?;
    Ok(match &run.incomplete {
        // Partial run: a settled gap is still actionable (exit 1); with
        // nothing confirmed the run only hit its resource wall (exit 3).
        Some(_) if run.has_confirmed_gap() => ExitCode::from(1),
        Some(_) => ExitCode::from(3),
        None if run.all_covered() => ExitCode::SUCCESS,
        None => ExitCode::from(1),
    })
}

type NamedProps = Vec<(String, Ltl)>;

/// Parses a spec file. Every property needs a non-empty name that is
/// unique within its kind (`arch` or `rtl`): reports and JSON entries are
/// keyed by it.
fn parse_spec(src: &str, table: &mut SignalTable) -> Result<(NamedProps, NamedProps), String> {
    let mut arch = Vec::new();
    let mut rtl = Vec::new();
    for (lineno, raw) in src.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (kind, rest) = line
            .split_once(char::is_whitespace)
            .ok_or(format!("line {}: expected 'arch'/'rtl' entry", lineno + 1))?;
        let (name, formula_src) = rest
            .split_once('=')
            .ok_or(format!("line {}: expected NAME = FORMULA", lineno + 1))?;
        let formula = Ltl::parse(formula_src.trim(), table)
            .map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let list = match kind {
            "arch" => &mut arch,
            "rtl" => &mut rtl,
            other => return Err(format!("line {}: unknown kind {other:?}", lineno + 1)),
        };
        let name = name.trim();
        if name.is_empty() {
            return Err(format!("line {}: {kind} property has an empty name", lineno + 1));
        }
        if list.iter().any(|(seen, _)| seen == name) {
            return Err(format!(
                "line {}: duplicate {kind} property name {name:?}",
                lineno + 1
            ));
        }
        list.push((name.to_owned(), formula));
    }
    if arch.is_empty() {
        return Err("spec file declares no architectural (arch) property".into());
    }
    Ok((arch, rtl))
}

fn cmd_table1(args: &[String]) -> Result<ExitCode, CliError> {
    let accepted = [&RUN_FLAGS[..], &["--quick"]].concat();
    let flags = Flags::parse("table1", args, &accepted)?;
    let matcher = flags.matcher()?;
    let (profile, trace_out) = flags.trace();
    flags.arm_governance()?;
    if flags.has("--quick") {
        let code = cmd_table1_quick(&matcher)?;
        emit_trace_sinks(profile, trace_out.as_deref(), false)?;
        return Ok(code);
    }
    let json = flags.has("--json");
    let mut json_rows = Vec::new();
    let backend = matcher.backend();
    let matcher = matcher.with_tm_style(TmStyle::Enumerated);
    outln!(
        "{:<14} {:>9} {:>9} {:>9} {:>12} {:>12} {:>12}",
        "Circuit", "RTL props", "primary", "gap", "Primary (s)", "TM (s)", "Gap (s)"
    )?;
    let mut incomplete_designs: Vec<String> = Vec::new();
    for design in table1_designs() {
        let design_span = dic_trace::span("design.check");
        let run = design.check(&matcher).map_err(core_err)?;
        drop(design_span);
        if let Some(reason) = &run.incomplete {
            incomplete_designs.push(format!("{}: {reason}", design.name));
        }
        outln!(
            "{:<14} {:>9} {:>9} {:>9} {:>12.4} {:>12.4} {:>12.4}",
            design.name,
            run.num_rtl_properties,
            run.backend.to_string(),
            run.backend.to_string(),
            run.timings.primary.as_secs_f64(),
            run.timings.tm_build.as_secs_f64(),
            run.timings.gap_find.as_secs_f64(),
        )?;
        if json {
            let fingerprint = dic_bench::gap_fingerprint(&run, &design.table);
            json_rows.push((
                dic_bench::TableRow {
                    circuit: design.name.to_owned(),
                    num_rtl: run.num_rtl_properties,
                    primary: run.timings.primary,
                    tm_build: run.timings.tm_build,
                    gap_find: run.timings.gap_find,
                    backend: run.backend,
                    jobs: run.jobs,
                    counters: run.counters,
                    bmc: run.bmc,
                    gap_fingerprint: fingerprint,
                },
                dic_bench::design_reductions(&design),
            ));
        }
    }
    if json {
        std::fs::write(
            dic_bench::BENCH_TABLE1_PATH,
            dic_bench::bench_table1_json(backend, &json_rows),
        )
        .map_err(|e| format!("{}: {e}", dic_bench::BENCH_TABLE1_PATH))?;
        outln!("\nwrote {}", dic_bench::BENCH_TABLE1_PATH)?;
    }
    if !incomplete_designs.is_empty() {
        for line in &incomplete_designs {
            outln!("incomplete: {line}")?;
        }
        trace_abort(false);
        emit_trace_sinks(profile, trace_out.as_deref(), false)?;
        // A partial benchmark table is a resource wall, not a usage error.
        return Ok(ExitCode::from(3));
    }
    emit_trace_sinks(profile, trace_out.as_deref(), false)?;
    Ok(ExitCode::SUCCESS)
}

/// `table1 --quick`: the primary coverage question over the Table 1
/// designs *plus* a scaling row the explicit engine cannot handle — with
/// every verdict pinned — followed by a gap-phase smoke on the small
/// designs whose structured gap content is known (the paper's Example 4
/// properties must be among the reported weakest gap properties, per
/// backend). This is the CI smoke test: a backend-selection regression
/// (wrong engine, wrong verdict, lost gap property) or a reintroduced
/// state-explosion cliff fails the run instead of silently slowing it.
/// Every run goes through `matcher`, so the engine flags apply as they do
/// to `check`.
fn cmd_table1_quick(matcher: &SpecMatcher) -> Result<ExitCode, CliError> {
    // (design, primary coverage holds?)
    let rows: Vec<(Design, bool)> = vec![
        (mal::mal26(), false),
        (dic_designs::pipeline::pipeline12(), false),
        (dic_designs::amba::ahb29(), false),
        (mal::ex2(), false),
        (mal::ex1(), true),
        (scaling::chain_design(24, false), true),
        (scaling::chain_design(22, true), false),
    ];
    outln!(
        "{:<14} {:>9} {:>9} {:>12}  verdict",
        "Circuit", "RTL props", "backend", "Primary (s)"
    )?;
    let mut ok = true;
    for (design, expect_covered) in rows {
        let t0 = dic_trace::Stopwatch::start();
        let model = matcher
            .build_model(&design.arch, &design.rtl, &design.table)
            .map_err(|e| ctx_err(design.name, e))?;
        let fa = design.arch.properties()[0].formula();
        let witness = dic_core::primary_coverage(fa, &design.rtl, &model)
            .map_err(|e| ctx_err(design.name, e))?;
        let covered = witness.is_none();
        let verdict_ok = covered == expect_covered;
        ok &= verdict_ok;
        outln!(
            "{:<14} {:>9} {:>9} {:>12.4}  {}{}",
            design.name,
            design.rtl.num_properties(),
            model.primary_backend().to_string(),
            t0.elapsed().as_secs_f64(),
            if covered { "covered" } else { "gap" },
            if verdict_ok { "" } else { "  << UNEXPECTED" },
        )?;
    }
    if !ok {
        return Err("quick table1 verdicts diverged from the pinned expectations".into());
    }

    // Gap-phase smoke: the full Algorithm 1 pipeline on mal-ex2, with the
    // two paper-shaped weakest properties pinned, plus — whenever the gap
    // engine is symbolic — a chain design past the explicit limit, whose
    // gap report must fall back to the Theorem 2 hole with non-empty
    // uncovered terms.
    let mut ex2 = mal::ex2();
    let run = ex2.check(matcher).map_err(|e| ctx_err("mal-ex2", e))?;
    let rep = &run.properties[0];
    let u_hit = mal::paper_gap_property(&mut ex2);
    let u_g2 = mal::adapted_gap_property(&mut ex2);
    let has = |u: &Ltl| {
        rep.gap_properties
            .iter()
            .any(|g| dic_automata::equivalent(&g.formula, u))
    };
    outln!(
        "mal-ex2 gap smoke ({} backend): {} weakest properties, paper U {}, adapted U {}",
        run.backend,
        rep.gap_properties.len(),
        if has(&u_hit) { "found" } else { "MISSING" },
        if has(&u_g2) { "found" } else { "MISSING" },
    )?;
    if rep.covered || !has(&u_hit) || !has(&u_g2) {
        return Err("mal-ex2 gap smoke lost a pinned paper gap property".into());
    }
    if matcher.backend() != Backend::Explicit {
        let chain = scaling::chain_design(22, true);
        let run = chain
            .check(matcher)
            .map_err(|e| ctx_err("chain-22-gap", e))?;
        let rep = &run.properties[0];
        outln!(
            "chain-22-gap gap smoke ({} backend): {} uncovered terms, exact-hole fallback {}",
            run.backend,
            rep.uncovered_terms.len(),
            if rep.gap_properties.is_empty() { "active" } else { "inactive" },
        )?;
        if rep.covered || rep.uncovered_terms.is_empty() {
            return Err("chain-22-gap gap smoke produced no uncovered terms".into());
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_fsm(args: &[String]) -> Result<ExitCode, CliError> {
    let flags = Flags::parse("fsm", args, &["--design"])?;
    let name = flags.value("--design").ok_or("fsm needs --design <name>")?;
    let design = find_design(name)?;
    for module in design.rtl.concrete() {
        let fsm = extract_fsm(module, &design.table, true).map_err(|e| e.to_string())?;
        outln!("// module {} ({} states)", module.name(), fsm.num_states())?;
        outln!("{}", fsm.to_dot(&design.table))?;
    }
    Ok(ExitCode::SUCCESS)
}
