//! Integration tests for the `specmatcher` command-line tool: the binary
//! is invoked end to end, covering the packaged designs, user-provided
//! SNL + spec files, JSON output and the FSM dump.

use std::io::Write as _;
use std::process::{Command, Stdio};

fn specmatcher(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_specmatcher"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn list_names_the_packaged_designs() {
    let out = specmatcher(&["list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    for name in ["mal-26", "pipeline", "amba-ahb", "mal-ex2", "mal-ex1"] {
        assert!(stdout.contains(name), "missing {name} in: {stdout}");
    }
    let family = stdout
        .lines()
        .filter(|l| l.starts_with("mal-<p>"))
        .collect::<Vec<_>>();
    assert_eq!(family.len(), 1, "one MAL family line in: {stdout}");
    assert!(
        family[0].ends_with("mal-11, mal-18, mal-26, mal-35, mal-45)"),
        "{}",
        family[0]
    );
}

#[test]
fn mal_family_members_check_and_others_are_refused() {
    let out = specmatcher(&["check", "--design", "mal-11"]);
    assert_eq!(out.status.code(), Some(1), "mal-11 has a gap");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("NOT covered"), "{stdout}");
    assert!(stdout.contains("gap properties"), "{stdout}");

    let out = specmatcher(&["check", "--design", "mal-27"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(
        stderr.contains("unknown design \"mal-27\"")
            && stderr.contains("mal-11, mal-18, mal-26, mal-35, mal-45"),
        "{stderr}"
    );
}

#[test]
fn check_covered_design_exits_zero() {
    let out = specmatcher(&["check", "--design", "mal-ex1"]);
    assert!(out.status.success(), "mal-ex1 is covered");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("COVERED"));
}

#[test]
fn check_gapped_design_exits_one_and_reports() {
    let out = specmatcher(&["check", "--design", "mal-ex2"]);
    assert_eq!(out.status.code(), Some(1), "gap => exit code 1");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("NOT covered"));
    assert!(stdout.contains("gap properties"));
    assert!(stdout.contains("U r2") || stdout.contains("r1 U"));
}

#[test]
fn json_output_is_structured() {
    let out = specmatcher(&["check", "--design", "mal-ex2", "--json"]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let json = stdout.trim();
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"all_covered\":false"));
    assert!(json.contains("\"gap_properties\""));
    assert!(json.contains("\"witness\""));
}

#[test]
fn both_backends_honor_the_exit_code_contract() {
    // 0 = covered, 1 = gap, 2 = usage/spec error, 3 = resource refusal —
    // for every backend.
    for backend in ["explicit", "symbolic", "auto"] {
        let out = specmatcher(&["check", "--design", "mal-ex1", "--backend", backend]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "mal-ex1 covered under {backend}"
        );
        let out = specmatcher(&["check", "--design", "mal-ex2", "--backend", backend]);
        assert_eq!(out.status.code(), Some(1), "mal-ex2 gap under {backend}");
        let stdout = String::from_utf8(out.stdout).expect("utf8");
        assert!(stdout.contains("NOT covered"));
    }
    // An unknown backend is a usage error.
    let out = specmatcher(&["check", "--design", "mal-ex1", "--backend", "magic"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("unknown backend"));
}

/// Every flag is known and given once: an unknown flag (the retired
/// `--reorder`, `--partition`, `--bmc` and `table1 --quick`, a typo) or a
/// repeated one is a usage
/// error that names it, for `check` and `table1` alike, before any engine
/// work.
#[test]
fn unknown_and_repeated_options_exit_two() {
    for (args, needle) in [
        ("check --design mal-ex1 --reorder off", "\"--reorder\""),
        ("check --design mal-ex1 --partition auto", "\"--partition\""),
        ("check --design mal-ex1 --bmc auto", "\"--bmc\""),
        ("check --design mal-ex1 --jbos 2", "\"--jbos\""),
        (
            "check --design mal-ex1 --jobs 1 --jobs 2",
            "--jobs given twice",
        ),
        ("check --design mal-ex1 mal-ex2", "\"mal-ex2\""),
        ("table1 --reorder off", "\"--reorder\""),
        ("table1 --jbos 2", "\"--jbos\""),
        ("table1 --jobs 1 --jobs 1", "--jobs given twice"),
        ("table1 --quick", "\"--quick\""),
    ] {
        let out = specmatcher(&args.split(' ').collect::<Vec<_>>());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: no report");
    }
}

#[test]
fn resource_refusals_exit_three() {
    // The explicit engine refusing a too-large state space is a resource
    // refusal (3), not a usage error (2): the invocation was fine, the
    // model just does not fit that engine.
    let out = specmatcher(&["check", "--design", "chain-24", "--backend", "explicit"]);
    assert_eq!(out.status.code(), Some(3), "explicit refusal => exit 3");
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("state space too large"));

    // The symbolic engine's node budget tripping on the *primary*
    // question degrades to a partial report: the verdict is reported
    // unknown, the run carries an `incomplete:` line, and — with no gap
    // settled — the exit code stays the resource class (3).
    let out = Command::new(env!("CARGO_BIN_EXE_specmatcher"))
        .args(["check", "--design", "mal-ex2", "--backend", "symbolic"])
        .env("SPECMATCHER_BDD_NODE_LIMIT", "1K")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(3), "node-budget refusal => exit 3");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("UNKNOWN"), "stdout: {stdout}");
    assert!(stdout.contains("incomplete:"), "stdout: {stdout}");
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("node limit"), "stderr: {stderr}");
}

#[test]
fn invalid_node_limit_is_rejected_loudly() {
    // A typo'd SPECMATCHER_BDD_NODE_LIMIT must not silently fall back to
    // the default — that is a usage error (2) with a clear message. `list`
    // builds no model, so its rejection comes from the startup audit.
    let check: &[&str] = &["check", "--design", "mal-ex1", "--backend", "symbolic"];
    let cases = ["24Q", "", "-5", "twelve", "0", "18446744073709551615M"]
        .map(|bad| (check, bad))
        .into_iter()
        .chain([(&["list"][..], "24Q")]);
    for (args, bad) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_specmatcher"))
            .args(args)
            .env("SPECMATCHER_BDD_NODE_LIMIT", bad)
            .output()
            .expect("binary runs");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} with {bad:?} must be rejected"
        );
        let stderr = String::from_utf8(out.stderr).expect("utf8");
        assert!(
            stderr.contains("invalid SPECMATCHER_BDD_NODE_LIMIT"),
            "{args:?} with {bad:?}: {stderr}"
        );
    }
    // Suffixed values are accepted (24M is exactly the default).
    let out = Command::new(env!("CARGO_BIN_EXE_specmatcher"))
        .args(["check", "--design", "mal-ex1", "--backend", "symbolic"])
        .env("SPECMATCHER_BDD_NODE_LIMIT", "24M")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn unknown_env_names_are_rejected_loudly() {
    // A SPECMATCHER_* name the program does not read — a typo, or a
    // retired knob — must not be silently ignored: usage error (2) naming
    // the variable, before any work. The retired knobs include the
    // transition-relation partition mode, the BMC unroll depth, the BDD
    // cluster cap and the deadline variable (`--timeout` is the only way
    // to set a deadline).
    for (name, value) in [
        ("SPECMATCHER_NO_REDUCE", "1"),
        ("SPECMATCHER_REORDER_LOG", "1"),
        ("SPECMATCHER_BDD_PARTITION", "off"),
        ("SPECMATCHER_BMC_DEPTH", "16"),
        ("SPECMATCHER_BDD_CLUSTER_SIZE", "60K"),
        ("SPECMATCHER_TIMEOUT", "5"),
        ("SPECMATCHER_JOSB", "4"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_specmatcher"))
            .args(["check", "--design", "mal-ex1"])
            .env(name, value)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{name} must be rejected");
        let stderr = String::from_utf8(out.stderr).expect("utf8");
        assert!(
            stderr.contains(&format!("unknown environment variable {name}")),
            "{name}: {stderr}"
        );
    }
}

#[test]
fn invalid_jobs_are_rejected_loudly() {
    // `--jobs` takes a positive worker count; zero, garbage and a
    // missing value are usage errors.
    for bad in ["0", "-2", "four", "1.5"] {
        let out = specmatcher(&["check", "--design", "mal-ex1", "--jobs", bad]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "--jobs {bad:?} must be rejected"
        );
        let stderr = String::from_utf8(out.stderr).expect("utf8");
        assert!(stderr.contains("--jobs"), "--jobs {bad:?}: {stderr}");
    }
    let out = specmatcher(&["check", "--design", "mal-ex1", "--jobs"]);
    assert_eq!(out.status.code(), Some(2), "--jobs needs a value");

    // The same contract for SPECMATCHER_JOBS: a typo'd worker count must
    // not silently fall back to the machine's parallelism.
    for bad in ["0", "-1", "four", "", "2.5"] {
        let out = Command::new(env!("CARGO_BIN_EXE_specmatcher"))
            .args(["check", "--design", "mal-ex1"])
            .env("SPECMATCHER_JOBS", bad)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "value {bad:?} must be rejected");
        let stderr = String::from_utf8(out.stderr).expect("utf8");
        assert!(
            stderr.contains("invalid SPECMATCHER_JOBS"),
            "value {bad:?}: {stderr}"
        );
    }

    // Good values run, are reported, and leave the verdict unchanged.
    let out = specmatcher(&["check", "--design", "mal-ex2", "--jobs", "2"]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "worker count never changes the verdict"
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(
        stdout.contains("jobs: 2 workers"),
        "report names the worker count"
    );
    let out = Command::new(env!("CARGO_BIN_EXE_specmatcher"))
        .args(["check", "--design", "mal-ex1"])
        .env("SPECMATCHER_JOBS", "3")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn worker_gap_refusals_degrade_to_explicit_retry() {
    // A node budget that survives the model build, the primary question
    // and term enumeration, but trips inside closure verification: the
    // per-candidate refusal does not abort the run. Each tripped candidate
    // is retried on the explicit engine (mal-ex2 is well inside its
    // limits), so the run completes with the full gap-property set, the
    // report the default budget gives, and the ordinary gap exit code (1).
    //
    // At 16K, 25 candidates trip and are retried at `--jobs 1` and
    // `--jobs 4` alike; by 96K the bounded SAT tier and the collector keep
    // every fixpoint inside the budget and nothing is retried, so the
    // trace must show the retries, not just the exit code.
    let plain = |jobs: &str| {
        let out = specmatcher(&[
            "check",
            "--design",
            "mal-ex2",
            "--backend",
            "symbolic",
            "--jobs",
            jobs,
        ]);
        assert_eq!(out.status.code(), Some(1));
        String::from_utf8(out.stdout).expect("utf8")
    };
    let gap_lines = |report: &str| -> Vec<String> {
        report
            .lines()
            .filter(|l| {
                !["timings", "bdd gc:", "jobs:"]
                    .iter()
                    .any(|p| l.starts_with(p))
            })
            .map(str::to_owned)
            .collect()
    };
    let dir = std::env::temp_dir().join(format!("specmatcher-retry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for jobs in ["1", "4"] {
        let trace = dir.join(format!("jobs-{jobs}.jsonl"));
        let out = Command::new(env!("CARGO_BIN_EXE_specmatcher"))
            .args([
                "check",
                "--design",
                "mal-ex2",
                "--backend",
                "symbolic",
                "--jobs",
                jobs,
                "--trace-out",
            ])
            .arg(&trace)
            .env("SPECMATCHER_BDD_NODE_LIMIT", "16K")
            .output()
            .expect("binary runs");
        assert_eq!(
            out.status.code(),
            Some(1),
            "gap-phase refusal at --jobs {jobs} degrades, gap still reported => exit 1"
        );
        let stdout = String::from_utf8(out.stdout).expect("utf8");
        assert!(
            !stdout.contains("incomplete:"),
            "--jobs {jobs}: every candidate settles after retry: {stdout}"
        );
        assert_eq!(
            gap_lines(&stdout),
            gap_lines(&plain(jobs)),
            "--jobs {jobs}: the retried run must report what the default budget reports"
        );
        let events = std::fs::read_to_string(&trace).expect("trace written");
        let retries = events
            .lines()
            .filter(|l| l.contains("\"name\":\"gap.retry_explicit\""))
            .count();
        assert!(
            retries > 0,
            "--jobs {jobs}: the budget must trip and be retried explicitly"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn timeout_with_partial_results_exits_one() {
    // Deterministic variant: an injected deadline trips at the third
    // gap-worker dispatch — the primary verdict (NOT covered) is already
    // settled, the gap scan is cut short and the remaining candidates
    // are enumerated as unknown. Partial report with an `incomplete:`
    // trailer and the gap exit code (1): a settled gap is actionable.
    let out = Command::new(env!("CARGO_BIN_EXE_specmatcher"))
        .args(["check", "--design", "mal-ex2"])
        .env("SPECMATCHER_FAULT", "gap.worker:3:deadline")
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(1),
        "settled gap + deadline => exit 1"
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("NOT covered"), "stdout: {stdout}");
    assert!(
        stdout.contains("incomplete: deadline exceeded"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("unknown: "), "stdout: {stdout}");

    // Wall-clock variant on the wide design. The budget is about half of
    // an untimed run (~9–10 s on 2 vCPUs, release and test profiles
    // alike), so an idle host trips mid-gap-phase (exit 1, the acceptance
    // row pinned in the nightly fault-sweep lane); under a fully loaded
    // test run it can trip in the model build or the primary question
    // (exit 3, still a partial report). Only the load-independent
    // partial-report invariants are pinned here.
    let out = specmatcher(&["check", "--design", "mal-26", "--timeout", "5"]);
    let code = out.status.code().expect("exit code");
    assert!(
        code == 1 || code == 3,
        "partial-run exit (1 or 3), got {code}"
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(
        stdout.contains("incomplete: deadline exceeded"),
        "stdout: {stdout}"
    );
}

#[test]
fn timeout_with_nothing_confirmed_exits_three() {
    // A deadline so tight it trips inside the *primary* question: no
    // verdict settles, the report is all unknown, and the exit code is
    // the resource class (3) — indistinguishable in severity from a
    // node-budget refusal. Forced deterministically: the injected
    // deadline fires at the first fixpoint step regardless of wall clock.
    let out = Command::new(env!("CARGO_BIN_EXE_specmatcher"))
        .args(["check", "--design", "mal-ex2", "--backend", "symbolic"])
        .env("SPECMATCHER_FAULT", "symbolic.fixpoint_step:1:deadline")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(3), "nothing settled => exit 3");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("UNKNOWN"), "stdout: {stdout}");
    assert!(
        stdout.contains("incomplete: deadline exceeded"),
        "stdout: {stdout}"
    );
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("incomplete"), "stderr: {stderr}");
}

#[test]
fn deadline_during_model_construction_prints_a_partial_report() {
    // The first BDD allocation happens while the model is built, before
    // any verdict exists. The trip still degrades to the partial-report
    // shape of a trip one checkpoint later, in the primary question: every
    // property unknown, an `incomplete:` trailer, exit 3.
    for nth in ["1", "2"] {
        let out = Command::new(env!("CARGO_BIN_EXE_specmatcher"))
            .args(["check", "--design", "mal-ex2", "--backend", "symbolic"])
            .env("SPECMATCHER_FAULT", format!("bdd.alloc:{nth}:deadline"))
            .output()
            .expect("binary runs");
        assert_eq!(
            out.status.code(),
            Some(3),
            "bdd.alloc:{nth}: nothing settled => exit 3"
        );
        let stdout = String::from_utf8(out.stdout).expect("utf8");
        let properties = stdout
            .lines()
            .filter(|l| l.starts_with("property "))
            .count();
        let unknown = stdout
            .matches("  UNKNOWN — verdict not settled: deadline exceeded")
            .count();
        assert_eq!((properties, unknown), (1, 1), "bdd.alloc:{nth}: {stdout}");
        assert!(
            stdout.contains("\nincomplete: deadline exceeded"),
            "bdd.alloc:{nth}: {stdout}"
        );
        let stderr = String::from_utf8(out.stderr).expect("utf8");
        assert!(
            stderr.contains("incomplete: deadline exceeded"),
            "bdd.alloc:{nth}: {stderr}"
        );
    }
}

#[test]
fn injected_worker_panic_is_isolated() {
    // A panic on a gap worker thread must not abort the run: the verdict
    // for that candidate degrades to unknown with a diagnostic, every
    // other candidate still settles, and the gap exit code (1) holds.
    for jobs in ["1", "4"] {
        let out = Command::new(env!("CARGO_BIN_EXE_specmatcher"))
            .args(["check", "--design", "mal-ex2", "--jobs", jobs])
            .env("SPECMATCHER_FAULT", "gap.worker:1:panic")
            .output()
            .expect("binary runs");
        assert_eq!(
            out.status.code(),
            Some(1),
            "--jobs {jobs}: worker panic isolated, gap still reported => exit 1"
        );
        let stdout = String::from_utf8(out.stdout).expect("utf8");
        assert!(
            stdout.contains("unknown: "),
            "--jobs {jobs}: panicked candidate reported unknown: {stdout}"
        );
        assert!(
            stdout.contains("worker panic caught"),
            "--jobs {jobs}: diagnostic names the panic: {stdout}"
        );
        assert!(
            stdout.contains("gap properties"),
            "--jobs {jobs}: remaining candidates settle: {stdout}"
        );
    }
}

#[test]
fn unverified_gap_candidates_mark_the_run_incomplete() {
    // An inconclusive verdict on the first claimed candidate (a real
    // weakening of mal-ex2's intent, not a degenerate one) leaves it
    // unknown although the scan runs to its end: the report must say it
    // is partial, on stdout and on stderr, and the settled gap still
    // exits 1.
    let out = Command::new(env!("CARGO_BIN_EXE_specmatcher"))
        .args(["check", "--design", "mal-ex2"])
        .env("SPECMATCHER_FAULT", "gap.worker:1:sat-unknown")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "settled gap => exit 1");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("    unknown: "), "stdout: {stdout}");
    assert!(
        stdout.contains("\nincomplete: gap verification left 1 candidate unverified"),
        "stdout: {stdout}"
    );
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(
        stderr.contains("incomplete: gap verification left 1 candidate unverified"),
        "stderr: {stderr}"
    );
}

#[test]
fn strict_governance_env_parsing() {
    // Typos in the governance overrides are usage errors (exit 2), never
    // silently defaulted runs.
    for bad in [
        "gap.worker",         // missing nth:kind
        "gap.worker:0:panic", // nth must be >= 1
        "gap.walker:1:panic", // unknown site
        "gap.worker:1:oops",  // unknown kind
        "gap.worker:one:panic",
        "",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_specmatcher"))
            .args(["check", "--design", "mal-ex1"])
            .env("SPECMATCHER_FAULT", bad)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "SPECMATCHER_FAULT={bad:?}");
        let stderr = String::from_utf8(out.stderr).expect("utf8");
        assert!(stderr.contains("invalid SPECMATCHER_FAULT"), "{stderr}");
    }
    // The flag form is strict too.
    let out = specmatcher(&["check", "--design", "mal-ex1", "--timeout", "0"]);
    assert_eq!(out.status.code(), Some(2), "--timeout 0 is a usage error");
}

#[test]
fn scaling_design_needs_the_symbolic_backend() {
    // Beyond the explicit bit limit: explicit refuses for resource
    // reasons (3), symbolic and auto prove coverage (0).
    let out = specmatcher(&["check", "--design", "chain-24", "--backend", "explicit"]);
    assert_eq!(out.status.code(), Some(3), "explicit must refuse chain-24");
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("state space too large"));

    for backend in ["symbolic", "auto"] {
        let out = specmatcher(&["check", "--design", "chain-24", "--backend", backend]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "chain-24 covered under {backend}"
        );
        let stdout = String::from_utf8(out.stdout).expect("utf8");
        assert!(stdout.contains("COVERED"));
        assert!(stdout.contains("symbolic"), "report must name the backend");
    }

    // The gapped variant exits 1 with a witness — and, since the gap
    // phase itself runs symbolically now, a gap report (uncovered terms;
    // the chain's off-by-one gap has no structure-preserving property, so
    // Theorem 2's exact hole is the fallback) even past the explicit
    // limit.
    let out = specmatcher(&["check", "--design", "chain-22-gap"]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("NOT covered"));
    assert!(stdout.contains("witness run"));
    assert!(
        stdout.contains("uncovered terms"),
        "symbolic gap phase must enumerate terms: {stdout}"
    );
    assert!(stdout.contains("exact hole"));
    assert!(stdout.contains("timings (backend symbolic)"));
}

/// The one full Table 1 run of tier 1. `table1 --json` must emit
/// BENCH_table1.json next to the table (run in a scratch working
/// directory so parallel tests cannot race on the file), and every row
/// must go through the matcher the flags describe: `--jobs 3` runs three
/// gap workers per gap phase, and on the symbolic row (mal-26) bounded
/// queries front the closure fixpoints.
#[test]
fn table1_json_writes_the_bench_trajectory() {
    let dir = std::env::temp_dir().join(format!("specmatcher-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_specmatcher"))
        .args(["table1", "--json", "--jobs", "3", "--profile"])
        .current_dir(&dir)
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "table1 --json failed: {stdout}");
    let spans = |name: &str| -> usize {
        stdout
            .lines()
            .filter(|l| l.trim_start().starts_with(&format!("{name} ")))
            .map(|l| match l.split("(x").nth(1) {
                Some(rest) => rest
                    .split(')')
                    .next()
                    .and_then(|n| n.parse().ok())
                    .expect("count"),
                None => 1,
            })
            .sum()
    };
    let (verify, workers) = (spans("gap.verify"), spans("gap.worker"));
    assert!(verify > 0, "{stdout}");
    assert!(spans("bmc.query") > 0, "{stdout}");
    assert_eq!(workers, 3 * verify, "{stdout}");
    let json = std::fs::read_to_string(dir.join("BENCH_table1.json")).expect("json written");
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    for needle in [
        "\"schema\":\"specmatcher-bench-table1/1\"",
        "\"name\":\"mal-26\"",
        "\"name\":\"amba-ahb\"",
        "\"backend\":\"symbolic\",\"jobs\":{\"requested\":3,\"gap_fixpoints\":1}",
        "\"gap_fingerprint\":[",
        "\"pre\":{\"states\":",
        "\"post\":{\"states\":",
        "\"totals\":{\"pre_states\":",
    ] {
        assert!(json.contains(needle), "missing {needle} in {json}");
    }
    for key in ["\"bmc\"", "\"gap_backend\"", "\"gap_workers\""] {
        assert!(!json.contains(key), "no {key} key: {json}");
    }
    // The traced `tm_build` phase counts the enumerated `T_M` build (its
    // guard merging does BDD work); the relational build counts nothing.
    assert_eq!(
        json.matches("\"tm_build\":{\"").count(),
        4,
        "every row counts the enumerated T_M build: {json}"
    );
    // The per-design totals must show the documented strict decrease on
    // the designs where the pipeline bites (amba-ahb: 152 -> 132 states).
    assert!(
        json.contains("\"pre_states\":152,\"post_states\":132"),
        "amba-ahb totals drifted: {json}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_design_fails_gracefully() {
    let out = specmatcher(&["check", "--design", "no-such-design"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("unknown design"));
}

#[test]
fn snl_and_spec_files_flow() {
    let dir = std::env::temp_dir().join(format!("specmatcher-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let snl_path = dir.join("glue.snl");
    let spec_path = dir.join("glue.spec");
    let mut snl = std::fs::File::create(&snl_path).expect("snl file");
    writeln!(
        snl,
        "module glue\n  input a\n  output q\n  latch q = a init 0\nendmodule"
    )
    .expect("write snl");
    let mut spec = std::fs::File::create(&spec_path).expect("spec file");
    writeln!(
        spec,
        "# user flow\narch A1 = G(req -> X X q)\nrtl R1 = G(req -> X a)"
    )
    .expect("write spec");

    let out = specmatcher(&[
        "check",
        "--snl",
        snl_path.to_str().expect("utf8 path"),
        "--spec",
        spec_path.to_str().expect("utf8 path"),
    ]);
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(out.status.success(), "covered spec: {stdout}");
    assert!(stdout.contains("COVERED"));

    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `check` on the packaged mal-ex1 netlist against a spec whose
/// architectural intent is `arch` and whose RTL suite is mal-ex1's.
fn check_mal_ex1_with_arch(arch: &str, tag: &str) -> std::process::Output {
    let data = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/data");
    let rtl: String = std::fs::read_to_string(format!("{data}/mal_ex1.spec"))
        .expect("packaged spec")
        .lines()
        .filter(|l| l.starts_with("rtl "))
        .map(|l| format!("{l}\n"))
        .collect();
    check_mal_ex1_spec(&format!("arch A = {arch}\n{rtl}"), tag)
}

/// Runs `check` on the packaged mal-ex1 netlist against the spec text
/// `spec`.
fn check_mal_ex1_spec(spec: &str, tag: &str) -> std::process::Output {
    let data = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/data");
    let dir = std::env::temp_dir().join(format!("specmatcher-deep-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let spec_path = dir.join("deep.spec");
    std::fs::write(&spec_path, spec).expect("write spec");
    let out = specmatcher(&[
        "check",
        "--snl",
        &format!("{data}/mal_ex1.snl"),
        "--spec",
        spec_path.to_str().expect("utf8 path"),
    ]);
    std::fs::remove_dir_all(&dir).ok();
    out
}

#[test]
fn over_deep_formulas_are_usage_errors_not_stack_overflows() {
    let parens = format!("{}r1{}", "(".repeat(50_000), ")".repeat(50_000));
    let nexts = format!("{}r1", "X ".repeat(200_000));
    for (tag, arch) in [("parens", parens), ("nexts", nexts)] {
        let out = check_mal_ex1_with_arch(&arch, tag);
        let stderr = String::from_utf8(out.stderr).expect("utf8");
        assert_eq!(out.status.code(), Some(2), "{tag}: {stderr}");
        assert!(stderr.contains("nests deeper than"), "{tag}: {stderr}");
    }
}

#[test]
fn formulas_at_the_nesting_limit_still_check() {
    let limit = specmatcher::ltl::parse::MAX_NESTING;
    let arch = format!("{}r1", "X ".repeat(limit));
    let out = check_mal_ex1_with_arch(&arch, "limit");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert_eq!(
        out.status.code(),
        Some(1),
        "X^{limit} r1 is a gap: {stdout}"
    );
    assert!(stdout.contains("NOT covered"));
}

/// `G(r1 <-> r2 <-> r1 …)` with `n` operands. `<->` copies both sides,
/// so the expanded formula doubles with every operand.
fn iff_chain(n: usize) -> String {
    let atoms: Vec<&str> = (0..n).map(|i| ["r1", "r2"][i % 2]).collect();
    format!("G({})", atoms.join(" <-> "))
}

#[test]
fn exponential_iff_chains_are_usage_errors_not_hangs() {
    // 16 operands expand to 262,138 nodes: before the size cap the check
    // ran past a minute even under `--timeout 5`.
    let t0 = std::time::Instant::now();
    let out = check_mal_ex1_with_arch(&iff_chain(16), "iff16");
    let elapsed = t0.elapsed();
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("expands to more than"), "{stderr}");
    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "refused after {elapsed:?}"
    );
}

#[test]
fn iff_chains_at_the_size_limit_still_check() {
    // 12 operands under G expand to 16,378 nodes, the longest chain
    // within `MAX_EXPANDED_SIZE`; the check runs to completion.
    let out = check_mal_ex1_with_arch(&iff_chain(12), "iff12");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("COVERED"), "{stdout}");
}

/// `(r1 U (r2 U (r1 U … d1)))` with `n` nested operators `op`.
fn nested(n: usize, op: &str) -> String {
    (0..n).fold("d1".to_owned(), |acc, i| {
        format!("({} {op} {acc})", ["r1", "r2"][i % 2])
    })
}

/// Runs `check` on mal-ex1's packaged netlist and spec with `line`
/// appended to the spec.
fn check_mal_ex1_plus(line: &str, tag: &str, backend: &str) -> std::process::Output {
    let data = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/data");
    let spec = std::fs::read_to_string(format!("{data}/mal_ex1.spec")).expect("packaged spec");
    let dir = std::env::temp_dir().join(format!("specmatcher-sets-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let spec_path = dir.join("sets.spec");
    std::fs::write(&spec_path, format!("{spec}{line}\n")).expect("write spec");
    let out = specmatcher(&[
        "check",
        "--snl",
        &format!("{data}/mal_ex1.snl"),
        "--spec",
        spec_path.to_str().expect("utf8 path"),
        "--backend",
        backend,
    ]);
    std::fs::remove_dir_all(&dir).ok();
    out
}

#[test]
fn too_many_untils_are_usage_errors_not_panics() {
    // 32 nested `U`s in one RTL property overflowed the explicit
    // product's 32-bit acceptance mask (a panic, exit 101); 33 nested
    // `R`s in an intent overflowed the tableau of its negation on both
    // engines. Both are refused up front, on every backend.
    for (tag, line, sets) in [
        ("u32", format!("rtl DEEP = {}", nested(32, "U")), 32),
        ("r33", format!("arch DEEP = {}", nested(33, "R")), 33),
    ] {
        for backend in ["explicit", "symbolic"] {
            let out = check_mal_ex1_plus(&line, &format!("{tag}-{backend}"), backend);
            let stderr = String::from_utf8(out.stderr).expect("utf8");
            assert_eq!(out.status.code(), Some(2), "{tag} {backend}: {stderr}");
            assert!(
                stderr.contains(&format!("property DEEP alone contributes {sets}"))
                    && stderr.contains("above the limit of 32"),
                "{tag} {backend}: {stderr}"
            );
        }
    }
}

#[test]
fn sixteen_nested_untils_still_check() {
    let line = format!("rtl DEEP = {}", nested(16, "U"));
    for backend in ["explicit", "symbolic"] {
        let out = check_mal_ex1_plus(&line, &format!("u16-{backend}"), backend);
        let stdout = String::from_utf8(out.stdout).expect("utf8");
        assert_eq!(out.status.code(), Some(0), "{backend}: {stdout}");
        assert!(stdout.contains("COVERED"), "{backend}: {stdout}");
    }
}

/// Generated `.snl` and `.spec` files — garbage, deep nestings, and
/// well-formed files with random formulas — always end in the exit-code
/// contract (0..=3), never in a panic (101) or an abort (134). The `.spec`
/// reader lives in the binary, so only the CLI can exercise it.
#[test]
fn generated_input_files_keep_the_exit_code_contract() {
    use specmatcher::ltl::random::{random_formula, XorShift64};
    let data = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/data");
    let good_snl = std::fs::read_to_string(format!("{data}/mal_ex1.snl")).expect("packaged snl");
    let mut rng = XorShift64::new(0x5eed);
    let mut garbage = |n: usize| -> String {
        const PIECES: &[&str] = &[
            "(",
            ")",
            "!",
            "&",
            "|",
            "->",
            "G",
            "X",
            "U",
            "r1",
            "n1",
            "=",
            " ",
            "\n",
            "arch",
            "rtl",
            "module",
            "assign",
            "latch",
            "endmodule",
            "#",
        ];
        (0..n).map(|_| PIECES[rng.below(PIECES.len())]).collect()
    };
    let deep = |open: &str, close: &str| format!("{}r1{}", open.repeat(5000), close.repeat(5000));
    let snls = [
        good_snl.clone(),
        garbage(200),
        good_snl.replace(
            "assign g1 = n1 & !cwait",
            &format!("assign g1 = {}", deep("!(", ")")),
        ),
        good_snl.replace("endmodule", ""),
    ];
    let mut t = specmatcher::logic::SignalTable::new();
    let atoms: Vec<_> = ["r1", "r2", "n1", "d1", "hit"]
        .iter()
        .map(|a| t.intern(a))
        .collect();
    let mut formula_rng = XorShift64::new(0xf00d);
    let mut formula = || {
        random_formula(&mut formula_rng, &atoms, 6)
            .display(&t)
            .to_string()
    };
    // Assumption 1 needs every architectural signal in the RTL suite.
    let all = "rtl ALL = G(r1 -> X n1) & G(r2 -> F d1) & G F hit";
    let specs = [
        format!("arch A = {}\nrtl R = {}\n{all}\n", formula(), formula()),
        format!("arch A = {}\n{all}\n", formula()),
        format!("arch A = {}\n{all}\n", deep("X (", ")")),
        garbage(120),
    ];
    let dir = std::env::temp_dir().join(format!("specmatcher-gen-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    for (i, snl) in snls.iter().enumerate() {
        for (j, spec) in specs.iter().enumerate() {
            let snl_path = dir.join(format!("{i}.snl"));
            let spec_path = dir.join(format!("{j}.spec"));
            std::fs::write(&snl_path, snl).expect("write snl");
            std::fs::write(&spec_path, spec).expect("write spec");
            let out = specmatcher(&[
                "check",
                "--timeout",
                "20",
                "--snl",
                snl_path.to_str().expect("utf8 path"),
                "--spec",
                spec_path.to_str().expect("utf8 path"),
            ]);
            let code = out.status.code();
            assert!(
                matches!(code, Some(0..=3)),
                "snl {i} x spec {j} exited {code:?}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn deep_assign_errors_stay_short() {
    // A parse error quotes only the head of the offending expression: a
    // 100k-deep `assign` is refused with a line number, not echoed whole.
    let data = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/data");
    let snl = std::fs::read_to_string(format!("{data}/mal_ex1.snl")).expect("packaged snl");
    let deep = format!("{}r1{}", "!(".repeat(100_000), ")".repeat(100_000));
    let bad = snl.replace("assign g1 = n1 & !cwait", &format!("assign g1 = {deep}"));
    assert_ne!(bad, snl, "the packaged netlist assigns g1");
    let dir = std::env::temp_dir().join(format!("specmatcher-deep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let snl_path = dir.join("deep.snl");
    std::fs::write(&snl_path, bad).expect("write snl");
    let out = specmatcher(&[
        "check",
        "--snl",
        snl_path.to_str().expect("utf8 path"),
        "--spec",
        &format!("{data}/mal_ex1.spec"),
    ]);
    std::fs::remove_dir_all(&dir).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("line 9"), "{stderr}");
    assert!(stderr.len() < 1024, "{} bytes of stderr", stderr.len());
}

#[test]
fn wide_xor_assigns_still_check() {
    // A flat 1,000-operand `^` chain is width, not nesting: it must not
    // hit the expression parser's nesting cap. The 998 copies of `n1`
    // cancel and the trailing `0` folds away, so `g1` keeps its meaning
    // and mal-ex1 stays covered.
    let data = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/data");
    let snl = std::fs::read_to_string(format!("{data}/mal_ex1.snl")).expect("packaged snl");
    let chain = format!("(n1 & !cwait){} ^ 0", " ^ n1".repeat(998));
    let wide = snl.replace("assign g1 = n1 & !cwait", &format!("assign g1 = {chain}"));
    assert_ne!(wide, snl, "the packaged netlist assigns g1");
    let dir = std::env::temp_dir().join(format!("specmatcher-wide-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let snl_path = dir.join("wide.snl");
    std::fs::write(&snl_path, wide).expect("write snl");
    let out = specmatcher(&[
        "check",
        "--snl",
        snl_path.to_str().expect("utf8 path"),
        "--spec",
        &format!("{data}/mal_ex1.spec"),
    ]);
    std::fs::remove_dir_all(&dir).ok();
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("COVERED"), "{stdout}");
}

#[test]
fn fsm_dump_is_dot() {
    let out = specmatcher(&["fsm", "--design", "mal-ex1"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("digraph fsm"));
    assert!(stdout.contains("->"));
    assert!(stdout.contains("module"));
}

/// Property names key the report and its JSON entries, so a spec file
/// may neither leave one empty nor repeat one within its kind; both are
/// usage errors naming the line. The same name in `arch` and `rtl` stays
/// legal, and the packaged spec still checks.
#[test]
fn spec_property_names_must_be_present_and_unique() {
    for (spec, tag, needle) in [
        (
            "arch A = G(r1 -> X n1)\narch A = G(r2 -> X n2)\nrtl R1 = G(r1 -> X n1)\n",
            "dup-arch",
            "line 2: duplicate arch property name \"A\"",
        ),
        (
            "arch A = G(r1 -> X n1)\nrtl R1 = G(r1 -> X n1)\n\nrtl R1 = G F hit\n",
            "dup-rtl",
            "line 4: duplicate rtl property name \"R1\"",
        ),
        (
            "arch = G(r1 -> X n1)\nrtl R1 = G(r1 -> X n1)\n",
            "empty-arch",
            "line 1: arch property has an empty name",
        ),
        (
            "arch A = G(r1 -> X n1)\nrtl  = G(r1 -> X n1)\n",
            "empty-rtl",
            "line 2: rtl property has an empty name",
        ),
    ] {
        let out = check_mal_ex1_spec(spec, tag);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{tag}: {stderr}");
        assert!(stderr.contains(needle), "{tag}: {stderr}");
        assert!(out.stdout.is_empty(), "{tag}: no report for a refused spec");
    }

    let out = check_mal_ex1_spec(
        "arch A = G(r1 -> X n1)\nrtl A = G(r1 -> X n1)\n",
        "cross-kind",
    );
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let data = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/data");
    let out = specmatcher(&[
        "check",
        "--snl",
        &format!("{data}/mal_ex1.snl"),
        "--spec",
        &format!("{data}/mal_ex1.spec"),
    ]);
    assert_eq!(out.status.code(), Some(0));
}

/// Spawns the binary with its stdout pipe closed before it writes and
/// returns the exit code and stderr.
fn run_with_closed_stdout(args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_specmatcher"))
        .args(args)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("binary exits");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A reader that goes away (`| head`) ends the run quietly with the exit
/// code it would have returned; it never panics.
#[test]
fn closed_stdout_pipe_keeps_the_exit_code() {
    for (args, code) in [
        (&["fsm", "--design", "mal-ex1"][..], 0),
        (&["check", "--design", "mal-ex2", "--json"][..], 1),
    ] {
        let (status, stderr) = run_with_closed_stdout(args);
        assert_eq!(status, Some(code), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

/// Any other stdout failure is an exit-2 error that says what failed.
#[test]
fn unwritable_stdout_exits_two() {
    let Ok(full) = std::fs::OpenOptions::new().write(true).open("/dev/full") else {
        return; // no /dev/full on this platform
    };
    let out = Command::new(env!("CARGO_BIN_EXE_specmatcher"))
        .args(["check", "--design", "mal-ex1"])
        .stdout(full)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("specmatcher: cannot write the report: "),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn unwritable_stderr_keeps_the_exit_code() {
    // Every diagnostic goes through one stderr writer that drops write
    // errors: the usage error, `--help`, the `--profile` tree under
    // `--json` and the `incomplete:` mirror all end with the run's own
    // exit code, never a panic (exit 101).
    if std::fs::metadata("/dev/full").is_err() {
        return; // no /dev/full on this platform
    }
    let cases: [(&[&str], Option<&str>, i32); 5] = [
        (&["check", "--design", "no-such"], None, 2),
        (
            &["check", "--design", "mal-ex2", "--timeout", "0.01"],
            None,
            2,
        ),
        (&["--help"], None, 0),
        (
            &["check", "--design", "mal-ex2", "--profile", "--json"],
            None,
            1,
        ),
        (
            &["check", "--design", "mal-ex2"],
            Some("gap.worker:3:deadline"),
            1,
        ),
    ];
    for (args, fault, code) in cases {
        let full = std::fs::OpenOptions::new()
            .write(true)
            .open("/dev/full")
            .expect("opens /dev/full");
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_specmatcher"));
        cmd.args(args).stdout(Stdio::null()).stderr(full);
        if let Some(fault) = fault {
            cmd.env("SPECMATCHER_FAULT", fault);
        }
        let out = cmd.output().expect("binary runs");
        assert_eq!(out.status.code(), Some(code), "{args:?} (fault {fault:?})");
    }
}

#[test]
fn help_prints_usage() {
    let out = specmatcher(&["--help"]);
    assert!(out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("usage:"));
    assert!(stderr.contains("--json"));
    assert!(stderr.contains("--backend"));
    assert!(stderr.contains("symbolic"));
}
