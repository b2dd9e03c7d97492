//! Golden rendered `check` reports: formatting regressions in the
//! human-facing coverage report (witness layout, term rendering, gap
//! property lines, backend labels) are caught by comparing against
//! checked-in expectations with a normalizing diff (wall-clock timing
//! lines are stripped; everything else is deterministic).
//!
//! To regenerate after an intentional format change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_reports
//! ```

use specmatcher::core::{Backend, GapConfig, SpecMatcher};
use specmatcher::designs::{amba, mal, pipeline, scaling, Design};
use std::path::PathBuf;

/// Renders the full coverage report for `design` with the default
/// configuration and strips the lines that vary run to run.
fn normalized_report(design: &Design) -> String {
    let run = design
        .check(&SpecMatcher::new(GapConfig::default()))
        .expect("packaged design runs");
    let text = run.render(&design.table);
    let mut normalized: String = text
        .lines()
        // Everything from a `profile:` line on is the optional dic_trace
        // span/counter tree (`--profile`) — durations and node counts,
        // all run dependent.
        .take_while(|l| !l.starts_with("profile:"))
        // Wall-clock and worker statistics are machine/run
        // dependent (jobs defaults to the machine's parallelism), and the
        // governance layer's degradation surfaces (`incomplete:` reasons,
        // `unknown` verdict lines) depend on budgets and deadlines the
        // golden runs don't pin.
        .filter(|l| {
            !l.starts_with("timings")
                && !l.starts_with("jobs")
                && !l.starts_with("incomplete:")
                && !l.trim_start().starts_with("unknown")
                && !l.trim_start().starts_with("UNKNOWN")
                && !l.trim_start().starts_with("unverified gap candidates")
        })
        .collect::<Vec<_>>()
        .join("\n");
    normalized.push('\n');
    normalized
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, actual).expect("golden file writes");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("golden file {path:?} unreadable ({e}); create it with UPDATE_GOLDEN=1")
    });
    if expected == actual {
        return;
    }
    for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(
            e,
            a,
            "golden report {name} diverges at line {} (regenerate with UPDATE_GOLDEN=1 \
             if the change is intentional)",
            i + 1,
        );
    }
    panic!(
        "golden report {name} diverges in length: expected {} lines, rendered {}",
        expected.lines().count(),
        actual.lines().count()
    );
}

#[test]
fn mal_ex1_report_matches_golden() {
    // Covered design: the report is the COVERED verdict per property.
    assert_golden("mal_ex1.txt", &normalized_report(&mal::ex1()));
}

#[test]
fn mal_ex2_report_matches_golden() {
    // Gapped design: witness run, uncovered terms and gap properties.
    assert_golden("mal_ex2.txt", &normalized_report(&mal::ex2()));
}

#[test]
fn chain_gap_report_matches_golden() {
    // Gapped scaling fixture: exercises the Theorem 2 exact-hole fallback
    // (no structure-preserving property closes the off-by-one chain gap).
    assert_golden(
        "chain_6_gap.txt",
        &normalized_report(&scaling::chain_design(6, true)),
    );
}

#[test]
fn pipeline_report_matches_golden() {
    // Default backend (Auto resolves to explicit): pins the explicit
    // engine's witness and gap properties on a second packaged design.
    assert_golden("pipeline.txt", &normalized_report(&pipeline::pipeline12()));
}

#[test]
fn amba_ahb_report_matches_golden() {
    // The largest packaged explicit design: every witness the explicit
    // emptiness search produces on it is pinned.
    assert_golden("amba_ahb.txt", &normalized_report(&amba::ahb29()));
}

/// The per-gap-property witnesses of an explicit run, one line each, in
/// the text the `--json` report gives their states. The text report omits
/// them.
fn gap_witnesses(name: &str, design: &Design) -> String {
    let run = design
        .check(&SpecMatcher::new(GapConfig::default()).with_backend(Backend::Explicit))
        .expect("packaged design runs");
    let mut out = format!("design {name}\n");
    for p in &run.properties {
        for g in &p.gap_properties {
            let states: Vec<String> = g
                .witness
                .states()
                .iter()
                .map(|v| v.display(&design.table).to_string())
                .collect();
            out.push_str(&format!(
                "  {} | {}\n    loop_start {}: [{}]\n",
                p.name,
                g.formula.display(&design.table),
                g.witness.loop_start(),
                states.join("; ")
            ));
        }
    }
    out
}

#[test]
fn gap_property_witnesses_match_golden() {
    // The witnesses attached to gap properties come from the explicit
    // engine's bounded-scenario lasso search.
    let text = [
        gap_witnesses("mal-ex2", &mal::ex2()),
        gap_witnesses("pipeline", &pipeline::pipeline12()),
        gap_witnesses("chain-6-gap", &scaling::chain_design(6, true)),
    ]
    .concat();
    assert_golden("gap_witnesses.txt", &text);
}
