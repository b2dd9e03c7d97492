//! Table 1 reporting helpers shared by `specmatcher table1`, the tests
//! and the benchmark probe.
//!
//! The paper's Table 1 decomposes SpecMatcher runtime into three phases per
//! design: answering the primary coverage question, building `T_M`, and
//! finding the gap. [`TableRow`] holds one measured row, [`gap_fingerprint`]
//! renders a run's ordered gap properties (the byte-identity contract), and
//! [`bench_table1_json`] writes the `BENCH_table1.json` document with the
//! pre/post-reduction automaton sizes of [`design_reductions`].

use dic_core::{Backend, BmcMode, CoverageRun};
use dic_designs::Design;
use dic_logic::SignalTable;
use dic_ltl::Ltl;
use std::time::Duration;

/// One measured Table 1 row.
#[derive(Clone, Debug)]
pub struct TableRow {
    /// Design name.
    pub circuit: String,
    /// Number of RTL properties.
    pub num_rtl: usize,
    /// Primary coverage time.
    pub primary: Duration,
    /// `T_M` build time (enumerated).
    pub tm_build: Duration,
    /// Gap finding time.
    pub gap_find: Duration,
    /// The backend that answered the primary questions and ran the gap
    /// phase.
    pub backend: Backend,
    /// Worker-thread accounting of the run (resolved `--jobs` /
    /// `SPECMATCHER_JOBS`, gap-phase fan-out, fixpoint concurrency).
    pub jobs: dic_core::JobsStats,
    /// Per-phase engine counter deltas, when the run was traced
    /// (`dic_trace` enabled); `None` keeps the historical JSON shape.
    pub counters: Option<dic_core::PhaseCounters>,
    /// The bounded-refutation mode of the run (`--bmc`).
    pub bmc: BmcMode,
    /// The gap fingerprint: every reported gap property, rendered in
    /// report order ([`gap_fingerprint`]). The determinism contract says
    /// this list is byte-identical across `--bmc` modes, backends and
    /// `--jobs` counts; CI diffs it between nightly lanes.
    pub gap_fingerprint: Vec<String>,
}

/// The ordered gap-property fingerprint of a run: for every architectural
/// property, each reported gap property's formula rendered against the
/// design's signal table. Two runs with equal fingerprints reported the
/// same gap content in the same order — the byte-identity CI pins across
/// `--bmc on/off`, backends, and worker counts.
pub fn gap_fingerprint(run: &CoverageRun, table: &SignalTable) -> Vec<String> {
    run.properties
        .iter()
        .flat_map(|p| {
            p.gap_properties
                .iter()
                .map(|g| format!("{}: {}", p.name, g.formula.display(table)))
        })
        .collect()
}

/// Where `specmatcher table1 --json` writes its machine-readable row dump;
/// CI uploads it as the nightly benchmark trajectory artifact.
pub const BENCH_TABLE1_PATH: &str = "BENCH_table1.json";

/// Automaton accounting for one spec conjunct: its name and the pre/post
/// sizes of the reduction pipeline ([`dic_automata::translation_reduction`]).
#[derive(Clone, Debug)]
pub struct ConjunctReduction {
    /// Property name (`R1`, …) or `!<name>` for a negated intent.
    pub name: String,
    /// Pre/post automaton sizes.
    pub stats: dic_automata::ReductionStats,
}

pub use dic_automata::code_bits;

/// Pre/post reduction accounting for every spec conjunct of a design:
/// each RTL property and the negation of each architectural property —
/// exactly the automata the primary and gap products are built from.
pub fn design_reductions(design: &Design) -> Vec<ConjunctReduction> {
    let mut out: Vec<ConjunctReduction> = design
        .rtl
        .properties()
        .iter()
        .map(|p| ConjunctReduction {
            name: p.name().to_owned(),
            stats: dic_automata::translation_reduction(p.formula()),
        })
        .collect();
    for p in design.arch.properties() {
        let neg = Ltl::not(p.formula().clone());
        out.push(ConjunctReduction {
            name: format!("!{}", p.name()),
            stats: dic_automata::translation_reduction(&neg),
        });
    }
    out
}

/// Renders the `BENCH_table1.json` document: per design, the measured
/// phase wall times and the pre/post-reduction automaton sizes (states,
/// transitions, acceptance sets, symbolic code bits) of every spec
/// conjunct, plus per-design totals.
pub fn bench_table1_json(
    requested: Backend,
    rows: &[(TableRow, Vec<ConjunctReduction>)],
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"schema\":\"specmatcher-bench-table1/1\",\"requested_backend\":\"{requested}\",\
         \"designs\":["
    );
    for (i, (row, conjuncts)) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"rtl_properties\":{},\"primary_backend\":\"{}\",\
             \"gap_backend\":\"{}\",\"bmc\":\"{}\",\"jobs\":{{\"requested\":{},\
             \"gap_workers\":{},\"gap_fixpoints\":{}}},\"phase_s\":{{\"primary\":{},\
             \"tm_build\":{},\"gap_find\":{}}},",
            row.circuit,
            row.num_rtl,
            row.backend,
            row.backend,
            row.bmc,
            row.jobs.requested,
            row.jobs.gap_workers,
            row.jobs.gap_fixpoints,
            row.primary.as_secs_f64(),
            row.tm_build.as_secs_f64(),
            row.gap_find.as_secs_f64(),
        );
        // The ordered gap fingerprint: what the byte-identity contract
        // quantifies over. The nightly CI lane diffs this list between
        // `--bmc off` and `--bmc auto` documents.
        out.push_str("\"gap_fingerprint\":[");
        for (j, g) in row.gap_fingerprint.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{:?}", g);
        }
        out.push_str("],");
        // Per-phase engine counters ride next to the wall times when the
        // run was traced; untraced runs keep the historical document
        // shape (no "phase_counters" key at all).
        if let Some(c) = &row.counters {
            out.push_str("\"phase_counters\":{");
            for (i, (phase, snap)) in [
                ("primary", &c.primary),
                ("tm_build", &c.tm_build),
                ("gap_find", &c.gap_find),
            ]
            .into_iter()
            .enumerate()
            {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{phase}\":{{");
                for (j, (name, value)) in snap.nonzero().into_iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{name}\":{value}");
                }
                out.push('}');
            }
            out.push_str("},");
        }
        out.push_str("\"automata\":[");
        let mut totals = (0usize, 0usize, 0usize, 0usize); // pre/post states, pre/post bits
        for (j, c) in conjuncts.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let (pre, post) = (c.stats.pre, c.stats.post);
            let (pre_bits, post_bits) = (code_bits(pre.states), code_bits(post.states));
            totals.0 += pre.states;
            totals.1 += post.states;
            totals.2 += pre_bits;
            totals.3 += post_bits;
            let _ = write!(
                out,
                "{{\"conjunct\":\"{}\",\"pre\":{{\"states\":{},\"transitions\":{},\
                 \"acceptance_sets\":{},\"code_bits\":{}}},\"post\":{{\"states\":{},\
                 \"transitions\":{},\"acceptance_sets\":{},\"code_bits\":{}}}}}",
                c.name,
                pre.states,
                pre.transitions,
                pre.acceptance_sets,
                pre_bits,
                post.states,
                post.transitions,
                post.acceptance_sets,
                post_bits,
            );
        }
        let _ = write!(
            out,
            "],\"totals\":{{\"pre_states\":{},\"post_states\":{},\"pre_code_bits\":{},\
             \"post_code_bits\":{}}}}}",
            totals.0, totals.1, totals.2, totals.3
        );
    }
    out.push_str("]}");
    out
}
