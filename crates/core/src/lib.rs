//! **SpecMatcher core** — design intent coverage with RTL blocks.
//!
//! This crate implements the contribution of *"What lies between Design
//! Intent Coverage and Model Checking?"* (Das, Basu, Dasgupta, Chakrabarti —
//! DATE 2006): given
//!
//! * an **architectural intent** `A` — properties over a module's interface
//!   that the FPV tool cannot check directly ([`ArchSpec`]),
//! * an **RTL specification** — properties `R` over some submodules plus
//!   the actual RTL of the remaining *concrete modules* ([`RtlSpec`]),
//!
//! decide whether the RTL specification **covers** the intent, and when it
//! does not, present the **coverage gap** as properties a designer can read
//! next to the originals:
//!
//! 1. [`primary_coverage`] — Theorem 1: the spec covers the intent iff
//!    `¬A ∧ R` is false in the composition `M` of the concrete modules.
//! 2. [`tm::relational_tm`] / [`tm::enumerated_tm`] — Definition 4: the LTL
//!    formula `T_M` representing exactly the runs of an RTL block.
//! 3. [`exact_hole`] — Theorem 2: the unique weakest property
//!    `RH = A ∨ ¬(R ∧ T_M)` closing the gap.
//! 4. [`uncovered_terms`], [`find_gap`] — Algorithm 1: bounded uncovered
//!    terms, universal quantification to the observable alphabet, pushing
//!    into the parse tree and polarity-aware weakening, yielding
//!    structure-preserving gap properties (the paper's `U`).
//! 5. [`SpecMatcher`] — the end-to-end pipeline with the per-phase timing
//!    breakdown reported in the paper's Table 1.
//!
//! # Quickstart
//!
//! ```
//! use dic_logic::SignalTable;
//! use dic_ltl::Ltl;
//! use dic_netlist::parse_snl;
//! use dic_core::{ArchSpec, GapConfig, RtlSpec, SpecMatcher};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut t = SignalTable::new();
//! // A concrete glue block: q follows a one cycle later.
//! let m = parse_snl(
//!     "module glue\n input a\n output q\n latch q = a init 0\nendmodule\n",
//!     &mut t,
//! )?.remove(0);
//!
//! // Architectural intent: whenever req, q two cycles later.
//! let arch = ArchSpec::new([("A1", Ltl::parse("G(req -> X X q)", &mut t)?)]);
//! // RTL property of the (unmodeled) front stage: req propagates to a.
//! let rtl = RtlSpec::new(
//!     [("R1", Ltl::parse("G(req -> X a)", &mut t)?)],
//!     [m],
//! );
//!
//! let report = SpecMatcher::new(GapConfig::default()).check(&arch, &rtl, &t)?;
//! assert!(report.properties[0].covered);
//! # Ok(())
//! # }
//! ```

pub mod backend;
pub mod error;
pub mod hole;
pub mod intent;
pub mod model;
pub mod pipeline;
pub mod report;
pub mod spec;
pub mod terms;
pub mod tm;
pub mod weaken;

pub use backend::{
    predicted_product_cost, Backend, AUTO_SYMBOLIC_BITS, AUTO_SYMBOLIC_PRODUCT_COST,
};
pub use dic_symbolic::{GcStats, ReorderMode, SymbolicOptions};
pub use error::CoreError;
pub use hole::{closes_gap, closure_witness, exact_hole};
pub use intent::{close_gap_iteratively, uncovered_intent};
pub use model::{BmcMode, CoverageModel};
pub use pipeline::{
    CoverageRun, JobsStats, PhaseCounters, PhaseTimings, PropertyReport, SpecMatcher,
};
pub use spec::{ArchSpec, Property, RtlSpec, MAX_ACCEPTANCE_SETS};
pub use terms::uncovered_terms;
pub use weaken::{find_gap, GapConfig, GapOutcome, GapProperty, UnknownGap};

/// The `SPECMATCHER_*` environment variables the program reads.
/// [`validate_env`] rejects every other `SPECMATCHER_*` name.
const KNOWN_ENV: [&str; 3] = [
    "SPECMATCHER_BDD_NODE_LIMIT",
    "SPECMATCHER_FAULT",
    "SPECMATCHER_JOBS",
];

/// Startup audit of every `SPECMATCHER_*` override with a strict parse:
/// `SPECMATCHER_JOBS`, `SPECMATCHER_BDD_NODE_LIMIT` and
/// `SPECMATCHER_FAULT`. Any other
/// `SPECMATCHER_*` name — a typo, or a retired knob — is rejected too, so
/// it cannot be silently ignored. Returns the first offending setting's
/// message.
///
/// Model construction re-validates these fail-closed, but the library
/// paths that merely *read* them (`GapConfig::effective_jobs`)
/// deliberately swallow garbage and fall back to defaults — safe only
/// because every binary entry point calls this (or builds a model) before
/// any of those reads. Binaries should treat an `Err` as a usage error
/// (exit 2).
///
/// # Errors
///
/// The offending variable's message, naming the variable and the
/// expected form.
pub fn validate_env() -> Result<(), String> {
    let mut unknown: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SPECMATCHER_") && !KNOWN_ENV.contains(&k.as_str()))
        .collect();
    unknown.sort();
    if let Some(name) = unknown.first() {
        return Err(format!(
            "unknown environment variable {name} (known: {})",
            KNOWN_ENV.join(", ")
        ));
    }
    backend::jobs_from_env()?;
    SymbolicOptions::from_env().map_err(|e| e.to_string())?;
    dic_fault::fault_from_env()?;
    Ok(())
}

/// Theorem 1 (primary coverage question): the RTL specification covers the
/// architectural property `fa` iff `¬fa ∧ R` is false in the model of the
/// concrete modules. Returns `Ok(None)` when covered, or the witness run
/// refuting coverage.
///
/// Dispatches to the backend the model was built with (explicit
/// enumeration or symbolic fair-cycle detection); the witness contract is
/// identical either way.
///
/// # Errors
///
/// [`CoreError::Symbolic`] if the symbolic backend exceeds its node budget
/// mid-analysis (the explicit backend cannot fail once built).
pub fn primary_coverage(
    fa: &dic_ltl::Ltl,
    rtl: &RtlSpec,
    model: &CoverageModel,
) -> Result<Option<dic_ltl::LassoWord>, CoreError> {
    model.primary_query_anchored(rtl.formulas(), &dic_ltl::Ltl::not(fa.clone()))
}
