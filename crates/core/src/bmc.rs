//! Bounded-refutation tier configuration: the `--bmc` mode and the
//! `SPECMATCHER_BMC_DEPTH` override.
//!
//! The tier itself lives in `dic_sat`; this module owns *when* it runs.
//! Every closure fixpoint of Algorithm 1 — the candidate verification of
//! [`find_gap`](crate::find_gap) and the [`closes_gap`](crate::closes_gap)
//! checks, on both engines — dispatches through the closure query of the
//! model's gap-engine handle; with
//! [`BmcMode::Auto`] that chokepoint first asks the SAT tier for a
//! `k`-bounded refuting lasso and only falls through to the unbounded
//! fixpoint engines on UNSAT/unknown. Because SAT answers are re-verified
//! runs and UNSAT proves nothing, verdicts — and therefore the reported
//! gap-property sets — are byte-identical across modes.
//!
//! `Auto` only fires when the model's resolved engine is symbolic: explicit
//! fixpoints cost milliseconds on the models that fit them, less than one
//! unrolled SAT query, so fronting them would be pure overhead (measured:
//! mal-ex2 2.4× slower with an ungated tier, mal-26 ~17% faster with the
//! gated one).

use dic_sat::DEFAULT_BMC_DEPTH;
use std::fmt;

/// Largest accepted `SPECMATCHER_BMC_DEPTH`: past a few hundred steps the
/// unrolled CNF stops being the *cheap* tier and the unbounded engines win
/// outright, so a huge depth is treated as a configuration error rather
/// than honored.
pub const MAX_BMC_DEPTH: usize = 256;

/// Whether the bounded SAT refutation tier runs ahead of the closure
/// fixpoints (the CLI's `--bmc`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BmcMode {
    /// Never consult the SAT tier; every closure query goes straight to
    /// the fixpoint engines. This is the reference behavior the `auto`
    /// mode must match byte-for-byte.
    Off,
    /// Try a `k`-bounded refutation first (default `k` =
    /// [`DEFAULT_BMC_DEPTH`], overridable via `SPECMATCHER_BMC_DEPTH`),
    /// falling through to the fixpoint engines when the bound is
    /// inconclusive. Fires only ahead of *symbolic* closure fixpoints —
    /// explicit ones are already cheaper than a bounded query (see the
    /// module docs).
    #[default]
    Auto,
}

impl BmcMode {
    /// Parses a CLI-style mode name.
    pub fn parse(s: &str) -> Option<BmcMode> {
        match s {
            "off" => Some(BmcMode::Off),
            "auto" => Some(BmcMode::Auto),
            _ => None,
        }
    }
}

impl fmt::Display for BmcMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BmcMode::Off => "off",
            BmcMode::Auto => "auto",
        })
    }
}

/// Strict parse of the `SPECMATCHER_BMC_DEPTH` unroll-depth override:
/// unset means "no override" (`Ok(None)`), an integer in
/// `1..=`[`MAX_BMC_DEPTH`] wins, and anything else — empty, zero, huge,
/// garbage — is rejected with a message naming the variable, mirroring
/// the fail-closed [`jobs_from_env`](crate::backend::jobs_from_env)
/// contract. Entry points validate this before building a model so a typo
/// surfaces as a usage error instead of a silently defaulted depth;
/// library paths that merely *read* the setting treat errors as "no
/// override".
pub fn bmc_depth_from_env() -> Result<Option<usize>, String> {
    let Ok(v) = std::env::var("SPECMATCHER_BMC_DEPTH") else {
        return Ok(None);
    };
    match v.parse::<usize>() {
        Ok(n) if (1..=MAX_BMC_DEPTH).contains(&n) => Ok(Some(n)),
        _ => Err(format!(
            "invalid SPECMATCHER_BMC_DEPTH {v:?}: expected an unroll depth in 1..={MAX_BMC_DEPTH}"
        )),
    }
}

/// The unroll depth the tier runs at: the environment override when set
/// and valid, [`DEFAULT_BMC_DEPTH`] otherwise (entry points have already
/// rejected invalid settings fail-closed; see [`bmc_depth_from_env`]).
pub fn effective_bmc_depth() -> usize {
    match bmc_depth_from_env() {
        Ok(Some(n)) => n,
        _ => DEFAULT_BMC_DEPTH,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        for m in [BmcMode::Off, BmcMode::Auto] {
            assert_eq!(BmcMode::parse(&m.to_string()), Some(m));
        }
        assert_eq!(BmcMode::parse("on"), None);
        assert_eq!(BmcMode::parse(""), None);
        assert_eq!(BmcMode::default(), BmcMode::Auto);
    }

    // The env-var parse itself is pinned end to end in tests/cli.rs (the
    // specmatcher binary) and crates/bench/tests/table1_cli.rs (the bench
    // binary); mutating the process environment from unit tests would
    // race the rest of the parallel suite.
}
