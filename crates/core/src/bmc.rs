//! Bounded-refutation tier configuration: the `--bmc` mode.
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

use std::fmt;

/// Whether the bounded SAT refutation tier runs ahead of the closure
/// fixpoints (the CLI's `--bmc`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BmcMode {
    /// Never consult the SAT tier; every closure query goes straight to
    /// the fixpoint engines. This is the reference behavior the `auto`
    /// mode must match byte-for-byte.
    Off,
    /// Try a `k`-bounded refutation first (`k` =
    /// [`dic_sat::DEFAULT_BMC_DEPTH`]), falling through to the fixpoint
    /// engines when the bound is inconclusive. Fires only ahead of
    /// *symbolic* closure fixpoints — explicit ones are already cheaper
    /// than a bounded query (see the module docs).
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
}
