//! Backend selection: explicit-state vs symbolic model checking.

use crate::spec::{ArchSpec, RtlSpec};
use std::fmt;

/// Number of state bits (latches + nondeterministic inputs) above which
/// [`Backend::Auto`] switches the model to the symbolic engine.
///
/// Below this the explicit engine's cache-friendly enumeration wins (its
/// product graphs have a few thousand nodes); above it the `2^bits`
/// state×input enumeration starts to dominate everything else in the
/// pipeline while BDD sizes stay polynomial for typical control logic.
/// The crossover was measured on the packaged designs: mal-26 (17 bits)
/// drops from ~45 s explicit to well under a second symbolically, while
/// the small fixtures (≤ 10 bits) stay fastest explicit.
pub const AUTO_SYMBOLIC_BITS: usize = 14;

/// Predicted product cost (total automaton code bits × conjunct count,
/// see [`predicted_product_cost`]) above which [`Backend::Auto`] prefers
/// the symbolic engine even for a *small* state space.
///
/// State bits are only one axis of the real cost: the explicit engine
/// explores the on-the-fly product of the design with *every* property
/// automaton, so a sufficiently wide conjunction over a small design can
/// be explicit-hostile on width alone. The crossover is re-derived from
/// **post-reduction** automaton sizes (the automaton reduction pipeline
/// shrinks every product, but it shrinks the explicit engine's
/// per-candidate closure products the most): amba-ahb — 7 state bits, 29
/// conjuncts, post-reduction cost ≈ 1980 — runs its full explicit gap
/// phase in ~8 s. The complement-edge BDD core (anchored primary
/// products, partitioned relations, budget-scale reorder trigger) cut
/// the same design's forced-symbolic run from ~230 s to ~40 s, but
/// explicit still wins by ~5×, so the threshold stays above amba-ahb
/// (pre-reduction it was 800, which sent amba-ahb symbolic). The cost
/// axis still guards genuinely wider suites; within Table 1 the
/// state-bit axis ([`AUTO_SYMBOLIC_BITS`], mal-26's trigger) is the
/// live one. As with every crossover constant here, n=4: the packaged
/// designs are the only tuning set, so treat the margin as coarse.
pub const AUTO_SYMBOLIC_PRODUCT_COST: usize = 2600;

/// The product-size axis of the [`Backend::Auto`] crossover: total
/// automaton code bits × conjunct count, maximized over the architectural
/// properties (each property's primary/gap queries run against
/// `R ∧ ¬fa`). The sizes are those of the *reduced* automata — the
/// translations go through [`dic_automata::translate_cached`], i.e. the
/// full reduction pipeline — and are memoized process-wide, so the
/// engines reuse them when they encode the very same automata later.
pub fn predicted_product_cost(arch: &ArchSpec, rtl: &RtlSpec) -> usize {
    let code_bits = |f: &dic_ltl::Ltl| -> usize {
        dic_automata::code_bits(dic_automata::translate_cached(f).num_states())
    };
    let rtl_bits: usize = rtl.formulas().iter().map(code_bits).sum();
    let conjuncts = rtl.formulas().len() + 1;
    arch.properties()
        .iter()
        .map(|p| (rtl_bits + code_bits(&dic_ltl::Ltl::not(p.formula().clone()))) * conjuncts)
        .max()
        .unwrap_or(0)
}

/// Which model-checking engine answers the primary coverage question
/// (Theorem 1) and the gap phase's queries (Algorithm 1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Explicit-state enumeration (`dic_fsm::Kripke` + Tarjan emptiness).
    /// Faithful to the paper; refuses models beyond
    /// [`dic_fsm::KRIPKE_BIT_LIMIT`] state bits.
    Explicit,
    /// BDD-based symbolic reachability and fair-cycle detection
    /// (`dic_symbolic`). Handles state spaces the explicit engine cannot;
    /// refuses past its node budget instead.
    Symbolic,
    /// Pick per model, once, when it is built: symbolic past
    /// [`AUTO_SYMBOLIC_BITS`] state bits or [`AUTO_SYMBOLIC_PRODUCT_COST`]
    /// predicted product cost, explicit otherwise. The chosen engine runs
    /// both the primary question and Algorithm 1; a symbolic model may
    /// still build the explicit structure lazily for a per-candidate
    /// retry after a node-budget refusal.
    #[default]
    Auto,
}

impl Backend {
    /// Parses a CLI-style backend name.
    pub fn parse(s: &str) -> Option<Backend> {
        match s {
            "explicit" => Some(Backend::Explicit),
            "symbolic" => Some(Backend::Symbolic),
            "auto" => Some(Backend::Auto),
            _ => None,
        }
    }

    /// How many of `workers` threads can run closure *fixpoints*
    /// concurrently on this backend.
    ///
    /// The explicit engine's per-candidate products are independent
    /// structures, so every worker fixpoints freely. The symbolic
    /// engine's one `BddManager` is single-threaded: its fixpoints
    /// serialize on the engine lock, effectively one at a time — the
    /// workers still overlap the word-level screens and the bounded SAT
    /// queries, and there is no coordinating thread: every worker,
    /// the calling thread included, runs the same claim–verify–merge
    /// loop. Reported in the run's jobs statistics so the serialization
    /// is visible, not silent.
    pub fn fixpoint_parallelism(self, workers: usize) -> usize {
        match self {
            Backend::Symbolic => workers.min(1),
            Backend::Explicit | Backend::Auto => workers,
        }
    }
}

/// Strict parse of the `SPECMATCHER_JOBS` worker-count override: unset
/// means "no override" (`Ok(None)`), a positive integer wins, and
/// anything else — empty, zero, negative, garbage — is rejected with a
/// message naming the variable, mirroring the fail-closed
/// `SPECMATCHER_BDD_NODE_LIMIT` contract. Entry points validate this
/// before building a model so a typo surfaces as a usage error instead
/// of a silently sequential run; library paths that merely *read* the
/// setting treat errors as "no override".
pub fn jobs_from_env() -> Result<Option<usize>, String> {
    let Ok(v) = std::env::var("SPECMATCHER_JOBS") else {
        return Ok(None);
    };
    match v.parse::<usize>() {
        Ok(n) if n > 0 => Ok(Some(n)),
        _ => Err(format!(
            "invalid SPECMATCHER_JOBS {v:?}: expected a positive worker count"
        )),
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Backend::Explicit => "explicit",
            Backend::Symbolic => "symbolic",
            Backend::Auto => "auto",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        for b in [Backend::Explicit, Backend::Symbolic, Backend::Auto] {
            assert_eq!(Backend::parse(&b.to_string()), Some(b));
        }
        assert_eq!(Backend::parse("magic"), None);
        assert_eq!(Backend::default(), Backend::Auto);
    }

    #[test]
    fn symbolic_fixpoints_serialize() {
        assert_eq!(Backend::Explicit.fixpoint_parallelism(4), 4);
        assert_eq!(Backend::Auto.fixpoint_parallelism(4), 4);
        assert_eq!(Backend::Symbolic.fixpoint_parallelism(4), 1);
        assert_eq!(Backend::Symbolic.fixpoint_parallelism(0), 0);
    }
}
