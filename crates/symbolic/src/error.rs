//! Error type for the symbolic engine.

use std::error::Error;
use std::fmt;

/// Errors produced while building or exploring symbolic models.
///
/// Mirrors the fail-closed philosophy of `dic_fsm::FsmError`: when a
/// BDD-based analysis would exceed its resource budget, the engine refuses
/// with an error instead of degrading into swap-thrashing — the caller can
/// retry with a larger limit, a different backend, or report the model as
/// out of reach.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SymbolicError {
    /// The BDD manager grew past the configured node budget.
    ///
    /// `BddManager` collects garbage only at rebuilds and memoizes every
    /// operation, so node count plus cache entries is a faithful proxy for
    /// its memory footprint; this error is raised between fixpoint steps,
    /// never mid-operation, so the manager is left in a consistent state.
    NodeLimit {
        /// Live BDD nodes at the time of the check.
        nodes: usize,
        /// Entries across the operation memo tables.
        cache_entries: usize,
        /// The configured limit on `nodes`.
        limit: usize,
    },
    /// The cooperative wall-clock deadline (`--timeout`, armed through
    /// `dic_fault`) expired at a fixpoint-step or node-budget checkpoint. Like `NodeLimit`, this is
    /// raised *between* steps, never mid-operation, so the manager stays
    /// consistent; the pipeline treats it as a degradable refusal and
    /// reports what it settled before the trip.
    Deadline,
    /// The `SPECMATCHER_BDD_NODE_LIMIT` environment variable is set to
    /// something that is not a node count. Refusing beats silently falling
    /// back to the default the user was trying to replace.
    InvalidNodeLimit {
        /// The offending value, verbatim.
        value: String,
    },
    /// A formula mentions a signal the model neither drives nor declares
    /// free, so the engine cannot assign it a meaning.
    ///
    /// `dic_core::CoverageModel` prevents this by construction (every
    /// property atom is driven or declared free); standalone users must
    /// pass such signals as `extra_free`.
    UnknownSignal {
        /// Name of the offending signal.
        name: String,
    },
}

impl fmt::Display for SymbolicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SymbolicError::NodeLimit {
                nodes,
                cache_entries,
                limit,
            } => write!(
                f,
                "symbolic state space too large: {nodes} BDD nodes \
                 (+{cache_entries} cache entries) exceeds the node limit of {limit}"
            ),
            SymbolicError::Deadline => write!(
                f,
                "deadline exceeded during symbolic analysis (cooperative \
                 checkpoint between fixpoint steps)"
            ),
            SymbolicError::InvalidNodeLimit { value } => write!(
                f,
                "invalid SPECMATCHER_BDD_NODE_LIMIT value {value:?}: expected a \
                 positive node count, optionally with a K or M suffix (e.g. 96M)"
            ),
            SymbolicError::UnknownSignal { name } => write!(
                f,
                "signal {name} is neither driven by the model nor declared free; \
                 pass it in extra_free to make it a nondeterministic input"
            ),
        }
    }
}

impl Error for SymbolicError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_limit() {
        let e = SymbolicError::NodeLimit {
            nodes: 10,
            cache_entries: 3,
            limit: 5,
        };
        let msg = e.to_string();
        assert!(msg.contains("10 BDD nodes"));
        assert!(msg.contains("limit of 5"));
        let u = SymbolicError::UnknownSignal { name: "x".into() };
        assert!(u.to_string().contains("x"));
    }
}
