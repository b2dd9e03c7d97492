//! Error type for the coverage pipeline.

use dic_fsm::FsmError;
use dic_netlist::NetlistError;
use dic_symbolic::SymbolicError;
use std::error::Error;
use std::fmt;

/// Errors produced by the coverage analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CoreError {
    /// Composing the concrete modules failed.
    Netlist(NetlistError),
    /// The composed model is too large for explicit exploration.
    Fsm(FsmError),
    /// The symbolic engine exceeded its resource budget (or was handed a
    /// signal it cannot interpret).
    Symbolic(SymbolicError),
    /// An environment override (`SPECMATCHER_JOBS`) failed its strict
    /// parse. Fail-closed
    /// like the CLI's flag errors: a typo must not silently select a
    /// default.
    InvalidEnv(String),
    /// The paper's Assumption 1 (`AP_A ⊆ AP_R`) is violated: an
    /// architectural signal is neither constrained by an RTL property nor
    /// present in any concrete module, so no decomposition can ever cover
    /// behaviors of that signal.
    UnknownArchSignal {
        /// Name of the offending signal.
        name: String,
    },
    /// The automata for an intent and the RTL properties could need more
    /// generalized acceptance sets (one per `Until` subformula) than the
    /// engines can pack: more than
    /// [`MAX_ACCEPTANCE_SETS`](crate::MAX_ACCEPTANCE_SETS).
    TooManyAcceptanceSets {
        /// The property contributing the most sets.
        property: String,
        /// Its contribution.
        property_sets: u32,
        /// The intent whose automata would overflow.
        intent: String,
        /// The bound for that intent's automata and products.
        sets: u32,
    },
}

impl CoreError {
    /// Whether the pipeline may *degrade* on this error instead of
    /// aborting: resource refusals (state-space and node-budget limits)
    /// and cooperative deadline trips stop cleanly between steps, so the
    /// run can keep every verdict settled before them and report the rest
    /// as unknown. Configuration and spec errors (`InvalidEnv`,
    /// `UnknownArchSignal`, `TooManyAcceptanceSets`, netlist failures)
    /// stay fatal — there is nothing partial about a run that was never valid.
    pub fn is_degradable(&self) -> bool {
        matches!(
            self,
            CoreError::Fsm(_)
                | CoreError::Symbolic(SymbolicError::NodeLimit { .. } | SymbolicError::Deadline)
        )
    }

    /// Whether this error is a cooperative deadline trip — the signal for
    /// the gap scan to stop outright (later candidates would trip too)
    /// rather than mark one candidate unknown and continue.
    pub fn is_deadline(&self) -> bool {
        matches!(
            self,
            CoreError::Fsm(FsmError::Deadline) | CoreError::Symbolic(SymbolicError::Deadline)
        )
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // A deadline trip is not an engine failure: it reads
            // `deadline exceeded …` whichever engine noticed it, so a
            // partial report's `incomplete:` line starts the same way
            // wherever the deadline landed.
            CoreError::Fsm(e @ FsmError::Deadline) => write!(f, "{e}"),
            CoreError::Symbolic(e @ SymbolicError::Deadline) => write!(f, "{e}"),
            CoreError::Netlist(e) => write!(f, "netlist error: {e}"),
            CoreError::Fsm(e) => write!(f, "state-space error: {e}"),
            CoreError::Symbolic(e) => write!(f, "symbolic-engine error: {e}"),
            CoreError::InvalidEnv(msg) => write!(f, "invalid environment option: {msg}"),
            CoreError::UnknownArchSignal { name } => write!(
                f,
                "architectural signal {name} does not appear in the RTL specification \
                 (Assumption 1 requires AP_A to be a subset of AP_R)"
            ),
            CoreError::TooManyAcceptanceSets {
                property,
                property_sets,
                intent,
                sets,
            } => write!(
                f,
                "too many Until subformulas: the automata for intent {intent} could need \
                 {sets} acceptance sets (one per Until), above the limit of {}; property \
                 {property} alone contributes {property_sets}",
                crate::MAX_ACCEPTANCE_SETS
            ),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Netlist(e) => Some(e),
            CoreError::Fsm(e) => Some(e),
            CoreError::Symbolic(e) => Some(e),
            CoreError::InvalidEnv(_) => None,
            CoreError::UnknownArchSignal { .. } | CoreError::TooManyAcceptanceSets { .. } => None,
        }
    }
}

impl From<SymbolicError> for CoreError {
    fn from(e: SymbolicError) -> Self {
        CoreError::Symbolic(e)
    }
}

impl From<NetlistError> for CoreError {
    fn from(e: NetlistError) -> Self {
        CoreError::Netlist(e)
    }
}

impl From<FsmError> for CoreError {
    fn from(e: FsmError) -> Self {
        CoreError::Fsm(e)
    }
}
