//! Error type for FSM extraction.

use std::error::Error;
use std::fmt;

/// Errors produced while extracting FSMs or building Kripke structures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FsmError {
    /// The explicit state space would be too large to enumerate.
    ///
    /// The paper is explicit that the method targets *small* RTL blocks
    /// ("the proposed method should not be viewed as a new way to do model
    /// checking"), so the extractor refuses instead of thrashing.
    TooLarge {
        /// Number of latch bits in the module.
        state_bits: usize,
        /// Number of free input bits.
        input_bits: usize,
        /// The configured limit on `state_bits + input_bits`.
        limit: usize,
    },
    /// The cooperative wall-clock deadline (`--timeout`, armed through
    /// `dic_fault`) expired at an expansion-batch checkpoint. The run degrades instead of thrashing:
    /// the caller reports what it settled before the trip.
    Deadline,
}

impl fmt::Display for FsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsmError::TooLarge {
                state_bits,
                input_bits,
                limit,
            } => write!(
                f,
                "state space too large: {state_bits} latch bits + {input_bits} input bits \
                 exceeds the explicit-enumeration limit of {limit} total bits"
            ),
            FsmError::Deadline => write!(
                f,
                "deadline exceeded during explicit-state enumeration \
                 (cooperative checkpoint between expansion batches)"
            ),
        }
    }
}

impl Error for FsmError {}
