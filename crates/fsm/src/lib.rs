//! FSM extraction and Kripke structures for the SpecMatcher toolkit.
//!
//! This crate turns the structural netlists of
//! [`dic_netlist`] into the two semantic objects the paper's method needs:
//!
//! * [`Fsm`] — the explicit finite state machine of a concrete module
//!   (paper Section 3: "Given a RTL model M we extract the Finite State
//!   Machine S_M modeling it"), with optional BDD-backed merging of input
//!   valuations into transition guard cubes. This feeds the `T_M`
//!   construction of Definition 4.
//! * [`Kripke`] — the runs of the composed concrete modules with every
//!   *other* signal left free (inputs re-chosen nondeterministically each
//!   cycle), which is exactly the set of "runs … consistent with the
//!   concrete modules" of Definition 1. The model checker explores it
//!   on the fly.
//!
//! # Example
//!
//! ```
//! use dic_logic::{BoolExpr, SignalTable};
//! use dic_netlist::ModuleBuilder;
//! use dic_fsm::{extract_fsm, Kripke};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's Example 3 / Fig. 5: an AND gate feeding a latch.
//! let mut t = SignalTable::new();
//! let mut b = ModuleBuilder::new("simple", &mut t);
//! let a = b.input("a");
//! let bb = b.input("b");
//! b.latch("c", BoolExpr::and([BoolExpr::var(a), BoolExpr::var(bb)]), false);
//! let m = b.finish()?;
//!
//! let fsm = extract_fsm(&m, &t, true)?;
//! assert_eq!(fsm.num_states(), 2);        // c=0 and c=1
//! // Merged guards: per state, `a & b` plus the two-cube cover of !(a & b).
//! assert_eq!(fsm.num_transitions(), 6);
//!
//! let k = Kripke::from_module(&m, &t, &[])?;
//! assert_eq!(k.num_states(), 8);          // 1 latch bit x 2 input bits
//! # Ok(())
//! # }
//! ```

pub mod error;
pub mod fsm;
pub mod kripke;

pub use error::FsmError;
pub use fsm::{extract_fsm, Fsm, FsmTransition};
pub use kripke::{Kripke, StateId, KRIPKE_BIT_LIMIT};
