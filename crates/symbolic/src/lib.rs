//! **Symbolic model checking backend** for design intent coverage.
//!
//! The explicit-state engine (`dic_fsm::Kripke` + `dic_automata`) is
//! faithful to the paper but enumerates every latch×input valuation, which
//! dies around twenty state bits. This crate answers the *same* existential
//! LTL queries — "is there a run of the concrete modules satisfying
//! `R ∧ ¬A`?" (Theorem 1) — without ever materializing a state:
//!
//! * [`SymbolicModel`] encodes a netlist's transition relation directly as
//!   BDDs over current/next/input variable banks, with combinational wires
//!   substituted as functions;
//! * [`SymbolicModel::satisfiable_conj`] encodes the generalized Büchi
//!   product symbolically, runs forward reachability and an Emerson–Lei
//!   fair-cycle fixpoint, and extracts replayable lasso counterexamples —
//!   the same [`dic_ltl::LassoWord`] contract as the explicit engine;
//! * [`SymbolicError`] mirrors `dic_fsm::FsmError`'s fail-closed
//!   philosophy: past the configured BDD [node budget](SymbolicOptions)
//!   the engine refuses rather than degrades.
//!
//! `dic_core` selects between the engines via its `Backend` enum; this
//! crate has no opinion on *when* to go symbolic, only *how*.
//!
//! # Example
//!
//! ```
//! use dic_logic::SignalTable;
//! use dic_ltl::Ltl;
//! use dic_netlist::parse_snl;
//! use dic_symbolic::{SymbolicModel, SymbolicOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut t = SignalTable::new();
//! let m = parse_snl(
//!     "module glue\n input a\n output q\n latch q = a init 0\nendmodule\n",
//!     &mut t,
//! )?.remove(0);
//! let req = t.intern("req");
//!
//! let mut sym = SymbolicModel::from_module(&m, &t, &[req], SymbolicOptions::default())?;
//! // q rises exactly one cycle after a: a ∧ X ¬q is impossible…
//! let f = Ltl::parse("a & X !q", &mut t)?;
//! assert!(sym.satisfiable_conj(&[f])?.is_none());
//! // …but a ∧ X q happens, with a replayable witness.
//! let g = Ltl::parse("a & X q", &mut t)?;
//! let w = sym.satisfiable_conj(&[g.clone()])?.expect("satisfiable");
//! assert!(g.holds_on(&w));
//! # Ok(())
//! # }
//! ```

pub mod check;
pub mod error;
pub mod model;
pub mod terms;

pub use error::SymbolicError;
pub use model::{
    PartitionMode, ReorderMode, ReorderStats, SymbolicModel, SymbolicOptions, DEFAULT_CLUSTER_SIZE,
    DEFAULT_NODE_LIMIT, REORDER_FIRST_TRIGGER,
};
