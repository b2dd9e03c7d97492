//! Boolean substrate for the SpecMatcher design-intent-coverage toolkit.
//!
//! This crate provides everything "below temporal logic":
//!
//! * [`SignalTable`] / [`SignalId`] — interned circuit signal names shared by
//!   every other crate in the workspace,
//! * [`Valuation`] — a dense assignment of Boolean values to signals (the
//!   "state as a valuation of the signals" of the paper's Definition 1),
//! * [`Lit`] and [`Cube`] — literals and conjunctions of literals,
//! * [`BoolExpr`] — a Boolean expression AST with an evaluator and a parser,
//! * [`Bdd`] / [`BddManager`] — a reduced ordered binary decision diagram
//!   engine with quantification and irredundant sum-of-products extraction
//!   (used for FSM input-cube merging and for the universal quantification
//!   step 2(b) of the paper's Algorithm 1),
//! * [`hashing`] — [`FastMap`](hashing::FastMap)/[`FastSet`](hashing::FastSet),
//!   the fixed multiplicative hasher behind the BDD unique table and memos
//!   and the other crates' hot tables (keys are program-chosen ids, so
//!   SipHash's flood resistance buys nothing there).
//!
//! # Example
//!
//! ```
//! use dic_logic::{BddManager, BoolExpr, SignalTable};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut sigs = SignalTable::new();
//! let a = sigs.intern("a");
//! let b = sigs.intern("b");
//!
//! let expr = BoolExpr::parse("a & !b | b & !a", &mut sigs)?;
//!
//! let mut man = BddManager::new();
//! let f = man.from_expr(&expr);
//! let va = man.var_for_signal(a);
//! let vb = man.var_for_signal(b);
//! let g = man.xor(va, vb);
//! assert_eq!(f, g); // BDDs are canonical
//! # Ok(())
//! # }
//! ```

pub mod bdd;
pub mod compact;
pub mod cube;
pub mod expr;
pub mod hashing;
pub mod parse;
pub mod signal;
pub mod valuation;

pub use bdd::{Bdd, BddManager, PairingId, VarSetId};
pub use compact::CompactOutcome;
pub use cube::{Cube, Lit};
pub use expr::BoolExpr;
pub use parse::ParseBoolExprError;
pub use signal::{SignalId, SignalTable};
pub use valuation::Valuation;
