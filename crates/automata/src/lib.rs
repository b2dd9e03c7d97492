//! LTL model checking for the SpecMatcher design-intent-coverage toolkit.
//!
//! The paper reduces every question it asks — the primary coverage question
//! of Theorem 1 (`¬A ∧ R` false in `M`?), gap-closure checks, property
//! strength comparisons (Definition 2) — to "is this LTL formula satisfiable
//! within this model?". This crate provides that engine, built from scratch:
//!
//! * [`translate`] — the GPVW on-the-fly tableau construction (Gerth,
//!   Peled, Vardi, Wolper 1995) from LTL to a generalized Büchi automaton
//!   ([`Gba`]),
//! * [`TransitionSystem`] — the interface the checker needs from a model
//!   (implemented by [`dic_fsm::Kripke`] and by [`WordSystem`], a
//!   single-word system used for testing and witness replay),
//! * [`satisfiable_in`] / [`holds_in`] — emptiness of the product with a
//!   Tarjan-SCC check over generalized acceptance, returning lasso-shaped
//!   witnesses ([`dic_ltl::LassoWord`]),
//! * [`is_satisfiable`], [`is_valid`], [`implies`], [`stronger_than`],
//!   [`equivalent`] — pure-formula decisions used by the weakening engine.
//!
//! # Example
//!
//! ```
//! use dic_logic::SignalTable;
//! use dic_ltl::Ltl;
//! use dic_automata::{implies, is_satisfiable, stronger_than};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut t = SignalTable::new();
//! let gp = Ltl::parse("G p", &mut t)?;
//! let fp = Ltl::parse("F p", &mut t)?;
//! assert!(implies(&gp, &fp));
//! assert!(stronger_than(&gp, &fp)); // Definition 2 of the paper
//! assert!(is_satisfiable(&Ltl::parse("G(p -> X q) & p", &mut t)?));
//! assert!(!is_satisfiable(&Ltl::parse("G p & F !p", &mut t)?));
//! # Ok(())
//! # }
//! ```

pub mod degeneralize;
pub mod gba;
pub mod hashing;
pub mod mc;
pub mod ndfs;
pub mod product;
pub mod reduce;
pub mod sat;
pub mod system;

pub use degeneralize::degeneralize;
pub use gba::{code_bits, translate, translate_unreduced, Gba};
pub use reduce::{reduce, reduce_with_stats, ReductionStats};
pub use mc::{
    holds_in, materialize_product, reduction_enabled, satisfiable_in, satisfiable_in_conj,
    satisfiable_in_conj_cached, satisfiable_in_conj_gbas, translate_cached, translation_reduction,
    GbaCache, ProductSystem, Verdict,
};
pub use sat::{
    equivalent, implies, is_satisfiable, is_satisfiable_ndfs, is_valid, stronger_than, witness,
};
pub use system::{TransitionSystem, WordSystem};
