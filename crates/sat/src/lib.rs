//! Bounded SAT refutation for the SpecMatcher design-intent-coverage
//! toolkit.
//!
//! The gap phase of the paper's Algorithm 1 spends most of its wall time
//! rejecting closure candidates whose counterexamples live at shallow
//! depth — each rejection paid for with a full Emerson–Lei fixpoint or an
//! explicit product search. This crate provides the cheap tier in front of
//! both: a from-scratch incremental **CDCL SAT solver** ([`Solver`]) and a
//! **bounded lasso encoder** ([`bounded_lasso`]) that unrolls the netlist
//! transition relation and the conjunct automata `k` steps and asks for an
//! ultimately periodic run within that bound. A [`BmcSession`] keeps one
//! such unrolling alive across many candidate queries against a shared
//! base conjunction, each candidate behind its own activation literal.
//!
//! The tier is *refutation-only*: a SAT answer is a genuine run (it is
//! re-settled through the netlist evaluator and re-verified with the
//! word-level LTL semantics before being trusted), while UNSAT proves
//! nothing and falls through to the unbounded engines. That asymmetry is
//! what keeps the reported gap-property sets byte-identical whether the
//! tier runs or not — see `DESIGN.md` §"Bounded refutation tier".
//!
//! Everything here is dependency-free and deterministic: watched-literal
//! propagation with blocker literals, first-UIP learning with recursive
//! clause minimization, VSIDS-style decay with ties broken by variable
//! index, phase saving, and a fixed conflict budget per query. A retired
//! candidate's variables become non-decision variables, so later queries
//! never branch on them; the solver stays a deterministic function of
//! its call sequence.
//!
//! # Example
//!
//! ```
//! use dic_logic::SignalTable;
//! use dic_ltl::Ltl;
//! use dic_netlist::ModuleBuilder;
//! use dic_sat::bounded_lasso;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut t = SignalTable::new();
//! let mut b = ModuleBuilder::new("glue", &mut t);
//! let a = b.input("a");
//! let q = b.latch_from("q", a, false);
//! b.mark_output(q);
//! let m = b.finish()?;
//!
//! let f = Ltl::parse("F q", &mut t)?;
//! let word = bounded_lasso(&m, &t, &[], &[f.clone()], 8).expect("reachable");
//! assert!(f.holds_on(&word));
//! # Ok(())
//! # }
//! ```

pub mod bmc;
pub mod cnf;
pub mod solver;

pub use bmc::{bounded_lasso, BmcSession, BMC_CONFLICT_BUDGET, BMC_VAR_LIMIT, DEFAULT_BMC_DEPTH};
pub use cnf::{Cnf, SatLit, Var};
pub use solver::{SatResult, Solver, SolverStats};
