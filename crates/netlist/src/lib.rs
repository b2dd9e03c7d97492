//! Structural RTL for the SpecMatcher design-intent-coverage toolkit.
//!
//! The paper's *concrete modules* — glue logic and pre-verified cells given
//! as RTL rather than as properties — are represented here as synchronous
//! netlists:
//!
//! * [`Module`] — named blocks of [`Wire`]s (combinational functions) and
//!   [`Latch`]es (D-type state elements with reset values), built either
//!   programmatically through [`ModuleBuilder`] or parsed from the tiny
//!   structural **SNL** text format ([`parse_snl`]),
//! * [`Module::compose`] — structural composition by signal-name identity,
//!   realizing the paper's "module M consisting of M1, …, Mk",
//! * [`Simulator`] / [`Trace`] — a cycle-accurate two-valued simulator with
//!   ASCII waveform rendering, used to regenerate the paper's Figure 3
//!   timing diagrams.
//!
//! # Example
//!
//! ```
//! use dic_logic::SignalTable;
//! use dic_netlist::{ModuleBuilder, Simulator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut t = SignalTable::new();
//! // M1 of the paper's Fig. 2: grant masking by the cache wait signal.
//! let mut b = ModuleBuilder::new("M1", &mut t);
//! let n1 = b.input("n1");
//! let wait = b.input("wait");
//! let g1 = b.and_gate("g1", [n1], [wait]); // g1 = n1 & !wait
//! b.mark_output(g1);
//! let m1 = b.finish()?;
//!
//! let mut sim = Simulator::new(&m1, &t)?;
//! let out = sim.step(&[(n1, true), (wait, false)]);
//! assert!(out.get(g1));
//! # Ok(())
//! # }
//! ```

pub mod error;
pub mod module;
pub mod sim;
pub mod snl;

pub use error::NetlistError;
pub use module::{Latch, Module, ModuleBuilder, Wire};
pub use sim::{Simulator, Trace};
pub use snl::parse_snl;
