//! The designs evaluated by the paper, rebuilt as runnable fixtures.
//!
//! Each submodule packages a complete coverage problem — a
//! [`SignalTable`], an architectural intent, an RTL
//! spec (properties + concrete modules) — ready to feed into
//! [`dic_core::SpecMatcher`]:
//!
//! * [`mal`] — the Memory Arbitration Logic of the paper's Figures 2–4:
//!   [`mal::ex1`] (coverage holds), [`mal::ex2`] (the rewired variant with
//!   a genuine coverage gap, Example 2), and the family [`mal::mal`]`(k)`
//!   of `k`-requester versions, k = 2..=6, named by property count:
//!   mal-11, mal-18, mal-26, mal-35 and mal-45. [`mal::mal26`], the
//!   four-requester member, is the one measured in Table 1.
//! * [`simple`] — the one-latch model of Example 3 / Figure 5, used to
//!   demonstrate `T_M` extraction.
//! * [`amba`] — a simplified ARM AMBA AHB subsystem: fixed-priority
//!   arbiter given as RTL, masters and slave described by 29 properties
//!   (the Table 1 "ARM AMBA AHB" row).
//! * [`pipeline`] — a synthetic pipelined memory-port controller with 12
//!   RTL properties standing in for the proprietary "Intel Design" row of
//!   Table 1 (see DESIGN.md for the substitution rationale).
//! * [`scaling`] — parameterized latch chains for the state-explosion
//!   experiments discussed in the paper's Section 5.

pub mod amba;
pub mod mal;
pub mod pipeline;
pub mod scaling;
pub mod simple;

use dic_core::{ArchSpec, RtlSpec};
use dic_logic::SignalTable;

/// A packaged coverage problem: everything `SpecMatcher::check` needs.
#[derive(Debug)]
pub struct Design {
    /// Short identifier (used by the CLI and the benchmark tables).
    pub name: &'static str,
    /// The shared signal table.
    pub table: SignalTable,
    /// The architectural intent `A`.
    pub arch: ArchSpec,
    /// The RTL specification (properties `R` + concrete modules).
    pub rtl: RtlSpec,
}

impl Design {
    /// Convenience: run the full SpecMatcher pipeline on this design.
    ///
    /// # Errors
    ///
    /// Propagates [`dic_core::CoreError`] from model construction.
    pub fn check(
        &self,
        matcher: &dic_core::SpecMatcher,
    ) -> Result<dic_core::CoverageRun, dic_core::CoreError> {
        matcher.check(&self.arch, &self.rtl, &self.table)
    }
}

/// All Table 1 designs, in the paper's row order.
pub fn table1_designs() -> Vec<Design> {
    vec![
        mal::mal26(),
        pipeline::pipeline12(),
        amba::ahb29(),
        mal::ex2(), // "Paper Ex. (Fig 1)" — the toy example of the paper
    ]
}
