//! Example 3 / Figure 5: the simple AND-latch model.
//!
//! `M` has inputs `a`, `b` and output `c`, with `c` latched from `a & b`
//! and reset to 0. The paper extracts its FSM (two states) and derives
//!
//! ```text
//! TM = (!c) & G( !c&a&b&c' | !c&!(a&b)&!c' | c&a&b&c' | c&!(a&b)&!c' )
//! ```
//!
//! where `c'` is the next-state variable — i.e. `X c` in LTL.

use dic_logic::{BoolExpr, SignalTable};
use dic_netlist::{Module, ModuleBuilder};

/// Builds the Fig. 5 model and its signal table.
pub fn model() -> (SignalTable, Module) {
    let mut t = SignalTable::new();
    let mut b = ModuleBuilder::new("simple", &mut t);
    let a = b.input("a");
    let bb = b.input("b");
    let c = b.latch(
        "c",
        BoolExpr::and([BoolExpr::var(a), BoolExpr::var(bb)]),
        false,
    );
    b.mark_output(c);
    let m = b.finish().expect("the Fig. 5 model is a valid netlist");
    (t, m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dic_core::tm::{enumerated_tm, relational_tm};
    use dic_fsm::extract_fsm;
    use dic_ltl::Ltl;

    #[test]
    fn fsm_matches_figure5() {
        let (t, m) = model();
        let fsm = extract_fsm(&m, &t).expect("small");
        assert_eq!(fsm.num_states(), 2);
        // Initial state (state 0) is !c.
        let c = t.lookup("c").unwrap();
        assert_eq!(fsm.state_cube(0).polarity_of(c), Some(false));
    }

    #[test]
    fn tm_equals_paper_formula() {
        // The paper's minimized TM, written with X c for c'.
        let (t, m) = model();
        let mut t2 = t.clone();
        let paper = Ltl::parse(
            "!c & G( (!c & a & b & X c) | (!c & !(a & b) & X !c) \
               | (c & a & b & X c) | (c & !(a & b) & X !c) )",
            &mut t2,
        )
        .expect("parse");
        for tm in [relational_tm(&m), enumerated_tm(&m, &t).expect("small")] {
            // tm and the paper formula accept the same runs.
            assert!(
                dic_automata::implies(&tm, &paper),
                "our TM admits a run the paper's TM rejects"
            );
            assert!(
                dic_automata::implies(&paper, &tm),
                "the paper's TM admits a run our TM rejects"
            );
        }
    }
}
