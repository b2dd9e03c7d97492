//! The reachable-latch walk behind `Kripke::from_module` and `extract_fsm`
//! checks the cooperative deadline. This is its own test binary because
//! the deadline is process-global: armed here, it would trip every other
//! test running in the same process.

use dic_fsm::{extract_fsm, FsmError, Kripke};
use dic_logic::{BoolExpr, SignalTable};
use dic_netlist::ModuleBuilder;
use std::time::Duration;

#[test]
fn an_expired_deadline_stops_both_builds() {
    // The paper's Example 3: latch c with next = a & b.
    let mut t = SignalTable::new();
    let mut b = ModuleBuilder::new("simple", &mut t);
    let a = b.input("a");
    let bb = b.input("b");
    b.latch(
        "c",
        BoolExpr::and([BoolExpr::var(a), BoolExpr::var(bb)]),
        false,
    );
    let m = b.finish().expect("valid");

    dic_fault::arm_deadline(Duration::ZERO);
    let kripke = Kripke::from_module(&m, &t, &[]);
    let fsm = extract_fsm(&m, &t);
    dic_fault::disarm_deadline();
    assert_eq!(kripke.err(), Some(FsmError::Deadline));
    assert_eq!(fsm.err(), Some(FsmError::Deadline));

    assert_eq!(
        Kripke::from_module(&m, &t, &[])
            .expect("builds")
            .num_states(),
        8
    );
    assert_eq!(extract_fsm(&m, &t).expect("builds").num_states(), 2);
}
