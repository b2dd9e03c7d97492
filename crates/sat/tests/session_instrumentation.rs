//! Instrumentation contracts of the incremental SAT tier: the fault sites
//! are crossed once per query, and the solver's trace counters receive
//! per-call increments rather than running totals.
//!
//! The fault plan and the trace counters are process-global, so this file
//! holds a single test.

use dic_fault::{FaultKind, FaultPlan, Site};
use dic_logic::SignalTable;
use dic_ltl::Ltl;
use dic_netlist::ModuleBuilder;
use dic_sat::{BmcSession, Cnf, SatLit, SatResult, Solver};

/// Pigeonhole 4 into 3, every "pigeon somewhere" clause guarded by
/// `¬act`: UNSAT under `act` after real conflicts, SAT without it.
fn guarded_pigeonhole() -> (Solver, SatLit) {
    let mut cnf = Cnf::new();
    let p: Vec<Vec<SatLit>> = (0..4)
        .map(|_| (0..3).map(|_| SatLit::pos(cnf.new_var())).collect())
        .collect();
    let act = SatLit::pos(cnf.new_var());
    for row in &p {
        cnf.add_clause(row.iter().copied().chain([act.negated()]));
    }
    for (i, row1) in p.iter().enumerate() {
        for row2 in &p[i + 1..] {
            for (&a, &b) in row1.iter().zip(row2) {
                cnf.add_clause([a.negated(), b.negated()]);
            }
        }
    }
    (Solver::new(cnf), act)
}

#[test]
fn fault_sites_and_counters_are_per_query() {
    let mut t = SignalTable::new();
    let mut b = ModuleBuilder::new("glue", &mut t);
    let a = b.input("a");
    let q = b.latch_from("q", a, false);
    b.mark_output(q);
    let m = b.finish().expect("valid");
    let reachable = Ltl::parse("F q", &mut t).expect("parses");
    let cand = std::slice::from_ref(&reachable);

    // The nth crossing of a site is the nth query's: arming the second
    // crossing degrades exactly the second query, whatever the session
    // encoded or learned before it.
    for site in [Site::BmcEncode, Site::SatSolve] {
        dic_fault::reset_hits();
        dic_fault::arm_fault(FaultPlan {
            site,
            nth: 2,
            kind: FaultKind::SatUnknown,
        });
        let mut session = BmcSession::new(&m, &t, &[], &[], 4);
        let answers: Vec<bool> = (0..3).map(|_| session.query(cand).is_some()).collect();
        dic_fault::disarm_fault();
        assert_eq!(answers, [true, false, true], "{}", site.name());
    }

    // Counters take each call's increments: their total over two calls
    // equals the solver's lifetime count, not the sum of running totals.
    dic_trace::set_enabled(true);
    dic_trace::reset();
    let (mut solver, act) = guarded_pigeonhole();
    assert_eq!(solver.solve_assuming(&[act], None), SatResult::Unsat);
    let first = solver.stats();
    assert!(first.conflicts > 0, "the first call really searched");
    assert!(matches!(solver.solve(None), SatResult::Sat(_)));
    let total = solver.stats();
    assert!(
        total.decisions > first.decisions,
        "the second call decided too"
    );
    dic_trace::set_enabled(false);
    for (counter, lifetime) in [
        (dic_trace::Counter::SatDecisions, total.decisions),
        (dic_trace::Counter::SatConflicts, total.conflicts),
        (dic_trace::Counter::SatLearnedClauses, total.learned_clauses),
    ] {
        assert_eq!(dic_trace::counter_value(counter), lifetime, "{counter:?}");
    }
}
