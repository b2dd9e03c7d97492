//! `T_M`: the LTL formula exactly representing an RTL block (Definition 4).
//!
//! Two equivalent constructions are provided:
//!
//! * [`enumerated_tm`] follows the paper literally: extract the explicit
//!   FSM and emit `L(S0) ∧ G(⋁_{(s,i,s')∈T} L(s) ∧ i ∧ X L(s'))`, plus the
//!   combinational relations `G(w ↔ f)` for wires (the form the paper's
//!   Example 3 derives for the simple AND-latch model, and `T_{L1}` takes
//!   for a purely combinational block).
//! * [`relational_tm`] emits the compact structural form
//!   `init ∧ G(⋀_latch (X q ↔ f_q) ∧ ⋀_wire (w ↔ f_w))` — exponentially
//!   smaller, language-equivalent (property-tested), and the better choice
//!   when `T_M` feeds further reasoning rather than a report.
//!
//! The analysis pipeline builds the relational form ([`tm_for_modules`]);
//! `specmatcher table1` times the enumerated one for the paper's Table 1
//! "TM building" column. `dic_designs`' latch-chain tests compare how
//! the two grow with the latch count.

use dic_fsm::{extract_fsm, Fsm, FsmError};
use dic_logic::{Cube, SignalTable};
use dic_ltl::Ltl;
use dic_netlist::Module;

/// The conjunction of the relational `T_M` of several concurrent modules
/// (the paper: "TM is then generated by taking conjunction of all these k
/// properties").
pub fn tm_for_modules(modules: &[Module]) -> Ltl {
    Ltl::and(modules.iter().map(relational_tm))
}

/// The compact structural `T_M`:
/// `⋀_latch init(q) ∧ G(⋀_wire (w ↔ f_w) ∧ ⋀_latch (X q ↔ f_q))`.
pub fn relational_tm(module: &Module) -> Ltl {
    let mut init = Vec::new();
    for l in module.latches() {
        init.push(Ltl::literal(l.output(), l.init()));
    }
    let mut step = Vec::new();
    for w in module.wires() {
        step.push(Ltl::iff(
            Ltl::atom(w.output()),
            Ltl::from_bool_expr(w.func()),
        ));
    }
    for l in module.latches() {
        step.push(Ltl::iff(
            Ltl::next(Ltl::atom(l.output())),
            Ltl::from_bool_expr(l.next()),
        ));
    }
    let mut parts = init;
    if !step.is_empty() {
        parts.push(Ltl::globally(Ltl::and(step)));
    }
    Ltl::and(parts)
}

/// The paper's Definition 4: `T_M = L(S0) ∧ G(⋁ L(s) ∧ i ∧ X L(s'))` from
/// the extracted FSM, conjoined with `G(w ↔ f)` for each combinational
/// wire. Transition guards are irredundant input cubes, as in the paper's
/// minimized Example 3 formula.
///
/// # Errors
///
/// [`FsmError::TooLarge`] if the module's state space exceeds the explicit
/// enumeration limit; [`FsmError::Deadline`] if the cooperative deadline
/// passes during the enumeration.
pub fn enumerated_tm(module: &Module, table: &SignalTable) -> Result<Ltl, FsmError> {
    let mut step = Vec::new();
    for w in module.wires() {
        step.push(Ltl::iff(
            Ltl::atom(w.output()),
            Ltl::from_bool_expr(w.func()),
        ));
    }
    let mut parts = Vec::new();
    if !module.latches().is_empty() {
        let fsm = extract_fsm(module, table)?;
        // State 0 is the reset state.
        parts.push(cube_to_ltl(&fsm.state_cube(0)));
        step.push(transition_disjunction(&fsm));
    }
    if !step.is_empty() {
        parts.push(Ltl::globally(Ltl::and(step)));
    }
    Ok(Ltl::and(parts))
}

/// `⋁_{(s,g,s')} L(s) ∧ g ∧ X L(s')`.
fn transition_disjunction(fsm: &Fsm) -> Ltl {
    let mut arms = Vec::with_capacity(fsm.num_transitions());
    for tr in fsm.transitions() {
        let from = cube_to_ltl(&fsm.state_cube(tr.from));
        let guard = cube_to_ltl(&tr.guard);
        let to = Ltl::next(cube_to_ltl(&fsm.state_cube(tr.to)));
        arms.push(Ltl::and([from, guard, to]));
    }
    Ltl::or(arms)
}

fn cube_to_ltl(cube: &Cube) -> Ltl {
    Ltl::and(
        cube.lits()
            .iter()
            .map(|l| Ltl::literal(l.signal(), l.polarity())),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dic_automata::{equivalent, holds_in, is_satisfiable};
    use dic_fsm::Kripke;
    use dic_logic::{BoolExpr, SignalTable};
    use dic_netlist::ModuleBuilder;

    /// The paper's Example 3 model: latch c' = a & b, init 0.
    fn example3(t: &mut SignalTable) -> Module {
        let mut b = ModuleBuilder::new("simple", t);
        let a = b.input("a");
        let bb = b.input("b");
        b.latch(
            "c",
            BoolExpr::and([BoolExpr::var(a), BoolExpr::var(bb)]),
            false,
        );
        b.finish().expect("valid")
    }

    /// A combinational block like the paper's `M1`.
    fn comb_block(t: &mut SignalTable) -> Module {
        let mut b = ModuleBuilder::new("m1", t);
        let n1 = b.input("n1");
        let wait = b.input("wait");
        let g1 = b.and_gate("g1", [n1], [wait]);
        b.mark_output(g1);
        b.finish().expect("valid")
    }

    #[test]
    fn combinational_tm_is_global_relation() {
        let mut t = SignalTable::new();
        let m = comb_block(&mut t);
        let tm = relational_tm(&m);
        // Shape: G(g1 <-> n1 & !wait) — a single Globally.
        assert!(matches!(tm.node(), dic_ltl::LtlNode::Globally(_)));
        let tm2 = enumerated_tm(&m, &t).expect("small");
        assert!(matches!(tm2.node(), dic_ltl::LtlNode::Globally(_)));
    }

    /// The central correctness property: every run of the module's Kripke
    /// structure satisfies `T_M` (in both styles), and `T_M` pins the model
    /// exactly — a formula distinguishing the styles would violate one.
    #[test]
    fn tm_holds_on_the_model() {
        let mut t = SignalTable::new();
        let m = example3(&mut t);
        let k = Kripke::from_module(&m, &t, &[]).expect("fits");
        let rel = relational_tm(&m);
        let en = enumerated_tm(&m, &t).expect("small");
        assert!(holds_in(&rel, &k).holds(), "relational TM must hold on M");
        assert!(holds_in(&en, &k).holds(), "enumerated TM must hold on M");
    }

    #[test]
    fn tm_styles_are_equivalent_on_runs() {
        // Over all infinite words, relational and enumerated TM accept
        // the same runs.
        let mut t = SignalTable::new();
        let m = example3(&mut t);
        let rel = relational_tm(&m);
        let en = enumerated_tm(&m, &t).expect("small");
        assert!(equivalent(&rel, &en));
    }

    #[test]
    fn tm_characterizes_the_model_exactly() {
        // A run satisfying TM but violating the latch semantics must not
        // exist: TM ∧ (a & b & X !c) is unsatisfiable.
        let mut t = SignalTable::new();
        let m = example3(&mut t);
        let rel = relational_tm(&m);
        let bad = Ltl::parse("a & b & X !c", &mut t).expect("parse");
        assert!(!is_satisfiable(&Ltl::and([rel.clone(), bad])));
        // But TM allows the legal behavior.
        let good = Ltl::parse("a & b & X c", &mut t).expect("parse");
        assert!(is_satisfiable(&Ltl::and([rel, good])));
    }

    #[test]
    fn initial_state_constrained() {
        let mut t = SignalTable::new();
        let m = example3(&mut t);
        for tm in [relational_tm(&m), enumerated_tm(&m, &t).expect("small")] {
            let c_now = Ltl::parse("c", &mut t).expect("parse");
            assert!(
                !is_satisfiable(&Ltl::and([tm, c_now])),
                "initial c=0 must be part of TM"
            );
        }
    }

    #[test]
    fn conjunction_over_modules() {
        let mut t = SignalTable::new();
        let m1 = comb_block(&mut t);
        let m2 = example3(&mut t);
        let tm = tm_for_modules(&[m1, m2]);
        // Mentions signals of both modules.
        let atoms = tm.atoms();
        assert!(atoms.contains(&t.lookup("g1").unwrap()));
        assert!(atoms.contains(&t.lookup("c").unwrap()));
    }
}
