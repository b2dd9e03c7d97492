//! Degeneralization: generalized Büchi → plain Büchi.
//!
//! The counter construction of Clarke, Grumberg & Peled (*Model Checking*,
//! the paper's reference \[2\]): a [`Gba`] with `k` acceptance sets becomes
//! an automaton over states `(q, i)` with `i ∈ 0..k` meaning "waiting for
//! a state in acceptance set `i`". When state `q` at level `i` belongs to
//! set `i`, the level advances; the states that satisfy the *last* wait
//! (`q ∈ F_{k−1}` at level `k−1`) form the single acceptance set of the
//! result. A run wraps through the levels infinitely often iff it visits
//! every original set infinitely often.
//!
//! The result is returned as a [`Gba`] with exactly one acceptance set
//! (zero if the input had none), so the whole emptiness machinery —
//! Tarjan or the [nested DFS](crate::ndfs) — applies unchanged. The
//! construction multiplies the state count by at most `k`, only for the
//! reachable part.

use crate::gba::{Gba, GbaState};
use std::collections::HashMap;

/// Degeneralizes a [`Gba`] into an equivalent automaton with at most one
/// acceptance set (see the [module docs](self)).
///
/// Automata without acceptance sets are returned as a (reachable-part)
/// copy: they are already plain safety automata.
pub fn degeneralize(gba: &Gba) -> Gba {
    let k = gba.num_acceptance_sets();
    if k == 0 {
        return gba.clone();
    }

    // The level advance at a state: starting from `level`, every
    // consecutive wait the state satisfies is discharged; wrapping past
    // the last set makes the state accepting in the result.
    let advance = |q: u32, level: u32| -> (u32, bool) {
        let mut next = level;
        while next < k && gba.state(q).acc_bits() >> next & 1 == 1 {
            next += 1;
        }
        if next == k {
            (0, true)
        } else {
            (next, false)
        }
    };

    // Interned (state, level) pairs, explored from the initial states.
    let mut ids: HashMap<(u32, u32), u32> = HashMap::new();
    let mut states: Vec<GbaState> = Vec::new();
    let mut work: Vec<((u32, u32), u32)> = Vec::new();

    let mut intern = |node: (u32, u32),
                      states: &mut Vec<GbaState>,
                      work: &mut Vec<((u32, u32), u32)>| {
        if let Some(&id) = ids.get(&node) {
            return id;
        }
        let id = states.len() as u32;
        ids.insert(node, id);
        let (q, level) = node;
        let (_, wraps) = advance(q, level);
        states.push(GbaState::new(
            gba.state(q).literals().to_vec(),
            u32::from(wraps),
        ));
        work.push((node, id));
        id
    };

    let mut initial = Vec::new();
    for &q in gba.initial() {
        let id = intern((q, 0), &mut states, &mut work);
        if !initial.contains(&id) {
            initial.push(id);
        }
    }

    let mut succs: Vec<Vec<u32>> = Vec::new();
    while let Some(((q, level), id)) = work.pop() {
        let (next_level, _) = advance(q, level);
        let mut edges = Vec::new();
        for &q2 in gba.successors(q) {
            let id2 = intern((q2, next_level), &mut states, &mut work);
            edges.push(id2);
        }
        edges.sort_unstable();
        edges.dedup();
        let id = id as usize;
        if succs.len() <= id {
            succs.resize(id + 1, Vec::new());
        }
        succs[id] = edges;
    }
    succs.resize(states.len(), Vec::new());

    Gba::from_parts(states, initial, succs, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gba::translate;
    use crate::product::{find_accepting_lasso, GbaGraph};
    use dic_logic::SignalTable;
    use dic_ltl::Ltl;

    fn parse(t: &mut SignalTable, src: &str) -> Ltl {
        Ltl::parse(src, t).expect("parse")
    }

    /// Emptiness of the degeneralized automaton must agree with the
    /// generalized one (formula satisfiability).
    #[test]
    fn degeneralized_emptiness_matches() {
        let mut t = SignalTable::new();
        for src in [
            "p U q",
            "G F p & G F !p",
            "G p & F !p", // unsatisfiable
            "(p U q) & G !q", // unsatisfiable
            "(p U q) & (!p U r)",
            "G(p -> F q) & G(q -> F r)",
            "F G p & G F q",
        ] {
            let f = parse(&mut t, src);
            let gba = translate(&f);
            let ba = degeneralize(&gba);
            assert!(ba.num_acceptance_sets() <= 1);
            let gba_nonempty =
                find_accepting_lasso(&GbaGraph(&gba), gba.full_acc_mask()).is_some();
            let ba_nonempty = find_accepting_lasso(&GbaGraph(&ba), ba.full_acc_mask()).is_some();
            assert_eq!(gba_nonempty, ba_nonempty, "disagreement on {src}");
        }
    }

    #[test]
    fn safety_automata_pass_through() {
        let mut t = SignalTable::new();
        let f = parse(&mut t, "G(p -> X q)");
        let gba = translate(&f);
        assert_eq!(gba.num_acceptance_sets(), 0);
        let ba = degeneralize(&gba);
        assert_eq!(ba.num_acceptance_sets(), 0);
        assert_eq!(ba.num_states(), gba.num_states());
    }

    #[test]
    fn blowup_is_bounded_by_k() {
        let mut t = SignalTable::new();
        let f = parse(&mut t, "G F p & G F q & G F r");
        let gba = translate(&f);
        let k = gba.num_acceptance_sets() as usize;
        assert!(k >= 2);
        let ba = degeneralize(&gba);
        assert!(
            ba.num_states() <= gba.num_states() * k.max(1),
            "{} > {} * {}",
            ba.num_states(),
            gba.num_states(),
            k
        );
    }

    #[test]
    fn accepting_states_only_at_last_level() {
        let mut t = SignalTable::new();
        let f = parse(&mut t, "G F p & G F q");
        let ba = degeneralize(&translate(&f));
        assert_eq!(ba.num_acceptance_sets(), 1);
        // There must be accepting states, and an accepting lasso.
        assert!(ba.states().iter().any(|s| s.acc_bits() == 1));
        assert!(find_accepting_lasso(&GbaGraph(&ba), 1).is_some());
    }
}
