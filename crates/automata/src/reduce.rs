//! Post-translation automaton reduction — the third stage of the
//! reduction pipeline.
//!
//! [`reduce`] shrinks a [`Gba`] without changing its language:
//!
//! 1. **Trimming** — states unreachable from the initial set, and *dead*
//!    states (no path to a non-trivial SCC covering every acceptance set,
//!    i.e. states with an empty language) are removed. Dead-state removal
//!    is what keeps doomed postponement branches of the tableau out of
//!    every design × GBA product downstream.
//! 2. **Direct-simulation quotienting** (Etessami–Holzmann, extended
//!    componentwise to generalized acceptance): `q` simulates `r` when
//!    `q`'s literal constraints are a subset of `r`'s, its acceptance bits
//!    a superset, and every successor of `r` is simulated by some
//!    successor of `q`. Mutually simulating states merge; a transition
//!    whose target is strictly simulated by a sibling target is dominated
//!    and deleted (the maximal sibling survives, so the simulation-built
//!    replacement run always has surviving edges to follow); dominated
//!    initial states drop the same way.
//! 3. **Acceptance-set minimization** — a set every cycle intersects
//!    (its complement induces an acyclic subgraph) constrains nothing and
//!    is dropped; a set containing another set is implied by it and is
//!    dropped too (equal sets keep the earliest).
//!
//! The result is **renumbered canonically** (BFS from the initial states,
//! successors in ascending order), so the reduced automaton is a
//! deterministic function of the input automaton alone. Both engines
//! translate through the same cache ([`crate::translate_cached`]), which
//! is one of the two ingredients of the byte-identical cross-backend gap
//! sets (the other being the witness-independent candidate enumeration).

use crate::gba::{ones, Gba, GbaState, GbaStats};
use dic_logic::Lit;

/// Size accounting of one [`reduce_with_stats`] run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReductionStats {
    /// Automaton size before reduction.
    pub pre: GbaStats,
    /// Automaton size after reduction.
    pub post: GbaStats,
}

/// Reduces a [`Gba`] to a language-equivalent, canonically numbered
/// automaton (see the [module docs](self)).
pub fn reduce(gba: &Gba) -> Gba {
    reduce_with_stats(gba).0
}

/// [`reduce`], also reporting the pre/post sizes.
pub fn reduce_with_stats(gba: &Gba) -> (Gba, ReductionStats) {
    let pre = gba.stats();
    let mut cur = trim(gba);
    // Quotienting can orphan states (edge dominance removes transitions),
    // trimming can expose new mergeable pairs, and dropping a vacuous
    // acceptance set lets states differing only in that bit merge;
    // iterate the three passes to their joint fixpoint. Every pass only
    // ever shrinks (states, transitions or acceptance sets), so this
    // terminates.
    loop {
        let next = minimize_acceptance(&trim(&quotient(&cur)));
        if next.num_states() == cur.num_states()
            && next.num_transitions() == cur.num_transitions()
            && next.initial().len() == cur.initial().len()
            && next.num_acceptance_sets() == cur.num_acceptance_sets()
        {
            cur = next;
            break;
        }
        cur = next;
    }
    let out = renumber(&cur);
    let post = out.stats();
    (out, ReductionStats { pre, post })
}

/// The empty automaton (no states, no words).
fn empty(n_acc: u32) -> Gba {
    Gba::from_parts(Vec::new(), Vec::new(), Vec::new(), n_acc)
}

/// Keeps exactly the states in `keep` (a bool per state), remapping
/// indices in order.
fn restrict(g: &Gba, keep: &[bool]) -> Gba {
    let n = g.num_states();
    let mut remap = vec![u32::MAX; n];
    let mut states = Vec::new();
    for q in 0..n {
        if keep[q] {
            remap[q] = states.len() as u32;
            states.push(g.state(q as u32).clone());
        }
    }
    if states.is_empty() {
        return empty(g.num_acceptance_sets());
    }
    let mut succs = Vec::with_capacity(states.len());
    for q in 0..n {
        if !keep[q] {
            continue;
        }
        let mut edges: Vec<u32> = g
            .successors(q as u32)
            .iter()
            .filter(|&&r| keep[r as usize])
            .map(|&r| remap[r as usize])
            .collect();
        edges.sort_unstable();
        edges.dedup();
        succs.push(edges);
    }
    let mut initial: Vec<u32> = g
        .initial()
        .iter()
        .filter(|&&q| keep[q as usize])
        .map(|&q| remap[q as usize])
        .collect();
    initial.sort_unstable();
    initial.dedup();
    Gba::from_parts(states, initial, succs, g.num_acceptance_sets())
}

/// Strongly connected components by iterative Tarjan over all states;
/// returns `scc_of[q]` (component ids in reverse topological order of
/// discovery — only membership is used here).
fn sccs(g: &Gba) -> Vec<u32> {
    let n = g.num_states();
    const UNSEEN: u32 = u32::MAX;
    let mut index = vec![UNSEEN; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut scc_of = vec![0u32; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut counter = 0u32;
    let mut n_sccs = 0u32;
    // Call frames: (node, next successor position).
    let mut call: Vec<(u32, usize)> = Vec::new();
    for root in 0..n as u32 {
        if index[root as usize] != UNSEEN {
            continue;
        }
        call.push((root, 0));
        index[root as usize] = counter;
        lowlink[root as usize] = counter;
        counter += 1;
        stack.push(root);
        on_stack[root as usize] = true;
        while let Some(&mut (v, ref mut next)) = call.last_mut() {
            if let Some(&w) = g.successors(v).get(*next) {
                *next += 1;
                if index[w as usize] == UNSEEN {
                    index[w as usize] = counter;
                    lowlink[w as usize] = counter;
                    counter += 1;
                    stack.push(w);
                    on_stack[w as usize] = true;
                    call.push((w, 0));
                } else if on_stack[w as usize] {
                    lowlink[v as usize] = lowlink[v as usize].min(index[w as usize]);
                }
            } else {
                call.pop();
                if let Some(&(p, _)) = call.last() {
                    lowlink[p as usize] = lowlink[p as usize].min(lowlink[v as usize]);
                }
                if lowlink[v as usize] == index[v as usize] {
                    loop {
                        let w = stack.pop().expect("scc member");
                        on_stack[w as usize] = false;
                        scc_of[w as usize] = n_sccs;
                        if w == v {
                            break;
                        }
                    }
                    n_sccs += 1;
                }
            }
        }
    }
    scc_of
}

/// Removes unreachable and dead states: a state survives iff it is
/// forward-reachable from some initial state *and* some non-trivial SCC
/// covering the full acceptance mask is reachable from it.
fn trim(g: &Gba) -> Gba {
    let n = g.num_states();
    if n == 0 || g.initial().is_empty() {
        return empty(g.num_acceptance_sets());
    }
    // Forward reachability.
    let mut reachable = vec![false; n];
    let mut work: Vec<u32> = g.initial().to_vec();
    for &q in g.initial() {
        reachable[q as usize] = true;
    }
    while let Some(q) = work.pop() {
        for &r in g.successors(q) {
            if !reachable[r as usize] {
                reachable[r as usize] = true;
                work.push(r);
            }
        }
    }
    // Good SCCs: non-trivial and jointly covering every acceptance bit.
    let scc_of = g.sccs_of();
    let n_sccs = scc_of.iter().copied().max().map_or(0, |m| m as usize + 1);
    let full = g.full_acc_mask();
    let mut scc_bits = vec![0u32; n_sccs];
    let mut scc_size = vec![0usize; n_sccs];
    let mut scc_has_edge = vec![false; n_sccs];
    for q in 0..n {
        let c = scc_of[q] as usize;
        scc_bits[c] |= g.state(q as u32).acc_bits();
        scc_size[c] += 1;
        if g.successors(q as u32)
            .iter()
            .any(|&r| scc_of[r as usize] == scc_of[q])
        {
            scc_has_edge[c] = true;
        }
    }
    let mut live = vec![false; n];
    let mut work: Vec<u32> = Vec::new();
    for q in 0..n {
        let c = scc_of[q] as usize;
        let nontrivial = scc_size[c] > 1 || scc_has_edge[c];
        if nontrivial && scc_bits[c] & full == full {
            live[q] = true;
            work.push(q as u32);
        }
    }
    // Backward closure of liveness.
    let mut preds: Vec<Vec<u32>> = vec![Vec::new(); n];
    for q in 0..n {
        for &r in g.successors(q as u32) {
            preds[r as usize].push(q as u32);
        }
    }
    while let Some(q) = work.pop() {
        for &p in &preds[q as usize] {
            if !live[p as usize] {
                live[p as usize] = true;
                work.push(p);
            }
        }
    }
    let keep: Vec<bool> = (0..n).map(|q| reachable[q] && live[q]).collect();
    restrict(g, &keep)
}

/// The direct-simulation relation, one bitset row per state: bit `q` of
/// row `r` is set ⇔ `q` simulates `r`.
struct Simulation {
    /// Words per row.
    width: usize,
    rows: Vec<u64>,
}

impl Simulation {
    fn row(&self, r: usize) -> &[u64] {
        &self.rows[r * self.width..(r + 1) * self.width]
    }

    /// Whether `q` simulates `r`.
    fn simulates(&self, q: usize, r: usize) -> bool {
        self.rows[r * self.width + q / 64] >> (q % 64) & 1 == 1
    }
}

fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

/// The greatest direct simulation of `g`, computed word-parallel.
///
/// Seed: `q` may simulate `r` when `q`'s literals are a subset of `r`'s
/// (no literal of `q` lies outside `r`'s) and `q`'s acceptance bits a
/// superset of `r`'s — both read off per-literal and per-acceptance-set
/// membership bitsets. Refinement: `q` keeps simulating `r` only while
/// every successor `r2` of `r` is simulated by some successor of `q`,
/// i.e. `q ∈ pred(row(r2))` for every `r2`; the rows shrink until
/// nothing changes, which is the same greatest fixpoint the pairwise
/// definition describes.
fn direct_simulation(g: &Gba) -> Simulation {
    let n = g.num_states();
    let width = n.div_ceil(64).max(1);
    let mut all = vec![0u64; width];
    (0..n).for_each(|q| set_bit(&mut all, q));
    let mut lits: Vec<Lit> = g
        .states()
        .iter()
        .flat_map(|st| st.literals().iter().copied())
        .collect();
    lits.sort_unstable();
    lits.dedup();
    // has[i]: the states carrying literal lits[i]; in_acc[j]: the states
    // in acceptance set j.
    let mut has = vec![0u64; lits.len() * width];
    let n_acc = g.num_acceptance_sets() as usize;
    let mut in_acc = vec![0u64; n_acc * width];
    for (q, st) in g.states().iter().enumerate() {
        for l in st.literals() {
            let i = lits.binary_search(l).expect("collected above");
            set_bit(&mut has[i * width..(i + 1) * width], q);
        }
        for j in (0..n_acc).filter(|&j| st.in_acceptance_set(j as u32)) {
            set_bit(&mut in_acc[j * width..(j + 1) * width], q);
        }
    }
    let mut rows = Vec::with_capacity(n * width);
    for (r, st) in g.states().iter().enumerate() {
        let mut row = all.clone();
        for (i, l) in lits.iter().enumerate() {
            if st.literals().binary_search(l).is_err() {
                let carriers = &has[i * width..(i + 1) * width];
                row.iter_mut().zip(carriers).for_each(|(x, c)| *x &= !c);
            }
        }
        for j in (0..n_acc).filter(|&j| st.in_acceptance_set(j as u32)) {
            let members = &in_acc[j * width..(j + 1) * width];
            row.iter_mut().zip(members).for_each(|(x, m)| *x &= m);
        }
        debug_assert!(row[r / 64] >> (r % 64) & 1 == 1, "{r} simulates itself");
        rows.extend(row);
    }
    let mut pred = vec![0u64; n * width];
    for q in 0..n {
        for &q2 in g.successors(q as u32) {
            let q2 = q2 as usize;
            set_bit(&mut pred[q2 * width..(q2 + 1) * width], q);
        }
    }
    let mut sim = Simulation { width, rows };
    // can[r2]: the states with some successor simulating r2.
    let mut can = vec![0u64; n * width];
    let mut next = vec![0u64; width];
    loop {
        for r2 in 0..n {
            let acc = &mut can[r2 * width..(r2 + 1) * width];
            acc.fill(0);
            for q2 in ones(sim.row(r2)) {
                let p = &pred[q2 * width..(q2 + 1) * width];
                acc.iter_mut().zip(p).for_each(|(x, y)| *x |= y);
            }
        }
        let mut changed = false;
        for r in 0..n {
            next.copy_from_slice(sim.row(r));
            for &r2 in g.successors(r as u32) {
                let c = &can[r2 as usize * width..(r2 as usize + 1) * width];
                next.iter_mut().zip(c).for_each(|(x, y)| *x &= y);
            }
            let row = &mut sim.rows[r * width..(r + 1) * width];
            if *row != next[..] {
                row.copy_from_slice(&next);
                changed = true;
            }
        }
        if !changed {
            return sim;
        }
    }
}

/// Drops every element of `targets` whose representative is strictly
/// simulated by another element's representative (keeping maximal
/// elements, which the language-preservation argument needs).
fn prune_dominated(targets: &mut Vec<u32>, rep: &[u32], sim: &Simulation) {
    let snapshot = targets.clone();
    targets.retain(|&t| {
        !snapshot.iter().any(|&t2| {
            t2 != t && {
                let (a, b) = (rep[t2 as usize] as usize, rep[t as usize] as usize);
                sim.simulates(a, b) && !sim.simulates(b, a)
            }
        })
    });
}

/// Simulation quotient with edge/initial dominance pruning.
fn quotient(g: &Gba) -> Gba {
    let n = g.num_states();
    if n == 0 {
        return empty(g.num_acceptance_sets());
    }
    let sim = direct_simulation(g);
    // Class representative: the smallest mutually simulating state.
    let rep: Vec<u32> = (0..n)
        .map(|q| {
            ones(sim.row(q))
                .take_while(|&r| r <= q)
                .find(|&r| sim.simulates(q, r))
                .expect("q simulates itself") as u32
        })
        .collect();
    let mut class_ids: Vec<u32> = rep.clone();
    class_ids.sort_unstable();
    class_ids.dedup();
    let class_index = |q: u32| -> u32 {
        class_ids
            .binary_search(&rep[q as usize])
            .expect("representative is a class id") as u32
    };

    let states: Vec<GbaState> = class_ids.iter().map(|&r| g.state(r).clone()).collect();
    let mut succs: Vec<Vec<u32>> = vec![Vec::new(); class_ids.len()];
    for q in 0..n as u32 {
        let c = class_index(q) as usize;
        for &r in g.successors(q) {
            succs[c].push(rep[r as usize]);
        }
    }
    let mut initial: Vec<u32> = g.initial().iter().map(|&q| rep[q as usize]).collect();
    initial.sort_unstable();
    initial.dedup();
    prune_dominated(&mut initial, &rep, &sim);
    let mut initial: Vec<u32> = initial.into_iter().map(class_index).collect();
    initial.sort_unstable();

    let succs = succs
        .into_iter()
        .map(|mut edges| {
            edges.sort_unstable();
            edges.dedup();
            prune_dominated(&mut edges, &rep, &sim);
            let mut edges: Vec<u32> = edges.into_iter().map(class_index).collect();
            edges.sort_unstable();
            edges
        })
        .collect();
    Gba::from_parts(states, initial, succs, g.num_acceptance_sets())
}

/// Whether the subgraph induced by `in_sub` contains a cycle.
fn has_cycle(g: &Gba, in_sub: &[bool]) -> bool {
    // Kahn peeling: repeatedly remove nodes without in-subgraph
    // predecessors; a cycle is exactly a non-empty remainder.
    let n = g.num_states();
    let mut indeg = vec![0usize; n];
    for q in 0..n {
        if !in_sub[q] {
            continue;
        }
        for &r in g.successors(q as u32) {
            if in_sub[r as usize] {
                indeg[r as usize] += 1;
            }
        }
    }
    let mut work: Vec<u32> = (0..n as u32)
        .filter(|&q| in_sub[q as usize] && indeg[q as usize] == 0)
        .collect();
    let mut removed = 0usize;
    let total = in_sub.iter().filter(|&&b| b).count();
    while let Some(q) = work.pop() {
        removed += 1;
        for &r in g.successors(q) {
            if in_sub[r as usize] {
                indeg[r as usize] -= 1;
                if indeg[r as usize] == 0 {
                    work.push(r);
                }
            }
        }
    }
    removed < total
}

/// Drops acceptance sets that constrain nothing: sets every cycle
/// intersects, and sets containing another (surviving) set.
fn minimize_acceptance(g: &Gba) -> Gba {
    let k = g.num_acceptance_sets() as usize;
    if k == 0 || g.num_states() == 0 {
        return g.clone();
    }
    let n = g.num_states();
    let members: Vec<Vec<bool>> = (0..k)
        .map(|j| {
            (0..n)
                .map(|q| g.state(q as u32).acc_bits() >> j & 1 == 1)
                .collect()
        })
        .collect();
    let mut keep = vec![true; k];
    // A set whose complement is acyclic holds on every cycle.
    for j in 0..k {
        let complement: Vec<bool> = members[j].iter().map(|&b| !b).collect();
        if !has_cycle(g, &complement) {
            keep[j] = false;
        }
    }
    // F_i ⊆ F_k makes F_k redundant (equal sets keep the earliest).
    for b in 0..k {
        if !keep[b] {
            continue;
        }
        for a in 0..k {
            if a == b || !keep[a] {
                continue;
            }
            let a_subset = members[a].iter().zip(&members[b]).all(|(&x, &y)| !x || y);
            if a_subset {
                let b_subset = members[b].iter().zip(&members[a]).all(|(&x, &y)| !x || y);
                if !b_subset || a < b {
                    keep[b] = false;
                    break;
                }
            }
        }
    }
    let kept: Vec<usize> = (0..k).filter(|&j| keep[j]).collect();
    if kept.len() == k {
        return g.clone();
    }
    let states: Vec<GbaState> = (0..n)
        .map(|q| {
            let old = g.state(q as u32);
            let mut acc = 0u32;
            for (new_j, &old_j) in kept.iter().enumerate() {
                if old.acc_bits() >> old_j & 1 == 1 {
                    acc |= 1 << new_j;
                }
            }
            GbaState::new(old.literals().to_vec(), acc)
        })
        .collect();
    let succs = (0..n as u32).map(|q| g.successors(q).to_vec()).collect();
    Gba::from_parts(states, g.initial().to_vec(), succs, kept.len() as u32)
}

/// Canonical state numbering: BFS from the (sorted) initial states,
/// visiting successors in ascending order. The output is a deterministic
/// function of the abstract automaton, independent of tableau node order.
fn renumber(g: &Gba) -> Gba {
    let n = g.num_states();
    if n == 0 {
        return g.clone();
    }
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut new_id = vec![u32::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    let mut initial_sorted: Vec<u32> = g.initial().to_vec();
    initial_sorted.sort_unstable();
    for &q in &initial_sorted {
        if new_id[q as usize] == u32::MAX {
            new_id[q as usize] = order.len() as u32;
            order.push(q);
            queue.push_back(q);
        }
    }
    while let Some(q) = queue.pop_front() {
        for &r in g.successors(q) {
            if new_id[r as usize] == u32::MAX {
                new_id[r as usize] = order.len() as u32;
                order.push(r);
                queue.push_back(r);
            }
        }
    }
    // Trimming already removed unreachable states, so `order` covers all.
    debug_assert_eq!(order.len(), n, "renumber expects a trimmed automaton");
    let states: Vec<GbaState> = order.iter().map(|&q| g.state(q).clone()).collect();
    let succs: Vec<Vec<u32>> = order
        .iter()
        .map(|&q| {
            let mut edges: Vec<u32> = g
                .successors(q)
                .iter()
                .map(|&r| new_id[r as usize])
                .collect();
            edges.sort_unstable();
            edges
        })
        .collect();
    let mut initial: Vec<u32> = g.initial().iter().map(|&q| new_id[q as usize]).collect();
    initial.sort_unstable();
    Gba::from_parts(states, initial, succs, g.num_acceptance_sets())
}

impl Gba {
    /// SCC membership per state (used by [`trim`]; exposed on `Gba` so the
    /// borrow of `self` stays simple).
    fn sccs_of(&self) -> Vec<u32> {
        sccs(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gba::translate;
    use crate::product::{find_accepting_lasso, GbaGraph};
    use dic_logic::SignalTable;
    use dic_ltl::random::{random_formula, XorShift64};
    use dic_ltl::Ltl;

    fn parse(t: &mut SignalTable, src: &str) -> Ltl {
        Ltl::parse(src, t).expect("parse")
    }

    /// Whether `a`'s literal constraints are a subset of `b`'s (both sorted).
    fn lits_subset(a: &GbaState, b: &GbaState) -> bool {
        let (a, b) = (a.literals(), b.literals());
        let mut i = 0;
        for l in a {
            while i < b.len() && b[i] < *l {
                i += 1;
            }
            if i == b.len() || b[i] != *l {
                return false;
            }
            i += 1;
        }
        true
    }

    /// The pairwise direct simulation, straight from its definition:
    /// `sim[q * n + r]` ⇔ `q` simulates `r`. The reference that
    /// [`direct_simulation`] must reproduce exactly.
    fn direct_simulation_reference(g: &Gba) -> Vec<bool> {
        let n = g.num_states();
        let mut sim = vec![false; n * n];
        for q in 0..n {
            for r in 0..n {
                let (sq, sr) = (g.state(q as u32), g.state(r as u32));
                sim[q * n + r] =
                    lits_subset(sq, sr) && sq.acc_bits() & sr.acc_bits() == sr.acc_bits();
            }
        }
        let mut changed = true;
        while changed {
            changed = false;
            for q in 0..n {
                for r in 0..n {
                    if !sim[q * n + r] {
                        continue;
                    }
                    let ok = g.successors(r as u32).iter().all(|&r2| {
                        g.successors(q as u32)
                            .iter()
                            .any(|&q2| sim[q2 as usize * n + r2 as usize])
                    });
                    if !ok {
                        sim[q * n + r] = false;
                        changed = true;
                    }
                }
            }
        }
        sim
    }

    fn assert_simulation_matches_reference(g: &Gba, what: &str) {
        let n = g.num_states();
        let fast = direct_simulation(g);
        let reference = direct_simulation_reference(g);
        for q in 0..n {
            for r in 0..n {
                assert_eq!(
                    fast.simulates(q, r),
                    reference[q * n + r],
                    "{what}: simulation of {r} by {q} differs ({n} states)"
                );
            }
        }
    }

    /// A random automaton: `n` states over two signals, consistent
    /// literal sets, up to two acceptance sets and up to three successors
    /// per state (dead ends included).
    fn random_gba(rng: &mut XorShift64, n: usize) -> Gba {
        let signals = [
            dic_logic::SignalId::from_index(0),
            dic_logic::SignalId::from_index(1),
        ];
        let n_acc = rng.below(3) as u32;
        let states = (0..n)
            .map(|_| {
                let literals = signals
                    .iter()
                    .filter_map(|&s| match rng.below(3) {
                        0 => None,
                        k => Some(Lit::new(s, k == 1)),
                    })
                    .collect();
                let acc = (rng.next_u64() as u32) & ((1 << n_acc) - 1);
                GbaState::new(literals, acc)
            })
            .collect();
        let succs = (0..n)
            .map(|_| {
                let mut edges: Vec<u32> = (0..rng.below(4)).map(|_| rng.below(n) as u32).collect();
                edges.sort_unstable();
                edges.dedup();
                edges
            })
            .collect();
        Gba::from_parts(states, vec![0], succs, n_acc)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The word-parallel simulation equals the pairwise reference on
        /// random automata of up to 200 states, so rows of one to four
        /// words are all exercised.
        #[test]
        fn simulation_matches_reference_on_random_automata(seed in 1u64..100_000) {
            let mut rng = XorShift64::new(seed);
            let n = 1 + rng.below(200);
            let g = random_gba(&mut rng, n);
            assert_simulation_matches_reference(&g, &format!("seed {seed}"));
        }
    }

    /// The same on raw tableaus of random formulas and their negations —
    /// the automata the reduction actually receives; several exceed 64
    /// states.
    #[test]
    fn simulation_matches_reference_on_raw_tableaus() {
        let mut t = SignalTable::new();
        let atoms = vec![t.intern("p"), t.intern("q"), t.intern("r")];
        let mut widest = 0;
        for seed in 1..150u64 {
            let f = random_formula(&mut XorShift64::new(seed), &atoms, 8 + (seed % 8) as usize);
            for g in [translate(&f), translate(&Ltl::not(f.clone()))] {
                widest = widest.max(g.num_states());
                assert_simulation_matches_reference(&g, &format!("{f:?}"));
            }
        }
        assert!(
            widest > 64,
            "corpus must reach multi-word rows, widest {widest}"
        );
    }

    /// Language check by word sampling: every automaton run denotes the
    /// words compatible with its states' literals, so emptiness and
    /// witness agreement with the unreduced automaton over many formulas
    /// is the practical oracle here (full equivalence is exercised by the
    /// cross-engine suites).
    #[test]
    fn reduction_preserves_emptiness_on_random_formulas() {
        let mut t = SignalTable::new();
        let atoms = vec![t.intern("p"), t.intern("q"), t.intern("r")];
        for seed in 1..300u64 {
            let f = random_formula(&mut XorShift64::new(seed), &atoms, 12);
            let gba = translate(&f.core_nnf());
            let red = reduce(&gba);
            assert!(red.num_states() <= gba.num_states(), "grew on {f:?}");
            assert!(
                red.num_acceptance_sets() <= gba.num_acceptance_sets(),
                "acceptance grew on {f:?}"
            );
            let full = find_accepting_lasso(&GbaGraph(&gba), gba.full_acc_mask()).is_some();
            let small = find_accepting_lasso(&GbaGraph(&red), red.full_acc_mask()).is_some();
            assert_eq!(full, small, "emptiness diverged on {f:?}");
        }
    }

    /// Witnesses from the reduced automaton must satisfy the original
    /// formula — the reduced states' literal constraints stay sound.
    #[test]
    fn reduced_witnesses_satisfy_the_formula() {
        let mut t = SignalTable::new();
        let atoms = vec![t.intern("p"), t.intern("q")];
        for seed in 1..200u64 {
            let f = random_formula(&mut XorShift64::new(seed), &atoms, 10);
            let red = reduce(&translate(&f.core_nnf()));
            let Some((states, loop_start)) =
                find_accepting_lasso(&GbaGraph(&red), red.full_acc_mask())
            else {
                continue;
            };
            let vals: Vec<dic_logic::Valuation> = states
                .iter()
                .map(|&q| red.state(q).witness_valuation(t.len()))
                .collect();
            let w = dic_ltl::LassoWord::new(vals, loop_start).expect("lasso");
            assert!(f.holds_on(&w), "reduced witness violates {f:?}");
        }
    }

    #[test]
    fn known_patterns_shrink() {
        let mut t = SignalTable::new();
        for (src, max_states) in [
            ("G(req -> F grant)", 3usize),
            ("p U q", 3),
            ("G F p", 2),
            ("G(p -> X q)", 4),
            ("F(p & X q)", 4),
        ] {
            let f = parse(&mut t, src);
            let gba = translate(&f.core_nnf());
            let red = reduce(&gba);
            assert!(
                red.num_states() <= max_states,
                "{src}: {} states reduced to {}, want <= {max_states}",
                gba.num_states(),
                red.num_states()
            );
            assert!(red.num_states() <= gba.num_states());
        }
    }

    #[test]
    fn unsatisfiable_formulas_reduce_to_empty() {
        let mut t = SignalTable::new();
        for src in ["p & !p", "G p & F !p", "(p U q) & G !q"] {
            let f = parse(&mut t, src);
            let red = reduce(&translate(&f.core_nnf()));
            assert_eq!(red.num_states(), 0, "{src} should reduce to empty");
            assert!(red.initial().is_empty());
        }
    }

    #[test]
    fn vacuous_acceptance_sets_dropped() {
        // G p ∧ F p: the F-postponement branch is simulation-dominated by
        // the immediate discharge (both demand p forever), after which the
        // Until's acceptance set holds on every remaining cycle and drops.
        let mut t = SignalTable::new();
        let f = parse(&mut t, "G p & F p");
        let red = reduce(&translate(&f.core_nnf()));
        assert_eq!(red.num_acceptance_sets(), 0, "G p & F p needs no fairness");
        assert_eq!(red.num_states(), 1);
        // F p alone genuinely needs its set (the not-yet branch must not
        // loop forever), and so does G F p.
        let g = parse(&mut t, "F p");
        assert_eq!(reduce(&translate(&g.core_nnf())).num_acceptance_sets(), 1);
        let h = parse(&mut t, "G F p");
        assert_eq!(reduce(&translate(&h.core_nnf())).num_acceptance_sets(), 1);
    }

    #[test]
    fn reduction_is_deterministic_and_idempotent() {
        let mut t = SignalTable::new();
        let atoms = vec![t.intern("p"), t.intern("q"), t.intern("r")];
        for seed in 1..100u64 {
            let f = random_formula(&mut XorShift64::new(seed), &atoms, 12);
            let gba = translate(&f.core_nnf());
            let a = reduce(&gba);
            let b = reduce(&gba);
            assert_eq!(a.num_states(), b.num_states());
            assert_eq!(a.initial(), b.initial());
            for q in 0..a.num_states() as u32 {
                assert_eq!(a.successors(q), b.successors(q));
                assert_eq!(a.state(q).literals(), b.state(q).literals());
                assert_eq!(a.state(q).acc_bits(), b.state(q).acc_bits());
            }
            let again = reduce(&a);
            assert_eq!(
                again.num_states(),
                a.num_states(),
                "reduce not idempotent on {f:?}"
            );
            assert_eq!(again.num_transitions(), a.num_transitions());
        }
    }
}
