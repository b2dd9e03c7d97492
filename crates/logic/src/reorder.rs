//! Constrained group-sifting dynamic variable reordering.
//!
//! BDD sizes are notoriously order-sensitive: a symbolic product that
//! needs tens of millions of nodes under one static order often fits in a
//! few hundred thousand under another. This module implements Rudell-style
//! *sifting* over **groups** of variables: each group (for the symbolic
//! engine, a current/next variable pair, or one automaton-code bit pair)
//! moves through the order as one adjacent block, and groups flagged `top`
//! are only repositioned *within* the topmost block of the order —
//! preserving hard invariants like the symbolic engine's
//! automaton-bits-on-top layout and the order-preserving current/next
//! pairings that renaming depends on.
//!
//! The search runs on an extracted **workspace**: the subgraph reachable
//! from the live roots is copied into a mutable, reference-counted,
//! per-level-unique-table representation where an adjacent level swap is
//! the classic local rewrite (nodes at the upper level are re-expressed
//! over the swapped variable; unreferenced lower nodes die). Workspace
//! children are *edges* exactly like the manager's — node index plus
//! complement bit, stored then-edge regular — so the swap rewrite and the
//! final rebuild preserve complement-bit canonicity end to end. Sifting
//! walks every group through its admissible positions, tracking the exact
//! live node count, and settles each group at its best position (with the
//! usual max-growth early abort). The result is then **rebuilt** into the
//! manager: a fresh node store in the new order, the level maps updated,
//! operation caches dropped, variable sets re-sorted — and a root map
//! handed back so the caller can swap every handle it kept (the map
//! translates node indices; each root keeps its own complement bit).
//! Handles not in the root set are invalidated: the rebuild doubles as
//! the manager's only garbage collection ([`BddManager::compact`] is the
//! same rebuild without the search).

use crate::bdd::{Bdd, BddManager, Node, TERMINAL_VAR};
use std::collections::HashMap;

/// One sifting group: variables that move through the order as a single
/// adjacent block (their relative order never changes).
#[derive(Clone, Debug)]
pub struct ReorderGroup {
    /// The member variables, top-to-bottom. They must currently occupy
    /// contiguous levels in this order.
    pub vars: Vec<u32>,
    /// Whether the group belongs to the reserved top block: top groups
    /// only sift among the positions of other top groups, so the block's
    /// extent (and everything below it) is preserved exactly.
    pub top: bool,
}

/// Outcome of one [`BddManager::reorder_groups`] call.
#[derive(Clone, Debug)]
pub struct ReorderOutcome {
    /// Node-store size before the reorder: live nodes *plus* the garbage
    /// the rebuild collects, terminal included.
    pub store_before: usize,
    /// Live nodes (reachable from the roots) before sifting.
    pub live_before: usize,
    /// Live nodes after sifting — the store size of the rebuilt manager,
    /// terminal excluded.
    pub live_after: usize,
    /// Whether the sifting search ran (false for a pure compaction —
    /// [`BddManager::compact`], or a [`BddManager::reorder_groups_min_live`]
    /// call whose live size fell below its threshold).
    pub sifted: bool,
    /// Old root handle → new root handle. Every handle passed in `roots`
    /// has an entry; any handle *not* passed is dangling after the call.
    map: HashMap<u32, u32>,
}

impl ReorderOutcome {
    /// Rewrites a kept handle into the rebuilt manager.
    ///
    /// # Panics
    ///
    /// Panics if `h` was not in the root set of the reorder — such a
    /// handle is dangling, and using it would be silent corruption.
    pub fn remap(&self, h: &mut Bdd) {
        *h = self.lookup(*h);
    }

    /// Looks up the new handle for an old root.
    ///
    /// # Panics
    ///
    /// As for [`ReorderOutcome::remap`].
    pub fn lookup(&self, h: Bdd) -> Bdd {
        match self.map.get(&h.raw()) {
            Some(&n) => Bdd::from_raw(n),
            None => panic!("BDD handle {h:?} was not registered as a reorder root"),
        }
    }
}

/// Workspace node. `lo`/`hi` are workspace *edges* (arena index shifted
/// left, complement bit in bit 0; `hi` kept regular). `refs` counts
/// parents plus one per root occurrence; a node dies when it drops to
/// zero.
#[derive(Clone, Copy, Debug)]
struct WsNode {
    var: u32,
    lo: u32,
    hi: u32,
    refs: u32,
}

/// Variable tag of a freed workspace node. Distinct from `TERMINAL_VAR`
/// so that a double `deref` trips the refcount debug assertion instead of
/// being silently skipped as a terminal.
const DEAD: u32 = u32::MAX - 1;

/// Mutable sifting workspace: arena + per-variable unique tables.
struct Workspace {
    nodes: Vec<WsNode>,
    free: Vec<u32>,
    /// Per-variable unique table, canonical `(lo, hi)` edge pair → arena
    /// index. The values of `unique[v]` are exactly the live nodes
    /// labelled `v`.
    unique: Vec<HashMap<(u32, u32), u32>>,
    var_to_level: Vec<u32>,
    level_to_var: Vec<u32>,
    /// Live interior nodes (terminal excluded).
    live: usize,
}

impl Workspace {
    /// Finds or creates the node for `ite(var, hi, lo)` and takes one
    /// reference to it, returning the (possibly complemented) edge in
    /// canonical form. A fresh node also takes references to its children.
    fn mk_ref(&mut self, var: u32, lo: u32, hi: u32) -> u32 {
        if lo == hi {
            self.nodes[(lo >> 1) as usize].refs += 1;
            return lo;
        }
        // Canonical form: regular then-edge; a complemented one flips
        // both children and returns a complemented edge.
        let flip = hi & 1;
        let (lo, hi) = (lo ^ flip, hi ^ flip);
        if let Some(&n) = self.unique[var as usize].get(&(lo, hi)) {
            self.nodes[n as usize].refs += 1;
            return (n << 1) | flip;
        }
        self.nodes[(lo >> 1) as usize].refs += 1;
        self.nodes[(hi >> 1) as usize].refs += 1;
        let node = WsNode { var, lo, hi, refs: 1 };
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = node;
                i
            }
            None => {
                let i = u32::try_from(self.nodes.len()).expect("workspace overflow");
                self.nodes.push(node);
                i
            }
        };
        self.unique[var as usize].insert((lo, hi), idx);
        self.live += 1;
        (idx << 1) | flip
    }

    /// Releases one reference on the node behind `edge`; cascades into
    /// the children when the node dies.
    fn deref(&mut self, edge: u32) {
        let mut stack = vec![edge >> 1];
        while let Some(n) = stack.pop() {
            let node = &mut self.nodes[n as usize];
            if node.var == TERMINAL_VAR {
                continue; // the terminal is immortal
            }
            debug_assert!(node.refs > 0, "double free in reorder workspace");
            node.refs -= 1;
            if node.refs == 0 {
                let WsNode { var, lo, hi, .. } = *node;
                node.var = DEAD;
                self.unique[var as usize].remove(&(lo, hi));
                self.free.push(n);
                self.live -= 1;
                stack.push(lo >> 1);
                stack.push(hi >> 1);
            }
        }
    }

    /// The classic adjacent-level swap: exchanges the variables at levels
    /// `lvl` and `lvl + 1`, locally rewriting the nodes of the upper
    /// variable. External references stay valid because upper nodes are
    /// rewritten **in place** (same arena index, same function — and the
    /// rewrite provably keeps the stored then-edge regular: the new
    /// then-child is built from then-edges, which are regular by the
    /// invariant).
    fn swap_levels(&mut self, lvl: usize) {
        let x = self.level_to_var[lvl];
        let y = self.level_to_var[lvl + 1];
        let xs: Vec<u32> = self.unique[x as usize].values().copied().collect();
        for n_idx in xs {
            let n = self.nodes[n_idx as usize];
            let (f0, f1) = (n.lo, n.hi);
            let f0_at_y = self.nodes[(f0 >> 1) as usize].var == y;
            let f1_at_y = self.nodes[(f1 >> 1) as usize].var == y;
            if !f0_at_y && !f1_at_y {
                // Independent of y: the node just moves down with x.
                continue;
            }
            // Cofactors push the edge's complement bit into the children;
            // f1 is regular by the invariant, so its cofactors come out
            // as stored (and f11/f01 inherit regularity from then-edges).
            let (f00, f01) = if f0_at_y {
                let c = self.nodes[(f0 >> 1) as usize];
                let p = f0 & 1;
                (c.lo ^ p, c.hi ^ p)
            } else {
                (f0, f0)
            };
            let (f10, f11) = if f1_at_y {
                let c = self.nodes[(f1 >> 1) as usize];
                (c.lo, c.hi)
            } else {
                (f1, f1)
            };
            self.unique[x as usize].remove(&(f0, f1));
            // n = ite(x, f1, f0) = ite(y, ite(x, f11, f01), ite(x, f10, f00)).
            let new_lo = self.mk_ref(x, f00, f10);
            let new_hi = self.mk_ref(x, f01, f11);
            // f11 is always regular (then-edge of a canonical node, or f1
            // itself), so mk_ref neither flips nor — in the f01 == f11
            // collapse — returns a complemented edge. The in-place
            // rewrite below is therefore canonical as stored.
            debug_assert_eq!(new_hi & 1, 0, "swap broke then-edge regularity");
            {
                let node = &mut self.nodes[n_idx as usize];
                node.var = y;
                node.lo = new_lo;
                node.hi = new_hi;
            }
            let prev = self.unique[y as usize].insert((new_lo, new_hi), n_idx);
            debug_assert!(prev.is_none(), "swap produced a duplicate node");
            self.deref(f0);
            self.deref(f1);
        }
        self.level_to_var.swap(lvl, lvl + 1);
        self.var_to_level[x as usize] = (lvl + 1) as u32;
        self.var_to_level[y as usize] = lvl as u32;
    }
}

/// Sifting search state: the groups and their current arrangement.
struct Sifter {
    /// Member variables per group, top-to-bottom within the group.
    groups: Vec<Vec<u32>>,
    /// Group indices in current level order.
    order: Vec<usize>,
    /// Number of groups in the reserved top block (they occupy the first
    /// `top_groups` positions of `order` at all times).
    top_groups: usize,
}

impl Sifter {
    /// Level of the first variable of the group at position `pos`.
    fn base_level(&self, pos: usize) -> usize {
        self.order[..pos].iter().map(|&g| self.groups[g].len()).sum()
    }

    /// Swaps the adjacent groups at positions `pos` and `pos + 1` through
    /// pairwise level swaps, preserving both groups' internal order.
    fn swap_adjacent_groups(&mut self, ws: &mut Workspace, pos: usize) {
        let k = self.groups[self.order[pos]].len();
        let m = self.groups[self.order[pos + 1]].len();
        let base = self.base_level(pos);
        // Bubble each variable of the lower group up over the upper group.
        for j in 0..m {
            for lvl in (base + j..base + k + j).rev() {
                ws.swap_levels(lvl);
            }
        }
        self.order.swap(pos, pos + 1);
    }

    /// Sifts the group currently at position `from` through every position
    /// in `[lo, hi]`, leaves it at the best one and returns the live node
    /// count there. `max_growth` aborts a direction once the count exceeds
    /// the best seen by more than 20%.
    fn sift_group(&mut self, ws: &mut Workspace, from: usize, lo: usize, hi: usize) -> usize {
        let mut best = ws.live;
        let mut best_pos = from;
        let grew = |live: usize, best: usize| live > best + best / 5;
        // Explore downward…
        let mut pos = from;
        while pos < hi {
            self.swap_adjacent_groups(ws, pos);
            pos += 1;
            if ws.live < best {
                best = ws.live;
                best_pos = pos;
            } else if grew(ws.live, best) {
                break;
            }
        }
        // …then all the way up…
        while pos > lo {
            self.swap_adjacent_groups(ws, pos - 1);
            pos -= 1;
            if ws.live < best {
                best = ws.live;
                best_pos = pos;
            } else if pos < from && grew(ws.live, best) {
                break;
            }
        }
        // …and settle at the best position seen.
        while pos < best_pos {
            self.swap_adjacent_groups(ws, pos);
            pos += 1;
        }
        debug_assert_eq!(ws.live, best, "sifting lost track of the best position");
        best
    }
}

impl BddManager {
    /// Reorders the variables by **constrained group sifting**, keeping
    /// exactly the functions reachable from `roots` and returning the
    /// handle map ([`ReorderOutcome`]).
    ///
    /// `groups` must partition the registered variables; each group must
    /// currently occupy contiguous levels (in member order), and the
    /// `top`-flagged groups must currently form the topmost block of the
    /// order. Sifting preserves both properties: groups move as blocks and
    /// top groups never leave the top block.
    ///
    /// Every [`Bdd`] handle not passed in `roots` is invalidated — the
    /// rebuild is also the manager's garbage collection. Operation caches
    /// are dropped (node indices change wholesale); registered variable
    /// sets are re-sorted for the new order; pairings survive unchanged
    /// (they are variable-id-keyed, and remain order-preserving because
    /// paired variables always share a group).
    ///
    /// # Panics
    ///
    /// Panics if `groups` is not a partition of the variables into
    /// currently-contiguous blocks with the top block in place.
    pub fn reorder_groups(&mut self, groups: &[ReorderGroup], roots: &[Bdd]) -> ReorderOutcome {
        self.reorder_impl(Some((groups, 0)), roots)
    }

    /// Like [`BddManager::reorder_groups`], but runs the sifting search
    /// only when the extracted live size is at least `min_live` —
    /// otherwise the single extraction still rebuilds (collecting
    /// garbage) in the current order. One pass either way: callers that
    /// gate sifting on live size need not pay a separate compaction to
    /// measure it.
    pub fn reorder_groups_min_live(
        &mut self,
        groups: &[ReorderGroup],
        roots: &[Bdd],
        min_live: usize,
    ) -> ReorderOutcome {
        self.reorder_impl(Some((groups, min_live)), roots)
    }

    /// Rebuilds the manager keeping only the functions reachable from
    /// `roots`, in the *current* order — pure garbage collection, without
    /// the sifting search. Same invalidation contract as
    /// [`BddManager::reorder_groups`]; costs `O(live)` instead of a
    /// sifting pass.
    pub fn compact(&mut self, roots: &[Bdd]) -> ReorderOutcome {
        self.reorder_impl(None, roots)
    }

    fn reorder_impl(
        &mut self,
        groups: Option<(&[ReorderGroup], usize)>,
        roots: &[Bdd],
    ) -> ReorderOutcome {
        let nvars = self.var_to_level.len();
        if let Some((groups, _)) = groups {
            self.validate_groups(groups, nvars);
        }

        // ---- Extract the live subgraph into the workspace. -------------
        let mut ws = Workspace {
            nodes: vec![WsNode { var: TERMINAL_VAR, lo: 0, hi: 0, refs: 1 }],
            free: Vec::new(),
            unique: vec![HashMap::new(); nvars],
            var_to_level: self.var_to_level.clone(),
            level_to_var: self.level_to_var.clone(),
            live: 0,
        };
        // man node index → workspace node index, for the extraction only.
        // Edges translate by mapping the index and carrying the
        // complement bit across: canonical in the manager iff canonical
        // in the workspace.
        let mut into_ws: HashMap<u32, u32> = HashMap::from([(0, 0)]);
        for &root in roots {
            self.extract(root, &mut ws, &mut into_ws);
        }
        // Every root occurrence holds one reference, so live functions
        // survive even when sifting rewrites away all their parents.
        for &root in roots {
            ws.nodes[into_ws[&((root.raw()) >> 1)] as usize].refs += 1;
        }
        let live_before = ws.live;

        // ---- Sift. -----------------------------------------------------
        let sift = matches!(groups, Some((_, min_live)) if live_before >= min_live);
        if let Some((groups, _)) = groups.filter(|_| sift) {
            let top_groups = groups.iter().filter(|g| g.top).count();
            let mut sifter = {
                // Position groups by current level; the validation above
                // guarantees top groups come first.
                let mut order: Vec<usize> = (0..groups.len()).collect();
                order.sort_by_key(|&g| self.var_to_level[groups[g].vars[0] as usize]);
                Sifter {
                    groups: groups.iter().map(|g| g.vars.clone()).collect(),
                    order,
                    top_groups,
                }
            };
            // Sift heaviest groups first (they move the most nodes). Skip
            // featherweight groups outright: a group carrying under 0.1%
            // of the live nodes cannot move the total meaningfully, and
            // walking it across the whole order costs as much as any
            // other — the cutoff keeps a sifting pass proportional to
            // where the nodes actually are.
            let group_nodes = |sifter: &Sifter, ws: &Workspace, g: usize| -> usize {
                sifter.groups[g]
                    .iter()
                    .map(|&v| ws.unique[v as usize].len())
                    .sum()
            };
            let cutoff = (live_before / 1000).max(1);
            let mut by_weight: Vec<(usize, usize)> = (0..groups.len())
                .filter_map(|g| {
                    let w = group_nodes(&sifter, &ws, g);
                    (w >= cutoff).then_some((w, g))
                })
                .collect();
            by_weight.sort_by_key(|&(w, g)| (usize::MAX - w, g));
            for (_, g) in by_weight {
                let pos = sifter
                    .order
                    .iter()
                    .position(|&og| og == g)
                    .expect("group is placed");
                let (lo, hi) = if groups[g].top {
                    (0, sifter.top_groups - 1)
                } else {
                    (sifter.top_groups, sifter.order.len() - 1)
                };
                sifter.sift_group(&mut ws, pos, lo, hi);
            }
        }

        // ---- Rebuild the manager in the new order. ---------------------
        let live_after = ws.live;
        let store_before = self.nodes.len();
        let mut nodes: Vec<Node> = vec![Node { var: TERMINAL_VAR, lo: 0, hi: 0 }];
        nodes.reserve(live_after);
        let mut unique: HashMap<(u32, u32, u32), u32> = HashMap::with_capacity(live_after);
        // workspace node index → new manager node index. Indices are
        // assigned bottom-up, sorting each level by the (already
        // translated) child edges — deterministic regardless of hash-map
        // iteration order. Complement bits ride along on the edges, so
        // canonicity is preserved verbatim.
        let mut out_of_ws: HashMap<u32, u32> = HashMap::from([(0, 0)]);
        for lvl in (0..nvars).rev() {
            let var = ws.level_to_var[lvl];
            let mut level_nodes: Vec<(u32, u32, u32)> = ws.unique[var as usize]
                .values()
                .map(|&idx| {
                    let n = ws.nodes[idx as usize];
                    let lo = (out_of_ws[&(n.lo >> 1)] << 1) | (n.lo & 1);
                    let hi = (out_of_ws[&(n.hi >> 1)] << 1) | (n.hi & 1);
                    (lo, hi, idx)
                })
                .collect();
            level_nodes.sort_unstable();
            for (lo, hi, ws_idx) in level_nodes {
                let new = u32::try_from(nodes.len()).expect("BDD node store overflow");
                debug_assert_eq!(hi & 1, 0, "rebuild broke then-edge regularity");
                nodes.push(Node { var, lo, hi });
                unique.insert((var, lo, hi), new);
                out_of_ws.insert(ws_idx, new);
            }
        }
        let map: HashMap<u32, u32> = roots
            .iter()
            .map(|r| {
                let new_idx = out_of_ws[&into_ws[&(r.raw() >> 1)]];
                (r.raw(), (new_idx << 1) | (r.raw() & 1))
            })
            .collect();

        self.nodes = nodes;
        self.unique = unique;
        // Node indices changed wholesale: every memo entry is meaningless.
        self.clear_op_caches();
        self.var_to_level = ws.var_to_level;
        self.level_to_var = ws.level_to_var;
        // Variable sets are traversal-ordered: re-sort them for the new
        // levels (contents unchanged, so every VarSetId stays valid).
        let levels = std::mem::take(&mut self.var_to_level);
        for set in &mut self.var_sets {
            set.sort_by_key(|&v| levels[v as usize]);
        }
        self.var_to_level = levels;
        // Pairings are variable-id-keyed and survive as long as they stay
        // order-preserving — guaranteed by pairs sharing a group.
        #[cfg(debug_assertions)]
        {
            let pairings = self.pairings.clone();
            for p in &pairings {
                self.assert_pairing_monotone(p);
            }
        }

        ReorderOutcome {
            store_before,
            live_before,
            live_after,
            sifted: sift,
            map,
        }
    }

    /// Copies the subgraph of `root` into the workspace (iterative
    /// post-order, so deep BDDs cannot overflow the call stack). Keyed by
    /// node index — a function and its complement share one workspace
    /// node, exactly as they share one manager node.
    fn extract(&self, root: Bdd, ws: &mut Workspace, into_ws: &mut HashMap<u32, u32>) {
        let mut stack = vec![(root.raw() >> 1, false)];
        while let Some((n, expanded)) = stack.pop() {
            if into_ws.contains_key(&n) {
                continue;
            }
            let node = self.nodes[n as usize];
            if expanded {
                let lo = (into_ws[&(node.lo >> 1)] << 1) | (node.lo & 1);
                let hi = (into_ws[&(node.hi >> 1)] << 1) | (node.hi & 1);
                let edge = ws.mk_ref(node.var, lo, hi);
                debug_assert_eq!(edge & 1, 0, "extracting a canonical node yields a regular edge");
                // mk_ref's caller reference is dropped again: reference
                // counting during extraction comes from parents (and the
                // explicit root references added by the caller).
                let idx = edge >> 1;
                ws.nodes[idx as usize].refs -= 1;
                into_ws.insert(n, idx);
            } else {
                stack.push((n, true));
                stack.push((node.lo >> 1, false));
                stack.push((node.hi >> 1, false));
            }
        }
    }

    fn validate_groups(&self, groups: &[ReorderGroup], nvars: usize) {
        let mut covered = vec![false; nvars];
        let mut top_size = 0usize;
        for g in groups {
            assert!(!g.vars.is_empty(), "empty reorder group");
            for w in g.vars.windows(2) {
                assert_eq!(
                    self.var_to_level[w[1] as usize],
                    self.var_to_level[w[0] as usize] + 1,
                    "group variables {} and {} are not level-adjacent",
                    w[0],
                    w[1]
                );
            }
            for &v in &g.vars {
                let slot = &mut covered[v as usize];
                assert!(!*slot, "variable {v} appears in two reorder groups");
                *slot = true;
            }
            if g.top {
                top_size += g.vars.len();
            }
        }
        assert!(
            covered.iter().all(|&c| c),
            "reorder groups must cover every registered variable"
        );
        for g in groups.iter().filter(|g| g.top) {
            for &v in &g.vars {
                assert!(
                    (self.var_to_level[v as usize] as usize) < top_size,
                    "top-block variable {v} is below the top block"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::SignalTable;
    use crate::valuation::Valuation;

    /// One group per variable, no top block — plain sifting.
    fn singleton_groups(n: u32) -> Vec<ReorderGroup> {
        (0..n)
            .map(|v| ReorderGroup { vars: vec![v], top: false })
            .collect()
    }

    #[test]
    fn reorder_preserves_semantics() {
        // A function with a strongly order-sensitive size: the "two-bank"
        // conjunction x0·y0 ∨ x1·y1 ∨ x2·y2, registered banks-apart (all
        // x first) — the worst order. Sifting must interleave the pairs
        // and shrink the BDD, without changing the function.
        let mut t = SignalTable::new();
        let xs: Vec<_> = (0..3).map(|i| t.intern(&format!("x{i}"))).collect();
        let ys: Vec<_> = (0..3).map(|i| t.intern(&format!("y{i}"))).collect();
        let mut m = BddManager::new();
        let xv: Vec<_> = xs.iter().map(|&s| m.var_for_signal(s)).collect();
        let yv: Vec<_> = ys.iter().map(|&s| m.var_for_signal(s)).collect();
        let mut f = Bdd::FALSE;
        for i in 0..3 {
            let pair = m.and(xv[i], yv[i]);
            f = m.or(f, pair);
        }
        let size_before = m.size(f);
        let mut truth = Vec::new();
        let all: Vec<_> = xs.iter().chain(&ys).copied().collect();
        for bits in 0..64u64 {
            let mut v = Valuation::all_false(t.len());
            v.assign_key(&all, bits);
            truth.push(m.eval(f, &v));
        }

        let outcome = m.reorder_groups(&singleton_groups(6), &[f]);
        let mut f2 = f;
        outcome.remap(&mut f2);
        assert_eq!(outcome.live_before, size_before);
        assert!(
            outcome.live_after < size_before,
            "sifting should shrink the banked conjunction ({} -> {})",
            size_before,
            outcome.live_after
        );
        for (bits, &expect) in truth.iter().enumerate() {
            let mut v = Valuation::all_false(t.len());
            v.assign_key(&all, bits as u64);
            assert_eq!(m.eval(f2, &v), expect, "bits {bits:06b}");
        }
        // The rebuilt manager is canonical: rebuilding the function from
        // scratch reuses the same handle.
        let xv2: Vec<_> = xs.iter().map(|&s| m.var_for_signal(s)).collect();
        let yv2: Vec<_> = ys.iter().map(|&s| m.var_for_signal(s)).collect();
        let mut g = Bdd::FALSE;
        for i in 0..3 {
            let pair = m.and(xv2[i], yv2[i]);
            g = m.or(g, pair);
        }
        assert_eq!(g, f2);
    }

    #[test]
    fn complemented_roots_survive_a_reorder() {
        // A root and its complement share nodes; both must remap, and the
        // remapped handles must still be each other's complement.
        let mut t = SignalTable::new();
        let xs: Vec<_> = (0..4).map(|i| t.intern(&format!("x{i}"))).collect();
        let mut m = BddManager::new();
        let vs: Vec<_> = xs.iter().map(|&s| m.var_for_signal(s)).collect();
        let a = m.and(vs[0], vs[2]);
        let b = m.and(vs[1], vs[3]);
        let f = m.or(a, b);
        let nf = m.not(f);
        let outcome = m.reorder_groups(&singleton_groups(4), &[f, nf]);
        let (f2, nf2) = (outcome.lookup(f), outcome.lookup(nf));
        assert_eq!(nf2, f2.complement());
        for bits in 0..16u64 {
            let mut v = Valuation::all_false(t.len());
            v.assign_key(&xs, bits);
            let expect = (bits & 1) & (bits >> 2 & 1) | (bits >> 1 & 1) & (bits >> 3 & 1);
            assert_eq!(m.eval(f2, &v), expect == 1, "bits {bits:04b}");
            assert_eq!(m.eval(nf2, &v), expect == 0, "bits {bits:04b}");
        }
    }

    #[test]
    fn groups_move_as_blocks_and_top_block_is_preserved() {
        // Six variables in three pairs; the first pair is a top block.
        let mut t = SignalTable::new();
        let sigs: Vec<_> = (0..6).map(|i| t.intern(&format!("s{i}"))).collect();
        let mut m = BddManager::new();
        let vs: Vec<_> = sigs.iter().map(|&s| m.var_for_signal(s)).collect();
        // Couple pair 1 (vars 2,3) to pair 2 (vars 4,5) so sifting wants
        // to move them together; mention the top pair too.
        let a = m.and(vs[2], vs[4]);
        let b = m.and(vs[3], vs[5]);
        let ab = m.or(a, b);
        let top = m.and(vs[0], vs[1]);
        let f = m.xor(ab, top);
        let groups = vec![
            ReorderGroup { vars: vec![0, 1], top: true },
            ReorderGroup { vars: vec![2, 3], top: false },
            ReorderGroup { vars: vec![4, 5], top: false },
        ];
        let outcome = m.reorder_groups(&groups, &[f]);
        let mut f2 = f;
        outcome.remap(&mut f2);
        // Top block: vars 0 and 1 still occupy levels 0 and 1, in order.
        assert_eq!(m.level_of(0), 0);
        assert_eq!(m.level_of(1), 1);
        // Pair members stay adjacent, in order, below the top block.
        for pair in [[2u32, 3], [4, 5]] {
            assert_eq!(
                m.level_of(pair[1]),
                m.level_of(pair[0]) + 1,
                "pair {pair:?} must stay adjacent"
            );
            assert!(m.level_of(pair[0]) >= 2, "pair {pair:?} must stay below the top block");
        }
        // Semantics preserved.
        for bits in 0..64u64 {
            let mut v = Valuation::all_false(t.len());
            v.assign_key(&sigs, bits);
            let expect = ((bits >> 2 & 1) & (bits >> 4 & 1) | (bits >> 3 & 1) & (bits >> 5 & 1))
                ^ ((bits & 1) & (bits >> 1 & 1));
            assert_eq!(m.eval(f2, &v), expect == 1, "bits {bits:06b}");
        }
    }

    #[test]
    fn unregistered_roots_are_collected_and_dangling_lookup_panics() {
        let mut t = SignalTable::new();
        let a = t.intern("a");
        let b = t.intern("b");
        let mut m = BddManager::new();
        let va = m.var_for_signal(a);
        let vb = m.var_for_signal(b);
        let keep = m.and(va, vb);
        let drop = m.or(va, vb);
        let nodes_with_garbage = m.node_count();
        let outcome = m.reorder_groups(&singleton_groups(2), &[keep]);
        assert!(outcome.store_before == nodes_with_garbage);
        assert!(m.node_count() < nodes_with_garbage, "garbage must be collected");
        let r = std::panic::catch_unwind(|| outcome.lookup(drop));
        assert!(r.is_err(), "unregistered handles must not remap silently");
    }

    #[test]
    fn quantification_and_rename_survive_a_reorder() {
        // Interleaved curr/next pairs (a,b) and (c,d); pairing a→b, c→d.
        let mut t = SignalTable::new();
        let ids: Vec<_> = ["a", "b", "c", "d"].iter().map(|n| t.intern(n)).collect();
        let mut m = BddManager::new();
        let vs: Vec<_> = ids.iter().map(|&s| m.var_for_signal(s)).collect();
        let (va, vb, vc, vd) = (0u32, 1u32, 2u32, 3u32);
        let c2n = m.register_pairing(&[(va, vb), (vc, vd)]);
        let set = m.register_var_set(&[va, vc]);
        let nc = m.not(vs[2]);
        let f = m.and(vs[0], nc);
        let g = m.or(vs[0], vs[2]);
        let expect_ae = {
            let conj = m.and(f, g);
            m.exists_all(conj, &[ids[0], ids[2]])
        };
        let before_ae = m.and_exists(f, g, set);
        assert_eq!(before_ae, expect_ae);
        let before_rn = m.rename(f, c2n);

        let groups = vec![
            ReorderGroup { vars: vec![0, 1], top: false },
            ReorderGroup { vars: vec![2, 3], top: false },
        ];
        let mut roots = [f, g, before_ae, before_rn];
        let outcome = m.reorder_groups(&groups, &roots.clone());
        for r in &mut roots {
            outcome.remap(r);
        }
        let [f, g, ae, rn] = roots;
        // The registered set and pairing still work on the new order.
        assert_eq!(m.and_exists(f, g, set), ae);
        assert_eq!(m.rename(f, c2n), rn);
    }
}
