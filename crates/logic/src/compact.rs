//! Root-set compaction: the BDD manager's only garbage collector.
//!
//! The node store is append-only. [`BddManager::compact`] copies the
//! subgraph reachable from the caller's roots into a fresh store, drops
//! the operation memos and hands back an old→new root map
//! ([`CompactOutcome`]); every handle not passed as a root is dangling
//! afterwards. The variable order is the order variables were registered
//! in, so a compaction never moves a variable: registered variable sets
//! and pairings stay valid as they are.
//!
//! The live subgraph of a canonical store is itself reduced and
//! canonical, so the copy keeps every node and edge, complement bits
//! included. Only the numbering changes, and it is deterministic: nodes
//! are numbered bottom-up, from the highest variable id to the lowest,
//! and within one variable in the order of their (already renumbered)
//! child edges — never in a hash table's iteration order.

use crate::bdd::{Bdd, BddManager, Node, TERMINAL_VAR};
use crate::hashing::FastMap;

/// Outcome of one [`BddManager::compact`] call.
#[derive(Clone, Debug)]
pub struct CompactOutcome {
    /// Node-store size before the compaction: live nodes *plus* the
    /// garbage it collects, terminal included.
    pub store_before: usize,
    /// Live nodes (reachable from the roots), terminal excluded — the
    /// store size of the compacted manager, less the terminal.
    pub live: usize,
    /// Old root handle → new root handle. Every handle passed in `roots`
    /// has an entry; any handle *not* passed is dangling after the call.
    map: FastMap<u32, u32>,
}

impl CompactOutcome {
    /// Rewrites a kept handle into the compacted manager.
    ///
    /// # Panics
    ///
    /// Panics if `h` was not in the root set of the compaction — such a
    /// handle is dangling, and using it would be silent corruption.
    pub fn remap(&self, h: &mut Bdd) {
        *h = self.lookup(*h);
    }

    /// Looks up the new handle for an old root.
    ///
    /// # Panics
    ///
    /// As for [`CompactOutcome::remap`].
    pub fn lookup(&self, h: Bdd) -> Bdd {
        match self.map.get(&h.raw()) {
            Some(&n) => Bdd::from_raw(n),
            None => panic!("BDD handle {h:?} was not registered as a compaction root"),
        }
    }
}

impl BddManager {
    /// Rebuilds the manager keeping only the functions reachable from
    /// `roots`, and returns the handle map ([`CompactOutcome`]).
    ///
    /// Every [`Bdd`] handle not passed in `roots` is invalidated. The
    /// operation memos are dropped (node indices change wholesale);
    /// variables, variable sets and pairings are untouched. Costs
    /// `O(live)` plus one word per node of the old store.
    pub fn compact(&mut self, roots: &[Bdd]) -> CompactOutcome {
        const UNSEEN: u32 = u32::MAX;
        // Old node index → new node index. The mark phase sets a visited
        // node to 0; the numbering phase overwrites that before any parent
        // reads it, because a child's variable id is always larger than
        // its parent's. The terminal is index 0 in both stores.
        let mut renumber = vec![UNSEEN; self.nodes.len()];
        renumber[0] = 0;
        let mut by_var: Vec<Vec<u32>> = vec![Vec::new(); self.var_count()];
        let mut stack: Vec<usize> = roots.iter().map(|r| r.index()).collect();
        while let Some(n) = stack.pop() {
            if renumber[n] != UNSEEN {
                continue;
            }
            renumber[n] = 0;
            let node = self.nodes[n];
            by_var[node.var as usize].push(n as u32);
            stack.push((node.lo >> 1) as usize);
            stack.push((node.hi >> 1) as usize);
        }

        let live: usize = by_var.iter().map(Vec::len).sum();
        let mut nodes: Vec<Node> = Vec::with_capacity(live + 1);
        nodes.push(Node {
            var: TERMINAL_VAR,
            lo: 0,
            hi: 0,
        });
        let mut unique: FastMap<(u32, u32, u32), u32> =
            FastMap::with_capacity_and_hasher(live, Default::default());
        for (var, members) in by_var.iter().enumerate().rev() {
            let var = var as u32;
            let edge = |e: u32| (renumber[(e >> 1) as usize] << 1) | (e & 1);
            let mut level: Vec<(u32, u32, u32)> = members
                .iter()
                .map(|&n| {
                    let node = self.nodes[n as usize];
                    (edge(node.lo), edge(node.hi), n)
                })
                .collect();
            level.sort_unstable();
            for (lo, hi, old) in level {
                let new = u32::try_from(nodes.len()).expect("no larger than the old store");
                nodes.push(Node { var, lo, hi });
                unique.insert((var, lo, hi), new);
                renumber[old as usize] = new;
            }
        }
        let map: FastMap<u32, u32> = roots
            .iter()
            .map(|r| (r.raw(), (renumber[r.index()] << 1) | (r.raw() & 1)))
            .collect();

        let store_before = self.nodes.len();
        self.nodes = nodes;
        self.unique = unique;
        // Node indices changed wholesale: every memo entry is meaningless.
        self.clear_op_caches();
        CompactOutcome {
            store_before,
            live,
            map,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::SignalTable;
    use crate::valuation::Valuation;

    #[test]
    fn compaction_preserves_semantics() {
        // x0·y0 ∨ x1·y1 ∨ x2·y2 with garbage around it: the compaction
        // keeps exactly its nodes and its function.
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
            let _garbage = m.xor(xv[i], yv[2 - i]);
        }
        let size_before = m.size(f);
        let mut truth = Vec::new();
        let all: Vec<_> = xs.iter().chain(&ys).copied().collect();
        for bits in 0..64u64 {
            let mut v = Valuation::all_false(t.len());
            v.assign_key(&all, bits);
            truth.push(m.eval(f, &v));
        }

        let outcome = m.compact(&[f]);
        let mut f2 = f;
        outcome.remap(&mut f2);
        assert_eq!(outcome.live, size_before);
        assert_eq!(
            m.node_count(),
            size_before + 1,
            "only f's nodes and the terminal remain"
        );
        for (bits, &expect) in truth.iter().enumerate() {
            let mut v = Valuation::all_false(t.len());
            v.assign_key(&all, bits as u64);
            assert_eq!(m.eval(f2, &v), expect, "bits {bits:06b}");
        }
        // The compacted manager is canonical: rebuilding the function from
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
    fn complemented_roots_survive_a_compaction() {
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
        let outcome = m.compact(&[f, nf]);
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
        let outcome = m.compact(&[keep]);
        assert!(outcome.store_before == nodes_with_garbage);
        assert!(
            m.node_count() < nodes_with_garbage,
            "garbage must be collected"
        );
        let r = std::panic::catch_unwind(|| outcome.lookup(drop));
        assert!(r.is_err(), "unregistered handles must not remap silently");
    }

    #[test]
    fn quantification_and_rename_survive_a_compaction() {
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

        let mut roots = [f, g, before_ae, before_rn];
        let outcome = m.compact(&roots.clone());
        for r in &mut roots {
            outcome.remap(r);
        }
        let [f, g, ae, rn] = roots;
        // The registered set and pairing still work after the compaction.
        assert_eq!(m.and_exists(f, g, set), ae);
        assert_eq!(m.rename(f, c2n), rn);
    }
}
