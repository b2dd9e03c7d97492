//! Symbolic LTL checking: GBA product encoding, Emerson–Lei fair-cycle
//! detection and replayable lasso counterexamples.
//!
//! The existential query "is there a run of `M` satisfying every formula?"
//! is answered fully symbolically:
//!
//! 1. each conjunct is translated to a (small, explicit) generalized Büchi
//!    automaton — the same GPVW translation the explicit engine uses — and
//!    its state space is *encoded in binary* over fresh BDD variables: the
//!    automaton transition structure, its literal obligations, its initial
//!    states and its acceptance sets all become BDDs;
//! 2. the product of the module's transition relation with every automaton
//!    relation is never built as a graph: images and preimages run over the
//!    partitioned conjunct list with early quantification
//!    ([`dic_logic::BddManager::and_exists`]);
//! 3. forward reachability restricts the search, and an Emerson–Lei
//!    greatest fixpoint `νZ. ⋀_j EX E[Z U (Z ∧ F_j)]` finds the states
//!    with a fair path (one fairness set per acceptance set of every
//!    automaton);
//! 4. when the intersection with the initial states is non-empty, a
//!    deterministic walk through the fixpoint — guided by backward
//!    "onion-ring" distances to each fairness set — extracts a concrete
//!    lasso, which is replayed into full signal valuations
//!    ([`dic_ltl::LassoWord`]) exactly like the explicit engine's
//!    counterexamples.
//!
//! The per-query machinery lives in `ProductData`, which is **cached per
//! conjunct list** on the model: repeated queries against the same base
//! formulas (the gap phase issues hundreds sharing `R ∧ ¬FA`) reuse the
//! encoded automata, the reachable set, the fair hull and the onion rings
//! instead of recomputing any of them. Extended products (a cached base
//! plus a few extra conjuncts, used for gap-closure checks) re-encode only
//! the extra automata and restrict every image and preimage by the base's
//! reachable set — see [`crate::terms`].
//!
//! # Rebuilds and the handle-safety contract
//!
//! Between fixpoint steps the engine may **rebuild** the BDD manager
//! (`SymbolicModel::maybe_rebuild`): compact it over its live handles,
//! collecting its garbage. A rebuild invalidates
//! every [`Bdd`] handle not explicitly remapped. The contract every
//! function in this module follows:
//!
//! * only the fixpoint loops (`ProductData::reachable`,
//!   `ProductData::until`, `ProductData::hull`,
//!   `ProductData::rings_to`) trigger a rebuild at their loop heads,
//!   passing every local handle in a `live` vector to be remapped (the
//!   only other trigger point is the exit of a scratch scope, below);
//! * `ProductData::image`/`ProductData::preimage` and the encoding
//!   paths never rebuild, so straight-line code may hold handles across
//!   them;
//! * a caller holding a handle across a *fixpoint-running* call must
//!   either pass it through the callee's `live` vector or re-fetch it from
//!   a memoized product field afterwards (memoized fields are remapped in
//!   place). This is why e.g. `ProductData::can_fair` forces the hull
//!   *before* capturing the reachable set, and why
//!   `ProductData::decide` forces every fixpoint before extracting a
//!   witness;
//! * inside `SymbolicModel::scratch` rebuilding is disabled outright —
//!   a scratch query's intermediates (an extended closure product, cube
//!   frames) are untracked, so they run under whatever order the cached
//!   fixpoints settled on; the scope's exit checks the trigger once every
//!   live handle is a root again.

use crate::error::SymbolicError;
use crate::model::SymbolicModel;
use dic_automata::{translate_all, Gba};
use dic_logic::{Bdd, PairingId, SignalId, Valuation, VarSetId};
use dic_ltl::{LassoWord, Ltl};
use std::collections::HashMap;
use std::sync::Arc;

/// One automaton encoded over a slice of the shared bit pool.
pub(crate) struct AutEnc {
    /// Transition structure over this automaton's current/next bits only
    /// (literal obligations live in `inv`, not here).
    trans: Bdd,
    /// `⋁_q enc(q) ∧ literals(q)`: every position must pick a valid state
    /// code *and* satisfy its literal obligations.
    inv: Bdd,
    /// `⋁_{q initial} enc(q)`.
    init: Bdd,
    /// One fairness set per acceptance set: `⋁_{q ∈ F_j} enc(q)`.
    fair: Vec<Bdd>,
}

/// A symbolic product: the module plus encoded automata, with precomputed
/// quantification schedules for image/preimage and memoized fixpoint
/// results (reachable set, fair hull, hull-reaching set, onion rings).
///
/// Everything inside is a plain handle (BDDs, registered var sets and
/// pairings), so a product is cheap to keep around; the model caches one
/// per distinct conjunct list (see [`SymbolicModel::with_product`]).
#[derive(Debug)]
pub(crate) struct ProductData {
    /// Transition conjuncts: one per latch, then one per automaton,
    /// greedily merged into clusters of at most
    /// [`crate::model::SymbolicOptions::cluster_size`] nodes each, so an
    /// image step runs one `and_exists` sweep per cluster instead of one
    /// per conjunct. Extended products reuse the base's clusters verbatim
    /// and cluster only their extension tail.
    conjuncts: Vec<Bdd>,
    /// Support variables per conjunct (memoized: extended products reuse
    /// the base's supports instead of re-walking every conjunct BDD).
    supports: Vec<Vec<u32>>,
    /// Current-bank variables whose last occurrence is conjunct `i`
    /// (image schedule).
    img_sets: Vec<VarSetId>,
    /// Current-bank variables no conjunct mentions (quantified up front).
    img_tail: VarSetId,
    /// Next-bank variables whose last occurrence is conjunct `i`
    /// (preimage schedule).
    pre_sets: Vec<VarSetId>,
    /// Next-bank variables no conjunct mentions (free inputs).
    pre_tail: VarSetId,
    next_to_curr: PairingId,
    curr_to_next: PairingId,
    /// Conjunction of the `inv` of every automaton this product encodes —
    /// for an extended product only the new ones: the base's invariant is
    /// implied by `care` (see [`ProductData::assume_care_reachable`]).
    pub(crate) inv: Bdd,
    /// Module reset ∧ automata initial ∧ `inv`.
    pub(crate) init: Bdd,
    /// All fairness sets, flattened across automata.
    pub(crate) fair: Vec<Bdd>,
    /// Every current-bank variable of the product (module + automaton).
    all_curr: Vec<u32>,
    /// Every next-bank variable of the product.
    all_next: Vec<u32>,
    /// Length for product-state valuations (covers synthetic ids).
    val_len: usize,
    /// Automaton bit-pool cursor after this product's automata; extended
    /// products allocate their extra automata from here.
    pub(crate) bits_used: usize,
    /// Care set intersected into every image and preimage (`TRUE` for
    /// base products; the base's reachable set for extended products — a
    /// sound restriction, since any extended-reachable state projects to a
    /// base-reachable one).
    care: Bdd,
    /// Upper bound seeding the Emerson–Lei fixpoint (`TRUE` for base
    /// products; the base's fair hull for extended products — every fair
    /// extended run projects to a fair base run, so the extended hull
    /// lives inside the lifted base hull and the greatest fixpoint can
    /// start there instead of at the full reachable set).
    hull_seed: Bdd,
    /// Memoized forward-reachable set.
    reach: Option<Bdd>,
    /// Memoized fair hull `νZ. ⋀_j EX E[Z U (Z ∧ F_j)]` within `reach`.
    hull: Option<Bdd>,
    /// Memoized `E[reach U hull]`: states with some fair continuation.
    can_fair: Option<Bdd>,
    /// Memoized onion rings from `can_fair` down to the hull.
    hull_rings: Option<Vec<Bdd>>,
    /// Memoized per-fairness-set onion rings within the hull.
    fair_rings: Option<Vec<Vec<Bdd>>>,
}

impl SymbolicModel {
    /// Existential query: is there a run of the model satisfying every
    /// formula in `formulas` simultaneously? Returns a replayable witness
    /// lasso if so — the symbolic counterpart of
    /// [`dic_automata::satisfiable_in_conj`].
    ///
    /// The product for `formulas` is cached on the model, so repeating the
    /// query (or issuing factored gap queries against the same base — see
    /// [`SymbolicModel::satisfiable_factored`](crate::terms)) reuses its
    /// encoding and fixpoints.
    ///
    /// # Errors
    ///
    /// [`SymbolicError::NodeLimit`] when the BDDs outgrow the configured
    /// budget, [`SymbolicError::UnknownSignal`] for formula atoms the model
    /// does not know.
    pub fn satisfiable_conj(
        &mut self,
        formulas: &[Ltl],
    ) -> Result<Option<LassoWord>, SymbolicError> {
        let Some(gbas) = translate_all(formulas) else {
            // Some conjunct is unsatisfiable on its own (e.g. `p ∧ ¬p`).
            return Ok(None);
        };
        self.with_product(formulas, &gbas, |m, pd| pd.decide(m))
    }

    /// Like [`SymbolicModel::satisfiable_conj`] for `base ++ extra`, but
    /// building — and caching — the product as an *extension* of the
    /// shared `base` product. The expensive base fixpoints (reachable
    /// set, fair hull) are computed once and restrict every anchored
    /// extension, so queries differing only in `extra` (the primary
    /// coverage questions: one `¬A` automaton each over the same RTL
    /// conjunction) stop re-running full-product fixpoints. The anchored
    /// product is cached under the full conjunct list, exactly the key
    /// the gap phase later anchors *its* candidate extensions to.
    ///
    /// # Errors
    ///
    /// As for [`SymbolicModel::satisfiable_conj`].
    pub fn satisfiable_anchored(
        &mut self,
        base: &[Ltl],
        extra: &[Ltl],
    ) -> Result<Option<LassoWord>, SymbolicError> {
        let Some(base_gbas) = translate_all(base) else {
            return Ok(None);
        };
        let Some(extra_gbas) = translate_all(extra) else {
            return Ok(None);
        };
        self.with_extended_product(base, &base_gbas, extra, &extra_gbas, |m, pd| pd.decide(m))
    }

    /// Runs `f` with the cached product for `key` (building it on first
    /// use), returning the product to the cache afterwards — the take/put
    /// dance keeps the borrow checker happy while `f` mutates both the
    /// model and the product's memoized fixpoints.
    pub(crate) fn with_product<T>(
        &mut self,
        key: &[Ltl],
        gbas: &[Arc<Gba>],
        f: impl FnOnce(&mut SymbolicModel, &mut ProductData) -> Result<T, SymbolicError>,
    ) -> Result<T, SymbolicError> {
        let mut pd = match self.products.remove(key) {
            Some(pd) => pd,
            None => ProductData::build(self, gbas, None)?,
        };
        let result = f(self, &mut pd);
        self.products.insert(key.to_vec(), pd);
        result
    }

    /// Like [`SymbolicModel::with_product`] for the conjunct list
    /// `base ++ extra`, but building the product — on first use — as an
    /// *extension* of the cached `base` product: only the `extra` automata
    /// are encoded, every step is restricted by the base's reachable set
    /// and the fair-hull fixpoint is seeded with the base's hull. The
    /// extension is cached like any product, so repeated gap queries
    /// against the same anchored conjunction pay the cheap build once.
    ///
    /// `base` and `extra` must each have translated successfully
    /// (non-empty initial states); callers check via [`translate_all`].
    pub(crate) fn with_extended_product<T>(
        &mut self,
        base: &[Ltl],
        base_gbas: &[Arc<Gba>],
        extra: &[Ltl],
        extra_gbas: &[Arc<Gba>],
        f: impl FnOnce(&mut SymbolicModel, &mut ProductData) -> Result<T, SymbolicError>,
    ) -> Result<T, SymbolicError> {
        let full: Vec<Ltl> = base.iter().cloned().chain(extra.iter().cloned()).collect();
        if !self.products.contains_key(&full) {
            let ext = self.with_product(base, base_gbas, |m, pd| {
                // The extension captures the base's hull and reachable
                // set: force both (they can rebuild) before building it.
                pd.hull(m)?;
                let mut ext = ProductData::build(m, extra_gbas, Some(pd))?;
                ext.assume_care_reachable(m);
                Ok(ext)
            })?;
            self.products.insert(full.clone(), ext);
        }
        self.with_product(&full, &[], f)
    }
}

/// Number of binary code bits for an `n`-state automaton (the shared
/// accounting in [`dic_automata::code_bits`]).
fn bits_for(n: usize) -> usize {
    dic_automata::code_bits(n)
}

impl ProductData {
    /// Encodes the automata of `gbas` and assembles the product plan. With
    /// `base`, builds an *extended* product: the base's conjuncts, initial
    /// set and fairness are reused as-is, only the new automata are
    /// encoded (over bit-pool slices above the base's), and the base's
    /// reachable set and hull — which the caller must have forced —
    /// become the care set and the hull seed.
    pub(crate) fn build(
        m: &mut SymbolicModel,
        gbas: &[Arc<Gba>],
        base: Option<&ProductData>,
    ) -> Result<ProductData, SymbolicError> {
        let mut build_span = dic_trace::span("symbolic.product_build");
        build_span.meta("automata", gbas.len() as u64);
        if base.is_some() {
            build_span.meta("extended", 1);
        }
        // Allocate a stable slice of the bit pool per automaton.
        let mut ranges = Vec::with_capacity(gbas.len());
        let mut cursor = base.map_or(0, |b| b.bits_used);
        for g in gbas {
            let nbits = bits_for(g.num_states());
            ranges.push((cursor, nbits));
            cursor += nbits;
        }
        m.ensure_aut_bits(cursor);

        let mut encs = Vec::with_capacity(gbas.len());
        for (g, &(start, nbits)) in gbas.iter().zip(&ranges) {
            let bits = m.aut_pool[start..start + nbits].to_vec();
            encs.push(encode_gba(m, g, &bits)?);
        }

        // Assemble the plan: conjuncts, invariant, init, fairness. Base
        // conjuncts (already clustered at the base's build) are reused
        // with their memoized supports; only the new tail is clustered
        // and re-walked below.
        let (mut conjuncts, mut supports, mut inv, mut init, mut fair, mut all_curr, mut all_next) =
            match base {
                None => (
                    m.trans_latches.clone(),
                    Vec::new(),
                    Bdd::TRUE,
                    m.init,
                    Vec::new(),
                    m.curr_var.clone(),
                    m.next_var.clone(),
                ),
                // Only the new automata's invariant: see
                // `assume_care_reachable` for why the base's is implied.
                Some(b) => (
                    b.conjuncts.clone(),
                    b.supports.clone(),
                    Bdd::TRUE,
                    b.init,
                    b.fair.clone(),
                    b.all_curr.clone(),
                    b.all_next.clone(),
                ),
            };
        let base_len = supports.len();
        debug_assert!(base_len <= conjuncts.len());
        for e in &encs {
            conjuncts.push(e.trans);
            inv = m.man.and(inv, e.inv);
            init = m.man.and(init, e.init);
            fair.extend(e.fair.iter().copied());
        }
        init = m.man.and(init, inv);

        // Keep even fairness sets the invariant implies (`inv ⊆ F_j`):
        // their Emerson–Lei term degenerates to `EX Z`, but the hull loop
        // applies its terms *sequentially* (Gauss–Seidel), so the cheap
        // `EX Z` trims shrink `Z` before the expensive `until` fixpoints
        // of the non-trivial sets run — dropping them was measured ~2.5×
        // slower on amba-ahb's primary hull despite the identical fixpoint.
        build_span.meta("fair", fair.len() as u64);

        // Conjunctive partitioning: greedily merge the new conjuncts into
        // clusters capped at `cluster_size` nodes, then derive the
        // quantification schedules from the clusters. Fewer clusters mean
        // fewer and_exists sweeps over the (large) frontier per image —
        // the merge order is the fixed conjunct order, so the clustering
        // (and with it every downstream set) is deterministic.
        let tail = conjuncts.split_off(base_len);
        conjuncts.extend(cluster_conjuncts(m, tail, m.options.cluster_size));
        for &c in &conjuncts[base_len..] {
            supports.push(m.man.support_vars(c));
        }
        build_span.meta("conjuncts", conjuncts.len() as u64);

        let first_new_bit = base.map_or(0, |b| b.bits_used);
        for &(c, n) in &m.aut_pool[first_new_bit..cursor] {
            all_curr.push(c);
            all_next.push(n);
        }

        // Early-quantification schedules: a variable can be summed out as
        // soon as the last conjunct mentioning it has been conjoined.
        let img_groups = last_occurrence_groups(&supports, &all_curr);
        let pre_groups = last_occurrence_groups(&supports, &all_next);
        let img_sets: Vec<VarSetId> = img_groups
            .per_conjunct
            .iter()
            .map(|vars| m.man.register_var_set(vars))
            .collect();
        let img_tail = m.man.register_var_set(&img_groups.unmentioned);
        let pre_sets: Vec<VarSetId> = pre_groups
            .per_conjunct
            .iter()
            .map(|vars| m.man.register_var_set(vars))
            .collect();
        let pre_tail = m.man.register_var_set(&pre_groups.unmentioned);

        let pairs_n2c: Vec<(u32, u32)> =
            all_next.iter().copied().zip(all_curr.iter().copied()).collect();
        let pairs_c2n: Vec<(u32, u32)> =
            all_curr.iter().copied().zip(all_next.iter().copied()).collect();
        let next_to_curr = m.man.register_pairing(&pairs_n2c);
        let curr_to_next = m.man.register_pairing(&pairs_c2n);

        let val_len = m.table.len() + m.synth_count;
        m.check_limit()?;
        Ok(ProductData {
            conjuncts,
            supports,
            img_sets,
            img_tail,
            pre_sets,
            pre_tail,
            next_to_curr,
            curr_to_next,
            inv,
            init,
            fair,
            all_curr,
            all_next,
            val_len,
            bits_used: cursor,
            care: base.map_or(Bdd::TRUE, |b| b.reach.expect("base reach forced")),
            hull_seed: base.map_or(Bdd::TRUE, |b| b.hull.expect("base hull forced")),
            reach: None,
            hull: None,
            can_fair: None,
            hull_rings: None,
            fair_rings: None,
        })
    }

    /// Visits every BDD handle this product keeps, for collection and
    /// remapping around a rebuild. Registered variable sets and pairings
    /// are id-based and survive a rebuild on their own; `supports` holds
    /// variable ids, not handles.
    pub(crate) fn visit_roots(&mut self, f: &mut dyn FnMut(&mut Bdd)) {
        for c in &mut self.conjuncts {
            f(c);
        }
        f(&mut self.inv);
        f(&mut self.init);
        for fr in &mut self.fair {
            f(fr);
        }
        f(&mut self.care);
        f(&mut self.hull_seed);
        for b in [&mut self.reach, &mut self.hull, &mut self.can_fair]
            .into_iter()
            .flatten()
        {
            f(b);
        }
        if let Some(rings) = &mut self.hull_rings {
            for b in rings {
                f(b);
            }
        }
        if let Some(rings) = &mut self.fair_rings {
            for ring in rings {
                for b in ring {
                    f(b);
                }
            }
        }
    }

    /// Skips the extension's reachability fixpoint altogether, memoizing
    /// the over-approximation `R' = care ∧ inv` (the base's reachable
    /// states, every valid extension-automaton code) in its place.
    ///
    /// Every downstream query stays exact, because each one only ever
    /// *follows real transitions* and uses the reachable set to restrict,
    /// never to assert reachability:
    ///
    /// * the hull within `R'` contains exactly the `R'`-states with a
    ///   genuine fair path (the fixpoint's `EX`/`EU` steps are real
    ///   preimages), and true fair paths from `init ⊆ R'` never leave
    ///   `reach ⊆ R'` — so `init ∧ hull'` is non-empty iff `init ∧ hull`
    ///   is ([`ProductData::decide`] is unchanged);
    /// * `can_fair' = E[R' U hull']` states reach a genuine fair path via
    ///   real transitions, and the bounded-scenario frontiers intersected
    ///   with it ([`super::SymbolicModel::factored_cube_sat`]) are forward
    ///   images of `init`, hence genuinely reachable — the intersection
    ///   verdicts coincide;
    /// * witness walks start at `init` (or at a forward frame) and step
    ///   through images, so every state they emit is reachable.
    ///
    /// What changes is only *which* witness the deterministic walk picks —
    /// never a verdict, so gap sets are untouched. What it saves is the
    /// extension's full forward fixpoint, the single most expensive step
    /// of an anchored query (~40 s of amba-ahb's forced-symbolic run).
    ///
    /// A second saving rests on the care set alone: an extension's `inv`
    /// covers only its *own* automata. The base's reachable set lies
    /// inside the base's full invariant (its automata's and, recursively,
    /// its own base's), and every image and preimage intersects `care`
    /// before `inv`. So each set an extension derives — reach, hull,
    /// `can_fair`, onion rings, cube frames, witness steps — already lies
    /// inside a subset of `care`, as does `init` (inside the base's);
    /// conjoining the base invariant again would change none of them.
    /// They are the *same handles* as with the conjoined invariant, so
    /// witnesses stay byte-identical too, and each closure check skips
    /// the `base.inv ∧ cand.inv` conjunction that used to dominate its
    /// build.
    pub(crate) fn assume_care_reachable(&mut self, m: &mut SymbolicModel) {
        debug_assert!(self.reach.is_none(), "reachability already ran");
        self.reach = Some(m.man.and(self.care, self.inv));
    }

    /// The full decision procedure: reachability, fair states, witness.
    pub(crate) fn decide(
        &mut self,
        m: &mut SymbolicModel,
    ) -> Result<Option<LassoWord>, SymbolicError> {
        if self.init.is_false() {
            return Ok(None);
        }
        let z = self.hull(m)?;
        let start = m.man.and(self.init, z);
        if start.is_false() {
            return Ok(None);
        }
        // A witness exists. Force the guidance rings *before* extracting
        // it: their fixpoints may rebuild, which would invalidate
        // `start`/`z` — re-derive both afterwards (the memoized hull is
        // remapped in place; the walk itself only runs images and never
        // rebuilds).
        self.ensure_fair_rings(m)?;
        let z = self.hull(m)?;
        let start = m.man.and(self.init, z);
        let product_lasso = self.extract_lasso(m, start, z)?;
        Ok(Some(self.to_word(m, &product_lasso.0, product_lasso.1)))
    }

    /// Successor image of `s` (a set over the current bank), restricted to
    /// `care` and the invariant.
    pub(crate) fn image(&self, m: &mut SymbolicModel, s: Bdd) -> Result<Bdd, SymbolicError> {
        if dic_trace::enabled() {
            dic_trace::count(dic_trace::Counter::BddPartitionImages, 1);
        }
        let mut acc = m.man.and_exists(s, Bdd::TRUE, self.img_tail);
        for i in 0..self.conjuncts.len() {
            acc = m.man.and_exists(acc, self.conjuncts[i], self.img_sets[i]);
        }
        let renamed = m.man.rename(acc, self.next_to_curr);
        let cared = m.man.and(renamed, self.care);
        let out = m.man.and(cared, self.inv);
        m.check_limit()?;
        Ok(out)
    }

    /// Predecessor image of `s`, restricted to `care` and the invariant.
    pub(crate) fn preimage(&self, m: &mut SymbolicModel, s: Bdd) -> Result<Bdd, SymbolicError> {
        if dic_trace::enabled() {
            dic_trace::count(dic_trace::Counter::BddPartitionImages, 1);
        }
        let shifted = m.man.rename(s, self.curr_to_next);
        let mut acc = m.man.and_exists(shifted, Bdd::TRUE, self.pre_tail);
        for i in 0..self.conjuncts.len() {
            acc = m.man.and_exists(acc, self.conjuncts[i], self.pre_sets[i]);
        }
        let cared = m.man.and(acc, self.care);
        let out = m.man.and(cared, self.inv);
        m.check_limit()?;
        Ok(out)
    }

    /// Forward reachability from the initial states (frontier-based,
    /// memoized, restricted to the care set).
    pub(crate) fn reachable(&mut self, m: &mut SymbolicModel) -> Result<Bdd, SymbolicError> {
        if let Some(r) = self.reach {
            return Ok(r);
        }
        let _span = dic_trace::span("symbolic.reachable");
        let init = m.man.and(self.init, self.care);
        let mut reach = init;
        let mut frontier = init;
        let mut live: Vec<Bdd> = Vec::new();
        loop {
            m.check_governance()?;
            live.clear();
            live.push(reach);
            live.push(frontier);
            m.maybe_rebuild(self, &mut live)?;
            frontier = live.pop().expect("pushed frontier");
            reach = live.pop().expect("pushed reach");
            let img = self.image(m, frontier)?;
            let fresh = diff(m, img, reach);
            if fresh.is_false() {
                self.reach = Some(reach);
                return Ok(reach);
            }
            reach = m.man.or(reach, fresh);
            frontier = fresh;
        }
    }

    /// `E[inside U target]` (both already restricted to the product
    /// invariant): least fixpoint of backward steps within `inside`.
    ///
    /// `live` carries the caller's fixpoint-local handles through any
    /// rebuild (see the [module docs](self)); the callee's own locals ride
    /// on top of it and are popped off before returning.
    fn until(
        &mut self,
        m: &mut SymbolicModel,
        inside: Bdd,
        target: Bdd,
        live: &mut Vec<Bdd>,
    ) -> Result<Bdd, SymbolicError> {
        let base = live.len();
        live.push(inside);
        let mut y = target;
        loop {
            m.check_governance()?;
            live.push(y);
            m.maybe_rebuild(self, live)?;
            y = live.pop().expect("pushed y");
            let inside = live[base];
            let pre = self.preimage(m, y)?;
            let step = m.man.and(inside, pre);
            let next = m.man.or(y, step);
            if next == y {
                live.truncate(base);
                return Ok(y);
            }
            y = next;
        }
    }

    /// The Emerson–Lei greatest fixpoint within the reachable states:
    /// `νZ. ⋀_j EX E[Z U (Z ∧ F_j)]` — or `νZ. EX Z` when no fairness
    /// sets exist (all conjuncts are safety; any cycle will do). Memoized.
    pub(crate) fn hull(&mut self, m: &mut SymbolicModel) -> Result<Bdd, SymbolicError> {
        if let Some(z) = self.hull {
            return Ok(z);
        }
        let reach = self.reachable(m)?;
        let _span = dic_trace::span("symbolic.fair_hull");
        let mut z = m.man.and(reach, self.hull_seed);
        let nfair = self.fair.len();
        let mut live: Vec<Bdd> = Vec::new();
        loop {
            m.check_governance()?;
            live.clear();
            live.push(z); // the round's starting point, [0]
            if nfair == 0 {
                // Safety-only products have no until() below to host the
                // rebuild hook, so the loop head hosts it directly.
                m.maybe_rebuild(self, &mut live)?;
                z = live[0];
                let pre = self.preimage(m, z)?;
                z = m.man.and(z, pre);
            } else {
                for j in 0..nfair {
                    let fj = self.fair[j]; // re-read: remapped in place
                    let target = m.man.and(z, fj);
                    live.push(z);
                    let eu = self.until(m, z, target, &mut live)?;
                    z = live.pop().expect("pushed z");
                    let pre = self.preimage(m, eu)?;
                    z = m.man.and(z, pre);
                }
            }
            // live[0] was remapped alongside z by any rebuild, so handle
            // equality still decides convergence.
            if z == live[0] {
                self.hull = Some(z);
                return Ok(z);
            }
        }
    }

    /// States with *some* fair continuation: `E[reach U hull]`. Every
    /// bounded-prefix query ends here — a prefix matters only if it can be
    /// continued into a fair lasso. Memoized.
    pub(crate) fn can_fair(&mut self, m: &mut SymbolicModel) -> Result<Bdd, SymbolicError> {
        if let Some(cf) = self.can_fair {
            return Ok(cf);
        }
        // Force the hull (and with it reachability) *first*: both may
        // rebuild, and the handles captured below must postdate that.
        let z = self.hull(m)?;
        let reach = self.reachable(m)?;
        let mut live: Vec<Bdd> = Vec::new();
        let cf = self.until(m, reach, z, &mut live)?;
        self.can_fair = Some(cf);
        Ok(cf)
    }

    /// Backward BFS "onion rings" from `target` within `z`: `rings[0]` is
    /// the target, `rings[d]` the states first reaching it in `d` steps.
    /// Every state of `z` with a path to the target lands in some ring.
    fn rings_to(
        &mut self,
        m: &mut SymbolicModel,
        z: Bdd,
        target: Bdd,
    ) -> Result<Vec<Bdd>, SymbolicError> {
        let mut z = z;
        let t0 = m.man.and(z, target);
        let mut rings = vec![t0];
        let mut covered = t0;
        let mut live: Vec<Bdd> = Vec::new();
        loop {
            m.check_governance()?;
            live.clear();
            live.push(z);
            live.push(covered);
            live.extend_from_slice(&rings);
            m.maybe_rebuild(self, &mut live)?;
            z = live[0];
            covered = live[1];
            rings.copy_from_slice(&live[2..]);
            let last = *rings.last().expect("non-empty");
            let pre = self.preimage(m, last)?;
            let in_z = m.man.and(pre, z);
            let fresh = diff(m, in_z, covered);
            if fresh.is_false() {
                return Ok(rings);
            }
            covered = m.man.or(covered, fresh);
            rings.push(fresh);
        }
    }

    /// Onion rings from the hull-reaching set down to the hull, memoized —
    /// the guide a bounded-prefix witness follows to complete its fair
    /// suffix (see [`ProductData::walk_to_hull`]).
    fn hull_rings(&mut self, m: &mut SymbolicModel) -> Result<&[Bdd], SymbolicError> {
        if self.hull_rings.is_none() {
            // can_fair forces the hull; fetch the hull after it so the
            // handle postdates any rebuild.
            let cf = self.can_fair(m)?;
            let z = self.hull(m)?;
            self.hull_rings = Some(self.rings_to(m, cf, z)?);
        }
        Ok(self.hull_rings.as_deref().expect("just computed"))
    }

    /// Onion rings to each fairness set within the hull, memoized — the
    /// guide [`ProductData::extract_lasso`] walks.
    fn ensure_fair_rings(&mut self, m: &mut SymbolicModel) -> Result<(), SymbolicError> {
        if self.fair_rings.is_none() && !self.fair.is_empty() {
            // Completed ring families are parked in `fair_rings` right
            // away so a rebuild during a later family's fixpoint remaps
            // them (`visit_roots`) instead of leaving them dangling. On
            // error the partial memo is discarded — a caller surviving a
            // NodeLimit must not find a half-built guide.
            self.fair_rings = Some(Vec::with_capacity(self.fair.len()));
            for j in 0..self.fair.len() {
                let family = (|| {
                    let z = self.hull(m)?; // memoized; remapped in place
                    let fj = self.fair[j];
                    self.rings_to(m, z, fj)
                })();
                match family {
                    Ok(rings) => self
                        .fair_rings
                        .as_mut()
                        .expect("parked above")
                        .push(rings),
                    Err(e) => {
                        self.fair_rings = None;
                        return Err(e);
                    }
                }
            }
        }
        Ok(())
    }

    /// Forces every memoized fixpoint this product's queries depend on
    /// (reachable set, fair hull, hull-reaching set; with `rings`, also
    /// the witness-guidance onion rings), so that a subsequent scratch
    /// query runs no fixpoint of its own on `self`.
    pub(crate) fn ensure_fixpoints(
        &mut self,
        m: &mut SymbolicModel,
        rings: bool,
    ) -> Result<(), SymbolicError> {
        self.can_fair(m)?; // forces reach and hull too
        if rings {
            self.hull_rings(m)?;
            self.ensure_fair_rings(m)?;
        }
        Ok(())
    }

    /// Picks one concrete product state out of a non-empty set
    /// (deterministically; unconstrained variables default to 0, which is
    /// a valid completion of the satisfying cube).
    pub(crate) fn pick(&self, m: &SymbolicModel, set: Bdd) -> Valuation {
        let cube = m.man.any_sat(set).expect("picked from a non-empty set");
        let mut v = Valuation::all_false(self.val_len);
        for l in cube.lits() {
            v.set(l.signal(), l.polarity());
        }
        v
    }

    /// The characteristic cube of one concrete product state.
    pub(crate) fn state_cube(&self, m: &mut SymbolicModel, s: &Valuation) -> Bdd {
        let mut acc = Bdd::TRUE;
        for i in 0..self.all_curr.len() {
            let var = self.all_curr[i];
            let sig = m.man.signal_of_var(var);
            let v = m.var_bdd(var);
            let lit = if s.get(sig) { v } else { m.man.not(v) };
            acc = m.man.and(acc, lit);
        }
        acc
    }

    fn holds(&self, m: &SymbolicModel, set: Bdd, s: &Valuation) -> bool {
        m.man.eval(set, s)
    }

    /// Extends a concrete walk ending at a hull-reaching state with steps
    /// down the memoized onion rings until the hull is entered; `seq`'s
    /// last state must lie in [`ProductData::can_fair`].
    pub(crate) fn walk_to_hull(
        &mut self,
        m: &mut SymbolicModel,
        seq: &mut Vec<Valuation>,
    ) -> Result<(), SymbolicError> {
        loop {
            let cur = seq.last().expect("non-empty").clone();
            let d = {
                let rings = self.hull_rings(m)?;
                rings.iter().position(|&r| m.man.eval(r, &cur))
            }
            .expect("walk_to_hull state must reach the hull");
            if d == 0 {
                return Ok(());
            }
            let cube = self.state_cube(m, &cur);
            let img = self.image(m, cube)?;
            let ring = self.hull_rings(m)?[d - 1];
            let succ = m.man.and(img, ring);
            seq.push(self.pick(m, succ));
        }
    }

    /// Extracts a concrete lasso inside the fair hull `z`, starting from a
    /// state of `start ⊆ z`.
    ///
    /// With fairness sets, the walk services them round-robin, always
    /// stepping one ring closer to the pending set; whenever a full round
    /// completes at an already-seen round boundary, the segment between the
    /// two occurrences contains every fairness set and closes the loop.
    /// The walk is deterministic in (state, pending set), so a boundary
    /// must eventually repeat.
    pub(crate) fn extract_lasso(
        &mut self,
        m: &mut SymbolicModel,
        start: Bdd,
        z: Bdd,
    ) -> Result<(Vec<Valuation>, usize), SymbolicError> {
        let first = self.pick(m, start);
        if self.fair.is_empty() {
            // Any cycle within z: walk arbitrary successors until a state
            // repeats (z is closed under "has a successor in z").
            let mut seq = vec![first.clone()];
            let mut index: HashMap<Valuation, usize> = HashMap::from([(first, 0)]);
            loop {
                let cube = self.state_cube(m, seq.last().expect("non-empty"));
                let img = self.image(m, cube)?;
                let succ = m.man.and(img, z);
                let next = self.pick(m, succ);
                if let Some(&i) = index.get(&next) {
                    return Ok((seq, i));
                }
                index.insert(next.clone(), seq.len());
                seq.push(next);
            }
        }

        self.ensure_fair_rings(m)?;
        let rings = self.fair_rings.clone().expect("just computed");
        let k = self.fair.len();
        let mut seq = vec![first];
        let mut boundary: HashMap<Valuation, usize> = HashMap::new();
        let mut j = 0usize;
        loop {
            let cur = seq.last().expect("non-empty").clone();
            // Retire every pending fairness set the current state satisfies
            // (at most one sweep over all k, to avoid spinning when one
            // state satisfies every set).
            let mut retired = 0;
            while retired < k && self.holds(m, rings[j][0], &cur) {
                if j == k - 1 {
                    // A full round just completed here.
                    let idx = seq.len() - 1;
                    if let Some(&i) = boundary.get(&cur) {
                        // seq[idx] == seq[i]: drop the duplicate; the loop
                        // [i..idx) contains a complete round.
                        seq.pop();
                        return Ok((seq, i));
                    }
                    boundary.insert(cur.clone(), idx);
                }
                j = (j + 1) % k;
                retired += 1;
            }
            // One step: toward the pending set if it is elsewhere, or
            // anywhere within z if the current state already provides it.
            let cube = self.state_cube(m, &cur);
            let img = self.image(m, cube)?;
            let d = rings[j]
                .iter()
                .position(|&r| self.holds(m, r, &cur))
                .expect("every fair-hull state reaches every fairness set");
            let goal = if d == 0 { z } else { rings[j][d - 1] };
            let succ = m.man.and(img, goal);
            let next = self.pick(m, succ);
            seq.push(next);
        }
    }

    /// Replays a product lasso into full signal valuations: state signals
    /// are copied from the product state, wires are settled through the
    /// module logic — the exact label construction of the explicit Kripke
    /// structure, so witnesses replay on the simulator identically.
    pub(crate) fn to_word(
        &self,
        m: &SymbolicModel,
        seq: &[Valuation],
        loop_start: usize,
    ) -> LassoWord {
        let words: Vec<Valuation> = seq
            .iter()
            .map(|s| {
                let mut v = Valuation::all_false(m.table.len());
                for &sig in &m.state_signals {
                    v.set(sig, s.get(sig));
                }
                m.module.eval_wires(&mut v);
                v
            })
            .collect();
        LassoWord::new(words, loop_start).expect("walk produced a loop")
    }
}

/// `a ∧ ¬b` in one ite.
fn diff(m: &mut SymbolicModel, a: Bdd, b: Bdd) -> Bdd {
    m.man.ite(b, Bdd::FALSE, a)
}

/// Greedy conjunctive clustering (the classic cluster-size heuristic):
/// walk the conjuncts in order, merging each into the current cluster
/// while the combined BDD stays within `cap` nodes; a conjunct that would
/// overflow the cap closes the cluster and opens the next one. A single
/// conjunct larger than `cap` becomes its own cluster — the cap bounds
/// merging, it never splits.
fn cluster_conjuncts(m: &mut SymbolicModel, raw: Vec<Bdd>, cap: usize) -> Vec<Bdd> {
    let mut out: Vec<Bdd> = Vec::new();
    let mut acc: Option<Bdd> = None;
    for c in raw {
        acc = Some(match acc {
            None => c,
            Some(a) => {
                let merged = m.man.and(a, c);
                if m.man.size(merged) <= cap {
                    merged
                } else {
                    out.push(a);
                    c
                }
            }
        });
    }
    out.extend(acc);
    out
}

/// Variables grouped by the last conjunct whose support mentions them.
struct OccurrenceGroups {
    per_conjunct: Vec<Vec<u32>>,
    unmentioned: Vec<u32>,
}

fn last_occurrence_groups(supports: &[Vec<u32>], bank: &[u32]) -> OccurrenceGroups {
    let mut last: HashMap<u32, usize> = HashMap::new();
    for (i, support) in supports.iter().enumerate() {
        for &v in support {
            if bank.contains(&v) {
                last.insert(v, i);
            }
        }
    }
    let mut per_conjunct = vec![Vec::new(); supports.len()];
    let mut unmentioned = Vec::new();
    for &v in bank {
        match last.get(&v) {
            Some(&i) => per_conjunct[i].push(v),
            None => unmentioned.push(v),
        }
    }
    OccurrenceGroups {
        per_conjunct,
        unmentioned,
    }
}

/// Encodes one GBA over `bits` (a `(curr, next)` variable pair per code
/// bit): transition structure, literal invariant, initial set, fairness.
fn encode_gba(
    m: &mut SymbolicModel,
    gba: &Gba,
    bits: &[(u32, u32)],
) -> Result<AutEnc, SymbolicError> {
    let enc = |m: &mut SymbolicModel, q: u32, next_bank: bool| -> Bdd {
        let mut acc = Bdd::TRUE;
        for (b, &(cv, nv)) in bits.iter().enumerate() {
            let var = if next_bank { nv } else { cv };
            let v = m.var_bdd(var);
            let lit = if q >> b & 1 == 1 { v } else { m.man.not(v) };
            acc = m.man.and(acc, lit);
        }
        acc
    };

    let n = gba.num_states() as u32;
    let mut trans = Bdd::FALSE;
    let mut inv = Bdd::FALSE;
    let mut init = Bdd::FALSE;
    let mut fair = vec![Bdd::FALSE; gba.num_acceptance_sets() as usize];
    for q in 0..n {
        let eq = enc(m, q, false);

        // Successor choice: enc(q) ∧ ⋁_{q'} enc'(q').
        let mut succs = Bdd::FALSE;
        for &q2 in gba.successors(q) {
            let eq2 = enc(m, q2, true);
            succs = m.man.or(succs, eq2);
        }
        let step = m.man.and(eq, succs);
        trans = m.man.or(trans, step);

        // Literal obligations of q over the current signal bank.
        let mut lits = Bdd::TRUE;
        for l in gba.state(q).literals() {
            let sig = signal_lit(m, l.signal(), l.polarity())?;
            lits = m.man.and(lits, sig);
        }
        let obliged = m.man.and(eq, lits);
        inv = m.man.or(inv, obliged);

        for (j, f) in fair.iter_mut().enumerate() {
            if gba.state(q).acc_bits() >> j & 1 == 1 {
                *f = m.man.or(*f, eq);
            }
        }
    }
    for &q in gba.initial() {
        let eq = enc(m, q, false);
        init = m.man.or(init, eq);
    }
    Ok(AutEnc {
        trans,
        inv,
        init,
        fair,
    })
}

/// The BDD of a signal literal over the current bank.
fn signal_lit(m: &mut SymbolicModel, s: SignalId, polarity: bool) -> Result<Bdd, SymbolicError> {
    let f = m.signal_bdd(s)?;
    Ok(if polarity { f } else { m.man.not(f) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{SymbolicOptions, DEFAULT_CLUSTER_SIZE};
    use dic_logic::{BoolExpr, SignalTable};
    use dic_ltl::random::{random_formula, XorShift64};
    use dic_netlist::{Module, ModuleBuilder};

    /// A small random netlist: free inputs, one wire, then a few latches.
    fn random_module(rng: &mut XorShift64) -> (SignalTable, Module) {
        let mut t = SignalTable::new();
        let mut b = ModuleBuilder::new("rand", &mut t);
        let mut pool: Vec<SignalId> = (0..1 + rng.below(2))
            .map(|i| b.input(&format!("i{i}")))
            .collect();
        let leaf = |pool: &[SignalId], rng: &mut XorShift64| {
            let v = BoolExpr::var(pool[rng.below(pool.len())]);
            if rng.flip() {
                v.not()
            } else {
                v
            }
        };
        let (x, y) = (leaf(&pool, rng), leaf(&pool, rng));
        pool.push(b.wire("w", BoolExpr::xor(x, y)));
        for i in 0..1 + rng.below(3) {
            let next = BoolExpr::or([leaf(&pool, rng), leaf(&pool, rng)]);
            pool.push(b.latch(&format!("q{i}"), next, i % 2 == 1));
        }
        b.mark_output(*pool.last().expect("non-empty"));
        let module = b.finish().expect("valid netlist");
        (t, module)
    }

    /// The extension of `base` by `gbas` the way it was built before steps
    /// restricted by the care set: the base's invariant conjoined into the
    /// extension's, images and preimages restricted by that invariant
    /// alone, and reachability intersected with the care set after every
    /// image (or, for an anchored extension, assumed to be `care ∧ inv`).
    fn reference(
        m: &mut SymbolicModel,
        gbas: &[Arc<Gba>],
        base: &ProductData,
        anchored: bool,
    ) -> Result<ProductData, SymbolicError> {
        let mut r = ProductData::build(m, gbas, Some(base))?;
        r.inv = m.man.and(base.inv, r.inv);
        r.init = m.man.and(r.init, r.inv);
        let care = std::mem::replace(&mut r.care, Bdd::TRUE);
        let reach = if anchored {
            m.man.and(care, r.inv)
        } else {
            let init = m.man.and(r.init, care);
            let (mut reach, mut frontier) = (init, init);
            loop {
                let img = r.image(m, frontier)?;
                let img = m.man.and(img, care);
                let fresh = diff(m, img, reach);
                if fresh.is_false() {
                    break reach;
                }
                reach = m.man.or(reach, fresh);
                frontier = fresh;
            }
        };
        r.reach = Some(reach);
        Ok(r)
    }

    /// Asserts that both products derive the same BDDs — equal handles,
    /// not merely equal verdicts.
    fn assert_same(
        m: &mut SymbolicModel,
        new: &mut ProductData,
        old: &mut ProductData,
        what: &str,
    ) -> Result<(), SymbolicError> {
        assert_eq!(new.init, old.init, "{what}: init");
        assert_eq!(new.reachable(m)?, old.reachable(m)?, "{what}: reach");
        assert_eq!(new.hull(m)?, old.hull(m)?, "{what}: hull");
        assert_eq!(new.can_fair(m)?, old.can_fair(m)?, "{what}: can_fair");
        Ok(())
    }

    #[test]
    fn care_restricted_extensions_match_the_conjoined_invariant() {
        let mut rng = XorShift64::new(0x5EED_C105);
        let mut checked = 0;
        for round in 0..40 {
            let (t, module) = random_module(&mut rng);
            let atoms: Vec<SignalId> = module.signals().into_iter().collect();
            let mut formula = |budget| random_formula(&mut rng, &atoms, budget);
            let base: Vec<Ltl> = (0..1 + round % 2).map(|_| formula(5)).collect();
            let anchor = [Ltl::not(formula(5))];
            let cand = [formula(4)];
            let gbas = [&base[..], &anchor, &cand].map(translate_all);
            let [Some(base_g), Some(anchor_g), Some(cand_g)] = gbas else {
                continue;
            };
            let opts = SymbolicOptions {
                cluster_size: [DEFAULT_CLUSTER_SIZE, 1][round % 2],
                ..SymbolicOptions::default()
            };
            let mut sm = SymbolicModel::from_module(&module, &t, &[], opts).expect("builds");
            sm.with_product(&base, &base_g, |m, b0| {
                b0.hull(m)?;
                // A closure check against a plain base.
                let mut new = ProductData::build(m, &cand_g, Some(b0))?;
                let mut old = reference(m, &cand_g, b0, false)?;
                assert_same(m, &mut new, &mut old, &format!("round {round} plain"))?;
                // An anchored extension, then a closure check on top of it.
                let mut e1 = ProductData::build(m, &anchor_g, Some(b0))?;
                e1.assume_care_reachable(m);
                let mut r1 = reference(m, &anchor_g, b0, true)?;
                assert_same(m, &mut e1, &mut r1, &format!("round {round} anchored"))?;
                let mut new = ProductData::build(m, &cand_g, Some(&e1))?;
                let mut old = reference(m, &cand_g, &r1, false)?;
                assert_same(m, &mut new, &mut old, &format!("round {round} nested"))
            })
            .expect("within the node budget");
            checked += 1;
        }
        assert!(checked >= 20, "only {checked} rounds translated");
    }

    #[test]
    fn cluster_size_one_keeps_the_raw_conjunct_list() {
        // `cluster_size: 1` is the per-conjunct relation the agreement
        // suites compare clustering against: one conjunct per latch, then
        // one transition conjunct per automaton, in that order, unmerged —
        // for a base product and for an extension's tail alike.
        let mut rng = XorShift64::new(0xC1_0057E4);
        let mut checked = 0;
        for _ in 0..40 {
            let (t, module) = random_module(&mut rng);
            let atoms: Vec<SignalId> = module.signals().into_iter().collect();
            let mut formula = |budget| random_formula(&mut rng, &atoms, budget);
            let base: Vec<Ltl> = (0..3).map(|_| formula(5)).collect();
            let extra: Vec<Ltl> = (0..2).map(|_| formula(4)).collect();
            let (Some(base_g), Some(extra_g)) = (translate_all(&base), translate_all(&extra))
            else {
                continue;
            };
            let opts = SymbolicOptions {
                cluster_size: 1,
                ..SymbolicOptions::default()
            };
            let mut sm = SymbolicModel::from_module(&module, &t, &[], opts).expect("builds");
            let raw_trans = |m: &mut SymbolicModel, gbas: &[Arc<Gba>], mut bit: usize| {
                let mut trans = Vec::new();
                for g in gbas {
                    let nbits = bits_for(g.num_states());
                    let bits = m.aut_pool[bit..bit + nbits].to_vec();
                    trans.push(encode_gba(m, g, &bits).expect("encodes").trans);
                    bit += nbits;
                }
                trans
            };
            sm.with_product(&base, &base_g, |m, b0| {
                let mut raw = m.trans_latches.clone();
                raw.extend(raw_trans(m, &base_g, 0));
                assert_eq!(b0.conjuncts, raw, "base product");
                b0.hull(m)?;
                let ext = ProductData::build(m, &extra_g, Some(b0))?;
                raw.extend(raw_trans(m, &extra_g, b0.bits_used));
                assert_eq!(ext.conjuncts, raw, "extended product");
                Ok(())
            })
            .expect("within the node budget");
            checked += 1;
        }
        assert!(checked >= 20, "only {checked} rounds translated");
    }
}
