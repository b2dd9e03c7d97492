//! Symbolic gap-phase queries: factored satisfiability against a cached
//! base product.
//!
//! Algorithm 1 of the paper decomposes into queries of two shapes, both
//! issued hundreds of times per uncovered property against the *same* base
//! conjunction:
//!
//! * **bounded-scenario queries** — "does some run of `M ⊨ base` match
//!   this [`TemporalCube`] in its first cycles (and continue fairly)?" —
//!   used for scenario probing and for the literal-flip generalization of
//!   step 2(a). These never build an automaton for the cube: the cube's
//!   per-cycle constraints are intersected into the base product's
//!   forward frontier BDDs (`cube_frames`), and the suffix obligation is
//!   one intersection with the memoized hull-reaching set. Existential
//!   quantification over the non-cube variables happens inside the
//!   relational product, which is exactly the paper's step 2(b) performed
//!   by the BDD engine.
//! * **closure queries** — "does some run of `M ⊨ base` also satisfy this
//!   weakening candidate?" (Definition 3) — answered by an *extended*
//!   product: the cached base encoding is reused wholesale, only the
//!   (small) candidate automaton is encoded on top, and every extended
//!   image and preimage is restricted by the base's memoized reachable
//!   set.
//!
//! Both reuse the fixpoints the primary coverage question already paid
//! for, which is what collapses the explicit engine's minutes-scale gap
//! phase to seconds on wide models.

use crate::check::ProductData;
use crate::error::SymbolicError;
use crate::model::SymbolicModel;
use dic_automata::translate_all;
use dic_logic::Bdd;
use dic_ltl::{LassoWord, Ltl, TemporalCube};

impl SymbolicModel {
    /// Factored existential query: is there a run of the model satisfying
    /// every formula in `base` *and* every formula in `extra`? The base
    /// product (automata encodings, reachable set, fair hull) is cached
    /// and shared across calls; only the `extra` automata are encoded per
    /// call — the symbolic counterpart of
    /// `dic_core::CoverageModel::satisfiable_factored`.
    ///
    /// # Errors
    ///
    /// As for [`SymbolicModel::satisfiable_conj`].
    pub fn satisfiable_factored(
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
        self.with_product(base, &base_gbas, |m, pd| {
            // The extension captures the base's hull and reachable set:
            // force both (they can rebuild) before the scratch scope.
            pd.hull(m)?;
            // The whole extended product is scratch: its verdict is a
            // plain bool and its witness a plain valuation sequence, so
            // nothing it creates must outlive the call. Its nodes stay in
            // the store as garbage until the trigger fires at some scope
            // exit ([`SymbolicModel::scratch`]), so consecutive checks
            // keep the operation memos over the common base conjuncts
            // warm.
            m.scratch(pd, |m, pd| {
                ProductData::build(m, &extra_gbas, Some(pd))?.decide(m)
            })
        })
    }

    /// Bounded-scenario query with witness: is there a run of the model
    /// satisfying every formula in `base` that matches `cube` at positions
    /// `0..=cube.depth()`? Returns a replayable lasso witness (prefix
    /// through the constrained frontiers, completed deterministically into
    /// the fair hull).
    ///
    /// # Errors
    ///
    /// As for [`SymbolicModel::satisfiable_conj`].
    pub fn satisfiable_factored_cube(
        &mut self,
        base: &[Ltl],
        cube: &TemporalCube,
    ) -> Result<Option<LassoWord>, SymbolicError> {
        let Some(gbas) = translate_all(base) else {
            return Ok(None);
        };
        self.with_product(base, &gbas, |m, pd| {
            pd.ensure_fixpoints(m, true)?;
            m.scratch(pd, |m, pd| {
                let Some((frames, goal)) = cube_frames(m, pd, cube)? else {
                    return Ok(None);
                };
                cube_witness(m, pd, &frames, goal).map(Some)
            })
        })
    }

    /// Like [`SymbolicModel::satisfiable_factored_cube`] but without
    /// witness extraction — the generalization loop of Algorithm 1 only
    /// needs the verdict, and skipping the lasso walk makes each
    /// literal-flip test a handful of constrained images. An `anchored`
    /// conjunct (the window-anchored violation the loop tests against) is
    /// encoded as a cached *extension* of the `base` product: one extra
    /// automaton, reachability and hull seeded from the base.
    ///
    /// # Errors
    ///
    /// As for [`SymbolicModel::satisfiable_conj`].
    pub fn factored_cube_sat(
        &mut self,
        base: &[Ltl],
        anchored: Option<&Ltl>,
        cube: &TemporalCube,
    ) -> Result<bool, SymbolicError> {
        let Some(base_gbas) = translate_all(base) else {
            return Ok(false);
        };
        let run = |m: &mut SymbolicModel, pd: &mut ProductData| {
            pd.ensure_fixpoints(m, false)?;
            m.scratch(pd, |m, pd| Ok(cube_frames(m, pd, cube)?.is_some()))
        };
        match anchored {
            None => self.with_product(base, &base_gbas, run),
            Some(a) => {
                let extra = [a.clone()];
                let Some(extra_gbas) = translate_all(&extra) else {
                    return Ok(false);
                };
                self.with_extended_product(base, &base_gbas, &extra, &extra_gbas, run)
            }
        }
    }
}

/// Pushes the base product's forward frontiers through the per-cycle
/// constraints of `cube`, returning the constrained frames and the goal
/// set (final frame ∩ hull-reaching states), or `None` when the scenario
/// is unrealizable.
fn cube_frames(
    m: &mut SymbolicModel,
    pd: &mut ProductData,
    cube: &TemporalCube,
) -> Result<Option<(Vec<Bdd>, Bdd)>, SymbolicError> {
    if pd.init.is_false() {
        return Ok(None);
    }
    let depth = cube.depth();
    let mut constraints = vec![Bdd::TRUE; depth + 1];
    for &(t, l) in cube.lits() {
        let f = m.signal_bdd(l.signal())?;
        let lit = if l.polarity() { f } else { m.man.not(f) };
        constraints[t] = m.man.and(constraints[t], lit);
    }
    let mut frames = Vec::with_capacity(depth + 1);
    let mut cur = pd.init;
    for (t, &c) in constraints.iter().enumerate() {
        if t > 0 {
            cur = pd.image(m, cur)?;
        }
        cur = m.man.and(cur, c);
        if cur.is_false() {
            return Ok(None);
        }
        frames.push(cur);
    }
    let cf = pd.can_fair(m)?;
    let goal = m.man.and(cur, cf);
    if goal.is_false() {
        return Ok(None);
    }
    Ok(Some((frames, goal)))
}

/// Extracts a replayable lasso matching constrained frames: backward-prune
/// the frames to states that still reach `goal`, walk forward picking one
/// concrete state per frame, then complete deterministically into the fair
/// hull and close the loop there.
fn cube_witness(
    m: &mut SymbolicModel,
    pd: &mut ProductData,
    frames: &[Bdd],
    goal: Bdd,
) -> Result<LassoWord, SymbolicError> {
    let depth = frames.len() - 1;
    // Backward prune: targets[t] = states of frames[t] on a path to goal.
    let mut targets = vec![goal];
    for t in (0..depth).rev() {
        let pre = pd.preimage(m, *targets.last().expect("non-empty"))?;
        targets.push(m.man.and(frames[t], pre));
    }
    targets.reverse();
    // Forward walk through the pruned frames.
    let mut seq = vec![pd.pick(m, targets[0])];
    for target in targets.iter().skip(1) {
        let cube = pd.state_cube(m, seq.last().expect("non-empty"));
        let img = pd.image(m, cube)?;
        let succ = m.man.and(img, *target);
        seq.push(pd.pick(m, succ));
    }
    // Complete the prefix into the hull, then close a fair loop there.
    pd.walk_to_hull(m, &mut seq)?;
    let z = pd.hull(m)?;
    let last = pd.state_cube(m, seq.last().expect("non-empty"));
    let start = m.man.and(last, z);
    let (lasso, loop_at) = pd.extract_lasso(m, start, z)?;
    let prefix = seq.len() - 1;
    seq.pop(); // lasso[0] repeats the hull entry state
    seq.extend(lasso);
    Ok(pd.to_word(m, &seq, prefix + loop_at))
}
