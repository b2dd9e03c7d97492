//! The model checker: universal and existential LTL queries over a model.

use crate::gba::{translate, Gba};
use crate::product::{
    find_accepting_lasso, has_accepting_lasso, Lasso, MultiProduct, Product, SccGraph, SystemGraph,
};
use crate::reduce::{reduce, reduce_with_stats, ReductionStats};
use crate::system::{CubeView, TransitionSystem};
use dic_logic::hashing::FastMap;
use dic_ltl::{LassoWord, Ltl, TemporalCube};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Whether the automaton reduction pipeline (formula rewriting before the
/// tableau, simulation-based reduction after it) is active. It always is;
/// the function is kept for the benchmark's provenance record.
pub fn reduction_enabled() -> bool {
    true
}

/// Pre/post sizes of the full reduction pipeline for `formula`: `pre` is
/// the legacy GPVW tableau of the formula as written (what the engines
/// consumed before the pipeline existed), `post` the automaton they
/// consume now (rewritten, tableau-pruned, reduced). Used by the benchmark
/// reports; independent of the cache.
pub fn translation_reduction(formula: &Ltl) -> ReductionStats {
    let pre = crate::gba::translate_unreduced(formula).stats();
    let (_, stats) = reduce_with_stats(&translate(&formula.simplify()));
    ReductionStats {
        pre,
        post: stats.post,
    }
}

/// The memo table behind [`translate_cached`], the one LTL → GBA
/// translation memo of the program.
///
/// Coverage analysis model-checks conjunctions sharing most conjuncts (the
/// RTL properties `R` and `¬FA` appear in every candidate-closure query of
/// Algorithm 1), so the translations are interned once and shared. The
/// table is keyed by formula hash through [`dic_logic::hashing`]'s
/// multiplicative hasher — formula keys are program-built structures, not
/// adversarial input, so the DoS-resistant default hasher buys nothing on
/// this hot path — and is internally synchronized.
///
/// Each formula owns a once-cell: the map lock is held only to find or
/// insert the cell, and a translation runs inside its own cell, so a miss
/// blocks only concurrent lookups of the *same* formula. A translation
/// that panics leaves its cell empty (the next lookup retries it) and
/// every other entry usable; a map lock poisoned by a panicking holder is
/// recovered, since the map only ever holds fully inserted cells.
#[derive(Debug, Default)]
struct GbaCache {
    map: Mutex<FastMap<Ltl, Arc<OnceLock<Arc<Gba>>>>>,
}

impl GbaCache {
    /// The cell of `formula`, inserted empty on first sight.
    fn cell(&self, formula: &Ltl) -> Arc<OnceLock<Arc<Gba>>> {
        let mut map = self.map.lock().unwrap_or_else(PoisonError::into_inner);
        match map.get(formula) {
            Some(cell) => Arc::clone(cell),
            None => {
                let cell = Arc::default();
                map.insert(formula.clone(), Arc::clone(&cell));
                cell
            }
        }
    }

    /// The translation of `formula`, computed on first use.
    ///
    /// Misses are resolved through the formula's *canonical rewritten
    /// form*, so syntactically distinct but rewrite-equal formulas —
    /// common in the enumerated candidate class of Algorithm 1, step 2(c)
    /// — share one tableau run and one reduced automaton. The as-written
    /// formula is memoized as an alias afterwards: repeat lookups
    /// (Algorithm 1's hottest path issues thousands against the same few
    /// formulas) are a single hash, never a rewrite.
    fn get(&self, formula: &Ltl) -> Arc<Gba> {
        let cell = self.cell(formula);
        let mut missed = false;
        let g = cell.get_or_init(|| {
            let key = formula.simplify();
            let mut translate_key = || {
                missed = true;
                let _span = dic_trace::span("automata.translate");
                let raw = {
                    let _tableau = dic_trace::span("automata.tableau");
                    translate(&key)
                };
                let _reduce = dic_trace::span("automata.reduce");
                Arc::new(reduce(&raw))
            };
            if key == *formula {
                translate_key()
            } else {
                Arc::clone(self.cell(&key).get_or_init(translate_key))
            }
        });
        if dic_trace::enabled() {
            let counter = if missed {
                dic_trace::Counter::GbaCacheMisses
            } else {
                dic_trace::Counter::GbaCacheHits
            };
            dic_trace::count(counter, 1);
        }
        Arc::clone(g)
    }

    /// Number of cached translations so far (distinct translations plus
    /// as-written aliases of rewritten formulas).
    #[cfg(test)]
    fn len(&self) -> usize {
        self.map
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .filter(|cell| cell.get().is_some())
            .count()
    }
}

/// Process-wide translation memo backing [`translate_cached`].
static SHARED_TRANSLATIONS: OnceLock<GbaCache> = OnceLock::new();

/// [`translate`] through the process-wide translation memo, keyed by
/// formula hash.
///
/// Every engine translates through here: the explicit product searches,
/// the symbolic encodings, the bounded SAT tier and the pure-formula
/// decision procedures ([`crate::implies`], [`crate::is_satisfiable`],
/// …). They are called hundreds of times per coverage run on a small set
/// of recurring formulas (every candidate of Algorithm 1 is compared
/// against the same intent and siblings, and every closure query shares
/// the `R` suite and `¬FA`); caching here means each distinct formula
/// runs the GPVW tableau exactly once **per process**, whichever engine
/// or gap worker asks first. The memo is internally synchronized (a miss
/// holds only that formula's once-cell, so concurrent first lookups of
/// one formula translate once while lookups of other formulas proceed);
/// it is append-only for the life of the process — formula closures are
/// small, so this trades a bounded amount of memory for the dominant
/// translation cost.
pub fn translate_cached(formula: &Ltl) -> Arc<Gba> {
    SHARED_TRANSLATIONS
        .get_or_init(GbaCache::default)
        .get(formula)
}

/// Translates every conjunct through [`translate_cached`], or `None` when
/// some conjunct has no initial state (unsatisfiable on its own, e.g.
/// `p ∧ ¬p`). Every conjunct is translated either way.
///
/// The symbolic engine and the bounded SAT refutation tier
/// (`dic_sat::BmcSession`, which `dic_core` runs ahead of the symbolic
/// closure fixpoints; `dic_sat::bounded_lasso` is its one-shot form, a
/// reference for tests) screen their conjunctions through here before
/// encoding anything. Since the translations come from the one memo, the
/// engines and tiers encode the *same* reduced automata, which makes
/// their verdicts comparable automaton for automaton, not just language
/// for language. The explicit product searches need no screen: an
/// automaton without initial states gives the product no root.
pub fn translate_all(formulas: &[Ltl]) -> Option<Vec<Arc<Gba>>> {
    let gbas: Vec<Arc<Gba>> = formulas.iter().map(translate_cached).collect();
    if gbas.iter().any(|g| g.initial().is_empty()) {
        return None;
    }
    Some(gbas)
}

/// Result of a universal check ([`holds_in`]).
#[derive(Clone, Debug)]
pub enum Verdict {
    /// Every run of the model satisfies the property.
    Holds,
    /// Some run violates the property; the witness is attached.
    Fails(LassoWord),
}

impl Verdict {
    /// Whether the property holds on all runs.
    pub fn holds(&self) -> bool {
        matches!(self, Verdict::Holds)
    }

    /// The counterexample run, if any.
    pub fn counterexample(&self) -> Option<&LassoWord> {
        match self {
            Verdict::Holds => None,
            Verdict::Fails(w) => Some(w),
        }
    }
}

/// Existential query: is there a run of `sys` satisfying `formula`?
/// Returns a witness lasso if so.
///
/// This is the primitive behind the paper's Theorem 1: the RTL spec fails
/// to cover the intent iff `¬A ∧ R` is satisfiable in `M`, i.e.
/// `satisfiable_in(&and([not(a), r]), m)` returns a witness.
pub fn satisfiable_in<S: TransitionSystem>(formula: &Ltl, sys: &S) -> Option<LassoWord> {
    let gba = translate_cached(formula);
    conj_product_lasso(&[gba.as_ref()], sys)
}

/// Existential query for a *conjunction*: is there a run of `sys` satisfying
/// every formula in `formulas` simultaneously?
///
/// Semantically identical to `satisfiable_in(&Ltl::and(formulas), sys)`, but
/// each conjunct is translated to its own small automaton and the
/// intersection is explored on the fly, which scales to the paper's
/// 26–29-property RTL suites where a single GPVW translation of the
/// conjunction would explode.
pub fn satisfiable_in_conj<S: TransitionSystem>(formulas: &[Ltl], sys: &S) -> Option<LassoWord> {
    let gbas: Vec<Arc<Gba>> = formulas.iter().map(translate_cached).collect();
    let refs: Vec<&Gba> = gbas.iter().map(Arc::as_ref).collect();
    conj_product_lasso(&refs, sys)
}

/// Verdict-only [`satisfiable_in_conj`]: the same search, stopped at the
/// accepting SCC, with no lasso built. With `cube.to_ltl()` among the
/// formulas it is the translated form of [`is_satisfiable_cube`], kept as
/// its reference.
#[cfg(test)]
pub(crate) fn is_satisfiable_in_conj<S: TransitionSystem>(formulas: &[Ltl], sys: &S) -> bool {
    let gbas: Vec<Arc<Gba>> = formulas.iter().map(translate_cached).collect();
    let refs: Vec<&Gba> = gbas.iter().map(Arc::as_ref).collect();
    conj_search(&refs, sys, false).is_some()
}

/// Bounded-scenario query: is there a run of `sys` that matches `cube` at
/// time 0? Returns a witness lasso if so.
///
/// Semantically `satisfiable_in_conj(&[cube.to_ltl()], …)`, but the cube
/// never becomes an automaton: the search runs over the system's runs
/// that match the cube (a `CubeView`, which filters states by the cube's
/// literals at their time). The step 2(a) loop of Algorithm 1 asks about
/// a thousand of these against one memoized base product, one fresh cube
/// each.
pub fn satisfiable_cube<S: TransitionSystem>(sys: &S, cube: &TemporalCube) -> Option<LassoWord> {
    cube_search(sys, None, cube, true).map(|w| w.expect("a witness was asked for"))
}

/// Verdict-only [`satisfiable_cube`], which may also ask for a run that
/// satisfies `anchor`: the view is then searched in product with the
/// anchor's automaton alone, as
/// `satisfiable_in_conj(&[anchor, cube.to_ltl()], …)` would be. The search
/// stops at the accepting SCC, with no lasso built.
pub fn is_satisfiable_cube<S: TransitionSystem>(
    sys: &S,
    anchor: Option<&Ltl>,
    cube: &TemporalCube,
) -> bool {
    cube_search(sys, anchor, cube, false).is_some()
}

/// Existential conjunction query over caller-supplied automata — the hook
/// the reduction-equivalence suite uses to run raw and reduced
/// translations of the same conjunction against one system and compare.
pub fn satisfiable_in_conj_gbas<S: TransitionSystem>(gbas: &[&Gba], sys: &S) -> Option<LassoWord> {
    conj_product_lasso(gbas, sys)
}

/// The emptiness search of `g` plus, when `witness` is set, its lasso:
/// `None` when `g` has no accepting lasso, `Some(None)` for a
/// verdict-only hit.
fn search<G: SccGraph>(g: &G, mask: u32, witness: bool) -> Option<Option<Lasso<G::Node>>> {
    if witness {
        find_accepting_lasso(g, mask).map(Some)
    } else {
        has_accepting_lasso(g, mask).then_some(None)
    }
}

/// The emptiness search of a conjunction query, as [`search`]. The
/// automata are translated by the caller, outside the `explicit.search`
/// span.
fn conj_search<S: TransitionSystem>(
    gbas: &[&Gba],
    sys: &S,
    witness: bool,
) -> Option<Option<Lasso<(u32, u32)>>> {
    let _span = dic_trace::span("explicit.search");
    // Single-conjunct queries (the candidate-closure hot path) skip the
    // tuple-interning machinery entirely.
    if let [gba] = gbas {
        let product = Product::new(sys, gba);
        search(&product, product.joint_mask(), witness)
    } else {
        let product = MultiProduct::new(sys, gbas);
        search(&product, product.full_mask(), witness)
    }
}

/// A lasso of `sys` states as the word of their labels.
fn lasso_word<S: TransitionSystem>(
    sys: &S,
    states: impl IntoIterator<Item = u32>,
    loop_start: usize,
) -> LassoWord {
    let word_states = states.into_iter().map(|k| sys.label(k).clone()).collect();
    LassoWord::new(word_states, loop_start).expect("lasso has a loop")
}

/// [`conj_search`] with its witness, as a word of the system's labels.
fn conj_product_lasso<S: TransitionSystem>(gbas: &[&Gba], sys: &S) -> Option<LassoWord> {
    let (states, loop_start) = conj_search(gbas, sys, true)?.expect("a witness was asked for");
    Some(lasso_word(sys, states.iter().map(|&(k, _)| k), loop_start))
}

/// The search of a bounded-scenario query ([`is_satisfiable_cube`]), as
/// [`search`], with the lasso as a word. With an anchor it is the product
/// of the cube view with the anchor's automaton; without one, the view
/// alone, searched as a plain graph.
fn cube_search<S: TransitionSystem>(
    sys: &S,
    anchor: Option<&Ltl>,
    cube: &TemporalCube,
    witness: bool,
) -> Option<Option<LassoWord>> {
    let view = CubeView::new(sys, cube);
    match anchor.map(translate_cached) {
        Some(gba) => {
            let lasso = conj_search(&[gba.as_ref()], &view, witness)?;
            Some(lasso.map(|(states, loop_start)| {
                lasso_word(&view, states.iter().map(|&(k, _)| k), loop_start)
            }))
        }
        None => {
            let graph = SystemGraph(&view);
            let lasso = {
                let _span = dic_trace::span("explicit.search");
                search(&graph, graph.mask(), witness)?
            };
            Some(lasso.map(|(states, loop_start)| lasso_word(&view, states, loop_start)))
        }
    }
}

/// A transition system materialized from the product of a base system with
/// a conjunction of LTL constraints.
///
/// Its paths are exactly the base-system runs that *can* satisfy the
/// constraints; the constraints' generalized acceptance obligations are
/// carried as system fairness sets ([`TransitionSystem::acc_bits`]), so any
/// later query over this system implicitly conjoins the baked-in formulas.
///
/// This is the workhorse of Algorithm 1's candidate verification: the
/// expensive shared sub-product `M ⊗ R ⊗ A(¬FA)` is explored **once**, and
/// each of the hundreds of candidate-closure queries runs against this
/// small explicit graph instead of rebuilding the full product.
///
/// # Examples
///
/// ```
/// use dic_logic::{SignalTable, Valuation};
/// use dic_ltl::{LassoWord, Ltl};
/// use dic_automata::{materialize_product, satisfiable_in, WordSystem};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut t = SignalTable::new();
/// let p = t.intern("p");
/// let mut hi = Valuation::all_false(1);
/// hi.set(p, true);
/// // A two-position word: !p then p forever.
/// let w = LassoWord::new(vec![Valuation::all_false(1), hi], 1).expect("loop in range");
/// let sys = WordSystem::new(w);
/// let base = materialize_product(&[Ltl::parse("F p", &mut t)?], &sys);
/// // Querying against the base conjoins its constraint.
/// assert!(satisfiable_in(&Ltl::parse("!p", &mut t)?, &base).is_some());
/// assert!(satisfiable_in(&Ltl::parse("G !p", &mut t)?, &base).is_none());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct ProductSystem {
    initial: Vec<u32>,
    succs: Vec<Vec<u32>>,
    /// Shared label pool (one entry per distinct base state seen).
    labels: Vec<dic_logic::Valuation>,
    label_of: Vec<u32>,
    bits: Vec<u32>,
    n_acc: u32,
}

impl ProductSystem {
    /// Number of materialized product states.
    pub fn num_states(&self) -> usize {
        self.succs.len()
    }

    /// Number of materialized transitions.
    pub fn num_transitions(&self) -> usize {
        self.succs.iter().map(Vec::len).sum()
    }

    /// Whether the product is empty (the base system cannot satisfy the
    /// baked-in constraints along any path — note satisfaction also needs
    /// the fairness bits, so non-emptiness here is necessary, not
    /// sufficient).
    pub fn is_empty(&self) -> bool {
        self.initial.is_empty()
    }
}

impl TransitionSystem for ProductSystem {
    fn initial_states(&self) -> Vec<u32> {
        self.initial.clone()
    }

    fn for_each_successor(&self, state: u32, f: impl FnMut(u32)) {
        self.succs[state as usize].iter().copied().for_each(f);
    }

    fn label(&self, state: u32) -> &dic_logic::Valuation {
        &self.labels[self.label_of[state as usize] as usize]
    }

    fn label_id(&self, state: u32) -> u32 {
        self.label_of[state as usize]
    }

    fn num_label_ids(&self) -> usize {
        self.labels.len()
    }

    fn num_acc_sets(&self) -> u32 {
        self.n_acc
    }

    fn acc_bits(&self, state: u32) -> u32 {
        self.bits[state as usize]
    }
}

/// Materializes the reachable product of `sys` with the automata of
/// `formulas` into an explicit [`ProductSystem`].
///
/// Satisfiability queries against the result are equivalent to queries
/// against `sys` with `formulas` conjoined — the shared exploration is paid
/// once. See [`ProductSystem`].
pub fn materialize_product<S: TransitionSystem>(formulas: &[Ltl], sys: &S) -> ProductSystem {
    let gbas: Vec<Arc<Gba>> = formulas.iter().map(translate_cached).collect();
    let refs: Vec<&Gba> = gbas.iter().map(Arc::as_ref).collect();
    let product = MultiProduct::new(sys, &refs);
    let n_acc = product.full_mask().count_ones();

    let mut ids: FastMap<(u32, u32), u32> = FastMap::default();
    let mut label_ids: FastMap<u32, u32> = FastMap::default();
    let mut out = ProductSystem {
        initial: Vec::new(),
        succs: Vec::new(),
        labels: Vec::new(),
        label_of: Vec::new(),
        bits: Vec::new(),
        n_acc,
    };
    // Worklist entries carry (product node, interned id).
    let mut work: Vec<((u32, u32), u32)> = Vec::new();
    let mut intern =
        |node: (u32, u32), out: &mut ProductSystem, work: &mut Vec<((u32, u32), u32)>| {
            if let Some(&id) = ids.get(&node) {
                return id;
            }
            let id = out.succs.len() as u32;
            ids.insert(node, id);
            let label_id = *label_ids.entry(node.0).or_insert_with(|| {
                out.labels.push(sys.label(node.0).clone());
                (out.labels.len() - 1) as u32
            });
            out.succs.push(Vec::new());
            out.label_of.push(label_id);
            out.bits.push(product.bits(node));
            work.push((node, id));
            id
        };

    for root in product.roots() {
        let id = intern(root, &mut out, &mut work);
        if !out.initial.contains(&id) {
            out.initial.push(id);
        }
    }
    let mut succ = Vec::new();
    while let Some((node, id)) = work.pop() {
        succ.clear();
        product.succs_into(node, &mut succ);
        let mut edges: Vec<u32> = succ
            .iter()
            .map(|&m| intern(m, &mut out, &mut work))
            .collect();
        edges.sort_unstable();
        edges.dedup();
        out.succs[id as usize] = edges;
    }
    dic_trace::gauge_max(
        dic_trace::Gauge::ExplicitProductStates,
        out.succs.len() as u64,
    );
    out
}

/// Universal query: do *all* runs of `sys` satisfy `formula`?
///
/// Implemented as emptiness of `sys ⊗ A(¬formula)`; the paper's "φ is false
/// in M" is `holds_in(&not(φ), m).holds()`.
pub fn holds_in<S: TransitionSystem>(formula: &Ltl, sys: &S) -> Verdict {
    match satisfiable_in(&Ltl::not(formula.clone()), sys) {
        None => Verdict::Holds,
        Some(w) => Verdict::Fails(w),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::WordSystem;
    use dic_fsm::Kripke;
    use dic_logic::{BoolExpr, SignalTable, Valuation};
    use dic_netlist::ModuleBuilder;

    /// One-latch module: c' = a & b (paper Example 3).
    fn simple_kripke() -> (SignalTable, Kripke) {
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
        let k = Kripke::from_module(&m, &t, &[]).expect("fits");
        (t, k)
    }

    fn parse(t: &mut SignalTable, src: &str) -> Ltl {
        Ltl::parse(src, t).expect("parse")
    }

    #[test]
    fn translate_cached_memoizes_across_threads() {
        let mut t = SignalTable::new();
        let f = parse(&mut t, "G(p -> X q)");
        let first = translate_cached(&f);
        // A structurally equal but freshly built formula hits the cache.
        let rebuilt = parse(&mut t, "G(p -> X q)");
        let again = translate_cached(&rebuilt);
        assert!(Arc::ptr_eq(&first, &again));
        // The memo is process-shared: a worker thread's lookup returns
        // the very same translation instead of re-running the tableau.
        let from_worker =
            std::thread::scope(|s| s.spawn(|| translate_cached(&f)).join().expect("worker"));
        assert!(Arc::ptr_eq(&first, &from_worker));
    }

    #[test]
    fn cache_survives_a_poisoned_map_lock() {
        let mut t = SignalTable::new();
        let f = parse(&mut t, "G(p -> X q)");
        let g = parse(&mut t, "F(p & q)");
        let cache = GbaCache::default();
        let before = cache.get(&f);
        // A panic while holding the map lock poisons it.
        let poisoned = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = cache.map.lock().expect("not yet poisoned");
                panic!("holder dies");
            })
            .join()
        });
        assert!(poisoned.is_err() && cache.map.is_poisoned());
        // Lookups go on: repeat hits return the very same translation,
        // and misses still translate and memoize.
        assert!(Arc::ptr_eq(&before, &cache.get(&f)));
        let fresh = cache.get(&g);
        assert!(Arc::ptr_eq(&fresh, &cache.get(&g)));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn latch_follows_and_of_inputs() {
        let (mut t, k) = simple_kripke();
        // G(a & b -> X c) holds: whenever a&b now, c is 1 next cycle.
        let f = parse(&mut t, "G(a & b -> X c)");
        assert!(holds_in(&f, &k).holds());
        // G(a -> X c) fails (b may be low); a counterexample is produced.
        let g = parse(&mut t, "G(a -> X c)");
        let v = holds_in(&g, &k);
        assert!(!v.holds());
        let w = v.counterexample().expect("witness");
        // The witness must genuinely violate g.
        assert!(!g.holds_on(w));
    }

    #[test]
    fn initial_value_checkable() {
        let (mut t, k) = simple_kripke();
        let f = parse(&mut t, "!c");
        assert!(holds_in(&f, &k).holds(), "latch resets to 0");
        assert!(satisfiable_in(&parse(&mut t, "c"), &k).is_none());
    }

    #[test]
    fn existential_witness_satisfies_formula() {
        let (mut t, k) = simple_kripke();
        let f = parse(&mut t, "a & b & X c & X X !c");
        let w = satisfiable_in(&f, &k).expect("satisfiable");
        assert!(f.holds_on(&w), "witness must satisfy the formula");
    }

    #[test]
    fn unsatisfiable_in_model_but_satisfiable_generally() {
        let (mut t, k) = simple_kripke();
        // c without a&b in the previous cycle cannot happen.
        let f = parse(&mut t, "!a & X c");
        assert!(satisfiable_in(&f, &k).is_none());
    }

    #[test]
    fn until_properties() {
        let (mut t, k) = simple_kripke();
        // There is a run where !c holds until c (inputs can make c rise).
        let f = parse(&mut t, "!c U c");
        assert!(satisfiable_in(&f, &k).is_some());
        // And a run where c never rises.
        let g = parse(&mut t, "G !c");
        assert!(satisfiable_in(&g, &k).is_some());
    }

    #[test]
    fn conjunction_product_matches_single_translation() {
        let (mut t, k) = simple_kripke();
        let cases: Vec<Vec<&str>> = vec![
            vec!["G(a & b -> X c)", "F c"],
            vec!["G !c", "F c"], // contradictory
            vec!["a", "b", "X c", "X X !c"],
            vec!["G(a -> X c)", "G F a", "F !c"],
            vec!["G F b", "!c U c"],
        ];
        for case in cases {
            let fs: Vec<Ltl> = case.iter().map(|s| parse(&mut t, s)).collect();
            let single = satisfiable_in(&Ltl::and(fs.clone()), &k);
            let multi = satisfiable_in_conj(&fs, &k);
            assert_eq!(
                single.is_some(),
                multi.is_some(),
                "disagreement on {case:?}"
            );
            if let Some(w) = multi {
                for f in &fs {
                    assert!(f.holds_on(&w), "witness misses conjunct in {case:?}");
                }
            }
        }
    }

    #[test]
    fn many_safety_conjuncts_stay_tractable() {
        // 24 safety properties at once: the subset-determinized product
        // must solve this instantly (the naive tuple product would explode
        // combinatorially).
        let (mut t, k) = simple_kripke();
        let mut fs = Vec::new();
        for _ in 0..12 {
            fs.push(parse(&mut t, "G(a & b -> X c)"));
            fs.push(parse(&mut t, "G(!a -> X !c)"));
        }
        // Satisfiable: the constraints restate the model.
        assert!(satisfiable_in_conj(&fs, &k).is_some());
        // Add one falsifying liveness conjunct: c never rises but must.
        fs.push(parse(&mut t, "G !c"));
        fs.push(parse(&mut t, "F c"));
        assert!(satisfiable_in_conj(&fs, &k).is_none());
    }

    #[test]
    fn safety_subset_death_is_detected() {
        // A safety conjunct that the model violates on every extension:
        // G(a -> X !c) conflicts with a&b -> c next; runs choosing a&b
        // must be pruned, but a-free runs survive.
        let (mut t, k) = simple_kripke();
        let fs = vec![parse(&mut t, "G(a -> X !c)"), parse(&mut t, "F (a & b)")];
        let w = satisfiable_in_conj(&fs, &k);
        // a&b forces c next, contradicting G(a -> X !c) *only if* a holds
        // then — a&b at time t with !a at t+1.. is fine unless c's rise
        // meets another a. A witness must satisfy both formulas.
        if let Some(w) = w {
            for f in &fs {
                assert!(f.holds_on(&w));
            }
        }
        // Fully contradictory: demand a&b always and a -> X !c.
        let fs2 = vec![parse(&mut t, "G(a & b)"), parse(&mut t, "G(a -> X !c)")];
        assert!(satisfiable_in_conj(&fs2, &k).is_none());
    }

    #[test]
    fn word_system_matches_bounded_semantics() {
        let mut t = SignalTable::new();
        let p = t.intern("p");
        let q = t.intern("q");
        let mk = |bits: &[(bool, bool)]| -> Vec<Valuation> {
            bits.iter()
                .map(|&(vp, vq)| {
                    let mut v = Valuation::all_false(t.len());
                    v.set(p, vp);
                    v.set(q, vq);
                    v
                })
                .collect()
        };
        // w = (p,!q) (!p,q) then loop (!p,!q)
        let w =
            LassoWord::new(mk(&[(true, false), (false, true), (false, false)]), 2).expect("word");
        let sys = WordSystem::new(w.clone());
        for src in ["p U q", "G p", "F q", "X q", "G(p -> X q)", "F G !p"] {
            let f = parse(&mut t, src);
            let expected = f.holds_on(&w);
            let got = satisfiable_in(&f, &sys).is_some();
            assert_eq!(got, expected, "disagreement on {src}");
        }
    }
}
