//! Canonical LTL rewriting — the first stage of the automaton reduction
//! pipeline.
//!
//! [`Ltl::simplify`] applies the formula-level reductions of Somenzi &
//! Bloem, *Efficient Büchi Automata from LTL Formulae* (CAV 2000), before
//! the GPVW tableau ever runs: idempotence and absorption of `U`/`R`/`G`/
//! `F`, outward `X` distribution, suffix-invariant collapsing (`F G F p ≡
//! G F p`), literal subsumption and syntactic-implication folding of
//! `And`/`Or` operands. Every rule preserves the language *exactly* — the
//! rewritten formula holds on precisely the same words (property-tested
//! against the [`Ltl::holds_on`] oracle and the automaton-level
//! equivalence check) — so translations of the rewritten form answer every
//! model-checking query the original would.
//!
//! The result is **canonical enough to key translation caches**:
//! syntactically distinct but rewrite-equal formulas (common in the
//! enumerated candidate class of the paper's Algorithm 1, step 2(c))
//! simplify to the same AST and share one tableau run. It is *not* a
//! decision procedure — inequivalent formulas may also stay distinct under
//! rewriting; only soundness of each fold is required.
//!
//! The pass never touches formulas the user sees: specs, reports and gap
//! properties keep the syntactic shape the designer wrote (which the
//! paper's gap-representation algorithm depends on). Rewriting happens
//! behind [`translate_cached`](../dic_automata/fn.translate_cached.html)
//! only.

use crate::formula::{Ltl, LtlNode};

impl Ltl {
    /// The canonical rewritten form of this formula: negation normal form,
    /// then the reduction rules of the [module docs](self) applied
    /// bottom-up. Deterministic, language-preserving, idempotent on its
    /// own output.
    pub fn simplify(&self) -> Ltl {
        simp(&self.nnf())
    }
}

/// Whether `f ⇒ g` can be established by the cheap structural rules below
/// (sound, incomplete, terminating — each recursion strictly shrinks the
/// combined size). Used to fold implied conjuncts/disjuncts away.
pub fn syntactically_implies(f: &Ltl, g: &Ltl) -> bool {
    if f == g {
        return true;
    }
    if matches!(f.node(), LtlNode::False) || matches!(g.node(), LtlNode::True) {
        return true;
    }
    // Conjunctions: f = ⋀fs is stronger than each fi; g = ⋀gs needs all.
    if let LtlNode::And(fs) = f.node() {
        if fs.iter().any(|fi| syntactically_implies(fi, g)) {
            return true;
        }
    }
    if let LtlNode::And(gs) = g.node() {
        if gs.iter().all(|gi| syntactically_implies(f, gi)) {
            return true;
        }
    }
    // Disjunctions, dually.
    if let LtlNode::Or(fs) = f.node() {
        if fs.iter().all(|fi| syntactically_implies(fi, g)) {
            return true;
        }
    }
    if let LtlNode::Or(gs) = g.node() {
        if gs.iter().any(|gi| syntactically_implies(f, gi)) {
            return true;
        }
    }
    match (f.node(), g.node()) {
        (LtlNode::Globally(a), LtlNode::Globally(b))
        | (LtlNode::Finally(a), LtlNode::Finally(b))
        | (LtlNode::Globally(a), LtlNode::Finally(b))
        | (LtlNode::Next(a), LtlNode::Next(b))
            if syntactically_implies(a, b) =>
        {
            return true;
        }
        (LtlNode::Until(a, b), LtlNode::Until(c, d))
        | (LtlNode::Release(a, b), LtlNode::Release(c, d))
            if syntactically_implies(a, c) && syntactically_implies(b, d) =>
        {
            return true;
        }
        // G a ⇒ c R d whenever a ⇒ d (G d implies any release of d).
        (LtlNode::Globally(a), LtlNode::Release(_, d)) if syntactically_implies(a, d) => {
            return true;
        }
        // a U b ⇒ F d whenever b ⇒ d (the until discharges eventually).
        (LtlNode::Until(_, b), LtlNode::Finally(d)) if syntactically_implies(b, d) => {
            return true;
        }
        _ => {}
    }
    // G a holds now ⇒ a holds now.
    if let LtlNode::Globally(a) = f.node() {
        if syntactically_implies(a, g) {
            return true;
        }
    }
    // a R b holds now ⇒ b holds now.
    if let LtlNode::Release(_, b) = f.node() {
        if syntactically_implies(b, g) {
            return true;
        }
    }
    // a U b ⇒ g when both a and b imply g (one of them holds now).
    if let LtlNode::Until(a, b) = f.node() {
        if syntactically_implies(a, g) && syntactically_implies(b, g) {
            return true;
        }
    }
    // d ⇒ c U d, and f ⇒ b ⇒ F b.
    if let LtlNode::Until(_, d) = g.node() {
        if syntactically_implies(f, d) {
            return true;
        }
    }
    if let LtlNode::Finally(b) = g.node() {
        if syntactically_implies(f, b) {
            return true;
        }
    }
    false
}

/// Whether the formula is *suffix-invariant*: its truth value is the same
/// at every position of every word (`G F p`, `F G p`, and Boolean/temporal
/// combinations thereof). For invariant `x`: `X x ≡ x` (and `x` is both a
/// pure eventuality and a pure universality).
fn suffix_invariant(f: &Ltl) -> bool {
    match f.node() {
        LtlNode::True | LtlNode::False => true,
        LtlNode::Globally(g) => matches!(g.node(), LtlNode::Finally(_)) || suffix_invariant(g),
        LtlNode::Finally(g) => matches!(g.node(), LtlNode::Globally(_)) || suffix_invariant(g),
        LtlNode::Next(g) => suffix_invariant(g),
        LtlNode::And(fs) | LtlNode::Or(fs) => fs.iter().all(suffix_invariant),
        _ => false,
    }
}

/// Somenzi–Bloem *pure eventuality* (μ): satisfaction is closed under
/// prepending arbitrary prefixes (`F φ`, closed under `∧`/`∨`/`X`, and
/// `a U μ`). For such μ: `F μ ≡ μ` and `a U μ ≡ μ`.
fn pure_eventuality(f: &Ltl) -> bool {
    if suffix_invariant(f) {
        return true;
    }
    match f.node() {
        LtlNode::Finally(_) => true,
        LtlNode::Next(g) => pure_eventuality(g),
        LtlNode::And(fs) | LtlNode::Or(fs) => fs.iter().all(pure_eventuality),
        LtlNode::Until(_, b) => pure_eventuality(b),
        _ => false,
    }
}

/// Somenzi–Bloem *pure universality* (ν), dual to [`pure_eventuality`]:
/// satisfaction is inherited by every suffix (`G φ`, closed under
/// `∧`/`∨`/`X`, and `a R ν`). For such ν: `G ν ≡ ν` and `a R ν ≡ ν`.
fn pure_universality(f: &Ltl) -> bool {
    if suffix_invariant(f) {
        return true;
    }
    match f.node() {
        LtlNode::Globally(_) => true,
        LtlNode::Next(g) => pure_universality(g),
        LtlNode::And(fs) | LtlNode::Or(fs) => fs.iter().all(pure_universality),
        LtlNode::Release(_, b) => pure_universality(b),
        _ => false,
    }
}

/// Structural complement in NNF: literals `p` vs `!p`; recursively through
/// the De Morgan / temporal duals. Sound (never claims complement
/// wrongly), incomplete.
fn complements(f: &Ltl, g: &Ltl) -> bool {
    match (f.node(), g.node()) {
        (LtlNode::Not(a), _) => a == g,
        (_, LtlNode::Not(b)) => b == f,
        (LtlNode::True, LtlNode::False) | (LtlNode::False, LtlNode::True) => true,
        _ => false,
    }
}

fn simp(f: &Ltl) -> Ltl {
    match f.node() {
        LtlNode::True | LtlNode::False | LtlNode::Atom(_) | LtlNode::Not(_) => f.clone(),
        LtlNode::And(fs) => s_and(fs.iter().map(simp)),
        LtlNode::Or(fs) => s_or(fs.iter().map(simp)),
        LtlNode::Next(g) => s_next(simp(g)),
        LtlNode::Globally(g) => s_globally(simp(g)),
        LtlNode::Finally(g) => s_finally(simp(g)),
        LtlNode::Until(a, b) => s_until(simp(a), simp(b)),
        LtlNode::Release(a, b) => s_release(simp(a), simp(b)),
    }
}

/// `X f` with outward normalization: `X` of a suffix-invariant formula is
/// the formula itself.
fn s_next(f: Ltl) -> Ltl {
    if suffix_invariant(&f) {
        return f;
    }
    Ltl::next(f)
}

fn s_globally(f: Ltl) -> Ltl {
    if pure_universality(&f) {
        return f;
    }
    match f.node() {
        // G X a == X G a: commute X outward so siblings can merge.
        LtlNode::Next(a) => s_next(s_globally(a.clone())),
        // G(a R b) == G b.
        LtlNode::Release(_, b) => s_globally(b.clone()),
        _ => Ltl::globally(f),
    }
}

fn s_finally(f: Ltl) -> Ltl {
    if pure_eventuality(&f) {
        return f;
    }
    match f.node() {
        LtlNode::Next(a) => s_next(s_finally(a.clone())),
        // F(a U b) == F b.
        LtlNode::Until(_, b) => s_finally(b.clone()),
        _ => Ltl::finally(f),
    }
}

fn s_until(a: Ltl, b: Ltl) -> Ltl {
    // A pure-eventuality right operand decides the whole Until.
    if pure_eventuality(&b) {
        return b;
    }
    match (a.node(), b.node()) {
        (LtlNode::True, _) => return s_finally(b),
        (LtlNode::False, _) | (_, LtlNode::False) => return Ltl::until(a, b),
        // a U (a U b) == a U b.
        (_, LtlNode::Until(a2, _)) if *a2 == a => return b,
        // (a U b) U b == a U b.
        (LtlNode::Until(_, b2), _) if *b2 == b => return a,
        // X a U X b == X(a U b).
        (LtlNode::Next(na), LtlNode::Next(nb)) => return s_next(s_until(na.clone(), nb.clone())),
        _ => {}
    }
    // a ⇒ b makes the wait vacuous: a U b == b.
    if syntactically_implies(&a, &b) {
        return b;
    }
    Ltl::until(a, b)
}

fn s_release(a: Ltl, b: Ltl) -> Ltl {
    // A pure-universality right operand decides the whole Release.
    if pure_universality(&b) {
        return b;
    }
    match (a.node(), b.node()) {
        (LtlNode::False, _) => return s_globally(b),
        (LtlNode::True, _) | (_, LtlNode::True) | (_, LtlNode::False) => return Ltl::release(a, b),
        // a R (a R b) == a R b.
        (_, LtlNode::Release(a2, _)) if *a2 == a => return b,
        // (a R b) R b == a R b.
        (LtlNode::Release(_, b2), _) if *b2 == b => return a,
        // X a R X b == X(a R b).
        (LtlNode::Next(na), LtlNode::Next(nb)) => return s_next(s_release(na.clone(), nb.clone())),
        _ => {}
    }
    // b ⇒ a releases immediately: a R b == b.
    if syntactically_implies(&b, &a) {
        return b;
    }
    Ltl::release(a, b)
}

/// Conjunction with merging and folding (operands already simplified):
/// `G`s merge into one, `X`s pull out, equal-right `U`s and equal-left
/// `R`s combine, syntactically implied conjuncts drop, complementary
/// conjuncts collapse to `false`.
fn s_and<I: IntoIterator<Item = Ltl>>(parts: I) -> Ltl {
    // Flatten through the smart constructor first (constants, nesting).
    let flat = Ltl::and(parts);
    let LtlNode::And(fs) = flat.node() else {
        return flat;
    };
    let mut globals: Vec<Ltl> = Vec::new();
    let mut nexts: Vec<Ltl> = Vec::new();
    let mut rest: Vec<Ltl> = Vec::new();
    for p in fs {
        match p.node() {
            // G a ∧ G b == G(a ∧ b): one Release subformula instead of two.
            LtlNode::Globally(g) => globals.push(g.clone()),
            // X a ∧ X b == X(a ∧ b).
            LtlNode::Next(g) => nexts.push(g.clone()),
            _ => rest.push(p.clone()),
        }
    }
    let mut out = rest;
    if globals.len() == 1 {
        out.push(Ltl::globally(globals.pop().expect("len checked")));
    } else if !globals.is_empty() {
        out.push(s_globally(s_and(globals)));
    }
    if nexts.len() == 1 {
        out.push(Ltl::next(nexts.pop().expect("len checked")));
    } else if !nexts.is_empty() {
        out.push(s_next(s_and(nexts)));
    }
    // (a U b) ∧ (c U b) == (a ∧ c) U b; (a R b) ∧ (a R c) == a R (b ∧ c).
    out = fold_pairs(out, |x, y| match (x.node(), y.node()) {
        (LtlNode::Until(a, b), LtlNode::Until(c, d)) if b == d => {
            Some(s_until(s_and([a.clone(), c.clone()]), b.clone()))
        }
        (LtlNode::Release(a, b), LtlNode::Release(c, d)) if a == c => {
            Some(s_release(a.clone(), s_and([b.clone(), d.clone()])))
        }
        _ => None,
    });
    // Complementary conjuncts: f ∧ ¬f == false.
    for i in 0..out.len() {
        for j in i + 1..out.len() {
            if complements(&out[i], &out[j]) {
                return Ltl::ff();
            }
        }
    }
    Ltl::and(drop_implied(out, syntactically_implies))
}

/// Disjunction, dual to [`s_and`]: `F`s merge, `X`s pull out, equal-left
/// `U`s and equal-right `R`s combine, implied (stronger) disjuncts drop,
/// complementary disjuncts collapse to `true`.
fn s_or<I: IntoIterator<Item = Ltl>>(parts: I) -> Ltl {
    let flat = Ltl::or(parts);
    let LtlNode::Or(fs) = flat.node() else {
        return flat;
    };
    let mut finals: Vec<Ltl> = Vec::new();
    let mut nexts: Vec<Ltl> = Vec::new();
    let mut rest: Vec<Ltl> = Vec::new();
    for p in fs {
        match p.node() {
            // F a ∨ F b == F(a ∨ b).
            LtlNode::Finally(g) => finals.push(g.clone()),
            LtlNode::Next(g) => nexts.push(g.clone()),
            _ => rest.push(p.clone()),
        }
    }
    let mut out = rest;
    if finals.len() == 1 {
        out.push(Ltl::finally(finals.pop().expect("len checked")));
    } else if !finals.is_empty() {
        out.push(s_finally(s_or(finals)));
    }
    if nexts.len() == 1 {
        out.push(Ltl::next(nexts.pop().expect("len checked")));
    } else if !nexts.is_empty() {
        out.push(s_next(s_or(nexts)));
    }
    // (a U b) ∨ (a U c) == a U (b ∨ c); (a R b) ∨ (c R b) == (a ∨ c) R b.
    out = fold_pairs(out, |x, y| match (x.node(), y.node()) {
        (LtlNode::Until(a, b), LtlNode::Until(c, d)) if a == c => {
            Some(s_until(a.clone(), s_or([b.clone(), d.clone()])))
        }
        (LtlNode::Release(a, b), LtlNode::Release(c, d)) if b == d => {
            Some(s_release(s_or([a.clone(), c.clone()]), b.clone()))
        }
        _ => None,
    });
    for i in 0..out.len() {
        for j in i + 1..out.len() {
            if complements(&out[i], &out[j]) {
                return Ltl::tt();
            }
        }
    }
    // In a disjunction the *stronger* operand is absorbed by the weaker.
    Ltl::or(drop_implied(out, |keep, cand| {
        syntactically_implies(cand, keep)
    }))
}

/// Repeatedly merges the first combinable pair until none combines
/// (deterministic: earliest pair in operand order wins each round; every
/// merge shrinks the list, so this terminates).
fn fold_pairs(mut parts: Vec<Ltl>, combine: impl Fn(&Ltl, &Ltl) -> Option<Ltl>) -> Vec<Ltl> {
    'again: loop {
        for i in 0..parts.len() {
            for j in i + 1..parts.len() {
                if let Some(merged) = combine(&parts[i], &parts[j]) {
                    parts.remove(j);
                    parts[i] = merged;
                    continue 'again;
                }
            }
        }
        return parts;
    }
}

/// Removes operands another operand makes redundant: `cand` at index `j`
/// drops when some distinct kept operand `keep` at index `i` satisfies
/// `redundant(keep, cand)` — with ties (mutual redundancy) resolved by
/// keeping the earliest, so the result is order-deterministic.
fn drop_implied(parts: Vec<Ltl>, redundant: impl Fn(&Ltl, &Ltl) -> bool) -> Vec<Ltl> {
    let mut keep = vec![true; parts.len()];
    for j in 0..parts.len() {
        for i in 0..parts.len() {
            if i == j || !keep[i] || !keep[j] {
                continue;
            }
            if redundant(&parts[i], &parts[j]) && (i < j || !redundant(&parts[j], &parts[i])) {
                keep[j] = false;
            }
        }
    }
    parts
        .into_iter()
        .zip(keep)
        .filter_map(|(p, k)| k.then_some(p))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::{random_formula, random_word, XorShift64};
    use dic_logic::SignalTable;

    fn parse(t: &mut SignalTable, src: &str) -> Ltl {
        Ltl::parse(src, t).expect("parse")
    }

    #[test]
    fn classic_reductions() {
        let mut t = SignalTable::new();
        let cases = [
            ("F F p", "F p"),
            ("G G p", "G p"),
            ("F G F p", "G F p"),
            ("G F G p", "F G p"),
            ("X G F p", "G F p"),
            ("p U (p U q)", "p U q"),
            ("(p U q) U q", "p U q"),
            ("F(p U q)", "F q"),
            ("G(p R q)", "G q"),
            ("X p & X q", "X(p & q)"),
            ("X p | X q", "X(p | q)"),
            ("(X p) U (X q)", "X(p U q)"),
            ("G p & G q", "G(p & q)"),
            ("F p | F q", "F(p | q)"),
            ("(p U r) & (q U r)", "(p & q) U r"),
            ("(p U q) | (p U r)", "p U (q | r)"),
            ("p U F q", "F q"),
            ("q R G F p", "G F p"),
            ("p & (p | q)", "p"),
            ("p | (p & q)", "p"),
            ("G p & p", "G p"),
            ("G p & F p", "G p"),
            ("p & !p", "false"),
            ("p | !p", "true"),
            ("G G F p", "G F p"),
            ("q R G p", "G p"),
        ];
        for (src, want) in cases {
            let f = parse(&mut t, src);
            let got = f.simplify();
            let expect = parse(&mut t, want).simplify();
            assert_eq!(
                got,
                expect,
                "{} simplified to {:?}, wanted {:?}",
                src,
                got.display(&t).to_string(),
                expect.display(&t).to_string()
            );
        }
    }

    #[test]
    fn simplify_is_idempotent() {
        let mut t = SignalTable::new();
        let atoms = vec![t.intern("p"), t.intern("q"), t.intern("r")];
        for seed in 1..200u64 {
            let f = random_formula(&mut XorShift64::new(seed), &atoms, 14);
            let once = f.simplify();
            assert_eq!(once, once.simplify(), "not idempotent on {f:?}");
        }
    }

    #[test]
    fn simplify_never_grows() {
        let mut t = SignalTable::new();
        let atoms = vec![t.intern("p"), t.intern("q"), t.intern("r")];
        for seed in 1..200u64 {
            let f = random_formula(&mut XorShift64::new(seed), &atoms, 14);
            let s = f.simplify();
            assert!(
                s.size() <= f.nnf().size(),
                "grew: {f:?} ({}) -> {s:?} ({})",
                f.nnf().size(),
                s.size()
            );
        }
    }

    #[test]
    fn simplify_preserves_semantics_on_random_words() {
        let mut t = SignalTable::new();
        let atoms = vec![t.intern("p"), t.intern("q"), t.intern("r")];
        for seed in 1..400u64 {
            let mut rng = XorShift64::new(seed);
            let f = random_formula(&mut rng, &atoms, 12);
            let s = f.simplify();
            for _ in 0..6 {
                let (pre, lp) = (rng.below(3), 1 + rng.below(4));
                let w = random_word(&mut rng, atoms.len(), pre, lp);
                assert_eq!(
                    f.holds_on(&w),
                    s.holds_on(&w),
                    "semantics broke on {f:?} -> {s:?}"
                );
            }
        }
    }

    #[test]
    fn syntactic_implication_is_sound_on_words() {
        let mut t = SignalTable::new();
        let atoms = vec![t.intern("p"), t.intern("q")];
        for seed in 1..600u64 {
            let mut rng = XorShift64::new(seed);
            let f = random_formula(&mut rng, &atoms, 8);
            let g = random_formula(&mut rng, &atoms, 8);
            if !syntactically_implies(&f, &g) {
                continue;
            }
            for _ in 0..8 {
                let (pre, lp) = (rng.below(3), 1 + rng.below(3));
                let w = random_word(&mut rng, atoms.len(), pre, lp);
                assert!(
                    !f.holds_on(&w) || g.holds_on(&w),
                    "claimed {f:?} => {g:?}, refuted by a word"
                );
            }
        }
    }

    #[test]
    fn syntactic_implication_catches_the_expected_pairs() {
        let mut t = SignalTable::new();
        let pairs = [
            ("G p", "p"),
            ("G p", "F p"),
            ("G p", "G p | q"),
            ("p & q", "p"),
            ("p", "p | q"),
            ("G(p & q)", "G p"),
            ("p U q", "F q"),
            ("q", "p U q"),
            ("G p", "q R p"),
            ("p R q", "q"),
            ("X(p & q)", "X p"),
            ("(p & q) U (q & p)", "p U q"),
        ];
        for (f_src, g_src) in pairs {
            let f = parse(&mut t, f_src);
            let g = parse(&mut t, g_src);
            assert!(
                syntactically_implies(&f.nnf(), &g.nnf()),
                "{f_src} should syntactically imply {g_src}"
            );
        }
        // Not complete, and never unsound on non-implications.
        let f = parse(&mut t, "F p");
        let g = parse(&mut t, "G p");
        assert!(!syntactically_implies(&f, &g));
    }

    #[test]
    fn suffix_invariants_detected_and_sound() {
        let mut t = SignalTable::new();
        for src in [
            "G F p",
            "F G p",
            "G F p & F G q",
            "G F p | G F q",
            "X G F p",
        ] {
            let f = parse(&mut t, src);
            assert!(suffix_invariant(&f.nnf()), "{src} should be invariant");
        }
        for src in ["p", "F p", "G p", "p U q", "X p"] {
            let f = parse(&mut t, src);
            assert!(!suffix_invariant(&f.nnf()), "{src} is not invariant");
        }
    }

    #[test]
    fn candidate_class_shapes_converge() {
        // Rewrite-equal but syntactically distinct conjuncts, as Algorithm
        // 1's enumerated candidates produce them, must converge to one AST
        // (this is what lets the translation cache share their tableaus).
        let mut t = SignalTable::new();
        let a = parse(&mut t, "G(r1 -> X d1) & G(r1 -> X d1)");
        let b = parse(&mut t, "G((r1 -> X d1) & (r1 -> X d1))");
        assert_eq!(a.simplify(), b.simplify());
        let c = parse(&mut t, "X r1 & X X d1");
        let d = parse(&mut t, "X(r1 & X d1)");
        assert_eq!(c.simplify(), d.simplify());
    }
}
