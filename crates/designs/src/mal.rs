//! The Memory Arbitration Logic (MAL) of the paper's Figures 2–4.
//!
//! Architecture (Example 1 / Fig. 2): requests `r1`, `r2` go to a priority
//! arbiter `PrA` (specified only by properties) that raises `n1`/`n2` one
//! cycle later; the glue block `M1` masks decisions while the cache logic
//! is busy and exports the composite `wait`; the cache access logic `L1`
//! performs the lookups: a granted request with `hit` delivers `d_i`
//! immediately, a miss parks the request in a pending latch `p_i` that
//! completes at the next *bare* hit (a hit cycle with no new grant in
//! flight).
//!
//! The architectural intent is the paper's formula, verbatim:
//!
//! ```text
//! A = G(!wait & r1 & X(r1 U r2) -> X(!d2 U d1))
//! ```
//!
//! [`ex1`] reproduces Example 1 (coverage **holds**); [`ex2`] reproduces
//! Example 2 / Fig. 4, where `M1` is moved *before* the arbiter — the
//! one-cycle race between a new `r2` decision and the `wait` masking opens
//! the paper's coverage gap, closed by the property
//! `U = G(!wait & r1 & X(r1 U (r2 & X !hit)) -> X(!d2 U d1))`.
//!
//! Beyond the paper's headline pair `R1`, `R2` (resp. `R'1`, `R'2`), the
//! RTL spec carries the completion properties making the arbiter
//! deterministic, the reset property, and the cache fairness assumption
//! `G F hit` — without these the toy example is not well-posed (spurious
//! grants would break Example 1, and a never-hitting cache refutes the
//! strong until of `A` outright). EXPERIMENTS.md discusses the accounting.

use crate::Design;
use dic_core::{ArchSpec, RtlSpec};
use dic_logic::{BoolExpr, SignalTable};
use dic_ltl::Ltl;
use dic_netlist::{Module, ModuleBuilder};

/// Builds the `L1` cache access logic for `n` request channels.
///
/// Inputs: `g1..gn`, `hit`. Outputs: `d1..dn` and the pending indicator
/// (named `wait_name`, `cwait` in Ex. 1 where `M1` re-exports it, `wait`
/// in Ex. 2 where it feeds the request masks directly).
fn cache_logic(table: &mut SignalTable, n: usize, wait_name: &str) -> Module {
    let mut b = ModuleBuilder::new("L1", table);
    let hit = b.input("hit");
    let gs: Vec<_> = (1..=n).map(|i| b.input(&format!("g{i}"))).collect();
    let ps: Vec<_> = (1..=n)
        .map(|i| b.table().intern(&format!("p{i}")))
        .collect();
    // bare: a hit cycle with no grant in flight — pending fetches complete.
    let bare = b.wire(
        "bare",
        BoolExpr::and(
            [BoolExpr::var(hit)]
                .into_iter()
                .chain(gs.iter().map(|&g| BoolExpr::var(g).not())),
        ),
    );
    for i in 0..n {
        let di = b.wire(
            &format!("d{}", i + 1),
            BoolExpr::or([
                BoolExpr::and([BoolExpr::var(gs[i]), BoolExpr::var(hit)]),
                BoolExpr::and([BoolExpr::var(ps[i]), BoolExpr::var(bare)]),
            ]),
        );
        b.mark_output(di);
        // p_i' = (g_i | p_i) & !completion-condition
        b.latch(
            &format!("p{}", i + 1),
            BoolExpr::and([
                BoolExpr::or([
                    BoolExpr::and([BoolExpr::var(gs[i]), BoolExpr::var(hit).not()]),
                    BoolExpr::var(ps[i]),
                ]),
                BoolExpr::and([BoolExpr::var(ps[i]), BoolExpr::var(bare)]).not(),
            ]),
            false,
        );
    }
    let w = b.wire(
        wait_name,
        BoolExpr::or(ps.iter().map(|&p| BoolExpr::var(p))),
    );
    b.mark_output(w);
    b.finish().expect("L1 is a valid netlist")
}

/// Example 1 / Fig. 2: arbiter first, glue masking after.
///
/// `M1`: `g_i = n_i & !cwait`, `wait = n1 | n2 | cwait` — the two AND gates
/// and the OR gate of Fig. 2. Coverage of `A` **holds**.
pub fn ex1() -> Design {
    let mut table = SignalTable::new();
    // Concrete L1 with the busy wire named cwait.
    let l1 = cache_logic(&mut table, 2, "cwait");

    // Concrete M1 glue.
    let m1 = {
        let mut b = ModuleBuilder::new("M1", &mut table);
        let n1 = b.input("n1");
        let n2 = b.input("n2");
        let cwait = b.input("cwait");
        let g1 = b.and_gate("g1", [n1], [cwait]);
        let g2 = b.and_gate("g2", [n2], [cwait]);
        let wait = b.or_gate("wait", [n1, n2, cwait], []);
        b.mark_output(g1);
        b.mark_output(g2);
        b.mark_output(wait);
        b.finish().expect("M1 is a valid netlist")
    };

    let mut p = |src: &str| Ltl::parse(src, &mut table).expect("static property parses");
    let a = p("G(!wait & r1 & X(r1 U r2) -> X(!d2 U d1))");
    let props = [
        ("R1", p("G(r1 -> X n1)")),
        ("R2", p("G(!r1 & r2 -> X n2)")),
        ("C1", p("G(!r1 -> X !n1)")),
        ("C2", p("G(r1 | !r2 -> X !n2)")),
        ("INIT", p("!n1 & !n2")),
        ("FAIR", p("G F hit")),
    ];

    Design {
        name: "mal-ex1",
        arch: ArchSpec::new([("A", a)]),
        rtl: RtlSpec::new(props, [m1, l1]),
        table,
    }
}

/// Example 2 / Fig. 4: the glue moved *before* the arbiter.
///
/// `M1` now latches masked requests (`n_i <= r_i & !wait`) and the arbiter
/// (property-specified) drives the cache grants directly — the cache busy
/// signal `wait` cannot stop a decision already in flight, which is the
/// paper's coverage gap. Coverage of `A` **fails**; the paper's property
/// `U` (see [`paper_gap_property`]) closes the gap.
pub fn ex2() -> Design {
    let mut table = SignalTable::new();
    let l1 = cache_logic(&mut table, 2, "cwait");

    // Concrete M1: registered request masks feeding the arbiter, plus the
    // composite busy indicator `wait` = everything in flight (decisions
    // `n1/n2`, grants `g1/g2`, pending fetches `cwait`). The *mask* only
    // stalls on `cwait` — an accepted request still races through the
    // decision/grant pipeline while `wait` is observable at the interface.
    // This is the paper's gap mechanism: `!wait` at the window start rules
    // out anything already in flight, but a *fresh* `r2` accepted inside
    // the window can still slip its grant past a missing `r1` fetch.
    let m1 = {
        let mut b = ModuleBuilder::new("M1", &mut table);
        let r1 = b.input("r1");
        let r2 = b.input("r2");
        let cwait = b.input("cwait");
        let g1 = b.input("g1");
        let g2 = b.input("g2");
        let n1 = b.table().intern("n1");
        let n2 = b.table().intern("n2");
        let wait = b.or_gate("wait", [n1, n2, g1, g2, cwait], []);
        b.latch(
            "n1",
            BoolExpr::and([BoolExpr::var(r1), BoolExpr::var(cwait).not()]),
            false,
        );
        b.latch(
            "n2",
            BoolExpr::and([BoolExpr::var(r2), BoolExpr::var(cwait).not()]),
            false,
        );
        b.mark_output(n1);
        b.mark_output(n2);
        b.mark_output(wait);
        b.finish().expect("M1 is a valid netlist")
    };

    let mut p = |src: &str| Ltl::parse(src, &mut table).expect("static property parses");
    let a = p("G(!wait & r1 & X(r1 U r2) -> X(!d2 U d1))");
    let props = [
        ("R'1", p("G(n1 -> X g1)")),
        ("R'2", p("G(!n1 & n2 -> X g2)")),
        ("C'1", p("G(!n1 -> X !g1)")),
        ("C'2", p("G(n1 | !n2 -> X !g2)")),
        ("INIT", p("!g1 & !g2")),
        ("FAIR", p("G F hit")),
    ];

    Design {
        name: "mal-ex2",
        arch: ArchSpec::new([("A", a)]),
        rtl: RtlSpec::new(props, [m1, l1]),
        table,
    }
}

/// The paper's gap property for Example 2, verbatim:
/// `U = G(!wait & r1 & X(r1 U (r2 & X !hit)) -> X(!d2 U d1))`.
///
/// Parsed against the design's signal table so it can be checked with
/// [`dic_core::closes_gap`]: it is strictly weaker than `A`
/// (Definition 2) and closes the Example 2 coverage gap (Definition 3) —
/// the paper's Example 4 result, machine-checked.
pub fn paper_gap_property(design: &mut Design) -> Ltl {
    Ltl::parse(
        "G(!wait & r1 & X(r1 U (r2 & X !hit)) -> X(!d2 U d1))",
        &mut design.table,
    )
    .expect("the paper's U parses")
}

/// A second paper-shaped gap property:
/// `U' = G(!wait & r1 & X(r1 U (r2 & X !g2)) -> X(!d2 U d1))`.
///
/// Same syntactic structure as the paper's `U` — the `r2` instance inside
/// the unbounded until is strengthened with an `X`-offset environment
/// literal — with the in-flight arbiter grant `g2` as the distinguishing
/// literal instead of the cache `hit`. Algorithm 1 generates this variant
/// among its closing candidates for [`ex2`].
pub fn adapted_gap_property(design: &mut Design) -> Ltl {
    Ltl::parse(
        "G(!wait & r1 & X(r1 U (r2 & X !g2)) -> X(!d2 U d1))",
        &mut design.table,
    )
    .expect("the adapted U parses")
}

/// The channel counts [`mal`] accepts.
pub const CHANNELS: std::ops::RangeInclusive<usize> = 2..=6;

/// The name of [`mal`]`(k)`: `mal-<p>`, after its `p` = 5k + k(k−1)/2 RTL
/// properties, as the paper names its four-requester row mal-26.
pub fn name(k: usize) -> String {
    format!("mal-{}", 5 * k + k * (k - 1) / 2)
}

/// The Table 1 MAL: four requesters, 26 RTL properties — [`mal`]`(4)`.
pub fn mal26() -> Design {
    mal(4)
}

/// The MAL with `k` request channels, Ex. 2 topology (so the architectural
/// priority property has a genuine gap and the full Algorithm 1 pipeline
/// runs, as in the paper's measurements), and the suite of mal-26 written
/// for `k` channels: grants `G1..Gk`, completions `C1..Ck`, priority
/// blocking `B2..Bk`, pairwise grant exclusion `X1..`, busy silence
/// `W1..Wk`, contrapositive completions `K2..Kk`, then `INIT` and `FAIR`.
/// That is 5k + k(k−1)/2 properties over 4k + 1 state bits (the `p`/`n`
/// latches plus the free `hit`, `r` and arbiter-driven `g` inputs).
///
/// # Panics
///
/// If `k` is outside [`CHANNELS`].
pub fn mal(k: usize) -> Design {
    assert!(CHANNELS.contains(&k), "MAL channel counts are {CHANNELS:?}");
    let mut table = SignalTable::new();
    let l1 = cache_logic(&mut table, k, "cwait");

    // Registered request masks for every channel, plus the composite busy
    // indicator (see the `ex2` comment: masks stall on `cwait` only,
    // `wait` covers every in-flight stage).
    let m1 = {
        let mut b = ModuleBuilder::new("M1", &mut table);
        let cwait = b.input("cwait");
        let gs: Vec<_> = (1..=k).map(|i| b.input(&format!("g{i}"))).collect();
        let ns: Vec<_> = (1..=k)
            .map(|i| b.table().intern(&format!("n{i}")))
            .collect();
        let wait = b.or_gate(
            "wait",
            ns.iter().chain(gs.iter()).copied().chain([cwait]),
            [],
        );
        for i in 1..=k {
            let r = b.input(&format!("r{i}"));
            b.latch(
                &format!("n{i}"),
                BoolExpr::and([BoolExpr::var(r), BoolExpr::var(cwait).not()]),
                false,
            );
        }
        for &id in &ns {
            b.mark_output(id);
        }
        b.mark_output(wait);
        b.finish().expect("M1 is a valid netlist")
    };

    let mut props: Vec<(String, String)> = Vec::new();
    // Grants: strict priority n1 > n2 > …, stalled on cache busy.
    for i in 1..=k {
        let mut ante: Vec<String> = (1..i).map(|j| format!("!n{j}")).collect();
        ante.extend([format!("n{i}"), "!cwait".to_owned()]);
        props.push((
            format!("G{i}"),
            format!("G({} -> X g{i})", ante.join(" & ")),
        ));
    }
    // Completions: no grant without a decision.
    for i in 1..=k {
        props.push((format!("C{i}"), format!("G(!n{i} -> X !g{i})")));
    }
    // Priority blocking.
    for i in 2..=k {
        let higher: Vec<String> = (1..i).map(|j| format!("n{j}")).collect();
        props.push((
            format!("B{i}"),
            format!("G({} -> X !g{i})", higher.join(" | ")),
        ));
    }
    // Pairwise grant exclusion.
    for (x, (i, j)) in (1..=k)
        .flat_map(|i| ((i + 1)..=k).map(move |j| (i, j)))
        .enumerate()
    {
        props.push((format!("X{}", x + 1), format!("G !(g{i} & g{j})")));
    }
    // Silence while the cache is busy.
    for i in 1..=k {
        props.push((format!("W{i}"), format!("G(cwait -> X !g{i})")));
    }
    // Contrapositive completions (redundant in meaning, present in the
    // suite as written by the validation team).
    for i in 2..=k {
        props.push((format!("K{i}"), format!("G(X g{i} -> n{i})")));
    }
    // Reset and cache fairness.
    let init: Vec<String> = (1..=k).map(|i| format!("!g{i}")).collect();
    props.push(("INIT".to_owned(), init.join(" & ")));
    props.push(("FAIR".to_owned(), "G F hit".to_owned()));

    let props: Vec<(String, Ltl)> = props
        .into_iter()
        .map(|(name, src)| (name, Ltl::parse(&src, &mut table).expect("property parses")))
        .collect();
    let a = Ltl::parse("G(!wait & r1 & X(r1 U r2) -> X(!d2 U d1))", &mut table).expect("A parses");

    Design {
        // Leaked like `scaling::chain_design`'s name: a handful of calls
        // per process.
        name: Box::leak(name(k).into_boxed_str()),
        arch: ArchSpec::new([("A", a)]),
        rtl: RtlSpec::new(
            props.iter().map(|(name, f)| (name.as_str(), f.clone())),
            [m1, l1],
        ),
        table,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dic_core::{closes_gap, CoverageModel, GapConfig, SpecMatcher};

    #[test]
    fn ex1_coverage_holds() {
        let d = ex1();
        let model = CoverageModel::build(&d.arch, &d.rtl, &d.table).expect("builds");
        let fa = d.arch.properties()[0].formula();
        let witness = dic_core::primary_coverage(fa, &d.rtl, &model).expect("within limits");
        assert!(
            witness.is_none(),
            "Example 1 must be covered; counterexample: {:?}",
            witness.map(|w| {
                w.states()
                    .iter()
                    .map(|s| s.display(&d.table).to_string())
                    .collect::<Vec<_>>()
            })
        );
    }

    #[test]
    fn ex2_gap_exists() {
        let d = ex2();
        let model = CoverageModel::build(&d.arch, &d.rtl, &d.table).expect("builds");
        let fa = d.arch.properties()[0].formula();
        let witness = dic_core::primary_coverage(fa, &d.rtl, &model).expect("within limits");
        assert!(witness.is_some(), "Example 2 must have a coverage gap");
        // The witness genuinely breaks A while satisfying every R property.
        let w = witness.expect("checked");
        assert!(!fa.holds_on(&w));
        for p in d.rtl.properties() {
            assert!(p.formula().holds_on(&w), "witness violates {}", p.name());
        }
    }

    #[test]
    fn ex2_paper_u_closes_gap() {
        // The paper's Example 4, machine-checked: the verbatim U is
        // strictly weaker than A and closes the Example 2 coverage gap.
        let mut d = ex2();
        let u = paper_gap_property(&mut d);
        let model = CoverageModel::build(&d.arch, &d.rtl, &d.table).expect("builds");
        let fa = d.arch.properties()[0].formula();
        assert!(dic_automata::implies(fa, &u));
        assert!(dic_automata::stronger_than(fa, &u));
        assert!(
            closes_gap(&u, fa, &d.rtl, &model).expect("runs"),
            "the paper's U must close the Example 2 gap"
        );
    }

    #[test]
    fn ex2_adapted_gap_property_also_closes() {
        // The same-shaped property over the in-flight grant literal also
        // closes (Algorithm 1 finds this one among its candidates).
        let mut d = ex2();
        let u = adapted_gap_property(&mut d);
        let model = CoverageModel::build(&d.arch, &d.rtl, &d.table).expect("builds");
        let fa = d.arch.properties()[0].formula();
        assert!(dic_automata::stronger_than(fa, &u));
        assert!(closes_gap(&u, fa, &d.rtl, &model).expect("runs"));
    }

    #[test]
    fn ex2_algorithm_finds_the_paper_property_verbatim() {
        // The headline reproduction of Example 4: Algorithm 1 itself
        // produces the paper's U — the r2 instance inside the unbounded
        // until strengthened with X !hit — along with the same-shaped
        // sibling over the in-flight grant (X !g2). Candidates are explored
        // deepest-unbounded-operator first (Fig. 6), so both sit within the
        // default budgets.
        let mut d = ex2();
        let paper_u = paper_gap_property(&mut d);
        let sibling = adapted_gap_property(&mut d);
        let config = GapConfig {
            max_candidates: 160,
            max_gap_properties: 24,
            ..GapConfig::default()
        };
        let run = d.check(&SpecMatcher::new(config)).expect("runs");
        let rep = &run.properties[0];
        let found = |expected: &dic_ltl::Ltl| {
            rep.gap_properties
                .iter()
                .any(|g| dic_automata::equivalent(&g.formula, expected))
        };
        assert!(
            found(&paper_u) && found(&sibling),
            "expected the paper's U and its X!g2 sibling among: {:?}",
            rep.gap_properties
                .iter()
                .map(|g| g.describe(&d.table))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn ex2_push_locates_until() {
        // Fig. 6: pushing the UM terms into A's parse tree determines that
        // "the gaps lie inside the unbounded operator until" — the
        // antecedent until `X(r1 U r2)` at ε.0.0.0.2. With the
        // deepest-unbounded-first candidate order, every *leading* closing
        // gap property weakens an instance inside one of the untils.
        let d = ex2();
        let run = d
            .check(&SpecMatcher::new(GapConfig::default()))
            .expect("runs");
        let rep = &run.properties[0];
        assert!(!rep.gap_properties.is_empty());
        let until_antecedent = [0usize, 0, 0, 2]; // path of X(r1 U r2)'s X
        let until_consequent = [0usize, 1]; // path of X(!d2 U d1)'s X
        for g in &rep.gap_properties {
            let p = g.position.path();
            assert!(
                p.starts_with(&until_antecedent) || p.starts_with(&until_consequent),
                "gap property weakens outside the untils: {}",
                g.describe(&d.table)
            );
        }
    }

    #[test]
    fn ex2_generated_gap_closes() {
        let d = ex2();
        let run = d
            .check(&SpecMatcher::new(GapConfig::default()))
            .expect("runs");
        let rep = &run.properties[0];
        assert!(!rep.covered);
        assert!(
            !rep.gap_properties.is_empty(),
            "Algorithm 1 must find a structured gap property; terms: {:?}",
            rep.uncovered_terms
        );
        let model = CoverageModel::build(&d.arch, &d.rtl, &d.table).expect("builds");
        for g in &rep.gap_properties {
            assert!(closes_gap(&g.formula, &rep.formula, &d.rtl, &model).expect("runs"));
        }
    }

    #[test]
    fn mal26_property_count() {
        let d = mal26();
        assert_eq!(d.rtl.num_properties(), 26);
    }

    /// mal-26's suite as hand-written before the family generator.
    const MAL26_SUITE: [(&str, &str); 26] = [
        ("G1", "G(n1 & !cwait -> X g1)"),
        ("G2", "G(!n1 & n2 & !cwait -> X g2)"),
        ("G3", "G(!n1 & !n2 & n3 & !cwait -> X g3)"),
        ("G4", "G(!n1 & !n2 & !n3 & n4 & !cwait -> X g4)"),
        ("C1", "G(!n1 -> X !g1)"),
        ("C2", "G(!n2 -> X !g2)"),
        ("C3", "G(!n3 -> X !g3)"),
        ("C4", "G(!n4 -> X !g4)"),
        ("B2", "G(n1 -> X !g2)"),
        ("B3", "G(n1 | n2 -> X !g3)"),
        ("B4", "G(n1 | n2 | n3 -> X !g4)"),
        ("X1", "G !(g1 & g2)"),
        ("X2", "G !(g1 & g3)"),
        ("X3", "G !(g1 & g4)"),
        ("X4", "G !(g2 & g3)"),
        ("X5", "G !(g2 & g4)"),
        ("X6", "G !(g3 & g4)"),
        ("W1", "G(cwait -> X !g1)"),
        ("W2", "G(cwait -> X !g2)"),
        ("W3", "G(cwait -> X !g3)"),
        ("W4", "G(cwait -> X !g4)"),
        ("K2", "G(X g2 -> n2)"),
        ("K3", "G(X g3 -> n3)"),
        ("K4", "G(X g4 -> n4)"),
        ("INIT", "!g1 & !g2 & !g3 & !g4"),
        ("FAIR", "G F hit"),
    ];

    #[test]
    fn mal4_is_the_hand_written_mal26_suite() {
        let d = mal(4);
        assert_eq!(d.name, "mal-26");
        let signals: Vec<&str> = d.table.iter().map(|(_, name)| name).collect();
        assert_eq!(
            signals,
            [
                "hit", "g1", "g2", "g3", "g4", "p1", "p2", "p3", "p4", "bare", "d1", "d2", "d3",
                "d4", "cwait", "n1", "n2", "n3", "n4", "wait", "r1", "r2", "r3", "r4",
            ]
        );
        let mut table = d.table.clone();
        let want: Vec<(&str, Ltl)> = MAL26_SUITE
            .iter()
            .map(|&(name, src)| (name, Ltl::parse(src, &mut table).expect("parses")))
            .collect();
        let got: Vec<(&str, Ltl)> = d
            .rtl
            .properties()
            .iter()
            .map(|p| (p.name(), p.formula().clone()))
            .collect();
        assert_eq!(got, want);
        assert_eq!(table.len(), d.table.len(), "the suite reads no new signal");
    }

    #[test]
    fn family_sizes_follow_the_channel_count() {
        for k in CHANNELS {
            let d = mal(k);
            assert_eq!(d.name, name(k));
            assert_eq!(d.rtl.num_properties(), 5 * k + k * (k - 1) / 2);
            let modules: Vec<&Module> = d.rtl.concrete().iter().collect();
            let composed = Module::compose("M", &modules, &d.table).expect("composes");
            assert_eq!(
                composed.latches().len() + composed.inputs().len(),
                4 * k + 1,
                "mal({k}) state bits"
            );
        }
        assert_eq!(
            CHANNELS.map(name).collect::<Vec<_>>(),
            ["mal-11", "mal-18", "mal-26", "mal-35", "mal-45"]
        );
    }
}
