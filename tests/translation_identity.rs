//! Golden pin of the automata themselves: for a fixed formula corpus,
//! the full structure of `translate(f)` (the raw GPVW tableau),
//! `translate_cached(f)` (rewritten, tableau-pruned, reduced) and
//! `translate_unreduced(f)` (the legacy tableau), state numbering
//! included.
//!
//! `tests/automaton_sizes.rs` pins only sizes, but report byte-identity
//! depends on numbering: the explicit engine's product order follows
//! automaton state ids, and so does the first witness it finds. A
//! representation change in the tableau or the reduction must leave
//! every line of `tests/golden/automata.txt` unchanged.
//!
//! Each line is `name | states/transitions/acc digest` for the three
//! translations, where the digest is FNV-1a over a rendering of every
//! state's literals and acceptance bits, every successor list and the
//! initial list. The corpus is every Table-1 conjunct and negated intent,
//! the paper's `U` property and its negation, and 300 seeded random
//! formulas and their negations.
//!
//! To regenerate after an intentional change to the automata:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test translation_identity
//! ```

use specmatcher::automata::{translate, translate_cached, translate_unreduced, Gba};
use specmatcher::designs::{mal, table1_designs};
use specmatcher::logic::SignalTable;
use specmatcher::ltl::random::{random_formula, XorShift64};
use specmatcher::ltl::Ltl;
use std::fmt::Write as _;
use std::path::PathBuf;

/// A canonical text rendering of every structural detail of `g`.
fn render(g: &Gba) -> String {
    let mut out = format!("acc={} init={:?};", g.num_acceptance_sets(), g.initial());
    for q in 0..g.num_states() as u32 {
        let st = g.state(q);
        out.push('[');
        for l in st.literals() {
            let sign = if l.polarity() { "" } else { "!" };
            let _ = write!(out, "{sign}{} ", l.signal().index());
        }
        let _ = write!(out, "a{} ->{:?}]", st.acc_bits(), g.successors(q));
    }
    out
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn summary(g: &Gba) -> String {
    format!(
        "{}/{}/{} {:016x}",
        g.num_states(),
        g.num_transitions(),
        g.num_acceptance_sets(),
        fnv1a(&render(g))
    )
}

fn line(name: &str, f: &Ltl) -> String {
    format!(
        "{name} | T {} | C {} | U {}\n",
        summary(&translate(f)),
        summary(&translate_cached(f)),
        summary(&translate_unreduced(f)),
    )
}

/// The pinned corpus, one rendered line per formula.
fn corpus() -> String {
    let mut out = String::new();
    for design in table1_designs() {
        for p in design.rtl.properties() {
            out += &line(&format!("{}/{}", design.name, p.name()), p.formula());
        }
        for p in design.arch.properties() {
            let neg = Ltl::not(p.formula().clone());
            out += &line(&format!("{}/!{}", design.name, p.name()), &neg);
        }
    }
    let mut ex2 = mal::ex2();
    let u = mal::paper_gap_property(&mut ex2);
    out += &line("paper/U", &u);
    out += &line("paper/!U", &Ltl::not(u));
    let mut t = SignalTable::new();
    let atoms = vec![t.intern("p"), t.intern("q"), t.intern("r")];
    for seed in 1..=300u64 {
        let budget = 6 + (seed % 10) as usize;
        let f = random_formula(&mut XorShift64::new(seed), &atoms, budget);
        out += &line(&format!("random/{seed}"), &f);
        out += &line(&format!("random/!{seed}"), &Ltl::not(f));
    }
    out
}

#[test]
fn automata_match_golden() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/automata.txt");
    let actual = corpus();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &actual).expect("golden file writes");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("golden file {path:?} unreadable ({e}); create it with UPDATE_GOLDEN=1")
    });
    for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(
            e,
            a,
            "automaton diverges from the golden pin at line {}",
            i + 1
        );
    }
    assert_eq!(
        expected.lines().count(),
        actual.lines().count(),
        "golden corpus length drifted"
    );
}
