//! The front door cannot abort: random bytes and random deep nestings fed
//! to the LTL parser and the SNL netlist parser must come back as `Ok` or
//! as a named error, never as a panic or a stack overflow (which would
//! abort this test process).

use proptest::prelude::*;
use specmatcher::logic::SignalTable;
use specmatcher::ltl::random::XorShift64;
use specmatcher::ltl::Ltl;
use specmatcher::netlist::parse_snl;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Random text over a token-heavy alphabet, so inputs get past the lexer
/// into the grammar often enough to matter.
fn random_text(rng: &mut XorShift64, len: usize) -> String {
    const PIECES: &[&str] = &[
        "(",
        ")",
        "!",
        "~",
        "&",
        "|",
        "^",
        "->",
        "<->",
        "-",
        "<",
        "X",
        "G",
        "F",
        "U",
        "R",
        "W",
        "a",
        "b",
        "req",
        "0",
        "1",
        "true",
        " ",
        " ",
        "\n",
        "#",
        "=",
        "\u{e9}",
        "\u{0}",
        "module",
        "input",
        "output",
        "assign",
        "latch",
        "init",
        "endmodule",
    ];
    let mut out = String::new();
    for _ in 0..len {
        if rng.below(8) == 0 {
            // A raw byte, made valid UTF-8 the way a file reader would.
            let b = [rng.below(256) as u8];
            out.push_str(&String::from_utf8_lossy(&b));
        } else {
            out.push_str(PIECES[rng.below(PIECES.len())]);
        }
    }
    out
}

/// A random chain of prefix operators and parentheses around an atom,
/// `depth` levels deep, closed (or, one time in four, left unbalanced).
fn random_nesting(rng: &mut XorShift64, depth: usize, temporal: bool) -> String {
    const BOOL_OPENERS: &[&str] = &["(", "!", "a & (", "b -> ", "a ^ (", "a <-> ("];
    const LTL_OPENERS: &[&str] = &["(", "!", "X ", "G ", "F ", "a U ", "b R (", "a W ", "a -> "];
    let openers = if temporal { LTL_OPENERS } else { BOOL_OPENERS };
    let mut out = String::new();
    let mut closers = 0;
    for _ in 0..depth {
        let op = openers[rng.below(openers.len())];
        closers += op.matches('(').count();
        out.push_str(op);
    }
    out.push('a');
    let close = if rng.below(4) == 0 {
        rng.below(closers + 1)
    } else {
        closers
    };
    out.push_str(&")".repeat(close));
    out
}

/// A one-module SNL document whose `assign` is `expr`.
fn snl_with(expr: &str) -> String {
    format!(
        "module m\n  input a b\n  output o\n  assign o = {expr}\n  latch q = o init 0\nendmodule\n"
    )
}

/// Parses `src` both ways; each must return, and every error must name
/// what went wrong.
fn assert_parses_or_names_an_error(src: &str) {
    let ltl = catch_unwind(AssertUnwindSafe(|| {
        Ltl::parse(src, &mut SignalTable::new())
            .map(|_| ())
            .map_err(|e| e.to_string())
    }));
    let snl = catch_unwind(AssertUnwindSafe(|| {
        parse_snl(src, &mut SignalTable::new())
            .map(|_| ())
            .map_err(|e| e.to_string())
    }));
    for (what, result) in [("Ltl::parse", ltl), ("parse_snl", snl)] {
        match result {
            Err(_) => panic!("{what} panicked on {src:?}"),
            Ok(Err(message)) => assert!(!message.is_empty(), "{what} gave an unnamed error"),
            Ok(Ok(())) => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_bytes_never_panic_a_parser(seed in 1u64..1_000_000, len in 0usize..120) {
        let mut rng = XorShift64::new(seed);
        let text = random_text(&mut rng, len);
        assert_parses_or_names_an_error(&text);
        assert_parses_or_names_an_error(&snl_with(&text));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_deep_nestings_never_panic_a_parser(
        seed in 1u64..1_000_000,
        depth in 0usize..20_000,
    ) {
        let mut rng = XorShift64::new(seed);
        assert_parses_or_names_an_error(&random_nesting(&mut rng, depth, true));
        let expr = random_nesting(&mut rng, depth, false);
        assert_parses_or_names_an_error(&snl_with(&expr));
    }
}
