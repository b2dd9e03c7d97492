//! Parser for [`BoolExpr`].
//!
//! Grammar (loosest to tightest binding):
//!
//! ```text
//! iff   := imp ("<->" imp)*
//! imp   := or ("->" imp)?            // right associative
//! or    := xor ("|" xor)*
//! xor   := and ("^" and)*
//! and   := unary ("&" unary)*
//! unary := "!" unary | atom
//! atom  := ident | "true" | "false" | "1" | "0" | "(" iff ")"
//! ```
//!
//! Identifiers match `[A-Za-z_][A-Za-z0-9_.\[\]]*`, which is enough for
//! flattened hierarchical names like `u1.q` or `data[3]`.
//!
//! Nesting — parentheses, `!` and the right operands of `->` — is capped
//! at [`MAX_NESTING`] levels, so a pathological input fails with a
//! [`ParseBoolExprError`] instead of overflowing the stack of the parser
//! or of the passes that walk the expression afterwards. Chains of the
//! associative `^` and `<->` are built as balanced trees, so a chain of
//! `n` operands adds only about `log2 n` levels, and `&`/`|` chains are
//! flat: width is not nesting.

use crate::expr::BoolExpr;
use crate::signal::SignalTable;
use std::error::Error;
use std::fmt;

/// The deepest nesting [`BoolExpr::parse`] accepts.
pub const MAX_NESTING: usize = 256;

/// Error produced when parsing a Boolean expression fails.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseBoolExprError {
    /// Byte offset in the input where the error occurred.
    pub position: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseBoolExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl Error for ParseBoolExprError {}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Tok {
    Ident(String),
    True,
    False,
    Not,
    And,
    Or,
    Xor,
    Imp,
    Iff,
    LParen,
    RParen,
}

fn lex(src: &str) -> Result<Vec<(usize, Tok)>, ParseBoolExprError> {
    let bytes = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '(' => {
                toks.push((i, Tok::LParen));
                i += 1;
            }
            ')' => {
                toks.push((i, Tok::RParen));
                i += 1;
            }
            '!' | '~' => {
                toks.push((i, Tok::Not));
                i += 1;
            }
            '&' => {
                toks.push((i, Tok::And));
                i += if src[i..].starts_with("&&") { 2 } else { 1 };
            }
            '|' => {
                toks.push((i, Tok::Or));
                i += if src[i..].starts_with("||") { 2 } else { 1 };
            }
            '^' => {
                toks.push((i, Tok::Xor));
                i += 1;
            }
            '-' => {
                if src[i..].starts_with("->") {
                    toks.push((i, Tok::Imp));
                    i += 2;
                } else {
                    return Err(ParseBoolExprError {
                        position: i,
                        message: "expected '->'".into(),
                    });
                }
            }
            '<' => {
                if src[i..].starts_with("<->") {
                    toks.push((i, Tok::Iff));
                    i += 3;
                } else {
                    return Err(ParseBoolExprError {
                        position: i,
                        message: "expected '<->'".into(),
                    });
                }
            }
            '0' => {
                toks.push((i, Tok::False));
                i += 1;
            }
            '1' => {
                toks.push((i, Tok::True));
                i += 1;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() {
                    let d = bytes[i] as char;
                    if d.is_ascii_alphanumeric() || matches!(d, '_' | '.' | '[' | ']') {
                        i += 1;
                    } else {
                        break;
                    }
                }
                let word = &src[start..i];
                toks.push((
                    start,
                    match word {
                        "true" => Tok::True,
                        "false" => Tok::False,
                        _ => Tok::Ident(word.to_owned()),
                    },
                ));
            }
            other => {
                return Err(ParseBoolExprError {
                    position: i,
                    message: format!("unexpected character {other:?}"),
                })
            }
        }
    }
    Ok(toks)
}

struct Parser<'a> {
    toks: Vec<(usize, Tok)>,
    pos: usize,
    table: &'a mut SignalTable,
    src_len: usize,
    /// Current nesting level, bounded by [`MAX_NESTING`].
    depth: usize,
}

/// Joins the operands of an associative operator chain into a balanced
/// tree by combining neighbours pairwise, so `n` operands nest only
/// `⌈log2 n⌉` deep; chains of up to three operands come out left-nested,
/// as a left fold would build them.
fn balanced(mut parts: Vec<BoolExpr>, join: fn(BoolExpr, BoolExpr) -> BoolExpr) -> BoolExpr {
    while parts.len() > 1 {
        let mut level = Vec::with_capacity(parts.len().div_ceil(2));
        let mut it = parts.into_iter();
        while let Some(a) = it.next() {
            level.push(match it.next() {
                Some(b) => join(a, b),
                None => a,
            });
        }
        parts = level;
    }
    parts.pop().expect("a chain has an operand")
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(_, t)| t)
    }

    fn here(&self) -> usize {
        self.toks
            .get(self.pos)
            .map(|(p, _)| *p)
            .unwrap_or(self.src_len)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(_, t)| t.clone());
        self.pos += 1;
        t
    }

    fn expect(&mut self, want: &Tok, what: &str) -> Result<(), ParseBoolExprError> {
        if self.peek() == Some(want) {
            self.pos += 1;
            Ok(())
        } else {
            Err(ParseBoolExprError {
                position: self.here(),
                message: format!("expected {what}"),
            })
        }
    }

    /// Runs `f` one nesting level deeper, refusing past [`MAX_NESTING`].
    fn nested(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<BoolExpr, ParseBoolExprError>,
    ) -> Result<BoolExpr, ParseBoolExprError> {
        if self.depth == MAX_NESTING {
            return Err(ParseBoolExprError {
                position: self.here(),
                message: format!("expression nests deeper than {MAX_NESTING} levels"),
            });
        }
        self.depth += 1;
        let e = f(self);
        self.depth -= 1;
        e
    }

    fn iff(&mut self) -> Result<BoolExpr, ParseBoolExprError> {
        let mut parts = vec![self.imp()?];
        while self.peek() == Some(&Tok::Iff) {
            self.pos += 1;
            parts.push(self.imp()?);
        }
        Ok(balanced(parts, BoolExpr::iff))
    }

    fn imp(&mut self) -> Result<BoolExpr, ParseBoolExprError> {
        let lhs = self.or()?;
        if self.peek() == Some(&Tok::Imp) {
            self.pos += 1;
            let rhs = self.nested(Self::imp)?; // right associative
            Ok(BoolExpr::implies(lhs, rhs))
        } else {
            Ok(lhs)
        }
    }

    fn or(&mut self) -> Result<BoolExpr, ParseBoolExprError> {
        let mut parts = vec![self.xor()?];
        while self.peek() == Some(&Tok::Or) {
            self.pos += 1;
            parts.push(self.xor()?);
        }
        Ok(BoolExpr::or(parts))
    }

    fn xor(&mut self) -> Result<BoolExpr, ParseBoolExprError> {
        let mut parts = vec![self.and()?];
        while self.peek() == Some(&Tok::Xor) {
            self.pos += 1;
            parts.push(self.and()?);
        }
        Ok(balanced(parts, BoolExpr::xor))
    }

    fn and(&mut self) -> Result<BoolExpr, ParseBoolExprError> {
        let mut parts = vec![self.unary()?];
        while self.peek() == Some(&Tok::And) {
            self.pos += 1;
            parts.push(self.unary()?);
        }
        Ok(BoolExpr::and(parts))
    }

    fn unary(&mut self) -> Result<BoolExpr, ParseBoolExprError> {
        if self.peek() == Some(&Tok::Not) {
            self.pos += 1;
            return Ok(self.nested(Self::unary)?.not());
        }
        self.atom()
    }

    fn atom(&mut self) -> Result<BoolExpr, ParseBoolExprError> {
        let position = self.here();
        match self.bump() {
            Some(Tok::Ident(name)) => Ok(BoolExpr::var(self.table.intern(&name))),
            Some(Tok::True) => Ok(BoolExpr::tt()),
            Some(Tok::False) => Ok(BoolExpr::ff()),
            Some(Tok::LParen) => {
                let e = self.nested(Self::iff)?;
                self.expect(&Tok::RParen, "')'")?;
                Ok(e)
            }
            other => Err(ParseBoolExprError {
                position,
                message: format!("expected an atom, found {other:?}"),
            }),
        }
    }
}

impl BoolExpr {
    /// Parses a Boolean expression, interning signal names in `table`.
    ///
    /// # Errors
    ///
    /// Returns [`ParseBoolExprError`] on malformed input or on input
    /// nesting deeper than [`MAX_NESTING`]; the error carries the byte
    /// offset of the failure.
    ///
    /// # Example
    ///
    /// ```
    /// use dic_logic::{BoolExpr, SignalTable};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut t = SignalTable::new();
    /// let e = BoolExpr::parse("grant -> req & !stall", &mut t)?;
    /// assert_eq!(e.support().len(), 3);
    /// # Ok(())
    /// # }
    /// ```
    pub fn parse(src: &str, table: &mut SignalTable) -> Result<BoolExpr, ParseBoolExprError> {
        let toks = lex(src)?;
        let mut p = Parser {
            toks,
            pos: 0,
            table,
            src_len: src.len(),
            depth: 0,
        };
        let e = p.iff()?;
        if p.pos != p.toks.len() {
            return Err(ParseBoolExprError {
                position: p.here(),
                message: "trailing input".into(),
            });
        }
        Ok(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::valuation::Valuation;

    fn eval_str(src: &str, assigns: &[(&str, bool)]) -> bool {
        let mut t = SignalTable::new();
        let e = BoolExpr::parse(src, &mut t).expect("parse");
        let mut v = Valuation::all_false(t.len().max(assigns.len()));
        for (name, val) in assigns {
            if let Some(id) = t.lookup(name) {
                v.set(id, *val);
            }
        }
        e.eval(&v)
    }

    #[test]
    fn precedence_and_over_or() {
        assert!(eval_str(
            "a | b & c",
            &[("a", true), ("b", false), ("c", false)]
        ));
        assert!(!eval_str(
            "(a | b) & c",
            &[("a", true), ("b", false), ("c", false)]
        ));
    }

    #[test]
    fn implication_right_assoc() {
        // a -> b -> c  ==  a -> (b -> c); with a=1,b=0 it's true
        assert!(eval_str(
            "a -> b -> c",
            &[("a", true), ("b", false), ("c", false)]
        ));
    }

    #[test]
    fn iff_and_xor() {
        assert!(eval_str("a <-> b", &[("a", true), ("b", true)]));
        assert!(!eval_str("a ^ b", &[("a", true), ("b", true)]));
    }

    #[test]
    fn constants_and_negation() {
        assert!(eval_str("!false & true & !0 & 1", &[]));
        assert!(eval_str("~a", &[("a", false)]));
    }

    #[test]
    fn verilog_style_operators() {
        assert!(eval_str(
            "a && b || !c",
            &[("a", true), ("b", true), ("c", true)]
        ));
    }

    #[test]
    fn hierarchical_names() {
        let mut t = SignalTable::new();
        let e = BoolExpr::parse("u1.q & data[3]", &mut t).expect("parse");
        assert!(t.lookup("u1.q").is_some());
        assert!(t.lookup("data[3]").is_some());
        assert_eq!(e.support().len(), 2);
    }

    #[test]
    fn error_reports_position() {
        let mut t = SignalTable::new();
        let err = BoolExpr::parse("a & ", &mut t).unwrap_err();
        assert_eq!(err.position, 4);
        let err = BoolExpr::parse("a @ b", &mut t).unwrap_err();
        assert_eq!(err.position, 2);
    }

    #[test]
    fn trailing_input_rejected() {
        let mut t = SignalTable::new();
        assert!(BoolExpr::parse("a b", &mut t).is_err());
        assert!(BoolExpr::parse("(a", &mut t).is_err());
    }

    #[test]
    fn deep_nesting_is_refused_not_overflowed() {
        let mut t = SignalTable::new();
        let deep = |open: &str, mid: &str, n: usize| open.repeat(n) + "a" + &mid.repeat(n);
        let chain = |op: &str, n: usize| vec!["a"; n + 1].join(op);
        for (src, at_limit) in [
            (deep("(", ")", 100_000), deep("(", ")", MAX_NESTING)),
            (deep("!", "", 100_000), deep("!", "", MAX_NESTING)),
            (chain(" -> ", 100_000), chain(" -> ", MAX_NESTING)),
            (deep("a & (", ")", 100_000), deep("a & (", ")", MAX_NESTING)),
        ] {
            let err = BoolExpr::parse(&src, &mut t).unwrap_err();
            assert!(err.message.contains("nests deeper"), "{}", err.message);
            assert!(BoolExpr::parse(&at_limit, &mut t).is_ok());
        }
        // Width is not depth.
        for op in [" & ", " | ", " ^ ", " <-> "] {
            assert!(BoolExpr::parse(&chain(op, 100_000), &mut t).is_ok(), "{op}");
        }
    }

    #[test]
    fn balanced_chains_keep_their_meaning() {
        let mut t = SignalTable::new();
        let names: Vec<String> = (0..9).map(|i| format!("a{i}")).collect();
        let ids: Vec<_> = names.iter().map(|a| t.intern(a)).collect();
        for n in 1..=names.len() {
            let xor = BoolExpr::parse(&names[..n].join(" ^ "), &mut t).expect("xor chain");
            let iff = BoolExpr::parse(&names[..n].join(" <-> "), &mut t).expect("iff chain");
            for bits in 0..1u64 << names.len() {
                let mut v = Valuation::all_false(t.len());
                v.assign_key(&ids, bits);
                let ones = (bits & ((1 << n) - 1)).count_ones() as usize;
                let parity = !ones.is_multiple_of(2);
                // A left fold of `<->` over n operands is true iff the
                // number of false operands is even.
                let even_zeros = (n - ones).is_multiple_of(2);
                assert_eq!(xor.eval(&v), parity, "{n}-operand ^ under {v:?}");
                assert_eq!(iff.eval(&v), even_zeros, "{n}-operand <-> under {v:?}");
            }
        }
        // Up to three operands the tree is the left fold's.
        let left = BoolExpr::parse("(a0 ^ a1) ^ a2", &mut t).expect("parse");
        assert_eq!(
            BoolExpr::parse("a0 ^ a1 ^ a2", &mut t).expect("parse"),
            left
        );
    }

    #[test]
    fn display_parse_round_trip() {
        let mut t = SignalTable::new();
        let e = BoolExpr::parse("(a | !b) & (c ^ d) & !(e & f)", &mut t).expect("parse");
        let shown = e.display(&t).to_string();
        let e2 = BoolExpr::parse(&shown, &mut t).expect("reparse");
        // Compare by truth table over the 6 variables.
        let ids: Vec<_> = t.ids().collect();
        for bits in 0..64u64 {
            let mut v = Valuation::all_false(t.len());
            v.assign_key(&ids, bits);
            assert_eq!(e.eval(&v), e2.eval(&v), "mismatch under {v:?}");
        }
    }
}
