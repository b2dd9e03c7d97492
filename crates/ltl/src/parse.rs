//! Parser for [`Ltl`] formulas.
//!
//! Grammar (loosest to tightest binding):
//!
//! ```text
//! iff   := imp ("<->" imp)*
//! imp   := or ("->" imp)?                  // right associative
//! or    := and ("|" and)*
//! and   := bin ("&" bin)*
//! bin   := unary (("U" | "R" | "W") bin)?  // right associative
//! unary := ("!" | "X" | "G" | "F" | "[]" | "<>") unary | atom
//! atom  := ident | "true" | "false" | "1" | "0" | "(" iff ")"
//! ```
//!
//! The single upper-case letters `U R W G F X` are reserved operator
//! keywords (as in SPIN/Spot), so signals cannot carry those exact names.
//! `a W b` (weak until) is accepted and desugared to `(a U b) | G a`.
//!
//! Nesting — prefix operators, parentheses and the right operands of
//! `U`/`R`/`W`/`->` — is capped at [`MAX_NESTING`] levels, so a
//! pathological input fails with a [`ParseLtlError`] instead of
//! overflowing the stack of the parser or of the passes that walk the
//! formula afterwards.
//!
//! `<->` and `W` desugar by copying operands, so a short input can
//! expand into an exponentially large tree (each operand of an
//! `a <-> b <-> c …` chain doubles it). The expanded size is capped at
//! [`MAX_EXPANDED_SIZE`] nodes for the same reason.

use crate::formula::{Ltl, LtlNode};
use dic_logic::SignalTable;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// The deepest nesting [`Ltl::parse`] accepts, chosen so that formulas
/// this deep still run a full coverage check.
pub const MAX_NESTING: usize = 256;

/// The largest expanded formula [`Ltl::parse`] accepts, in AST nodes
/// ([`Ltl::size`], which counts a shared subformula once per
/// occurrence). Chosen so that formulas this large still run a full
/// coverage check: a 12-operand `<->` chain under `G` (16,378 nodes)
/// checks mal-ex1's netlist in about two seconds; a 13-operand one
/// (32,762 nodes) takes ten times as long and prints megabytes.
pub const MAX_EXPANDED_SIZE: usize = 1 << 14;

/// Error produced when parsing an LTL formula fails.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseLtlError {
    /// Byte offset in the input where the error occurred.
    pub position: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseLtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LTL parse error at byte {}: {}", self.position, self.message)
    }
}

impl Error for ParseLtlError {}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Tok {
    Ident(String),
    True,
    False,
    Not,
    And,
    Or,
    Imp,
    Iff,
    Next,
    Globally,
    Finally,
    Until,
    Release,
    WeakUntil,
    LParen,
    RParen,
}

fn lex(src: &str) -> Result<Vec<(usize, Tok)>, ParseLtlError> {
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
            '-' => {
                if src[i..].starts_with("->") {
                    toks.push((i, Tok::Imp));
                    i += 2;
                } else {
                    return Err(ParseLtlError {
                        position: i,
                        message: "expected '->'".into(),
                    });
                }
            }
            '<' => {
                if src[i..].starts_with("<->") {
                    toks.push((i, Tok::Iff));
                    i += 3;
                } else if src[i..].starts_with("<>") {
                    toks.push((i, Tok::Finally));
                    i += 2;
                } else {
                    return Err(ParseLtlError {
                        position: i,
                        message: "expected '<->' or '<>'".into(),
                    });
                }
            }
            '[' => {
                if src[i..].starts_with("[]") {
                    toks.push((i, Tok::Globally));
                    i += 2;
                } else {
                    return Err(ParseLtlError {
                        position: i,
                        message: "expected '[]'".into(),
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
                        // Careful: '[' here would swallow the `[]` operator,
                        // but identifiers like data[3] are common in EDA.
                        // Disambiguate: only treat '[' as part of the name if
                        // it is not immediately "[]".
                        if d == '[' && src[i..].starts_with("[]") {
                            break;
                        }
                        i += 1;
                    } else {
                        break;
                    }
                }
                let word = &src[start..i];
                let tok = match word {
                    "true" => Tok::True,
                    "false" => Tok::False,
                    "U" => Tok::Until,
                    "R" => Tok::Release,
                    "W" => Tok::WeakUntil,
                    "G" => Tok::Globally,
                    "F" => Tok::Finally,
                    "X" => Tok::Next,
                    _ => Tok::Ident(word.to_owned()),
                };
                toks.push((start, tok));
            }
            other => {
                return Err(ParseLtlError {
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
    /// Expanded sizes of the measured nodes, keyed by node address, so a
    /// formula is measured in time linear in its *distinct* nodes.
    sizes: HashMap<*const LtlNode, usize>,
    /// Every measured formula, kept alive so that no address in `sizes`
    /// can be freed and reused while parsing.
    measured: Vec<Ltl>,
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

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Runs `f` one nesting level deeper, refusing past [`MAX_NESTING`].
    fn nested(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<Ltl, ParseLtlError>,
    ) -> Result<Ltl, ParseLtlError> {
        if self.depth == MAX_NESTING {
            return Err(ParseLtlError {
                position: self.here(),
                message: format!("formula nests deeper than {MAX_NESTING} levels"),
            });
        }
        self.depth += 1;
        let f = f(self);
        self.depth -= 1;
        f
    }

    /// Refuses `f`, built by the operator at byte `position`, once its
    /// expanded size passes [`MAX_EXPANDED_SIZE`].
    fn check_size(&mut self, f: &Ltl, position: usize) -> Result<(), ParseLtlError> {
        if self.size(f) > MAX_EXPANDED_SIZE {
            return Err(ParseLtlError {
                position,
                message: format!(
                    "formula expands to more than {MAX_EXPANDED_SIZE} nodes \
                     ('<->' and 'W' copy their operands)"
                ),
            });
        }
        self.measured.push(f.clone());
        Ok(())
    }

    /// [`Ltl::size`], memoized over the shared nodes and saturating.
    fn size(&mut self, f: &Ltl) -> usize {
        let key: *const LtlNode = f.node();
        if let Some(&n) = self.sizes.get(&key) {
            return n;
        }
        let n = match f.node() {
            LtlNode::True | LtlNode::False | LtlNode::Atom(_) => 1,
            LtlNode::Not(g) | LtlNode::Next(g) | LtlNode::Globally(g) | LtlNode::Finally(g) => {
                self.size(g).saturating_add(1)
            }
            LtlNode::And(gs) | LtlNode::Or(gs) => gs
                .iter()
                .fold(1, |acc: usize, g| acc.saturating_add(self.size(g))),
            LtlNode::Until(a, b) | LtlNode::Release(a, b) => {
                self.size(a).saturating_add(self.size(b)).saturating_add(1)
            }
        };
        self.sizes.insert(key, n);
        n
    }

    fn iff(&mut self) -> Result<Ltl, ParseLtlError> {
        let mut lhs = self.imp()?;
        loop {
            let position = self.here();
            if !self.eat(&Tok::Iff) {
                return Ok(lhs);
            }
            let rhs = self.imp()?;
            lhs = Ltl::iff(lhs, rhs);
            // Each operand doubles the chain, and the chain is a loop
            // rather than a nesting: stop it before it outgrows the stack
            // of every recursive pass, this meter's included.
            self.check_size(&lhs, position)?;
        }
    }

    fn imp(&mut self) -> Result<Ltl, ParseLtlError> {
        let lhs = self.or()?;
        if self.eat(&Tok::Imp) {
            let rhs = self.nested(Self::imp)?;
            Ok(Ltl::implies(lhs, rhs))
        } else {
            Ok(lhs)
        }
    }

    fn or(&mut self) -> Result<Ltl, ParseLtlError> {
        let mut parts = vec![self.and()?];
        while self.eat(&Tok::Or) {
            parts.push(self.and()?);
        }
        Ok(Ltl::or(parts))
    }

    fn and(&mut self) -> Result<Ltl, ParseLtlError> {
        let mut parts = vec![self.bin()?];
        while self.eat(&Tok::And) {
            parts.push(self.bin()?);
        }
        Ok(Ltl::and(parts))
    }

    fn bin(&mut self) -> Result<Ltl, ParseLtlError> {
        let lhs = self.unary()?;
        if self.eat(&Tok::Until) {
            let rhs = self.nested(Self::bin)?;
            Ok(Ltl::until(lhs, rhs))
        } else if self.eat(&Tok::Release) {
            let rhs = self.nested(Self::bin)?;
            Ok(Ltl::release(lhs, rhs))
        } else if self.eat(&Tok::WeakUntil) {
            let rhs = self.nested(Self::bin)?;
            Ok(Ltl::weak_until(lhs, rhs))
        } else {
            Ok(lhs)
        }
    }

    fn unary(&mut self) -> Result<Ltl, ParseLtlError> {
        if self.eat(&Tok::Not) {
            return Ok(Ltl::not(self.nested(Self::unary)?));
        }
        if self.eat(&Tok::Next) {
            return Ok(Ltl::next(self.nested(Self::unary)?));
        }
        if self.eat(&Tok::Globally) {
            return Ok(Ltl::globally(self.nested(Self::unary)?));
        }
        if self.eat(&Tok::Finally) {
            return Ok(Ltl::finally(self.nested(Self::unary)?));
        }
        self.atom()
    }

    fn atom(&mut self) -> Result<Ltl, ParseLtlError> {
        let position = self.here();
        let tok = self.toks.get(self.pos).map(|(_, t)| t.clone());
        self.pos += 1;
        match tok {
            Some(Tok::Ident(name)) => Ok(Ltl::atom(self.table.intern(&name))),
            Some(Tok::True) => Ok(Ltl::tt()),
            Some(Tok::False) => Ok(Ltl::ff()),
            Some(Tok::LParen) => {
                let f = self.nested(Self::iff)?;
                if self.eat(&Tok::RParen) {
                    Ok(f)
                } else {
                    Err(ParseLtlError {
                        position: self.here(),
                        message: "expected ')'".into(),
                    })
                }
            }
            other => Err(ParseLtlError {
                position,
                message: format!("expected an atom, found {other:?}"),
            }),
        }
    }
}

impl Ltl {
    /// Parses an LTL formula, interning signal names in `table`.
    ///
    /// # Errors
    ///
    /// Returns [`ParseLtlError`] with the byte offset of the failure on
    /// malformed input, on input nesting deeper than [`MAX_NESTING`], or
    /// on a formula expanding past [`MAX_EXPANDED_SIZE`] nodes.
    ///
    /// # Example
    ///
    /// ```
    /// use dic_logic::SignalTable;
    /// use dic_ltl::Ltl;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut t = SignalTable::new();
    /// let r1 = Ltl::parse("G(r1 -> X n1)", &mut t)?; // paper's R1
    /// assert_eq!(r1.atoms().len(), 2);
    /// # Ok(())
    /// # }
    /// ```
    pub fn parse(src: &str, table: &mut SignalTable) -> Result<Ltl, ParseLtlError> {
        let toks = lex(src)?;
        let mut p = Parser {
            toks,
            pos: 0,
            table,
            src_len: src.len(),
            depth: 0,
            sizes: HashMap::new(),
            measured: Vec::new(),
        };
        let f = p.iff()?;
        if p.pos != p.toks.len() {
            return Err(ParseLtlError {
                position: p.here(),
                message: "trailing input".into(),
            });
        }
        p.check_size(&f, 0)?;
        Ok(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> (Ltl, SignalTable) {
        let mut t = SignalTable::new();
        let f = Ltl::parse(src, &mut t).expect("parse");
        (f, t)
    }

    #[test]
    fn paper_architectural_intent_round_trips() {
        let (f, t) = parse("G(!wait & r1 & X(r1 U r2) -> X(!d2 U d1))");
        let shown = f.display(&t).to_string();
        assert_eq!(shown, "G(!wait & r1 & X(r1 U r2) -> X(!d2 U d1))");
        let mut t2 = t.clone();
        assert_eq!(Ltl::parse(&shown, &mut t2).expect("reparse"), f);
    }

    #[test]
    fn until_binds_tighter_than_and() {
        let (f, t) = parse("a & b U c");
        assert_eq!(f.display(&t).to_string(), "a & b U c");
        // Must equal a & (b U c)
        let (g, _) = parse("a & (b U c)");
        // Name-identity holds because both tables intern a,b,c in order.
        assert_eq!(format!("{f:?}"), format!("{g:?}"));
    }

    #[test]
    fn until_right_associative() {
        let (f, _t) = parse("a U b U c");
        let (g, _t2) = parse("a U (b U c)");
        assert_eq!(format!("{f:?}"), format!("{g:?}"));
    }

    #[test]
    fn spin_style_operators() {
        let (f, _t) = parse("[] (p -> <> q)");
        let (g, _t2) = parse("G(p -> F q)");
        assert_eq!(format!("{f:?}"), format!("{g:?}"));
    }

    #[test]
    fn weak_until_desugars() {
        let (f, _t) = parse("p W q");
        let (g, _t2) = parse("(p U q) | G p");
        assert_eq!(format!("{f:?}"), format!("{g:?}"));
    }

    #[test]
    fn iff_desugars() {
        let (f, _t) = parse("p <-> q");
        let (g, _t2) = parse("(p -> q) & (q -> p)");
        assert_eq!(format!("{f:?}"), format!("{g:?}"));
    }

    #[test]
    fn implication_right_assoc() {
        let (f, _t) = parse("a -> b -> c");
        let (g, _t2) = parse("a -> (b -> c)");
        assert_eq!(format!("{f:?}"), format!("{g:?}"));
    }

    #[test]
    fn errors_report_position() {
        let mut t = SignalTable::new();
        let e = Ltl::parse("G(p ->", &mut t).unwrap_err();
        assert_eq!(e.position, 6); // end of input
        assert!(Ltl::parse("p q", &mut t).is_err());
        assert!(Ltl::parse("(p", &mut t).is_err());
        assert!(Ltl::parse("p $ q", &mut t).is_err());
    }

    #[test]
    fn nesting_is_capped() {
        let mut t = SignalTable::new();
        let deep = |open: &str, close: &str, n| format!("{}p{}", open.repeat(n), close.repeat(n));
        let shapes = [("(", ")"), ("X ", ""), ("!", ""), ("p U ", ""), ("p -> ", "")];
        for (open, close) in shapes {
            let at_limit = deep(open, close, MAX_NESTING);
            assert!(Ltl::parse(&at_limit, &mut t).is_ok(), "{open}");
            let e = Ltl::parse(&deep(open, close, MAX_NESTING + 1), &mut t).unwrap_err();
            assert!(e.message.contains("nests deeper"), "{open}: {e}");
        }
        // Flat operator chains do not nest.
        let wide = vec!["p"; 4 * MAX_NESTING].join(" & ");
        assert!(Ltl::parse(&wide, &mut t).is_ok());
    }

    #[test]
    fn expanded_size_is_capped() {
        let mut t = SignalTable::new();
        // Or(p × n) under G has n + 2 nodes: the largest accepted
        // formula, then one node past it.
        let wide = |n| format!("G({})", vec!["p"; n].join(" | "));
        let at_limit = Ltl::parse(&wide(MAX_EXPANDED_SIZE - 2), &mut t).expect("at the limit");
        assert_eq!(at_limit.size(), MAX_EXPANDED_SIZE);
        let e = Ltl::parse(&wide(MAX_EXPANDED_SIZE - 1), &mut t).unwrap_err();
        assert!(e.message.contains("expands to more than"), "{e}");
        // An n-operand `<->` chain expands to 8·2^(n-1) − 7 nodes: 12
        // operands fit, 13 do not, and a long chain stops at the first
        // operand past the limit instead of building the whole chain.
        let chain = |n| vec!["p"; n].join(" <-> ");
        assert_eq!(Ltl::parse(&chain(12), &mut t).expect("fits").size(), 16_377);
        for n in [13, 100_000] {
            let e = Ltl::parse(&chain(n), &mut t).unwrap_err();
            assert!(e.message.contains("expands to more than"), "{n}: {e}");
            assert_eq!(
                e.position,
                chain(12).len() + 1,
                "{n}: refused at the 12th '<->'"
            );
        }
        // `W` copies its left operand; nesting it doubles the tree too.
        let weak = format!("{}p{}", "(".repeat(20), " W q)".repeat(20));
        let e = Ltl::parse(&weak, &mut t).unwrap_err();
        assert!(e.message.contains("expands to more than"), "{e}");
    }

    #[test]
    fn identifiers_with_brackets() {
        let mut t = SignalTable::new();
        let f = Ltl::parse("data[3] & [] p", &mut t).expect("parse");
        assert!(t.lookup("data[3]").is_some());
        assert_eq!(f.atoms().len(), 2);
    }
}
