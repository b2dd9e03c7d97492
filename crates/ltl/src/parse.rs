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

use crate::formula::Ltl;
use dic_logic::SignalTable;
use std::error::Error;
use std::fmt;

/// The deepest nesting [`Ltl::parse`] accepts, chosen so that formulas
/// this deep still run a full coverage check.
pub const MAX_NESTING: usize = 256;

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

    fn iff(&mut self) -> Result<Ltl, ParseLtlError> {
        let mut lhs = self.imp()?;
        while self.eat(&Tok::Iff) {
            let rhs = self.imp()?;
            lhs = Ltl::iff(lhs, rhs);
        }
        Ok(lhs)
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
    /// malformed input, or on input nesting deeper than [`MAX_NESTING`].
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
        };
        let f = p.iff()?;
        if p.pos != p.toks.len() {
            return Err(ParseLtlError {
                position: p.here(),
                message: "trailing input".into(),
            });
        }
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
    fn identifiers_with_brackets() {
        let mut t = SignalTable::new();
        let f = Ltl::parse("data[3] & [] p", &mut t).expect("parse");
        assert!(t.lookup("data[3]").is_some());
        assert_eq!(f.atoms().len(), 2);
    }
}
