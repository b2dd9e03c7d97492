//! Syntactic positions inside an LTL formula.
//!
//! The paper's Algorithm 1 presents the coverage gap by *pushing* uncovered
//! terms into the parse tree of an architectural property and then weakening
//! specific variable instances (Example 4 weakens the `r2` instance inside
//! `X(r1 U r2)` with the literal `X !hit`). That requires addressing
//! occurrences of subformulas — not subformulas up to equality — together
//! with their *polarity*, because weakening a property means weakening
//! positive occurrences and strengthening negative ones.

use crate::formula::{Ltl, LtlNode};
use std::fmt;

/// Polarity of a subformula occurrence.
///
/// An occurrence under an even number of negations is [`Polarity::Positive`]:
/// replacing it by a weaker formula weakens the whole property. Under an odd
/// number of negations (e.g. inside the antecedent of an implication, which
/// is kept as `!ant | cons`) the occurrence is [`Polarity::Negative`]:
/// *strengthening* it weakens the whole property.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Polarity {
    /// Even number of enclosing negations.
    Positive,
    /// Odd number of enclosing negations.
    Negative,
}

impl Polarity {
    /// The opposite polarity.
    pub fn flip(self) -> Self {
        match self {
            Polarity::Positive => Polarity::Negative,
            Polarity::Negative => Polarity::Positive,
        }
    }
}

/// A path from the root of a formula to a subformula occurrence.
///
/// Each step is a child index: unary operators have child `0`, binary
/// temporal operators have children `0` (left) and `1` (right), and n-ary
/// `And`/`Or` use the operand index.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct Position(Vec<usize>);

impl Position {
    /// The root position.
    pub fn root() -> Self {
        Position(Vec::new())
    }

    /// Builds a position from explicit child indices.
    pub fn from_path(path: Vec<usize>) -> Self {
        Position(path)
    }

    /// The child indices from the root.
    pub fn path(&self) -> &[usize] {
        &self.0
    }

    /// This position extended by one child step.
    pub fn child(&self, index: usize) -> Self {
        let mut p = self.0.clone();
        p.push(index);
        Position(p)
    }

    /// Depth of the position (number of steps from the root).
    pub fn depth(&self) -> usize {
        self.0.len()
    }
}

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ε")?;
        for step in &self.0 {
            write!(f, ".{step}")?;
        }
        Ok(())
    }
}

/// One enumerated subformula occurrence; see [`Ltl::positions`].
#[derive(Clone, Debug)]
pub struct Occurrence {
    /// Where the subformula occurs.
    pub position: Position,
    /// The subformula at that position.
    pub subformula: Ltl,
    /// Polarity of the occurrence.
    pub polarity: Polarity,
    /// Number of `X` operators (and `U`/`R`/`G`/`F` bodies count as 0 — see
    /// note) crossed on the way here. This is the *minimum* time offset at
    /// which the occurrence is evaluated, used to align uncovered-term
    /// literals with variable instances.
    pub x_depth: usize,
    /// Number of *unbounded* temporal operators (`U`, `R`, `G`, `F`) the
    /// occurrence is nested under. Algorithm 1's weakening step targets the
    /// variable instances that sit inside unbounded operators (Fig. 6: "the
    /// gaps lie inside the unbounded operator until"), so candidates are
    /// explored deepest-unbounded first.
    pub unbounded_depth: usize,
}

impl Ltl {
    /// The subformula at `position`, or `None` if the path does not exist.
    pub fn subformula_at(&self, position: &Position) -> Option<&Ltl> {
        let mut cur = self;
        for &step in position.path() {
            cur = match (cur.node(), step) {
                (LtlNode::Not(f), 0)
                | (LtlNode::Next(f), 0)
                | (LtlNode::Globally(f), 0)
                | (LtlNode::Finally(f), 0) => f,
                (LtlNode::And(fs), i) | (LtlNode::Or(fs), i) if i < fs.len() => &fs[i],
                (LtlNode::Until(a, _), 0) | (LtlNode::Release(a, _), 0) => a,
                (LtlNode::Until(_, b), 1) | (LtlNode::Release(_, b), 1) => b,
                _ => return None,
            };
        }
        Some(cur)
    }

    /// Rebuilds the formula with the subformula at `position` replaced by
    /// `new`. Returns `None` if the path does not exist.
    ///
    /// Smart constructors are re-applied along the path, so the result may
    /// be locally simplified (e.g. a replacement by `true` collapses its
    /// conjunction).
    pub fn replace_at(&self, position: &Position, new: Ltl) -> Option<Ltl> {
        self.replace_rec(position.path(), new)
    }

    fn replace_rec(&self, path: &[usize], new: Ltl) -> Option<Ltl> {
        let Some((&step, rest)) = path.split_first() else {
            return Some(new);
        };
        Some(match (self.node(), step) {
            (LtlNode::Not(f), 0) => Ltl::not(f.replace_rec(rest, new)?),
            (LtlNode::Next(f), 0) => Ltl::next(f.replace_rec(rest, new)?),
            (LtlNode::Globally(f), 0) => Ltl::globally(f.replace_rec(rest, new)?),
            (LtlNode::Finally(f), 0) => Ltl::finally(f.replace_rec(rest, new)?),
            (LtlNode::And(fs), i) if i < fs.len() => {
                let mut parts = fs.clone();
                parts[i] = fs[i].replace_rec(rest, new)?;
                Ltl::and(parts)
            }
            (LtlNode::Or(fs), i) if i < fs.len() => {
                let mut parts = fs.clone();
                parts[i] = fs[i].replace_rec(rest, new)?;
                Ltl::or(parts)
            }
            (LtlNode::Until(a, b), 0) => Ltl::until(a.replace_rec(rest, new)?, b.clone()),
            (LtlNode::Until(a, b), 1) => Ltl::until(a.clone(), b.replace_rec(rest, new)?),
            (LtlNode::Release(a, b), 0) => Ltl::release(a.replace_rec(rest, new)?, b.clone()),
            (LtlNode::Release(a, b), 1) => Ltl::release(a.clone(), b.replace_rec(rest, new)?),
            _ => return None,
        })
    }

    /// Enumerates every subformula occurrence with its position, polarity
    /// and `X`-depth, in pre-order.
    pub fn positions(&self) -> Vec<Occurrence> {
        let mut out = Vec::new();
        self.walk(Position::root(), Polarity::Positive, 0, 0, &mut out);
        out
    }

    fn walk(&self, pos: Position, pol: Polarity, xd: usize, ud: usize, out: &mut Vec<Occurrence>) {
        out.push(Occurrence {
            position: pos.clone(),
            subformula: self.clone(),
            polarity: pol,
            x_depth: xd,
            unbounded_depth: ud,
        });
        match self.node() {
            LtlNode::True | LtlNode::False | LtlNode::Atom(_) => {}
            LtlNode::Not(f) => f.walk(pos.child(0), pol.flip(), xd, ud, out),
            LtlNode::Next(f) => f.walk(pos.child(0), pol, xd + 1, ud, out),
            LtlNode::Globally(f) | LtlNode::Finally(f) => {
                f.walk(pos.child(0), pol, xd, ud + 1, out)
            }
            LtlNode::And(fs) | LtlNode::Or(fs) => {
                for (i, f) in fs.iter().enumerate() {
                    f.walk(pos.child(i), pol, xd, ud, out);
                }
            }
            LtlNode::Until(a, b) | LtlNode::Release(a, b) => {
                a.walk(pos.child(0), pol, xd, ud + 1, out);
                b.walk(pos.child(1), pol, xd, ud + 1, out);
            }
        }
    }

    /// Occurrences of atomic propositions only (the "variable instances" the
    /// paper's weakening step operates on).
    pub fn atom_occurrences(&self) -> Vec<Occurrence> {
        self.positions()
            .into_iter()
            .filter(|o| matches!(o.subformula.node(), LtlNode::Atom(_)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dic_logic::SignalTable;

    fn paper_a() -> (Ltl, SignalTable) {
        let mut t = SignalTable::new();
        let f = Ltl::parse("G(!wait & r1 & X(r1 U r2) -> X(!d2 U d1))", &mut t).expect("parse");
        (f, t)
    }

    #[test]
    fn subformula_at_walks_paths() {
        let (f, t) = paper_a();
        // G -> child 0 is the implication (an Or).
        let imp = f.subformula_at(&Position::from_path(vec![0])).expect("imp");
        assert!(matches!(imp.node(), LtlNode::Or(_)));
        // Bad paths return None.
        assert!(f.subformula_at(&Position::from_path(vec![5])).is_none());
        let _ = t;
    }

    #[test]
    fn replace_at_swaps_subformula() {
        let (f, mut t) = paper_a();
        let hit = t.intern("hit");
        // Find the r2 occurrence (an atom named r2) and strengthen it to
        // (r2 & X !hit), reproducing the paper's gap property U.
        let occ = f
            .atom_occurrences()
            .into_iter()
            .find(|o| matches!(o.subformula.node(), LtlNode::Atom(id) if t.name(*id) == "r2"))
            .expect("r2 occurs");
        let r2 = occ.subformula.clone();
        let strengthened = Ltl::and([r2, Ltl::next(Ltl::not(Ltl::atom(hit)))]);
        let new = f.replace_at(&occ.position, strengthened).expect("replace");
        assert_eq!(
            new.display(&t).to_string(),
            "G(!wait & r1 & X(r1 U (r2 & X !hit)) -> X(!d2 U d1))"
        );
    }

    #[test]
    fn polarities_respect_negation() {
        let (f, t) = paper_a();
        for occ in f.atom_occurrences() {
            let LtlNode::Atom(id) = occ.subformula.node() else {
                unreachable!()
            };
            match t.name(*id) {
                // Antecedent atoms sit under the implicit negation of `->`.
                "wait" => assert_eq!(occ.polarity, Polarity::Positive), // !wait: two negations
                "r1" | "r2" => assert_eq!(occ.polarity, Polarity::Negative),
                "d2" => assert_eq!(occ.polarity, Polarity::Negative), // !d2 in consequent
                "d1" => assert_eq!(occ.polarity, Polarity::Positive),
                other => panic!("unexpected atom {other}"),
            }
        }
    }

    #[test]
    fn x_depth_counts_next_operators() {
        let mut t = SignalTable::new();
        let f = Ltl::parse("X X p & X q", &mut t).expect("parse");
        let mut depths: Vec<(String, usize)> = f
            .atom_occurrences()
            .into_iter()
            .map(|o| {
                let LtlNode::Atom(id) = o.subformula.node() else {
                    unreachable!()
                };
                (t.name(*id).to_owned(), o.x_depth)
            })
            .collect();
        depths.sort();
        assert_eq!(depths, vec![("p".to_owned(), 2), ("q".to_owned(), 1)]);
    }

    #[test]
    fn replace_at_root() {
        let (f, _t) = paper_a();
        let new = f.replace_at(&Position::root(), Ltl::tt()).expect("root");
        assert_eq!(new, Ltl::tt());
    }
}
