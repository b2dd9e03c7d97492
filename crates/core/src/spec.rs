//! Specification containers: architectural intent and RTL specs.

use crate::error::CoreError;
use dic_ltl::{Ltl, LtlNode};
use dic_netlist::Module;
use std::collections::BTreeSet;

/// A named LTL property.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Property {
    name: String,
    formula: Ltl,
}

impl Property {
    /// Creates a named property.
    pub fn new(name: &str, formula: Ltl) -> Self {
        Property {
            name: name.to_owned(),
            formula,
        }
    }

    /// The property name (used in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The formula.
    pub fn formula(&self) -> &Ltl {
        &self.formula
    }
}

/// The architectural intent `A`: the properties the designer wants on the
/// parent module but cannot model-check directly (paper Section 2).
#[derive(Clone, Debug, Default)]
pub struct ArchSpec {
    properties: Vec<Property>,
}

impl ArchSpec {
    /// Builds the intent from `(name, formula)` pairs.
    pub fn new<'a, I>(props: I) -> Self
    where
        I: IntoIterator<Item = (&'a str, Ltl)>,
    {
        ArchSpec {
            properties: props
                .into_iter()
                .map(|(n, f)| Property::new(n, f))
                .collect(),
        }
    }

    /// The properties.
    pub fn properties(&self) -> &[Property] {
        &self.properties
    }

    /// `AP_A`: the signals the intent is written over.
    pub fn alphabet(&self) -> BTreeSet<dic_logic::SignalId> {
        let mut out = BTreeSet::new();
        for p in &self.properties {
            out.extend(p.formula().atoms());
        }
        out
    }

    /// Number of properties.
    pub fn len(&self) -> usize {
        self.properties.len()
    }

    /// Whether the intent is empty.
    pub fn is_empty(&self) -> bool {
        self.properties.is_empty()
    }
}

/// The RTL specification: properties `R` over some submodules plus the RTL
/// of the *concrete modules* (glue logic, pre-verified cells).
#[derive(Clone, Debug, Default)]
pub struct RtlSpec {
    properties: Vec<Property>,
    concrete: Vec<Module>,
    /// Cached conjunct list (property formulas in order).
    formulas: Vec<Ltl>,
}

impl RtlSpec {
    /// Builds the RTL spec from `(name, formula)` pairs and concrete
    /// modules.
    pub fn new<'a, I, M>(props: I, concrete: M) -> Self
    where
        I: IntoIterator<Item = (&'a str, Ltl)>,
        M: IntoIterator<Item = Module>,
    {
        let properties: Vec<Property> = props
            .into_iter()
            .map(|(n, f)| Property::new(n, f))
            .collect();
        let formulas = properties.iter().map(|p| p.formula().clone()).collect();
        RtlSpec {
            properties,
            concrete: concrete.into_iter().collect(),
            formulas,
        }
    }

    /// The RTL properties.
    pub fn properties(&self) -> &[Property] {
        &self.properties
    }

    /// The property formulas, in declaration order (the conjunction `R`).
    pub fn formulas(&self) -> &[Ltl] {
        &self.formulas
    }

    /// The concrete modules.
    pub fn concrete(&self) -> &[Module] {
        &self.concrete
    }

    /// `AP_R`: signals of the RTL properties plus every signal of the
    /// concrete modules.
    pub fn alphabet(&self) -> BTreeSet<dic_logic::SignalId> {
        let mut out = BTreeSet::new();
        for p in &self.properties {
            out.extend(p.formula().atoms());
        }
        for m in &self.concrete {
            out.extend(m.signals());
        }
        out
    }

    /// Number of RTL properties (the paper's Table 1 column).
    pub fn num_properties(&self) -> usize {
        self.properties.len()
    }
}

/// The most generalized acceptance sets one automaton, or one explicit
/// product of automata, may carry: both pack acceptance membership into
/// a `u32`.
pub const MAX_ACCEPTANCE_SETS: u32 = 32;

/// Upper bounds on the acceptance sets of the automata for `f` and for
/// `¬f`, as `(positive, negative)`.
///
/// Each automaton has one acceptance set per distinct `Until` of its
/// formula's core negation normal form. A `U` or `F` occurrence under an
/// even number of negations, and an `R` or `G` occurrence under an odd
/// number, becomes at most one `Until` of `f`'s normal form; every other
/// temporal occurrence becomes at most one `Until` of `¬f`'s. Rewriting
/// and reduction only ever merge or drop those. See DESIGN.md
/// §Automaton reduction for the full argument.
fn acceptance_bounds(f: &Ltl) -> (u32, u32) {
    let add = |(p, n): (u32, u32), (q, m): (u32, u32)| (p.saturating_add(q), n.saturating_add(m));
    match f.node() {
        LtlNode::True | LtlNode::False | LtlNode::Atom(_) => (0, 0),
        LtlNode::Not(g) => {
            let (p, n) = acceptance_bounds(g);
            (n, p)
        }
        LtlNode::Next(g) => acceptance_bounds(g),
        LtlNode::And(fs) | LtlNode::Or(fs) => fs.iter().map(acceptance_bounds).fold((0, 0), add),
        LtlNode::Finally(g) => add(acceptance_bounds(g), (1, 0)),
        LtlNode::Globally(g) => add(acceptance_bounds(g), (0, 1)),
        LtlNode::Until(a, b) => add(add(acceptance_bounds(a), acceptance_bounds(b)), (1, 0)),
        LtlNode::Release(a, b) => add(add(acceptance_bounds(a), acceptance_bounds(b)), (0, 1)),
    }
}

/// Refuses specs whose automata could overflow [`MAX_ACCEPTANCE_SETS`].
///
/// For an intent `A`, Algorithm 1 builds automata for `R`'s properties,
/// `¬A`, weakenings of `A` (which add literals, never temporal
/// operators) and implication checks `f ∧ ¬g` between two weakenings;
/// the largest product conjoins `R`, `¬A` and one weakening. So
/// `Σ_R positive(ρ) + positive(A) + negative(A)` bounds every automaton
/// and every explicit product the run can build.
///
/// # Errors
///
/// [`CoreError::TooManyAcceptanceSets`] naming the intent and the
/// property contributing the most sets.
pub(crate) fn check_acceptance_sets(arch: &ArchSpec, rtl: &RtlSpec) -> Result<(), CoreError> {
    let rtl_sets: Vec<(&str, u32)> = rtl
        .properties()
        .iter()
        .map(|p| (p.name(), acceptance_bounds(p.formula()).0))
        .collect();
    let rtl_total = rtl_sets.iter().fold(0u32, |t, &(_, k)| t.saturating_add(k));
    for intent in arch.properties() {
        let (p, n) = acceptance_bounds(intent.formula());
        let own = p.saturating_add(n);
        let sets = rtl_total.saturating_add(own);
        if sets > MAX_ACCEPTANCE_SETS {
            // The largest contributor, the intent winning ties.
            let (mut property, mut property_sets) = (intent.name(), own);
            for &(name, k) in &rtl_sets {
                if k > property_sets {
                    (property, property_sets) = (name, k);
                }
            }
            return Err(CoreError::TooManyAcceptanceSets {
                property: property.to_owned(),
                property_sets,
                intent: intent.name().to_owned(),
                sets,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dic_logic::SignalTable;
    use dic_netlist::ModuleBuilder;

    #[test]
    fn alphabets() {
        let mut t = SignalTable::new();
        let a = Ltl::parse("G(p -> X q)", &mut t).unwrap();
        let arch = ArchSpec::new([("A1", a)]);
        assert_eq!(arch.alphabet().len(), 2);
        assert_eq!(arch.len(), 1);

        let r = Ltl::parse("G(p -> X s)", &mut t).unwrap();
        let mut b = ModuleBuilder::new("m", &mut t);
        let s = b.input("s");
        let q = b.latch_from("q", s, false);
        b.mark_output(q);
        let m = b.finish().unwrap();
        let rtl = RtlSpec::new([("R1", r)], [m]);
        // p, s from the property; s, q from the module.
        assert_eq!(rtl.alphabet().len(), 3);
        assert_eq!(rtl.num_properties(), 1);
        assert_eq!(rtl.formulas().len(), 1);
    }

    #[test]
    fn acceptance_bounds_follow_polarity() {
        let mut t = SignalTable::new();
        for (src, bounds) in [
            ("p U q", (1, 0)),
            ("!(p U q)", (0, 1)),
            ("p R q", (0, 1)),
            ("G F p", (1, 1)),
            ("X X (p U q) & !F r", (1, 1)),
            // The paper's Example 2 intent: one Until in A, two in ¬A.
            ("G(!wait & r1 & X(r1 U r2) -> X(!d2 U d1))", (1, 2)),
        ] {
            let f = Ltl::parse(src, &mut t).unwrap();
            assert_eq!(acceptance_bounds(&f), bounds, "{src}");
        }
    }

    /// The bound is sound: no automaton the engines consume for `f` or
    /// `¬f` — the raw tableau, the tableau of the rewritten formula, the
    /// reduced cached automaton — has more acceptance sets.
    #[test]
    fn acceptance_bounds_cover_every_translation() {
        use dic_ltl::random::{random_formula, XorShift64};
        let mut t = SignalTable::new();
        let atoms = vec![t.intern("p"), t.intern("q"), t.intern("r")];
        for seed in 1..400u64 {
            let f = random_formula(&mut XorShift64::new(seed), &atoms, 4 + (seed % 12) as usize);
            let (pos, neg) = acceptance_bounds(&f);
            for (g, bound) in [(f.clone(), pos), (Ltl::not(f.clone()), neg)] {
                let sets = [
                    dic_automata::translate(&g).num_acceptance_sets(),
                    dic_automata::translate(&g.simplify()).num_acceptance_sets(),
                    dic_automata::translate_cached(&g).num_acceptance_sets(),
                ];
                assert!(
                    sets.iter().all(|&k| k <= bound),
                    "{g:?}: {sets:?} > {bound}"
                );
            }
        }
    }

    #[test]
    fn oversized_specs_are_refused_by_name() {
        let mut t = SignalTable::new();
        let deep = |n: usize, op: &str| {
            (0..n).fold("d".to_owned(), |acc, i| {
                format!("({} {op} {acc})", ["a", "b"][i % 2])
            })
        };
        let intent = Ltl::parse("G(a -> F d)", &mut t).unwrap();
        let fits = Ltl::parse(&deep(30, "U"), &mut t).unwrap();
        let arch = ArchSpec::new([("A", intent.clone())]);
        // 30 + the intent's 2 (F in A, G→F in ¬A) is exactly the limit.
        let rtl = RtlSpec::new([("R", fits)], []);
        assert_eq!(check_acceptance_sets(&arch, &rtl), Ok(()));
        let over = Ltl::parse(&deep(31, "U"), &mut t).unwrap();
        let rtl = RtlSpec::new([("R", over)], []);
        match check_acceptance_sets(&arch, &rtl) {
            Err(CoreError::TooManyAcceptanceSets {
                property,
                property_sets,
                intent,
                sets,
            }) => {
                assert_eq!((property.as_str(), property_sets), ("R", 31));
                assert_eq!((intent.as_str(), sets), ("A", 33));
            }
            other => panic!("expected a refusal, got {other:?}"),
        }
        // Releases count for the intent: ¬A turns each into an Until.
        let arch = ArchSpec::new([("DEEP", Ltl::parse(&deep(33, "R"), &mut t).unwrap())]);
        let rtl = RtlSpec::new([("R", intent)], []);
        let err = check_acceptance_sets(&arch, &rtl).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("property DEEP alone contributes 33"), "{msg}");
    }
}
