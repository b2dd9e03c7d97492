//! Random LTL formula generation (for fuzz-style tests and benchmarks).
//!
//! The generator is deterministic given the seed, producing formulas in the
//! operator set of the paper (`! & | X U R G F`), with sizes controlled by a
//! node budget. It lives in the library (not `#[cfg(test)]`) because the
//! automata crate and the benchmark harness both fuzz against it.

use crate::formula::Ltl;
use dic_logic::SignalId;

/// A tiny deterministic PRNG (xorshift64*), so the crate does not need a
/// hard dependency on `rand` for its public API.
#[derive(Clone, Debug)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Creates a generator from a non-zero seed (0 is mapped to a constant).
    pub fn new(seed: u64) -> Self {
        XorShift64 {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `0..bound` (bound must be non-zero).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// A random boolean.
    pub fn flip(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// Generates a random LTL formula over `atoms` with roughly `budget` nodes.
///
/// # Panics
///
/// Panics if `atoms` is empty.
///
/// # Example
///
/// ```
/// use dic_logic::SignalTable;
/// use dic_ltl::random::{random_formula, XorShift64};
///
/// let mut t = SignalTable::new();
/// let atoms = vec![t.intern("p"), t.intern("q")];
/// let mut rng = XorShift64::new(42);
/// let f = random_formula(&mut rng, &atoms, 12);
/// assert!(f.size() <= 3 * 12); // budget is approximate
/// ```
pub fn random_formula(rng: &mut XorShift64, atoms: &[SignalId], budget: usize) -> Ltl {
    assert!(!atoms.is_empty(), "need at least one atom");
    if budget <= 1 {
        let a = Ltl::atom(atoms[rng.below(atoms.len())]);
        return if rng.flip() { a } else { Ltl::not(a) };
    }
    match rng.below(8) {
        0 => Ltl::not(random_formula(rng, atoms, budget - 1)),
        1 => {
            let half = budget / 2;
            Ltl::and([
                random_formula(rng, atoms, half),
                random_formula(rng, atoms, budget - half),
            ])
        }
        2 => {
            let half = budget / 2;
            Ltl::or([
                random_formula(rng, atoms, half),
                random_formula(rng, atoms, budget - half),
            ])
        }
        3 => Ltl::next(random_formula(rng, atoms, budget - 1)),
        4 => {
            let half = budget / 2;
            Ltl::until(
                random_formula(rng, atoms, half),
                random_formula(rng, atoms, budget - half),
            )
        }
        5 => {
            let half = budget / 2;
            Ltl::release(
                random_formula(rng, atoms, half),
                random_formula(rng, atoms, budget - half),
            )
        }
        6 => Ltl::globally(random_formula(rng, atoms, budget - 1)),
        _ => Ltl::finally(random_formula(rng, atoms, budget - 1)),
    }
}

/// Generates a random lasso word over `nsignals` signals with the given
/// prefix and loop lengths.
pub fn random_word(
    rng: &mut XorShift64,
    nsignals: usize,
    prefix_len: usize,
    loop_len: usize,
) -> crate::semantics::LassoWord {
    use dic_logic::Valuation;
    assert!(loop_len > 0, "loop must be non-empty");
    let total = prefix_len + loop_len;
    let states = (0..total)
        .map(|_| {
            let mut v = Valuation::all_false(nsignals);
            for i in 0..nsignals {
                if rng.flip() {
                    v.set(dic_logic::SignalId::from_index(i), true);
                }
            }
            v
        })
        .collect();
    crate::semantics::LassoWord::new(states, prefix_len).expect("loop_len > 0")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dic_logic::SignalTable;

    #[test]
    fn deterministic_given_seed() {
        let mut t = SignalTable::new();
        let atoms = vec![t.intern("p"), t.intern("q"), t.intern("r")];
        let f1 = random_formula(&mut XorShift64::new(7), &atoms, 20);
        let f2 = random_formula(&mut XorShift64::new(7), &atoms, 20);
        assert_eq!(f1, f2);
    }

    #[test]
    fn stays_within_atom_set() {
        let mut t = SignalTable::new();
        let atoms = vec![t.intern("p"), t.intern("q")];
        for seed in 1..20 {
            let f = random_formula(&mut XorShift64::new(seed), &atoms, 15);
            for a in f.atoms() {
                assert!(atoms.contains(&a));
            }
        }
    }

    #[test]
    fn random_word_shape() {
        let mut rng = XorShift64::new(3);
        let w = random_word(&mut rng, 4, 2, 3);
        assert_eq!(w.len(), 5);
        assert_eq!(w.loop_start(), 2);
    }

    #[test]
    fn nnf_agrees_on_random_formulas_and_words() {
        let mut t = SignalTable::new();
        let atoms = vec![t.intern("p"), t.intern("q"), t.intern("r")];
        for seed in 1..40 {
            let mut rng = XorShift64::new(seed);
            let f = random_formula(&mut rng, &atoms, 12);
            let w = random_word(&mut rng, atoms.len(), 2, 3);
            assert_eq!(f.holds_on(&w), f.nnf().holds_on(&w), "nnf broke {f:?}");
            assert_eq!(
                f.holds_on(&w),
                f.core_nnf().holds_on(&w),
                "core_nnf broke {f:?}"
            );
        }
    }
}
