//! Dense Boolean assignments to signals.

use crate::signal::{SignalId, SignalTable};
use std::fmt;

/// A dense assignment of Boolean values to the first `len` signals of a
/// [`SignalTable`].
///
/// This is the paper's notion of a *state*: "a valuation of the signals at a
/// given time" (Section 2). Valuations are used as simulator states, FSM
/// state labels and Kripke-structure states, so they are compact (bit-packed)
/// and hashable.
///
/// # Example
///
/// ```
/// use dic_logic::{SignalTable, Valuation};
///
/// let mut t = SignalTable::new();
/// let a = t.intern("a");
/// let b = t.intern("b");
/// let mut v = Valuation::all_false(t.len());
/// v.set(b, true);
/// assert!(!v.get(a));
/// assert!(v.get(b));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Valuation {
    len: usize,
    bits: Vec<u64>,
}

impl Valuation {
    /// A valuation over `len` signals, all false.
    pub fn all_false(len: usize) -> Self {
        Valuation {
            len,
            bits: vec![0; len.div_ceil(64)],
        }
    }

    /// Number of signals covered by this valuation.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the valuation covers zero signals.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Value of signal `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id.index() >= self.len()`.
    pub fn get(&self, id: SignalId) -> bool {
        let i = id.index();
        assert!(i < self.len, "signal {i} out of range (len {})", self.len);
        self.bits[i / 64] >> (i % 64) & 1 == 1
    }

    /// Sets signal `id` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `id.index() >= self.len()`.
    pub fn set(&mut self, id: SignalId, value: bool) {
        let i = id.index();
        assert!(i < self.len, "signal {i} out of range (len {})", self.len);
        let mask = 1u64 << (i % 64);
        if value {
            self.bits[i / 64] |= mask;
        } else {
            self.bits[i / 64] &= !mask;
        }
    }

    /// Extracts the values of `ids` as a packed `u64` key (low bit = first
    /// id). Useful for indexing FSM states by latch subsets.
    ///
    /// # Panics
    ///
    /// Panics if more than 64 ids are given.
    pub fn project_key(&self, ids: &[SignalId]) -> u64 {
        assert!(ids.len() <= 64, "projection wider than 64 bits");
        let mut key = 0u64;
        for (bit, &id) in ids.iter().enumerate() {
            if self.get(id) {
                key |= 1 << bit;
            }
        }
        key
    }

    /// Writes the values of `ids` from a packed `u64` key produced by
    /// [`Valuation::project_key`].
    pub fn assign_key(&mut self, ids: &[SignalId], key: u64) {
        for (bit, &id) in ids.iter().enumerate() {
            self.set(id, key >> bit & 1 == 1);
        }
    }

    /// Renders the valuation as `name=0/1` pairs using `table` for names.
    pub fn display<'a>(&'a self, table: &'a SignalTable) -> DisplayValuation<'a> {
        DisplayValuation { v: self, table }
    }
}

impl fmt::Debug for Valuation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Valuation[")?;
        for i in 0..self.len {
            let bit = self.bits[i / 64] >> (i % 64) & 1;
            write!(f, "{bit}")?;
        }
        write!(f, "]")
    }
}

/// Displays a [`Valuation`] with signal names; created by
/// [`Valuation::display`].
pub struct DisplayValuation<'a> {
    v: &'a Valuation,
    table: &'a SignalTable,
}

impl fmt::Display for DisplayValuation<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (id, name) in self.table.iter() {
            if id.index() >= self.v.len() {
                break;
            }
            if !first {
                write!(f, " ")?;
            }
            first = false;
            write!(f, "{name}={}", u8::from(self.v.get(id)))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table3() -> (SignalTable, SignalId, SignalId, SignalId) {
        let mut t = SignalTable::new();
        let a = t.intern("a");
        let b = t.intern("b");
        let c = t.intern("c");
        (t, a, b, c)
    }

    #[test]
    fn get_set_round_trip() {
        let (t, a, b, c) = table3();
        let mut v = Valuation::all_false(t.len());
        v.set(b, true);
        assert!(!v.get(a) && v.get(b) && !v.get(c));
        v.set(b, false);
        assert!(!v.get(b));
    }

    #[test]
    fn works_past_64_signals() {
        let mut t = SignalTable::new();
        let ids: Vec<_> = (0..130).map(|i| t.intern(&format!("s{i}"))).collect();
        let mut v = Valuation::all_false(t.len());
        v.set(ids[129], true);
        v.set(ids[63], true);
        v.set(ids[64], true);
        assert!(v.get(ids[63]) && v.get(ids[64]) && v.get(ids[129]));
        assert!(!v.get(ids[62]) && !v.get(ids[65]));
    }

    #[test]
    fn project_and_assign_key() {
        let (t, a, _b, c) = table3();
        let mut v = Valuation::all_false(t.len());
        v.assign_key(&[a, c], 0b10);
        assert!(!v.get(a) && v.get(c));
        assert_eq!(v.project_key(&[a, c]), 0b10);
        assert_eq!(v.project_key(&[c, a]), 0b01);
    }

    #[test]
    fn equal_valuations_hash_equal() {
        use std::collections::HashSet;
        let (t, a, ..) = table3();
        let mut v1 = Valuation::all_false(t.len());
        let mut v2 = Valuation::all_false(t.len());
        v1.set(a, true);
        v2.set(a, true);
        let mut set = HashSet::new();
        set.insert(v1);
        assert!(set.contains(&v2));
    }

    #[test]
    fn display_uses_names() {
        let (t, _a, b, _c) = table3();
        let mut v = Valuation::all_false(t.len());
        v.set(b, true);
        assert_eq!(v.display(&t).to_string(), "a=0 b=1 c=0");
    }
}
