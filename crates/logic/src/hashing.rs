//! A fast non-cryptographic hasher for the workspace's hot tables.
//!
//! The tables it keys hold small `Copy` ids the program itself chose:
//! BDD node triples in [`BddManager`](crate::BddManager)'s unique table and
//! operation memos, the explicit
//! emptiness search's node indices, the translation cache's formula
//! hashes. `std`'s default SipHash is DoS-resistant but several times
//! slower than these loops need; this multiplicative mixer (the classic
//! Fibonacci-hashing construction) is enough where no key comes from an
//! adversary.
//!
//! Collisions cost time, never correctness, and the hash is a fixed
//! function of the key (no per-process seed). No output depends on a
//! table's iteration order either: every consumer that walks a table
//! sorts what it reads first (the BDD rebuild sorts each level by its
//! child edges).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` using [`NodeHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<NodeHasher>>;

/// A `HashSet` using [`NodeHasher`].
pub type FastSet<K> = HashSet<K, BuildHasherDefault<NodeHasher>>;

/// Multiplicative mixing hasher for small fixed-size keys.
///
/// Writes fold the input into a single `u64` with multiply-rotate steps;
/// `finish` applies a final avalanche. Collisions degrade performance, not
/// correctness.
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeHasher {
    state: u64,
}

/// 2^64 / φ, the usual Fibonacci-hashing multiplier (odd, high entropy).
const PHI: u64 = 0x9e37_79b9_7f4a_7c15;

impl NodeHasher {
    #[inline]
    fn mix(&mut self, value: u64) {
        self.state = (self.state ^ value).wrapping_mul(PHI).rotate_left(23);
    }
}

impl Hasher for NodeHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // Final avalanche (xor-shift folding) so that high bits depend on
        // every input bit; HashMap uses the top bits for its control bytes.
        let mut z = self.state;
        z ^= z >> 33;
        z = z.wrapping_mul(0xff51_afd7_ed55_8ccd);
        z ^= z >> 33;
        z
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback: fold 8 bytes at a time.
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_small_keys_hash_distinctly() {
        // Not a cryptographic requirement — just sanity that consecutive
        // node ids spread out.
        let mut seen = FastSet::default();
        for k in 0u32..10_000 {
            for q in 0u32..4 {
                assert!(seen.insert((k, q)));
            }
        }
        assert_eq!(seen.len(), 40_000);
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FastMap<(u32, u32), u32> = FastMap::default();
        for i in 0..1000u32 {
            m.insert((i, i ^ 7), i);
        }
        for i in 0..1000u32 {
            assert_eq!(m.get(&(i, i ^ 7)), Some(&i));
        }
    }

    #[test]
    fn hasher_is_deterministic() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let b: BuildHasherDefault<NodeHasher> = BuildHasherDefault::default();
        let h1 = b.hash_one((42u32, 7u32));
        let h2 = b.hash_one((42u32, 7u32));
        assert_eq!(h1, h2);
        assert_ne!(b.hash_one((42u32, 8u32)), h1);
    }
}
