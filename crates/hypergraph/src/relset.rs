//! Fixed-width bitsets over interned relation ids.
//!
//! [`RelSet`] replaces `BTreeSet<RelName>` everywhere the enumeration
//! hot path tracks relation membership: visited sets of the best-first
//! path search, the growing greedy Steiner tree, component membership
//! tests and memo keys. Small universes (the overwhelmingly common
//! case — an MKB component with ≤ [`INLINE_BITS`] relations) live in a
//! fixed `[u64; 4]` inline array, so cloning a set is a 32-byte copy
//! and membership is one shift+mask; larger universes fall back to a
//! heap-backed word vector, and an inline set grows into one when an id
//! past the inline budget is inserted. Nothing panics on capacity. The
//! index searches each connected component in its own graph, so a
//! component of at most [`INLINE_BITS`] relations keeps every set
//! inline.
//!
//! Ordering is defined to mirror `BTreeSet<RelName>`: sets compare as
//! their **ascending element sequences** (ids ascend exactly as the
//! interned names do), so replacing a `BTreeSet` tie-break field with a
//! `RelSet` preserves every legacy comparison result bit for bit.

use std::cmp::Ordering;
use std::hash::{Hash, Hasher};

/// Words in the inline representation.
const INLINE_WORDS: usize = 4;

/// Capacity (in relation ids) of the inline representation.
pub const INLINE_BITS: usize = INLINE_WORDS * 64;

#[derive(Debug, Clone)]
enum Repr {
    /// Up to [`INLINE_BITS`] ids, no heap.
    Inline([u64; INLINE_WORDS]),
    /// Arbitrarily many ids; grows on demand.
    Heap(Vec<u64>),
}

/// A set of interned relation ids ([`crate::intern::RelId`]).
#[derive(Debug, Clone)]
pub struct RelSet {
    repr: Repr,
}

impl RelSet {
    /// An empty set sized for ids `0..universe`. Inline when the
    /// universe fits [`INLINE_BITS`], heap-backed otherwise — never
    /// fails, never panics on insert.
    pub fn with_universe(universe: usize) -> Self {
        if universe <= INLINE_BITS {
            RelSet {
                repr: Repr::Inline([0; INLINE_WORDS]),
            }
        } else {
            RelSet {
                repr: Repr::Heap(vec![0; universe.div_ceil(64)]),
            }
        }
    }

    /// Is this set using the inline (allocation-free) representation?
    pub fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Inline(_))
    }

    /// Build from an id iterator, sized for `universe`.
    pub fn from_ids(universe: usize, ids: impl IntoIterator<Item = u32>) -> Self {
        let mut s = Self::with_universe(universe);
        for id in ids {
            s.insert(id);
        }
        s
    }

    fn words(&self) -> &[u64] {
        match &self.repr {
            Repr::Inline(w) => w,
            Repr::Heap(w) => w,
        }
    }

    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.repr {
            Repr::Inline(w) => w,
            Repr::Heap(w) => w,
        }
    }

    /// Words with trailing zeros trimmed — the canonical form used for
    /// equality and hashing so inline and heap sets with equal contents
    /// compare and hash equal.
    fn trimmed(&self) -> &[u64] {
        let w = self.words();
        let n = w.iter().rposition(|&x| x != 0).map_or(0, |i| i + 1);
        &w[..n]
    }

    /// Ensure the backing store covers bit `id`, growing heap variants
    /// (and promoting inline ones) as needed.
    fn reserve_bit(&mut self, id: u32) {
        let need = (id as usize) / 64 + 1;
        if need <= self.words().len() {
            return;
        }
        match &mut self.repr {
            Repr::Heap(w) => w.resize(need, 0),
            Repr::Inline(w) => {
                let mut v = w.to_vec();
                v.resize(need, 0);
                self.repr = Repr::Heap(v);
            }
        }
    }

    /// Insert `id`; returns `true` when it was not already present.
    pub fn insert(&mut self, id: u32) -> bool {
        self.reserve_bit(id);
        let (w, b) = ((id as usize) / 64, id % 64);
        let word = &mut self.words_mut()[w];
        let mask = 1u64 << b;
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    /// Is `id` in the set?
    pub fn contains(&self, id: u32) -> bool {
        let (w, b) = ((id as usize) / 64, id % 64);
        self.words().get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// Number of ids in the set.
    pub fn len(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// Remove all ids, keeping the representation and its capacity.
    pub fn clear(&mut self) {
        for w in self.words_mut() {
            *w = 0;
        }
    }

    /// Ids in ascending order (ascending interned-name order).
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words().iter().enumerate().flat_map(|(i, &w)| {
            let base = (i * 64) as u32;
            BitIter { word: w, base }
        })
    }

    /// Overwrite `self` with the contents of `other`, reusing the
    /// existing storage when it is large enough (no allocation in the
    /// steady state of equal-universe sets).
    pub fn copy_from(&mut self, other: &RelSet) {
        let src = other.trimmed();
        if self.words().len() < src.len() {
            // Source genuinely larger than our capacity: grow.
            self.reserve_bit((src.len() * 64 - 1) as u32);
        }
        let dst = self.words_mut();
        dst[..src.len()].copy_from_slice(src);
        for w in &mut dst[src.len()..] {
            *w = 0;
        }
    }
}

struct BitIter {
    word: u64,
    base: u32,
}

impl Iterator for BitIter {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.word == 0 {
            return None;
        }
        let bit = self.word.trailing_zeros();
        self.word &= self.word - 1;
        Some(self.base + bit)
    }
}

impl PartialEq for RelSet {
    fn eq(&self, other: &Self) -> bool {
        self.trimmed() == other.trimmed()
    }
}

impl Eq for RelSet {}

impl Hash for RelSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.trimmed().hash(state);
    }
}

impl PartialOrd for RelSet {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RelSet {
    /// Lexicographic over the ascending element sequence — the exact
    /// ordering `BTreeSet<RelName>` induces once ids are assigned in
    /// name order.
    fn cmp(&self, other: &Self) -> Ordering {
        self.iter().cmp(other.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_clear_roundtrip() {
        let mut s = RelSet::with_universe(100);
        assert!(s.is_empty() && s.is_inline());
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.insert(77));
        assert!(s.contains(3) && s.contains(77) && !s.contains(4));
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 77]);
        s.clear();
        assert!(s.is_empty() && s.is_inline());
    }

    #[test]
    fn heap_fallback_behaves_like_inline() {
        let mut big = RelSet::with_universe(INLINE_BITS + 64);
        assert!(!big.is_inline());
        assert!(big.insert(300));
        assert!(big.insert(1));
        assert_eq!(big.iter().collect::<Vec<_>>(), vec![1, 300]);

        // Inline sets promote instead of panicking when pushed past the
        // fixed-width budget.
        let mut small = RelSet::with_universe(8);
        assert!(small.is_inline());
        assert!(small.insert(1));
        assert!(small.insert(300));
        assert!(!small.is_inline());
        assert_eq!(small, big);

        // Equal contents across representations: ==, hash, and cmp agree.
        use std::collections::hash_map::DefaultHasher;
        let h = |s: &RelSet| {
            let mut hs = DefaultHasher::new();
            s.hash(&mut hs);
            hs.finish()
        };
        assert_eq!(h(&small), h(&big));
        assert_eq!(small.cmp(&big), Ordering::Equal);
    }

    #[test]
    fn ordering_mirrors_btreeset_of_elements() {
        use std::collections::BTreeSet;
        let universes = [
            vec![0u32, 1, 2],
            vec![1, 2],
            vec![0, 200],
            vec![],
            vec![2],
            vec![0, 1, 2, 3, 100],
            vec![63, 64, 65],
        ];
        for a in &universes {
            for b in &universes {
                let sa = RelSet::from_ids(256, a.iter().copied());
                let sb = RelSet::from_ids(256, b.iter().copied());
                let ba: BTreeSet<u32> = a.iter().copied().collect();
                let bb: BTreeSet<u32> = b.iter().copied().collect();
                assert_eq!(sa.cmp(&sb), ba.cmp(&bb), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn set_algebra() {
        let a = RelSet::from_ids(128, [1, 5, 9]);
        let u = RelSet::from_ids(128, [1, 5, 9, 100]);
        let mut c = RelSet::with_universe(128);
        c.copy_from(&u);
        assert_eq!(c, u);
        c.copy_from(&a);
        assert_eq!(c, a, "copy_from must clear stale high bits");
    }
}
