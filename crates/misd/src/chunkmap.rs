//! A persistent ordered map for per-relation state.
//!
//! [`ChunkMap`] keeps its entries sorted by key in chunks of at most
//! [`CHUNK`] entries. Each chunk sits behind its own [`Arc`], and so
//! does the spine that lists the chunks with their start offsets.
//! Cloning a map copies one pointer; inserting, removing or replacing
//! one entry copies the chunk it lives in (two when chunks split or
//! merge) plus the spine, never the other chunks. Consecutive versions
//! of a map therefore share every chunk a change did not touch.
//!
//! Lookups are logarithmic: a binary search over the chunks' first
//! keys, then one inside the chunk. The start offsets make ranks
//! logarithmic too ([`ChunkMap::lower_bound_by`] returns one,
//! [`ChunkMap::nth`] inverts it), which is what lets a sorted set of
//! names hand out dense ids in name order.
//!
//! Equality and `Debug` look at the entries only, never at how they are
//! split into chunks: two maps holding the same entries compare equal
//! and print the same, as a `BTreeMap` would.
//!
//! [`ChunkList`] is the same structure used as a sequence: values under
//! ascending sequence keys, so a list keeps insertion order and an edit
//! copies one chunk.

use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

/// Most entries one chunk holds. A constant, not an option: it only
/// trades the spine copied per edit (one slot per chunk) against the
/// chunk copied (one slot per entry).
pub const CHUNK: usize = 128;

/// A chunk shrunk below this by a removal merges with a neighbour when
/// the two fit in one chunk.
const MERGE_BELOW: usize = CHUNK / 4;

type Chunk<K, V> = Arc<Vec<(K, V)>>;

/// The chunks in key order, each with its start offset: the number of
/// entries in the chunks before it.
type Spine<K, V> = Vec<(usize, Chunk<K, V>)>;

/// `v` for editing, copied first (with room for `extra` more elements)
/// when another version shares it.
fn unshare<T: Clone>(v: &mut Arc<Vec<T>>, extra: usize) -> &mut Vec<T> {
    if Arc::get_mut(v).is_none() {
        let mut copy = Vec::with_capacity(v.len() + extra);
        copy.extend_from_slice(v);
        *v = Arc::new(copy);
    }
    Arc::get_mut(v).expect("unshared above")
}

/// Recompute the start offsets of `spine[from..]`.
fn restart_from<K, V>(spine: &mut Spine<K, V>, from: usize) {
    let mut next = match from {
        0 => 0,
        _ => spine[from - 1].0 + spine[from - 1].1.len(),
    };
    for (start, chunk) in &mut spine[from..] {
        *start = next;
        next += chunk.len();
    }
}

/// A persistent ordered map: sorted entries in `Arc`-shared chunks (see
/// the module docs).
pub struct ChunkMap<K, V> {
    /// Non-empty chunks.
    spine: Arc<Spine<K, V>>,
}

impl<K, V> Clone for ChunkMap<K, V> {
    fn clone(&self) -> Self {
        ChunkMap {
            spine: Arc::clone(&self.spine),
        }
    }
}

impl<K, V> Default for ChunkMap<K, V> {
    fn default() -> Self {
        ChunkMap {
            spine: Arc::default(),
        }
    }
}

impl<K, V> ChunkMap<K, V> {
    /// The empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.spine
            .last()
            .map_or(0, |(start, chunk)| start + chunk.len())
    }

    /// Is the map empty?
    pub fn is_empty(&self) -> bool {
        self.spine.is_empty()
    }

    /// Do the two maps share one spine, as a clone and its source do
    /// until either is edited? Then they hold the same entries.
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        Arc::ptr_eq(&a.spine, &b.spine)
    }

    /// All entries in ascending key order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter {
            spine: &self.spine,
            chunk: 0,
            pos: 0,
            left: self.len(),
        }
    }

    /// All keys, ascending.
    pub fn keys(&self) -> impl ExactSizeIterator<Item = &K> {
        self.iter().map(|(k, _)| k)
    }

    /// All values, in key order.
    pub fn values(&self) -> impl ExactSizeIterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }

    /// The entry of rank `i` (the `i`-th smallest key), if `i < len()`.
    pub fn nth(&self, i: usize) -> Option<(&K, &V)> {
        let c = match self.spine.len() {
            0 => return None,
            1 => 0,
            _ => self.spine.partition_point(|(start, _)| *start <= i) - 1,
        };
        let (start, chunk) = &self.spine[c];
        chunk.get(i - start).map(|(k, v)| (k, v))
    }

    /// Binary search by a predicate, as [`slice::partition_point`]:
    /// `less` tells whether a key orders before the target. Returns the
    /// rank of the first key that does not, and its entry (`None` past
    /// the end).
    pub fn lower_bound_by(&self, mut less: impl FnMut(&K) -> bool) -> (usize, Option<(&K, &V)>) {
        let (c, pos) = self.locate(&mut less);
        let Some((start, chunk)) = self.spine.get(c) else {
            return (0, None);
        };
        let entry = chunk
            .get(pos)
            .or_else(|| self.spine.get(c + 1).map(|(_, next)| &next[0]));
        (start + pos, entry.map(|(k, v)| (k, v)))
    }

    /// The chunk in which the keys not less than the target begin, and
    /// the position there: the chunk's end when they begin in the next
    /// chunk (or past the last).
    fn locate(&self, less: &mut impl FnMut(&K) -> bool) -> (usize, usize) {
        let spine = &self.spine[..];
        let c = match spine.len() {
            0 => return (0, 0),
            1 => 0,
            // The last chunk whose first key orders before the target.
            _ => spine
                .partition_point(|(_, chunk)| less(&chunk[0].0))
                .saturating_sub(1),
        };
        (c, spine[c].1.partition_point(|(k, _)| less(k)))
    }
}

impl<K: Ord + Clone, V: Clone> ChunkMap<K, V> {
    /// Build from entries in strictly ascending key order, every chunk
    /// full but the last.
    pub fn from_sorted(entries: impl IntoIterator<Item = (K, V)>) -> Self {
        let mut entries = entries.into_iter().peekable();
        let mut spine = Vec::with_capacity(entries.size_hint().0.div_ceil(CHUNK));
        let mut len = 0;
        while entries.peek().is_some() {
            let mut chunk = Vec::with_capacity(entries.size_hint().0.clamp(1, CHUNK));
            chunk.extend(entries.by_ref().take(CHUNK));
            let start = len;
            len += chunk.len();
            spine.push((start, Arc::new(chunk)));
        }
        let map = ChunkMap {
            spine: Arc::new(spine),
        };
        debug_assert!(
            map.keys().zip(map.keys().skip(1)).all(|(a, b)| a < b),
            "keys strictly ascending"
        );
        map
    }

    /// Where `key` is, or where it would be inserted: chunk, position,
    /// and whether it is there.
    fn find<Q>(&self, key: &Q) -> (usize, usize, bool)
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let (c, pos) = self.locate(&mut |k: &K| k.borrow() < key);
        let here = |c: usize, pos: usize| {
            self.spine
                .get(c)
                .and_then(|(_, chunk)| chunk.get(pos))
                .is_some_and(|(k, _)| k.borrow() == key)
        };
        if here(c, pos) {
            (c, pos, true)
        } else if here(c + 1, 0) {
            (c + 1, 0, true)
        } else {
            (c, pos, false)
        }
    }

    /// The value under `key`.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        match self.find(key) {
            (c, pos, true) => Some(&self.spine[c].1[pos].1),
            _ => None,
        }
    }

    /// Is `key` present?
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.find(key).2
    }

    /// The rank of `key` (`Ok`), or the rank it would be inserted at
    /// (`Err`).
    pub fn rank<Q>(&self, key: &Q) -> Result<usize, usize>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let (c, pos, found) = self.find(key);
        let rank = self.spine.get(c).map_or(0, |(start, _)| *start) + pos;
        if found {
            Ok(rank)
        } else {
            Err(rank)
        }
    }

    /// The value under `key`, for editing in place. Copies the chunk
    /// (and the spine) first when another version shares them.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        match self.find(key) {
            (c, pos, true) => Some(&mut unshare(&mut unshare(&mut self.spine, 0)[c].1, 0)[pos].1),
            _ => None,
        }
    }

    /// Insert `value` under `key`, returning the value it replaced.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.find(&key) {
            (c, pos, true) => {
                let chunk = &mut unshare(&mut self.spine, 0)[c].1;
                Some(std::mem::replace(&mut unshare(chunk, 0)[pos].1, value))
            }
            (c, pos, false) => {
                self.insert_at(c, pos, (key, value));
                None
            }
        }
    }

    /// Remove the entry under `key`, returning its value.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        match self.find(key) {
            (c, pos, true) => Some(self.remove_at(c, pos).1),
            _ => None,
        }
    }

    /// Remove the entry of rank `i`.
    ///
    /// # Panics
    /// When `i >= len()`.
    pub fn remove_nth(&mut self, i: usize) -> (K, V) {
        assert!(i < self.len(), "rank {i} out of range");
        let c = self.spine.partition_point(|(s, _)| *s <= i) - 1;
        let pos = i - self.spine[c].0;
        self.remove_at(c, pos)
    }

    /// Insert `entry` at position `pos` of chunk `c`. A full chunk
    /// splits in two, except that appending past the last entry of the
    /// map opens a new chunk, so ascending insertion keeps chunks full.
    fn insert_at(&mut self, c: usize, pos: usize, entry: (K, V)) {
        let spine = unshare(&mut self.spine, 1);
        if spine.is_empty() {
            spine.push((0, Arc::new(vec![entry])));
            return;
        }
        if spine[c].1.len() < CHUNK {
            unshare(&mut spine[c].1, 1).insert(pos, entry);
            restart_from(spine, c + 1);
            return;
        }
        if pos == CHUNK && c + 1 == spine.len() {
            spine.push((0, Arc::new(vec![entry])));
            restart_from(spine, c + 1);
            return;
        }
        let old = &spine[c].1;
        let mid = CHUNK / 2;
        let mut left = Vec::with_capacity(mid + 1);
        let mut right = Vec::with_capacity(CHUNK - mid + 1);
        left.extend_from_slice(&old[..mid]);
        right.extend_from_slice(&old[mid..]);
        if pos <= mid {
            left.insert(pos, entry);
        } else {
            right.insert(pos - mid, entry);
        }
        spine[c].1 = Arc::new(left);
        spine.insert(c + 1, (0, Arc::new(right)));
        restart_from(spine, c + 1);
    }

    /// Remove position `pos` of chunk `c`; an emptied chunk leaves the
    /// spine, and a sparse one merges with a neighbour it fits beside.
    fn remove_at(&mut self, c: usize, pos: usize) -> (K, V) {
        let spine = unshare(&mut self.spine, 0);
        let removed = unshare(&mut spine[c].1, 0).remove(pos);
        let len = spine[c].1.len();
        if len == 0 {
            spine.remove(c);
            restart_from(spine, c);
            return removed;
        }
        if len < MERGE_BELOW {
            // Merge with the smaller neighbour, if the pair fits.
            let next = spine.get(c + 1).map(|(_, n)| n.len());
            let prev = c.checked_sub(1).map(|p| spine[p].1.len());
            let first = match (prev, next) {
                (Some(p), Some(n)) if p <= n => Some(c - 1),
                (_, Some(_)) => Some(c),
                (Some(_), None) => Some(c - 1),
                (None, None) => None,
            };
            if let Some(first) = first {
                let (a, b) = (&spine[first].1, &spine[first + 1].1);
                if a.len() + b.len() <= CHUNK {
                    let mut merged = Vec::with_capacity(a.len() + b.len());
                    merged.extend_from_slice(a);
                    merged.extend_from_slice(b);
                    spine[first].1 = Arc::new(merged);
                    spine.remove(first + 1);
                    restart_from(spine, first + 1);
                    return removed;
                }
            }
        }
        restart_from(spine, c + 1);
        removed
    }
}

impl<K: PartialEq, V: PartialEq> PartialEq for ChunkMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        Self::ptr_eq(self, other) || (self.len() == other.len() && self.iter().eq(other.iter()))
    }
}

impl<K: Eq, V: Eq> Eq for ChunkMap<K, V> {}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for ChunkMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Iterator over a [`ChunkMap`]'s entries in key order.
pub struct Iter<'a, K, V> {
    spine: &'a [(usize, Chunk<K, V>)],
    chunk: usize,
    pos: usize,
    left: usize,
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        let (_, chunk) = self.spine.get(self.chunk)?;
        let (k, v) = &chunk[self.pos];
        self.pos += 1;
        if self.pos == chunk.len() {
            self.chunk += 1;
            self.pos = 0;
        }
        self.left -= 1;
        Some((k, v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl<K, V> ExactSizeIterator for Iter<'_, K, V> {}

/// A persistent sequence in insertion order: a [`ChunkMap`] under
/// ascending sequence keys. [`ChunkList::push`] appends under a fresh
/// key; an entry keeps its key, and so its position, when
/// [`ChunkList::replace`] swaps its value; [`ChunkList::remove`] takes
/// it out. Either copies the entry's chunk and the spine, never the
/// other chunks.
///
/// Equality and `Debug` see the values in order, never the keys: a
/// list edited down to some values equals one that pushed just those.
pub struct ChunkList<T> {
    map: ChunkMap<u64, T>,
    /// The key the next push takes.
    next: u64,
}

impl<T> Clone for ChunkList<T> {
    fn clone(&self) -> Self {
        ChunkList {
            map: self.map.clone(),
            next: self.next,
        }
    }
}

impl<T> Default for ChunkList<T> {
    fn default() -> Self {
        ChunkList {
            map: ChunkMap::new(),
            next: 0,
        }
    }
}

/// Iterator over a [`ChunkList`]'s values in order.
pub type Values<'a, T> = std::iter::Map<Iter<'a, u64, T>, fn((&'a u64, &'a T)) -> &'a T>;

impl<T> ChunkList<T> {
    /// Number of values.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Is the list empty?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Do the two lists share one spine, as a clone and its source do
    /// until either is edited? Then they hold the same values.
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        ChunkMap::ptr_eq(&a.map, &b.map)
    }

    /// The values in order.
    pub fn iter(&self) -> Values<'_, T> {
        self.map.iter().map(|(_, v)| v)
    }

    /// The `i`-th value, if `i < len()`.
    pub fn get(&self, i: usize) -> Option<&T> {
        self.map.nth(i).map(|(_, v)| v)
    }
}

impl<T: Clone> ChunkList<T> {
    /// Append `value`, returning its key.
    pub fn push(&mut self, value: T) -> u64 {
        let key = self.next;
        self.next += 1;
        self.map.insert(key, value);
        key
    }

    /// Put `value` in place of the value under `key`, returning that.
    pub fn replace(&mut self, key: u64, value: T) -> Option<T> {
        self.map
            .get_mut(&key)
            .map(|slot| std::mem::replace(slot, value))
    }

    /// Remove the value under `key`.
    pub fn remove(&mut self, key: u64) -> Option<T> {
        self.map.remove(&key)
    }
}

impl<T> std::ops::Index<usize> for ChunkList<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        self.get(i).expect("index within the list")
    }
}

impl<'a, T> IntoIterator for &'a ChunkList<T> {
    type Item = &'a T;
    type IntoIter = Values<'a, T>;

    fn into_iter(self) -> Values<'a, T> {
        self.iter()
    }
}

impl<T: PartialEq> PartialEq for ChunkList<T> {
    fn eq(&self, other: &Self) -> bool {
        Self::ptr_eq(self, other) || (self.len() == other.len() && self.iter().eq(other.iter()))
    }
}

impl<T: Eq> Eq for ChunkList<T> {}

impl<T: fmt::Debug> fmt::Debug for ChunkList<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;
    use std::collections::BTreeMap;

    /// xorshift64* — deterministic, no external crates.
    struct Rng(u64);
    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
        }
    }

    /// Every query agrees with the model map.
    fn assert_matches(map: &ChunkMap<u32, u64>, model: &BTreeMap<u32, u64>) {
        assert_eq!(map.len(), model.len());
        assert!(map.iter().eq(model.iter()), "iteration order diverged");
        assert_eq!(map.iter().len(), model.len());
        for (i, (k, v)) in model.iter().enumerate() {
            assert_eq!(map.get(k), Some(v));
            assert_eq!(map.rank(k), Ok(i));
            assert_eq!(map.nth(i), Some((k, v)));
        }
        assert_eq!(map.nth(model.len()), None);
        for probe in [0, 1, 999, 1000, 5_000, u32::MAX] {
            assert_eq!(map.get(&probe), model.get(&probe));
            let rank = model.range(..probe).count();
            let want = if model.contains_key(&probe) {
                Ok(rank)
            } else {
                Err(rank)
            };
            assert_eq!(map.rank(&probe), want, "rank of {probe}");
        }
        for (c, (start, chunk)) in map.spine.iter().enumerate() {
            assert!(!chunk.is_empty() && chunk.len() <= CHUNK, "chunk size");
            let before: usize = map.spine[..c].iter().map(|(_, c)| c.len()).sum();
            assert_eq!(*start, before, "start offset of chunk {c}");
        }
    }

    /// Random insert / remove / replace runs against `BTreeMap`, with a
    /// snapshot per round that must not see later edits. Rounds grow
    /// the map to many chunks and shrink it again, so chunks split,
    /// empty and merge along the way.
    #[test]
    fn matches_btreemap_model() {
        let mut rng = Rng(0x5EED_0C4B_0000_0001);
        let mut map: ChunkMap<u32, u64> = ChunkMap::new();
        let mut model = BTreeMap::new();
        let (mut most_chunks, mut merges, mut splits) = (0, 0, 0);
        for round in 0..24u64 {
            let snapshot = (map.clone(), model.clone());
            // Grow in even rounds, shrink in odd ones.
            let (ops, insert_share) = if round % 2 == 0 {
                (1_500, 8)
            } else {
                (2_500, 1)
            };
            for step in 0..ops {
                let chunks_before = map.spine.len();
                let key = rng.below(4_000) as u32;
                let value = round * 10_000 + step;
                match rng.below(10) {
                    r if r < insert_share => {
                        assert_eq!(map.insert(key, value), model.insert(key, value));
                    }
                    r if r < 9 => {
                        assert_eq!(map.remove(&key), model.remove(&key));
                    }
                    _ => {
                        if let Some((&k, _)) = model.iter().nth(key as usize % model.len().max(1)) {
                            *map.get_mut(&k).expect("present") = value;
                            model.insert(k, value);
                        }
                    }
                }
                match map.spine.len().cmp(&chunks_before) {
                    Ordering::Greater if map.len() > 1 => splits += 1,
                    Ordering::Less if !map.is_empty() => merges += 1,
                    _ => {}
                }
                most_chunks = most_chunks.max(map.spine.len());
            }
            assert_matches(&map, &model);
            assert_matches(&snapshot.0, &snapshot.1);
        }
        assert!(most_chunks >= 8, "the run never spanned many chunks");
        assert!(splits > 0 && merges > 0, "splits {splits}, merges {merges}");
    }

    #[test]
    fn remove_nth_matches_model() {
        let mut map = ChunkMap::from_sorted((0..600u32).map(|k| (k * 2, u64::from(k))));
        let mut model: BTreeMap<u32, u64> = map.iter().map(|(k, v)| (*k, *v)).collect();
        let mut rng = Rng(7);
        while !model.is_empty() {
            let i = rng.below(model.len() as u64) as usize;
            let k = *model.keys().nth(i).expect("in range");
            let want = model.remove_entry(&k).expect("present");
            assert_eq!(map.remove_nth(i), want);
        }
        assert_matches(&map, &model);
    }

    /// Equal entries, different chunk layouts: equal and printed alike.
    #[test]
    fn equality_and_debug_ignore_layout() {
        let entries: Vec<(u32, u64)> = (0..1_000).map(|k| (k, u64::from(k) * 3)).collect();
        let packed = ChunkMap::from_sorted(entries.iter().copied());
        let mut scattered = ChunkMap::new();
        let mut rng = Rng(42);
        let mut order = entries.clone();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for (k, v) in order {
            scattered.insert(k, v);
        }
        assert_ne!(packed.spine.len(), scattered.spine.len(), "layouts differ");
        assert_eq!(packed, scattered);
        let model: BTreeMap<u32, u64> = entries.into_iter().collect();
        assert_eq!(format!("{packed:?}"), format!("{model:?}"));
        assert_eq!(format!("{scattered:?}"), format!("{model:?}"));
        scattered.insert(5, 0);
        assert_ne!(packed, scattered);
    }

    /// Pushes, replaces and removes against a `Vec` model: values stay
    /// in push order, a replaced value keeps its place, and equality and
    /// `Debug` ignore the keys.
    #[test]
    fn chunk_list_keeps_push_order() {
        let mut rng = Rng(11);
        let mut list = ChunkList::default();
        let mut model: Vec<(u64, u32)> = Vec::new();
        for step in 0..3_000u32 {
            match rng.below(4) {
                0 | 1 => model.push((list.push(step), step)),
                2 if !model.is_empty() => {
                    let i = rng.below(model.len() as u64) as usize;
                    assert_eq!(list.replace(model[i].0, step), Some(model[i].1));
                    model[i].1 = step;
                }
                _ if !model.is_empty() => {
                    let (key, value) = model.remove(rng.below(model.len() as u64) as usize);
                    assert_eq!(list.remove(key), Some(value));
                }
                _ => {}
            }
        }
        let values: Vec<u32> = model.iter().map(|(_, v)| *v).collect();
        assert!(list.iter().copied().eq(values.iter().copied()));
        assert_eq!(list.get(values.len() / 2), values.get(values.len() / 2));
        assert_eq!(list.remove(u64::MAX), None);
        let mut pushed = ChunkList::default();
        for &v in &values {
            pushed.push(v);
        }
        assert_eq!(list, pushed);
        assert_eq!(format!("{list:?}"), format!("{values:?}"));
    }

    /// Ascending insertion keeps chunks full, and an edit to a clone
    /// copies one chunk: every other chunk stays shared.
    #[test]
    fn edits_copy_one_chunk() {
        let mut map = ChunkMap::new();
        for k in 0..(4 * CHUNK as u32) {
            map.insert(k, ());
        }
        assert_eq!(map.spine.len(), 4);
        let mut next = map.clone();
        next.insert(CHUNK as u32, ());
        next.remove(&(2 * CHUNK as u32));
        let shared = (0..4)
            .filter(|&c| Arc::ptr_eq(&map.spine[c].1, &next.spine[c].1))
            .count();
        assert_eq!(shared, 2, "a replace and a remove copy two chunks");
        assert_eq!(map.len(), 4 * CHUNK);
        assert_eq!(next.len(), 4 * CHUNK - 1);
    }
}
