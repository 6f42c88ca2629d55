//! Relation-name interning: dense `u32` ids for the data-oriented core.
//!
//! Every [`crate::Hypergraph`] builds one [`Interner`] at construction
//! time, mapping its relation names to ids `0..n` **in ascending name
//! order**. That ordering is load-bearing: comparing two [`RelId`]s is
//! then exactly comparing the underlying [`RelName`]s, so the id-keyed
//! enumeration core can reproduce the legacy string-keyed yield order
//! (heap tie-breaks, component ordering, terminal iteration) without
//! ever touching a string on the hot path. The string-keyed public API
//! is a thin boundary: intern on entry, [`Interner::name`] on exit.
//!
//! The interner is a sorted set of names in a persistent
//! [`ChunkMap`]: a name's id is its rank. Lookups are binary searches
//! that compare an inline eight-byte prefix of each name before the
//! string, so on a graph that fits in one chunk [`Interner::get`] costs
//! a handful of integer compares and one string compare. Adding,
//! removing or renaming a vertex copies one chunk and the chunk spine,
//! and every other chunk stays shared with the interner it came from.

use eve_misd::ChunkMap;
use eve_relational::RelName;
use std::cmp::Ordering;
use std::fmt;

/// Dense relation id. Ids are assigned in ascending [`RelName`] order,
/// so `id_a < id_b ⇔ name_a < name_b` within one interner.
pub type RelId = u32;

/// A name with its first eight bytes packed big-endian (zero-padded).
/// Unequal prefixes order two names exactly as the names do; equal ones
/// defer to the strings.
#[derive(Clone, PartialEq, Eq)]
struct Slot {
    prefix: u64,
    name: RelName,
}

/// The first eight bytes of `name`, packed big-endian (zero-padded):
/// unequal prefixes order two names exactly as the names do.
pub(crate) fn prefix_of(name: &RelName) -> u64 {
    let bytes = name.as_str().as_bytes();
    match bytes.first_chunk::<8>() {
        Some(head) => u64::from_be_bytes(*head),
        None => bytes
            .iter()
            .enumerate()
            .fold(0, |p, (i, &b)| p | u64::from(b) << (56 - 8 * i)),
    }
}

impl Slot {
    fn new(name: RelName) -> Slot {
        Slot {
            prefix: prefix_of(&name),
            name,
        }
    }

    /// Does this slot order before the name with prefix `prefix`?
    fn is_before(&self, prefix: u64, name: &RelName) -> bool {
        self.prefix < prefix || (self.prefix == prefix && self.name < *name)
    }
}

impl PartialOrd for Slot {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Slot {
    fn cmp(&self, other: &Self) -> Ordering {
        self.prefix
            .cmp(&other.prefix)
            .then_with(|| self.name.cmp(&other.name))
    }
}

/// A bijection between the relation names of one hypergraph and the
/// dense id range `0..len`.
///
/// Ids from different interners (different hypergraphs) are not
/// comparable; the boundary layer always resolves back to [`RelName`]
/// before crossing graphs.
#[derive(Clone, Default)]
pub struct Interner {
    /// The names, ascending; a name's id is its rank.
    slots: ChunkMap<Slot, ()>,
}

impl fmt::Debug for Interner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.names()).finish()
    }
}

impl Interner {
    /// Build from names already in ascending order without duplicates
    /// (e.g. iterating a `BTreeSet<RelName>`).
    pub fn from_sorted(names: impl IntoIterator<Item = RelName>) -> Self {
        Interner {
            slots: ChunkMap::from_sorted(names.into_iter().map(|n| (Slot::new(n), ()))),
        }
    }

    /// The id of `name`, or `None` when it is not interned here.
    pub fn get(&self, name: &RelName) -> Option<RelId> {
        let prefix = prefix_of(name);
        match self
            .slots
            .lower_bound_by(|slot| slot.is_before(prefix, name))
        {
            (rank, Some((slot, _))) if slot.name == *name => Some(rank as RelId),
            _ => None,
        }
    }

    /// The name behind `id`.
    ///
    /// # Panics
    /// When `id` was not produced by this interner.
    pub fn name(&self, id: RelId) -> &RelName {
        &self
            .slots
            .nth(id as usize)
            .expect("id produced by this interner")
            .0
            .name
    }

    /// Number of interned names (the id universe is `0..len()`).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Is the interner empty?
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// All names in id order (ascending name order).
    pub fn names(&self) -> impl ExactSizeIterator<Item = &RelName> {
        self.slots.keys().map(|slot| &slot.name)
    }

    // ---- incremental growth (delta maintenance) -----------------------
    //
    // The three operations below derive a new interner from this one by
    // copying the chunk the name lands in (and the chunk spine); every
    // other chunk is shared. Ids shift to keep the id-order == name-order
    // invariant; the returned positions tell the caller exactly how to
    // remap its own id-keyed arrays (`old >= pos` shifts by one).

    /// A new interner with `name` added, plus the id it received.
    /// Every pre-existing id `>= returned id` shifts up by one.
    /// `None` when `name` is already interned.
    pub fn with_inserted(&self, name: &RelName) -> Option<(Interner, RelId)> {
        let slot = Slot::new(name.clone());
        let pos = self.slots.rank(&slot).err()?;
        let mut slots = self.slots.clone();
        slots.insert(slot, ());
        Some((Interner { slots }, pos as RelId))
    }

    /// A new interner with `name` removed, plus the id it held.
    /// Every pre-existing id `> returned id` shifts down by one.
    /// `None` when `name` is not interned.
    pub fn with_removed(&self, name: &RelName) -> Option<(Interner, RelId)> {
        let pos = self.get(name)?;
        let mut slots = self.slots.clone();
        slots.remove_nth(pos as usize);
        Some((Interner { slots }, pos))
    }

    /// A new interner with `from` renamed to `to`, plus `from`'s old id
    /// and `to`'s new id. Equivalent to remove-then-insert; the caller
    /// remaps its arrays through the implied id permutation. `None` when
    /// `from` is absent or `to` already interned.
    pub fn with_renamed(&self, from: &RelName, to: &RelName) -> Option<(Interner, RelId, RelId)> {
        let old_id = self.get(from)?;
        let slot = Slot::new(to.clone());
        self.slots.rank(&slot).err()?;
        let mut slots = self.slots.clone();
        slots.remove_nth(old_id as usize);
        let new_id = slots.rank(&slot).expect_err("`to` is not interned");
        slots.insert(slot, ());
        Some((Interner { slots }, old_id, new_id as RelId))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn ids_follow_name_order() {
        let set: BTreeSet<RelName> = ["B", "A", "C"].iter().map(|s| RelName::new(*s)).collect();
        let it = Interner::from_sorted(set);
        assert_eq!(it.len(), 3);
        assert_eq!(it.get(&RelName::new("A")), Some(0));
        assert_eq!(it.get(&RelName::new("B")), Some(1));
        assert_eq!(it.get(&RelName::new("C")), Some(2));
        assert_eq!(it.get(&RelName::new("Z")), None);
        assert_eq!(it.name(1).as_str(), "B");
    }

    fn interner(names: &[&str]) -> Interner {
        let set: BTreeSet<RelName> = names.iter().map(|s| RelName::new(*s)).collect();
        Interner::from_sorted(set)
    }

    /// The incremental ops must agree with a from-scratch build of the
    /// mutated name set, id for id.
    fn assert_same(a: &Interner, b: &Interner) {
        assert!(a.names().eq(b.names()));
        for (i, n) in a.names().enumerate() {
            assert_eq!(a.get(n), Some(i as RelId));
            assert_eq!(b.get(n), Some(i as RelId));
        }
    }

    /// The prefix comparison orders names exactly as the strings do,
    /// also for names that share eight bytes, are shorter, or hold NULs.
    #[test]
    fn prefix_order_is_name_order() {
        let raw = [
            "",
            "A",
            "A\0",
            "AB",
            "ABCDEFGG~",
            "ABCDEFGH",
            "ABCDEFGH\0",
            "ABCDEFGHI",
            "ABCDEFGI",
            "B",
            "\u{7f}",
            "é",
        ];
        let names: Vec<RelName> = raw.iter().map(|s| RelName::new(*s)).collect();
        for a in &names {
            for b in &names {
                let slots = (Slot::new(a.clone()), Slot::new(b.clone()));
                assert_eq!(slots.0.cmp(&slots.1), a.cmp(b), "{a:?} vs {b:?}");
            }
        }
        let it = interner(&raw);
        for (i, n) in it.names().enumerate() {
            assert_eq!(it.get(n), Some(i as RelId));
        }
        assert_eq!(it.get(&RelName::new("ABCDEFGH\0\0")), None);
    }

    #[test]
    fn with_inserted_matches_rebuild() {
        let it = interner(&["B", "D", "F"]);
        for name in ["A", "C", "E", "G"] {
            let (grown, id) = it.with_inserted(&RelName::new(name)).unwrap();
            let rebuilt = interner(&["B", "D", "F", name]);
            assert_same(&grown, &rebuilt);
            assert_eq!(grown.get(&RelName::new(name)), Some(id));
        }
        assert!(it.with_inserted(&RelName::new("B")).is_none());
    }

    #[test]
    fn with_removed_matches_rebuild() {
        let it = interner(&["A", "B", "C"]);
        let (shrunk, id) = it.with_removed(&RelName::new("B")).unwrap();
        assert_eq!(id, 1);
        assert_same(&shrunk, &interner(&["A", "C"]));
        assert!(it.with_removed(&RelName::new("Z")).is_none());
    }

    #[test]
    fn with_renamed_matches_rebuild() {
        let it = interner(&["A", "B", "C"]);
        // Rename that moves forwards, backwards, and in place.
        for (from, to, expect) in [
            ("A", "Z", ["B", "C", "Z"]),
            ("C", "0", ["0", "A", "B"]),
            ("B", "Bb", ["A", "Bb", "C"]),
        ] {
            let (renamed, old_id, new_id) = it
                .with_renamed(&RelName::new(from), &RelName::new(to))
                .unwrap();
            assert_same(&renamed, &interner(&expect));
            assert_eq!(it.get(&RelName::new(from)), Some(old_id));
            assert_eq!(renamed.get(&RelName::new(to)), Some(new_id));
        }
        assert!(it
            .with_renamed(&RelName::new("A"), &RelName::new("B"))
            .is_none());
        assert!(it
            .with_renamed(&RelName::new("Z"), &RelName::new("Y"))
            .is_none());
    }
}
