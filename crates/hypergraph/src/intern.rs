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

use eve_relational::RelName;
use std::collections::HashMap;

/// Dense relation id. Ids are assigned in ascending [`RelName`] order,
/// so `id_a < id_b ⇔ name_a < name_b` within one interner.
pub type RelId = u32;

/// A bijection between the relation names of one hypergraph and the
/// dense id range `0..len`.
///
/// Ids from different interners (different hypergraphs) are not
/// comparable; the boundary layer always resolves back to [`RelName`]
/// before crossing graphs.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    /// Names in id order (ascending name order by construction).
    names: Vec<RelName>,
    /// Reverse lookup.
    lookup: HashMap<RelName, RelId>,
}

impl Interner {
    /// Build from names already in ascending order without duplicates
    /// (e.g. iterating a `BTreeSet<RelName>`).
    pub fn from_sorted(names: impl IntoIterator<Item = RelName>) -> Self {
        let names: Vec<RelName> = names.into_iter().collect();
        debug_assert!(names.windows(2).all(|w| w[0] < w[1]), "names sorted+unique");
        let lookup = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i as RelId))
            .collect();
        Interner { names, lookup }
    }

    /// The id of `name`, or `None` when it is not interned here.
    pub fn get(&self, name: &RelName) -> Option<RelId> {
        self.lookup.get(name).copied()
    }

    /// The name behind `id`.
    ///
    /// # Panics
    /// When `id` was not produced by this interner.
    pub fn name(&self, id: RelId) -> &RelName {
        &self.names[id as usize]
    }

    /// Number of interned names (the id universe is `0..len()`).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Is the interner empty?
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All names in id order (ascending name order).
    pub fn names(&self) -> &[RelName] {
        &self.names
    }

    // ---- incremental growth (delta maintenance) -----------------------
    //
    // The three operations below derive a new interner from this one
    // without re-hashing every name: `RelName` is `Arc<str>`-backed, so
    // cloning the table is pointer bumps, and only the inserted name is
    // hashed. Ids shift to keep the id-order == name-order invariant; the
    // returned positions tell the caller exactly how to remap its own
    // id-keyed arrays (`old >= pos` shifts by one).

    /// A new interner with `name` added, plus the id it received.
    /// Every pre-existing id `>= returned id` shifts up by one.
    /// `None` when `name` is already interned.
    pub fn with_inserted(&self, name: &RelName) -> Option<(Interner, RelId)> {
        let pos = match self.names.binary_search(name) {
            Ok(_) => return None,
            Err(pos) => pos,
        };
        let mut names = Vec::with_capacity(self.names.len() + 1);
        names.extend_from_slice(&self.names[..pos]);
        names.push(name.clone());
        names.extend_from_slice(&self.names[pos..]);
        let mut lookup = self.lookup.clone();
        for id in lookup.values_mut() {
            if *id >= pos as RelId {
                *id += 1;
            }
        }
        lookup.insert(name.clone(), pos as RelId);
        Some((Interner { names, lookup }, pos as RelId))
    }

    /// A new interner with `name` removed, plus the id it held.
    /// Every pre-existing id `> returned id` shifts down by one.
    /// `None` when `name` is not interned.
    pub fn with_removed(&self, name: &RelName) -> Option<(Interner, RelId)> {
        let pos = self.get(name)?;
        let mut names = Vec::with_capacity(self.names.len() - 1);
        names.extend_from_slice(&self.names[..pos as usize]);
        names.extend_from_slice(&self.names[pos as usize + 1..]);
        let mut lookup = self.lookup.clone();
        lookup.remove(name);
        for id in lookup.values_mut() {
            if *id > pos {
                *id -= 1;
            }
        }
        Some((Interner { names, lookup }, pos))
    }

    /// A new interner with `from` renamed to `to`, plus `from`'s old id
    /// and `to`'s new id. Equivalent to remove-then-insert; the caller
    /// remaps its arrays through the implied id permutation. `None` when
    /// `from` is absent or `to` already interned.
    pub fn with_renamed(&self, from: &RelName, to: &RelName) -> Option<(Interner, RelId, RelId)> {
        let old_id = self.get(from)?;
        // `to`'s slot once `from` is gone: one copy of the table, not two.
        let new_id = match self.names.binary_search(to) {
            Ok(_) => return None,
            Err(pos) if pos > old_id as usize => pos as RelId - 1,
            Err(pos) => pos as RelId,
        };
        let mut names = self.names.clone();
        names.remove(old_id as usize);
        names.insert(new_id as usize, to.clone());
        let mut lookup = self.lookup.clone();
        lookup.remove(from);
        for id in lookup.values_mut() {
            let mid = if *id > old_id { *id - 1 } else { *id };
            *id = if mid >= new_id { mid + 1 } else { mid };
        }
        lookup.insert(to.clone(), new_id);
        Some((Interner { names, lookup }, old_id, new_id))
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
        assert_eq!(a.names(), b.names());
        for (i, n) in a.names().iter().enumerate() {
            assert_eq!(a.get(n), Some(i as RelId));
            assert_eq!(b.get(n), Some(i as RelId));
        }
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
