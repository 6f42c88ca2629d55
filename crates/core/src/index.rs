//! A per-change index over the meta knowledge base.
//!
//! Every step of the CVS algorithm consults the MKB: R-mapping walks the
//! join-constraint hypergraph `H(MKB)` (Def. 2), R-replacement looks up
//! function-of covers and the capability-filtered hypergraph `H'(MKB')`
//! (Def. 3), and extent inference scans partial/complete constraints.
//! Before this module, each synchronization call rebuilt all of that
//! from scratch — once **per view** — even though the underlying MKB
//! only changes once per capability change.
//!
//! [`MkbIndex`] hoists those derived structures out of the per-view
//! loop: one index serves every affected view of one capability change,
//! threaded by reference through mapping, replacement, rewriting, extent
//! inference, and attribute deletion. Synchronizing `n` affected views
//! touches the MKB-derived state `O(1)` times instead of `O(n)`.
//!
//! The derived structures themselves are **delta-maintained, not rebuilt
//! from scratch on every change**: the index holds them behind `Arc`s
//! and persistent maps, and is normally assembled by
//! [`MkbIndex::from_cores`] from two [`IndexCore`]s (the pre- and
//! post-change derived state), where the post core was produced by
//! [`IndexCore::apply_delta`] — a patch that rewrites only the graphs
//! and the cover-map and PC-bucket keys the change touched, and shares
//! everything else. [`MkbIndex::new`] remains the from-scratch
//! constructor (one-shot/what-if uses, and the rebuild oracle the
//! equivalence property suite compares against).
//!
//! CVS only ever searches one connected component of `H(MKB)`: `H_R`,
//! the one holding the deleted relation (Step 1, Def. 2). No core keeps
//! a component list; [`MkbIndex::component_of`] extracts `H_R` from
//! `H(MKB)` the first time a view asks, and every later view of the
//! same change shares it.
//!
//! The index *borrows* both MKBs (`MkbIndex<'m>`), so constructing a
//! throwaway index never clones a knowledge base.
//!
//! ## Per-change enumeration cache
//!
//! Beyond the precomputed maps, the index carries a **memoization layer**
//! for the searches that R-replacement repeats across views:
//! connection-tree enumeration over `H'(MKB')`
//! ([`MkbIndex::enumerate_trees`]), viable-cover filtering
//! ([`MkbIndex::viable_covers`]) and `Min(H_R)` survival sets
//! ([`MkbIndex::survival_set`]). Views registered against the same
//! information space overwhelmingly share terminal sets (they draw on the
//! same relations), so under one `delete-relation R` the second view
//! asking for the trees spanning `{S, T, U}` hits the memo instead of
//! re-walking `H'`. The tables live as long as the index, one change.
//!
//! The memo tables are sharded `RwLock<HashMap>`s: the hot path is a
//! short shared-read lock per lookup, writers only contend on their own
//! shard, and a compute race between two workers is benign because every
//! memoized function is a pure, deterministic function of its key — both
//! racers produce the identical value and first-write-wins. Cached or
//! not, callers observe byte-identical results, which is what lets the
//! parallel synchronizer share one index across workers.

use crate::delta::{build_covers, build_pcs, pair_key, Covers, IndexCore, PcBuckets};
use crate::replacement::CoverChoice;
use eve_hypergraph::{ConnectionTree, Hypergraph, RelId, RelSet};
use eve_misd::{MetaKnowledgeBase, PartialComplete};
use eve_relational::{AttrRef, RelName};
use std::collections::hash_map::RandomState;
use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasher, Hash};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Shard count for the memo tables. Small and fixed: the tables are
/// per-change (short-lived) and the worker pool is small, so a handful of
/// shards already makes write contention negligible.
const MEMO_SHARDS: usize = 8;

/// A sharded, read-mostly memo table.
///
/// `get_or_insert_with` takes a shared-read lock on one shard for the
/// lookup and only upgrades to a write lock on a miss. Two threads may
/// race to compute the same key; the memoized functions are
/// deterministic, so both compute the identical value and the first
/// write wins — the loser's copy is dropped, never observed.
struct Memo<K, V> {
    shards: [RwLock<HashMap<K, V>>; MEMO_SHARDS],
    hasher: RandomState,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Eq + Hash, V: Clone> Memo<K, V> {
    fn new() -> Self {
        Memo {
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
            hasher: RandomState::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> V {
        let shard = &self.shards[self.hasher.hash_one(&key) as usize % MEMO_SHARDS];
        // A poisoned lock means a sibling worker panicked mid-insert; the
        // map holds only fully-inserted deterministic values, so
        // recovering the guard is safe.
        if let Some(v) = shard.read().unwrap_or_else(|e| e.into_inner()).get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return v.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let v = compute();
        shard
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .entry(key)
            .or_insert(v)
            .clone()
    }
}

impl<K, V> std::fmt::Debug for Memo<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Memo")
            .field("hits", &self.hits.load(Ordering::Relaxed))
            .field("misses", &self.misses.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// Hit/miss counters aggregated over all of an index's memo tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from a memo table.
    pub hits: u64,
    /// Lookups that had to compute (and then populated the memo).
    pub misses: u64,
}

/// Precomputed, read-only derived state for one capability change.
///
/// Built by [`MkbIndex::new`] from the pre-change MKB and the evolved
/// MKB', or assembled by [`MkbIndex::from_cores`] from delta-maintained
/// cores. Accessors are lookups; the one structure computed after
/// construction is `H_R`, extracted by the first
/// [`MkbIndex::component_of`] call and kept for the rest of the change.
#[derive(Debug)]
pub struct MkbIndex<'m> {
    mkb: &'m MetaKnowledgeBase,
    mkb_prime: &'m MetaKnowledgeBase,
    /// The full join-constraint hypergraph `H(MKB)` over the pre-change
    /// MKB. `Arc`-shared with the [`IndexCore`] chain under delta
    /// maintenance.
    h: Arc<Hypergraph>,
    /// The first component of `h` asked for (`H_R` under
    /// `delete-relation R`).
    h_r: OnceLock<Arc<Hypergraph>>,
    /// `H'(MKB')`: the post-change hypergraph, restricted to join-capable
    /// relations.
    h_prime: Arc<Hypergraph>,
    /// Function-of covers grouped by the attribute they re-derive. Raw
    /// (unfiltered) covers in MKB declaration order; consumers filter by
    /// target relation / `h_prime` membership as their definitions require.
    /// An attribute's rank among the keys is its dense id in the
    /// viable-cover memo.
    covers: Covers,
    /// Partial/complete constraints keyed by the (unordered) relation pair
    /// they relate; each bucket preserves MKB declaration order. Owned
    /// (not borrowed from the MKB) so the buckets can be shared across
    /// versions.
    pcs_by_pair: PcBuckets,
    /// Memoized connection-tree enumeration over `h_prime`, keyed by
    /// `(terminal set, hop bound, tree limit)`. The terminal set is an
    /// interned-id bitset over `h_prime` (four inline words for graphs
    /// of ≤ 256 relations), so a probe hashes words, not names.
    trees: Memo<(RelSet, usize, usize), Arc<Vec<ConnectionTree>>>,
    /// Memoized viable-cover lists, keyed by `(cover-attribute id,
    /// deleted relation id)` — the Def. 3 (IV) filter of `covers`
    /// against `h_prime`.
    viable: Memo<(u32, RelId), Arc<Vec<CoverChoice>>>,
    /// Memoized `Min(H_R)` survival sets, keyed by `(Min(H_R) relation
    /// id set, deleted relation id)` over `H(MKB)`'s interner.
    survivors: Memo<(RelSet, RelId), Arc<BTreeSet<RelName>>>,
    /// When false, every memoized accessor computes directly (the
    /// uncached reference the tests compare the cache against).
    cache_enabled: bool,
}

impl<'m> MkbIndex<'m> {
    /// Build the index for one capability change: `mkb` is the state the
    /// views were defined against, `mkb_prime` the evolved state they must
    /// be rewritten against. For read-only uses (e.g. R-mapping outside a
    /// change), pass the same MKB for both.
    pub fn new(mkb: &'m MetaKnowledgeBase, mkb_prime: &'m MetaKnowledgeBase) -> Self {
        let mut span = eve_telemetry::span("index-build");
        span.field("relations", mkb.relation_count() as u64);
        span.field("joins", mkb.joins().len() as u64);
        eve_telemetry::counter_add("index.builds", 1);
        crate::faults::hit("index.build");
        let h_prime = Hypergraph::build_filtered(mkb_prime, |desc| desc.capabilities.join);
        MkbIndex {
            mkb,
            mkb_prime,
            h: Arc::new(Hypergraph::build(mkb)),
            h_r: OnceLock::new(),
            h_prime: Arc::new(h_prime),
            covers: build_covers(mkb),
            pcs_by_pair: build_pcs(mkb),
            trees: Memo::new(),
            viable: Memo::new(),
            survivors: Memo::new(),
            cache_enabled: true,
        }
    }

    /// Assemble the index for one capability change from delta-maintained
    /// derived state: `pre` is the [`IndexCore`] of the MKB the views were
    /// defined against, `post` the core produced by
    /// [`IndexCore::apply_delta`] for the evolved MKB'. Everything is
    /// `Arc`-shared — no hypergraph build, no constraint scan.
    ///
    /// Equivalence contract: the result behaves byte-identically to
    /// `MkbIndex::new(mkb, mkb_prime)` (enforced by the property suite
    /// in `tests/delta_equivalence.rs`).
    pub fn from_cores(
        mkb: &'m MetaKnowledgeBase,
        mkb_prime: &'m MetaKnowledgeBase,
        pre: &IndexCore,
        post: &IndexCore,
    ) -> Self {
        let mut span = eve_telemetry::span("index-from-cores");
        span.field("relations", mkb.relation_count() as u64);
        eve_telemetry::counter_add("index.delta_builds", 1);
        // Distinct from `index.build` (the full-rebuild path) so fault
        // plans can address delta maintenance specifically.
        crate::faults::hit("index.delta-build");
        MkbIndex {
            mkb,
            mkb_prime,
            h: Arc::clone(&pre.h),
            h_r: OnceLock::new(),
            h_prime: Arc::clone(&post.h_join),
            covers: pre.covers.clone(),
            pcs_by_pair: pre.pcs.clone(),
            trees: Memo::new(),
            viable: Memo::new(),
            survivors: Memo::new(),
            cache_enabled: true,
        }
    }

    /// Disable the enumeration cache: every memoized accessor computes
    /// directly, reproducing PR 1's plain indexed behaviour. For
    /// benchmarking the cache's contribution; results are identical
    /// either way (the cache memoizes deterministic functions).
    pub fn without_cache(mut self) -> Self {
        self.cache_enabled = false;
        self
    }

    /// Aggregate hit/miss counters across all memo tables.
    pub fn cache_stats(&self) -> CacheStats {
        let mut s = CacheStats::default();
        for (h, m) in [
            (&self.trees.hits, &self.trees.misses),
            (&self.viable.hits, &self.viable.misses),
            (&self.survivors.hits, &self.survivors.misses),
        ] {
            s.hits += h.load(Ordering::Relaxed);
            s.misses += m.load(Ordering::Relaxed);
        }
        s
    }

    /// The first `limit` connection trees spanning `terminals` in
    /// `H'(MKB')`, memoized per `(terminal set, max_path_edges, limit)`.
    pub fn enumerate_trees(
        &self,
        terminals: &BTreeSet<RelName>,
        limit: usize,
        max_path_edges: usize,
    ) -> Arc<Vec<ConnectionTree>> {
        self.enumerate_trees_interned(
            self.intern_terminals(terminals).as_ref(),
            terminals,
            limit,
            max_path_edges,
        )
    }

    /// [`MkbIndex::enumerate_trees`] with the terminal set already
    /// interned over `H'(MKB')` (`None` when some terminal is not a
    /// vertex). Lets the replacement stream intern each combination's
    /// terminals once instead of on every chunked re-request. `interned`
    /// must be the interning of `terminals`.
    pub(crate) fn enumerate_trees_interned(
        &self,
        interned: Option<&RelSet>,
        terminals: &BTreeSet<RelName>,
        limit: usize,
        max_path_edges: usize,
    ) -> Arc<Vec<ConnectionTree>> {
        crate::faults::hit("index.enumerate-trees");
        debug_assert_eq!(interned, self.intern_terminals(terminals).as_ref());
        let enumerate = || {
            let mut span = eve_telemetry::span("tree-enumeration");
            span.field("terminals", terminals.len() as u64);
            let trees: Vec<ConnectionTree> = self
                .h_prime
                .tree_cursor(terminals, max_path_edges)
                .take(limit)
                .collect();
            span.field("yielded", trees.len() as u64);
            Arc::new(trees)
        };
        match (self.cache_enabled, interned) {
            (true, Some(ids)) => self
                .trees
                .get_or_insert_with((ids.clone(), max_path_edges, limit), enumerate),
            // Cache off, or an absent terminal (the stream is
            // deterministically empty — nothing worth memoizing):
            // compute directly.
            _ => enumerate(),
        }
    }

    /// Do the interned `H'(MKB')` vertices `ids` all lie in one connected
    /// component? A connection tree spanning them exists only then. The
    /// first call labels `H'(MKB')`'s components; later ones read them.
    pub(crate) fn in_one_component(&self, ids: &RelSet) -> bool {
        let mut comps = ids.iter().map(|id| self.h_prime.component_index(id));
        match comps.next() {
            Some(first) => comps.all(|c| c == first),
            None => true,
        }
    }

    /// The viable covers for `attr` under `delete-relation target`:
    /// [`MkbIndex::covers_of`] filtered to sources distinct from `target`
    /// and alive in `H'(MKB')` (Def. 3 IV). Memoized per `(attr, target)`.
    pub fn viable_covers(&self, attr: &AttrRef, target: &RelName) -> Arc<Vec<CoverChoice>> {
        let filter = || {
            Arc::new(
                self.covers_of(attr)
                    .iter()
                    .filter(|c| &c.source != target && self.h_prime.contains(&c.source))
                    .cloned()
                    .collect::<Vec<_>>(),
            )
        };
        if !self.cache_enabled {
            return filter();
        }
        // The attribute's rank among the cover keys (ascending AttrRef
        // order) is its id: deterministic across builds.
        match (self.covers.rank(attr), self.h.rel_id(target)) {
            (Ok(aid), Some(tid)) => self.viable.get_or_insert_with((aid as u32, tid), filter),
            // An attribute with no covers, or an undescribed target:
            // the filter is trivially cheap (empty or unfilterable) —
            // compute directly.
            _ => filter(),
        }
    }

    /// The relations of `Min(H_R)` that survive `delete-relation target`
    /// (Def. 3 III). Memoized per `(Min(H_R) relation set, target)` —
    /// views sharing an affected region share the survival set.
    pub fn survival_set(
        &self,
        min_relations: &BTreeSet<RelName>,
        target: &RelName,
    ) -> Arc<BTreeSet<RelName>> {
        let filter = || {
            Arc::new(
                min_relations
                    .iter()
                    .filter(|r| *r != target)
                    .cloned()
                    .collect::<BTreeSet<_>>(),
            )
        };
        if !self.cache_enabled {
            return filter();
        }
        let interned: Option<(RelSet, RelId)> = self.h.rel_id(target).and_then(|tid| {
            min_relations
                .iter()
                .map(|r| self.h.rel_id(r))
                .collect::<Option<Vec<RelId>>>()
                .map(|ids| (RelSet::from_ids(self.h.rel_count(), ids), tid))
        });
        match interned {
            Some(key) => self.survivors.get_or_insert_with(key, filter),
            // Relations outside `H(MKB)` have no ids; the filter is a
            // single pass — compute directly.
            None => filter(),
        }
    }

    /// The pre-change MKB the index was built from.
    pub fn mkb(&self) -> &'m MetaKnowledgeBase {
        self.mkb
    }

    /// The evolved MKB' the rewritings must be legal against.
    pub fn mkb_prime(&self) -> &'m MetaKnowledgeBase {
        self.mkb_prime
    }

    /// The full join-constraint hypergraph `H(MKB)` (pre-change).
    pub fn hypergraph(&self) -> &Hypergraph {
        &self.h
    }

    /// The capability-filtered post-change hypergraph `H'(MKB')` used by
    /// R-replacement (Def. 3): only join-capable relations are vertices.
    pub fn h_prime(&self) -> &Hypergraph {
        &self.h_prime
    }

    /// The connected component of `H(MKB)` containing `rel`, or `None`
    /// when the relation is not described in the MKB. The first call
    /// extracts the component from `H(MKB)`'s CSR and the index keeps it,
    /// so every view of a `delete-relation R` shares one `H_R`; a
    /// relation of another component gets its component extracted afresh.
    pub fn component_of(&self, rel: &RelName) -> Option<Arc<Hypergraph>> {
        let id = self.h.rel_id(rel)?;
        let extract = || Arc::new(self.h.component_containing(id));
        let h_r = self.h_r.get_or_init(extract);
        Some(if h_r.contains(rel) {
            Arc::clone(h_r)
        } else {
            extract()
        })
    }

    /// Intern a terminal set over `H'(MKB')`, or `None` when some
    /// terminal is not a vertex there (in which case every graph search
    /// over the set deterministically yields nothing).
    pub(crate) fn intern_terminals(&self, terminals: &BTreeSet<RelName>) -> Option<RelSet> {
        let mut set = self.h_prime.relset();
        for t in terminals {
            set.insert(self.h_prime.rel_id(t)?);
        }
        Some(set)
    }

    /// The interned `H'(MKB')` id of `rel`, when it is a vertex there.
    pub(crate) fn rel_id_prime(&self, rel: &RelName) -> Option<RelId> {
        self.h_prime.rel_id(rel)
    }

    /// Raw function-of covers for `attr` (declaration order), restricted
    /// to function-ofs with a single well-defined source relation.
    pub fn covers_of(&self, attr: &AttrRef) -> &[CoverChoice] {
        self.covers.get(attr).map_or(&[], |c| c.as_slice())
    }

    /// Partial/complete constraints relating relations `a` and `b`, in
    /// either orientation, in MKB declaration order.
    pub fn pcs_between(&self, a: &RelName, b: &RelName) -> &[PartialComplete] {
        self.pcs_by_pair
            .get(&pair_key(a, b))
            .map_or(&[], |b| b.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::travel_mkb;
    use eve_relational::AttrRef;

    #[test]
    fn index_matches_direct_mkb_lookups() {
        let mkb = travel_mkb();
        let index = MkbIndex::new(&mkb, &mkb);

        // Hypergraph matches a direct build.
        assert_eq!(index.hypergraph(), &Hypergraph::build(&mkb));

        // Every described relation gets its component of `H(MKB)`; the
        // first one asked for is kept and shared.
        let h = index.hypergraph();
        let components = h.components();
        for desc in mkb.relations() {
            let comp = index.component_of(&desc.name).expect("described");
            let id = h.rel_id(&desc.name).unwrap();
            assert_eq!(*comp, components[h.component_index(id) as usize]);
        }
        let first = &mkb.relations().next().unwrap().name;
        let kept = index.component_of(first).unwrap();
        assert!(Arc::ptr_eq(&kept, &index.component_of(first).unwrap()));
        assert!(index
            .component_of(&RelName::new("NoSuchRelation"))
            .is_none());

        // Covers mirror `covers_of` on the MKB.
        for f in mkb.function_ofs() {
            if f.source_relation().is_none() {
                continue;
            }
            let covers = index.covers_of(&f.target);
            assert!(
                covers.iter().any(|c| c.funcof_id == f.id),
                "cover {} missing from index",
                f.id
            );
        }
        assert!(index
            .covers_of(&AttrRef::new("Nowhere", "Nothing"))
            .is_empty());

        // PC buckets partition the full constraint list.
        let mut total = 0;
        for a in mkb.relations() {
            for b in mkb.relations().filter(|b| a.name <= b.name) {
                total += index.pcs_between(&a.name, &b.name).len();
            }
        }
        assert_eq!(total, mkb.pcs().len());
    }

    #[test]
    fn memo_hits_on_repeat_and_matches_uncached() {
        let mkb = travel_mkb();
        let index = MkbIndex::new(&mkb, &mkb);
        let raw = MkbIndex::new(&mkb, &mkb).without_cache();

        let terminals: BTreeSet<RelName> =
            index.hypergraph().relations().take(2).cloned().collect();
        assert_eq!(terminals.len(), 2, "travel MKB has at least 2 relations");

        let cold = index.enumerate_trees(&terminals, 4, usize::MAX);
        let warm = index.enumerate_trees(&terminals, 4, usize::MAX);
        assert_eq!(cold, warm);
        assert_eq!(*cold, *raw.enumerate_trees(&terminals, 4, usize::MAX));
        // Second lookup was a hit; Arc is shared, not recomputed.
        assert!(Arc::ptr_eq(&cold, &warm));
        let stats = index.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // The uncached index never counts anything.
        assert_eq!(raw.cache_stats(), CacheStats::default());

        // Different bounds are different keys.
        let narrower = index.enumerate_trees(&terminals, 1, usize::MAX);
        assert!(narrower.len() <= cold.len());
        assert_eq!(index.cache_stats().misses, 2);

        // A terminal outside `H'` bypasses the memo: no tree, no count.
        let mut disconnected = terminals.clone();
        disconnected.insert(RelName::new("NoSuchRelation"));
        assert!(index
            .enumerate_trees(&disconnected, 4, usize::MAX)
            .is_empty());
        assert_eq!(index.cache_stats().misses, 2);
    }

    #[test]
    fn tree_cache_matches_uncached_at_every_limit() {
        let mkb = travel_mkb();
        let index = MkbIndex::new(&mkb, &mkb);
        let raw = MkbIndex::new(&mkb, &mkb).without_cache();

        let terminals: BTreeSet<RelName> =
            index.hypergraph().relations().take(2).cloned().collect();
        // Narrow, widen, narrow again: every answer must match a
        // cache-free enumeration at the same limit, whatever the cache
        // holds for other limits.
        for limit in [1usize, 3, 2, 8, 4, usize::MAX] {
            assert_eq!(
                *index.enumerate_trees(&terminals, limit, usize::MAX),
                *raw.enumerate_trees(&terminals, limit, usize::MAX),
                "limit={limit}"
            );
        }
    }

    #[test]
    fn viable_covers_and_survival_sets_match_uncached() {
        let mkb = travel_mkb();
        let index = MkbIndex::new(&mkb, &mkb);
        let raw = MkbIndex::new(&mkb, &mkb).without_cache();

        for f in mkb.function_ofs() {
            for desc in mkb.relations() {
                let cached = index.viable_covers(&f.target, &desc.name);
                assert_eq!(*cached, *raw.viable_covers(&f.target, &desc.name));
                for c in cached.iter() {
                    assert_ne!(c.source, desc.name);
                    assert!(index.h_prime().contains(&c.source));
                }
            }
        }

        let all: BTreeSet<RelName> = mkb.relations().map(|d| d.name.clone()).collect();
        for desc in mkb.relations() {
            let s = index.survival_set(&all, &desc.name);
            assert!(!s.contains(&desc.name));
            assert_eq!(s.len(), all.len() - 1);
            assert_eq!(*s, *raw.survival_set(&all, &desc.name));
        }
        // Warm pass over the same keys is all hits.
        let before = index.cache_stats();
        for desc in mkb.relations() {
            index.survival_set(&all, &desc.name);
        }
        let after = index.cache_stats();
        assert_eq!(after.misses, before.misses);
        assert!(after.hits > before.hits);
    }

    #[test]
    fn h_prime_respects_capabilities() {
        let mkb = travel_mkb();
        let index = MkbIndex::new(&mkb, &mkb);
        // `H'` keeps exactly the join-capable relations.
        for desc in mkb.relations() {
            assert_eq!(index.h_prime().contains(&desc.name), desc.capabilities.join);
        }
    }
}
