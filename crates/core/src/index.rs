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
//! [`IndexCore::apply_delta`] — a patch that rewrites only the shards
//! and the cover-map and PC-bucket keys the change touched, and shares
//! everything else. [`MkbIndex::new`] remains the from-scratch
//! constructor (one-shot/what-if uses, and the rebuild oracle the
//! equivalence property suite compares against).
//!
//! Both graphs are sharded by connected component
//! ([`crate::ShardedGraph`]), and CVS only ever searches inside one
//! component. `H_R`, the component of `H(MKB)` holding the deleted
//! relation (Step 1, Def. 2), is R's pre-change shard, served as it is.
//! Tree enumeration, connection trees and the connectivity test of a
//! terminal set run inside the post-change shard of `H'(MKB')` that
//! holds the terminals: terminals in two shards lie in two components,
//! so no tree spans them. No graph of the whole MKB is built or
//! labelled, and a component of at most 256 relations keeps every
//! [`RelSet`] of the search inline.
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
//! Ids are local to a shard, so two shards intern different terminal
//! sets alike (after `delete-relation C` on a chain A–B–C–D–E, the parts
//! {A,B} and {D,E} are both `{0,1}`): every memo key names its shard.
//!
//! The memo tables are sharded `RwLock<HashMap>`s: the hot path is a
//! short shared-read lock per lookup, writers only contend on their own
//! shard, and a compute race between two workers is benign because every
//! memoized function is a pure, deterministic function of its key — both
//! racers produce the identical value and first-write-wins. Cached or
//! not, callers observe byte-identical results, which is what lets the
//! parallel synchronizer share one index across workers.

use crate::delta::{build_covers, build_pcs, pair_key, Covers, IndexCore, PcBuckets, ShardedGraph};
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

/// A terminal set interned over `H'(MKB')`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Terminals {
    /// No terminal yet.
    Empty,
    /// Every terminal lies in the shard of this id, with these ids
    /// there.
    In(u32, RelSet),
    /// The terminals lie in several shards, so in several components:
    /// no connection tree spans them.
    Split,
}

/// The graph with no vertex: what a terminal set that no shard holds
/// is searched in, so the search runs (and finds nothing) as it would
/// in a graph of the whole MKB.
fn empty_graph() -> &'static Hypergraph {
    static EMPTY: OnceLock<Hypergraph> = OnceLock::new();
    EMPTY.get_or_init(|| Hypergraph::from_parts(BTreeSet::new(), Vec::new()))
}

/// Precomputed, read-only derived state for one capability change.
///
/// Built by [`MkbIndex::new`] from the pre-change MKB and the evolved
/// MKB', or assembled by [`MkbIndex::from_cores`] from delta-maintained
/// cores. Accessors are lookups: every graph a search reads is a shard
/// the index already holds.
#[derive(Debug)]
pub struct MkbIndex<'m> {
    mkb: &'m MetaKnowledgeBase,
    mkb_prime: &'m MetaKnowledgeBase,
    /// The join-constraint hypergraph `H(MKB)` over the pre-change MKB,
    /// sharded by component. Shared with the [`IndexCore`] chain under
    /// delta maintenance.
    h: ShardedGraph,
    /// `H'(MKB')`: the post-change hypergraph, restricted to join-capable
    /// relations, sharded by component.
    h_prime: ShardedGraph,
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
    /// `(shard id, terminal set, hop bound, tree limit)`. The terminal
    /// set is a bitset of the shard's ids (four inline words for shards
    /// of ≤ 256 relations), so a probe hashes words, not names.
    trees: Memo<(u32, RelSet, usize, usize), Arc<Vec<ConnectionTree>>>,
    /// Memoized viable-cover lists, keyed by `(cover-attribute id,
    /// shard id, deleted relation id)` — the Def. 3 (IV) filter of
    /// `covers` against `h_prime`.
    viable: Memo<(u32, u32, RelId), Arc<Vec<CoverChoice>>>,
    /// Memoized `Min(H_R)` survival sets, keyed by `(shard id,
    /// Min(H_R) relation id set, deleted relation id)` over the shard of
    /// `H(MKB)` holding the deleted relation.
    survivors: Memo<(u32, RelSet, RelId), Arc<BTreeSet<RelName>>>,
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
        MkbIndex {
            mkb,
            mkb_prime,
            h: ShardedGraph::build(mkb, |_| true),
            h_prime: ShardedGraph::build(mkb_prime, |d| d.capabilities.join),
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
    /// shared — no hypergraph build, no constraint scan.
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
            h: pre.h.clone(),
            h_prime: post.h_join.clone(),
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
    /// `H'(MKB')`, memoized per `(shard, terminal set, max_path_edges,
    /// limit)`.
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
        interned: Option<&Terminals>,
        terminals: &BTreeSet<RelName>,
        limit: usize,
        max_path_edges: usize,
    ) -> Arc<Vec<ConnectionTree>> {
        crate::faults::hit("index.enumerate-trees");
        debug_assert_eq!(interned, self.intern_terminals(terminals).as_ref());
        // The shard holding every terminal; a set that no shard holds
        // is searched in the empty graph, and spans nothing there.
        let graph = match interned {
            Some(Terminals::In(shard, _)) => self.h_prime.shard(*shard),
            _ => empty_graph(),
        };
        let enumerate = || {
            let mut span = eve_telemetry::span("tree-enumeration");
            span.field("terminals", terminals.len() as u64);
            let trees: Vec<ConnectionTree> = graph
                .tree_cursor(terminals, max_path_edges)
                .take(limit)
                .collect();
            span.field("yielded", trees.len() as u64);
            Arc::new(trees)
        };
        match (self.cache_enabled, interned) {
            (true, Some(Terminals::In(shard, ids))) => self
                .trees
                .get_or_insert_with((*shard, ids.clone(), max_path_edges, limit), enumerate),
            // Cache off, or terminals no shard holds (the stream is
            // deterministically empty — nothing worth memoizing):
            // compute directly.
            _ => enumerate(),
        }
    }

    /// Add `rel` to an interned terminal set; `false` when it is not a
    /// vertex of `H'(MKB')`.
    pub(crate) fn add_terminal(&self, set: &mut Terminals, rel: &RelName) -> bool {
        // A relation lies in one shard, so the set's own shard is asked
        // first, and the router (a string-keyed map) only when it does
        // not hold `rel`.
        if let Terminals::In(at, ids) = set {
            if let Some(local) = self.h_prime.shard(*at).rel_id(rel) {
                ids.insert(local);
                return true;
            }
        }
        let Some((id, shard)) = self.h_prime.locate(rel) else {
            return false;
        };
        if *set == Terminals::Empty {
            let mut ids = shard.relset();
            ids.insert(shard.rel_id(rel).expect("a shard holds what routes to it"));
            *set = Terminals::In(id, ids);
        } else {
            *set = Terminals::Split;
        }
        true
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
        let target = self
            .h
            .locate(target)
            .map(|(shard, g)| (shard, g.rel_id(target).expect("routed")));
        match (self.covers.rank(attr), target) {
            (Ok(aid), Some((shard, tid))) => self
                .viable
                .get_or_insert_with((aid as u32, shard, tid), filter),
            // An attribute with no covers, or an undescribed target:
            // the filter is trivially cheap (empty or unfilterable) —
            // compute directly.
            _ => filter(),
        }
    }

    /// The relations of `Min(H_R)` that survive `delete-relation target`
    /// (Def. 3 III). Memoized per `(Min(H_R) relation set, target)` —
    /// views sharing an affected region share the survival set. The key
    /// holds ids of `H_R`, the target's shard, so a set with a relation
    /// outside `H_R` (which `Min(H_R)` never has) skips the memo: it is
    /// filtered directly, and counts as neither a hit nor a miss.
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
        let interned = self.h.locate(target).and_then(|(shard, h_r)| {
            let ids = min_relations
                .iter()
                .map(|r| h_r.rel_id(r))
                .collect::<Option<Vec<RelId>>>()?;
            let tid = h_r.rel_id(target).expect("routed");
            Some((shard, RelSet::from_ids(h_r.rel_count(), ids), tid))
        });
        match interned {
            Some(key) => self.survivors.get_or_insert_with(key, filter),
            // Relations outside `H_R` have no ids there (`Min(H_R)` never
            // holds one); the filter is a single pass — compute directly.
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

    /// Is `rel` a vertex of the capability-filtered post-change
    /// hypergraph `H'(MKB')` used by R-replacement (Def. 3), i.e. a
    /// join-capable relation of MKB'?
    pub fn in_h_prime(&self, rel: &RelName) -> bool {
        self.h_prime.contains(rel)
    }

    /// A connection tree of `H'(MKB')` spanning `terminals`, each
    /// attached by at most `max_path_edges` joins
    /// ([`Hypergraph::connect_tree`] in the shard that holds them all),
    /// or `None` when no shard holds them all.
    pub fn connect_tree(
        &self,
        terminals: &BTreeSet<RelName>,
        max_path_edges: usize,
    ) -> Option<ConnectionTree> {
        match self.intern_terminals(terminals)? {
            Terminals::In(shard, _) => self
                .h_prime
                .shard(shard)
                .connect_tree(terminals, max_path_edges),
            Terminals::Empty | Terminals::Split => None,
        }
    }

    /// The connected component of `H(MKB)` containing `rel` — its
    /// pre-change shard, shared as it is — or `None` when the relation
    /// is not described in the MKB.
    pub fn component_of(&self, rel: &RelName) -> Option<Arc<Hypergraph>> {
        self.h.shard_of(rel).cloned()
    }

    /// Intern a terminal set over `H'(MKB')`, or `None` when some
    /// terminal is not a vertex there (in which case every graph search
    /// over the set deterministically yields nothing).
    pub(crate) fn intern_terminals(&self, terminals: &BTreeSet<RelName>) -> Option<Terminals> {
        let mut set = Terminals::Empty;
        for t in terminals {
            if !self.add_terminal(&mut set, t) {
                return None;
            }
        }
        Some(set)
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
    use crate::rewrite::cvs_delete_relation_indexed;
    use crate::testutil::travel_mkb;
    use crate::CvsOptions;
    use eve_esql::parse_view;
    use eve_misd::{evolve, parse_misd, CapabilityChange};
    use eve_relational::AttrRef;

    /// Two relations of one component: the endpoints of the first join.
    fn joined_pair(mkb: &MetaKnowledgeBase) -> BTreeSet<RelName> {
        let j = &mkb.joins()[0];
        [j.left.clone(), j.right.clone()].into_iter().collect()
    }

    #[test]
    fn index_matches_direct_mkb_lookups() {
        let mkb = travel_mkb();
        let index = MkbIndex::new(&mkb, &mkb);

        // The shards are the components of a direct build, and every
        // described relation gets its own, the same `Arc` every time.
        let h = Hypergraph::build(&mkb);
        let components = h.components();
        assert_eq!(index.h.shards().len(), components.len());
        for desc in mkb.relations() {
            let comp = index.component_of(&desc.name).expect("described");
            let id = h.rel_id(&desc.name).unwrap();
            assert_eq!(*comp, components[h.component_index(id) as usize]);
            assert!(Arc::ptr_eq(&comp, &index.component_of(&desc.name).unwrap()));
        }
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
        let terminals = joined_pair(&mkb);

        let cold = index.enumerate_trees(&terminals, 4, usize::MAX);
        let warm = index.enumerate_trees(&terminals, 4, usize::MAX);
        assert_eq!(cold, warm);
        assert!(!cold.is_empty());
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
        let terminals = joined_pair(&mkb);
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
                    assert!(index.in_h_prime(&c.source));
                }
            }
        }

        // A set reaching outside the target's component (the travel
        // relations form two) skips the memo: the same set as uncached,
        // and no hit or miss counted.
        let all: BTreeSet<RelName> = mkb.relations().map(|d| d.name.clone()).collect();
        assert!(index.h.shards().len() > 1);
        let before = index.cache_stats();
        for desc in mkb.relations() {
            let s = index.survival_set(&all, &desc.name);
            assert!(!s.contains(&desc.name));
            assert_eq!(s.len(), all.len() - 1);
            assert_eq!(*s, *raw.survival_set(&all, &desc.name));
        }
        assert_eq!(index.cache_stats(), before);

        // Survival sets of each relation's component.
        for desc in mkb.relations() {
            let comp: BTreeSet<RelName> = index
                .component_of(&desc.name)
                .unwrap()
                .relations()
                .cloned()
                .collect();
            let s = index.survival_set(&comp, &desc.name);
            assert!(!s.contains(&desc.name));
            assert_eq!(s.len(), comp.len() - 1);
            assert_eq!(*s, *raw.survival_set(&comp, &desc.name));
        }
        // Warm pass over the same keys is all hits.
        let before = index.cache_stats();
        for desc in mkb.relations() {
            let comp = index.component_of(&desc.name).unwrap();
            index.survival_set(&comp.relations().cloned().collect(), &desc.name);
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
            assert_eq!(index.in_h_prime(&desc.name), desc.capabilities.join);
        }
    }

    /// After `delete-relation C` on the chain A–B–C–D–E, `H'(MKB')`
    /// holds the parts {A,B} and {D,E}, and each interns as ids {0,1}.
    /// The first view's terminals are {A,B} (survivor B, cover A), the
    /// second's {D,E} (survivor D, cover E): sharing one index, the
    /// second must not be served the first one's trees.
    #[test]
    fn memo_keys_name_the_shard() {
        let mkb = parse_misd(
            "RELATION IS1 A(k int, x int)
             RELATION IS2 B(k int)
             RELATION IS3 C(k int, x int, y int)
             RELATION IS4 D(k int)
             RELATION IS5 E(k int, y int)
             JOIN J1: A, B ON A.k = B.k
             JOIN J2: B, C ON B.k = C.k
             JOIN J3: C, D ON C.k = D.k
             JOIN J4: D, E ON D.k = E.k
             FUNCOF F1: C.x = A.x
             FUNCOF F2: C.y = E.y",
        )
        .unwrap();
        let c = RelName::new("C");
        let mkb_prime = evolve(&mkb, &CapabilityChange::DeleteRelation(c.clone())).unwrap();
        let views = [
            "CREATE VIEW V1 AS SELECT B.k (true, true), C.x (false, true)
             FROM B (true, true), C (true, true) WHERE (B.k = C.k) (true, true)",
            "CREATE VIEW V2 AS SELECT D.k (true, true), C.y (false, true)
             FROM C (true, true), D (true, true) WHERE (C.k = D.k) (true, true)",
        ]
        .map(|v| parse_view(v).unwrap());
        let index = MkbIndex::new(&mkb, &mkb_prime);
        for part in [["A", "B"], ["D", "E"]] {
            let shard = index.h_prime.shard_of(&RelName::new(part[0])).unwrap();
            let ids: Vec<Option<RelId>> = part
                .iter()
                .map(|r| shard.rel_id(&RelName::new(*r)))
                .collect();
            assert_eq!(ids, [Some(0), Some(1)], "{part:?} is a shard of its own");
        }
        let opts = CvsOptions::default();
        for (view, cover) in views.iter().zip(["A", "E"]) {
            let shared = cvs_delete_relation_indexed(view, &c, &index, &opts).unwrap();
            let alone = MkbIndex::new(&mkb, &mkb_prime).without_cache();
            assert_eq!(
                shared,
                cvs_delete_relation_indexed(view, &c, &alone, &opts).unwrap(),
                "{}",
                view.name
            );
            assert!(
                shared[0].view.uses_relation(&RelName::new(cover)),
                "{}",
                shared[0].view
            );
        }
    }
}
