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
//! [`IndexCore::apply_delta`] — a patch that extracts only the touched
//! components afresh, rewrites only the cover-map and PC-bucket keys
//! whose constraints the change edited, and shares everything else.
//! [`MkbIndex::new`] remains the from-scratch constructor
//! (one-shot/what-if uses, and the rebuild oracle the equivalence
//! property suite compares against).
//!
//! The index *borrows* both MKBs (`MkbIndex<'m>`), so constructing a
//! throwaway index never clones a knowledge base.
//!
//! ## Per-change enumeration cache
//!
//! Beyond the precomputed maps, the index carries a **memoization layer**
//! for the expensive graph searches that R-replacement repeats across
//! views: connection-tree enumeration over `H'(MKB')`
//! ([`MkbIndex::enumerate_trees`]), greedy single-tree connection
//! ([`MkbIndex::connect_tree`]), viable-cover filtering
//! ([`MkbIndex::viable_covers`]) and `Min(H_R)` survival sets
//! ([`MkbIndex::survival_set`]). Views registered against the same
//! information space overwhelmingly share terminal sets (they draw on the
//! same relations), so under one `delete-relation R` the second view
//! asking for the trees spanning `{S, T, U}` hits the memo instead of
//! re-walking `H'`.
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
use eve_hypergraph::{ConnectionTree, GraphDelta, Hypergraph, RelId, RelSet, TreeCursor};
use eve_misd::{MetaKnowledgeBase, PartialComplete};
use eve_relational::{AttrRef, RelName};
use std::collections::hash_map::RandomState;
use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasher, Hash};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

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

    fn shard(&self, key: &K) -> &RwLock<HashMap<K, V>> {
        let h = self.hasher.hash_one(key) as usize;
        &self.shards[h % MEMO_SHARDS]
    }

    fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> V {
        let shard = self.shard(&key);
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

    /// Fetch the entry for `key` without touching the hit/miss
    /// counters, inserting `default()` on first sight. Used by the
    /// prefix-serving tree cache, which accounts hits at the prefix
    /// level (a present-but-too-short prefix is a miss, not a hit).
    fn entry_uncounted(&self, key: K, default: impl FnOnce() -> V) -> V {
        let shard = self.shard(&key);
        if let Some(v) = shard.read().unwrap_or_else(|e| e.into_inner()).get(&key) {
            return v.clone();
        }
        let v = default();
        shard
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .entry(key)
            .or_insert(v)
            .clone()
    }

    fn count_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    fn count_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Drop every entry whose key fails `keep`. Used when a memo table
    /// is carried across a capability change: entries touching the
    /// changed region are invalidated, the rest stay warm.
    fn retain(&self, mut keep: impl FnMut(&K) -> bool) {
        for shard in &self.shards {
            shard
                .write()
                .unwrap_or_else(|e| e.into_inner())
                .retain(|k, _| keep(k));
        }
    }

    /// Zero the hit/miss counters, so a carried table reports only the
    /// activity of the change it now serves.
    fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
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

/// Memo key for tree searches: the terminal set as an interned-id
/// bitset over `H'(MKB')` (a 32-byte inline value for graphs of ≤ 256
/// relations — probing the memo hashes four words instead of a
/// `Vec<RelName>` of cloned strings), plus the hop bound that shapes
/// the search. The *tree limit* is deliberately not part of the key:
/// tree enumeration is a deterministic stream, so one cached prefix
/// serves every requested limit (see [`TreePrefix`]).
///
/// Terminal sets containing a relation that is not a vertex of
/// `H'(MKB')` have no interned key; every graph search over such a set
/// deterministically yields nothing, so those calls bypass the memo and
/// return the empty answer directly.
type TreeKey = (RelSet, usize);

/// A growable cached prefix of the deterministic connection-tree stream
/// for one `(terminal set, hop bound)` key.
///
/// [`eve_hypergraph::TreeCursor`] yields trees in a fixed order, so
/// the first `n` trees requested by one view are a prefix of the first
/// `m ≥ n` trees requested by another — the cache stores the longest
/// prefix seen so far and serves any shorter request by truncation,
/// extending (by re-running the cursor, which is pure) only when a
/// longer prefix is demanded. `exhausted` records that the stream
/// ended, making the prefix the complete answer for every limit.
#[derive(Debug, Default)]
struct TreePrefix {
    trees: Arc<Vec<ConnectionTree>>,
    exhausted: bool,
}

impl TreePrefix {
    /// Can this prefix answer a request for `limit` trees exactly?
    fn serves(&self, limit: usize) -> bool {
        self.exhausted || self.trees.len() >= limit
    }

    /// The answer for `limit` trees. Shares the stored allocation
    /// whenever the stored prefix *is* the answer.
    fn serve(&self, limit: usize) -> Arc<Vec<ConnectionTree>> {
        if self.trees.len() <= limit {
            Arc::clone(&self.trees)
        } else {
            Arc::new(self.trees[..limit].to_vec())
        }
    }
}

/// Precomputed, read-only derived state for one capability change.
///
/// Built by [`MkbIndex::new`] from the pre-change MKB and the evolved
/// MKB'. All accessors are cheap lookups; nothing is recomputed after
/// construction.
#[derive(Debug)]
pub struct MkbIndex<'m> {
    mkb: &'m MetaKnowledgeBase,
    mkb_prime: &'m MetaKnowledgeBase,
    /// The full join-constraint hypergraph `H(MKB)` over the pre-change
    /// MKB. `Arc`-shared with the [`IndexCore`] chain under delta
    /// maintenance.
    h: Arc<Hypergraph>,
    /// Connected components of `h`, indexed by `h`'s precomputed
    /// per-vertex component number (no name→component map needed: the
    /// interner resolves a relation to its component in two array
    /// lookups). Each component is individually `Arc`ed so delta
    /// maintenance can reuse untouched ones across changes.
    components: Arc<Vec<Arc<Hypergraph>>>,
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
    /// Memoized prefixes of the connection-tree stream over `h_prime`,
    /// keyed by `(terminal set, hop bound)`; any requested tree limit
    /// is served from (or extends) the cached prefix.
    trees: Memo<TreeKey, Arc<RwLock<TreePrefix>>>,
    /// Memoized [`Hypergraph::connect_tree`] over `h_prime`, keyed by
    /// `(terminal id set, hop bound)`. Negative results (`None`:
    /// disconnected terminals) are cached too.
    connects: Memo<(RelSet, usize), Option<Arc<ConnectionTree>>>,
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

/// Warm memo tables extracted from a spent [`MkbIndex`] so the next
/// change's index can start from them instead of cold
/// ([`MkbIndex::into_carry`] / [`MkbIndex::from_cores`]).
///
/// Only the `H'(MKB')`-keyed tables (trees, connects) are carried — and
/// only when the change left `H'` intact (`add-attribute`) or touched
/// it attribute-locally (`delete-attribute`/`rename-attribute`, where
/// the synchronizer's filter evicts every entry whose component the
/// change touched). Vertex-level changes re-intern the graph, so
/// nothing survives them.
#[derive(Debug)]
pub struct MemoCarry {
    /// The `H'` the carried tables were computed over (interner owner of
    /// every `RelSet`/`RelId` key).
    h_prime: Arc<Hypergraph>,
    trees: Memo<TreeKey, Arc<RwLock<TreePrefix>>>,
    connects: Memo<(RelSet, usize), Option<Arc<ConnectionTree>>>,
}

impl MemoCarry {
    /// Filter this carry for the change that produced `new_h_prime` from
    /// the carried `H'` (described by `delta`, the change's projection
    /// onto that graph). Returns `None` when nothing can be carried —
    /// any vertex-level change, or a graph with another interner (memo
    /// keys are interned ids, which name the same vertices only under
    /// the same interner; delta maintenance shares it whenever the
    /// vertex set is kept).
    pub(crate) fn retained(
        self,
        delta: &GraphDelta,
        new_h_prime: &Hypergraph,
    ) -> Option<MemoCarry> {
        if !self.h_prime.shares_interner(new_h_prime) {
            return None;
        }
        let attr = match delta {
            // `H'` unchanged: every entry is still exact.
            GraphDelta::None => return Some(self),
            GraphDelta::RemoveAttrEdges(a) => a,
            GraphDelta::RenameAttr { from, .. } => from,
            // Vertex-level change: the interner (and thus every key)
            // is invalidated wholesale.
            _ => return None,
        };
        // Cached answers embed join-constraint values, so every entry
        // whose component contains an edge mentioning `attr` is stale;
        // entries confined to other components saw no edge change (a
        // capability change never adds edges) and stay warm.
        let old = &self.h_prime;
        let touched_comps: BTreeSet<u32> = old
            .edges_mentioning_attr(attr)
            .into_iter()
            .map(|e| old.component_index(old.join_endpoints(e).0))
            .collect();
        if touched_comps.is_empty() {
            return Some(self);
        }
        let mut affected = old.relset();
        for v in 0..old.rel_count() {
            if touched_comps.contains(&old.component_index(v as RelId)) {
                affected.insert(v as RelId);
            }
        }
        self.connects.retain(|(s, _)| !s.intersects(&affected));
        self.trees.retain(|(s, _)| !s.intersects(&affected));
        Some(self)
    }
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
        let h = Arc::new(Hypergraph::build(mkb));
        let components = Arc::new(h.components().into_iter().map(Arc::new).collect::<Vec<_>>());
        let h_prime = Arc::new(Hypergraph::build_filtered(mkb_prime, |desc| {
            desc.capabilities.join
        }));
        MkbIndex {
            mkb,
            mkb_prime,
            h,
            components,
            h_prime,
            covers: build_covers(mkb),
            pcs_by_pair: build_pcs(mkb),
            trees: Memo::new(),
            connects: Memo::new(),
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
    /// in `tests/delta_equivalence.rs`). `carry`, when present, seeds the
    /// `H'`-keyed memo tables from the previous change's index (already
    /// filtered against this change by the synchronizer) — memoized
    /// functions are pure, so a warm start changes latency, never
    /// answers.
    pub fn from_cores(
        mkb: &'m MetaKnowledgeBase,
        mkb_prime: &'m MetaKnowledgeBase,
        pre: &IndexCore,
        post: &IndexCore,
        carry: Option<MemoCarry>,
    ) -> Self {
        let mut span = eve_telemetry::span("index-from-cores");
        span.field("relations", mkb.relation_count() as u64);
        span.field("carried", carry.is_some() as u64);
        eve_telemetry::counter_add("index.delta_builds", 1);
        // Distinct from `index.build` (the full-rebuild path) so fault
        // plans can address delta maintenance specifically.
        crate::faults::hit("index.delta-build");
        let h_prime = Arc::clone(&post.h_join);
        let (trees, connects) = match carry {
            Some(c) => {
                debug_assert!(
                    c.h_prime.shares_interner(&h_prime),
                    "carry must be pre-filtered against the new H'"
                );
                c.trees.reset_stats();
                c.connects.reset_stats();
                (c.trees, c.connects)
            }
            None => (Memo::new(), Memo::new()),
        };
        MkbIndex {
            mkb,
            mkb_prime,
            h: Arc::clone(&pre.h),
            components: Arc::clone(&pre.components),
            h_prime,
            covers: pre.covers.clone(),
            pcs_by_pair: pre.pcs.clone(),
            trees,
            connects,
            viable: Memo::new(),
            survivors: Memo::new(),
            cache_enabled: true,
        }
    }

    /// Consume the index, extracting the memo tables a successor index
    /// may start warm from. The synchronizer filters the result against
    /// the next change before handing it to [`MkbIndex::from_cores`].
    pub fn into_carry(self) -> MemoCarry {
        MemoCarry {
            h_prime: self.h_prime,
            trees: self.trees,
            connects: self.connects,
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
            (&self.connects.hits, &self.connects.misses),
            (&self.viable.hits, &self.viable.misses),
            (&self.survivors.hits, &self.survivors.misses),
        ] {
            s.hits += h.load(Ordering::Relaxed);
            s.misses += m.load(Ordering::Relaxed);
        }
        s
    }

    /// The first `limit` connection trees spanning `terminals` in
    /// `H'(MKB')`, memoized per `(terminal set, max_path_edges)` with
    /// prefix sharing: the cache stores the longest prefix of the
    /// deterministic tree stream computed so far, serving shorter
    /// requests by truncation and extending only when a longer prefix
    /// is demanded. A request answerable from the stored prefix counts
    /// as a hit; first sight or an extension counts as a miss.
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
        let key_set = match (self.cache_enabled, interned) {
            (true, Some(k)) => k,
            // Cache off, or an absent terminal (the stream is
            // deterministically empty — nothing worth memoizing):
            // compute directly.
            _ => {
                let mut span = eve_telemetry::span("tree-enumeration");
                span.field("terminals", terminals.len() as u64);
                let trees: Vec<ConnectionTree> =
                    TreeCursor::new(&self.h_prime, terminals, max_path_edges)
                        .take(limit)
                        .collect();
                span.field("yielded", trees.len() as u64);
                return Arc::new(trees);
            }
        };
        let key = (key_set.clone(), max_path_edges);
        let cell = self
            .trees
            .entry_uncounted(key, || Arc::new(RwLock::new(TreePrefix::default())));
        {
            let prefix = cell.read().unwrap_or_else(|e| e.into_inner());
            if prefix.serves(limit) {
                self.trees.count_hit();
                return prefix.serve(limit);
            }
        }
        self.trees.count_miss();
        let mut span = eve_telemetry::span("tree-enumeration");
        span.field("terminals", terminals.len() as u64);
        let mut prefix = cell.write().unwrap_or_else(|e| e.into_inner());
        if !prefix.serves(limit) {
            // Extend by re-running the pure stream from the start — the
            // cursor is deterministic, so the new prefix agrees with the
            // old one on every position it already covered.
            let mut cursor = self.h_prime.tree_cursor(terminals, max_path_edges);
            let mut trees = Vec::new();
            let mut exhausted = false;
            while trees.len() < limit {
                match cursor.next() {
                    Some(t) => trees.push(t),
                    None => {
                        exhausted = true;
                        break;
                    }
                }
            }
            prefix.trees = Arc::new(trees);
            prefix.exhausted = exhausted;
        }
        span.field("yielded", prefix.trees.len() as u64);
        prefix.serve(limit)
    }

    /// Do the interned `H'(MKB')` vertices `ids` all lie in one connected
    /// component? A connection tree spanning them exists only then.
    pub(crate) fn in_one_component(&self, ids: &RelSet) -> bool {
        let mut comps = ids.iter().map(|id| self.h_prime.component_index(id));
        match comps.next() {
            Some(first) => comps.all(|c| c == first),
            None => true,
        }
    }

    /// The greedy connection tree spanning `terminals` in `H'(MKB')`
    /// (`None` when disconnected), memoized per `(terminal set,
    /// max_path_edges)` — negative answers included.
    pub fn connect_tree(
        &self,
        terminals: &BTreeSet<RelName>,
        max_path_edges: usize,
    ) -> Option<Arc<ConnectionTree>> {
        let key_set = match (self.cache_enabled, self.intern_terminals(terminals)) {
            (true, Some(k)) => k,
            // Cache off, or an absent terminal (never connectable —
            // `None` without running the search).
            (false, _) => {
                return self
                    .h_prime
                    .connect_tree(terminals, max_path_edges)
                    .map(Arc::new);
            }
            (true, None) => return None,
        };
        self.connects
            .get_or_insert_with((key_set, max_path_edges), || {
                self.h_prime
                    .connect_tree(terminals, max_path_edges)
                    .map(Arc::new)
            })
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
    /// when the relation is not described in the MKB. Two array lookups
    /// via the interner and the precomputed component index.
    pub fn component_of(&self, rel: &RelName) -> Option<&Hypergraph> {
        let id = self.h.rel_id(rel)?;
        Some(self.components[self.h.component_index(id) as usize].as_ref())
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

        // Every described relation has a component, and the component
        // contains the relation.
        for desc in mkb.relations() {
            let comp = index
                .component_of(&desc.name)
                .expect("described => component");
            assert!(comp.contains(&desc.name));
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

        // connect_tree caches negative answers too.
        let mut disconnected = terminals.clone();
        disconnected.insert(RelName::new("NoSuchRelation"));
        assert!(index.connect_tree(&disconnected, usize::MAX).is_none());
        assert!(index.connect_tree(&disconnected, usize::MAX).is_none());
        assert_eq!(
            index
                .connect_tree(&terminals, usize::MAX)
                .map(|t| (*t).clone()),
            raw.connect_tree(&terminals, usize::MAX)
                .map(|t| (*t).clone())
        );
    }

    #[test]
    fn tree_cache_serves_any_limit_from_one_prefix() {
        let mkb = travel_mkb();
        let index = MkbIndex::new(&mkb, &mkb);
        let raw = MkbIndex::new(&mkb, &mkb).without_cache();

        let terminals: BTreeSet<RelName> =
            index.hypergraph().relations().take(2).cloned().collect();
        // Narrow, widen, narrow again: every answer must match a
        // cache-free enumeration at the same limit, whatever prefix the
        // cache happens to hold.
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
