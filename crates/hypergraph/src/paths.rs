//! Connection trees: joining a *set* of relations through join
//! constraints.
//!
//! Def. 3 of the paper requires a candidate replacement `Max(V_{j,R})` to
//! contain (III) all relations of `Min(H_R)` that survive dropping `R`,
//! and (IV) one cover relation per replaceable attribute of `R` — all
//! woven into a single join expression built from join constraints of
//! `H'_R(MKB')`. Finding the smallest such expression is a Steiner-tree
//! problem; we use the classic greedy approximation (repeatedly attach the
//! nearest unconnected terminal by a shortest path), which is
//! deterministic and within 2× of optimal — more than adequate, since any
//! connected superset is a *valid* candidate under Def. 3 and smaller
//! candidates are simply better.
//!
//! Enumeration is *lazy* and runs entirely on the interned-id core:
//! [`TreeCursor`] streams alternative trees one at a time, in
//! nondecreasing edge count, writing each tree into scratch buffers it
//! owns — [`TreeCursor::advance`] performs **zero heap allocations in
//! the steady state** (partial paths are fixed-width id arrays plus an
//! inline bitset; extending one is a stack copy, not a `BTreeSet`
//! clone). For exactly two terminals it runs a best-first expansion
//! over simple join-constraint paths (a diamond-shaped MKB yields one
//! candidate per route, not just the shortest); for other terminal
//! counts it yields the greedy Steiner tree followed by its single-swap
//! parallel-constraint variants (distinct `JC`s between the same
//! relation pair give semantically different joins), so CVS can propose
//! more than one rewriting per cover combination.
//!
//! The cursor's [`Iterator`] impl is the string-keyed boundary: each
//! `next` advances the cursor and materialises the scratch tree into a
//! [`ConnectionTree`] (names + the graph's own constraint `Arc`s). The
//! yield sequence is byte-identical to the legacy string-keyed
//! implementation — the heap orders partials by `(len, join-id ranks,
//! edge indices, current vertex, visited set)`, each component an
//! order-preserving image of the legacy `(len, ids, edges, cur,
//! visited)` key.

use crate::graph::Hypergraph;
use crate::intern::RelId;
use crate::relset::RelSet;
use eve_misd::JoinConstraint;
use eve_relational::RelName;
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeSet, BinaryHeap, VecDeque};
use std::sync::Arc;

/// Length cap (in edges) for the exhaustive two-terminal path search.
/// Paths longer than this are only reachable through the shortest-path
/// fallback, which keeps the best-first frontier from exploding on
/// dense graphs. The cut is not reported to the caller. Also bounds the
/// inline arrays of [`IdPartial`]: a partial path never exceeds
/// `PATH_CAP` edges, so no spill is needed.
const PATH_CAP: usize = 8;

/// A tree of join constraints spanning a set of relations.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnectionTree {
    /// The relations joined by the tree (terminals plus any Steiner
    /// relations picked up along connecting paths).
    pub relations: BTreeSet<RelName>,
    /// The join constraints forming the tree, in attachment order. Each
    /// is the graph's own `Arc` — which is the MKB's own `Arc` for graphs
    /// built from an MKB — so a tree shares its constraints, it never
    /// copies them.
    pub joins: Vec<Arc<JoinConstraint>>,
}

impl ConnectionTree {
    /// A tree containing a single relation and no joins.
    pub fn singleton(rel: RelName) -> Self {
        ConnectionTree {
            relations: [rel].into_iter().collect(),
            joins: Vec::new(),
        }
    }

    /// Is `rel` part of the tree?
    pub fn contains(&self, rel: &RelName) -> bool {
        self.relations.contains(rel)
    }
}

/// Intern a terminal set. `None` when any terminal is not a vertex of
/// `graph` — in every such case the legacy search yields nothing (an
/// absent terminal can never be connected), so callers map `None` to
/// the empty enumeration.
fn intern_terminals(graph: &Hypergraph, terminals: &BTreeSet<RelName>) -> Option<Vec<RelId>> {
    terminals.iter().map(|t| graph.rel_id(t)).collect()
}

/// Resolve a scratch `(relation set, edge list)` pair into a
/// string-keyed [`ConnectionTree`]. Bitset iteration ascends by id =
/// ascending name order, reproducing the legacy `BTreeSet` contents;
/// the joins are the graph's `Arc`s, cloned as pointers.
fn materialize(graph: &Hypergraph, rels: &RelSet, edges: &[u32]) -> ConnectionTree {
    ConnectionTree {
        relations: rels.iter().map(|id| graph.rel_name(id).clone()).collect(),
        joins: edges
            .iter()
            .map(|&e| Arc::clone(&graph.joins()[e as usize]))
            .collect(),
    }
}

/// A partial simple path in the two-terminal best-first search, keyed by
/// the ordering of the legacy sort: `(length, join-id sequence)`. All
/// components are order-preserving images of the legacy string-keyed
/// fields — `ranks` are dedup-lexicographic ranks of the join id
/// strings, ids ascend with relation names, and [`RelSet`] compares as
/// its ascending element sequence — so a min-heap of these pops in
/// exactly the legacy order. Fixed-width: extending a partial copies
/// `4 + PATH_CAP` words and an inline bitset, no heap traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
struct IdPartial {
    len: u8,
    ranks: [u32; PATH_CAP],
    edges: [u32; PATH_CAP],
    cur: RelId,
    visited: RelSet,
}

impl IdPartial {
    fn start(graph: &Hypergraph, at: RelId) -> Self {
        let mut visited = graph.relset();
        visited.insert(at);
        IdPartial {
            len: 0,
            ranks: [0; PATH_CAP],
            edges: [0; PATH_CAP],
            cur: at,
            visited,
        }
    }
}

impl Ord for IdPartial {
    fn cmp(&self, other: &Self) -> Ordering {
        let (n, m) = (self.len as usize, other.len as usize);
        n.cmp(&m)
            .then_with(|| self.ranks[..n].cmp(&other.ranks[..m]))
            .then_with(|| self.edges[..n].cmp(&other.edges[..m]))
            .then_with(|| self.cur.cmp(&other.cur))
            .then_with(|| self.visited.cmp(&other.visited))
    }
}

impl PartialOrd for IdPartial {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

enum CursorState {
    /// Best-first expansion over vertex-simple paths between exactly two
    /// terminals. Every extension strictly grows the `(len, ranks)` key,
    /// so completed paths pop from the heap in nondecreasing key order —
    /// exactly the order the legacy collect-then-sort produced.
    Paths {
        start: RelId,
        goal: RelId,
        max_path_edges: usize,
        heap: BinaryHeap<Reverse<IdPartial>>,
        yielded_any: bool,
        /// BFS distance (in edges) from every vertex to `goal`,
        /// `u32::MAX` when unreachable. A partial at `cur` with
        /// `len + dist[cur] > cap` can never complete into a yieldable
        /// path (the unconstrained shortest distance lower-bounds the
        /// remaining simple-path length), so it is pruned from the
        /// frontier without affecting the yield sequence.
        dist_to_goal: Vec<u32>,
    },
    /// Greedy Steiner tree plus single-swap parallel-constraint
    /// variants, emitted in slot-then-alternative order.
    Greedy {
        base_rels: RelSet,
        base_edges: Vec<u32>,
        /// Per edge slot: alternative edge indices (other JCs between
        /// the same relation pair, ascending declaration order).
        alternatives: Vec<Vec<u32>>,
        slot: usize,
        alt: usize,
        base_emitted: bool,
    },
    Done,
}

/// The id-level enumeration core: streams connection trees spanning a
/// terminal set in nondecreasing edge count, writing each tree into
/// reusable scratch buffers owned by the cursor.
///
/// Pulling `n` trees does only the work needed for `n` trees, so a
/// top-k or budget-bounded caller can abandon the stream early. The
/// yield sequence is a pure, deterministic function of
/// `(graph, terminals, max_path_edges)` — the contract that lets
/// `MkbIndex` memoize prefixes of it.
///
/// [`TreeCursor::advance`] allocates nothing in the steady state: the
/// best-first frontier holds fixed-width `IdPartial`s (inline arrays
/// plus an inline bitset for graphs of ≤ 256 relations), the scratch
/// relation set and edge list are reused across yields, and the heap's
/// capacity is retained. Callers that need string-keyed trees
/// materialise at the boundary via [`TreeCursor::materialize`] or the
/// [`Iterator`] impl (that step allocates the relation set and the
/// edge list, and shares each constraint by `Arc`); callers that only
/// inspect the current tree use [`TreeCursor::relations`] /
/// [`TreeCursor::edges`] for free.
pub struct TreeCursor<'g> {
    graph: &'g Hypergraph,
    state: CursorState,
    /// Scratch: relations of the current tree.
    rels: RelSet,
    /// Scratch: edge indices of the current tree, in attachment order.
    edges: Vec<u32>,
    /// Trees yielded so far; flushed to the `hypergraph.trees_yielded`
    /// telemetry counter when the cursor is dropped.
    yielded: u64,
}

impl<'g> TreeCursor<'g> {
    /// Start streaming trees for `terminals`, each connecting path
    /// bounded by `max_path_edges` join constraints.
    pub fn new(
        graph: &'g Hypergraph,
        terminals: &BTreeSet<RelName>,
        max_path_edges: usize,
    ) -> Self {
        let state = match intern_terminals(graph, terminals) {
            // An absent terminal can never be connected: the legacy
            // search (empty frontier → no shortest path → greedy with an
            // unknown terminal) yields nothing in every such case.
            None => CursorState::Done,
            Some(ids) if ids.len() == 2 => {
                let mut heap = BinaryHeap::new();
                heap.push(Reverse(IdPartial::start(graph, ids[0])));
                CursorState::Paths {
                    start: ids[0],
                    goal: ids[1],
                    max_path_edges,
                    heap,
                    yielded_any: false,
                    dist_to_goal: bfs_distances(graph, ids[1]),
                }
            }
            Some(ids) => greedy_state(graph, &ids, max_path_edges),
        };
        TreeCursor {
            graph,
            state,
            rels: graph.relset(),
            edges: Vec::new(),
            yielded: 0,
        }
    }

    /// Advance to the next tree. Returns `false` when the stream is
    /// exhausted; on `true` the tree is readable through
    /// [`TreeCursor::relations`] / [`TreeCursor::edges`].
    pub fn advance(&mut self) -> bool {
        let stepped = self.step();
        if stepped {
            self.yielded += 1;
        }
        stepped
    }

    /// Relations of the current tree (valid after an `advance` that
    /// returned `true`).
    pub fn relations(&self) -> &RelSet {
        &self.rels
    }

    /// Edge indices (into [`Hypergraph::joins`]) of the current tree,
    /// in attachment order.
    pub fn edges(&self) -> &[u32] {
        &self.edges
    }

    /// Resolve the current scratch tree into a string-keyed
    /// [`ConnectionTree`] that shares the graph's constraints.
    pub fn materialize(&self) -> ConnectionTree {
        materialize(self.graph, &self.rels, &self.edges)
    }

    fn step(&mut self) -> bool {
        loop {
            match &mut self.state {
                CursorState::Paths {
                    start,
                    goal,
                    max_path_edges,
                    heap,
                    yielded_any,
                    dist_to_goal,
                } => {
                    let cap = (*max_path_edges).min(PATH_CAP);
                    while let Some(Reverse(p)) = heap.pop() {
                        if p.cur == *goal {
                            // Simple paths stop at the goal; no extension.
                            *yielded_any = true;
                            write_path_scratch(
                                self.graph,
                                &mut self.rels,
                                &mut self.edges,
                                *start,
                                &p.edges[..p.len as usize],
                            );
                            return true;
                        }
                        if (p.len as usize) >= cap {
                            continue;
                        }
                        for (next, edge) in self.graph.neighbors(p.cur) {
                            if p.visited.contains(next) {
                                continue;
                            }
                            // Reachability prune: discard extensions that
                            // provably cannot reach the goal within the
                            // cap. Such partials never yield, so skipping
                            // them leaves the yield sequence intact.
                            let d = dist_to_goal[next as usize] as usize;
                            if (p.len as usize) + 1 + d > cap {
                                continue;
                            }
                            let mut ext = p.clone();
                            let at = ext.len as usize;
                            ext.len += 1;
                            ext.ranks[at] = self.graph.join_rank(edge);
                            ext.edges[at] = edge;
                            ext.visited.insert(next);
                            ext.cur = next;
                            heap.push(Reverse(ext));
                        }
                    }
                    // Frontier exhausted. If nothing fit the exhaustive
                    // cap, the shortest path may still be legal when it
                    // is longer than PATH_CAP but within the hop bound.
                    if !*yielded_any {
                        let (s, g, hop) = (*start, *goal, *max_path_edges);
                        let mut from = self.graph.relset();
                        from.insert(s);
                        if let Some(shortest) = shortest_path_from_set(self.graph, &from, g) {
                            if shortest.len() <= hop {
                                self.state = CursorState::Done;
                                write_path_scratch(
                                    self.graph,
                                    &mut self.rels,
                                    &mut self.edges,
                                    s,
                                    &shortest,
                                );
                                return true;
                            }
                        }
                        // Mirror the legacy fall-through to the greedy
                        // construction (relevant only for degenerate
                        // graphs; usually yields nothing new).
                        let terminals = if s < g { [s, g] } else { [g, s] };
                        self.state = greedy_state(self.graph, &terminals, hop);
                        continue;
                    }
                    self.state = CursorState::Done;
                }
                CursorState::Greedy {
                    base_rels,
                    base_edges,
                    alternatives,
                    slot,
                    alt,
                    base_emitted,
                } => {
                    if !*base_emitted {
                        *base_emitted = true;
                        self.rels.copy_from(base_rels);
                        self.edges.clear();
                        self.edges.extend_from_slice(base_edges);
                        return true;
                    }
                    // Single-swap variants (cartesian products explode;
                    // one swap at a time already surfaces every
                    // alternative constraint).
                    while *slot < alternatives.len() {
                        if let Some(&a) = alternatives[*slot].get(*alt) {
                            *alt += 1;
                            self.rels.copy_from(base_rels);
                            self.edges.clear();
                            self.edges.extend_from_slice(base_edges);
                            self.edges[*slot] = a;
                            return true;
                        }
                        *slot += 1;
                        *alt = 0;
                    }
                    self.state = CursorState::Done;
                }
                CursorState::Done => return false,
            }
        }
    }
}

/// Unweighted BFS distances (in edges) from every vertex to `to`;
/// `u32::MAX` marks unreachable vertices. One pass at cursor
/// construction funds the frontier prune in the two-terminal search.
fn bfs_distances(graph: &Hypergraph, to: RelId) -> Vec<u32> {
    let mut dist = vec![u32::MAX; graph.rel_count()];
    dist[to as usize] = 0;
    let mut queue = VecDeque::new();
    queue.push_back(to);
    while let Some(r) = queue.pop_front() {
        let d = dist[r as usize] + 1;
        for (next, _) in graph.neighbors(r) {
            if dist[next as usize] == u32::MAX {
                dist[next as usize] = d;
                queue.push_back(next);
            }
        }
    }
    dist
}

/// Write `(start ∪ edge endpoints, edges)` into the cursor's scratch
/// buffers. Free function over the disjoint scratch fields so it can
/// run while the cursor state is mutably borrowed.
fn write_path_scratch(
    graph: &Hypergraph,
    rels: &mut RelSet,
    edges_out: &mut Vec<u32>,
    start: RelId,
    path: &[u32],
) {
    rels.clear();
    rels.insert(start);
    edges_out.clear();
    for &e in path {
        let (l, r) = graph.join_endpoints(e);
        rels.insert(l);
        rels.insert(r);
        edges_out.push(e);
    }
}

impl Drop for TreeCursor<'_> {
    fn drop(&mut self) {
        if eve_telemetry::enabled() {
            eve_telemetry::counter_add("hypergraph.tree_iters", 1);
            eve_telemetry::counter_add("hypergraph.trees_yielded", self.yielded);
        }
    }
}

/// Build the greedy cursor state for a (sorted) terminal id list.
fn greedy_state(graph: &Hypergraph, terminals: &[RelId], max_path_edges: usize) -> CursorState {
    match connect_ids(graph, terminals, max_path_edges) {
        Some((base_rels, base_edges)) => {
            // For each edge slot, the parallel alternatives (other JCs
            // connecting the same relation pair). Matching the legacy
            // filter, "other" means a *different id string* — i.e. a
            // different dedup rank — not merely a different edge index.
            let alternatives: Vec<Vec<u32>> = base_edges
                .iter()
                .map(|&slot_edge| {
                    let (l, r) = graph.join_endpoints(slot_edge);
                    let rank = graph.join_rank(slot_edge);
                    (0..graph.joins().len() as u32)
                        .filter(|&e| {
                            let (el, er) = graph.join_endpoints(e);
                            ((el, er) == (l, r) || (el, er) == (r, l)) && graph.join_rank(e) != rank
                        })
                        .collect()
                })
                .collect();
            CursorState::Greedy {
                base_rels,
                base_edges,
                alternatives,
                slot: 0,
                alt: 0,
                base_emitted: false,
            }
        }
        None => CursorState::Done,
    }
}

/// Greedy Steiner connection over ids: attach each terminal (ascending
/// id = ascending name order) to the growing tree by a shortest path.
/// Returns the tree's relation set and edge list, or `None` when some
/// terminal cannot be attached within `max_path_edges`.
fn connect_ids(
    graph: &Hypergraph,
    terminals: &[RelId],
    max_path_edges: usize,
) -> Option<(RelSet, Vec<u32>)> {
    let (&first, rest) = terminals.split_first()?;
    let mut rels = graph.relset();
    rels.insert(first);
    let mut edges = Vec::new();
    // Attach each remaining terminal by the shortest path from the
    // current tree. (Iterating in name order keeps this deterministic;
    // the greedy nearest-terminal refinement would need all-pairs
    // distances for marginal benefit.)
    for &t in rest {
        if rels.contains(t) {
            continue;
        }
        let path = shortest_path_from_set(graph, &rels, t)?;
        if path.len() > max_path_edges {
            return None;
        }
        for e in path {
            let (l, r) = graph.join_endpoints(e);
            rels.insert(l);
            rels.insert(r);
            edges.push(e);
        }
    }
    Some((rels, edges))
}

/// Shortest path (in edges) from any relation in `sources` to `target`,
/// BFS from the whole source set at once. Sources are dequeued in
/// ascending id order and neighbours visited in join-declaration order
/// — the same candidate sequence as the legacy all-joins scan, so the
/// chosen path is identical.
fn shortest_path_from_set(graph: &Hypergraph, sources: &RelSet, target: RelId) -> Option<Vec<u32>> {
    let mut prev: Vec<(RelId, u32)> = vec![(u32::MAX, u32::MAX); graph.rel_count()];
    let mut seen = sources.clone();
    let mut queue: VecDeque<RelId> = sources.iter().collect();
    while let Some(r) = queue.pop_front() {
        for (next, edge) in graph.neighbors(r) {
            if seen.insert(next) {
                prev[next as usize] = (r, edge);
                if next == target {
                    let mut path = Vec::new();
                    let mut cur = target;
                    while prev[cur as usize].0 != u32::MAX {
                        let (p, e) = prev[cur as usize];
                        path.push(e);
                        cur = p;
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(next);
            }
        }
    }
    None
}

/// The string-keyed boundary: each item is the next tree, materialised.
impl Iterator for TreeCursor<'_> {
    type Item = ConnectionTree;

    fn next(&mut self) -> Option<ConnectionTree> {
        if self.advance() {
            Some(self.materialize())
        } else {
            None
        }
    }
}

/// Faulted enumeration entry points.
///
/// Both are pure, deterministic functions of
/// `(self, terminals, max_path_edges)` — same inputs, same output,
/// every time — which is the contract that lets `MkbIndex` memoize
/// their results per change under a `(terminal set, hop bound)` key
/// without risking any behavioural difference between a cache hit and
/// a recomputation.
impl Hypergraph {
    /// Stream connection trees spanning `terminals` in nondecreasing
    /// edge count, each hop bounded by `max_path_edges`: a
    /// [`TreeCursor::new`] behind the `hypergraph.tree-iter` fault site.
    pub fn tree_cursor<'g>(
        &'g self,
        terminals: &BTreeSet<RelName>,
        max_path_edges: usize,
    ) -> TreeCursor<'g> {
        crate::faults::hit("hypergraph.tree-iter");
        TreeCursor::new(self, terminals, max_path_edges)
    }

    /// Greedily build a connection tree covering all `terminals`, each
    /// terminal attached to the growing tree by a path of at most
    /// `max_path_edges` join constraints. Returns `None` when the
    /// terminals are not all in one component within that bound (Def.
    /// 3: "if relations left in `Min(H'_R)` are in disconnected
    /// components then the set R-replacement is empty") or when
    /// `terminals` is empty. With `max_path_edges = 1` this reproduces
    /// the *one-step-away* rewritings of the authors' earlier simple
    /// view synchronization (the SVS baseline of [4, 12]).
    pub fn connect_tree(
        &self,
        terminals: &BTreeSet<RelName>,
        max_path_edges: usize,
    ) -> Option<ConnectionTree> {
        let ids = intern_terminals(self, terminals)?;
        let (rels, edges) = connect_ids(self, &ids, max_path_edges)?;
        Some(materialize(self, &rels, &edges))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eve_relational::{AttrRef, Clause, Conjunction};

    fn rel(n: &str) -> RelName {
        RelName::new(n)
    }

    fn jc(id: &str, l: &str, r: &str) -> JoinConstraint {
        JoinConstraint::new(
            id,
            l,
            r,
            Conjunction::new(vec![Clause::eq_attrs(
                AttrRef::new(l, "k"),
                AttrRef::new(r, "k"),
            )]),
        )
    }

    /// Star: HUB connected to A, B, C; D isolated; parallel edge HUB—A.
    fn star() -> Hypergraph {
        let rels: BTreeSet<RelName> = ["HUB", "A", "B", "C", "D"].iter().map(|s| rel(s)).collect();
        Hypergraph::from_parts(
            rels,
            vec![
                jc("J1", "HUB", "A"),
                jc("J1b", "HUB", "A"),
                jc("J2", "HUB", "B"),
                jc("J3", "HUB", "C"),
            ],
        )
    }

    /// Up to `limit` trees spanning `terminals`, no hop bound.
    fn trees(g: &Hypergraph, terminals: &[&str], limit: usize) -> Vec<ConnectionTree> {
        let t: BTreeSet<RelName> = terminals.iter().map(|s| rel(s)).collect();
        TreeCursor::new(g, &t, usize::MAX).take(limit).collect()
    }

    #[test]
    fn connect_terminals_through_hub() {
        let g = star();
        let t = g
            .connect_tree(
                &[rel("A"), rel("B"), rel("C")].into_iter().collect(),
                usize::MAX,
            )
            .unwrap();
        assert!(t.contains(&rel("HUB"))); // Steiner vertex picked up
        assert_eq!(t.relations.len(), 4);
        assert_eq!(t.joins.len(), 3);
    }

    #[test]
    fn connect_single_terminal_is_trivial() {
        let g = star();
        let t = g
            .connect_tree(&[rel("B")].into_iter().collect(), usize::MAX)
            .unwrap();
        assert_eq!(t.relations.len(), 1);
        assert!(t.joins.is_empty());
    }

    #[test]
    fn disconnected_terminals_yield_none() {
        let g = star();
        assert!(g
            .connect_tree(&[rel("A"), rel("D")].into_iter().collect(), usize::MAX)
            .is_none());
        assert!(g.connect_tree(&BTreeSet::new(), usize::MAX).is_none());
    }

    #[test]
    fn enumerate_surfaces_parallel_constraints() {
        let g = star();
        let trees = trees(&g, &["A", "B"], 10);
        assert_eq!(trees.len(), 2); // J1 vs J1b for the HUB—A hop
        let ids: BTreeSet<String> = trees
            .iter()
            .flat_map(|t| t.joins.iter().map(|j| j.id.clone()))
            .collect();
        assert!(ids.contains("J1") && ids.contains("J1b"));
    }

    #[test]
    fn enumerate_respects_limit() {
        let g = star();
        assert_eq!(trees(&g, &["A", "B"], 1).len(), 1);
    }

    #[test]
    fn diamond_enumerates_both_routes() {
        // A—X—B and A—Y—B: two distinct two-hop routes.
        let rels: BTreeSet<RelName> = ["A", "X", "Y", "B"].iter().map(|s| rel(s)).collect();
        let g = Hypergraph::from_parts(
            rels,
            vec![
                jc("J1", "A", "X"),
                jc("J2", "X", "B"),
                jc("J3", "A", "Y"),
                jc("J4", "Y", "B"),
            ],
        );
        let trees = trees(&g, &["A", "B"], 10);
        assert_eq!(trees.len(), 2, "{trees:?}");
        let routes: BTreeSet<BTreeSet<RelName>> =
            trees.iter().map(|t| t.relations.clone()).collect();
        assert!(routes.contains(&["A", "X", "B"].iter().map(|s| rel(s)).collect()));
        assert!(routes.contains(&["A", "Y", "B"].iter().map(|s| rel(s)).collect()));
        // Hop bound 1 prunes both.
        assert_eq!(
            TreeCursor::new(&g, &[rel("A"), rel("B")].into_iter().collect(), 1).count(),
            0
        );
    }

    #[test]
    fn long_chain_beyond_path_cap_falls_back_to_shortest() {
        // 10-hop chain: beyond the exhaustive PATH_CAP, but the
        // shortest-path fallback must still connect the endpoints.
        let names: Vec<String> = (0..11).map(|i| format!("N{i}")).collect();
        let rels: BTreeSet<RelName> = names.iter().map(|n| RelName::new(n.clone())).collect();
        let joins = names
            .windows(2)
            .enumerate()
            .map(|(i, w)| jc(&format!("J{i}"), &w[0], &w[1]))
            .collect();
        let g = Hypergraph::from_parts(rels, joins);
        let trees = trees(&g, &["N0", "N10"], 4);
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0].joins.len(), 10);
    }

    #[test]
    fn chain_connection() {
        // A—B—C—D chain; connect {A, D} should pull in B and C.
        let rels: BTreeSet<RelName> = ["A", "B", "C", "D"].iter().map(|s| rel(s)).collect();
        let g = Hypergraph::from_parts(
            rels,
            vec![jc("J1", "A", "B"), jc("J2", "B", "C"), jc("J3", "C", "D")],
        );
        let t = g
            .connect_tree(&[rel("A"), rel("D")].into_iter().collect(), usize::MAX)
            .unwrap();
        assert_eq!(t.joins.len(), 3);
        assert_eq!(t.relations.len(), 4);
    }

    /// The streaming contract: trees come out in nondecreasing edge
    /// count, and every `take(k)` prefix equals the collect-all result
    /// truncated to `k` — the property the prefix-serving memo cache
    /// relies on.
    #[test]
    fn iter_yields_sorted_prefixes() {
        // A—B directly (1 hop), A—X—B (2 hops), A—Y—Z—B (3 hops).
        let rels: BTreeSet<RelName> = ["A", "B", "X", "Y", "Z"].iter().map(|s| rel(s)).collect();
        let g = Hypergraph::from_parts(
            rels,
            vec![
                jc("J5", "A", "B"),
                jc("J1", "A", "X"),
                jc("J2", "X", "B"),
                jc("J3", "A", "Y"),
                jc("J4", "Y", "Z"),
                jc("J6", "Z", "B"),
            ],
        );
        let t: BTreeSet<RelName> = [rel("A"), rel("B")].into_iter().collect();
        let all: Vec<ConnectionTree> = g.tree_cursor(&t, usize::MAX).collect();
        assert_eq!(all.len(), 3);
        let lens: Vec<usize> = all.iter().map(|tr| tr.joins.len()).collect();
        assert_eq!(lens, vec![1, 2, 3]);
        for k in 0..=all.len() {
            let prefix: Vec<ConnectionTree> = g.tree_cursor(&t, usize::MAX).take(k).collect();
            assert_eq!(prefix, all[..k].to_vec(), "prefix k={k}");
        }
    }

    /// Pulling one tree from a graph with many routes must not force
    /// enumeration of longer routes: the first yield of the best-first
    /// search is always a shortest route.
    #[test]
    fn iter_first_yield_is_shortest_route() {
        let rels: BTreeSet<RelName> = ["A", "B", "X", "Y"].iter().map(|s| rel(s)).collect();
        let g = Hypergraph::from_parts(
            rels,
            vec![
                jc("J1", "A", "X"),
                jc("J2", "X", "B"),
                jc("J3", "A", "Y"),
                jc("J4", "Y", "B"),
                jc("J0", "A", "B"),
            ],
        );
        let t: BTreeSet<RelName> = [rel("A"), rel("B")].into_iter().collect();
        let first = g.tree_cursor(&t, usize::MAX).next().unwrap();
        assert_eq!(first.joins.len(), 1);
        assert_eq!(first.joins[0].id, "J0");
    }

    /// Unknown terminals yield the empty stream (the legacy behaviour:
    /// an absent terminal can never be connected).
    #[test]
    fn unknown_terminals_yield_nothing() {
        let g = star();
        for terms in [
            vec![rel("A"), rel("NOPE")],
            vec![rel("NOPE")],
            vec![rel("A"), rel("B"), rel("NOPE")],
        ] {
            let t: BTreeSet<RelName> = terms.into_iter().collect();
            assert_eq!(g.tree_cursor(&t, usize::MAX).count(), 0);
        }
    }
}
