//! The hypergraph structure and its connectivity operations.
//!
//! Internally the graph is data-oriented: relation names are interned
//! to dense `u32` ids ([`crate::intern::Interner`], ids in ascending
//! name order), adjacency is a flat CSR triple
//! (`adj_offsets`/`adj_targets`/`adj_edges`) preserving
//! join-declaration order, join endpoints live in SoA arrays, and the
//! connected component of every vertex is precomputed once at
//! construction. The string-keyed public API is a thin boundary that
//! interns on entry and resolves names on exit, so every legacy result
//! — including iteration and tie-break orders — is reproduced exactly.

use crate::intern::{Interner, RelId};
use crate::relset::RelSet;
use eve_misd::mkb::SharedList;
use eve_misd::{JoinConstraint, MetaKnowledgeBase};
use eve_relational::{AttrRef, RelName};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

/// The hypergraph `H(MKB)` (or a sub-hypergraph of it), materialised as a
/// relation-level multigraph: vertices are relations, edges are join
/// constraints.
///
/// The structure owns its data (names are cloned from the MKB, join
/// constraints shared with it by `Arc`), so sub-hypergraphs and evolved
/// variants can be derived freely without borrowing the MKB.
#[derive(Debug, Clone)]
pub struct Hypergraph {
    /// Join-constraint edges, each the MKB's own `Arc`. The list is
    /// `Arc`-shared too: most capability changes leave every join
    /// constraint intact, and the full graph of an MKB shares the MKB's
    /// own list.
    pub(crate) joins: SharedList<JoinConstraint>,
    /// Name ↔ id bijection over every vertex (isolated ones included);
    /// id order == name order. `Arc`-shared by the changes that keep the
    /// vertex set.
    pub(crate) interner: Arc<Interner>,
    /// CSR adjacency offsets: vertex `v`'s neighbours live at
    /// `adj_targets[adj_offsets[v]..adj_offsets[v + 1]]`.
    pub(crate) adj_offsets: Vec<u32>,
    /// Neighbour vertex per adjacency slot, in join-declaration order
    /// (for each join: the left endpoint's entry precedes the right's).
    pub(crate) adj_targets: Vec<RelId>,
    /// Edge index (into `joins`) per adjacency slot.
    pub(crate) adj_edges: Vec<u32>,
    /// SoA join endpoints: `joins[e]` connects `join_left[e]` and
    /// `join_right[e]`.
    pub(crate) join_left: Vec<RelId>,
    pub(crate) join_right: Vec<RelId>,
    /// Dedup rank of each join's id string: `join_rank[a] < join_rank[b]`
    /// ⇔ `joins[a].id < joins[b].id`, with equal strings sharing a rank.
    /// Lets the path search order candidates by join-id sequence without
    /// comparing strings. Delta maintenance carries ranks over edge
    /// subsets, so ranks need not be dense — only order-preserving.
    pub(crate) join_rank: Vec<u32>,
    /// Connected-component index per vertex. Components are numbered in
    /// ascending order of their smallest vertex id (= smallest name).
    pub(crate) comp_of: Vec<u32>,
    pub(crate) comp_count: u32,
}

/// Build the CSR adjacency triple for `n` vertices from SoA join
/// endpoints, filled in join-declaration order (left endpoint first,
/// then right — the legacy push order). Pure integer work: the delta
/// path re-runs this after patching endpoint arrays without touching a
/// single string.
pub(crate) fn build_csr(
    n: usize,
    join_left: &[RelId],
    join_right: &[RelId],
) -> (Vec<u32>, Vec<RelId>, Vec<u32>) {
    let m = join_left.len();
    let mut degree = vec![0u32; n];
    for e in 0..m {
        degree[join_left[e] as usize] += 1;
        degree[join_right[e] as usize] += 1;
    }
    let mut adj_offsets = vec![0u32; n + 1];
    for v in 0..n {
        adj_offsets[v + 1] = adj_offsets[v] + degree[v];
    }
    let mut cursor: Vec<u32> = adj_offsets[..n].to_vec();
    let mut adj_targets = vec![0 as RelId; adj_offsets[n] as usize];
    let mut adj_edges = vec![0u32; adj_offsets[n] as usize];
    for e in 0..m {
        let (l, r) = (join_left[e], join_right[e]);
        let slot = cursor[l as usize] as usize;
        adj_targets[slot] = r;
        adj_edges[slot] = e as u32;
        cursor[l as usize] += 1;
        let slot = cursor[r as usize] as usize;
        adj_targets[slot] = l;
        adj_edges[slot] = e as u32;
        cursor[r as usize] += 1;
    }
    (adj_offsets, adj_targets, adj_edges)
}

/// Connected components over a CSR adjacency, seeded in ascending id
/// (= name) order so component indices sort by smallest member name.
pub(crate) fn components_from(
    n: usize,
    adj_offsets: &[u32],
    adj_targets: &[RelId],
) -> (Vec<u32>, u32) {
    let mut comp_of = vec![u32::MAX; n];
    let mut comp_count = 0u32;
    let mut queue: VecDeque<RelId> = VecDeque::new();
    for v in 0..n {
        if comp_of[v] != u32::MAX {
            continue;
        }
        comp_of[v] = comp_count;
        queue.push_back(v as RelId);
        while let Some(r) = queue.pop_front() {
            let (lo, hi) = (
                adj_offsets[r as usize] as usize,
                adj_offsets[r as usize + 1] as usize,
            );
            for &next in &adj_targets[lo..hi] {
                if comp_of[next as usize] == u32::MAX {
                    comp_of[next as usize] = comp_count;
                    queue.push_back(next);
                }
            }
        }
        comp_count += 1;
    }
    (comp_of, comp_count)
}

/// Renumber arbitrary distinct component labels into the canonical
/// numbering (ascending by smallest member id): first occurrence over
/// ascending vertex id reproduces exactly what a BFS seeded in id order
/// would assign. Labels must be `< bound`.
pub(crate) fn renumber_components(raw: &[u32], bound: usize) -> (Vec<u32>, u32) {
    let mut map = vec![u32::MAX; bound];
    let mut next = 0u32;
    let mut out = Vec::with_capacity(raw.len());
    for &label in raw {
        if map[label as usize] == u32::MAX {
            map[label as usize] = next;
            next += 1;
        }
        out.push(map[label as usize]);
    }
    (out, next)
}

impl PartialEq for Hypergraph {
    fn eq(&self, other: &Self) -> bool {
        // The derived structures are pure functions of (relations, joins).
        self.relations().eq(other.relations()) && self.joins == other.joins
    }
}

impl Hypergraph {
    /// Build `H(MKB)` from a meta knowledge base.
    pub fn build(mkb: &MetaKnowledgeBase) -> Self {
        // MKB validation guarantees every endpoint is described.
        Self::from_shared(
            Interner::from_sorted(mkb.relation_names().cloned()),
            Arc::clone(mkb.joins_arc()),
        )
    }

    /// Build `H(MKB)` restricted to the relations accepted by `keep` —
    /// e.g. the capability-filtered `H'(MKB')` over join-capable
    /// relations, constructed in one pass instead of repeated
    /// [`Hypergraph::without_relation`] calls. Join constraints with a
    /// filtered-out endpoint are dropped.
    pub fn build_filtered(
        mkb: &MetaKnowledgeBase,
        keep: impl Fn(&eve_misd::RelationDescription) -> bool,
    ) -> Self {
        let interner = Interner::from_sorted(
            mkb.relations()
                .filter(|desc| keep(desc))
                .map(|desc| desc.name.clone()),
        );
        let joins = mkb
            .joins()
            .iter()
            .filter(|j| interner.get(&j.left).is_some() && interner.get(&j.right).is_some())
            .cloned()
            .collect();
        Self::from_shared(interner, Arc::new(joins))
    }

    /// Build from explicit parts (used for sub-hypergraphs and tests).
    /// Join constraints whose endpoints are not both present are dropped.
    pub fn from_parts(relations: BTreeSet<RelName>, joins: Vec<JoinConstraint>) -> Self {
        let joins = joins
            .into_iter()
            .filter(|j| relations.contains(&j.left) && relations.contains(&j.right))
            .map(Arc::new)
            .collect();
        Self::from_shared(Interner::from_sorted(relations), Arc::new(joins))
    }

    /// [`Hypergraph::from_parts`] over interned vertices and shared joins
    /// whose endpoints are all vertices.
    fn from_shared(interner: Interner, joins: SharedList<JoinConstraint>) -> Self {
        let n = interner.len();
        let m = joins.len();

        let mut join_left = Vec::with_capacity(m);
        let mut join_right = Vec::with_capacity(m);
        for j in joins.iter() {
            join_left.push(interner.get(&j.left).expect("endpoint present"));
            join_right.push(interner.get(&j.right).expect("endpoint present"));
        }

        // Dedup lexicographic ranks of the join id strings.
        let mut ids: Vec<&str> = joins.iter().map(|j| j.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        let join_rank: Vec<u32> = joins
            .iter()
            .map(|j| ids.binary_search(&j.id.as_str()).expect("id ranked") as u32)
            .collect();

        // CSR adjacency, filled in join-declaration order (left endpoint
        // first, then right — matching the legacy push order), then the
        // connected components seeded in ascending id (= name) order.
        let (adj_offsets, adj_targets, adj_edges) = build_csr(n, &join_left, &join_right);
        let (comp_of, comp_count) = components_from(n, &adj_offsets, &adj_targets);

        Hypergraph {
            joins,
            interner: Arc::new(interner),
            adj_offsets,
            adj_targets,
            adj_edges,
            join_left,
            join_right,
            join_rank,
            comp_of,
            comp_count,
        }
    }

    /// The relation vertices, in ascending name order.
    pub fn relations(&self) -> impl ExactSizeIterator<Item = &RelName> {
        self.interner.names()
    }

    /// The join-constraint edges.
    pub fn joins(&self) -> &[Arc<JoinConstraint>] {
        &self.joins
    }

    /// Does the hypergraph contain this relation?
    pub fn contains(&self, rel: &RelName) -> bool {
        self.interner.get(rel).is_some()
    }

    // ---- id-level core -------------------------------------------------

    /// The name ↔ id interner. Ids are dense (`0..rel_count()`) and
    /// ascend in name order, so id comparisons reproduce name
    /// comparisons.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Do the two graphs share one interner (by pointer)? Then an id
    /// names the same vertex in both. Delta maintenance shares the
    /// interner across every change that keeps the vertex set.
    pub fn shares_interner(&self, other: &Hypergraph) -> bool {
        Arc::ptr_eq(&self.interner, &other.interner)
    }

    /// The interned id of `rel`, or `None` when it is not a vertex.
    pub fn rel_id(&self, rel: &RelName) -> Option<RelId> {
        self.interner.get(rel)
    }

    /// The name behind an interned id.
    pub fn rel_name(&self, id: RelId) -> &RelName {
        self.interner.name(id)
    }

    /// Number of relation vertices (the id universe is `0..rel_count()`).
    pub fn rel_count(&self) -> usize {
        self.interner.len()
    }

    /// An empty [`RelSet`] sized for this graph's id universe.
    pub fn relset(&self) -> RelSet {
        RelSet::with_universe(self.rel_count())
    }

    /// CSR neighbours of `id`: `(neighbour, edge index)` pairs in
    /// join-declaration order.
    pub fn neighbors(&self, id: RelId) -> impl Iterator<Item = (RelId, u32)> + '_ {
        let (lo, hi) = (
            self.adj_offsets[id as usize] as usize,
            self.adj_offsets[id as usize + 1] as usize,
        );
        self.adj_targets[lo..hi]
            .iter()
            .copied()
            .zip(self.adj_edges[lo..hi].iter().copied())
    }

    /// Endpoints of join edge `e` as `(left, right)` ids.
    pub fn join_endpoints(&self, e: u32) -> (RelId, RelId) {
        (self.join_left[e as usize], self.join_right[e as usize])
    }

    /// Dedup lexicographic rank of `joins[e].id`: ranks compare exactly
    /// as the id strings do (equal strings share a rank).
    pub fn join_rank(&self, e: u32) -> u32 {
        self.join_rank[e as usize]
    }

    /// The connected-component index of vertex `id`. Components are
    /// numbered ascending by smallest member name.
    pub fn component_index(&self, id: RelId) -> u32 {
        self.comp_of[id as usize]
    }

    /// Number of connected components.
    pub fn component_count(&self) -> usize {
        self.comp_count as usize
    }

    /// Breadth-first shortest path between two vertices by id, as edge
    /// indices in walk order. `None` when unreachable; empty when
    /// `a == b`. Visits neighbours in join-declaration order, matching
    /// the legacy string-keyed BFS tie-breaks.
    pub fn join_path_ids(&self, a: RelId, b: RelId) -> Option<Vec<u32>> {
        if a == b {
            return Some(Vec::new());
        }
        if self.comp_of[a as usize] != self.comp_of[b as usize] {
            return None;
        }
        let mut prev: Vec<(RelId, u32)> = vec![(u32::MAX, u32::MAX); self.rel_count()];
        let mut seen = self.relset();
        seen.insert(a);
        let mut queue = VecDeque::new();
        queue.push_back(a);
        while let Some(r) = queue.pop_front() {
            for (next, edge) in self.neighbors(r) {
                if seen.insert(next) {
                    prev[next as usize] = (r, edge);
                    if next == b {
                        let mut path = Vec::new();
                        let mut cur = b;
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

    // ---- string-keyed boundary ----------------------------------------

    /// Join constraints incident to `rel`.
    pub fn joins_of<'a>(&'a self, rel: &RelName) -> impl Iterator<Item = &'a JoinConstraint> {
        self.rel_id(rel)
            .into_iter()
            .flat_map(move |id| self.neighbors(id).map(|(_, e)| &*self.joins[e as usize]))
    }

    /// All join constraints between the unordered pair `{r1, r2}`, as
    /// the graph's own `Arc`s (so a caller keeping one clones a pointer).
    pub fn joins_between<'a>(
        &'a self,
        r1: &'a RelName,
        r2: &'a RelName,
    ) -> impl Iterator<Item = &'a Arc<JoinConstraint>> {
        self.joins.iter().filter(move |j| j.connects(r1, r2))
    }

    /// The set of relations reachable from `start` (its connected
    /// component's vertex set `S_R(MKB)`), or `None` when `start` is not a
    /// vertex. Served from the precomputed component index — no
    /// traversal, no whole-set clone.
    pub fn component_relations(&self, start: &RelName) -> Option<BTreeSet<RelName>> {
        let comp = self.comp_of[self.rel_id(start)? as usize];
        Some(self.component_members(comp).cloned().collect())
    }

    /// The connected sub-hypergraph `H_R(MKB)` containing `start`
    /// (Step 1 of the CVS algorithm), or `None` when `start` is absent.
    pub fn component_of(&self, start: &RelName) -> Option<Hypergraph> {
        let comp = self.comp_of[self.rel_id(start)? as usize];
        Some(self.component_subgraph(comp))
    }

    /// The names of component `comp`'s vertices, ascending.
    fn component_members(&self, comp: u32) -> impl Iterator<Item = &RelName> {
        (0..self.rel_count() as RelId)
            .filter(move |&v| self.comp_of[v as usize] == comp)
            .map(|v| self.interner.name(v))
    }

    fn component_subgraph(&self, comp: u32) -> Hypergraph {
        let rels = Interner::from_sorted(self.component_members(comp).cloned());
        let joins = self
            .joins
            .iter()
            .enumerate()
            .filter(|(e, _)| self.comp_of[self.join_left[*e] as usize] == comp)
            .map(|(_, j)| Arc::clone(j))
            .collect();
        Hypergraph::from_shared(rels, Arc::new(joins))
    }

    /// All maximal connected components, each as a sub-hypergraph, ordered
    /// by their smallest relation name. One pass over the vertices and
    /// one over the edges sort both into their components.
    pub fn components(&self) -> Vec<Hypergraph> {
        let count = self.comp_count as usize;
        let mut rels = vec![Vec::new(); count];
        for (name, &c) in self.relations().zip(&self.comp_of) {
            rels[c as usize].push(name.clone());
        }
        let mut joins = vec![Vec::new(); count];
        for (e, j) in self.joins.iter().enumerate() {
            joins[self.comp_of[self.join_left[e] as usize] as usize].push(Arc::clone(j));
        }
        rels.into_iter()
            .zip(joins)
            .map(|(rels, joins)| {
                Hypergraph::from_shared(Interner::from_sorted(rels), Arc::new(joins))
            })
            .collect()
    }

    /// The sub-hypergraph of one component by index (`0..component_count()`).
    /// Lets delta maintenance rebuild only the components a change
    /// touched, Arc-sharing the rest.
    ///
    /// # Panics
    /// When `comp >= component_count()`.
    pub fn component(&self, comp: u32) -> Hypergraph {
        assert!(comp < self.comp_count, "component index out of range");
        self.component_subgraph(comp)
    }

    /// Is the given set of relations mutually connected *within this
    /// hypergraph* (all in one component)? The empty set and singletons
    /// are trivially connected. With the precomputed component index
    /// this is one comparison per relation.
    pub fn is_connected_set(&self, rels: &BTreeSet<RelName>) -> bool {
        let mut iter = rels.iter();
        let first = match iter.next() {
            Some(f) => f,
            None => return true,
        };
        let comp = match self.rel_id(first) {
            Some(id) => self.comp_of[id as usize],
            None => return false,
        };
        iter.all(|r| {
            self.rel_id(r)
                .is_some_and(|id| self.comp_of[id as usize] == comp)
        })
    }

    /// The hypergraph `H'` obtained by erasing the relation hyperedge
    /// `rel` (and with it every incident join constraint) — Def. 3's
    /// `H'_R(MKB')`. Erasing a vertex may disconnect the graph.
    pub fn without_relation(&self, rel: &RelName) -> Hypergraph {
        let relations = Interner::from_sorted(self.relations().filter(|r| *r != rel).cloned());
        let joins = self
            .joins
            .iter()
            .filter(|j| !j.touches(rel))
            .cloned()
            .collect();
        Hypergraph::from_shared(relations, Arc::new(joins))
    }

    /// Breadth-first shortest join path from `from` to `to`: the sequence
    /// of join constraints realising
    /// `from ⋈_{JC_1} R_1 ⋈ … ⋈_{JC_n} to`. Returns `None` when
    /// unreachable; the empty path when `from == to`.
    pub fn join_path(&self, from: &RelName, to: &RelName) -> Option<Vec<&JoinConstraint>> {
        let (a, b) = (self.rel_id(from)?, self.rel_id(to)?);
        let path = self.join_path_ids(a, b)?;
        Some(path.into_iter().map(|e| &*self.joins[e as usize]).collect())
    }

    /// Enumerate all simple paths (as join-constraint sequences) from
    /// `from` to `to` with at most `max_edges` edges, in deterministic
    /// order. Parallel join constraints yield distinct paths.
    ///
    /// Unbounded in the number of paths — prefer
    /// [`Hypergraph::simple_paths_bounded`] on large graphs, where the
    /// number of simple paths grows combinatorially.
    pub fn all_simple_paths(
        &self,
        from: &RelName,
        to: &RelName,
        max_edges: usize,
    ) -> Vec<Vec<&JoinConstraint>> {
        self.simple_paths_bounded(from, to, max_edges, usize::MAX)
    }

    /// Like [`Hypergraph::all_simple_paths`], but stops after collecting
    /// `max_paths` paths (depth-first order). The DFS visits neighbours
    /// in adjacency order, so the result is deterministic; it is *not*
    /// guaranteed to contain the shortest path when truncated — callers
    /// that need it should union with [`Hypergraph::join_path`].
    pub fn simple_paths_bounded(
        &self,
        from: &RelName,
        to: &RelName,
        max_edges: usize,
        max_paths: usize,
    ) -> Vec<Vec<&JoinConstraint>> {
        let mut out = Vec::new();
        let (a, b) = match (self.rel_id(from), self.rel_id(to)) {
            (Some(a), Some(b)) if max_paths > 0 => (a, b),
            _ => return out,
        };
        let mut visited = self.relset();
        visited.insert(a);
        let mut path: Vec<u32> = Vec::new();
        self.dfs_paths(
            a,
            b,
            max_edges,
            max_paths,
            &mut visited,
            &mut path,
            &mut out,
        );
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs_paths<'a>(
        &'a self,
        cur: RelId,
        to: RelId,
        budget: usize,
        max_paths: usize,
        visited: &mut RelSet,
        path: &mut Vec<u32>,
        out: &mut Vec<Vec<&'a JoinConstraint>>,
    ) {
        if out.len() >= max_paths {
            return;
        }
        if cur == to {
            out.push(path.iter().map(|&e| &*self.joins[e as usize]).collect());
            return;
        }
        if budget == 0 {
            return;
        }
        for (next, edge) in self.neighbors(cur) {
            if out.len() >= max_paths {
                return;
            }
            if visited.contains(next) {
                continue;
            }
            visited.insert(next);
            path.push(edge);
            self.dfs_paths(next, to, budget - 1, max_paths, visited, path, out);
            path.pop();
            visited.remove(next);
        }
    }

    /// The join edges whose predicate mentions `attr`, ascending.
    /// Predicates only mention endpoint attributes
    /// (`MetaKnowledgeBase::add_join` checks it), so only the edges of
    /// `attr`'s relation are examined.
    pub fn edges_mentioning_attr(&self, attr: &AttrRef) -> Vec<u32> {
        let Some(id) = self.rel_id(&attr.relation) else {
            return Vec::new();
        };
        let mut hit = self.incident_edges(id);
        hit.retain(|&e| self.joins[e as usize].contains_attr(attr));
        hit
    }

    /// The join edges incident to vertex `id`, ascending.
    pub(crate) fn incident_edges(&self, id: RelId) -> Vec<u32> {
        let mut edges: Vec<u32> = self.neighbors(id).map(|(_, e)| e).collect();
        edges.sort_unstable();
        // A join of a relation with itself sits in its row twice.
        edges.dedup();
        edges
    }

    /// Degree of a relation (number of incident join constraints).
    pub fn degree(&self, rel: &RelName) -> usize {
        match self.rel_id(rel) {
            Some(id) => {
                (self.adj_offsets[id as usize + 1] - self.adj_offsets[id as usize]) as usize
            }
            None => 0,
        }
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

    /// Two components: A—B—C (and a parallel A—B edge) plus D—E; F isolated.
    fn sample() -> Hypergraph {
        let rels: BTreeSet<RelName> = ["A", "B", "C", "D", "E", "F"]
            .iter()
            .map(|s| rel(s))
            .collect();
        let joins = vec![
            jc("J1", "A", "B"),
            jc("J1b", "A", "B"),
            jc("J2", "B", "C"),
            jc("J3", "D", "E"),
        ];
        Hypergraph::from_parts(rels, joins)
    }

    #[test]
    fn components_counted() {
        let h = sample();
        let comps = h.components();
        assert_eq!(comps.len(), 3); // {A,B,C}, {D,E}, {F}
        let sizes: Vec<usize> = comps.iter().map(|c| c.relations().len()).collect();
        assert_eq!(sizes, vec![3, 2, 1]);
    }

    #[test]
    fn component_of_and_connected_set() {
        let h = sample();
        let comp = h.component_relations(&rel("A")).unwrap();
        assert!(comp.contains(&rel("C")));
        assert!(!comp.contains(&rel("D")));
        assert!(h.is_connected_set(&[rel("A"), rel("C")].into_iter().collect()));
        assert!(!h.is_connected_set(&[rel("A"), rel("D")].into_iter().collect()));
        assert!(h.is_connected_set(&BTreeSet::new()));
        assert!(h.component_relations(&rel("Z")).is_none());
    }

    #[test]
    fn without_relation_disconnects() {
        let h = sample();
        let h2 = h.without_relation(&rel("B"));
        assert!(!h2.contains(&rel("B")));
        // A and C are now separated.
        assert!(!h2.is_connected_set(&[rel("A"), rel("C")].into_iter().collect()));
        // No dangling join constraints.
        assert!(h2.joins().iter().all(|j| !j.touches(&rel("B"))));
    }

    #[test]
    fn join_path_shortest() {
        let h = sample();
        let p = h.join_path(&rel("A"), &rel("C")).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p[1].id, "J2");
        assert!(h.join_path(&rel("A"), &rel("D")).is_none());
        assert_eq!(h.join_path(&rel("A"), &rel("A")).unwrap().len(), 0);
    }

    #[test]
    fn all_simple_paths_includes_parallel_edges() {
        let h = sample();
        let ps = h.all_simple_paths(&rel("A"), &rel("C"), 4);
        // two parallel A—B edges → two paths A-B-C
        assert_eq!(ps.len(), 2);
        let ids: BTreeSet<&str> = ps.iter().map(|p| p[0].id.as_str()).collect();
        assert_eq!(ids, ["J1", "J1b"].into_iter().collect());
        // Budget too small → no paths.
        assert!(h.all_simple_paths(&rel("A"), &rel("C"), 1).is_empty());
    }

    #[test]
    fn degree_and_joins_between() {
        let h = sample();
        assert_eq!(h.degree(&rel("A")), 2);
        assert_eq!(h.degree(&rel("F")), 0);
        assert_eq!(h.joins_between(&rel("A"), &rel("B")).count(), 2);
        assert_eq!(h.joins_of(&rel("B")).count(), 3);
    }

    #[test]
    fn from_parts_drops_dangling_joins() {
        let rels: BTreeSet<RelName> = [rel("A")].into_iter().collect();
        let h = Hypergraph::from_parts(rels, vec![jc("J1", "A", "B")]);
        assert!(h.joins().is_empty());
    }

    #[test]
    fn interner_ids_ascend_with_names() {
        let h = sample();
        let ids: Vec<RelId> = h.relations().map(|r| h.rel_id(r).unwrap()).collect();
        assert_eq!(ids, (0..6).collect::<Vec<RelId>>());
        assert_eq!(h.rel_name(2), &rel("C"));
        assert_eq!(h.rel_id(&rel("Z")), None);
        assert_eq!(h.rel_count(), 6);
    }

    #[test]
    fn csr_adjacency_matches_join_declaration_order() {
        let h = sample();
        let b = h.rel_id(&rel("B")).unwrap();
        // B's joins in declaration order: J1, J1b (as right endpoint), J2
        // (as left endpoint).
        let edges: Vec<u32> = h.neighbors(b).map(|(_, e)| e).collect();
        assert_eq!(edges, vec![0, 1, 2]);
        let (l, r) = h.join_endpoints(2);
        assert_eq!((h.rel_name(l), h.rel_name(r)), (&rel("B"), &rel("C")));
    }

    #[test]
    fn join_ranks_mirror_id_string_order() {
        let h = sample();
        // Declaration order J1, J1b, J2, J3 is already lexicographic.
        let ranks: Vec<u32> = (0..4).map(|e| h.join_rank(e)).collect();
        assert_eq!(ranks, vec![0, 1, 2, 3]);
        // Equal id strings share a rank.
        let rels: BTreeSet<RelName> = ["A", "B"].iter().map(|s| rel(s)).collect();
        let h2 = Hypergraph::from_parts(rels, vec![jc("dup", "A", "B"), jc("dup", "A", "B")]);
        assert_eq!(h2.join_rank(0), h2.join_rank(1));
    }

    #[test]
    fn component_index_and_pair_distance() {
        let h = sample();
        let id = |n: &str| h.rel_id(&rel(n)).unwrap();
        assert_eq!(h.component_count(), 3);
        assert_eq!(h.component_index(id("A")), h.component_index(id("C")));
        assert_ne!(h.component_index(id("A")), h.component_index(id("D")));
        assert_eq!(h.join_path_ids(id("A"), id("C")).map(|p| p.len()), Some(2));
        assert_eq!(h.join_path_ids(id("A"), id("A")), Some(Vec::new()));
        assert_eq!(h.join_path_ids(id("A"), id("D")), None);
    }
}
