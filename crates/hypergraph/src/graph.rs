//! The hypergraph structure and its connectivity operations.
//!
//! Internally the graph is data-oriented: relation names are interned
//! to dense `u32` ids ([`crate::intern::Interner`], ids in ascending
//! name order), adjacency is a flat CSR triple (offsets, targets,
//! edges) preserving join-declaration order, and join endpoints and
//! ranks live in SoA arrays, all of them in one allocation per graph.
//! Component labels are computed from the CSR by the first connectivity
//! read and kept for the graph's life; building or deriving a graph
//! never computes them. The string-keyed public API is a thin boundary
//! that interns on entry and resolves names on exit, so every legacy
//! result — including iteration and tie-break orders — is reproduced
//! exactly.

use crate::intern::{prefix_of, Interner, RelId};
use crate::relset::RelSet;
use eve_misd::{JoinConstraint, MetaKnowledgeBase, RelationDescription};
use eve_relational::{AttrRef, RelName};
use std::collections::{BTreeSet, VecDeque};
use std::sync::{Arc, OnceLock};

/// A graph's join constraints, each the MKB's own `Arc`, in one shared
/// allocation.
pub(crate) type Joins = Arc<[Arc<JoinConstraint>]>;

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
    /// `Arc`-shared too, by the changes that keep every edge.
    pub(crate) joins: Joins,
    /// Name ↔ id bijection over every vertex (isolated ones included);
    /// id order == name order. Persistent, so the changes that keep the
    /// vertex set share it.
    pub(crate) interner: Interner,
    /// Every id array, in one allocation: for `n` vertices and `m`
    /// edges, the CSR offsets (`n + 1`: vertex `v`'s neighbours live in
    /// slots `offsets[v]..offsets[v + 1]`), the neighbour per adjacency
    /// slot (`2m`, in join-declaration order, for each join the left
    /// endpoint's entry before the right's), the edge index per slot
    /// (`2m`), then per edge its left and right endpoints and the dedup
    /// rank of its id string (`m` each). Ranks compare as the id
    /// strings do, so the path search orders candidates by join-id
    /// sequence without comparing strings; delta maintenance and
    /// component splits carry them over edge subsets, so they need not
    /// be dense, only order-preserving within the graph.
    pub(crate) ids: Box<[u32]>,
    /// Connected-component index per vertex and the component count,
    /// filled by the first connectivity read (`component_index`,
    /// `component_count`, `components`, `component_relations` or
    /// `is_connected_set`). Components are numbered in ascending order
    /// of their smallest vertex id (= smallest name). Only a derivation
    /// that keeps the topology may carry a filled cell.
    pub(crate) labels: OnceLock<(Vec<u32>, u32)>,
}

/// The packed id arrays of a graph of `n` vertices whose edge `e` joins
/// `join_left[e]` and `join_right[e]` and has rank `join_rank[e]`: the
/// CSR filled in join-declaration order (left endpoint first, then
/// right — the legacy push order), then the edge arrays. Pure integer
/// work.
fn pack_ids(n: usize, join_left: &[RelId], join_right: &[RelId], join_rank: &[u32]) -> Box<[u32]> {
    let m = join_left.len();
    let mut ids = vec![0u32; n + 1 + 7 * m].into_boxed_slice();
    let (offsets, rest) = ids.split_at_mut(n + 1);
    let (targets, rest) = rest.split_at_mut(2 * m);
    let (edges, rest) = rest.split_at_mut(2 * m);
    // Each row's end first, then each row filled back from its end by
    // a walk over the edges in reverse: rows come out in edge order,
    // and each offset at its row's start.
    for e in 0..m {
        offsets[join_left[e] as usize] += 1;
        offsets[join_right[e] as usize] += 1;
    }
    let mut end = 0;
    for offset in offsets.iter_mut() {
        end += *offset;
        *offset = end;
    }
    for e in (0..m).rev() {
        for (from, to) in [(join_right[e], join_left[e]), (join_left[e], join_right[e])] {
            offsets[from as usize] -= 1;
            let slot = offsets[from as usize] as usize;
            targets[slot] = to;
            edges[slot] = e as u32;
        }
    }
    for (dst, src) in rest
        .chunks_mut(m.max(1))
        .zip([join_left, join_right, join_rank])
    {
        dst.copy_from_slice(src);
    }
    ids
}

/// Connected components over a CSR adjacency, seeded in ascending id
/// (= name) order so component indices sort by smallest member name.
fn components_from(n: usize, offsets: &[u32], targets: &[RelId]) -> (Vec<u32>, u32) {
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
                offsets[r as usize] as usize,
                offsets[r as usize + 1] as usize,
            );
            for &next in &targets[lo..hi] {
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

impl PartialEq for Hypergraph {
    fn eq(&self, other: &Self) -> bool {
        // The derived structures are pure functions of (relations, joins).
        self.relations().eq(other.relations()) && self.joins == other.joins
    }
}

/// Dedup lexicographic ranks of the join id strings `ids`, appended to
/// `out`; `sorted` is scratch.
fn rank_ids<'a>(
    ids: impl Iterator<Item = &'a str> + Clone,
    sorted: &mut Vec<&'a str>,
    out: &mut Vec<u32>,
) {
    sorted.clear();
    sorted.extend(ids.clone());
    sorted.sort_unstable();
    sorted.dedup();
    out.extend(ids.map(|id| sorted.binary_search(&id).expect("id ranked") as u32));
}

/// Union-find root of `v`, halving paths on the way.
fn find(parent: &mut [u32], mut v: u32) -> u32 {
    while parent[v as usize] != v {
        let up = parent[parent[v as usize] as usize];
        parent[v as usize] = up;
        v = up;
    }
    v
}

/// The items `0..keys.len()` grouped by key (each below `count`), in
/// item order within a group, and the `count + 1` group bounds.
fn group_by(
    keys: impl ExactSizeIterator<Item = u32> + Clone,
    count: usize,
) -> (Vec<u32>, Vec<u32>) {
    let mut bounds = vec![0u32; count + 1];
    for k in keys.clone() {
        bounds[k as usize + 1] += 1;
    }
    for c in 0..count {
        bounds[c + 1] += bounds[c];
    }
    let mut order = vec![0u32; keys.len()];
    let mut next = bounds.clone();
    for (i, k) in keys.enumerate() {
        order[next[k as usize] as usize] = i as u32;
        next[k as usize] += 1;
    }
    (order, bounds)
}

/// Split a graph given as vertex names (id order) and edges
/// `(constraint, left id, right id)` by the component label of each
/// vertex: part `c` gets the vertices labelled `c`, renumbered in id
/// order, and the edges between them in edge order, with their ranks
/// carried from `rank` or, without one, ranked within the part. Every
/// array is grouped by one counting sort and the parts are cut from
/// them, so a part costs its own allocations and nothing more.
fn partition(
    names: &[&RelName],
    comp_of: &[u32],
    count: usize,
    edges: &[(&Arc<JoinConstraint>, RelId, RelId)],
    rank: Option<&[u32]>,
) -> Vec<Hypergraph> {
    let (vertices, vertex_bounds) = group_by(comp_of.iter().copied(), count);
    let (by_part, edge_bounds) =
        group_by(edges.iter().map(|&(_, l, _)| comp_of[l as usize]), count);
    let mut local = vec![0 as RelId; names.len()];
    let (mut left, mut right, mut ranks, mut sorted) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    (0..count)
        .map(|c| {
            let members = &vertices[vertex_bounds[c] as usize..vertex_bounds[c + 1] as usize];
            for (i, &v) in members.iter().enumerate() {
                local[v as usize] = i as RelId;
            }
            let part = &by_part[edge_bounds[c] as usize..edge_bounds[c + 1] as usize];
            let part_edges = part.iter().map(|&e| &edges[e as usize]);
            left.clear();
            left.extend(part_edges.clone().map(|&(_, l, _)| local[l as usize]));
            right.clear();
            right.extend(part_edges.clone().map(|&(_, _, r)| local[r as usize]));
            ranks.clear();
            match rank {
                Some(rank) => ranks.extend(part.iter().map(|&e| rank[e as usize])),
                None => rank_ids(
                    part_edges.clone().map(|(j, ..)| j.id.as_str()),
                    &mut sorted,
                    &mut ranks,
                ),
            }
            Hypergraph::from_ids(
                Interner::from_sorted(members.iter().map(|&v| names[v as usize].clone())),
                part_edges.map(|(j, ..)| Arc::clone(j)).collect(),
                &left,
                &right,
                &ranks,
            )
        })
        .collect()
}

impl Hypergraph {
    /// Build `H(MKB)` from a meta knowledge base.
    pub fn build(mkb: &MetaKnowledgeBase) -> Self {
        // MKB validation guarantees every endpoint is described.
        Self::from_shared(
            Interner::from_sorted(mkb.relation_names().cloned()),
            mkb.joins().iter().cloned().collect(),
        )
    }

    /// The connected components of `H(MKB)` restricted to the relations
    /// `keep` accepts (as [`Hypergraph::build_filtered`] would build the
    /// graph), each a graph of its own, ordered by smallest relation
    /// name; and, for every kept relation in name order, the index of
    /// its component. The components are found by union-find over
    /// integer ids in one pass over the join list, and each one ranks
    /// its own join ids: the whole graph is never built, and no id is
    /// sorted against another component's.
    pub fn build_components(
        mkb: &MetaKnowledgeBase,
        keep: impl Fn(&RelationDescription) -> bool,
    ) -> (Vec<Hypergraph>, Vec<u32>) {
        let names: Vec<(u64, &RelName)> = mkb
            .relations()
            .filter(|d| keep(d))
            .map(|d| (prefix_of(&d.name), &d.name))
            .collect();
        let id = |r: &RelName| {
            let key = (prefix_of(r), r);
            names.binary_search(&key).ok().map(|i| i as RelId)
        };
        let mut edges = Vec::new();
        let mut parent: Vec<u32> = (0..names.len() as u32).collect();
        for j in mkb.joins() {
            if let (Some(l), Some(r)) = (id(&j.left), id(&j.right)) {
                let (a, b) = (find(&mut parent, l), find(&mut parent, r));
                parent[a.max(b) as usize] = a.min(b);
                edges.push((j, l, r));
            }
        }
        // Label components by their smallest member.
        let mut comp_of = vec![0u32; names.len()];
        let mut count = 0;
        for v in 0..names.len() as u32 {
            let root = find(&mut parent, v);
            comp_of[v as usize] = if root == v {
                count += 1;
                count - 1
            } else {
                comp_of[root as usize]
            };
        }
        let names: Vec<&RelName> = names.iter().map(|&(_, n)| n).collect();
        let parts = partition(&names, &comp_of, count as usize, &edges, None);
        (parts, comp_of)
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
        Self::from_shared(interner, joins)
    }

    /// Build from explicit parts (used for sub-hypergraphs and tests).
    /// Join constraints whose endpoints are not both present are dropped.
    pub fn from_parts(relations: BTreeSet<RelName>, joins: Vec<JoinConstraint>) -> Self {
        let joins = joins
            .into_iter()
            .filter(|j| relations.contains(&j.left) && relations.contains(&j.right))
            .map(Arc::new)
            .collect();
        Self::from_shared(Interner::from_sorted(relations), joins)
    }

    /// A graph of one isolated vertex.
    pub fn singleton(rel: RelName) -> Self {
        Self::from_ids(Interner::from_sorted([rel]), Arc::new([]), &[], &[], &[])
    }

    /// [`Hypergraph::from_parts`] over interned vertices and shared joins
    /// whose endpoints are all vertices.
    fn from_shared(interner: Interner, joins: Joins) -> Self {
        let (join_left, join_right): (Vec<RelId>, Vec<RelId>) = joins
            .iter()
            .map(|j| {
                let id = |r| interner.get(r).expect("endpoint present");
                (id(&j.left), id(&j.right))
            })
            .unzip();
        let mut join_rank = Vec::with_capacity(joins.len());
        rank_ids(
            joins.iter().map(|j| j.id.as_str()),
            &mut Vec::new(),
            &mut join_rank,
        );
        Self::from_ids(interner, joins, &join_left, &join_right, &join_rank)
    }

    /// The graph over `interner`'s vertices whose edge `e` is `joins[e]`,
    /// between vertices `join_left[e]` and `join_right[e]`, of id rank
    /// `join_rank[e]`: only the CSR is computed, from integers.
    pub(crate) fn from_ids(
        interner: Interner,
        joins: Joins,
        join_left: &[RelId],
        join_right: &[RelId],
        join_rank: &[u32],
    ) -> Self {
        Hypergraph {
            ids: pack_ids(interner.len(), join_left, join_right, join_rank),
            joins,
            interner,
            labels: OnceLock::new(),
        }
    }

    /// The CSR offsets (`rel_count() + 1`).
    pub(crate) fn offsets(&self) -> &[u32] {
        &self.ids[..=self.rel_count()]
    }

    /// The neighbour per adjacency slot.
    pub(crate) fn targets(&self) -> &[RelId] {
        let start = self.rel_count() + 1;
        &self.ids[start..start + 2 * self.joins.len()]
    }

    /// The edge index per adjacency slot.
    pub(crate) fn slot_edges(&self) -> &[u32] {
        let start = self.rel_count() + 1 + 2 * self.joins.len();
        &self.ids[start..start + 2 * self.joins.len()]
    }

    /// Per edge: the left endpoints, the right endpoints and the ranks.
    pub(crate) fn edge_arrays(&self) -> (&[RelId], &[RelId], &[u32]) {
        let m = self.joins.len();
        let edges = &self.ids[self.ids.len() - 3 * m..];
        (&edges[..m], &edges[m..2 * m], &edges[2 * m..])
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
        let offsets = self.offsets();
        let (lo, hi) = (
            offsets[id as usize] as usize,
            offsets[id as usize + 1] as usize,
        );
        self.targets()[lo..hi]
            .iter()
            .copied()
            .zip(self.slot_edges()[lo..hi].iter().copied())
    }

    /// Endpoints of join edge `e` as `(left, right)` ids.
    pub fn join_endpoints(&self, e: u32) -> (RelId, RelId) {
        let (left, right, _) = self.edge_arrays();
        (left[e as usize], right[e as usize])
    }

    /// Dedup lexicographic rank of `joins[e].id`: ranks compare exactly
    /// as the id strings do (equal strings share a rank).
    pub fn join_rank(&self, e: u32) -> u32 {
        self.edge_arrays().2[e as usize]
    }

    /// The component labels: computed over the CSR by the first call,
    /// served from the cell after.
    fn labels(&self) -> &(Vec<u32>, u32) {
        self.labels
            .get_or_init(|| components_from(self.rel_count(), self.offsets(), self.targets()))
    }

    /// The connected-component index of vertex `id`. Components are
    /// numbered ascending by smallest member name.
    pub fn component_index(&self, id: RelId) -> u32 {
        self.labels().0[id as usize]
    }

    /// Number of connected components.
    pub fn component_count(&self) -> usize {
        self.labels().1 as usize
    }

    // ---- string-keyed boundary ----------------------------------------

    /// The set of relations reachable from `start` (its connected
    /// component's vertex set `S_R(MKB)`), or `None` when `start` is not a
    /// vertex. Served from the component labels — no traversal, no
    /// whole-set clone.
    pub fn component_relations(&self, start: &RelName) -> Option<BTreeSet<RelName>> {
        let comp = self.component_index(self.rel_id(start)?);
        Some(self.component_members(comp).cloned().collect())
    }

    /// The connected sub-hypergraph `H_R(MKB)` containing `start`
    /// (Step 1 of the CVS algorithm), or `None` when `start` is absent.
    pub fn component_of(&self, start: &RelName) -> Option<Hypergraph> {
        Some(self.component_containing(self.rel_id(start)?))
    }

    /// The names of component `comp`'s vertices, ascending.
    fn component_members(&self, comp: u32) -> impl Iterator<Item = &RelName> {
        let comp_of = &self.labels().0;
        (0..self.rel_count() as RelId)
            .filter(move |&v| comp_of[v as usize] == comp)
            .map(|v| self.interner.name(v))
    }

    /// All maximal connected components, each as a sub-hypergraph, ordered
    /// by their smallest relation name. One pass over the vertices and
    /// one over the edges sort both into their components, renumbering
    /// ids and carrying ranks by integer maps.
    pub fn components(&self) -> Vec<Hypergraph> {
        let (comp_of, count) = self.labels();
        let (left, right, rank) = self.edge_arrays();
        let names: Vec<&RelName> = self.relations().collect();
        let edges: Vec<_> = (0..self.joins.len())
            .map(|e| (&self.joins[e], left[e], right[e]))
            .collect();
        partition(&names, comp_of, *count as usize, &edges, Some(rank))
    }

    /// The connected sub-hypergraph containing vertex `id`, gathered by
    /// a breadth-first walk over the CSR adjacency, so it costs the
    /// component's size rather than the graph's, and labels nothing.
    ///
    /// # Panics
    /// When `id >= rel_count()`.
    pub fn component_containing(&self, id: RelId) -> Hypergraph {
        let mut seen = self.relset();
        seen.insert(id);
        let mut members = vec![id];
        let mut edges = Vec::new();
        let mut next = 0;
        while let Some(&r) = members.get(next) {
            next += 1;
            for (t, e) in self.neighbors(r) {
                // Each edge once, from its left endpoint's row.
                if self.join_endpoints(e).0 == r {
                    edges.push(e);
                }
                if seen.insert(t) {
                    members.push(t);
                }
            }
        }
        // Ids ascend with names and edge indices with declaration order.
        members.sort_unstable();
        edges.sort_unstable();
        // A self-join sits twice in its vertex's row.
        edges.dedup();
        let rels = Interner::from_sorted(members.iter().map(|&v| self.interner.name(v).clone()));
        let joins = edges
            .iter()
            .map(|&e| Arc::clone(&self.joins[e as usize]))
            .collect();
        Hypergraph::from_shared(rels, joins)
    }

    /// Is the given set of relations mutually connected *within this
    /// hypergraph* (all in one component)? The empty set and singletons
    /// are trivially connected. With the component labels this is one
    /// comparison per relation.
    pub fn is_connected_set(&self, rels: &BTreeSet<RelName>) -> bool {
        let mut iter = rels.iter();
        let first = match iter.next() {
            Some(f) => f,
            None => return true,
        };
        let comp = match self.rel_id(first) {
            Some(id) => self.component_index(id),
            None => return false,
        };
        iter.all(|r| {
            self.rel_id(r)
                .is_some_and(|id| self.component_index(id) == comp)
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
        Hypergraph::from_shared(relations, joins)
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
        // Building labels nothing; the first connectivity read does.
        assert!(h.labels.get().is_none());
        assert!(h.component_containing(0).labels.get().is_none());
        let comps = h.components();
        assert_eq!(comps.len(), 3); // {A,B,C}, {D,E}, {F}
        let sizes: Vec<usize> = comps.iter().map(|c| c.relations().len()).collect();
        assert_eq!(sizes, vec![3, 2, 1]);
    }

    /// The CSR walk gathers exactly the component `components()` sorts
    /// out, joins in declaration order, from any member: with edges
    /// declared right-to-left, parallel edges and a self-join.
    #[test]
    fn component_containing_matches_components() {
        let rels: BTreeSet<RelName> = ["A", "B", "C", "D", "E", "F"]
            .iter()
            .map(|s| rel(s))
            .collect();
        let joins = vec![
            jc("J1", "C", "B"),
            jc("J2", "D", "E"),
            jc("J3", "B", "B"),
            jc("J4", "A", "B"),
            jc("J5", "B", "C"),
        ];
        let h = Hypergraph::from_parts(rels, joins);
        let comps = h.components();
        for v in 0..h.rel_count() as RelId {
            let comp = h.component_containing(v);
            assert_eq!(comp, comps[h.component_index(v) as usize], "from {v}");
        }
        let abc = h.component_of(&rel("C")).unwrap();
        let ids: Vec<&str> = abc.joins().iter().map(|j| j.id.as_str()).collect();
        assert_eq!(ids, ["J1", "J3", "J4", "J5"]);
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

    /// The component build equals the components of the whole graph,
    /// filtered or not, and labels each kept relation with its own.
    #[test]
    fn build_components_matches_components() {
        use eve_misd::RelationDescription;
        use eve_relational::{AttributeDef, DataType};
        let mut mkb = MetaKnowledgeBase::new();
        for (i, name) in ["A", "B", "C", "D", "E", "F", "G"].iter().enumerate() {
            let mut d =
                RelationDescription::new("IS", *name, vec![AttributeDef::new("k", DataType::Int)]);
            d.capabilities.join = i != 2;
            mkb.add_relation(d).unwrap();
        }
        // Declared out of id order: G—F, then A—B—C—D with a parallel
        // A—B edge; E is isolated.
        for (id, l, r) in [
            ("J9", "G", "F"),
            ("J1", "C", "D"),
            ("J5", "A", "B"),
            ("J2", "B", "C"),
            ("J0", "A", "B"),
        ] {
            mkb.add_join(jc(id, l, r)).unwrap();
        }
        let check = |whole: Hypergraph, (parts, labels): (Vec<Hypergraph>, Vec<u32>)| {
            assert_eq!(parts, whole.components());
            for (v, name) in whole.relations().enumerate() {
                assert!(parts[labels[v] as usize].contains(name), "{name}");
            }
            for part in &parts {
                for a in 0..part.joins().len() as u32 {
                    for b in 0..part.joins().len() as u32 {
                        let ids = (&part.joins()[a as usize].id, &part.joins()[b as usize].id);
                        assert_eq!(part.join_rank(a).cmp(&part.join_rank(b)), ids.0.cmp(ids.1));
                    }
                }
            }
        };
        check(
            Hypergraph::build(&mkb),
            Hypergraph::build_components(&mkb, |_| true),
        );
        let join = |d: &RelationDescription| d.capabilities.join;
        check(
            Hypergraph::build_filtered(&mkb, join),
            Hypergraph::build_components(&mkb, join),
        );
        assert_eq!(Hypergraph::build_components(&mkb, join).0.len(), 4);
    }

    #[test]
    fn component_index_and_pair_distance() {
        let h = sample();
        let id = |n: &str| h.rel_id(&rel(n)).unwrap();
        assert_eq!(h.component_count(), 3);
        assert_eq!(h.component_index(id("A")), h.component_index(id("C")));
        assert_ne!(h.component_index(id("A")), h.component_index(id("D")));
        // The two-terminal search's first tree is a shortest path.
        let distance = |a: &str, b: &str| {
            let pair = [rel(a), rel(b)].into_iter().collect();
            h.tree_cursor(&pair, usize::MAX)
                .next()
                .map(|tree| tree.joins.len())
        };
        assert_eq!(distance("A", "C"), Some(2));
        assert_eq!(distance("A", "D"), None);
    }
}
