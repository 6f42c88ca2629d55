//! The hypergraph structure and its connectivity operations.
//!
//! Internally the graph is data-oriented: relation names are interned
//! to dense `u32` ids ([`crate::intern::Interner`], ids in ascending
//! name order), adjacency is a flat CSR triple
//! (`adj_offsets`/`adj_targets`/`adj_edges`) preserving
//! join-declaration order, and join endpoints live in SoA arrays.
//! Component labels are computed from the CSR by the first connectivity
//! read and kept for the graph's life; building or deriving a graph
//! never computes them. The string-keyed public API is a thin boundary
//! that interns on entry and resolves names on exit, so every legacy
//! result — including iteration and tie-break orders — is reproduced
//! exactly.

use crate::intern::{Interner, RelId};
use crate::relset::RelSet;
use eve_misd::mkb::SharedList;
use eve_misd::{JoinConstraint, MetaKnowledgeBase};
use eve_relational::{AttrRef, RelName};
use std::collections::{BTreeSet, VecDeque};
use std::sync::{Arc, OnceLock};

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
    /// Connected-component index per vertex and the component count,
    /// filled by the first connectivity read (`component_index`,
    /// `component_count`, `components`, `component_relations` or
    /// `is_connected_set`). Components are numbered in ascending order
    /// of their smallest vertex id (= smallest name). Only a derivation
    /// that keeps the topology may carry a filled cell.
    pub(crate) labels: OnceLock<(Vec<u32>, u32)>,
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
fn components_from(n: usize, adj_offsets: &[u32], adj_targets: &[RelId]) -> (Vec<u32>, u32) {
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
        // first, then right — matching the legacy push order).
        let (adj_offsets, adj_targets, adj_edges) = build_csr(n, &join_left, &join_right);

        Hypergraph {
            joins,
            interner: Arc::new(interner),
            adj_offsets,
            adj_targets,
            adj_edges,
            join_left,
            join_right,
            join_rank,
            labels: OnceLock::new(),
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

    /// The component labels: computed over the CSR by the first call,
    /// served from the cell after.
    fn labels(&self) -> &(Vec<u32>, u32) {
        self.labels
            .get_or_init(|| components_from(self.rel_count(), &self.adj_offsets, &self.adj_targets))
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
    /// one over the edges sort both into their components.
    pub fn components(&self) -> Vec<Hypergraph> {
        let (comp_of, count) = self.labels();
        let mut rels = vec![Vec::new(); *count as usize];
        for (name, &c) in self.relations().zip(comp_of) {
            rels[c as usize].push(name.clone());
        }
        let mut joins = vec![Vec::new(); *count as usize];
        for (e, j) in self.joins.iter().enumerate() {
            joins[comp_of[self.join_left[e] as usize] as usize].push(Arc::clone(j));
        }
        rels.into_iter()
            .zip(joins)
            .map(|(rels, joins)| {
                Hypergraph::from_shared(Interner::from_sorted(rels), Arc::new(joins))
            })
            .collect()
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
                if self.join_left[e as usize] == r {
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
        Hypergraph::from_shared(rels, Arc::new(joins))
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
        Hypergraph::from_shared(relations, Arc::new(joins))
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
