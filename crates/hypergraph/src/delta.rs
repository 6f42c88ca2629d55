//! Incremental hypergraph maintenance: apply one capability change as a
//! typed [`GraphDelta`] instead of rebuilding the graph from scratch.
//!
//! Every derived structure of [`Hypergraph`] — interner, CSR adjacency,
//! SoA endpoints, join-id ranks — is patched with integer work; no
//! relation name is re-hashed and no join-id string is re-sorted. The
//! correctness contract is *rebuild equivalence*: `h.apply_delta(d)`
//! must be indistinguishable from `Hypergraph::from_parts` over the
//! mutated `(relations, joins)` — the property tests below compare
//! every internal array.
//!
//! Two facts keep the patch logic small:
//!
//! * **Component labels are never patched.** A graph labels its
//!   components on its first connectivity read, so a derived graph
//!   starts unlabelled whenever its topology differs from its input's;
//!   only the changes that keep the topology (`rename-attribute`, and
//!   the no-op cases) carry a filled label cell.
//! * **Join-id ranks only need to be order-preserving, not dense.** A
//!   subset of the old ranks compares exactly like the corresponding
//!   subset of id strings, so deletions carry ranks verbatim.

use crate::graph::{Hypergraph, Joins};
use crate::intern::{Interner, RelId};
use eve_misd::JoinConstraint;
use eve_relational::{AttrName, AttrRef, RelName, ScalarExpr};
use std::sync::Arc;

/// One capability change projected onto a single hypergraph, in terms of
/// the graph's own vocabulary (vertices and join edges).
///
/// The six MKB capability changes map onto these as: `add-relation` →
/// [`GraphDelta::AddVertex`], `delete-relation` →
/// [`GraphDelta::RemoveVertex`], `rename-relation` →
/// [`GraphDelta::RenameVertex`], `delete-attribute` →
/// [`GraphDelta::RemoveAttrEdges`], `rename-attribute` →
/// [`GraphDelta::RenameAttr`], and `add-attribute` →
/// [`GraphDelta::None`] (a new attribute can appear in no existing join
/// constraint).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphDelta {
    /// The change does not touch this graph.
    None,
    /// A new (isolated) relation vertex.
    AddVertex(RelName),
    /// Erase a relation vertex and every incident join edge. A no-op
    /// when the vertex is absent (e.g. a non-join-capable relation in
    /// the capability-filtered graph).
    RemoveVertex(RelName),
    /// Rename a relation vertex; the join constraints incident to it are
    /// rewritten to match (mirroring `eve_misd::evolve`). When `from` is
    /// not a vertex the graph is untouched.
    RenameVertex {
        /// Old vertex name.
        from: RelName,
        /// New vertex name.
        to: RelName,
    },
    /// Drop every join edge whose predicate mentions the attribute
    /// (`delete-attribute` semantics).
    RemoveAttrEdges(AttrRef),
    /// Rewrite the join predicates mentioning the attribute to its new
    /// name (`rename-attribute` semantics). Topology is unchanged.
    RenameAttr {
        /// Old attribute reference.
        from: AttrRef,
        /// New attribute name (same relation).
        to: AttrName,
    },
}

impl Hypergraph {
    /// Apply one [`GraphDelta`], producing the post-change graph. The
    /// result is equivalent (every derived array included) to rebuilding
    /// via [`Hypergraph::from_parts`] over the mutated parts, but no
    /// string is hashed or rank-sorted, and no component is labelled.
    pub fn apply_delta(&self, delta: &GraphDelta) -> Hypergraph {
        match delta {
            GraphDelta::None => self.clone(),
            GraphDelta::AddVertex(name) => self.with_vertex_added(name),
            GraphDelta::RemoveVertex(name) => self.with_vertex_removed(name),
            GraphDelta::RenameVertex { from, to } => self.with_vertex_renamed(from, to),
            GraphDelta::RemoveAttrEdges(attr) => self.with_attr_edges_removed(attr),
            GraphDelta::RenameAttr { from, to } => self.with_attr_renamed(from, to),
        }
    }

    /// Add an isolated vertex: shift ids `>=` the insertion point.
    fn with_vertex_added(&self, name: &RelName) -> Hypergraph {
        let Some((interner, new_id)) = self.interner.with_inserted(name) else {
            // Already a vertex (evolve would have rejected the change).
            return self.clone();
        };
        let bump = |v: RelId| if v >= new_id { v + 1 } else { v };
        let (left, right, rank) = self.edge_arrays();
        let left: Vec<RelId> = left.iter().map(|&v| bump(v)).collect();
        let right: Vec<RelId> = right.iter().map(|&v| bump(v)).collect();
        Hypergraph::from_ids(interner, Arc::clone(&self.joins), &left, &right, rank)
    }

    /// The edges `keep` accepts, over `interner` with endpoints mapped by
    /// `map`. Carried ranks are a subset of the old ranks: not dense, but
    /// order-preserving, which is all comparisons need.
    fn with_edges(
        &self,
        interner: Interner,
        keep: impl Fn(RelId, RelId, u32) -> bool,
        map: impl Fn(RelId) -> RelId,
    ) -> Hypergraph {
        let (left, right, rank) = self.edge_arrays();
        let kept: Vec<usize> = (0..self.joins.len())
            .filter(|&e| keep(left[e], right[e], e as u32))
            .collect();
        let joins: Joins = kept.iter().map(|&e| Arc::clone(&self.joins[e])).collect();
        let left: Vec<RelId> = kept.iter().map(|&e| map(left[e])).collect();
        let right: Vec<RelId> = kept.iter().map(|&e| map(right[e])).collect();
        let rank: Vec<u32> = kept.iter().map(|&e| rank[e]).collect();
        Hypergraph::from_ids(interner, joins, &left, &right, &rank)
    }

    /// Erase a vertex and its incident edges.
    fn with_vertex_removed(&self, name: &RelName) -> Hypergraph {
        let Some((interner, rid)) = self.interner.with_removed(name) else {
            // Not a vertex here (filtered graph): nothing to erase.
            return self.clone();
        };
        self.with_edges(
            interner,
            |l, r, _| l != rid && r != rid,
            |v| if v > rid { v - 1 } else { v },
        )
    }

    /// Rename a vertex: permute ids and rewrite the incident join
    /// constraints the way `eve_misd::evolve` does. Every other edge
    /// keeps its `Arc`.
    fn with_vertex_renamed(&self, from: &RelName, to: &RelName) -> Hypergraph {
        let Some((interner, old_id, new_id)) = self.interner.with_renamed(from, to) else {
            // `from` is not a vertex here (capability-filtered graph), so
            // no edge mentions it: predicates only mention endpoints.
            return self.clone();
        };
        let rename = |r: &RelName| if r == from { to.clone() } else { r.clone() };
        let joins = rewrite_edges(&self.joins, &self.incident_edges(old_id), |j| {
            JoinConstraint {
                id: j.id.clone(),
                left: rename(&j.left),
                right: rename(&j.right),
                predicate: j.predicate.rename_relation(from, to),
            }
        });
        // remove-at-old then insert-at-new: ids permute in two shifts.
        let perm = |v: RelId| -> RelId {
            if v == old_id {
                return new_id;
            }
            let mid = if v > old_id { v - 1 } else { v };
            if mid >= new_id {
                mid + 1
            } else {
                mid
            }
        };
        let (left, right, rank) = self.edge_arrays();
        let left: Vec<RelId> = left.iter().map(|&v| perm(v)).collect();
        let right: Vec<RelId> = right.iter().map(|&v| perm(v)).collect();
        Hypergraph::from_ids(interner, joins, &left, &right, rank)
    }

    /// Drop every edge mentioning `attr`.
    fn with_attr_edges_removed(&self, attr: &AttrRef) -> Hypergraph {
        let hit = self.edges_mentioning_attr(attr);
        if hit.is_empty() {
            return self.clone();
        }
        self.with_edges(
            self.interner.clone(),
            |_, _, e| hit.binary_search(&e).is_err(),
            |v| v,
        )
    }

    /// Rewrite the predicates mentioning a renamed attribute. Topology,
    /// ids, ranks and components are all invariant — only those join
    /// constraint values change, and filled labels are kept.
    fn with_attr_renamed(&self, from: &AttrRef, to: &AttrName) -> Hypergraph {
        let new_ref = ScalarExpr::Attr(AttrRef::new(from.relation.clone(), to.clone()));
        let hit = self.edges_mentioning_attr(from);
        let mut out = self.clone();
        out.joins = rewrite_edges(&self.joins, &hit, |j| JoinConstraint {
            id: j.id.clone(),
            left: j.left.clone(),
            right: j.right.clone(),
            predicate: j.predicate.substitute(from, &new_ref),
        });
        out
    }
}

/// `joins` with the edges `hit` replaced by `rewrite` of them. Every
/// other edge keeps its `Arc`, and the list its own when `hit` is empty.
fn rewrite_edges(
    joins: &Joins,
    hit: &[u32],
    rewrite: impl Fn(&JoinConstraint) -> JoinConstraint,
) -> Joins {
    if hit.is_empty() {
        return Arc::clone(joins);
    }
    let mut out = joins.to_vec();
    for &e in hit {
        out[e as usize] = Arc::new(rewrite(&joins[e as usize]));
    }
    out.into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eve_relational::{Clause, Conjunction};
    use std::collections::BTreeSet;

    fn rel(n: &str) -> RelName {
        RelName::new(n)
    }

    fn jc(id: &str, l: &str, r: &str, la: &str, ra: &str) -> JoinConstraint {
        JoinConstraint::new(
            id,
            l,
            r,
            Conjunction::new(vec![Clause::eq_attrs(
                AttrRef::new(l, la),
                AttrRef::new(r, ra),
            )]),
        )
    }

    /// xorshift64* — deterministic, no external crates.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545F4914F6CDD1D)
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// The rebuild-equivalence oracle: every derived array of the
    /// delta-maintained graph must match the from-scratch build, except
    /// ranks, which only have to be order-isomorphic to the id strings.
    fn assert_equivalent(patched: &Hypergraph, rebuilt: &Hypergraph) {
        assert_eq!(patched.joins, rebuilt.joins);
        assert!(patched.interner.names().eq(rebuilt.interner.names()));
        let (p, r) = (patched.edge_arrays(), rebuilt.edge_arrays());
        assert_eq!((p.0, p.1), (r.0, r.1));
        assert_eq!(patched.offsets(), rebuilt.offsets());
        assert_eq!(patched.targets(), rebuilt.targets());
        assert_eq!(patched.slot_edges(), rebuilt.slot_edges());
        let rank = p.2;
        for a in 0..patched.joins.len() {
            for b in 0..patched.joins.len() {
                assert_eq!(
                    rank[a].cmp(&rank[b]),
                    patched.joins[a].id.cmp(&patched.joins[b].id),
                    "rank order diverged from id order at ({a}, {b})"
                );
            }
        }
    }

    fn random_graph(rng: &mut Rng, rels: usize, joins: usize) -> Hypergraph {
        let names: Vec<RelName> = (0..rels).map(|i| rel(&format!("R{i:02}"))).collect();
        let mut edges = Vec::new();
        for e in 0..joins {
            let a = rng.below(rels);
            let b = rng.below(rels);
            if a == b {
                continue;
            }
            edges.push(jc(
                &format!("J{:02}", rng.below(joins)), // duplicate ids on purpose
                names[a].as_str(),
                names[b].as_str(),
                &format!("k{}", e % 3),
                &format!("k{}", e % 3),
            ));
        }
        Hypergraph::from_parts(names.into_iter().collect(), edges)
    }

    fn rebuild(h: &Hypergraph, delta: &GraphDelta) -> Hypergraph {
        // The oracle: mutate (relations, joins) by hand, then from_parts.
        let mut relations: BTreeSet<RelName> = h.relations().cloned().collect();
        let mut joins: Vec<JoinConstraint> = h.joins.iter().map(|j| (**j).clone()).collect();
        match delta {
            GraphDelta::None => {}
            GraphDelta::AddVertex(n) => {
                relations.insert(n.clone());
            }
            GraphDelta::RemoveVertex(n) => {
                relations.remove(n);
                joins.retain(|j| !j.touches(n));
            }
            GraphDelta::RenameVertex { from, to } => {
                if relations.remove(from) {
                    relations.insert(to.clone());
                }
                for j in &mut joins {
                    if &j.left == from {
                        j.left = to.clone();
                    }
                    if &j.right == from {
                        j.right = to.clone();
                    }
                    j.predicate = j.predicate.rename_relation(from, to);
                }
            }
            GraphDelta::RemoveAttrEdges(attr) => {
                joins.retain(|j| !j.attrs().contains(attr));
            }
            GraphDelta::RenameAttr { from, to } => {
                let new_ref = ScalarExpr::Attr(AttrRef::new(from.relation.clone(), to.clone()));
                for j in &mut joins {
                    j.predicate = j.predicate.substitute(from, &new_ref);
                }
            }
        }
        Hypergraph::from_parts(relations, joins)
    }

    #[test]
    fn random_deltas_match_rebuild() {
        let mut rng = Rng(0x5EED_CAFE_F00D_0001);
        for round in 0..40 {
            let (rels, joins) = (3 + rng.below(10), rng.below(16));
            let mut h = random_graph(&mut rng, rels, joins);
            // Chain several deltas so later ones exercise carried state
            // (non-dense ranks, label cells).
            for step in 0..6 {
                let names: Vec<RelName> = h.relations().cloned().collect();
                let delta = if names.is_empty() {
                    GraphDelta::AddVertex(rel(&format!("N{round}_{step}")))
                } else {
                    let pick = names[rng.below(names.len())].clone();
                    match rng.below(6) {
                        0 => GraphDelta::AddVertex(rel(&format!("N{round}_{step}"))),
                        1 => GraphDelta::RemoveVertex(pick),
                        2 => GraphDelta::RenameVertex {
                            from: pick,
                            to: rel(&format!("M{round}_{step}")),
                        },
                        3 => GraphDelta::RemoveAttrEdges(AttrRef::new(
                            pick.as_str(),
                            format!("k{}", rng.below(3)),
                        )),
                        4 => GraphDelta::RenameAttr {
                            from: AttrRef::new(pick.as_str(), format!("k{}", rng.below(3))),
                            to: AttrName::new(format!("x{round}_{step}")),
                        },
                        _ => GraphDelta::None,
                    }
                };
                // Label the input first, so a delta that carried its
                // labels across a topology change would be caught.
                h.component_count();
                let patched = h.apply_delta(&delta);
                let rebuilt = rebuild(&h, &delta);
                assert_equivalent(&patched, &rebuilt);
                assert_eq!(patched.component_count(), rebuilt.component_count());
                for v in 0..rebuilt.rel_count() as RelId {
                    assert_eq!(patched.component_index(v), rebuilt.component_index(v));
                }
                h = patched;
            }
        }
    }

    #[test]
    fn remove_vertex_splits_component() {
        let rels: BTreeSet<RelName> = ["A", "B", "C", "D"].iter().map(|s| rel(s)).collect();
        let joins = vec![
            jc("J1", "A", "B", "k", "k"),
            jc("J2", "B", "C", "k", "k"),
            jc("J3", "C", "D", "k", "k"),
        ];
        let h = Hypergraph::from_parts(rels, joins);
        assert_eq!(h.component_count(), 1);
        let split = h.apply_delta(&GraphDelta::RemoveVertex(rel("B")));
        assert_equivalent(&split, &rebuild(&h, &GraphDelta::RemoveVertex(rel("B"))));
        // A is isolated; C—D survive as one component.
        assert_eq!(split.component_count(), 2);
        assert!(!split.is_connected_set(&[rel("A"), rel("C")].into_iter().collect()));
        assert!(split.is_connected_set(&[rel("C"), rel("D")].into_iter().collect()));
    }

    #[test]
    fn absent_vertex_ops_are_noops() {
        let rels: BTreeSet<RelName> = ["A", "B"].iter().map(|s| rel(s)).collect();
        let h = Hypergraph::from_parts(rels, vec![jc("J1", "A", "B", "k", "k")]);
        let removed = h.apply_delta(&GraphDelta::RemoveVertex(rel("Z")));
        assert_equivalent(&removed, &h);
        let renamed = h.apply_delta(&GraphDelta::RenameVertex {
            from: rel("Z"),
            to: rel("Y"),
        });
        assert_equivalent(&renamed, &h);
    }
}
