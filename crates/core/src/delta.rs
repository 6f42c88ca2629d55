//! Delta maintenance of the MKB-derived index state.
//!
//! [`IndexCore`] is every derived structure of **one** MKB version —
//! the full hypergraph `H`, its connected components, the
//! capability-filtered join graph, the attribute→cover map and the
//! relation-pair→PC buckets — held behind [`Arc`]s so consecutive
//! versions structurally share everything a change did not touch.
//!
//! [`MkbDelta`] is one capability change typed per operator:
//! the change projected onto each hypergraph as a
//! [`GraphDelta`], plus the constraint-map edits. Applying it to an
//! `IndexCore` ([`IndexCore::apply_delta`]) costs `O(delta)` — the
//! touched component is rebuilt, every other component and untouched
//! constraint map is an `Arc` clone — instead of the `O(MKB)`
//! from-scratch rebuild. Rebuild equivalence is the contract: the
//! delta-maintained core is indistinguishable from [`IndexCore::build`]
//! over the evolved MKB (enforced by the property suite in
//! `tests/delta_equivalence.rs`).

use crate::replacement::CoverChoice;
use eve_hypergraph::{GraphDelta, Hypergraph, RelId};
use eve_misd::{CapabilityChange, MetaKnowledgeBase, PartialComplete};
use eve_relational::{AttrRef, RelName};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Order-normalised key for the PC bucket map.
pub(crate) fn pair_key(a: &RelName, b: &RelName) -> (RelName, RelName) {
    if a <= b {
        (a.clone(), b.clone())
    } else {
        (b.clone(), a.clone())
    }
}

/// Build the attribute→cover map of one MKB version (declaration order
/// per attribute, restricted to function-ofs with a single well-defined
/// source relation).
pub(crate) fn build_covers(mkb: &MetaKnowledgeBase) -> BTreeMap<AttrRef, Vec<CoverChoice>> {
    let mut covers: BTreeMap<AttrRef, Vec<CoverChoice>> = BTreeMap::new();
    for f in mkb.function_ofs() {
        let Some(source) = f.source_relation() else {
            continue;
        };
        covers
            .entry(f.target.clone())
            .or_default()
            .push(CoverChoice {
                funcof_id: f.id.clone(),
                source,
                replacement: f.expr.clone(),
            });
    }
    covers
}

/// Build the relation-pair→PC bucket map of one MKB version (buckets in
/// declaration order).
pub(crate) fn build_pcs(
    mkb: &MetaKnowledgeBase,
) -> BTreeMap<(RelName, RelName), Vec<PartialComplete>> {
    let mut pcs: BTreeMap<(RelName, RelName), Vec<PartialComplete>> = BTreeMap::new();
    for pc in mkb.pcs() {
        pcs.entry(pair_key(&pc.left.relation, &pc.right.relation))
            .or_default()
            .push(PartialComplete::clone(pc));
    }
    pcs
}

/// All derived index state of one MKB version, `Arc`-shared so the next
/// version's core can reuse every structure its change did not touch.
#[derive(Debug, Clone)]
pub struct IndexCore {
    /// The full join-constraint hypergraph `H` of this version.
    pub(crate) h: Arc<Hypergraph>,
    /// `H` restricted to join-capable relations (what `H'(MKB')` is when
    /// capabilities are respected). Aliases `h` when every relation is
    /// join-capable.
    pub(crate) h_join: Arc<Hypergraph>,
    /// Connected components of `h`, indexed by component number.
    pub(crate) components: Arc<Vec<Arc<Hypergraph>>>,
    /// Function-of covers grouped by the attribute they re-derive.
    pub(crate) covers: Arc<BTreeMap<AttrRef, Vec<CoverChoice>>>,
    /// Partial/complete constraints bucketed by unordered relation pair.
    pub(crate) pcs: Arc<BTreeMap<(RelName, RelName), Vec<PartialComplete>>>,
}

impl IndexCore {
    /// Build every derived structure from scratch for one MKB version.
    pub fn build(mkb: &MetaKnowledgeBase) -> Self {
        let h = Arc::new(Hypergraph::build(mkb));
        let h_join = if mkb.relations().all(|d| d.capabilities.join) {
            Arc::clone(&h)
        } else {
            Arc::new(Hypergraph::build_filtered(mkb, |d| d.capabilities.join))
        };
        let components = Arc::new(h.components().into_iter().map(Arc::new).collect::<Vec<_>>());
        IndexCore {
            h,
            h_join,
            components,
            covers: Arc::new(build_covers(mkb)),
            pcs: Arc::new(build_pcs(mkb)),
        }
    }

    /// The join-capability-filtered hypergraph of this version.
    pub fn join_graph(&self) -> &Hypergraph {
        &self.h_join
    }

    /// Apply one typed change, producing the next version's core.
    /// `mkb_prime` must be the MKB evolved by `delta.change` from the
    /// version this core was derived for.
    pub fn apply_delta(&self, delta: &MkbDelta) -> IndexCore {
        eve_telemetry::counter_add("index.delta_applies", 1);
        // Coordinator thread, unscoped; unwinding kinds would escape the
        // parpool panic boundary, so plans should stick to delay/budget
        // here (budget is discarded — the patch has no budget to trip).
        crate::faults::hit("index.delta-apply");
        let h2 = match &delta.graph {
            GraphDelta::None => Arc::clone(&self.h),
            d => Arc::new(self.h.apply_delta(d)),
        };
        let h_join2 = if Arc::ptr_eq(&self.h, &self.h_join) && delta.graph == delta.graph_join {
            Arc::clone(&h2)
        } else {
            match &delta.graph_join {
                GraphDelta::None => Arc::clone(&self.h_join),
                d => Arc::new(self.h_join.apply_delta(d)),
            }
        };
        let components = self.patch_components(&h2, &delta.graph);
        IndexCore {
            h: h2,
            h_join: h_join2,
            components,
            covers: delta
                .covers
                .clone()
                .unwrap_or_else(|| Arc::clone(&self.covers)),
            pcs: delta.pcs.clone().unwrap_or_else(|| Arc::clone(&self.pcs)),
        }
    }

    /// Recompute the component list over the patched graph, rebuilding
    /// only the components the delta touched and `Arc`-sharing the rest.
    ///
    /// A capability change never adds a join edge, so every new
    /// component is a verbatim old component (shared), a piece of a
    /// touched one (rebuilt), or the singleton of an added vertex
    /// (spliced in). A new component is matched to its old one through
    /// its smallest member, whose old id the delta's id shift gives:
    /// split pieces stay inside the old touched component, so one member
    /// speaks for all.
    fn patch_components(
        &self,
        new_h: &Hypergraph,
        delta: &GraphDelta,
    ) -> Arc<Vec<Arc<Hypergraph>>> {
        let old_h = &self.h;
        let unchanged = || Arc::clone(&self.components);
        // The old components to rebuild, and how new ids map to old ones.
        let (touched, shift) = match delta {
            GraphDelta::None => return unchanged(),
            GraphDelta::AddVertex(name) => {
                let id = match new_h.rel_id(name) {
                    Some(id) if !new_h.shares_interner(old_h) => id,
                    // Already a vertex: the graph is unchanged.
                    _ => return unchanged(),
                };
                // Components ascend by smallest member, and the new
                // singleton's is `id`: it goes before every old component
                // whose smallest member came after it.
                let at = new_h.component_index(id) as usize;
                let mut out = Vec::with_capacity(self.components.len() + 1);
                out.extend_from_slice(&self.components[..at]);
                out.push(Arc::new(new_h.component(at as u32)));
                out.extend_from_slice(&self.components[at..]);
                return Arc::new(out);
            }
            GraphDelta::RemoveVertex(name) => {
                let Some(gone) = old_h.rel_id(name) else {
                    return unchanged();
                };
                (vec![old_h.component_index(gone)], Shift::Removed(gone))
            }
            GraphDelta::RenameVertex { from, to } => {
                let (Some(old), Some(new)) = (old_h.rel_id(from), new_h.rel_id(to)) else {
                    return unchanged();
                };
                (
                    vec![old_h.component_index(old)],
                    Shift::Renamed { old, new },
                )
            }
            GraphDelta::RemoveAttrEdges(attr) | GraphDelta::RenameAttr { from: attr, .. } => {
                let mut comps: Vec<u32> = old_h
                    .edges_mentioning_attr(attr)
                    .into_iter()
                    .map(|e| old_h.component_index(old_h.join_endpoints(e).0))
                    .collect();
                if comps.is_empty() {
                    return unchanged();
                }
                comps.sort_unstable();
                comps.dedup();
                (comps, Shift::Same)
            }
        };
        let mut out: Vec<Arc<Hypergraph>> = Vec::with_capacity(new_h.component_count());
        // Canonical numbering = first occurrence over ascending vertex
        // id, so the first member seen of each component is its smallest.
        for v in 0..new_h.rel_count() as RelId {
            let c = new_h.component_index(v) as usize;
            if c < out.len() {
                continue;
            }
            debug_assert_eq!(c, out.len(), "component numbering is first-occurrence");
            let old_c = old_h.component_index(shift.old_id(v));
            if touched.contains(&old_c) {
                out.push(Arc::new(new_h.component(c as u32)));
            } else {
                out.push(Arc::clone(&self.components[old_c as usize]));
            }
        }
        Arc::new(out)
    }
}

/// How a vertex-level graph delta moved the ids of the vertices it kept.
#[derive(Clone, Copy)]
enum Shift {
    /// Ids unchanged.
    Same,
    /// The vertex with this old id was removed.
    Removed(RelId),
    /// The vertex with old id `old` was renamed and now has id `new`.
    Renamed { old: RelId, new: RelId },
}

impl Shift {
    /// The old id of the vertex with new id `v`.
    fn old_id(self, v: RelId) -> RelId {
        match self {
            Shift::Same => v,
            Shift::Removed(gone) => v + RelId::from(v >= gone),
            Shift::Renamed { old, new } if v == new => old,
            Shift::Renamed { old, new } => {
                let mid = v - RelId::from(v > new);
                mid + RelId::from(mid >= old)
            }
        }
    }
}

/// Compact description of what one [`MkbDelta`] did — rendered by
/// `eve-cli history`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaSummary {
    /// The change operator (`delete-relation`, `rename-attribute`, …).
    pub op: &'static str,
    /// Join constraints dropped by the cascade.
    pub joins_dropped: usize,
    /// Function-of constraints dropped by the cascade.
    pub funcofs_dropped: usize,
    /// Partial/complete constraints dropped by the cascade.
    pub pcs_dropped: usize,
    /// Was the cover map carried over unchanged (`Arc`-shared)?
    pub covers_shared: bool,
    /// Were the PC buckets carried over unchanged (`Arc`-shared)?
    pub pcs_shared: bool,
}

impl std::fmt::Display for DeltaSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: -{} join(s), -{} funcof(s), -{} pc(s), covers {}, pcs {}",
            self.op,
            self.joins_dropped,
            self.funcofs_dropped,
            self.pcs_dropped,
            if self.covers_shared {
                "shared"
            } else {
                "rebuilt"
            },
            if self.pcs_shared { "shared" } else { "rebuilt" },
        )
    }
}

/// PC constraints bucketed by the (ordered) relation pair they relate —
/// the same shape [`IndexCore`] holds behind its `Arc`.
pub(crate) type PcBuckets = BTreeMap<(RelName, RelName), Vec<PartialComplete>>;

/// One capability change as a typed delta over the derived index state:
/// the graph-level projection for the full and the capability-filtered
/// hypergraph, plus the constraint-map edits (rebuilt scoped maps when
/// any constraint is touched, `None` = share the predecessor's map).
#[derive(Debug, Clone)]
pub struct MkbDelta {
    /// The change this delta encodes.
    pub change: CapabilityChange,
    /// The change projected onto the full hypergraph `H`.
    pub graph: GraphDelta,
    /// The change projected onto the join-capability-filtered graph.
    pub graph_join: GraphDelta,
    /// Replacement cover map (`None` = predecessor's map is still valid).
    pub(crate) covers: Option<Arc<BTreeMap<AttrRef, Vec<CoverChoice>>>>,
    /// Replacement PC buckets (`None` = predecessor's map is still valid).
    pub(crate) pcs: Option<Arc<PcBuckets>>,
    /// What the delta did, for display.
    pub summary: DeltaSummary,
}

impl MkbDelta {
    /// Project `change` (already validated by `eve_misd::evolve`, which
    /// produced `mkb_prime` from `mkb`) onto the derived index state.
    ///
    /// `evolve` is copy-on-write: a constraint list keeps its `Arc` unless
    /// the change touched one of its constraints. So whether the change
    /// touched the function-ofs, the PCs or (for attribute changes) the
    /// joins is one [`Arc::ptr_eq`] each, not a rescan.
    pub fn compute(
        mkb: &MetaKnowledgeBase,
        mkb_prime: &MetaKnowledgeBase,
        change: &CapabilityChange,
    ) -> MkbDelta {
        let covers_touched = !Arc::ptr_eq(mkb.function_ofs_arc(), mkb_prime.function_ofs_arc());
        let pcs_touched = !Arc::ptr_eq(mkb.pcs_arc(), mkb_prime.pcs_arc());
        // Attribute changes only touch the graphs when some join
        // predicate actually mentions the attribute; projecting the
        // common payload-attribute case to `GraphDelta::None` lets
        // `apply_delta` share the whole graph by `Arc`.
        let joins_touched = !Arc::ptr_eq(mkb.joins_arc(), mkb_prime.joins_arc());

        let (op, graph, graph_join) = match change {
            CapabilityChange::AddRelation(desc) => (
                "add-relation",
                GraphDelta::AddVertex(desc.name.clone()),
                if desc.capabilities.join {
                    GraphDelta::AddVertex(desc.name.clone())
                } else {
                    GraphDelta::None
                },
            ),
            CapabilityChange::DeleteRelation(rel) => (
                "delete-relation",
                GraphDelta::RemoveVertex(rel.clone()),
                GraphDelta::RemoveVertex(rel.clone()),
            ),
            CapabilityChange::RenameRelation { from, to } => {
                let g = GraphDelta::RenameVertex {
                    from: from.clone(),
                    to: to.clone(),
                };
                ("rename-relation", g.clone(), g)
            }
            CapabilityChange::AddAttribute { .. } => {
                ("add-attribute", GraphDelta::None, GraphDelta::None)
            }
            CapabilityChange::DeleteAttribute(attr) => {
                let g = if joins_touched {
                    GraphDelta::RemoveAttrEdges(attr.clone())
                } else {
                    GraphDelta::None
                };
                ("delete-attribute", g.clone(), g)
            }
            CapabilityChange::RenameAttribute { from, to } => {
                let g = if joins_touched {
                    GraphDelta::RenameAttr {
                        from: from.clone(),
                        to: to.clone(),
                    }
                } else {
                    GraphDelta::None
                };
                ("rename-attribute", g.clone(), g)
            }
        };
        // A touched constraint map is rebuilt from the evolved MKB —
        // `O(constraints)`, never `O(MKB)`; an untouched one is shared.
        let covers = covers_touched.then(|| Arc::new(build_covers(mkb_prime)));
        let pcs = pcs_touched.then(|| Arc::new(build_pcs(mkb_prime)));
        let summary = DeltaSummary {
            op,
            joins_dropped: mkb.joins().len().saturating_sub(mkb_prime.joins().len()),
            funcofs_dropped: mkb
                .function_ofs()
                .len()
                .saturating_sub(mkb_prime.function_ofs().len()),
            pcs_dropped: mkb.pcs().len().saturating_sub(mkb_prime.pcs().len()),
            covers_shared: !covers_touched,
            pcs_shared: !pcs_touched,
        };
        MkbDelta {
            change: change.clone(),
            graph,
            graph_join,
            covers,
            pcs,
            summary,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::travel_mkb;
    use eve_misd::evolve;
    use eve_relational::AttrName;

    /// Delta-maintained core ≡ from-scratch build over the evolved MKB,
    /// for a chain covering all six operators.
    #[test]
    fn chained_deltas_match_rebuild() {
        use eve_misd::RelationDescription;
        use eve_relational::{AttributeDef, DataType};
        let changes = vec![
            CapabilityChange::AddAttribute {
                relation: RelName::new("Tour"),
                attr: AttributeDef::new("Season", DataType::Str),
            },
            CapabilityChange::RenameAttribute {
                from: AttrRef::new("Tour", "TourName"),
                to: AttrName::new("Title"),
            },
            CapabilityChange::AddRelation(RelationDescription::new(
                "IS9",
                "Weather",
                vec![AttributeDef::new("City", DataType::Str)],
            )),
            CapabilityChange::RenameRelation {
                from: RelName::new("Tour"),
                to: RelName::new("Excursion"),
            },
            CapabilityChange::DeleteAttribute(AttrRef::new("Customer", "Name")),
            CapabilityChange::DeleteRelation(RelName::new("FlightRes")),
        ];
        let mut mkb = travel_mkb();
        let mut core = IndexCore::build(&mkb);
        for change in &changes {
            (mkb, core) = step_and_compare(&mkb, &core, change);
        }
    }

    /// Apply `change` to `mkb` and its core by delta, and check the
    /// patched core against a from-scratch build of the evolved MKB.
    fn step_and_compare(
        mkb: &MetaKnowledgeBase,
        core: &IndexCore,
        change: &CapabilityChange,
    ) -> (MetaKnowledgeBase, IndexCore) {
        let mkb_prime = evolve(mkb, change).expect("valid change");
        let core = core.apply_delta(&MkbDelta::compute(mkb, &mkb_prime, change));
        let rebuilt = IndexCore::build(&mkb_prime);
        assert_eq!(core.h.as_ref(), rebuilt.h.as_ref(), "{change}: H diverged");
        assert_eq!(
            core.h_join.as_ref(),
            rebuilt.h_join.as_ref(),
            "{change}: join graph diverged"
        );
        assert_eq!(
            core.components.len(),
            rebuilt.components.len(),
            "{change}: component count diverged"
        );
        for (a, b) in core.components.iter().zip(rebuilt.components.iter()) {
            assert_eq!(a.as_ref(), b.as_ref(), "{change}: component diverged");
        }
        assert_eq!(
            core.covers.as_ref(),
            rebuilt.covers.as_ref(),
            "{change}: covers diverged"
        );
        assert_eq!(
            core.pcs.as_ref(),
            rebuilt.pcs.as_ref(),
            "{change}: pcs diverged"
        );
        (mkb_prime, core)
    }

    /// Random vertex-level and join-attribute changes on random sparse
    /// graphs, so ids shift across many components: the patched
    /// component list must equal the rebuilt one after every change.
    #[test]
    fn random_vertex_changes_match_rebuild() {
        use eve_misd::{JoinConstraint, RelationDescription};
        use eve_relational::{AttributeDef, Clause, Conjunction, DataType};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let describe = |name: &str| {
            RelationDescription::new(
                format!("IS_{name}"),
                name,
                vec![AttributeDef::new("k", DataType::Int)],
            )
        };
        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut mkb = MetaKnowledgeBase::new();
            let n: usize = rng.gen_range(20..60);
            let names: Vec<String> = (0..n).map(|i| format!("R{i:02}")).collect();
            for name in &names {
                mkb.add_relation(describe(name)).unwrap();
            }
            for e in 0..n * 2 / 3 {
                let (a, b) = (&names[rng.gen_range(0..n)], &names[rng.gen_range(0..n)]);
                if a != b {
                    let on = Clause::eq_attrs(
                        AttrRef::new(a.as_str(), "k"),
                        AttrRef::new(b.as_str(), "k"),
                    );
                    mkb.add_join(JoinConstraint::new(
                        format!("J{e}"),
                        a.as_str(),
                        b.as_str(),
                        Conjunction::new(vec![on]),
                    ))
                    .unwrap();
                }
            }
            let mut core = IndexCore::build(&mkb);
            for step in 0..16 {
                let rels: Vec<RelName> = mkb.relation_names().cloned().collect();
                let pick = rels[rng.gen_range(0..rels.len())].clone();
                // New names sort before, among and after the others.
                let fresh = ["A", "Q", "Z"][step % 3].to_string() + &step.to_string();
                let change = match rng.gen_range(0..5) {
                    0 => CapabilityChange::AddRelation(describe(&fresh)),
                    1 if rels.len() > 2 => CapabilityChange::DeleteRelation(pick),
                    2 => CapabilityChange::RenameRelation {
                        from: pick,
                        to: RelName::new(fresh),
                    },
                    3 if mkb.has_attr(&AttrRef::new(pick.clone(), "k")) => {
                        CapabilityChange::DeleteAttribute(AttrRef::new(pick, "k"))
                    }
                    _ => CapabilityChange::AddRelation(describe(&fresh)),
                };
                (mkb, core) = step_and_compare(&mkb, &core, &change);
            }
        }
    }

    #[test]
    fn untouched_structures_are_shared_not_cloned() {
        let mkb = travel_mkb();
        let core = IndexCore::build(&mkb);
        // add-attribute touches nothing derived: every Arc is reused.
        let change = CapabilityChange::AddAttribute {
            relation: RelName::new("Tour"),
            attr: eve_relational::AttributeDef::new("Season", eve_relational::DataType::Str),
        };
        let mkb_prime = evolve(&mkb, &change).unwrap();
        let delta = MkbDelta::compute(&mkb, &mkb_prime, &change);
        assert_eq!(delta.graph, GraphDelta::None);
        assert!(delta.covers.is_none() && delta.pcs.is_none());
        let next = core.apply_delta(&delta);
        assert!(Arc::ptr_eq(&core.h, &next.h));
        assert!(Arc::ptr_eq(&core.components, &next.components));
        assert!(Arc::ptr_eq(&core.covers, &next.covers));
        assert!(Arc::ptr_eq(&core.pcs, &next.pcs));

        // add-relation splices the new singleton in and shares every
        // old component.
        let change = CapabilityChange::AddRelation(eve_misd::RelationDescription::new(
            "IS9",
            "Aaa",
            vec![eve_relational::AttributeDef::new(
                "x",
                eve_relational::DataType::Int,
            )],
        ));
        let mkb_prime = evolve(&mkb, &change).unwrap();
        let next = core.apply_delta(&MkbDelta::compute(&mkb, &mkb_prime, &change));
        assert_eq!(next.components.len(), core.components.len() + 1);
        assert!(next.components[0].contains(&RelName::new("Aaa")));
        for (old, new) in core.components.iter().zip(&next.components[1..]) {
            assert!(Arc::ptr_eq(old, new), "an old component was rebuilt");
        }

        // delete-relation rebuilds only the touched component.
        let change = CapabilityChange::DeleteRelation(RelName::new("Customer"));
        let mkb_prime = evolve(&mkb, &change).unwrap();
        let delta = MkbDelta::compute(&mkb, &mkb_prime, &change);
        let next = core.apply_delta(&delta);
        let untouched_old: Vec<_> = core
            .components
            .iter()
            .filter(|c| !c.contains(&RelName::new("Customer")))
            .collect();
        for old in untouched_old {
            assert!(
                next.components.iter().any(|n| Arc::ptr_eq(n, old)),
                "untouched component must be Arc-shared"
            );
        }
    }
}
