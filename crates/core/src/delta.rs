//! Delta maintenance of the MKB-derived index state.
//!
//! [`IndexCore`] is every derived structure of **one** MKB version that
//! a change reads — the hypergraph `H`, the capability-filtered join
//! graph, the attribute→cover map and the relation-pair→PC buckets —
//! held behind [`Arc`]s and persistent [`ChunkMap`]s so consecutive
//! versions structurally share everything a change did not touch.
//!
//! Each graph is a [`ShardedGraph`]: one small [`Hypergraph`] per
//! connected component, and a router from relation name to shard. CVS
//! only ever searches inside one component (`H_R`, Step 1 and Def. 2;
//! the component of `H'(MKB')` that holds a connection tree's
//! terminals, Def. 3), and no operator adds a join: a component only
//! splits (on a delete) or appears as a singleton (on add-relation). So
//! a vertex-level or join-attribute change patches the one shard it
//! touches, one chunk of the router per re-routed name, and the spines,
//! whatever the size of the MKB. While no relation is NOJOIN, the join
//! graph is `H` itself: both are one `ShardedGraph`.
//!
//! [`MkbDelta`] is one capability change typed per operator:
//! the change projected onto each graph as a [`GraphDelta`], plus the
//! new cover lists and PC buckets of the keys whose constraints the
//! change edited, read from the evolved MKB's relation index. Applying
//! it to an `IndexCore` ([`IndexCore::apply_delta`]) costs what the
//! change touched — a shard is patched only when the change reaches it,
//! each touched map key copies one chunk of its map, and every other
//! shard, chunk and map is shared — instead of the `O(MKB)`
//! from-scratch rebuild. Rebuild equivalence is the contract: the
//! delta-maintained core is indistinguishable from [`IndexCore::build`]
//! over the evolved MKB, and each shard equals the matching component
//! of a whole-graph build (enforced by the property suite in
//! `tests/delta_equivalence.rs`).

use crate::replacement::CoverChoice;
use eve_hypergraph::{GraphDelta, Hypergraph};
use eve_misd::{
    CapabilityChange, ChunkList, ChunkMap, FunctionOf, MetaKnowledgeBase, PartialComplete,
    RelationDescription,
};
use eve_relational::{AttrRef, RelName};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Function-of covers grouped by the attribute they re-derive, each
/// list in declaration order.
pub(crate) type Covers = ChunkMap<AttrRef, Arc<Vec<CoverChoice>>>;

/// PC constraints bucketed by the (ordered) relation pair they relate,
/// each bucket in declaration order.
pub(crate) type PcBuckets = ChunkMap<(RelName, RelName), Arc<Vec<PartialComplete>>>;

/// The new values of the map keys one change touched, ascending by key
/// (`None`: the key leaves the map).
type Patch<K, V> = Vec<(K, Option<Arc<Vec<V>>>)>;

/// Order-normalised key for the PC bucket map.
pub(crate) fn pair_key(a: &RelName, b: &RelName) -> (RelName, RelName) {
    if a <= b {
        (a.clone(), b.clone())
    } else {
        (b.clone(), a.clone())
    }
}

/// The cover a function-of offers, when it has a single well-defined
/// source relation.
fn cover_choice(f: &FunctionOf) -> Option<CoverChoice> {
    Some(CoverChoice {
        funcof_id: f.id.clone(),
        source: f.source_relation()?,
        replacement: f.expr.clone(),
    })
}

/// The map of `pairs` grouped by key: keys ascending, each key's items
/// in their order in `pairs`.
fn grouped<K: Ord + Clone, V>(mut pairs: Vec<(K, V)>) -> ChunkMap<K, Arc<Vec<V>>> {
    // Stable, so items keep their order within a key.
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    let mut lists: Vec<(K, Vec<V>)> = Vec::new();
    for (key, item) in pairs {
        match lists.last_mut() {
            Some((last, list)) if *last == key => list.push(item),
            _ => lists.push((key, vec![item])),
        }
    }
    ChunkMap::from_sorted(lists.into_iter().map(|(k, v)| (k, Arc::new(v))))
}

/// Build the attribute→cover map of one MKB version from scratch
/// (declaration order per attribute, restricted to function-ofs with a
/// single well-defined source relation).
pub(crate) fn build_covers(mkb: &MetaKnowledgeBase) -> Covers {
    grouped(
        mkb.function_ofs()
            .iter()
            .filter_map(|f| Some((f.target.clone(), cover_choice(f)?)))
            .collect(),
    )
}

/// Build the relation-pair→PC bucket map of one MKB version from
/// scratch (buckets in declaration order).
pub(crate) fn build_pcs(mkb: &MetaKnowledgeBase) -> PcBuckets {
    grouped(
        mkb.pcs()
            .iter()
            .map(|pc| {
                let key = pair_key(&pc.left.relation, &pc.right.relation);
                (key, PartialComplete::clone(pc))
            })
            .collect(),
    )
}

/// The constraints in `old` but not in `new`, and those in `new` but
/// not in `old`, compared by address: what `evolve` dropped, replaced
/// or added among the constraints the index names for a changed
/// relation.
fn changed<'a, T>(
    old: impl Iterator<Item = &'a T>,
    new: impl Iterator<Item = &'a T>,
) -> Vec<&'a T> {
    let by_address = |side: &mut Vec<&'a T>| side.sort_unstable_by_key(|&c| c as *const T);
    let (mut old, mut new): (Vec<&T>, Vec<&T>) = (old.collect(), new.collect());
    by_address(&mut old);
    by_address(&mut new);
    let absent = |side: &[&T], c: &T| {
        side.binary_search_by_key(&(c as *const T), |&s| s as *const T)
            .is_err()
    };
    let only_old = old.iter().filter(|&&c| absent(&new, c));
    let only_new = new.iter().filter(|&&c| absent(&old, c));
    only_old.chain(only_new).copied().collect()
}

/// The cover-map patch of a change whose function-of edits the index
/// names under `before` in `mkb` and `after` in `mkb_prime`: the new
/// cover list of every attribute an edited function-of targeted or
/// targets, read from `mkb_prime`'s index entry of its relation.
fn cover_patch(
    mkb: &MetaKnowledgeBase,
    mkb_prime: &MetaKnowledgeBase,
    (before, after): (&RelName, &RelName),
) -> Patch<AttrRef, CoverChoice> {
    let edited = changed(
        mkb.function_ofs_of(before),
        mkb_prime.function_ofs_of(after),
    );
    let keys: BTreeSet<&AttrRef> = edited.into_iter().map(|f| &f.target).collect();
    keys.into_iter()
        .map(|key| {
            let list: Vec<CoverChoice> = mkb_prime
                .function_ofs_of(&key.relation)
                .filter(|f| &f.target == key)
                .filter_map(cover_choice)
                .collect();
            (key.clone(), (!list.is_empty()).then(|| Arc::new(list)))
        })
        .collect()
}

/// The PC-bucket patch of a change, as [`cover_patch`]: the new bucket
/// of every relation pair an edited PC related or relates.
fn pc_patch(
    mkb: &MetaKnowledgeBase,
    mkb_prime: &MetaKnowledgeBase,
    (before, after): (&RelName, &RelName),
) -> Patch<(RelName, RelName), PartialComplete> {
    let edited = changed(mkb.pcs_of(before), mkb_prime.pcs_of(after));
    let keys: BTreeSet<(RelName, RelName)> = edited
        .into_iter()
        .map(|p| pair_key(&p.left.relation, &p.right.relation))
        .collect();
    keys.into_iter()
        .map(|key| {
            let list: Vec<PartialComplete> = mkb_prime
                .pcs_of(&key.0)
                .filter(|p| {
                    let (l, r) = (&p.left.relation, &p.right.relation);
                    (l.min(r), l.max(r)) == (&key.0, &key.1)
                })
                .cloned()
                .collect();
            (key, (!list.is_empty()).then(|| Arc::new(list)))
        })
        .collect()
}

/// `map` with `patch` applied: each touched key copies one chunk (and
/// the spine), every other chunk stays shared.
fn patched<K: Ord + Clone, V>(
    map: &ChunkMap<K, Arc<Vec<V>>>,
    patch: &Patch<K, V>,
) -> ChunkMap<K, Arc<Vec<V>>> {
    let mut out = map.clone();
    for (key, list) in patch {
        match list {
            Some(list) => out.insert(key.clone(), Arc::clone(list)),
            None => out.remove(key),
        };
    }
    out
}

/// One graph of an MKB version split into its connected components:
/// one [`Hypergraph`] per component, and a router from relation name
/// to the id of the shard holding it. Both maps are persistent, so a
/// change copies the chunks it edits and shares the rest.
#[derive(Debug, Clone)]
pub struct ShardedGraph {
    /// Relation → its shard's id.
    route: ChunkMap<RelName, u32>,
    /// Shard id → shard.
    shards: ChunkMap<u32, Arc<Hypergraph>>,
    /// The id the next new shard takes.
    next: u32,
}

impl ShardedGraph {
    /// Shard the relations `keep` accepts and the joins between them.
    pub(crate) fn build(
        mkb: &MetaKnowledgeBase,
        keep: impl Fn(&RelationDescription) -> bool,
    ) -> Self {
        let (parts, labels) = Hypergraph::build_components(mkb, &keep);
        let kept = mkb.relations().filter(|d| keep(d)).map(|d| &d.name);
        let shards = ChunkMap::from_sorted((0..).zip(parts.into_iter().map(Arc::new)));
        ShardedGraph {
            route: ChunkMap::from_sorted(kept.cloned().zip(labels)),
            next: shards.len() as u32,
            shards,
        }
    }

    /// The shard holding `rel` and its id, or `None` when `rel` is not a
    /// vertex.
    pub(crate) fn locate(&self, rel: &RelName) -> Option<(u32, &Arc<Hypergraph>)> {
        let id = *self.route.get(rel)?;
        Some((id, self.shards.get(&id).expect("routes lead to shards")))
    }

    /// The shard holding `rel`: the connected component of the graph
    /// that contains it, as a graph of its own.
    pub fn shard_of(&self, rel: &RelName) -> Option<&Arc<Hypergraph>> {
        self.locate(rel).map(|(_, shard)| shard)
    }

    /// The shard of id `id`.
    ///
    /// # Panics
    /// When no shard has that id.
    pub(crate) fn shard(&self, id: u32) -> &Hypergraph {
        self.shards.get(&id).expect("a shard of this graph")
    }

    /// Is `rel` a vertex?
    pub fn contains(&self, rel: &RelName) -> bool {
        self.route.contains_key(rel)
    }

    /// Every shard, in id order.
    pub fn shards(&self) -> impl ExactSizeIterator<Item = &Arc<Hypergraph>> {
        self.shards.values()
    }

    /// Do the two share both maps, as a clone and its source do until
    /// either is patched?
    fn ptr_eq(a: &Self, b: &Self) -> bool {
        ChunkMap::ptr_eq(&a.route, &b.route) && ChunkMap::ptr_eq(&a.shards, &b.shards)
    }

    /// The graph after `delta`. The touched shard is patched with
    /// [`Hypergraph::apply_delta`] and split into its components when a
    /// removal disconnects it.
    fn apply(&self, delta: &GraphDelta) -> Self {
        let unchanged = || self.clone();
        let touched = match delta {
            GraphDelta::None => return unchanged(),
            GraphDelta::AddVertex(_) => None,
            GraphDelta::RemoveVertex(rel) | GraphDelta::RenameVertex { from: rel, .. } => {
                match self.locate(rel) {
                    Some(found) => Some(found),
                    // Not a vertex here (a NOJOIN relation in the join
                    // graph): nothing to patch.
                    None => return unchanged(),
                }
            }
            GraphDelta::RemoveAttrEdges(attr) | GraphDelta::RenameAttr { from: attr, .. } => {
                match self.locate(&attr.relation) {
                    Some((id, shard)) if !shard.edges_mentioning_attr(attr).is_empty() => {
                        Some((id, shard))
                    }
                    _ => return unchanged(),
                }
            }
        };
        let new = match (delta, touched) {
            (GraphDelta::AddVertex(rel), _) => vec![Arc::new(Hypergraph::singleton(rel.clone()))],
            (GraphDelta::RemoveVertex(_) | GraphDelta::RemoveAttrEdges(_), Some((_, old))) => {
                split(old.apply_delta(delta))
            }
            (_, Some((_, old))) => vec![Arc::new(old.apply_delta(delta))],
            (_, None) => unreachable!("only an added vertex touches no shard"),
        };
        let mut out = self.clone();
        let id = touched.map(|(id, _)| id);
        match (delta, id) {
            (GraphDelta::RemoveVertex(rel), _) => {
                out.route.remove(rel);
            }
            (GraphDelta::RenameVertex { from, to }, Some(id)) => {
                out.route.remove(from);
                out.route.insert(to.clone(), id);
            }
            _ => {}
        }
        out.place(id, new);
        out
    }

    /// Put `new` where shard `id` was (`None`: nowhere yet). The largest
    /// part keeps the id; every other part takes a fresh one, and its
    /// members are routed to it.
    fn place(&mut self, id: Option<u32>, new: Vec<Arc<Hypergraph>>) {
        // The first of the largest parts.
        let largest = (0..new.len()).rev().max_by_key(|&p| new[p].rel_count());
        if let (Some(id), None) = (id, largest) {
            self.shards.remove(&id);
        }
        for (p, part) in new.into_iter().enumerate() {
            match id {
                Some(id) if Some(p) == largest => {
                    self.shards.insert(id, part);
                }
                _ => {
                    let fresh = self.next;
                    self.next += 1;
                    for rel in part.relations() {
                        self.route.insert(rel.clone(), fresh);
                    }
                    self.shards.insert(fresh, part);
                }
            }
        }
    }
}

/// Equal when both hold equal shards and route every relation alike;
/// shard ids, which depend on the edit history, are not compared.
impl PartialEq for ShardedGraph {
    fn eq(&self, other: &Self) -> bool {
        self.shards.len() == other.shards.len()
            && self.route.len() == other.route.len()
            && self
                .route
                .keys()
                .zip(other.route.keys())
                .all(|(a, b)| a == b && self.shard_of(a) == other.shard_of(b))
    }
}

/// `graph` as shards: its connected components, none when it is empty.
fn split(graph: Hypergraph) -> Vec<Arc<Hypergraph>> {
    match graph.component_count() {
        0 => Vec::new(),
        1 => vec![Arc::new(graph)],
        _ => graph.components().into_iter().map(Arc::new).collect(),
    }
}

/// All derived index state of one MKB version, `Arc`-shared (the
/// shards) or held in persistent maps (routers, covers, PC buckets) so
/// the next version's core can reuse every structure its change did not
/// touch.
#[derive(Debug, Clone)]
pub struct IndexCore {
    /// The join-constraint hypergraph `H` of this version, sharded.
    pub(crate) h: ShardedGraph,
    /// `H` restricted to join-capable relations (what `H'(MKB')` is when
    /// capabilities are respected). While no relation is NOJOIN, it is
    /// `h` itself: a clone sharing both maps, patched as one with `h`.
    pub(crate) h_join: ShardedGraph,
    /// Function-of covers grouped by the attribute they re-derive.
    pub(crate) covers: Covers,
    /// Partial/complete constraints bucketed by unordered relation pair.
    pub(crate) pcs: PcBuckets,
}

impl IndexCore {
    /// Build every derived structure from scratch for one MKB version.
    pub fn build(mkb: &MetaKnowledgeBase) -> Self {
        let h = ShardedGraph::build(mkb, |_| true);
        let h_join = if mkb.relations().all(|d| d.capabilities.join) {
            h.clone()
        } else {
            ShardedGraph::build(mkb, |d| d.capabilities.join)
        };
        IndexCore {
            h,
            h_join,
            covers: build_covers(mkb),
            pcs: build_pcs(mkb),
        }
    }

    /// The hypergraph `H` of this version, sharded by component.
    pub fn graph(&self) -> &ShardedGraph {
        &self.h
    }

    /// `H` over the join-capable relations only, sharded by component.
    pub fn join_graph(&self) -> &ShardedGraph {
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
        let h = self.h.apply(&delta.graph);
        let h_join =
            if ShardedGraph::ptr_eq(&self.h, &self.h_join) && delta.graph == delta.graph_join {
                h.clone()
            } else {
                self.h_join.apply(&delta.graph_join)
            };
        IndexCore {
            h,
            h_join,
            covers: patched(&self.covers, &delta.covers),
            pcs: patched(&self.pcs, &delta.pcs),
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
    /// Was the cover map carried over unchanged (shared, not patched)?
    pub covers_shared: bool,
    /// Were the PC buckets carried over unchanged (shared, not patched)?
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
                "patched"
            },
            if self.pcs_shared { "shared" } else { "patched" },
        )
    }
}

/// One capability change as a typed delta over the derived index state:
/// the graph-level projection for the full and the capability-filtered
/// hypergraph, plus the constraint-map patches (the new value of every
/// cover-map and PC-bucket key whose constraints the change edited;
/// empty when it edited none, and the predecessor's map is shared).
#[derive(Debug, Clone)]
pub struct MkbDelta {
    /// The change this delta encodes.
    pub change: CapabilityChange,
    /// The change projected onto the full hypergraph `H`.
    pub graph: GraphDelta,
    /// The change projected onto the join-capability-filtered graph.
    pub graph_join: GraphDelta,
    /// New cover lists of the attributes the change touched.
    pub(crate) covers: Patch<AttrRef, CoverChoice>,
    /// New buckets of the relation pairs the change touched.
    pub(crate) pcs: Patch<(RelName, RelName), PartialComplete>,
    /// What the delta did, for display.
    pub summary: DeltaSummary,
}

impl MkbDelta {
    /// Project `change` (already validated by `eve_misd::evolve`, which
    /// produced `mkb_prime` from `mkb`) onto the derived index state.
    ///
    /// `evolve` is copy-on-write: a constraint list keeps its spine
    /// unless the change touched one of its constraints. So whether the
    /// change touched the function-ofs, the PCs or (for attribute
    /// changes) the joins is one [`ChunkList::ptr_eq`] each, not a
    /// rescan. When it touched
    /// some, the MKB's relation index names them under the changed
    /// relation, and only the map keys they mention are recomputed.
    pub fn compute(
        mkb: &MetaKnowledgeBase,
        mkb_prime: &MetaKnowledgeBase,
        change: &CapabilityChange,
    ) -> MkbDelta {
        let covers_touched = !ChunkList::ptr_eq(mkb.function_ofs(), mkb_prime.function_ofs());
        let pcs_touched = !ChunkList::ptr_eq(mkb.pcs(), mkb_prime.pcs());
        // Attribute changes only touch the graphs when some join
        // predicate actually mentions the attribute; projecting the
        // common payload-attribute case to `GraphDelta::None` lets
        // `apply_delta` share both graphs whole.
        let joins_touched = !ChunkList::ptr_eq(mkb.joins(), mkb_prime.joins());

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
        // The relation whose index entry names every constraint the
        // change edited, before and after it.
        let named = match change {
            CapabilityChange::DeleteRelation(rel) => Some((rel, rel)),
            CapabilityChange::RenameRelation { from, to } => Some((from, to)),
            CapabilityChange::DeleteAttribute(attr)
            | CapabilityChange::RenameAttribute { from: attr, .. } => {
                Some((&attr.relation, &attr.relation))
            }
            CapabilityChange::AddRelation(_) | CapabilityChange::AddAttribute { .. } => None,
        };
        let covers = match named {
            Some(named) if covers_touched => cover_patch(mkb, mkb_prime, named),
            _ => Vec::new(),
        };
        let pcs = match named {
            Some(named) if pcs_touched => pc_patch(mkb, mkb_prime, named),
            _ => Vec::new(),
        };
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
        assert_eq!(core.h, rebuilt.h, "{change}: H diverged");
        assert_eq!(core.h_join, rebuilt.h_join, "{change}: join graph diverged");
        assert_eq!(core.covers, rebuilt.covers, "{change}: covers diverged");
        assert_eq!(core.pcs, rebuilt.pcs, "{change}: pcs diverged");
        (mkb_prime, core)
    }

    /// Random vertex-level and join-attribute changes on random sparse
    /// graphs, so ids shift across many components: the patched graphs
    /// must equal the rebuilt ones after every change.
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

    /// An MKB of `n` relations `R00..` with attributes `k, v0..v7`,
    /// joined on `k` along a sparse random graph, where most payload
    /// attributes have one to three function-of covers from other
    /// relations (some constant) and many relation pairs carry PCs,
    /// some with a selection on a third relation. Constraints are
    /// declared in a shuffled order under ids that do not sort in
    /// declaration order, so a cover list's order is observable.
    fn cover_dense_mkb(rng: &mut rand::rngs::StdRng, n: usize) -> MetaKnowledgeBase {
        use eve_misd::{ExtentOp, FunctionOf, JoinConstraint, ProjSel, RelationDescription};
        use eve_relational::{AttributeDef, Clause, Conjunction, DataType, ScalarExpr};
        use rand::Rng;
        let names: Vec<String> = (0..n).map(|i| format!("R{i:02}")).collect();
        let mut mkb = MetaKnowledgeBase::new();
        for name in &names {
            let attrs = std::iter::once("k".to_string())
                .chain((0..8).map(|j| format!("v{j}")))
                .map(|a| AttributeDef::new(a, DataType::Int))
                .collect();
            mkb.add_relation(RelationDescription::new(
                format!("IS_{name}"),
                name.as_str(),
                attrs,
            ))
            .unwrap();
        }
        let other = |rng: &mut rand::rngs::StdRng, i: usize| (i + rng.gen_range(1..n)) % n;
        enum Decl {
            Join(usize, usize),
            Cover(AttrRef, ScalarExpr),
            Pc(usize, usize, Option<usize>),
        }
        let mut decls = Vec::new();
        for i in 0..n {
            decls.push(Decl::Join(i, other(rng, i)));
            for j in 0..8 {
                let target = AttrRef::new(names[i].as_str(), format!("v{j}"));
                let covers = if rng.gen_bool(0.8) {
                    rng.gen_range(1..4)
                } else {
                    0
                };
                for _ in 0..covers {
                    let expr = if rng.gen_bool(0.1) {
                        ScalarExpr::lit(7i64)
                    } else {
                        let src = other(rng, i);
                        ScalarExpr::attr(names[src].as_str(), format!("v{}", rng.gen_range(0..8)))
                    };
                    decls.push(Decl::Cover(target.clone(), expr));
                }
            }
            for _ in 0..rng.gen_range(0..3) {
                let cond = rng.gen_bool(0.3).then(|| other(rng, i));
                decls.push(Decl::Pc(i, other(rng, i), cond));
            }
        }
        for i in (1..decls.len()).rev() {
            decls.swap(i, rng.gen_range(0..i + 1));
        }
        // Ids numbered backwards: id order is the reverse of declaration
        // order.
        let total = decls.len();
        for (d, decl) in decls.into_iter().enumerate() {
            let id = total - d;
            let k = |r: usize| AttrRef::new(names[r].as_str(), "k");
            match decl {
                Decl::Join(a, b) => mkb.add_join(JoinConstraint::new(
                    format!("J{id}"),
                    names[a].as_str(),
                    names[b].as_str(),
                    Conjunction::new(vec![Clause::eq_attrs(k(a), k(b))]),
                )),
                Decl::Cover(target, expr) => {
                    mkb.add_function_of(FunctionOf::new(format!("F{id}"), target, expr))
                }
                Decl::Pc(a, b, cond) => {
                    let v = AttrName::new(format!("v{}", id % 8));
                    let right = ProjSel::new(names[b].as_str(), vec![v.clone()]);
                    let right = match cond {
                        Some(c) => {
                            right.with_cond(Conjunction::new(vec![Clause::eq_attrs(k(c), k(b))]))
                        }
                        None => right,
                    };
                    let op = [ExtentOp::Superset, ExtentOp::Subset, ExtentOp::Equivalent][id % 3];
                    mkb.add_pc(PartialComplete::new(
                        format!("P{id}"),
                        ProjSel::new(names[a].as_str(), vec![v]),
                        op,
                        right,
                    ))
                }
            }
            .unwrap();
        }
        mkb
    }

    /// The funcof ids of `attr`'s covers, in list order.
    fn cover_ids(core: &IndexCore, attr: &AttrRef) -> Vec<String> {
        core.covers
            .get(attr)
            .map(|c| c.iter().map(|c| c.funcof_id.clone()).collect())
            .unwrap_or_default()
    }

    /// Cover- and PC-dense MKBs whose cover map spans several chunks:
    /// all six operators, aimed at cover targets, cover sources and PC
    /// sides, patch the cover map and PC buckets to exactly what a
    /// rebuild gives after every change, and a rename carries each
    /// renamed target's cover list over in declaration order.
    #[test]
    fn random_cover_changes_match_rebuild() {
        use eve_misd::chunkmap::CHUNK;
        use eve_relational::{AttributeDef, DataType};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let (mut patched_covers, mut patched_pcs) = (0, 0);
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(48..72);
            let mut mkb = cover_dense_mkb(&mut rng, n);
            let mut core = IndexCore::build(&mkb);
            assert!(
                core.covers.len() > 2 * CHUNK,
                "{} cover keys",
                core.covers.len()
            );
            for step in 0..24 {
                let rels: Vec<RelName> = mkb.relation_names().cloned().collect();
                let pick = rels[rng.gen_range(0..rels.len())].clone();
                let attrs: Vec<AttrName> = mkb
                    .relation(&pick)
                    .unwrap()
                    .attrs
                    .iter()
                    .map(|a| a.name.clone())
                    .collect();
                let attr = AttrRef::new(pick.clone(), attrs[rng.gen_range(0..attrs.len())].clone());
                // New names sort before, among and after the others.
                let fresh = ["A", "R3x", "Z"][step % 3].to_string() + &step.to_string();
                let change = match rng.gen_range(0..6) {
                    0 => CapabilityChange::AddRelation(eve_misd::RelationDescription::new(
                        "IS_new",
                        fresh.as_str(),
                        vec![AttributeDef::new("k", DataType::Int)],
                    )),
                    1 if rels.len() > 8 => CapabilityChange::DeleteRelation(pick),
                    2 => CapabilityChange::AddAttribute {
                        relation: pick,
                        attr: AttributeDef::new(fresh, DataType::Int),
                    },
                    3 if attrs.len() > 1 => CapabilityChange::DeleteAttribute(attr),
                    4 => CapabilityChange::RenameAttribute {
                        from: attr,
                        to: AttrName::new(fresh),
                    },
                    _ => CapabilityChange::RenameRelation {
                        from: pick,
                        to: RelName::new(fresh),
                    },
                };
                let before = core.clone();
                let delta = MkbDelta::compute(&mkb, &evolve(&mkb, &change).unwrap(), &change);
                patched_covers += usize::from(!delta.covers.is_empty());
                patched_pcs += usize::from(!delta.pcs.is_empty());
                (mkb, core) = step_and_compare(&mkb, &core, &change);
                // Covers renamed with their target keep its list order.
                let renamed: Vec<(AttrRef, AttrRef)> = match &change {
                    CapabilityChange::RenameRelation { from, to } => before
                        .covers
                        .keys()
                        .filter(|a| &a.relation == from)
                        .map(|a| (a.clone(), AttrRef::new(to.clone(), a.attr.clone())))
                        .collect(),
                    CapabilityChange::RenameAttribute { from, to } => {
                        vec![(
                            from.clone(),
                            AttrRef::new(from.relation.clone(), to.clone()),
                        )]
                    }
                    _ => Vec::new(),
                };
                for (old, new) in renamed {
                    assert_eq!(
                        cover_ids(&before, &old),
                        cover_ids(&core, &new),
                        "{change}: covers of {new} out of declaration order"
                    );
                }
            }
        }
        assert!(
            patched_covers >= 20 && patched_pcs >= 10,
            "the streams patched covers {patched_covers} and PCs {patched_pcs} times"
        );
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
        assert!(delta.covers.is_empty() && delta.pcs.is_empty());
        let next = core.apply_delta(&delta);
        assert!(ShardedGraph::ptr_eq(&core.h, &next.h));
        assert!(ShardedGraph::ptr_eq(&core.h_join, &next.h_join));
        assert!(ChunkMap::ptr_eq(&core.covers, &next.covers));
        assert!(ChunkMap::ptr_eq(&core.pcs, &next.pcs));

        // add-relation adds a vertex and edits no constraint: the graph
        // is patched, both constraint maps are shared.
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
        assert!(next.h.contains(&RelName::new("Aaa")));
        assert_eq!(next.h.shards().len(), core.h.shards().len() + 1);
        assert!(ChunkMap::ptr_eq(&core.covers, &next.covers));
        assert!(ChunkMap::ptr_eq(&core.pcs, &next.pcs));
    }
}
