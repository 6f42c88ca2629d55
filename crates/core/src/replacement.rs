//! The **R-replacement** set (Def. 3 of the paper): candidate join
//! expressions `Max(V_{j,R})` built from `H'_R(MKB')` that can stand in
//! for the affected part `Max(V_R)` of the view.
//!
//! Each candidate must (Def. 3):
//!
//! * (I) be a selection over a join of `H'` relations along `H'` join
//!   constraints;
//! * (II) not contain `R`;
//! * (III) contain every relation and join constraint of `Min(H_R)` that
//!   survives dropping `R`;
//! * (IV) contain a **cover** — a relation `S` with a function-of
//!   constraint `F_{R.A, S.B}` *in the old MKB* — for every indispensable,
//!   replaceable attribute `A` of `R` used by the view;
//! * (V) carry `C'_Max/Min`, obtained from `C_Max/Min` by substituting
//!   `R`'s attributes with their replacements, or dropping dispensable
//!   clauses whose attributes could not be replaced.
//!
//! The full candidate set is exponential; following the minimality spirit
//! of Def. 2 we enumerate minimal connection trees (per cover
//! combination, with parallel-join-constraint variants), bounded by
//! [`CvsOptions`]. Dispensable attributes are covered *opportunistically*
//! when a cover exists — exactly what Example 10 does for `Customer.Age`
//! (dispensable, yet replaced through `F3` because `Accident-Ins` happens
//! to cover it).

use crate::error::CvsError;
use crate::index::MkbIndex;
use crate::mapping::RMapping;
use crate::options::CvsOptions;
use eve_esql::{CondItem, ViewDefinition};
use eve_hypergraph::{ConnectionTree, RelId, RelSet};
use eve_misd::JoinConstraint;
use eve_relational::{AttrRef, RelName, ScalarExpr};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// A chosen cover for one attribute of the dropped relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverChoice {
    /// The function-of constraint used (e.g. `F2`).
    pub funcof_id: String,
    /// The cover relation `S`.
    pub source: RelName,
    /// The replacement expression `f(S.B)`.
    pub replacement: ScalarExpr,
}

/// One element of the R-replacement set: everything needed to rebuild the
/// view around `Max(V_{j,R})`.
#[derive(Debug, Clone, PartialEq)]
pub struct Replacement {
    /// Chosen covers: dropped attribute → cover. Attributes absent from
    /// the map had no cover; components using them were dropped (they
    /// were dispensable, or the candidate would have been rejected).
    /// Shared (`Arc`) across every candidate of one cover combination —
    /// combination-level data is combination-owned, so per-tree
    /// candidates clone a pointer, not a map.
    pub covers: Arc<BTreeMap<AttrRef, CoverChoice>>,
    /// The relations `R_1, …, R_k` of `Max(V_{j,R})`.
    pub relations: BTreeSet<RelName>,
    /// The join constraints of `Max(V_{j,R})` (surviving `Min` joins plus
    /// the connection tree). Each is the MKB's own `Arc`, shared with the
    /// MKB, the hypergraphs and every other candidate using it.
    pub joins: Vec<Arc<JoinConstraint>>,
    /// `C'_Max/Min` (Def. 3 V), with substitutions applied. Shared like
    /// [`Replacement::covers`].
    pub c_max_min: Arc<Vec<CondItem>>,
    /// Conditions of `C_Max/Min` dropped because they referenced an
    /// uncovered (dispensable) attribute of `R`. Shared like
    /// [`Replacement::covers`].
    pub dropped_conditions: Arc<Vec<CondItem>>,
}

/// How an attribute of `R` is used across the view, aggregated over all
/// components referencing it.
#[derive(Debug, Clone, Copy, Default)]
struct AttrUsage {
    /// Some indispensable component references it.
    required: bool,
    /// Some indispensable component referencing it is non-replaceable.
    frozen: bool,
    /// Some *replaceable* component references it — only then is a cover
    /// worth pulling in (non-replaceable components are never
    /// substituted; Fig. 3 semantics).
    replace_worthy: bool,
}

fn classify_attrs(view: &ViewDefinition, target: &RelName) -> BTreeMap<AttrRef, AttrUsage> {
    let mut usage: BTreeMap<AttrRef, AttrUsage> = BTreeMap::new();
    let mut note = |attr: AttrRef, dispensable: bool, replaceable: bool| {
        let u = usage.entry(attr).or_default();
        if replaceable {
            u.replace_worthy = true;
        }
        if !dispensable {
            u.required = true;
            if !replaceable {
                u.frozen = true;
            }
        }
    };
    for item in &view.select {
        for attr in item.expr.attrs() {
            if &attr.relation == target {
                note(attr, item.params.dispensable, item.params.replaceable);
            }
        }
    }
    for cond in &view.conditions {
        for attr in cond.clause.attrs() {
            if &attr.relation == target {
                note(attr, cond.params.dispensable, cond.params.replaceable);
            }
        }
    }
    usage
}

/// Compute the R-replacement set for `view` under `delete-relation R`
/// (where `R = rm.target`), against a prebuilt [`MkbIndex`].
///
/// Covers come from the index's precomputed function-of map (looked up
/// in the **old** MKB, per Def. 3 IV) and `H'(MKB')` is the index's
/// cached capability-filtered hypergraph — nothing MKB-derived is
/// recomputed per view. Connection-tree enumeration, viable-cover
/// filtering and survival sets all go through the index's per-change
/// memo tables, so views sharing terminal sets reuse each other's
/// graph searches.
pub fn compute_replacements_indexed(
    view: &ViewDefinition,
    rm: &RMapping,
    index: &MkbIndex<'_>,
    opts: &CvsOptions,
) -> Result<Vec<Replacement>, CvsError> {
    let mut stream = ReplacementStream::new(view, rm, index, opts, usize::MAX)?;
    let mut out = Vec::new();
    while let Some(rep) = stream.next_candidate(&mut |_| false) {
        out.push(rep);
    }
    // Same single accumulation path as the budgeted search: counters
    // are read out of the stream, never counted in parallel.
    if eve_telemetry::enabled() && stream.disconnected_combos() > 0 {
        eve_telemetry::counter_add(
            "search.disconnected_combos",
            stream.disconnected_combos() as u64,
        );
    }
    if out.is_empty() {
        return Err(if stream.any_disconnected() {
            CvsError::Disconnected
        } else {
            CvsError::NoLegalRewriting
        });
    }
    Ok(out)
}

/// Admissible lower bounds on every candidate a cover combination can
/// still produce, computed *before* its connection trees are enumerated.
///
/// Each field is component-wise ≤ the corresponding quantity of any real
/// candidate from the combination, so a search that compares these
/// bounds against its current worst kept candidate can discard the whole
/// combination — trees, assembly, costing and all — without ever missing
/// a better rewriting (see DESIGN.md, "Budgeted rewriting search").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidateBound {
    /// ≤ `replacement.relations.len()` of any candidate. Every candidate
    /// contains all terminals, and a tree spanning two relations at
    /// shortest-path distance `d` touches ≥ `d + 1` relations.
    pub min_relations: usize,
    /// ≤ `replacement.joins.len()`: the surviving `Min` joins are always
    /// included, a tree over `t` terminals has ≥ `t − 1` edges, and ≥
    /// the largest pairwise shortest-path distance.
    pub min_joins: usize,
    /// ≤ the number of candidate relations outside the view's current
    /// FROM clause (terminals not already in FROM must be joined in).
    pub min_extra_relations: usize,
    /// ≤ the number of dropped conditions: Def. 3 (V) drops are decided
    /// per combination, before any tree is chosen, and assembly can only
    /// drop more.
    pub min_dropped_conditions: usize,
}

/// A cover combination, prepared for lazy expansion.
#[derive(Debug)]
struct PreparedCombo {
    covers: Arc<BTreeMap<AttrRef, CoverChoice>>,
    terminals: BTreeSet<RelName>,
    /// `terminals` interned over `H'(MKB')`, computed once at stream
    /// construction (`None` when some terminal is not a vertex there) —
    /// every chunked tree re-request probes the memo with this key
    /// instead of re-hashing relation names.
    terminal_key: Option<RelSet>,
    /// Some terminal pair is provably unreachable in `H'` (memoized
    /// pairwise shortest paths): tree enumeration would come back empty,
    /// so skip it and record the disconnection directly.
    provably_disconnected: bool,
    /// Hoisted Def. 3 (V) rewrite of `C_Max/Min` — it only depends on the
    /// cover combination, not on the tree. `None` means a required
    /// condition survives uncovered: no tree of this combination can
    /// yield a candidate.
    cmm: Option<(Vec<CondItem>, Vec<CondItem>)>,
    bound: CandidateBound,
}

/// The combination currently being expanded tree-by-tree.
#[derive(Debug)]
struct ActiveCombo {
    /// Ordinal of the combination, part of the duplicate key: distinct
    /// combinations have pairwise-distinct `covers` maps (each is a
    /// distinct choice vector over per-attribute options with unique
    /// function-of ids), so two equal candidates always share a
    /// combination.
    ord: u32,
    covers: Arc<BTreeMap<AttrRef, CoverChoice>>,
    trees: Arc<Vec<ConnectionTree>>,
    tree_pos: usize,
    c_max_min: Arc<Vec<CondItem>>,
    dropped_conditions: Arc<Vec<CondItem>>,
}

/// Why every candidate's relations intern over `H'(MKB')`, so its
/// duplicate key always exists. A candidate's relations are its tree's
/// plus the survivors. Trees hold only `H'` vertices. A non-empty
/// terminal set contains the survivors, so a survivor outside `H'`
/// leaves every enumeration for it empty and no candidate is emitted;
/// an empty terminal set yields the empty relation set.
const CANDIDATES_INTERN: &str =
    "candidate relations are H' vertices: trees span H' vertices only, and a survivor \
     outside H' leaves every enumeration empty";

/// Connection-tree variants (alternative parallel join constraints)
/// considered per cover combination.
const MAX_TREES_PER_COMBINATION: usize = 4;

/// Lazy generator over the (cover combination × connection tree) choice
/// space of Def. 3.
///
/// Candidates come out in exactly the order the eager implementation
/// materialised them (combination order, then tree order within a
/// combination), so draining the stream reproduces the legacy
/// R-replacement list verbatim. The caller may additionally:
///
/// * skip a whole combination via the `prune_combo` callback of
///   [`ReplacementStream::next_candidate`], consulted with the
///   combination's [`CandidateBound`] before its trees are enumerated;
/// * bound the total number of trees enumerated (`max_trees`), after
///   which the stream ends and reports
///   [`ReplacementStream::tree_budget_exhausted`].
pub(crate) struct ReplacementStream<'a, 'm> {
    index: &'a MkbIndex<'m>,
    opts: &'a CvsOptions,
    survivors: Arc<BTreeSet<RelName>>,
    /// `survivors` interned over `H'(MKB')`, computed once — every
    /// candidate's relation set is `tree ∪ survivors`, so its interned
    /// key is built by adding the tree's few relations to this base
    /// instead of re-hashing the merged set.
    survivor_key: Option<RelSet>,
    surviving_joins: Vec<Arc<JoinConstraint>>,
    combos: Vec<PreparedCombo>,
    combo_idx: usize,
    current: Option<ActiveCombo>,
    /// Duplicate filter over interned candidate identities:
    /// `(combination ordinal, relation bitset over H', join-id rank
    /// sequence)`. Candidate equality reduces to this key — covers and
    /// `C'_Max/Min` are combination-level, relations and joins are fully
    /// captured by the bitset and the rank sequence — so the legacy
    /// deep-equality scan over every emitted `Replacement` collapses to
    /// one hash probe, with no retained clones. Every candidate has a
    /// key: see [`CANDIDATES_INTERN`].
    seen: HashSet<(u32, RelSet, Vec<u32>)>,
    /// Join-constraint id → dense rank, grown on first sight.
    join_rank: HashMap<String, u32>,
    max_trees: usize,
    trees_enumerated: usize,
    combos_pruned: usize,
    disconnected_combos: usize,
    any_disconnected: bool,
    tree_budget_exhausted: bool,
}

impl<'a, 'm> ReplacementStream<'a, 'm> {
    /// Classify the view's use of `R`, resolve covers and prepare the
    /// cover combinations. Fails eagerly with the same classification
    /// errors the eager implementation raised
    /// ([`CvsError::IndispensableNotReplaceable`], [`CvsError::NoCover`]).
    pub(crate) fn new(
        view: &ViewDefinition,
        rm: &'a RMapping,
        index: &'a MkbIndex<'m>,
        opts: &'a CvsOptions,
        max_trees: usize,
    ) -> Result<Self, CvsError> {
        let target = &rm.target;

        // --- attribute classification & cover lookup (Def. 3 IV) -------
        let usage = classify_attrs(view, target);
        // Frozen attributes make the view incurable (P4).
        for (attr, u) in &usage {
            if u.frozen {
                return Err(CvsError::IndispensableNotReplaceable {
                    component: attr.to_string(),
                });
            }
        }

        // Per attribute: the list of viable covers (source relation alive
        // in H' and distinct from R). Attributes used only by
        // non-replaceable components never take a cover — those
        // components can only be kept (impossible once R is gone) or
        // dropped.
        let mut cover_options: Vec<(AttrRef, Vec<CoverChoice>, bool)> = Vec::new();
        for (attr, u) in &usage {
            let covers: Vec<CoverChoice> = if u.replace_worthy {
                // Memoized Def. 3 (IV) filter: source distinct from `R`
                // and alive in `H'`.
                index.viable_covers(attr, target).to_vec()
            } else {
                Vec::new()
            };
            if u.required && covers.is_empty() {
                return Err(CvsError::NoCover(attr.clone()));
            }
            if !covers.is_empty() {
                cover_options.push((attr.clone(), covers, u.required));
            }
        }

        // --- enumerate cover combinations -------------------------------
        // For required attributes every option is a cover; for dispensable
        // ones we also allow "no cover" (drop the components), tried last
        // so opportunistic covering is preferred.
        let mut combinations: Vec<BTreeMap<AttrRef, CoverChoice>> = vec![BTreeMap::new()];
        for (attr, covers, required) in &cover_options {
            let mut next = Vec::new();
            for combo in &combinations {
                for c in covers {
                    let mut combo = combo.clone();
                    combo.insert(attr.clone(), c.clone());
                    next.push(combo);
                    if next.len() >= opts.max_cover_combinations {
                        break;
                    }
                }
                if !required && next.len() < opts.max_cover_combinations {
                    next.push(combo.clone()); // the "leave uncovered" branch
                }
                if next.len() >= opts.max_cover_combinations {
                    break;
                }
            }
            combinations = next;
        }

        let survivors = index.survival_set(&rm.max_relations, target);
        let surviving_joins = rm.surviving_joins();
        // FROM minus the dropped relation, for the extra-relations bound.
        let from_rels: BTreeSet<RelName> = view
            .from
            .iter()
            .map(|f| f.relation.clone())
            .filter(|r| r != target)
            .collect();

        let combos = combinations
            .into_iter()
            .map(|covers| {
                let mut terminals: BTreeSet<RelName> = (*survivors).clone();
                terminals.extend(covers.values().map(|c| c.source.clone()));
                // Intern once; the pairwise loop and every chunked tree
                // request below run on ids.
                let terminal_ids: Vec<Option<RelId>> =
                    terminals.iter().map(|t| index.rel_id_prime(t)).collect();
                let terminal_key: Option<RelSet> = index.intern_terminals(&terminals);

                // Pairwise reachability and diameter over the terminals,
                // through the index's memoized shortest paths. A terminal
                // that is not a vertex of `H'` is unreachable from
                // everything, exactly as the legacy name-keyed lookup
                // reported.
                let mut provably_disconnected = false;
                let mut max_dist = 0usize;
                'pairs: for i in 0..terminal_ids.len() {
                    for j in i + 1..terminal_ids.len() {
                        let d = match (terminal_ids[i], terminal_ids[j]) {
                            (Some(a), Some(b)) => index.pair_distance_ids(a, b),
                            _ => None,
                        };
                        match d {
                            None => {
                                provably_disconnected = true;
                                break 'pairs;
                            }
                            Some(d) => max_dist = max_dist.max(d),
                        }
                    }
                }

                let cmm = rewrite_c_max_min(rm, &covers, target);
                let covers = Arc::new(covers);
                let t = terminals.len();
                let bound = CandidateBound {
                    min_relations: if t == 0 { 0 } else { t.max(max_dist + 1) },
                    min_joins: surviving_joins.len().max(t.saturating_sub(1)).max(max_dist),
                    min_extra_relations: terminals
                        .iter()
                        .filter(|r| !from_rels.contains(*r))
                        .count(),
                    min_dropped_conditions: cmm.as_ref().map(|(_, d)| d.len()).unwrap_or(0),
                };
                PreparedCombo {
                    covers,
                    terminals,
                    terminal_key,
                    provably_disconnected,
                    cmm,
                    bound,
                }
            })
            .collect();

        let survivor_key = index.intern_terminals(&survivors);
        Ok(ReplacementStream {
            index,
            opts,
            survivors,
            survivor_key,
            surviving_joins,
            combos,
            combo_idx: 0,
            current: None,
            seen: HashSet::new(),
            join_rank: HashMap::new(),
            max_trees,
            trees_enumerated: 0,
            combos_pruned: 0,
            disconnected_combos: 0,
            any_disconnected: false,
            tree_budget_exhausted: false,
        })
    }

    /// Advance to the next candidate replacement, or `None` when the
    /// choice space (or the tree budget) is exhausted.
    ///
    /// `prune_combo` is consulted once per viable cover combination,
    /// with its admissible [`CandidateBound`], *before* its connection
    /// trees are enumerated; returning `true` skips the combination
    /// (counted in [`ReplacementStream::combos_pruned`]). Pass
    /// `&mut |_| false` for the exhaustive legacy behaviour.
    pub(crate) fn next_candidate(
        &mut self,
        prune_combo: &mut dyn FnMut(&CandidateBound) -> bool,
    ) -> Option<Replacement> {
        loop {
            if let Some(cur) = &mut self.current {
                while cur.tree_pos < cur.trees.len() {
                    let tree = &cur.trees[cur.tree_pos];
                    cur.tree_pos += 1;
                    // Def. 3 (III): include the surviving Min(H_R) joins.
                    // Both lists hold the MKB's `Arc`s: the candidate
                    // clones pointers, never constraints.
                    let mut joins =
                        Vec::with_capacity(self.surviving_joins.len() + tree.joins.len());
                    joins.extend(self.surviving_joins.iter().cloned());
                    for jc in &tree.joins {
                        if !joins.iter().any(|j| j.id == jc.id) {
                            joins.push(Arc::clone(jc));
                        }
                    }
                    // Duplicate filter on the interned identity; order of
                    // `joins` is significant (candidate equality is
                    // positional), hence a rank *sequence*, not a set.
                    let mut rel_key = self.survivor_key.clone().expect(CANDIDATES_INTERN);
                    for t in &tree.relations {
                        rel_key.insert(self.index.rel_id_prime(t).expect(CANDIDATES_INTERN));
                    }
                    let ranks: Vec<u32> = joins
                        .iter()
                        .map(|j| match self.join_rank.get(&j.id) {
                            Some(&r) => r,
                            None => {
                                let next = self.join_rank.len() as u32;
                                self.join_rank.insert(j.id.clone(), next);
                                next
                            }
                        })
                        .collect();
                    if !self.seen.insert((cur.ord, rel_key, ranks)) {
                        continue;
                    }
                    let mut relations = tree.relations.clone();
                    relations.extend(self.survivors.iter().cloned());
                    return Some(Replacement {
                        covers: cur.covers.clone(),
                        relations,
                        joins,
                        c_max_min: cur.c_max_min.clone(),
                        dropped_conditions: cur.dropped_conditions.clone(),
                    });
                }
                self.current = None;
            }

            // Advance to the next cover combination.
            if self.combo_idx >= self.combos.len() {
                return None;
            }
            let combo = &self.combos[self.combo_idx];
            let combo_ord = self.combo_idx as u32;
            self.combo_idx += 1;

            if combo.provably_disconnected {
                // Enumeration over these terminals is provably empty.
                self.any_disconnected = true;
                self.disconnected_combos += 1;
                continue;
            }
            let Some((c_max_min, dropped_conditions)) = combo.cmm.clone() else {
                // Def. 3 (V) fails for *every* tree of this combination;
                // only its connectivity signal matters for the final
                // error verdict, so probe with a single tree.
                if !combo.terminals.is_empty()
                    && self
                        .index
                        .enumerate_trees_interned(
                            combo.terminal_key.as_ref(),
                            &combo.terminals,
                            1,
                            self.opts.max_path_edges,
                        )
                        .is_empty()
                {
                    self.any_disconnected = true;
                }
                continue;
            };
            if prune_combo(&combo.bound) {
                self.combos_pruned += 1;
                continue;
            }

            let trees: Arc<Vec<ConnectionTree>> = if combo.terminals.is_empty() {
                // Nothing to keep and nothing to cover: Max(V_R)
                // disappears entirely (all its work was dispensable).
                Arc::new(vec![ConnectionTree {
                    relations: BTreeSet::new(),
                    joins: Vec::new(),
                }])
            } else {
                let remaining = self.max_trees.saturating_sub(self.trees_enumerated);
                if remaining == 0 {
                    // Combinations remain but the tree budget is spent.
                    self.tree_budget_exhausted = true;
                    return None;
                }
                let chunk = MAX_TREES_PER_COMBINATION.min(remaining);
                // Memoized per (terminal set, hop bound): a second view
                // sharing this combination's terminals reuses the walk,
                // and smaller limits are served from the cached prefix.
                let trees = self.index.enumerate_trees_interned(
                    combo.terminal_key.as_ref(),
                    &combo.terminals,
                    chunk,
                    self.opts.max_path_edges,
                );
                if trees.is_empty() {
                    self.any_disconnected = true;
                    self.disconnected_combos += 1;
                    continue;
                }
                self.trees_enumerated += trees.len();
                if chunk < MAX_TREES_PER_COMBINATION && trees.len() == chunk {
                    // The per-combination limit was clipped by the global
                    // budget and the clipped enumeration filled up.
                    self.tree_budget_exhausted = true;
                }
                trees
            };

            self.current = Some(ActiveCombo {
                ord: combo_ord,
                covers: combo.covers.clone(),
                trees,
                tree_pos: 0,
                c_max_min: Arc::new(c_max_min),
                dropped_conditions: Arc::new(dropped_conditions),
            });
        }
    }

    /// Did any combination's tree enumeration come back (provably)
    /// empty? Distinguishes [`CvsError::Disconnected`] from
    /// [`CvsError::NoLegalRewriting`] when no candidate survives.
    pub(crate) fn any_disconnected(&self) -> bool {
        self.any_disconnected
    }

    /// Connection trees enumerated so far (across all combinations).
    pub(crate) fn trees_enumerated(&self) -> usize {
        self.trees_enumerated
    }

    /// Combinations skipped by the caller's prune callback.
    pub(crate) fn combos_pruned(&self) -> usize {
        self.combos_pruned
    }

    /// Combinations whose tree enumeration was (provably or actually)
    /// empty. Counted here and only read out by the caller, so the
    /// `search.disconnected_combos` counter and `SearchStats` can
    /// never drift apart.
    pub(crate) fn disconnected_combos(&self) -> usize {
        self.disconnected_combos
    }

    /// Did the global tree budget cut the enumeration short?
    pub(crate) fn tree_budget_exhausted(&self) -> bool {
        self.tree_budget_exhausted
    }
}

/// Def. 3 (V): rewrite `C_Max/Min` under a cover combination. Returns
/// `(c_max_min, dropped_conditions)`, or `None` when a required
/// condition survives uncovered (the combination cannot produce a legal
/// rewriting). Tree-independent, so hoisted to once per combination.
fn rewrite_c_max_min(
    rm: &RMapping,
    combo: &BTreeMap<AttrRef, CoverChoice>,
    target: &RelName,
) -> Option<(Vec<CondItem>, Vec<CondItem>)> {
    let mut c_max_min = Vec::new();
    let mut dropped_conditions = Vec::new();
    for cond in &rm.c_max_min {
        let mut clause = cond.clause.clone();
        // Non-replaceable conditions are never substituted (Fig. 3:
        // `CR = false` means "left unchanged").
        if cond.params.replaceable {
            for (attr, cover) in combo {
                clause = clause.substitute(attr, &cover.replacement);
            }
        }
        if clause.references_relation(target) {
            if cond.params.dispensable {
                dropped_conditions.push(cond.clone());
                continue;
            }
            // A required condition survived uncovered.
            return None;
        }
        c_max_min.push(CondItem {
            clause,
            params: cond.params,
        });
    }
    Some((c_max_min, dropped_conditions))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::compute_r_mapping;
    use eve_esql::parse_view;
    use eve_hypergraph::Hypergraph;
    use eve_misd::{evolve, CapabilityChange, MetaKnowledgeBase};

    use crate::testutil::travel_mkb;

    fn eq5_view() -> ViewDefinition {
        parse_view(
            "CREATE VIEW Customer-Passengers-Asia AS
             SELECT C.Name (false, true), C.Age (true, true),
                    P.Participant (true, true), P.TourID (true, true)
             FROM Customer C (true, true), FlightRes F (true, true), Participant P (true, true)
             WHERE (C.Name = F.PName) (false, true) AND (F.Dest = 'Asia')
               AND (P.StartDate = F.Date) AND (P.Loc = 'Asia')",
        )
        .unwrap()
    }

    fn setup() -> (
        MetaKnowledgeBase,
        MetaKnowledgeBase,
        RMapping,
        ViewDefinition,
    ) {
        let mkb = travel_mkb();
        let customer = RelName::new("Customer");
        let h = Hypergraph::build(&mkb);
        let h_r = h.component_of(&customer).unwrap();
        let view = eq5_view();
        let rm = compute_r_mapping(&view, &customer, &h_r, &CvsOptions::default());
        let mkb2 = evolve(&mkb, &CapabilityChange::DeleteRelation(customer)).unwrap();
        (mkb, mkb2, rm, view)
    }

    #[test]
    fn example_9_covers_found() {
        // Paper Ex. 9 Step 1: Cover(Customer.Name) =
        // {Accident-Ins (F2), Participant (F4), FlightRes (F1)}.
        let (mkb, mkb2, rm, view) = setup();
        let _ = &rm;
        let usage_attr = AttrRef::new("Customer", "Name");
        let covers: BTreeSet<RelName> = mkb
            .covers_of(&usage_attr)
            .filter_map(|f| f.source_relation())
            .collect();
        assert_eq!(
            covers,
            ["Accident-Ins", "Participant", "FlightRes"]
                .into_iter()
                .map(RelName::new)
                .collect()
        );
        let _ = (mkb2, view);
    }

    #[test]
    fn example_9_replacements() {
        // The candidates must include FlightRes ⋈ Accident-Ins (cover F2)
        // and the trivial FlightRes cover (F1). All candidates contain
        // FlightRes (= Min(H'_Customer), Def. 3 III) and never Customer.
        let (mkb, mkb2, rm, view) = setup();
        let opts = CvsOptions::default();
        let index = MkbIndex::new(&mkb, &mkb2, &opts);
        let reps = compute_replacements_indexed(&view, &rm, &index, &opts).unwrap();
        assert!(!reps.is_empty());
        let customer = RelName::new("Customer");
        for r in &reps {
            assert!(!r.relations.contains(&customer), "Def. 3 (II) violated");
            assert!(
                r.relations.contains(&RelName::new("FlightRes")),
                "Def. 3 (III) violated"
            );
            // C'_Max/Min must be Customer-free.
            for c in r.c_max_min.iter() {
                assert!(!c.clause.relations().contains(&customer));
            }
        }
        // The Accident-Ins solution of Ex. 10 (using JC6).
        let via_ins = reps.iter().find(|r| {
            r.covers
                .get(&AttrRef::new("Customer", "Name"))
                .map(|c| c.funcof_id == "F2")
                .unwrap_or(false)
        });
        let via_ins = via_ins.expect("Accident-Ins candidate of Ex. 10 missing");
        assert!(via_ins.joins.iter().any(|j| j.id == "JC6"));
        // Opportunistic Age cover (F3) — Ex. 10's refinement Eq. (13).
        assert_eq!(
            via_ins
                .covers
                .get(&AttrRef::new("Customer", "Age"))
                .map(|c| c.funcof_id.as_str()),
            Some("F3")
        );

        // The FlightRes solution (cover F1): with Age left uncovered it
        // needs no relation beyond FlightRes itself.
        let via_flight = reps.iter().find(|r| {
            r.covers
                .get(&AttrRef::new("Customer", "Name"))
                .map(|c| c.funcof_id == "F1")
                .unwrap_or(false)
                && !r.covers.contains_key(&AttrRef::new("Customer", "Age"))
        });
        let via_flight = via_flight.expect("FlightRes candidate missing");
        assert_eq!(via_flight.relations.len(), 1);
    }

    #[test]
    fn example_9_participant_cover_unusable_without_path() {
        // Paper Ex. 9 (2): "the cover (Participant, …) cannot be used as
        // replacement as there is no connected path in H'(MKB') that
        // contains both the cover and the relation FlightRes" — once
        // Customer is erased, every Participant—FlightRes path is gone
        // (Fig. 4, right).
        let mkb = travel_mkb();
        let customer = RelName::new("Customer");
        let view = eq5_view();
        let h = Hypergraph::build(&mkb);
        let h_r = h.component_of(&customer).unwrap();
        let rm = compute_r_mapping(&view, &customer, &h_r, &CvsOptions::default());
        let mkb2 = evolve(&mkb, &CapabilityChange::DeleteRelation(customer)).unwrap();
        let opts = CvsOptions::default();
        let index = MkbIndex::new(&mkb, &mkb2, &opts);
        let reps = compute_replacements_indexed(&view, &rm, &index, &opts).unwrap();
        // No candidate may use the Participant cover: in H'(MKB'),
        // Participant and FlightRes are disconnected (Fig. 4 right).
        for r in &reps {
            if let Some(c) = r.covers.get(&AttrRef::new("Customer", "Name")) {
                assert_ne!(c.funcof_id, "F4", "disconnected cover used: {r:?}");
            }
        }
    }

    #[test]
    fn frozen_attribute_fails() {
        let (mkb, mkb2, _, _) = setup();
        let view = parse_view(
            "CREATE VIEW V AS SELECT C.Name (AD = false, AR = false), F.Dest
             FROM Customer C, FlightRes F WHERE C.Name = F.PName",
        )
        .unwrap();
        let customer = RelName::new("Customer");
        let h = Hypergraph::build(&mkb);
        let h_r = h.component_of(&customer).unwrap();
        let rm = compute_r_mapping(&view, &customer, &h_r, &CvsOptions::default());
        let opts = CvsOptions::default();
        let index = MkbIndex::new(&mkb, &mkb2, &opts);
        let err = compute_replacements_indexed(&view, &rm, &index, &opts).unwrap_err();
        assert!(matches!(err, CvsError::IndispensableNotReplaceable { .. }));
    }

    #[test]
    fn no_cover_fails() {
        // Customer.Phone has no function-of constraint: an indispensable
        // Phone cannot be replaced.
        let (mkb, mkb2, _, _) = setup();
        let view = parse_view(
            "CREATE VIEW V AS SELECT C.Phone (AD = false, AR = true), F.Dest
             FROM Customer C, FlightRes F WHERE C.Name = F.PName",
        )
        .unwrap();
        let customer = RelName::new("Customer");
        let h = Hypergraph::build(&mkb);
        let h_r = h.component_of(&customer).unwrap();
        let rm = compute_r_mapping(&view, &customer, &h_r, &CvsOptions::default());
        let opts = CvsOptions::default();
        let index = MkbIndex::new(&mkb, &mkb2, &opts);
        let err = compute_replacements_indexed(&view, &rm, &index, &opts).unwrap_err();
        assert_eq!(err, CvsError::NoCover(AttrRef::new("Customer", "Phone")));
    }

    #[test]
    fn one_step_limit_prunes_long_chains() {
        // With max_path_edges = 1 (the SVS baseline) the Accident-Ins
        // candidate remains reachable (JC6 is a direct edge from
        // FlightRes), so it should still be found; candidates needing
        // longer chains would be pruned (exercised further in the
        // workload/experiment tests).
        let (mkb, mkb2, rm, view) = setup();
        let opts = CvsOptions::svs_baseline();
        let index = MkbIndex::new(&mkb, &mkb2, &opts);
        let reps = compute_replacements_indexed(&view, &rm, &index, &opts).unwrap();
        assert!(reps
            .iter()
            .any(|r| r.relations.contains(&RelName::new("Accident-Ins"))));
    }
}
