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
//! [`MAX_COVER_COMBINATIONS`] and `MAX_TREES_PER_COMBINATION`.
//! Dispensable attributes are covered *opportunistically* when a cover
//! exists — exactly what Example 10 does for `Customer.Age`
//! (dispensable, yet replaced through `F3` because `Accident-Ins` happens
//! to cover it).

use crate::error::CvsError;
use crate::index::MkbIndex;
use crate::mapping::RMapping;
use crate::options::CvsOptions;
use eve_esql::{CondItem, EvolutionParams, ViewDefinition};
use eve_hypergraph::{ConnectionTree, RelSet};
use eve_misd::JoinConstraint;
use eve_relational::{AttrRef, RelName, ScalarExpr};
use std::collections::{BTreeMap, BTreeSet};
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
    // Noting an attribute twice changes nothing, so the components'
    // references are visited in place rather than collected into sets.
    let mut note = |attr: &AttrRef, params: EvolutionParams| {
        if &attr.relation != target {
            return true;
        }
        let u = usage.entry(attr.clone()).or_default();
        if params.replaceable {
            u.replace_worthy = true;
        }
        if !params.dispensable {
            u.required = true;
            if !params.replaceable {
                u.frozen = true;
            }
        }
        true
    };
    for item in &view.select {
        item.expr.all_attrs(&mut |a| note(a, item.params));
    }
    for cond in &view.conditions {
        cond.clause.all_attrs(&mut |a| note(a, cond.params));
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
    let mut stream = ReplacementStream::new(view, rm, index, opts)?;
    let mut out = Vec::new();
    while let Some(rep) = stream.next_candidate() {
        out.push(rep);
    }
    // Same single accumulation path as the search: counters are read
    // out of the stream, never counted in parallel.
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

/// A condition list shared by every candidate of one cover combination.
type SharedConditions = Arc<Vec<CondItem>>;

/// A cover combination, prepared when the stream reaches it.
#[derive(Debug)]
struct PreparedCombo {
    covers: BTreeMap<AttrRef, CoverChoice>,
    terminals: BTreeSet<RelName>,
    /// `terminals` interned over `H'(MKB')` (`None` when some terminal
    /// is not a vertex there): the view's interned survivors plus this
    /// combination's cover sources, so each name is interned once.
    terminal_key: Option<RelSet>,
    /// The terminals span several components of `H'`: tree enumeration
    /// would come back empty, so skip it and record the disconnection
    /// directly.
    provably_disconnected: bool,
    /// Def. 3 (V) rewrite of `C_Max/Min` — it only depends on the cover
    /// combination, not on the tree. `None` means a required condition
    /// survives uncovered: no tree of this combination can yield a
    /// candidate.
    cmm: Option<(SharedConditions, SharedConditions)>,
}

/// The combination currently being expanded tree-by-tree.
#[derive(Debug)]
struct ActiveCombo {
    covers: Arc<BTreeMap<AttrRef, CoverChoice>>,
    trees: Arc<Vec<ConnectionTree>>,
    tree_pos: usize,
    c_max_min: SharedConditions,
    dropped_conditions: SharedConditions,
}

/// Why no two candidates of one cover combination are equal, so the
/// stream needs no duplicate filter. Candidates of different
/// combinations differ in their covers (each combination is a distinct
/// choice vector over per-attribute options with unique function-of
/// ids). Within a combination a candidate is its tree's relations and
/// the surviving `Min(H_R)` joins followed by the tree's other joins, so
/// two equal candidates need two trees with the same relations and,
/// outside the surviving joins, the same joins. `TreeCursor` never
/// yields those: with two terminals it yields distinct simple paths;
/// otherwise the greedy tree plus single-swap variants, each trading one
/// join for a distinct parallel one between the same relation pair. A
/// swap cannot vanish into the surviving joins either, because
/// `Min(H_R)` holds at most one constraint per relation pair.
const DUPLICATE_FREE: &str = "two connection trees of one cover combination gave the same \
     candidate: TreeCursor yields distinct paths and single-swap parallel variants, and \
     Min(H_R) holds at most one constraint per relation pair";

/// Cover combinations explored per view. The cartesian product over the
/// per-attribute cover choices is cut, breadth first, at this bound; a
/// cut is reported through
/// [`crate::rewrite::SearchStats::budget_exhausted`].
pub const MAX_COVER_COMBINATIONS: usize = 32;

/// Connection-tree variants (alternative parallel join constraints)
/// considered per cover combination.
const MAX_TREES_PER_COMBINATION: usize = 4;

/// Lazy generator over the (cover combination × connection tree) choice
/// space of Def. 3.
///
/// Candidates come out in exactly the order the eager implementation
/// materialised them (combination order, then tree order within a
/// combination), so draining the stream reproduces the legacy
/// R-replacement list verbatim.
///
/// Everything that depends on the view alone — the survivors and their
/// interned ids — is computed once in [`ReplacementStream::new`]; a
/// combination adds only its cover sources, when the stream reaches it.
pub(crate) struct ReplacementStream<'a, 'm> {
    index: &'a MkbIndex<'m>,
    opts: &'a CvsOptions,
    rm: &'a RMapping,
    /// The attributes of `R` that take a cover, in attribute order.
    cover_options: Vec<CoverOption>,
    /// Cover combinations to explore: their product, capped at
    /// [`MAX_COVER_COMBINATIONS`].
    combo_count: usize,
    /// Did the cap cut the product short?
    covers_truncated: bool,
    /// `Min(H_R)` minus `R` (Def. 3 III). A non-empty terminal set
    /// contains them, so every tree spans them.
    survivors: Arc<BTreeSet<RelName>>,
    /// `survivors` interned over `H'(MKB')`, `None` when one is not a
    /// vertex there.
    survivor_ids: Option<RelSet>,
    surviving_joins: Vec<Arc<JoinConstraint>>,
    combo_idx: usize,
    current: Option<ActiveCombo>,
    trees_enumerated: usize,
    disconnected_combos: usize,
    any_disconnected: bool,
}

impl<'a, 'm> ReplacementStream<'a, 'm> {
    /// Classify the view's use of `R`, resolve covers and set the view
    /// up. Fails eagerly with the same classification errors the eager
    /// implementation raised ([`CvsError::IndispensableNotReplaceable`],
    /// [`CvsError::NoCover`]).
    pub(crate) fn new(
        view: &ViewDefinition,
        rm: &'a RMapping,
        index: &'a MkbIndex<'m>,
        opts: &'a CvsOptions,
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
        let mut cover_options = Vec::new();
        for (attr, u) in usage {
            // Memoized Def. 3 (IV) filter: source distinct from `R` and
            // alive in `H'`.
            let covers = match u.replace_worthy {
                true => Some(index.viable_covers(&attr, target)).filter(|c| !c.is_empty()),
                false => None,
            };
            match covers {
                Some(covers) => cover_options.push((attr, covers, u.required)),
                None if u.required => return Err(CvsError::NoCover(attr)),
                None => {}
            }
        }
        let product = cover_options
            .iter()
            .fold(1usize, |n, (_, covers, required)| {
                n.saturating_mul(covers.len() + usize::from(!required))
            });

        let survivors = index.survival_set(&rm.max_relations, target);
        let survivor_ids = index.intern_terminals(&survivors);

        Ok(ReplacementStream {
            index,
            opts,
            rm,
            cover_options,
            combo_count: product.min(MAX_COVER_COMBINATIONS),
            covers_truncated: product > MAX_COVER_COMBINATIONS,
            survivors,
            survivor_ids,
            surviving_joins: rm.surviving_joins(),
            combo_idx: 0,
            current: None,
            trees_enumerated: 0,
            disconnected_combos: 0,
            any_disconnected: false,
        })
    }

    /// Set combination `ord` up: its terminals (survivors plus cover
    /// sources), their interned key and connectivity, and its Def. 3 (V)
    /// rewrite of `C_Max/Min`.
    fn prepare(&self, ord: usize) -> PreparedCombo {
        let covers = combination(&self.cover_options, ord);
        let mut terminals: BTreeSet<RelName> = (*self.survivors).clone();
        let mut terminal_key = self.survivor_ids.clone();
        for cover in covers.values() {
            if terminals.insert(cover.source.clone()) {
                match (self.index.rel_id_prime(&cover.source), &mut terminal_key) {
                    (Some(id), Some(key)) => {
                        key.insert(id);
                    }
                    _ => terminal_key = None,
                }
            }
        }
        // A tree spans its terminals only inside one component of `H'`.
        // A terminal that is not a vertex there is unreachable from
        // everything else.
        let provably_disconnected = match &terminal_key {
            Some(key) => !self.index.in_one_component(key),
            None => terminals.len() >= 2,
        };
        let cmm = rewrite_c_max_min(self.rm, &covers, &self.rm.target)
            .map(|(c, d)| (Arc::new(c), Arc::new(d)));
        PreparedCombo {
            covers,
            terminals,
            terminal_key,
            provably_disconnected,
            cmm,
        }
    }

    /// Advance to the next candidate replacement, or `None` when the
    /// choice space is exhausted.
    pub(crate) fn next_candidate(&mut self) -> Option<Replacement> {
        loop {
            if let Some(cur) = &mut self.current {
                if cur.tree_pos < cur.trees.len() {
                    let pos = cur.tree_pos;
                    cur.tree_pos += 1;
                    let tree = &cur.trees[pos];
                    let joins = candidate_joins(&self.surviving_joins, tree);
                    // The tree spans the survivors, so its relations are
                    // the candidate's.
                    debug_assert!(tree.relations.is_superset(&self.survivors));
                    debug_assert!(
                        cur.trees[..pos].iter().all(|earlier| {
                            earlier.relations != tree.relations
                                || !candidate_joins(&self.surviving_joins, earlier)
                                    .iter()
                                    .map(|j| &j.id)
                                    .eq(joins.iter().map(|j| &j.id))
                        }),
                        "{DUPLICATE_FREE}"
                    );
                    return Some(Replacement {
                        covers: Arc::clone(&cur.covers),
                        relations: tree.relations.clone(),
                        joins,
                        c_max_min: Arc::clone(&cur.c_max_min),
                        dropped_conditions: Arc::clone(&cur.dropped_conditions),
                    });
                }
                self.current = None;
            }

            // Advance to the next cover combination.
            if self.combo_idx >= self.combo_count {
                return None;
            }
            let combo = self.prepare(self.combo_idx);
            self.combo_idx += 1;

            if combo.provably_disconnected {
                // Enumeration over these terminals is provably empty.
                self.any_disconnected = true;
                self.disconnected_combos += 1;
                continue;
            }
            let Some((c_max_min, dropped_conditions)) = combo.cmm else {
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

            let trees: Arc<Vec<ConnectionTree>> = if combo.terminals.is_empty() {
                // Nothing to keep and nothing to cover: Max(V_R)
                // disappears entirely (all its work was dispensable).
                Arc::new(vec![ConnectionTree {
                    relations: BTreeSet::new(),
                    joins: Vec::new(),
                }])
            } else {
                // Memoized per (terminal set, hop bound): a second view
                // sharing this combination's terminals reuses the walk,
                // and smaller limits are served from the cached prefix.
                let trees = self.index.enumerate_trees_interned(
                    combo.terminal_key.as_ref(),
                    &combo.terminals,
                    MAX_TREES_PER_COMBINATION,
                    self.opts.max_path_edges,
                );
                if trees.is_empty() {
                    self.any_disconnected = true;
                    self.disconnected_combos += 1;
                    continue;
                }
                self.trees_enumerated += trees.len();
                trees
            };

            self.current = Some(ActiveCombo {
                covers: Arc::new(combo.covers),
                trees,
                tree_pos: 0,
                c_max_min,
                dropped_conditions,
            });
        }
    }

    /// Was the candidate just returned the last of its cover
    /// combination? The next one, if any, has other covers.
    pub(crate) fn combination_done(&self) -> bool {
        !matches!(&self.current, Some(cur) if cur.tree_pos < cur.trees.len())
    }

    /// `Min(H_R)` minus `R`, shared with extent inference.
    pub(crate) fn survivors(&self) -> Arc<BTreeSet<RelName>> {
        Arc::clone(&self.survivors)
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

    /// Combinations whose terminals span several components of `H'`, or
    /// whose tree enumeration came back empty. Counted here and only
    /// read out by the caller, so the `search.disconnected_combos`
    /// counter and `SearchStats` can never drift apart.
    pub(crate) fn disconnected_combos(&self) -> usize {
        self.disconnected_combos
    }

    /// Did [`MAX_COVER_COMBINATIONS`] cut the cover-combination product
    /// short?
    pub(crate) fn covers_truncated(&self) -> bool {
        self.covers_truncated
    }
}

/// An attribute of `R` that takes a cover: its viable covers (the
/// index's memoized list, shared) and whether it is required (a
/// dispensable one may also stay uncovered).
type CoverOption = (AttrRef, Arc<Vec<CoverChoice>>, bool);

/// The covers of cover combination `ord`.
///
/// Combinations are the choice vectors over the attributes' options in
/// lexicographic order, the first attribute most significant; an
/// attribute's options are its covers in order, then "leave uncovered"
/// when it is dispensable, so opportunistic covering is tried first.
/// That is the order of the breadth-first product (each partial
/// combination extended by every option in turn), and a product cut at
/// `n` entries keeps exactly the first `n` vectors, so combination `ord`
/// is `ord` written in the mixed radix of the option counts.
fn combination(options: &[CoverOption], mut ord: usize) -> BTreeMap<AttrRef, CoverChoice> {
    let mut covers = BTreeMap::new();
    for (attr, covers_of_attr, required) in options.iter().rev() {
        let radix = covers_of_attr.len() + usize::from(!required);
        if let Some(cover) = covers_of_attr.get(ord % radix) {
            covers.insert(attr.clone(), cover.clone());
        }
        ord /= radix;
    }
    covers
}

/// The joins of the candidate built on `tree` (Def. 3 III): the
/// surviving `Min(H_R)` joins, then the tree's others. Both lists hold
/// the MKB's `Arc`s: the candidate clones pointers, never constraints.
fn candidate_joins(
    surviving_joins: &[Arc<JoinConstraint>],
    tree: &ConnectionTree,
) -> Vec<Arc<JoinConstraint>> {
    let mut joins = Vec::with_capacity(surviving_joins.len() + tree.joins.len());
    joins.extend(surviving_joins.iter().cloned());
    for jc in &tree.joins {
        if !joins.iter().any(|j| j.id == jc.id) {
            joins.push(Arc::clone(jc));
        }
    }
    joins
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
        let index = MkbIndex::new(&mkb, &mkb2);
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
        let index = MkbIndex::new(&mkb, &mkb2);
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
        let index = MkbIndex::new(&mkb, &mkb2);
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
        let index = MkbIndex::new(&mkb, &mkb2);
        let err = compute_replacements_indexed(&view, &rm, &index, &opts).unwrap_err();
        assert_eq!(err, CvsError::NoCover(AttrRef::new("Customer", "Phone")));
    }

    /// The breadth-first, capped cartesian product `combination` decodes:
    /// every partial combination extended by each cover, then by "leave
    /// uncovered" for a dispensable attribute, cut at `cap` entries.
    fn breadth_first(options: &[CoverOption], cap: usize) -> Vec<BTreeMap<AttrRef, CoverChoice>> {
        let mut combos = vec![BTreeMap::new()];
        for (attr, covers, required) in options {
            let mut next = Vec::new();
            'extend: for combo in &combos {
                for c in covers.iter() {
                    let mut combo = combo.clone();
                    combo.insert(attr.clone(), c.clone());
                    next.push(combo);
                    if next.len() >= cap {
                        break 'extend;
                    }
                }
                if !required {
                    next.push(combo.clone());
                    if next.len() >= cap {
                        break;
                    }
                }
            }
            combos = next;
        }
        combos
    }

    #[test]
    fn combinations_decode_the_capped_breadth_first_product() {
        let option = |attr: &str, n: usize, required: bool| -> CoverOption {
            let covers = (0..n)
                .map(|i| CoverChoice {
                    funcof_id: format!("F{attr}{i}"),
                    source: RelName::new(format!("S{i}")),
                    replacement: ScalarExpr::attr(format!("S{i}"), attr),
                })
                .collect();
            (AttrRef::new("R", attr), Arc::new(covers), required)
        };
        let shapes = [
            vec![],
            vec![option("a", 3, true)],
            vec![option("a", 2, false), option("b", 3, true)],
            vec![option("a", 7, true), option("b", 7, true)],
            vec![
                option("a", 2, true),
                option("b", 1, false),
                option("c", 4, false),
            ],
            vec![
                option("a", 3, false),
                option("b", 4, false),
                option("c", 2, false),
            ],
        ];
        for options in &shapes {
            let product: usize = options
                .iter()
                .map(|(_, c, required)| c.len() + usize::from(!required))
                .product();
            for cap in [1, 5, MAX_COVER_COMBINATIONS] {
                let decoded: Vec<_> = (0..product.min(cap))
                    .map(|ord| combination(options, ord))
                    .collect();
                assert_eq!(
                    decoded,
                    breadth_first(options, cap),
                    "cap {cap}, {options:?}"
                );
            }
        }
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
        let index = MkbIndex::new(&mkb, &mkb2);
        let reps = compute_replacements_indexed(&view, &rm, &index, &opts).unwrap();
        assert!(reps
            .iter()
            .any(|r| r.relations.contains(&RelName::new("Accident-Ins"))));
    }
}
