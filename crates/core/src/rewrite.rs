//! CVS Steps 4–5: assembling a synchronized view definition `V'` from an
//! R-replacement candidate, and the top-level
//! [`cvs_delete_relation_indexed`] driver implementing the whole
//! `CVS(V, ch = delete-relation R, MKB, MKB')` algorithm of §5.
//!
//! Step 4: "A synchronized view definition V' is found by replacing
//! `Max(V_R)` with `Max(V_{j,R})` in Eq. (10); and then by substituting
//! the attributes of R in V with the corresponding replacements found in
//! `Max(V_{j,R})`. Because some more conditions are added in the WHERE
//! clause […] we have to check if there are no inconsistencies in the
//! WHERE clause."
//!
//! Step 5 (evolution parameters for new components — the rule of tech
//! report \[8\], reconstructed in DESIGN.md): a replaced component inherits
//! the dispensability of the component it replaces and becomes
//! replaceable; relations and join conditions added to connect covers are
//! `(dispensable = false, replaceable = true)`.

use crate::cost::CostModel;
use crate::error::CvsError;
use crate::extent::{infer_extent_with, satisfies_extent_param, ExtentCtx};
use crate::index::MkbIndex;
use crate::legal::LegalRewriting;
use crate::mapping::{compute_r_mapping, RMapping};
use crate::options::CvsOptions;
use crate::replacement::{Replacement, ReplacementStream};

use eve_esql::{CondItem, EvolutionParams, FromItem, SelectItem, ViewDefinition};
use eve_misd::JoinConstraint;
use eve_relational::{AttrName, Clause, NormalizedParts, RelName, ScalarExpr};
use std::cmp::Ordering;
use std::sync::Arc;

/// The result of assembling one candidate: the new view plus the
/// bookkeeping needed for P4 verification and extent inference.
#[derive(Debug, Clone)]
pub(crate) struct Assembled {
    pub view: ViewDefinition,
    pub kept_select: Vec<usize>,
    pub dropped_conditions: Vec<CondItem>,
}

/// The cover-combination-level two thirds of assembly: everything below
/// depends only on `(view, rm, rep.covers, rep.c_max_min)` — shared by
/// every connection tree of one cover combination — so the search
/// computes it once per combination and reuses it across the
/// combination's candidates. Earlier candidates clone the parts
/// (refcount bumps); the combination's last candidate takes them.
#[derive(Debug)]
pub(crate) struct ComboAssembly {
    select: Vec<SelectItem>,
    kept_select: Vec<usize>,
    interface: Option<Vec<AttrName>>,
    /// FROM minus the dropped relation (candidate relations are appended
    /// per tree).
    base_from: Vec<FromItem>,
    /// `C'_Max/Min` followed by the substituted `C_Rest` — the
    /// tree-independent WHERE prefix, in final order.
    conditions: Vec<CondItem>,
    /// `rep.dropped_conditions` followed by the `C_Rest` drops.
    dropped_conditions: Vec<CondItem>,
}

/// The search loop's one-slot combo-assembly cache: the cover map Arc of
/// the combination it was prepared for (pointer identity is the cache
/// key) plus the prepared assembly or the error it failed with.
type ComboAsmCache = (
    Arc<std::collections::BTreeMap<eve_relational::AttrRef, crate::replacement::CoverChoice>>,
    Result<ComboAssembly, CvsError>,
);

/// Run the combination-level part of Steps 4–5 (SELECT substitution,
/// interface projection, FROM base, `C_Rest` substitution), with the
/// same outcomes — including error order — as the legacy single-pass
/// assembly.
pub(crate) fn prepare_combo_assembly(
    view: &ViewDefinition,
    rm: &RMapping,
    rep: &Replacement,
) -> Result<ComboAssembly, CvsError> {
    let target = &rm.target;

    // ---- SELECT ---------------------------------------------------------
    let mut select = Vec::new();
    let mut kept_select = Vec::new();
    for (i, item) in view.select.iter().enumerate() {
        // Substitute lazily: most items mention none of the covered
        // attributes, and substituting an absent attribute returns an
        // identical clone — skip both the walk and the clone.
        let mut substituted: Option<ScalarExpr> = None;
        if item.params.replaceable {
            for (attr, cover) in rep.covers.iter() {
                let cur = substituted.as_ref().unwrap_or(&item.expr);
                if cur.contains_attr(attr) {
                    substituted = Some(cur.substitute(attr, &cover.replacement));
                }
            }
        }
        let expr_ref = substituted.as_ref().unwrap_or(&item.expr);
        if expr_ref.references_relation(target) {
            if item.params.dispensable {
                continue; // dropped
            }
            return Err(CvsError::IndispensableNotReplaceable {
                component: item.expr.to_string(),
            });
        }
        let changed = match &substituted {
            Some(e) => *e != item.expr,
            None => false,
        };
        let expr = substituted.unwrap_or_else(|| item.expr.clone());
        // Preserve the interface name of a replaced bare attribute so
        // that P3's common-interface comparison keeps the column.
        let alias = item
            .alias
            .clone()
            .or_else(|| if changed { item.output_name() } else { None });
        let params = if changed {
            EvolutionParams::new(item.params.dispensable, true)
        } else {
            item.params
        };
        kept_select.push(i);
        select.push(SelectItem {
            expr,
            alias,
            params,
        });
    }
    if select.is_empty() {
        return Err(CvsError::NoLegalRewriting);
    }

    // Interface list: keep the names of surviving items.
    let interface = view.interface.as_ref().map(|names| {
        kept_select
            .iter()
            .filter_map(|&i| names.get(i).cloned())
            .collect::<Vec<AttrName>>()
    });

    // ---- FROM (base) ----------------------------------------------------
    // FROM and WHERE have room for what `rep` appends: a combination
    // usually has one tree, whose candidate then extends them in place.
    let mut base_from: Vec<FromItem> = Vec::with_capacity(view.from.len() + rep.relations.len());
    base_from.extend(view.from.iter().filter(|f| &f.relation != target).cloned());

    // ---- WHERE (tree-independent prefix) --------------------------------
    let mut conditions: Vec<CondItem> =
        Vec::with_capacity(rep.c_max_min.len() + rm.c_rest.len() + join_clause_count(&rep.joins));
    let mut dropped_conditions: Vec<CondItem> = (*rep.dropped_conditions).clone();

    // C'_Max/Min (already substituted by the replacement computation).
    conditions.extend(rep.c_max_min.iter().cloned());

    // C_Rest, substituted under the same replaceability rules.
    for cond in &rm.c_rest {
        let mut substituted: Option<Clause> = None;
        if cond.params.replaceable {
            for (attr, cover) in rep.covers.iter() {
                let cur = substituted.as_ref().unwrap_or(&cond.clause);
                if cur.lhs.contains_attr(attr) || cur.rhs.contains_attr(attr) {
                    substituted = Some(cur.substitute(attr, &cover.replacement));
                }
            }
        }
        let clause_ref = substituted.as_ref().unwrap_or(&cond.clause);
        if clause_ref.references_relation(target) {
            if cond.params.dispensable {
                dropped_conditions.push(cond.clone());
                continue;
            }
            return Err(CvsError::IndispensableNotReplaceable {
                component: cond.clause.to_string(),
            });
        }
        let changed = match &substituted {
            Some(c) => *c != cond.clause,
            None => false,
        };
        let clause = substituted.unwrap_or_else(|| cond.clause.clone());
        let params = if changed {
            EvolutionParams::new(cond.params.dispensable, true)
        } else {
            cond.params
        };
        conditions.push(CondItem { clause, params });
    }

    Ok(ComboAssembly {
        select,
        kept_select,
        interface,
        base_from,
        conditions,
        dropped_conditions,
    })
}

fn join_clause_count(joins: &[Arc<JoinConstraint>]) -> usize {
    joins.iter().map(|j| j.predicate.len()).sum()
}

/// Append the clauses of `joins` to `conditions` as join conditions
/// with the Step 5 parameters (required, replaceable), skipping every
/// clause whose normalisation is already present, and return the Step 4
/// consistency verdict of the resulting list (that of
/// `where_conjunction().is_consistent()`). The list is normalised once:
/// the same borrowed parts serve the duplicate test and the consistency
/// check, and a clause is cloned only when it is appended. WHERE lists
/// are short, so a scan beats building a set.
#[must_use]
pub(crate) fn append_join_clauses(
    conditions: &mut Vec<CondItem>,
    joins: &[Arc<JoinConstraint>],
) -> bool {
    let join_clauses = join_clause_count(joins);
    let mut parts: Vec<NormalizedParts<'_>> = Vec::with_capacity(conditions.len() + join_clauses);
    parts.extend(conditions.iter().map(|c| c.clause.normalized_parts()));
    let mut appended: Vec<&Clause> = Vec::with_capacity(join_clauses);
    for clause in joins.iter().flat_map(|jc| jc.predicate.clauses()) {
        let n = clause.normalized_parts();
        if !parts.contains(&n) {
            parts.push(n);
            appended.push(clause);
        }
    }
    let consistent = eve_relational::normalized_consistent(&parts);
    conditions.extend(appended.into_iter().map(|clause| CondItem {
        clause: clause.clone(),
        params: EvolutionParams::new(false, true),
    }));
    consistent
}

/// The per-tree third of assembly: append the candidate's relations to
/// FROM, its join conditions to WHERE (deduplicated against the
/// combination prefix), and check WHERE consistency. `last` marks the
/// combination's last candidate, which takes the prepared parts
/// instead of cloning them.
pub(crate) fn assemble_prepared(
    view: &ViewDefinition,
    pre: &mut ComboAssembly,
    rep: &Replacement,
    last: bool,
) -> Result<Assembled, CvsError> {
    fn take_or_clone<T: Clone + Default>(part: &mut T, last: bool) -> T {
        if last {
            std::mem::take(part)
        } else {
            part.clone()
        }
    }
    /// A clone sized for `extra` more elements, so appending to it
    /// allocates once.
    fn take_or_extend<T: Clone>(part: &mut Vec<T>, last: bool, extra: usize) -> Vec<T> {
        if last {
            let mut v = std::mem::take(part);
            v.reserve(extra);
            v
        } else {
            let mut v = Vec::with_capacity(part.len() + extra);
            v.extend_from_slice(part);
            v
        }
    }

    // ---- FROM -----------------------------------------------------------
    let mut from = take_or_extend(&mut pre.base_from, last, rep.relations.len());
    let base = from.len();
    for rel in &rep.relations {
        if !from[..base].iter().any(|f| &f.relation == rel) {
            from.push(FromItem {
                relation: rel.clone(),
                alias: None,
                params: EvolutionParams::new(false, true),
            });
        }
    }

    // ---- WHERE ----------------------------------------------------------
    // Join conditions of Max(V_{j,R}), deduplicated against what is
    // already present, then the Step 4 consistency check.
    let mut conditions = take_or_extend(&mut pre.conditions, last, join_clause_count(&rep.joins));
    if !append_join_clauses(&mut conditions, &rep.joins) {
        return Err(CvsError::Inconsistent);
    }

    Ok(Assembled {
        view: ViewDefinition {
            name: view.name.clone(),
            interface: take_or_clone(&mut pre.interface, last),
            extent: view.extent,
            select: take_or_clone(&mut pre.select, last),
            from,
            conditions,
        },
        kept_select: take_or_clone(&mut pre.kept_select, last),
        dropped_conditions: take_or_clone(&mut pre.dropped_conditions, last),
    })
}

/// The CVS algorithm for `ch = delete-relation R` (§5):
///
/// 1. construct `H_R(MKB)`;
/// 2. compute the R-mapping (Def. 2);
/// 3. compute the R-replacement set over `H'_R(MKB')` (Def. 3);
/// 4. assemble a synchronized definition per candidate, checking WHERE
///    consistency;
/// 5. set evolution parameters for the new components;
/// 6. evaluate the extent parameter against the PC constraints.
///
/// Returns every assembled rewriting, ordered best-first: P3-certified
/// rewritings before unverified ones, smaller ones before larger ones.
/// Errors only when *no* candidate could be assembled.
///
/// Runs against a prebuilt [`MkbIndex`]: `H_R`, `H'(MKB')`, covers, and
/// PC buckets all come from the index, so synchronizing many views
/// against one capability change performs the MKB-derived work once
/// instead of once per view (and tree searches hit the index's
/// per-change memo tables).
pub fn cvs_delete_relation_indexed(
    view: &ViewDefinition,
    target: &RelName,
    index: &MkbIndex<'_>,
    opts: &CvsOptions,
) -> Result<Vec<LegalRewriting>, CvsError> {
    cvs_delete_relation_searched(view, target, index, opts, false, None).map(|r| r.rewritings)
}

/// Counters describing one view's rewriting search, threaded into
/// [`crate::synchronizer::ViewOutcome`] so truncation is reported, never
/// silent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// Candidates expanded through assembly (Steps 4–6).
    pub generated: usize,
    /// Always 0: the search ranks every candidate it generates and
    /// prunes none. Kept so the counters' shape, and every digest and
    /// golden file that renders them, stay as they are.
    pub pruned: usize,
    /// Rewritings retained in the final result.
    pub kept: usize,
    /// Connection trees enumerated across all cover combinations.
    pub trees_enumerated: usize,
    /// Cover combinations whose terminals span several components of
    /// `H'(MKB')`, or whose tree enumeration came back empty.
    pub disconnected_combos: usize,
    /// Did [`CvsOptions::deadline`] or the cap of
    /// [`crate::replacement::MAX_COVER_COMBINATIONS`] cover combinations
    /// per view cut the search short? When `false` the result is the
    /// exhaustive ranking.
    pub budget_exhausted: bool,
}

/// A ranked rewriting list plus the [`SearchStats`] describing how it
/// was found.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// Best-first rewritings.
    pub rewritings: Vec<LegalRewriting>,
    /// How the search went: candidates generated and kept, and whether
    /// it was cut short.
    pub stats: SearchStats,
}

impl SearchResult {
    /// Wrap an exhaustively computed rewriting list (the operators that
    /// do not stream, delete-attribute and rename): everything was
    /// generated and kept, nothing truncated.
    pub fn exhaustive(rewritings: Vec<LegalRewriting>) -> Self {
        let n = rewritings.len();
        SearchResult {
            rewritings,
            stats: SearchStats {
                generated: n,
                kept: n,
                ..SearchStats::default()
            },
        }
    }
}

/// Comparison key of one candidate in the sorted selector. Mirrors the
/// legacy two-pass ordering exactly: a stable structural sort `(¬P3,
/// |relations|, |joins|, rendered view)` followed by the stable cost
/// re-sort `(total, rendered view)` — composed, that is the
/// lexicographic key `(total, rendered, ¬P3, |relations|, |joins|)` when
/// a cost model drives the ranking and the structural key alone
/// otherwise.
#[derive(Debug, Clone)]
struct CandKey {
    /// `Some` iff a cost model drives the ranking.
    cost: Option<f64>,
    /// The canonical rendering, filled lazily: most comparisons are
    /// decided by the cost or the structural triple, so a candidate's
    /// view is rendered only the first time a comparison actually
    /// reaches the textual tie-break (and then cached).
    rendered: std::cell::OnceCell<String>,
    not_p3: bool,
    relations: usize,
    joins: usize,
}

fn rendered_of<'k>(key: &'k CandKey, lr: &LegalRewriting) -> &'k str {
    key.rendered.get_or_init(|| lr.view.rendered())
}

/// The legacy two-pass comparator between two *kept* candidates, each a
/// `(key, rewriting)` pair so the textual tie-break can render on
/// demand.
fn cmp_keys(a: &CandKey, la: &LegalRewriting, b: &CandKey, lb: &LegalRewriting) -> Ordering {
    if let (Some(ca), Some(cb)) = (&a.cost, &b.cost) {
        // The legacy `CostModel::rank` comparator…
        let ord = ca
            .partial_cmp(cb)
            .unwrap_or(Ordering::Equal)
            .then_with(|| rendered_of(a, la).cmp(rendered_of(b, lb)));
        if ord != Ordering::Equal {
            return ord;
        }
        // …falling back to the structural pre-sort it re-sorted.
    }
    (a.not_p3, a.relations, a.joins)
        .cmp(&(b.not_p3, b.relations, b.joins))
        .then_with(|| rendered_of(a, la).cmp(rendered_of(b, lb)))
}

fn key_for(lr: &LegalRewriting, view: &ViewDefinition, cost_model: Option<&CostModel>) -> CandKey {
    CandKey {
        cost: cost_model.map(|m| m.assess(view, lr).total),
        rendered: std::cell::OnceCell::new(),
        not_p3: !lr.satisfies_p3,
        relations: lr.replacement.relations.len(),
        joins: lr.replacement.joins.len(),
    }
}

/// The streaming form of [`cvs_delete_relation_indexed`]: candidates
/// are pulled lazily from the (cover combination × connection tree)
/// choice space, assembled, and inserted into a sorted selector.
///
/// Without a deadline this is *exactly* the legacy materialize-then-rank
/// pipeline: same rewritings, same order, same errors. `require_p3`
/// filters unverified rewritings before they enter the selector, and
/// `cost_model` ranks by assessed cost the way [`CostModel::rank`] did —
/// both previously applied by the engine after full materialization.
///
/// A cut by [`CvsOptions::deadline`] is reported through
/// [`SearchStats::budget_exhausted`]; the kept rewritings are then the
/// ranking of the candidates generated before it, never a silently
/// wrong "best".
pub fn cvs_delete_relation_searched(
    view: &ViewDefinition,
    target: &RelName,
    index: &MkbIndex<'_>,
    opts: &CvsOptions,
    require_p3: bool,
    cost_model: Option<&CostModel>,
) -> Result<SearchResult, CvsError> {
    if !view.uses_relation(target) {
        return Err(CvsError::ViewNotAffected(target.clone()));
    }
    if !index.mkb().contains_relation(target) {
        return Err(CvsError::UnknownRelation(target.clone()));
    }

    // Step 1: H_R(MKB) — the cached component containing R.
    let h_r = index
        .component_of(target)
        .expect("target is described, hence a vertex of H(MKB)");

    // Step 2: R-mapping.
    let rm = compute_r_mapping(view, target, h_r, opts);

    // Step 3 becomes a lazy stream over the cached capability-filtered
    // H'(MKB'); Steps 4–6 run per candidate as it is pulled.
    let deadline = opts.validated().deadline;
    // `clock::anchor` instead of `Instant::now`: under the simulator a
    // virtual clock governs the deadline, so search truncation is
    // deterministic; outside it this IS wall time.
    let start = crate::clock::anchor();
    let mut stream = ReplacementStream::new(view, &rm, index, opts)?;
    let ext_ctx = ExtentCtx::new(&rm, stream.survivors());

    let mut rank_span = eve_telemetry::span("ranking");
    rank_span.label(|| view.name.clone());
    // Kept candidates, sorted ascending by `cmp_keys`; ties inserted
    // after their equals, reproducing the legacy stable sorts.
    let mut selector: Vec<(CandKey, LegalRewriting)> = Vec::new();
    let mut last_err = CvsError::NoLegalRewriting;
    let mut assembled_any = false;
    // Combination-level assembly, recomputed only when the stream moves
    // to a new cover combination (each combination owns a distinct
    // `covers` Arc, so pointer identity detects the switch exactly).
    let mut combo_asm: Option<ComboAsmCache> = None;
    let mut generated = 0usize;
    let mut deadline_hit = false;

    loop {
        // An injected budget-exhaustion fault truncates exactly like a
        // real deadline (reported, never silent); injected panics and
        // transients unwind from inside the call.
        if crate::faults::hit("search.candidate") {
            deadline_hit = true;
            break;
        }
        if let Some(d) = deadline {
            if start.elapsed() >= d {
                deadline_hit = true;
                break;
            }
        }
        let Some(rep) = stream.next_candidate() else {
            break;
        };
        generated += 1;
        let last = stream.combination_done();
        let pre = match &mut combo_asm {
            Some((covers, pre)) if Arc::ptr_eq(covers, &rep.covers) => pre,
            _ => {
                let pre = prepare_combo_assembly(view, &rm, &rep);
                &mut combo_asm.insert((rep.covers.clone(), pre)).1
            }
        };
        let asm_res = match pre {
            Ok(pre) => assemble_prepared(view, pre, &rep, last),
            Err(e) => Err(e.clone()),
        };
        if last {
            // The last candidate took the prepared parts.
            combo_asm = None;
        }
        match asm_res {
            Ok(asm) => {
                assembled_any = true;
                let verdict =
                    infer_extent_with(&ext_ctx, &rep, asm.dropped_conditions.len(), index);
                let satisfies_p3 = satisfies_extent_param(view.extent, verdict);
                if require_p3 && !satisfies_p3 {
                    continue;
                }
                let lr = LegalRewriting {
                    view: asm.view,
                    replacement: rep,
                    verdict,
                    satisfies_p3,
                    kept_select: asm.kept_select,
                    dropped_conditions: asm.dropped_conditions,
                };
                let key = key_for(&lr, view, cost_model);
                let pos = selector
                    .partition_point(|(k2, lr2)| cmp_keys(k2, lr2, &key, &lr) != Ordering::Greater);
                selector.insert(pos, (key, lr));
            }
            Err(e) => last_err = e,
        }
    }

    let stats = SearchStats {
        generated,
        pruned: 0,
        kept: selector.len(),
        trees_enumerated: stream.trees_enumerated(),
        disconnected_combos: stream.disconnected_combos(),
        budget_exhausted: deadline_hit || stream.covers_truncated(),
    };
    // The registry totals are a read-out of `stats` (which itself reads
    // the stream's accumulators) — one accumulation path, so the
    // per-view public API and the process-wide metrics can never
    // disagree.
    if eve_telemetry::enabled() {
        rank_span.field("generated", stats.generated as u64);
        rank_span.field("pruned", stats.pruned as u64);
        rank_span.field("kept", stats.kept as u64);
        rank_span.field("trees", stats.trees_enumerated as u64);
        eve_telemetry::counter_add("search.candidates_generated", stats.generated as u64);
        eve_telemetry::counter_add("search.candidates_pruned", stats.pruned as u64);
        eve_telemetry::counter_add("search.candidates_kept", stats.kept as u64);
        eve_telemetry::counter_add("search.trees_enumerated", stats.trees_enumerated as u64);
        if stats.disconnected_combos > 0 {
            eve_telemetry::counter_add(
                "search.disconnected_combos",
                stats.disconnected_combos as u64,
            );
        }
        if stats.budget_exhausted {
            eve_telemetry::counter_add("search.budget_exhausted", 1);
        }
    }
    drop(rank_span);
    if selector.is_empty() {
        return Err(if assembled_any {
            // Candidates assembled fine but all failed the P3
            // requirement — the engine's legacy verdict for that.
            CvsError::NoLegalRewriting
        } else if generated > 0 {
            // Every assembly failed: surface the last assembly error.
            last_err
        } else if stream.any_disconnected() {
            CvsError::Disconnected
        } else {
            CvsError::NoLegalRewriting
        });
    }
    Ok(SearchResult {
        rewritings: selector.into_iter().map(|(_, lr)| lr).collect(),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extent::ExtentVerdict;
    use crate::testutil::travel_mkb;
    use eve_esql::{parse_view, validate_view};
    use eve_misd::{evolve, CapabilityChange, MetaKnowledgeBase};
    use eve_relational::AttrRef;

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

    fn run_eq5() -> (
        ViewDefinition,
        Vec<LegalRewriting>,
        CapabilityChange,
        MetaKnowledgeBase,
    ) {
        let mkb = travel_mkb();
        let view = eq5_view();
        let customer = RelName::new("Customer");
        let change = CapabilityChange::DeleteRelation(customer.clone());
        let mkb2 = evolve(&mkb, &change).unwrap();
        let rewritings =
            crate::testutil::cvs_dr(&view, &customer, &mkb, &mkb2, &CvsOptions::default()).unwrap();
        (view, rewritings, change, mkb2)
    }

    #[test]
    fn example_10_rewriting_via_accident_ins() {
        // The paper's Eq. (13): Customer replaced by Accident-Ins; Name →
        // A.Holder, Age → f(A.Birthday); join F.PName = A.Holder (JC6).
        let (view, rewritings, change, mkb2) = run_eq5();
        let via_ins = rewritings
            .iter()
            .find(|r| {
                r.replacement
                    .covers
                    .get(&AttrRef::new("Customer", "Name"))
                    .map(|c| c.funcof_id == "F2")
                    .unwrap_or(false)
                    && r.replacement.covers.len() == 2
            })
            .expect("Eq. (13) rewriting missing");
        let text = via_ins.view.to_string();
        assert!(text.contains("Accident-Ins.Holder"), "{text}");
        assert!(text.contains("Accident-Ins.Birthday"), "{text}");
        assert!(!text.contains("Customer."), "{text}");
        assert!(
            text.contains("FlightRes.PName = Accident-Ins.Holder")
                || text.contains("Accident-Ins.Holder = FlightRes.PName"),
            "JC6 join condition missing: {text}"
        );
        // The Rest conditions survive untouched.
        assert!(
            text.contains("Participant.StartDate = FlightRes.Date"),
            "{text}"
        );
        assert!(text.contains("Participant.Loc = 'Asia'"), "{text}");

        // Legality: P1, P2, P4 all hold.
        assert!(via_ins.check_p1(&change));
        assert!(via_ins.check_p2(&mkb2));
        assert!(via_ins.check_p4(&view));
        // The rewriting is structurally valid (relations known, WHERE
        // consistent).
        let errs: Vec<_> = validate_view(&via_ins.view)
            .into_iter()
            // evolved views may use join attributes that are not
            // preserved (Eq. (4) does exactly this) — ignore that class
            .filter(|e| !matches!(e, eve_esql::ValidationError::DistinguishedNotPreserved(_)))
            .collect();
        assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn interface_names_preserved_for_replaced_attrs() {
        // C.Name is replaced by A.Holder but must still export as "Name"
        // so that P3's common-interface comparison sees the column.
        let (_, rewritings, _, _) = run_eq5();
        for r in &rewritings {
            let names = r.view.interface_names();
            assert!(
                names.iter().any(|n| n.as_str() == "Name"),
                "interface lost Name: {names:?}"
            );
        }
    }

    #[test]
    fn dispensable_uncovered_attr_dropped() {
        // Remove F3 from the MKB: Age has no cover, but it is dispensable
        // — rewritings must simply drop it.
        let mkb = travel_mkb();
        let customer = RelName::new("Customer");
        let change = CapabilityChange::DeleteRelation(customer.clone());
        let mkb2 = evolve(&mkb, &change).unwrap();
        let view = eq5_view();
        let rewritings =
            crate::testutil::cvs_dr(&view, &customer, &mkb, &mkb2, &CvsOptions::default()).unwrap();
        let no_age = rewritings
            .iter()
            .find(|r| {
                !r.replacement
                    .covers
                    .contains_key(&AttrRef::new("Customer", "Age"))
            })
            .expect("some candidate leaves Age uncovered");
        // Age dropped from SELECT (it has no cover in this candidate).
        assert_eq!(no_age.view.select.len(), 3);
        assert!(no_age.check_p4(&view));
    }

    #[test]
    fn nonreplaceable_dispensable_item_is_dropped_not_substituted() {
        // Eq. (1) semantics: Phone (AD = true, AR = false) must be
        // dropped, never replaced — even if a cover existed.
        let mkb = travel_mkb();
        let customer = RelName::new("Customer");
        let change = CapabilityChange::DeleteRelation(customer.clone());
        let mkb2 = evolve(&mkb, &change).unwrap();
        let view = parse_view(
            "CREATE VIEW Asia-Customer (VE = superset) AS
             SELECT C.Name (AR = true), C.Phone (AD = true, AR = false)
             FROM Customer C (RR = true), FlightRes F
             WHERE (C.Name = F.PName) AND (F.Dest = 'Asia') (CD = true)",
        )
        .unwrap();
        let rewritings =
            crate::testutil::cvs_dr(&view, &customer, &mkb, &mkb2, &CvsOptions::default()).unwrap();
        for r in &rewritings {
            assert!(
                !r.view.to_string().contains("Phone")
                    || r.view
                        .interface_names()
                        .iter()
                        .all(|n| n.as_str() != "Phone"),
            );
            assert!(r.check_p4(&view), "{:#?}", r.view);
        }
    }

    #[test]
    fn results_ordered_p3_first() {
        let (_, rewritings, _, _) = run_eq5();
        let first_unsat = rewritings.iter().position(|r| !r.satisfies_p3);
        let last_sat = rewritings.iter().rposition(|r| r.satisfies_p3);
        if let (Some(u), Some(s)) = (first_unsat, last_sat) {
            assert!(s < u, "satisfied-P3 rewritings must sort first");
        }
    }

    #[test]
    fn unaffected_view_errors() {
        let mkb = travel_mkb();
        let customer = RelName::new("Customer");
        let mkb2 = evolve(&mkb, &CapabilityChange::DeleteRelation(customer.clone())).unwrap();
        let view = parse_view("CREATE VIEW V AS SELECT T.TourName FROM Tour T").unwrap();
        assert!(matches!(
            crate::testutil::cvs_dr(&view, &customer, &mkb, &mkb2, &CvsOptions::default()),
            Err(CvsError::ViewNotAffected(_))
        ));
    }

    #[test]
    fn verdicts_populated() {
        let (_, rewritings, _, _) = run_eq5();
        // Without PC constraints in the MKB the cover swaps cannot be
        // certified — all verdicts are Unknown (or Superset for pure
        // drops); none may claim equivalence.
        for r in &rewritings {
            assert_ne!(r.verdict, ExtentVerdict::Equivalent);
        }
    }
}
