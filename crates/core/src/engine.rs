//! The synchronization engine: one view, one change, one outcome.
//!
//! The three-step strategy of §4 fixes *when* views are synchronized
//! (MKB evolution → affected-view detection → per-view rewriting) but
//! each change operator has its own rewriting algorithm: CVS proper for
//! `delete-relation` (§5), the simplified variant for
//! `delete-attribute`, and transparent reference rewriting for renames.
//! [`synchronize_view`] matches on the change to run the operator's
//! algorithm and turns its best-first rewritings into a [`ViewOutcome`].
//! The retain-by-P3 / rank-by-cost policy is applied once per operator:
//! the delete-relation search applies it while it ranks its stream, the
//! engine applies it to the other operators' lists.

use crate::cost::CostModel;
use crate::delete_attribute::synchronize_delete_attribute_indexed;
use crate::error::CvsError;
use crate::extent::ExtentVerdict;
use crate::index::MkbIndex;
use crate::legal::LegalRewriting;
use crate::options::CvsOptions;
use crate::rewrite::{cvs_delete_relation_searched, SearchResult};
use crate::synchronizer::ViewOutcome;
use eve_esql::ViewDefinition;
use eve_misd::CapabilityChange;

/// Synchronize one (affected) view: run the change operator's algorithm
/// and assemble the [`ViewOutcome`], adopting the best rewriting.
///
/// `require_p3` discards uncertified rewritings before adoption;
/// `cost_model`, when present, re-ranks the candidates (otherwise the
/// algorithm's best-first order stands). `add-relation` and
/// `add-attribute` never affect an existing view: they leave it
/// [`ViewOutcome::Unchanged`].
pub fn synchronize_view(
    view: &ViewDefinition,
    change: &CapabilityChange,
    index: &MkbIndex<'_>,
    opts: &CvsOptions,
    require_p3: bool,
    cost_model: Option<&CostModel>,
) -> ViewOutcome {
    if matches!(
        change,
        CapabilityChange::AddRelation(_) | CapabilityChange::AddAttribute { .. }
    ) {
        return ViewOutcome::Unchanged;
    }
    // The per-view task entry site. Under the synchronizer fan-out each
    // task runs scoped by view name, so a plan can target one view's
    // attempt sequence without touching its siblings.
    crate::faults::hit("view.sync");
    // Histogram (not span) so direct engine callers — benches, tests —
    // feed the same per-view latency distribution as the fan-out path.
    let timer = eve_telemetry::start_timer();
    let result = match change {
        CapabilityChange::DeleteRelation(r) => {
            cvs_delete_relation_searched(view, r, index, opts, require_p3, cost_model)
        }
        CapabilityChange::DeleteAttribute(a) => {
            synchronize_delete_attribute_indexed(view, a, index, opts).map(SearchResult::exhaustive)
        }
        CapabilityChange::RenameRelation { from, to } => {
            Ok(SearchResult::exhaustive(vec![rename_rewriting(
                rename_relation_in_view(view, from, to),
            )]))
        }
        CapabilityChange::RenameAttribute { from, to } => {
            Ok(SearchResult::exhaustive(vec![rename_rewriting(
                rename_attr_in_view(view, from, to),
            )]))
        }
        CapabilityChange::AddRelation(_) | CapabilityChange::AddAttribute { .. } => {
            unreachable!("additions returned above")
        }
    };
    eve_telemetry::stop_timer("engine.view_sync_ns", timer);
    match result {
        Ok(SearchResult {
            mut rewritings,
            mut stats,
        }) => {
            // The delete-relation search applied the policy while it
            // ranked (its key refines the cost ranking, so re-ranking
            // would change nothing); the other operators' lists get it
            // here.
            if !matches!(change, CapabilityChange::DeleteRelation(_)) {
                if require_p3 {
                    rewritings.retain(|r| r.satisfies_p3);
                }
                if let Some(model) = cost_model {
                    model.rank(view, &mut rewritings);
                }
            }
            if rewritings.is_empty() {
                return ViewOutcome::Disabled {
                    reason: CvsError::NoLegalRewriting,
                };
            }
            stats.kept = rewritings.len();
            let chosen = Box::new(rewritings.remove(0));
            ViewOutcome::Rewritten {
                chosen,
                alternatives: rewritings,
                stats,
            }
        }
        Err(reason) => ViewOutcome::Disabled { reason },
    }
}

fn rename_relation_in_view(
    view: &ViewDefinition,
    from: &eve_relational::RelName,
    to: &eve_relational::RelName,
) -> ViewDefinition {
    let mut v = view.clone();
    for f in &mut v.from {
        if &f.relation == from {
            f.relation = to.clone();
        }
    }
    for s in &mut v.select {
        s.expr = s.expr.rename_relation(from, to);
    }
    for c in &mut v.conditions {
        c.clause = c.clause.rename_relation(from, to);
    }
    v
}

fn rename_attr_in_view(
    view: &ViewDefinition,
    from: &eve_relational::AttrRef,
    to: &eve_relational::AttrName,
) -> ViewDefinition {
    let mut v = view.clone();
    let new_ref = eve_relational::ScalarExpr::Attr(eve_relational::AttrRef::new(
        from.relation.clone(),
        to.clone(),
    ));
    for s in &mut v.select {
        // Preserve the exported name of a renamed bare attribute.
        if s.alias.is_none() && s.expr == eve_relational::ScalarExpr::Attr(from.clone()) {
            s.alias = Some(from.attr.clone());
        }
        s.expr = s.expr.substitute(from, &new_ref);
    }
    for c in &mut v.conditions {
        c.clause = c.clause.substitute(from, &new_ref);
    }
    v
}

/// Wrap a transparently-renamed view as an (extent-preserving) rewriting.
fn rename_rewriting(view: ViewDefinition) -> LegalRewriting {
    let kept: Vec<usize> = (0..view.select.len()).collect();
    let relations = view.from.iter().map(|f| f.relation.clone()).collect();
    LegalRewriting {
        view,
        replacement: crate::replacement::Replacement {
            covers: Default::default(),
            relations,
            joins: Vec::new(),
            c_max_min: Default::default(),
            dropped_conditions: Default::default(),
        },
        verdict: ExtentVerdict::Equivalent,
        satisfies_p3: true,
        kept_select: kept,
        dropped_conditions: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::travel_mkb;
    use eve_esql::parse_view;
    use eve_misd::evolve;
    use eve_relational::RelName;

    fn cpa_view() -> ViewDefinition {
        parse_view(
            "CREATE VIEW CPA AS
             SELECT C.Name (false, true), F.Dest (true, true), F.PName (true, true)
             FROM Customer C, FlightRes F WHERE (C.Name = F.PName) (false, true)",
        )
        .unwrap()
    }

    #[test]
    fn engine_outcome_matches_direct_cvs() {
        let mkb = travel_mkb();
        let change = CapabilityChange::DeleteRelation(RelName::new("Customer"));
        let mkb2 = evolve(&mkb, &change).unwrap();
        let opts = CvsOptions::default();
        let index = MkbIndex::new(&mkb, &mkb2);
        let view = cpa_view();
        let outcome = synchronize_view(&view, &change, &index, &opts, false, None);
        let ViewOutcome::Rewritten {
            chosen,
            alternatives,
            stats,
        } = outcome
        else {
            panic!("expected rewriting");
        };
        let direct = crate::rewrite::cvs_delete_relation_indexed(
            &view,
            &RelName::new("Customer"),
            &index,
            &opts,
        )
        .unwrap();
        assert_eq!(*chosen, direct[0]);
        assert_eq!(alternatives.len(), direct.len() - 1);
        assert_eq!(stats.kept, direct.len());
        assert!(stats.generated >= direct.len());
        assert!(!stats.budget_exhausted);
    }

    #[test]
    fn rename_routes_through_uniform_postprocessing() {
        let mkb = travel_mkb();
        let change = CapabilityChange::RenameRelation {
            from: RelName::new("FlightRes"),
            to: RelName::new("Flights"),
        };
        let mkb2 = evolve(&mkb, &change).unwrap();
        let opts = CvsOptions::default();
        let index = MkbIndex::new(&mkb, &mkb2);
        // Renames are P3-equivalent, so require_p3 must not disable them.
        let outcome = synchronize_view(&cpa_view(), &change, &index, &opts, true, None);
        let ViewOutcome::Rewritten {
            chosen,
            alternatives,
            ..
        } = outcome
        else {
            panic!("expected rewriting");
        };
        assert!(alternatives.is_empty());
        assert!(chosen.view.uses_relation(&RelName::new("Flights")));
        assert_eq!(chosen.verdict, ExtentVerdict::Equivalent);
    }
}
