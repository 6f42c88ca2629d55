//! The synchronization engine: per-operator strategies behind one trait.
//!
//! The three-step strategy of §4 fixes *when* views are synchronized
//! (MKB evolution → affected-view detection → per-view rewriting) but
//! each change operator has its own rewriting algorithm: CVS proper for
//! `delete-relation` (§5), the simplified variant for
//! `delete-attribute`, and transparent reference rewriting for renames.
//! [`SynchronizationStrategy`] captures that per-operator contract —
//! given one view, one change, and the per-change [`MkbIndex`], produce
//! the legal rewritings best-first — so the synchronizer's apply loop is
//! pure dispatch plus one shared outcome-assembly step
//! ([`synchronize_view`]), instead of a per-operator `match` that
//! duplicated the retain/rank/adopt logic.
//!
//! The [`SvsBaseline`] strategy plugs the one-step-away baseline into
//! the same interface, which is what lets experiments swap algorithms
//! without touching the synchronizer.

use crate::cost::CostModel;
use crate::delete_attribute::synchronize_delete_attribute_indexed;
use crate::error::CvsError;
use crate::extent::ExtentVerdict;
use crate::index::MkbIndex;
use crate::legal::LegalRewriting;
use crate::options::CvsOptions;
use crate::rewrite::{cvs_delete_relation_searched, SearchResult};
use crate::svs::svs_delete_relation_searched;
use crate::synchronizer::ViewOutcome;
use eve_esql::ViewDefinition;
use eve_misd::CapabilityChange;

/// Per-call search policy handed from the synchronizer to a strategy:
/// what to filter (`require_p3`) and how to rank (`cost_model`).
///
/// Streaming strategies push both *into* the search, so a budgeted
/// top-k is spent on rewritings the caller will actually keep;
/// list-based strategies may ignore it (the engine re-applies the
/// retain/rank policy uniformly afterwards — a no-op for streams).
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchContext<'a> {
    /// Keep only rewritings whose extent verdict certifies the view's
    /// extent parameter (P3).
    pub require_p3: bool,
    /// Rank candidates by assessed cost instead of the structural
    /// best-first order.
    pub cost_model: Option<&'a CostModel>,
}

/// One per-operator view-synchronization algorithm.
///
/// Implementations return the legal rewritings for `view` under
/// `change`, ordered best-first together with the [`SearchStats`]
/// describing how they were found, or an error when the view cannot be
/// synchronized (which the engine turns into
/// [`ViewOutcome::Disabled`]). The [`MkbIndex`] carries every
/// MKB-derived structure the algorithms need, built once per change.
///
/// [`SearchStats`]: crate::rewrite::SearchStats
pub trait SynchronizationStrategy {
    /// Synchronize one view under one change.
    fn synchronize(
        &self,
        view: &ViewDefinition,
        change: &CapabilityChange,
        index: &MkbIndex<'_>,
        opts: &CvsOptions,
        ctx: SearchContext<'_>,
    ) -> Result<SearchResult, CvsError>;
}

fn unsupported(change: &CapabilityChange) -> CvsError {
    CvsError::UnsupportedChange {
        change: change.to_string(),
    }
}

/// CVS proper (§5) for `delete-relation R`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CvsDeleteRelation;

impl SynchronizationStrategy for CvsDeleteRelation {
    fn synchronize(
        &self,
        view: &ViewDefinition,
        change: &CapabilityChange,
        index: &MkbIndex<'_>,
        opts: &CvsOptions,
        ctx: SearchContext<'_>,
    ) -> Result<SearchResult, CvsError> {
        match change {
            CapabilityChange::DeleteRelation(r) => {
                cvs_delete_relation_searched(view, r, index, opts, ctx.require_p3, ctx.cost_model)
            }
            other => Err(unsupported(other)),
        }
    }
}

/// The simplified algorithm for `delete-attribute R.A`.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeleteAttribute;

impl SynchronizationStrategy for DeleteAttribute {
    fn synchronize(
        &self,
        view: &ViewDefinition,
        change: &CapabilityChange,
        index: &MkbIndex<'_>,
        opts: &CvsOptions,
        _ctx: SearchContext<'_>,
    ) -> Result<SearchResult, CvsError> {
        match change {
            CapabilityChange::DeleteAttribute(a) => {
                synchronize_delete_attribute_indexed(view, a, index, opts)
                    .map(SearchResult::exhaustive)
            }
            other => Err(unsupported(other)),
        }
    }
}

/// Transparent reference rewriting for `rename-relation` /
/// `rename-attribute` (non-invalidating in the paper's taxonomy): the
/// single rewriting is extent-equivalent by construction.
#[derive(Debug, Clone, Copy, Default)]
pub struct RenameForward;

impl SynchronizationStrategy for RenameForward {
    fn synchronize(
        &self,
        view: &ViewDefinition,
        change: &CapabilityChange,
        _index: &MkbIndex<'_>,
        _opts: &CvsOptions,
        _ctx: SearchContext<'_>,
    ) -> Result<SearchResult, CvsError> {
        match change {
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
            other => Err(unsupported(other)),
        }
    }
}

/// The one-step-away SVS baseline (\[4\], \[12\]) for `delete-relation`,
/// behind the same interface: CVS with the search radius clamped to a
/// single join-constraint hop.
#[derive(Debug, Clone, Copy, Default)]
pub struct SvsBaseline;

impl SynchronizationStrategy for SvsBaseline {
    fn synchronize(
        &self,
        view: &ViewDefinition,
        change: &CapabilityChange,
        index: &MkbIndex<'_>,
        opts: &CvsOptions,
        ctx: SearchContext<'_>,
    ) -> Result<SearchResult, CvsError> {
        match change {
            CapabilityChange::DeleteRelation(r) => {
                svs_delete_relation_searched(view, r, index, opts, ctx.require_p3, ctx.cost_model)
            }
            other => Err(unsupported(other)),
        }
    }
}

/// The strategy the synchronizer dispatches to for `change`, or `None`
/// for changes that never affect existing views (`add-relation`,
/// `add-attribute`).
pub fn strategy_for(change: &CapabilityChange) -> Option<&'static dyn SynchronizationStrategy> {
    match change {
        CapabilityChange::DeleteRelation(_) => Some(&CvsDeleteRelation),
        CapabilityChange::DeleteAttribute(_) => Some(&DeleteAttribute),
        CapabilityChange::RenameRelation { .. } | CapabilityChange::RenameAttribute { .. } => {
            Some(&RenameForward)
        }
        CapabilityChange::AddRelation(_) | CapabilityChange::AddAttribute { .. } => None,
    }
}

/// Synchronize one (affected) view: dispatch to the operator's strategy
/// and assemble the [`ViewOutcome`] — the single place where the
/// retain-by-P3 / rank-by-cost / adopt-best policy lives.
///
/// `require_p3` discards uncertified rewritings before adoption;
/// `cost_model`, when present, re-ranks the candidates (otherwise the
/// strategy's best-first order stands).
pub fn synchronize_view(
    view: &ViewDefinition,
    change: &CapabilityChange,
    index: &MkbIndex<'_>,
    opts: &CvsOptions,
    require_p3: bool,
    cost_model: Option<&CostModel>,
) -> ViewOutcome {
    let Some(strategy) = strategy_for(change) else {
        return ViewOutcome::Unchanged;
    };
    // The per-view task entry site. Under the synchronizer fan-out each
    // task runs scoped by view name, so a plan can target one view's
    // attempt sequence without touching its siblings.
    crate::faults::hit("view.sync");
    let ctx = SearchContext {
        require_p3,
        cost_model,
    };
    // Histogram (not span) so direct engine callers — benches, tests —
    // feed the same per-view latency distribution as the fan-out path.
    let timer = eve_telemetry::start_timer();
    let result = strategy.synchronize(view, change, index, opts, ctx);
    eve_telemetry::stop_timer("engine.view_sync_ns", timer);
    match result {
        Ok(SearchResult {
            mut rewritings,
            mut stats,
        }) => {
            // Streaming strategies already applied the policy inside
            // the search (their list is P3-filtered and cost-ranked);
            // for list-based strategies this is where it happens. Both
            // are stable no-ops when already done.
            if require_p3 {
                rewritings.retain(|r| r.satisfies_p3);
            }
            if rewritings.is_empty() {
                return ViewOutcome::Disabled {
                    reason: CvsError::NoLegalRewriting,
                };
            }
            if let Some(model) = cost_model {
                model.rank(view, &mut rewritings);
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
    use eve_relational::{AttrRef, RelName};

    fn cpa_view() -> ViewDefinition {
        parse_view(
            "CREATE VIEW CPA AS
             SELECT C.Name (false, true), F.Dest (true, true), F.PName (true, true)
             FROM Customer C, FlightRes F WHERE (C.Name = F.PName) (false, true)",
        )
        .unwrap()
    }

    #[test]
    fn dispatch_table_covers_all_operators() {
        assert!(strategy_for(&CapabilityChange::DeleteRelation(RelName::new("X"))).is_some());
        assert!(strategy_for(&CapabilityChange::DeleteAttribute(AttrRef::new("X", "a"))).is_some());
        assert!(strategy_for(&CapabilityChange::RenameRelation {
            from: RelName::new("X"),
            to: RelName::new("Y"),
        })
        .is_some());
        assert!(strategy_for(&CapabilityChange::AddRelation(
            eve_misd::RelationDescription::new("IS9", "New", vec![])
        ))
        .is_none());
    }

    #[test]
    fn strategies_reject_foreign_operators() {
        let mkb = travel_mkb();
        let opts = CvsOptions::default();
        let index = MkbIndex::new(&mkb, &mkb, &opts);
        let view = cpa_view();
        let wrong = CapabilityChange::DeleteAttribute(AttrRef::new("Customer", "Name"));
        let err = CvsDeleteRelation
            .synchronize(&view, &wrong, &index, &opts, SearchContext::default())
            .unwrap_err();
        assert!(matches!(err, CvsError::UnsupportedChange { .. }));
    }

    #[test]
    fn engine_outcome_matches_direct_cvs() {
        let mkb = travel_mkb();
        let change = CapabilityChange::DeleteRelation(RelName::new("Customer"));
        let mkb2 = evolve(&mkb, &change).unwrap();
        let opts = CvsOptions::default();
        let index = MkbIndex::new(&mkb, &mkb2, &opts);
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
    fn svs_baseline_is_cvs_with_one_hop() {
        // On a two-hop chain A—M—Cov, CVS finds the rewriting and the SVS
        // baseline does not — through the same engine interface.
        let mkb = eve_misd::parse_misd(
            "RELATION IS1 A(x str, k str)
             RELATION IS2 M(k str)
             RELATION IS3 B(k str, y str)
             RELATION IS4 Cov(x str, k str)
             JOIN J0: A, B ON A.k = B.k
             JOIN J1: B, M ON B.k = M.k
             JOIN J2: M, Cov ON M.k = Cov.k
             FUNCOF F1: A.x = Cov.x
             FUNCOF F2: A.k = Cov.k",
        )
        .unwrap();
        let change = CapabilityChange::DeleteRelation(RelName::new("A"));
        let mkb2 = evolve(&mkb, &change).unwrap();
        let opts = CvsOptions::default();
        let index = MkbIndex::new(&mkb, &mkb2, &opts);
        let view = parse_view(
            "CREATE VIEW V AS SELECT A.x (false, true), B.y FROM A, B WHERE (A.k = B.k)",
        )
        .unwrap();
        assert!(CvsDeleteRelation
            .synchronize(&view, &change, &index, &opts, SearchContext::default())
            .is_ok());
        assert!(SvsBaseline
            .synchronize(&view, &change, &index, &opts, SearchContext::default())
            .is_err());
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
        let index = MkbIndex::new(&mkb, &mkb2, &opts);
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
