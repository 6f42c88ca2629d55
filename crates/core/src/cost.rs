//! A cost model for **maximal view preservation** — the paper's §7
//! names "cost models for maximal view preservation" as future work; this
//! module supplies one.
//!
//! Every legal rewriting preserves the view, but not equally well: one
//! may drop a dispensable attribute another manages to cover, one may
//! drag in three extra relations where another needs none, one may carry
//! a certified `≡` extent where another is `Unknown`. The
//! [`CostModel`] scores those differences; lower is better. The default
//! weights implement a lexicographic intuition — *information loss*
//! (dropped components) dominates *semantic drift* (replacements)
//! dominates *plan size* (extra relations/joins) dominates residual
//! *extent uncertainty* — while remaining a plain weighted sum the user
//! can re-tune.
//!
//! [`CostModel::rank`] orders a candidate set by cost;
//! `SynchronizerBuilder::with_cost_model` makes the synchronizer adopt
//! the cheapest legal rewriting.

use crate::extent::ExtentVerdict;
use crate::legal::LegalRewriting;
use eve_esql::ViewDefinition;
use std::fmt;

/// Weights for the preservation cost (all ≥ 0; lower total = better).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Penalty per SELECT item dropped from the view.
    pub dropped_attr: f64,
    /// Penalty per WHERE condition dropped.
    pub dropped_condition: f64,
    /// Penalty per component whose expression was replaced (semantic
    /// drift: the value is now *derived*, not original).
    pub replaced_component: f64,
    /// Penalty per relation added beyond the original FROM clause.
    pub extra_relation: f64,
    /// Penalty per join condition added.
    pub extra_join: f64,
    /// Penalty by extent verdict: `≡` is free, certified `⊇`/`⊆` cheap,
    /// `Unknown` expensive.
    pub extent_superset: f64,
    /// Penalty when the verdict is a certified subset.
    pub extent_subset: f64,
    /// Penalty when the extent relationship is unverified.
    pub extent_unknown: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            dropped_attr: 100.0,
            dropped_condition: 100.0,
            replaced_component: 10.0,
            extra_relation: 3.0,
            extra_join: 1.0,
            extent_superset: 5.0,
            extent_subset: 5.0,
            extent_unknown: 25.0,
        }
    }
}

/// An itemised cost assessment of one rewriting.
#[derive(Debug, Clone, PartialEq)]
pub struct CostBreakdown {
    /// SELECT items dropped.
    pub dropped_attrs: usize,
    /// Conditions dropped.
    pub dropped_conditions: usize,
    /// Components replaced (SELECT items whose expression changed).
    pub replaced_components: usize,
    /// Relations beyond the original FROM clause.
    pub extra_relations: usize,
    /// Join conditions beyond the original WHERE clause.
    pub extra_joins: usize,
    /// The extent verdict of the rewriting.
    pub verdict: ExtentVerdict,
    /// The weighted total.
    pub total: f64,
}

impl fmt::Display for CostBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cost {:.1} (dropped: {} attrs, {} conds; replaced: {}; extra: {} rels, {} joins; extent {})",
            self.total,
            self.dropped_attrs,
            self.dropped_conditions,
            self.replaced_components,
            self.extra_relations,
            self.extra_joins,
            self.verdict
        )
    }
}

impl CostModel {
    /// Assess a rewriting of `original`.
    pub fn assess(&self, original: &ViewDefinition, rewriting: &LegalRewriting) -> CostBreakdown {
        let dropped_attrs = original.select.len() - rewriting.kept_select.len();
        let dropped_conditions = rewriting.dropped_conditions.len();
        let replaced_components = rewriting
            .kept_select
            .iter()
            .enumerate()
            .filter(|(new_idx, orig_idx)| {
                rewriting.view.select[*new_idx].expr != original.select[**orig_idx].expr
            })
            .count();
        let orig_rels = original.from.len();
        let extra_relations = rewriting.view.from.len().saturating_sub(orig_rels - 1);
        let extra_joins = rewriting
            .view
            .conditions
            .len()
            .saturating_sub(original.conditions.len().saturating_sub(dropped_conditions));
        let extent_penalty = match rewriting.verdict {
            ExtentVerdict::Equivalent => 0.0,
            ExtentVerdict::Superset => self.extent_superset,
            ExtentVerdict::Subset => self.extent_subset,
            ExtentVerdict::Unknown => self.extent_unknown,
        };
        let total = self.dropped_attr * dropped_attrs as f64
            + self.dropped_condition * dropped_conditions as f64
            + self.replaced_component * replaced_components as f64
            + self.extra_relation * extra_relations as f64
            + self.extra_join * extra_joins as f64
            + extent_penalty;
        CostBreakdown {
            dropped_attrs,
            dropped_conditions,
            replaced_components,
            extra_relations,
            extra_joins,
            verdict: rewriting.verdict,
            total,
        }
    }

    /// Sort rewritings by ascending cost (stable, deterministic
    /// tie-break on the rendered definition).
    pub fn rank(&self, original: &ViewDefinition, rewritings: &mut [LegalRewriting]) {
        rewritings.sort_by(|a, b| {
            let ca = self.assess(original, a).total;
            let cb = self.assess(original, b).total;
            ca.partial_cmp(&cb)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.view.to_string().cmp(&b.view.to_string()))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::CvsOptions;
    use crate::testutil::travel_mkb;
    use eve_esql::parse_view;
    use eve_misd::{evolve, CapabilityChange};
    use eve_relational::{AttrRef, RelName};

    fn rewritings() -> (ViewDefinition, Vec<LegalRewriting>) {
        let mkb = travel_mkb();
        let customer = RelName::new("Customer");
        let mkb2 = evolve(&mkb, &CapabilityChange::DeleteRelation(customer.clone())).unwrap();
        let view = parse_view(
            "CREATE VIEW Customer-Passengers-Asia AS
             SELECT C.Name (false, true), C.Age (true, true),
                    P.Participant (true, true), P.TourID (true, true)
             FROM Customer C (true, true), FlightRes F (true, true), Participant P (true, true)
             WHERE (C.Name = F.PName) (false, true) AND (F.Dest = 'Asia')
               AND (P.StartDate = F.Date) AND (P.Loc = 'Asia')",
        )
        .unwrap();
        let rws =
            crate::testutil::cvs_dr(&view, &customer, &mkb, &mkb2, &CvsOptions::default()).unwrap();
        (view, rws)
    }

    #[test]
    fn covering_beats_dropping() {
        // A rewriting that covers Age must cost less than one that drops
        // it, under the default weights (information loss dominates).
        let (view, rws) = rewritings();
        let model = CostModel::default();
        let age = AttrRef::new("Customer", "Age");
        let with_age = rws
            .iter()
            .find(|r| r.replacement.covers.contains_key(&age))
            .expect("covering candidate");
        let without_age = rws
            .iter()
            .find(|r| !r.replacement.covers.contains_key(&age))
            .expect("dropping candidate");
        let c_with = model.assess(&view, with_age);
        let c_without = model.assess(&view, without_age);
        assert!(
            c_with.total < c_without.total,
            "covering {c_with} should beat dropping {c_without}"
        );
        assert_eq!(c_with.dropped_attrs, 0);
        assert_eq!(c_without.dropped_attrs, 1);
    }

    #[test]
    fn rank_orders_by_cost() {
        let (view, mut rws) = rewritings();
        let model = CostModel::default();
        model.rank(&view, &mut rws);
        let costs: Vec<f64> = rws.iter().map(|r| model.assess(&view, r).total).collect();
        assert!(costs.windows(2).all(|w| w[0] <= w[1]), "{costs:?}");
        // Best candidate keeps all four SELECT items.
        assert_eq!(rws[0].view.select.len(), 4);
    }

    #[test]
    fn extent_uncertainty_costs() {
        let model = CostModel::default();
        // Two otherwise-identical assessments differ only in verdict.
        let (view, rws) = rewritings();
        for r in &rws {
            let c = model.assess(&view, r);
            match r.verdict {
                ExtentVerdict::Unknown => assert!(c.total >= model.extent_unknown),
                ExtentVerdict::Equivalent => {}
                _ => assert!(c.total >= model.extent_superset.min(model.extent_subset)),
            }
        }
    }

    #[test]
    fn breakdown_display() {
        let (view, rws) = rewritings();
        let c = CostModel::default().assess(&view, &rws[0]);
        let s = c.to_string();
        assert!(s.starts_with("cost "), "{s}");
        assert!(s.contains("extent"), "{s}");
    }
}
