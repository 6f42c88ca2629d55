//! Human-readable explanations of rewritings: what was dropped, what was
//! replaced (and through which function-of constraint), what was joined
//! in — the narrative the EVE view administrator sees before accepting a
//! synchronized definition.

use crate::legal::LegalRewriting;
use crate::rewrite::SearchStats;
use eve_esql::ViewDefinition;
use eve_relational::RelName;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// [`explain_rewriting`], followed by a summary of the rewriting search
/// that produced the candidate (see [`SearchStats`]) when one is given:
/// how many candidates were generated, pruned (always 0) and kept —
/// plus an explicit truncation note when the search deadline or the
/// cover-combination cap cut the search short, so an administrator
/// reading the explanation knows whether alternatives may have been
/// missed.
pub fn explain_rewriting_with_stats(
    original: &ViewDefinition,
    rewriting: &LegalRewriting,
    stats: Option<&SearchStats>,
) -> String {
    let mut out = explain_rewriting(original, rewriting);
    if let Some(s) = stats {
        let _ = writeln!(
            out,
            "- search: {} candidate(s) generated, {} pruned, {} kept ({} connection tree(s) enumerated)",
            s.generated, s.pruned, s.kept, s.trees_enumerated
        );
        if s.budget_exhausted {
            out.push_str(
                "- search truncated by budget: better alternatives may exist beyond the explored prefix\n",
            );
        }
    }
    out
}

/// Render a step-by-step explanation of how `rewriting` evolves
/// `original`.
pub fn explain_rewriting(original: &ViewDefinition, rewriting: &LegalRewriting) -> String {
    let mut out = String::new();

    // Replacements.
    for (attr, cover) in rewriting.replacement.covers.iter() {
        let _ = writeln!(
            out,
            "- replaced {attr} by {} (function-of constraint {}, cover relation {})",
            cover.replacement, cover.funcof_id, cover.source
        );
    }

    // Dropped SELECT items.
    for (i, item) in original.select.iter().enumerate() {
        if !rewriting.kept_select.contains(&i) {
            let _ = writeln!(
                out,
                "- dropped output column {} (dispensable)",
                item.output_name()
                    .map(|n| n.to_string())
                    .unwrap_or_else(|| item.expr.to_string())
            );
        }
    }

    // Dropped conditions.
    for cond in &rewriting.dropped_conditions {
        let _ = writeln!(out, "- dropped condition ({}) (dispensable)", cond.clause);
    }

    // Relations swapped.
    let before: BTreeSet<RelName> = original.from.iter().map(|f| f.relation.clone()).collect();
    let after: BTreeSet<RelName> = rewriting
        .view
        .from
        .iter()
        .map(|f| f.relation.clone())
        .collect();
    for gone in before.difference(&after) {
        let _ = writeln!(out, "- removed relation {gone} from FROM");
    }
    for new in after.difference(&before) {
        let _ = writeln!(out, "- joined in relation {new}");
    }
    for jc in &rewriting.replacement.joins {
        let _ = writeln!(out, "- used join constraint {}: {}", jc.id, jc.predicate);
    }

    // Extent.
    let _ = writeln!(
        out,
        "- extent: V' {} V ({})",
        rewriting.verdict,
        if rewriting.satisfies_p3 {
            "satisfies the view-extent parameter"
        } else {
            "unverified against the view-extent parameter"
        }
    );

    if out.is_empty() {
        out.push_str("- no changes\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::CvsOptions;
    use crate::testutil::travel_mkb;
    use eve_esql::parse_view;
    use eve_misd::{evolve, CapabilityChange};

    #[test]
    fn explains_eq13_style_rewriting() {
        let mkb = travel_mkb();
        let customer = RelName::new("Customer");
        let mkb2 = evolve(&mkb, &CapabilityChange::DeleteRelation(customer.clone())).unwrap();
        let view = parse_view(
            "CREATE VIEW V AS
             SELECT C.Name (false, true), C.Age (true, true), F.Dest (true, true)
             FROM Customer C, FlightRes F WHERE (C.Name = F.PName) (false, true)",
        )
        .unwrap();
        let rewritings =
            crate::testutil::cvs_dr(&view, &customer, &mkb, &mkb2, &CvsOptions::default()).unwrap();
        let via_ins = rewritings
            .iter()
            .find(|r| {
                r.replacement
                    .relations
                    .contains(&RelName::new("Accident-Ins"))
            })
            .expect("Accident-Ins candidate");
        let text = explain_rewriting(&view, via_ins);
        assert!(text.contains("replaced Customer.Name"), "{text}");
        assert!(text.contains("removed relation Customer"), "{text}");
        assert!(text.contains("joined in relation Accident-Ins"), "{text}");
        assert!(text.contains("JC6"), "{text}");
        assert!(text.contains("extent: V'"), "{text}");
    }

    #[test]
    fn explains_drops() {
        let mkb = travel_mkb();
        let customer = RelName::new("Customer");
        let mkb2 = evolve(&mkb, &CapabilityChange::DeleteRelation(customer.clone())).unwrap();
        let view = parse_view(
            "CREATE VIEW V AS
             SELECT C.Phone (true, false), F.Dest (true, true)
             FROM Customer C, FlightRes F WHERE (C.Name = F.PName) (CD = true)",
        )
        .unwrap();
        let rewritings =
            crate::testutil::cvs_dr(&view, &customer, &mkb, &mkb2, &CvsOptions::default()).unwrap();
        let text = explain_rewriting(&view, &rewritings[0]);
        assert!(text.contains("dropped output column Phone"), "{text}");
    }

    #[test]
    fn explains_search_stats_and_truncation() {
        let mkb = travel_mkb();
        let customer = RelName::new("Customer");
        let mkb2 = evolve(&mkb, &CapabilityChange::DeleteRelation(customer.clone())).unwrap();
        let view = parse_view(
            "CREATE VIEW V AS
             SELECT C.Name (false, true), F.Dest (true, true)
             FROM Customer C, FlightRes F WHERE (C.Name = F.PName) (false, true)",
        )
        .unwrap();
        let rewritings =
            crate::testutil::cvs_dr(&view, &customer, &mkb, &mkb2, &CvsOptions::default()).unwrap();
        let stats = SearchStats {
            generated: 4,
            pruned: 2,
            kept: 1,
            trees_enumerated: 3,
            disconnected_combos: 0,
            budget_exhausted: false,
        };
        let text = explain_rewriting_with_stats(&view, &rewritings[0], Some(&stats));
        assert!(
            text.contains("search: 4 candidate(s) generated, 2 pruned, 1 kept"),
            "{text}"
        );
        assert!(!text.contains("truncated"), "{text}");
        // Without stats the output is byte-identical to the plain form.
        assert_eq!(
            explain_rewriting_with_stats(&view, &rewritings[0], None),
            explain_rewriting(&view, &rewritings[0])
        );
        // A budget-truncated search is called out explicitly.
        let truncated = SearchStats {
            budget_exhausted: true,
            ..stats
        };
        let text = explain_rewriting_with_stats(&view, &rewritings[0], Some(&truncated));
        assert!(text.contains("search truncated by budget"), "{text}");
    }
}
