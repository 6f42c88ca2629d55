//! Step 2 of the three-step strategy (§4): detecting the views affected by
//! a capability change.
//!
//! A view is affected when it references the deleted/renamed element. The
//! *indirect* effects the paper mentions (a view affected "due to MKB
//! evolution") arise for delete operators through cascaded constraint
//! removal; for SELECT-FROM-WHERE views over base relations, reference
//! inspection is exact: a view evaluates in the new information space iff
//! every relation/attribute it references still exists.

use eve_esql::ViewDefinition;
use eve_misd::{CapabilityChange, MetaKnowledgeBase};

/// Is this view affected by the change?
///
/// * `delete-relation R` — affected iff `R` occurs in the FROM clause;
/// * `delete-attribute R.A` — affected iff the view references `R.A`;
/// * `rename-relation` / `rename-attribute` — affected iff the view
///   references the old name (the synchronizer rewrites references
///   transparently; the paper counts these as non-invalidating);
/// * `add-relation` / `add-attribute` — never affect existing views.
pub fn is_affected(view: &ViewDefinition, change: &CapabilityChange) -> bool {
    match change {
        CapabilityChange::AddRelation(_) | CapabilityChange::AddAttribute { .. } => false,
        CapabilityChange::DeleteRelation(r) => view.uses_relation(r),
        CapabilityChange::RenameRelation { from, .. } => view.uses_relation(from),
        CapabilityChange::DeleteAttribute(a) => view.uses_attr(a),
        CapabilityChange::RenameAttribute { from, .. } => view.uses_attr(from),
    }
}

/// Does the view evaluate in the information space described by `mkb` —
/// i.e. does every relation and attribute it references exist there?
/// This is the exact evaluability test for SELECT-FROM-WHERE views over
/// base relations (see the module docs), used both for registration-time
/// validation and for reviving disabled views.
pub fn is_evaluable(view: &ViewDefinition, mkb: &MetaKnowledgeBase) -> bool {
    view.relations().iter().all(|r| mkb.contains_relation(r))
        && view.referenced_attrs().iter().all(|a| mkb.has_attr(a))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eve_esql::parse_view;
    use eve_misd::RelationDescription;
    use eve_relational::{AttrName, AttrRef, AttributeDef, DataType, RelName};

    fn view() -> ViewDefinition {
        parse_view(
            "CREATE VIEW V AS SELECT C.Name, F.Dest FROM Customer C, FlightRes F
             WHERE C.Name = F.PName",
        )
        .unwrap()
    }

    #[test]
    fn delete_relation_affects_referencing_views() {
        let v = view();
        assert!(is_affected(
            &v,
            &CapabilityChange::DeleteRelation(RelName::new("Customer"))
        ));
        assert!(!is_affected(
            &v,
            &CapabilityChange::DeleteRelation(RelName::new("Tour"))
        ));
    }

    #[test]
    fn delete_attribute_checks_references() {
        let v = view();
        assert!(is_affected(
            &v,
            &CapabilityChange::DeleteAttribute(AttrRef::new("FlightRes", "PName"))
        ));
        // Airline exists in FlightRes but the view never touches it.
        assert!(!is_affected(
            &v,
            &CapabilityChange::DeleteAttribute(AttrRef::new("FlightRes", "Airline"))
        ));
    }

    #[test]
    fn adds_never_affect() {
        let v = view();
        assert!(!is_affected(
            &v,
            &CapabilityChange::AddRelation(RelationDescription::new("IS9", "New", vec![]))
        ));
        assert!(!is_affected(
            &v,
            &CapabilityChange::AddAttribute {
                relation: RelName::new("Customer"),
                attr: AttributeDef::new("Fax", DataType::Str),
            }
        ));
    }

    #[test]
    fn renames_affect_referencing_views() {
        let v = view();
        assert!(is_affected(
            &v,
            &CapabilityChange::RenameRelation {
                from: RelName::new("Customer"),
                to: RelName::new("Client"),
            }
        ));
        assert!(is_affected(
            &v,
            &CapabilityChange::RenameAttribute {
                from: AttrRef::new("Customer", "Name"),
                to: AttrName::new("FullName"),
            }
        ));
    }
}
