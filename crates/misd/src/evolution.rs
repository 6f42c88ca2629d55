//! MKB evolution — Step 1 of the three-step view-synchronization strategy
//! (§4 of the paper):
//!
//! > "Given a capability change ch, EVE system will first evolve the meta
//! > knowledge base MKB into MKB' by detecting and modifying the affected
//! > MISD descriptions found in the MKB."
//!
//! [`evolve`] is pure: it consumes the current MKB state by reference and
//! returns the evolved `MKB'`. CVS deliberately keeps *both* states: the
//! replacement search (Def. 3) looks up function-of constraints in the old
//! MKB (they encode semantic knowledge that outlives the deleted
//! relation) while candidate expressions must be built from `MKB'` only.
//!
//! [`evolve`] is also copy-on-write, as the paper's wording asks: it
//! modifies only the *affected* descriptions. `MKB'` starts as a
//! pointer copy of `MKB` (see [`MetaKnowledgeBase`]). The MKB's relation
//! index names the constraints that mention the changed relation, with
//! their list keys, so the change reads those and nothing else; it
//! replaces the changed description (one chunk of the relation map),
//! edits the index entries of the relations the touched constraints
//! mention, and replaces or removes each edited constraint under its
//! key (one chunk of its list; a replacement keeps its place). A
//! constraint list none of whose constraints the change edits keeps its
//! spine, so `ChunkList::ptr_eq` on the lists of `MKB` and `MKB'` tells
//! whether the change touched them. Cost: logarithmic in the relation
//! and constraint counts, plus one chunk and one spine of each map and
//! list the change edits; never a scan of the constraints and never a
//! deep copy.
//!
//! Evolution rules per operator:
//!
//! * **add-relation / add-attribute** — insert, checking for collisions;
//! * **delete-relation R** — drop R's description and every constraint
//!   touching R (join constraints with endpoint R, function-of constraints
//!   whose target or source mentions R, PC and order constraints over R);
//! * **delete-attribute R.A** — drop A from R's description; drop every
//!   join/function-of/PC constraint referencing R.A; truncate order
//!   constraints at R.A (the prefix ordering remains valid; one left
//!   empty is dropped);
//! * **rename-relation / rename-attribute** — rewrite the description and
//!   every constraint mentioning the old name; views are *not* rewritten
//!   here (the paper treats renames as non-invalidating; the synchronizer
//!   in `eve-core` transparently rewrites view references).

use crate::change::CapabilityChange;
use crate::constraint::{FunctionOf, JoinConstraint, OrderIntegrity, PartialComplete, ProjSel};
use crate::description::RelationDescription;
use crate::error::MisdError;
use crate::mkb::{EditOf, Indexed, MetaKnowledgeBase, Touching};
use eve_relational::{AttrName, AttrRef, RelName, ScalarExpr};
use std::sync::Arc;

/// What a change does to one constraint.
enum Edit<T> {
    Keep,
    Drop,
    Replace(T),
}

/// Drop the constraint when `hit`, else keep it.
fn drop_if<T>(hit: bool) -> Edit<T> {
    if hit {
        Edit::Drop
    } else {
        Edit::Keep
    }
}

/// Edit the constraints of one kind that mention the changed relation
/// (`hits`, from the index, in declaration order); the rest of the MKB
/// is not read.
fn edit_touching<T: Indexed>(
    out: &mut MetaKnowledgeBase,
    hits: &Touching,
    mut edit: impl FnMut(&T) -> Edit<T>,
) {
    let edits: Vec<EditOf<T>> = T::of(hits)
        .iter()
        .filter_map(|keyed| match edit(&keyed.1) {
            Edit::Keep => None,
            Edit::Drop => Some((keyed.clone(), None)),
            Edit::Replace(new) => Some((keyed.clone(), Some(Arc::new(new)))),
        })
        .collect();
    out.apply_edits(&edits);
}

/// Apply a capability change, producing the evolved `MKB'`.
pub fn evolve(
    mkb: &MetaKnowledgeBase,
    change: &CapabilityChange,
) -> Result<MetaKnowledgeBase, MisdError> {
    let mut out = mkb.clone();
    match change {
        CapabilityChange::AddRelation(desc) => {
            out.add_relation(desc.clone())?;
        }
        CapabilityChange::DeleteRelation(rel) => {
            if out.relations_mut().remove(rel).is_none() {
                return Err(MisdError::UnknownRelation(rel.clone()));
            }
            if let Some(hits) = mkb.touching(rel) {
                edit_touching::<JoinConstraint>(&mut out, hits, |_| Edit::Drop);
                edit_touching::<FunctionOf>(&mut out, hits, |_| Edit::Drop);
                edit_touching::<PartialComplete>(&mut out, hits, |_| Edit::Drop);
                edit_touching::<OrderIntegrity>(&mut out, hits, |_| Edit::Drop);
            }
        }
        CapabilityChange::RenameRelation { from, to } => {
            rename_relation(mkb, &mut out, from, to)?;
        }
        CapabilityChange::AddAttribute { relation, attr } => {
            let desc = out
                .relation(relation)
                .ok_or_else(|| MisdError::UnknownRelation(relation.clone()))?;
            if desc.has_attr(&attr.name) {
                return Err(MisdError::NameCollision(format!(
                    "{relation}.{}",
                    attr.name
                )));
            }
            let mut desc = desc.clone();
            desc.attrs.push(attr.clone());
            out.relations_mut().insert(relation.clone(), Arc::new(desc));
        }
        CapabilityChange::DeleteAttribute(attr) => {
            delete_attribute(mkb, &mut out, attr)?;
        }
        CapabilityChange::RenameAttribute { from, to } => {
            rename_attribute(mkb, &mut out, from, to)?;
        }
    }
    Ok(out)
}

fn rename_relation(
    mkb: &MetaKnowledgeBase,
    out: &mut MetaKnowledgeBase,
    from: &RelName,
    to: &RelName,
) -> Result<(), MisdError> {
    if out.contains_relation(to) {
        return Err(MisdError::NameCollision(to.to_string()));
    }
    let relations = out.relations_mut();
    let desc = relations
        .remove(from)
        .ok_or_else(|| MisdError::UnknownRelation(from.clone()))?;
    let mut desc = RelationDescription::clone(&desc);
    desc.name = to.clone();
    relations.insert(to.clone(), Arc::new(desc));
    let Some(hits) = mkb.touching(from) else {
        return Ok(());
    };

    let rename = |r: &RelName| if r == from { to.clone() } else { r.clone() };
    // A join predicate only mentions its endpoints' attributes (checked
    // by `add_join`), so every join the index names is rewritten.
    edit_touching(out, hits, |j: &JoinConstraint| {
        Edit::Replace(JoinConstraint {
            id: j.id.clone(),
            left: rename(&j.left),
            right: rename(&j.right),
            predicate: j.predicate.rename_relation(from, to),
        })
    });
    edit_touching(out, hits, |f: &FunctionOf| {
        let mut f = f.clone();
        f.target.relation = rename(&f.target.relation);
        f.expr = f.expr.rename_relation(from, to);
        Edit::Replace(f)
    });
    let rename_side = |side: &ProjSel| ProjSel {
        relation: rename(&side.relation),
        attrs: side.attrs.clone(),
        cond: side.cond.rename_relation(from, to),
    };
    edit_touching(out, hits, |p: &PartialComplete| {
        Edit::Replace(PartialComplete {
            id: p.id.clone(),
            left: rename_side(&p.left),
            op: p.op,
            right: rename_side(&p.right),
        })
    });
    edit_touching(out, hits, |o: &OrderIntegrity| {
        Edit::Replace(OrderIntegrity {
            relation: to.clone(),
            attrs: o.attrs.clone(),
        })
    });
    Ok(())
}

fn delete_attribute(
    mkb: &MetaKnowledgeBase,
    out: &mut MetaKnowledgeBase,
    attr: &AttrRef,
) -> Result<(), MisdError> {
    let mut desc = out
        .relation(&attr.relation)
        .ok_or_else(|| MisdError::UnknownRelation(attr.relation.clone()))?
        .clone();
    if !desc.remove_attr(&attr.attr) {
        return Err(MisdError::UnknownAttribute(attr.clone()));
    }
    out.relations_mut()
        .insert(attr.relation.clone(), Arc::new(desc));
    // A constraint mentioning `attr` mentions its relation, so the
    // index entry of that relation holds every candidate.
    let Some(hits) = mkb.touching(&attr.relation) else {
        return Ok(());
    };
    edit_touching(out, hits, |j: &JoinConstraint| {
        drop_if(j.contains_attr(attr))
    });
    edit_touching(out, hits, |f: &FunctionOf| drop_if(f.mentions_attr(attr)));
    edit_touching(out, hits, |p: &PartialComplete| {
        drop_if(p.mentions_attr(attr))
    });
    // Order constraints: ordering by a prefix of the original attribute
    // list still holds, so truncate at the deleted attribute; an order
    // left empty constrains nothing and is dropped.
    edit_touching(out, hits, |o: &OrderIntegrity| {
        match o.attrs.iter().position(|a| a == &attr.attr) {
            Some(0) => Edit::Drop,
            Some(pos) => Edit::Replace(OrderIntegrity {
                relation: o.relation.clone(),
                attrs: o.attrs[..pos].to_vec(),
            }),
            None => Edit::Keep,
        }
    });
    Ok(())
}

fn rename_attribute(
    mkb: &MetaKnowledgeBase,
    out: &mut MetaKnowledgeBase,
    from: &AttrRef,
    to: &AttrName,
) -> Result<(), MisdError> {
    let mut desc = out
        .relation(&from.relation)
        .ok_or_else(|| MisdError::UnknownRelation(from.relation.clone()))?
        .clone();
    if desc.has_attr(to) {
        return Err(MisdError::NameCollision(format!("{}.{to}", from.relation)));
    }
    if !desc.rename_attr(&from.attr, to.clone()) {
        return Err(MisdError::UnknownAttribute(from.clone()));
    }
    out.relations_mut()
        .insert(from.relation.clone(), Arc::new(desc));
    let Some(hits) = mkb.touching(&from.relation) else {
        return Ok(());
    };

    let to_ref = AttrRef::new(from.relation.clone(), to.clone());
    let new_ref = ScalarExpr::Attr(to_ref.clone());
    let rename = |a: &AttrName| {
        if a == &from.attr {
            to.clone()
        } else {
            a.clone()
        }
    };
    edit_touching(out, hits, |j: &JoinConstraint| {
        if !j.contains_attr(from) {
            return Edit::Keep;
        }
        Edit::Replace(JoinConstraint {
            id: j.id.clone(),
            left: j.left.clone(),
            right: j.right.clone(),
            predicate: j.predicate.substitute(from, &new_ref),
        })
    });
    edit_touching(out, hits, |f: &FunctionOf| {
        if !f.mentions_attr(from) {
            return Edit::Keep;
        }
        let mut f = f.clone();
        if &f.target == from {
            f.target = to_ref.clone();
        }
        f.expr = f.expr.substitute(from, &new_ref);
        Edit::Replace(f)
    });
    let rename_side = |side: &ProjSel| ProjSel {
        relation: side.relation.clone(),
        attrs: if side.relation == from.relation {
            side.attrs.iter().map(rename).collect()
        } else {
            side.attrs.clone()
        },
        cond: side.cond.substitute(from, &new_ref),
    };
    edit_touching(out, hits, |p: &PartialComplete| {
        if !p.mentions_attr(from) {
            return Edit::Keep;
        }
        Edit::Replace(PartialComplete {
            id: p.id.clone(),
            left: rename_side(&p.left),
            op: p.op,
            right: rename_side(&p.right),
        })
    });
    edit_touching(out, hits, |o: &OrderIntegrity| {
        if !o.attrs.contains(&from.attr) {
            return Edit::Keep;
        }
        Edit::Replace(OrderIntegrity {
            relation: o.relation.clone(),
            attrs: o.attrs.iter().map(rename).collect(),
        })
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{
        ExtentOp, FunctionOf, JoinConstraint, OrderIntegrity, PartialComplete, ProjSel,
    };
    use crate::description::RelationDescription;
    use eve_relational::{AttributeDef, Clause, Conjunction, DataType};

    /// A three-relation MKB with one constraint of every kind.
    fn mkb() -> MetaKnowledgeBase {
        let mut m = MetaKnowledgeBase::new();
        m.add_relation(RelationDescription::new(
            "IS1",
            "Customer",
            vec![
                AttributeDef::new("Name", DataType::Str),
                AttributeDef::new("Age", DataType::Int),
            ],
        ))
        .unwrap();
        m.add_relation(RelationDescription::new(
            "IS4",
            "FlightRes",
            vec![
                AttributeDef::new("PName", DataType::Str),
                AttributeDef::new("Dest", DataType::Str),
            ],
        ))
        .unwrap();
        m.add_relation(RelationDescription::new(
            "IS5",
            "Accident-Ins",
            vec![
                AttributeDef::new("Holder", DataType::Str),
                AttributeDef::new("Birthday", DataType::Date),
            ],
        ))
        .unwrap();
        m.add_join(JoinConstraint::new(
            "JC1",
            "Customer",
            "FlightRes",
            Conjunction::new(vec![Clause::eq_attrs(
                AttrRef::new("Customer", "Name"),
                AttrRef::new("FlightRes", "PName"),
            )]),
        ))
        .unwrap();
        m.add_join(JoinConstraint::new(
            "JC6",
            "FlightRes",
            "Accident-Ins",
            Conjunction::new(vec![Clause::eq_attrs(
                AttrRef::new("FlightRes", "PName"),
                AttrRef::new("Accident-Ins", "Holder"),
            )]),
        ))
        .unwrap();
        m.add_function_of(FunctionOf::new(
            "F2",
            AttrRef::new("Customer", "Name"),
            ScalarExpr::attr("Accident-Ins", "Holder"),
        ))
        .unwrap();
        m.add_pc(PartialComplete::new(
            "PC1",
            ProjSel::new("Accident-Ins", vec![AttrName::new("Holder")]),
            ExtentOp::Superset,
            ProjSel::new("Customer", vec![AttrName::new("Name")]),
        ))
        .unwrap();
        m.add_order(OrderIntegrity {
            relation: RelName::new("Customer"),
            attrs: vec![AttrName::new("Name"), AttrName::new("Age")],
        })
        .unwrap();
        m
    }

    #[test]
    fn delete_relation_cascades() {
        let m = mkb();
        let m2 = evolve(
            &m,
            &CapabilityChange::DeleteRelation(RelName::new("Customer")),
        )
        .unwrap();
        assert!(!m2.contains_relation(&RelName::new("Customer")));
        // JC1 (endpoint Customer), F2 (target Customer.Name), PC1 and the
        // order constraint all vanish; JC6 survives.
        assert_eq!(m2.joins().len(), 1);
        assert_eq!(m2.joins()[0].id, "JC6");
        assert!(m2.function_ofs().is_empty());
        assert!(m2.pcs().is_empty());
        assert!(m2.orders().is_empty());
        // Original untouched.
        assert_eq!(m.joins().len(), 2);
    }

    /// A dropped constraint's id is free again; a rewritten one keeps
    /// its id.
    #[test]
    fn evolution_maintains_constraint_ids() {
        let m = mkb();
        let m2 = evolve(
            &m,
            &CapabilityChange::RenameRelation {
                from: RelName::new("FlightRes"),
                to: RelName::new("Booking"),
            },
        )
        .unwrap();
        let m3 = evolve(
            &m2,
            &CapabilityChange::DeleteRelation(RelName::new("Customer")),
        )
        .unwrap();
        let reuse = |mkb: &MetaKnowledgeBase, id: &str| {
            let mut mkb = mkb.clone();
            mkb.add_pc(PartialComplete::new(
                id,
                ProjSel::new("Accident-Ins", vec![AttrName::new("Holder")]),
                ExtentOp::Superset,
                ProjSel::new("Booking", vec![AttrName::new("PName")]),
            ))
        };
        for id in ["JC1", "JC6", "F2", "PC1"] {
            assert_eq!(
                reuse(&m2, id),
                Err(MisdError::DuplicateConstraintId(id.into())),
                "{id} survived the rename"
            );
        }
        assert!(reuse(&m3, "JC6").is_err(), "JC6 survived the delete");
        for id in ["JC1", "F2", "PC1"] {
            assert_eq!(reuse(&m3, id), Ok(()), "{id} was dropped");
        }
    }

    #[test]
    fn delete_unknown_relation_errors() {
        assert!(matches!(
            evolve(&mkb(), &CapabilityChange::DeleteRelation(RelName::new("X"))),
            Err(MisdError::UnknownRelation(_))
        ));
    }

    #[test]
    fn delete_attribute_cascades() {
        let m = mkb();
        let m2 = evolve(
            &m,
            &CapabilityChange::DeleteAttribute(AttrRef::new("Customer", "Name")),
        )
        .unwrap();
        let c = m2.relation(&RelName::new("Customer")).unwrap();
        assert!(!c.has_attr(&AttrName::new("Name")));
        // JC1 references Customer.Name → dropped; JC6 survives.
        assert_eq!(m2.joins().len(), 1);
        // F2 targets Customer.Name → dropped.
        assert!(m2.function_ofs().is_empty());
        // PC1 projects Customer.Name → dropped.
        assert!(m2.pcs().is_empty());
        // Order (Name, Age) truncated at Name → empty → dropped.
        assert!(m2.orders().is_empty());
    }

    #[test]
    fn delete_attribute_truncates_order_suffix() {
        let m = mkb();
        let m2 = evolve(
            &m,
            &CapabilityChange::DeleteAttribute(AttrRef::new("Customer", "Age")),
        )
        .unwrap();
        assert_eq!(m2.orders().len(), 1);
        assert_eq!(m2.orders()[0].attrs.len(), 1); // (Name) prefix kept
    }

    #[test]
    fn rename_relation_rewrites_constraints() {
        let m = mkb();
        let m2 = evolve(
            &m,
            &CapabilityChange::RenameRelation {
                from: RelName::new("Customer"),
                to: RelName::new("Client"),
            },
        )
        .unwrap();
        assert!(m2.contains_relation(&RelName::new("Client")));
        assert!(!m2.contains_relation(&RelName::new("Customer")));
        let jc1 = m2.join_by_id("JC1").unwrap();
        assert_eq!(jc1.left, RelName::new("Client"));
        assert!(jc1.attrs().contains(&AttrRef::new("Client", "Name")));
        assert_eq!(
            m2.funcof_by_id("F2").unwrap().target,
            AttrRef::new("Client", "Name")
        );
        assert_eq!(m2.pcs()[0].right.relation, RelName::new("Client"));
        assert_eq!(m2.orders()[0].relation, RelName::new("Client"));
    }

    #[test]
    fn rename_relation_collision_errors() {
        assert!(matches!(
            evolve(
                &mkb(),
                &CapabilityChange::RenameRelation {
                    from: RelName::new("Customer"),
                    to: RelName::new("FlightRes"),
                }
            ),
            Err(MisdError::NameCollision(_))
        ));
    }

    #[test]
    fn rename_attribute_rewrites_constraints() {
        let m = mkb();
        let m2 = evolve(
            &m,
            &CapabilityChange::RenameAttribute {
                from: AttrRef::new("Customer", "Name"),
                to: AttrName::new("FullName"),
            },
        )
        .unwrap();
        let jc1 = m2.join_by_id("JC1").unwrap();
        assert!(jc1.attrs().contains(&AttrRef::new("Customer", "FullName")));
        assert_eq!(
            m2.funcof_by_id("F2").unwrap().target,
            AttrRef::new("Customer", "FullName")
        );
        assert_eq!(m2.pcs()[0].right.attrs[0], AttrName::new("FullName"));
        assert_eq!(m2.orders()[0].attrs[0], AttrName::new("FullName"));
    }

    #[test]
    fn add_attribute_and_collision() {
        let m = mkb();
        let m2 = evolve(
            &m,
            &CapabilityChange::AddAttribute {
                relation: RelName::new("Customer"),
                attr: AttributeDef::new("Phone", DataType::Str),
            },
        )
        .unwrap();
        assert!(m2
            .relation(&RelName::new("Customer"))
            .unwrap()
            .has_attr(&AttrName::new("Phone")));
        assert!(matches!(
            evolve(
                &m2,
                &CapabilityChange::AddAttribute {
                    relation: RelName::new("Customer"),
                    attr: AttributeDef::new("Phone", DataType::Str),
                }
            ),
            Err(MisdError::NameCollision(_))
        ));
    }

    #[test]
    fn add_relation() {
        let m = mkb();
        let m2 = evolve(
            &m,
            &CapabilityChange::AddRelation(RelationDescription::new(
                "IS9",
                "Person",
                vec![AttributeDef::new("Name", DataType::Str)],
            )),
        )
        .unwrap();
        assert_eq!(m2.relation_count(), 4);
    }
}
