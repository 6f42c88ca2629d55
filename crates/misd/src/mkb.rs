//! The meta knowledge base (MKB).
//!
//! "Descriptions of ISs expressed in this language are maintained in a
//! meta-knowledge base (MKB), thus making a wide range of resources
//! available to the view synchronizer during the view evolution process."
//! (§1 of the paper.)
//!
//! Constraints are validated eagerly at insertion: endpoints must be
//! described, predicates may only mention endpoint attributes, function-of
//! expressions must draw from a single source relation, PC sides must
//! project equal arities. An MKB accepted by these checks is internally
//! consistent, which the CVS algorithm relies on.
//!
//! The MKB is copy-on-write: every relation description and every
//! constraint sits behind its own [`Arc`], and so does each collection.
//! Cloning an MKB copies five pointers. Evolution (`crate::evolution`)
//! copies a collection only when the change touches it — the relation
//! map on every change, the constraint lists only when a constraint
//! mentions the changed relation or attribute — and replaces only the
//! touched elements, so consecutive versions share everything else.

use crate::constraint::{FunctionOf, JoinConstraint, OrderIntegrity, PartialComplete};
use crate::description::RelationDescription;
use crate::error::MisdError;
use eve_relational::{AttrRef, RelName};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A shared list of shared constraints: cloning it copies one pointer,
/// editing it copies the spine of element pointers, never an element.
pub type SharedList<T> = Arc<Vec<Arc<T>>>;

/// The meta knowledge base: relation descriptions plus semantic
/// constraints.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetaKnowledgeBase {
    relations: Arc<BTreeMap<RelName, Arc<RelationDescription>>>,
    joins: SharedList<JoinConstraint>,
    funcofs: SharedList<FunctionOf>,
    pcs: SharedList<PartialComplete>,
    orders: SharedList<OrderIntegrity>,
}

impl MetaKnowledgeBase {
    /// Empty MKB.
    pub fn new() -> Self {
        Self::default()
    }

    // ------------------------------------------------------------------
    // insertion (validated)
    // ------------------------------------------------------------------

    /// Describe a new relation. Errors when a relation with the same name
    /// is already described.
    pub fn add_relation(&mut self, desc: RelationDescription) -> Result<(), MisdError> {
        if self.relations.contains_key(&desc.name) {
            return Err(MisdError::DuplicateRelation(desc.name));
        }
        Arc::make_mut(&mut self.relations).insert(desc.name.clone(), Arc::new(desc));
        Ok(())
    }

    /// Check an attribute reference resolves against the described
    /// relations.
    pub fn check_attr(&self, attr: &AttrRef) -> Result<(), MisdError> {
        let rel = self
            .relations
            .get(&attr.relation)
            .ok_or_else(|| MisdError::UnknownRelation(attr.relation.clone()))?;
        if !rel.has_attr(&attr.attr) {
            return Err(MisdError::UnknownAttribute(attr.clone()));
        }
        Ok(())
    }

    fn check_constraint_id(&self, id: &str) -> Result<(), MisdError> {
        let used = self.joins.iter().any(|j| j.id == id)
            || self.funcofs.iter().any(|f| f.id == id)
            || self.pcs.iter().any(|p| p.id == id);
        if used {
            Err(MisdError::DuplicateConstraintId(id.to_string()))
        } else {
            Ok(())
        }
    }

    /// Add a join constraint. Endpoints must be described and the
    /// predicate may only reference endpoint attributes.
    pub fn add_join(&mut self, jc: JoinConstraint) -> Result<(), MisdError> {
        self.check_constraint_id(&jc.id)?;
        for r in [&jc.left, &jc.right] {
            if !self.relations.contains_key(r) {
                return Err(MisdError::UnknownRelation(r.clone()));
            }
        }
        for attr in jc.attrs() {
            if attr.relation != jc.left && attr.relation != jc.right {
                return Err(MisdError::ForeignAttrInJoin {
                    id: jc.id.clone(),
                    attr,
                });
            }
            self.check_attr(&attr)?;
        }
        Arc::make_mut(&mut self.joins).push(Arc::new(jc));
        Ok(())
    }

    /// Add a function-of constraint. The target and all source attributes
    /// must exist, and the expression must draw from exactly one source
    /// relation (or be constant).
    pub fn add_function_of(&mut self, f: FunctionOf) -> Result<(), MisdError> {
        self.check_constraint_id(&f.id)?;
        self.check_attr(&f.target)?;
        let sources = f.expr.relations();
        if sources.len() > 1 {
            return Err(MisdError::MultiSourceFunctionOf(f.id.clone()));
        }
        for attr in f.source_attrs() {
            self.check_attr(&attr)?;
        }
        Arc::make_mut(&mut self.funcofs).push(Arc::new(f));
        Ok(())
    }

    /// Add a partial/complete constraint. Both sides must resolve and
    /// project the same arity.
    pub fn add_pc(&mut self, pc: PartialComplete) -> Result<(), MisdError> {
        self.check_constraint_id(&pc.id)?;
        if pc.left.attrs.len() != pc.right.attrs.len() {
            return Err(MisdError::PcArityMismatch(pc.id.clone()));
        }
        for side in [&pc.left, &pc.right] {
            if !self.relations.contains_key(&side.relation) {
                return Err(MisdError::UnknownRelation(side.relation.clone()));
            }
            for attr in side.attr_refs() {
                self.check_attr(&attr)?;
            }
            for attr in side.cond.attrs() {
                self.check_attr(&attr)?;
            }
        }
        Arc::make_mut(&mut self.pcs).push(Arc::new(pc));
        Ok(())
    }

    /// Add an order-integrity constraint.
    pub fn add_order(&mut self, oc: OrderIntegrity) -> Result<(), MisdError> {
        if !self.relations.contains_key(&oc.relation) {
            return Err(MisdError::UnknownRelation(oc.relation.clone()));
        }
        for a in &oc.attrs {
            self.check_attr(&AttrRef::new(oc.relation.clone(), a.clone()))?;
        }
        Arc::make_mut(&mut self.orders).push(Arc::new(oc));
        Ok(())
    }

    // ------------------------------------------------------------------
    // lookup
    // ------------------------------------------------------------------

    /// The description of a relation, if present.
    pub fn relation(&self, name: &RelName) -> Option<&RelationDescription> {
        self.relations.get(name).map(Arc::as_ref)
    }

    /// Is the relation described?
    pub fn contains_relation(&self, name: &RelName) -> bool {
        self.relations.contains_key(name)
    }

    /// Does the attribute exist?
    pub fn has_attr(&self, attr: &AttrRef) -> bool {
        self.check_attr(attr).is_ok()
    }

    /// All relation descriptions, ordered by name.
    pub fn relations(&self) -> impl Iterator<Item = &RelationDescription> {
        self.relations.values().map(Arc::as_ref)
    }

    /// All relation names, ordered.
    pub fn relation_names(&self) -> impl Iterator<Item = &RelName> {
        self.relations.keys()
    }

    /// All join constraints, in insertion order.
    pub fn joins(&self) -> &[Arc<JoinConstraint>] {
        &self.joins
    }

    /// The join list itself: [`Arc::ptr_eq`] on two versions' lists
    /// tells whether a change touched any join constraint, and a
    /// hypergraph over every join shares it instead of copying it.
    pub fn joins_arc(&self) -> &SharedList<JoinConstraint> {
        &self.joins
    }

    /// Join constraints touching `rel`.
    pub fn joins_of<'a>(&'a self, rel: &'a RelName) -> impl Iterator<Item = &'a JoinConstraint> {
        self.joins
            .iter()
            .map(Arc::as_ref)
            .filter(move |j| j.touches(rel))
    }

    /// Join constraints connecting the unordered pair `{r1, r2}`.
    pub fn joins_between<'a>(
        &'a self,
        r1: &'a RelName,
        r2: &'a RelName,
    ) -> impl Iterator<Item = &'a JoinConstraint> {
        self.joins
            .iter()
            .map(Arc::as_ref)
            .filter(move |j| j.connects(r1, r2))
    }

    /// A join constraint by id.
    pub fn join_by_id(&self, id: &str) -> Option<&JoinConstraint> {
        self.joins.iter().map(Arc::as_ref).find(|j| j.id == id)
    }

    /// All function-of constraints.
    pub fn function_ofs(&self) -> &[Arc<FunctionOf>] {
        &self.funcofs
    }

    /// The function-of list itself (see [`MetaKnowledgeBase::joins_arc`]).
    pub fn function_ofs_arc(&self) -> &SharedList<FunctionOf> {
        &self.funcofs
    }

    /// Function-of constraints *defining* the given attribute — the
    /// constraints CVS uses to find covers for `attr` (Def. 3 (IV)).
    pub fn covers_of<'a>(&'a self, attr: &'a AttrRef) -> impl Iterator<Item = &'a FunctionOf> {
        self.funcofs
            .iter()
            .map(Arc::as_ref)
            .filter(move |f| &f.target == attr)
    }

    /// A function-of constraint by id.
    pub fn funcof_by_id(&self, id: &str) -> Option<&FunctionOf> {
        self.funcofs.iter().map(Arc::as_ref).find(|f| f.id == id)
    }

    /// All partial/complete constraints.
    pub fn pcs(&self) -> &[Arc<PartialComplete>] {
        &self.pcs
    }

    /// The partial/complete list itself (see
    /// [`MetaKnowledgeBase::joins_arc`]).
    pub fn pcs_arc(&self) -> &SharedList<PartialComplete> {
        &self.pcs
    }

    /// Partial/complete constraints touching `rel`.
    pub fn pcs_of<'a>(&'a self, rel: &'a RelName) -> impl Iterator<Item = &'a PartialComplete> {
        self.pcs
            .iter()
            .map(Arc::as_ref)
            .filter(move |p| p.touches(rel))
    }

    /// All order-integrity constraints.
    pub fn orders(&self) -> &[Arc<OrderIntegrity>] {
        &self.orders
    }

    /// Number of described relations.
    pub fn relation_count(&self) -> usize {
        self.relations.len()
    }

    // ------------------------------------------------------------------
    // copy-on-write access used by MKB evolution (crate::evolution)
    // ------------------------------------------------------------------

    /// The relation map, copied first when another version shares it.
    pub(crate) fn relations_mut(&mut self) -> &mut BTreeMap<RelName, Arc<RelationDescription>> {
        Arc::make_mut(&mut self.relations)
    }

    pub(crate) fn joins_mut(&mut self) -> &mut SharedList<JoinConstraint> {
        &mut self.joins
    }

    pub(crate) fn funcofs_mut(&mut self) -> &mut SharedList<FunctionOf> {
        &mut self.funcofs
    }

    pub(crate) fn pcs_mut(&mut self) -> &mut SharedList<PartialComplete> {
        &mut self.pcs
    }

    pub(crate) fn orders_mut(&mut self) -> &mut SharedList<OrderIntegrity> {
        &mut self.orders
    }
}

impl fmt::Display for MetaKnowledgeBase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in self.relations.values() {
            writeln!(f, "{r}")?;
        }
        for j in self.joins.iter() {
            writeln!(f, "{j}")?;
        }
        for x in self.funcofs.iter() {
            writeln!(f, "{x}")?;
        }
        for p in self.pcs.iter() {
            writeln!(f, "{p}")?;
        }
        for o in self.orders.iter() {
            writeln!(f, "{o}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{ExtentOp, ProjSel};
    use eve_relational::{AttrName, AttributeDef, Clause, Conjunction, DataType, ScalarExpr};

    fn base() -> MetaKnowledgeBase {
        let mut mkb = MetaKnowledgeBase::new();
        mkb.add_relation(RelationDescription::new(
            "IS1",
            "Customer",
            vec![
                AttributeDef::new("Name", DataType::Str),
                AttributeDef::new("Age", DataType::Int),
            ],
        ))
        .unwrap();
        mkb.add_relation(RelationDescription::new(
            "IS4",
            "FlightRes",
            vec![
                AttributeDef::new("PName", DataType::Str),
                AttributeDef::new("Dest", DataType::Str),
            ],
        ))
        .unwrap();
        mkb
    }

    fn jc1() -> JoinConstraint {
        JoinConstraint::new(
            "JC1",
            "Customer",
            "FlightRes",
            Conjunction::new(vec![Clause::eq_attrs(
                AttrRef::new("Customer", "Name"),
                AttrRef::new("FlightRes", "PName"),
            )]),
        )
    }

    #[test]
    fn duplicate_relation_rejected() {
        let mut mkb = base();
        let err = mkb
            .add_relation(RelationDescription::new("IS9", "Customer", vec![]))
            .unwrap_err();
        assert!(matches!(err, MisdError::DuplicateRelation(_)));
    }

    #[test]
    fn join_validation() {
        let mut mkb = base();
        mkb.add_join(jc1()).unwrap();
        // Duplicate id.
        assert!(matches!(
            mkb.add_join(jc1()),
            Err(MisdError::DuplicateConstraintId(_))
        ));
        // Unknown endpoint.
        assert!(matches!(
            mkb.add_join(JoinConstraint::new(
                "JC9",
                "Customer",
                "Nope",
                Conjunction::empty()
            )),
            Err(MisdError::UnknownRelation(_))
        ));
        // Foreign attribute.
        assert!(matches!(
            mkb.add_join(JoinConstraint::new(
                "JC8",
                "Customer",
                "FlightRes",
                Conjunction::new(vec![Clause::eq_attrs(
                    AttrRef::new("Customer", "Name"),
                    AttrRef::new("Tour", "TourID"),
                )])
            )),
            Err(MisdError::ForeignAttrInJoin { .. })
        ));
        // Unknown attribute of a valid endpoint.
        assert!(matches!(
            mkb.add_join(JoinConstraint::new(
                "JC7",
                "Customer",
                "FlightRes",
                Conjunction::new(vec![Clause::eq_attrs(
                    AttrRef::new("Customer", "Ghost"),
                    AttrRef::new("FlightRes", "PName"),
                )])
            )),
            Err(MisdError::UnknownAttribute(_))
        ));
    }

    #[test]
    fn funcof_validation_and_covers() {
        let mut mkb = base();
        mkb.add_function_of(FunctionOf::new(
            "F1",
            AttrRef::new("Customer", "Name"),
            ScalarExpr::attr("FlightRes", "PName"),
        ))
        .unwrap();
        let target = AttrRef::new("Customer", "Name");
        let covers: Vec<_> = mkb.covers_of(&target).collect();
        assert_eq!(covers.len(), 1);
        assert_eq!(covers[0].id, "F1");

        // Multi-source expression rejected.
        let bad = FunctionOf::new(
            "F9",
            AttrRef::new("Customer", "Age"),
            ScalarExpr::binary(
                eve_relational::expr::ArithOp::Add,
                ScalarExpr::attr("FlightRes", "PName"),
                ScalarExpr::attr("Customer", "Name"),
            ),
        );
        assert!(matches!(
            mkb.add_function_of(bad),
            Err(MisdError::MultiSourceFunctionOf(_))
        ));
    }

    #[test]
    fn pc_validation() {
        let mut mkb = base();
        mkb.add_pc(PartialComplete::new(
            "PC1",
            ProjSel::new("FlightRes", vec![AttrName::new("PName")]),
            ExtentOp::Superset,
            ProjSel::new("Customer", vec![AttrName::new("Name")]),
        ))
        .unwrap();
        assert!(matches!(
            mkb.add_pc(PartialComplete::new(
                "PC2",
                ProjSel::new("FlightRes", vec![AttrName::new("PName")]),
                ExtentOp::Superset,
                ProjSel::new(
                    "Customer",
                    vec![AttrName::new("Name"), AttrName::new("Age")]
                ),
            )),
            Err(MisdError::PcArityMismatch(_))
        ));
    }

    #[test]
    fn queries() {
        let mut mkb = base();
        mkb.add_join(jc1()).unwrap();
        let c = RelName::new("Customer");
        let f = RelName::new("FlightRes");
        assert_eq!(mkb.joins_of(&c).count(), 1);
        assert_eq!(mkb.joins_between(&f, &c).count(), 1);
        assert!(mkb.join_by_id("JC1").is_some());
        assert!(mkb.join_by_id("JCX").is_none());
        assert!(mkb.has_attr(&AttrRef::new("Customer", "Age")));
        assert!(!mkb.has_attr(&AttrRef::new("Customer", "Ghost")));
        assert_eq!(mkb.relation_count(), 2);
    }

    #[test]
    fn order_constraint() {
        let mut mkb = base();
        mkb.add_order(OrderIntegrity {
            relation: RelName::new("Customer"),
            attrs: vec![AttrName::new("Name")],
        })
        .unwrap();
        assert_eq!(mkb.orders().len(), 1);
        assert!(mkb
            .add_order(OrderIntegrity {
                relation: RelName::new("Customer"),
                attrs: vec![AttrName::new("Ghost")],
            })
            .is_err());
    }
}

#[cfg(test)]
mod display_tests {
    use crate::text::parse_misd;

    #[test]
    fn mkb_display_lists_all_sections() {
        let mkb = parse_misd(
            "RELATION IS1 A(x int)
             RELATION IS2 B(x int)
             JOIN J1: A, B ON A.x = B.x
             FUNCOF F1: A.x = B.x
             PC P1: B(x) superset A(x)
             ORDER A BY x",
        )
        .unwrap();
        let s = mkb.to_string();
        assert!(s.contains("RELATION IS1 A(x: int)"), "{s}");
        assert!(s.contains("JOIN J1:"), "{s}");
        assert!(s.contains("FUNCOF F1:"), "{s}");
        assert!(s.contains("PC P1:"), "{s}");
        assert!(s.contains("ORDER A BY x"), "{s}");
    }
}
