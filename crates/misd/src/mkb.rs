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
//! project equal arities, order constraints must name an attribute. An
//! MKB accepted by these checks is internally consistent, which the CVS
//! algorithm relies on.
//!
//! The MKB is copy-on-write: every relation description and every
//! constraint sits behind its own [`Arc`], the relation map is a
//! persistent [`ChunkMap`], and each constraint list is a [`ChunkList`]
//! in declaration order. Cloning an MKB copies a handful of pointers.
//! Beside the lists the MKB keeps a relation index: for every relation,
//! the constraints that mention it with their list keys, each kind in
//! declaration order. Evolution (`crate::evolution`) asks the index
//! which constraints a change touches, and copies one chunk of the
//! relation map, of the index and of each constraint list it edits,
//! plus their spines. Consecutive versions share everything else, and a
//! list the change does not edit keeps its spine. A third `ChunkMap`
//! holds the join, function-of and PC constraints by id, so an insert
//! checks the id's uniqueness, and a lookup by id finds its constraint,
//! without scanning the constraint lists.

use crate::chunkmap::{ChunkList, ChunkMap};
use crate::constraint::{FunctionOf, JoinConstraint, OrderIntegrity, PartialComplete};
use crate::description::RelationDescription;
use crate::error::MisdError;
use eve_relational::{AttrRef, RelName};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A list of shared constraints in declaration order: cloning it copies
/// one pointer, editing one constraint copies its chunk and the spine.
pub type ConstraintList<T> = ChunkList<Arc<T>>;

/// A constraint as the relation index holds it: its key in its list and
/// the MKB's own `Arc`.
pub(crate) type Keyed<T> = (u64, Arc<T>);

/// The constraints that mention one relation, each kind in declaration
/// order.
#[derive(Clone, Default)]
pub(crate) struct Touching {
    joins: Vec<Keyed<JoinConstraint>>,
    funcofs: Vec<Keyed<FunctionOf>>,
    pcs: Vec<Keyed<PartialComplete>>,
    orders: Vec<Keyed<OrderIntegrity>>,
}

impl Touching {
    fn is_empty(&self) -> bool {
        self.joins.is_empty()
            && self.funcofs.is_empty()
            && self.pcs.is_empty()
            && self.orders.is_empty()
    }
}

/// The constraints of an index entry, without their keys.
fn values<T>(entry: &[Keyed<T>]) -> impl Iterator<Item = &T> {
    entry.iter().map(|(_, c)| c.as_ref())
}

/// Entries compare by their constraints: list keys depend on the edit
/// history, which equal MKBs need not share.
impl PartialEq for Touching {
    fn eq(&self, other: &Self) -> bool {
        values(&self.joins).eq(values(&other.joins))
            && values(&self.funcofs).eq(values(&other.funcofs))
            && values(&self.pcs).eq(values(&other.pcs))
            && values(&self.orders).eq(values(&other.orders))
    }
}

/// A constraint that carries an id, as the MKB's own `Arc`. Compared,
/// ordered and borrowed as its id, which is unique across the three
/// kinds.
#[derive(Clone)]
pub(crate) enum ById {
    Join(Arc<JoinConstraint>),
    FunctionOf(Arc<FunctionOf>),
    Pc(Arc<PartialComplete>),
}

impl ById {
    fn id(&self) -> &str {
        match self {
            ById::Join(j) => &j.id,
            ById::FunctionOf(f) => &f.id,
            ById::Pc(p) => &p.id,
        }
    }
}

impl Borrow<str> for ById {
    fn borrow(&self) -> &str {
        self.id()
    }
}

impl PartialEq for ById {
    fn eq(&self, other: &Self) -> bool {
        self.id() == other.id()
    }
}

impl Eq for ById {}

impl PartialOrd for ById {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ById {
    fn cmp(&self, other: &Self) -> Ordering {
        self.id().cmp(other.id())
    }
}

/// A constraint kind the MKB keeps in a list and in its relation index.
pub(crate) trait Indexed: Sized {
    /// Exactly the relations `touches` accepts.
    fn touched(&self) -> BTreeSet<RelName>;
    /// The constraint as an id-index entry (order constraints carry no
    /// id).
    fn id_entry(c: &Arc<Self>) -> Option<ById>;
    /// This kind's constraints in one index entry.
    fn of(t: &Touching) -> &Vec<Keyed<Self>>;
    fn of_mut(t: &mut Touching) -> &mut Vec<Keyed<Self>>;
    /// This kind's list in the MKB.
    fn list_mut(mkb: &mut MetaKnowledgeBase) -> &mut ConstraintList<Self>;
}

impl Indexed for JoinConstraint {
    fn touched(&self) -> BTreeSet<RelName> {
        [self.left.clone(), self.right.clone()]
            .into_iter()
            .collect()
    }
    fn id_entry(c: &Arc<Self>) -> Option<ById> {
        Some(ById::Join(Arc::clone(c)))
    }
    fn of(t: &Touching) -> &Vec<Keyed<Self>> {
        &t.joins
    }
    fn of_mut(t: &mut Touching) -> &mut Vec<Keyed<Self>> {
        &mut t.joins
    }
    fn list_mut(mkb: &mut MetaKnowledgeBase) -> &mut ConstraintList<Self> {
        &mut mkb.joins
    }
}

impl Indexed for FunctionOf {
    fn touched(&self) -> BTreeSet<RelName> {
        let mut rels = self.expr.relations();
        rels.insert(self.target.relation.clone());
        rels
    }
    fn id_entry(c: &Arc<Self>) -> Option<ById> {
        Some(ById::FunctionOf(Arc::clone(c)))
    }
    fn of(t: &Touching) -> &Vec<Keyed<Self>> {
        &t.funcofs
    }
    fn of_mut(t: &mut Touching) -> &mut Vec<Keyed<Self>> {
        &mut t.funcofs
    }
    fn list_mut(mkb: &mut MetaKnowledgeBase) -> &mut ConstraintList<Self> {
        &mut mkb.funcofs
    }
}

impl Indexed for PartialComplete {
    fn touched(&self) -> BTreeSet<RelName> {
        let mut rels = self.left.cond.relations();
        rels.extend(self.right.cond.relations());
        rels.insert(self.left.relation.clone());
        rels.insert(self.right.relation.clone());
        rels
    }
    fn id_entry(c: &Arc<Self>) -> Option<ById> {
        Some(ById::Pc(Arc::clone(c)))
    }
    fn of(t: &Touching) -> &Vec<Keyed<Self>> {
        &t.pcs
    }
    fn of_mut(t: &mut Touching) -> &mut Vec<Keyed<Self>> {
        &mut t.pcs
    }
    fn list_mut(mkb: &mut MetaKnowledgeBase) -> &mut ConstraintList<Self> {
        &mut mkb.pcs
    }
}

impl Indexed for OrderIntegrity {
    fn touched(&self) -> BTreeSet<RelName> {
        [self.relation.clone()].into_iter().collect()
    }
    fn id_entry(_: &Arc<Self>) -> Option<ById> {
        None
    }
    fn of(t: &Touching) -> &Vec<Keyed<Self>> {
        &t.orders
    }
    fn of_mut(t: &mut Touching) -> &mut Vec<Keyed<Self>> {
        &mut t.orders
    }
    fn list_mut(mkb: &mut MetaKnowledgeBase) -> &mut ConstraintList<Self> {
        &mut mkb.orders
    }
}

/// One constraint edit: a constraint as the index holds it, and what
/// replaces it (`None`: the constraint is dropped).
pub(crate) type EditOf<T> = (Keyed<T>, Option<Arc<T>>);

/// The meta knowledge base: relation descriptions plus semantic
/// constraints.
#[derive(Clone, Default, PartialEq)]
pub struct MetaKnowledgeBase {
    relations: ChunkMap<RelName, Arc<RelationDescription>>,
    joins: ConstraintList<JoinConstraint>,
    funcofs: ConstraintList<FunctionOf>,
    pcs: ConstraintList<PartialComplete>,
    orders: ConstraintList<OrderIntegrity>,
    /// Relation → the constraints that mention it, derived from the
    /// lists (so equal lists give equal indexes; entries compare without
    /// their list keys). Relations no constraint mentions have no entry.
    touching: ChunkMap<RelName, Arc<Touching>>,
    /// The join, function-of and PC constraints by id (derived from the
    /// lists too).
    ids: ChunkMap<ById, ()>,
}

impl fmt::Debug for MetaKnowledgeBase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The relation and id indexes are derived from the lists, and
        // the lists print their constraints without keys.
        f.debug_struct("MetaKnowledgeBase")
            .field("relations", &self.relations)
            .field("joins", &self.joins)
            .field("funcofs", &self.funcofs)
            .field("pcs", &self.pcs)
            .field("orders", &self.orders)
            .finish_non_exhaustive()
    }
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
        self.relations.insert(desc.name.clone(), Arc::new(desc));
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
        if self.ids.contains_key(id) {
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
        self.push(jc);
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
        self.push(f);
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
        self.push(pc);
        Ok(())
    }

    /// Add an order-integrity constraint. It must order by at least one
    /// attribute of a described relation.
    pub fn add_order(&mut self, oc: OrderIntegrity) -> Result<(), MisdError> {
        if !self.relations.contains_key(&oc.relation) {
            return Err(MisdError::UnknownRelation(oc.relation.clone()));
        }
        if oc.attrs.is_empty() {
            return Err(MisdError::EmptyOrder(oc.relation));
        }
        for a in &oc.attrs {
            self.check_attr(&AttrRef::new(oc.relation.clone(), a.clone()))?;
        }
        self.push(oc);
        Ok(())
    }

    /// Append a validated constraint to its list, to the index entry of
    /// every relation it mentions and to the id index.
    fn push<T: Indexed>(&mut self, c: T) {
        let c = Arc::new(c);
        if let Some(entry) = T::id_entry(&c) {
            self.ids.insert(entry, ());
        }
        let key = T::list_mut(self).push(Arc::clone(&c));
        for rel in c.touched() {
            self.index_append(&rel, (key, Arc::clone(&c)));
        }
    }

    /// Append `c` to `rel`'s index entry, creating the entry if needed.
    fn index_append<T: Indexed>(&mut self, rel: &RelName, c: Keyed<T>) {
        if let Some(t) = self.touching.get_mut(rel) {
            T::of_mut(Arc::make_mut(t)).push(c);
        } else {
            let mut t = Touching::default();
            T::of_mut(&mut t).push(c);
            self.touching.insert(rel.clone(), Arc::new(t));
        }
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
    pub fn relation_names(&self) -> impl ExactSizeIterator<Item = &RelName> {
        self.relations.keys()
    }

    /// All join constraints, in declaration order. [`ChunkList::ptr_eq`]
    /// on two versions' lists tells whether a change touched any join
    /// constraint.
    pub fn joins(&self) -> &ConstraintList<JoinConstraint> {
        &self.joins
    }

    /// Join constraints touching `rel`, in declaration order.
    pub fn joins_of<'a>(&'a self, rel: &RelName) -> impl Iterator<Item = &'a JoinConstraint> {
        self.touching
            .get(rel)
            .into_iter()
            .flat_map(|t| values(&t.joins))
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
        match self.by_id(id)? {
            ById::Join(j) => Some(j),
            _ => None,
        }
    }

    /// All function-of constraints, in declaration order (see
    /// [`MetaKnowledgeBase::joins`]).
    pub fn function_ofs(&self) -> &ConstraintList<FunctionOf> {
        &self.funcofs
    }

    /// Function-of constraints touching `rel` (as target or source
    /// relation), in declaration order.
    pub fn function_ofs_of<'a>(&'a self, rel: &RelName) -> impl Iterator<Item = &'a FunctionOf> {
        self.touching
            .get(rel)
            .into_iter()
            .flat_map(|t| values(&t.funcofs))
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
        match self.by_id(id)? {
            ById::FunctionOf(f) => Some(f),
            _ => None,
        }
    }

    /// All partial/complete constraints, in declaration order (see
    /// [`MetaKnowledgeBase::joins`]).
    pub fn pcs(&self) -> &ConstraintList<PartialComplete> {
        &self.pcs
    }

    /// Partial/complete constraints touching `rel`, in declaration order.
    pub fn pcs_of<'a>(&'a self, rel: &RelName) -> impl Iterator<Item = &'a PartialComplete> {
        self.touching
            .get(rel)
            .into_iter()
            .flat_map(|t| values(&t.pcs))
    }

    /// All order-integrity constraints, in declaration order.
    pub fn orders(&self) -> &ConstraintList<OrderIntegrity> {
        &self.orders
    }

    /// Number of described relations.
    pub fn relation_count(&self) -> usize {
        self.relations.len()
    }

    // ------------------------------------------------------------------
    // copy-on-write access used by MKB evolution (crate::evolution)
    // ------------------------------------------------------------------

    /// The relation map, for replacing descriptions.
    pub(crate) fn relations_mut(&mut self) -> &mut ChunkMap<RelName, Arc<RelationDescription>> {
        &mut self.relations
    }

    /// The constraints that mention `rel` (none: `None`).
    pub(crate) fn touching(&self, rel: &RelName) -> Option<&Arc<Touching>> {
        self.touching.get(rel)
    }

    /// The join, function-of or PC constraint with this id.
    pub(crate) fn by_id(&self, id: &str) -> Option<&ById> {
        match self.ids.lower_bound_by(|c| c.id() < id) {
            (_, Some((c, ()))) if c.id() == id => Some(c),
            _ => None,
        }
    }

    /// Apply edits of one constraint kind, given in declaration order,
    /// to its list and to the index. A replacement takes its constraint's
    /// key, so its place in the list, and mentions the same relations,
    /// except after a rename of a relation to a fresh name, which the
    /// index appends in order. A replacement keeps its constraint's id
    /// and takes its place in the id index; a dropped constraint leaves
    /// it. Without edits the list keeps its spine.
    pub(crate) fn apply_edits<T: Indexed>(&mut self, edits: &[EditOf<T>]) {
        for ((key, old), new) in edits {
            let list = T::list_mut(self);
            let was = match new {
                Some(n) => list.replace(*key, Arc::clone(n)),
                None => list.remove(*key),
            };
            debug_assert!(
                was.is_some_and(|was| Arc::ptr_eq(&was, old)),
                "every edit names a listed constraint"
            );
            if let Some(entry) = T::id_entry(old) {
                self.ids.remove(entry.id());
                if let Some(n) = new {
                    let replacement = T::id_entry(n).expect("a replacement is of the same kind");
                    debug_assert!(replacement == entry, "a replacement keeps its id");
                    self.ids.insert(replacement, ());
                }
            }
            let before = old.touched();
            let after = new.as_ref().map(|n| n.touched()).unwrap_or_default();
            for rel in &before {
                let t = self
                    .touching
                    .get_mut(rel)
                    .expect("the index holds every listed constraint");
                let t = Arc::make_mut(t);
                let entry = T::of_mut(t);
                let at = entry
                    .iter()
                    .position(|(k, _)| k == key)
                    .expect("the index holds every listed constraint");
                match new {
                    Some(n) if after.contains(rel) => entry[at].1 = Arc::clone(n),
                    _ => {
                        entry.remove(at);
                    }
                }
                if t.is_empty() {
                    self.touching.remove(rel);
                }
            }
            if let Some(n) = new {
                for rel in after.difference(&before) {
                    self.index_append(rel, (*key, Arc::clone(n)));
                }
            }
        }
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

    /// An order by no attribute is rejected: it would render as
    /// `ORDER R BY`, which the MISD parser does not accept.
    #[test]
    fn empty_order_rejected() {
        let mut mkb = base();
        let err = mkb
            .add_order(OrderIntegrity {
                relation: RelName::new("Customer"),
                attrs: vec![],
            })
            .unwrap_err();
        assert_eq!(err, MisdError::EmptyOrder(RelName::new("Customer")));
        assert!(mkb.orders().is_empty());
    }

    /// The relation index holds each constraint under exactly the
    /// relations it touches, in declaration order.
    #[test]
    fn index_follows_touches() {
        let mut mkb = base();
        mkb.add_relation(RelationDescription::new(
            "IS5",
            "Tour",
            vec![AttributeDef::new("Name", DataType::Str)],
        ))
        .unwrap();
        mkb.add_join(jc1()).unwrap();
        mkb.add_pc(PartialComplete::new(
            "PC1",
            ProjSel::new("FlightRes", vec![AttrName::new("PName")]),
            ExtentOp::Superset,
            ProjSel::new("Customer", vec![AttrName::new("Name")]).with_cond(Conjunction::new(
                vec![Clause::eq_attrs(
                    AttrRef::new("Tour", "Name"),
                    AttrRef::new("Customer", "Name"),
                )],
            )),
        ))
        .unwrap();
        for name in ["Customer", "FlightRes", "Tour"] {
            let rel = RelName::new(name);
            let joins: Vec<&str> = mkb.joins_of(&rel).map(|j| j.id.as_str()).collect();
            let want: Vec<&str> = mkb
                .joins()
                .iter()
                .filter(|j| j.touches(&rel))
                .map(|j| j.id.as_str())
                .collect();
            assert_eq!(joins, want, "joins of {name}");
            assert_eq!(mkb.pcs_of(&rel).count(), 1, "the PC mentions {name}");
        }
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
