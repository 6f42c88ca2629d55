//! The MISD semantic constraints of Fig. 1.
//!
//! | Constraint | Paper syntax |
//! |------------|--------------|
//! | Type integrity | `TC_{R,A_i} = (R(A_i) ⊆ Type_i(A_i))` — folded into [`crate::description::RelationDescription`] attribute types |
//! | Order integrity | `OC_R = (R(A_1,…,A_n) ⊆ C(A_{i1},…,A_{ik}))` — [`OrderIntegrity`] |
//! | Join constraint | `JC_{R1,R2} = (C_1 AND … AND C_l)` — [`JoinConstraint`] |
//! | Function-of | `F_{R1.A, R2.B} = (R1.A = f(R2.B))` — [`FunctionOf`] |
//! | Partial/complete | `PC_{R1,R2} = (π_{A1}(σ_{C(B̄1)} R1) θ π_{A2}(σ_{C(B̄2)} R2))`, `θ ∈ {⊂,⊆,≡,⊇,⊃}` — [`PartialComplete`] |

use eve_relational::{AttrName, AttrRef, Conjunction, ExtentRelation, RelName, ScalarExpr};
use std::collections::BTreeSet;
use std::fmt;

/// Order-integrity constraint `OC_R`: the tuples of `R` are ordered by the
/// listed attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderIntegrity {
    /// The constrained relation.
    pub relation: RelName,
    /// The ordering attributes `A_{i1}, …, A_{ik}` (significant order).
    pub attrs: Vec<AttrName>,
}

impl fmt::Display for OrderIntegrity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ORDER {} BY ", self.relation)?;
        for (i, a) in self.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

/// A join constraint `JC_{R1,R2}`: a *default*, semantically meaningful
/// join condition between two relations — the hyperedges along which CVS
/// chains rewritings.
///
/// The predicate is a conjunction of primitive clauses over the attributes
/// of `left` and `right` only (not necessarily equijoin clauses — JC2 of
/// the running example includes `Customer.Age > 1`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinConstraint {
    /// Identifier (e.g. `JC1`), unique within the MKB.
    pub id: String,
    /// First relation.
    pub left: RelName,
    /// Second relation.
    pub right: RelName,
    /// `C_1 AND … AND C_l`.
    pub predicate: Conjunction,
}

impl JoinConstraint {
    /// Create a join constraint.
    pub fn new(
        id: impl Into<String>,
        left: impl Into<RelName>,
        right: impl Into<RelName>,
        predicate: Conjunction,
    ) -> Self {
        JoinConstraint {
            id: id.into(),
            left: left.into(),
            right: right.into(),
            predicate,
        }
    }

    /// Does this constraint connect `rel` (on either side)?
    pub fn touches(&self, rel: &RelName) -> bool {
        &self.left == rel || &self.right == rel
    }

    /// Given one endpoint, the other one — `None` when `rel` is not an
    /// endpoint.
    pub fn other(&self, rel: &RelName) -> Option<&RelName> {
        if &self.left == rel {
            Some(&self.right)
        } else if &self.right == rel {
            Some(&self.left)
        } else {
            None
        }
    }

    /// Does this constraint connect exactly the unordered pair
    /// `{r1, r2}`?
    pub fn connects(&self, r1: &RelName, r2: &RelName) -> bool {
        (&self.left == r1 && &self.right == r2) || (&self.left == r2 && &self.right == r1)
    }

    /// All attributes mentioned by the predicate.
    pub fn attrs(&self) -> BTreeSet<AttrRef> {
        self.predicate.attrs()
    }

    /// Does the join predicate reference `target`? Equivalent to
    /// `self.attrs().contains(target)` without materialising the set.
    pub fn contains_attr(&self, target: &AttrRef) -> bool {
        self.predicate.contains_attr(target)
    }
}

impl fmt::Display for JoinConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JOIN {}: {}, {} ON {}",
            self.id, self.left, self.right, self.predicate
        )
    }
}

/// A function-of constraint `F_{R1.A, R2.B} = (R1.A = f(R2.B))`.
///
/// Semantics (§2): *if* there exists a meaningful way of combining the two
/// relations (e.g. via join constraints), then for every tuple `t` of that
/// join relation, `t[R1.A] = f(t[R2.B])`. CVS Def. 3 (IV) uses these
/// constraints to find **covers**: relations whose attributes can replace
/// a dropped relation's attributes.
///
/// We generalise the right-hand side to an arbitrary scalar expression
/// over the attributes of a *single* source relation (F3 of the running
/// example is `(today() − Accident-Ins.Birthday)/365`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionOf {
    /// Identifier (e.g. `F3`), unique within the MKB.
    pub id: String,
    /// The defined attribute `R1.A`.
    pub target: AttrRef,
    /// The defining expression `f(R2.B…)`.
    pub expr: ScalarExpr,
}

impl FunctionOf {
    /// Create a function-of constraint.
    pub fn new(id: impl Into<String>, target: AttrRef, expr: ScalarExpr) -> Self {
        FunctionOf {
            id: id.into(),
            target,
            expr,
        }
    }

    /// The attributes of the source relation used by the expression.
    pub fn source_attrs(&self) -> BTreeSet<AttrRef> {
        self.expr.attrs()
    }

    /// The single source relation the expression draws from, or `None`
    /// when the expression is constant (or, invalidly, multi-relation —
    /// rejected by MKB validation).
    pub fn source_relation(&self) -> Option<RelName> {
        let rels: BTreeSet<RelName> = self.expr.relations();
        if rels.len() == 1 {
            rels.into_iter().next()
        } else {
            None
        }
    }

    /// Does this constraint mention `rel` (as target owner or source)?
    pub fn touches(&self, rel: &RelName) -> bool {
        &self.target.relation == rel || self.expr.references_relation(rel)
    }

    /// Does this constraint mention `attr` (as target or in its source
    /// expression)?
    pub(crate) fn mentions_attr(&self, attr: &AttrRef) -> bool {
        &self.target == attr || self.expr.contains_attr(attr)
    }
}

impl fmt::Display for FunctionOf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FUNCOF {}: {} = {}", self.id, self.target, self.expr)
    }
}

/// The containment operator `θ` of a partial/complete constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExtentOp {
    /// `⊂`
    ProperSubset,
    /// `⊆`
    Subset,
    /// `≡`
    Equivalent,
    /// `⊇`
    Superset,
    /// `⊃`
    ProperSuperset,
}

impl ExtentOp {
    /// Mathematical symbol.
    pub fn symbol(self) -> &'static str {
        match self {
            ExtentOp::ProperSubset => "⊂",
            ExtentOp::Subset => "⊆",
            ExtentOp::Equivalent => "≡",
            ExtentOp::Superset => "⊇",
            ExtentOp::ProperSuperset => "⊃",
        }
    }

    /// ASCII keyword used by the MISD textual format.
    pub fn keyword(self) -> &'static str {
        match self {
            ExtentOp::ProperSubset => "proper-subset",
            ExtentOp::Subset => "subset",
            ExtentOp::Equivalent => "equivalent",
            ExtentOp::Superset => "superset",
            ExtentOp::ProperSuperset => "proper-superset",
        }
    }

    /// Parse from keyword or symbol.
    pub fn parse(s: &str) -> Option<ExtentOp> {
        match s.to_ascii_lowercase().as_str() {
            "proper-subset" | "⊂" => Some(ExtentOp::ProperSubset),
            "subset" | "⊆" => Some(ExtentOp::Subset),
            "equivalent" | "equiv" | "≡" => Some(ExtentOp::Equivalent),
            "superset" | "⊇" => Some(ExtentOp::Superset),
            "proper-superset" | "⊃" => Some(ExtentOp::ProperSuperset),
            _ => None,
        }
    }

    /// The operator with sides swapped (`⊆` ↔ `⊇`).
    pub fn flipped(self) -> ExtentOp {
        match self {
            ExtentOp::ProperSubset => ExtentOp::ProperSuperset,
            ExtentOp::Subset => ExtentOp::Superset,
            ExtentOp::Equivalent => ExtentOp::Equivalent,
            ExtentOp::Superset => ExtentOp::Subset,
            ExtentOp::ProperSuperset => ExtentOp::ProperSubset,
        }
    }

    /// Is an observed [`ExtentRelation`] compatible with this declared
    /// operator (reading `left θ right`)?
    pub fn admits(self, observed: ExtentRelation) -> bool {
        match self {
            ExtentOp::ProperSubset => observed == ExtentRelation::ProperSubset,
            ExtentOp::Subset => observed.is_subset(),
            ExtentOp::Equivalent => observed.is_equivalent(),
            ExtentOp::Superset => observed.is_superset(),
            ExtentOp::ProperSuperset => observed == ExtentRelation::ProperSuperset,
        }
    }
}

impl fmt::Display for ExtentOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// One side of a partial/complete constraint: `π_attrs(σ_cond(relation))`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProjSel {
    /// The relation.
    pub relation: RelName,
    /// Projected attributes (order is significant — sides are compared
    /// positionally).
    pub attrs: Vec<AttrName>,
    /// Selection condition (empty = no selection).
    pub cond: Conjunction,
}

impl ProjSel {
    /// Projection without selection.
    pub fn new(relation: impl Into<RelName>, attrs: Vec<AttrName>) -> Self {
        ProjSel {
            relation: relation.into(),
            attrs,
            cond: Conjunction::empty(),
        }
    }

    /// Add a selection condition (builder style).
    pub fn with_cond(mut self, cond: Conjunction) -> Self {
        self.cond = cond;
        self
    }

    /// Does this side mention `rel` (as its relation or in its
    /// selection)?
    pub(crate) fn touches(&self, rel: &RelName) -> bool {
        &self.relation == rel || self.cond.references_relation(rel)
    }

    /// Does this side project or select on `attr`? Equivalent to
    /// `attr_refs().contains(attr) || cond.attrs().contains(attr)`
    /// without materialising either.
    pub(crate) fn mentions_attr(&self, attr: &AttrRef) -> bool {
        (self.relation == attr.relation && self.attrs.contains(&attr.attr))
            || self.cond.contains_attr(attr)
    }

    /// Qualified projected attributes.
    pub fn attr_refs(&self) -> Vec<AttrRef> {
        self.attrs
            .iter()
            .map(|a| AttrRef::new(self.relation.clone(), a.clone()))
            .collect()
    }
}

impl fmt::Display for ProjSel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.relation)?;
        for (i, a) in self.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")?;
        if !self.cond.is_empty() {
            write!(f, " WHERE {}", self.cond)?;
        }
        Ok(())
    }
}

/// A partial/complete-information constraint
/// `PC_{R1,R2} = (π_{A1}(σ_{C1} R1) θ π_{A2}(σ_{C2} R2))`.
///
/// These constraints are what Step 6 of CVS uses to decide whether a
/// rewriting satisfies the view-extent parameter (property P3 of Def. 1):
/// e.g. constraint (iv) of Example 4 —
/// `π_{Name,PAddr}(Person) ⊇ π_{Name,Addr}(Customer)` — certifies that
/// rerouting the address through `Person` can only *add* tuples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialComplete {
    /// Identifier (e.g. `PC1`), unique within the MKB.
    pub id: String,
    /// Left side.
    pub left: ProjSel,
    /// Containment operator.
    pub op: ExtentOp,
    /// Right side.
    pub right: ProjSel,
}

impl PartialComplete {
    /// Create a partial/complete constraint.
    pub fn new(id: impl Into<String>, left: ProjSel, op: ExtentOp, right: ProjSel) -> Self {
        PartialComplete {
            id: id.into(),
            left,
            op,
            right,
        }
    }

    /// Does this constraint mention `rel` on either side?
    pub fn touches(&self, rel: &RelName) -> bool {
        self.left.touches(rel) || self.right.touches(rel)
    }

    /// Does either side project or select on `attr`?
    pub(crate) fn mentions_attr(&self, attr: &AttrRef) -> bool {
        self.left.mentions_attr(attr) || self.right.mentions_attr(attr)
    }
}

impl fmt::Display for PartialComplete {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PC {}: {} {} {}",
            self.id,
            self.left,
            self.op.keyword(),
            self.right
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eve_relational::{Clause, CompareOp};

    #[test]
    fn join_constraint_endpoints() {
        let jc = JoinConstraint::new(
            "JC1",
            "Customer",
            "FlightRes",
            Conjunction::new(vec![Clause::eq_attrs(
                AttrRef::new("Customer", "Name"),
                AttrRef::new("FlightRes", "PName"),
            )]),
        );
        let c = RelName::new("Customer");
        let f = RelName::new("FlightRes");
        let t = RelName::new("Tour");
        assert!(jc.touches(&c));
        assert!(jc.connects(&f, &c));
        assert_eq!(jc.other(&c), Some(&f));
        assert_eq!(jc.other(&t), None);
    }

    #[test]
    fn function_of_source_relation() {
        let f = FunctionOf::new(
            "F3",
            AttrRef::new("Customer", "Age"),
            ScalarExpr::binary(
                eve_relational::expr::ArithOp::Div,
                ScalarExpr::binary(
                    eve_relational::expr::ArithOp::Sub,
                    ScalarExpr::call("today", vec![]),
                    ScalarExpr::attr("Accident-Ins", "Birthday"),
                ),
                ScalarExpr::lit(365i64),
            ),
        );
        assert_eq!(f.source_relation(), Some(RelName::new("Accident-Ins")));
        assert!(f.touches(&RelName::new("Customer")));
        assert!(f.touches(&RelName::new("Accident-Ins")));
        assert!(!f.touches(&RelName::new("Tour")));
    }

    #[test]
    fn extent_op_admits() {
        use ExtentRelation::*;
        assert!(ExtentOp::Superset.admits(Equivalent));
        assert!(ExtentOp::Superset.admits(ProperSuperset));
        assert!(!ExtentOp::Superset.admits(ProperSubset));
        assert!(ExtentOp::Subset.admits(ProperSubset));
        assert!(!ExtentOp::ProperSubset.admits(Equivalent));
        assert!(ExtentOp::Equivalent.admits(Equivalent));
        assert!(!ExtentOp::Equivalent.admits(Incomparable));
    }

    #[test]
    fn extent_op_roundtrip_and_flip() {
        for op in [
            ExtentOp::ProperSubset,
            ExtentOp::Subset,
            ExtentOp::Equivalent,
            ExtentOp::Superset,
            ExtentOp::ProperSuperset,
        ] {
            assert_eq!(ExtentOp::parse(op.keyword()), Some(op));
            assert_eq!(ExtentOp::parse(op.symbol()), Some(op));
            assert_eq!(op.flipped().flipped(), op);
        }
    }

    #[test]
    fn projsel_display() {
        let ps = ProjSel::new(
            "Person",
            vec![AttrName::new("Name"), AttrName::new("PAddr")],
        );
        assert_eq!(ps.to_string(), "Person(Name, PAddr)");
        let with_cond = ps.with_cond(Conjunction::new(vec![Clause::new(
            ScalarExpr::attr("Person", "Name"),
            CompareOp::Ne,
            ScalarExpr::Const(eve_relational::Value::Null),
        )]));
        assert!(with_cond.to_string().contains("WHERE"));
    }

    #[test]
    fn pc_touches() {
        let pc = PartialComplete::new(
            "PC1",
            ProjSel::new("Person", vec![AttrName::new("Name")]),
            ExtentOp::Superset,
            ProjSel::new("Customer", vec![AttrName::new("Name")]),
        );
        assert!(pc.touches(&RelName::new("Person")));
        assert!(pc.touches(&RelName::new("Customer")));
        assert!(!pc.touches(&RelName::new("Tour")));
    }
}
