//! Step 6 of CVS — the view-extent property **P3** of Def. 1:
//!
//! ```text
//! π_{B_V ∩ B_V'}(V')   VE_V   π_{B_V ∩ B_V'}(V)   for all IS states.
//! ```
//!
//! The paper notes this is a variant of *answering queries using views*
//! without the equivalence requirement and defers the full development to
//! future work; it names the mechanism, though: "We use the
//! partial/complete information constraints defined in MKB' to compare
//! the extents of the initial view V and the evolved view V'."
//!
//! We implement two complementary checkers (see DESIGN.md —
//! substitutions):
//!
//! * [`infer_extent`] — a **sound, conservative symbolic** checker. It
//!   composes per-effect verdicts:
//!   * dropping a dispensable condition *widens* the extent (`⊇`);
//!   * dropping `R` from the join without replacement widens (`⊇`) —
//!     every original combination still qualifies without the extra join
//!     partner;
//!   * joining in a cover relation `S` is certified by a PC constraint
//!     `π_{Ā_S}(S) θ π_{Ā_R}(R)` whose `R`-side attributes include every
//!     attribute of `R` the affected view fragment used (join attributes
//!     of `Min(H_R)` plus covered attributes) and whose sides correspond
//!     position-wise through function-of constraints;
//!   * a relation joined in without such a certificate yields `Unknown`.
//!
//!   The overall verdict is the meet of the effect verdicts. `Unknown`
//!   never asserts anything false — experiments `sweep_extent` validate
//!   the checker against the empirical one.
//!
//! * [`empirical_extent`] — evaluates both views on a concrete database
//!   and compares the projections onto the shared interface.

use crate::eval::evaluate_view;
use crate::index::MkbIndex;
use crate::mapping::RMapping;
use crate::replacement::Replacement;
use eve_esql::{ViewDefinition, ViewExtent};
use eve_misd::{ExtentOp, JoinConstraint, PartialComplete, ProjSel};
use eve_relational::{
    compare_extents, project, AttrName, AttrRef, Database, ExtentRelation, FuncRegistry, RelName,
    RelationalError, ScalarExpr,
};
use std::cell::OnceCell;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Symbolic verdict on `V' vs V` (read left to right: `V' <verdict> V`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExtentVerdict {
    /// Certified `V' ≡ V`.
    Equivalent,
    /// Certified `V' ⊇ V`.
    Superset,
    /// Certified `V' ⊆ V`.
    Subset,
    /// No certificate found.
    Unknown,
}

impl ExtentVerdict {
    /// Meet (greatest lower bound) of two effect verdicts: the composition
    /// of two transformations certifies only what both agree on.
    pub fn meet(self, other: ExtentVerdict) -> ExtentVerdict {
        use ExtentVerdict::*;
        match (self, other) {
            (Equivalent, x) | (x, Equivalent) => x,
            (Superset, Superset) => Superset,
            (Subset, Subset) => Subset,
            _ => Unknown,
        }
    }

    /// Symbol for reports.
    pub fn symbol(self) -> &'static str {
        match self {
            ExtentVerdict::Equivalent => "≡",
            ExtentVerdict::Superset => "⊇",
            ExtentVerdict::Subset => "⊆",
            ExtentVerdict::Unknown => "?",
        }
    }
}

impl fmt::Display for ExtentVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// Does a symbolic verdict satisfy the view's extent parameter
/// (property P3)? `Unknown` satisfies only `VE = ≈`.
pub fn satisfies_extent_param(param: ViewExtent, verdict: ExtentVerdict) -> bool {
    match param {
        ViewExtent::Any => true,
        ViewExtent::Superset => {
            matches!(verdict, ExtentVerdict::Superset | ExtentVerdict::Equivalent)
        }
        ViewExtent::Subset => matches!(verdict, ExtentVerdict::Subset | ExtentVerdict::Equivalent),
        ViewExtent::Equivalent => verdict == ExtentVerdict::Equivalent,
    }
}

fn verdict_of_op(op: ExtentOp) -> ExtentVerdict {
    match op {
        ExtentOp::Equivalent => ExtentVerdict::Equivalent,
        ExtentOp::Superset | ExtentOp::ProperSuperset => ExtentVerdict::Superset,
        ExtentOp::Subset | ExtentOp::ProperSubset => ExtentVerdict::Subset,
    }
}

/// Equality-congruence classes over attributes, built from the equality
/// clauses of the join constraints involved in the swap. Two attributes
/// equated (transitively) by the join chain correspond: `T.k = W.k` and
/// `W.k = C1.k` make `C1.k` a faithful stand-in for `T.k`.
#[derive(Clone)]
struct EqClasses<'a> {
    /// Small unordered member lists: the classes involved in one swap
    /// are a handful of attributes each, so linear scans beat ordered
    /// sets and their per-node allocations. The `Min(H_R)` part is
    /// built once per search ([`ExtentCtx`]) and cloned for a candidate
    /// only when a PC constraint needs it ([`SwapClasses`]); only the
    /// candidate's own joins are folded in then.
    classes: Vec<Vec<&'a AttrRef>>,
}

impl<'a> EqClasses<'a> {
    fn build(joins: &'a [Arc<JoinConstraint>]) -> Self {
        let mut eq = EqClasses {
            classes: Vec::new(),
        };
        eq.extend(joins);
        eq
    }

    /// Fold more join constraints into the classes. Extending a built
    /// set with further joins produces exactly the classes `build`
    /// would on the concatenated sequence.
    fn extend(&mut self, joins: &'a [Arc<JoinConstraint>]) {
        let classes = &mut self.classes;
        for jc in joins {
            for clause in jc.predicate.clauses() {
                if clause.op != eve_relational::CompareOp::Eq {
                    continue;
                }
                if let (ScalarExpr::Attr(a), ScalarExpr::Attr(b)) = (&clause.lhs, &clause.rhs) {
                    let ia = classes.iter().position(|c| c.contains(&a));
                    let ib = classes.iter().position(|c| c.contains(&b));
                    match (ia, ib) {
                        (Some(i), Some(j)) if i != j => {
                            let moved = classes.swap_remove(j.max(i));
                            classes[j.min(i)].extend(moved);
                        }
                        (Some(i), None) => {
                            classes[i].push(b);
                        }
                        (None, Some(j)) => {
                            classes[j].push(a);
                        }
                        (None, None) => {
                            classes.push(vec![a, b]);
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    fn equated(&self, a: &AttrRef, b: &AttrRef) -> bool {
        self.classes
            .iter()
            .any(|c| c.contains(&a) && c.contains(&b))
    }
}

/// The equality classes of one swap — the `Min(H_R)` classes plus the
/// candidate's own joins — built on first use. Most added relations
/// have no PC constraint that gets as far as comparing attributes, and
/// then the classes are never read.
struct SwapClasses<'a> {
    base: &'a EqClasses<'a>,
    joins: &'a [Arc<JoinConstraint>],
    built: OnceCell<EqClasses<'a>>,
}

impl<'a> SwapClasses<'a> {
    fn get(&self) -> &EqClasses<'a> {
        self.built.get_or_init(|| {
            let mut eq = self.base.clone();
            eq.extend(self.joins);
            eq
        })
    }
}

/// Do attributes `s` (of the cover relation) and `r` (of the dropped
/// relation) correspond — through a function-of constraint of the old
/// MKB, or through the equality-congruence of the join chains involved
/// in the swap?
///
/// The function-of test reads the index's cover map, which holds
/// exactly the old MKB's single-source function-ofs, keyed by target.
/// Both shapes that count are single-source: `F_{r, f(s)}` where `s` is
/// the only attribute of `f`, and `F_{s, r}`.
fn corresponds(index: &MkbIndex<'_>, eq: &SwapClasses<'_>, s: &AttrRef, r: &AttrRef) -> bool {
    if eq.get().equated(s, r) {
        return true;
    }
    index
        .covers_of(r)
        .iter()
        .any(|c| c.replacement.contains_attr(s) && c.replacement.all_attrs(&mut |a| a == s))
        || index
            .covers_of(s)
            .iter()
            .any(|c| matches!(&c.replacement, ScalarExpr::Attr(a) if a == r))
}

/// Try to certify the swap "drop `R`, join `added`" with a PC constraint
/// between `added` and `R`. `added` must account for the attributes of
/// `R` it covers in `rep`, plus `R`'s `Min(H_R)` join attributes, which
/// its chain transports.
fn certify_added_relation(
    index: &MkbIndex<'_>,
    ctx: &ExtentCtx<'_>,
    rep: &Replacement,
    eq: &SwapClasses<'_>,
    added: &RelName,
) -> ExtentVerdict {
    let target = &ctx.rm.target;
    let mut best = ExtentVerdict::Unknown;
    for pc in index.pcs_between(added, target) {
        let (s_side, op, r_side) = if &pc.left.relation == added && &pc.right.relation == target {
            (&pc.left, pc.op, &pc.right)
        } else if &pc.right.relation == added && &pc.left.relation == target {
            (&pc.right, pc.op.flipped(), &pc.left)
        } else {
            continue;
        };
        let covered = rep
            .covers
            .iter()
            .filter(|(_, cover)| &cover.source == added)
            .map(|(attr, _)| &attr.attr);
        if !pc_certifies(
            pc,
            index,
            eq,
            s_side,
            r_side,
            ctx.join_attrs.iter().chain(covered),
        ) {
            continue;
        }
        let v = verdict_of_op(op);
        best = combine_certificates(best, v);
    }
    best
}

fn pc_certifies<'a>(
    pc: &PartialComplete,
    index: &MkbIndex<'_>,
    eq: &SwapClasses<'_>,
    s_side: &ProjSel,
    r_side: &ProjSel,
    mut used_r_attrs: impl Iterator<Item = &'a AttrName>,
) -> bool {
    // Selections on either side would change the compared sets in ways we
    // do not model — require plain projections.
    if !pc.left.cond.is_empty() || !pc.right.cond.is_empty() {
        return false;
    }
    if s_side.attrs.len() != r_side.attrs.len() {
        return false;
    }
    // The R side must mention every attribute this relation accounts for.
    if !used_r_attrs.all(|a| r_side.attrs.contains(a)) {
        return false;
    }
    // Position-wise correspondence through function-of constraints or
    // join-chain equality congruence.
    let qualified = |side: &ProjSel, attr: &AttrName| AttrRef {
        relation: side.relation.clone(),
        attr: attr.clone(),
    };
    s_side
        .attrs
        .iter()
        .zip(&r_side.attrs)
        .all(|(s, r)| corresponds(index, eq, &qualified(s_side, s), &qualified(r_side, r)))
}

/// Two certificates between the same pair compose: `⊇` and `⊆` together
/// certify `≡`.
fn combine_certificates(a: ExtentVerdict, b: ExtentVerdict) -> ExtentVerdict {
    use ExtentVerdict::*;
    match (a, b) {
        (Unknown, x) | (x, Unknown) => x,
        (Equivalent, _) | (_, Equivalent) => Equivalent,
        (Superset, Subset) | (Subset, Superset) => Equivalent,
        (x, _) => x,
    }
}

/// Symbolically infer the relationship `V' vs V` for a rewriting built
/// from `rep`, where `dropped_conditions` counts *every* condition dropped
/// during assembly (from `C_Max/Min` and `C_Rest` alike).
///
/// Runs against a prebuilt [`crate::index::MkbIndex`]: the old MKB (PC
/// and function-of constraints referencing the deleted relation live
/// only there) comes from the index, and PC certificates are looked up
/// in its per-relation-pair buckets instead of scanning the full
/// constraint list for every added relation.
pub fn infer_extent_indexed(
    rm: &RMapping,
    rep: &Replacement,
    dropped_conditions: usize,
    index: &MkbIndex<'_>,
) -> ExtentVerdict {
    let ctx = ExtentCtx::new(rm, Arc::new(rm.surviving_relations()));
    infer_extent_with(&ctx, rep, dropped_conditions, index)
}

/// Per-search invariants of the extent inference: everything derived
/// from the R-mapping alone, computed once and reused across every
/// candidate of one rewriting search.
pub(crate) struct ExtentCtx<'a> {
    rm: &'a RMapping,
    /// `Min(H_R)` relations minus `R` — the search's own set, shared.
    survivors: Arc<BTreeSet<RelName>>,
    /// Join attributes of `R` in `Min(H_R)`: every relation of the
    /// replacement chain must transport them faithfully.
    join_attrs: BTreeSet<AttrName>,
    /// Equality classes of the `Min(H_R)` joins alone — the shared
    /// prefix of every candidate's congruence.
    base_eq: EqClasses<'a>,
}

impl<'a> ExtentCtx<'a> {
    /// `survivors` must be `rm.surviving_relations()`.
    pub(crate) fn new(rm: &'a RMapping, survivors: Arc<BTreeSet<RelName>>) -> Self {
        debug_assert_eq!(*survivors, rm.surviving_relations());
        let mut join_attrs: BTreeSet<AttrName> = BTreeSet::new();
        for clause in rm.min_joins.iter().flat_map(|jc| jc.predicate.clauses()) {
            clause.all_attrs(&mut |a| {
                if a.relation == rm.target {
                    join_attrs.insert(a.attr.clone());
                }
                true
            });
        }
        ExtentCtx {
            rm,
            survivors,
            join_attrs,
            base_eq: EqClasses::build(&rm.min_joins),
        }
    }
}

/// [`infer_extent_indexed`] with the per-search invariants hoisted into
/// an [`ExtentCtx`] — same verdict, and no per-candidate scratch: the
/// added relations and the attributes each must account for are
/// iterated, not collected, and the swap's equality classes are built
/// only if a PC constraint gets as far as comparing attributes.
pub(crate) fn infer_extent_with(
    ctx: &ExtentCtx<'_>,
    rep: &Replacement,
    dropped_conditions: usize,
    index: &MkbIndex<'_>,
) -> ExtentVerdict {
    let mut added = rep
        .relations
        .iter()
        .filter(|r| !ctx.survivors.contains(*r))
        .peekable();
    let eq = SwapClasses {
        base: &ctx.base_eq,
        joins: &rep.joins,
        built: OnceCell::new(),
    };

    let mut verdict = if added.peek().is_none() {
        // Pure drop: R leaves the join, nothing is added — widening.
        ExtentVerdict::Superset
    } else {
        let mut v = ExtentVerdict::Equivalent;
        for s in added {
            v = v.meet(certify_added_relation(index, ctx, rep, &eq, s));
            if v == ExtentVerdict::Unknown {
                // The meet of `Unknown` with anything is `Unknown`: no
                // later relation can change the verdict.
                break;
            }
        }
        v
    };

    if dropped_conditions > 0 {
        verdict = verdict.meet(ExtentVerdict::Superset);
    }
    verdict
}

/// Empirically compare `V'` against `V` on a concrete database: evaluate
/// both and compare the projections onto the interface columns they
/// share (by interface *name*). Reads as `V' <relation> V`.
pub fn empirical_extent(
    rewritten: &ViewDefinition,
    original: &ViewDefinition,
    db: &Database,
    funcs: &FuncRegistry,
) -> Result<ExtentRelation, RelationalError> {
    let v_new = evaluate_view(rewritten, db, funcs)?;
    let v_old = evaluate_view(original, db, funcs)?;

    let names_new: BTreeSet<AttrName> = rewritten.interface_names().into_iter().collect();
    let names_old: BTreeSet<AttrName> = original.interface_names().into_iter().collect();
    let common: Vec<AttrName> = names_new.intersection(&names_old).cloned().collect();

    let cols_new: Vec<(AttrRef, ScalarExpr)> = common
        .iter()
        .map(|n| {
            let src = AttrRef::new(rewritten.name.as_str(), n.clone());
            (AttrRef::new("common", n.clone()), ScalarExpr::Attr(src))
        })
        .collect();
    let cols_old: Vec<(AttrRef, ScalarExpr)> = common
        .iter()
        .map(|n| {
            let src = AttrRef::new(original.name.as_str(), n.clone());
            (AttrRef::new("common", n.clone()), ScalarExpr::Attr(src))
        })
        .collect();

    let p_new = project(&v_new, &cols_new, funcs)?;
    let p_old = project(&v_old, &cols_old, funcs)?;
    Ok(compare_extents(&p_new, &p_old))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meet_table() {
        use ExtentVerdict::*;
        assert_eq!(Equivalent.meet(Superset), Superset);
        assert_eq!(Superset.meet(Superset), Superset);
        assert_eq!(Subset.meet(Subset), Subset);
        assert_eq!(Superset.meet(Subset), Unknown);
        assert_eq!(Unknown.meet(Equivalent), Unknown);
    }

    #[test]
    fn certificates_compose_to_equivalence() {
        use ExtentVerdict::*;
        assert_eq!(combine_certificates(Superset, Subset), Equivalent);
        assert_eq!(combine_certificates(Unknown, Superset), Superset);
        assert_eq!(combine_certificates(Equivalent, Subset), Equivalent);
    }

    #[test]
    fn p3_satisfaction() {
        use ExtentVerdict::*;
        assert!(satisfies_extent_param(ViewExtent::Any, Unknown));
        assert!(satisfies_extent_param(ViewExtent::Superset, Superset));
        assert!(satisfies_extent_param(ViewExtent::Superset, Equivalent));
        assert!(!satisfies_extent_param(ViewExtent::Superset, Subset));
        assert!(!satisfies_extent_param(ViewExtent::Equivalent, Superset));
        assert!(satisfies_extent_param(ViewExtent::Subset, Subset));
        assert!(!satisfies_extent_param(ViewExtent::Subset, Unknown));
    }
}

#[cfg(test)]
mod infer_tests {
    use super::*;
    use crate::mapping::RMapping;
    use crate::replacement::{CoverChoice, Replacement};
    use eve_misd::{parse_misd, JoinConstraint, MetaKnowledgeBase};
    use eve_relational::RelName;
    use std::collections::BTreeMap;

    /// T (target) joined with W; cover relation Cov; optional PCs.
    fn mkb(pcs: &str) -> MetaKnowledgeBase {
        parse_misd(&format!(
            "RELATION IS1 T(k int, v int)
             RELATION IS2 W(k int, w int)
             RELATION IS3 Cov(k int, v int)
             JOIN JT: T, W ON T.k = W.k
             JOIN JC: W, Cov ON W.k = Cov.k
             FUNCOF Fk: T.k = Cov.k
             FUNCOF Fv: T.v = Cov.v
             {pcs}"
        ))
        .expect("test MKB parses")
    }

    /// Test shorthand: build a read-only index (same MKB on both sides —
    /// extent inference only consults the old MKB) and infer.
    fn infer_extent(
        rm: &RMapping,
        rep: &Replacement,
        dropped_conditions: usize,
        mkb: &MetaKnowledgeBase,
    ) -> ExtentVerdict {
        let opts = crate::options::CvsOptions::default();
        let index = crate::index::MkbIndex::new(mkb, mkb, &opts);
        infer_extent_indexed(rm, rep, dropped_conditions, &index)
    }

    /// The MKB's own `Arc` of the join constraint `id`.
    fn join(mkb: &MetaKnowledgeBase, id: &str) -> Arc<JoinConstraint> {
        let found = mkb.joins().iter().find(|j| j.id == id);
        Arc::clone(found.expect("join constraint declared"))
    }

    fn rm(mkb: &MetaKnowledgeBase) -> RMapping {
        RMapping {
            target: RelName::new("T"),
            max_relations: ["T", "W"].into_iter().map(RelName::new).collect(),
            min_joins: vec![join(mkb, "JT")],
            c_max_min: Vec::new(),
            rest_relations: Default::default(),
            c_rest: Vec::new(),
        }
    }

    fn rep(mkb: &MetaKnowledgeBase, with_cover: bool) -> Replacement {
        let mut covers = BTreeMap::new();
        let mut relations: std::collections::BTreeSet<RelName> =
            [RelName::new("W")].into_iter().collect();
        let mut joins = Vec::new();
        if with_cover {
            covers.insert(
                AttrRef::new("T", "v"),
                CoverChoice {
                    funcof_id: "Fv".into(),
                    source: RelName::new("Cov"),
                    replacement: ScalarExpr::attr("Cov", "v"),
                },
            );
            relations.insert(RelName::new("Cov"));
            joins.push(join(mkb, "JC"));
        }
        Replacement {
            covers: Arc::new(covers),
            relations,
            joins,
            c_max_min: Default::default(),
            dropped_conditions: Default::default(),
        }
    }

    #[test]
    fn pure_drop_is_superset() {
        let m = mkb("");
        let verdict = infer_extent(&rm(&m), &rep(&m, false), 0, &m);
        assert_eq!(verdict, ExtentVerdict::Superset);
    }

    #[test]
    fn uncertified_cover_is_unknown() {
        let m = mkb("");
        let verdict = infer_extent(&rm(&m), &rep(&m, true), 0, &m);
        assert_eq!(verdict, ExtentVerdict::Unknown);
    }

    #[test]
    fn pc_superset_certifies() {
        let m = mkb("PC P1: Cov(k, v) superset T(k, v)");
        let verdict = infer_extent(&rm(&m), &rep(&m, true), 0, &m);
        assert_eq!(verdict, ExtentVerdict::Superset);
    }

    #[test]
    fn both_directions_certify_equivalence() {
        let m = mkb("PC P1: Cov(k, v) superset T(k, v)
             PC P2: Cov(k, v) subset T(k, v)");
        let verdict = infer_extent(&rm(&m), &rep(&m, true), 0, &m);
        assert_eq!(verdict, ExtentVerdict::Equivalent);
    }

    #[test]
    fn equivalence_pc_certifies_directly() {
        let m = mkb("PC P1: Cov(k, v) equivalent T(k, v)");
        let verdict = infer_extent(&rm(&m), &rep(&m, true), 0, &m);
        assert_eq!(verdict, ExtentVerdict::Equivalent);
    }

    #[test]
    fn drops_degrade_equivalence_to_superset() {
        let m = mkb("PC P1: Cov(k, v) equivalent T(k, v)");
        let verdict = infer_extent(&rm(&m), &rep(&m, true), 2, &m);
        assert_eq!(verdict, ExtentVerdict::Superset);
    }

    #[test]
    fn subset_pc_with_drops_is_unknown() {
        let m = mkb("PC P1: Cov(k, v) subset T(k, v)");
        assert_eq!(
            infer_extent(&rm(&m), &rep(&m, true), 0, &m),
            ExtentVerdict::Subset
        );
        // Dropping conditions widens; combined with a subset swap the
        // direction is indeterminate.
        assert_eq!(
            infer_extent(&rm(&m), &rep(&m, true), 1, &m),
            ExtentVerdict::Unknown
        );
    }

    #[test]
    fn narrow_pc_does_not_certify() {
        // PC misses the covered attribute v: not a valid certificate.
        let m = mkb("PC P1: Cov(k) superset T(k)");
        assert_eq!(
            infer_extent(&rm(&m), &rep(&m, true), 0, &m),
            ExtentVerdict::Unknown
        );
    }

    #[test]
    fn conditional_pc_does_not_certify() {
        // Selections on PC sides are outside the rule's model.
        let m = mkb("PC P1: Cov(k, v) WHERE Cov.v > 0 superset T(k, v)");
        assert_eq!(
            infer_extent(&rm(&m), &rep(&m, true), 0, &m),
            ExtentVerdict::Unknown
        );
    }
}
