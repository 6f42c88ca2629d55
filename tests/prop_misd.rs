//! Property-based tests for the MISD layer: textual round-trips,
//! algebraic properties of MKB evolution, and copy-on-write `evolve`
//! against a deep-copy reference.

use eve::misd::chunkmap::{ChunkList, CHUNK};
use eve::misd::{
    evolve, infer_changes, parse_misd, render_misd, CapabilityChange, ExtentOp, MetaKnowledgeBase,
    MisdError, OrderIntegrity, PartialComplete, ProjSel,
};
use eve::relational::{AttrName, AttrRef, Clause, CompareOp, Conjunction, RelName, ScalarExpr};
use eve::workload::{ChangeSource, SynthConfig, SynthWorkload, Topology};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

/// The deep-copy `evolve` the copy-on-write one replaced, kept as its
/// reference: copy every description and constraint, edit the copies in
/// place, and rebuild the MKB through its validated insertion API.
mod reference {
    use eve::misd::{
        CapabilityChange, FunctionOf, JoinConstraint, MetaKnowledgeBase, MisdError, OrderIntegrity,
        PartialComplete, ProjSel, RelationDescription,
    };
    use eve::relational::{AttrName, AttrRef, RelName, ScalarExpr};
    use std::collections::BTreeMap;

    struct Owned {
        relations: BTreeMap<RelName, RelationDescription>,
        joins: Vec<JoinConstraint>,
        funcofs: Vec<FunctionOf>,
        pcs: Vec<PartialComplete>,
        orders: Vec<OrderIntegrity>,
    }

    fn copy(mkb: &MetaKnowledgeBase) -> Owned {
        Owned {
            relations: mkb
                .relations()
                .map(|d| (d.name.clone(), d.clone()))
                .collect(),
            joins: mkb.joins().iter().map(|j| (**j).clone()).collect(),
            funcofs: mkb.function_ofs().iter().map(|f| (**f).clone()).collect(),
            pcs: mkb.pcs().iter().map(|p| (**p).clone()).collect(),
            orders: mkb.orders().iter().map(|o| (**o).clone()).collect(),
        }
    }

    fn rebuild(o: Owned) -> MetaKnowledgeBase {
        let mut mkb = MetaKnowledgeBase::new();
        for d in o.relations.into_values() {
            mkb.add_relation(d).expect("evolved relation");
        }
        for j in o.joins {
            mkb.add_join(j).expect("evolved join");
        }
        for f in o.funcofs {
            mkb.add_function_of(f).expect("evolved function-of");
        }
        for p in o.pcs {
            mkb.add_pc(p).expect("evolved PC");
        }
        for oc in o.orders {
            mkb.add_order(oc).expect("evolved order");
        }
        mkb
    }

    pub fn evolve(
        mkb: &MetaKnowledgeBase,
        change: &CapabilityChange,
    ) -> Result<MetaKnowledgeBase, MisdError> {
        let mut out = copy(mkb);
        match change {
            CapabilityChange::AddRelation(desc) => {
                if out.relations.contains_key(&desc.name) {
                    return Err(MisdError::DuplicateRelation(desc.name.clone()));
                }
                out.relations.insert(desc.name.clone(), desc.clone());
            }
            CapabilityChange::DeleteRelation(rel) => {
                if out.relations.remove(rel).is_none() {
                    return Err(MisdError::UnknownRelation(rel.clone()));
                }
                out.joins.retain(|j| !j.touches(rel));
                out.funcofs.retain(|f| !f.touches(rel));
                out.pcs.retain(|p| !p.touches(rel));
                out.orders.retain(|o| &o.relation != rel);
            }
            CapabilityChange::RenameRelation { from, to } => {
                rename_relation(&mut out, from, to)?;
            }
            CapabilityChange::AddAttribute { relation, attr } => {
                let desc = out
                    .relations
                    .get_mut(relation)
                    .ok_or_else(|| MisdError::UnknownRelation(relation.clone()))?;
                if desc.has_attr(&attr.name) {
                    return Err(MisdError::NameCollision(format!(
                        "{relation}.{}",
                        attr.name
                    )));
                }
                desc.attrs.push(attr.clone());
            }
            CapabilityChange::DeleteAttribute(attr) => {
                delete_attribute(&mut out, attr)?;
            }
            CapabilityChange::RenameAttribute { from, to } => {
                rename_attribute(&mut out, from, to)?;
            }
        }
        Ok(rebuild(out))
    }

    fn rename_relation(out: &mut Owned, from: &RelName, to: &RelName) -> Result<(), MisdError> {
        if out.relations.contains_key(to) {
            return Err(MisdError::NameCollision(to.to_string()));
        }
        let mut desc = out
            .relations
            .remove(from)
            .ok_or_else(|| MisdError::UnknownRelation(from.clone()))?;
        desc.name = to.clone();
        out.relations.insert(to.clone(), desc);
        for j in &mut out.joins {
            if &j.left == from {
                j.left = to.clone();
            }
            if &j.right == from {
                j.right = to.clone();
            }
            j.predicate = j.predicate.rename_relation(from, to);
        }
        for f in &mut out.funcofs {
            if &f.target.relation == from {
                f.target = AttrRef::new(to.clone(), f.target.attr.clone());
            }
            f.expr = f.expr.rename_relation(from, to);
        }
        for p in &mut out.pcs {
            for side in [&mut p.left, &mut p.right] {
                if &side.relation == from {
                    side.relation = to.clone();
                }
                side.cond = side.cond.rename_relation(from, to);
            }
        }
        for o in &mut out.orders {
            if &o.relation == from {
                o.relation = to.clone();
            }
        }
        Ok(())
    }

    fn delete_attribute(out: &mut Owned, attr: &AttrRef) -> Result<(), MisdError> {
        let desc = out
            .relations
            .get_mut(&attr.relation)
            .ok_or_else(|| MisdError::UnknownRelation(attr.relation.clone()))?;
        if !desc.remove_attr(&attr.attr) {
            return Err(MisdError::UnknownAttribute(attr.clone()));
        }
        out.joins.retain(|j| !j.attrs().contains(attr));
        out.funcofs
            .retain(|f| &f.target != attr && !f.source_attrs().contains(attr));
        out.pcs.retain(|p| {
            let mentions = |side: &ProjSel| {
                side.attr_refs().contains(attr) || side.cond.attrs().contains(attr)
            };
            !mentions(&p.left) && !mentions(&p.right)
        });
        for o in &mut out.orders {
            if o.relation == attr.relation {
                if let Some(pos) = o.attrs.iter().position(|a| a == &attr.attr) {
                    o.attrs.truncate(pos);
                }
            }
        }
        out.orders.retain(|o| !o.attrs.is_empty());
        Ok(())
    }

    fn rename_attribute(out: &mut Owned, from: &AttrRef, to: &AttrName) -> Result<(), MisdError> {
        let desc = out
            .relations
            .get_mut(&from.relation)
            .ok_or_else(|| MisdError::UnknownRelation(from.relation.clone()))?;
        if desc.has_attr(to) {
            return Err(MisdError::NameCollision(format!("{}.{to}", from.relation)));
        }
        if !desc.rename_attr(&from.attr, to.clone()) {
            return Err(MisdError::UnknownAttribute(from.clone()));
        }
        let new_ref = ScalarExpr::Attr(AttrRef::new(from.relation.clone(), to.clone()));
        for j in &mut out.joins {
            j.predicate = j.predicate.substitute(from, &new_ref);
        }
        for f in &mut out.funcofs {
            if &f.target == from {
                f.target = AttrRef::new(from.relation.clone(), to.clone());
            }
            f.expr = f.expr.substitute(from, &new_ref);
        }
        for p in &mut out.pcs {
            for side in [&mut p.left, &mut p.right] {
                if side.relation == from.relation {
                    for a in &mut side.attrs {
                        if a == &from.attr {
                            *a = to.clone();
                        }
                    }
                }
                side.cond = side.cond.substitute(from, &new_ref);
            }
        }
        for o in &mut out.orders {
            if o.relation == from.relation {
                for a in &mut o.attrs {
                    if a == &from.attr {
                        *a = to.clone();
                    }
                }
            }
        }
        Ok(())
    }
}

/// A synthetic MKB plus what the generator never declares: order
/// constraints and a PC whose selection mentions a third relation. An
/// order by no attribute is rejected.
fn enriched_mkb(cfg: &SynthConfig, seed: u64) -> MetaKnowledgeBase {
    let mut mkb = SynthWorkload::random(cfg, seed).mkb;
    let descs: Vec<_> = mkb.relations().cloned().collect();
    for d in descs.iter().step_by(2) {
        let attrs = d
            .attrs
            .iter()
            .rev()
            .take(2)
            .map(|a| a.name.clone())
            .collect();
        mkb.add_order(OrderIntegrity {
            relation: d.name.clone(),
            attrs,
        })
        .expect("attributes of a described relation");
    }
    assert_eq!(
        mkb.add_order(OrderIntegrity {
            relation: descs[0].name.clone(),
            attrs: vec![],
        }),
        Err(MisdError::EmptyOrder(descs[0].name.clone())),
        "an empty order is rejected"
    );
    if let [a, b, c, ..] = descs.as_slice() {
        let cond = Conjunction::new(vec![Clause::new(
            ScalarExpr::attr(c.name.clone(), "k"),
            CompareOp::Ne,
            ScalarExpr::lit(0i64),
        )]);
        mkb.add_pc(PartialComplete::new(
            "PCX",
            ProjSel::new(a.name.clone(), vec![AttrName::new("k")]).with_cond(cond),
            ExtentOp::Subset,
            ProjSel::new(b.name.clone(), vec![AttrName::new("k")]),
        ))
        .expect("valid PC");
    }
    mkb
}

/// Changes every operator rejects on `mkb`: the two `evolve`s must fail
/// with the same error.
fn rejected_changes(mkb: &MetaKnowledgeBase) -> Vec<CapabilityChange> {
    let names: Vec<RelName> = mkb.relation_names().cloned().collect();
    let ghost = RelName::new("Ghost");
    let (a, b) = (names[0].clone(), names[1].clone());
    let attrs = &mkb.relation(&a).expect("described").attrs;
    let mut out = vec![
        CapabilityChange::AddRelation(mkb.relation(&a).unwrap().clone()),
        CapabilityChange::DeleteRelation(ghost.clone()),
        CapabilityChange::RenameRelation {
            from: a.clone(),
            to: b.clone(),
        },
        CapabilityChange::RenameRelation {
            from: ghost.clone(),
            to: RelName::new("Ghost2"),
        },
        CapabilityChange::AddAttribute {
            relation: a.clone(),
            attr: attrs[0].clone(),
        },
        CapabilityChange::DeleteAttribute(AttrRef::new(a.clone(), "nope")),
        CapabilityChange::DeleteAttribute(AttrRef::new(ghost, "k")),
        CapabilityChange::RenameAttribute {
            from: AttrRef::new(a.clone(), "nope"),
            to: AttrName::new("x"),
        },
    ];
    if let [first, .., last] = attrs.as_slice() {
        out.push(CapabilityChange::RenameAttribute {
            from: AttrRef::new(a, first.name.clone()),
            to: last.name.clone(),
        });
    }
    out
}

/// Does `change` mention this join / function-of / PC / order? What the
/// copy-on-write `evolve` may replace; everything else it must share.
struct Mentions<'c>(&'c CapabilityChange);

impl Mentions<'_> {
    fn relation(&self) -> Option<&RelName> {
        match self.0 {
            CapabilityChange::DeleteRelation(r) => Some(r),
            CapabilityChange::RenameRelation { from, .. } => Some(from),
            _ => None,
        }
    }

    fn attr(&self) -> Option<&AttrRef> {
        match self.0 {
            CapabilityChange::DeleteAttribute(a) => Some(a),
            CapabilityChange::RenameAttribute { from, .. } => Some(from),
            _ => None,
        }
    }

    fn join(&self, j: &eve::misd::JoinConstraint) -> bool {
        self.relation()
            .is_some_and(|r| j.touches(r) || j.predicate.relations().contains(r))
            || self.attr().is_some_and(|a| j.attrs().contains(a))
    }

    fn funcof(&self, f: &eve::misd::FunctionOf) -> bool {
        self.relation().is_some_and(|r| f.touches(r))
            || self
                .attr()
                .is_some_and(|a| &f.target == a || f.source_attrs().contains(a))
    }

    fn pc(&self, p: &PartialComplete) -> bool {
        let side = |s: &ProjSel| {
            self.relation()
                .is_some_and(|r| &s.relation == r || s.cond.relations().contains(r))
                || self
                    .attr()
                    .is_some_and(|a| s.attr_refs().contains(a) || s.cond.attrs().contains(a))
        };
        side(&p.left) || side(&p.right)
    }

    fn order(&self, o: &OrderIntegrity) -> bool {
        self.relation().is_some_and(|r| &o.relation == r)
            || self
                .attr()
                .is_some_and(|a| o.relation == a.relation && o.attrs.contains(&a.attr))
    }

    /// Relations whose description the change rewrites.
    fn described(&self) -> Option<&RelName> {
        match self.0 {
            CapabilityChange::AddAttribute { relation, .. } => Some(relation),
            _ => self.relation().or(self.attr().map(|a| &a.relation)),
        }
    }
}

/// Every element of `old` the change does not mention is, by pointer,
/// an element of `new`; when it mentions none, `new` is `old`'s list.
fn assert_shared<T>(
    old: &ChunkList<Arc<T>>,
    new: &ChunkList<Arc<T>>,
    mentioned: impl Fn(&T) -> bool,
    what: &str,
) {
    let kept: HashSet<*const T> = new.iter().map(Arc::as_ptr).collect();
    let mut any = false;
    for x in old.iter() {
        if mentioned(x) {
            any = true;
        } else {
            assert!(
                kept.contains(&Arc::as_ptr(x)),
                "an unmentioned {what} was copied"
            );
        }
    }
    if !any {
        assert!(
            ChunkList::ptr_eq(old, new),
            "an untouched {what} list was copied"
        );
    }
}

fn assert_sharing(
    before: &MetaKnowledgeBase,
    after: &MetaKnowledgeBase,
    change: &CapabilityChange,
) {
    let m = Mentions(change);
    for d in before.relations() {
        if Some(&d.name) != m.described() {
            let kept = after
                .relation(&d.name)
                .expect("undeleted relation survives");
            assert!(
                std::ptr::eq(d, kept),
                "description of {} copied by {change}",
                d.name
            );
        }
    }
    assert_shared(before.joins(), after.joins(), |j| m.join(j), "join");
    assert_shared(
        before.function_ofs(),
        after.function_ofs(),
        |f| m.funcof(f),
        "function-of",
    );
    assert_shared(before.pcs(), after.pcs(), |p| m.pc(p), "PC");
    let (old_orders, new_orders) = (before.orders(), after.orders());
    let kept: HashSet<*const OrderIntegrity> = new_orders.iter().map(Arc::as_ptr).collect();
    for o in old_orders.iter().filter(|o| !m.order(o)) {
        assert!(
            kept.contains(&Arc::as_ptr(o)),
            "an unmentioned order was copied by {change}"
        );
    }
}

fn config() -> impl Strategy<Value = SynthConfig> {
    sized_config(3usize..20)
}

/// MKBs of 4–8 map chunks, so the relation map and the relation index
/// split into several chunks.
fn multi_chunk_config() -> impl Strategy<Value = SynthConfig> {
    sized_config(4 * CHUNK..8 * CHUNK + 1)
}

fn sized_config(n_relations: std::ops::Range<usize>) -> impl Strategy<Value = SynthConfig> {
    (n_relations, 0usize..10, 1usize..4, 0.0f64..=1.0).prop_map(
        |(n_relations, extra, cover_count, pc_fraction)| SynthConfig {
            n_relations,
            topology: Topology::Random { extra },
            cover_count,
            pc_fraction,
            ..SynthConfig::default()
        },
    )
}

/// Copy-on-write `evolve` equals the deep-copy reference over a random
/// change stream: same MKB (`PartialEq`, which compares the relation
/// index too), same rendered text, same errors on inadmissible changes.
fn check_evolve_matches_reference(cfg: &SynthConfig, seed: u64) -> Result<(), TestCaseError> {
    let mut mkb = enriched_mkb(cfg, seed);
    let mut source = ChangeSource::new(seed);
    for _ in 0..12 {
        for bad in rejected_changes(&mkb) {
            prop_assert_eq!(
                evolve(&mkb, &bad).err(),
                reference::evolve(&mkb, &bad).err()
            );
        }
        let Some(change) = source.next(&mkb) else {
            break;
        };
        let got = evolve(&mkb, &change).expect("ChangeSource draws admissible changes");
        let want = reference::evolve(&mkb, &change).expect("the reference agrees");
        prop_assert_eq!(render_misd(&got), render_misd(&want), "{}", change);
        prop_assert_eq!(&got, &want, "{}", change);
        mkb = got;
    }
    Ok(())
}

/// `evolve` copies only what the change mentions: every other
/// description and constraint is the predecessor's own `Arc`.
fn check_evolve_shares(cfg: &SynthConfig, seed: u64) -> Result<(), TestCaseError> {
    let mut mkb = enriched_mkb(cfg, seed);
    let mut source = ChangeSource::new(seed ^ 1);
    for _ in 0..12 {
        let Some(change) = source.next(&mkb) else {
            break;
        };
        let next = evolve(&mkb, &change).expect("admissible");
        assert_sharing(&mkb, &next, &change);
        mkb = next;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `parse(render(mkb)) == mkb` for arbitrary synthetic MKBs.
    #[test]
    fn misd_roundtrip(cfg in config(), seed in 0u64..1000) {
        let w = SynthWorkload::random(&cfg, seed);
        let text = render_misd(&w.mkb);
        let back = parse_misd(&text)
            .unwrap_or_else(|e| panic!("rendered MISD failed to parse: {e}\n{text}"));
        prop_assert_eq!(back, w.mkb);
    }

    /// Deleting a relation removes every trace of it from MKB'.
    #[test]
    fn delete_relation_leaves_no_trace(cfg in config(), seed in 0u64..1000) {
        let w = SynthWorkload::random(&cfg, seed);
        let target = w.target.clone();
        let mkb2 = evolve(&w.mkb, &CapabilityChange::DeleteRelation(target.clone()))
            .expect("target described");
        prop_assert!(!mkb2.contains_relation(&target));
        prop_assert!(mkb2.joins().iter().all(|j| !j.touches(&target)));
        prop_assert!(mkb2.function_ofs().iter().all(|f| !f.touches(&target)));
        prop_assert!(mkb2.pcs().iter().all(|p| !p.touches(&target)));
        // And the result still round-trips through the textual format.
        let text = render_misd(&mkb2);
        prop_assert_eq!(parse_misd(&text).expect("MKB' renders validly"), mkb2);
    }

    /// Rename is invertible: renaming A→B then B→A restores the MKB.
    #[test]
    fn rename_relation_invertible(cfg in config(), seed in 0u64..1000) {
        let w = SynthWorkload::random(&cfg, seed);
        let from = w.target.clone();
        let to = RelName::new("Zz-Renamed");
        let fwd = evolve(&w.mkb, &CapabilityChange::RenameRelation {
            from: from.clone(),
            to: to.clone(),
        }).expect("rename ok");
        let back = evolve(&fwd, &CapabilityChange::RenameRelation {
            from: to,
            to: from,
        }).expect("rename back ok");
        prop_assert_eq!(back, w.mkb);
    }

    /// Rename-attribute is invertible too.
    #[test]
    fn rename_attribute_invertible(cfg in config(), seed in 0u64..1000) {
        let w = SynthWorkload::random(&cfg, seed);
        let attr = AttrRef::new(w.target.clone(), "v0");
        let tmp = AttrName::new("zzTmp");
        let fwd = evolve(&w.mkb, &CapabilityChange::RenameAttribute {
            from: attr.clone(),
            to: tmp.clone(),
        }).expect("rename ok");
        let back = evolve(&fwd, &CapabilityChange::RenameAttribute {
            from: AttrRef::new(w.target.clone(), tmp),
            to: attr.attr.clone(),
        }).expect("rename back ok");
        prop_assert_eq!(back, w.mkb);
    }

    /// Delete-attribute only ever shrinks constraint sets, and evolution
    /// never leaves dangling references.
    #[test]
    fn delete_attribute_shrinks(cfg in config(), seed in 0u64..1000) {
        let w = SynthWorkload::random(&cfg, seed);
        let attr = AttrRef::new(w.target.clone(), "k");
        let mkb2 = evolve(&w.mkb, &CapabilityChange::DeleteAttribute(attr.clone()))
            .expect("attribute exists");
        prop_assert!(!mkb2.has_attr(&attr));
        prop_assert!(mkb2.joins().len() <= w.mkb.joins().len());
        prop_assert!(mkb2.function_ofs().len() <= w.mkb.function_ofs().len());
        prop_assert!(mkb2.pcs().len() <= w.mkb.pcs().len());
        // No surviving constraint mentions the deleted attribute.
        prop_assert!(mkb2.joins().iter().all(|j| !j.attrs().contains(&attr)));
        prop_assert!(mkb2
            .function_ofs()
            .iter()
            .all(|f| f.target != attr && !f.source_attrs().contains(&attr)));
    }

    /// Diffing an MKB against an evolved version of itself yields a
    /// change log that converges the schemas again.
    #[test]
    fn diff_roundtrips_evolution(cfg in config(), seed in 0u64..1000, drop_attr in any::<bool>()) {
        let w = SynthWorkload::random(&cfg, seed);
        // Evolve by a destructive change.
        let ch = if drop_attr {
            CapabilityChange::DeleteAttribute(AttrRef::new(w.target.clone(), "v0"))
        } else {
            CapabilityChange::DeleteRelation(w.target.clone())
        };
        let evolved = evolve(&w.mkb, &ch).expect("valid change");
        let diff = infer_changes(&w.mkb, &evolved);
        // Replaying the inferred changes reaches the same schema.
        let mut replayed = w.mkb.clone();
        for c in &diff.changes {
            replayed = evolve(&replayed, c).expect("inferred change applies");
        }
        prop_assert!(infer_changes(&replayed, &evolved).changes.is_empty());
        // The evolved MKB lost constraints, never gained: no missing ids.
        prop_assert!(diff.missing_constraints.is_empty());
    }

    /// Evolution is pure: applying a change never mutates the input MKB.
    #[test]
    fn evolve_is_pure(cfg in config(), seed in 0u64..1000) {
        let w = SynthWorkload::random(&cfg, seed);
        let snapshot = w.mkb.clone();
        let _ = evolve(&w.mkb, &CapabilityChange::DeleteRelation(w.target.clone()));
        prop_assert_eq!(snapshot, w.mkb);
    }

    /// Copy-on-write `evolve` equals the deep-copy reference over random
    /// change streams.
    #[test]
    fn evolve_matches_deep_copy_reference(cfg in config(), seed in 0u64..1000) {
        check_evolve_matches_reference(&cfg, seed)?;
    }

    /// `evolve` shares everything the change does not mention.
    #[test]
    fn evolve_shares_everything_unmentioned(cfg in config(), seed in 0u64..1000) {
        check_evolve_shares(&cfg, seed)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// [`evolve_matches_deep_copy_reference`] on MKBs of several chunks.
    #[test]
    fn evolve_matches_deep_copy_reference_multi_chunk(
        cfg in multi_chunk_config(),
        seed in 0u64..1000,
    ) {
        check_evolve_matches_reference(&cfg, seed)?;
    }

    /// [`evolve_shares_everything_unmentioned`] on MKBs of several
    /// chunks.
    #[test]
    fn evolve_shares_everything_unmentioned_multi_chunk(
        cfg in multi_chunk_config(),
        seed in 0u64..1000,
    ) {
        check_evolve_shares(&cfg, seed)?;
    }
}
