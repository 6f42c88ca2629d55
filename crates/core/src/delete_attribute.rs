//! View synchronization for `ch = delete-attribute R.A`.
//!
//! "The algorithm for the delete-attribute operator is a simplified
//! version of \[CVS\] and is omitted in this paper due to space
//! limitations" (§5). Reconstruction:
//!
//! * components of the view not referencing `R.A` are unaffected;
//! * a replaceable component referencing `R.A` is rewritten by a cover:
//!   a function-of constraint `F_{R.A, S.B}` of the *old* MKB whose
//!   source relation `S` survives, joined into the view along a chain of
//!   join constraints of `H(MKB')` connecting `S` to the view's
//!   relations (Example 4 of the paper: `Customer.Addr` rerouted through
//!   `Person` along `JC_{Customer, Person}`);
//! * a dispensable component with no usable cover is dropped;
//! * an indispensable, non-replaceable (or uncoverable) component makes
//!   the view incurable.
//!
//! Like the delete-relation case, one rewriting is produced per viable
//! cover, P3 is certified from PC constraints, and the candidates are
//! ordered best-first.

use crate::error::CvsError;
use crate::extent::{satisfies_extent_param, ExtentVerdict};
use crate::index::MkbIndex;
use crate::legal::LegalRewriting;
use crate::options::CvsOptions;
use crate::replacement::{CoverChoice, Replacement};
use crate::rewrite::append_join_clauses;
use eve_esql::{CondItem, EvolutionParams, FromItem, SelectItem, ViewDefinition};
use eve_misd::{ExtentOp, JoinConstraint, PartialComplete};
use eve_relational::{AttrRef, RelName};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Synchronize `view` under `delete-attribute attr` against a prebuilt
/// [`MkbIndex`], returning the legal rewritings ordered best-first.
///
/// Covers, the capability-filtered `H'(MKB')`, and PC buckets all come
/// from the index; the cover-to-view connection chain is a greedy
/// [`eve_hypergraph::Hypergraph::connect_tree`] over the index's `H'`.
pub fn synchronize_delete_attribute_indexed(
    view: &ViewDefinition,
    attr: &AttrRef,
    index: &MkbIndex<'_>,
    opts: &CvsOptions,
) -> Result<Vec<LegalRewriting>, CvsError> {
    if !view.uses_attr(attr) {
        return Err(CvsError::ViewNotAffected(attr.relation.clone()));
    }

    // Classify the components that use the attribute.
    let mut required = false;
    let mut frozen = false;
    let mut replace_worthy = false;
    let mut classify = |dispensable: bool, replaceable: bool| {
        if replaceable {
            replace_worthy = true;
        }
        if !dispensable {
            required = true;
            if !replaceable {
                frozen = true;
            }
        }
    };
    for item in &view.select {
        if item.expr.attrs().contains(attr) {
            classify(item.params.dispensable, item.params.replaceable);
        }
    }
    for cond in &view.conditions {
        if cond.clause.attrs().contains(attr) {
            classify(cond.params.dispensable, cond.params.replaceable);
        }
    }
    if frozen {
        return Err(CvsError::IndispensableNotReplaceable {
            component: attr.to_string(),
        });
    }

    // Covers from the old MKB whose source survives in MKB' (the cover's
    // own attributes must have survived too).
    let covers: Vec<CoverChoice> = if replace_worthy {
        index
            .covers_of(attr)
            .iter()
            .filter(|c| {
                index.in_h_prime(&c.source)
                    && c.replacement
                        .attrs()
                        .iter()
                        .all(|a| index.mkb_prime().has_attr(a))
            })
            .cloned()
            .collect()
    } else {
        Vec::new()
    };

    let mut out = Vec::new();
    let mut last_err = if required && covers.is_empty() {
        CvsError::NoCover(attr.clone())
    } else {
        CvsError::NoLegalRewriting
    };

    // Candidate per cover: join the source relation in (if new) along a
    // join-constraint chain from the view's relations.
    for cover in &covers {
        match assemble_with_cover(view, attr, cover, index, opts) {
            Ok(r) => out.push(r),
            Err(e) => last_err = e,
        }
    }

    // The drop-only candidate (legal only when nothing required uses the
    // attribute).
    if !required {
        if let Ok(r) = assemble_drop_only(view, attr) {
            out.push(r);
        }
    }

    if out.is_empty() {
        return Err(last_err);
    }
    out.sort_by_key(|r: &LegalRewriting| (!r.satisfies_p3, r.view.from.len(), r.view.to_string()));
    Ok(out)
}

fn substitute_everywhere(
    view: &ViewDefinition,
    attr: &AttrRef,
    cover: Option<&CoverChoice>,
) -> (ViewDefinition, Vec<usize>, Vec<CondItem>, bool) {
    let mut select = Vec::new();
    let mut kept_select = Vec::new();
    let mut dropped_conditions = Vec::new();
    let mut dropped_any_select = false;
    for (i, item) in view.select.iter().enumerate() {
        let mut expr = item.expr.clone();
        if let Some(c) = cover {
            if item.params.replaceable {
                expr = expr.substitute(attr, &c.replacement);
            }
        }
        if expr.attrs().contains(attr) {
            dropped_any_select = true;
            continue;
        }
        let changed = expr != item.expr;
        let alias = item
            .alias
            .clone()
            .or_else(|| if changed { item.output_name() } else { None });
        let params = if changed {
            EvolutionParams::new(item.params.dispensable, true)
        } else {
            item.params
        };
        kept_select.push(i);
        select.push(SelectItem {
            expr,
            alias,
            params,
        });
    }
    let mut conditions = Vec::new();
    for cond in &view.conditions {
        let mut clause = cond.clause.clone();
        if let Some(c) = cover {
            if cond.params.replaceable {
                clause = clause.substitute(attr, &c.replacement);
            }
        }
        if clause.attrs().contains(attr) {
            dropped_conditions.push(cond.clone());
            continue;
        }
        let changed = clause != cond.clause;
        let params = if changed {
            EvolutionParams::new(cond.params.dispensable, true)
        } else {
            cond.params
        };
        conditions.push(CondItem { clause, params });
    }
    let interface = view.interface.as_ref().map(|names| {
        kept_select
            .iter()
            .filter_map(|&i| names.get(i).cloned())
            .collect()
    });
    (
        ViewDefinition {
            name: view.name.clone(),
            interface,
            extent: view.extent,
            select,
            from: view.from.clone(),
            conditions,
        },
        kept_select,
        dropped_conditions,
        dropped_any_select,
    )
}

fn assemble_with_cover(
    view: &ViewDefinition,
    attr: &AttrRef,
    cover: &CoverChoice,
    index: &MkbIndex<'_>,
    opts: &CvsOptions,
) -> Result<LegalRewriting, CvsError> {
    let (mut new_view, kept_select, dropped_conditions, _) =
        substitute_everywhere(view, attr, Some(cover));

    // Join the cover's relation in, if it is not already in FROM.
    let mut added_joins = Vec::new();
    let from_rels: BTreeSet<RelName> = new_view.from.iter().map(|f| f.relation.clone()).collect();
    if !from_rels.contains(&cover.source) {
        // Connect the cover to the view: prefer a chain anchored at the
        // relation that owned the deleted attribute (it is still in FROM
        // — only the attribute disappeared).
        let mut terminals: BTreeSet<RelName> = [attr.relation.clone()].into_iter().collect();
        terminals.insert(cover.source.clone());
        let tree = index
            .connect_tree(&terminals, opts.max_path_edges)
            .ok_or(CvsError::Disconnected)?;
        for rel in &tree.relations {
            if !from_rels.contains(rel) {
                new_view.from.push(FromItem {
                    relation: rel.clone(),
                    alias: None,
                    params: EvolutionParams::new(false, true),
                });
            }
        }
        added_joins = tree.joins.clone();
    }

    // Append the join clauses (none when the cover was already in FROM);
    // the append returns the WHERE list's consistency verdict.
    if !append_join_clauses(&mut new_view.conditions, &added_joins) {
        return Err(CvsError::Inconsistent);
    }

    // P3: certify via PC constraints between the cover relation and the
    // attribute's relation (Example 4 uses
    // π_{Name,PAddr}(Person) ⊇ π_{Name,Addr}(Customer)).
    let verdict = certify_attr_swap(
        index.pcs_between(&cover.source, &attr.relation),
        attr,
        cover,
        &added_joins,
        &dropped_conditions,
    );
    let satisfies_p3 = satisfies_extent_param(view.extent, verdict);

    let replacement = Replacement {
        covers: Arc::new([(attr.clone(), cover.clone())].into_iter().collect()),
        relations: new_view.from.iter().map(|f| f.relation.clone()).collect(),
        joins: added_joins,
        c_max_min: Arc::default(),
        dropped_conditions: Arc::default(),
    };
    Ok(LegalRewriting {
        view: new_view,
        replacement,
        verdict,
        satisfies_p3,
        kept_select,
        dropped_conditions,
    })
}

fn assemble_drop_only(view: &ViewDefinition, attr: &AttrRef) -> Result<LegalRewriting, CvsError> {
    let (new_view, kept_select, dropped_conditions, _) = substitute_everywhere(view, attr, None);
    if new_view.select.is_empty() {
        return Err(CvsError::NoLegalRewriting);
    }
    if !new_view.where_conjunction().is_consistent() {
        return Err(CvsError::Inconsistent);
    }
    // Dropping SELECT attributes is neutral under the common-interface
    // comparison; dropping conditions widens.
    let verdict = if dropped_conditions.is_empty() {
        ExtentVerdict::Equivalent
    } else {
        ExtentVerdict::Superset
    };
    let satisfies_p3 = satisfies_extent_param(view.extent, verdict);
    let relations = new_view.from.iter().map(|f| f.relation.clone()).collect();
    Ok(LegalRewriting {
        view: new_view,
        replacement: Replacement {
            covers: Arc::default(),
            relations,
            joins: Vec::new(),
            c_max_min: Arc::default(),
            dropped_conditions: Arc::default(),
        },
        verdict,
        satisfies_p3,
        kept_select,
        dropped_conditions,
    })
}

/// Certify the swap "attribute `R.A` now computed from `S`" using PC
/// constraints: a PC whose `S` side includes the replacement source
/// attributes and whose `R` side includes both `A` and the join
/// attributes of the chain's first hop. `candidate_pcs` are the PC
/// constraints relating `S` and `R` in either orientation (a superset is
/// fine — orientation is re-checked here).
fn certify_attr_swap(
    candidate_pcs: &[PartialComplete],
    attr: &AttrRef,
    cover: &CoverChoice,
    added_joins: &[Arc<JoinConstraint>],
    dropped_conditions: &[CondItem],
) -> ExtentVerdict {
    // Attributes of R the swap relies on: A itself plus R's attributes in
    // the new join conditions.
    let mut used_r: BTreeSet<_> = [attr.attr.clone()].into_iter().collect();
    for jc in added_joins {
        for a in jc.attrs() {
            if a.relation == attr.relation {
                used_r.insert(a.attr);
            }
        }
    }

    let mut verdict = if added_joins.is_empty() {
        // The cover was already part of the view: substitution only.
        // The function-of constraint guarantees value equality on the
        // existing join relation, so the swap is extent-preserving.
        ExtentVerdict::Equivalent
    } else {
        let mut best = ExtentVerdict::Unknown;
        for pc in candidate_pcs {
            let (s_side, op, r_side) =
                if pc.left.relation == cover.source && pc.right.relation == attr.relation {
                    (&pc.left, pc.op, &pc.right)
                } else if pc.right.relation == cover.source && pc.left.relation == attr.relation {
                    (&pc.right, pc.op.flipped(), &pc.left)
                } else {
                    continue;
                };
            if !pc.left.cond.is_empty() || !pc.right.cond.is_empty() {
                continue;
            }
            let r_names: BTreeSet<_> = r_side.attrs.iter().cloned().collect();
            if !used_r.iter().all(|a| r_names.contains(a)) {
                continue;
            }
            let _ = s_side;
            let v = match op {
                ExtentOp::Equivalent => ExtentVerdict::Equivalent,
                ExtentOp::Superset | ExtentOp::ProperSuperset => ExtentVerdict::Superset,
                ExtentOp::Subset | ExtentOp::ProperSubset => ExtentVerdict::Subset,
            };
            best = match (best, v) {
                (ExtentVerdict::Unknown, x) => x,
                (ExtentVerdict::Superset, ExtentVerdict::Subset)
                | (ExtentVerdict::Subset, ExtentVerdict::Superset) => ExtentVerdict::Equivalent,
                (x, _) => x,
            };
        }
        best
    };
    if !dropped_conditions.is_empty() {
        verdict = verdict.meet(ExtentVerdict::Superset);
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use eve_esql::parse_view;
    use eve_misd::{evolve, parse_misd, CapabilityChange, MetaKnowledgeBase};

    /// Test shorthand: build the per-change index and synchronize.
    fn sync_da(
        view: &ViewDefinition,
        attr: &AttrRef,
        mkb: &MetaKnowledgeBase,
        mkb_prime: &MetaKnowledgeBase,
        opts: &CvsOptions,
    ) -> Result<Vec<LegalRewriting>, CvsError> {
        let index = MkbIndex::new(mkb, mkb_prime);
        synchronize_delete_attribute_indexed(view, attr, &index, opts)
    }

    /// The Example 4 universe: Customer, FlightRes, Person with the
    /// constraints (i)–(iv) of the paper.
    fn ex4_mkb() -> MetaKnowledgeBase {
        parse_misd(
            "RELATION IS1 Customer(Name str, Addr str, Phone str)
             RELATION IS4 FlightRes(PName str, Dest str)
             RELATION IS8 Person(Name str, SSN int, PAddr str)
             JOIN JC1: Customer, FlightRes ON Customer.Name = FlightRes.PName
             JOIN JCP: Customer, Person ON Customer.Name = Person.Name
             FUNCOF FP: Customer.Addr = Person.PAddr
             PC PC1: Person(Name, PAddr) superset Customer(Name, Addr)",
        )
        .unwrap()
    }

    /// Eq. (3): Asia-Customer with indispensable, replaceable Addr.
    fn eq3_view() -> ViewDefinition {
        parse_view(
            "CREATE VIEW Asia-Customer (AName, AAddr, APh) (VE = superset) AS
             SELECT C.Name, C.Addr (AD = false, AR = true), C.Phone
             FROM Customer C, FlightRes F
             WHERE (C.Name = F.PName) AND (F.Dest = 'Asia')",
        )
        .unwrap()
    }

    #[test]
    fn example_4_rewriting() {
        // delete-attribute Customer.Addr → Eq. (4): Person joined in via
        // JC_{Customer,Person}; C.Addr → P.PAddr; VE = ⊇ certified by the
        // PC constraint (iv).
        let mkb = ex4_mkb();
        let attr = AttrRef::new("Customer", "Addr");
        let change = CapabilityChange::DeleteAttribute(attr.clone());
        let mkb2 = evolve(&mkb, &change).unwrap();
        let view = eq3_view();
        let rewritings = sync_da(&view, &attr, &mkb, &mkb2, &CvsOptions::default()).unwrap();
        assert!(!rewritings.is_empty());
        let best = &rewritings[0];
        let text = best.view.to_string();
        assert!(text.contains("Person.PAddr"), "{text}");
        assert!(
            text.contains("Customer.Name = Person.Name")
                || text.contains("Person.Name = Customer.Name"),
            "{text}"
        );
        assert!(!text.contains("Customer.Addr"), "{text}");
        // Interface stays three-wide (AName, AAddr, APh).
        assert_eq!(best.view.interface_names().len(), 3);
        // P3: VE=⊇ certified via PC1.
        assert_eq!(best.verdict, ExtentVerdict::Superset);
        assert!(best.satisfies_p3);
        // Legality.
        assert!(best.check_p1(&change));
        assert!(best.check_p2(&mkb2));
        assert!(best.check_p4(&view));
    }

    #[test]
    fn dispensable_attribute_dropped_when_uncoverable() {
        // Phone (no cover) deleted: Eq. (1) allows dropping it.
        let mkb = ex4_mkb();
        let attr = AttrRef::new("Customer", "Phone");
        let change = CapabilityChange::DeleteAttribute(attr.clone());
        let mkb2 = evolve(&mkb, &change).unwrap();
        let view = parse_view(
            "CREATE VIEW Asia-Customer (VE = superset) AS
             SELECT C.Name, C.Phone (AD = true, AR = false)
             FROM Customer C, FlightRes F
             WHERE (C.Name = F.PName)",
        )
        .unwrap();
        let rewritings = sync_da(&view, &attr, &mkb, &mkb2, &CvsOptions::default()).unwrap();
        let best = &rewritings[0];
        assert_eq!(best.view.select.len(), 1);
        assert_eq!(best.verdict, ExtentVerdict::Equivalent);
        assert!(best.check_p4(&view));
    }

    #[test]
    fn indispensable_uncoverable_fails() {
        let mkb = ex4_mkb();
        let attr = AttrRef::new("Customer", "Phone");
        let mkb2 = evolve(&mkb, &CapabilityChange::DeleteAttribute(attr.clone())).unwrap();
        let view =
            parse_view("CREATE VIEW V AS SELECT C.Name, C.Phone (AD = false) FROM Customer C")
                .unwrap();
        let err = sync_da(&view, &attr, &mkb, &mkb2, &CvsOptions::default()).unwrap_err();
        assert_eq!(err, CvsError::NoCover(attr));
    }

    #[test]
    fn nonreplaceable_indispensable_fails() {
        let mkb = ex4_mkb();
        let attr = AttrRef::new("Customer", "Addr");
        let mkb2 = evolve(&mkb, &CapabilityChange::DeleteAttribute(attr.clone())).unwrap();
        let view =
            parse_view("CREATE VIEW V AS SELECT C.Addr (AD = false, AR = false) FROM Customer C")
                .unwrap();
        let err = sync_da(&view, &attr, &mkb, &mkb2, &CvsOptions::default()).unwrap_err();
        assert!(matches!(err, CvsError::IndispensableNotReplaceable { .. }));
    }

    #[test]
    fn unaffected_view_errors() {
        let mkb = ex4_mkb();
        let attr = AttrRef::new("Customer", "Addr");
        let mkb2 = evolve(&mkb, &CapabilityChange::DeleteAttribute(attr.clone())).unwrap();
        let view = parse_view("CREATE VIEW V AS SELECT F.Dest FROM FlightRes F").unwrap();
        assert!(matches!(
            sync_da(&view, &attr, &mkb, &mkb2, &CvsOptions::default()),
            Err(CvsError::ViewNotAffected(_))
        ));
    }

    #[test]
    fn condition_using_deleted_attr_substituted() {
        // A WHERE condition over the deleted attribute is rewritten via
        // the cover, not dropped, when replaceable.
        let mkb = ex4_mkb();
        let attr = AttrRef::new("Customer", "Addr");
        let mkb2 = evolve(&mkb, &CapabilityChange::DeleteAttribute(attr.clone())).unwrap();
        let view = parse_view(
            "CREATE VIEW V (VE = superset) AS
             SELECT C.Name, C.Addr
             FROM Customer C
             WHERE (C.Addr = 'Ann Arbor')",
        )
        .unwrap();
        let rewritings = sync_da(&view, &attr, &mkb, &mkb2, &CvsOptions::default()).unwrap();
        let best = &rewritings[0];
        let text = best.view.to_string();
        assert!(text.contains("Person.PAddr = 'Ann Arbor'"), "{text}");
    }
}
