//! Inferring a capability-change log from two MKB states.
//!
//! The paper assumes ISs *announce* their capability changes (§4 Step 1
//! reacts to a given `ch`). In a large-scale information space, an
//! autonomous IS more realistically just publishes a fresh schema
//! snapshot; [`infer_changes`] reconstructs an equivalent change
//! sequence by diffing the described relations:
//!
//! * relations present only in `old` → `delete-relation`;
//! * relations present only in `new` → `add-relation`;
//! * within a common relation, attributes present only in `old` →
//!   `delete-attribute`; only in `new` → `add-attribute`.
//!
//! Renames are *not* inferred (a rename is observationally a
//! delete + add; reconstructing intent would require lineage the
//! snapshot does not carry — callers that know better can pre-process).
//! Deletions are emitted before additions so that a rename-as-delete+add
//! never collides with itself.
//!
//! Constraint differences are not part of the change vocabulary: the
//! paper's six operators only describe exported schema. Constraints of
//! the new snapshot that the evolved MKB lacks are reported separately
//! by [`MkbDiff::missing_constraints`] so the administrator can merge
//! them.

use crate::change::CapabilityChange;
use crate::mkb::{ById, MetaKnowledgeBase};

/// The result of diffing two MKB states.
#[derive(Debug, Clone, Default)]
pub struct MkbDiff {
    /// A change sequence that evolves the old schema into the new one
    /// (deletions first, then additions).
    pub changes: Vec<CapabilityChange>,
    /// Ids of constraints present in the new snapshot but not derivable
    /// by evolving the old MKB (constraint vocabulary is outside the six
    /// change operators).
    pub missing_constraints: Vec<String>,
}

impl MkbDiff {
    /// No schema difference at all?
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty() && self.missing_constraints.is_empty()
    }
}

/// Diff two MKB states into a change log (see module docs).
pub fn infer_changes(old: &MetaKnowledgeBase, new: &MetaKnowledgeBase) -> MkbDiff {
    let mut deletions = Vec::new();
    let mut additions = Vec::new();

    for desc in old.relations() {
        match new.relation(&desc.name) {
            None => deletions.push(CapabilityChange::DeleteRelation(desc.name.clone())),
            Some(new_desc) => {
                for attr in &desc.attrs {
                    if !new_desc.has_attr(&attr.name) {
                        deletions.push(CapabilityChange::DeleteAttribute(
                            eve_relational::AttrRef::new(desc.name.clone(), attr.name.clone()),
                        ));
                    }
                }
                for attr in &new_desc.attrs {
                    if !desc.has_attr(&attr.name) {
                        additions.push(CapabilityChange::AddAttribute {
                            relation: desc.name.clone(),
                            attr: attr.clone(),
                        });
                    }
                }
            }
        }
    }
    for desc in new.relations() {
        if old.relation(&desc.name).is_none() {
            additions.push(CapabilityChange::AddRelation(desc.clone()));
        }
    }

    let mut changes = deletions;
    changes.extend(additions);

    // Constraints of the new snapshot whose ids the old MKB's id index
    // does not hold as the same kind (ids surviving evolution keep
    // their identity).
    let mut missing_constraints = Vec::new();
    for j in new.joins() {
        if !matches!(old.by_id(&j.id), Some(ById::Join(_))) {
            missing_constraints.push(j.id.clone());
        }
    }
    for f in new.function_ofs() {
        if !matches!(old.by_id(&f.id), Some(ById::FunctionOf(_))) {
            missing_constraints.push(f.id.clone());
        }
    }
    for p in new.pcs() {
        if !matches!(old.by_id(&p.id), Some(ById::Pc(_))) {
            missing_constraints.push(p.id.clone());
        }
    }

    MkbDiff {
        changes,
        missing_constraints,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evolution::evolve;
    use crate::text::parse_misd;
    use eve_relational::RelName;

    fn old_mkb() -> MetaKnowledgeBase {
        parse_misd(
            "RELATION IS1 A(x int, y int)
             RELATION IS2 B(k int)
             RELATION IS3 C(k int)
             JOIN J1: A, B ON A.x = B.k",
        )
        .unwrap()
    }

    #[test]
    fn empty_diff_for_identical() {
        let m = old_mkb();
        assert!(infer_changes(&m, &m).is_empty());
    }

    #[test]
    fn detects_all_schema_changes() {
        let new = parse_misd(
            // C gone, D appeared, A lost y and gained z.
            "RELATION IS1 A(x int, z str)
             RELATION IS2 B(k int)
             RELATION IS9 D(q int)",
        )
        .unwrap();
        let diff = infer_changes(&old_mkb(), &new);
        let rendered: Vec<String> = diff.changes.iter().map(|c| c.to_string()).collect();
        assert!(
            rendered.contains(&"delete-relation C".to_string()),
            "{rendered:?}"
        );
        assert!(rendered.contains(&"delete-attribute A.y".to_string()));
        assert!(rendered.iter().any(|s| s.starts_with("add-attribute A.z")));
        assert!(rendered.contains(&"add-relation D".to_string()));
        // Deletions come before additions.
        let first_add = diff
            .changes
            .iter()
            .position(|c| !c.is_destructive())
            .unwrap();
        assert!(diff.changes[..first_add]
            .iter()
            .all(CapabilityChange::is_destructive));
    }

    #[test]
    fn applying_inferred_changes_converges_schemas() {
        let new = parse_misd(
            "RELATION IS1 A(x int, z str)
             RELATION IS2 B(k int)
             RELATION IS9 D(q int)",
        )
        .unwrap();
        let old = old_mkb();
        let diff = infer_changes(&old, &new);
        let mut evolved = old;
        for ch in &diff.changes {
            evolved = evolve(&evolved, ch).unwrap_or_else(|e| panic!("{ch}: {e}"));
        }
        // Schemas converge (constraints aside).
        for desc in new.relations() {
            let got = evolved.relation(&desc.name).expect("relation exists");
            assert_eq!(got.attrs, desc.attrs, "{}", desc.name);
        }
        assert_eq!(evolved.relation_count(), new.relation_count());
        // Re-diffing the schemas is change-free.
        assert!(infer_changes(&evolved, &new).changes.is_empty());
    }

    #[test]
    fn missing_constraints_reported() {
        let new = parse_misd(
            "RELATION IS1 A(x int, y int)
             RELATION IS2 B(k int)
             RELATION IS3 C(k int)
             JOIN J1: A, B ON A.x = B.k
             JOIN J2: B, C ON B.k = C.k
             FUNCOF F1: A.x = B.k",
        )
        .unwrap();
        let diff = infer_changes(&old_mkb(), &new);
        assert!(diff.changes.is_empty());
        assert_eq!(
            diff.missing_constraints,
            vec!["J2".to_string(), "F1".to_string()]
        );
    }

    #[test]
    fn rename_appears_as_delete_plus_add() {
        let new = parse_misd(
            "RELATION IS1 Renamed(x int, y int)
             RELATION IS2 B(k int)
             RELATION IS3 C(k int)",
        )
        .unwrap();
        let diff = infer_changes(&old_mkb(), &new);
        let rendered: Vec<String> = diff.changes.iter().map(|c| c.to_string()).collect();
        assert!(rendered.contains(&"delete-relation A".to_string()));
        assert!(rendered.contains(&"add-relation Renamed".to_string()));
        let _ = RelName::new("A");
    }
}
