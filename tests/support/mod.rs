//! Helpers shared by the root property suites: MKBs and change streams
//! with relations that are not join-capable.
//!
//! The synthetic generators declare every relation join-capable, so on
//! their own they never exercise the capability filter of `H'(MKB')`
//! (Def. 3 (I)), nor the join graph an index keeps beside `H(MKB)`.

// Each suite that includes this module uses part of it.
#![allow(dead_code)]

use eve::misd::{evolve, CapabilityChange, MetaKnowledgeBase, RelationDescription};
use eve::relational::{AttributeDef, DataType};
use eve::workload::ChangeSource;

/// `mkb` declared again with every `k`-th relation, in name order from
/// the first, NOJOIN: its joins stay in `H(MKB)` and leave `H'(MKB)`.
pub fn with_nojoin(mkb: &MetaKnowledgeBase, k: usize) -> MetaKnowledgeBase {
    let mut out = MetaKnowledgeBase::new();
    for (i, desc) in mkb.relations().enumerate() {
        let mut desc = desc.clone();
        desc.capabilities.join &= i % k != 0;
        out.add_relation(desc).expect("relations of a valid MKB");
    }
    for j in mkb.joins() {
        out.add_join((**j).clone())
            .expect("constraints of a valid MKB");
    }
    for f in mkb.function_ofs() {
        out.add_function_of((**f).clone())
            .expect("constraints of a valid MKB");
    }
    for p in mkb.pcs() {
        out.add_pc((**p).clone())
            .expect("constraints of a valid MKB");
    }
    for o in mkb.orders() {
        out.add_order((**o).clone())
            .expect("constraints of a valid MKB");
    }
    out
}

/// `len` admissible changes from `ChangeSource::new(seed)`, drawn against
/// the MKB they evolve, with every third an add-relation of a fresh
/// NOJOIN relation.
pub fn stream_with_nojoin_adds(
    mkb: &MetaKnowledgeBase,
    len: usize,
    seed: u64,
) -> Vec<CapabilityChange> {
    let mut source = ChangeSource::new(seed);
    let mut state = mkb.clone();
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let change = if out.len() % 3 == 2 {
            let name = format!("NJ{}", out.len());
            let mut desc = RelationDescription::new(
                format!("IS_{name}"),
                name.as_str(),
                vec![
                    AttributeDef::new("k", DataType::Int),
                    AttributeDef::new("v0", DataType::Int),
                ],
            );
            desc.capabilities.join = false;
            CapabilityChange::AddRelation(desc)
        } else {
            source
                .next(&state)
                .expect("the synthetic MKBs admit changes")
        };
        state = evolve(&state, &change).expect("admissible in sequence");
        out.push(change);
    }
    out
}
