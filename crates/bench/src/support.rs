//! Shims driving the indexed CVS entry points the way
//! [`eve_core::Synchronizer::apply`] does: build one [`MkbIndex`] for
//! the change, then synchronize against it. The experiments and tests
//! go through these so they exercise the same code path the synchronizer
//! runs in production.

use eve_core::{
    cvs_delete_relation_indexed, r_mapping_with_index, svs_delete_relation_indexed,
    synchronize_delete_attribute_indexed, CvsError, CvsOptions, LegalRewriting, MkbIndex, RMapping,
};
use eve_esql::ViewDefinition;
use eve_misd::MetaKnowledgeBase;
use eve_relational::{AttrRef, RelName};

/// CVS `delete-relation` over a fresh per-change index.
pub fn cvs_dr(
    view: &ViewDefinition,
    target: &RelName,
    mkb: &MetaKnowledgeBase,
    mkb_prime: &MetaKnowledgeBase,
    opts: &CvsOptions,
) -> Result<Vec<LegalRewriting>, CvsError> {
    let index = MkbIndex::new(mkb, mkb_prime);
    cvs_delete_relation_indexed(view, target, &index, opts)
}

/// The SVS (one-step-away) baseline over a fresh per-change index.
pub fn svs_dr(
    view: &ViewDefinition,
    target: &RelName,
    mkb: &MetaKnowledgeBase,
    mkb_prime: &MetaKnowledgeBase,
) -> Result<Vec<LegalRewriting>, CvsError> {
    let opts = CvsOptions::default();
    let index = MkbIndex::new(mkb, mkb_prime);
    svs_delete_relation_indexed(view, target, &index, &opts)
}

/// CVS `delete-attribute` over a fresh per-change index.
pub fn sync_da(
    view: &ViewDefinition,
    attr: &AttrRef,
    mkb: &MetaKnowledgeBase,
    mkb_prime: &MetaKnowledgeBase,
    opts: &CvsOptions,
) -> Result<Vec<LegalRewriting>, CvsError> {
    let index = MkbIndex::new(mkb, mkb_prime);
    synchronize_delete_attribute_indexed(view, attr, &index, opts)
}

/// The Def. 2 R-mapping over a fresh same-MKB index (the pre-change
/// hypergraph is what Def. 2 inspects, so `mkb` serves as both sides).
pub fn r_mapping(
    view: &ViewDefinition,
    target: &RelName,
    mkb: &MetaKnowledgeBase,
    opts: &CvsOptions,
) -> RMapping {
    let index = MkbIndex::new(mkb, mkb);
    r_mapping_with_index(view, target, &index, opts)
}
