//! # eve-core — the CVS algorithm
//!
//! The paper's primary contribution: **view synchronization** — evolving
//! E-SQL view definitions so that they survive capability changes of the
//! underlying information sources — via the **Complex View
//! Synchronization (CVS)** algorithm (§5 of the paper).
//!
//! The three-step strategy of §4:
//!
//! 1. **MKB evolution** — `eve_misd::evolve` produces `MKB'`;
//! 2. **affected-view detection** — [`affected`] decides which views a
//!    change touches, directly or through MKB evolution;
//! 3. **view rewriting** — for curable views, find *legal rewritings*
//!    (Def. 1) guided by the E-SQL evolution preferences.
//!
//! Step 3 for the hardest operator, `delete-relation R`, is CVS proper:
//!
//! * [`mapping`] computes the **R-mapping** (Def. 2): the maximal
//!   sub-join `Max(V_R)` of the view that is "covered" by MKB join
//!   constraints, and the minimal MKB join expression `Min(H_R)`
//!   containing it;
//! * [`replacement`] computes the **R-replacement** set (Def. 3):
//!   candidate join expressions over `H'_R(MKB')` containing every
//!   surviving piece of `Min(H_R)` plus a **cover** (via function-of
//!   constraints) for each replaceable attribute of `R`;
//! * [`rewrite`] assembles a synchronized view `V'` from each candidate
//!   (Steps 4–5: substitution, WHERE-consistency check, evolution
//!   parameters for new components);
//! * [`extent`] addresses Step 6 / property P3: certifying the
//!   relationship between the old and new extents using the MKB's
//!   partial/complete constraints (symbolically) and the relational
//!   engine (empirically);
//! * [`legal`] packages the Def. 1 legality checks (P1, P2, P4).
//!
//! [`delete_attribute`] implements the simplified algorithm for
//! `delete-attribute` the paper describes as "a simplified version" of
//! CVS, and [`svs`] implements the *one-step-away* baseline of the
//! authors' prior work (what CVS is shown to improve upon).
//!
//! The **synchronization engine** ties the steps together:
//!
//! * [`index`] — a per-change [`MkbIndex`]: the hypergraph `H(MKB)`, its
//!   connected components, the capability-filtered `H'(MKB')`, the
//!   attribute→cover map and the relation-pair→PC-constraint map, all
//!   precomputed **once** per capability change and shared by every
//!   affected view;
//! * [`engine`] — [`synchronize_view`] runs the change operator's
//!   algorithm for one view, so preference filtering, cost ranking and
//!   outcome assembly live in exactly one place;
//! * [`synchronizer`] — drives the pipeline for all six change operators
//!   over a set of registered views (what-if previews, evolution
//!   history, rollback, disabled-view revival), holding its state as
//!   copy-on-write `Arc` snapshots so concurrent readers get cheap
//!   handles instead of deep clones.
//!
//! Beyond the paper (see DESIGN.md, extensions): [`cost`] ranks legal
//! rewritings for *maximal view preservation* (§7 future work),
//! [`materialize`]/[`maintain`]/[`adapt`] close the data loop
//! (materialization, counting-based incremental maintenance, and the
//! Gupta-style adaptation of §6's related work), [`explain`] narrates
//! rewritings, and [`service`] is a thread-safe handle for service
//! deployments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapt;
pub mod affected;
pub mod clock;
pub mod cost;
pub mod delete_attribute;
pub mod delta;
pub mod engine;
pub mod error;
pub mod eval;
pub mod explain;
pub mod extent;
pub(crate) mod faults;
pub mod index;
pub mod legal;
pub mod maintain;
pub mod mapping;
pub mod materialize;
pub mod options;
pub mod replacement;
pub mod rewrite;
pub mod service;
pub mod svs;
pub mod synchronizer;

#[cfg(test)]
pub(crate) mod testutil;

pub use adapt::{adapt_materialization, AdaptationReport, AdaptationStrategy};
pub use affected::{affected_views, is_affected, is_evaluable, revivable};
pub use clock::VirtualClock;
pub use cost::{rank_rewritings as rank_by_cost, CostBreakdown, CostModel};
pub use delete_attribute::synchronize_delete_attribute_indexed;
pub use delta::{DeltaSummary, IndexCore, MkbDelta};
pub use engine::synchronize_view;
pub use error::CvsError;
pub use eval::evaluate_view;
pub use explain::{explain_rewriting, explain_rewriting_with_stats};
pub use extent::{empirical_extent, infer_extent_indexed, satisfies_extent_param, ExtentVerdict};
pub use index::{CacheStats, MemoCarry, MkbIndex};
pub use legal::LegalRewriting;
pub use maintain::{CountedView, Delta, DeltaError};
pub use mapping::{compute_r_mapping, r_mapping_with_index, RMapping};
pub use materialize::{MaterializedView, RefreshDelta};
pub use options::{CvsOptions, FailurePolicy, ImplicationMode, IndexMaintenance};
pub use replacement::{compute_replacements_indexed, CoverChoice, Replacement};
pub use rewrite::{
    cvs_delete_relation_indexed, cvs_delete_relation_searched, SearchResult, SearchStats,
};
pub use service::{FailedChange, SharedSynchronizer};
pub use svs::{svs_delete_relation_indexed, svs_delete_relation_searched};
pub use synchronizer::{
    ChangeOutcome, Snapshot, SyncFailure, SyncPanic, SyncReport, Synchronizer, SynchronizerBuilder,
    VersionEntry, ViewOutcome,
};
