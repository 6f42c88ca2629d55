//! # eve-misd
//!
//! **MISD** — the *Model for Information Source Description* of the EVE
//! framework (§2 of the CVS paper) — and the **meta knowledge base (MKB)**
//! that stores IS descriptions.
//!
//! An information source exports a set of relations. A relation
//! description carries three kinds of information:
//!
//! 1. **data structure and content** — the relation's attributes with
//!    their types (type-integrity constraints `TC`, Fig. 1) and optional
//!    order-integrity constraints `OC`;
//! 2. **query capabilities** — which operations the IS can answer;
//! 3. **semantic inter-relationships** with relations of *other* ISs:
//!    * **join constraints** `JC_{R1,R2}` — a default, semantically
//!      meaningful way to combine two relations,
//!    * **function-of constraints** `F_{R1.A, R2.B} = (R1.A = f(R2.B))` —
//!      how to compute one attribute from another,
//!    * **partial/complete constraints** `PC_{R1,R2}` — containment
//!      relationships between projections of selections of two relations.
//!
//! The MKB is the sole knowledge the CVS algorithm consults when evolving
//! a view. This crate also implements **Step 1** of the three-step view
//! synchronization strategy (§4): evolving the MKB itself under the six
//! capability-change operators ([`evolve`]), and a textual MISD format
//! ([`parse_misd`]) so meta knowledge bases can be written as fixtures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod change;
pub mod chunkmap;
pub mod constraint;
pub mod description;
pub mod diff;
pub mod error;
pub mod evolution;
pub mod mkb;
pub mod text;
pub mod typecheck;

pub use change::CapabilityChange;
pub use chunkmap::{ChunkList, ChunkMap};
pub use constraint::{
    ExtentOp, FunctionOf, JoinConstraint, OrderIntegrity, PartialComplete, ProjSel,
};
pub use description::{Capabilities, RelationDescription};
pub use diff::{infer_changes, MkbDiff};
pub use error::MisdError;
pub use evolution::evolve;
pub use mkb::MetaKnowledgeBase;
pub use text::{parse_misd, render_misd};
pub use typecheck::{check_mkb, check_view};
