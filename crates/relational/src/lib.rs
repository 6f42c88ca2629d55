//! # eve-relational
//!
//! A small, self-contained, in-memory relational engine that serves as the
//! executable substrate for the EVE / CVS reproduction (Nica, Lee,
//! Rundensteiner, EDBT 1998).
//!
//! The CVS algorithm itself only consults the *meta knowledge base* — it
//! never touches data. Data enters the picture because the paper's
//! correctness criterion P3 (Def. 1) quantifies over **all states of the
//! underlying information sources**:
//!
//! ```text
//! π_{B_V ∩ B_V'}(V')   VE_V   π_{B_V ∩ B_V'}(V)
//! ```
//!
//! To *validate* that a rewriting satisfies its view-extent parameter we
//! need to be able to evaluate both the original and the evolved view over
//! concrete relation instances and compare their extents. This crate
//! provides exactly that: typed values, schemas, tuples, relations, scalar
//! expressions, predicates, the select/project/join algebra, a named
//! database, and set-semantics extent comparison.
//!
//! The vocabulary defined here ([`ScalarExpr`], [`Clause`], [`Conjunction`],
//! [`AttrRef`], …) is shared by the E-SQL AST (`eve-esql`) and the MISD
//! constraint language (`eve-misd`), so that a join constraint from the MKB
//! and a WHERE-clause conjunct from a view are directly comparable — the
//! heart of the R-mapping computation (Def. 2 of the paper).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algebra;
pub mod containment;
pub mod database;
pub mod error;
pub mod expr;
pub mod func;
pub mod pred;
pub mod relation;
pub mod schema;
pub mod tuple;
pub mod typecheck;
pub mod types;

pub use algebra::{project, select, theta_join};
pub use containment::{compare_extents, ExtentRelation};
pub use database::Database;
pub use error::RelationalError;
pub use expr::ScalarExpr;
pub use func::{FuncRegistry, NamedFunc};
pub use pred::{
    clauses_consistent, normalized_consistent, Clause, CompareOp, Congruence, Conjunction,
    NormalizedParts,
};
pub use relation::Relation;
pub use schema::{AttrName, AttrRef, AttributeDef, RelName, Schema};
pub use tuple::Tuple;
pub use typecheck::{check_clause, comparable, infer_type, TypeError};
pub use types::{DataType, Value};
