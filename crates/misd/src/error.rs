//! Errors for MKB construction, validation and evolution.

use eve_relational::{AttrRef, RelName};
use std::fmt;

/// Errors raised by MKB operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MisdError {
    /// A relation with the same name already exists.
    DuplicateRelation(RelName),
    /// A constraint id is already in use.
    DuplicateConstraintId(String),
    /// A constraint or change referenced an unknown relation.
    UnknownRelation(RelName),
    /// A constraint or change referenced an unknown attribute.
    UnknownAttribute(AttrRef),
    /// A join constraint's predicate mentions a relation other than its
    /// two endpoints.
    ForeignAttrInJoin {
        /// The join constraint id.
        id: String,
        /// The offending attribute.
        attr: AttrRef,
    },
    /// A function-of expression draws from more than one source relation.
    MultiSourceFunctionOf(String),
    /// The two sides of a PC constraint project different numbers of
    /// attributes.
    PcArityMismatch(String),
    /// A rename's new name collides with an existing one.
    NameCollision(String),
    /// An order-integrity constraint lists no attribute.
    EmptyOrder(RelName),
    /// Textual-format parse error.
    Parse(eve_esql::ParseError),
}

impl fmt::Display for MisdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MisdError::DuplicateRelation(r) => write!(f, "relation {r} already described"),
            MisdError::DuplicateConstraintId(id) => {
                write!(f, "constraint id {id} already in use")
            }
            MisdError::UnknownRelation(r) => write!(f, "unknown relation {r}"),
            MisdError::UnknownAttribute(a) => write!(f, "unknown attribute {a}"),
            MisdError::ForeignAttrInJoin { id, attr } => write!(
                f,
                "join constraint {id} references {attr}, which belongs to neither endpoint"
            ),
            MisdError::MultiSourceFunctionOf(id) => write!(
                f,
                "function-of constraint {id} draws from more than one source relation"
            ),
            MisdError::PcArityMismatch(id) => {
                write!(
                    f,
                    "PC constraint {id} projects different arities on its sides"
                )
            }
            MisdError::NameCollision(n) => write!(f, "name {n} already in use"),
            MisdError::EmptyOrder(r) => write!(f, "order constraint on {r} lists no attribute"),
            MisdError::Parse(e) => write!(f, "MISD parse error: {e}"),
        }
    }
}

impl std::error::Error for MisdError {}

impl From<eve_esql::ParseError> for MisdError {
    fn from(e: eve_esql::ParseError) -> Self {
        MisdError::Parse(e)
    }
}
