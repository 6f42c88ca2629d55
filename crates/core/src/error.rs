//! Errors for the CVS pipeline.

use eve_relational::{AttrRef, RelName};
use std::fmt;

/// Why a view could not be synchronized (Step 3 failure causes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CvsError {
    /// The deleted relation is not in the view's FROM clause — nothing to
    /// synchronize.
    ViewNotAffected(RelName),
    /// The deleted relation is not described in the MKB.
    UnknownRelation(RelName),
    /// An indispensable, non-replaceable component references the deleted
    /// element; Def. 1 P4 forbids both dropping and replacing it.
    IndispensableNotReplaceable {
        /// The referencing component, rendered for diagnostics.
        component: String,
    },
    /// An indispensable attribute of the deleted relation has no cover
    /// (no function-of constraint defines it from a surviving relation).
    NoCover(AttrRef),
    /// The surviving relations of `Min(H'_R)` (plus covers) fall into
    /// disconnected components of `H'(MKB')`, so the R-replacement set is
    /// empty (Def. 3).
    Disconnected,
    /// Every candidate rewriting failed (inconsistent WHERE clause,
    /// missing covers, or extent-parameter violation).
    NoLegalRewriting,
    /// The view, together with a candidate, produced an inconsistent
    /// WHERE clause (Step 4 check) — reported per candidate internally.
    Inconsistent,
    /// MKB evolution itself failed.
    Misd(eve_misd::MisdError),
}

impl fmt::Display for CvsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CvsError::ViewNotAffected(r) => {
                write!(f, "view does not reference relation {r}; nothing to do")
            }
            CvsError::UnknownRelation(r) => write!(f, "relation {r} not described in MKB"),
            CvsError::IndispensableNotReplaceable { component } => write!(
                f,
                "component `{component}` is indispensable and non-replaceable"
            ),
            CvsError::NoCover(a) => write!(f, "no cover found for indispensable attribute {a}"),
            CvsError::Disconnected => write!(
                f,
                "surviving relations are disconnected in H'(MKB'); R-replacement set is empty"
            ),
            CvsError::NoLegalRewriting => write!(f, "no legal rewriting exists"),
            CvsError::Inconsistent => write!(f, "candidate WHERE clause is inconsistent"),
            CvsError::Misd(e) => write!(f, "MKB evolution failed: {e}"),
        }
    }
}

impl std::error::Error for CvsError {}

impl From<eve_misd::MisdError> for CvsError {
    fn from(e: eve_misd::MisdError) -> Self {
        CvsError::Misd(e)
    }
}
