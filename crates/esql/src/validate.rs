//! Structural validation of view definitions.
//!
//! §4 of the paper makes two standing assumptions about E-SQL views, which
//! CVS relies on:
//!
//! 1. all **distinguished** attributes (attributes used in an
//!    *indispensable* WHERE condition) are among the **preserved**
//!    attributes (the SELECT clause);
//! 2. a relation appears **at most once** in the FROM clause.
//!
//! [`validate_view`] enforces these plus basic well-formedness: every
//! referenced relation is in the FROM clause, the explicit interface (if
//! any) matches the SELECT arity without duplicate names, and the WHERE
//! clause is not trivially inconsistent.

use crate::ast::ViewDefinition;
use eve_relational::{clauses_consistent, AttrRef, RelName};
use std::fmt;

/// A violation of view well-formedness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// The same relation occurs twice in FROM (violates §4 assumption 2).
    DuplicateRelation(RelName),
    /// A referenced relation does not occur in FROM.
    UnknownRelation(RelName),
    /// A distinguished attribute is not preserved (violates §4
    /// assumption 1).
    DistinguishedNotPreserved(AttrRef),
    /// Explicit interface arity differs from the SELECT arity.
    InterfaceArity {
        /// Number of interface names given.
        interface: usize,
        /// Number of SELECT items.
        select: usize,
    },
    /// Two interface columns share a name.
    DuplicateInterfaceName(String),
    /// The WHERE clause is detectably inconsistent (always-empty view).
    InconsistentWhere,
    /// The SELECT clause is empty.
    EmptySelect,
    /// The FROM clause is empty.
    EmptyFrom,
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::DuplicateRelation(r) => {
                write!(f, "relation {r} appears more than once in FROM")
            }
            ValidationError::UnknownRelation(r) => {
                write!(f, "relation {r} referenced but not in FROM")
            }
            ValidationError::DistinguishedNotPreserved(a) => write!(
                f,
                "attribute {a} is used in an indispensable condition but not preserved in SELECT"
            ),
            ValidationError::InterfaceArity { interface, select } => write!(
                f,
                "interface has {interface} names but SELECT has {select} items"
            ),
            ValidationError::DuplicateInterfaceName(n) => {
                write!(f, "duplicate interface column name {n}")
            }
            ValidationError::InconsistentWhere => {
                write!(f, "WHERE clause is inconsistent (view extent always empty)")
            }
            ValidationError::EmptySelect => write!(f, "SELECT clause is empty"),
            ValidationError::EmptyFrom => write!(f, "FROM clause is empty"),
        }
    }
}

impl std::error::Error for ValidationError {}

/// Validate a view definition, returning *all* violations found, in
/// this order: empty SELECT, empty FROM, each repeated FROM relation (in
/// FROM order), each relation referenced but not in FROM and each
/// unpreserved distinguished attribute (both once, ascending), the
/// interface checks, and an inconsistent WHERE clause.
///
/// One walk over the view, in place: a well-formed view allocates only
/// what the WHERE consistency check needs, and a list is built and
/// sorted only when it has a violation to report.
pub fn validate_view(view: &ViewDefinition) -> Vec<ValidationError> {
    let mut errors = Vec::new();

    if view.select.is_empty() {
        errors.push(ValidationError::EmptySelect);
    }
    if view.from.is_empty() {
        errors.push(ValidationError::EmptyFrom);
    }

    // §4 assumption 2: relation at most once in FROM.
    for (i, f) in view.from.iter().enumerate() {
        if view.from[..i].iter().any(|g| g.relation == f.relation) {
            errors.push(ValidationError::DuplicateRelation(f.relation.clone()));
        }
    }

    // Every referenced relation must be in FROM.
    let mut unknown = Vec::new();
    view.all_attrs(|a| {
        if !view.uses_relation(&a.relation) {
            unknown.push(a.relation.clone());
        }
        true
    });
    push_ascending(&mut errors, unknown, ValidationError::UnknownRelation);

    // §4 assumption 1: distinguished ⊆ preserved.
    let mut unpreserved = Vec::new();
    for c in view.conditions.iter().filter(|c| !c.params.dispensable) {
        c.clause.all_attrs(&mut |a| {
            if !view.select.iter().any(|s| s.expr.contains_attr(a)) {
                unpreserved.push(a.clone());
            }
            true
        });
    }
    push_ascending(
        &mut errors,
        unpreserved,
        ValidationError::DistinguishedNotPreserved,
    );

    // Interface list checks.
    if let Some(iface) = &view.interface {
        if iface.len() != view.select.len() {
            errors.push(ValidationError::InterfaceArity {
                interface: iface.len(),
                select: view.select.len(),
            });
        }
        for (i, n) in iface.iter().enumerate() {
            if iface[..i].contains(n) {
                errors.push(ValidationError::DuplicateInterfaceName(
                    n.as_str().to_string(),
                ));
            }
        }
    }

    // Consistency of the WHERE clause.
    if !clauses_consistent(view.conditions.iter().map(|c| &c.clause)) {
        errors.push(ValidationError::InconsistentWhere);
    }

    errors
}

/// Report each distinct item of `found` once, in ascending order: the
/// order a walk over the set of them would give.
fn push_ascending<T: Ord>(
    errors: &mut Vec<ValidationError>,
    mut found: Vec<T>,
    error: impl Fn(T) -> ValidationError,
) {
    found.sort_unstable();
    found.dedup();
    errors.extend(found.into_iter().map(error));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_view;

    fn errors_of(src: &str) -> Vec<ValidationError> {
        validate_view(&parse_view(src).unwrap())
    }

    #[test]
    fn valid_paper_view_passes() {
        // Eq. (5)-style view: all distinguished attrs preserved.
        let errs = errors_of(
            "CREATE VIEW V AS
             SELECT C.Name, C.Age, P.Participant, P.TourID, P.StartDate, F.PName, F.Date
             FROM Customer C, FlightRes F, Participant P
             WHERE (C.Name = F.PName) AND (F.Dest = 'Asia') (CD = true)
               AND (P.StartDate = F.Date) (CD = true)",
        );
        assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn duplicate_relation_flagged() {
        let errs = errors_of("CREATE VIEW V AS SELECT R.a FROM R, R");
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidationError::DuplicateRelation(_))));
    }

    #[test]
    fn unknown_relation_flagged() {
        let errs = errors_of("CREATE VIEW V AS SELECT S.a FROM R");
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidationError::UnknownRelation(_))));
    }

    #[test]
    fn distinguished_not_preserved_flagged() {
        // R.b used in an indispensable condition but not selected.
        let errs = errors_of("CREATE VIEW V AS SELECT R.a FROM R WHERE R.b = 1");
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidationError::DistinguishedNotPreserved(_))));
        // Dispensable condition: fine.
        let errs = errors_of("CREATE VIEW V AS SELECT R.a FROM R WHERE (R.b = 1) (CD = true)");
        assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn interface_arity_flagged() {
        let errs = errors_of("CREATE VIEW V (X, Y) AS SELECT R.a FROM R");
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidationError::InterfaceArity { .. })));
    }

    #[test]
    fn duplicate_interface_name_flagged() {
        let errs = errors_of("CREATE VIEW V (X, X) AS SELECT R.a, R.b FROM R");
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidationError::DuplicateInterfaceName(_))));
    }

    #[test]
    fn inconsistent_where_flagged() {
        let errs = errors_of("CREATE VIEW V AS SELECT R.a FROM R WHERE (R.a = 1) AND (R.a = 2)");
        assert!(errs.contains(&ValidationError::InconsistentWhere));
    }

    #[test]
    fn multiple_errors_all_reported() {
        let errs = errors_of("CREATE VIEW V (X, Y) AS SELECT S.a FROM R, R");
        assert!(errs.len() >= 3, "{errs:?}");
    }
}
