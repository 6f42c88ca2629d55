//! Names, attribute references and relation schemas.
//!
//! The paper describes an exported relation as `IS.R(A_1, …, A_n)` (§2).
//! Relation names are globally unique in an information space (Fig. 2 uses
//! qualified names such as `Tour.TourID` only to disambiguate attribute
//! names across relations, not relation names). We model:
//!
//! * [`RelName`] — the relation's name, optionally carrying the name of the
//!   information source that exports it;
//! * [`AttrName`] — an attribute name, unique within its relation;
//! * [`AttrRef`] — a *qualified* attribute `R.A`, the hypernode identity in
//!   `H(MKB)` (two relations exporting the same attribute name are distinct
//!   hypernodes — see Fig. 4 where `Tour.Type` and `Accident-Ins.Type`
//!   coexist).

use crate::types::DataType;
use std::fmt;
use std::sync::Arc;

/// A relation name (unique within the information space).
///
/// Internally a shared immutable string: names are created once (parsing,
/// MKB construction) and then copied pervasively through hypergraphs,
/// R-mappings and candidate replacements — a clone is a refcount bump,
/// not an allocation. Comparison, ordering and hashing are by value,
/// exactly as for the owned-string representation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelName(Arc<str>);

impl RelName {
    /// Create a relation name.
    pub fn new(name: impl Into<String>) -> Self {
        RelName(name.into().into())
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for RelName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for RelName {
    fn from(s: &str) -> Self {
        RelName::new(s)
    }
}
impl From<String> for RelName {
    fn from(s: String) -> Self {
        RelName::new(s)
    }
}

/// An attribute name (unique within its relation).
///
/// Shared immutable string, like [`RelName`]: cloning is a refcount
/// bump, value semantics are unchanged.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrName(Arc<str>);

impl AttrName {
    /// Create an attribute name.
    pub fn new(name: impl Into<String>) -> Self {
        AttrName(name.into().into())
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for AttrName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for AttrName {
    fn from(s: &str) -> Self {
        AttrName::new(s)
    }
}
impl From<String> for AttrName {
    fn from(s: String) -> Self {
        AttrName::new(s)
    }
}

/// A fully qualified attribute reference `R.A`.
///
/// This is the identity of a hypernode in the MKB hypergraph and the unit
/// of column naming inside evaluated relations: every evaluated relation
/// carries `AttrRef`-labelled columns so joins never confuse same-named
/// attributes of different relations.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrRef {
    /// The relation (or, inside a view body, the alias target) owning the
    /// attribute.
    pub relation: RelName,
    /// The attribute.
    pub attr: AttrName,
}

impl AttrRef {
    /// Create a qualified attribute reference.
    pub fn new(relation: impl Into<RelName>, attr: impl Into<AttrName>) -> Self {
        AttrRef {
            relation: relation.into(),
            attr: attr.into(),
        }
    }

    /// Parse `R.A` from text. Returns `None` when there is not exactly one
    /// dot-separated qualifier.
    pub fn parse(s: &str) -> Option<AttrRef> {
        let (r, a) = s.split_once('.')?;
        if r.is_empty() || a.is_empty() || a.contains('.') {
            return None;
        }
        Some(AttrRef::new(r, a))
    }
}

impl fmt::Display for AttrRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.relation, self.attr)
    }
}

/// An attribute definition: name + declared type (the type-integrity
/// constraint `TC` of Fig. 1, folded into the schema).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributeDef {
    /// Attribute name.
    pub name: AttrName,
    /// Declared domain.
    pub ty: DataType,
}

impl AttributeDef {
    /// Create an attribute definition.
    pub fn new(name: impl Into<AttrName>, ty: DataType) -> Self {
        AttributeDef {
            name: name.into(),
            ty,
        }
    }
}

/// The schema of a relation: an ordered list of [`AttrRef`]-identified,
/// typed columns.
///
/// Columns are identified by full `AttrRef`s (not bare names) because the
/// result of a join carries columns from several relations.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<(AttrRef, DataType)>,
}

impl Schema {
    /// Empty schema.
    pub fn new() -> Self {
        Schema::default()
    }

    /// Schema of a base relation `rel` with the given attributes.
    pub fn of_relation(rel: &RelName, attrs: &[AttributeDef]) -> Self {
        Schema {
            columns: attrs
                .iter()
                .map(|a| (AttrRef::new(rel.clone(), a.name.clone()), a.ty))
                .collect(),
        }
    }

    /// Build from explicit `(AttrRef, DataType)` columns.
    ///
    /// Duplicate `AttrRef`s are rejected.
    pub fn from_columns(
        columns: Vec<(AttrRef, DataType)>,
    ) -> Result<Self, crate::error::RelationalError> {
        for (i, (c, _)) in columns.iter().enumerate() {
            if columns[..i].iter().any(|(d, _)| d == c) {
                return Err(crate::error::RelationalError::DuplicateColumn(c.clone()));
            }
        }
        Ok(Schema { columns })
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// True when the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Position of an attribute, if present.
    pub fn index_of(&self, attr: &AttrRef) -> Option<usize> {
        self.columns.iter().position(|(c, _)| c == attr)
    }

    /// Declared type of an attribute, if present.
    pub fn type_of(&self, attr: &AttrRef) -> Option<DataType> {
        self.columns
            .iter()
            .find(|(c, _)| c == attr)
            .map(|(_, t)| *t)
    }

    /// True iff `attr` is a column of this schema.
    pub fn contains(&self, attr: &AttrRef) -> bool {
        self.index_of(attr).is_some()
    }

    /// Concatenate two schemas (for a join result). Errors on duplicate
    /// columns — the paper assumes a relation appears at most once in a
    /// FROM clause, so this never fires for well-formed views.
    pub fn concat(&self, other: &Schema) -> Result<Schema, crate::error::RelationalError> {
        let mut cols = self.columns.clone();
        for (c, t) in &other.columns {
            if self.contains(c) {
                return Err(crate::error::RelationalError::DuplicateColumn(c.clone()));
            }
            cols.push((c.clone(), *t));
        }
        Ok(Schema { columns: cols })
    }

    /// All attribute references, in column order.
    pub fn attr_refs(&self) -> impl Iterator<Item = &AttrRef> {
        self.columns.iter().map(|(c, _)| c)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, (c, t)) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}: {t}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attr_ref_parse() {
        let r = AttrRef::parse("Customer.Name").unwrap();
        assert_eq!(r.relation.as_str(), "Customer");
        assert_eq!(r.attr.as_str(), "Name");
        assert!(AttrRef::parse("Name").is_none());
        assert!(AttrRef::parse("A.B.C").is_none());
        assert!(AttrRef::parse(".B").is_none());
        assert!(AttrRef::parse("A.").is_none());
    }

    #[test]
    fn schema_of_relation_qualifies() {
        let rel = RelName::new("Customer");
        let s = Schema::of_relation(
            &rel,
            &[
                AttributeDef::new("Name", DataType::Str),
                AttributeDef::new("Age", DataType::Int),
            ],
        );
        assert_eq!(s.arity(), 2);
        assert_eq!(
            s.type_of(&AttrRef::new("Customer", "Age")),
            Some(DataType::Int)
        );
        assert_eq!(s.index_of(&AttrRef::new("Customer", "Name")), Some(0));
        assert!(!s.contains(&AttrRef::new("Other", "Name")));
    }

    #[test]
    fn schema_concat_rejects_duplicates() {
        let a = Schema::from_columns(vec![(AttrRef::new("R", "x"), DataType::Int)]).unwrap();
        let b = Schema::from_columns(vec![(AttrRef::new("R", "x"), DataType::Int)]).unwrap();
        assert!(a.concat(&b).is_err());
        let c = Schema::from_columns(vec![(AttrRef::new("S", "x"), DataType::Int)]).unwrap();
        assert_eq!(a.concat(&c).unwrap().arity(), 2);
    }

    #[test]
    fn from_columns_rejects_duplicates() {
        let cols = vec![
            (AttrRef::new("R", "x"), DataType::Int),
            (AttrRef::new("R", "x"), DataType::Str),
        ];
        assert!(Schema::from_columns(cols).is_err());
    }

    #[test]
    fn display_forms() {
        assert_eq!(AttrRef::new("R", "a").to_string(), "R.a");
        let s = Schema::from_columns(vec![(AttrRef::new("R", "a"), DataType::Int)]).unwrap();
        assert_eq!(s.to_string(), "(R.a: int)");
    }
}
