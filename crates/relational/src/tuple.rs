//! Tuples: ordered value vectors matching a [`crate::schema::Schema`].

use crate::types::Value;
use std::fmt;

/// A tuple of values. Width must match the owning relation's schema arity
/// (enforced at insertion, see [`crate::relation::Relation::insert`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Tuple(Vec<Value>);

impl Tuple {
    /// Create a tuple from values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple(values)
    }

    /// Number of values.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Value at position `i`.
    pub fn get(&self, i: usize) -> Option<&Value> {
        self.0.get(i)
    }

    /// All values in order.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// Concatenate two tuples (for join results).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut v = Vec::with_capacity(self.0.len() + other.0.len());
        v.extend_from_slice(&self.0);
        v.extend_from_slice(&other.0);
        Tuple(v)
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(v: Vec<Value>) -> Self {
        Tuple::new(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concat() {
        let a = Tuple::new(vec![Value::Int(1), Value::str("x")]);
        let b = Tuple::new(vec![Value::Bool(true)]);
        let c = a.concat(&b);
        assert_eq!(c.arity(), 3);
        assert_eq!(
            c.values(),
            &[Value::Int(1), Value::str("x"), Value::Bool(true)]
        );
    }

    #[test]
    fn display() {
        let t = Tuple::new(vec![Value::Int(1), Value::Null]);
        assert_eq!(t.to_string(), "(1, NULL)");
    }
}
