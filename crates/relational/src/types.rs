//! Data types and runtime values.
//!
//! MISD type-integrity constraints (Fig. 1 of the paper,
//! `TC_{R,A_i} = (R(A_i) ⊆ Type_i(A_i))`) assign every exported attribute a
//! domain. We support the domains that appear in the running example
//! (names, addresses, phone numbers, ages, dates, amounts) plus booleans.
//!
//! [`Value`] implements a *total* order (floats are ordered by their IEEE
//! bit pattern after NaN canonicalisation) so relations can be used as sets
//! and extents compared deterministically.

use std::cmp::Ordering;
use std::fmt;

/// Declared domain of an attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float (totally ordered inside [`Value`]).
    Float,
    /// UTF-8 string.
    Str,
    /// Boolean.
    Bool,
    /// Calendar date, stored as days since 1970-01-01.
    Date,
}

impl DataType {
    /// All data types, in a fixed order (useful for generators).
    pub const ALL: [DataType; 5] = [
        DataType::Int,
        DataType::Float,
        DataType::Str,
        DataType::Bool,
        DataType::Date,
    ];

    /// Name as used in the MISD textual format (`int`, `float`, `str`,
    /// `bool`, `date`).
    pub fn name(self) -> &'static str {
        match self {
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Str => "str",
            DataType::Bool => "bool",
            DataType::Date => "date",
        }
    }

    /// Parse a MISD type name. Case-insensitive; accepts a few synonyms
    /// (`integer`, `string`, `double`, `boolean`).
    pub fn parse(s: &str) -> Option<DataType> {
        match s.to_ascii_lowercase().as_str() {
            "int" | "integer" => Some(DataType::Int),
            "float" | "double" | "real" => Some(DataType::Float),
            "str" | "string" | "varchar" | "text" => Some(DataType::Str),
            "bool" | "boolean" => Some(DataType::Bool),
            "date" => Some(DataType::Date),
            _ => None,
        }
    }

    /// Whether values of this type support arithmetic (`+ - * /`).
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int | DataType::Float | DataType::Date)
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A float wrapper with total order and hash, so tuples can live in sets.
///
/// NaNs are canonicalised to a single bit pattern and sort greater than any
/// other value; `-0.0` and `+0.0` compare equal.
#[derive(Debug, Clone, Copy)]
pub struct OrderedF64(f64);

impl OrderedF64 {
    /// Wrap a float, canonicalising NaN.
    pub fn new(v: f64) -> Self {
        if v.is_nan() {
            OrderedF64(f64::NAN)
        } else if v == 0.0 {
            // normalise -0.0 to +0.0 so Eq and Hash agree
            OrderedF64(0.0)
        } else {
            OrderedF64(v)
        }
    }

    /// The wrapped float.
    pub fn get(self) -> f64 {
        self.0
    }

    fn key(self) -> u64 {
        // Map to a lexicographically ordered unsigned key.
        let bits = self.0.to_bits();
        if bits >> 63 == 0 {
            bits | (1 << 63)
        } else {
            !bits
        }
    }
}

impl PartialEq for OrderedF64 {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for OrderedF64 {}
impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}
impl std::hash::Hash for OrderedF64 {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

/// A runtime value. `Null` models missing information (an attribute that an
/// IS stopped exporting, or a dispensable component dropped from a view).
///
/// Comparison semantics: unlike SQL's three-valued logic we give `Null` a
/// definite position (smallest) in the total order, which keeps extent
/// comparison a plain set comparison. Predicate evaluation, however, treats
/// any comparison involving `Null` as *false* (see
/// [`crate::pred::Clause::eval`]), matching SQL's observable behaviour for
/// SELECT-FROM-WHERE queries without explicit `IS NULL`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// Missing information.
    Null,
    /// Boolean.
    Bool(bool),
    /// Integer.
    Int(i64),
    /// Totally ordered float.
    Float(OrderedF64),
    /// String (shared immutable storage — values are copied pervasively
    /// through predicates and tuples, so a clone is a refcount bump).
    Str(std::sync::Arc<str>),
    /// Date as days since the Unix epoch.
    Date(i64),
}

impl Value {
    /// Construct a float value (canonicalising NaN).
    pub fn float(v: f64) -> Value {
        Value::Float(OrderedF64::new(v))
    }

    /// Construct a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into().into())
    }

    /// The dynamic type of this value, or `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Date(_) => Some(DataType::Date),
        }
    }

    /// Numeric view of the value (`Int`, `Float` and `Date` coerce to
    /// `f64`); `None` for everything else.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(f.get()),
            Value::Date(d) => Some(*d as f64),
            _ => None,
        }
    }

    /// Compare two values the way a predicate does: numeric types compare
    /// numerically across `Int`/`Float`/`Date`; other cross-type
    /// comparisons and any comparison involving `Null` yield `None`
    /// ("unknown", which predicates treat as false).
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Str(a), Str(b)) => Some(a.cmp(b)),
            _ => {
                let (a, b) = (self.as_f64()?, other.as_f64()?);
                a.partial_cmp(&b)
            }
        }
    }
}

impl Value {
    /// Append the canonical textual form to `out` — byte-identical to
    /// the [`fmt::Display`] output, without the formatter machinery (the
    /// candidate-ranking hot path renders whole views through this).
    pub fn render_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("NULL"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => push_i64(out, *i),
            Value::Float(x) => {
                use fmt::Write as _;
                let _ = write!(out, "{}", x.get());
            }
            Value::Str(s) => {
                out.push('\'');
                if s.contains('\'') {
                    out.push_str(&s.replace('\'', "''"));
                } else {
                    out.push_str(s);
                }
                out.push('\'');
            }
            Value::Date(d) => {
                out.push_str("date(");
                push_i64(out, *d);
                out.push(')');
            }
        }
    }
}

/// Decimal-format an `i64` straight into a string buffer.
fn push_i64(out: &mut String, v: i64) {
    let mut buf = [0u8; 20];
    let mut n = v.unsigned_abs();
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if v < 0 {
        i -= 1;
        buf[i] = b'-';
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ASCII digits"));
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{}", x.get()),
            Value::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Value::Date(d) => write!(f, "date({d})"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.into())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v.into())
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::float(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datatype_roundtrip() {
        for dt in DataType::ALL {
            assert_eq!(DataType::parse(dt.name()), Some(dt));
        }
        assert_eq!(DataType::parse("VarChar"), Some(DataType::Str));
        assert_eq!(DataType::parse("blob"), None);
    }

    #[test]
    fn numeric_types() {
        assert!(DataType::Int.is_numeric());
        assert!(DataType::Date.is_numeric());
        assert!(!DataType::Str.is_numeric());
        assert!(!DataType::Bool.is_numeric());
    }

    #[test]
    fn ordered_float_total_order() {
        let nan = OrderedF64::new(f64::NAN);
        let one = OrderedF64::new(1.0);
        let neg = OrderedF64::new(-5.0);
        assert!(nan > one);
        assert!(neg < one);
        assert_eq!(nan, OrderedF64::new(f64::NAN));
        assert_eq!(OrderedF64::new(-0.0), OrderedF64::new(0.0));
    }

    #[test]
    fn value_sql_cmp_cross_numeric() {
        assert_eq!(
            Value::Int(3).sql_cmp(&Value::float(3.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Date(10).sql_cmp(&Value::Int(11)),
            Some(Ordering::Less)
        );
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::str("a").sql_cmp(&Value::Int(1)), None);
        assert_eq!(
            Value::str("a").sql_cmp(&Value::str("b")),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn value_display() {
        assert_eq!(Value::str("O'Neil").to_string(), "'O''Neil'");
        assert_eq!(Value::Int(-4).to_string(), "-4");
        assert_eq!(Value::Null.to_string(), "NULL");
    }

    #[test]
    fn value_total_order_is_consistent() {
        let mut vals = [
            Value::str("z"),
            Value::Null,
            Value::Int(2),
            Value::float(1.5),
            Value::Bool(true),
            Value::Date(3),
        ];
        vals.sort();
        // Null sorts first in the total order.
        assert_eq!(vals[0], Value::Null);
    }
}
