//! Scalar expressions: attribute references, constants, arithmetic and
//! named-function application.
//!
//! Scalar expressions appear in three places in the EVE framework:
//!
//! 1. the SELECT list of an (evolved) E-SQL view — e.g. Eq. (13) of the
//!    paper projects `f(A.Birthday)` after the `Customer.Age` attribute is
//!    replaced through function-of constraint `F3`;
//! 2. the right-hand side of MISD function-of constraints, e.g.
//!    `Customer.Age = (today() − Accident-Ins.Birthday)/365`;
//! 3. both sides of primitive clauses ([`crate::pred::Clause`]).
//!
//! Attribute substitution ([`ScalarExpr::substitute`]) is the workhorse of
//! CVS Step 4: every occurrence of a dropped relation's attribute is
//! replaced by its *replacement expression* `f(S.B)`.

use crate::error::RelationalError;
use crate::func::FuncRegistry;
use crate::schema::{AttrRef, RelName, Schema};
use crate::tuple::Tuple;
use crate::types::Value;
use std::collections::BTreeSet;
use std::fmt;

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ArithOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (integer division when both operands are integers).
    Div,
}

impl ArithOp {
    /// Symbol as written in E-SQL / MISD text.
    pub fn symbol(self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        }
    }

    fn apply(self, l: &Value, r: &Value) -> Value {
        // Integer-preserving arithmetic when both sides are integers (or
        // dates, which are day counts); float otherwise.
        match (l, r) {
            (Value::Null, _) | (_, Value::Null) => Value::Null,
            (Value::Int(a), Value::Int(b)) => match self {
                ArithOp::Add => Value::Int(a.wrapping_add(*b)),
                ArithOp::Sub => Value::Int(a.wrapping_sub(*b)),
                ArithOp::Mul => Value::Int(a.wrapping_mul(*b)),
                ArithOp::Div => {
                    if *b == 0 {
                        Value::Null
                    } else {
                        Value::Int(a.wrapping_div(*b))
                    }
                }
            },
            (Value::Date(a), Value::Date(b)) if self == ArithOp::Sub => Value::Int(a - b),
            _ => match (l.as_f64(), r.as_f64()) {
                (Some(a), Some(b)) => match self {
                    ArithOp::Add => Value::float(a + b),
                    ArithOp::Sub => Value::float(a - b),
                    ArithOp::Mul => Value::float(a * b),
                    ArithOp::Div => {
                        if b == 0.0 {
                            Value::Null
                        } else {
                            Value::float(a / b)
                        }
                    }
                },
                _ => Value::Null,
            },
        }
    }
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ScalarExpr {
    /// A qualified attribute reference `R.A`.
    Attr(AttrRef),
    /// A literal constant.
    Const(Value),
    /// Binary arithmetic.
    Binary {
        /// Operator.
        op: ArithOp,
        /// Left operand.
        lhs: Box<ScalarExpr>,
        /// Right operand.
        rhs: Box<ScalarExpr>,
    },
    /// Named function application `f(e1, …, en)`.
    Call {
        /// Function name, resolved through a [`FuncRegistry`] at eval time.
        func: String,
        /// Arguments.
        args: Vec<ScalarExpr>,
    },
}

impl ScalarExpr {
    /// Attribute reference shorthand.
    pub fn attr(rel: impl Into<RelName>, attr: impl Into<crate::schema::AttrName>) -> Self {
        ScalarExpr::Attr(AttrRef::new(rel, attr))
    }

    /// Constant shorthand.
    pub fn lit(v: impl Into<Value>) -> Self {
        ScalarExpr::Const(v.into())
    }

    /// Binary arithmetic shorthand.
    pub fn binary(op: ArithOp, lhs: ScalarExpr, rhs: ScalarExpr) -> Self {
        ScalarExpr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// Function call shorthand.
    pub fn call(func: impl Into<String>, args: Vec<ScalarExpr>) -> Self {
        ScalarExpr::Call {
            func: func.into(),
            args,
        }
    }

    /// Evaluate against a tuple under the given schema and function
    /// registry.
    pub fn eval(
        &self,
        schema: &Schema,
        tuple: &Tuple,
        funcs: &FuncRegistry,
    ) -> Result<Value, RelationalError> {
        match self {
            ScalarExpr::Attr(a) => {
                let idx = schema
                    .index_of(a)
                    .ok_or_else(|| RelationalError::UnknownAttribute(a.clone()))?;
                Ok(tuple.get(idx).cloned().unwrap_or(Value::Null))
            }
            ScalarExpr::Const(v) => Ok(v.clone()),
            ScalarExpr::Binary { op, lhs, rhs } => {
                let l = lhs.eval(schema, tuple, funcs)?;
                let r = rhs.eval(schema, tuple, funcs)?;
                Ok(op.apply(&l, &r))
            }
            ScalarExpr::Call { func, args } => {
                let vals = args
                    .iter()
                    .map(|a| a.eval(schema, tuple, funcs))
                    .collect::<Result<Vec<_>, _>>()?;
                funcs.call(func, &vals)
            }
        }
    }

    /// Collect every attribute referenced by this expression.
    pub fn attrs(&self) -> BTreeSet<AttrRef> {
        let mut out = BTreeSet::new();
        self.collect_attrs(&mut out);
        out
    }

    fn collect_attrs(&self, out: &mut BTreeSet<AttrRef>) {
        match self {
            ScalarExpr::Attr(a) => {
                out.insert(a.clone());
            }
            ScalarExpr::Const(_) => {}
            ScalarExpr::Binary { lhs, rhs, .. } => {
                lhs.collect_attrs(out);
                rhs.collect_attrs(out);
            }
            ScalarExpr::Call { args, .. } => {
                for a in args {
                    a.collect_attrs(out);
                }
            }
        }
    }

    /// All relations mentioned by this expression.
    pub fn relations(&self) -> BTreeSet<RelName> {
        self.attrs().into_iter().map(|a| a.relation).collect()
    }

    /// Does the expression reference attribute `target`? Equivalent to
    /// `self.attrs().contains(target)` without materialising the set.
    pub fn contains_attr(&self, target: &AttrRef) -> bool {
        match self {
            ScalarExpr::Attr(a) => a == target,
            ScalarExpr::Const(_) => false,
            ScalarExpr::Binary { lhs, rhs, .. } => {
                lhs.contains_attr(target) || rhs.contains_attr(target)
            }
            ScalarExpr::Call { args, .. } => args.iter().any(|a| a.contains_attr(target)),
        }
    }

    /// Does the expression reference any attribute of relation `rel`?
    /// Equivalent to `self.relations().contains(rel)` without
    /// materialising the set.
    pub fn references_relation(&self, rel: &RelName) -> bool {
        match self {
            ScalarExpr::Attr(a) => &a.relation == rel,
            ScalarExpr::Const(_) => false,
            ScalarExpr::Binary { lhs, rhs, .. } => {
                lhs.references_relation(rel) || rhs.references_relation(rel)
            }
            ScalarExpr::Call { args, .. } => args.iter().any(|a| a.references_relation(rel)),
        }
    }

    /// Does `pred` hold for every attribute reference, in walk order?
    /// Stops at the first that fails. Equivalent to
    /// `self.attrs().iter().all(pred)` without materialising the set.
    pub fn all_attrs<F: FnMut(&AttrRef) -> bool>(&self, pred: &mut F) -> bool {
        match self {
            ScalarExpr::Attr(a) => pred(a),
            ScalarExpr::Const(_) => true,
            ScalarExpr::Binary { lhs, rhs, .. } => lhs.all_attrs(pred) && rhs.all_attrs(pred),
            ScalarExpr::Call { args, .. } => args.iter().all(|a| a.all_attrs(pred)),
        }
    }

    /// True iff the expression references no attributes (it is a constant
    /// expression, possibly via nullary functions such as `today()`).
    pub fn is_constant(&self) -> bool {
        self.attrs().is_empty()
    }

    /// Replace every occurrence of attribute `target` by `replacement`.
    ///
    /// This implements the attribute-substitution step of CVS (Step 4 and
    /// Def. 3 (V) of the paper): a dropped relation's attribute `R.A` is
    /// replaced throughout the view by its replacement `f(S.B)`.
    pub fn substitute(&self, target: &AttrRef, replacement: &ScalarExpr) -> ScalarExpr {
        match self {
            ScalarExpr::Attr(a) if a == target => replacement.clone(),
            ScalarExpr::Attr(_) | ScalarExpr::Const(_) => self.clone(),
            ScalarExpr::Binary { op, lhs, rhs } => ScalarExpr::Binary {
                op: *op,
                lhs: Box::new(lhs.substitute(target, replacement)),
                rhs: Box::new(rhs.substitute(target, replacement)),
            },
            ScalarExpr::Call { func, args } => ScalarExpr::Call {
                func: func.clone(),
                args: args
                    .iter()
                    .map(|a| a.substitute(target, replacement))
                    .collect(),
            },
        }
    }

    /// Rename every reference to relation `from` into `to` (used when a
    /// capability change renames a relation, and when binding view aliases
    /// to base relations).
    pub fn rename_relation(&self, from: &RelName, to: &RelName) -> ScalarExpr {
        match self {
            ScalarExpr::Attr(a) if &a.relation == from => {
                ScalarExpr::Attr(AttrRef::new(to.clone(), a.attr.clone()))
            }
            ScalarExpr::Attr(_) | ScalarExpr::Const(_) => self.clone(),
            ScalarExpr::Binary { op, lhs, rhs } => ScalarExpr::Binary {
                op: *op,
                lhs: Box::new(lhs.rename_relation(from, to)),
                rhs: Box::new(rhs.rename_relation(from, to)),
            },
            ScalarExpr::Call { func, args } => ScalarExpr::Call {
                func: func.clone(),
                args: args.iter().map(|a| a.rename_relation(from, to)).collect(),
            },
        }
    }
}

impl ScalarExpr {
    /// Append the canonical textual form to `out` — byte-identical to
    /// the [`fmt::Display`] output, without the formatter machinery.
    pub fn render_into(&self, out: &mut String) {
        match self {
            ScalarExpr::Attr(a) => {
                out.push_str(a.relation.as_str());
                out.push('.');
                out.push_str(a.attr.as_str());
            }
            ScalarExpr::Const(v) => v.render_into(out),
            ScalarExpr::Binary { op, lhs, rhs } => {
                out.push('(');
                lhs.render_into(out);
                out.push(' ');
                out.push_str(op.symbol());
                out.push(' ');
                rhs.render_into(out);
                out.push(')');
            }
            ScalarExpr::Call { func, args } => {
                out.push_str(func);
                out.push('(');
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    a.render_into(out);
                }
                out.push(')');
            }
        }
    }
}

impl fmt::Display for ScalarExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarExpr::Attr(a) => write!(f, "{a}"),
            ScalarExpr::Const(v) => write!(f, "{v}"),
            ScalarExpr::Binary { op, lhs, rhs } => {
                write!(f, "({} {} {})", lhs, op.symbol(), rhs)
            }
            ScalarExpr::Call { func, args } => {
                write!(f, "{func}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl From<AttrRef> for ScalarExpr {
    fn from(a: AttrRef) -> Self {
        ScalarExpr::Attr(a)
    }
}
impl From<Value> for ScalarExpr {
    fn from(v: Value) -> Self {
        ScalarExpr::Const(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::DEFAULT_TODAY;
    use crate::schema::AttributeDef;
    use crate::types::DataType;

    fn schema() -> Schema {
        Schema::of_relation(
            &RelName::new("R"),
            &[
                AttributeDef::new("x", DataType::Int),
                AttributeDef::new("d", DataType::Date),
            ],
        )
    }

    #[test]
    fn eval_arithmetic() {
        let s = schema();
        let funcs = FuncRegistry::new();
        let t = Tuple::new(vec![Value::Int(10), Value::Date(100)]);
        let e = ScalarExpr::binary(
            ArithOp::Mul,
            ScalarExpr::attr("R", "x"),
            ScalarExpr::lit(3i64),
        );
        assert_eq!(e.eval(&s, &t, &funcs).unwrap(), Value::Int(30));
    }

    #[test]
    fn eval_age_from_birthday_like_f3() {
        // F3: Age = (today() - Birthday)/365
        let s = schema();
        let funcs = FuncRegistry::new();
        let t = Tuple::new(vec![Value::Int(0), Value::Date(DEFAULT_TODAY - 365 * 30)]);
        let e = ScalarExpr::binary(
            ArithOp::Div,
            ScalarExpr::binary(
                ArithOp::Sub,
                ScalarExpr::call("today", vec![]),
                ScalarExpr::attr("R", "d"),
            ),
            ScalarExpr::lit(365i64),
        );
        assert_eq!(e.eval(&s, &t, &funcs).unwrap(), Value::Int(30));
    }

    #[test]
    fn eval_null_propagates() {
        let s = schema();
        let funcs = FuncRegistry::new();
        let t = Tuple::new(vec![Value::Null, Value::Date(5)]);
        let e = ScalarExpr::binary(
            ArithOp::Add,
            ScalarExpr::attr("R", "x"),
            ScalarExpr::lit(1i64),
        );
        assert_eq!(e.eval(&s, &t, &funcs).unwrap(), Value::Null);
    }

    #[test]
    fn division_by_zero_is_null() {
        let s = schema();
        let funcs = FuncRegistry::new();
        let t = Tuple::new(vec![Value::Int(1), Value::Date(5)]);
        let e = ScalarExpr::binary(
            ArithOp::Div,
            ScalarExpr::attr("R", "x"),
            ScalarExpr::lit(0i64),
        );
        assert_eq!(e.eval(&s, &t, &funcs).unwrap(), Value::Null);
    }

    #[test]
    fn unknown_attribute_errors() {
        let s = schema();
        let funcs = FuncRegistry::new();
        let t = Tuple::new(vec![Value::Int(1), Value::Date(5)]);
        let e = ScalarExpr::attr("R", "nope");
        assert!(matches!(
            e.eval(&s, &t, &funcs),
            Err(RelationalError::UnknownAttribute(_))
        ));
    }

    #[test]
    fn substitute_replaces_everywhere() {
        let target = AttrRef::new("Customer", "Age");
        let replacement = ScalarExpr::binary(
            ArithOp::Div,
            ScalarExpr::binary(
                ArithOp::Sub,
                ScalarExpr::call("today", vec![]),
                ScalarExpr::attr("Accident-Ins", "Birthday"),
            ),
            ScalarExpr::lit(365i64),
        );
        let e = ScalarExpr::binary(
            ArithOp::Add,
            ScalarExpr::Attr(target.clone()),
            ScalarExpr::Attr(target.clone()),
        );
        let e2 = e.substitute(&target, &replacement);
        assert!(e2
            .attrs()
            .contains(&AttrRef::new("Accident-Ins", "Birthday")));
        assert!(!e2.attrs().contains(&target));
    }

    #[test]
    fn rename_relation() {
        let e = ScalarExpr::binary(
            ArithOp::Add,
            ScalarExpr::attr("C", "Age"),
            ScalarExpr::attr("D", "Age"),
        );
        let e2 = e.rename_relation(&RelName::new("C"), &RelName::new("Customer"));
        assert!(e2.attrs().contains(&AttrRef::new("Customer", "Age")));
        assert!(e2.attrs().contains(&AttrRef::new("D", "Age")));
    }

    #[test]
    fn display_roundtrip_shapes() {
        let e = ScalarExpr::binary(
            ArithOp::Div,
            ScalarExpr::call("today", vec![]),
            ScalarExpr::lit(365i64),
        );
        assert_eq!(e.to_string(), "(today() / 365)");
    }

    #[test]
    fn is_constant() {
        assert!(ScalarExpr::lit(1i64).is_constant());
        assert!(ScalarExpr::call("today", vec![]).is_constant());
        assert!(!ScalarExpr::attr("R", "x").is_constant());
    }

    /// `all_attrs` answers as `attrs().iter().all(..)` does, through
    /// binary operands and call arguments, and is vacuously true for a
    /// constant.
    #[test]
    fn all_attrs_matches_the_attribute_set() {
        // (f(S.b) - S.c) / 365
        let e = ScalarExpr::binary(
            ArithOp::Div,
            ScalarExpr::binary(
                ArithOp::Sub,
                ScalarExpr::call("f", vec![ScalarExpr::attr("S", "b")]),
                ScalarExpr::attr("S", "c"),
            ),
            ScalarExpr::lit(365i64),
        );
        let preds: [fn(&AttrRef) -> bool; 3] = [
            |a| a.relation.as_str() == "S",
            |a| a.attr.as_str() == "b",
            |_| false,
        ];
        for mut pred in preds {
            assert_eq!(e.all_attrs(&mut pred), e.attrs().iter().all(pred));
        }
        assert!(ScalarExpr::call("today", vec![]).all_attrs(&mut |_| false));
    }
}
