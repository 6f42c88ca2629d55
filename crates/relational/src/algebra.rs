//! Relational algebra evaluation: selection σ, projection π and theta-join ⋈.
//!
//! These three operators are all the paper needs: views are
//! SELECT-FROM-WHERE (select-project-join), join constraints induce
//! theta-joins `R1 ⋈_{JC} R2`, and partial/complete constraints compare
//! projections of selections. Evaluation is straightforward nested-loop /
//! filter evaluation — the engine exists to *validate* rewritings on
//! modest generated states, not to compete on query performance (see
//! DESIGN.md, substitutions).

use crate::error::RelationalError;
use crate::expr::ScalarExpr;
use crate::func::FuncRegistry;
use crate::pred::Conjunction;
use crate::relation::Relation;
use crate::schema::{AttrRef, Schema};
use crate::tuple::Tuple;
use crate::types::DataType;

/// Selection `σ_cond(input)`.
pub fn select(
    input: &Relation,
    cond: &Conjunction,
    funcs: &FuncRegistry,
) -> Result<Relation, RelationalError> {
    let mut out = Relation::new(input.schema().clone());
    for t in input.rows() {
        if cond.eval(input.schema(), t, funcs)? {
            out.insert(t.clone())?;
        }
    }
    Ok(out)
}

/// Projection `π_exprs(input)` with explicit output column names.
///
/// Each output column is `(name, expr)`; the name becomes the column's
/// [`AttrRef`] in the result schema. The result type is inferred from the
/// expression where possible, defaulting to the type of the first non-null
/// produced value and `Str` as a last resort.
pub fn project(
    input: &Relation,
    columns: &[(AttrRef, ScalarExpr)],
    funcs: &FuncRegistry,
) -> Result<Relation, RelationalError> {
    // Infer output column types: attribute refs keep their declared type;
    // everything else gets typed from the first produced value.
    let mut types: Vec<Option<DataType>> = columns
        .iter()
        .map(|(_, e)| match e {
            ScalarExpr::Attr(a) => input.schema().type_of(a),
            ScalarExpr::Const(v) => v.data_type(),
            _ => None,
        })
        .collect();

    let mut produced: Vec<Tuple> = Vec::with_capacity(input.len());
    for t in input.rows() {
        let mut vals = Vec::with_capacity(columns.len());
        for (i, (_, e)) in columns.iter().enumerate() {
            let v = e.eval(input.schema(), t, funcs)?;
            if types[i].is_none() {
                types[i] = v.data_type();
            }
            vals.push(v);
        }
        produced.push(Tuple::new(vals));
    }

    let schema = Schema::from_columns(
        columns
            .iter()
            .zip(&types)
            .map(|((name, _), ty)| (name.clone(), ty.unwrap_or(DataType::Str)))
            .collect(),
    )?;
    Relation::from_rows(schema, produced)
}

/// Theta-join `left ⋈_cond right` (nested loop; `cond` may reference
/// columns of both inputs). The empty condition yields the cross product.
pub fn theta_join(
    left: &Relation,
    right: &Relation,
    cond: &Conjunction,
    funcs: &FuncRegistry,
) -> Result<Relation, RelationalError> {
    let schema = left.schema().concat(right.schema())?;
    let mut out = Relation::new(schema.clone());
    for lt in left.rows() {
        for rt in right.rows() {
            let joined = lt.concat(rt);
            if cond.eval(&schema, &joined, funcs)? {
                out.insert(joined)?;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pred::{Clause, CompareOp};
    use crate::schema::{AttributeDef, RelName};
    use crate::types::Value;

    fn rel(name: &str, attrs: &[(&str, DataType)], rows: Vec<Vec<Value>>) -> Relation {
        let schema = Schema::of_relation(
            &RelName::new(name),
            &attrs
                .iter()
                .map(|(n, t)| AttributeDef::new(*n, *t))
                .collect::<Vec<_>>(),
        );
        Relation::from_rows(schema, rows.into_iter().map(Tuple::new)).unwrap()
    }

    fn customer() -> Relation {
        rel(
            "Customer",
            &[("Name", DataType::Str), ("Age", DataType::Int)],
            vec![
                vec![Value::str("ann"), Value::Int(30)],
                vec![Value::str("bob"), Value::Int(17)],
                vec![Value::str("cat"), Value::Int(45)],
            ],
        )
    }

    fn flightres() -> Relation {
        rel(
            "FlightRes",
            &[("PName", DataType::Str), ("Dest", DataType::Str)],
            vec![
                vec![Value::str("ann"), Value::str("Asia")],
                vec![Value::str("bob"), Value::str("Europe")],
                vec![Value::str("dan"), Value::str("Asia")],
            ],
        )
    }

    #[test]
    fn select_filters() {
        let funcs = FuncRegistry::new();
        let cond = Conjunction::new(vec![Clause::new(
            ScalarExpr::attr("Customer", "Age"),
            CompareOp::Gt,
            ScalarExpr::lit(18i64),
        )]);
        let out = select(&customer(), &cond, &funcs).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn project_plain_and_computed() {
        let funcs = FuncRegistry::new();
        let out = project(
            &customer(),
            &[
                (
                    AttrRef::new("V", "Name"),
                    ScalarExpr::attr("Customer", "Name"),
                ),
                (
                    AttrRef::new("V", "AgePlus"),
                    ScalarExpr::binary(
                        crate::expr::ArithOp::Add,
                        ScalarExpr::attr("Customer", "Age"),
                        ScalarExpr::lit(1i64),
                    ),
                ),
            ],
            &funcs,
        )
        .unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(
            out.schema().type_of(&AttrRef::new("V", "AgePlus")),
            Some(DataType::Int)
        );
        assert!(out.contains(&Tuple::new(vec![Value::str("ann"), Value::Int(31)])));
    }

    #[test]
    fn project_dedups_under_set_semantics() {
        let funcs = FuncRegistry::new();
        let out = project(
            &customer(),
            &[(AttrRef::new("V", "One"), ScalarExpr::lit(1i64))],
            &funcs,
        )
        .unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn theta_join_on_name() {
        let funcs = FuncRegistry::new();
        let cond = Conjunction::new(vec![Clause::eq_attrs(
            AttrRef::new("Customer", "Name"),
            AttrRef::new("FlightRes", "PName"),
        )]);
        let out = theta_join(&customer(), &flightres(), &cond, &funcs).unwrap();
        assert_eq!(out.len(), 2); // ann, bob
        assert_eq!(out.schema().arity(), 4);
    }

    #[test]
    fn empty_condition_is_cross_product() {
        let funcs = FuncRegistry::new();
        let out = theta_join(&customer(), &flightres(), &Conjunction::empty(), &funcs).unwrap();
        assert_eq!(out.len(), 9);
    }

    #[test]
    fn select_project_join_composes_like_a_view() {
        // SELECT C.Name FROM Customer C, FlightRes F
        // WHERE C.Name = F.PName AND F.Dest = 'Asia'
        let funcs = FuncRegistry::new();
        let joined = theta_join(
            &customer(),
            &flightres(),
            &Conjunction::new(vec![Clause::eq_attrs(
                AttrRef::new("Customer", "Name"),
                AttrRef::new("FlightRes", "PName"),
            )]),
            &funcs,
        )
        .unwrap();
        let filtered = select(
            &joined,
            &Conjunction::new(vec![Clause::new(
                ScalarExpr::attr("FlightRes", "Dest"),
                CompareOp::Eq,
                ScalarExpr::lit("Asia"),
            )]),
            &funcs,
        )
        .unwrap();
        let out = project(
            &filtered,
            &[(
                AttrRef::new("V", "Name"),
                ScalarExpr::attr("Customer", "Name"),
            )],
            &funcs,
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&Tuple::new(vec![Value::str("ann")])));
    }
}
