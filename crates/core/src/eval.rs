//! Evaluating an E-SQL view over a concrete database state.
//!
//! Used by the *empirical* side of Step 6: to compare the extents of the
//! original and evolved view (P3 of Def. 1), both are evaluated over
//! generated IS states. Evolution-parameter annotations play no role at
//! evaluation time — a view evaluates exactly like the plain SQL view it
//! decorates.

use eve_esql::ViewDefinition;
use eve_relational::{
    project, select, theta_join, AttrRef, Conjunction, Database, FuncRegistry, Relation,
    RelationalError,
};
use std::collections::BTreeSet;

/// Evaluate `view` against `db`.
///
/// Join order follows the FROM clause; conditions are pushed into the
/// join pipeline as soon as every relation they mention is available
/// (plain heuristic predicate push-down — the engine validates
/// correctness, it does not race anyone).
///
/// Output columns are named `view.<interface-name>` so that extents of
/// differently-shaped rewritings stay positionally comparable through
/// their shared interface names.
///
/// A FROM relation that `db` lacks, or a WHERE condition over a relation
/// that FROM does not list, is a [`RelationalError::UnknownRelation`].
pub fn evaluate_view(
    view: &ViewDefinition,
    db: &Database,
    funcs: &FuncRegistry,
) -> Result<Relation, RelationalError> {
    let conditions = view.where_conjunction();
    let mut remaining: Vec<_> = conditions.clauses().to_vec();

    let mut acc: Option<Relation> = None;
    let mut joined: BTreeSet<_> = BTreeSet::new();
    for item in &view.from {
        let rel = db.require(&item.relation)?.clone();
        acc = Some(match acc {
            None => rel,
            Some(a) => theta_join(&a, &rel, &Conjunction::empty(), funcs)?,
        });
        joined.insert(item.relation.clone());
        // Push down every condition now fully covered.
        let (ready, rest): (Vec<_>, Vec<_>) = remaining
            .into_iter()
            .partition(|c| c.relations().iter().all(|r| joined.contains(r)));
        remaining = rest;
        if !ready.is_empty() {
            let a = acc.take().expect("accumulator set above");
            acc = Some(select(&a, &Conjunction::new(ready), funcs)?);
        }
    }
    // A condition left over names a relation the FROM clause never
    // joined: report it rather than drop the condition.
    if let Some(rel) = remaining
        .iter()
        .flat_map(|c| c.relations())
        .find(|r| !joined.contains(r))
    {
        return Err(RelationalError::UnknownRelation(rel));
    }
    let acc = match acc {
        Some(a) => a,
        None => Relation::new(eve_relational::Schema::new()),
    };

    let names = view.interface_names();
    let columns: Vec<(AttrRef, _)> = view
        .select
        .iter()
        .zip(names)
        .map(|(item, name)| (AttrRef::new(view.name.as_str(), name), item.expr.clone()))
        .collect();
    project(&acc, &columns, funcs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eve_esql::parse_view;
    use eve_relational::{AttributeDef, DataType, RelName, Schema, Tuple, Value};

    fn db() -> Database {
        let mut db = Database::new();
        let cust = RelName::new("Customer");
        let schema = Schema::of_relation(
            &cust,
            &[
                AttributeDef::new("Name", DataType::Str),
                AttributeDef::new("Age", DataType::Int),
            ],
        );
        let rel = Relation::from_rows(
            schema,
            [("ann", 30), ("bob", 17), ("cat", 45)]
                .map(|(n, a)| Tuple::new(vec![Value::str(n), Value::Int(a)])),
        )
        .unwrap();
        db.put(cust, rel);

        let fr = RelName::new("FlightRes");
        let schema = Schema::of_relation(
            &fr,
            &[
                AttributeDef::new("PName", DataType::Str),
                AttributeDef::new("Dest", DataType::Str),
            ],
        );
        let rel = Relation::from_rows(
            schema,
            [("ann", "Asia"), ("bob", "Europe"), ("cat", "Asia")]
                .map(|(n, d)| Tuple::new(vec![Value::str(n), Value::str(d)])),
        )
        .unwrap();
        db.put(fr, rel);
        db
    }

    #[test]
    fn evaluates_select_from_where() {
        let v = parse_view(
            "CREATE VIEW V AS SELECT C.Name, C.Age FROM Customer C, FlightRes F
             WHERE (C.Name = F.PName) AND (F.Dest = 'Asia') AND (C.Age > 18)",
        )
        .unwrap();
        let out = evaluate_view(&v, &db(), &FuncRegistry::new()).unwrap();
        assert_eq!(out.len(), 2); // ann(30), cat(45)
        assert!(out.schema().contains(&AttrRef::new("V", "Name")));
    }

    #[test]
    fn single_relation_no_where() {
        let v = parse_view("CREATE VIEW V AS SELECT C.Name FROM Customer C").unwrap();
        let out = evaluate_view(&v, &db(), &FuncRegistry::new()).unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn computed_projection() {
        let v = parse_view(
            "CREATE VIEW V AS SELECT C.Age * 2 AS Doubled FROM Customer C WHERE C.Name = 'ann'",
        )
        .unwrap();
        let out = evaluate_view(&v, &db(), &FuncRegistry::new()).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows().next().unwrap().values()[0], Value::Int(60));
        assert!(out.schema().contains(&AttrRef::new("V", "Doubled")));
    }

    #[test]
    fn missing_relation_errors() {
        let v = parse_view("CREATE VIEW V AS SELECT T.x FROM T").unwrap();
        assert!(evaluate_view(&v, &db(), &FuncRegistry::new()).is_err());
    }

    #[test]
    fn condition_outside_from_errors() {
        let v =
            parse_view("CREATE VIEW V AS SELECT C.Name FROM Customer C WHERE (S.b = 1)").unwrap();
        assert_eq!(
            evaluate_view(&v, &db(), &FuncRegistry::new()),
            Err(RelationalError::UnknownRelation(RelName::new("S")))
        );
    }

    #[test]
    fn explicit_interface_names_columns() {
        let v = parse_view("CREATE VIEW V (N, A) AS SELECT C.Name, C.Age FROM Customer C").unwrap();
        let out = evaluate_view(&v, &db(), &FuncRegistry::new()).unwrap();
        assert!(out.schema().contains(&AttrRef::new("V", "N")));
        assert!(out.schema().contains(&AttrRef::new("V", "A")));
    }
}
