//! Properties of `evaluate_view`, the one view evaluator (it backs
//! `empirical_extent` and the simulator's extent checks), checked against
//! a nested-loop oracle over the generated rows rather than against
//! another evaluator of the crate.

use eve::cvs::evaluate_view;
use eve::esql::parse_view;
use eve::relational::{
    AttrRef, AttributeDef, DataType, Database, FuncRegistry, RelName, Relation, RelationalError,
    Schema, Tuple, Value,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The columns of R(k, v) × S(k, w), in the order of an oracle row.
const COLUMNS: [&str; 4] = ["R.k", "R.v", "S.k", "S.w"];
const COMPARE: [&str; 6] = ["=", "<>", "<", "<=", ">", ">="];
const ARITH: [&str; 3] = ["+", "-", "*"];

/// A column index (`Ok`) or an integer constant (`Err`).
type Operand = Result<usize, i64>;
/// `(column <COMPARE[op]> operand)`.
type Cond = (usize, usize, Operand);
/// A column, or `column <ARITH[op]> operand`.
type Item = (usize, Option<(usize, Operand)>);

fn operand_esql(o: Operand) -> String {
    o.map_or_else(|n| n.to_string(), |c| COLUMNS[c].to_string())
}

fn cond_esql(&(c, op, rhs): &Cond) -> String {
    format!("({} {} {})", COLUMNS[c], COMPARE[op], operand_esql(rhs))
}

fn item_esql(&(c, arith): &Item) -> String {
    match arith {
        None => COLUMNS[c].to_string(),
        Some((op, rhs)) => format!("{} {} {}", COLUMNS[c], ARITH[op], operand_esql(rhs)),
    }
}

fn holds(&(c, op, rhs): &Cond, row: &[i64]) -> bool {
    let (l, r) = (row[c], rhs.map_or_else(|n| n, |c| row[c]));
    [l == r, l != r, l < r, l <= r, l > r, l >= r][op]
}

fn item_value(&(c, arith): &Item, row: &[i64]) -> Value {
    Value::Int(match arith {
        None => row[c],
        Some((op, rhs)) => {
            let (l, r) = (row[c], rhs.map_or_else(|n| n, |c| row[c]));
            [l + r, l - r, l * r][op]
        }
    })
}

/// Strategies over the first `n` of `COLUMNS`.
fn operand(n: usize) -> impl Strategy<Value = Operand> {
    prop_oneof![(0..n).prop_map(Ok), (-3i64..3).prop_map(Err)]
}

fn cond(n: usize) -> impl Strategy<Value = Cond> {
    (0..n, 0..COMPARE.len(), operand(n))
}

fn item(n: usize) -> impl Strategy<Value = Item> {
    (0..n, proptest::option::of((0..ARITH.len(), operand(n))))
}

/// Rows over a tiny domain, so joins match and projections collapse
/// several derivations into one row.
fn rows() -> impl Strategy<Value = Vec<(i64, i64)>> {
    proptest::collection::vec((-3i64..3, -3i64..3), 0..8)
}

fn relation(name: &str, attrs: [&str; 2], rows: &[(i64, i64)]) -> Relation {
    let attrs = attrs.map(|a| AttributeDef::new(a, DataType::Int));
    let rows = rows
        .iter()
        .map(|&(a, b)| Tuple::new(vec![Value::Int(a), Value::Int(b)]));
    Relation::from_rows(Schema::of_relation(&RelName::new(name), &attrs), rows).expect("arity 2")
}

fn db(r: &[(i64, i64)], s: &[(i64, i64)]) -> Database {
    let mut db = Database::new();
    db.put("R", relation("R", ["k", "v"], r));
    db.put("S", relation("S", ["k", "w"], s));
    db
}

fn view_text(head: &str, select: &[String], from: &str, conds: &[String]) -> String {
    let mut text = format!(
        "CREATE VIEW {head} AS SELECT {} FROM {from}",
        select.join(", ")
    );
    if !conds.is_empty() {
        text += &format!(" WHERE {}", conds.join(" AND "));
    }
    text
}

fn extent(rel: &Relation) -> BTreeSet<Vec<Value>> {
    rel.rows().map(|t| t.values().to_vec()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Joins, condition push-down and computed projection: a view over R
    /// and S, in either FROM order, holds exactly the SELECT items of
    /// each row of R × S that satisfies every WHERE condition, in
    /// columns named `V.<alias>`.
    #[test]
    fn join_views_match_nested_loops(
        r in rows(),
        s in rows(),
        s_first in any::<bool>(),
        conds in proptest::collection::vec(cond(4), 0..4),
        items in proptest::collection::vec(item(4), 1..5),
    ) {
        let select: Vec<String> =
            items.iter().enumerate().map(|(i, it)| format!("{} AS c{i}", item_esql(it))).collect();
        let from = if s_first { "S, R" } else { "R, S" };
        let where_: Vec<String> = conds.iter().map(cond_esql).collect();
        let text = view_text("V", &select, from, &where_);
        let view = parse_view(&text).expect("generated view parses");
        let out = evaluate_view(&view, &db(&r, &s), &FuncRegistry::new()).expect("evaluates");

        let names: Vec<AttrRef> =
            (0..items.len()).map(|i| AttrRef::new("V", format!("c{i}"))).collect();
        prop_assert_eq!(out.schema().attr_refs().cloned().collect::<Vec<_>>(), names);
        let mut expected = BTreeSet::new();
        for &(rk, rv) in &r {
            for &(sk, sw) in &s {
                let row = [rk, rv, sk, sw];
                if conds.iter().all(|c| holds(c, &row)) {
                    expected.insert(items.iter().map(|it| item_value(it, &row)).collect());
                }
            }
        }
        prop_assert_eq!(extent(&out), expected, "{}", text);
    }

    /// Output naming: columns are `V.<interface name>` in SELECT order,
    /// whether the names come from a column list, from aliases or by
    /// default; two items with one name are a `DuplicateColumn` error.
    #[test]
    fn columns_carry_interface_names(
        r in rows(),
        items in proptest::collection::vec(item(2), 1..4),
        naming in 0usize..3,
    ) {
        let select: Vec<String> = items
            .iter()
            .enumerate()
            .map(|(i, it)| match naming {
                1 => format!("{} AS n{i}", item_esql(it)),
                _ => item_esql(it),
            })
            .collect();
        let list: Vec<String> = (0..items.len()).map(|i| format!("n{i}")).collect();
        let head = match naming {
            0 => format!("V ({})", list.join(", ")),
            _ => "V".to_string(),
        };
        let text = view_text(&head, &select, "R", &[]);
        let view = parse_view(&text).expect("generated view parses");
        let result = evaluate_view(&view, &db(&r, &[]), &FuncRegistry::new());

        let names: Vec<AttrRef> =
            view.interface_names().into_iter().map(|n| AttrRef::new("V", n)).collect();
        prop_assert_eq!(names.len(), items.len());
        match (1..names.len()).find(|&i| names[..i].contains(&names[i])) {
            Some(i) => {
                let duplicate = RelationalError::DuplicateColumn(names[i].clone());
                prop_assert_eq!(result, Err(duplicate), "{}", text);
            }
            None => {
                let out = result.expect("evaluates");
                prop_assert_eq!(out.schema().attr_refs().cloned().collect::<Vec<_>>(), names);
                let expected: BTreeSet<Vec<Value>> = r
                    .iter()
                    .map(|&(k, v)| items.iter().map(|it| item_value(it, &[k, v])).collect())
                    .collect();
                prop_assert_eq!(extent(&out), expected, "{}", text);
            }
        }
    }

    /// A WHERE condition over a relation that FROM does not list is
    /// `UnknownRelation`, wherever it sits among the conditions, whether
    /// it also names a FROM relation, and whether or not the database
    /// holds the relation.
    #[test]
    fn conditions_outside_from_are_unknown_relation(
        r in rows(),
        from in 0usize..3,
        conds in proptest::collection::vec(cond(4), 0..3),
        stray in (0usize..2, any::<bool>(), 0..COMPARE.len(), operand(4)),
        at in 0usize..3,
        t_in_db in any::<bool>(),
    ) {
        // FROM R alone leaves S outside as well as T.
        let (from, n, outside): (&str, usize, &[(&str, &str)]) = match from {
            0 => ("R", 2, &[("S", "S.w"), ("T", "T.x")]),
            1 => ("R, S", 4, &[("T", "T.x")]),
            _ => ("S, R", 4, &[("T", "T.x")]),
        };
        let (pick, column_first, op, other) = stray;
        let (rel, column) = outside[pick % outside.len()];
        let other = operand_esql(other.map(|c| c % n));
        let (lhs, rhs) = if column_first {
            (column, other.as_str())
        } else {
            (other.as_str(), column)
        };
        let mut where_: Vec<String> = conds
            .iter()
            .map(|&(c, op, rhs)| cond_esql(&(c % n, op, rhs.map(|c| c % n))))
            .collect();
        where_.insert(at.min(where_.len()), format!("({lhs} {} {rhs})", COMPARE[op]));
        let text = view_text("V", &["R.k".to_string()], from, &where_);
        let view = parse_view(&text).expect("generated view parses");
        let mut db = db(&r, &r);
        if t_in_db {
            db.put("T", relation("T", ["x", "y"], &r));
        }
        prop_assert_eq!(
            evaluate_view(&view, &db, &FuncRegistry::new()),
            Err(RelationalError::UnknownRelation(RelName::new(rel))),
            "{}",
            text
        );
    }
}
