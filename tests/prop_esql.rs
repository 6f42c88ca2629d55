//! Property-based tests for the textual formats: round trips of the
//! E-SQL surface syntax (`parse(print(view)) == view` for randomly
//! generated view ASTs), and robustness of the E-SQL, MISD and change
//! parsers on malformed input (no panic; every error is typed, with a
//! position inside its input).

use eve::cvs::SynchronizerBuilder;
use eve::esql::lexer::tokenize;
use eve::esql::{
    parse_view, parse_views, CondItem, EvolutionParams, FromItem, ParseError, SelectItem,
    ViewDefinition, ViewExtent,
};
use eve::misd::{parse_misd, CapabilityChange, MisdError};
use eve::relational::expr::ArithOp;
use eve::relational::{AttrName, AttrRef, Clause, CompareOp, ScalarExpr, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Words that must not be generated as identifiers (keywords of E-SQL or
/// the MISD format, parameter keys, and literal-like function names) —
/// all matched case-insensitively by the parser.
const FORBIDDEN: &[&str] = &[
    "select", "from", "where", "and", "as", "create", "view", "true", "false", "null", "ve", "ad",
    "ar", "cd", "cr", "rd", "rr", "on", "join", "relation", "funcof", "pc", "order", "by", "date",
    "today", "abs", "lower", "upper", "identity", "floor",
];

fn ident() -> impl Strategy<Value = String> {
    "[A-Z][a-z]{1,6}(-[A-Z][a-z]{1,4})?".prop_filter("not a keyword", |s| {
        !FORBIDDEN.iter().any(|k| s.eq_ignore_ascii_case(k))
    })
}

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-999i64..999).prop_map(Value::Int),
        "[a-z ]{0,6}".prop_map(Value::from),
        any::<bool>().prop_map(Value::Bool),
        (0i64..40000).prop_map(Value::Date),
        Just(Value::Null),
    ]
}

fn attr_ref() -> impl Strategy<Value = AttrRef> {
    (ident(), ident()).prop_map(|(r, a)| AttrRef::new(r, a))
}

fn leaf_expr() -> impl Strategy<Value = ScalarExpr> {
    prop_oneof![
        attr_ref().prop_map(ScalarExpr::Attr),
        value().prop_map(ScalarExpr::Const),
        Just(ScalarExpr::call("today", vec![])),
    ]
}

fn expr() -> impl Strategy<Value = ScalarExpr> {
    let arith = prop_oneof![
        Just(ArithOp::Add),
        Just(ArithOp::Sub),
        Just(ArithOp::Mul),
        Just(ArithOp::Div),
    ];
    leaf_expr().prop_recursive(2, 8, 2, move |inner| {
        prop_oneof![
            (arith.clone(), inner.clone(), inner.clone())
                .prop_map(|(op, l, r)| ScalarExpr::binary(op, l, r)),
            inner.clone().prop_map(|e| ScalarExpr::call("abs", vec![e])),
        ]
    })
}

fn compare_op() -> impl Strategy<Value = CompareOp> {
    prop_oneof![
        Just(CompareOp::Eq),
        Just(CompareOp::Ne),
        Just(CompareOp::Lt),
        Just(CompareOp::Le),
        Just(CompareOp::Gt),
        Just(CompareOp::Ge),
    ]
}

fn params() -> impl Strategy<Value = EvolutionParams> {
    (any::<bool>(), any::<bool>()).prop_map(|(d, r)| EvolutionParams::new(d, r))
}

fn extent() -> impl Strategy<Value = ViewExtent> {
    prop_oneof![
        Just(ViewExtent::Equivalent),
        Just(ViewExtent::Superset),
        Just(ViewExtent::Subset),
        Just(ViewExtent::Any),
    ]
}

fn view() -> impl Strategy<Value = ViewDefinition> {
    let select_item =
        (expr(), proptest::option::of(ident()), params()).prop_map(|(expr, alias, params)| {
            SelectItem {
                expr,
                alias: alias.map(AttrName::new),
                params,
            }
        });
    let from_item = (ident(), params()).prop_map(|(rel, params)| FromItem {
        relation: rel.into(),
        alias: None,
        params,
    });
    let cond_item =
        (expr(), compare_op(), expr(), params()).prop_map(|(lhs, op, rhs, params)| CondItem {
            clause: Clause::new(lhs, op, rhs),
            params,
        });
    (
        ident(),
        extent(),
        proptest::collection::vec(select_item, 1..5),
        proptest::collection::vec(from_item, 1..4),
        proptest::collection::vec(cond_item, 0..4),
    )
        .prop_map(|(name, extent, select, from, conditions)| {
            let interface = None; // exercised separately below
            ViewDefinition {
                name,
                interface,
                extent,
                select,
                from,
                conditions,
            }
        })
}

/// Why `e`'s position does not lie inside `input`, if it does not.
/// Lines end at `\n`, as the lexer counts them; a column may sit one
/// past its line's last char; and an end-of-input error must have no
/// token after it.
fn misplaced(input: &str, e: &ParseError) -> Option<String> {
    let lines: Vec<&str> = input.split('\n').collect();
    let Some(text) = e.line.checked_sub(1).and_then(|i| lines.get(i)) else {
        return Some(format!("{e}: line outside 1..={}", lines.len()));
    };
    let width = text.chars().count();
    if e.col == 0 || e.col > width + 1 {
        return Some(format!("{e}: column outside 1..={}", width + 1));
    }
    if e.message.contains("end of input") {
        let before: usize = lines[..e.line - 1]
            .iter()
            .map(|l| l.chars().count() + 1)
            .sum();
        let rest: String = input.chars().skip(before + e.col - 1).collect();
        if !matches!(tokenize(&rest), Ok(toks) if toks.is_empty()) {
            return Some(format!("{e}: tokens follow in {rest:?}"));
        }
    }
    None
}

/// [`misplaced`] for the parse error inside a [`MisdError`]; its other
/// variants carry no position.
fn misd_misplaced(input: &str, e: &MisdError) -> Option<String> {
    match e {
        MisdError::Parse(p) => misplaced(input, p),
        _ => None,
    }
}

/// Every parser's verdict on `input`: the first misplaced error, if any.
fn any_misplaced(input: &str) -> Option<String> {
    [
        parse_view(input).err().and_then(|e| misplaced(input, &e)),
        parse_views(input).err().and_then(|e| misplaced(input, &e)),
        tokenize(input).err().and_then(|e| misplaced(input, &e)),
        parse_misd(input)
            .err()
            .and_then(|e| misd_misplaced(input, &e)),
        CapabilityChange::parse(input)
            .err()
            .and_then(|e| misd_misplaced(input, &e)),
    ]
    .into_iter()
    .flatten()
    .next()
}

const TRAVEL_MKB: &str = include_str!("../fixtures/travel.misd");
const TRAVEL_VIEWS: &str = include_str!("../fixtures/travel_views.esql");

/// The six examples of `CapabilityChange::parse`'s documentation.
const EXAMPLE_CHANGES: [&str; 6] = [
    "delete-relation Customer",
    "delete-attribute Customer.Addr",
    "rename-relation Tour -> Excursion",
    "rename-attribute Tour.TourName -> Title",
    "add-attribute Customer.Fax str",
    "add-relation IS8 Person(Name str, SSN int, PAddr str)",
];

/// Nine changes over all six operators, in an order in which each one
/// applies to the fixture MKB.
const SCRIPT: [&str; 9] = [
    "add-attribute Customer.Fax str",
    "rename-attribute Tour.TourName -> Title",
    "delete-attribute Customer.Addr",
    "delete-relation FlightRes",
    "rename-relation Tour -> Excursion",
    "delete-relation Customer",
    "delete-relation Person",
    "add-relation IS8 Person(Name str, SSN int, PAddr str)",
    "delete-relation Participant",
];

/// A byte for a mutation: half of the time one the grammar gives
/// meaning to, otherwise any byte (a stray one breaks UTF-8).
fn mutant_byte(rng: &mut StdRng) -> u8 {
    const GRAMMAR: &[u8] = b"(),.;:=<>!-+*/'_ \n\taZ09";
    if rng.gen_bool(0.5) {
        GRAMMAR[rng.gen_range(0..GRAMMAR.len())]
    } else {
        rng.gen_range(0..=255u8)
    }
}

/// `input` after one to three byte-level mutations: substitute a byte,
/// delete a span, insert bytes, duplicate a chunk, or truncate.
fn mutate(input: &str, rng: &mut StdRng) -> String {
    let mut bytes = input.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..=3) {
        let at = rng.gen_range(0..=bytes.len());
        let span = (at + rng.gen_range(1..=16usize)).min(bytes.len());
        match rng.gen_range(0..5) {
            0 => {
                if at < bytes.len() {
                    bytes[at] = mutant_byte(rng);
                }
            }
            1 => {
                bytes.drain(at..span);
            }
            2 => {
                let inserted: Vec<u8> = (0..rng.gen_range(1..=8))
                    .map(|_| mutant_byte(rng))
                    .collect();
                bytes.splice(at..at, inserted);
            }
            3 => {
                let chunk = bytes[at..span].to_vec();
                let to = rng.gen_range(0..=bytes.len());
                bytes.splice(to..to, chunk);
            }
            _ => bytes.truncate(at),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// If `mkb_text` parses, register the fixture views and apply
/// [`SCRIPT`]. A change that fails returns a typed error and leaves the
/// synchronizer as it was; the next change goes on from there.
fn drive(mkb_text: &str, views: &[ViewDefinition]) {
    let Ok(mkb) = parse_misd(mkb_text) else {
        return;
    };
    let mut builder = SynchronizerBuilder::new(mkb);
    for v in views {
        builder = builder
            .with_view(v.clone())
            .expect("fixture views are valid");
    }
    let mut sync = builder.build();
    for text in SCRIPT {
        let _ = sync.apply(&CapabilityChange::parse(text).expect("script parses"));
    }
}

/// Mutant sets per run of [`mutated_fixtures_fail_typed`]: a few seconds
/// in a debug build.
const CASES: u32 = 1000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The canonical printer's output re-parses to the identical AST.
    #[test]
    fn print_parse_roundtrip(v in view()) {
        let printed = v.to_string();
        let reparsed = parse_view(&printed)
            .unwrap_or_else(|e| panic!("printed view failed to parse: {e}\n{printed}"));
        prop_assert_eq!(&reparsed, &v, "\nprinted:\n{}", printed);
    }

    /// Round trip with an explicit interface list.
    #[test]
    fn roundtrip_with_interface(v in view(), names in proptest::collection::vec(ident(), 1..5)) {
        let mut v = v;
        // interface arity must match SELECT arity for semantic use; the
        // syntax allows any arity — test the syntax.
        v.interface = Some(names.into_iter().map(AttrName::new).collect());
        let printed = v.to_string();
        let reparsed = parse_view(&printed)
            .unwrap_or_else(|e| panic!("printed view failed to parse: {e}\n{printed}"));
        prop_assert_eq!(&reparsed, &v, "\nprinted:\n{}", printed);
    }

    /// Printing is deterministic and stable under re-printing.
    #[test]
    fn print_is_idempotent(v in view()) {
        let once = v.to_string();
        let again = parse_view(&once).expect("parses").to_string();
        prop_assert_eq!(once, again);
    }

    /// The parser and lexer never panic on arbitrary input: they return
    /// errors, each placed inside the input.
    #[test]
    fn parser_never_panics(s in "[\t\n -~é€]{0,200}") {
        let fault = any_misplaced(&s);
        prop_assert!(fault.is_none(), "{}", fault.unwrap_or_default());
    }

    /// Near-miss inputs around valid E-SQL also never panic, and their
    /// errors are placed inside the input.
    #[test]
    fn mutated_esql_never_panics(v in view(), cut in 0usize..400) {
        let printed = v.to_string();
        let truncated: String = printed.chars().take(cut % (printed.chars().count() + 1)).collect();
        let fault = any_misplaced(&truncated);
        prop_assert!(fault.is_none(), "{}", fault.unwrap_or_default());
    }

    /// Substituting an attribute then printing still yields parseable
    /// E-SQL (the shape CVS outputs).
    #[test]
    fn substituted_views_stay_parseable(v in view(), target in attr_ref(), repl in leaf_expr()) {
        let mut v = v;
        for s in &mut v.select {
            s.expr = s.expr.substitute(&target, &repl);
        }
        for c in &mut v.conditions {
            c.clause = c.clause.substitute(&target, &repl);
        }
        let printed = v.to_string();
        parse_view(&printed)
            .unwrap_or_else(|e| panic!("substituted view failed to parse: {e}\n{printed}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Byte-level mutants of the travel fixtures and of the example
    /// change strings never panic. Each error is typed and placed inside
    /// its input, and every mutated MKB that still parses carries the
    /// fixture views through nine changes.
    #[test]
    fn mutated_fixtures_fail_typed(seed in any::<u64>()) {
        let views = parse_views(TRAVEL_VIEWS).expect("fixture views parse");
        let mut rng = StdRng::seed_from_u64(seed);
        let mutants: Vec<String> = [TRAVEL_MKB, TRAVEL_VIEWS]
            .into_iter()
            .chain(EXAMPLE_CHANGES)
            .map(|input| mutate(input, &mut rng))
            .collect();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let fault = mutants.iter().find_map(|m| any_misplaced(m));
            drive(&mutants[0], &views);
            fault
        }));
        match outcome {
            Ok(fault) => prop_assert!(fault.is_none(), "{}", fault.unwrap_or_default()),
            Err(_) => prop_assert!(false, "panicked on mutants {mutants:?}"),
        }
    }
}
