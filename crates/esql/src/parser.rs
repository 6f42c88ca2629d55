//! Recursive-descent parser for E-SQL view definitions.
//!
//! The entry point is [`parse_view`]. Lower-level helpers
//! ([`Cursor`], [`parse_expr_at`], [`parse_clause_at`],
//! [`parse_conjunction_at`]) are public so the MISD textual format in
//! `eve-misd` can reuse the same expression grammar.
//!
//! Aliases are resolved during parsing: the returned
//! [`ViewDefinition`] references base relations only (see `ast` module
//! docs).

use crate::ast::{CondItem, EvolutionParams, FromItem, SelectItem, ViewDefinition, ViewExtent};
use crate::error::ParseError;
use crate::lexer::{lex, Spanned, Tok};
use eve_relational::expr::ArithOp;
use eve_relational::{
    AttrName, AttrRef, Clause, CompareOp, Conjunction, RelName, ScalarExpr, Value,
};

/// A token cursor with save/restore backtracking.
#[derive(Debug, Clone)]
pub struct Cursor {
    toks: Vec<Spanned>,
    pos: usize,
    /// Just past the last token: where an error at end of input points.
    end: (usize, usize),
}

impl Cursor {
    /// Tokenise input and position at the first token.
    pub fn new(input: &str) -> Result<Self, ParseError> {
        let (toks, end) = lex(input)?;
        Ok(Cursor { toks, pos: 0, end })
    }

    /// Current position (for backtracking).
    pub fn mark(&self) -> usize {
        self.pos
    }

    /// Restore a previously marked position.
    pub fn reset(&mut self, mark: usize) {
        self.pos = mark;
    }

    /// Peek at the current token.
    pub fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|s| &s.tok)
    }

    /// Peek `k` tokens ahead (0 = current).
    pub fn peek_at(&self, k: usize) -> Option<&Tok> {
        self.toks.get(self.pos + k).map(|s| &s.tok)
    }

    /// Consume and return the current token.
    #[allow(clippy::should_implement_trait)] // deliberate cursor idiom
    pub fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|s| s.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// True at end of input.
    pub fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    /// Build an error at the current token, or just past the last token
    /// at end of input.
    pub fn err(&self, msg: impl Into<String>) -> ParseError {
        let (line, col) = match self.toks.get(self.pos) {
            Some(s) => (s.line, s.col),
            None => self.end,
        };
        ParseError::new(msg, line, col)
    }

    /// Consume the expected exact token or error.
    pub fn expect(&mut self, tok: &Tok) -> Result<(), ParseError> {
        match self.peek() {
            Some(t) if t == tok => {
                self.pos += 1;
                Ok(())
            }
            Some(t) => Err(self.err(format!("expected `{tok}`, found `{t}`"))),
            None => Err(self.err(format!("expected `{tok}`, found end of input"))),
        }
    }

    /// Consume the token if it matches; report whether it did.
    pub fn eat(&mut self, tok: &Tok) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Consume the given keyword (case-insensitive identifier) or error.
    pub fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.peek() {
            Some(t) if t.is_kw(kw) => {
                self.pos += 1;
                Ok(())
            }
            Some(t) => Err(self.err(format!("expected keyword `{kw}`, found `{t}`"))),
            None => Err(self.err(format!("expected keyword `{kw}`, found end of input"))),
        }
    }

    /// Consume the keyword if present; report whether it was.
    pub fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().map(|t| t.is_kw(kw)).unwrap_or(false) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Consume an identifier (any; keyword filtering is the caller's job).
    pub fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            Some(Tok::Ident(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            Some(t) => Err(self.err(format!("expected identifier, found `{t}`"))),
            None => Err(self.err("expected identifier, found end of input")),
        }
    }
}

/// Keywords that terminate item lists and thus may not be consumed as
/// bare identifiers inside expressions or aliases.
const RESERVED: &[&str] = &["select", "from", "where", "and", "as", "create", "view"];

fn is_reserved(s: &str) -> bool {
    RESERVED.iter().any(|k| s.eq_ignore_ascii_case(k))
}

/// Parse a scalar expression at the cursor.
///
/// Grammar (left-associative):
/// ```text
/// expr   := term (('+' | '-') term)*
/// term   := factor (('*' | '/') factor)*
/// factor := '-' factor | literal | IDENT '.' IDENT
///         | IDENT '(' [expr (',' expr)*] ')' | '(' expr ')'
/// ```
/// `TRUE`/`FALSE`/`NULL` are literal keywords; `date(<int>)` is folded
/// into a [`Value::Date`] constant.
pub fn parse_expr_at(cur: &mut Cursor) -> Result<ScalarExpr, ParseError> {
    let mut lhs = parse_term(cur)?;
    loop {
        let op = match cur.peek() {
            Some(Tok::Plus) => ArithOp::Add,
            Some(Tok::Minus) => ArithOp::Sub,
            _ => break,
        };
        cur.next();
        let rhs = parse_term(cur)?;
        lhs = ScalarExpr::binary(op, lhs, rhs);
    }
    Ok(lhs)
}

fn parse_term(cur: &mut Cursor) -> Result<ScalarExpr, ParseError> {
    let mut lhs = parse_factor(cur)?;
    loop {
        let op = match cur.peek() {
            Some(Tok::Star) => ArithOp::Mul,
            Some(Tok::Slash) => ArithOp::Div,
            _ => break,
        };
        cur.next();
        let rhs = parse_factor(cur)?;
        lhs = ScalarExpr::binary(op, lhs, rhs);
    }
    Ok(lhs)
}

fn parse_factor(cur: &mut Cursor) -> Result<ScalarExpr, ParseError> {
    match cur.peek().cloned() {
        Some(Tok::Minus) => {
            cur.next();
            let f = parse_factor(cur)?;
            Ok(match f {
                ScalarExpr::Const(Value::Int(i)) => ScalarExpr::lit(-i),
                ScalarExpr::Const(Value::Float(x)) => ScalarExpr::lit(-x.get()),
                other => ScalarExpr::binary(ArithOp::Sub, ScalarExpr::lit(0i64), other),
            })
        }
        Some(Tok::Int(i)) => {
            cur.next();
            Ok(ScalarExpr::lit(i))
        }
        Some(Tok::Float(x)) => {
            cur.next();
            Ok(ScalarExpr::lit(x))
        }
        Some(Tok::Str(s)) => {
            cur.next();
            Ok(ScalarExpr::lit(s.as_str()))
        }
        Some(Tok::LParen) => {
            cur.next();
            let e = parse_expr_at(cur)?;
            cur.expect(&Tok::RParen)?;
            Ok(e)
        }
        Some(Tok::Ident(id)) => {
            if id.eq_ignore_ascii_case("true") {
                cur.next();
                return Ok(ScalarExpr::lit(true));
            }
            if id.eq_ignore_ascii_case("false") {
                cur.next();
                return Ok(ScalarExpr::lit(false));
            }
            if id.eq_ignore_ascii_case("null") {
                cur.next();
                return Ok(ScalarExpr::Const(Value::Null));
            }
            if is_reserved(&id) {
                return Err(cur.err(format!("unexpected keyword `{id}` in expression")));
            }
            cur.next();
            match cur.peek() {
                Some(Tok::Dot) => {
                    cur.next();
                    let attr = cur.expect_ident()?;
                    Ok(ScalarExpr::Attr(AttrRef::new(id, attr)))
                }
                Some(Tok::LParen) => {
                    cur.next();
                    let mut args = Vec::new();
                    if !cur.eat(&Tok::RParen) {
                        loop {
                            args.push(parse_expr_at(cur)?);
                            if !cur.eat(&Tok::Comma) {
                                break;
                            }
                        }
                        cur.expect(&Tok::RParen)?;
                    }
                    // Fold `date(<int>)` into a date constant.
                    if id.eq_ignore_ascii_case("date") && args.len() == 1 {
                        if let ScalarExpr::Const(Value::Int(d)) = &args[0] {
                            return Ok(ScalarExpr::Const(Value::Date(*d)));
                        }
                    }
                    Ok(ScalarExpr::call(id, args))
                }
                _ => Err(cur.err(format!(
                    "attribute reference `{id}` must be qualified as <relation>.<attribute>"
                ))),
            }
        }
        Some(t) => Err(cur.err(format!("unexpected `{t}` in expression"))),
        None => Err(cur.err("unexpected end of input in expression")),
    }
}

/// Parse a primitive clause `expr θ expr`, where the whole clause may be
/// wrapped in parentheses — `(C.Name = F.PName)` — as the paper writes
/// WHERE conditions.
pub fn parse_clause_at(cur: &mut Cursor) -> Result<Clause, ParseError> {
    // Try a parenthesised clause first, then fall back to a bare clause
    // (where a leading '(' opens a parenthesised *expression*).
    if cur.peek() == Some(&Tok::LParen) {
        let mark = cur.mark();
        cur.next();
        if let Ok(c) = parse_bare_clause(cur) {
            if cur.eat(&Tok::RParen) {
                return Ok(c);
            }
        }
        cur.reset(mark);
    }
    parse_bare_clause(cur)
}

fn parse_bare_clause(cur: &mut Cursor) -> Result<Clause, ParseError> {
    let lhs = parse_expr_at(cur)?;
    let op = match cur.peek() {
        Some(Tok::Eq) => CompareOp::Eq,
        Some(Tok::Ne) => CompareOp::Ne,
        Some(Tok::Lt) => CompareOp::Lt,
        Some(Tok::Le) => CompareOp::Le,
        Some(Tok::Gt) => CompareOp::Gt,
        Some(Tok::Ge) => CompareOp::Ge,
        _ => return Err(cur.err("expected comparison operator")),
    };
    cur.next();
    let rhs = parse_expr_at(cur)?;
    Ok(Clause::new(lhs, op, rhs))
}

/// Parse `clause (AND clause)*` into a [`Conjunction`] (no evolution
/// parameters; used by the MISD format for join constraints).
pub fn parse_conjunction_at(cur: &mut Cursor) -> Result<Conjunction, ParseError> {
    let mut clauses = vec![parse_clause_at(cur)?];
    while cur.eat_kw("and") {
        clauses.push(parse_clause_at(cur)?);
    }
    Ok(Conjunction::new(clauses))
}

/// Which component kind a parameter group annotates, determining the
/// accepted keys (`AD/AR`, `CD/CR` or `RD/RR`).
#[derive(Clone, Copy, PartialEq, Eq)]
enum ParamKind {
    Attribute,
    Condition,
    Relation,
}

impl ParamKind {
    fn prefix(self) -> char {
        match self {
            ParamKind::Attribute => 'A',
            ParamKind::Condition => 'C',
            ParamKind::Relation => 'R',
        }
    }
}

/// Is the cursor looking at a parameter group `( … )`? A group starts
/// with `(` followed by `true`/`false` (positional) or a parameter key
/// `XD`/`XR` followed by `=`.
fn at_param_group(cur: &Cursor) -> bool {
    if cur.peek() != Some(&Tok::LParen) {
        return false;
    }
    match cur.peek_at(1) {
        Some(Tok::Ident(s)) => {
            if s.eq_ignore_ascii_case("true") || s.eq_ignore_ascii_case("false") {
                return true;
            }
            let is_key = matches!(
                s.to_ascii_uppercase().as_str(),
                "AD" | "AR" | "CD" | "CR" | "RD" | "RR"
            );
            is_key && cur.peek_at(2) == Some(&Tok::Eq)
        }
        _ => false,
    }
}

fn parse_bool(cur: &mut Cursor) -> Result<bool, ParseError> {
    match cur.peek() {
        Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("true") => {
            cur.next();
            Ok(true)
        }
        Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("false") => {
            cur.next();
            Ok(false)
        }
        Some(t) => Err(cur.err(format!("expected true/false, found `{t}`"))),
        None => Err(cur.err("expected true/false, found end of input")),
    }
}

/// Parse an optional evolution-parameter group. Missing group = defaults.
fn parse_params(cur: &mut Cursor, kind: ParamKind) -> Result<EvolutionParams, ParseError> {
    if !at_param_group(cur) {
        return Ok(EvolutionParams::DEFAULT);
    }
    cur.expect(&Tok::LParen)?;
    let mut params = EvolutionParams::DEFAULT;
    // Positional form: (dispensable, replaceable)
    if matches!(cur.peek(), Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("true") || s.eq_ignore_ascii_case("false"))
    {
        params.dispensable = parse_bool(cur)?;
        cur.expect(&Tok::Comma)?;
        params.replaceable = parse_bool(cur)?;
        cur.expect(&Tok::RParen)?;
        return Ok(params);
    }
    // Keyed form: XD = bool (, XR = bool)*
    loop {
        let key = cur.expect_ident()?.to_ascii_uppercase();
        let mut chars = key.chars();
        let (prefix, role) = (chars.next(), chars.next());
        if key.len() != 2 || prefix != Some(kind.prefix()) || !matches!(role, Some('D') | Some('R'))
        {
            return Err(cur.err(format!(
                "parameter key `{key}` not valid here (expected {p}D or {p}R)",
                p = kind.prefix()
            )));
        }
        cur.expect(&Tok::Eq)?;
        let v = parse_bool(cur)?;
        match role {
            Some('D') => params.dispensable = v,
            _ => params.replaceable = v,
        }
        if !cur.eat(&Tok::Comma) {
            break;
        }
    }
    cur.expect(&Tok::RParen)?;
    Ok(params)
}

/// Parse a complete `CREATE VIEW` E-SQL statement.
pub fn parse_view(input: &str) -> Result<ViewDefinition, ParseError> {
    let mut cur = Cursor::new(input)?;
    let view = parse_view_at(&mut cur)?;
    cur.eat(&Tok::Semi);
    if !cur.at_end() {
        return Err(cur.err("trailing input after view definition"));
    }
    Ok(view)
}

/// Parse a document of one or more `CREATE VIEW` statements, separated
/// by optional semicolons.
pub fn parse_views(input: &str) -> Result<Vec<ViewDefinition>, ParseError> {
    let mut cur = Cursor::new(input)?;
    let mut out = Vec::new();
    while !cur.at_end() {
        if cur.eat(&Tok::Semi) {
            continue;
        }
        out.push(parse_view_at(&mut cur)?);
    }
    Ok(out)
}

/// Parse a view definition at the cursor (used for multi-statement input).
pub fn parse_view_at(cur: &mut Cursor) -> Result<ViewDefinition, ParseError> {
    cur.expect_kw("create")?;
    cur.expect_kw("view")?;
    let name = cur.expect_ident()?;

    // Optional interface list and/or VE group — both parenthesised; a VE
    // group is `(VE = …)`.
    let mut interface = None;
    let mut extent = ViewExtent::default();
    while cur.peek() == Some(&Tok::LParen) {
        let is_ve = matches!(cur.peek_at(1), Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("ve"))
            && cur.peek_at(2) == Some(&Tok::Eq);
        cur.next();
        if is_ve {
            cur.next(); // VE
            cur.next(); // =
            let word = match cur.next() {
                Some(Tok::Ident(s)) => s,
                Some(Tok::Le) => "<=".to_string(),
                Some(Tok::Ge) => ">=".to_string(),
                Some(Tok::Eq) => "=".to_string(),
                other => {
                    return Err(cur.err(format!(
                        "expected view-extent value after VE =, found {other:?}"
                    )))
                }
            };
            extent = ViewExtent::parse(&word)
                .ok_or_else(|| cur.err(format!("unknown view-extent value `{word}`")))?;
            cur.expect(&Tok::RParen)?;
        } else {
            if interface.is_some() {
                return Err(cur.err("duplicate interface list"));
            }
            let mut names = Vec::new();
            loop {
                names.push(AttrName::new(cur.expect_ident()?));
                if !cur.eat(&Tok::Comma) {
                    break;
                }
            }
            cur.expect(&Tok::RParen)?;
            interface = Some(names);
        }
    }

    cur.expect_kw("as")?;
    cur.expect_kw("select")?;

    // SELECT items (raw — alias resolution happens after FROM is known).
    let mut select = Vec::new();
    loop {
        let expr = parse_expr_at(cur)?;
        let alias = if cur.eat_kw("as") {
            Some(AttrName::new(cur.expect_ident()?))
        } else {
            None
        };
        let params = parse_params(cur, ParamKind::Attribute)?;
        select.push(SelectItem {
            expr,
            alias,
            params,
        });
        if !cur.eat(&Tok::Comma) {
            break;
        }
    }

    cur.expect_kw("from")?;
    let mut from = Vec::new();
    loop {
        let rel = cur.expect_ident()?;
        if is_reserved(&rel) {
            return Err(cur.err(format!("keyword `{rel}` cannot name a relation")));
        }
        // optional alias: a bare identifier that is not a keyword
        let alias = match cur.peek() {
            Some(Tok::Ident(s)) if !is_reserved(s) => {
                let a = s.clone();
                cur.next();
                Some(RelName::new(a))
            }
            _ => None,
        };
        let params = parse_params(cur, ParamKind::Relation)?;
        from.push(FromItem {
            relation: RelName::new(rel),
            alias,
            params,
        });
        if !cur.eat(&Tok::Comma) {
            break;
        }
    }

    let mut conditions = Vec::new();
    if cur.eat_kw("where") {
        loop {
            let clause = parse_clause_at(cur)?;
            let params = parse_params(cur, ParamKind::Condition)?;
            conditions.push(CondItem { clause, params });
            if !cur.eat_kw("and") {
                break;
            }
        }
    }

    // Resolve aliases: rewrite every attribute qualified by an alias to
    // the base relation name.
    for f in &from {
        if let Some(alias) = &f.alias {
            if alias != &f.relation {
                for s in &mut select {
                    s.expr = s.expr.rename_relation(alias, &f.relation);
                }
                for c in &mut conditions {
                    c.clause = c.clause.rename_relation(alias, &f.relation);
                }
            }
        }
    }

    Ok(ViewDefinition {
        name,
        interface,
        extent,
        select,
        from,
        conditions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Eq. (1) of the paper (Asia-Customer with mixed keyed annotations).
    const EQ1: &str = "
        CREATE VIEW Asia-Customer (VE = superset) AS
        SELECT C.Name (AR = true), C.Addr (AR = true),
               C.Phone (AD = true, AR = false)
        FROM Customer C (RR = true), FlightRes F
        WHERE (C.Name = F.PName) AND (F.Dest = 'Asia') (CD = true)
    ";

    #[test]
    fn parses_eq1() {
        let v = parse_view(EQ1).unwrap();
        assert_eq!(v.name, "Asia-Customer");
        assert_eq!(v.extent, ViewExtent::Superset);
        assert_eq!(v.select.len(), 3);
        assert_eq!(v.from.len(), 2);
        assert_eq!(v.conditions.len(), 2);
        // Alias C resolved to Customer.
        assert_eq!(v.select[0].expr, ScalarExpr::attr("Customer", "Name"));
        // Phone: AD=true, AR=false.
        assert!(v.select[2].params.dispensable);
        assert!(!v.select[2].params.replaceable);
        // Customer: RR=true (default RD=false).
        assert!(!v.from[0].params.dispensable);
        assert!(v.from[0].params.replaceable);
        // Second condition dispensable.
        assert!(v.conditions[1].params.dispensable);
        // Condition attrs use base names.
        assert!(v.conditions[0]
            .clause
            .attrs()
            .contains(&AttrRef::new("FlightRes", "PName")));
    }

    /// Eq. (5) of the paper (positional annotations).
    const EQ5: &str = "
        CREATE VIEW Customer-Passengers-Asia AS
        SELECT C.Name (false, true), C.Age (true, true),
               P.Participant (true, true), P.TourID (true, true)
        FROM Customer C (true, true), FlightRes F (true, true),
             Participant P (true, true)
        WHERE (C.Name = F.PName) (false, true) AND (F.Dest = 'Asia')
          AND (P.StartDate = F.Date) AND (P.Loc = 'Asia')
    ";

    #[test]
    fn parses_eq5_positional() {
        let v = parse_view(EQ5).unwrap();
        assert_eq!(v.select.len(), 4);
        assert_eq!(v.from.len(), 3);
        assert_eq!(v.conditions.len(), 4);
        assert!(!v.select[0].params.dispensable);
        assert!(v.select[1].params.dispensable);
        assert!(v.from.iter().all(|f| f.params.dispensable));
        assert!(!v.conditions[0].params.dispensable);
        // default for unannotated conditions
        assert!(!v.conditions[1].params.dispensable);
        assert!(v.conditions[1].params.replaceable);
    }

    #[test]
    fn parse_views_multi_statement() {
        let views = parse_views(
            "CREATE VIEW A AS SELECT R.x FROM R;
             -- a comment between statements
             CREATE VIEW B AS SELECT S.y FROM S",
        )
        .unwrap();
        assert_eq!(views.len(), 2);
        assert_eq!(views[1].name, "B");
        assert!(parse_views("").unwrap().is_empty());
        // (`garbage` after FROM would be an alias — use a non-identifier.)
        assert!(parse_views("CREATE VIEW A AS SELECT R.x FROM R 42").is_err());
    }

    #[test]
    fn parses_interface_list_eq3() {
        let v = parse_view(
            "CREATE VIEW Asia-Customer (AName, AAddr, APh) (VE = superset) AS
             SELECT C.Name, C.Addr (AD = false, AR = true), C.Phone
             FROM Customer C, FlightRes F
             WHERE (C.Name = F.PName) AND (F.Dest = 'Asia')",
        )
        .unwrap();
        let iface = v.interface.as_ref().unwrap();
        assert_eq!(iface.len(), 3);
        assert_eq!(iface[0].as_str(), "AName");
    }

    #[test]
    fn ve_symbols() {
        for (txt, want) in [
            ("(VE = equivalent)", ViewExtent::Equivalent),
            ("(VE = superset)", ViewExtent::Superset),
            ("(VE = subset)", ViewExtent::Subset),
            ("(VE = any)", ViewExtent::Any),
            ("(VE = >=)", ViewExtent::Superset),
            ("(VE = <=)", ViewExtent::Subset),
            ("(VE = =)", ViewExtent::Equivalent),
        ] {
            let v = parse_view(&format!("CREATE VIEW V {txt} AS SELECT R.a FROM R")).unwrap();
            assert_eq!(v.extent, want, "for {txt}");
        }
    }

    #[test]
    fn no_where_clause() {
        let v = parse_view("CREATE VIEW V AS SELECT R.a FROM R").unwrap();
        assert!(v.conditions.is_empty());
        assert_eq!(v.extent, ViewExtent::Equivalent);
    }

    #[test]
    fn computed_select_item_with_function() {
        let v = parse_view(
            "CREATE VIEW V AS SELECT (today() - A.Birthday) / 365 AS Age (true, true)
             FROM Accident-Ins A",
        )
        .unwrap();
        assert_eq!(v.select[0].alias.as_ref().unwrap().as_str(), "Age");
        assert!(v.select[0].params.dispensable);
        assert!(v.select[0]
            .expr
            .attrs()
            .contains(&AttrRef::new("Accident-Ins", "Birthday")));
    }

    #[test]
    fn wrong_param_key_rejected() {
        let err = parse_view("CREATE VIEW V AS SELECT R.a (RD = true) FROM R").unwrap_err();
        assert!(err.message.contains("not valid here"), "{err}");
    }

    #[test]
    fn unqualified_attr_rejected() {
        let err = parse_view("CREATE VIEW V AS SELECT Name FROM R").unwrap_err();
        assert!(err.message.contains("qualified"), "{err}");
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_view("CREATE VIEW V AS SELECT R.a FROM R garbage garbage").is_err());
    }

    #[test]
    fn relation_used_twice_still_parses() {
        // The validator, not the parser, rejects duplicate relations.
        let v = parse_view("CREATE VIEW V AS SELECT R.a FROM R, R").unwrap();
        assert_eq!(v.from.len(), 2);
    }

    #[test]
    fn date_literal_folds() {
        let v = parse_view("CREATE VIEW V AS SELECT R.a FROM R WHERE R.d = date(100)").unwrap();
        assert_eq!(
            v.conditions[0].clause.rhs,
            ScalarExpr::Const(Value::Date(100))
        );
    }

    #[test]
    fn parenthesised_comparison_both_sides() {
        let v = parse_view("CREATE VIEW V AS SELECT R.a FROM R WHERE (R.a + 1) > (R.a - 1)");
        // `(R.a + 1)` is an expression in parens, not a clause.
        assert!(v.is_ok(), "{v:?}");
    }

    #[test]
    fn alias_same_as_relation() {
        let v = parse_view("CREATE VIEW V AS SELECT Customer.Name FROM Customer Customer").unwrap();
        assert_eq!(v.select[0].expr, ScalarExpr::attr("Customer", "Name"));
    }
}
