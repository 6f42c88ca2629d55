//! Primitive clauses and conjunctions.
//!
//! The paper's WHERE clauses, join constraints `JC_{R1,R2} = (C_1 AND … AND
//! C_l)` and the selection conditions of partial/complete constraints are
//! all *conjunctions of primitive clauses* — comparisons between scalar
//! expressions (§2, §3). This module defines:
//!
//! * [`CompareOp`] — the comparison operators `= <> < <= > >=`;
//! * [`Clause`] — one primitive clause `lhs θ rhs`;
//! * [`Conjunction`] — `C_1 AND … AND C_l`.
//!
//! Besides evaluation, the types support the *symbolic* operations CVS
//! needs:
//!
//! * **normalisation** and **implication** ([`Clause::implies`]): Def. 2 of
//!   the paper requires every MKB join constraint of `Min(H_R)` to be
//!   implied by the corresponding view join condition of `Max(V_R)`. We
//!   check clause-level implication: syntactic equality modulo operand
//!   orientation, plus interval subsumption for comparisons of one
//!   expression against a constant (`Age > 21 ⇒ Age > 1`, needed for JC2 of
//!   the running example);
//! * **consistency** ([`Conjunction::is_consistent`]): CVS Step 4 must
//!   "check if there are no inconsistencies in the WHERE clause" after new
//!   join conditions are added;
//! * **substitution / renaming**, mirrored from [`ScalarExpr`].

use crate::error::RelationalError;
use crate::expr::ScalarExpr;
use crate::func::FuncRegistry;
use crate::schema::{AttrRef, RelName, Schema};
use crate::tuple::Tuple;
use crate::types::Value;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;

/// Comparison operators of primitive clauses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CompareOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CompareOp {
    /// Symbol as written in E-SQL / MISD.
    pub fn symbol(self) -> &'static str {
        match self {
            CompareOp::Eq => "=",
            CompareOp::Ne => "<>",
            CompareOp::Lt => "<",
            CompareOp::Le => "<=",
            CompareOp::Gt => ">",
            CompareOp::Ge => ">=",
        }
    }

    /// The operator obtained by swapping the operands (`a < b ⇔ b > a`).
    pub fn flipped(self) -> CompareOp {
        match self {
            CompareOp::Eq => CompareOp::Eq,
            CompareOp::Ne => CompareOp::Ne,
            CompareOp::Lt => CompareOp::Gt,
            CompareOp::Le => CompareOp::Ge,
            CompareOp::Gt => CompareOp::Lt,
            CompareOp::Ge => CompareOp::Le,
        }
    }

    /// Apply to an ordering produced by [`Value::sql_cmp`].
    pub fn test(self, ord: Ordering) -> bool {
        match self {
            CompareOp::Eq => ord == Ordering::Equal,
            CompareOp::Ne => ord != Ordering::Equal,
            CompareOp::Lt => ord == Ordering::Less,
            CompareOp::Le => ord != Ordering::Greater,
            CompareOp::Gt => ord == Ordering::Greater,
            CompareOp::Ge => ord != Ordering::Less,
        }
    }
}

impl fmt::Display for CompareOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// A primitive clause `lhs θ rhs`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Clause {
    /// Left operand.
    pub lhs: ScalarExpr,
    /// Comparison operator.
    pub op: CompareOp,
    /// Right operand.
    pub rhs: ScalarExpr,
}

impl Clause {
    /// Create a clause.
    pub fn new(lhs: ScalarExpr, op: CompareOp, rhs: ScalarExpr) -> Self {
        Clause { lhs, op, rhs }
    }

    /// Equality clause between two attributes (the most common join form).
    pub fn eq_attrs(l: AttrRef, r: AttrRef) -> Self {
        Clause::new(ScalarExpr::Attr(l), CompareOp::Eq, ScalarExpr::Attr(r))
    }

    /// Evaluate against a tuple. Comparisons involving `Null` or
    /// incomparable types are false (SQL-like behaviour for plain
    /// SELECT-FROM-WHERE).
    pub fn eval(
        &self,
        schema: &Schema,
        tuple: &Tuple,
        funcs: &FuncRegistry,
    ) -> Result<bool, RelationalError> {
        let l = self.lhs.eval(schema, tuple, funcs)?;
        let r = self.rhs.eval(schema, tuple, funcs)?;
        Ok(match l.sql_cmp(&r) {
            Some(ord) => self.op.test(ord),
            None => false,
        })
    }

    /// All attributes referenced.
    pub fn attrs(&self) -> BTreeSet<AttrRef> {
        let mut s = self.lhs.attrs();
        s.extend(self.rhs.attrs());
        s
    }

    /// Does either operand reference `target`? Equivalent to
    /// `self.attrs().contains(target)` without materialising the set.
    pub fn contains_attr(&self, target: &AttrRef) -> bool {
        self.lhs.contains_attr(target) || self.rhs.contains_attr(target)
    }

    /// All relations referenced.
    pub fn relations(&self) -> BTreeSet<RelName> {
        self.attrs().into_iter().map(|a| a.relation).collect()
    }

    /// Does `pred` hold for every attribute reference on either side?
    /// Equivalent to `self.attrs().iter().all(pred)` without
    /// materialising the set.
    pub fn all_attrs<F: FnMut(&AttrRef) -> bool>(&self, pred: &mut F) -> bool {
        self.lhs.all_attrs(pred) && self.rhs.all_attrs(pred)
    }

    /// Canonical orientation: order the operands so that syntactically
    /// equal clauses written in either direction compare equal
    /// (`A = B` vs `B = A`, `x < 5` vs `5 > x`).
    pub fn normalized(&self) -> Clause {
        let (lhs, op, rhs) = self.normalized_parts();
        Clause {
            lhs: lhs.clone(),
            op,
            rhs: rhs.clone(),
        }
    }

    /// The canonical orientation as borrowed parts — what [`normalized`]
    /// clones, without the clone. Two clauses have equal normalisations
    /// iff their parts compare equal.
    ///
    /// [`normalized`]: Clause::normalized
    pub fn normalized_parts(&self) -> (&ScalarExpr, CompareOp, &ScalarExpr) {
        if self.rhs < self.lhs {
            (&self.rhs, self.op.flipped(), &self.lhs)
        } else {
            (&self.lhs, self.op, &self.rhs)
        }
    }

    /// Conservative implication test: does `self` (as a fact) imply
    /// `other`?
    ///
    /// Sound but incomplete. Holds when:
    /// * the normalised clauses are identical; or
    /// * both compare the *same* expression against constants and the
    ///   interval admitted by `self` is contained in the interval admitted
    ///   by `other` (e.g. `Age > 21 ⇒ Age > 1`, `x = 5 ⇒ x >= 2`).
    pub fn implies(&self, other: &Clause) -> bool {
        let a = self.normalized_parts();
        let b = other.normalized_parts();
        if a == b {
            return true;
        }
        // As in the original eager form, constants are extracted from the
        // *normalised* orientation.
        match (const_parts_of(a), const_parts_of(b)) {
            (Some((ea, opa, ca)), Some((eb, opb, cb))) if ea == eb => {
                implies_const(opa, ca, opb, cb)
            }
            _ => false,
        }
    }

    /// If this clause compares an expression against a constant, return
    /// `(expr, op, const)` oriented with the expression on the left.
    pub fn const_comparison(&self) -> Option<(ScalarExpr, CompareOp, Value)> {
        self.const_comparison_parts()
            .map(|(e, op, c)| (e.clone(), op, c.clone()))
    }

    /// Borrowed form of [`const_comparison`] for hot paths.
    ///
    /// [`const_comparison`]: Clause::const_comparison
    pub fn const_comparison_parts(&self) -> Option<(&ScalarExpr, CompareOp, &Value)> {
        const_parts_of((&self.lhs, self.op, &self.rhs))
    }

    /// Does this clause mention `rel` on either side? Equivalent to
    /// `self.relations().contains(rel)` without materialising the set.
    pub fn references_relation(&self, rel: &RelName) -> bool {
        self.lhs.references_relation(rel) || self.rhs.references_relation(rel)
    }

    /// Substitute an attribute by a replacement expression on both sides.
    pub fn substitute(&self, target: &AttrRef, replacement: &ScalarExpr) -> Clause {
        Clause {
            lhs: self.lhs.substitute(target, replacement),
            op: self.op,
            rhs: self.rhs.substitute(target, replacement),
        }
    }

    /// Rename relation references on both sides.
    pub fn rename_relation(&self, from: &RelName, to: &RelName) -> Clause {
        Clause {
            lhs: self.lhs.rename_relation(from, to),
            op: self.op,
            rhs: self.rhs.rename_relation(from, to),
        }
    }
}

/// Equality-congruence classes of a [`Conjunction`], built once by
/// [`Conjunction::congruence`] and queried many times.
#[derive(Debug)]
pub struct Congruence<'a> {
    classes: Vec<BTreeSet<&'a ScalarExpr>>,
}

impl Congruence<'_> {
    /// Are the two expressions syntactically equal or in the same
    /// equality class?
    pub fn equated(&self, a: &ScalarExpr, b: &ScalarExpr) -> bool {
        if a == b {
            return true;
        }
        self.classes.iter().any(|s| s.contains(a) && s.contains(b))
    }
}

/// Constant-comparison extraction over borrowed clause parts: the same
/// orientation rule as [`Clause::const_comparison`], applied to an
/// already-(de)normalised `(lhs, op, rhs)` triple.
fn const_parts_of<'a>(
    (lhs, op, rhs): (&'a ScalarExpr, CompareOp, &'a ScalarExpr),
) -> Option<(&'a ScalarExpr, CompareOp, &'a Value)> {
    match (lhs, rhs) {
        (e, ScalarExpr::Const(c)) if !matches!(e, ScalarExpr::Const(_)) => Some((e, op, c)),
        (ScalarExpr::Const(c), e) => Some((e, op.flipped(), c)),
        _ => None,
    }
}

/// Does `x θa ca` imply `x θb cb` (same expression `x`, constants `ca`,
/// `cb`)? Implements interval subsumption over [`Value::sql_cmp`]-comparable
/// constants.
fn implies_const(opa: CompareOp, ca: &Value, opb: CompareOp, cb: &Value) -> bool {
    use CompareOp::*;
    let ord = match ca.sql_cmp(cb) {
        Some(o) => o,
        None => return false,
    };
    match (opa, opb) {
        // x = ca implies anything satisfied by ca.
        (Eq, _) => opb.test(ord),
        // x <> ca implies x <> cb only when ca = cb.
        (Ne, Ne) => ord == Ordering::Equal,
        // Lower bounds: x > ca ⇒ x > cb when ca >= cb, etc.
        (Gt, Gt) | (Gt, Ge) | (Ge, Ge) => ord != Ordering::Less,
        (Ge, Gt) => ord == Ordering::Greater,
        // x > ca ⇒ x <> cb when cb <= ca.
        (Gt, Ne) => ord != Ordering::Less,
        (Ge, Ne) => ord == Ordering::Greater,
        // Upper bounds.
        (Lt, Lt) | (Lt, Le) | (Le, Le) => ord != Ordering::Greater,
        (Le, Lt) => ord == Ordering::Less,
        (Lt, Ne) => ord != Ordering::Greater,
        (Le, Ne) => ord == Ordering::Less,
        _ => false,
    }
}

impl Clause {
    /// Append the canonical textual form to `out` — byte-identical to
    /// the [`fmt::Display`] output, without the formatter machinery.
    pub fn render_into(&self, out: &mut String) {
        self.lhs.render_into(out);
        out.push(' ');
        out.push_str(self.op.symbol());
        out.push(' ');
        self.rhs.render_into(out);
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.lhs, self.op, self.rhs)
    }
}

/// A conjunction `C_1 AND … AND C_l` of primitive clauses.
///
/// The empty conjunction is *true*.
#[derive(Debug, Clone, PartialEq, Eq, Default, Hash, PartialOrd, Ord)]
pub struct Conjunction {
    clauses: Vec<Clause>,
}

impl Conjunction {
    /// The empty (always-true) conjunction.
    pub fn empty() -> Self {
        Conjunction::default()
    }

    /// Build from clauses.
    pub fn new(clauses: Vec<Clause>) -> Self {
        Conjunction { clauses }
    }

    /// The clauses, in order.
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// True when there are no clauses.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Number of clauses.
    pub fn len(&self) -> usize {
        self.clauses.len()
    }

    /// Append a clause.
    pub fn push(&mut self, c: Clause) {
        self.clauses.push(c);
    }

    /// Concatenate two conjunctions.
    pub fn and(&self, other: &Conjunction) -> Conjunction {
        let mut clauses = self.clauses.clone();
        clauses.extend(other.clauses.iter().cloned());
        Conjunction { clauses }
    }

    /// Evaluate against a tuple (all clauses must hold).
    pub fn eval(
        &self,
        schema: &Schema,
        tuple: &Tuple,
        funcs: &FuncRegistry,
    ) -> Result<bool, RelationalError> {
        for c in &self.clauses {
            if !c.eval(schema, tuple, funcs)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// All attributes referenced.
    pub fn attrs(&self) -> BTreeSet<AttrRef> {
        let mut s = BTreeSet::new();
        for c in &self.clauses {
            s.extend(c.attrs());
        }
        s
    }

    /// Does any clause reference `target`? Equivalent to
    /// `self.attrs().contains(target)` without materialising the set.
    pub fn contains_attr(&self, target: &AttrRef) -> bool {
        self.clauses.iter().any(|c| c.contains_attr(target))
    }

    /// All relations referenced.
    pub fn relations(&self) -> BTreeSet<RelName> {
        self.attrs().into_iter().map(|a| a.relation).collect()
    }

    /// Does any clause mention `rel`? Equivalent to
    /// `self.relations().contains(rel)` without materialising the set.
    pub fn references_relation(&self, rel: &RelName) -> bool {
        self.clauses.iter().any(|c| c.references_relation(rel))
    }

    /// Does this conjunction (as a set of facts) imply the clause?
    ///
    /// Conservative but congruence-aware: true when some clause of
    /// `self` implies it directly, or when the target is an equality
    /// between two expressions connected transitively by the
    /// conjunction's own equalities (`A = B AND B = C ⊢ A = C`).
    pub fn implies_clause(&self, clause: &Clause) -> bool {
        self.implies_clause_cached(&self.congruence(), clause)
    }

    /// [`implies_clause`] against a congruence prebuilt with
    /// [`congruence`] — callers testing many clauses against the same
    /// conjunction build the equality closure once.
    ///
    /// [`implies_clause`]: Conjunction::implies_clause
    /// [`congruence`]: Conjunction::congruence
    pub fn implies_clause_cached(&self, congruence: &Congruence<'_>, clause: &Clause) -> bool {
        if self.clauses.iter().any(|c| c.implies(clause)) {
            return true;
        }
        if clause.op == CompareOp::Eq {
            return congruence.equated(&clause.lhs, &clause.rhs);
        }
        false
    }

    /// The equality-congruence classes of this conjunction's equality
    /// clauses, reusable across many [`Congruence::equated`] queries.
    pub fn congruence(&self) -> Congruence<'_> {
        // Union-find over the expressions appearing in equality clauses.
        let mut classes: Vec<BTreeSet<&ScalarExpr>> = Vec::new();
        for c in &self.clauses {
            if c.op != CompareOp::Eq {
                continue;
            }
            let (l, r) = (&c.lhs, &c.rhs);
            let il = classes.iter().position(|s| s.contains(l));
            let ir = classes.iter().position(|s| s.contains(r));
            match (il, ir) {
                (Some(i), Some(j)) if i != j => {
                    let moved = classes.swap_remove(i.max(j));
                    classes[i.min(j)].extend(moved);
                }
                (Some(i), None) => {
                    classes[i].insert(r);
                }
                (None, Some(j)) => {
                    classes[j].insert(l);
                }
                (None, None) => {
                    classes.push([l, r].into_iter().collect());
                }
                _ => {}
            }
        }
        Congruence { classes }
    }

    /// Are two expressions in the same equality-congruence class of this
    /// conjunction's equality clauses?
    pub fn equated(&self, a: &ScalarExpr, b: &ScalarExpr) -> bool {
        if a == b {
            return true;
        }
        self.congruence().equated(a, b)
    }

    /// Does this conjunction imply every clause of `other`?
    ///
    /// This is the containment test of Def. 2 (III): `Max(V_R) ⊆
    /// Min(H_R)` holds when each MKB join constraint is implied by the
    /// view's join conditions.
    pub fn implies(&self, other: &Conjunction) -> bool {
        other.clauses.iter().all(|c| self.implies_clause(c))
    }

    /// Substitute an attribute by a replacement expression in all clauses.
    pub fn substitute(&self, target: &AttrRef, replacement: &ScalarExpr) -> Conjunction {
        Conjunction {
            clauses: self
                .clauses
                .iter()
                .map(|c| c.substitute(target, replacement))
                .collect(),
        }
    }

    /// Rename relation references in all clauses.
    pub fn rename_relation(&self, from: &RelName, to: &RelName) -> Conjunction {
        Conjunction {
            clauses: self
                .clauses
                .iter()
                .map(|c| c.rename_relation(from, to))
                .collect(),
        }
    }

    /// Conservative consistency check (CVS Step 4: "we have to check if
    /// there are no inconsistencies in the WHERE clause").
    ///
    /// Returns `false` only when an inconsistency is *detected*; `true`
    /// means "not provably inconsistent". Detected patterns:
    ///
    /// * direct contradiction between two clauses over the same operand
    ///   pair (`e1 = e2` with `e1 <> e2`, `e1 < e2` with `e1 >= e2`, …);
    /// * an empty interval implied by constant comparisons on the same
    ///   expression (`x = 5 AND x = 6`, `x < 3 AND x > 7`,
    ///   `x = 5 AND x <> 5`), with equalities propagated through
    ///   equality-congruence classes of attribute expressions
    ///   (`x = y AND x = 5 AND y = 6` is inconsistent).
    pub fn is_consistent(&self) -> bool {
        clauses_consistent(&self.clauses)
    }
}

/// [`Conjunction::is_consistent`] over a borrowed clause sequence — same
/// verdict, no intermediate `Conjunction` (hot paths check a freshly
/// assembled WHERE list without cloning it).
pub fn clauses_consistent<'a, I: IntoIterator<Item = &'a Clause>>(clauses: I) -> bool {
    let normalized: Vec<NormalizedParts<'a>> =
        clauses.into_iter().map(Clause::normalized_parts).collect();
    normalized_consistent(&normalized)
}

/// A clause in canonical orientation, as [`Clause::normalized_parts`]
/// returns it.
pub type NormalizedParts<'a> = (&'a ScalarExpr, CompareOp, &'a ScalarExpr);

/// [`clauses_consistent`] over clauses already normalised with
/// [`Clause::normalized_parts`], in clause order. A caller that
/// normalises a WHERE list anyway (to deduplicate it) checks it without
/// normalising twice.
pub fn normalized_consistent(normalized: &[NormalizedParts<'_>]) -> bool {
    // 1. Pairwise direct contradictions on identical operand pairs.
    let mut any_constant = false;
    for (i, a) in normalized.iter().enumerate() {
        any_constant |= const_parts_of(*a).is_some();
        for b in &normalized[i + 1..] {
            // Operator compatibility first: it is a cheap enum check and
            // rejects the vast majority of pairs (e.g. two equalities
            // can never contradict), skipping the operand comparisons.
            if contradictory(a.1, b.1) && a.0 == b.0 && a.2 == b.2 {
                return false;
            }
        }
    }
    // The equality classes of steps 2–3 are read only by the per-class
    // constant check, so without a constant comparison there is nothing
    // left to detect: skipping them changes no verdict.
    if !any_constant {
        return true;
    }

    // 2. Union-find over attribute expressions connected by equality.
    // The distinct-expression population of one WHERE clause is tiny, so
    // a linear scan replaces hashing (hashing an expression walks and
    // hashes its strings; equality usually fails on the first field).
    // A clause contributes at most two expressions and one pair or
    // constant, so every buffer is sized once from the clause count.
    let n = normalized.len();
    let mut exprs: Vec<&ScalarExpr> = Vec::with_capacity(2 * n);
    fn id<'a>(e: &'a ScalarExpr, exprs: &mut Vec<&'a ScalarExpr>) -> usize {
        match exprs.iter().position(|x| *x == e) {
            Some(i) => i,
            None => {
                exprs.push(e);
                exprs.len() - 1
            }
        }
    }
    let mut pairs = Vec::with_capacity(n);
    let mut consts: Vec<(usize, CompareOp, &Value)> = Vec::with_capacity(n);
    for c in normalized {
        if let Some((e, op, v)) = const_parts_of(*c) {
            let i = id(e, &mut exprs);
            consts.push((i, op, v));
        } else if c.1 == CompareOp::Eq {
            let i = id(c.0, &mut exprs);
            let j = id(c.2, &mut exprs);
            pairs.push((i, j));
        }
    }
    let mut uf: Vec<usize> = (0..exprs.len()).collect();
    fn find(uf: &mut Vec<usize>, i: usize) -> usize {
        if uf[i] != i {
            let r = find(uf, uf[i]);
            uf[i] = r;
        }
        uf[i]
    }
    for (i, j) in pairs {
        let (ri, rj) = (find(&mut uf, i), find(&mut uf, j));
        uf[ri] = rj;
    }

    // 3. Per equivalence class, intersect the constant constraints. A
    // stable sort by class root groups each class in place, its
    // constraints still in clause order.
    for c in &mut consts {
        c.0 = find(&mut uf, c.0);
    }
    consts.sort_by_key(|c| c.0);
    let mut start = 0;
    while start < consts.len() {
        let root = consts[start].0;
        let end = consts[start..]
            .iter()
            .position(|c| c.0 != root)
            .map_or(consts.len(), |len| start + len);
        if !interval_satisfiable(&consts[start..end]) {
            return false;
        }
        start = end;
    }
    true
}

/// Are `e1 opa e2` and `e1 opb e2` jointly unsatisfiable for all values?
fn contradictory(a: CompareOp, b: CompareOp) -> bool {
    use CompareOp::*;
    matches!(
        (a, b),
        (Eq, Ne)
            | (Ne, Eq)
            | (Eq, Lt)
            | (Lt, Eq)
            | (Eq, Gt)
            | (Gt, Eq)
            | (Lt, Gt)
            | (Gt, Lt)
            | (Lt, Ge)
            | (Ge, Lt)
            | (Gt, Le)
            | (Le, Gt)
    )
}

/// Can the conjunction of constant comparisons on a single expression
/// (`(class, op, constant)` triples of one class) be satisfied?
/// Intersects lower/upper bounds and checks `=` / `<>` membership.
fn interval_satisfiable(constraints: &[(usize, CompareOp, &Value)]) -> bool {
    use CompareOp::*;
    // Track: equalities must all be equal; bounds must leave room.
    let mut eq: Option<&Value> = None;
    for (_, op, v) in constraints {
        if *op == Eq {
            match eq {
                None => eq = Some(v),
                Some(e) => {
                    if e.sql_cmp(v) != Some(Ordering::Equal) {
                        return false;
                    }
                }
            }
        }
    }
    if let Some(e) = eq {
        // Every other constraint must admit the equality witness.
        return constraints.iter().all(|(_, op, v)| match e.sql_cmp(v) {
            Some(ord) => op.test(ord),
            None => true, // incomparable constants: assume satisfiable
        });
    }
    // No equality: intersect bounds. (lower, strict) and (upper, strict).
    let mut lower: Option<(&Value, bool)> = None;
    let mut upper: Option<(&Value, bool)> = None;
    for (_, op, v) in constraints {
        match op {
            Gt | Ge => {
                let strict = *op == Gt;
                lower = match lower {
                    None => Some((v, strict)),
                    Some((lv, ls)) => match v.sql_cmp(lv) {
                        Some(Ordering::Greater) => Some((v, strict)),
                        Some(Ordering::Equal) => Some((lv, ls || strict)),
                        _ => Some((lv, ls)),
                    },
                };
            }
            Lt | Le => {
                let strict = *op == Lt;
                upper = match upper {
                    None => Some((v, strict)),
                    Some((uv, us)) => match v.sql_cmp(uv) {
                        Some(Ordering::Less) => Some((v, strict)),
                        Some(Ordering::Equal) => Some((uv, us || strict)),
                        _ => Some((uv, us)),
                    },
                };
            }
            _ => {}
        }
    }
    if let (Some((lv, ls)), Some((uv, us))) = (lower, upper) {
        match lv.sql_cmp(uv) {
            Some(Ordering::Greater) => return false,
            Some(Ordering::Equal) if ls || us => return false,
            _ => {}
        }
    }
    true
}

impl fmt::Display for Conjunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.clauses.is_empty() {
            return write!(f, "TRUE");
        }
        for (i, c) in self.clauses.iter().enumerate() {
            if i > 0 {
                write!(f, " AND ")?;
            }
            write!(f, "({c})")?;
        }
        Ok(())
    }
}

impl From<Clause> for Conjunction {
    fn from(c: Clause) -> Self {
        Conjunction::new(vec![c])
    }
}

impl FromIterator<Clause> for Conjunction {
    fn from_iter<T: IntoIterator<Item = Clause>>(iter: T) -> Self {
        Conjunction::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attr(r: &str, a: &str) -> ScalarExpr {
        ScalarExpr::attr(r, a)
    }

    #[test]
    fn normalization_orients_consistently() {
        let c1 = Clause::new(attr("A", "x"), CompareOp::Eq, attr("B", "y"));
        let c2 = Clause::new(attr("B", "y"), CompareOp::Eq, attr("A", "x"));
        assert_eq!(c1.normalized(), c2.normalized());

        let c3 = Clause::new(ScalarExpr::lit(5i64), CompareOp::Gt, attr("A", "x"));
        let c4 = Clause::new(attr("A", "x"), CompareOp::Lt, ScalarExpr::lit(5i64));
        assert_eq!(c3.normalized(), c4.normalized());
    }

    #[test]
    fn implication_syntactic() {
        let c1 = Clause::new(attr("A", "x"), CompareOp::Eq, attr("B", "y"));
        let c2 = Clause::new(attr("B", "y"), CompareOp::Eq, attr("A", "x"));
        assert!(c1.implies(&c2));
        assert!(c2.implies(&c1));
    }

    #[test]
    fn implication_interval_jc2_example() {
        // View condition Age > 21 must imply MKB constraint Age > 1 (JC2).
        let strong = Clause::new(
            attr("Customer", "Age"),
            CompareOp::Gt,
            ScalarExpr::lit(21i64),
        );
        let weak = Clause::new(
            attr("Customer", "Age"),
            CompareOp::Gt,
            ScalarExpr::lit(1i64),
        );
        assert!(strong.implies(&weak));
        assert!(!weak.implies(&strong));
    }

    #[test]
    fn implication_eq_to_bounds() {
        let eq = Clause::new(attr("R", "x"), CompareOp::Eq, ScalarExpr::lit(5i64));
        let ge = Clause::new(attr("R", "x"), CompareOp::Ge, ScalarExpr::lit(2i64));
        let ne = Clause::new(attr("R", "x"), CompareOp::Ne, ScalarExpr::lit(9i64));
        let lt = Clause::new(attr("R", "x"), CompareOp::Lt, ScalarExpr::lit(4i64));
        assert!(eq.implies(&ge));
        assert!(eq.implies(&ne));
        assert!(!eq.implies(&lt));
    }

    #[test]
    fn conjunction_implies() {
        let view_cond = Conjunction::new(vec![
            Clause::new(attr("C", "Name"), CompareOp::Eq, attr("A", "Holder")),
            Clause::new(attr("C", "Age"), CompareOp::Gt, ScalarExpr::lit(21i64)),
        ]);
        let jc = Conjunction::new(vec![
            Clause::new(attr("A", "Holder"), CompareOp::Eq, attr("C", "Name")),
            Clause::new(attr("C", "Age"), CompareOp::Gt, ScalarExpr::lit(1i64)),
        ]);
        assert!(view_cond.implies(&jc));
        assert!(!jc.implies(&view_cond));
    }

    #[test]
    fn implication_transitive_equalities() {
        // A = B AND B = C implies A = C (needed when a view chains joins
        // through an intermediate attribute while the MKB constraint
        // equates the endpoints directly).
        let facts = Conjunction::new(vec![
            Clause::new(attr("A", "x"), CompareOp::Eq, attr("B", "y")),
            Clause::new(attr("B", "y"), CompareOp::Eq, attr("C", "z")),
        ]);
        let target = Clause::new(attr("A", "x"), CompareOp::Eq, attr("C", "z"));
        assert!(facts.implies_clause(&target));
        assert!(facts.implies(&Conjunction::from(target)));
        // Reflexivity.
        assert!(facts.implies_clause(&Clause::new(attr("A", "x"), CompareOp::Eq, attr("A", "x"))));
        // But not unrelated equalities.
        assert!(!facts.implies_clause(&Clause::new(attr("A", "x"), CompareOp::Eq, attr("D", "w"))));
        // And not inequalities through congruence.
        assert!(!facts.implies_clause(&Clause::new(attr("A", "x"), CompareOp::Lt, attr("C", "z"))));
    }

    #[test]
    fn consistency_direct_contradiction() {
        let c = Conjunction::new(vec![
            Clause::new(attr("R", "x"), CompareOp::Eq, attr("S", "y")),
            Clause::new(attr("R", "x"), CompareOp::Ne, attr("S", "y")),
        ]);
        assert!(!c.is_consistent());
    }

    #[test]
    fn consistency_interval_empty() {
        let c = Conjunction::new(vec![
            Clause::new(attr("R", "x"), CompareOp::Lt, ScalarExpr::lit(3i64)),
            Clause::new(attr("R", "x"), CompareOp::Gt, ScalarExpr::lit(7i64)),
        ]);
        assert!(!c.is_consistent());
        let ok = Conjunction::new(vec![
            Clause::new(attr("R", "x"), CompareOp::Gt, ScalarExpr::lit(3i64)),
            Clause::new(attr("R", "x"), CompareOp::Lt, ScalarExpr::lit(7i64)),
        ]);
        assert!(ok.is_consistent());
    }

    #[test]
    fn consistency_eq_propagation() {
        // x = y AND x = 'a' AND y = 'b' is inconsistent.
        let c = Conjunction::new(vec![
            Clause::new(attr("R", "x"), CompareOp::Eq, attr("S", "y")),
            Clause::new(attr("R", "x"), CompareOp::Eq, ScalarExpr::lit("a")),
            Clause::new(attr("S", "y"), CompareOp::Eq, ScalarExpr::lit("b")),
        ]);
        assert!(!c.is_consistent());
        // Same constant is fine.
        let ok = Conjunction::new(vec![
            Clause::new(attr("R", "x"), CompareOp::Eq, attr("S", "y")),
            Clause::new(attr("R", "x"), CompareOp::Eq, ScalarExpr::lit("a")),
            Clause::new(attr("S", "y"), CompareOp::Eq, ScalarExpr::lit("a")),
        ]);
        assert!(ok.is_consistent());
    }

    #[test]
    fn consistency_checks_each_class_on_its_own_constants() {
        // Constants on two unrelated expressions, interleaved in clause
        // order: R.x's class is empty (x = 5 AND x > 7) whatever S.y does.
        let bad = Conjunction::new(vec![
            Clause::new(attr("R", "x"), CompareOp::Eq, ScalarExpr::lit(5i64)),
            Clause::new(attr("S", "y"), CompareOp::Eq, ScalarExpr::lit(6i64)),
            Clause::new(attr("R", "x"), CompareOp::Gt, ScalarExpr::lit(7i64)),
        ]);
        assert!(!bad.is_consistent());
        let ok = Conjunction::new(vec![
            Clause::new(attr("R", "x"), CompareOp::Eq, ScalarExpr::lit(5i64)),
            Clause::new(attr("S", "y"), CompareOp::Eq, ScalarExpr::lit(6i64)),
            Clause::new(attr("R", "x"), CompareOp::Lt, ScalarExpr::lit(7i64)),
        ]);
        assert!(ok.is_consistent());
    }

    #[test]
    fn consistency_constant_left_of_a_compound_expression() {
        // Normalisation keeps a constant left of a compound operand; the
        // class check still reads it as a bound on that operand:
        // 5 < x + 1, x + 1 = y and y < 3 leave y's class empty.
        let sum = ScalarExpr::binary(
            crate::expr::ArithOp::Add,
            attr("R", "x"),
            ScalarExpr::lit(1i64),
        );
        let with_bound = |bound: i64| {
            Conjunction::new(vec![
                Clause::new(ScalarExpr::lit(5i64), CompareOp::Lt, sum.clone()),
                Clause::new(sum.clone(), CompareOp::Eq, attr("S", "y")),
                Clause::new(attr("S", "y"), CompareOp::Lt, ScalarExpr::lit(bound)),
            ])
        };
        assert!(!with_bound(3).is_consistent());
        assert!(with_bound(9).is_consistent());
    }

    #[test]
    fn consistency_without_constants_needs_no_classes() {
        // Equalities alone never empty a class; only a direct
        // contradiction between two clauses is detected.
        let chain = Conjunction::new(vec![
            Clause::new(attr("R", "x"), CompareOp::Eq, attr("S", "y")),
            Clause::new(attr("S", "y"), CompareOp::Eq, attr("T", "z")),
            Clause::new(attr("R", "x"), CompareOp::Lt, attr("T", "z")),
        ]);
        assert!(chain.is_consistent());
        let parts: Vec<_> = chain
            .clauses()
            .iter()
            .map(Clause::normalized_parts)
            .collect();
        assert!(normalized_consistent(&parts));
        let contradiction = [
            Clause::new(attr("R", "x"), CompareOp::Lt, attr("S", "y")),
            Clause::new(attr("S", "y"), CompareOp::Lt, attr("R", "x")),
        ];
        assert!(!clauses_consistent(&contradiction));
    }

    #[test]
    fn consistency_eq_ne_same_constant() {
        let c = Conjunction::new(vec![
            Clause::new(attr("R", "x"), CompareOp::Eq, ScalarExpr::lit(5i64)),
            Clause::new(attr("R", "x"), CompareOp::Ne, ScalarExpr::lit(5i64)),
        ]);
        assert!(!c.is_consistent());
    }

    #[test]
    fn consistency_boundary_strictness() {
        // x >= 5 AND x <= 5 is satisfiable; x > 5 AND x <= 5 is not.
        let ok = Conjunction::new(vec![
            Clause::new(attr("R", "x"), CompareOp::Ge, ScalarExpr::lit(5i64)),
            Clause::new(attr("R", "x"), CompareOp::Le, ScalarExpr::lit(5i64)),
        ]);
        assert!(ok.is_consistent());
        let bad = Conjunction::new(vec![
            Clause::new(attr("R", "x"), CompareOp::Gt, ScalarExpr::lit(5i64)),
            Clause::new(attr("R", "x"), CompareOp::Le, ScalarExpr::lit(5i64)),
        ]);
        assert!(!bad.is_consistent());
    }

    #[test]
    fn empty_conjunction_is_true_and_consistent() {
        let c = Conjunction::empty();
        assert!(c.is_consistent());
        assert!(c.is_empty());
        assert_eq!(c.to_string(), "TRUE");
    }

    #[test]
    fn display() {
        let c = Conjunction::new(vec![
            Clause::new(attr("C", "Name"), CompareOp::Eq, attr("F", "PName")),
            Clause::new(attr("F", "Dest"), CompareOp::Eq, ScalarExpr::lit("Asia")),
        ]);
        assert_eq!(c.to_string(), "(C.Name = F.PName) AND (F.Dest = 'Asia')");
    }
}
