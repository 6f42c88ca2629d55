//! The E-SQL abstract syntax tree.
//!
//! A parsed [`ViewDefinition`] is stored in *resolved* form: FROM-clause
//! aliases (`Customer C`) are eliminated at parse time, so every
//! [`AttrRef`] in the SELECT list and WHERE clause names the base relation
//! directly. This is sound because the paper assumes a relation appears at
//! most once in a FROM clause (§4), making the alias→relation map a
//! bijection.

use eve_relational::{AttrName, AttrRef, Clause, Conjunction, RelName, ScalarExpr};
use std::collections::BTreeSet;
use std::fmt;

/// The pair of evolution parameters attached to every view component
/// (Fig. 3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EvolutionParams {
    /// May the component be dropped from an evolved definition?
    /// (`AD`/`CD`/`RD` = true).
    pub dispensable: bool,
    /// May the component be replaced during evolution?
    /// (`AR`/`CR`/`RR` = true).
    pub replaceable: bool,
}

impl EvolutionParams {
    /// Explicit constructor `(dispensable, replaceable)` mirroring the
    /// paper's positional notation.
    pub fn new(dispensable: bool, replaceable: bool) -> Self {
        EvolutionParams {
            dispensable,
            replaceable,
        }
    }

    /// The paper's Fig. 3 defaults (underlined values): components are
    /// *indispensable* but *replaceable* — EVE may rewrite them, yet must
    /// not silently drop them.
    pub const DEFAULT: EvolutionParams = EvolutionParams {
        dispensable: false,
        replaceable: true,
    };
}

impl Default for EvolutionParams {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// The view-extent evolution parameter `VE` (Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ViewExtent {
    /// `≡` — the new extent must equal the old extent (the default).
    #[default]
    Equivalent,
    /// `⊇` — the new extent must be a superset of the old extent.
    Superset,
    /// `⊆` — the new extent must be a subset of the old extent.
    Subset,
    /// `≈` — the new extent may be anything.
    Any,
}

impl ViewExtent {
    /// Mathematical symbol used by the paper.
    pub fn symbol(self) -> &'static str {
        match self {
            ViewExtent::Equivalent => "≡",
            ViewExtent::Superset => "⊇",
            ViewExtent::Subset => "⊆",
            ViewExtent::Any => "≈",
        }
    }

    /// ASCII keyword used by the canonical printer / parser.
    pub fn keyword(self) -> &'static str {
        match self {
            ViewExtent::Equivalent => "equivalent",
            ViewExtent::Superset => "superset",
            ViewExtent::Subset => "subset",
            ViewExtent::Any => "any",
        }
    }

    /// Parse from keyword or symbol.
    pub fn parse(s: &str) -> Option<ViewExtent> {
        match s.to_ascii_lowercase().as_str() {
            "equivalent" | "equiv" | "=" | "==" | "≡" => Some(ViewExtent::Equivalent),
            "superset" | ">=" | "⊇" => Some(ViewExtent::Superset),
            "subset" | "<=" | "⊆" => Some(ViewExtent::Subset),
            "any" | "~" | "≈" => Some(ViewExtent::Any),
            _ => None,
        }
    }
}

impl fmt::Display for ViewExtent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// One SELECT-list item: an expression with an optional output alias and
/// evolution parameters `(AD, AR)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectItem {
    /// The projected expression (usually a bare attribute; evolved views
    /// may project computed replacements such as `f(A.Birthday)`).
    pub expr: ScalarExpr,
    /// Optional `AS` alias; also doubles as the interface name when the
    /// view lacks an explicit interface list.
    pub alias: Option<AttrName>,
    /// `(AD, AR)`.
    pub params: EvolutionParams,
}

impl SelectItem {
    /// Plain attribute item with default parameters.
    pub fn attr(rel: impl Into<RelName>, attr: impl Into<AttrName>) -> Self {
        SelectItem {
            expr: ScalarExpr::Attr(AttrRef::new(rel, attr)),
            alias: None,
            params: EvolutionParams::DEFAULT,
        }
    }

    /// Set the parameters (builder style).
    pub fn with_params(mut self, dispensable: bool, replaceable: bool) -> Self {
        self.params = EvolutionParams::new(dispensable, replaceable);
        self
    }

    /// The interface name this item exports: alias if present, else the
    /// attribute name for bare attribute expressions, else `None`
    /// (caller falls back to a positional name).
    pub fn output_name(&self) -> Option<AttrName> {
        if let Some(a) = &self.alias {
            return Some(a.clone());
        }
        match &self.expr {
            ScalarExpr::Attr(a) => Some(a.attr.clone()),
            _ => None,
        }
    }
}

/// One FROM-clause item: a base relation with evolution parameters
/// `(RD, RR)`. The surface alias (if any) is recorded for provenance but
/// plays no semantic role after resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FromItem {
    /// The base relation.
    pub relation: RelName,
    /// Surface alias used in the original text, if any.
    pub alias: Option<RelName>,
    /// `(RD, RR)`.
    pub params: EvolutionParams,
}

impl FromItem {
    /// Item with default parameters and no alias.
    pub fn new(relation: impl Into<RelName>) -> Self {
        FromItem {
            relation: relation.into(),
            alias: None,
            params: EvolutionParams::DEFAULT,
        }
    }

    /// Set the parameters (builder style).
    pub fn with_params(mut self, dispensable: bool, replaceable: bool) -> Self {
        self.params = EvolutionParams::new(dispensable, replaceable);
        self
    }
}

/// One WHERE-clause primitive clause with evolution parameters `(CD, CR)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CondItem {
    /// The primitive clause.
    pub clause: Clause,
    /// `(CD, CR)`.
    pub params: EvolutionParams,
}

impl CondItem {
    /// Condition with default parameters.
    pub fn new(clause: Clause) -> Self {
        CondItem {
            clause,
            params: EvolutionParams::DEFAULT,
        }
    }

    /// Set the parameters (builder style).
    pub fn with_params(mut self, dispensable: bool, replaceable: bool) -> Self {
        self.params = EvolutionParams::new(dispensable, replaceable);
        self
    }
}

/// A complete E-SQL view definition (resolved form — no aliases in
/// attribute references).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewDefinition {
    /// View name.
    pub name: String,
    /// Explicit interface column names, when given
    /// (`CREATE VIEW V (A, B, C) …`). Must match the SELECT arity.
    pub interface: Option<Vec<AttrName>>,
    /// The view-extent parameter `VE`.
    pub extent: ViewExtent,
    /// SELECT list.
    pub select: Vec<SelectItem>,
    /// FROM list.
    pub from: Vec<FromItem>,
    /// WHERE conjunction (empty = no WHERE clause).
    pub conditions: Vec<CondItem>,
}

impl ViewDefinition {
    /// The interface (output column) names: the explicit list when
    /// present, otherwise per-item output names with positional
    /// `col<i>` fallbacks.
    pub fn interface_names(&self) -> Vec<AttrName> {
        if let Some(names) = &self.interface {
            return names.clone();
        }
        self.select
            .iter()
            .enumerate()
            .map(|(i, item)| {
                item.output_name()
                    .unwrap_or_else(|| AttrName::new(format!("col{i}")))
            })
            .collect()
    }

    /// The relations in the FROM clause, in order.
    pub fn relations(&self) -> Vec<RelName> {
        self.from.iter().map(|f| f.relation.clone()).collect()
    }

    /// Does the FROM clause reference `rel`?
    pub fn uses_relation(&self, rel: &RelName) -> bool {
        self.from.iter().any(|f| &f.relation == rel)
    }

    /// The full WHERE conjunction.
    pub fn where_conjunction(&self) -> Conjunction {
        self.conditions.iter().map(|c| c.clause.clone()).collect()
    }

    /// Every attribute referenced anywhere (SELECT + WHERE).
    pub fn referenced_attrs(&self) -> BTreeSet<AttrRef> {
        let mut out = BTreeSet::new();
        for s in &self.select {
            out.extend(s.expr.attrs());
        }
        for c in &self.conditions {
            out.extend(c.clause.attrs());
        }
        out
    }

    /// *Distinguished* attributes: attributes used by an indispensable
    /// WHERE condition (§4 requires them to be among the preserved
    /// attributes).
    pub fn distinguished_attrs(&self) -> BTreeSet<AttrRef> {
        let mut out = BTreeSet::new();
        for c in &self.conditions {
            if !c.params.dispensable {
                out.extend(c.clause.attrs());
            }
        }
        out
    }

    /// *Preserved* attributes: attributes appearing in the SELECT clause.
    pub fn preserved_attrs(&self) -> BTreeSet<AttrRef> {
        let mut out = BTreeSet::new();
        for s in &self.select {
            out.extend(s.expr.attrs());
        }
        out
    }

    /// Does the view reference `attr` anywhere?
    pub fn uses_attr(&self, attr: &AttrRef) -> bool {
        self.select.iter().any(|s| s.expr.contains_attr(attr))
            || self.conditions.iter().any(|c| c.clause.contains_attr(attr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eve_relational::CompareOp;

    fn sample() -> ViewDefinition {
        ViewDefinition {
            name: "Asia-Customer".into(),
            interface: None,
            extent: ViewExtent::Superset,
            select: vec![
                SelectItem::attr("Customer", "Name"),
                SelectItem::attr("Customer", "Phone").with_params(true, false),
            ],
            from: vec![
                FromItem::new("Customer").with_params(false, true),
                FromItem::new("FlightRes"),
            ],
            conditions: vec![
                CondItem::new(Clause::eq_attrs(
                    AttrRef::new("Customer", "Name"),
                    AttrRef::new("FlightRes", "PName"),
                )),
                CondItem::new(Clause::new(
                    ScalarExpr::attr("FlightRes", "Dest"),
                    CompareOp::Eq,
                    ScalarExpr::lit("Asia"),
                ))
                .with_params(true, true),
            ],
        }
    }

    #[test]
    fn interface_names_default_to_attr_names() {
        let v = sample();
        let names = v.interface_names();
        assert_eq!(names[0].as_str(), "Name");
        assert_eq!(names[1].as_str(), "Phone");
    }

    #[test]
    fn interface_names_explicit_win() {
        let mut v = sample();
        v.interface = Some(vec![AttrName::new("AName"), AttrName::new("APh")]);
        assert_eq!(v.interface_names()[0].as_str(), "AName");
    }

    #[test]
    fn distinguished_and_preserved() {
        let v = sample();
        let d = v.distinguished_attrs();
        assert!(d.contains(&AttrRef::new("Customer", "Name")));
        assert!(d.contains(&AttrRef::new("FlightRes", "PName")));
        // The dispensable Dest condition contributes nothing.
        assert!(!d.contains(&AttrRef::new("FlightRes", "Dest")));
        let p = v.preserved_attrs();
        assert!(p.contains(&AttrRef::new("Customer", "Phone")));
    }

    #[test]
    fn default_params_match_fig3() {
        let p = EvolutionParams::default();
        assert!(!p.dispensable);
        assert!(p.replaceable);
        assert_eq!(ViewExtent::default(), ViewExtent::Equivalent);
    }

    #[test]
    fn view_extent_parse_symbols_and_keywords() {
        assert_eq!(ViewExtent::parse("superset"), Some(ViewExtent::Superset));
        assert_eq!(ViewExtent::parse("⊇"), Some(ViewExtent::Superset));
        assert_eq!(ViewExtent::parse("EQUIV"), Some(ViewExtent::Equivalent));
        assert_eq!(ViewExtent::parse("~"), Some(ViewExtent::Any));
        assert_eq!(ViewExtent::parse("huh"), None);
    }
}
