//! Graphviz (DOT) rendering of `H(MKB)` — regenerates Fig. 4 of the
//! paper.
//!
//! Each relation hyperedge becomes a cluster of its attribute hypernodes;
//! join constraints are drawn as solid edges between the attribute nodes
//! they relate; function-of constraints as dashed edges. Highlighted
//! joins (e.g. the `Min(H_R)` expression marked bold in Fig. 4) are drawn
//! with `penwidth=3`.

use crate::graph::Hypergraph;
use eve_misd::MetaKnowledgeBase;
use eve_relational::{AttrRef, RelName};
use std::collections::BTreeSet;
use std::fmt::Write as _;

fn node_id(attr: &AttrRef) -> String {
    let clean = |s: &str| s.replace(|c: char| !c.is_alphanumeric(), "_");
    format!(
        "n_{}_{}",
        clean(attr.relation.as_str()),
        clean(attr.attr.as_str())
    )
}

/// Render the hypergraph (restricted to the relations present in
/// `graph`) as DOT, with attribute-level detail taken from the MKB.
/// `bold_joins` are drawn with heavy pen width (the Fig. 4 highlight).
pub fn to_dot(
    mkb: &MetaKnowledgeBase,
    graph: &Hypergraph,
    bold_joins: &BTreeSet<String>,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "graph H {{");
    let _ = writeln!(out, "  rankdir=LR;");
    let _ = writeln!(out, "  node [shape=ellipse, fontsize=10];");

    for rel in graph.relations() {
        let desc = match mkb.relation(rel) {
            Some(d) => d,
            None => continue,
        };
        let cluster = rel.as_str().replace(|c: char| !c.is_alphanumeric(), "_");
        let _ = writeln!(out, "  subgraph cluster_{cluster} {{");
        let _ = writeln!(out, "    label=\"{rel}\";");
        for attr in desc.attr_refs() {
            let _ = writeln!(out, "    {} [label=\"{}\"];", node_id(&attr), attr.attr);
        }
        let _ = writeln!(out, "  }}");
    }

    // Join-constraint edges between the attributes they mention (one edge
    // per clause linking attributes of the two endpoint relations).
    for jc in graph.joins() {
        let style = if bold_joins.contains(&jc.id) {
            ", penwidth=3"
        } else {
            ""
        };
        for clause in jc.predicate.clauses() {
            let attrs: Vec<AttrRef> = clause.attrs().into_iter().collect();
            let left: Vec<&AttrRef> = attrs.iter().filter(|a| a.relation == jc.left).collect();
            let right: Vec<&AttrRef> = attrs.iter().filter(|a| a.relation == jc.right).collect();
            for l in &left {
                for r in &right {
                    let _ = writeln!(
                        out,
                        "  {} -- {} [label=\"{}\"{}];",
                        node_id(l),
                        node_id(r),
                        jc.id,
                        style
                    );
                }
            }
        }
    }

    // Function-of edges (dashed), only between attributes of relations in
    // this (sub-)hypergraph.
    for f in mkb.function_ofs() {
        if !graph.contains(&f.target.relation) {
            continue;
        }
        for src in f.source_attrs() {
            if !graph.contains(&src.relation) {
                continue;
            }
            let _ = writeln!(
                out,
                "  {} -- {} [label=\"{}\", style=dashed, constraint=false];",
                node_id(&f.target),
                node_id(&src),
                f.id
            );
        }
    }

    let _ = writeln!(out, "}}");
    out
}

/// Convenience: render the full `H(MKB)` with no highlights.
pub fn mkb_to_dot(mkb: &MetaKnowledgeBase) -> String {
    to_dot(mkb, &Hypergraph::build(mkb), &BTreeSet::new())
}

/// Convenience: the relation-level component structure as a short text
/// summary (used by experiment output alongside the DOT file).
pub fn component_summary(graph: &Hypergraph) -> String {
    let mut out = String::new();
    for (i, comp) in graph.components().iter().enumerate() {
        let rels: Vec<&str> = comp.relations().map(RelName::as_str).collect();
        let joins: Vec<&str> = comp.joins().iter().map(|j| j.id.as_str()).collect();
        let _ = writeln!(
            out,
            "component {}: relations = {{{}}}, joins = {{{}}}",
            i + 1,
            rels.join(", "),
            joins.join(", ")
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use eve_misd::parse_misd;

    fn mkb() -> MetaKnowledgeBase {
        parse_misd(
            "RELATION IS1 Customer(Name str, Age int)
             RELATION IS4 FlightRes(PName str, Dest str)
             RELATION IS6 Hotels(City str, Address str)
             JOIN JC1: Customer, FlightRes ON Customer.Name = FlightRes.PName
             FUNCOF F1: Customer.Name = FlightRes.PName",
        )
        .unwrap()
    }

    #[test]
    fn dot_contains_clusters_edges_and_funcofs() {
        let m = mkb();
        let dot = mkb_to_dot(&m);
        assert!(dot.contains("subgraph cluster_Customer"));
        assert!(dot.contains("subgraph cluster_Hotels"));
        assert!(dot.contains("label=\"JC1\""));
        assert!(dot.contains("style=dashed"));
        assert!(dot.starts_with("graph H {"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn bold_highlight_applied() {
        let m = mkb();
        let g = Hypergraph::build(&m);
        let dot = to_dot(&m, &g, &["JC1".to_string()].into_iter().collect());
        assert!(dot.contains("penwidth=3"));
    }

    #[test]
    fn summary_lists_components() {
        let m = mkb();
        let g = Hypergraph::build(&m);
        let s = component_summary(&g);
        assert!(s.contains("component 1"));
        assert!(s.contains("component 2"));
        assert!(s.contains("Hotels"));
    }
}
