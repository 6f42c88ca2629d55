//! # eve-hypergraph
//!
//! The hypergraph representation of a meta knowledge base (§5 of the CVS
//! paper):
//!
//! ```text
//! H(MKB) = { (A(MKB)), (J(MKB), S(MKB), F(MKB)) }
//! ```
//!
//! whose hypernodes are the attributes `A(MKB)` and whose hyperedges are
//! the join constraints `J(MKB)`, the relations `S(MKB)` and the
//! function-of constraints `F(MKB)`.
//!
//! The paper observes that "JC-nodes are the only shared nodes between
//! relation-edges in `H(MKB)`": two relation hyperedges intersect exactly
//! when a join constraint connects them. Connectivity questions over the
//! hypergraph therefore reduce to connectivity of the **relation graph**
//! — the multigraph with relations as vertices and one edge per join
//! constraint — which is what [`Hypergraph`] materialises, alongside the
//! attribute-level structure for rendering (Fig. 4) and inspection.
//!
//! Key operations used by CVS:
//!
//! * [`Hypergraph::component_of`] — the connected sub-hypergraph
//!   `H_R(MKB)` containing a given relation (Step 1 of CVS);
//! * [`Hypergraph::without_relation`] — `H'_R(MKB')`, obtained by erasing
//!   a relation hyperedge (Def. 3);
//! * [`Hypergraph::component_index`] — whether a terminal set lies in one
//!   component, so that a connection tree can exist; a graph labels its
//!   components on the first such read;
//! * [`Hypergraph::connect_tree`] — a minimal tree of join constraints
//!   connecting a *set* of required relations (used to assemble
//!   `Max(V_{j,R})` candidates from `Min(H'_R)` plus covers);
//! * [`Hypergraph::tree_cursor`] — the alternative connection trees for
//!   such a set, streamed in nondecreasing edge count (for two
//!   relations: the simple join paths between them, the "possibly
//!   complex view rewrites through multiple join constraints" of the
//!   abstract).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delta;
pub mod dot;
pub(crate) mod faults;
pub mod graph;
pub mod intern;
pub mod paths;
pub mod relset;

pub use delta::GraphDelta;
pub use graph::Hypergraph;
pub use intern::{Interner, RelId};
pub use paths::{ConnectionTree, TreeCursor};
pub use relset::{RelSet, INLINE_BITS};
