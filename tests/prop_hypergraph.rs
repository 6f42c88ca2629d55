//! Property-based tests for the hypergraph layer, checked against naive
//! reference implementations (brute-force union-find connectivity).

use eve::hypergraph::Hypergraph;
use eve::misd::JoinConstraint;
use eve::relational::{AttrRef, Clause, Conjunction, RelName};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn rel(i: usize) -> RelName {
    RelName::new(format!("R{i}"))
}

fn jc(id: usize, a: usize, b: usize) -> JoinConstraint {
    JoinConstraint::new(
        format!("J{id}"),
        rel(a),
        rel(b),
        Conjunction::new(vec![Clause::eq_attrs(
            AttrRef::new(rel(a), "k"),
            AttrRef::new(rel(b), "k"),
        )]),
    )
}

/// A random multigraph over `n` relations with the given edge list.
fn graph(n: usize, edges: &[(usize, usize)]) -> Hypergraph {
    let rels: BTreeSet<RelName> = (0..n).map(rel).collect();
    let joins = edges
        .iter()
        .enumerate()
        .map(|(i, (a, b))| jc(i, *a, *b))
        .collect();
    Hypergraph::from_parts(rels, joins)
}

/// Reference connectivity via union-find.
fn reference_components(n: usize, edges: &[(usize, usize)]) -> Vec<usize> {
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(p: &mut Vec<usize>, i: usize) -> usize {
        if p[i] != i {
            let r = find(p, p[i]);
            p[i] = r;
        }
        p[i]
    }
    for (a, b) in edges {
        let (ra, rb) = (find(&mut parent, *a), find(&mut parent, *b));
        parent[ra] = rb;
    }
    (0..n).map(|i| find(&mut parent, i)).collect()
}

fn edges_strategy(n: usize) -> impl Strategy<Value = Vec<(usize, usize)>> {
    proptest::collection::vec((0..n, 0..n), 0..(2 * n)).prop_map(move |pairs| {
        pairs
            .into_iter()
            .filter(|(a, b)| a != b)
            .collect::<Vec<_>>()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Component structure agrees with union-find.
    #[test]
    fn components_match_union_find(n in 2usize..12, seed_edges in edges_strategy(11)) {
        let edges: Vec<_> = seed_edges.into_iter().filter(|(a, b)| a < &n && b < &n).collect();
        let g = graph(n, &edges);
        let roots = reference_components(n, &edges);
        for i in 0..n {
            for j in 0..n {
                let connected = roots[i] == roots[j];
                let comp = g.component_relations(&rel(i)).expect("vertex exists");
                prop_assert_eq!(
                    comp.contains(&rel(j)),
                    connected,
                    "R{} vs R{} (edges {:?})", i, j, edges
                );
            }
        }
        // Component count matches the number of distinct roots.
        let distinct: BTreeSet<usize> = roots.iter().copied().collect();
        prop_assert_eq!(g.components().len(), distinct.len());
    }

    /// `component_index` numbers the union-find components from 0 in
    /// ascending order of their smallest member name. The rewriting
    /// search's disconnection test compares these numbers, so two
    /// relations must share one exactly when a join path links them.
    #[test]
    fn component_index_matches_union_find(n in 2usize..12, seed_edges in edges_strategy(11)) {
        let edges: Vec<_> = seed_edges.into_iter().filter(|(a, b)| a < &n && b < &n).collect();
        let g = graph(n, &edges);
        let roots = reference_components(n, &edges);
        let comp = |i: usize| g.component_index(g.rel_id(&rel(i)).expect("vertex exists")) as usize;
        for i in 0..n {
            prop_assert!(comp(i) < g.component_count(), "R{} (edges {:?})", i, edges);
            for j in 0..n {
                prop_assert_eq!(
                    comp(i) == comp(j),
                    roots[i] == roots[j],
                    "R{} vs R{} (edges {:?})", i, j, edges
                );
            }
        }
        // The smallest member name of each component, by its number.
        let mut smallest: Vec<Option<RelName>> = vec![None; g.component_count()];
        for i in 0..n {
            let slot = &mut smallest[comp(i)];
            if slot.as_ref().is_none_or(|s| rel(i) < *s) {
                *slot = Some(rel(i));
            }
        }
        prop_assert!(smallest.iter().all(Option::is_some), "empty component in {:?}", smallest);
        prop_assert!(smallest.windows(2).all(|w| w[0] < w[1]), "out of order: {:?}", smallest);
    }

    /// Every tree the two-terminal `tree_cursor` yields — the search
    /// the rewriting runs — is a chain of joins from one terminal to the
    /// other, and a tree is yielded iff the terminals are connected.
    #[test]
    fn join_paths_are_valid_chains(n in 2usize..10, seed_edges in edges_strategy(9)) {
        let edges: Vec<_> = seed_edges.into_iter().filter(|(a, b)| a < &n && b < &n).collect();
        let g = graph(n, &edges);
        let roots = reference_components(n, &edges);
        for i in 0..n {
            for j in i + 1..n {
                let pair: BTreeSet<RelName> = [rel(i), rel(j)].into_iter().collect();
                let mut yielded = false;
                for tree in g.tree_cursor(&pair, usize::MAX) {
                    yielded = true;
                    // The chain must start at i, end at j, and link up.
                    let mut cur = rel(i);
                    for step in &tree.joins {
                        let next = step.other(&cur);
                        prop_assert!(next.is_some(), "broken chain at {cur}");
                        cur = next.expect("checked").clone();
                    }
                    prop_assert_eq!(cur, rel(j));
                }
                prop_assert_eq!(yielded, roots[i] == roots[j], "R{} vs R{} (edges {:?})", i, j, edges);
            }
        }
    }

    /// The two-terminal cursor yields simple paths (no repeated
    /// relation) within the hop bound, in nondecreasing length, each
    /// once; the first is as short as `connect_tree`'s path.
    #[test]
    fn simple_paths_are_simple(n in 3usize..9, seed_edges in edges_strategy(8), budget in 1usize..6) {
        let edges: Vec<_> = seed_edges.into_iter().filter(|(a, b)| a < &n && b < &n).collect();
        let g = graph(n, &edges);
        let (a, b) = (rel(0), rel(n - 1));
        let pair: BTreeSet<RelName> = [a.clone(), b.clone()].into_iter().collect();
        let mut seen: BTreeSet<Vec<String>> = BTreeSet::new();
        let mut last_len = 0;
        for tree in g.tree_cursor(&pair, budget) {
            let p = &tree.joins;
            prop_assert!(p.len() <= budget);
            prop_assert!(p.len() >= last_len, "length fell to {} after {}", p.len(), last_len);
            last_len = p.len();
            let ids = p.iter().map(|j| j.id.clone()).collect();
            prop_assert!(seen.insert(ids), "path yielded twice");
            // Walk and collect visited relations.
            let mut visited: BTreeSet<RelName> = [a.clone()].into_iter().collect();
            let mut cur = a.clone();
            for step in p {
                cur = step.other(&cur).expect("chain links").clone();
                prop_assert!(visited.insert(cur.clone()), "revisited {cur}");
            }
            prop_assert_eq!(cur, b.clone());
        }
        let first = g.tree_cursor(&pair, budget).next().map(|t| t.joins.len());
        let greedy = g.connect_tree(&pair, budget).map(|t| t.joins.len());
        prop_assert_eq!(first, greedy, "first yield vs connect_tree (edges {:?})", edges);
    }

    /// A connection tree spans its terminals with exactly the joins it
    /// lists, and exists iff the terminals are mutually connected.
    #[test]
    fn connection_trees_span_terminals(
        n in 2usize..10,
        seed_edges in edges_strategy(9),
        picks in proptest::collection::btree_set(0usize..9, 1..4),
    ) {
        let edges: Vec<_> = seed_edges.into_iter().filter(|(a, b)| a < &n && b < &n).collect();
        let g = graph(n, &edges);
        let terminals: BTreeSet<RelName> =
            picks.into_iter().filter(|i| *i < n).map(rel).collect();
        if terminals.is_empty() {
            return Ok(());
        }
        let roots = reference_components(n, &edges);
        let idx = |r: &RelName| -> usize {
            r.as_str()[1..].parse().expect("generated name")
        };
        let all_connected = {
            let mut it = terminals.iter();
            let first = idx(it.next().expect("nonempty"));
            terminals.iter().all(|t| roots[idx(t)] == roots[first])
        };
        match g.connect_tree(&terminals, usize::MAX) {
            Some(tree) => {
                prop_assert!(all_connected);
                for t in &terminals {
                    prop_assert!(tree.contains(t));
                }
                // The tree's own edges connect its relation set.
                let joins = tree.joins.iter().map(|j| JoinConstraint::clone(j)).collect();
                let sub = Hypergraph::from_parts(tree.relations.clone(), joins);
                prop_assert!(sub.is_connected_set(&tree.relations));
            }
            None => prop_assert!(!all_connected),
        }
    }
}
