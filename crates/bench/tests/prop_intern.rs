//! Byte-identity property suite for the data-oriented hypergraph core.
//!
//! The interned-id refactor (dense `RelId`s, CSR adjacency, `RelSet`
//! bitsets, the zero-allocation `TreeCursor`) is required to be a pure
//! representation change: every observable output — enumerated
//! connection trees, viable covers, `Min(H_R)`, and full synchronization
//! outcomes — must be byte-identical to the string-keyed behaviour it
//! replaced. The string-keyed *boundary* is still in the tree
//! (`ConnectionTree`, `MkbIndex::enumerate_trees`, `preview`), so each
//! property drives the same computation through independent entry points
//! (id-keyed cursor scratch vs. materialized trees, memoized vs.
//! `without_cache`, warm vs. cold index, 1/2/8 sync workers) and asserts
//! the results compare equal structurally — which for these types means
//! field-by-field on the resolved strings.

use eve_core::{
    compute_r_mapping, cvs_delete_relation_searched, r_mapping_with_index, CvsOptions, MkbIndex,
    SynchronizerBuilder,
};
use eve_hypergraph::{ConnectionTree, Hypergraph};
use eve_misd::evolve;
use eve_relational::RelName;
use eve_workload::{views_touching, SynthConfig, SynthWorkload, Topology};
use std::collections::BTreeSet;

/// The workload grid: every topology family the synth generator offers,
/// with a few seeds for the randomized one.
fn workloads() -> Vec<(String, SynthWorkload)> {
    let mut all = vec![
        ("chain/d2+pc".to_string(), SynthWorkload::chain(2, true)),
        ("chain/d4".to_string(), SynthWorkload::chain(4, false)),
        ("wide/3x2".to_string(), SynthWorkload::wide_mkb(3, 2)),
        ("wide/4x3".to_string(), SynthWorkload::wide_mkb(4, 3)),
    ];
    for seed in [11u64, 42, 1998] {
        let cfg = SynthConfig {
            topology: Topology::Random { extra: 12 },
            ..SynthConfig::default()
        };
        all.push((format!("random/s{seed}"), SynthWorkload::random(&cfg, seed)));
    }
    all
}

/// The CVS search must produce identical results (same rewritings in the
/// same order, same stats, or the same error) whether the per-change
/// memo tables are cold, warm from a previous run, or disabled entirely.
#[test]
fn search_results_identical_across_cache_modes() {
    for (name, w) in workloads() {
        let change = w.delete_change();
        let mkb2 = evolve(&w.mkb, &change).expect("target is described");
        let opts = CvsOptions::default();

        let cold = {
            let index = MkbIndex::new(&w.mkb, &mkb2, &opts);
            cvs_delete_relation_searched(&w.view, &w.target, &index, &opts, false, None)
        };
        let index = MkbIndex::new(&w.mkb, &mkb2, &opts);
        let warm1 = cvs_delete_relation_searched(&w.view, &w.target, &index, &opts, false, None);
        let warm2 = cvs_delete_relation_searched(&w.view, &w.target, &index, &opts, false, None);
        let uncached = {
            let index = MkbIndex::new(&w.mkb, &mkb2, &opts).without_cache();
            cvs_delete_relation_searched(&w.view, &w.target, &index, &opts, false, None)
        };

        assert_eq!(cold, warm1, "{name}: cold vs warm index");
        assert_eq!(warm1, warm2, "{name}: repeat on a warm index");
        assert_eq!(cold, uncached, "{name}: cached vs without_cache");

        // Adopted definitions must render identically through both
        // printers (the fast buffer renderer is the ranking tie-break).
        if let Ok(res) = &cold {
            for lr in &res.rewritings {
                assert_eq!(
                    lr.view.rendered(),
                    lr.view.to_string(),
                    "{name}: rendered() diverged from Display"
                );
            }
        }
    }
}

/// Full `preview` outcomes must be schedule-independent: the same
/// per-view verdicts under 1, 2, and 8 workers, on both a cold and a
/// warm synchronizer. (`ChangeOutcome::eq` deliberately ignores cache
/// hit/miss totals — those legitimately vary with interleaving.)
#[test]
fn sync_outcomes_identical_across_worker_counts() {
    for (name, w) in [
        ("chain/d3+pc", SynthWorkload::chain(3, true)),
        ("wide/4x3", SynthWorkload::wide_mkb(4, 3)),
        (
            "random/s11",
            SynthWorkload::random(
                &SynthConfig {
                    topology: Topology::Random { extra: 12 },
                    ..SynthConfig::default()
                },
                11,
            ),
        ),
    ] {
        let change = w.delete_change();
        let views = views_touching(&w.mkb, &w.target, 8, 3, 11);
        let mut reference = None;
        for threads in [1usize, 2, 8] {
            let mut builder = SynchronizerBuilder::new(w.mkb.clone()).with_options(CvsOptions {
                parallelism: Some(threads),
                ..CvsOptions::default()
            });
            for v in &views {
                builder = builder
                    .with_view(v.clone())
                    .expect("synthetic view is valid");
            }
            let sync = builder.build();
            let cold = sync.preview(&change).expect("change applies");
            let warm = sync.preview(&change).expect("change applies");
            assert_eq!(cold, warm, "{name}: warm preview differs at t{threads}");
            match &reference {
                None => reference = Some(cold),
                Some(r) => assert_eq!(*r, cold, "{name}: t{threads} differs from t1"),
            }
        }
    }
}

/// The materializing iterator and the id-keyed cursor scratch resolved
/// at the boundary must yield the same trees in the same order, and the
/// stream must satisfy the documented invariants (spans the terminals,
/// nondecreasing edge count).
#[test]
fn enumeration_entry_points_agree() {
    for (name, w) in workloads() {
        let h = Hypergraph::build(&w.mkb);
        for terminals in terminal_sets(&w) {
            let label = format!("{name} over {terminals:?}");
            let via_iter: Vec<ConnectionTree> = h.tree_cursor(&terminals, 8).take(64).collect();

            let mut cursor = h.tree_cursor(&terminals, 8);
            let mut via_cursor = Vec::new();
            while via_cursor.len() < 64 && cursor.advance() {
                // The id-keyed scratch must resolve to exactly the
                // string-keyed relation set of the materialized tree.
                let names: BTreeSet<RelName> = cursor
                    .relations()
                    .iter()
                    .map(|id| h.rel_name(id).clone())
                    .collect();
                let tree = cursor.materialize();
                assert_eq!(names, tree.relations, "{label}: scratch vs materialized");
                via_cursor.push(tree);
            }
            assert_eq!(via_iter, via_cursor, "{label}: iterator vs cursor");

            for tree in &via_iter {
                for t in &terminals {
                    assert!(tree.contains(t), "{label}: tree misses terminal {t}");
                }
            }
            for pair in via_iter.windows(2) {
                assert!(
                    pair[0].joins.len() <= pair[1].joins.len(),
                    "{label}: stream not in nondecreasing edge count"
                );
            }
        }
    }
}

/// `Min(H_R)` must come out identical whether computed through the
/// per-change index (id-keyed components, memoized survival sets) or
/// directly over the matching string-keyed component; and the memoized
/// survival set must equal the definitional filter.
#[test]
fn r_mapping_identical_via_index_and_direct() {
    for (name, w) in workloads() {
        let change = w.delete_change();
        let mkb2 = evolve(&w.mkb, &change).expect("target is described");
        let opts = CvsOptions::default();
        let index = MkbIndex::new(&w.mkb, &mkb2, &opts);
        let via_index = r_mapping_with_index(&w.view, &w.target, &index, &opts);

        let h = Hypergraph::build(&w.mkb);
        let component = h
            .components()
            .into_iter()
            .find(|c| c.contains(&w.target))
            .expect("target is in some component");
        let direct = compute_r_mapping(&w.view, &w.target, &component, &opts);
        assert_eq!(via_index, direct, "{name}: indexed vs direct R-mapping");

        let survivors = index.survival_set(&via_index.max_relations, &w.target);
        let expected: BTreeSet<RelName> = via_index
            .max_relations
            .iter()
            .filter(|r| **r != w.target)
            .cloned()
            .collect();
        assert_eq!(*survivors, expected, "{name}: memoized survival set");
        assert_eq!(
            expected,
            via_index.surviving_relations(),
            "{name}: surviving_relations"
        );
    }
}

/// Viable covers (attribute → replacement choices) must be identical
/// with the memo on and off — the cover map is now keyed by interned
/// attribute ids internally, with `AttrRef` only at the boundary.
#[test]
fn viable_covers_identical_with_and_without_cache() {
    for (name, w) in workloads() {
        let change = w.delete_change();
        let mkb2 = evolve(&w.mkb, &change).expect("target is described");
        let opts = CvsOptions::default();
        let cached = MkbIndex::new(&w.mkb, &mkb2, &opts);
        let plain = MkbIndex::new(&w.mkb, &mkb2, &opts).without_cache();
        for f in w.mkb.function_ofs() {
            let a = cached.viable_covers(&f.target, &w.target);
            let b = plain.viable_covers(&f.target, &w.target);
            assert_eq!(a, b, "{name}: covers for {} diverge", f.target);
        }
    }
}

/// Terminal sets to enumerate over: the view's own FROM relations plus
/// every adjacent pair and triple along them — small sets are where the
/// two-terminal best-first cursor and the greedy Steiner arm both get
/// exercised.
fn terminal_sets(w: &SynthWorkload) -> Vec<BTreeSet<RelName>> {
    let rels = w.view.relations();
    let mut sets = Vec::new();
    if rels.len() >= 2 {
        for pair in rels.windows(2) {
            sets.push(pair.iter().cloned().collect());
        }
    }
    if rels.len() >= 3 {
        for triple in rels.windows(3) {
            sets.push(triple.iter().cloned().collect());
        }
    }
    sets.push(rels.into_iter().collect());
    sets
}
