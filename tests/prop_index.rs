//! Property-based equivalence of the cached and uncached index paths: a
//! [`MkbIndex`](eve::cvs::MkbIndex) memoizing connection-tree
//! enumerations, cover lookups and survival sets must produce results
//! *identical* to one with the cache disabled
//! ([`MkbIndex::without_cache`](eve::cvs::MkbIndex::without_cache)),
//! across random synthetic workloads — the memo tables are a pure
//! throughput optimisation.

use eve::cvs::{
    cvs_delete_relation_indexed, r_mapping_with_index, svs_delete_relation_indexed, CvsOptions,
    MkbIndex,
};
use eve::hypergraph::Hypergraph;
use eve::misd::evolve;
use eve::workload::{SynthConfig, SynthWorkload, Topology};
use proptest::prelude::*;

fn config() -> impl Strategy<Value = SynthConfig> {
    (
        4usize..24,
        prop_oneof![
            Just(Topology::Chain),
            Just(Topology::Star),
            Just(Topology::Ring),
            (0usize..12).prop_map(|extra| Topology::Random { extra }),
        ],
        1usize..4,
        0.0f64..=1.0,
        2usize..4,
    )
        .prop_map(
            |(n_relations, topology, cover_count, pc_fraction, view_relations)| SynthConfig {
                n_relations,
                topology,
                cover_count,
                pc_fraction,
                view_relations,
                ..SynthConfig::default()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The R-mapping computed through the enumeration cache equals the
    /// one computed with the cache disabled.
    #[test]
    fn r_mapping_cached_matches_uncached(cfg in config(), seed in 0u64..1000) {
        let w = SynthWorkload::random(&cfg, seed);
        let opts = CvsOptions::default();
        let cached = MkbIndex::new(&w.mkb, &w.mkb);
        let uncached = MkbIndex::new(&w.mkb, &w.mkb).without_cache();
        prop_assert_eq!(
            r_mapping_with_index(&w.view, &w.target, &cached, &opts),
            r_mapping_with_index(&w.view, &w.target, &uncached, &opts)
        );
    }

    /// Full CVS synchronization through a caching index agrees with the
    /// cache-disabled path, and a second (warm-cache) run through the
    /// same index returns the same thing again.
    #[test]
    fn cvs_cached_matches_uncached(cfg in config(), seed in 0u64..1000) {
        let w = SynthWorkload::random(&cfg, seed);
        let mkb2 = evolve(&w.mkb, &w.delete_change()).expect("target described");
        let opts = CvsOptions::default();
        let cached = MkbIndex::new(&w.mkb, &mkb2);
        let uncached = MkbIndex::new(&w.mkb, &mkb2).without_cache();
        let cold = cvs_delete_relation_indexed(&w.view, &w.target, &cached, &opts);
        let warm = cvs_delete_relation_indexed(&w.view, &w.target, &cached, &opts);
        let plain = cvs_delete_relation_indexed(&w.view, &w.target, &uncached, &opts);
        prop_assert_eq!(&cold, &warm, "cold vs warm cache");
        prop_assert_eq!(&cold, &plain, "cached vs uncached");
    }

    /// The SVS baseline behaves identically whether it reuses a shared
    /// full-radius index or a fresh index built at the clamped radius.
    #[test]
    fn svs_shared_index_matches_fresh(cfg in config(), seed in 0u64..1000) {
        let w = SynthWorkload::random(&cfg, seed);
        let mkb2 = evolve(&w.mkb, &w.delete_change()).expect("target described");
        let opts = CvsOptions::default();
        let shared = MkbIndex::new(&w.mkb, &mkb2);
        let via_shared = svs_delete_relation_indexed(&w.view, &w.target, &shared, &opts);
        let svs_opts = CvsOptions::svs_baseline();
        let fresh = MkbIndex::new(&w.mkb, &mkb2);
        let via_fresh = cvs_delete_relation_indexed(&w.view, &w.target, &fresh, &svs_opts);
        match (via_shared, via_fresh) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            (a, b) => prop_assert!(false, "paths diverge: {a:?} vs {b:?}"),
        }
    }

    /// `Hypergraph::build_filtered` (the index's one-pass construction
    /// of H'(MKB')) equals the legacy build-then-erase loop.
    #[test]
    fn build_filtered_matches_erase_loop(cfg in config(), seed in 0u64..1000) {
        let w = SynthWorkload::random(&cfg, seed);
        let filtered = Hypergraph::build_filtered(&w.mkb, |desc| desc.capabilities.join);
        let mut erased = Hypergraph::build(&w.mkb);
        for desc in w.mkb.relations() {
            if !desc.capabilities.join {
                erased = erased.without_relation(&desc.name);
            }
        }
        prop_assert_eq!(filtered, erased);
    }

    /// The index's cover and PC lookups agree with direct MKB scans for
    /// every attribute and relation pair the workload mentions.
    #[test]
    fn index_lookups_match_mkb_scans(cfg in config(), seed in 0u64..1000) {
        let w = SynthWorkload::random(&cfg, seed);
        let index = MkbIndex::new(&w.mkb, &w.mkb);
        for f in w.mkb.function_ofs() {
            if f.source_relation().is_none() {
                continue;
            }
            prop_assert!(
                index.covers_of(&f.target).iter().any(|c| c.funcof_id == f.id),
                "cover {} missing from index", f.id
            );
        }
        let mut bucketed = 0usize;
        for a in w.mkb.relations() {
            for b in w.mkb.relations().filter(|b| a.name <= b.name) {
                bucketed += index.pcs_between(&a.name, &b.name).len();
            }
        }
        prop_assert_eq!(bucketed, w.mkb.pcs().len());
    }
}
