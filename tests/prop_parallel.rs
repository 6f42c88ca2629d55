//! Property-based tests of the parallel per-view fan-out in
//! [`eve::cvs::Synchronizer::apply`]: whatever the worker count, the
//! outcome must be byte-identical to the sequential run (results are
//! merged in view registration order), and the enumeration cache inside
//! [`eve::cvs::MkbIndex`] must be invisible to results — warm and cold
//! lookups return the same rewritings.

use eve::cvs::{
    cvs_delete_relation_indexed, CvsOptions, MkbIndex, Synchronizer, SynchronizerBuilder,
};
use eve::misd::evolve;
use eve::workload::{random_views, views_touching, SynthConfig, SynthWorkload, Topology};
use proptest::prelude::*;

fn config() -> impl Strategy<Value = SynthConfig> {
    (
        6usize..24,
        prop_oneof![
            Just(Topology::Chain),
            Just(Topology::Star),
            (0usize..12).prop_map(|extra| Topology::Random { extra }),
        ],
        1usize..4,
        2usize..4,
    )
        .prop_map(
            |(n_relations, topology, cover_count, view_relations)| SynthConfig {
                n_relations,
                topology,
                cover_count,
                view_relations,
                ..SynthConfig::default()
            },
        )
}

/// A synchronizer over a mixed population: fan-out views that all
/// reference the delete target plus random views that may or may not be
/// affected, with an explicit worker count.
fn synchronizer(w: &SynthWorkload, seed: u64, threads: usize) -> Synchronizer {
    let mut builder = SynchronizerBuilder::new(w.mkb.clone()).with_options(CvsOptions {
        parallelism: Some(threads),
        ..CvsOptions::default()
    });
    for v in views_touching(&w.mkb, &w.target, 6, 3, seed) {
        builder = builder.with_view(v).expect("fan-out view is valid");
    }
    for v in random_views(&w.mkb, 4, 2, seed.wrapping_add(1)) {
        builder = builder.with_view(v).expect("random view is valid");
    }
    builder.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The tentpole invariant: `apply` with 2 or 8 workers produces the
    /// exact same [`ChangeOutcome`] — and leaves the synchronizer with
    /// the exact same view definitions — as the sequential run.
    #[test]
    fn parallel_apply_matches_sequential(cfg in config(), seed in 0u64..500) {
        let w = SynthWorkload::random(&cfg, seed);
        let change = w.delete_change();
        let mut baseline = synchronizer(&w, seed, 1);
        let expected = baseline.apply(&change).expect("target described");
        for threads in [2usize, 8] {
            let mut sync = synchronizer(&w, seed, threads);
            let outcome = sync.apply(&change).expect("target described");
            prop_assert_eq!(&outcome, &expected, "threads={}", threads);
            prop_assert_eq!(
                sync.views().collect::<Vec<_>>(),
                baseline.views().collect::<Vec<_>>(),
                "threads={}",
                threads
            );
        }
    }

    /// `preview` must agree with `apply` regardless of worker count —
    /// it is documented as a non-mutating dry run of the same pipeline.
    #[test]
    fn preview_matches_apply_across_threads(cfg in config(), seed in 0u64..500) {
        let w = SynthWorkload::random(&cfg, seed);
        let change = w.delete_change();
        let previewed = synchronizer(&w, seed, 8).preview(&change).expect("target described");
        let applied = synchronizer(&w, seed, 1).apply(&change).expect("target described");
        prop_assert_eq!(previewed, applied);
    }

    /// Warm-vs-cold determinism: the first (cold, cache-filling) call on
    /// a shared index and every subsequent (warm, cache-hitting) call
    /// return identical rewriting lists, which also match a cache-free
    /// index.
    #[test]
    fn warm_cache_matches_cold(cfg in config(), seed in 0u64..500) {
        let w = SynthWorkload::random(&cfg, seed);
        let mkb2 = evolve(&w.mkb, &w.delete_change()).expect("target described");
        let opts = CvsOptions::default();
        let index = MkbIndex::new(&w.mkb, &mkb2);
        let cold = cvs_delete_relation_indexed(&w.view, &w.target, &index, &opts);
        let warm = cvs_delete_relation_indexed(&w.view, &w.target, &index, &opts);
        prop_assert_eq!(&cold, &warm);
        let uncached = index.without_cache();
        let fresh = cvs_delete_relation_indexed(&w.view, &w.target, &uncached, &opts);
        prop_assert_eq!(&cold, &fresh);
    }
}
