//! Property-based tests of the streaming, budgeted rewriting search
//! ([`eve::cvs::cvs_delete_relation_searched`]): with every bound at its
//! unlimited setting the lazy pipeline must reproduce the legacy
//! materialize-then-rank results exactly, `top_k = 1` must return the
//! head of the full ranking, budget-truncated runs must be ordered
//! subsequences of the exhaustive ranking with truncation reported in
//! [`eve::cvs::SearchStats`], and the parallel per-view fan-out must
//! stay byte-identical to the sequential run when budgets are active.

use eve::cvs::{
    cvs_delete_relation_indexed, cvs_delete_relation_searched, rank_by_cost, CostModel, CvsOptions,
    MkbIndex, SearchBudget, Synchronizer, SynchronizerBuilder,
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

/// A synchronizer over a mixed population (fan-out views touching the
/// delete target plus random bystanders) with an explicit worker count
/// and search budget.
fn synchronizer(
    w: &SynthWorkload,
    seed: u64,
    threads: usize,
    budget: SearchBudget,
) -> Synchronizer {
    let mut builder = SynchronizerBuilder::new(w.mkb.clone()).with_options(CvsOptions {
        parallelism: Some(threads),
        budget,
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

/// Is `sub` an ordered subsequence of `full`?
fn is_subsequence<T: PartialEq>(sub: &[T], full: &[T]) -> bool {
    let mut it = full.iter();
    sub.iter().all(|s| it.any(|f| f == s))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Unbudgeted streaming search with a cost model equals the legacy
    /// pipeline: full structural enumeration followed by
    /// [`rank_by_cost`]. This is the byte-identity acceptance criterion
    /// for the lazy refactor.
    #[test]
    fn unbudgeted_search_matches_legacy_rank(cfg in config(), seed in 0u64..500) {
        let w = SynthWorkload::random(&cfg, seed);
        let mkb2 = evolve(&w.mkb, &w.delete_change()).expect("target described");
        let opts = CvsOptions::default();
        let index = MkbIndex::new(&w.mkb, &mkb2, &opts);
        let model = CostModel::default();
        let legacy = cvs_delete_relation_indexed(&w.view, &w.target, &index, &opts);
        let searched =
            cvs_delete_relation_searched(&w.view, &w.target, &index, &opts, false, Some(&model));
        match (legacy, searched) {
            (Ok(mut legacy), Ok(searched)) => {
                rank_by_cost(&model, &w.view, &mut legacy);
                prop_assert_eq!(&searched.rewritings, &legacy);
                prop_assert_eq!(searched.stats.kept, legacy.len());
                prop_assert!(!searched.stats.budget_exhausted);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "divergent outcomes: {:?} vs {:?}", a, b),
        }
    }

    /// `top_k = 1` returns exactly the head of the full ranking — in
    /// both structural mode (no cost model) and cost mode.
    #[test]
    fn top1_is_head_of_full_ranking(cfg in config(), seed in 0u64..500) {
        let w = SynthWorkload::random(&cfg, seed);
        let mkb2 = evolve(&w.mkb, &w.delete_change()).expect("target described");
        let model = CostModel::default();
        for cost_model in [None, Some(&model)] {
            let opts = CvsOptions::default();
            let index = MkbIndex::new(&w.mkb, &mkb2, &opts);
            let full = cvs_delete_relation_searched(
                &w.view, &w.target, &index, &opts, false, cost_model,
            );
            let top1_opts = CvsOptions {
                budget: SearchBudget::top_k(1),
                ..CvsOptions::default()
            };
            let index1 = MkbIndex::new(&w.mkb, &mkb2, &top1_opts);
            let top1 = cvs_delete_relation_searched(
                &w.view, &w.target, &index1, &top1_opts, false, cost_model,
            );
            match (full, top1) {
                (Ok(full), Ok(top1)) => {
                    prop_assert_eq!(top1.rewritings.len(), 1);
                    prop_assert_eq!(&top1.rewritings[0], &full.rewritings[0]);
                    // Pruning may skip work but never changes the winner.
                    prop_assert!(top1.stats.generated <= full.stats.generated);
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (a, b) => prop_assert!(false, "divergent outcomes: {:?} vs {:?}", a, b),
            }
        }
    }

    /// A candidate-capped run keeps an ordered subsequence of the
    /// exhaustive ranking, generates no more than the cap, and reports
    /// truncation (`budget_exhausted`) whenever it saw fewer candidates
    /// than the exhaustive run.
    #[test]
    fn capped_run_is_ordered_subsequence(
        cfg in config(),
        seed in 0u64..500,
        cap in 1usize..6,
    ) {
        let w = SynthWorkload::random(&cfg, seed);
        let mkb2 = evolve(&w.mkb, &w.delete_change()).expect("target described");
        let opts = CvsOptions::default();
        let index = MkbIndex::new(&w.mkb, &mkb2, &opts);
        let full = cvs_delete_relation_searched(&w.view, &w.target, &index, &opts, false, None);
        let capped_opts = CvsOptions {
            budget: SearchBudget {
                max_candidates: cap,
                ..SearchBudget::default()
            },
            ..CvsOptions::default()
        };
        let capped_index = MkbIndex::new(&w.mkb, &mkb2, &capped_opts);
        let capped = cvs_delete_relation_searched(
            &w.view, &w.target, &capped_index, &capped_opts, false, None,
        );
        if let (Ok(full), Ok(capped)) = (full, capped) {
            prop_assert!(capped.stats.generated <= cap);
            prop_assert!(
                is_subsequence(&capped.rewritings, &full.rewritings),
                "{:?} not a subsequence of {:?}",
                capped.rewritings,
                full.rewritings
            );
            if capped.stats.generated < full.stats.generated {
                prop_assert!(capped.stats.budget_exhausted);
            } else {
                prop_assert_eq!(&capped.rewritings, &full.rewritings);
                prop_assert!(!capped.stats.budget_exhausted);
            }
        }
    }

    /// The parallel fan-out stays byte-identical to the sequential run
    /// when a budget is active: per-view `SearchStats` and truncation
    /// flags are deterministic, so worker count must not show through.
    #[test]
    fn parallel_matches_sequential_under_budget(cfg in config(), seed in 0u64..500) {
        let w = SynthWorkload::random(&cfg, seed);
        let change = w.delete_change();
        let budget = SearchBudget {
            top_k: 2,
            max_candidates: 8,
            ..SearchBudget::default()
        };
        let mut baseline = synchronizer(&w, seed, 1, budget);
        let expected = baseline.apply(&change).expect("target described");
        for threads in [2usize, 8] {
            let mut sync = synchronizer(&w, seed, threads, budget);
            let outcome = sync.apply(&change).expect("target described");
            prop_assert_eq!(&outcome, &expected, "threads={}", threads);
        }
    }
}

/// On the wide-MKB workload (one shallow cover, four deep ones),
/// `top_k = 1` visits at least 5x fewer candidates than the exhaustive
/// run while still returning the same best rewriting.
#[test]
fn budgeted_search_prunes_wide_mkb_at_least_5x() {
    let wide = SynthWorkload::wide_mkb(4, 3);
    let mkb2 = evolve(&wide.mkb, &wide.delete_change()).expect("target described");
    let run = |budget: SearchBudget| {
        let opts = CvsOptions {
            budget,
            ..CvsOptions::default()
        };
        let index = MkbIndex::new(&wide.mkb, &mkb2, &opts);
        cvs_delete_relation_searched(&wide.view, &wide.target, &index, &opts, false, None)
            .expect("wide workload is synchronizable")
    };
    let exhaustive = run(SearchBudget::unlimited());
    let budgeted = run(SearchBudget::top_k(1));
    assert!(!exhaustive.stats.budget_exhausted);
    assert_eq!(budgeted.rewritings.len(), 1);
    assert_eq!(budgeted.rewritings[0], exhaustive.rewritings[0]);
    assert!(
        budgeted.stats.generated * 5 <= exhaustive.stats.generated,
        "budgeted generated {} vs exhaustive {}",
        budgeted.stats.generated,
        exhaustive.stats.generated
    );
    assert!(budgeted.stats.pruned > 0);
}

/// `wide_mkb(6, 1)` covers both attributes of `T` from seven relations,
/// so it has 7 × 7 = 49 cover combinations. The search explores the
/// first 32 and must report the cut, in its stats and in the
/// `search.budget_exhausted` counter; 5 × 5 = 25 combinations are all
/// explored and report nothing.
#[test]
fn cover_combination_cap_is_reported() {
    let run = |fanout: usize| {
        let wide = SynthWorkload::wide_mkb(fanout, 1);
        let mkb2 = evolve(&wide.mkb, &wide.delete_change()).expect("target described");
        let opts = CvsOptions::default();
        let index = MkbIndex::new(&wide.mkb, &mkb2, &opts);
        cvs_delete_relation_searched(&wide.view, &wide.target, &index, &opts, false, None)
            .expect("wide workload is synchronizable")
    };
    let _serial = eve::telemetry::serial_guard();
    eve::telemetry::install(vec![]).expect("no pipeline installed");
    let cut = run(6);
    let snap = eve::telemetry::uninstall().expect("pipeline was installed");
    assert_eq!(cut.rewritings.len(), 81);
    assert!(cut.stats.budget_exhausted, "{:?}", cut.stats);
    assert!(snap.counter("search.budget_exhausted") >= Some(1));

    let whole = run(4);
    assert!(!whole.stats.budget_exhausted, "{:?}", whole.stats);
}
