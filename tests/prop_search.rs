//! Property-based tests of the streaming rewriting search
//! ([`eve::cvs::cvs_delete_relation_searched`]): the lazy pipeline must
//! reproduce the legacy materialize-then-rank results exactly, a
//! deadline that does not fire must change nothing, a search cut short
//! must keep an ordered subsequence of the exhaustive ranking and report
//! the cut in [`eve::cvs::SearchStats`], and the parallel per-view
//! fan-out must stay byte-identical to the sequential run when searches
//! are cut.
//!
//! The cuts come from the `search.candidate` budget fault, which stops
//! the candidate stream at the same check, with the same report, as a
//! firing deadline, but after an exact number of candidates. Each plan
//! is scoped (to `cut`, or to the synchronizer's view names), so the
//! unscoped searches of the other tests in this binary never match it.

use eve::cvs::{
    cvs_delete_relation_indexed, cvs_delete_relation_searched, CostModel, CvsOptions, MkbIndex,
    Synchronizer, SynchronizerBuilder,
};
use eve::faults::{FaultKind, FaultPlan, FaultSpec};
use eve::misd::evolve;
use eve::workload::{random_views, views_touching, SynthConfig, SynthWorkload, Topology};
use proptest::prelude::*;
use std::time::Duration;

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
/// and search deadline.
fn synchronizer(
    w: &SynthWorkload,
    seed: u64,
    threads: usize,
    deadline: Option<Duration>,
) -> Synchronizer {
    let mut builder = SynchronizerBuilder::new(w.mkb.clone()).with_options(CvsOptions {
        parallelism: Some(threads),
        deadline,
        ..CvsOptions::default()
    });
    for v in views(w, seed) {
        builder = builder.with_view(v).expect("generated view is valid");
    }
    builder.build()
}

/// The views [`synchronizer`] registers, in registration order.
fn views(w: &SynthWorkload, seed: u64) -> Vec<eve::esql::ViewDefinition> {
    views_touching(&w.mkb, &w.target, 6, 3, seed)
        .into_iter()
        .chain(random_views(&w.mkb, 4, 2, seed.wrapping_add(1)))
        .collect()
}

/// A plan that cuts the search of each scope in `scopes` after its
/// `cap`-th candidate.
fn cut_after(cap: usize, scopes: impl IntoIterator<Item = String>) -> FaultPlan {
    scopes.into_iter().fold(FaultPlan::new(0), |plan, scope| {
        plan.with(FaultSpec {
            site: "search.candidate".to_string(),
            scope: Some(scope),
            hit: Some(cap as u64),
            permille: None,
            kind: FaultKind::Budget,
        })
    })
}

/// Run `f` with `plan` installed. Callers hold
/// `eve::faults::serial_guard()`.
fn with_plan<R>(plan: FaultPlan, f: impl FnOnce() -> R) -> R {
    eve::faults::install(plan).expect("no competing plan while serialized");
    let result = f();
    eve::faults::uninstall().expect("plan still installed");
    result
}

/// Is `sub` an ordered subsequence of `full`?
fn is_subsequence<T: PartialEq>(sub: &[T], full: &[T]) -> bool {
    let mut it = full.iter();
    sub.iter().all(|s| it.any(|f| f == s))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The streaming search with a cost model equals the legacy
    /// pipeline: full structural enumeration followed by
    /// [`CostModel::rank`]. This is the byte-identity acceptance criterion
    /// for the lazy refactor.
    #[test]
    fn unbudgeted_search_matches_legacy_rank(cfg in config(), seed in 0u64..500) {
        let w = SynthWorkload::random(&cfg, seed);
        let mkb2 = evolve(&w.mkb, &w.delete_change()).expect("target described");
        let opts = CvsOptions::default();
        let index = MkbIndex::new(&w.mkb, &mkb2);
        let model = CostModel::default();
        let legacy = cvs_delete_relation_indexed(&w.view, &w.target, &index, &opts);
        let searched =
            cvs_delete_relation_searched(&w.view, &w.target, &index, &opts, false, Some(&model));
        match (legacy, searched) {
            (Ok(mut legacy), Ok(searched)) => {
                model.rank(&w.view, &mut legacy);
                prop_assert_eq!(&searched.rewritings, &legacy);
                prop_assert_eq!(searched.stats.kept, legacy.len());
                prop_assert!(!searched.stats.budget_exhausted);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "divergent outcomes: {:?} vs {:?}", a, b),
        }
    }

    /// A deadline that does not fire changes nothing: the result, stats
    /// included, equals the search without one. The simulator runs
    /// every search under such a deadline (one virtual hour).
    #[test]
    fn unfired_deadline_changes_nothing(cfg in config(), seed in 0u64..500) {
        let w = SynthWorkload::random(&cfg, seed);
        let mkb2 = evolve(&w.mkb, &w.delete_change()).expect("target described");
        let index = MkbIndex::new(&w.mkb, &mkb2);
        let model = CostModel::default();
        let search = |deadline| {
            let opts = CvsOptions {
                deadline,
                ..CvsOptions::default()
            };
            cvs_delete_relation_searched(&w.view, &w.target, &index, &opts, false, Some(&model))
        };
        prop_assert_eq!(search(Some(Duration::from_secs(3600))), search(None));
    }

    /// A run cut after `cap` candidates generates `min(cap, exhaustive)`
    /// of them, keeps an ordered subsequence of the exhaustive ranking,
    /// and reports the cut (`budget_exhausted`) exactly when it fired;
    /// a run that saw every candidate keeps the exhaustive ranking.
    #[test]
    fn capped_run_is_ordered_subsequence(
        cfg in config(),
        seed in 0u64..500,
        cap in 1usize..6,
    ) {
        let _serial = eve::faults::serial_guard();
        let w = SynthWorkload::random(&cfg, seed);
        let mkb2 = evolve(&w.mkb, &w.delete_change()).expect("target described");
        let opts = CvsOptions::default();
        let index = MkbIndex::new(&w.mkb, &mkb2);
        let search = || cvs_delete_relation_searched(&w.view, &w.target, &index, &opts, false, None);
        let full = search();
        let capped = with_plan(cut_after(cap, ["cut".to_string()]), || {
            eve::faults::scoped("cut", search)
        });
        if let (Ok(full), Ok(capped)) = (full, capped) {
            prop_assert_eq!(capped.stats.generated, cap.min(full.stats.generated));
            prop_assert!(
                is_subsequence(&capped.rewritings, &full.rewritings),
                "{:?} not a subsequence of {:?}",
                capped.rewritings,
                full.rewritings
            );
            if capped.stats.generated == full.stats.generated {
                prop_assert_eq!(&capped.rewritings, &full.rewritings);
            }
            prop_assert_eq!(
                capped.stats.budget_exhausted,
                cap <= full.stats.generated || full.stats.budget_exhausted
            );
        }
    }

    /// The parallel fan-out stays byte-identical to the sequential run
    /// when searches run under a deadline and every view's search is cut
    /// after its eighth candidate: fault hits count per view, so
    /// per-view `SearchStats` and truncation flags are deterministic and
    /// the worker count must not show through.
    #[test]
    fn parallel_matches_sequential_under_budget(cfg in config(), seed in 0u64..500) {
        let _serial = eve::faults::serial_guard();
        let w = SynthWorkload::random(&cfg, seed);
        let change = w.delete_change();
        let names: Vec<String> = views(&w, seed).into_iter().map(|v| v.name).collect();
        let run = |threads: usize| {
            let mut sync = synchronizer(&w, seed, threads, Some(Duration::from_secs(3600)));
            with_plan(cut_after(8, names.iter().cloned()), || sync.apply(&change))
                .expect("target described")
        };
        let expected = run(1);
        for threads in [2usize, 8] {
            prop_assert_eq!(&run(threads), &expected, "threads={}", threads);
        }
    }
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
        let index = MkbIndex::new(&wide.mkb, &mkb2);
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
