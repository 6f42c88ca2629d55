//! Telemetry neutrality: instrumenting the sync pipeline must never
//! change its results. Whatever sinks are attached — none, an in-memory
//! collector, or a JSONL writer — [`eve::cvs::Synchronizer::apply`]
//! returns byte-identical [`eve::cvs::ChangeOutcome`]s (extending the
//! `prop_parallel` determinism suite to the observability axis).
//!
//! The telemetry pipeline is process-global, so every test run holds
//! [`eve::telemetry::serial_guard`] while installing/uninstalling.

use eve::cvs::{ChangeOutcome, CvsOptions, FailurePolicy, Synchronizer, SynchronizerBuilder};
use eve::telemetry::{Collector, JsonlSink, Sink};
use eve::workload::{random_views, views_touching, SynthConfig, SynthWorkload, Topology};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn config() -> impl Strategy<Value = SynthConfig> {
    (
        6usize..20,
        prop_oneof![
            Just(Topology::Chain),
            Just(Topology::Star),
            (0usize..10).prop_map(|extra| Topology::Random { extra }),
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

fn synchronizer(w: &SynthWorkload, seed: u64, threads: usize) -> Synchronizer {
    let mut builder = SynchronizerBuilder::new(w.mkb.clone()).with_options(CvsOptions {
        parallelism: Some(threads),
        ..CvsOptions::default()
    });
    for v in views_touching(&w.mkb, &w.target, 4, 3, seed) {
        builder = builder.with_view(v).expect("fan-out view is valid");
    }
    for v in random_views(&w.mkb, 3, 2, seed.wrapping_add(1)) {
        builder = builder.with_view(v).expect("random view is valid");
    }
    builder.build()
}

/// Apply the workload's delete change with the given sinks installed
/// (empty = enabled but unobserved), returning the outcome produced
/// while telemetry was live.
fn apply_with_sinks(
    w: &SynthWorkload,
    seed: u64,
    threads: usize,
    sinks: Vec<Arc<dyn Sink>>,
) -> ChangeOutcome {
    eve::telemetry::install(sinks).expect("no other pipeline installed");
    let mut sync = synchronizer(w, seed, threads);
    let result = sync.apply(&w.delete_change());
    eve::telemetry::uninstall();
    result.expect("target described")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The satellite invariant: outcomes are identical with telemetry
    /// disabled, enabled with no sinks, enabled with a collector, and
    /// enabled with a JSONL sink attached — sequentially and with a
    /// worker pool.
    #[test]
    fn outcomes_unaffected_by_telemetry(cfg in config(), seed in 0u64..200) {
        let w = SynthWorkload::random(&cfg, seed);
        let _serial = eve::telemetry::serial_guard();
        for threads in [1usize, 4] {
            let mut baseline_sync = synchronizer(&w, seed, threads);
            let baseline = baseline_sync.apply(&w.delete_change()).expect("target described");

            let unobserved = apply_with_sinks(&w, seed, threads, vec![]);
            prop_assert_eq!(&unobserved, &baseline, "no-sink run diverged (threads={})", threads);

            let collector = Collector::new();
            let collected = apply_with_sinks(&w, seed, threads, vec![collector.clone()]);
            prop_assert_eq!(&collected, &baseline, "collector run diverged (threads={})", threads);
            // The collector must actually have observed the pipeline —
            // otherwise this test is vacuous.
            let spans = collector.spans();
            prop_assert!(spans.iter().any(|s| s.name == "apply"), "no apply span recorded");

            let jsonl = JsonlSink::from_writer(Box::new(std::io::sink()));
            let traced = apply_with_sinks(&w, seed, threads, vec![Arc::new(jsonl)]);
            prop_assert_eq!(&traced, &baseline, "JSONL run diverged (threads={})", threads);
        }
    }

    /// Flight-recorder neutrality: arming the recorder (with a small
    /// capacity, so eviction happens) never changes sync outcomes.
    #[test]
    fn outcomes_unaffected_by_flight_recorder(cfg in config(), seed in 0u64..200) {
        let w = SynthWorkload::random(&cfg, seed);
        let _serial = eve::telemetry::serial_guard();
        for threads in [1usize, 4] {
            let baseline = apply_with_sinks(&w, seed, threads, vec![]);

            eve::telemetry::flight_install(32, None).expect("no other recorder installed");
            let recorded = apply_with_sinks(&w, seed, threads, vec![]);
            let stats = eve::telemetry::flight_stats().expect("recorder installed");
            eve::telemetry::flight_uninstall();

            prop_assert_eq!(&recorded, &baseline, "recorder run diverged (threads={})", threads);
            // The recorder must actually have observed the pipeline —
            // otherwise this test is vacuous.
            prop_assert!(stats.buffered > 0, "recorder captured nothing");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Histogram quantiles stay within the observed range:
    /// `min ≤ p50 ≤ p95 ≤ max`, whatever the magnitudes recorded.
    #[test]
    fn histogram_quantiles_within_observed_range(
        small in proptest::collection::vec(0u64..4096, 1..40),
        large in proptest::collection::vec(any::<u64>(), 0..8),
    ) {
        let _serial = eve::telemetry::serial_guard();
        eve::telemetry::install(vec![]).expect("no other pipeline installed");
        let values: Vec<u64> = small.iter().chain(&large).copied().collect();
        for &ns in &values {
            eve::telemetry::record_duration_ns("q", ns);
        }
        let snap = eve::telemetry::uninstall().expect("pipeline was installed");
        let h = snap.histogram("q").expect("recorded");
        let (min, max) = (values.iter().min().copied(), values.iter().max().copied());
        prop_assert_eq!(Some(h.max_ns), max);
        prop_assert!(min <= Some(h.p50_ns), "p50 {} below min {:?}", h.p50_ns, min);
        prop_assert!(h.p50_ns <= h.p95_ns && h.p95_ns <= h.max_ns, "{:?}", h);
        // Each quantile lies at or above the exact nearest-rank one, and
        // at most 12.5% over it.
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for (q, got) in [(0.50, h.p50_ns), (0.95, h.p95_ns)] {
            let rank = ((sorted.len() as f64 * q).ceil() as usize).max(1);
            let exact = sorted[rank - 1];
            prop_assert!(got >= exact, "p{} {} below exact {}", q * 100.0, got, exact);
            prop_assert!(
                got as f64 <= exact as f64 * 1.125,
                "p{} {} over 12.5% above exact {}", q * 100.0, got, exact
            );
        }
    }
}

/// The per-thread rings never hold more than their capacity, no matter
/// how long the event stream runs; overflow is counted, not grown.
#[test]
fn flight_recorder_memory_is_bounded() {
    let _serial = eve::telemetry::serial_guard();
    eve::telemetry::install(vec![]).expect("no other pipeline installed");
    eve::telemetry::flight_install(64, None).expect("no other recorder installed");

    // A long seeded stream: real sync traffic plus a counter flood.
    let cfg = SynthConfig {
        n_relations: 12,
        topology: Topology::Chain,
        ..SynthConfig::default()
    };
    let w = SynthWorkload::random(&cfg, 42);
    let mut sync = synchronizer(&w, 42, 4);
    sync.apply(&w.delete_change()).expect("target described");
    for i in 0..10_000u64 {
        eve::telemetry::counter_add("flood", 1 + (i % 3));
        if i % 16 == 0 {
            let _s = eve::telemetry::span("flood-span");
        }
    }

    let stats = eve::telemetry::flight_stats().expect("recorder installed");
    assert!(stats.threads >= 1);
    assert!(
        stats.buffered <= stats.threads * stats.capacity,
        "{} events buffered across {} rings of capacity {}",
        stats.buffered,
        stats.threads,
        stats.capacity
    );
    assert!(stats.dropped > 0, "flood must overflow the rings");
    let dump = eve::telemetry::flight_dump().expect("recorder installed");
    assert_eq!(dump.lines().count(), stats.buffered);

    eve::telemetry::flight_uninstall().expect("recorder was installed");
    eve::telemetry::uninstall().expect("pipeline was installed");
}

/// Same pinned fault seed, same dump bytes — across 1, 2, and 8
/// workers. `Degrade` lands every affected view as failed (the plan
/// fires on every `view.sync` attempt), each failure triggers the
/// recorder, and the canonical dump excludes all scheduling-dependent
/// fields, so the merged windows must be byte-identical.
#[test]
fn flight_dump_is_byte_identical_across_worker_counts() {
    let _serial = eve::telemetry::serial_guard();
    let _faults = eve::faults::serial_guard();
    let cfg = SynthConfig {
        n_relations: 10,
        topology: Topology::Chain,
        ..SynthConfig::default()
    };
    let w = SynthWorkload::random(&cfg, 7);
    let change = w.delete_change();

    let run = |threads: usize| {
        eve::telemetry::install(vec![]).expect("no other pipeline installed");
        eve::telemetry::flight_install(8192, None).expect("no other recorder installed");
        let _ = eve::faults::uninstall();
        let plan = eve::faults::FaultPlan::parse("seed=7;view.sync=transient")
            .expect("pinned plan parses");
        eve::faults::install(plan).expect("no competing plan while serialized");

        let mut builder = SynchronizerBuilder::new(w.mkb.clone()).with_options(CvsOptions {
            parallelism: Some(threads),
            failure: FailurePolicy::Degrade {
                max_retries: 2,
                backoff: Duration::ZERO,
            },
            ..CvsOptions::default()
        });
        for v in views_touching(&w.mkb, &w.target, 4, 3, 7) {
            builder = builder.with_view(v).expect("fan-out view is valid");
        }
        let outcome = builder.build().apply(&change).expect("target described");
        assert!(
            outcome.views.iter().any(|(_, o)| !o.survived()),
            "the every-hit transient plan must fail affected views"
        );

        let dump = eve::telemetry::flight_last_dump().expect("a failure triggered a dump");
        let report = eve::faults::uninstall().expect("plan still installed");
        let stats = eve::telemetry::flight_uninstall().expect("recorder was installed");
        let snap = eve::telemetry::uninstall().expect("pipeline was installed");
        assert_eq!(
            stats.dropped, 0,
            "windows must not overflow for byte-identity"
        );
        assert_eq!(
            snap.counter("faults.injected"),
            Some(report.injected),
            "every injected fault bumps the faults.injected counter"
        );
        dump
    };

    let d1 = run(1);
    let d2 = run(2);
    let d8 = run(8);
    assert_eq!(d1, d2, "dump differs between 1 and 2 workers");
    assert_eq!(d1, d8, "dump differs between 1 and 8 workers");
    assert!(d1.starts_with("{\"type\":\"flight-dump\",\"reason\":\"view-failed\""));
    assert!(d1.contains("\"type\":\"fault\""));
    assert!(d1.contains("\"kind\":\"transient\""));
}
