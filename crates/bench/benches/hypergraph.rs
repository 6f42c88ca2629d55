//! Hypergraph microbenchmarks: building `H(MKB)`, extracting connected
//! components (`H_R`), and connection-tree search.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eve_hypergraph::Hypergraph;
use eve_relational::RelName;
use eve_workload::{SynthConfig, SynthWorkload, Topology};
use std::collections::BTreeSet;

fn workload(n: usize) -> SynthWorkload {
    SynthWorkload::random(
        &SynthConfig {
            n_relations: n,
            topology: Topology::Random { extra: n / 2 },
            ..SynthConfig::default()
        },
        5,
    )
}

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("hypergraph/build");
    for &n in &[16usize, 64, 256, 1024] {
        let w = workload(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &w, |b, w| {
            b.iter(|| Hypergraph::build(&w.mkb))
        });
    }
    group.finish();
}

fn bench_component(c: &mut Criterion) {
    let mut group = c.benchmark_group("hypergraph/component_of");
    for &n in &[64usize, 256, 1024] {
        let w = workload(n);
        let h = Hypergraph::build(&w.mkb);
        group.bench_with_input(BenchmarkId::from_parameter(n), &h, |b, h| {
            b.iter(|| h.component_of(&RelName::new("R0")).expect("R0 exists"))
        });
    }
    group.finish();
}

fn bench_connection_tree(c: &mut Criterion) {
    let mut group = c.benchmark_group("hypergraph/connection_tree");
    for &n in &[64usize, 256] {
        let w = workload(n);
        let h = Hypergraph::build(&w.mkb);
        // Terminals spread across the index range.
        let terminals: BTreeSet<RelName> = [0, n / 3, 2 * n / 3, n - 1]
            .into_iter()
            .map(|i| RelName::new(format!("R{i}")))
            .collect();
        group.bench_with_input(
            BenchmarkId::from_parameter(n),
            &(h, terminals),
            |b, (h, t)| b.iter(|| h.connect_tree(t, usize::MAX).expect("connected topology")),
        );
    }
    group.finish();
}

/// Shared criterion config: short but stable runs so the full workspace
/// bench suite completes in minutes.
fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(900))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_build, bench_component, bench_connection_tree
}
criterion_main!(benches);
