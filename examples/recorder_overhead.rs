//! Armed-flight-recorder overhead probe.
//!
//! One per-change [`MkbIndex`] build plus eight indexed view
//! synchronizations per iteration, timed twice in one process: with the
//! telemetry pipeline installed (no sinks), then with the flight
//! recorder armed on top. The probe path crosses every fault site
//! (`index.build`, `index.enumerate-trees`, `search.candidate`,
//! `view.sync`, `hypergraph.tree-iter`), so the recorder sees the full
//! event stream of a live change.
//!
//! Output: two lines on stdout —
//! `enabled_median_ns_per_iter=<n>` and `recorder_median_ns_per_iter=<n>`.
//! CI takes the best of 3 runs of each and asserts the recorder stays
//! within 5% of the enabled pipeline — the per-event cost is one
//! uncontended mutex push into a bounded ring.
//!
//! ```text
//! cargo run --release --example recorder_overhead
//! ```

use eve::cvs::{cvs_delete_relation_indexed, CvsOptions, MkbIndex};
use eve::misd::evolve;
use eve::telemetry;
use eve::workload::{SynthConfig, SynthWorkload, Topology};
use std::time::Instant;

const VIEWS: usize = 8;
const ITERS: usize = 60;

fn median_ns(mut f: impl FnMut()) -> u64 {
    let mut samples: Vec<u64> = Vec::with_capacity(ITERS);
    for _ in 0..ITERS {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_nanos() as u64);
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn main() {
    let cfg = SynthConfig {
        n_relations: 64,
        topology: Topology::Random { extra: 16 },
        cover_count: 3,
        view_relations: 3,
        ..SynthConfig::default()
    };
    let w = SynthWorkload::random(&cfg, 7);
    let mkb2 = evolve(&w.mkb, &w.delete_change()).expect("target described");
    let opts = CvsOptions::default();

    let one_iter = || {
        let index = MkbIndex::new(&w.mkb, &mkb2);
        for _ in 0..VIEWS {
            cvs_delete_relation_indexed(&w.view, &w.target, &index, &opts)
                .expect("workload is synchronizable");
        }
    };

    // Warm-up outside the pipeline: fault in code paths and allocator
    // arenas before timing.
    for _ in 0..5 {
        one_iter();
    }

    telemetry::install(vec![]).expect("no other pipeline installed");
    let enabled = median_ns(one_iter);
    println!("enabled_median_ns_per_iter={enabled}");

    telemetry::flight_install(4096, None).expect("no other recorder installed");
    let recorder = median_ns(one_iter);
    println!("recorder_median_ns_per_iter={recorder}");
    let stats = telemetry::flight_uninstall().expect("recorder was installed");
    assert!(
        stats.buffered > 0,
        "recorder observed nothing — probe is vacuous"
    );
    telemetry::uninstall();
}
