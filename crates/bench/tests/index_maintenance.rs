//! Speed floors of incremental index maintenance over per-change
//! rebuilds, measured in-process on one 64-change capability stream.
//!
//! Each test times both sides back to back in the same process and
//! asserts a ratio of the two medians, so host speed cancels and no
//! stored baseline is needed. That rebuild and incremental maintenance
//! produce the same outcomes is checked elsewhere
//! (`tests/delta_equivalence.rs` and the simulator's rebuild shadow);
//! these tests only hold the speed claim.

use eve_core::{CvsOptions, IndexCore, IndexMaintenance, MkbDelta, MkbIndex, SynchronizerBuilder};
use eve_misd::evolve;
use eve_workload::{change_stream, random_views, SynthConfig, SynthWorkload, Topology};
use std::time::Instant;

/// Number of capability changes in the stream.
const STREAM_CHANGES: usize = 64;

fn median_ns(iters: usize, mut f: impl FnMut()) -> u128 {
    let mut samples: Vec<u128> = (0..iters.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// 256 relations in 32 autonomous clusters of 8 (no cross-cluster
/// joins — the paper's large-scale multi-IS setting), a tenth of the
/// relations carrying redundant function-of covers.
fn stream_workload() -> SynthWorkload {
    SynthWorkload::random(
        &SynthConfig {
            n_relations: 256,
            topology: Topology::Clusters { size: 8, extra: 2 },
            cover_count: 3,
            view_relations: 3,
            global_cover_prob: 0.1,
            ..SynthConfig::default()
        },
        13,
    )
}

/// Index maintenance alone: per change, a from-scratch
/// [`MkbIndex::new`] vs the delta path ([`MkbDelta::compute`] →
/// [`IndexCore::apply_delta`] → [`MkbIndex::from_cores`]). The evolved
/// MKB chain is precomputed outside the timed region, so the returned
/// `(rebuild_ns, delta_ns)` medians compare exactly the work
/// [`IndexMaintenance`] switches.
fn maintain_ab(iters: usize) -> (u128, u128) {
    let sw = stream_workload();
    let stream = change_stream(&sw.mkb, STREAM_CHANGES, 13);
    let mut states = Vec::with_capacity(stream.len() + 1);
    states.push(sw.mkb.clone());
    for c in &stream {
        let next = evolve(states.last().expect("nonempty"), c).expect("stream change applies");
        states.push(next);
    }
    let rebuild = median_ns(iters, || {
        for (i, _c) in stream.iter().enumerate() {
            std::hint::black_box(MkbIndex::new(&states[i], &states[i + 1]));
        }
    });
    let core0 = IndexCore::build(&states[0]);
    let delta = median_ns(iters, || {
        let mut core = core0.clone();
        for (i, c) in stream.iter().enumerate() {
            let d = MkbDelta::compute(&states[i], &states[i + 1], c);
            let next = core.apply_delta(&d);
            std::hint::black_box(MkbIndex::from_cores(
                &states[i],
                &states[i + 1],
                &core,
                &next,
            ));
            core = next;
        }
    });
    (rebuild, delta)
}

/// The whole stream end to end under each maintenance mode: one
/// synchronizer per mode over the same MKB, the same two registered
/// views and the same changes. Returns `(rebuild_ns, incremental_ns)`.
/// Both modes pay the same `evolve` and view-sync cost per change, so
/// this ratio is Amdahl-limited well below [`maintain_ab`]'s.
fn stream_ab(iters: usize) -> (u128, u128) {
    let sw = stream_workload();
    let stream = change_stream(&sw.mkb, STREAM_CHANGES, 13);
    let views = random_views(&sw.mkb, 2, 3, 13);
    let mut medians = [0u128; 2];
    for (slot, mode) in [
        (0, IndexMaintenance::Rebuild),
        (1, IndexMaintenance::Incremental),
    ] {
        let mut builder = SynchronizerBuilder::new(sw.mkb.clone()).with_options(CvsOptions {
            index_maintenance: mode,
            ..CvsOptions::default()
        });
        for v in &views {
            builder = builder
                .with_view(v.clone())
                .expect("synthetic view is valid");
        }
        let proto = builder.build();
        medians[slot] = median_ns(iters, || {
            // Cloning the prototype is O(views) Arc bumps — the measured
            // work is the 64 applies, not the setup.
            let mut s = proto.clone();
            for c in &stream {
                s.apply(c).expect("stream change applies");
            }
        });
    }
    (medians[0], medians[1])
}

/// Delta apply (compute → `apply_delta` → `from_cores`) beats
/// per-change from-scratch index rebuilds by at least 5x.
#[test]
fn incremental_maintenance_beats_rebuild_at_least_5x() {
    let (rebuild, delta) = maintain_ab(3);
    let ratio = rebuild as f64 / delta as f64;
    assert!(
        ratio >= 5.0,
        "delta apply {delta}ns vs rebuild {rebuild}ns: only {ratio:.2}x"
    );
}

/// End to end — `evolve` and view sync included, identical in both
/// modes — the incremental synchronizer must still win clearly.
#[test]
fn incremental_stream_is_faster_end_to_end() {
    let (rebuild, incremental) = stream_ab(3);
    let ratio = rebuild as f64 / incremental as f64;
    assert!(
        ratio >= 2.0,
        "incremental {incremental}ns vs rebuild {rebuild}ns: only {ratio:.2}x end to end"
    );
}
