//! Memory-plateau probe: repeated cycles of capability changes followed
//! by a rollback to the base version must not grow the process's net
//! heap usage cycle over cycle — the version chain and the per-change
//! index state all have to be reclaimed by `rollback_to`.
//!
//! Lives in its own test binary because `#[global_allocator]` is
//! process-global (same reasoning as `crates/bench/tests/alloc_probe`,
//! but counting **net bytes** rather than allocation events: a plateau
//! claim is about retained memory, not allocator traffic).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use eve_core::clock::serial_guard;
use eve_misd::evolve;
use eve_sim::{Action, Profile, Session, SimConfig};
use eve_workload::ChangeSource;

struct NetBytes;

static NET: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for NetBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        NET.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        NET.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        NET.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        NET.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: NetBytes = NetBytes;

#[test]
fn change_rollback_cycles_plateau() {
    let _serial = serial_guard();
    let mut config = SimConfig::new(5, 0);
    config.profile = Profile::Smoke;
    config.record = false; // the probe measures the engine, not a growing trace

    let mut session = Session::start(&config).unwrap_or_else(|v| panic!("{v}"));

    // Draw one cycle of changes valid against the *base* MKB: after
    // each cycle's rollback the synchronizer is back at version 0, so
    // the same changes stay admissible every time around.
    let mut source = ChangeSource::new(config.seed);
    let mut scratch = (*session.mkb()).clone();
    let mut cycle = Vec::new();
    for _ in 0..3 {
        let change = source.next(&scratch).expect("base MKB affords changes");
        scratch = evolve(&scratch, &change).expect("source only yields valid changes");
        cycle.push(Action::Change(change));
    }
    let depth = cycle.len();
    cycle.push(Action::CheckFull);
    cycle.push(Action::Rollback { back: depth });

    let run_cycle = |session: &mut Session, base: usize| {
        for (i, action) in cycle.iter().enumerate() {
            session
                .execute(base + i, action)
                .unwrap_or_else(|v| panic!("{v}"));
        }
        assert_eq!(
            session.version(),
            0,
            "cycle must return to the base version"
        );
    };

    // Warm-up: first cycles populate one-time state (lazy registries,
    // thread pools, interners, high-water marks of reused buffers).
    const WARMUP: usize = 4;
    const MEASURED: usize = 12;
    for c in 0..WARMUP {
        run_cycle(&mut session, c * cycle.len());
    }
    let warm = NET.load(Ordering::SeqCst);

    for c in 0..MEASURED {
        run_cycle(&mut session, (WARMUP + c) * cycle.len());
    }
    let end = NET.load(Ordering::SeqCst);

    // A real leak compounds per cycle; a plateau stays flat. Allow a
    // generous fixed allowance for stragglers (allocator bookkeeping,
    // late thread-local growth) — what matters is that 12 further
    // cycles don't add 12 × (per-cycle state).
    let growth = end - warm;
    assert!(
        growth < 256 * 1024,
        "net heap grew {growth} bytes over {MEASURED} change+rollback cycles"
    );
}
