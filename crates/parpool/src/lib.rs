//! A minimal scoped **work-stealing thread pool**, vendored for the EVE
//! workspace (the build environment has no route to crates.io, so this
//! plays the role `rayon` would otherwise play — same offline-shim
//! pattern as the workspace's `rand`/`proptest` crates).
//!
//! The one entry point, [`map_in_order`], runs a closure over a batch of
//! work items on `threads` scoped OS threads and returns the results **in
//! input order**, so callers that must produce deterministic,
//! order-sensitive output (like the view synchronizer merging per-view
//! outcomes back in registration order) can parallelize without changing
//! observable behaviour.
//!
//! Design:
//!
//! * **Scoped** — workers are spawned with [`std::thread::scope`], so the
//!   closure may borrow from the caller's stack (the synchronizer shares
//!   one `&MkbIndex` across all workers without `Arc`ing its world).
//!   Threads live for one batch; for the intended workload (tens to
//!   hundreds of view rewrites, each microseconds to milliseconds) the
//!   ~10 µs spawn cost per worker is noise.
//! * **Work-stealing** — items are dealt round-robin into one deque per
//!   worker; a worker pops from the *front* of its own deque and, when
//!   empty, steals from the *back* of a victim's. Skewed batches (one
//!   expensive view among many trivial ones) therefore still keep every
//!   worker busy.
//! * **Panic-containing** — each work item runs under
//!   [`std::panic::catch_unwind`]; a panicking item yields
//!   `Err(`[`TaskPanic`]`)` *for that slot only*, every other item's
//!   result survives. Callers that want the old fail-fast behaviour call
//!   [`TaskPanic::resume`] on the first error.
//!
//! No `catch_unwind` footgun applies here: the closure is `Sync` and
//! called by shared reference, the pool hands each item to exactly one
//! call, and a caught task's partial effects are confined to whatever
//! the closure itself shared — the same exposure the panic-transparent
//! version had while the scope unwound.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// A panic captured at a task boundary: which input item unwound, the
/// best-effort textual message, and the original payload (so callers can
/// downcast typed payloads — e.g. `eve-faults`' injected faults — or
/// re-raise with [`TaskPanic::resume`]).
pub struct TaskPanic {
    /// Index of the input item whose task panicked.
    pub index: usize,
    /// The panic message when the payload was a string, a placeholder
    /// otherwise.
    pub message: String,
    /// The original panic payload.
    pub payload: Box<dyn Any + Send>,
}

impl TaskPanic {
    /// Re-raise the captured panic on the current thread (restores the
    /// pre-containment fail-fast behaviour).
    pub fn resume(self) -> ! {
        std::panic::resume_unwind(self.payload)
    }
}

impl fmt::Debug for TaskPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TaskPanic")
            .field("index", &self.index)
            .field("message", &self.message)
            .finish_non_exhaustive()
    }
}

impl fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task {} panicked: {}", self.index, self.message)
    }
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `f()` for input item `index`, containing an unwind into
/// `Err(TaskPanic)`. This is the per-item capture [`map_in_order`] uses,
/// exposed so callers re-running a failed item (retry policies) capture
/// the retry's panic identically.
pub fn call_caught<R>(index: usize, f: impl FnOnce() -> R) -> Result<R, TaskPanic> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| TaskPanic {
        index,
        message: panic_message(payload.as_ref()),
        payload,
    })
}

/// One worker's deque of `(input index, item)` pairs, lock-protected so
/// that other workers can steal from it.
struct Deque<T> {
    items: Mutex<VecDeque<(usize, T)>>,
}

impl<T> Deque<T> {
    fn new() -> Self {
        Deque {
            items: Mutex::new(VecDeque::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<(usize, T)>> {
        // Task panics are contained, but defensive recovery keeps the
        // pool usable even if an unwind ever crosses a lock again.
        self.items.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Pop from the owner's end.
    fn pop_front(&self) -> Option<(usize, T)> {
        self.lock().pop_front()
    }

    /// Steal from the victim's end.
    fn steal_back(&self) -> Option<(usize, T)> {
        self.lock().pop_back()
    }
}

/// Map `f` over `items` on up to `threads` scoped worker threads,
/// returning the per-item results in **input order**.
///
/// `f` receives `(index, item)` — the index of the item in `items` — and
/// must be callable from any worker (`Sync`, called by shared reference).
/// With `threads <= 1`, a single item, or an empty batch, everything runs
/// inline on the caller's thread: no worker is spawned and the call is
/// exactly a sequential `map`.  The worker count is additionally capped
/// at the batch size — spawning more threads than items buys nothing.
///
/// A panicking item does **not** kill the batch: its slot comes back as
/// `Err(`[`TaskPanic`]`)` (message + payload captured) while every other
/// item completes normally. Fail-fast callers can
/// `result?.unwrap_or_else(|p| p.resume())`.
pub fn map_in_order<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<Result<R, TaskPanic>>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let workers = threads.min(n);
    if workers <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| call_caught(i, || f(i, t)))
            .collect();
    }

    // Deal items round-robin so each worker starts with an even share
    // (and with *interleaved* indices — consecutive expensive items land
    // on different workers).
    let deques: Vec<Deque<T>> = (0..workers).map(|_| Deque::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        deques[i % workers].lock().push_back((i, item));
    }

    let f = &f;
    let deques = &deques;
    let mut results: Vec<Option<Result<R, TaskPanic>>> = Vec::with_capacity(n);
    results.resize_with(n, || None);

    let chunks = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|me| {
                scope.spawn(move || {
                    let mut done: Vec<(usize, Result<R, TaskPanic>)> = Vec::new();
                    loop {
                        // Own work first, then sweep the victims once.
                        let next = deques[me].pop_front().or_else(|| {
                            (1..workers)
                                .map(|k| (me + k) % workers)
                                .find_map(|victim| deques[victim].steal_back())
                        });
                        match next {
                            Some((i, item)) => done.push((i, call_caught(i, || f(i, item)))),
                            // Every deque was empty on a full sweep: the
                            // batch is exhausted (no worker ever re-queues
                            // work, so emptiness is stable).
                            None => break,
                        }
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(chunk) => chunk,
                // Unreachable in practice — tasks are caught — but a
                // panic outside any task (e.g. allocation failure in the
                // worker loop) still propagates rather than vanishing.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect::<Vec<_>>()
    });

    for (i, r) in chunks.into_iter().flatten() {
        debug_assert!(results[i].is_none(), "item {i} processed twice");
        results[i] = Some(r);
    }
    results
        .into_iter()
        .map(|r| r.expect("every index processed exactly once"))
        .collect()
}

/// The parallelism the host offers: [`std::thread::available_parallelism`]
/// with a serial fallback when the platform cannot say.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn unwrap_all<R>(results: Vec<Result<R, TaskPanic>>) -> Vec<R> {
        results
            .into_iter()
            .map(|r| r.unwrap_or_else(|p| p.resume()))
            .collect()
    }

    #[test]
    fn preserves_input_order() {
        for threads in [1, 2, 3, 8, 33] {
            let items: Vec<usize> = (0..100).collect();
            let out = unwrap_all(map_in_order(threads, items, |i, x| {
                assert_eq!(i, x);
                x * 2
            }));
            assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_singleton_run_inline() {
        let out: Vec<u32> = unwrap_all(map_in_order(8, Vec::<u32>::new(), |_, x| x));
        assert!(out.is_empty());
        let out = unwrap_all(map_in_order(8, vec![41], |_, x| x + 1));
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn skewed_batch_is_stolen() {
        // One item is ~1000x the others; with 4 workers the small items
        // must not wait behind it. We can't assert timing robustly, but we
        // can assert that more than one thread participated. On a loaded
        // host one worker could finish the heavy item and drain every
        // small one before another worker is scheduled, so the heavy item
        // waits until a small item has run on some other thread.
        let seen = Mutex::new(std::collections::HashSet::new());
        let (ran_on, small_ran) = std::sync::mpsc::channel();
        let small_ran = Mutex::new(small_ran);
        let items: Vec<u64> = (0..64)
            .map(|i| if i == 0 { 5_000_000 } else { 5_000 })
            .collect();
        let out = unwrap_all(map_in_order(4, items, |i, spins| {
            let me = std::thread::current().id();
            seen.lock().unwrap().insert(me);
            if i == 0 {
                let small_ran = small_ran.lock().unwrap();
                while let Ok(other) = small_ran.recv_timeout(std::time::Duration::from_secs(10)) {
                    if other != me {
                        break;
                    }
                }
            } else {
                let _ = ran_on.send(me);
            }
            let mut acc = 0u64;
            for k in 0..spins {
                acc = acc.wrapping_add(std::hint::black_box(k));
            }
            acc
        }));
        assert_eq!(out.len(), 64);
        assert!(seen.lock().unwrap().len() > 1, "work never spread");
    }

    #[test]
    fn borrows_from_callers_stack() {
        let base = 10usize;
        let counter = AtomicUsize::new(0);
        let out = unwrap_all(map_in_order(4, vec![1, 2, 3, 4], |_, x| {
            counter.fetch_add(1, Ordering::Relaxed);
            base + x
        }));
        assert_eq!(out, vec![11, 12, 13, 14]);
        assert_eq!(counter.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn worker_panic_is_contained_to_its_slot() {
        for threads in [1, 4] {
            let results = map_in_order(threads, (0..16).collect::<Vec<_>>(), |_, x: i32| {
                if x == 7 {
                    panic!("boom {x}");
                }
                x * 10
            });
            assert_eq!(results.len(), 16);
            for (i, r) in results.into_iter().enumerate() {
                if i == 7 {
                    let p = r.expect_err("slot 7 panicked");
                    assert_eq!(p.index, 7);
                    assert_eq!(p.message, "boom 7");
                    assert_eq!(p.to_string(), "task 7 panicked: boom 7");
                } else {
                    assert_eq!(r.expect("other slots complete"), i as i32 * 10);
                }
            }
        }
    }

    #[test]
    fn typed_panic_payload_survives_capture() {
        #[derive(Debug, PartialEq)]
        struct Marker(u32);
        let mut results = map_in_order(2, vec![0u32, 1], |_, x| {
            if x == 1 {
                std::panic::panic_any(Marker(99));
            }
            x
        });
        let err = results.pop().unwrap().expect_err("panicked");
        assert_eq!(err.payload.downcast_ref::<Marker>(), Some(&Marker(99)));
        assert_eq!(err.message, "non-string panic payload");
        assert_eq!(results.pop().unwrap().expect("ok"), 0);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn resume_restores_fail_fast() {
        let results = map_in_order(4, (0..16).collect::<Vec<_>>(), |_, x: i32| {
            if x == 7 {
                panic!("boom");
            }
            x
        });
        let _ = unwrap_all(results);
    }

    #[test]
    fn call_caught_passes_through_success() {
        assert_eq!(call_caught(3, || 42).expect("ok"), 42);
        let err = call_caught(3, || -> u32 { panic!("nope") }).expect_err("caught");
        assert_eq!((err.index, err.message.as_str()), (3, "nope"));
    }

    #[test]
    fn available_parallelism_positive() {
        assert!(available_parallelism() >= 1);
    }
}
