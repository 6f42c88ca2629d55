//! A thread-safe synchronizer handle for service deployments.
//!
//! The paper's setting is a *large-scale* information system: many
//! clients read view definitions (and route queries through them) while
//! capability changes arrive asynchronously from autonomous ISs.
//! [`SharedSynchronizer`] wraps the single-writer [`Synchronizer`] in a
//! reader/writer lock so that
//!
//! * any number of threads can resolve view definitions concurrently,
//! * one change at a time is applied atomically — readers never observe
//!   a half-synchronized state (the MKB and every view definition switch
//!   together).
//!
//! The lock is `std::sync::RwLock`; a poisoned lock (a panic while
//! holding it) must not wedge the warehouse, so every acquisition
//! recovers the guard from the poison error — readers then still see
//! the last consistent snapshot, since [`Synchronizer::apply`] only
//! commits fully-built state.

use crate::synchronizer::{ChangeOutcome, SyncPanic, Synchronizer};
use eve_esql::ViewDefinition;
use eve_misd::{CapabilityChange, MetaKnowledgeBase, MisdError};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// The identity of the change whose `apply` panicked and poisoned the
/// writer lock — what a reader recovering the lock is actually
/// recovering *from*. Recorded by [`SharedSynchronizer::apply`], surfaced
/// by [`SharedSynchronizer::last_failure`] and attached to the
/// `poison-recovery` telemetry span every recovery emits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailedChange {
    /// The capability change whose application died.
    pub change: String,
    /// The view whose task panicked, when the synchronizer could name it
    /// (a [`SyncPanic`] payload); `None` for foreign panics.
    pub view: Option<String>,
    /// The panic message.
    pub message: String,
}

impl fmt::Display for FailedChange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (view {}): {}",
            self.change,
            self.view.as_deref().unwrap_or("?"),
            self.message
        )
    }
}

/// A cloneable, thread-safe handle to a synchronizer.
#[derive(Clone)]
pub struct SharedSynchronizer {
    inner: Arc<RwLock<Synchronizer>>,
    /// Identity of the most recent panicking change (see
    /// [`FailedChange`]); `lock()` recovery keeps it readable even while
    /// the main lock is poisoned.
    last_panic: Arc<Mutex<Option<FailedChange>>>,
}

impl SharedSynchronizer {
    /// Wrap a synchronizer.
    pub fn new(sync: Synchronizer) -> Self {
        SharedSynchronizer {
            inner: Arc::new(RwLock::new(sync)),
            last_panic: Arc::new(Mutex::new(None)),
        }
    }

    /// Count a poison recovery and emit a `poison-recovery` telemetry
    /// span labelled with the recorded identity of the panicking change,
    /// so the trace answers "recovered from *what*?".
    fn note_poison_recovery(&self) {
        eve_telemetry::counter_add("service.poison_recoveries", 1);
        if eve_telemetry::enabled() {
            let mut span = eve_telemetry::span("poison-recovery");
            span.label(|| {
                self.last_failure()
                    .map(|f| f.to_string())
                    .unwrap_or_else(|| "unknown failure".to_string())
            });
        }
    }

    fn read_lock(&self) -> RwLockReadGuard<'_, Synchronizer> {
        let wait = eve_telemetry::start_timer();
        let result = self.inner.read();
        eve_telemetry::stop_timer("service.read_wait_ns", wait);
        result.unwrap_or_else(|e| {
            self.note_poison_recovery();
            e.into_inner()
        })
    }

    fn write_lock(&self) -> RwLockWriteGuard<'_, Synchronizer> {
        let wait = eve_telemetry::start_timer();
        let result = self.inner.write();
        eve_telemetry::stop_timer("service.write_wait_ns", wait);
        result.unwrap_or_else(|e| {
            self.note_poison_recovery();
            e.into_inner()
        })
    }

    /// The identity of the most recent change whose `apply` panicked
    /// through this handle (`None` when none has). Readers recovering a
    /// poisoned lock use this to learn what they are recovering from —
    /// including from inside a [`SharedSynchronizer::read`] closure.
    pub fn last_failure(&self) -> Option<FailedChange> {
        self.last_panic
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Snapshot one view definition (None when unknown or disabled).
    ///
    /// The snapshot is a cheap `Arc` clone of the synchronizer's
    /// copy-on-write state — no view definition is deep-copied.
    pub fn view(&self, name: &str) -> Option<Arc<ViewDefinition>> {
        self.read_lock().view_snapshot(name)
    }

    /// Snapshot all active view definitions (cheap `Arc` clones).
    pub fn views(&self) -> Vec<Arc<ViewDefinition>> {
        self.read_lock()
            .view_snapshots()
            .into_iter()
            .map(|(_, v)| v)
            .collect()
    }

    /// Snapshot the current MKB (a cheap `Arc` clone: `apply` replaces
    /// the synchronizer's MKB handle wholesale, so an outstanding
    /// snapshot keeps the pre-change MKB alive without copying it).
    pub fn mkb(&self) -> Arc<MetaKnowledgeBase> {
        self.read_lock().mkb_snapshot()
    }

    /// Apply a capability change atomically.
    ///
    /// The write lock is held for the whole change; inside it the
    /// synchronizer may still fan affected views out across worker
    /// threads ([`crate::CvsOptions::parallelism`]) — that inner
    /// parallelism never escapes the lock, so readers keep their
    /// all-or-nothing view of the state.
    /// Under [`crate::FailurePolicy::FailFast`] a panicking view task
    /// re-raises here; before the panic continues to the caller, its
    /// identity (change, view, message — carried by the [`SyncPanic`]
    /// payload) is recorded so subsequent poison recoveries can name it.
    pub fn apply(&self, change: &CapabilityChange) -> Result<ChangeOutcome, MisdError> {
        match catch_unwind(AssertUnwindSafe(|| self.write_lock().apply(change))) {
            Ok(result) => result,
            Err(payload) => {
                let info = match payload.downcast_ref::<SyncPanic>() {
                    Some(p) => FailedChange {
                        change: p.change.clone(),
                        view: Some(p.view.clone()),
                        message: p.message.clone(),
                    },
                    None => FailedChange {
                        change: change.to_string(),
                        view: None,
                        message: payload
                            .downcast_ref::<&str>()
                            .map(|s| (*s).to_string())
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "non-string panic payload".to_string()),
                    },
                };
                *self.last_panic.lock().unwrap_or_else(|e| e.into_inner()) = Some(info);
                std::panic::resume_unwind(payload);
            }
        }
    }

    /// Dry-run a change without mutating shared state (takes only a read
    /// lock — previews can run concurrently with other readers).
    pub fn preview(&self, change: &CapabilityChange) -> Result<ChangeOutcome, MisdError> {
        self.read_lock().preview(change)
    }

    /// The current version number (0 = initial state; incremented by
    /// every applied change).
    pub fn version(&self) -> usize {
        self.read_lock().version()
    }

    /// Swap the failure policy in place (see
    /// [`Synchronizer::set_failure_policy`]).
    pub fn set_failure_policy(&self, policy: crate::FailurePolicy) {
        self.write_lock().set_failure_policy(policy);
    }

    /// Register a new view at runtime against the current MKB (see
    /// [`Synchronizer::register_view`]). Takes the write lock; the view
    /// becomes visible to subsequent readers atomically.
    pub fn register_view(&self, view: ViewDefinition) -> Result<(), String> {
        self.write_lock().register_view(view)
    }

    /// Roll the shared synchronizer back to version `index`, discarding
    /// later chain entries (see [`Synchronizer::rollback_to`]). Takes
    /// the write lock: like `apply`, the swap is atomic — readers see
    /// either the pre- or the post-rollback state, never a mix.
    pub fn rollback_to(&self, index: usize) -> bool {
        self.write_lock().rollback_to(index)
    }

    /// Time travel: a detached [`Synchronizer`] positioned at historical
    /// `version` (see [`Synchronizer::at_version`]). Takes only a read
    /// lock; the fork shares all state via `Arc` and never writes back.
    pub fn at_version(&self, version: usize) -> Option<Synchronizer> {
        self.read_lock().at_version(version)
    }

    /// Re-apply the recorded changes of versions `start+1 ..= end` on a
    /// fork (see [`Synchronizer::replay`]). Takes only a read lock.
    pub fn replay(&self, start: usize, end: usize) -> Option<crate::SyncReport> {
        self.read_lock().replay(start, end)
    }

    /// What-if against history: dry-run `change` as if applied at
    /// historical `version` (see [`Synchronizer::preview_at`]). Takes
    /// only a read lock.
    pub fn preview_at(
        &self,
        version: usize,
        change: &CapabilityChange,
    ) -> Option<Result<ChangeOutcome, MisdError>> {
        self.read_lock().preview_at(version, change)
    }

    /// Run a closure against a read-locked synchronizer (for compound
    /// reads that must see one consistent state).
    ///
    /// When the lock was poisoned, the read transparently recovers the
    /// last committed snapshot; [`SharedSynchronizer::last_failure`]
    /// names the change (and view) whose panic caused the poisoning.
    pub fn read<T>(&self, f: impl FnOnce(&Synchronizer) -> T) -> T {
        f(&self.read_lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synchronizer::SynchronizerBuilder;
    use crate::testutil::travel_mkb;
    use eve_esql::parse_view;
    use eve_relational::RelName;
    use std::thread;

    fn shared() -> SharedSynchronizer {
        shared_named("CPA")
    }

    /// [`shared`] with the view under another name, so a fault plan
    /// scoped to that name never fires in tests running concurrently.
    fn shared_named(view: &str) -> SharedSynchronizer {
        let sync = SynchronizerBuilder::new(travel_mkb())
            .with_view(
                parse_view(&format!(
                    "CREATE VIEW {view} AS
                     SELECT C.Name (false, true), F.PName (true, true), F.Dest (true, true)
                     FROM Customer C (true, true), FlightRes F (true, true)
                     WHERE (C.Name = F.PName) (false, true)"
                ))
                .unwrap(),
            )
            .unwrap()
            .build();
        SharedSynchronizer::new(sync)
    }

    #[test]
    fn concurrent_readers_during_writes_see_consistent_states() {
        let s = shared();
        let mut handles = Vec::new();
        // Readers: the view must always be either the original (uses
        // Customer, MKB has Customer) or the rewriting (no Customer, MKB
        // without Customer) — never a mix.
        for _ in 0..4 {
            let s = s.clone();
            handles.push(thread::spawn(move || {
                for _ in 0..200 {
                    let consistent = s.read(|sync| {
                        let has_customer = sync.mkb().contains_relation(&RelName::new("Customer"));
                        match sync.view("CPA") {
                            Some(v) => v.uses_relation(&RelName::new("Customer")) == has_customer,
                            None => true,
                        }
                    });
                    assert!(consistent, "reader observed a half-applied change");
                }
            }));
        }
        // Writer: apply the change midway.
        let writer = {
            let s = s.clone();
            thread::spawn(move || {
                s.apply(&CapabilityChange::DeleteRelation(RelName::new("Customer")))
                    .expect("applies")
            })
        };
        for h in handles {
            h.join().expect("reader");
        }
        let outcome = writer.join().expect("writer");
        assert_eq!(outcome.rewritten(), 1);
        // Final state visible through the handle.
        assert!(!s.mkb().contains_relation(&RelName::new("Customer")));
        assert!(!s
            .view("CPA")
            .expect("alive")
            .uses_relation(&RelName::new("Customer")));
    }

    #[test]
    fn panic_while_writing_leaves_readers_on_last_snapshot() {
        let _serial = eve_telemetry::serial_guard();
        eve_telemetry::install(vec![]).expect("no pipeline installed");

        let s = shared();
        // A writer takes the lock directly and dies holding it, so the
        // lock is genuinely poisoned (apply() commits fully-built state
        // and cannot poison mid-change on its own).
        let poisoner = {
            let s = s.clone();
            thread::spawn(move || {
                let _guard = s.inner.write().unwrap();
                panic!("writer dies while holding the lock");
            })
        };
        assert!(poisoner.join().is_err());
        assert!(s.inner.is_poisoned());

        // Readers recover the guard and still see the last committed
        // snapshot: original view, original MKB, consistently.
        let view = s.view("CPA").expect("view resolvable after poison");
        assert!(view.uses_relation(&RelName::new("Customer")));
        assert!(s.mkb().contains_relation(&RelName::new("Customer")));

        // The handle keeps working for writes too.
        let outcome = s
            .apply(&CapabilityChange::DeleteRelation(RelName::new("Customer")))
            .expect("applies after poison");
        assert_eq!(outcome.rewritten(), 1);
        assert!(!s
            .view("CPA")
            .expect("alive")
            .uses_relation(&RelName::new("Customer")));

        let snap = eve_telemetry::uninstall().expect("pipeline was installed");
        let recoveries = snap.counter("service.poison_recoveries").unwrap_or(0);
        assert!(
            recoveries >= 3,
            "read+read+write recoveries, got {recoveries}"
        );
    }

    #[test]
    fn failfast_panic_records_identity_and_keeps_handle_usable() {
        let _serial = eve_faults::serial_guard();
        let _ = eve_faults::uninstall();
        eve_faults::install(eve_faults::FaultPlan::parse("Faulted-CPA/view.sync#0=panic").unwrap())
            .unwrap();

        let s = shared_named("Faulted-CPA");
        let change = CapabilityChange::DeleteRelation(RelName::new("Customer"));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.apply(&change)));
        let report = eve_faults::uninstall().expect("plan was installed");
        assert_eq!(report.injected, 1);

        // FailFast surfaced the panic with full identity.
        let payload = result.expect_err("FailFast re-raises the view panic");
        let sp = payload
            .downcast_ref::<crate::SyncPanic>()
            .expect("typed SyncPanic payload");
        assert_eq!(sp.view, "Faulted-CPA");
        assert!(sp.change.contains("Customer"), "{}", sp.change);
        let failure = s.last_failure().expect("identity recorded");
        assert_eq!(failure.view.as_deref(), Some("Faulted-CPA"));
        assert!(failure.change.contains("Customer"), "{failure}");
        assert!(failure.message.contains("view.sync"), "{failure}");

        // The unwind poisoned the lock, but readers recover the last
        // snapshot and the handle keeps working for writes.
        assert!(s.inner.is_poisoned());
        assert!(s
            .view("Faulted-CPA")
            .expect("view resolvable after poison")
            .uses_relation(&RelName::new("Customer")));
        let outcome = s.apply(&change).expect("applies once the fault is gone");
        assert_eq!(outcome.rewritten(), 1);
    }

    #[test]
    fn preview_concurrent_with_reads() {
        let s = shared();
        let p = {
            let s = s.clone();
            thread::spawn(move || {
                s.preview(&CapabilityChange::DeleteRelation(RelName::new("Customer")))
                    .expect("previews")
            })
        };
        let views = s.views();
        assert_eq!(views.len(), 1);
        let outcome = p.join().expect("preview thread");
        assert_eq!(outcome.rewritten(), 1);
        // Preview did not mutate.
        assert!(s.mkb().contains_relation(&RelName::new("Customer")));
    }
}
