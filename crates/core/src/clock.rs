//! Virtual time for deterministic simulation.
//!
//! Two places in the engine consult a clock: the
//! [`CvsOptions::deadline`] check inside the CVS candidate search, and the
//! [`FailurePolicy::Degrade`] retry backoff. Under normal operation
//! both run on wall-clock time. Under the deterministic simulator
//! (`eve-sim`) wall time is a nondeterminism hole — the same seed
//! would truncate searches or pace retries differently from run to
//! run — so a **virtual clock** can be installed process-wide:
//!
//! * [`anchor`]/[`Anchor::elapsed`] replace `Instant::now()` +
//!   `Instant::elapsed`: with a virtual clock installed, elapsed time
//!   is the difference of virtual-nanosecond readings and advances
//!   only when someone calls [`VirtualClock::advance`] or [`sleep`].
//! * [`sleep`] replaces `std::thread::sleep`: with a virtual clock
//!   installed it advances virtual time instantly instead of blocking,
//!   so a `Degrade { backoff: 5s }` retry storm completes in
//!   microseconds of wall time while still observing deterministic
//!   virtual timestamps.
//!
//! The registry mirrors `eve-faults`: a process-global slot with
//! exclusive [`install`]/[`uninstall`] and a [`serial_guard`] for
//! tests that must not interleave. [`CvsOptions`] is `Copy`, so the
//! clock cannot ride on the options struct; a global also means
//! worker threads inside the search pool observe the same time source
//! without any plumbing through the parallel iterator.
//!
//! [`CvsOptions::deadline`]: crate::options::CvsOptions::deadline
//! [`FailurePolicy::Degrade`]: crate::options::FailurePolicy::Degrade
//! [`CvsOptions`]: crate::options::CvsOptions

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock};
use std::time::{Duration, Instant};

/// A deterministic time source: a monotone counter of virtual
/// nanoseconds that advances only on explicit request.
#[derive(Debug, Default)]
pub struct VirtualClock {
    nanos: AtomicU64,
}

impl VirtualClock {
    /// A fresh clock at virtual time zero.
    pub fn new() -> Arc<VirtualClock> {
        Arc::new(VirtualClock::default())
    }

    /// Current virtual time in nanoseconds since the clock's epoch.
    pub fn now_nanos(&self) -> u64 {
        self.nanos.load(Ordering::SeqCst)
    }

    /// Advance virtual time by `d`. Saturates at `u64::MAX` nanos.
    pub fn advance(&self, d: Duration) {
        let add = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        // fetch_update to saturate instead of wrapping.
        let _ = self
            .nanos
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |cur| {
                Some(cur.saturating_add(add))
            });
    }
}

/// Cheap flag so the hot search loop can skip the registry lock when
/// no virtual clock is installed (the overwhelmingly common case).
static VIRTUAL_ACTIVE: AtomicBool = AtomicBool::new(false);

fn slot() -> &'static RwLock<Option<Arc<VirtualClock>>> {
    static SLOT: OnceLock<RwLock<Option<Arc<VirtualClock>>>> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(None))
}

/// Error returned by [`install`] when a clock is already installed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClockInstalled;

impl std::fmt::Display for ClockInstalled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("a virtual clock is already installed")
    }
}

impl std::error::Error for ClockInstalled {}

/// Install `clock` as the process-wide time source. Exclusive: fails
/// if another virtual clock is already installed.
pub fn install(clock: Arc<VirtualClock>) -> Result<(), ClockInstalled> {
    let mut slot = slot().write().unwrap_or_else(|e| e.into_inner());
    if slot.is_some() {
        return Err(ClockInstalled);
    }
    *slot = Some(clock);
    VIRTUAL_ACTIVE.store(true, Ordering::SeqCst);
    Ok(())
}

/// Remove the installed virtual clock, returning it (if any). Wall
/// time becomes the time source again.
pub fn uninstall() -> Option<Arc<VirtualClock>> {
    let mut slot = slot().write().unwrap_or_else(|e| e.into_inner());
    VIRTUAL_ACTIVE.store(false, Ordering::SeqCst);
    slot.take()
}

/// True if a virtual clock is currently installed.
pub fn virtual_active() -> bool {
    VIRTUAL_ACTIVE.load(Ordering::SeqCst)
}

fn current() -> Option<Arc<VirtualClock>> {
    if !virtual_active() {
        return None;
    }
    slot()
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .as_ref()
        .cloned()
}

/// Guard for tests that install/uninstall clocks: hold it for the
/// whole test body so concurrently running tests in the same binary
/// don't fight over the global slot.
pub fn serial_guard() -> MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// A point in time captured from whichever clock is active.
///
/// Captured by [`anchor`]; [`Anchor::elapsed`] measures against the
/// *same* time source the anchor was taken from, so a clock installed
/// or removed mid-measurement cannot produce a torn reading.
#[derive(Debug, Clone)]
pub enum Anchor {
    /// Wall-clock anchor (the default).
    Wall(Instant),
    /// Virtual anchor: the clock and the nanos at capture time.
    Virtual(Arc<VirtualClock>, u64),
}

impl Anchor {
    /// Time elapsed since the anchor was captured.
    pub fn elapsed(&self) -> Duration {
        match self {
            Anchor::Wall(i) => i.elapsed(),
            Anchor::Virtual(clock, at) => {
                Duration::from_nanos(clock.now_nanos().saturating_sub(*at))
            }
        }
    }
}

/// Capture the current time from the active source.
pub fn anchor() -> Anchor {
    match current() {
        Some(clock) => {
            let at = clock.now_nanos();
            Anchor::Virtual(clock, at)
        }
        None => Anchor::Wall(Instant::now()),
    }
}

/// Sleep for `d`: blocks the thread on wall time, or advances the
/// installed virtual clock instantly without blocking.
pub fn sleep(d: Duration) {
    match current() {
        Some(clock) => clock.advance(d),
        None => std::thread::sleep(d),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_anchor_measures_real_time() {
        let _guard = serial_guard();
        let a = anchor();
        assert!(matches!(a, Anchor::Wall(_)));
        std::thread::sleep(Duration::from_millis(2));
        assert!(a.elapsed() >= Duration::from_millis(2));
    }

    #[test]
    fn virtual_anchor_only_moves_on_advance() {
        let _guard = serial_guard();
        let clock = VirtualClock::new();
        install(clock.clone()).expect("no clock installed");
        let a = anchor();
        assert!(matches!(a, Anchor::Virtual(..)));
        // Wall time passes; virtual time does not.
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(a.elapsed(), Duration::ZERO);
        clock.advance(Duration::from_secs(5));
        assert_eq!(a.elapsed(), Duration::from_secs(5));
        // Virtual sleep advances instantly.
        let before = Instant::now();
        sleep(Duration::from_secs(3600));
        assert!(before.elapsed() < Duration::from_secs(5));
        assert_eq!(a.elapsed(), Duration::from_secs(3605));
        uninstall();
    }

    #[test]
    fn install_is_exclusive() {
        let _guard = serial_guard();
        install(VirtualClock::new()).expect("no clock installed");
        assert_eq!(install(VirtualClock::new()), Err(ClockInstalled));
        assert!(virtual_active());
        uninstall();
        assert!(!virtual_active());
    }

    #[test]
    fn anchor_survives_mid_measurement_uninstall() {
        let _guard = serial_guard();
        let clock = VirtualClock::new();
        install(clock.clone()).expect("no clock installed");
        let a = anchor();
        clock.advance(Duration::from_secs(1));
        uninstall();
        // The anchor still reads from the clock it was captured from.
        assert_eq!(a.elapsed(), Duration::from_secs(1));
    }
}
