//! # eve-sim — deterministic whole-system simulation
//!
//! A DST (deterministic simulation testing) harness for the EVE stack:
//! a seeded scheduler interleaves capability changes, view queries,
//! historical previews, rollbacks, virtual-clock ticks, and injected
//! fault episodes against a [`eve_core::SharedSynchronizer`], checking
//! system-level invariants continuously — and, on violation, producing
//! a self-contained repro artifact plus a delta-debugged minimal
//! schedule.
//!
//! The moving parts:
//!
//! * [`action`] — the concrete, textual action vocabulary (what makes
//!   schedules replayable and shrinkable);
//! * [`harness`] — [`harness::run`] / [`harness::run_trace`], the
//!   executor, the invariants, and the virtual-clock/fault-registry
//!   lifecycle;
//! * [`mod@shrink`] — ddmin over failing schedules;
//! * [`artifact`] — the repro-artifact text format.
//!
//! Entry points: `eve-cli simulate` for the command line, or
//!
//! ```
//! use eve_sim::{run, SimConfig};
//!
//! let report = run(&SimConfig::new(7, 40));
//! assert!(report.violation.is_none(), "{:?}", report.violation);
//! // Same config ⇒ byte-identical digest, whatever EVE_PARALLELISM is.
//! assert_eq!(report.digest, run(&SimConfig::new(7, 40)).digest);
//! ```
//!
//! The simulator owns two process-global registries while running (the
//! virtual clock and the fault-injection plan), so concurrent
//! simulations in one process serialize via
//! [`eve_core::clock::serial_guard`] — `run` itself reports a
//! violation rather than clobbering a registry that is already busy.

pub mod action;
pub mod artifact;
pub mod harness;
pub mod shrink;

pub use action::{render_change, Action, ActionParseError};
pub use artifact::{parse_artifact, render_artifact, Artifact, ArtifactParseError};
pub use harness::{
    db_for, run, run_trace, Executor, Profile, Session, SimConfig, SimReport, SimStats, Violation,
};
pub use shrink::{shrink, ShrinkResult};
