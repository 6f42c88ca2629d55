//! Tuning knobs for the CVS search, including the ablation switches
//! called out in `DESIGN.md`.

use std::time::Duration;

/// What [`crate::Synchronizer::apply`] does when one view's
/// synchronization task panics (organically, or injected via
/// `eve-faults`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailurePolicy {
    /// Re-raise the panic on the applying thread, wrapped in a
    /// [`crate::SyncPanic`] payload naming the change and the failing
    /// view. The default — a programming error stays loud.
    #[default]
    FailFast,
    /// Contain the failure to the view: retry *transient* failures up to
    /// `max_retries` times (sleeping `backoff × attempt` between tries,
    /// deterministically, on the applying thread), then land the view as
    /// [`crate::ViewOutcome::Failed`] while every other view's outcome
    /// stays byte-identical to the fault-free run.
    Degrade {
        /// Retries after the first attempt (transient failures only —
        /// non-transient panics never retry).
        max_retries: u32,
        /// Base sleep between retries; attempt `n` waits `backoff × n`.
        backoff: Duration,
    },
}

impl FailurePolicy {
    /// The degraded-service preset used by `eve-cli --faults`: two
    /// retries with a 1 ms base backoff.
    pub fn degrade() -> Self {
        FailurePolicy::Degrade {
            max_retries: 2,
            backoff: Duration::from_millis(1),
        }
    }
}

/// How the per-change [`crate::MkbIndex`] derived state is produced when
/// [`crate::Synchronizer::apply`] moves from one MKB version to the next.
///
/// Rebuild equivalence is the contract: both modes produce
/// byte-identical [`crate::ChangeOutcome`]s (the property suite in
/// `tests/delta_equivalence.rs` enforces it); the modes differ only in
/// how much work each change costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexMaintenance {
    /// Rebuild every derived structure from scratch per change (the
    /// pre-delta behaviour): `O(MKB)` per change, no carried state.
    Rebuild,
    /// Maintain the derived state with typed [`crate::MkbDelta`]s —
    /// incremental interner growth, CSR patching, component
    /// split-recheck, constraint-bucket edits — and carry the
    /// enumeration memo tables across changes, invalidating only the
    /// entries whose key `RelSet` intersects the affected component.
    /// `O(delta)` per change. The default.
    #[default]
    Incremental,
}

/// How clause implication is tested when computing the R-mapping
/// (Def. 2 III: each MKB join constraint must be implied by the view's
/// join condition).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ImplicationMode {
    /// Syntactic equality modulo operand orientation only.
    Syntactic,
    /// Syntactic equality plus interval subsumption over constant
    /// comparisons (`Age > 21 ⇒ Age > 1`) — required to recognise JC2 of
    /// the running example. The default.
    #[default]
    Interval,
}

/// Options controlling the CVS search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CvsOptions {
    /// Maximum number of join-constraint hops allowed when attaching a
    /// cover or a surviving `Min` relation to the candidate join tree.
    /// `usize::MAX` (the default) is full CVS; `1` degrades the search to
    /// the *one-step-away* SVS baseline of [4, 12].
    ///
    /// `0` is nonsensical — a zero-hop bound can never attach anything,
    /// so every multi-relation search would come back empty by
    /// construction. [`CvsOptions::validated`] (applied by the
    /// synchronizer when it builds) clamps it to ≥ 1.
    pub max_path_edges: usize,
    /// Clause-implication strength for the R-mapping.
    pub implication: ImplicationMode,
    /// Worker threads for fanning affected views out during
    /// [`crate::Synchronizer::apply`].
    ///
    /// * `Some(n)` — use up to `n` workers (`n ≤ 1` means sequential);
    /// * `None` (the default) — consult the `EVE_PARALLELISM` environment
    ///   variable, falling back to sequential when it is unset or
    ///   unparseable.
    ///
    /// Parallel and sequential runs produce byte-identical outcomes
    /// (results are merged back in view-registration order), so this is
    /// purely a throughput knob.
    pub parallelism: Option<usize>,
    /// Time limit for one view's `delete-relation` search, measured
    /// from the start of its candidate stream. `None` (the default)
    /// searches exhaustively; a search cut by its deadline keeps what it
    /// has ranked so far and reports the cut through
    /// [`crate::SearchStats::budget_exhausted`]. The SVS baseline strips
    /// it, so the CVS-vs-SVS comparison stays exhaustive.
    pub deadline: Option<Duration>,
    /// What to do when a view's synchronization task panics: fail fast
    /// (the default) or degrade that view to
    /// [`crate::ViewOutcome::Failed`] after deterministic retries.
    pub failure: FailurePolicy,
    /// How the per-change [`crate::MkbIndex`] is produced: delta-
    /// maintained (the default) or rebuilt from scratch. All modes
    /// produce identical outcomes; this is purely a throughput knob.
    pub index_maintenance: IndexMaintenance,
}

impl Default for CvsOptions {
    fn default() -> Self {
        CvsOptions {
            max_path_edges: usize::MAX,
            implication: ImplicationMode::Interval,
            parallelism: None,
            deadline: None,
            failure: FailurePolicy::default(),
            index_maintenance: IndexMaintenance::default(),
        }
    }
}

impl CvsOptions {
    /// The configuration reproducing the *simple* one-step-away view
    /// synchronization (SVS) of the authors' prior work [4, 12]: covers
    /// must attach by a single direct join constraint. SVS is defined
    /// as an *exhaustive* one-step search, so any deadline is rejected
    /// (stripped) — a time-truncated baseline would make the CVS-vs-SVS
    /// comparison meaningless.
    pub fn svs_baseline() -> Self {
        CvsOptions {
            max_path_edges: 1,
            deadline: None,
            ..CvsOptions::default()
        }
    }

    /// Clamp out-of-domain values: `max_path_edges = 0` (which could
    /// never attach anything — see the field docs) becomes `1`, the
    /// tightest meaningful bound, and a zero deadline (which would cut
    /// every search before its first candidate) becomes no deadline.
    /// The synchronizer applies this when it is built, so a zero
    /// smuggled in through a config file degrades gracefully instead of
    /// silently disabling the search.
    pub fn validated(self) -> Self {
        CvsOptions {
            max_path_edges: self.max_path_edges.max(1),
            deadline: self.deadline.filter(|d| !d.is_zero()),
            ..self
        }
    }

    /// Resolve [`CvsOptions::parallelism`] to a concrete worker count:
    /// the explicit setting wins, then the `EVE_PARALLELISM` environment
    /// variable, then sequential (1).
    pub fn effective_parallelism(&self) -> usize {
        match self.parallelism {
            Some(n) => n.max(1),
            None => std::env::var("EVE_PARALLELISM")
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .map(|n| n.max(1))
                .unwrap_or(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let o = CvsOptions::default();
        assert_eq!(o.max_path_edges, usize::MAX);
        assert_eq!(o.implication, ImplicationMode::Interval);
    }

    #[test]
    fn svs_baseline_is_one_step() {
        assert_eq!(CvsOptions::svs_baseline().max_path_edges, 1);
    }

    #[test]
    fn validated_clamps_zero_hop_bound() {
        let o = CvsOptions {
            max_path_edges: 0,
            ..CvsOptions::default()
        };
        assert_eq!(o.validated().max_path_edges, 1);
        // In-domain values pass through untouched.
        assert_eq!(CvsOptions::default().validated(), CvsOptions::default());
        assert_eq!(CvsOptions::svs_baseline().validated().max_path_edges, 1);
    }

    #[test]
    fn validated_clamps_zero_deadline_to_none() {
        let o = CvsOptions {
            deadline: Some(Duration::ZERO),
            ..CvsOptions::default()
        };
        assert_eq!(o.validated().deadline, None);
        // A real deadline passes through untouched.
        let o = CvsOptions {
            deadline: Some(Duration::from_millis(10)),
            ..CvsOptions::default()
        };
        assert_eq!(o.validated().deadline, Some(Duration::from_millis(10)));
    }

    #[test]
    fn failure_policy_defaults_and_preset() {
        assert_eq!(CvsOptions::default().failure, FailurePolicy::FailFast);
        let FailurePolicy::Degrade {
            max_retries,
            backoff,
        } = FailurePolicy::degrade()
        else {
            panic!("preset must degrade");
        };
        assert_eq!(max_retries, 2);
        assert_eq!(backoff, Duration::from_millis(1));
    }

    #[test]
    fn svs_baseline_rejects_deadline() {
        assert_eq!(CvsOptions::svs_baseline().deadline, None);
    }

    #[test]
    fn explicit_parallelism_wins() {
        let o = CvsOptions {
            parallelism: Some(4),
            ..CvsOptions::default()
        };
        assert_eq!(o.effective_parallelism(), 4);
        // Zero is nonsensical; clamp to sequential.
        let o = CvsOptions {
            parallelism: Some(0),
            ..CvsOptions::default()
        };
        assert_eq!(o.effective_parallelism(), 1);
    }
}
