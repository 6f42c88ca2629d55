//! The end-to-end view synchronizer: the EVE loop that keeps a set of
//! registered views in synch with an evolving information space.
//!
//! [`Synchronizer::apply`] executes the full three-step strategy of §4
//! for one capability change:
//!
//! 1. evolve the MKB (`eve_misd::evolve`);
//! 2. detect affected views ([`crate::affected`]);
//! 3. rewrite each affected view — CVS for `delete-relation`, the
//!    simplified algorithm for `delete-attribute`, transparent reference
//!    rewriting for renames; `add-*` changes never touch views.
//!
//! For each affected view the best legal rewriting is adopted (P3-certified
//! first); if none exists the view is *disabled* — exactly what classical
//! view technology would have done to every affected view.
//!
//! `apply` builds one [`MkbIndex`] per change and runs each affected
//! view through [`crate::engine::synchronize_view`], which picks the
//! operator's algorithm. State (the MKB and every view
//! definition) is held in [`std::sync::Arc`] snapshots, so concurrent
//! readers ([`crate::service::SharedSynchronizer`]) get copy-on-write
//! handles instead of deep clones.
//!
//! When [`CvsOptions::parallelism`] (or the `EVE_PARALLELISM`
//! environment variable) asks for more than one worker, the affected
//! views fan out across a [`parpool`] work-stealing pool, all borrowing
//! the same read-only [`MkbIndex`]; results merge back in registration
//! order, so parallel and sequential runs produce byte-identical
//! outcomes.

use crate::affected::{is_affected, is_evaluable};
use crate::cost::CostModel;
use crate::delta::{DeltaSummary, IndexCore, MkbDelta};
use crate::engine;
use crate::error::CvsError;
use crate::faults;
use crate::index::{CacheStats, MkbIndex};
use crate::legal::LegalRewriting;
use crate::options::{CvsOptions, FailurePolicy, IndexMaintenance};
use crate::rewrite::SearchStats;
use eve_esql::{validate_view, ViewDefinition};
use eve_misd::{evolve, CapabilityChange, MetaKnowledgeBase, MisdError};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault};
use std::sync::Arc;

/// Why one view's synchronization task failed (see
/// [`ViewOutcome::Failed`]): the panic's deterministic description plus
/// whether it was retryable. Injected faults (`eve-faults`) render their
/// site address; organic panics render their message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyncFailure {
    /// A non-retryable panic unwound out of the view's task.
    Panicked {
        /// The panic message (or injected-fault description).
        message: String,
    },
    /// A transient failure persisted through every allowed retry.
    Transient {
        /// The failure message of the last attempt.
        message: String,
    },
}

impl SyncFailure {
    /// The failure message, whatever the kind.
    pub fn message(&self) -> &str {
        match self {
            SyncFailure::Panicked { message } | SyncFailure::Transient { message } => message,
        }
    }
}

impl fmt::Display for SyncFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyncFailure::Panicked { message } => write!(f, "panicked: {message}"),
            SyncFailure::Transient { message } => write!(f, "transient: {message}"),
        }
    }
}

/// The panic payload [`Synchronizer::apply`] re-raises under
/// [`FailurePolicy::FailFast`]: the original view-task panic wrapped
/// with the identity of the change and view that died, so
/// [`crate::SharedSynchronizer`] (and any other `catch_unwind` boundary)
/// can report *what* poisoned the lock instead of just *that* it was
/// poisoned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncPanic {
    /// The capability change being applied when the task died.
    pub change: String,
    /// The view whose task panicked.
    pub view: String,
    /// The task's panic message (or injected-fault description).
    pub message: String,
}

impl fmt::Display for SyncPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "view {} panicked while applying {}: {}",
            self.view, self.change, self.message
        )
    }
}

/// What happened to one view under one capability change.
#[derive(Debug, Clone, PartialEq)]
pub enum ViewOutcome {
    /// A previously disabled view became evaluable again (every element
    /// it references exists in the evolved MKB) and was re-activated
    /// with its last known definition.
    Revived,
    /// The view was not affected.
    Unchanged,
    /// The view was rewritten; the adopted definition is stored back into
    /// the synchronizer.
    Rewritten {
        /// The adopted rewriting (boxed: a full rewriting is an order of
        /// magnitude larger than the other variants).
        chosen: Box<LegalRewriting>,
        /// The remaining legal rewritings, best-first.
        alternatives: Vec<LegalRewriting>,
        /// How the rewriting search went (candidates generated and kept,
        /// and whether the search deadline or the cover-combination cap
        /// cut it short). The tree cap, the path cap and the greedy
        /// trees for three or more terminals cut without a report (see
        /// DESIGN.md).
        stats: SearchStats,
    },
    /// No legal rewriting exists; the view is removed from the active
    /// set.
    Disabled {
        /// Why synchronization failed.
        reason: CvsError,
    },
    /// The view's synchronization task panicked and
    /// [`FailurePolicy::Degrade`] contained it: after `attempts` tries
    /// the view is parked (removed from the active set, kept with its
    /// last known definition for revival) while every other view's
    /// outcome stays byte-identical to the fault-free run.
    Failed {
        /// The last attempt's failure.
        error: SyncFailure,
        /// Total synchronization attempts made (1 + retries).
        attempts: u32,
    },
}

impl ViewOutcome {
    /// Did the view survive (unchanged or rewritten)?
    pub fn survived(&self) -> bool {
        !matches!(
            self,
            ViewOutcome::Disabled { .. } | ViewOutcome::Failed { .. }
        )
    }
}

/// The outcome of applying one capability change.
#[derive(Debug, Clone)]
pub struct ChangeOutcome {
    /// The change that was applied.
    pub change: CapabilityChange,
    /// Per-view outcomes, in view registration order.
    pub views: Vec<(String, ViewOutcome)>,
    /// Hit/miss totals of the per-change [`MkbIndex`] memo tables.
    pub cache: CacheStats,
}

impl PartialEq for ChangeOutcome {
    /// `cache` is deliberately excluded: hit/miss totals depend on how
    /// concurrent workers interleave on the shared memo tables, while
    /// the adopted rewritings are required to be schedule-independent.
    fn eq(&self, other: &Self) -> bool {
        self.change == other.change && self.views == other.views
    }
}

impl ChangeOutcome {
    /// Number of views that survived the change.
    pub fn survivors(&self) -> usize {
        self.views.iter().filter(|(_, o)| o.survived()).count()
    }

    /// Number of views rewritten by the change.
    pub fn rewritten(&self) -> usize {
        self.views
            .iter()
            .filter(|(_, o)| matches!(o, ViewOutcome::Rewritten { .. }))
            .count()
    }

    /// Number of views that failed (panic contained by
    /// [`FailurePolicy::Degrade`]) under the change.
    pub fn failed(&self) -> usize {
        self.views
            .iter()
            .filter(|(_, o)| matches!(o, ViewOutcome::Failed { .. }))
            .count()
    }
}

/// A report over a sequence of applied changes.
#[derive(Debug, Clone, Default)]
pub struct SyncReport {
    /// One outcome per applied change, in order.
    pub outcomes: Vec<ChangeOutcome>,
}

impl SyncReport {
    /// Total views disabled across all changes.
    pub fn disabled(&self) -> usize {
        self.outcomes
            .iter()
            .flat_map(|o| &o.views)
            .filter(|(_, o)| !o.survived())
            .count()
    }
}

impl fmt::Display for ChangeOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "change: {}", self.change)?;
        for (name, outcome) in &self.views {
            match outcome {
                ViewOutcome::Unchanged => writeln!(f, "  {name}: unchanged")?,
                ViewOutcome::Rewritten {
                    chosen,
                    alternatives,
                    stats,
                } => writeln!(
                    f,
                    "  {name}: rewritten (V' {} V, {} alternative(s)){}",
                    chosen.verdict,
                    alternatives.len(),
                    if stats.budget_exhausted {
                        " [search truncated by budget]"
                    } else {
                        ""
                    }
                )?,
                ViewOutcome::Disabled { reason } => writeln!(f, "  {name}: DISABLED ({reason})")?,
                ViewOutcome::Failed { error, attempts } => {
                    writeln!(f, "  {name}: FAILED after {attempts} attempt(s) ({error})")?
                }
                ViewOutcome::Revived => writeln!(f, "  {name}: revived")?,
            }
        }
        Ok(())
    }
}

/// Admit `view` for registration, as [`SynchronizerBuilder::with_view`]
/// and [`Synchronizer::register_view`] both do: it must be well formed
/// ([`validate_view`]), its name must be free (`taken` tells whether it
/// is), and it must evaluate over `mkb` ([`is_evaluable`]). A refusal
/// lists every structural violation, or names the taken name, or the
/// first relation in FROM order that `mkb` does not describe, else the
/// first unknown attribute in ascending order.
fn admit(
    view: &ViewDefinition,
    taken: impl FnOnce() -> bool,
    mkb: &MetaKnowledgeBase,
) -> Result<(), String> {
    let errs = validate_view(view);
    if !errs.is_empty() {
        return Err(errs
            .iter()
            .map(|e| e.to_string())
            .collect::<Vec<_>>()
            .join("; "));
    }
    if taken() {
        return Err(format!("view name already registered: {}", view.name));
    }
    if is_evaluable(view, mkb) {
        return Ok(());
    }
    let unknown = match view
        .from
        .iter()
        .find(|f| !mkb.contains_relation(&f.relation))
    {
        Some(f) => format!("relation {}", f.relation),
        None => {
            let attr = view
                .referenced_attrs()
                .into_iter()
                .find(|a| !mkb.has_attr(a))
                .expect("a view is_evaluable refuses names an unknown reference");
            format!("attribute {attr}")
        }
    };
    Err(format!("view {} references unknown {unknown}", view.name))
}

/// Builder for [`Synchronizer`].
#[derive(Debug, Clone, Default)]
pub struct SynchronizerBuilder {
    mkb: MetaKnowledgeBase,
    views: Vec<(String, ViewDefinition)>,
    /// Hashes of the names in `views`, so a duplicate is found without
    /// a scan and without copying each name once more. A hit is
    /// confirmed against the names: a collision costs a scan, never a
    /// false rejection.
    name_hashes: BTreeSet<u64>,
    opts: CvsOptions,
    require_p3: bool,
    cost_model: Option<CostModel>,
}

impl SynchronizerBuilder {
    /// Start from an MKB.
    pub fn new(mkb: MetaKnowledgeBase) -> Self {
        SynchronizerBuilder {
            mkb,
            views: Vec::new(),
            name_hashes: BTreeSet::new(),
            opts: CvsOptions::default(),
            require_p3: false,
            cost_model: None,
        }
    }

    /// Register a view. The builder admits exactly the views
    /// [`Synchronizer::register_view`] admits, with the same messages:
    /// the view must be structurally valid with respect to the §4
    /// assumptions ([`validate_view`]), its name must not be registered
    /// already, and every relation and attribute it references must be
    /// described by the MKB ([`is_evaluable`]), so Def. 1's P2 has a
    /// view to hold for from the first change on.
    pub fn with_view(mut self, view: ViewDefinition) -> Result<Self, String> {
        let hash = BuildHasherDefault::<DefaultHasher>::default().hash_one(&view.name);
        let (names, views) = (&mut self.name_hashes, &self.views);
        admit(
            &view,
            || !names.insert(hash) && views.iter().any(|(n, _)| *n == view.name),
            &self.mkb,
        )?;
        self.views.push((view.name.clone(), view));
        Ok(self)
    }

    /// Override the CVS search options.
    pub fn with_options(mut self, opts: CvsOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Require property P3 to be *certified* for a rewriting to be
    /// adopted (default: adopt the best candidate and report its
    /// verdict — the paper's Step 6 is explicitly left open, so
    /// uncertified candidates are presented rather than discarded).
    pub fn require_p3(mut self, require: bool) -> Self {
        self.require_p3 = require;
        self
    }

    /// Rank candidate rewritings with a preservation [`CostModel`] and
    /// adopt the cheapest one (default: the built-in P3-first, smallest-
    /// first ordering).
    pub fn with_cost_model(mut self, model: CostModel) -> Self {
        self.cost_model = Some(model);
        self
    }

    /// Finish building. Out-of-domain option values are clamped via
    /// [`CvsOptions::validated`].
    pub fn build(self) -> Synchronizer {
        let mkb = Arc::new(self.mkb);
        let opts = self.opts.validated();
        let views: Vec<(String, Arc<ViewDefinition>)> = self
            .views
            .into_iter()
            .map(|(n, v)| (n, Arc::new(v)))
            .collect();
        let core = IndexCore::build(&mkb);
        let initial = Snapshot {
            change: None,
            mkb: Arc::clone(&mkb),
            views: views.clone(),
            disabled: Vec::new(),
        };
        Synchronizer {
            mkb,
            views,
            disabled: Vec::new(),
            opts,
            require_p3: self.require_p3,
            cost_model: self.cost_model,
            chain: vec![Arc::new(VersionEntry {
                version: 0,
                delta: None,
                snapshot: initial,
                core: core.clone(),
            })],
            core,
        }
    }
}

/// A point-in-time snapshot of the synchronizer's evolving state.
///
/// Snapshots share the MKB and view definitions with the live state via
/// [`Arc`] — taking one copies one pointer per view (plus the view
/// name), never an MKB or a view definition.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The change that produced this state (None for the initial state).
    pub change: Option<CapabilityChange>,
    /// MKB state.
    pub mkb: Arc<MetaKnowledgeBase>,
    /// Active views.
    pub views: Vec<(String, Arc<ViewDefinition>)>,
    /// Disabled views (name, last known definition).
    pub disabled: Vec<(String, Arc<ViewDefinition>)>,
}

/// One link of the [`Synchronizer`]'s append-only version chain: the
/// state after the `version`-th applied change, plus what the change did
/// to the derived index state.
///
/// Entries structurally share everything their change did not rewrite:
/// the copy-on-write MKB shares every untouched relation description
/// and constraint with the previous version, and the [`IndexCore`]
/// every untouched graph and constraint map. What a version retains
/// of its own is what its change rewrote: a chunk of the MKB's relation
/// map, of its relation index and of each constraint list the change
/// edited, plus their chunk spines, one pointer per view (the
/// snapshot), and for a relation-level change the one shard it patched
/// and the router chunks it edited. Measured on the standard change mix
/// (`synchronizer.chain_kb_per_version`): ≈31 KiB per version at 4,096
/// relations and 512 views, ≈57 KiB at 16,384 relations and 1,024
/// views. Version 0 is the initial state.
#[derive(Debug, Clone)]
pub struct VersionEntry {
    /// Position in the chain (0 = initial state).
    pub version: usize,
    /// What the change's [`MkbDelta`] did to the derived state (`None`
    /// for the initial entry, and for changes applied under
    /// [`IndexMaintenance::Rebuild`], which bypass delta computation).
    pub delta: Option<DeltaSummary>,
    /// The full state snapshot at this version (MKB, active and
    /// disabled views, the producing change).
    pub snapshot: Snapshot,
    /// The delta-maintained derived index state of `snapshot.mkb`.
    pub(crate) core: IndexCore,
}

impl VersionEntry {
    /// The change that produced this version (`None` for version 0).
    pub fn change(&self) -> Option<&CapabilityChange> {
        self.snapshot.change.as_ref()
    }
}

/// The EVE view synchronizer: an MKB plus the registered (active) views.
///
/// State is held in copy-on-write [`Arc`] snapshots: `apply` builds the
/// next state and swaps the handles, so readers holding earlier
/// snapshots (via [`Synchronizer::mkb_snapshot`] /
/// [`Synchronizer::view_snapshots`], or through
/// [`crate::service::SharedSynchronizer`]) keep a consistent view
/// without copying.
#[derive(Debug, Clone)]
pub struct Synchronizer {
    mkb: Arc<MetaKnowledgeBase>,
    views: Vec<(String, Arc<ViewDefinition>)>,
    /// Views disabled by earlier changes, kept with their last known
    /// definition for possible revival (see [`Synchronizer::apply`]).
    disabled: Vec<(String, Arc<ViewDefinition>)>,
    opts: CvsOptions,
    require_p3: bool,
    cost_model: Option<CostModel>,
    /// The append-only version chain: entry 0 is the initial state,
    /// entry `i > 0` the state after the `i`-th applied change, each
    /// with its delta and `Arc`-shared derived core (enables time
    /// travel / rollback / replay across the change log).
    chain: Vec<Arc<VersionEntry>>,
    /// The delta-maintained derived index state of the *current* MKB
    /// (invariant: `core` is always derived from `mkb`).
    core: IndexCore,
}

impl Synchronizer {
    /// The current MKB state.
    pub fn mkb(&self) -> &MetaKnowledgeBase {
        &self.mkb
    }

    /// The options the synchronizer was built with.
    pub fn options(&self) -> &CvsOptions {
        &self.opts
    }

    /// Swap the failure policy in place. The deterministic simulator
    /// uses this to alternate `FailFast` and `Degrade` fault episodes
    /// on one synchronizer without rebuilding it (which would discard
    /// the version chain under test).
    pub fn set_failure_policy(&mut self, policy: FailurePolicy) {
        self.opts.failure = policy;
    }

    /// Register a new view at runtime, against the *current* MKB state.
    ///
    /// Runtime registration admits what [`SynchronizerBuilder::with_view`]
    /// admits, with the same messages: a view that is structurally
    /// valid ([`validate_view`]), whose name no active or disabled view
    /// holds, and whose every relation and attribute the current MKB
    /// describes ([`is_evaluable`]).
    ///
    /// Registration is not a capability change: the version number does
    /// not advance and no chain entry is appended. The head entry's
    /// snapshot is updated in place, so [`Synchronizer::at_version`] at
    /// the current version (and [`Synchronizer::rollback_to`] the
    /// current version) observe the new view; rolling back *past* the
    /// registration point drops it, exactly as the view did not exist
    /// at that version.
    pub fn register_view(&mut self, view: ViewDefinition) -> Result<(), String> {
        admit(
            &view,
            || {
                self.views.iter().any(|(n, _)| *n == view.name)
                    || self.disabled.iter().any(|(n, _)| *n == view.name)
            },
            &self.mkb,
        )?;
        let entry = (view.name.clone(), Arc::new(view));
        // The head entry's snapshot holds the active views; appending
        // keeps it equal to them without copying the list.
        if let Some(last) = self.chain.last_mut() {
            Arc::make_mut(last).snapshot.views.push(entry.clone());
        }
        self.views.push(entry);
        Ok(())
    }

    /// A shared handle to the current MKB state (cheap Arc clone; stays
    /// consistent even as the synchronizer applies further changes).
    pub fn mkb_snapshot(&self) -> Arc<MetaKnowledgeBase> {
        Arc::clone(&self.mkb)
    }

    /// The active views, in registration order.
    pub fn views(&self) -> impl Iterator<Item = &ViewDefinition> {
        self.views.iter().map(|(_, v)| v.as_ref())
    }

    /// Shared handles to all active views (cheap Arc clones, in
    /// registration order).
    pub fn view_snapshots(&self) -> Vec<(String, Arc<ViewDefinition>)> {
        self.views.clone()
    }

    /// The shared handles of the active views, in registration order.
    pub(crate) fn view_handles(&self) -> impl Iterator<Item = &Arc<ViewDefinition>> {
        self.views.iter().map(|(_, v)| v)
    }

    /// Look up an active view by name.
    pub fn view(&self, name: &str) -> Option<&ViewDefinition> {
        self.views
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_ref())
    }

    /// A shared handle to one active view.
    pub fn view_snapshot(&self, name: &str) -> Option<Arc<ViewDefinition>> {
        self.views
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| Arc::clone(v))
    }

    /// The currently disabled views (name, last known definition).
    pub fn disabled_views(&self) -> impl Iterator<Item = (&str, &ViewDefinition)> {
        self.disabled.iter().map(|(n, v)| (n.as_str(), v.as_ref()))
    }

    /// Apply one capability change: evolve the MKB, synchronize every
    /// affected view, and return the outcome. Views with no legal
    /// rewriting are disabled (removed from the active set).
    ///
    /// One [`MkbIndex`] is built per change and shared by every affected
    /// view's synchronization — the MKB-derived search structures (and
    /// the enumeration cache inside the index) are computed once, not
    /// once per view.
    ///
    /// With [`CvsOptions::effective_parallelism`] `> 1` the affected
    /// views are synchronized concurrently on a [`parpool`] pool, all
    /// borrowing the shared read-only index. Results are merged back in
    /// registration order, so the outcome is byte-identical to a
    /// sequential run.
    pub fn apply(&mut self, change: &CapabilityChange) -> Result<ChangeOutcome, MisdError> {
        let mut apply_span = eve_telemetry::span("apply");
        apply_span.label(|| change.to_string());
        let mkb_prime = evolve(&self.mkb, change)?;
        // Delta-maintain the derived core: project the change onto the
        // hypergraphs and constraint maps, then patch — `O(delta)`, not
        // `O(MKB)`. Rebuild mode bypasses this and reconstructs the core
        // from scratch at commit time (the equivalence oracle).
        let (delta, next_core) = match self.opts.index_maintenance {
            IndexMaintenance::Rebuild => (None, None),
            IndexMaintenance::Incremental => {
                let d = MkbDelta::compute(&self.mkb, &mkb_prime, change);
                let next = self.core.apply_delta(&d);
                (Some(d), Some(next))
            }
        };
        let mut outcomes = Vec::with_capacity(self.views.len());
        let mut next_views = Vec::with_capacity(self.views.len());
        let mut newly_disabled = Vec::new();
        let cache;

        {
            let index = match next_core.as_ref() {
                Some(next) => MkbIndex::from_cores(&self.mkb, &mkb_prime, &self.core, next),
                None => MkbIndex::new(&self.mkb, &mkb_prime),
            };

            // Fan the affected views out across the pool; unaffected
            // views never enter the queue. `map_in_order` hands results
            // back in submission (= registration) order. The views are
            // scanned once; the merge below reuses the mask.
            let is_hit: Vec<bool> = self
                .views
                .iter()
                .map(|(_, v)| is_affected(v, change))
                .collect();
            let affected: Vec<Arc<ViewDefinition>> = self
                .views
                .iter()
                .zip(&is_hit)
                .filter(|(_, &hit)| hit)
                .map(|((_, v), _)| Arc::clone(v))
                .collect();
            apply_span.field("affected", affected.len() as u64);
            // Stamped only when a fault plan is installed, so chaos
            // traces are distinguishable while fault-free traces keep
            // their pinned golden shape.
            if eve_faults::active() {
                apply_span.field("fault-injection", 1);
            }
            let apply_ctx = apply_span.ctx();
            let index_ref = &index;
            let opts_ref = &self.opts;
            let require_p3 = self.require_p3;
            let cost_model = self.cost_model.as_ref();
            // One task body, shared by the pool fan-out and the retry
            // path, so a retried attempt is byte-for-byte the same
            // computation: same span shape, same fault scope (view
            // name — which also keeps injected-fault hit counts
            // deterministic across worker counts).
            let run_view = |task: usize, view: &ViewDefinition| {
                eve_faults::scoped(&view.name, || {
                    // Pool workers have no span stack of their own:
                    // parent explicitly under the apply span so the
                    // fan-out shows up as one tree.
                    let mut view_span = eve_telemetry::span_under("view-sync", apply_ctx);
                    view_span.label(|| view.name.clone());
                    view_span.field("task", task as u64);
                    engine::synchronize_view(
                        view, change, index_ref, opts_ref, require_p3, cost_model,
                    )
                })
            };
            let mut results =
                parpool::map_in_order(self.opts.effective_parallelism(), affected, |task, view| {
                    run_view(task, &view)
                })
                .into_iter();

            let policy = self.opts.failure;
            let mut task_index = 0usize;
            for ((name, view), &hit) in self.views.iter().zip(&is_hit) {
                if !hit {
                    outcomes.push((name.clone(), ViewOutcome::Unchanged));
                    next_views.push((name.clone(), Arc::clone(view)));
                    continue;
                }
                let task = task_index;
                task_index += 1;
                let outcome = match results.next().expect("one pool result per affected view") {
                    Ok(outcome) => outcome,
                    Err(panic) => Self::resolve_failure(policy, change, name, panic, || {
                        eve_telemetry::counter_add("sync.view_retries", 1);
                        parpool::call_caught(task, || run_view(task, view))
                    }),
                };
                if let ViewOutcome::Rewritten { chosen, .. } = &outcome {
                    next_views.push((name.clone(), Arc::new(chosen.view.clone())));
                } else if outcome.survived() {
                    next_views.push((name.clone(), Arc::clone(view)));
                } else {
                    // Keep the last known definition around for revival
                    // (disabled *and* failed views may come back when
                    // the fault clears or the source returns).
                    newly_disabled.push((name.clone(), Arc::clone(view)));
                }
                outcomes.push((name.clone(), outcome));
            }

            // Revival: a disabled view whose references all exist again in
            // the evolved MKB (e.g. the deleted relation was re-added)
            // returns to the active set with its last known definition.
            let mut still_disabled = Vec::new();
            for (name, view) in self.disabled.drain(..) {
                if is_evaluable(&view, index.mkb_prime()) {
                    outcomes.push((name.clone(), ViewOutcome::Revived));
                    next_views.push((name, view));
                } else {
                    still_disabled.push((name, view));
                }
            }
            still_disabled.extend(newly_disabled);
            self.disabled = still_disabled;

            // Fold the per-index memo counters into the registry before
            // the index (and its atomics) goes away.
            cache = index.cache_stats();
            if eve_telemetry::enabled() {
                eve_telemetry::counter_add("index.cache.hits", cache.hits);
                eve_telemetry::counter_add("index.cache.misses", cache.misses);
            }
        }

        self.views = next_views;
        self.mkb = Arc::new(mkb_prime);
        self.core = match next_core {
            Some(next) => next,
            // Rebuild mode: reconstruct the derived core from scratch so
            // the chain invariant (`core` derived from `mkb`) holds.
            None => IndexCore::build(&self.mkb),
        };
        self.chain.push(Arc::new(VersionEntry {
            version: self.chain.len(),
            delta: delta.map(|d| d.summary),
            snapshot: Snapshot {
                change: Some(change.clone()),
                mkb: Arc::clone(&self.mkb),
                views: self.views.clone(),
                disabled: self.disabled.clone(),
            },
            core: self.core.clone(),
        }));
        let outcome = ChangeOutcome {
            change: change.clone(),
            views: outcomes,
            cache,
        };
        if eve_telemetry::enabled() {
            eve_telemetry::counter_add("sync.changes", 1);
            eve_telemetry::counter_add("sync.views.rewritten", outcome.rewritten() as u64);
            let disabled = outcome.views.iter().filter(|(_, o)| !o.survived()).count();
            eve_telemetry::counter_add("sync.views.disabled", disabled as u64);
            let revived = outcome
                .views
                .iter()
                .filter(|(_, o)| matches!(o, ViewOutcome::Revived))
                .count();
            eve_telemetry::counter_add("sync.views.revived", revived as u64);
            // Point-in-time levels for the scrape endpoint: how many
            // views are live vs parked after this change.
            eve_telemetry::gauge_set("sync.views_active", self.views.len() as u64);
            eve_telemetry::gauge_set("sync.views_disabled", self.disabled.len() as u64);
        }
        Ok(outcome)
    }

    /// Decide what a panicking view task becomes under the configured
    /// [`FailurePolicy`].
    ///
    /// * `FailFast` re-raises immediately, wrapping the payload in a
    ///   [`SyncPanic`] that names the change and view (the original
    ///   message is preserved inside).
    /// * `Degrade` retries *transient* failures (injected
    ///   `eve_faults` transient payloads) with a
    ///   deterministic linear backoff — retries run serially on the
    ///   applying thread, in registration order, inside the same fault
    ///   scope, so replay is schedule-independent — then lands the view
    ///   as [`ViewOutcome::Failed`]. Non-transient panics never retry.
    fn resolve_failure(
        policy: FailurePolicy,
        change: &CapabilityChange,
        name: &str,
        first: parpool::TaskPanic,
        mut retry: impl FnMut() -> Result<ViewOutcome, parpool::TaskPanic>,
    ) -> ViewOutcome {
        let mut attempts: u32 = 1;
        let mut panic = first;
        loop {
            let (message, transient) = match faults::injected_info(panic.payload.as_ref()) {
                Some((message, transient)) => (message, transient),
                None => (panic.message.clone(), false),
            };
            match policy {
                FailurePolicy::FailFast => {
                    // Last chance for evidence: dump the flight-recorder
                    // window before the panic unwinds out of the engine.
                    eve_telemetry::flight_trigger("sync-panic", &change.to_string(), name);
                    std::panic::resume_unwind(Box::new(SyncPanic {
                        change: change.to_string(),
                        view: name.to_string(),
                        message,
                    }));
                }
                FailurePolicy::Degrade {
                    max_retries,
                    backoff,
                } => {
                    if transient && attempts <= max_retries {
                        if !backoff.is_zero() {
                            // Virtual-clock aware: under the simulator
                            // this advances virtual time instantly.
                            crate::clock::sleep(backoff.saturating_mul(attempts));
                        }
                        attempts += 1;
                        match retry() {
                            Ok(outcome) => return outcome,
                            Err(next) => {
                                panic = next;
                                continue;
                            }
                        }
                    }
                    eve_telemetry::counter_add("service.view_failures", 1);
                    eve_telemetry::flight_trigger("view-failed", &change.to_string(), name);
                    return ViewOutcome::Failed {
                        error: if transient {
                            SyncFailure::Transient { message }
                        } else {
                            SyncFailure::Panicked { message }
                        },
                        attempts,
                    };
                }
            }
        }
    }

    /// The evolution history: snapshot 0 is the initial state; snapshot
    /// `i > 0` is the state after the `i`-th applied change. Derived
    /// from the version chain ([`Synchronizer::chain`]); the snapshots
    /// `Arc`-share all state, so this is cheap.
    pub fn history(&self) -> Vec<Snapshot> {
        self.chain.iter().map(|e| e.snapshot.clone()).collect()
    }

    /// The current version number: 0 after construction, incremented by
    /// every applied change (equals `chain().len() - 1`).
    pub fn version(&self) -> usize {
        self.chain.len() - 1
    }

    /// The full version chain: entry 0 is the initial state, entry
    /// `i > 0` the state after the `i`-th change together with its
    /// delta summary.
    pub fn chain(&self) -> &[Arc<VersionEntry>] {
        &self.chain
    }

    /// Roll the synchronizer back to version `index` (0 = the initial
    /// state), discarding the later chain entries. Returns `false` (and
    /// does nothing) when the version is out of range.
    pub fn rollback_to(&mut self, index: usize) -> bool {
        let Some(entry) = self.chain.get(index).cloned() else {
            return false;
        };
        self.mkb = Arc::clone(&entry.snapshot.mkb);
        self.views = entry.snapshot.views.clone();
        self.disabled = entry.snapshot.disabled.clone();
        self.core = entry.core.clone();
        self.chain.truncate(index + 1);
        true
    }

    /// Time travel: a forked synchronizer positioned at historical
    /// version `version`, exactly as the state was then (same MKB, same
    /// views, same `Arc`-shared derived core — nothing is recomputed).
    /// The fork's chain is truncated to that version; applying changes
    /// to it never affects `self`. Returns `None` when the version is
    /// out of range.
    pub fn at_version(&self, version: usize) -> Option<Synchronizer> {
        let mut fork = self.clone();
        let ok = fork.rollback_to(version);
        ok.then_some(fork)
    }

    /// Re-apply the recorded changes of versions `start+1 ..= end` on a
    /// fork rooted at version `start`, returning the accumulated report.
    /// The recorded changes evolved successfully the first time, so
    /// replaying them from the same states cannot fail. Returns `None`
    /// when the range is invalid (`start > end` or `end` out of range).
    pub fn replay(&self, start: usize, end: usize) -> Option<SyncReport> {
        if start > end || end >= self.chain.len() {
            return None;
        }
        let mut fork = self.at_version(start)?;
        let mut report = SyncReport::default();
        for entry in &self.chain[start + 1..=end] {
            let change = entry
                .snapshot
                .change
                .clone()
                .expect("non-initial chain entries record their change");
            report.outcomes.push(
                fork.apply(&change)
                    .expect("recorded change replays from its recorded state"),
            );
        }
        Some(report)
    }

    /// What-if against history: dry-run `change` as if it were applied
    /// at version `version` instead of now — "what would this change
    /// have done two versions ago?". Returns `None` when the version is
    /// out of range; the synchronizer itself is never mutated.
    pub fn preview_at(
        &self,
        version: usize,
        change: &CapabilityChange,
    ) -> Option<Result<ChangeOutcome, MisdError>> {
        let mut fork = self.at_version(version)?;
        Some(fork.apply(change))
    }

    /// Dry-run a change: compute the outcome (including all rewritings
    /// and disabled views) without mutating the synchronizer — "what
    /// would happen if IS1 dropped Customer?".
    pub fn preview(&self, change: &CapabilityChange) -> Result<ChangeOutcome, MisdError> {
        self.clone().apply(change)
    }

    /// Synchronize against a freshly published MKB snapshot: infer the
    /// capability-change log with [`eve_misd::infer_changes`], apply it,
    /// then merge the snapshot's constraints the evolution could not
    /// carry over (new join/function-of/PC constraints announced by the
    /// ISs). After this call `self.mkb()` equals the snapshot.
    pub fn sync_to(&mut self, snapshot: &MetaKnowledgeBase) -> Result<SyncReport, MisdError> {
        let diff = eve_misd::infer_changes(&self.mkb, snapshot);
        let report = self.apply_all(&diff.changes)?;
        // Adopt the snapshot wholesale: schemas already converged, and
        // the snapshot's constraint set is authoritative. The wholesale
        // merge can add constraints no change delta described, so the
        // derived core is rebuilt from scratch.
        self.mkb = Arc::new(snapshot.clone());
        self.core = IndexCore::build(&self.mkb);
        if let Some(last) = self.chain.last_mut() {
            let entry = Arc::make_mut(last);
            entry.snapshot.mkb = Arc::clone(&self.mkb);
            entry.core = self.core.clone();
        }
        Ok(report)
    }

    /// Apply a sequence of changes, accumulating a report.
    pub fn apply_all(&mut self, changes: &[CapabilityChange]) -> Result<SyncReport, MisdError> {
        let mut report = SyncReport::default();
        for ch in changes {
            report.outcomes.push(self.apply(ch)?);
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::travel_mkb;
    use eve_esql::parse_view;
    use eve_relational::{AttrName, AttrRef, RelName};

    fn sync() -> Synchronizer {
        sync_named("Customer-Passengers-Asia")
    }

    /// [`sync`] with the Asia view under another name, so a fault plan
    /// scoped to that name never fires in tests running concurrently.
    fn sync_named(asia: &str) -> Synchronizer {
        SynchronizerBuilder::new(travel_mkb())
            .with_view(
                parse_view(&format!(
                    "CREATE VIEW {asia} AS
                     SELECT C.Name (false, true), C.Age (true, true),
                            P.Participant (true, true), P.TourID (true, true),
                            P.StartDate (true, true), F.Date (true, true), F.PName (true, true)
                     FROM Customer C (true, true), FlightRes F (true, true), Participant P (true, true)
                     WHERE (C.Name = F.PName) (false, true) AND (F.Dest = 'Asia') (CD = true)
                       AND (P.StartDate = F.Date) (CD = true) AND (P.Loc = 'Asia') (CD = true)"
                ))
                .unwrap(),
            )
            .unwrap()
            .with_view(
                parse_view("CREATE VIEW Tours AS SELECT T.TourName, T.NoDays FROM Tour T")
                    .unwrap(),
            )
            .unwrap()
            .build()
    }

    /// The builder and runtime registration refuse a view the MKB does
    /// not evaluate with the same message: the first unknown relation in
    /// FROM order, else the first unknown attribute in ascending order.
    #[test]
    fn builder_and_runtime_registration_refuse_alike() {
        for (text, message) in [
            (
                "CREATE VIEW Ghost AS SELECT C.Name, G.a, A.b
                 FROM Customer C, Ghost G, Alien A",
                "view Ghost references unknown relation Ghost",
            ),
            (
                "CREATE VIEW Ghost AS SELECT C.Name, C.Shoe, C.Hat FROM Customer C",
                "view Ghost references unknown attribute Customer.Hat",
            ),
        ] {
            let view = parse_view(text).unwrap();
            let built = SynchronizerBuilder::new(travel_mkb())
                .with_view(view.clone())
                .map(|_| ());
            assert_eq!(built, Err(message.to_string()));
            assert_eq!(sync().register_view(view), built);
        }
    }

    #[test]
    fn delete_relation_rewrites_affected_only() {
        let mut s = sync();
        let outcome = s
            .apply(&CapabilityChange::DeleteRelation(RelName::new("Customer")))
            .unwrap();
        assert_eq!(outcome.views.len(), 2);
        assert!(matches!(outcome.views[0].1, ViewOutcome::Rewritten { .. }));
        assert!(matches!(outcome.views[1].1, ViewOutcome::Unchanged));
        assert_eq!(outcome.survivors(), 2);
        assert_eq!(outcome.rewritten(), 1);
        // The stored view was updated.
        let v = s.view("Customer-Passengers-Asia").unwrap();
        assert!(!v.uses_relation(&RelName::new("Customer")));
        // The MKB evolved.
        assert!(!s.mkb().contains_relation(&RelName::new("Customer")));
    }

    #[test]
    fn rename_relation_transparent() {
        let mut s = sync();
        let outcome = s
            .apply(&CapabilityChange::RenameRelation {
                from: RelName::new("Tour"),
                to: RelName::new("Excursion"),
            })
            .unwrap();
        assert!(matches!(outcome.views[1].1, ViewOutcome::Rewritten { .. }));
        let v = s.view("Tours").unwrap();
        assert!(v.uses_relation(&RelName::new("Excursion")));
        assert!(v.to_string().contains("Excursion.TourName"));
    }

    #[test]
    fn rename_attribute_preserves_interface() {
        let mut s = sync();
        s.apply(&CapabilityChange::RenameAttribute {
            from: AttrRef::new("Tour", "TourName"),
            to: AttrName::new("Title"),
        })
        .unwrap();
        let v = s.view("Tours").unwrap();
        assert!(v.to_string().contains("Tour.Title"));
        // Exported interface name is unchanged.
        assert_eq!(v.interface_names()[0], AttrName::new("TourName"));
    }

    #[test]
    fn incurable_view_disabled() {
        let mut s = SynchronizerBuilder::new(travel_mkb())
            .with_view(
                parse_view(
                    "CREATE VIEW Frozen AS
                     SELECT C.Phone (AD = false, AR = false) FROM Customer C",
                )
                .unwrap(),
            )
            .unwrap()
            .build();
        let outcome = s
            .apply(&CapabilityChange::DeleteRelation(RelName::new("Customer")))
            .unwrap();
        assert!(matches!(outcome.views[0].1, ViewOutcome::Disabled { .. }));
        assert!(s.view("Frozen").is_none());
        assert_eq!(outcome.survivors(), 0);
    }

    #[test]
    fn invalid_view_rejected_at_registration() {
        let err = SynchronizerBuilder::new(travel_mkb()).with_view(
            parse_view("CREATE VIEW Bad AS SELECT C.Name FROM Customer C, Customer D").unwrap(),
        );
        // duplicate FROM relation — actually parses to two `Customer`
        // entries after alias resolution
        assert!(err.is_err());
    }

    #[test]
    fn duplicate_view_name_rejected_by_builder() {
        let view = |body: &str| parse_view(&format!("CREATE VIEW V AS {body}")).unwrap();
        let builder = SynchronizerBuilder::new(travel_mkb())
            .with_view(view("SELECT T.TourName FROM Tour T"))
            .unwrap();
        let err = builder
            .with_view(view("SELECT C.Name FROM Customer C"))
            .unwrap_err();
        assert_eq!(err, "view name already registered: V");
    }

    #[test]
    fn disabled_view_revived_when_source_returns() {
        use eve_misd::RelationDescription;
        use eve_relational::{AttributeDef, DataType};
        let mut s = SynchronizerBuilder::new(travel_mkb())
            .with_view(
                parse_view(
                    "CREATE VIEW Frozen AS
                     SELECT C.Phone (AD = false, AR = false) FROM Customer C",
                )
                .unwrap(),
            )
            .unwrap()
            .build();
        let o1 = s
            .apply(&CapabilityChange::DeleteRelation(RelName::new("Customer")))
            .unwrap();
        assert!(matches!(o1.views[0].1, ViewOutcome::Disabled { .. }));
        assert_eq!(s.disabled_views().count(), 1);

        // The IS re-exports Customer (with the Phone attribute): revive.
        let o2 = s
            .apply(&CapabilityChange::AddRelation(RelationDescription::new(
                "IS1",
                "Customer",
                vec![
                    AttributeDef::new("Name", DataType::Str),
                    AttributeDef::new("Phone", DataType::Str),
                ],
            )))
            .unwrap();
        assert!(o2
            .views
            .iter()
            .any(|(n, o)| n == "Frozen" && matches!(o, ViewOutcome::Revived)));
        assert!(s.view("Frozen").is_some());
        assert_eq!(s.disabled_views().count(), 0);

        // Re-exporting without Phone would NOT have revived it — verify
        // via a fresh run.
        let mut s2 = SynchronizerBuilder::new(travel_mkb())
            .with_view(
                parse_view(
                    "CREATE VIEW Frozen AS
                     SELECT C.Phone (AD = false, AR = false) FROM Customer C",
                )
                .unwrap(),
            )
            .unwrap()
            .build();
        s2.apply(&CapabilityChange::DeleteRelation(RelName::new("Customer")))
            .unwrap();
        s2.apply(&CapabilityChange::AddRelation(RelationDescription::new(
            "IS1",
            "Customer",
            vec![AttributeDef::new("Name", DataType::Str)],
        )))
        .unwrap();
        assert!(s2.view("Frozen").is_none());
        assert_eq!(s2.disabled_views().count(), 1);
    }

    #[test]
    fn sync_to_snapshot_converges_and_rewrites() {
        use eve_misd::parse_misd;
        // The snapshot drops Customer but carries the same constraint
        // knowledge otherwise.
        let mut snapshot_text = String::new();
        for line in eve_misd::render_misd(&travel_mkb()).lines() {
            if line.contains("Customer") {
                continue;
            }
            snapshot_text.push_str(line);
            snapshot_text.push('\n');
        }
        let snapshot = parse_misd(&snapshot_text).unwrap();

        let mut s = sync();
        let report = s.sync_to(&snapshot).unwrap();
        assert_eq!(report.outcomes.len(), 1); // one inferred deletion
        assert_eq!(s.mkb(), &snapshot);
        // The affected view was rewritten, not disabled.
        let v = s.view("Customer-Passengers-Asia").unwrap();
        assert!(!v.uses_relation(&RelName::new("Customer")));
    }

    #[test]
    fn history_and_rollback() {
        let mut s = sync();
        assert_eq!(s.history().len(), 1); // initial
        s.apply(&CapabilityChange::DeleteAttribute(AttrRef::new(
            "Tour", "NoDays",
        )))
        .unwrap();
        s.apply(&CapabilityChange::DeleteRelation(RelName::new("Customer")))
            .unwrap();
        assert_eq!(s.history().len(), 3);
        assert!(s.history()[2].change.is_some());
        assert!(!s.mkb().contains_relation(&RelName::new("Customer")));

        // Roll back to before the Customer deletion.
        assert!(s.rollback_to(1));
        assert!(s.mkb().contains_relation(&RelName::new("Customer")));
        assert_eq!(s.history().len(), 2);
        let v = s.view("Customer-Passengers-Asia").unwrap();
        assert!(v.uses_relation(&RelName::new("Customer")));

        // Roll back to the very beginning.
        assert!(s.rollback_to(0));
        assert!(s
            .mkb()
            .relation(&RelName::new("Tour"))
            .unwrap()
            .has_attr(&"NoDays".into()));
        // Out-of-range rollback is a no-op.
        assert!(!s.rollback_to(5));
    }

    #[test]
    fn version_chain_records_changes_and_deltas() {
        let mut s = sync();
        assert_eq!(s.version(), 0);
        assert_eq!(s.chain().len(), 1);
        assert!(s.chain()[0].change().is_none());
        assert!(s.chain()[0].delta.is_none());

        s.apply(&CapabilityChange::DeleteAttribute(AttrRef::new(
            "Tour", "NoDays",
        )))
        .unwrap();
        s.apply(&CapabilityChange::DeleteRelation(RelName::new("Customer")))
            .unwrap();
        assert_eq!(s.version(), 2);
        let chain = s.chain();
        assert_eq!(chain.len(), 3);
        for (i, entry) in chain.iter().enumerate() {
            assert_eq!(entry.version, i);
        }
        // Non-initial entries carry the producing change plus, under the
        // default incremental maintenance, a delta summary.
        assert!(matches!(
            chain[1].change(),
            Some(CapabilityChange::DeleteAttribute(_))
        ));
        assert_eq!(chain[1].delta.as_ref().unwrap().op, "delete-attribute");
        assert_eq!(chain[2].delta.as_ref().unwrap().op, "delete-relation");
        assert!(chain[2].delta.as_ref().unwrap().joins_dropped > 0);
    }

    #[test]
    fn rebuild_mode_records_no_deltas() {
        let mut s = SynchronizerBuilder::new(travel_mkb())
            .with_options(CvsOptions {
                index_maintenance: crate::options::IndexMaintenance::Rebuild,
                ..CvsOptions::default()
            })
            .with_view(
                parse_view("CREATE VIEW Tours AS SELECT T.TourName, T.NoDays FROM Tour T").unwrap(),
            )
            .unwrap()
            .build();
        s.apply(&CapabilityChange::DeleteAttribute(AttrRef::new(
            "Tour", "NoDays",
        )))
        .unwrap();
        assert_eq!(s.version(), 1);
        assert!(s.chain()[1].delta.is_none());
    }

    #[test]
    fn at_version_reconstructs_history_without_mutating() {
        let mut s = sync();
        s.apply(&CapabilityChange::DeleteAttribute(AttrRef::new(
            "Tour", "NoDays",
        )))
        .unwrap();
        s.apply(&CapabilityChange::DeleteRelation(RelName::new("Customer")))
            .unwrap();

        let v1 = s.at_version(1).unwrap();
        assert_eq!(v1.version(), 1);
        assert!(v1.mkb().contains_relation(&RelName::new("Customer")));
        assert!(!v1
            .mkb()
            .relation(&RelName::new("Tour"))
            .unwrap()
            .has_attr(&"NoDays".into()));
        // The fork's views match the recorded snapshot exactly.
        let recorded: Vec<String> = s.chain()[1]
            .snapshot
            .views
            .iter()
            .map(|(_, v)| v.to_string())
            .collect();
        let forked: Vec<String> = v1.views().map(|v| v.to_string()).collect();
        assert_eq!(recorded, forked);

        let v0 = s.at_version(0).unwrap();
        assert_eq!(v0.version(), 0);
        assert!(v0
            .mkb()
            .relation(&RelName::new("Tour"))
            .unwrap()
            .has_attr(&"NoDays".into()));

        // The original is untouched and out-of-range forks are refused.
        assert_eq!(s.version(), 2);
        assert!(s.at_version(3).is_none());
        assert!(!s.mkb().contains_relation(&RelName::new("Customer")));
    }

    #[test]
    fn at_version_fork_can_diverge() {
        let mut s = sync();
        s.apply(&CapabilityChange::DeleteAttribute(AttrRef::new(
            "Tour", "NoDays",
        )))
        .unwrap();
        s.apply(&CapabilityChange::DeleteRelation(RelName::new("Customer")))
            .unwrap();

        // Fork at v1 and take a different second step.
        let mut fork = s.at_version(1).unwrap();
        fork.apply(&CapabilityChange::RenameRelation {
            from: RelName::new("Tour"),
            to: RelName::new("Excursion"),
        })
        .unwrap();
        assert_eq!(fork.version(), 2);
        assert!(fork.mkb().contains_relation(&RelName::new("Excursion")));
        assert!(fork.mkb().contains_relation(&RelName::new("Customer")));
        // The trunk still has its own v2.
        assert!(!s.mkb().contains_relation(&RelName::new("Customer")));
        assert!(s.mkb().contains_relation(&RelName::new("Tour")));
    }

    #[test]
    fn replay_reproduces_recorded_outcomes() {
        let mut s = sync();
        s.apply(&CapabilityChange::DeleteAttribute(AttrRef::new(
            "Tour", "NoDays",
        )))
        .unwrap();
        s.apply(&CapabilityChange::DeleteRelation(RelName::new("Customer")))
            .unwrap();

        let report = s.replay(0, 2).unwrap();
        assert_eq!(report.outcomes.len(), 2);
        assert!(matches!(
            report.outcomes[0].change,
            CapabilityChange::DeleteAttribute(_)
        ));
        assert!(matches!(
            report.outcomes[1].change,
            CapabilityChange::DeleteRelation(_)
        ));
        // Replaying the suffix only.
        let tail = s.replay(1, 2).unwrap();
        assert_eq!(tail.outcomes.len(), 1);
        // Degenerate and out-of-range windows.
        assert_eq!(s.replay(2, 2).unwrap().outcomes.len(), 0);
        assert!(s.replay(2, 1).is_none());
        assert!(s.replay(0, 3).is_none());
    }

    #[test]
    fn preview_at_answers_what_if_against_history() {
        let mut s = sync();
        s.apply(&CapabilityChange::DeleteAttribute(AttrRef::new(
            "Tour", "NoDays",
        )))
        .unwrap();
        s.apply(&CapabilityChange::DeleteRelation(RelName::new("Customer")))
            .unwrap();

        // Against v1, Customer still exists, so deleting it is a real
        // what-if; against the head it would be an evolution error.
        let outcome = s
            .preview_at(
                1,
                &CapabilityChange::DeleteRelation(RelName::new("Customer")),
            )
            .unwrap()
            .unwrap();
        assert_eq!(outcome.rewritten(), 1);
        assert!(s
            .preview_at(
                2,
                &CapabilityChange::DeleteRelation(RelName::new("Customer"))
            )
            .unwrap()
            .is_err());
        assert!(s
            .preview_at(
                9,
                &CapabilityChange::DeleteRelation(RelName::new("Customer"))
            )
            .is_none());
        // preview_at never mutates the trunk.
        assert_eq!(s.version(), 2);
    }

    #[test]
    fn chain_entries_share_state_structurally() {
        let mut s = sync();
        s.apply(&CapabilityChange::DeleteAttribute(AttrRef::new(
            "Tour", "NoDays",
        )))
        .unwrap();
        let chain = s.chain();
        // Entries share view definitions by Arc with the live state:
        // untouched views are the same allocation across versions.
        let find = |entry: &Snapshot, name: &str| {
            entry
                .views
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| Arc::clone(v))
                .unwrap()
        };
        let before = find(&chain[0].snapshot, "Customer-Passengers-Asia");
        let after = find(&chain[1].snapshot, "Customer-Passengers-Asia");
        assert!(Arc::ptr_eq(&before, &after));
    }

    #[test]
    fn preview_does_not_mutate() {
        let s = sync();
        let snapshot_views: Vec<String> = s.views().map(|v| v.to_string()).collect();
        let outcome = s
            .preview(&CapabilityChange::DeleteRelation(RelName::new("Customer")))
            .unwrap();
        assert_eq!(outcome.rewritten(), 1);
        // State untouched.
        let after: Vec<String> = s.views().map(|v| v.to_string()).collect();
        assert_eq!(snapshot_views, after);
        assert!(s.mkb().contains_relation(&RelName::new("Customer")));
    }

    #[test]
    fn apply_all_accumulates() {
        let mut s = sync();
        let report = s
            .apply_all(&[
                CapabilityChange::DeleteAttribute(AttrRef::new("Tour", "NoDays")),
                CapabilityChange::DeleteRelation(RelName::new("Customer")),
            ])
            .unwrap();
        assert_eq!(report.outcomes.len(), 2);
    }

    #[test]
    fn cost_model_prefers_covering_rewriting() {
        // With the default preservation cost model, the adopted rewriting
        // for Eq. (5) must keep all four SELECT items (Age covered via
        // F3), not drop Age.
        let mut s = SynchronizerBuilder::new(travel_mkb())
            .with_view(
                parse_view(
                    "CREATE VIEW CPA AS
                     SELECT C.Name (false, true), C.Age (true, true), F.PName (true, true),
                            P.Participant (true, true), P.TourID (true, true)
                     FROM Customer C (true, true), FlightRes F (true, true), Participant P (true, true)
                     WHERE (C.Name = F.PName) (false, true) AND (F.Dest = 'Asia') (CD = true)
                       AND (P.Loc = 'Asia') (CD = true)",
                )
                .unwrap(),
            )
            .unwrap()
            .with_cost_model(crate::cost::CostModel::default())
            .build();
        let outcome = s
            .apply(&CapabilityChange::DeleteRelation(RelName::new("Customer")))
            .unwrap();
        let ViewOutcome::Rewritten { chosen, .. } = &outcome.views[0].1 else {
            panic!("expected rewriting");
        };
        assert_eq!(chosen.view.select.len(), 5, "{}", chosen.view);
        assert!(
            chosen.view.to_string().contains("Birthday"),
            "{}",
            chosen.view
        );
    }

    fn sync_with_policy(policy: crate::FailurePolicy) -> Synchronizer {
        let mut s = sync_named("Faulted-Asia");
        s.opts = CvsOptions {
            failure: policy,
            ..s.opts
        };
        s
    }

    #[test]
    fn degrade_contains_injected_panic_to_one_view() {
        let _serial = eve_faults::serial_guard();
        let change = CapabilityChange::DeleteRelation(RelName::new("Customer"));
        let mut baseline = sync_with_policy(crate::FailurePolicy::degrade());
        let expected = baseline.apply(&change).unwrap();

        let _ = eve_faults::uninstall();
        eve_faults::install(eve_faults::FaultPlan::parse("Faulted-Asia/view.sync=panic").unwrap())
            .unwrap();
        let mut s = sync_with_policy(crate::FailurePolicy::degrade());
        let outcome = s.apply(&change).expect("degrade contains the panic");
        eve_faults::uninstall().unwrap();

        // The faulted view failed in one attempt (panics never retry)…
        let ViewOutcome::Failed { error, attempts } = &outcome.views[0].1 else {
            panic!("expected Failed, got {:?}", outcome.views[0].1);
        };
        assert_eq!(*attempts, 1);
        assert!(matches!(error, SyncFailure::Panicked { .. }));
        assert!(error.message().contains("view.sync"), "{error}");
        assert_eq!(outcome.failed(), 1);
        assert!(outcome
            .to_string()
            .contains("FAILED after 1 attempt(s) (panicked: injected"));
        // …every other view's outcome is byte-identical to the
        // fault-free run…
        assert_eq!(outcome.views[1], expected.views[1]);
        // …and the failed view is parked with its last definition for
        // revival, not dropped.
        assert!(s.view("Faulted-Asia").is_none());
        assert_eq!(s.disabled_views().count(), 1);
    }

    #[test]
    fn degrade_retries_transient_faults_to_convergence() {
        let _serial = eve_faults::serial_guard();
        let change = CapabilityChange::DeleteRelation(RelName::new("Customer"));
        let mut baseline = sync_with_policy(crate::FailurePolicy::degrade());
        let expected = baseline.apply(&change).unwrap();

        // Hit 0 only: the first attempt dies, the retry sails through.
        let _ = eve_faults::uninstall();
        eve_faults::install(
            eve_faults::FaultPlan::parse("Faulted-Asia/view.sync#0=transient").unwrap(),
        )
        .unwrap();
        let mut s = sync_with_policy(crate::FailurePolicy::Degrade {
            max_retries: 2,
            backoff: std::time::Duration::ZERO,
        });
        let outcome = s.apply(&change).expect("retry converges");
        let report = eve_faults::uninstall().unwrap();
        assert_eq!(report.injected, 1);
        assert_eq!(outcome, expected, "retried run must match fault-free run");

        // A persistent transient exhausts the retries and reports every
        // attempt.
        eve_faults::install(
            eve_faults::FaultPlan::parse("Faulted-Asia/view.sync=transient").unwrap(),
        )
        .unwrap();
        let mut s = sync_with_policy(crate::FailurePolicy::Degrade {
            max_retries: 2,
            backoff: std::time::Duration::ZERO,
        });
        let outcome = s.apply(&change).expect("degrade contains the failure");
        eve_faults::uninstall().unwrap();
        let ViewOutcome::Failed { error, attempts } = &outcome.views[0].1 else {
            panic!("expected Failed, got {:?}", outcome.views[0].1);
        };
        assert_eq!(*attempts, 3, "1 attempt + 2 retries");
        assert!(matches!(error, SyncFailure::Transient { .. }));
    }

    #[test]
    fn require_p3_filters() {
        // With require_p3 and VE = ≡ (default), the travel example has no
        // PC constraints, so no rewriting can be certified → disabled.
        let mut s = SynchronizerBuilder::new(travel_mkb())
            .with_view(
                parse_view(
                    "CREATE VIEW Strict AS
                     SELECT C.Name (false, true), F.Dest (true, true), F.PName (true, true)
                     FROM Customer C, FlightRes F WHERE (C.Name = F.PName) (false, true)",
                )
                .unwrap(),
            )
            .unwrap()
            .require_p3(true)
            .build();
        let outcome = s
            .apply(&CapabilityChange::DeleteRelation(RelName::new("Customer")))
            .unwrap();
        assert!(matches!(outcome.views[0].1, ViewOutcome::Disabled { .. }));
    }
}
