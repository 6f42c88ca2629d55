//! The deterministic whole-system simulator.
//!
//! [`run`] drives a seeded scheduler that interleaves capability
//! changes, reader queries, historical previews, rollbacks, virtual
//! clock ticks, and fault episodes over a synthetic workload — checking
//! invariants continuously (see [`Executor::execute`]). Every executed
//! action is recorded as a concrete [`Action`], so a failing schedule
//! can be replayed verbatim with [`run_trace`] and shrunk with
//! [`crate::shrink()`].
//!
//! Determinism contract: with the same [`SimConfig`], two runs produce
//! byte-identical outcome digests — across reruns *and* across
//! `EVE_PARALLELISM` settings, because every digested observation
//! (change outcomes, view texts, MKB renders, fault firings) is
//! schedule-independent by construction. The two wall-clock sinks in
//! the engine (`CvsOptions::deadline`, `Degrade` backoff) run on an
//! installed [`VirtualClock`] for the duration of the run.
//!
//! Two synchronizers run in lockstep: the **main** one under
//! delta-maintained indexes (`IndexMaintenance::Incremental`, wrapped
//! in a [`SharedSynchronizer`] so queries read real snapshots), and a
//! **shadow** under `IndexMaintenance::Rebuild`. Every committed change
//! is applied to both and the outcomes compared — the paper-level
//! "delta ≡ rebuild" equivalence enforced per prefix, not just per
//! pinned scenario. Fault episodes replay the *same* plan against the
//! shadow under a fresh install, so both sides see identical injected
//! faults (hit counters are per `(scope, site)` and therefore
//! mode-independent for the sites the generator uses).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use eve_core::clock::{self, VirtualClock};
use eve_core::{
    evaluate_view, is_affected, CvsOptions, FailurePolicy, IndexMaintenance, SharedSynchronizer,
    Synchronizer, SynchronizerBuilder, ViewOutcome,
};
use eve_esql::parse_view;
use eve_misd::{check_mkb, parse_misd, render_misd, MetaKnowledgeBase};
use eve_relational::{DataType, Database, FuncRegistry, Relation, Schema, Tuple, Value};
use eve_workload::{random_views, ChangeSource, SynthConfig, SynthWorkload, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::action::Action;

/// Workload size / action mix presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Small schema, frequent full checks — CI smoke runs.
    Smoke,
    /// The default: medium schema, balanced mix.
    Standard,
    /// Larger schema whose shape follows the seed (topology family,
    /// cover count, global-cover probability) — long nightly runs, so
    /// successive seeds sweep every federation shape.
    Soak,
}

impl Profile {
    /// Parse a CLI profile name.
    pub fn parse(name: &str) -> Option<Profile> {
        match name {
            "smoke" => Some(Profile::Smoke),
            "standard" => Some(Profile::Standard),
            "soak" => Some(Profile::Soak),
            _ => None,
        }
    }

    /// The profile's name (CLI form).
    pub fn name(&self) -> &'static str {
        match self {
            Profile::Smoke => "smoke",
            Profile::Standard => "standard",
            Profile::Soak => "soak",
        }
    }

    fn synth_config(&self, seed: u64) -> SynthConfig {
        match self {
            Profile::Smoke => SynthConfig {
                n_relations: 8,
                cover_count: 3,
                topology: Topology::Random { extra: 4 },
                global_cover_prob: 0.5,
                ..SynthConfig::default()
            },
            Profile::Standard => SynthConfig {
                n_relations: 12,
                cover_count: 3,
                topology: Topology::Random { extra: 6 },
                global_cover_prob: 0.5,
                ..SynthConfig::default()
            },
            Profile::Soak => {
                let mut rng = StdRng::seed_from_u64(seed ^ 0x50A4_50A4_50A4_50A4);
                let topology = match rng.gen_range(0..4u32) {
                    0 => Topology::Chain,
                    1 => Topology::Ring,
                    2 => Topology::Random {
                        extra: rng.gen_range(0..10usize),
                    },
                    _ => Topology::Clusters {
                        size: rng.gen_range(3..7usize),
                        extra: rng.gen_range(0..3usize),
                    },
                };
                SynthConfig {
                    n_relations: 16,
                    cover_count: rng.gen_range(1..5usize),
                    topology,
                    global_cover_prob: [0.0, 0.25, 0.5, 0.75][rng.gen_range(0..4usize)],
                    ..SynthConfig::default()
                }
            }
        }
    }

    fn view_count(&self) -> usize {
        match self {
            Profile::Smoke => 3,
            Profile::Standard => 5,
            Profile::Soak => 6,
        }
    }
}

/// Configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Master seed: workload, views, schedule, and fault plans all
    /// derive from it.
    pub seed: u64,
    /// Number of schedule steps to plan.
    pub steps: usize,
    /// Workload size / action mix preset.
    pub profile: Profile,
    /// Draw only destructive changes (the schema-consuming soak
    /// regime); the run ends early when the schema runs dry.
    pub destructive: bool,
    /// Raise an artificial invariant violation once this many changes
    /// have committed — the self-test hook for the repro-artifact +
    /// shrinker pipeline (a violation whose minimal schedule is exactly
    /// `canary` change actions).
    pub canary: Option<u64>,
    /// Record the executed schedule in the report (on by default; the
    /// memory probe turns it off so the trace itself doesn't read as
    /// monotonic growth).
    pub record: bool,
}

impl SimConfig {
    /// A standard-profile config with recording on.
    pub fn new(seed: u64, steps: usize) -> Self {
        SimConfig {
            seed,
            steps,
            profile: Profile::Standard,
            destructive: false,
            canary: None,
            record: true,
        }
    }
}

/// An invariant violation: which step of the schedule, which invariant,
/// and what was observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Index into the executed schedule.
    pub step: usize,
    /// Invariant name (stable across replays — the shrinker matches on
    /// it so it never shrinks onto a *different* failure).
    pub invariant: String,
    /// Human-readable observation.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "step {}: [{}] {}",
            self.step, self.invariant, self.detail
        )
    }
}

/// Counters of what a run actually did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Changes committed (including fault-episode commits).
    pub changes: u64,
    /// Views registered at runtime.
    pub registrations: u64,
    /// Reader queries evaluated.
    pub queries: u64,
    /// Historical previews.
    pub previews: u64,
    /// Rollbacks performed.
    pub rollbacks: u64,
    /// Fault episodes executed.
    pub fault_episodes: u64,
    /// Faults that actually fired across episodes.
    pub faults_fired: u64,
    /// Replay invariant checks.
    pub replays: u64,
    /// Full invariant sweeps.
    pub full_checks: u64,
    /// Actions skipped during trace replay (inapplicable after
    /// shrinking: inadmissible change, empty view list, zero rollback).
    pub skipped: u64,
}

/// The result of a run: digest, violation (if any), recorded schedule.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// The config's seed, echoed for replay.
    pub seed: u64,
    /// Steps actually executed (may be short of the plan if the
    /// schedule ran dry or a violation stopped it).
    pub steps_executed: usize,
    /// Running FNV-1a digest over every schedule-independent
    /// observation; byte-identical for identical configs.
    pub digest: u64,
    /// The first invariant violation, if any (execution stops there).
    pub violation: Option<Violation>,
    /// The executed schedule (empty when `record` is off).
    pub trace: Vec<Action>,
    /// Activity counters.
    pub stats: SimStats,
}

impl SimReport {
    /// The digest as printed by `eve-cli simulate` (16 hex digits).
    pub fn digest_hex(&self) -> String {
        format!("{:016x}", self.digest)
    }
}

/// Uninstalls the virtual clock and any leftover fault plan even when
/// execution unwinds, so one failed run cannot wedge the process-global
/// registries for the next.
struct RegistryGuard;

impl Drop for RegistryGuard {
    fn drop(&mut self) {
        let _ = clock::uninstall();
        let _ = eve_faults::uninstall();
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = (hash ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    hash
}

/// A tiny database matching whatever the MKB currently describes
/// (five rows per relation, values a fixed function of row and column).
pub fn db_for(mkb: &MetaKnowledgeBase) -> Database {
    let mut db = Database::new();
    for desc in mkb.relations() {
        let schema = Schema::of_relation(&desc.name, &desc.attrs);
        let mut rel = Relation::new(schema);
        for k in 0..5i64 {
            let vals: Vec<Value> = desc
                .attrs
                .iter()
                .enumerate()
                .map(|(j, a)| match a.ty {
                    DataType::Int => Value::Int(k * 10 + j as i64),
                    DataType::Float => Value::float(k as f64),
                    DataType::Str => Value::str(format!("s{k}")),
                    DataType::Bool => Value::Bool(k % 2 == 0),
                    DataType::Date => Value::Date(1000 + k),
                })
                .collect();
            rel.insert(Tuple::new(vals)).expect("arity");
        }
        db.put(desc.name.clone(), rel);
    }
    db
}

fn degrade_policy() -> FailurePolicy {
    FailurePolicy::Degrade {
        max_retries: 2,
        backoff: Duration::from_millis(100),
    }
}

fn sim_options(maintenance: IndexMaintenance) -> CvsOptions {
    CvsOptions {
        index_maintenance: maintenance,
        failure: degrade_policy(),
        // One virtual hour: enough that bounded backoff advances can
        // never trip it mid-search, while proving that *wall* time does
        // not govern truncation (a slow machine cannot change outcomes).
        deadline: Some(Duration::from_secs(3600)),
        // Parallelism stays None → EVE_PARALLELISM decides, which is
        // exactly what the cross-parallelism digest comparison varies.
        ..CvsOptions::default()
    }
}

/// The simulator state: both synchronizers, the clock, and the running
/// digest. Executes one [`Action`] at a time; construction and the
/// schedule planner live in [`run`] / [`run_trace`].
pub struct Executor {
    shared: SharedSynchronizer,
    shadow: Synchronizer,
    clock: Arc<VirtualClock>,
    funcs: FuncRegistry,
    /// Replay checks must not cross a version whose recorded outcome
    /// depended on an installed fault plan (the plan is gone at replay
    /// time, so the fork would legitimately diverge), nor a runtime
    /// view registration (not a chain version, so an earlier fork
    /// lacks the view). The fence is the highest such version, clamped
    /// down by rollbacks.
    fault_fence: usize,
    /// Descriptions of relations the schedule has deleted (latest wins
    /// per name). The scheduler occasionally re-adds one — the only way
    /// a dead relation name can come back, which is what keeps disabled
    /// views revivable (and the revival path exercised) over long runs.
    graveyard: Vec<eve_misd::RelationDescription>,
    changes_applied: u64,
    canary: Option<u64>,
    digest: u64,
    stats: SimStats,
}

impl Executor {
    fn new(config: &SimConfig, clock: Arc<VirtualClock>) -> Executor {
        let workload =
            SynthWorkload::random(&config.profile.synth_config(config.seed), config.seed);
        let views = random_views(
            &workload.mkb,
            config.profile.view_count(),
            3,
            config.seed ^ 0x51ED,
        );
        let mut main = SynchronizerBuilder::new(workload.mkb.clone())
            .with_options(sim_options(IndexMaintenance::Incremental));
        let mut shadow = SynchronizerBuilder::new(workload.mkb.clone())
            .with_options(sim_options(IndexMaintenance::Rebuild));
        for v in views {
            main = main.with_view(v.clone()).expect("generated views valid");
            shadow = shadow.with_view(v).expect("generated views valid");
        }
        Executor {
            shared: SharedSynchronizer::new(main.build()),
            shadow: shadow.build(),
            clock,
            funcs: FuncRegistry::new(),
            fault_fence: 0,
            graveyard: Vec::new(),
            changes_applied: 0,
            canary: config.canary,
            digest: FNV_OFFSET,
            stats: SimStats::default(),
        }
    }

    /// The current MKB snapshot (what changes are drawn against).
    pub fn mkb(&self) -> Arc<MetaKnowledgeBase> {
        self.shared.mkb()
    }

    /// Active view names, in registration order.
    pub fn view_names(&self) -> Vec<String> {
        self.shared
            .read(|s| s.views().map(|v| v.name.clone()).collect())
    }

    /// Whether `change` would put at least one active view through
    /// synchronization (the precondition for a fault plan to fire).
    pub fn affects_active_view(&self, change: &eve_misd::CapabilityChange) -> bool {
        self.shared
            .read(|s| s.views().any(|v| is_affected(v, change)))
    }

    fn note(&mut self, event: &str) {
        self.digest = fnv1a(self.digest, event.as_bytes());
        self.digest = fnv1a(self.digest, b"\n");
    }

    fn violation(step: usize, invariant: &str, detail: String) -> Violation {
        Violation {
            step,
            invariant: invariant.to_string(),
            detail,
        }
    }

    fn canary_check(&mut self, step: usize) -> Result<(), Violation> {
        if Some(self.changes_applied) == self.canary {
            return Err(Self::violation(
                step,
                "canary",
                format!(
                    "intentional canary violation after {} committed changes",
                    self.changes_applied
                ),
            ));
        }
        Ok(())
    }

    /// A graveyard entry whose relation name is currently free, if any
    /// (`pick` rotates through the candidates deterministically).
    fn revivable_relation(&self, pick: usize) -> Option<eve_misd::RelationDescription> {
        let mkb = self.mkb();
        let dead: Vec<&eve_misd::RelationDescription> = self
            .graveyard
            .iter()
            .filter(|d| !mkb.contains_relation(&d.name))
            .collect();
        if dead.is_empty() {
            None
        } else {
            Some(dead[pick % dead.len()].clone())
        }
    }

    /// Remember the full description of a relation a change is about to
    /// delete, so the scheduler can re-add it later.
    fn stash_deleted(&mut self, change: &eve_misd::CapabilityChange) {
        if let eve_misd::CapabilityChange::DeleteRelation(name) = change {
            if let Some(desc) = self.mkb().relation(name) {
                self.graveyard.retain(|d| &d.name != name);
                self.graveyard.push(desc.clone());
            }
        }
    }

    /// Apply `change` to the shared synchronizer and the shadow,
    /// comparing outcomes. `context` tags digest entries.
    fn apply_both(
        &mut self,
        step: usize,
        change: &eve_misd::CapabilityChange,
        context: &str,
    ) -> Result<bool, Violation> {
        self.stash_deleted(change);
        let outcome = match self.shared.apply(change) {
            Ok(o) => o,
            Err(_) => {
                // Inadmissible in the current state — possible when a
                // shrunk trace dropped the change's prerequisites.
                self.stats.skipped += 1;
                self.note(&format!("{context}-skip: {change}"));
                return Ok(false);
            }
        };
        let shadow_outcome = match self.shadow.apply(change) {
            Ok(o) => o,
            Err(e) => {
                return Err(Self::violation(
                    step,
                    "delta-rebuild-divergence",
                    format!("shadow rejected a change the main path committed: {change}: {e}"),
                ))
            }
        };
        if outcome != shadow_outcome {
            return Err(Self::violation(
                step,
                "delta-rebuild-divergence",
                format!(
                    "outcomes diverge for {change}\n-- incremental --\n{outcome}\n-- rebuild --\n{shadow_outcome}"
                ),
            ));
        }
        // Failed and disabled views must stay revival-eligible: the
        // synchronizer keeps them (with their last definition) in the
        // disabled set, where a later change's revival pass can find
        // them.
        let non_survivors: Vec<&str> = outcome
            .views
            .iter()
            .filter(|(_, o)| !o.survived())
            .map(|(n, _)| n.as_str())
            .collect();
        if !non_survivors.is_empty() {
            let missing: Vec<&str> = self.shared.read(|s| {
                let disabled: Vec<String> =
                    s.disabled_views().map(|(n, _)| n.to_string()).collect();
                non_survivors
                    .iter()
                    .filter(|n| !disabled.iter().any(|d| d == *n))
                    .copied()
                    .collect()
            });
            if !missing.is_empty() {
                return Err(Self::violation(
                    step,
                    "failed-view-not-revivable",
                    format!(
                        "views {missing:?} left the active set but are not tracked as disabled"
                    ),
                ));
            }
            if outcome
                .views
                .iter()
                .any(|(_, o)| matches!(o, ViewOutcome::Failed { .. }))
            {
                self.fault_fence = self.shared.version();
            }
        }
        self.note(&format!("{context}:\n{outcome}"));
        self.stats.changes += 1;
        self.changes_applied += 1;
        self.canary_check(step)?;
        Ok(true)
    }

    /// Execute one action, checking its invariants. `Err` carries the
    /// first violated invariant; execution stops there.
    pub fn execute(&mut self, step: usize, action: &Action) -> Result<(), Violation> {
        match action {
            Action::Change(change) => {
                self.apply_both(step, change, "apply")?;
            }
            Action::Register { view } => {
                // Registration against the *current* state can be
                // legitimately inapplicable after shrinking (the name
                // now clashes, or a referenced relation was deleted by
                // a since-removed step) — skip, don't fail. The view
                // must register identically on both synchronizers,
                // though: a main/shadow split is a divergence.
                let parsed = match parse_view(view) {
                    Ok(v) => v,
                    Err(e) => {
                        self.stats.skipped += 1;
                        self.note(&format!("register-skip-parse:{e}"));
                        return Ok(());
                    }
                };
                let name = parsed.name.clone();
                match self.shared.register_view(parsed.clone()) {
                    Ok(()) => {
                        if let Err(e) = self.shadow.register_view(parsed) {
                            return Err(Self::violation(
                                step,
                                "delta-rebuild-divergence",
                                format!(
                                    "shadow rejected view {name} the main path registered: {e}"
                                ),
                            ));
                        }
                        // Registration is not a chain version, so a
                        // replay fork from an earlier version would
                        // legitimately lack the new view — fence
                        // replays at the current version, as for fault
                        // episodes.
                        self.fault_fence = self.shared.version();
                        self.note(&format!("register:{name}"));
                        self.stats.registrations += 1;
                    }
                    Err(reason) => {
                        if self.shadow.register_view(parsed).is_ok() {
                            return Err(Self::violation(
                                step,
                                "delta-rebuild-divergence",
                                format!(
                                    "main path rejected view {name} the shadow accepted: {reason}"
                                ),
                            ));
                        }
                        self.stats.skipped += 1;
                        self.note(&format!("register-skip:{name}"));
                    }
                }
            }
            Action::Query { view } => {
                let views = self.shared.views();
                if views.is_empty() {
                    self.stats.skipped += 1;
                    return Ok(());
                }
                let view = &views[view % views.len()];
                let db = db_for(&self.shared.mkb());
                match evaluate_view(view, &db, &self.funcs) {
                    Ok(rows) => {
                        self.note(&format!("query:{}:{}", view.name, rows.len()));
                        self.stats.queries += 1;
                    }
                    Err(e) => {
                        return Err(Self::violation(
                            step,
                            "active-view-evaluates",
                            format!("view {} failed to evaluate: {e}\n{view}", view.name),
                        ))
                    }
                }
            }
            Action::Preview { back, change } => {
                let version = self.shared.version();
                let target = version - (*back).min(version);
                match self.shared.preview_at(target, change) {
                    Some(Ok(outcome)) => self.note(&format!("preview@{target}:\n{outcome}")),
                    Some(Err(e)) => self.note(&format!("preview@{target}-err:{e}")),
                    None => {
                        return Err(Self::violation(
                            step,
                            "preview-at-range",
                            format!("preview_at({target}) out of range at version {version}"),
                        ))
                    }
                }
                let after = self.shared.version();
                if after != version {
                    return Err(Self::violation(
                        step,
                        "preview-mutates",
                        format!("preview_at moved the version: {version} -> {after}"),
                    ));
                }
                self.stats.previews += 1;
            }
            Action::Rollback { back } => {
                let version = self.shared.version();
                let depth = (*back).min(version);
                if depth == 0 {
                    self.stats.skipped += 1;
                    return Ok(());
                }
                let target = version - depth;
                if !self.shared.rollback_to(target) || !self.shadow.rollback_to(target) {
                    return Err(Self::violation(
                        step,
                        "rollback-range",
                        format!("rollback_to({target}) rejected at version {version}"),
                    ));
                }
                self.fault_fence = self.fault_fence.min(target);
                self.note(&format!("rollback:{version}->{target}"));
                self.stats.rollbacks += 1;
            }
            Action::Fault {
                fail_fast,
                plan,
                change,
            } => {
                self.fault_episode(step, *fail_fast, plan, change)?;
            }
            Action::Tick { millis } => {
                self.clock.advance(Duration::from_millis(*millis));
                self.note(&format!("tick:{millis}"));
            }
            Action::CheckReplay { back } => {
                self.check_replay(step, *back)?;
            }
            Action::CheckFull => {
                self.check_full(step)?;
            }
        }
        Ok(())
    }

    fn fault_episode(
        &mut self,
        step: usize,
        fail_fast: bool,
        plan_text: &str,
        change: &eve_misd::CapabilityChange,
    ) -> Result<(), Violation> {
        let plan = match eve_faults::FaultPlan::parse(plan_text) {
            Ok(p) => p,
            Err(e) => {
                return Err(Self::violation(
                    step,
                    "fault-plan-parse",
                    format!("{plan_text:?}: {e}"),
                ))
            }
        };
        self.stats.fault_episodes += 1;
        self.stash_deleted(change);
        let version_before = self.shared.version();
        if fail_fast {
            self.shared.set_failure_policy(FailurePolicy::FailFast);
        }
        if eve_faults::install(plan.clone()).is_err() {
            self.shared.set_failure_policy(degrade_policy());
            return Err(Self::violation(
                step,
                "fault-registry-busy",
                "another fault plan is already installed".to_string(),
            ));
        }
        let result = catch_unwind(AssertUnwindSafe(|| self.shared.apply(change)));
        let report = eve_faults::uninstall().expect("plan installed above");
        self.shared.set_failure_policy(degrade_policy());
        self.stats.faults_fired += report.fired.len() as u64;
        match result {
            Err(_payload) => {
                if !fail_fast {
                    return Err(Self::violation(
                        step,
                        "degrade-containment",
                        format!("plan {plan_text:?} panicked outward under Degrade for {change}"),
                    ));
                }
                // FailFast: the panic must have aborted the change
                // before any commit, with its identity recorded.
                let version_after = self.shared.version();
                if version_after != version_before {
                    return Err(Self::violation(
                        step,
                        "failfast-partial-commit",
                        format!("version moved {version_before} -> {version_after} across a failed apply"),
                    ));
                }
                if self.shared.last_failure().is_none() {
                    return Err(Self::violation(
                        step,
                        "failfast-identity-lost",
                        "no FailedChange recorded after a FailFast panic".to_string(),
                    ));
                }
                self.note(&format!(
                    "failfast-panic:{}:{}",
                    report.injected,
                    report.fired.len()
                ));
            }
            Ok(apply_result) => {
                let outcome = match apply_result {
                    Ok(o) => o,
                    Err(_) => {
                        // Inadmissible change (shrunk trace) — nothing
                        // was installed long enough to matter.
                        self.stats.skipped += 1;
                        self.note(&format!("fault-skip: {change}"));
                        return Ok(());
                    }
                };
                // Re-install the same plan fresh so the shadow sees the
                // identical fault schedule (per-(scope,site) hit
                // counters restart from zero).
                if eve_faults::install(plan).is_err() {
                    return Err(Self::violation(
                        step,
                        "fault-registry-busy",
                        "could not re-install plan for the shadow".to_string(),
                    ));
                }
                let shadow_result = catch_unwind(AssertUnwindSafe(|| self.shadow.apply(change)));
                let _ = eve_faults::uninstall();
                let shadow_outcome = match shadow_result {
                    Ok(Ok(o)) => o,
                    other => {
                        return Err(Self::violation(
                            step,
                            "delta-rebuild-divergence",
                            format!(
                                "shadow diverged under plan {plan_text:?} for {change}: {}",
                                match other {
                                    Ok(Err(e)) => format!("rejected: {e}"),
                                    _ => "panicked".to_string(),
                                }
                            ),
                        ))
                    }
                };
                if outcome != shadow_outcome {
                    return Err(Self::violation(
                        step,
                        "delta-rebuild-divergence",
                        format!(
                            "outcomes diverge under plan {plan_text:?} for {change}\n-- incremental --\n{outcome}\n-- rebuild --\n{shadow_outcome}"
                        ),
                    ));
                }
                // Views the episode failed or disabled must stay
                // revival-eligible (tracked in the disabled set), and
                // replay checks are fenced off the faulted window: the
                // plan is gone at replay time, so a fork across it
                // would legitimately diverge.
                let non_survivors: Vec<String> = outcome
                    .views
                    .iter()
                    .filter(|(_, o)| !o.survived())
                    .map(|(n, _)| n.clone())
                    .collect();
                if !non_survivors.is_empty() {
                    let missing: Vec<String> = self.shared.read(|s| {
                        let disabled: Vec<String> =
                            s.disabled_views().map(|(n, _)| n.to_string()).collect();
                        non_survivors
                            .iter()
                            .filter(|n| !disabled.contains(n))
                            .cloned()
                            .collect()
                    });
                    if !missing.is_empty() {
                        return Err(Self::violation(
                            step,
                            "failed-view-not-revivable",
                            format!(
                                "views {missing:?} left the active set under plan {plan_text:?} but are not tracked as disabled"
                            ),
                        ));
                    }
                }
                if report.fired.iter().any(|f| f.kind != "delay") {
                    self.fault_fence = self.shared.version();
                }
                self.note(&format!(
                    "fault-apply:{}:fired={}:unfired={}:\n{outcome}",
                    if fail_fast { "failfast" } else { "degrade" },
                    report.fired.len(),
                    report.unfired.len(),
                ));
                self.stats.changes += 1;
                self.changes_applied += 1;
                self.canary_check(step)?;
            }
        }
        Ok(())
    }

    fn check_replay(&mut self, step: usize, back: usize) -> Result<(), Violation> {
        let version = self.shared.version();
        let start = self.fault_fence.max(version - back.max(1).min(version));
        if start >= version {
            self.stats.skipped += 1;
            return Ok(());
        }
        let changes: Vec<eve_misd::CapabilityChange> = self.shared.read(|s| {
            s.chain()[start + 1..=version]
                .iter()
                .map(|e| e.change().expect("non-initial entry").clone())
                .collect()
        });
        let mut fork = self
            .shared
            .at_version(start)
            .expect("start is a live version");
        for change in &changes {
            if fork.apply(change).is_err() {
                return Err(Self::violation(
                    step,
                    "replay-reconstruction",
                    format!("recorded change {change} failed to replay from version {start}"),
                ));
            }
        }
        let fork_mkb = render_misd(fork.mkb());
        let live_mkb = render_misd(&self.shared.mkb());
        let fork_views: Vec<String> = fork.views().map(|v| v.to_string()).collect();
        let live_views = self
            .shared
            .read(|s| s.views().map(|v| v.to_string()).collect::<Vec<_>>());
        let fork_disabled: Vec<String> =
            fork.disabled_views().map(|(n, _)| n.to_string()).collect();
        let live_disabled = self.shared.read(|s| {
            s.disabled_views()
                .map(|(n, _)| n.to_string())
                .collect::<Vec<_>>()
        });
        if fork_mkb != live_mkb || fork_views != live_views || fork_disabled != live_disabled {
            return Err(Self::violation(
                step,
                "replay-reconstruction",
                format!(
                    "replaying versions {}..={version} from {start} did not reconstruct the head",
                    start + 1
                ),
            ));
        }
        self.note(&format!("replay:{start}..{version}:ok"));
        self.stats.replays += 1;
        Ok(())
    }

    fn check_full(&mut self, step: usize) -> Result<(), Violation> {
        let mkb = self.shared.mkb();
        // MKB renders, re-parses to an equal MKB, and type-checks.
        let rendered = render_misd(&mkb);
        match parse_misd(&rendered) {
            Ok(back) if back == *mkb => {}
            Ok(_) => {
                return Err(Self::violation(
                    step,
                    "mkb-round-trip",
                    "re-parsed MKB differs from the live one".to_string(),
                ))
            }
            Err(e) => {
                return Err(Self::violation(
                    step,
                    "mkb-round-trip",
                    format!("rendered MKB failed to parse: {e}"),
                ))
            }
        }
        let type_errors = check_mkb(&mkb);
        if !type_errors.is_empty() {
            return Err(Self::violation(
                step,
                "mkb-type-check",
                format!("{type_errors:?}"),
            ));
        }
        // Every active view prints, parses, references only described
        // relations, and evaluates.
        let db = db_for(&mkb);
        for view in self.shared.views() {
            let printed = view.to_string();
            if let Err(e) = parse_view(&printed) {
                return Err(Self::violation(
                    step,
                    "view-round-trip",
                    format!("view {} unparseable: {e}\n{printed}", view.name),
                ));
            }
            if let Some(stale) = view
                .relations()
                .into_iter()
                .find(|r| !mkb.contains_relation(r))
            {
                return Err(Self::violation(
                    step,
                    "stale-view-reference",
                    format!(
                        "active view {} references dropped relation {stale}",
                        view.name
                    ),
                ));
            }
            if let Err(e) = evaluate_view(&view, &db, &self.funcs) {
                return Err(Self::violation(
                    step,
                    "active-view-evaluates",
                    format!("view {} failed to evaluate: {e}\n{view}", view.name),
                ));
            }
        }
        // Delta-maintained state ≡ rebuild shadow, byte for byte.
        let shadow_mkb = render_misd(self.shadow.mkb());
        if rendered != shadow_mkb {
            return Err(Self::violation(
                step,
                "delta-rebuild-divergence",
                "MKB renders diverge between incremental and rebuild".to_string(),
            ));
        }
        let main_views = self
            .shared
            .read(|s| s.views().map(|v| v.to_string()).collect::<Vec<_>>());
        let shadow_views: Vec<String> = self.shadow.views().map(|v| v.to_string()).collect();
        if main_views != shadow_views {
            return Err(Self::violation(
                step,
                "delta-rebuild-divergence",
                "active view sets diverge between incremental and rebuild".to_string(),
            ));
        }
        let render_disabled = |s: &Synchronizer| {
            s.disabled_views()
                .map(|(n, v)| format!("{n}: {v}"))
                .collect::<Vec<_>>()
        };
        if self.shared.read(render_disabled) != render_disabled(&self.shadow) {
            return Err(Self::violation(
                step,
                "delta-rebuild-divergence",
                "disabled view sets diverge between incremental and rebuild".to_string(),
            ));
        }
        self.note(&format!(
            "full:{:016x}",
            fnv1a(FNV_OFFSET, rendered.as_bytes())
        ));
        self.stats.full_checks += 1;
        Ok(())
    }
}

/// The seeded scheduler: plans one concrete action against the current
/// state. Returns `None` when the change source runs dry (destructive
/// profiles consume the schema).
fn plan_action(
    rng: &mut StdRng,
    source: &mut ChangeSource,
    exec: &Executor,
    config: &SimConfig,
    step: usize,
) -> Option<Action> {
    let roll: u32 = rng.gen_range(0..100);
    if config.destructive {
        // Destructive mix: mostly deletes, with rollbacks and checks.
        return match roll {
            0..=69 => source.next(&exec.mkb()).map(Action::Change),
            70..=76 => Some(Action::Rollback {
                back: 1 + rng.gen_range(0..2usize),
            }),
            77..=87 => Some(Action::CheckReplay {
                back: 1 + rng.gen_range(0..4usize),
            }),
            _ => Some(Action::CheckFull),
        };
    }
    match roll {
        0..=37 => source.next(&exec.mkb()).map(Action::Change),
        38..=44 => {
            // Re-add a deleted relation: the only move that brings a
            // dead name back, so disabled views that referenced it can
            // revive. Falls back to an ordinary change while nothing
            // is dead.
            let pick = rng.gen_range(0..16usize);
            match exec.revivable_relation(pick) {
                Some(desc) => Some(Action::Change(eve_misd::CapabilityChange::AddRelation(
                    desc,
                ))),
                None => source.next(&exec.mkb()).map(Action::Change),
            }
        }
        45..=56 => {
            // Mostly reader queries, with a slice reserved for runtime
            // view registration. The slice widens to the whole band
            // while the active set is thin (changes disable views
            // permanently unless registration replenishes them — an
            // empty set starves queries and fault episodes for the
            // rest of the run).
            let active = exec.view_names().len();
            let thin = active * 2 < config.profile.view_count();
            if roll <= 48 || thin {
                if let Some(action) = plan_register(exec, config, step) {
                    return Some(action);
                }
            }
            Some(Action::Query {
                view: rng.gen_range(0..64),
            })
        }
        57..=64 => {
            let change = source.next(&exec.mkb())?;
            Some(Action::Preview {
                back: rng.gen_range(0..4),
                change,
            })
        }
        65..=70 => Some(Action::Rollback {
            back: 1 + rng.gen_range(0..3usize),
        }),
        71..=76 => {
            let scopes = exec.view_names();
            if scopes.is_empty() {
                return source.next(&exec.mkb()).map(Action::Change);
            }
            // Bias the episode toward a change that actually puts a
            // view through synchronization — an unaffecting change
            // makes the whole plan dead on arrival. Bounded redraw,
            // all from the seeded source, so still deterministic.
            let mut change = source.next(&exec.mkb())?;
            for _ in 0..7 {
                if exec.affects_active_view(&change) {
                    break;
                }
                change = source.next(&exec.mkb())?;
            }
            let fail_fast = rng.gen_range(0..10) < 3;
            let plan = plan_for(rng, config.seed ^ step as u64, &scopes, fail_fast);
            Some(Action::Fault {
                fail_fast,
                plan,
                change,
            })
        }
        77..=81 => Some(Action::Tick {
            millis: 1 + rng.gen_range(0..1000u64),
        }),
        82..=89 => Some(Action::CheckReplay {
            back: 1 + rng.gen_range(0..6usize),
        }),
        _ => Some(Action::CheckFull),
    }
}

/// Plan a runtime view registration: generate one fresh view over the
/// current MKB's join structure and rename it `SimV{step}` so it never
/// clashes with the initial `View{i}` set or earlier registrations.
/// The action carries the whitespace-collapsed E-SQL text — concrete,
/// so a shrunk trace replays the exact same view. Returns `None` when
/// the MKB affords no view (no relations left).
fn plan_register(exec: &Executor, config: &SimConfig, step: usize) -> Option<Action> {
    let mkb = exec.mkb();
    let seed = config.seed ^ (step as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut view = random_views(&mkb, 1, 3, seed).into_iter().next()?;
    view.name = format!("SimV{step}");
    let text = view
        .to_string()
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ");
    Some(Action::Register { view: text })
}

/// Generate a fault plan whose firing schedule is independent of both
/// worker count and index-maintenance mode: view-scoped `view.sync`
/// hits are per synchronization attempt, `search.candidate` hits are
/// per candidate pull — both identical across `EVE_PARALLELISM`
/// settings and across incremental/rebuild maintenance (unlike, say,
/// `hypergraph.tree-iter`, whose hit sequence depends on memo-cache
/// warmth). FailFast episodes get a single panic spec so at most one
/// fault fires before the unwind.
fn plan_for(rng: &mut StdRng, seed: u64, scopes: &[String], fail_fast: bool) -> String {
    if fail_fast {
        // Unscoped: fires for whichever affected view syncs first (hit
        // counters are per (scope = view name, site), so "first" is
        // per-view, not a racy global) — guaranteed to fire whenever
        // the change touches any view at all.
        return format!("seed={seed};view.sync#0=panic");
    }
    let mut entries = vec![format!("seed={seed}")];
    for _ in 0..rng.gen_range(1..3u32) {
        // Half the specs are scoped to a random registered view —
        // those frequently never fire (the view may not be affected),
        // which exercises dead-entry reporting; the other half are
        // unscoped and hit every affected view's own counter.
        let scope = if rng.gen_bool(0.5) {
            format!("{}/", scopes[rng.gen_range(0..scopes.len())])
        } else {
            String::new()
        };
        let entry = if rng.gen_bool(0.5) {
            let kind = ["panic", "transient", "delay:1"][rng.gen_range(0..3usize)];
            format!("{scope}view.sync#{}={kind}", rng.gen_range(0..2usize))
        } else {
            let kind = ["budget", "delay:1"][rng.gen_range(0..2usize)];
            format!(
                "{scope}search.candidate#{}={kind}",
                rng.gen_range(0..3usize)
            )
        };
        entries.push(entry);
    }
    entries.join(";")
}

fn start_registries() -> Result<(Arc<VirtualClock>, RegistryGuard), Violation> {
    if eve_faults::active() {
        return Err(Violation {
            step: 0,
            invariant: "fault-registry-busy".to_string(),
            detail: "a fault plan (EVE_FAULTS?) is installed; the simulator owns fault injection"
                .to_string(),
        });
    }
    let clock = VirtualClock::new();
    if clock::install(Arc::clone(&clock)).is_err() {
        return Err(Violation {
            step: 0,
            invariant: "clock-registry-busy".to_string(),
            detail: "a virtual clock is already installed".to_string(),
        });
    }
    Ok((clock, RegistryGuard))
}

/// A simulation held open for external stepping: the executor plus the
/// registry guard keeping the virtual clock installed. [`run`] and
/// [`run_trace`] cover the common cases; a `Session` is for callers
/// that need to observe state *between* actions (the memory-plateau
/// probe samples the counting allocator at cycle boundaries).
pub struct Session {
    exec: Executor,
    _guard: RegistryGuard,
}

impl Session {
    /// Open a session: install the virtual clock and build the seeded
    /// workload. Fails (as a [`Violation`]) when a fault plan or clock
    /// is already installed process-wide.
    pub fn start(config: &SimConfig) -> Result<Session, Violation> {
        let (clock, guard) = start_registries()?;
        Ok(Session {
            exec: Executor::new(config, clock),
            _guard: guard,
        })
    }

    /// Execute one action (`step` tags any violation).
    pub fn execute(&mut self, step: usize, action: &Action) -> Result<(), Violation> {
        self.exec.execute(step, action)
    }

    /// The running outcome digest.
    pub fn digest(&self) -> u64 {
        self.exec.digest
    }

    /// The current MKB snapshot (to draw further changes against).
    pub fn mkb(&self) -> Arc<MetaKnowledgeBase> {
        self.exec.mkb()
    }

    /// The current version of the main synchronizer.
    pub fn version(&self) -> usize {
        self.exec.shared.version()
    }

    /// Activity counters so far.
    pub fn stats(&self) -> &SimStats {
        &self.exec.stats
    }
}

/// Run a seeded simulation: generate and execute `config.steps`
/// actions, recording the schedule and stopping at the first invariant
/// violation.
///
/// Installs a [`VirtualClock`] (and, during fault episodes, fault
/// plans) process-globally for the duration — concurrent tests in the
/// same binary must serialize via [`eve_core::clock::serial_guard`].
pub fn run(config: &SimConfig) -> SimReport {
    let (clock, _guard) = match start_registries() {
        Ok(pair) => pair,
        Err(violation) => {
            return SimReport {
                seed: config.seed,
                steps_executed: 0,
                digest: 0,
                violation: Some(violation),
                trace: Vec::new(),
                stats: SimStats::default(),
            }
        }
    };
    let mut exec = Executor::new(config, clock);
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x51AB_51AB_51AB_51AB);
    let mut source = if config.destructive {
        ChangeSource::destructive(config.seed)
    } else {
        ChangeSource::new(config.seed)
    };
    let mut trace = Vec::new();
    let mut violation = None;
    let mut executed = 0usize;
    for step in 0..config.steps {
        let Some(action) = plan_action(&mut rng, &mut source, &exec, config, step) else {
            break; // schema ran dry (destructive profile)
        };
        if config.record {
            trace.push(action.clone());
        }
        executed += 1;
        if let Err(v) = exec.execute(step, &action) {
            violation = Some(v);
            break;
        }
    }
    SimReport {
        seed: config.seed,
        steps_executed: executed,
        digest: exec.digest,
        violation,
        trace,
        stats: exec.stats,
    }
}

/// Replay an explicit schedule (a recorded — possibly shrunk — trace)
/// under `config`'s workload. Inapplicable actions are skipped and
/// counted, so any subsequence of a recorded trace is executable —
/// the property the shrinker relies on.
pub fn run_trace(config: &SimConfig, trace: &[Action]) -> SimReport {
    let (clock, _guard) = match start_registries() {
        Ok(pair) => pair,
        Err(violation) => {
            return SimReport {
                seed: config.seed,
                steps_executed: 0,
                digest: 0,
                violation: Some(violation),
                trace: Vec::new(),
                stats: SimStats::default(),
            }
        }
    };
    let mut exec = Executor::new(config, clock);
    let mut violation = None;
    let mut executed = 0usize;
    for (step, action) in trace.iter().enumerate() {
        executed += 1;
        if let Err(v) = exec.execute(step, action) {
            violation = Some(v);
            break;
        }
    }
    SimReport {
        seed: config.seed,
        steps_executed: executed,
        digest: exec.digest,
        violation,
        trace: if config.record {
            trace[..executed].to_vec()
        } else {
            Vec::new()
        },
        stats: exec.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The soak profile's federation shape follows the seed — a few
    /// seeds reach every topology family it draws from — while the
    /// fixed profiles ignore the seed, so their pinned digests hold.
    #[test]
    fn soak_shape_follows_the_seed() {
        let families: std::collections::BTreeSet<&str> = (0..16u64)
            .map(|seed| match Profile::Soak.synth_config(seed).topology {
                Topology::Chain => "chain",
                Topology::Ring => "ring",
                Topology::Random { .. } => "random",
                Topology::Clusters { .. } => "clusters",
                Topology::Star => "star",
            })
            .collect();
        assert_eq!(
            families.into_iter().collect::<Vec<_>>(),
            ["chain", "clusters", "random", "ring"]
        );
        for profile in [Profile::Smoke, Profile::Standard] {
            let shape = |seed| format!("{:?}", profile.synth_config(seed));
            assert_eq!(shape(1), shape(20260809));
        }
    }
}
