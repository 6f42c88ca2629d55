//! Rollback must erase a faulted change *completely*: a change that
//! lands views as `ViewOutcome::Failed` under injected faults and is
//! then rolled back leaves the synchronizer — version chain, active
//! views, disabled set, derived index core — byte-identical to a
//! control that never applied the change at all. Every subsequent change must
//! produce identical outcomes on both.
//!
//! Also: previewing a change while a fault plan is installed is
//! side-effect-free on the trunk, even when the previewed views fail.

use eve::cvs::clock::serial_guard;
use eve::cvs::{is_affected, CvsOptions, FailurePolicy, SynchronizerBuilder, ViewOutcome};
use eve::faults::FaultPlan;
use eve::misd::{render_misd, CapabilityChange, MetaKnowledgeBase};
use eve::workload::{random_views, ChangeSource, SynthConfig, SynthWorkload, Topology};
use std::time::Duration;

fn build_pair(
    seed: u64,
) -> (
    eve::cvs::Synchronizer,
    eve::cvs::Synchronizer,
    MetaKnowledgeBase,
) {
    let cfg = SynthConfig {
        n_relations: 10,
        cover_count: 3,
        topology: Topology::Random { extra: 5 },
        global_cover_prob: 0.5,
        ..SynthConfig::default()
    };
    let w = SynthWorkload::random(&cfg, seed);
    let views = random_views(&w.mkb, 4, 3, seed);
    let opts = CvsOptions {
        failure: FailurePolicy::Degrade {
            max_retries: 2,
            backoff: Duration::from_millis(1),
        },
        ..CvsOptions::default()
    };
    let mut subject = SynchronizerBuilder::new(w.mkb.clone()).with_options(opts);
    let mut control = SynchronizerBuilder::new(w.mkb.clone()).with_options(opts);
    for v in views {
        subject = subject.with_view(v.clone()).expect("generated views valid");
        control = control.with_view(v).expect("generated views valid");
    }
    (subject.build(), control.build(), w.mkb)
}

/// Full observable state of a synchronizer, rendered to strings.
fn state_of(
    sync: &eve::cvs::Synchronizer,
) -> (usize, String, Vec<String>, Vec<String>, Vec<String>) {
    (
        sync.version(),
        render_misd(sync.mkb()),
        sync.views().map(|v| v.to_string()).collect(),
        sync.disabled_views()
            .map(|(n, v)| format!("{n}: {v}"))
            .collect(),
        sync.chain()
            .iter()
            .map(|e| format!("{}: {:?}", e.version, e.change().map(|c| c.to_string())))
            .collect(),
    )
}

/// Draw the next change that affects at least one active view.
fn next_affecting(source: &mut ChangeSource, sync: &eve::cvs::Synchronizer) -> CapabilityChange {
    loop {
        let change = source.next(sync.mkb()).expect("schema affords changes");
        if sync.views().any(|v| is_affected(v, &change)) {
            return change;
        }
    }
}

#[test]
fn faulted_then_rolled_back_equals_never_applied() {
    let _serial = serial_guard();
    for seed in [3u64, 19, 27] {
        let (mut subject, mut control, _mkb) = build_pair(seed);
        let mut source = ChangeSource::new(seed ^ 0xFA);
        let faulted_change = next_affecting(&mut source, &subject);
        let before = subject.version();

        // Subject: apply under a plan that panics every affected
        // view's first sync attempt — Degrade contains each panic and
        // lands the view as Failed.
        let plan = FaultPlan::parse(&format!("seed={seed};view.sync#0=panic")).expect("grammar");
        eve::faults::install(plan).expect("no plan active");
        let outcome = subject.apply(&faulted_change).expect("evolution succeeds");
        let report = eve::faults::uninstall().expect("plan installed");
        assert!(report.injected > 0, "seed {seed}: fault plan never fired");
        assert!(
            outcome
                .views
                .iter()
                .any(|(_, o)| matches!(o, ViewOutcome::Failed { .. })),
            "seed {seed}: no view landed Failed under {faulted_change}: {outcome}"
        );

        // Roll the faulted change back; control never saw it.
        assert!(subject.rollback_to(before), "rollback must be in range");
        assert_eq!(
            state_of(&subject),
            state_of(&control),
            "seed {seed}: rollback left residue of the faulted change"
        );

        // Every subsequent change behaves identically on both — the
        // restored index core must not remember the rolled-back version
        // either.
        for step in 0..6 {
            let change = source.next(subject.mkb()).expect("schema affords changes");
            let a = subject.apply(&change).expect("subject evolves");
            let b = control.apply(&change).expect("control evolves");
            assert_eq!(
                a, b,
                "seed {seed} step {step}: outcomes diverge after rollback for {change}"
            );
            assert_eq!(
                state_of(&subject),
                state_of(&control),
                "seed {seed} step {step}: state diverges after rollback"
            );
        }
    }
}

#[test]
fn preview_under_faults_leaves_trunk_untouched() {
    let _serial = serial_guard();
    let seed = 7u64;
    let (subject, _control, _mkb) = build_pair(seed);
    let mut source = ChangeSource::new(seed ^ 0xAB);
    let change = next_affecting(&mut source, &subject);
    let before = state_of(&subject);

    let plan = FaultPlan::parse(&format!("seed={seed};view.sync#0=panic")).expect("grammar");
    eve::faults::install(plan).expect("no plan active");
    let outcome = subject.preview(&change).expect("evolution succeeds");
    let report = eve::faults::uninstall().expect("plan installed");

    assert!(report.injected > 0, "fault plan never fired during preview");
    assert!(
        outcome
            .views
            .iter()
            .any(|(_, o)| matches!(o, ViewOutcome::Failed { .. })),
        "previewed change failed no view: {outcome}"
    );
    assert_eq!(
        state_of(&subject),
        before,
        "preview under faults mutated the trunk"
    );
}
