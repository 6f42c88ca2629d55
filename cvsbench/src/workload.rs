//! The four workloads: seeded inputs, set-up, the untimed reference pass
//! and oracles that make up the correctness gate, and the closed- and
//! open-loop drivers that take the timed samples.
//!
//! Every workload is a list of *segments*: a prototype synchronizer (an
//! MKB plus registered views) and a sequence of capability changes. A
//! segment is always replayed on a fresh clone of its prototype, because
//! the synchronizer's version chain retains every applied version
//! (≈3 MB per change at 4096 relations) — replaying short segments keeps
//! peak memory independent of how long a run lasts.

use crate::layers::{Layers, Probe};
use eve_core::{
    is_evaluable, ChangeOutcome, CvsOptions, IndexMaintenance, SharedSynchronizer, Synchronizer,
    SynchronizerBuilder, ViewOutcome,
};
use eve_esql::{ViewDefinition, ViewExtent};
use eve_misd::{evolve, CapabilityChange, MetaKnowledgeBase};
use eve_workload::{
    random_views, views_touching, ChangeSource, SynthConfig, SynthWorkload, Topology,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// One benchmark workload. The names are the benchmark's public
/// vocabulary: `BENCHMARK.json`, the README and result files use them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Stream4k,
    Fanout64v,
    Scale16k,
    Serve4k,
}

pub const ALL: [Workload; 4] = [
    Workload::Stream4k,
    Workload::Fanout64v,
    Workload::Scale16k,
    Workload::Serve4k,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Stream4k => "stream_4k",
            Workload::Fanout64v => "fanout_64v",
            Workload::Scale16k => "scale_16k",
            Workload::Serve4k => "serve_4k",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    fn shape(self, quick: bool) -> Shape {
        let stream = |relations, views, segments| Shape {
            kind: Kind::Stream { relations, views },
            entries: 1,
            segments,
            segment_len: MIX_LEN,
            open_loop: None,
        };
        // Every shape has at least 200 distinct changes (the fewest that
        // leave ten beyond p95); quick runs shrink the MKBs, not the
        // change count.
        let mut shape = match (self, quick) {
            (Workload::Stream4k | Workload::Serve4k, false) => stream(4096, 512, 13),
            (Workload::Stream4k | Workload::Serve4k, true) => stream(205, 26, 13),
            (Workload::Scale16k, false) => stream(16384, 1024, 10),
            (Workload::Scale16k, true) => stream(410, 26, 10),
            (Workload::Fanout64v, _) => Shape {
                kind: match quick {
                    false => Kind::Fanout {
                        relations: 64,
                        views: 64,
                    },
                    true => Kind::Fanout {
                        relations: 16,
                        views: 4,
                    },
                },
                entries: 256,
                segments: 1,
                segment_len: 1,
                open_loop: None,
            },
        };
        if self == Workload::Serve4k {
            // Quick runs are short: raise the rates so the reads and
            // replays still fit.
            let scale = if quick { 10.0 } else { 1.0 };
            shape.open_loop = Some(OpenLoop {
                changes_per_s: 80.0 * scale,
                reads_per_s: 2000.0 * scale,
            });
        }
        shape
    }
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    /// A federated MKB (`Topology::Clusters`) with random views and
    /// standard-mix change streams.
    Stream { relations: usize, views: usize },
    /// Small random MKBs, every view touching the relation one
    /// `delete-relation` removes.
    Fanout { relations: usize, views: usize },
}

#[derive(Debug, Clone, Copy)]
struct Shape {
    kind: Kind,
    /// Prototype synchronizers (the fan-out pool).
    entries: usize,
    /// Change segments per prototype.
    segments: usize,
    segment_len: usize,
    open_loop: Option<OpenLoop>,
}

#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    pub changes_per_s: f64,
    pub reads_per_s: f64,
}

/// Reads a closed-loop client issues after each change.
const READS_PER_CHANGE: usize = 4;

/// A measured phase runs past its deadline until every distinct change
/// has been replayed this many times, so each change's median latency
/// outvotes one disturbed replay even on a slow (debug) build.
const MIN_REPLAYS: usize = 3;

/// The fewest changes a measured phase applies: [`MIN_REPLAYS`] of every
/// distinct change, or one of each in a traced phase, which feeds only
/// per-change means and whose probes double the work.
fn min_changes(inputs: &Inputs, traced: bool) -> usize {
    inputs.keys() * if traced { 1 } else { MIN_REPLAYS }
}

/// splitmix64: derives independent sub-seeds from the run seed.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The standard operator mix of `eve_workload::ChangeSource`, in percent.
const MIX: [(&str, u32); 6] = [
    ("add-attribute", 25),
    ("rename-attribute", 20),
    ("rename-relation", 15),
    ("add-relation", 15),
    ("delete-attribute", 15),
    ("delete-relation", 10),
];

/// Changes per stream segment: the shortest in which [`MIX`] comes out in
/// whole changes (5, 4, 3, 3, 3, 2).
const MIX_LEN: usize = 20;

/// [`MIX_LEN`] admissible changes in sequence from `mkb`, drawn from
/// `ChangeSource` but with the standard mix as exact per-operator counts.
/// Operators differ in cost by 3× at 16k relations and in the memory
/// their version retains, so with a free draw the change latencies and
/// the largest segment's version chain would move with each seed's
/// operator proportions instead of with the program.
fn mixed_stream(mkb: &MetaKnowledgeBase, seed: u64) -> Vec<CapabilityChange> {
    let mut quota: Vec<(&str, usize)> = MIX
        .iter()
        .map(|&(op, pct)| (op, MIX_LEN * pct as usize / 100))
        .collect();
    let mut source = ChangeSource::new(seed);
    let mut state = mkb.clone();
    let mut out = Vec::with_capacity(MIX_LEN);
    while out.len() < MIX_LEN {
        let change = source
            .next(&state)
            .expect("the synthetic MKBs always admit every operator");
        let Some(slot) = quota
            .iter_mut()
            .find(|q| q.0 == change.operator_name() && q.1 > 0)
        else {
            continue;
        };
        slot.1 -= 1;
        state = evolve(&state, &change).expect("ChangeSource draws admissible changes");
        out.push(change);
    }
    out
}

/// A prototype: the MKB and views a synchronizer is built from.
pub struct Entry {
    pub mkb: MetaKnowledgeBase,
    pub views: Vec<ViewDefinition>,
}

/// A change sequence replayed on a fresh clone of one prototype.
pub struct Segment {
    pub entry: usize,
    pub changes: Vec<CapabilityChange>,
    /// Key of the first change: the workload's changes are numbered
    /// `0..Inputs::keys()` in segment order.
    first_key: usize,
}

/// Everything a run feeds the program, generated from the seed alone.
pub struct Inputs {
    pub entries: Vec<Entry>,
    pub segments: Vec<Segment>,
    /// The first segment of each prototype, replayed through the rebuild
    /// oracle.
    oracle_segments: Vec<usize>,
    pub open_loop: Option<OpenLoop>,
    /// View names readers pick from.
    pub read_names: Vec<String>,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64, quick: bool) -> Inputs {
        let shape = workload.shape(quick);
        let mut entries = Vec::new();
        let mut segments = Vec::new();
        let mut oracle_segments = Vec::new();
        for e in 0..shape.entries {
            let es = mix(seed, e as u64);
            let (mkb, views, fixed_change) = match shape.kind {
                Kind::Stream { relations, views } => {
                    let cfg = SynthConfig {
                        n_relations: relations,
                        topology: Topology::Clusters { size: 8, extra: 2 },
                        global_cover_prob: 0.1,
                        extent: ViewExtent::Any,
                        ..SynthConfig::default()
                    };
                    let w = SynthWorkload::random(&cfg, mix(es, 1));
                    let v = random_views(&w.mkb, views, 3, mix(es, 2));
                    (w.mkb, v, None)
                }
                Kind::Fanout { relations, views } => {
                    let cfg = SynthConfig {
                        n_relations: relations,
                        topology: Topology::Random { extra: 16 },
                        ..SynthConfig::default()
                    };
                    let w = SynthWorkload::random(&cfg, mix(es, 1));
                    let v = views_touching(&w.mkb, &w.target, views, 3, mix(es, 2));
                    let change = w.delete_change();
                    (w.mkb, v, Some(change))
                }
            };
            oracle_segments.push(segments.len());
            for s in 0..shape.segments {
                let changes = match &fixed_change {
                    Some(c) => vec![c.clone(); shape.segment_len],
                    None => mixed_stream(&mkb, mix(es, 100 + s as u64)),
                };
                segments.push(Segment {
                    entry: e,
                    changes,
                    first_key: segments.len() * shape.segment_len,
                });
            }
            entries.push(Entry { mkb, views });
        }
        let read_names = entries[0].views.iter().map(|v| v.name.clone()).collect();
        Inputs {
            entries,
            segments,
            oracle_segments,
            open_loop: shape.open_loop,
            read_names,
        }
    }

    /// The number of distinct changes, one per position of a segment.
    pub fn keys(&self) -> usize {
        self.segments.iter().map(|s| s.changes.len()).sum()
    }

    /// FNV-1a over the rendered inputs: equal seeds must give equal
    /// digests.
    #[cfg(test)]
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for e in &self.entries {
            h.str(&format!("{:?}", e.mkb));
            for v in &e.views {
                h.str(&v.rendered());
            }
        }
        for s in &self.segments {
            h.u64(s.entry as u64);
            for c in &s.changes {
                h.str(&c.to_string());
            }
        }
        h.0
    }
}

/// The options every synchronizer in the benchmark is built with. The
/// worker count is pinned so `EVE_PARALLELISM` cannot leak in: on a
/// small shared host, fan-out threads measure the scheduler.
fn options(maintenance: IndexMaintenance) -> CvsOptions {
    CvsOptions {
        parallelism: Some(1),
        index_maintenance: maintenance,
        ..CvsOptions::default()
    }
}

fn build(entry: &Entry, opts: CvsOptions) -> Synchronizer {
    let mut b = SynchronizerBuilder::new(entry.mkb.clone()).with_options(opts);
    for v in &entry.views {
        b = b
            .with_view(v.clone())
            .unwrap_or_else(|e| panic!("generated view {} rejected: {e}", v.name));
    }
    b.build()
}

/// Set-up: build every prototype at least `reps` times and for at least
/// `min_time`, and return the median build time with the last set built.
pub fn setup(inputs: &Inputs, reps: usize, min_time: Duration) -> (f64, Vec<Synchronizer>) {
    let mut times = Vec::new();
    let mut protos = Vec::new();
    let started = Instant::now();
    while times.len() < reps || started.elapsed() < min_time {
        let t = Instant::now();
        protos = inputs
            .entries
            .iter()
            .map(|e| build(e, options(IndexMaintenance::Incremental)))
            .collect();
        times.push(t.elapsed().as_secs_f64());
    }
    (crate::stats::median(&times), protos)
}

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ x as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// A synchronizer's MKB and active views.
type ServedState = (Arc<MetaKnowledgeBase>, Vec<(String, Arc<ViewDefinition>)>);

/// The untimed closed-loop pass over every segment that the timed runs
/// are checked against. It keeps digests, not outcomes: with 64 rewritten
/// views an outcome holds ≈1.5 MB, and the pass must not raise the
/// run's peak memory above what the measured replays reach.
pub struct Reference {
    /// Outcome digests per segment, per change.
    outcomes: Vec<Vec<u64>>,
    /// State at the end of each segment, MKB and active views (open-loop
    /// workloads only: at 16k relations each MKB is ≈12 MB).
    finals: Vec<ServedState>,
    /// Digest of every outcome, in segment order.
    pub digest: u64,
    /// Views a change affected, and how many of them were rewritten.
    pub affected: u64,
    pub rewritten: u64,
}

/// Def. 1 checks on every rewriting of one outcome: P1 (no longer
/// affected), P2 (evaluable over MKB′, checked twice: the rewriting's own
/// check and the synchronizer's evaluability test) and P4 (evolution
/// parameters of the original view respected).
fn check_legal(
    out: &ChangeOutcome,
    before: &[(String, Arc<ViewDefinition>)],
    mkb_after: &MetaKnowledgeBase,
) -> Result<(), String> {
    for (name, o) in &out.views {
        let ViewOutcome::Rewritten { chosen, .. } = o else {
            continue;
        };
        let original = before
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("rewritten view {name} was not active before the change"))?;
        let ok = chosen.check_p1(&out.change)
            && chosen.check_p2(mkb_after)
            && chosen.check_p4(original)
            && is_evaluable(&chosen.view, mkb_after);
        if !ok {
            return Err(format!(
                "illegal rewriting of {name} under {}: {}",
                out.change,
                chosen.view.rendered()
            ));
        }
    }
    Ok(())
}

/// FNV-1a over one outcome: the change and, for every view it touched,
/// the view's name and what became of it.
fn digest_outcome(out: &ChangeOutcome) -> u64 {
    let mut h = Fnv::new();
    h.str(&out.change.to_string());
    for (name, o) in &out.views {
        match o {
            ViewOutcome::Unchanged => continue,
            ViewOutcome::Revived => h.str("revived"),
            ViewOutcome::Rewritten {
                chosen,
                alternatives,
                stats,
            } => {
                h.str(&chosen.view.rendered());
                h.u64(alternatives.len() as u64);
                h.str(&format!("{stats:?}"));
            }
            ViewOutcome::Disabled { reason } => h.str(&reason.to_string()),
            ViewOutcome::Failed { error, .. } => h.str(&error.to_string()),
        }
        h.str(name);
    }
    h.0
}

impl Reference {
    pub fn run(inputs: &Inputs, protos: &[Synchronizer]) -> Result<Reference, String> {
        let mut h = Fnv::new();
        let (mut outcomes, mut finals) = (Vec::new(), Vec::new());
        let (mut affected, mut rewritten) = (0, 0);
        for seg in &inputs.segments {
            let mut sync = protos[seg.entry].clone();
            let mut outs = Vec::new();
            for change in &seg.changes {
                let before = sync.view_snapshots();
                let out = sync
                    .apply(change)
                    .map_err(|e| format!("{change} rejected: {e}"))?;
                check_legal(&out, &before, sync.mkb())?;
                if out.failed() > 0 {
                    return Err(format!("{change}: {} view(s) failed", out.failed()));
                }
                affected += out
                    .views
                    .iter()
                    .filter(|(_, o)| !matches!(o, ViewOutcome::Unchanged | ViewOutcome::Revived))
                    .count() as u64;
                rewritten += out.rewritten() as u64;
                let d = digest_outcome(&out);
                h.u64(d);
                outs.push(d);
            }
            if inputs.open_loop.is_some() {
                finals.push((sync.mkb_snapshot(), sync.view_snapshots()));
            }
            outcomes.push(outs);
        }
        Ok(Reference {
            outcomes,
            finals,
            digest: h.0,
            affected,
            rewritten,
        })
    }

    /// The delta-maintained outcomes must equal (`ChangeOutcome:
    /// PartialEq`) those of a synchronizer that rebuilds its index from
    /// scratch for every change, on the first segment of every prototype
    /// (the first 20 changes of `stream_4k`, `serve_4k` and
    /// `scale_16k`, one op per `fanout_64v` pool entry). Run it after
    /// reading the peak memory: a rebuilt index per version makes its
    /// version chain about twice as large.
    pub fn check_against_rebuild(
        &self,
        inputs: &Inputs,
        protos: &[Synchronizer],
    ) -> Result<(), String> {
        for &s in &inputs.oracle_segments {
            let seg = &inputs.segments[s];
            let mut delta = protos[seg.entry].clone();
            let mut rebuild = build(
                &inputs.entries[seg.entry],
                options(IndexMaintenance::Rebuild),
            );
            for (j, change) in seg.changes.iter().enumerate() {
                let rejected = |e| format!("rebuild oracle: {change} rejected: {e}");
                let want = delta.apply(change).map_err(rejected)?;
                let got = rebuild.apply(change).map_err(rejected)?;
                if got != want || digest_outcome(&want) != self.outcomes[s][j] {
                    return Err(format!(
                        "segment {s} change {j} ({change}): outcome differs from the rebuild oracle"
                    ));
                }
            }
        }
        Ok(())
    }

    fn check_final(
        &self,
        seg: usize,
        mkb: &MetaKnowledgeBase,
        views: &[(String, Arc<ViewDefinition>)],
    ) -> Result<(), String> {
        let (want_mkb, want_views) = &self.finals[seg];
        if **want_mkb != *mkb || want_views != views {
            return Err(format!(
                "segment {seg}: served state differs from the closed-loop replay"
            ));
        }
        Ok(())
    }
}

/// Samples of one measured phase.
#[derive(Default)]
pub struct Samples {
    /// Per-change latency: the `apply` call in a closed loop, from the
    /// due time in the open loop.
    pub change_ms: Vec<f64>,
    /// Which distinct change each `change_ms` sample replayed.
    pub change_key: Vec<usize>,
    /// Duration of each `SharedSynchronizer::apply` (write-lock hold).
    pub hold_ms: Vec<f64>,
    /// Per-read latency (from the due time in the open loop).
    pub read_us: Vec<f64>,
    /// How late the open-loop generators issued each operation.
    pub lag_us: Vec<f64>,
    pub changes: u64,
    pub failed: u64,
}

impl Samples {
    fn absorb(&mut self, other: Samples) {
        self.change_ms.extend(other.change_ms);
        self.change_key.extend(other.change_key);
        self.hold_ms.extend(other.hold_ms);
        self.read_us.extend(other.read_us);
        self.lag_us.extend(other.lag_us);
        self.changes += other.changes;
        self.failed += other.failed;
    }
}

/// Apply one change through the service handle, timing it and checking
/// the outcome against the reference pass.
fn apply_checked(
    shared: &SharedSynchronizer,
    change: &CapabilityChange,
    expected: u64,
    samples: &mut Samples,
    layers: &mut Option<&mut Layers>,
) -> Result<Duration, String> {
    let started = Instant::now();
    let result = match layers {
        Some(l) => l.traced_apply(shared, change),
        None => shared.apply(change),
    };
    let held = started.elapsed();
    samples.changes += 1;
    samples.hold_ms.push(held.as_secs_f64() * 1e3);
    match result {
        Ok(out) => {
            samples.failed += out.failed() as u64;
            if let Some(l) = layers {
                l.note_outcome(&out);
            }
            if digest_outcome(&out) != expected {
                return Err(format!("{change}: outcome differs from the reference pass"));
            }
        }
        Err(_) => samples.failed += 1,
    }
    if let Some(l) = layers {
        l.close_change();
    }
    Ok(held)
}

/// Closed loop: one client applies each change as soon as the previous
/// one returned, then reads a few views; segments are replayed
/// round-robin until `deadline` and at least [`min_changes`].
pub fn closed_loop(
    inputs: &Inputs,
    protos: &[Synchronizer],
    reference: &Reference,
    deadline: Instant,
    seed: u64,
    mut layers: Option<&mut Layers>,
) -> Result<Samples, String> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x5ead));
    let mut samples = Samples::default();
    let min_changes = min_changes(inputs, layers.is_some());
    for (s, seg) in inputs.segments.iter().enumerate().cycle() {
        let proto = &protos[seg.entry];
        let shared = SharedSynchronizer::new(proto.clone());
        let mut probe = layers.as_ref().map(|l| Probe::new(l, seg.entry));
        for (j, change) in seg.changes.iter().enumerate() {
            if let (Some(l), Some(p)) = (layers.as_deref_mut(), probe.as_mut()) {
                p.run(l, &shared, change);
            }
            let held = apply_checked(
                &shared,
                change,
                reference.outcomes[s][j],
                &mut samples,
                &mut layers,
            )?;
            samples.change_ms.push(held.as_secs_f64() * 1e3);
            samples.change_key.push(seg.first_key + j);
            for _ in 0..READS_PER_CHANGE {
                let name = &inputs.read_names[rng.gen_range(0..inputs.read_names.len())];
                let t = Instant::now();
                std::hint::black_box(shared.view(name));
                samples.read_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
            if Instant::now() >= deadline && samples.change_ms.len() >= min_changes {
                return Ok(samples);
            }
        }
    }
    unreachable!("segments cycle until the deadline")
}

/// Issues operations at a fixed rate. An operation is charged from its
/// due time when it waited behind the previous one (a stall delays what
/// is queued behind it), but from its actual issue time when the thread
/// itself overslept: that is the generator running late, recorded as lag.
struct Pacer {
    next: Instant,
    period: Duration,
    prev_done: Instant,
}

impl Pacer {
    fn new(start: Instant, per_s: f64) -> Pacer {
        Pacer {
            next: start,
            period: Duration::from_secs_f64(1.0 / per_s),
            prev_done: start,
        }
    }

    /// Wait for the next due operation, or `None` past the deadline.
    /// Returns the instant the operation is charged from.
    fn wait(&mut self, deadline: Instant, lag_us: &mut Vec<f64>) -> Option<Instant> {
        let due = self.next;
        if due >= deadline {
            return None;
        }
        self.next += self.period;
        if self.prev_done >= due {
            return Some(due);
        }
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let issued = Instant::now();
        lag_us.push((issued - due).as_secs_f64() * 1e6);
        Some(issued)
    }

    fn done(&mut self) {
        self.prev_done = Instant::now();
    }

    /// Continue the schedule from now, after benchmark housekeeping.
    fn rebase(&mut self) {
        let now = Instant::now();
        self.next = self.next.max(now);
    }
}

/// Open loop: a writer applies the segments' changes at a fixed rate
/// behind a `SharedSynchronizer` while one reader thread issues view
/// lookups at a fixed rate. At each segment boundary the writer swaps a
/// fresh prototype clone into the handle readers use, checks the served
/// state against the closed-loop reference, and resumes the schedule.
pub fn open_loop(
    inputs: &Inputs,
    protos: &[Synchronizer],
    reference: &Reference,
    deadline: Instant,
    seed: u64,
    mut layers: Option<&mut Layers>,
) -> Result<Samples, String> {
    let rates = inputs.open_loop.expect("open-loop workload");
    let start = Instant::now();
    let deadline = deadline.max(
        start
            + Duration::from_secs_f64(
                min_changes(inputs, layers.is_some()) as f64 / rates.changes_per_s,
            ),
    );
    let current = RwLock::new(SharedSynchronizer::new(protos[0].clone()));
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut rng = StdRng::seed_from_u64(mix(seed, 0x5ead));
            let mut pacer = Pacer::new(start, rates.reads_per_s);
            let mut samples = Samples::default();
            while let Some(from) = pacer.wait(deadline, &mut samples.lag_us) {
                let name = &inputs.read_names[rng.gen_range(0..inputs.read_names.len())];
                let handle = current.read().expect("the handle lock is never poisoned");
                std::hint::black_box(handle.view(name));
                drop(handle);
                pacer.done();
                samples.read_us.push(from.elapsed().as_secs_f64() * 1e6);
            }
            samples
        });

        let mut samples = Samples::default();
        let mut pacer = Pacer::new(start, rates.changes_per_s);
        let mut segments_done = 0;
        let writer = (|| -> Result<(), String> {
            for (s, seg) in inputs.segments.iter().enumerate().cycle() {
                let shared = SharedSynchronizer::new(protos[seg.entry].clone());
                let old = std::mem::replace(
                    &mut *current.write().expect("the handle lock is never poisoned"),
                    shared.clone(),
                );
                drop(old);
                pacer.rebase();
                let mut probe = layers.as_ref().map(|l| Probe::new(l, seg.entry));
                for (j, change) in seg.changes.iter().enumerate() {
                    // Probes run in the idle time before the change is due.
                    if let (Some(l), Some(p)) = (layers.as_deref_mut(), probe.as_mut()) {
                        p.run(l, &shared, change);
                    }
                    let Some(from) = pacer.wait(deadline, &mut samples.lag_us) else {
                        return Ok(());
                    };
                    apply_checked(
                        &shared,
                        change,
                        reference.outcomes[s][j],
                        &mut samples,
                        &mut layers,
                    )?;
                    pacer.done();
                    samples.change_ms.push(from.elapsed().as_secs_f64() * 1e3);
                    samples.change_key.push(seg.first_key + j);
                }
                reference.check_final(s, &shared.mkb(), &shared.read(|x| x.view_snapshots()))?;
                segments_done += 1;
            }
            unreachable!("segments cycle until the deadline")
        })();
        let read_samples = reader.join().expect("reader thread panicked");
        writer?;
        if segments_done == 0 {
            return Err("the open loop completed no segment".to_string());
        }
        samples.absorb(read_samples);
        Ok(samples)
    })
}

/// Run one measured phase of `inputs` until `deadline`.
pub fn measure(
    inputs: &Inputs,
    protos: &[Synchronizer],
    reference: &Reference,
    deadline: Instant,
    seed: u64,
    layers: Option<&mut Layers>,
) -> Result<Samples, String> {
    if inputs.open_loop.is_some() {
        open_loop(inputs, protos, reference, deadline, seed, layers)
    } else {
        closed_loop(inputs, protos, reference, deadline, seed, layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mix_comes_out_in_whole_changes() {
        assert_eq!(MIX.iter().map(|m| m.1).sum::<u32>(), 100);
        for (op, pct) in MIX {
            assert_eq!(MIX_LEN * pct as usize % 100, 0, "{op}");
        }
    }
}
