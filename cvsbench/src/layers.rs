//! The traced run: per-layer attribution of each change's time.
//!
//! Two sources feed it. *Probes* time direct calls into the layers that
//! `Synchronizer::apply` runs without spans of their own — MKB evolution,
//! delta computation, index-core maintenance and the affected-view scan —
//! on the same inputs just before each apply. *Self times* come from the
//! spans the program emits (`apply`, `index-from-cores`, `view-sync`,
//! `ranking`, `tree-enumeration`), nested under the benchmark's own
//! `change` span. A span's self time is its duration minus the time its
//! children cover. The `apply` self time minus the probes is the
//! synchronizer's residual: commit, version-chain snapshot, revival and
//! outcome assembly.

use crate::alloc::{self, Totals};
use crate::stats::percentile;
use crate::workload::{Inputs, Samples};
use eve_core::{is_affected, ChangeOutcome, IndexCore, MkbDelta, SharedSynchronizer, ViewOutcome};
use eve_misd::{evolve, CapabilityChange, MisdError};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Self time per span name, accumulated as spans close. Children close
/// before their parent, so a parent's covered time is known when it
/// closes; a child reported longer than its parent clamps the parent's
/// self time to zero instead of going negative.
#[derive(Debug, Default)]
#[cfg_attr(not(feature = "telemetry"), allow(dead_code))]
pub struct SelfTimes {
    open_children: HashMap<u64, u64>,
    /// name → (self ns, spans)
    pub by_name: BTreeMap<&'static str, (u64, u64)>,
}

#[cfg_attr(not(feature = "telemetry"), allow(dead_code))]
impl SelfTimes {
    pub fn close(&mut self, id: u64, parent: Option<u64>, name: &'static str, dur_ns: u64) {
        let covered = self.open_children.remove(&id).unwrap_or(0);
        let e = self.by_name.entry(name).or_default();
        e.0 += dur_ns.saturating_sub(covered);
        e.1 += 1;
        if let Some(p) = parent {
            *self.open_children.entry(p).or_default() += dur_ns;
        }
    }

    fn self_ns(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |e| e.0 as f64)
    }

    fn count(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |e| e.1)
    }
}

/// Telemetry sink feeding [`SelfTimes`]; keeps no span records, so the
/// traced run's memory and allocation counts stay flat.
#[derive(Default)]
struct SelfTimeSink(Mutex<SelfTimes>);

#[cfg(feature = "telemetry")]
impl eve_telemetry::Sink for SelfTimeSink {
    fn span(&self, r: &eve_telemetry::SpanRecord) {
        self.0
            .lock()
            .expect("sink lock is never held across a panic")
            .close(r.id, r.parent, r.name, r.dur_ns);
    }
}

/// Totals of one traced phase.
pub struct Layers {
    /// Index core of each prototype's MKB, for the delta probe.
    cores: Vec<IndexCore>,
    sink: Arc<SelfTimeSink>,
    probes: u64,
    evolve_ns: f64,
    evolve_alloc_bytes: f64,
    compute_ns: f64,
    delta_apply_ns: f64,
    delta_shared: u64,
    scan_ns: f64,
    affected_views: u64,
    changes: u64,
    change_ns: f64,
    allocs: u64,
    net_bytes: f64,
    open_change: Option<Totals>,
    cache_hits: u64,
    cache_misses: u64,
    rewritten_views: u64,
    generated: u64,
    pruned: u64,
    kept: u64,
    trees: u64,
}

/// The benchmark's own index core, advanced alongside one replayed
/// segment so the delta probes see the same state `apply` does.
pub struct Probe {
    core: IndexCore,
}

impl Probe {
    pub fn new(layers: &Layers, entry: usize) -> Probe {
        Probe {
            core: layers.cores[entry].clone(),
        }
    }

    /// Time the unspanned layers of `apply` on `change`, against the
    /// state `shared` is in now.
    pub fn run(&mut self, l: &mut Layers, shared: &SharedSynchronizer, change: &CapabilityChange) {
        let mkb = shared.mkb();
        let before = Totals::now();
        let t = Instant::now();
        let next = evolve(&mkb, change).expect("generated changes are admissible in sequence");
        l.evolve_ns += t.elapsed().as_nanos() as f64;
        l.evolve_alloc_bytes += Totals::now().since(before).alloc_bytes as f64;

        let t = Instant::now();
        let delta = MkbDelta::compute(&mkb, &next, change);
        l.compute_ns += t.elapsed().as_nanos() as f64;

        let t = Instant::now();
        self.core = self.core.apply_delta(&delta);
        l.delta_apply_ns += t.elapsed().as_nanos() as f64;
        l.delta_shared += u64::from(delta.summary.covers_shared && delta.summary.pcs_shared);

        let (affected, scan_ns) = shared.read(|s| {
            let t = Instant::now();
            let n = s.views().filter(|v| is_affected(v, change)).count();
            (n, t.elapsed().as_nanos() as f64)
        });
        l.scan_ns += scan_ns;
        l.affected_views += affected as u64;
        l.probes += 1;
    }
}

/// One row of the per-layer table: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

impl Layers {
    pub fn new(inputs: &Inputs) -> Layers {
        Layers {
            cores: inputs
                .entries
                .iter()
                .map(|e| IndexCore::build(&e.mkb))
                .collect(),
            sink: Arc::default(),
            probes: 0,
            evolve_ns: 0.0,
            evolve_alloc_bytes: 0.0,
            compute_ns: 0.0,
            delta_apply_ns: 0.0,
            delta_shared: 0,
            scan_ns: 0.0,
            affected_views: 0,
            changes: 0,
            change_ns: 0.0,
            allocs: 0,
            net_bytes: 0.0,
            open_change: None,
            cache_hits: 0,
            cache_misses: 0,
            rewritten_views: 0,
            generated: 0,
            pruned: 0,
            kept: 0,
            trees: 0,
        }
    }

    /// Start recording: install the span sink and count allocations.
    pub fn start(&self) -> Result<(), String> {
        #[cfg(feature = "telemetry")]
        eve_telemetry::install(vec![self.sink.clone()]).map_err(|e| e.to_string())?;
        alloc::set_counting(true);
        Ok(())
    }

    pub fn stop(&self) {
        alloc::set_counting(false);
        #[cfg(feature = "telemetry")]
        eve_telemetry::uninstall();
    }

    /// `SharedSynchronizer::apply` under the benchmark's `change` span.
    pub fn traced_apply(
        &mut self,
        shared: &SharedSynchronizer,
        change: &CapabilityChange,
    ) -> Result<ChangeOutcome, MisdError> {
        let before = Totals::now();
        let t = Instant::now();
        let out = {
            #[cfg(feature = "telemetry")]
            let _span = eve_telemetry::span("change");
            shared.apply(change)
        };
        self.change_ns += t.elapsed().as_nanos() as f64;
        self.changes += 1;
        self.allocs += Totals::now().since(before).allocs;
        self.open_change = Some(before);
        out
    }

    /// Called once the change's outcome has been dropped: what the
    /// synchronizer still holds is the version it retained.
    pub fn close_change(&mut self) {
        if let Some(before) = self.open_change.take() {
            self.net_bytes += Totals::now().since(before).net_bytes();
        }
    }

    pub fn note_outcome(&mut self, out: &ChangeOutcome) {
        self.cache_hits += out.cache.hits;
        self.cache_misses += out.cache.misses;
        for (_, o) in &out.views {
            if let ViewOutcome::Rewritten { stats, .. } = o {
                self.rewritten_views += 1;
                self.generated += stats.generated as u64;
                self.pruned += stats.pruned as u64;
                self.kept += stats.kept as u64;
                self.trees += stats.trees_enumerated as u64;
            }
        }
    }

    /// The per-layer metrics of the traced phase, the attribution table,
    /// and the attribution check: the layer self times plus the residual
    /// must add up to the traced change time within 5%, and the residual
    /// must not be more negative than −5% of it (probes over-claiming).
    ///
    /// Times add up only as means, so the table and the check are per
    /// change means; medians of parts do not sum to a median.
    pub fn report(
        &self,
        untraced: &Samples,
        traced: &Samples,
        gen_s: f64,
    ) -> Result<(Vec<Metric>, String), String> {
        let st = self.sink.0.lock().expect("sink lock");
        let per = |x: f64, n: u64| if n == 0 { 0.0 } else { x / n as f64 };
        let ratio = |a: u64, b: u64| per(a as f64, b);
        let p = self.probes;
        let n = self.changes;
        let synced = st.count("view-sync");
        let us = 1e-3;

        let evolve = per(self.evolve_ns, p) * us;
        let compute = per(self.compute_ns, p) * us;
        let delta_apply = per(self.delta_apply_ns, p) * us;
        let scan = per(self.scan_ns, p) * us;
        let apply_self = per(st.self_ns("apply"), n) * us;
        // Without spans (`--no-default-features`) there is no apply self
        // time to split: report the probes only.
        let residual = if cfg!(feature = "telemetry") {
            apply_self - (evolve + compute + delta_apply + scan)
        } else {
            0.0
        };
        let from_cores = per(st.self_ns("index-from-cores"), n) * us;
        let view_sync = per(st.self_ns("view-sync"), synced) * us;
        let search = per(st.self_ns("ranking"), synced) * us;
        let tree_enum = per(st.self_ns("tree-enumeration"), synced) * us;
        let views_synced_per_change = ratio(synced, n);
        let change_mean = per(self.change_ns, n) * us;

        // Per-change attribution.
        let rows = [
            ("misd.evolve", evolve),
            ("delta.compute", compute),
            ("delta.apply", delta_apply),
            ("affected.scan", scan),
            ("synchronizer.residual", residual),
            ("index.from_cores", from_cores),
            ("engine.view_sync", view_sync * views_synced_per_change),
            ("rewrite.search", search * views_synced_per_change),
            ("hypergraph.tree_enum", tree_enum * views_synced_per_change),
        ];
        let attributed: f64 = rows.iter().map(|r| r.1).sum();
        let unattributed = change_mean - attributed;
        let mut table = format!("{:<24}{:>16}{:>9}\n", "layer", "us/change", "share");
        for (name, v) in rows.iter().chain([&("(unattributed)", unattributed)]) {
            let share = if change_mean > 0.0 {
                v / change_mean * 100.0
            } else {
                0.0
            };
            table += &format!("{name:<24}{v:>16.1}{share:>8.1}%\n");
        }
        table += &format!("{:<24}{change_mean:>16.1}{:>9}\n", "traced change mean", "");

        if cfg!(feature = "telemetry") && n > 0 {
            if (unattributed / change_mean).abs() > 0.05 {
                return Err(format!(
                    "layers account for {attributed:.1} of {change_mean:.1} us per change (>5% apart)\n{table}"
                ));
            }
            if residual < -0.05 * change_mean {
                return Err(format!(
                    "probes over-claim: residual {residual:.1} us of {change_mean:.1} us per change\n{table}"
                ));
            }
        }

        let p50 = |v: &[f64]| percentile(v, 50.0).unwrap_or(0.0);
        let blocked = untraced.read_us.iter().filter(|&&r| r > 50.0).count();
        let metrics = vec![
            ("misd.evolve_us", evolve, "us"),
            (
                "misd.evolve_alloc_kb",
                per(self.evolve_alloc_bytes, p) / 1024.0,
                "KiB",
            ),
            ("delta.compute_us", compute, "us"),
            ("delta.apply_us", delta_apply, "us"),
            ("delta.shared_ratio", ratio(self.delta_shared, p), "ratio"),
            ("index.from_cores_self_us", from_cores, "us"),
            (
                "index.cache_hit_ratio",
                ratio(self.cache_hits, self.cache_hits + self.cache_misses),
                "ratio",
            ),
            ("affected.scan_us", scan, "us"),
            (
                "affected.views_per_change",
                ratio(self.affected_views, p),
                "count",
            ),
            ("engine.view_sync_self_us", view_sync, "us"),
            ("rewrite.search_self_us", search, "us"),
            (
                "rewrite.candidates_per_view",
                ratio(self.generated, self.rewritten_views),
                "count",
            ),
            (
                "rewrite.kept_ratio",
                ratio(self.kept, self.generated),
                "ratio",
            ),
            (
                "rewrite.pruned_ratio",
                ratio(self.pruned, self.generated + self.pruned),
                "ratio",
            ),
            ("hypergraph.tree_enum_self_us", tree_enum, "us"),
            (
                "hypergraph.trees_per_view",
                ratio(self.trees, self.rewritten_views),
                "count",
            ),
            ("synchronizer.apply_self_us", apply_self, "us"),
            ("synchronizer.residual_us", residual, "us"),
            (
                "synchronizer.chain_kb_per_version",
                per(self.net_bytes, n) / 1024.0,
                "KiB",
            ),
            (
                "synchronizer.allocs_per_change",
                ratio(self.allocs, n),
                "count",
            ),
            (
                "service.write_hold_ms_p95",
                percentile(&untraced.hold_ms, 95.0).unwrap_or(0.0),
                "ms",
            ),
            ("service.read_p50_us", p50(&untraced.read_us), "us"),
            (
                "service.read_p99_us",
                percentile(&untraced.read_us, 99.0).unwrap_or(0.0),
                "us",
            ),
            (
                "service.reads_blocked_ratio",
                ratio(blocked as u64, untraced.read_us.len() as u64),
                "ratio",
            ),
            (
                "loadgen.lag_p99_us",
                percentile(&untraced.lag_us, 99.0).unwrap_or(0.0),
                "us",
            ),
            ("loadgen.gen_s", gen_s, "s"),
            (
                "trace.overhead_ratio",
                match p50(&untraced.hold_ms) {
                    base if base > 0.0 => p50(&traced.hold_ms) / base,
                    _ => 0.0,
                },
                "ratio",
            ),
            (
                "trace.unattributed_ratio",
                if change_mean > 0.0 {
                    unattributed / change_mean
                } else {
                    0.0
                },
                "ratio",
            ),
        ];
        Ok((metrics, table))
    }
}

#[cfg(test)]
mod tests {
    use super::SelfTimes;

    #[test]
    fn self_time_subtracts_nested_children() {
        // root(100) > mid(60) > leaf(25); children close first.
        let mut st = SelfTimes::default();
        st.close(3, Some(2), "leaf", 25);
        st.close(2, Some(1), "mid", 60);
        st.close(1, None, "root", 100);
        assert_eq!(st.by_name["leaf"], (25, 1));
        assert_eq!(st.by_name["mid"], (35, 1));
        assert_eq!(st.by_name["root"], (40, 1));
    }

    #[test]
    fn self_time_sums_siblings_per_name() {
        let mut st = SelfTimes::default();
        st.close(2, Some(1), "view-sync", 30);
        st.close(3, Some(1), "view-sync", 20);
        st.close(1, None, "apply", 70);
        assert_eq!(st.by_name["view-sync"], (50, 2));
        assert_eq!(st.by_name["apply"], (20, 1));
    }

    #[test]
    fn child_outlasting_its_parent_clamps_to_zero() {
        let mut st = SelfTimes::default();
        st.close(2, Some(1), "child", 90);
        st.close(1, None, "parent", 80);
        assert_eq!(st.by_name["parent"], (0, 1));
        assert_eq!(st.by_name["child"], (90, 1));
        assert!(st.open_children.is_empty());
    }
}
