//! The crate's one fault-injection site over `eve-faults` — the
//! connection tree stream; the richer sites live in `eve-core`. With no
//! plan installed it costs one relaxed atomic load.
//!
//! The `hypergraph.tree-iter` site fires when a tree stream is opened.
//! Under the core index's shared enumeration cache, *which* view's task
//! opens the stream depends on worker scheduling, so plans targeting
//! this site are chaos-only — the deterministic-replay guarantees are
//! documented for the core sites (see DESIGN.md).

pub(crate) fn hit(site: &str) {
    if !eve_faults::active() {
        return;
    }
    if let Some(kind) = eve_faults::check(site) {
        eve_telemetry::counter_add("faults.injected", 1);
        // Budget faults have no meaning at a stream opening; treat the
        // returned truncation flag as a no-op here.
        let _ = eve_faults::execute(site, kind);
    }
}
