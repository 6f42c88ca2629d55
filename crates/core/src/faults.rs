//! The crate's fault-injection sites over `eve-faults`. With no plan
//! installed a site costs one relaxed atomic load.
//!
//! Site naming: `<subsystem>.<event>` — `index.build`,
//! `index.enumerate-trees`, `search.candidate`, `view.sync` (plus
//! `hypergraph.tree-iter` wired in `eve-hypergraph`). The synchronizer
//! scopes each view task by view name, so `EVE_FAULTS=CPA/view.sync#0=panic`
//! hits view `CPA`'s first synchronization attempt and nothing else.

use std::any::Any;

/// Count a hit of `site` and execute any fault addressed to it.
/// Returns `true` exactly when a budget-exhaustion fault fired (the
/// site truncates its search); panic/transient faults unwind from
/// inside, delays sleep and return `false`. Every injected fault is
/// also counted on the `faults.injected` telemetry counter and
/// captured by the flight recorder (scope/site/hit/kind).
#[inline]
pub(crate) fn hit(site: &str) -> bool {
    if !eve_faults::active() {
        return false;
    }
    match eve_faults::check_fired(site) {
        None => false,
        Some((kind, fired)) => {
            eve_telemetry::counter_add("faults.injected", 1);
            eve_telemetry::flight_fault(&fired.scope, &fired.site, fired.hit, fired.kind);
            eve_faults::execute(site, kind)
        }
    }
}

/// Describe a caught panic payload when it is an injected fault:
/// `(deterministic message, retryable?)`.
pub(crate) fn injected_info(payload: &(dyn Any + Send)) -> Option<(String, bool)> {
    eve_faults::injected(payload).map(|f| (f.to_string(), f.transient))
}
