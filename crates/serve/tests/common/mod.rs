//! Helpers shared by the serve integration suites.

use tgnn_serve::MetricsSnapshot;

/// Event conservation, per tenant, on a quiesced server (drained, or with
/// nothing in flight): every submitted event was either served — by the
/// pipeline or as a stale cache answer — or dropped by the tenant's overload
/// policy, and the stale answers are a subset of the served ones.
pub fn assert_conserved(m: &MetricsSnapshot) {
    for t in &m.tenants {
        assert_eq!(
            t.counters.submitted,
            t.served + t.dropped(),
            "tenant {} leaked events: served {}, counters {:?}",
            t.name,
            t.served,
            t.counters
        );
        assert!(
            t.served_stale <= t.served,
            "tenant {}: {} stale answers out of {} served",
            t.name,
            t.served_stale,
            t.served
        );
    }
}
