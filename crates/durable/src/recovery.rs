//! Turning a WAL scan into a recovery plan: the acked watermark, the sealed
//! epochs to replay, and the per-tenant ingress tails to readmit.
//!
//! ## Why this is sound
//!
//! The WAL is a single append-ordered stream and every flush is an in-order
//! prefix, so a torn tail (or frozen user-space buffer) only ever truncates
//! a *suffix*.  Records are appended in causal order:
//!
//! * an event's `Admit` precedes any `Seal` containing it (the admit is
//!   written under the admission lock before the event is enqueued);
//! * a batch's `Seal` is made durable before the batch's results are
//!   *delivered* (the serve layer's GNN worker syncs it before handing the
//!   batch on), hence before its `Ack` (written at delivery) can exist.
//!
//! Therefore in any durable prefix: every sealed event has a durable admit,
//! every acked epoch has a durable seal, and `max(Ack) <= max(Seal)`.  The
//! planner treats violations of these invariants as corruption.
//!
//! ## Tail reconstruction
//!
//! A tenant's ingress tail — events admitted but not yet sealed — is
//! rebuilt by replaying the history: push each `Admit{Admitted}`, then
//! remove sealed and evicted events *by identity* (first match from the
//! front).  Identity matters for `Evict`: a `DropOldest` eviction discards
//! the queue head *at eviction time*, which is not necessarily the oldest
//! unsealed admit — earlier admits may already sit in the scheduler or
//! batcher, outside the ingress queue but not yet in any seal.

use crate::wal::{AdmitDisposition, WalRecord, WalScan};
use crate::DurableError;
use tgnn_graph::InteractionEvent;

/// One sealed micro-batch recovered from the WAL.
#[derive(Clone, Debug, PartialEq)]
pub struct SealedEpoch {
    /// The 1-based pipeline epoch.
    pub epoch: u64,
    /// `(tenant, event)` in batch order — the authoritative batch content.
    pub events: Vec<(u32, InteractionEvent)>,
}

/// Everything a restart needs, derived from the durable WAL prefix.
#[derive(Debug, Default)]
pub struct RecoveryPlan {
    /// Highest epoch whose results were delivered to the client (`A`).
    pub acked: u64,
    /// Highest durable sealed epoch (`N`); the recovered server resumes
    /// sealing at `N + 1`.
    pub max_sealed: u64,
    /// First durable sealed epoch, or 0 when the WAL has no seals.  The base
    /// is not necessarily 1: warm-up consumes epochs before the first
    /// streamed seal.  Subsequent seals must be gap-free from here.
    pub first_sealed: u64,
    /// Sealed epochs `first_sealed..=N`, ascending, gap-free.
    pub sealed: Vec<SealedEpoch>,
    /// Per-tenant admitted-but-unsealed events, in admit order, to put back
    /// into the ingress queues.
    pub tails: Vec<Vec<InteractionEvent>>,
    /// Per-tenant count of durable submit outcomes (admits *and* drops) —
    /// the index from which a client should resume submission.
    pub admits: Vec<u64>,
    /// Per-tenant drops at the bound (`DropNewest`).
    pub dropped_newest: Vec<u64>,
    /// Per-tenant drops by the token-bucket rate limit.
    pub dropped_throttled: Vec<u64>,
    /// Per-tenant events answered from the embedding cache (`ServeStale`).
    /// Counted like drops for tail purposes — the event never queued — but
    /// reported separately because the client did receive a (stale) result.
    pub served_stale: Vec<u64>,
    /// Per-tenant `DropOldest` evictions.
    pub evicted: Vec<u64>,
    /// Per-tenant largest durable submitted timestamp
    /// (`f64::NEG_INFINITY` when the tenant never submitted) — the
    /// chronology floor to reimpose after restart.
    pub max_timestamp: Vec<f64>,
}

fn remove_by_identity(
    queue: &mut Vec<InteractionEvent>,
    event: &InteractionEvent,
    what: &str,
) -> Result<(), DurableError> {
    match queue.iter().position(|e| e == event) {
        Some(i) => {
            queue.remove(i);
            Ok(())
        }
        None => Err(DurableError::corrupt(format!(
            "{what} references event (src {}, dst {}, edge {}, t {}) with no durable unsealed admit",
            event.src, event.dst, event.edge_id, event.timestamp
        ))),
    }
}

/// Builds a [`RecoveryPlan`] from a WAL scan.  `num_tenants` is the size of
/// the restarting server's tenant table; a record referencing a tenant
/// outside it fails the plan (the tenant configuration must not shrink
/// across a restart).
pub fn plan_recovery(scan: &WalScan, num_tenants: usize) -> Result<RecoveryPlan, DurableError> {
    let mut plan = RecoveryPlan {
        tails: vec![Vec::new(); num_tenants],
        admits: vec![0; num_tenants],
        dropped_newest: vec![0; num_tenants],
        dropped_throttled: vec![0; num_tenants],
        served_stale: vec![0; num_tenants],
        evicted: vec![0; num_tenants],
        max_timestamp: vec![f64::NEG_INFINITY; num_tenants],
        ..RecoveryPlan::default()
    };
    let tenant = |t: u32| -> Result<usize, DurableError> {
        let t = t as usize;
        if t < num_tenants {
            Ok(t)
        } else {
            Err(DurableError::corrupt(format!(
                "WAL references tenant {t} but the server has {num_tenants} tenants"
            )))
        }
    };
    for rec in &scan.records {
        match rec {
            WalRecord::Admit {
                tenant: t,
                event,
                disposition,
            } => {
                let t = tenant(*t)?;
                plan.admits[t] += 1;
                if event.timestamp > plan.max_timestamp[t] {
                    plan.max_timestamp[t] = event.timestamp;
                }
                match disposition {
                    AdmitDisposition::Admitted => plan.tails[t].push(*event),
                    AdmitDisposition::DroppedNewest => plan.dropped_newest[t] += 1,
                    AdmitDisposition::DroppedThrottled => plan.dropped_throttled[t] += 1,
                    AdmitDisposition::ServedStale => plan.served_stale[t] += 1,
                }
            }
            WalRecord::Evict { tenant: t, event } => {
                let t = tenant(*t)?;
                plan.evicted[t] += 1;
                remove_by_identity(&mut plan.tails[t], event, "Evict")?;
            }
            WalRecord::Seal { epoch, events } => {
                if plan.first_sealed == 0 {
                    if *epoch == 0 {
                        return Err(DurableError::corrupt("Seal epoch 0 is invalid"));
                    }
                    plan.first_sealed = *epoch;
                } else if *epoch != plan.max_sealed + 1 {
                    return Err(DurableError::corrupt(format!(
                        "Seal epoch {epoch} after {} — the seal sequence must be gap-free",
                        plan.max_sealed
                    )));
                }
                for (t, event) in events {
                    remove_by_identity(&mut plan.tails[tenant(*t)?], event, "Seal")?;
                }
                plan.max_sealed = *epoch;
                plan.sealed.push(SealedEpoch {
                    epoch: *epoch,
                    events: events.clone(),
                });
            }
            WalRecord::Ack { epoch } => {
                if *epoch > plan.max_sealed {
                    return Err(DurableError::corrupt(format!(
                        "Ack for epoch {epoch} precedes its seal (max sealed {})",
                        plan.max_sealed
                    )));
                }
                if *epoch > plan.acked {
                    plan.acked = *epoch;
                }
            }
            WalRecord::SnapshotMark { .. } => {}
        }
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(src: u32, t: f64) -> InteractionEvent {
        InteractionEvent::new(src, src + 1, src, t)
    }

    fn admit(tenant: u32, event: InteractionEvent) -> WalRecord {
        WalRecord::Admit {
            tenant,
            event,
            disposition: AdmitDisposition::Admitted,
        }
    }

    fn scan_of(records: Vec<WalRecord>) -> WalScan {
        WalScan {
            records,
            ..WalScan::default()
        }
    }

    #[test]
    fn tails_exclude_sealed_and_evicted_events() {
        // Tenant 0 admits e0..e3; e0 and e2 seal (scheduler had drained e2
        // past e1), e1 is evicted by DropOldest, e3 remains in the tail.
        let (e0, e1, e2, e3) = (ev(0, 1.0), ev(1, 2.0), ev(2, 3.0), ev(3, 4.0));
        let plan = plan_recovery(
            &scan_of(vec![
                admit(0, e0),
                admit(0, e1),
                admit(0, e2),
                WalRecord::Seal {
                    epoch: 1,
                    events: vec![(0, e0), (0, e2)],
                },
                WalRecord::Evict {
                    tenant: 0,
                    event: e1,
                },
                admit(0, e3),
                WalRecord::Ack { epoch: 1 },
            ]),
            1,
        )
        .unwrap();
        assert_eq!(plan.tails[0], vec![e3]);
        assert_eq!(plan.acked, 1);
        assert_eq!(plan.max_sealed, 1);
        assert_eq!(plan.admits[0], 4);
        assert_eq!(plan.evicted[0], 1);
        assert_eq!(plan.max_timestamp[0], 4.0);
    }

    #[test]
    fn drops_are_counted_not_queued() {
        let plan = plan_recovery(
            &scan_of(vec![
                WalRecord::Admit {
                    tenant: 0,
                    event: ev(0, 1.0),
                    disposition: AdmitDisposition::DroppedNewest,
                },
                WalRecord::Admit {
                    tenant: 0,
                    event: ev(1, 2.0),
                    disposition: AdmitDisposition::DroppedThrottled,
                },
                WalRecord::Admit {
                    tenant: 0,
                    event: ev(2, 3.0),
                    disposition: AdmitDisposition::ServedStale,
                },
            ]),
            1,
        )
        .unwrap();
        assert!(plan.tails[0].is_empty());
        assert_eq!(plan.admits[0], 3);
        assert_eq!(plan.dropped_newest[0], 1);
        assert_eq!(plan.dropped_throttled[0], 1);
        assert_eq!(plan.served_stale[0], 1);
        assert_eq!(plan.max_timestamp[0], 3.0);
    }

    #[test]
    fn invariant_violations_are_corruption() {
        // Seal gap (the base epoch is free — warm-up consumes epochs — but
        // subsequent seals must be contiguous).
        assert!(plan_recovery(
            &scan_of(vec![
                WalRecord::Seal {
                    epoch: 3,
                    events: vec![],
                },
                WalRecord::Seal {
                    epoch: 5,
                    events: vec![],
                },
            ]),
            1,
        )
        .is_err());
        // Seal of an event with no durable admit.
        assert!(plan_recovery(
            &scan_of(vec![WalRecord::Seal {
                epoch: 1,
                events: vec![(0, ev(0, 1.0))],
            }]),
            1,
        )
        .is_err());
        // Ack beyond the sealed watermark.
        assert!(plan_recovery(&scan_of(vec![WalRecord::Ack { epoch: 1 }]), 1).is_err());
        // Tenant outside the table.
        assert!(plan_recovery(&scan_of(vec![admit(3, ev(0, 1.0))]), 1).is_err());
    }
}
