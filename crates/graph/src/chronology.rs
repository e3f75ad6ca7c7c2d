//! Chronological-order validation of event streams.
//!
//! The correctness of memory-based TGNN inference hinges on vertex memory and
//! cached messages being updated in event order (the hardware Updater exists
//! to guarantee exactly this, Section IV-B).  This module checks that a
//! stream is in order.  The per-vertex half of the guarantee is checked
//! where memory is written back: each commit owner (`InferenceEngine`'s
//! update stage, `ShardedMemory::commit_epoch`) compares a row's time with
//! the vertex's stored update time and counts the backwards ones.

use crate::InteractionEvent;

/// Returns `true` if the event slice is sorted by timestamp (ties allowed).
pub fn is_chronological(events: &[InteractionEvent]) -> bool {
    events.windows(2).all(|w| w[0].timestamp <= w[1].timestamp)
}

/// Returns the index of the first out-of-order event, if any.
pub fn first_violation(events: &[InteractionEvent]) -> Option<usize> {
    events
        .windows(2)
        .position(|w| w[0].timestamp > w[1].timestamp)
        .map(|i| i + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Timestamp;

    fn ev(t: Timestamp) -> InteractionEvent {
        InteractionEvent::new(0, 1, 0, t)
    }

    #[test]
    fn detects_order_and_violations() {
        assert!(is_chronological(&[ev(1.0), ev(1.0), ev(2.0)]));
        assert!(!is_chronological(&[ev(2.0), ev(1.0)]));
        assert_eq!(first_violation(&[ev(1.0), ev(3.0), ev(2.0)]), Some(2));
        assert_eq!(first_violation(&[ev(1.0), ev(2.0)]), None);
        assert!(is_chronological(&[]));
    }
}
