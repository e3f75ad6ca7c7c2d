//! A lock-free scalar counter.
//!
//! A handle is a cheap `Arc` clone taken once — at pipeline spawn — and
//! recorded to with a single relaxed atomic op afterwards.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing counter. Cloning shares the underlying cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Creates a counter starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments by one. One relaxed atomic op.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`. One relaxed atomic op.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_roundtrip() {
        let c = Counter::new();
        let shared = c.clone();
        c.add(3);
        c.inc();
        // A clone is a handle onto the same cell.
        assert_eq!(shared.get(), 4);
    }
}
