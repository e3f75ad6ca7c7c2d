//! Reusable scratch buffers for the allocation-free inference hot path.
//!
//! Every per-batch kernel invocation (GEMM packing, GRU gates, attention
//! projections, time encodings) needs temporary storage.  Allocating it per
//! call puts `malloc`/`free` on the critical path of every vertex — measurable
//! at the paper's batch sizes, where a single embedding touches a dozen small
//! temporaries.  A [`Workspace`] instead owns a pool of `Vec<f32>` buffers
//! that callers check out ([`Workspace::take`]) and return
//! ([`Workspace::recycle`]); after a warm-up call per shape, the pool serves
//! every request from reused capacity and the hot path performs no heap
//! allocation.
//!
//! The type is deliberately not `Sync`: parallel code gives each worker its
//! own `Workspace` (per-thread workspaces), which also keeps buffer reuse
//! contention-free.

use crate::{Float, Matrix};

/// A pool of reusable `f32` buffers plus a dedicated GEMM packing buffer.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Recycled general-purpose buffers, unordered.
    pool: Vec<Vec<Float>>,
    /// Dedicated buffer for packed GEMM panels (held separately because it is
    /// in use for the whole duration of a GEMM while `pool` buffers may be
    /// taken concurrently for the output).
    pack: Vec<Float>,
    /// Recycled `i8` buffers for the quantized hot path (activation
    /// quantization scratch of the int8 GEMM).
    pool_i8: Vec<Vec<i8>>,
    /// Number of times a request could not be served from pooled capacity.
    heap_allocs: u64,
}

impl Workspace {
    /// Creates an empty workspace (no buffers are reserved up front; the pool
    /// grows to the working set of whatever kernels run through it).
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks out a zero-filled buffer of exactly `len` elements.
    ///
    /// Takes the pooled buffer with the smallest capacity that fits, so
    /// large buffers stay free for large requests; when none fits, the
    /// largest one, which grows once and then serves that shape.
    pub fn take(&mut self, len: usize) -> Vec<Float> {
        let mut buf = match best_fit(&self.pool, len) {
            Some(idx) => self.pool.swap_remove(idx),
            None => {
                self.heap_allocs += 1;
                Vec::with_capacity(len)
            }
        };
        if buf.capacity() < len {
            self.heap_allocs += 1;
        }
        buf.clear();
        buf.resize(len, 0.0);
        buf
    }

    /// Checks out a zero-filled `rows × cols` matrix.
    pub fn take_matrix(&mut self, rows: usize, cols: usize) -> Matrix {
        Matrix::from_vec(rows, cols, self.take(rows * cols))
    }

    /// Returns a buffer to the pool for reuse.
    pub fn recycle(&mut self, buf: Vec<Float>) {
        if buf.capacity() > 0 {
            self.pool.push(buf);
        }
    }

    /// Returns a matrix's backing buffer to the pool for reuse.
    pub fn recycle_matrix(&mut self, m: Matrix) {
        self.recycle(m.into_vec());
    }

    /// Checks out a zero-filled `i8` buffer of exactly `len` elements (the
    /// int8 analogue of [`Self::take`], used for quantized activations).
    /// Same smallest-fit reuse policy as the f32 pool.
    pub fn take_i8(&mut self, len: usize) -> Vec<i8> {
        let mut buf = match best_fit(&self.pool_i8, len) {
            Some(idx) => self.pool_i8.swap_remove(idx),
            None => {
                self.heap_allocs += 1;
                Vec::with_capacity(len)
            }
        };
        if buf.capacity() < len {
            self.heap_allocs += 1;
        }
        buf.clear();
        buf.resize(len, 0);
        buf
    }

    /// Returns an `i8` buffer to the pool for reuse.
    pub fn recycle_i8(&mut self, buf: Vec<i8>) {
        if buf.capacity() > 0 {
            self.pool_i8.push(buf);
        }
    }

    /// Number of requests (including pack-buffer growth) that had to touch
    /// the heap since construction.  Steady-state hot-path code keeps this
    /// constant across calls — asserted by the workspace-reuse tests.
    pub fn heap_allocs(&self) -> u64 {
        self.heap_allocs
    }

    /// Capacity, in elements, of the largest buffer in the `f32` pool: once
    /// a computation has handed its buffers back, the largest single
    /// temporary it needed (0 for an empty pool).
    pub fn largest_pooled(&self) -> usize {
        self.pool.iter().map(Vec::capacity).max().unwrap_or(0)
    }

    /// The dedicated packing buffer, grown to at least `len` elements.
    /// Contents are unspecified; the GEMM packing routines overwrite the
    /// region they use.
    pub(crate) fn pack_buffer(&mut self, len: usize) -> &mut [Float] {
        if self.pack.len() < len {
            if self.pack.capacity() < len {
                self.heap_allocs += 1;
            }
            self.pack.resize(len, 0.0);
        }
        &mut self.pack[..len]
    }
}

/// Index of the pooled buffer best suited for `len` elements: the smallest
/// capacity that fits, or the largest overall if none fits (it will grow
/// once and then serve everything).  Shared by the f32 and i8 pools so
/// their reuse policies cannot drift.
fn best_fit<T>(pool: &[Vec<T>], len: usize) -> Option<usize> {
    let mut fitting: Option<(usize, usize)> = None;
    let mut largest: Option<(usize, usize)> = None;
    for (idx, buf) in pool.iter().enumerate() {
        let cap = buf.capacity();
        if cap >= len && fitting.is_none_or(|(_, best)| cap < best) {
            fitting = Some((idx, cap));
        }
        if largest.is_none_or(|(_, best)| cap > best) {
            largest = Some((idx, cap));
        }
    }
    fitting.or(largest).map(|(idx, _)| idx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_zeroed_exact_length() {
        let mut ws = Workspace::new();
        let mut buf = ws.take(10);
        assert_eq!(buf.len(), 10);
        assert!(buf.iter().all(|&x| x == 0.0));
        buf.iter_mut().for_each(|x| *x = 7.0);
        ws.recycle(buf);
        // A reused buffer is zeroed again — no state leaks between users.
        let again = ws.take(10);
        assert!(again.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn steady_state_is_allocation_free() {
        let mut ws = Workspace::new();
        // Warm-up: the first round allocates.
        for len in [64usize, 32, 128] {
            let buf = ws.take(len);
            ws.recycle(buf);
        }
        let warm = ws.heap_allocs();
        // Steady state: same shapes, no further heap traffic.
        for _ in 0..100 {
            for len in [64usize, 32, 128] {
                let buf = ws.take(len);
                ws.recycle(buf);
            }
        }
        assert_eq!(
            ws.heap_allocs(),
            warm,
            "steady-state take/recycle must not allocate"
        );
    }

    #[test]
    fn concurrent_checkouts_get_distinct_buffers() {
        let mut ws = Workspace::new();
        let a = ws.take(8);
        let b = ws.take(8);
        assert_ne!(a.as_ptr(), b.as_ptr());
        ws.recycle(a);
        ws.recycle(b);
    }

    #[test]
    fn largest_pooled_reports_the_high_water_buffer() {
        let mut ws = Workspace::new();
        assert_eq!(ws.largest_pooled(), 0);
        let (a, b) = (ws.take(8), ws.take(32));
        assert_eq!(ws.largest_pooled(), 0, "checked-out buffers are not pooled");
        ws.recycle(a);
        ws.recycle(b);
        assert!(ws.largest_pooled() >= 32);
        let mut m = ws.take_matrix(2, 16);
        m.resize_rows(1);
        m.resize_rows(2);
        ws.recycle_matrix(m);
        assert_eq!(
            ws.largest_pooled(),
            32,
            "resizing within capacity grows nothing"
        );
    }

    #[test]
    fn take_matrix_shapes() {
        let mut ws = Workspace::new();
        let m = ws.take_matrix(3, 5);
        assert_eq!(m.shape(), (3, 5));
        ws.recycle_matrix(m);
        let m2 = ws.take_matrix(5, 3);
        assert_eq!(m2.shape(), (5, 3));
    }

    #[test]
    fn i8_pool_is_allocation_free_in_steady_state() {
        let mut ws = Workspace::new();
        for len in [64usize, 32, 256] {
            let buf = ws.take_i8(len);
            ws.recycle_i8(buf);
        }
        let warm = ws.heap_allocs();
        for _ in 0..100 {
            for len in [64usize, 32, 256] {
                let mut buf = ws.take_i8(len);
                assert_eq!(buf.len(), len);
                assert!(buf.iter().all(|&x| x == 0), "reused i8 buffer not zeroed");
                buf.iter_mut().for_each(|x| *x = -5);
                ws.recycle_i8(buf);
            }
        }
        assert_eq!(ws.heap_allocs(), warm);
    }

    #[test]
    fn pack_buffer_grows_and_is_reused() {
        let mut ws = Workspace::new();
        let _ = ws.pack_buffer(100);
        let allocs = ws.heap_allocs();
        let buf = ws.pack_buffer(50);
        assert_eq!(buf.len(), 50);
        assert_eq!(ws.heap_allocs(), allocs);
    }
}
