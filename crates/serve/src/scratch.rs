//! Reusable per-worker query scratch.
//!
//! The block-max kernel keeps all per-query state in a
//! [`QueryScratch`] whose buffers size themselves on first use and are
//! stable thereafter. A worker checks one out of a shared pool at its
//! first cache miss (a hit never needs one), reuses it for every
//! further miss it answers, and returns it on drop, so in steady state
//! the pool holds one scratch per concurrent worker and the kernel
//! performs no heap allocation beyond its result vector. A checkout
//! costs a mutex, a pop and a move of the scratch, and its drop a push.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use tcam_rec::QueryScratch;

/// A lock-guarded free list of [`QueryScratch`] buffers.
#[derive(Debug, Default)]
pub struct ScratchPool {
    idle: Mutex<Vec<QueryScratch>>,
    created: AtomicUsize,
}

impl ScratchPool {
    /// Creates an empty pool; buffers are created lazily on first
    /// checkout and recycled thereafter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a buffer out of the pool (allocating a fresh one only when
    /// the pool is empty). The buffer returns to the pool when the
    /// guard drops.
    pub fn checkout(&self) -> ScratchGuard<'_> {
        // tcam-lint: allow(no-panic) -- a poisoned pool means a panic already happened
        let recycled = self.idle.lock().expect("scratch pool poisoned").pop();
        let scratch = recycled.unwrap_or_else(|| {
            self.created.fetch_add(1, Ordering::Relaxed);
            QueryScratch::new()
        });
        ScratchGuard { pool: self, scratch }
    }

    /// Total buffers ever allocated — in steady state this equals the
    /// peak number of concurrent workers, not the query count.
    pub fn created(&self) -> usize {
        self.created.load(Ordering::Relaxed)
    }

    /// Buffers currently parked in the pool.
    pub fn idle(&self) -> usize {
        // tcam-lint: allow(no-panic) -- a poisoned pool means a panic already happened
        self.idle.lock().expect("scratch pool poisoned").len()
    }
}

/// RAII handle returning its scratch to the pool on drop.
#[derive(Debug)]
pub struct ScratchGuard<'a> {
    pool: &'a ScratchPool,
    scratch: QueryScratch,
}

impl Deref for ScratchGuard<'_> {
    type Target = QueryScratch;
    fn deref(&self) -> &QueryScratch {
        &self.scratch
    }
}

impl DerefMut for ScratchGuard<'_> {
    fn deref_mut(&mut self) -> &mut QueryScratch {
        &mut self.scratch
    }
}

impl Drop for ScratchGuard<'_> {
    fn drop(&mut self) {
        // The empty scratch left behind allocates nothing. A poisoned
        // pool (a panic already happened) just drops the scratch: a
        // panic in `drop` could abort the process.
        if let Ok(mut idle) = self.pool.idle.lock() {
            idle.push(std::mem::take(&mut self.scratch));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_checkouts_reuse_one_buffer() {
        let pool = ScratchPool::new();
        for _ in 0..100 {
            let guard = pool.checkout();
            std::hint::black_box(guard.fingerprint());
        }
        assert_eq!(pool.created(), 1, "drop must recycle, not leak");
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn concurrent_checkouts_get_distinct_buffers() {
        let pool = ScratchPool::new();
        let a = pool.checkout();
        let b = pool.checkout();
        assert_eq!(pool.created(), 2);
        drop(a);
        drop(b);
        assert_eq!(pool.idle(), 2);
        // Both come back out of the pool without new allocations.
        let _c = pool.checkout();
        let _d = pool.checkout();
        assert_eq!(pool.created(), 2);
    }

    #[test]
    fn pool_is_usable_across_threads() {
        let pool = ScratchPool::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        let guard = pool.checkout();
                        std::hint::black_box(guard.fingerprint());
                    }
                });
            }
        });
        assert!(pool.created() <= 4, "at most one buffer per worker");
        assert_eq!(pool.idle(), pool.created());
    }
}
