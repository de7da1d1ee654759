//! Pool tier: capped free-lists for hot-path batch `Vec`s.
//!
//! The batched data plane moves records in `Vec<Record>` buffers. Most
//! of them live their whole life on one thread (producer flush
//! buffers), so the fast tier is a plain thread-local free-list.
//! Buffers that cross threads (the async producer hands batches from
//! the caller thread to its sender thread) drain into a small global
//! overflow list the originating thread refills from, closing the loop
//! without a lock on the same-thread path.
//!
//! Both tiers are capped: at most [`LOCAL_MAX`] / [`GLOBAL_MAX`] idle
//! buffers, each retained only when its capacity is at most
//! [`MAX_KEEP_ELEMS`] elements, so the pool bounds memory instead of
//! hoarding a high-water mark.
//!
//! Record payloads are pooled separately by the `bytes` shim's chunk
//! free-list (see `bytes::pool_stats`), segment indexes by the block
//! pool in `segment.rs`. Besides the record-vector tier this module
//! carries one `u8` tier, whose only user is `apx::stream`'s frame
//! blocks.

use crate::record::Record;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Max idle buffers kept per thread, per type.
const LOCAL_MAX: usize = 32;
/// Max idle buffers kept in the cross-thread overflow list, per type.
const GLOBAL_MAX: usize = 64;
/// Buffers with more capacity than this many elements are dropped
/// rather than pooled.
const MAX_KEEP_ELEMS: usize = 1 << 16;

static REUSED: AtomicUsize = AtomicUsize::new(0);
static RECYCLED: AtomicUsize = AtomicUsize::new(0);

/// (buffers handed back out of the pool, buffers returned to the pool)
/// since process start — a diagnostic hook for tests asserting the
/// recycle loop is live.
pub fn stats() -> (usize, usize) {
    (
        REUSED.load(Ordering::Relaxed),
        RECYCLED.load(Ordering::Relaxed),
    )
}

macro_rules! pool_tier {
    ($acquire:ident, $recycle:ident, $elem:ty, $local:ident, $global:ident) => {
        thread_local! {
            static $local: RefCell<Vec<Vec<$elem>>> = const { RefCell::new(Vec::new()) };
        }
        static $global: Mutex<Vec<Vec<$elem>>> = Mutex::new(Vec::new());

        /// Takes a cleared buffer from the pool, or allocates an empty
        /// one when both tiers are dry.
        pub fn $acquire() -> Vec<$elem> {
            let local = $local.with(|l| l.borrow_mut().pop());
            if let Some(v) = local {
                REUSED.fetch_add(1, Ordering::Relaxed);
                return v;
            }
            if let Some(v) = $global.lock().pop() {
                REUSED.fetch_add(1, Ordering::Relaxed);
                return v;
            }
            Vec::new()
        }

        /// Returns a buffer to the pool (clearing it first). Oversize
        /// buffers and overflow beyond both tiers' caps fall through to
        /// the allocator.
        pub fn $recycle(mut v: Vec<$elem>) {
            v.clear();
            if v.capacity() == 0 || v.capacity() > MAX_KEEP_ELEMS {
                return;
            }
            RECYCLED.fetch_add(1, Ordering::Relaxed);
            let overflow = $local.with(|l| {
                let mut l = l.borrow_mut();
                if l.len() < LOCAL_MAX {
                    l.push(v);
                    None
                } else {
                    Some(v)
                }
            });
            if let Some(v) = overflow {
                let mut g = $global.lock();
                if g.len() < GLOBAL_MAX {
                    g.push(v);
                } else {
                    RECYCLED.fetch_sub(1, Ordering::Relaxed);
                }
            }
        }
    };
}

pool_tier!(
    record_vec,
    recycle_record_vec,
    Record,
    RECORD_VECS,
    RECORD_OVERFLOW
);
// Frame blocks of `apx::stream`'s cross-container links (a publisher
// fills one, the subscriber recycles it); capacity cap = 64 KiB per
// buffer.
pool_tier!(byte_vec, recycle_byte_vec, u8, BYTE_VECS, BYTE_OVERFLOW);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Record;

    #[test]
    fn acquire_recycle_round_trip() {
        let (reused_before, _) = stats();
        let mut v = record_vec();
        v.reserve(128);
        let cap = v.capacity();
        v.push(Record::from_value("x"));
        recycle_record_vec(v);
        let v2 = record_vec();
        assert!(v2.is_empty(), "recycled buffers come back cleared");
        assert!(v2.capacity() >= cap, "capacity is retained");
        let (reused_after, _) = stats();
        assert!(reused_after > reused_before);
    }

    #[test]
    fn zero_capacity_buffers_are_not_pooled() {
        let (_, recycled_before) = stats();
        recycle_record_vec(Vec::new());
        let (_, recycled_after) = stats();
        assert_eq!(recycled_before, recycled_after);
    }

    #[test]
    fn cross_thread_recycling_reaches_the_overflow_tier() {
        let (_, recycled_before) = stats();
        // A worker thread recycles more buffers than its local tier
        // holds; the surplus must land in the global overflow list
        // (worker-local buffers die with the thread otherwise).
        let handle = std::thread::spawn(|| {
            for _ in 0..(LOCAL_MAX + 4) {
                let mut v = record_vec();
                v.reserve(64);
                recycle_record_vec(v);
            }
        });
        handle.join().unwrap();
        let (_, recycled_after) = stats();
        assert!(
            recycled_after >= recycled_before + LOCAL_MAX,
            "worker recycles must be counted past the local cap"
        );
        // Any thread can then draw from the shared pool; buffers always
        // come back cleared.
        let v = record_vec();
        assert!(v.is_empty());
        recycle_record_vec(v);
    }
}
