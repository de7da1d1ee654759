//! The coded data plane's bump arena.
//!
//! Every value a coder decodes and every payload a stage emits is a
//! refcounted view of a 64 KiB chunk owned by the thread that wrote it:
//! one `memcpy` per value (the modeled copy of a coder round trip) and no
//! allocator call, where an owned `Bytes` per value cost two allocations
//! and two frees, usually freed on another thread. A view is a
//! `(ptr, len, owner)` triple of three words: reading it never touches
//! the chunk's header, and making, reading and dropping one inline into
//! this crate (`shims/bytes` marks that path `#[inline]`): a view made
//! and dropped costs about twice its `memcpy` (`substrates -- byte_view`).
//!
//! Nor does a view pay an atomic: `BytesMut::pack_view` takes its
//! reference out of a block the chunk's writer prepays, 256 at a time,
//! and a drop parks it in the dropping thread's table, where the next
//! clone finds it. A chunk's references are held by its live views, the
//! writer's prepaid block and those parked entries, and the chunk goes
//! back to the pool when a sole holder drops (a view whose thread holds
//! every other reference, or the writer rolling past a chunk whose views
//! all died on its thread), when its entry is evicted, or when a thread
//! holding parked references exits. `unsafe` stays in `shims/bytes`.
//!
//! The arena is thread-local because `Coder::decode` has nowhere to carry
//! one: the benchmark (`ledger/`) calls the trait with its signatures as
//! they are.
//!
//! **Contract** (DESIGN.md §12): a view pins its whole chunk until it is
//! dropped, so anything that keeps decoded bytes sparsely across bundles
//! must own them; views outlive the thread that made them; the broker
//! copies on append, so topics pin nothing; values over 16 KiB are owned
//! copies; an empty value is `Bytes::new()` and holds no refcount.

use bytes::{Bytes, BytesMut};
use std::cell::RefCell;

/// Size of one arena chunk: about 600 coded benchmark records.
const CHUNK: usize = 64 << 10;

/// Values larger than this are copied into storage of their own, so one
/// long-lived large value cannot pin a chunk's worth of neighbours and a
/// chunk always fits at least four values.
const MAX_VALUE: usize = 16 << 10;

thread_local! {
    static ARENA: RefCell<BytesMut> = RefCell::new(BytesMut::new());
}

/// Copies `data` into the calling thread's arena and returns the view.
pub(crate) fn copy(data: &[u8]) -> Bytes {
    if data.is_empty() {
        return Bytes::new();
    }
    if data.len() > MAX_VALUE {
        return Bytes::copy_from_slice(data);
    }
    ARENA.with(|arena| {
        let mut arena = arena.borrow_mut();
        if arena.capacity() < data.len() {
            *arena = BytesMut::with_capacity(CHUNK);
        }
        arena.pack_view(data)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // The rest of the contract — views that outlive chunk and thread,
    // chunks freed from other threads, no sharing between threads — is
    // pinned through the coders in `tests/arena_contract.rs`.
    #[test]
    fn empty_and_oversize_values_stay_out_of_the_arena() {
        assert!(copy(b"").is_static());
        let before = copy(b"x");
        let big = copy(&vec![7u8; MAX_VALUE + 1]);
        let after = copy(b"y");
        assert_eq!(big.len(), MAX_VALUE + 1);
        assert_eq!(
            before.as_ptr() as usize + 1,
            after.as_ptr() as usize,
            "an oversize value must not consume arena space"
        );
        // The largest arena value still lands in the arena.
        let edge = copy(&vec![9u8; MAX_VALUE]);
        assert_eq!(
            copy(b"z").as_ptr() as usize,
            edge.as_ptr() as usize + MAX_VALUE
        );
    }
}
