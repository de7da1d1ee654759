//! The coded data planes' bump arena: one per thread, whichever engine
//! decodes on it.
//!
//! Every value a decoder copies out of a borrowed frame — a Beam coder's
//! decoded bytes, a stage's emitted payload, an `apx` tuple that crossed
//! the buffer server — is a view of a 64 KiB chunk owned by the thread
//! that wrote it: one `memcpy` per value (the modeled copy of a
//! serialization round trip) and no allocator call, where an owned
//! `Bytes` per value cost two allocations and two frees, usually freed
//! on another thread. [`copy`] is `#[inline]` like the rest of the
//! per-value path ([`BytesMut::pack_view`], the view's deref, clone and
//! drop), so a decoder in another crate pays no call for it: a view made
//! and dropped costs about twice its `memcpy` (`substrates -- byte_view`).
//!
//! Nor does a view pay an atomic: `pack_view` takes its reference out of
//! a block the chunk's writer prepays, and a drop parks it in the
//! dropping thread's table (see the crate docs for who holds a buffer's
//! references and when a chunk goes back to the pool).
//!
//! The arena is thread-local because neither decode signature has
//! anywhere to carry one: `beamline::Coder::decode` and
//! `apx::Codec::decode` take the bytes and return the value, and the
//! benchmark (`ledger/`) calls both with their signatures as they are.
//!
//! **Contract** (DESIGN.md §12): a view pins its whole chunk until it is
//! dropped, so anything that keeps decoded bytes sparsely across bundles
//! must own them; views outlive the thread that made them; the broker
//! copies on append, so topics pin nothing; values over 16 KiB are owned
//! copies; an empty value is `Bytes::new()` and holds no refcount.

use crate::{Bytes, BytesMut};
use std::cell::RefCell;

/// Size of one arena chunk: about 600 coded benchmark records.
pub const CHUNK: usize = 64 << 10;

/// Values larger than this are copied into storage of their own, so one
/// long-lived large value cannot pin a chunk's worth of neighbours and a
/// chunk always fits at least four values.
pub const MAX_VALUE: usize = 16 << 10;

thread_local! {
    static ARENA: RefCell<BytesMut> = RefCell::new(BytesMut::new());
}

/// Copies `data` into the calling thread's arena and returns the view.
#[inline]
pub fn copy(data: &[u8]) -> Bytes {
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
    // pinned through the decoders that call `copy`: beamline's coders in
    // `crates/beamline/tests/arena_contract.rs`, apx's `BytesCodec` in
    // `crates/apx/tests/arena_contract.rs`.
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
