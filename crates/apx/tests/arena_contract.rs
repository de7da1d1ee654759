//! `BytesCodec` decodes into the byte shim's thread-local arena
//! (`bytes::arena`, DESIGN.md §12), the one the Beam coders use: a tuple
//! that crossed a `Link::Network` stream is a view of a 64 KiB chunk
//! owned by the container thread that decoded it. What an owned copy per
//! tuple gave for free is pinned here through a real stream: one
//! thread's tuples lie back to back in one chunk, read unchanged after
//! their container's thread has exited, and values over 16 KiB and empty
//! ones stay out of the arena. The rest of the contract (views outlive
//! chunk rolls, free their chunk on any thread, never share a chunk
//! across threads) belongs to the shared function and is pinned through
//! the Beam coders in `crates/beamline/tests/arena_contract.rs`.

use apx::testkit::{VecInput, VecOutput};
use apx::{BytesCodec, Dag, Link, Stram, StramConfig};
use bytes::arena::{CHUNK, MAX_VALUE};
use bytes::Bytes;
use std::sync::Arc;
use yarnsim::{Resource, ResourceManager};

/// `len` bytes that differ between payloads and between positions.
fn payload(len: usize, salt: u8) -> Bytes {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt))
        .collect()
}

/// Ships `items` from an input container to an output container over a
/// `Link::Network` stream and returns what the output decoded, after
/// every container thread has exited.
fn across_the_buffer_server(items: Vec<Bytes>) -> Vec<Bytes> {
    let mut rm = ResourceManager::new();
    rm.register_node(Resource::new(64 * 1024, 32));
    let dag = Dag::new("arena");
    let out = VecOutput::new();
    dag.add_input("in", VecInput::new(items))
        .expect("input")
        .add_output("out", out.clone(), Link::Network(Arc::new(BytesCodec)))
        .expect("network output");
    Stram::run(&dag, &mut rm, &StramConfig::default()).expect("fault-free run");
    out.snapshot()
}

#[test]
fn network_tuples_are_consecutive_views_of_the_decoders_chunk() {
    // Fewer than a chunk's worth of small tuples, with an empty and an
    // oversize one among them.
    let sent: Vec<Bytes> = (0..40u8)
        .map(|salt| match salt {
            10 => Bytes::new(),
            20 => payload(MAX_VALUE + 1, salt),
            _ => payload(100 + usize::from(salt), salt),
        })
        .collect();
    let received = across_the_buffer_server(sent.clone());
    assert_eq!(received, sent, "tuples changed after their decoder exited");

    let (outside, inside): (Vec<&Bytes>, Vec<&Bytes>) = received
        .iter()
        .partition(|b| b.is_empty() || b.len() > MAX_VALUE);
    assert_eq!(outside.len(), 2);
    assert!(outside[0].is_static(), "an empty tuple holds no chunk");
    // Each arena tuple starts where the one decoded before it ended:
    // the empty and the oversize tuple took no arena space.
    for pair in inside.windows(2) {
        assert_eq!(
            pair[0].as_ptr() as usize + pair[0].len(),
            pair[1].as_ptr() as usize,
            "decoded tuples are not back to back in the decoder's arena"
        );
    }
    let (first, last) = (inside[0], inside[inside.len() - 1]);
    let span = last.as_ptr() as usize + last.len() - first.as_ptr() as usize;
    assert!(span <= CHUNK, "one thread's tuples span {span} bytes");
}
