//! The coded data plane's arena contract (DESIGN.md §12). Decoded byte
//! values are views of a 64 KiB chunk owned by the decoding thread, so
//! what the copying decode gave for free has to be pinned: a view never
//! changes, outlives its chunk's turn as the active one and the thread
//! that wrote it, frees the chunk wherever it is dropped, and never
//! shares a chunk with another thread's values; values over 16 KiB and
//! empty ones stay out of the arena; an interned topic is the string the
//! owned decode produced.

use beamline::{
    BytesCoder, Coder, Instant, KafkaRecord, KafkaRecordCoder, Kv, KvCoder, StrUtf8Coder,
    WindowedValue, WindowedValueCoder,
};
use bytes::Bytes;
use proptest::prelude::*;
use std::sync::{mpsc, Arc};

/// One arena chunk, as `beamline::arena` sizes it.
const CHUNK: usize = 64 << 10;

/// `bytes::pool_stats` counts for the whole process: tests that read it
/// or turn chunks over run one at a time.
static ONE_AT_A_TIME: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

/// Payload lengths around every branch of the arena: empty (no
/// refcount), tiny, the 16 KiB owned-copy limit ± 1, and larger than a
/// whole chunk.
fn arb_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        Just(1usize),
        Just((16 << 10) - 1),
        Just(16usize << 10),
        Just((16 << 10) + 1),
        Just(CHUNK + 4_464),
        0usize..300,
    ]
}

/// `len` bytes that differ between payloads and between positions.
fn payload(len: usize, salt: u8) -> Bytes {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt))
        .collect()
}

fn bytes_coder() -> Arc<dyn Coder<Bytes>> {
    Arc::new(BytesCoder)
}

fn decode(value: &Bytes) -> Bytes {
    BytesCoder
        .decode_all(&BytesCoder.encode_to_vec(value))
        .expect("round trip")
}

proptest! {
    /// Every coder that carries bytes round-trips every size class, in
    /// sequences long enough to roll chunks mid-sequence.
    #[test]
    fn coders_round_trip_across_the_size_classes(
        shapes in prop::collection::vec((arb_len(), any::<u8>()), 1..12),
    ) {
        let _alone = ONE_AT_A_TIME.lock();
        let kv_coder = KvCoder::new(bytes_coder(), bytes_coder());
        let mut held = Vec::new();
        for (len, salt) in shapes {
            let value = payload(len, salt);
            let key = value.slice(..len.min(40));

            let decoded = decode(&value);
            prop_assert_eq!(&decoded, &value);
            prop_assert_eq!(decoded.is_static(), len == 0, "only an empty view is refcount-free");
            held.push((decoded, value.clone()));

            let kv = Kv::new(key.clone(), value.clone());
            prop_assert_eq!(kv_coder.decode_all(&kv_coder.encode_to_vec(&kv)).unwrap(), kv);

            let record = KafkaRecord {
                topic: "in".into(),
                partition: 3,
                offset: len as u64,
                timestamp_micros: -7,
                key: (salt % 2 == 0).then(|| key.clone()),
                value: value.clone(),
            };
            prop_assert_eq!(
                KafkaRecordCoder.decode_all(&KafkaRecordCoder.encode_to_vec(&record)).unwrap(),
                record
            );

            let element = WindowedValue::timestamped(value, Instant(i64::from(salt)));
            prop_assert_eq!(
                WindowedValueCoder.decode_all(&WindowedValueCoder.encode_to_vec(&element)).unwrap(),
                element
            );
        }
        // Later decodes never wrote over earlier views.
        for (decoded, value) in held {
            prop_assert_eq!(decoded, value);
        }
    }

    /// The interned topic is the string the owned decode produced, for
    /// any UTF-8, whichever topic the thread decoded before.
    #[test]
    fn interned_topic_equals_the_string_path(first in ".{0,40}", second in ".{0,40}") {
        let _alone = ONE_AT_A_TIME.lock();
        let record = |topic: &str| KafkaRecord {
            topic: topic.into(),
            partition: 0,
            offset: 1,
            timestamp_micros: 2,
            key: None,
            value: Bytes::from_static(b"v"),
        };
        for topic in [&first, &second, &first] {
            let encoded = KafkaRecordCoder.encode_to_vec(&record(topic));
            // A record's encoding starts with its topic, laid out as
            // `StrUtf8Coder` lays out a string.
            let as_string = StrUtf8Coder.decode(&mut &encoded[..]).unwrap();
            let decoded = KafkaRecordCoder.decode_all(&encoded).unwrap();
            prop_assert_eq!(&*decoded.topic, as_string.as_str());
            prop_assert_eq!(&*decoded.topic, topic.as_str());
            let again = KafkaRecordCoder.decode_all(&encoded).unwrap();
            prop_assert!(Arc::ptr_eq(&decoded.topic, &again.topic), "same topic, same allocation");
        }
    }
}

#[test]
fn a_malformed_topic_is_a_coder_error_and_poisons_nothing() {
    let _alone = ONE_AT_A_TIME.lock();
    let record = KafkaRecord {
        topic: "topic".into(),
        partition: 0,
        offset: 0,
        timestamp_micros: 0,
        key: None,
        value: Bytes::from_static(b"v"),
    };
    let good = KafkaRecordCoder.encode_to_vec(&record);
    assert_eq!(KafkaRecordCoder.decode_all(&good).unwrap(), record);
    let mut bad = good.clone();
    bad[1] = 0xff; // first topic byte, behind the one-byte length
    assert!(KafkaRecordCoder.decode_all(&bad).is_err());
    assert_eq!(KafkaRecordCoder.decode_all(&good).unwrap(), record);
}

#[test]
fn views_outlive_their_chunk_and_their_thread() {
    let _alone = ONE_AT_A_TIME.lock();
    let expected: Vec<Bytes> = (0..50u8)
        .map(|salt| payload(90 + usize::from(salt), salt))
        .collect();
    let decoder = {
        let expected = expected.clone();
        std::thread::spawn(move || {
            let held: Vec<Bytes> = expected.iter().map(decode).collect();
            // 100 000 further decodes roll the thread's arena through
            // some 150 chunks, most of them recycled ones.
            let filler = payload(100, 0xa5);
            for _ in 0..100_000 {
                assert_eq!(decode(&filler).len(), 100);
            }
            assert_eq!(held, expected, "views changed under later decodes");
            held
        })
    };
    let held = decoder.join().expect("decoding thread");
    assert_eq!(held, expected, "views changed when their thread exited");
}

#[test]
fn a_view_dropped_on_another_thread_frees_its_chunk() {
    let _alone = ONE_AT_A_TIME.lock();
    // The decoding thread exits, so the view is its chunk's last owner.
    let view = std::thread::spawn(|| decode(&payload(1_000, 1)))
        .join()
        .expect("decoding thread");
    let (_, reclaimed_before) = bytes::pool_stats();
    std::thread::spawn(move || drop(view))
        .join()
        .expect("dropping thread");
    let (_, reclaimed) = bytes::pool_stats();
    assert!(
        reclaimed > reclaimed_before,
        "the last view's drop must hand the chunk to the chunk pool"
    );
}

#[test]
fn two_threads_never_share_a_chunk() {
    let _alone = ONE_AT_A_TIME.lock();
    let (sender, views) = mpsc::channel();
    let (release, threads): (Vec<_>, Vec<_>) = (0..2u8)
        .map(|salt| {
            let sender = sender.clone();
            let (release, released) = mpsc::channel::<()>();
            let thread = std::thread::spawn(move || {
                let views: Vec<Bytes> = (0..3).map(|_| decode(&payload(1_000, salt))).collect();
                sender.send(views).expect("main thread is receiving");
                // Keep this thread's arena on its chunk until the other
                // thread has decoded too, so the allocator cannot hand
                // one address to both.
                let _ = released.recv();
            });
            (release, thread)
        })
        .unzip();
    let held: Vec<Vec<Bytes>> = (0..2)
        .map(|_| views.recv().expect("a decoding thread's views"))
        .collect();
    drop(release);
    for thread in threads {
        thread.join().expect("decoding thread");
    }
    // One thread's values are packed back to back from the start of the
    // fresh chunk its first decode opened.
    for views in &held {
        for pair in views.windows(2) {
            assert_eq!(pair[0].as_ptr() as usize + 1_000, pair[1].as_ptr() as usize);
        }
    }
    let (a, b) = (held[0][0].as_ptr() as usize, held[1][0].as_ptr() as usize);
    assert!(
        a.abs_diff(b) >= CHUNK,
        "two threads' values lie within one chunk of each other"
    );
}

#[test]
fn a_chunk_whose_views_die_on_their_thread_returns_while_it_lives() {
    let _alone = ONE_AT_A_TIME.lock();
    // What the rill and dstream Beam stages do: decode, use, drop, all
    // on one long-lived thread. Ten chunks' worth of 100-byte values
    // and one more roll the thread's arena through eleven chunks.
    const VALUES: usize = CHUNK / 100 * 10 + 1;
    std::thread::spawn(|| {
        let value = payload(100, 7);
        let (_, reclaimed_before) = bytes::pool_stats();
        for _ in 0..VALUES {
            assert_eq!(decode(&value), value);
        }
        let (_, reclaimed) = bytes::pool_stats();
        assert_eq!(
            reclaimed - reclaimed_before,
            10,
            "every chunk the arena rolled past must be back in the pool \
             before the decoding thread exits"
        );
    })
    .join()
    .expect("decoding thread");
}
