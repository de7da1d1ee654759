//! Property-based tests for the coder subsystem: round trips, nesting,
//! and the encoded-KV splitting that `GroupByKey` relies on.

use beamline::{
    BytesCoder, Coder, Instant, IterableCoder, Kv, KvCoder, PaneInfo, PaneTiming, StrUtf8Coder,
    VarIntCoder, WindowRef, WindowedValue, WindowedValueCoder,
};
use bytes::Bytes;
use proptest::prelude::*;
use std::sync::Arc;

fn arb_pane() -> impl Strategy<Value = PaneInfo> {
    (
        any::<bool>(),
        any::<bool>(),
        prop_oneof![
            Just(PaneTiming::Early),
            Just(PaneTiming::OnTime),
            Just(PaneTiming::Late),
            Just(PaneTiming::Unknown),
        ],
        any::<u64>(),
    )
        .prop_map(|(is_first, is_last, timing, index)| PaneInfo {
            is_first,
            is_last,
            timing,
            index,
        })
}

fn arb_window() -> impl Strategy<Value = WindowRef> {
    prop_oneof![
        Just(WindowRef::Global),
        (any::<i32>(), 1..1_000_000i64).prop_map(|(start, len)| {
            let start = i64::from(start);
            WindowRef::Interval {
                start: Instant(start),
                end: Instant(start + len),
            }
        }),
    ]
}

proptest! {
    #[test]
    fn bytes_coder_roundtrip(payload in prop::collection::vec(any::<u8>(), 0..512)) {
        let coder = BytesCoder;
        let value = Bytes::from(payload);
        prop_assert_eq!(coder.decode_all(&coder.encode_to_vec(&value)).unwrap(), value);
    }

    #[test]
    fn string_coder_roundtrip(s in ".{0,64}") {
        let coder = StrUtf8Coder;
        prop_assert_eq!(coder.decode_all(&coder.encode_to_vec(&s)).unwrap(), s);
    }

    #[test]
    fn varint_coder_roundtrip(v in any::<i64>()) {
        let coder = VarIntCoder;
        prop_assert_eq!(coder.decode_all(&coder.encode_to_vec(&v)).unwrap(), v);
    }

    #[test]
    fn kv_coder_roundtrip_and_split(key in ".{0,32}", value in any::<i64>()) {
        let coder = KvCoder::new(
            Arc::new(StrUtf8Coder) as Arc<dyn Coder<String>>,
            Arc::new(VarIntCoder) as Arc<dyn Coder<i64>>,
        );
        let kv = Kv::new(key.clone(), value);
        let encoded = coder.encode_to_vec(&kv);
        prop_assert_eq!(coder.decode_all(&encoded).unwrap(), kv);

        // The GBK machinery splits without decoding and rejoins losslessly.
        let (k, v) = beamline::coder::split_encoded_kv(&encoded).unwrap();
        prop_assert_eq!(StrUtf8Coder.decode_all(&k).unwrap(), key);
        prop_assert_eq!(VarIntCoder.decode_all(&v).unwrap(), value);
        prop_assert_eq!(beamline::coder::join_encoded_kv(&k, &v), encoded);
    }

    #[test]
    fn iterable_coder_roundtrip(items in prop::collection::vec(".{0,16}", 0..32)) {
        let coder = IterableCoder::new(Arc::new(StrUtf8Coder) as Arc<dyn Coder<String>>);
        prop_assert_eq!(coder.decode_all(&coder.encode_to_vec(&items)).unwrap(), items);
    }

    #[test]
    fn nested_kv_of_iterable_roundtrip(
        key in prop::collection::vec(any::<u8>(), 0..32),
        values in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..32), 0..16),
    ) {
        // The exact coder GroupByKey declares for its output.
        let coder = KvCoder::new(
            Arc::new(BytesCoder) as Arc<dyn Coder<Bytes>>,
            Arc::new(IterableCoder::new(Arc::new(BytesCoder) as Arc<dyn Coder<Bytes>>))
                as Arc<dyn Coder<Vec<Bytes>>>,
        );
        let kv = Kv::new(
            Bytes::from(key),
            values.into_iter().map(Bytes::from).collect::<Vec<_>>(),
        );
        prop_assert_eq!(coder.decode_all(&coder.encode_to_vec(&kv)).unwrap(), kv);
    }

    #[test]
    fn windowed_value_coder_roundtrip(
        payload in prop::collection::vec(any::<u8>(), 0..256),
        timestamp in any::<i64>(),
        window in arb_window(),
        pane in arb_pane(),
    ) {
        let coder = WindowedValueCoder;
        let value = WindowedValue {
            value: Bytes::from(payload),
            timestamp: Instant(timestamp),
            window,
            pane,
        };
        prop_assert_eq!(coder.decode_all(&coder.encode_to_vec(&value)).unwrap(), value);
    }

    #[test]
    fn coders_reject_truncation(payload in prop::collection::vec(any::<u8>(), 1..128)) {
        let coder = BytesCoder;
        let encoded = coder.encode_to_vec(&Bytes::from(payload));
        // Any strict prefix must fail to decode fully.
        let cut = encoded.len() - 1;
        prop_assert!(coder.decode_all(&encoded[..cut]).is_err());
    }

    #[test]
    fn concatenated_encodings_decode_in_sequence(
        a in ".{0,24}",
        b in ".{0,24}",
        c in any::<i64>(),
    ) {
        // Nested-context behaviour: coders consume exactly their own bytes.
        let mut buf = Vec::new();
        StrUtf8Coder.encode(&a, &mut buf);
        StrUtf8Coder.encode(&b, &mut buf);
        VarIntCoder.encode(&c, &mut buf);
        let mut slice = &buf[..];
        prop_assert_eq!(StrUtf8Coder.decode(&mut slice).unwrap(), a);
        prop_assert_eq!(StrUtf8Coder.decode(&mut slice).unwrap(), b);
        prop_assert_eq!(VarIntCoder.decode(&mut slice).unwrap(), c);
        prop_assert!(slice.is_empty());
    }
}
