//! Property-based tests for the coder subsystem: round trips, nesting,
//! and truncation.

use beamline::{
    BytesCoder, Coder, Instant, Kv, KvCoder, PaneInfo, PaneTiming, StrUtf8Coder, VarIntCoder,
    WindowRef, WindowedValue, WindowedValueCoder,
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
    fn kv_coder_roundtrip(key in ".{0,32}", value in any::<i64>()) {
        let coder = KvCoder::new(
            Arc::new(StrUtf8Coder) as Arc<dyn Coder<String>>,
            Arc::new(VarIntCoder) as Arc<dyn Coder<i64>>,
        );
        let kv = Kv::new(key, value);
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
