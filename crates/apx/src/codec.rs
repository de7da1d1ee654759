//! Tuple codecs: how tuples are serialized on cross-container streams.
//!
//! Apex streams that leave a container pass through the buffer server as
//! bytes; `Codec` is the analog of Apex's `StreamCodec`. Thread-local
//! (fused) streams never touch a codec — that asymmetry is one of the
//! mechanical sources of the abstraction-layer overhead the paper
//! measures.

use bytes::Bytes;

/// Encodes and decodes tuples for cross-container transport.
pub trait Codec<T>: Send + Sync + 'static {
    /// Serializes a tuple, appending to `out` (the stream's current
    /// frame block, so encoding allocates nothing per tuple).
    fn encode_into(&self, tuple: &T, out: &mut Vec<u8>);

    /// Deserializes a tuple.
    ///
    /// # Panics
    ///
    /// Implementations may panic on malformed input; within one
    /// application both ends share the same codec, so malformed frames
    /// indicate a bug, not bad data.
    fn decode(&self, bytes: &[u8]) -> T;
}

/// Codec for raw byte payloads.
#[derive(Debug, Default, Clone, Copy)]
pub struct BytesCodec;

impl Codec<Bytes> for BytesCodec {
    fn encode_into(&self, tuple: &Bytes, out: &mut Vec<u8>) {
        out.extend_from_slice(tuple);
    }

    fn decode(&self, bytes: &[u8]) -> Bytes {
        Bytes::copy_from_slice(bytes)
    }
}

/// Codec for UTF-8 strings.
#[derive(Debug, Default, Clone, Copy)]
pub struct StringCodec;

impl Codec<String> for StringCodec {
    fn encode_into(&self, tuple: &String, out: &mut Vec<u8>) {
        out.extend_from_slice(tuple.as_bytes());
    }

    fn decode(&self, bytes: &[u8]) -> String {
        String::from_utf8(bytes.to_vec()).expect("stream carried non-UTF-8 string tuple")
    }
}

/// Codec for `u64` counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct U64Codec;

impl Codec<u64> for U64Codec {
    fn encode_into(&self, tuple: &u64, out: &mut Vec<u8>) {
        out.extend_from_slice(&tuple.to_be_bytes());
    }

    fn decode(&self, bytes: &[u8]) -> u64 {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(&bytes[..8]);
        u64::from_be_bytes(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Encodes behind bytes already in the buffer (as inside a frame
    /// block) and decodes only what was appended.
    fn roundtrip<T>(codec: &impl Codec<T>, tuple: &T) -> T {
        let mut out = b"earlier tuple".to_vec();
        let at = out.len();
        codec.encode_into(tuple, &mut out);
        codec.decode(&out[at..])
    }

    #[test]
    fn bytes_roundtrip() {
        let t = Bytes::from_static(b"hello \xff");
        assert_eq!(roundtrip(&BytesCodec, &t), t);
    }

    #[test]
    fn string_roundtrip() {
        let t = "grüße".to_string();
        assert_eq!(roundtrip(&StringCodec, &t), t);
    }

    #[test]
    fn u64_roundtrip() {
        for t in [0u64, 1, u64::MAX, 123_456_789] {
            assert_eq!(roundtrip(&U64Codec, &t), t);
        }
    }

    #[test]
    #[should_panic]
    fn string_codec_rejects_invalid_utf8() {
        let c = StringCodec;
        let _ = c.decode(&[0xff, 0xfe]);
    }
}
