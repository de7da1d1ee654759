//! Coders: how element types are serialized at transform boundaries.
//!
//! Every `PCollection` carries a [`Coder`] for its element type. Runners
//! move elements between stages in coded form, so each stage boundary
//! costs an encode and a decode — structural overhead that native engine
//! programs (whose operators pass typed values directly) never pay.

use crate::element::{Instant, Kv, PaneInfo, PaneTiming, WindowRef, WindowedValue};
use bytes::{arena, Bytes};
use std::fmt;
use std::sync::Arc;

/// A coding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoderError {
    /// What went wrong.
    pub message: String,
}

impl CoderError {
    /// Creates an error.
    pub fn new(message: impl Into<String>) -> Self {
        CoderError {
            message: message.into(),
        }
    }
}

impl fmt::Display for CoderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "coder error: {}", self.message)
    }
}

impl std::error::Error for CoderError {}

/// Serializes values of `T` to bytes and back.
///
/// Encoding appends to the output buffer; decoding consumes from the
/// front of the input slice (so coders nest, as in Beam's nested coder
/// contexts).
pub trait Coder<T>: Send + Sync + 'static {
    /// Appends the encoding of `value` to `out`.
    fn encode(&self, value: &T, out: &mut Vec<u8>);

    /// Decodes a value from the front of `input`, advancing it.
    ///
    /// # Errors
    ///
    /// Returns [`CoderError`] on malformed input.
    fn decode(&self, input: &mut &[u8]) -> Result<T, CoderError>;

    /// Encodes into a fresh buffer.
    fn encode_to_vec(&self, value: &T) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(value, &mut out);
        out
    }

    /// Encodes into a reused buffer: clears `out` (keeping its capacity)
    /// and leaves exactly the encoding of `value` in it. A hot loop that
    /// holds one scratch buffer pays no growth reallocations after the
    /// first few elements, where `encode_to_vec` re-grows a fresh buffer
    /// per element.
    fn encode_into(&self, value: &T, out: &mut Vec<u8>) {
        out.clear();
        self.encode(value, out);
    }

    /// Decodes a whole buffer.
    ///
    /// # Errors
    ///
    /// Returns [`CoderError`] on malformed or trailing input.
    fn decode_all(&self, mut input: &[u8]) -> Result<T, CoderError> {
        let value = self.decode(&mut input)?;
        if !input.is_empty() {
            return Err(CoderError::new(format!("{} trailing bytes", input.len())));
        }
        Ok(value)
    }
}

pub(crate) fn put_varint(mut n: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (n & 0x7f) as u8;
        n >>= 7;
        if n == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

pub(crate) fn get_varint(input: &mut &[u8]) -> Result<u64, CoderError> {
    let mut n = 0u64;
    let mut shift = 0u32;
    loop {
        let (&byte, rest) = input
            .split_first()
            .ok_or_else(|| CoderError::new("varint ran out of bytes"))?;
        *input = rest;
        if shift >= 64 {
            return Err(CoderError::new("varint too long"));
        }
        n |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(n);
        }
        shift += 7;
    }
}

/// Appends what `encode` writes behind its own varint length. The body
/// is written in place and the prefix rotated in front of it, so nesting
/// costs no temporary buffer.
fn put_length_prefixed(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    encode(out);
    let body = out.len() - start;
    put_varint(body as u64, out);
    out[start..].rotate_left(body);
}

fn take<'a>(input: &mut &'a [u8], len: usize) -> Result<&'a [u8], CoderError> {
    if input.len() < len {
        return Err(CoderError::new(format!(
            "needed {len} bytes, had {}",
            input.len()
        )));
    }
    let (head, rest) = input.split_at(len);
    *input = rest;
    Ok(head)
}

/// Takes a fixed-width field (a big-endian integer's bytes).
pub(crate) fn take_array<const N: usize>(input: &mut &[u8]) -> Result<[u8; N], CoderError> {
    let (head, rest) = input
        .split_first_chunk::<N>()
        .ok_or_else(|| CoderError::new(format!("needed {N} bytes, had {}", input.len())))?;
    *input = rest;
    Ok(*head)
}

/// Length-prefixed raw bytes. A decoded value is a view of the decoding
/// thread's arena (see [`bytes::arena`]): one copy, no allocation.
#[derive(Debug, Default, Clone, Copy)]
pub struct BytesCoder;

impl Coder<Bytes> for BytesCoder {
    fn encode(&self, value: &Bytes, out: &mut Vec<u8>) {
        put_varint(value.len() as u64, out);
        out.extend_from_slice(value);
    }

    fn decode(&self, input: &mut &[u8]) -> Result<Bytes, CoderError> {
        let len = get_varint(input)? as usize;
        Ok(arena::copy(take(input, len)?))
    }
}

/// Length-prefixed UTF-8 strings.
#[derive(Debug, Default, Clone, Copy)]
pub struct StrUtf8Coder;

impl Coder<String> for StrUtf8Coder {
    fn encode(&self, value: &String, out: &mut Vec<u8>) {
        put_varint(value.len() as u64, out);
        out.extend_from_slice(value.as_bytes());
    }

    fn decode(&self, input: &mut &[u8]) -> Result<String, CoderError> {
        let len = get_varint(input)? as usize;
        String::from_utf8(take(input, len)?.to_vec())
            .map_err(|e| CoderError::new(format!("invalid UTF-8: {e}")))
    }
}

/// Zig-zag varint coder for `i64`.
#[derive(Debug, Default, Clone, Copy)]
pub struct VarIntCoder;

impl Coder<i64> for VarIntCoder {
    fn encode(&self, value: &i64, out: &mut Vec<u8>) {
        let zigzag = ((value << 1) ^ (value >> 63)) as u64;
        put_varint(zigzag, out);
    }

    fn decode(&self, input: &mut &[u8]) -> Result<i64, CoderError> {
        let zigzag = get_varint(input)?;
        Ok(((zigzag >> 1) as i64) ^ -((zigzag & 1) as i64))
    }
}

/// Pairs a key coder with a value coder (`KvCoder`).
pub struct KvCoder<K, V> {
    key: Arc<dyn Coder<K>>,
    value: Arc<dyn Coder<V>>,
}

impl<K, V> KvCoder<K, V> {
    /// Creates a KV coder from component coders.
    pub fn new(key: Arc<dyn Coder<K>>, value: Arc<dyn Coder<V>>) -> Self {
        KvCoder { key, value }
    }
}

impl<K, V> fmt::Debug for KvCoder<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("KvCoder")
    }
}

impl<K: Send + Sync + 'static, V: Send + Sync + 'static> Coder<Kv<K, V>> for KvCoder<K, V> {
    fn encode(&self, value: &Kv<K, V>, out: &mut Vec<u8>) {
        // The key is length-prefixed (Beam's nested context).
        put_length_prefixed(out, |out| self.key.encode(&value.key, out));
        self.value.encode(&value.value, out);
    }

    fn decode(&self, input: &mut &[u8]) -> Result<Kv<K, V>, CoderError> {
        let key_len = get_varint(input)? as usize;
        let mut key_bytes = take(input, key_len)?;
        let key = self.key.decode(&mut key_bytes)?;
        let value = self.value.decode(input)?;
        Ok(Kv { key, value })
    }
}

/// Coder for the full [`WindowedValue`] envelope around coded payload
/// bytes: timestamp, window, pane, payload. Cross-container runner
/// boundaries (the `apx` runner) serialize the whole envelope. The
/// decoded payload is an arena view, like every other decoded value.
#[derive(Debug, Default, Clone, Copy)]
pub struct WindowedValueCoder;

impl WindowedValueCoder {
    fn encode_window(window: &WindowRef, out: &mut Vec<u8>) {
        match window {
            WindowRef::Global => out.push(0),
            WindowRef::Interval { start, end } => {
                out.push(1);
                out.extend_from_slice(&start.0.to_be_bytes());
                out.extend_from_slice(&end.0.to_be_bytes());
            }
        }
    }

    fn decode_window(input: &mut &[u8]) -> Result<WindowRef, CoderError> {
        let tag = take(input, 1)?[0];
        match tag {
            0 => Ok(WindowRef::Global),
            1 => {
                let start = Instant(i64::from_be_bytes(take_array(input)?));
                let end = Instant(i64::from_be_bytes(take_array(input)?));
                Ok(WindowRef::Interval { start, end })
            }
            other => Err(CoderError::new(format!("unknown window tag {other}"))),
        }
    }
}

impl Coder<WindowedValue<Bytes>> for WindowedValueCoder {
    fn encode(&self, value: &WindowedValue<Bytes>, out: &mut Vec<u8>) {
        out.extend_from_slice(&value.timestamp.0.to_be_bytes());
        Self::encode_window(&value.window, out);
        let timing = match value.pane.timing {
            PaneTiming::Early => 0u8,
            PaneTiming::OnTime => 1,
            PaneTiming::Late => 2,
            PaneTiming::Unknown => 3,
        };
        out.push(
            timing | (u8::from(value.pane.is_first) << 2) | (u8::from(value.pane.is_last) << 3),
        );
        put_varint(value.pane.index, out);
        put_varint(value.value.len() as u64, out);
        out.extend_from_slice(&value.value);
    }

    fn decode(&self, input: &mut &[u8]) -> Result<WindowedValue<Bytes>, CoderError> {
        let timestamp = Instant(i64::from_be_bytes(take_array(input)?));
        let window = Self::decode_window(input)?;
        let pane_byte = take(input, 1)?[0];
        let timing = match pane_byte & 0b11 {
            0 => PaneTiming::Early,
            1 => PaneTiming::OnTime,
            2 => PaneTiming::Late,
            _ => PaneTiming::Unknown,
        };
        let index = get_varint(input)?;
        let pane = PaneInfo {
            is_first: pane_byte & 0b100 != 0,
            is_last: pane_byte & 0b1000 != 0,
            timing,
            index,
        };
        let len = get_varint(input)? as usize;
        Ok(WindowedValue {
            value: arena::copy(take(input, len)?),
            timestamp,
            window,
            pane,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        for n in [0u64, 1, 127, 128, 300, u64::MAX] {
            let mut out = Vec::new();
            put_varint(n, &mut out);
            let mut slice = &out[..];
            assert_eq!(get_varint(&mut slice).unwrap(), n);
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn varint_truncated_errors() {
        let mut slice: &[u8] = &[0x80];
        assert!(get_varint(&mut slice).is_err());
    }

    #[test]
    fn bytes_coder_roundtrip() {
        let coder = BytesCoder;
        let value = Bytes::from_static(b"some \x00 payload");
        assert_eq!(
            coder.decode_all(&coder.encode_to_vec(&value)).unwrap(),
            value
        );
    }

    #[test]
    fn string_coder_roundtrip_and_invalid() {
        let coder = StrUtf8Coder;
        let value = "héllo".to_string();
        assert_eq!(
            coder.decode_all(&coder.encode_to_vec(&value)).unwrap(),
            value
        );
        let bad = vec![2, 0xff, 0xfe];
        assert!(coder.decode_all(&bad).is_err());
    }

    #[test]
    fn varint_coder_roundtrip() {
        let coder = VarIntCoder;
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, 123_456] {
            assert_eq!(coder.decode_all(&coder.encode_to_vec(&v)).unwrap(), v);
        }
    }

    #[test]
    fn kv_coder_roundtrip() {
        let coder = KvCoder::new(Arc::new(StrUtf8Coder), Arc::new(VarIntCoder));
        let kv = Kv::new("user".to_string(), -42i64);
        assert_eq!(coder.decode_all(&coder.encode_to_vec(&kv)).unwrap(), kv);
    }

    #[test]
    fn windowed_value_coder_roundtrip() {
        let coder = WindowedValueCoder;
        let values = vec![
            WindowedValue::in_global_window(Bytes::from_static(b"abc")),
            WindowedValue {
                value: Bytes::new(),
                timestamp: Instant(-5),
                window: WindowRef::Interval {
                    start: Instant(0),
                    end: Instant(1000),
                },
                pane: PaneInfo {
                    is_first: false,
                    is_last: true,
                    timing: PaneTiming::Late,
                    index: 7,
                },
            },
        ];
        for v in values {
            assert_eq!(coder.decode_all(&coder.encode_to_vec(&v)).unwrap(), v);
        }
    }

    #[test]
    fn trailing_bytes_detected() {
        let coder = VarIntCoder;
        let mut encoded = coder.encode_to_vec(&7);
        encoded.push(0);
        assert!(coder.decode_all(&encoded).is_err());
    }
}
