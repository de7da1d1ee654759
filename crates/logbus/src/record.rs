//! Record types: what writers append and what the log stores.

use bytes::Bytes;
use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A broker timestamp in microseconds since the Unix epoch.
///
/// Microsecond resolution (rather than Kafka's milliseconds) keeps the
/// benchmark's `LogAppendTime`-based execution-time measurement meaningful
/// for the small, scaled-down workloads used in tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub i64);

impl Timestamp {
    /// Creates a timestamp from microseconds since the Unix epoch.
    pub fn from_micros(micros: i64) -> Self {
        Timestamp(micros)
    }

    /// Returns the timestamp as microseconds since the Unix epoch.
    pub fn as_micros(self) -> i64 {
        self.0
    }

    /// Returns the timestamp as (truncated) milliseconds since the epoch.
    pub fn as_millis(self) -> i64 {
        self.0 / 1_000
    }

    /// Returns the duration between `self` and an earlier timestamp, in
    /// seconds.
    ///
    /// Negative results are possible when `earlier` is actually later; the
    /// result calculator relies on this to detect mis-ordered topics.
    pub fn seconds_since(self, earlier: Timestamp) -> f64 {
        (self.0 - earlier.0) as f64 / 1_000_000.0
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

impl From<i64> for Timestamp {
    fn from(micros: i64) -> Self {
        Timestamp(micros)
    }
}

/// A record as handed to a [`PartitionWriter`](crate::PartitionWriter).
///
/// Records are cheap to clone: key and value are reference-counted
/// [`Bytes`]. Construction from owned data (`Vec<u8>`, `String`,
/// `Bytes`) is zero-copy — the `Bytes` shim takes over the allocation
/// rather than copying it — so only the borrowed [`From<&str>`]
/// conversion pays a copy.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Record {
    /// Optional partitioning key.
    pub key: Option<Bytes>,
    /// Record payload.
    pub value: Bytes,
}

const _: () = assert!(
    std::mem::size_of::<Record>()
        <= std::mem::size_of::<Option<Bytes>>() + std::mem::size_of::<Bytes>()
);
// A `Bytes` is three words and `Option<Bytes>` fills its niche, so a
// record is 48 bytes and a stored one 64 (were 72 and 88 on x86-64).
const _: () = assert!(std::mem::size_of::<Record>() <= 48);
const _: () = assert!(std::mem::size_of::<StoredRecord>() <= 64);

impl Record {
    /// Creates a record with a value and no key.
    ///
    /// ```
    /// let r = logbus::Record::from_value("payload");
    /// assert!(r.key.is_none());
    /// ```
    pub fn from_value(value: impl Into<Bytes>) -> Self {
        Record {
            key: None,
            value: value.into(),
        }
    }

    /// Creates a record with both key and value.
    pub fn from_key_value(key: impl Into<Bytes>, value: impl Into<Bytes>) -> Self {
        Record {
            key: Some(key.into()),
            value: value.into(),
        }
    }

    /// Fixed part of [`Record::wire_size`]: offset + timestamp + lengths.
    pub(crate) const WIRE_OVERHEAD: usize = 24;

    /// Approximate wire size of the record in bytes, used for segment
    /// rolling and batch-size accounting.
    pub fn wire_size(&self) -> usize {
        Self::WIRE_OVERHEAD + self.key.as_ref().map_or(0, bytes::Bytes::len) + self.value.len()
    }
}

impl From<&str> for Record {
    /// Copies: the source is borrowed. Prefer `From<String>` /
    /// `From<Bytes>` on hot paths — those never copy.
    fn from(value: &str) -> Self {
        Record::from_value(Bytes::copy_from_slice(value.as_bytes()))
    }
}

impl From<String> for Record {
    /// Zero-copy: the `String`'s allocation becomes the record value.
    fn from(value: String) -> Self {
        Record::from_value(Bytes::from(value))
    }
}

impl From<Bytes> for Record {
    fn from(value: Bytes) -> Self {
        Record::from_value(value)
    }
}

/// Routes a record key to a partition: the one key-hash placement rule.
///
/// Every caller that loads a multi-partition topic (the engine
/// equivalence suite does) routes through this one function, so a key
/// always lands on the same partition no matter which path produced it.
#[must_use]
pub fn partition_for_key(key: &[u8], partition_count: u32) -> u32 {
    let mut hasher = DefaultHasher::new();
    key.hash(&mut hasher);
    (hasher.finish() % u64::from(partition_count.max(1))) as u32
}

/// A record as stored in (and fetched from) a partition log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredRecord {
    /// Position of the record within its partition.
    pub offset: u64,
    /// The broker's `LogAppendTime`: one stamp per produce request,
    /// never decreasing along a partition.
    pub timestamp: Timestamp,
    /// The record content.
    pub record: Record,
}

impl StoredRecord {
    /// Borrows the record value.
    pub fn value(&self) -> &Bytes {
        &self.record.value
    }

    /// Borrows the record key, if any.
    pub fn key(&self) -> Option<&Bytes> {
        self.record.key.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_conversions() {
        let ts = Timestamp::from_micros(1_500_000);
        assert_eq!(ts.as_micros(), 1_500_000);
        assert_eq!(ts.as_millis(), 1_500);
        assert_eq!(ts.to_string(), "1500000us");
    }

    #[test]
    fn timestamp_seconds_since() {
        let a = Timestamp::from_micros(1_000_000);
        let b = Timestamp::from_micros(3_500_000);
        assert!((b.seconds_since(a) - 2.5).abs() < 1e-9);
        assert!((a.seconds_since(b) + 2.5).abs() < 1e-9);
    }

    #[test]
    fn record_constructors() {
        let r = Record::from_value("v");
        assert_eq!(&r.value[..], b"v");
        assert!(r.key.is_none());

        let r = Record::from_key_value("k", "v");
        assert_eq!(r.key.as_deref(), Some(&b"k"[..]));
    }

    #[test]
    fn wire_size_accounts_for_all_parts() {
        let bare = Record::from_value("").wire_size();
        let with_value = Record::from_value("abcd").wire_size();
        assert_eq!(with_value, bare + 4);

        let with_key = Record::from_key_value("kk", "abcd").wire_size();
        assert_eq!(with_key, with_value + 2);
    }

    #[test]
    fn owned_construction_is_zero_copy() {
        let v = vec![1u8; 16];
        let ptr = v.as_ptr();
        let r = Record::from_value(v);
        assert_eq!(r.value.as_ptr(), ptr, "Vec allocation must be taken over");

        let s = String::from("zero-copy-string");
        let ptr = s.as_ptr();
        let r: Record = s.into();
        assert_eq!(
            r.value.as_ptr(),
            ptr,
            "String allocation must be taken over"
        );
    }

    #[test]
    fn record_from_impls() {
        let a: Record = "x".into();
        let b: Record = String::from("x").into();
        let c: Record = Bytes::from_static(b"x").into();
        assert_eq!(a, b);
        assert_eq!(b, c);
    }
}
