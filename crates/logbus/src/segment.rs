//! Log segments: contiguous runs of records within a partition log.

use crate::record::{Record, StoredRecord, Timestamp};
use bytes::{Bytes, BytesMut};

/// Arena chunk size: appended payloads pack into contiguous refcounted
/// chunks of this size, so per-record storage costs one `memcpy` and
/// zero allocations in steady state (chunks recycle through the `bytes`
/// shim's free-list once the segment and all fetched views drop).
const ARENA_CHUNK: usize = 64 << 10;

/// Records whose value and key together exceed this spill: the segment
/// keeps the producer's refcounted buffers as-is instead of copying them
/// into the arena, so one jumbo record cannot blow up arena chunk sizing.
const ARENA_SPILL: usize = 16 << 10;

/// [`Entry::chunk`] of a record kept whole in [`Segment::spilled`].
const SPILLED: u32 = u32::MAX;

/// [`Entry::key_len`] of a record without a key (an empty key is a key).
const NO_KEY: u32 = u32::MAX;

/// What a segment keeps per record: where its bytes sit in the arena.
/// The offset is implicit (`base_offset` + position) and the
/// [`StoredRecord`] a reader sees is built from this on fetch, so an
/// append touches 24 bytes of index beside the payload it copies. The
/// `u32` fields cannot overflow: chunk offsets are bounded by the chunk
/// pool's 8 MiB cap, lengths by [`ARENA_SPILL`], and a segment of 2^32
/// chunks or spilled records would not fit in memory.
#[derive(Debug, Clone, Copy)]
struct Entry {
    stamp: Timestamp,
    /// Index into [`Segment::chunks`], or [`SPILLED`].
    chunk: u32,
    /// Where the value starts in its chunk; the key follows the value.
    /// For a spilled record, its index in [`Segment::spilled`].
    start: u32,
    value_len: u32,
    /// Length of the key, or [`NO_KEY`].
    key_len: u32,
}

const _: () = assert!(std::mem::size_of::<Entry>() <= 24);

/// A contiguous, append-only run of records starting at `base_offset`.
///
/// Partition logs are divided into segments (as in Kafka) so that retention
/// can drop whole segments cheaply and so that offset lookups stay fast on
/// long logs.
///
/// Each segment owns an arena of refcounted byte chunks and an index of
/// one [`Entry`] per record: appended keys and values are packed into the
/// arena, and reads build [`StoredRecord`]s whose key and value are
/// zero-copy [`Bytes`] views of it, so fetches hand out slices of segment
/// storage without copying — the zero-copy fetch contract (DESIGN.md §12).
#[derive(Debug, Default)]
pub struct Segment {
    base_offset: u64,
    entries: Vec<Entry>,
    /// Arena chunks; appends pack into the last one.
    chunks: Vec<BytesMut>,
    /// Records an [`Entry`] cannot describe, in append order.
    spilled: Vec<Record>,
    bytes: usize,
}

impl Segment {
    /// Creates an empty segment whose first record will get `base_offset`.
    /// Nothing is allocated until the first append.
    pub fn new(base_offset: u64) -> Self {
        Segment {
            base_offset,
            ..Segment::default()
        }
    }

    /// Empties the segment and moves it to `base_offset`, keeping the
    /// index's capacity: a log under retention rolls into the segment it
    /// last dropped instead of growing a new index. Arena chunks are let
    /// go at once; each recycles when its last fetched view drops.
    pub fn reset(&mut self, base_offset: u64) {
        self.base_offset = base_offset;
        self.entries.clear();
        self.chunks.clear();
        self.spilled.clear();
        self.bytes = 0;
    }

    /// Packs the record's value, then its key, back to back into the
    /// arena and returns the entry that finds them again; `None` for a
    /// record that spills: one carrying what an [`Entry`] has no room for
    /// (producer timestamp, headers), one too large for the arena, or one
    /// whose payload is `&'static` (kept uncopied, as the producer sent
    /// it).
    fn pack(&mut self, record: &Record, stamp: Timestamp) -> Option<Entry> {
        let value = &record.value;
        let key = record.key.as_ref();
        let len = value.len() + key.map_or(0, Bytes::len);
        let uncopied = |b: &Bytes| b.is_static() && !b.is_empty();
        if record.timestamp.is_some()
            || !record.headers.is_empty()
            || len > ARENA_SPILL
            || uncopied(value)
            || key.is_some_and(uncopied)
        {
            return None;
        }
        if self.chunks.last().is_none_or(|c| c.capacity() < len) {
            // Views into the full chunk keep it alive; it recycles when
            // the segment and the last of them drop.
            self.chunks.push(BytesMut::with_capacity(ARENA_CHUNK));
        }
        let chunk = self.chunks.last_mut()?;
        let start = chunk.pack_frozen(value);
        if let Some(key) = key {
            chunk.pack_frozen(key);
        }
        Some(Entry {
            stamp,
            chunk: (self.chunks.len() - 1) as u32,
            start: start as u32,
            value_len: value.len() as u32,
            key_len: key.map_or(NO_KEY, |k| k.len() as u32),
        })
    }

    /// Builds the record at position `i` of the index.
    fn materialise(&self, i: usize) -> StoredRecord {
        let entry = self.entries[i];
        let record = if entry.chunk == SPILLED {
            self.spilled[entry.start as usize].clone()
        } else {
            let chunk = &self.chunks[entry.chunk as usize];
            let value_end = entry.start as usize + entry.value_len as usize;
            Record {
                value: chunk.frozen(entry.start as usize..value_end),
                key: (entry.key_len != NO_KEY)
                    .then(|| chunk.frozen(value_end..value_end + entry.key_len as usize)),
                timestamp: None,
                headers: Vec::new(),
            }
        };
        StoredRecord {
            offset: self.base_offset + i as u64,
            timestamp: entry.stamp,
            record,
        }
    }

    /// Offset of the first record (present or future) in this segment.
    pub fn base_offset(&self) -> u64 {
        self.base_offset
    }

    /// Offset one past the last stored record.
    pub fn next_offset(&self) -> u64 {
        self.base_offset + self.entries.len() as u64
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the segment holds no records.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Accumulated wire size of the stored records.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Appends a record: its payload is copied into the arena, so the
    /// producer's buffer can be recycled immediately while fetches serve
    /// refcounted views of contiguous segment storage.
    ///
    /// # Panics
    ///
    /// Panics if the record's offset is not exactly [`next_offset`]; the
    /// partition log maintains this invariant.
    ///
    /// [`next_offset`]: Segment::next_offset
    pub fn append(&mut self, stored: StoredRecord) {
        assert_eq!(
            stored.offset,
            self.next_offset(),
            "segment append must be contiguous"
        );
        let StoredRecord {
            timestamp: stamp,
            record,
            ..
        } = stored;
        self.bytes += record.wire_size();
        let entry = self.pack(&record, stamp).unwrap_or_else(|| {
            self.spilled.push(record);
            Entry {
                stamp,
                chunk: SPILLED,
                start: (self.spilled.len() - 1) as u32,
                value_len: 0,
                key_len: NO_KEY,
            }
        });
        self.entries.push(entry);
    }

    /// Returns the record at `offset`, if it lies within this segment.
    pub fn get(&self, offset: u64) -> Option<StoredRecord> {
        self.contains(offset)
            .then(|| self.materialise((offset - self.base_offset) as usize))
    }

    /// Whether `offset` falls inside this segment's stored range.
    pub fn contains(&self, offset: u64) -> bool {
        offset >= self.base_offset && offset < self.next_offset()
    }

    /// Appends up to `max` records starting at `offset` to `out` and
    /// returns how many; none when `offset` lies outside this segment.
    pub fn read_into(&self, offset: u64, max: usize, out: &mut Vec<StoredRecord>) -> usize {
        if !self.contains(offset) {
            return 0;
        }
        let start = (offset - self.base_offset) as usize;
        let end = start.saturating_add(max).min(self.entries.len());
        out.extend((start..end).map(|i| self.materialise(i)));
        end - start
    }

    /// Drops every record at or past `offset` (log-divergence truncation
    /// after a leader change). No-op when `offset` is past the end. The
    /// dropped records' arena bytes stay behind until the segment goes.
    pub fn truncate_to(&mut self, offset: u64) {
        if offset >= self.next_offset() {
            return;
        }
        let keep = offset.saturating_sub(self.base_offset) as usize;
        for i in keep..self.entries.len() {
            self.bytes -= self.materialise(i).record.wire_size();
        }
        // Spilled records sit in append order, so the first dropped entry
        // that spilled marks where its side table ends too.
        if let Some(first) = self.entries[keep..].iter().find(|e| e.chunk == SPILLED) {
            self.spilled.truncate(first.start as usize);
        }
        self.entries.truncate(keep);
    }

    /// Timestamp of the first record, if any.
    pub fn first_timestamp(&self) -> Option<Timestamp> {
        self.entries.first().map(|e| e.stamp)
    }

    /// Timestamp of the last record, if any.
    pub fn last_timestamp(&self) -> Option<Timestamp> {
        self.entries.last().map(|e| e.stamp)
    }

    /// Offset of the first record stamped at or after `ts`, found by
    /// scanning the index; no record is built.
    pub fn first_at_or_after(&self, ts: Timestamp) -> Option<u64> {
        let i = self.entries.iter().position(|e| e.stamp >= ts)?;
        Some(self.base_offset + i as u64)
    }

    /// Iterates over the stored records, building each as it goes.
    pub fn iter(&self) -> impl Iterator<Item = StoredRecord> + '_ {
        (0..self.entries.len()).map(|i| self.materialise(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Header;
    use proptest::prelude::*;

    fn stored(offset: u64, ts: i64, value: &str) -> StoredRecord {
        StoredRecord {
            offset,
            timestamp: Timestamp::from_micros(ts),
            record: Record::from_value(value.as_bytes().to_vec()),
        }
    }

    fn read(seg: &Segment, offset: u64, max: usize) -> Vec<StoredRecord> {
        let mut out = Vec::new();
        assert_eq!(seg.read_into(offset, max, &mut out), out.len());
        out
    }

    #[test]
    fn append_and_read() {
        let mut seg = Segment::new(10);
        assert!(seg.is_empty());
        seg.append(stored(10, 1, "a"));
        seg.append(stored(11, 2, "b"));
        seg.append(stored(12, 3, "c"));
        assert_eq!(seg.len(), 3);
        assert_eq!(seg.base_offset(), 10);
        assert_eq!(seg.next_offset(), 13);
        assert!(seg.contains(11));
        assert!(!seg.contains(13));
        assert_eq!(seg.get(11).unwrap(), stored(11, 2, "b"));
        assert!(seg.get(9).is_none());
        assert!(seg.get(13).is_none());
    }

    #[test]
    fn read_into_appends_ranges() {
        let mut seg = Segment::new(0);
        for i in 0..5 {
            seg.append(stored(i, i as i64, "x"));
        }
        assert_eq!(read(&seg, 2, 2), [stored(2, 2, "x"), stored(3, 3, "x")]);
        assert_eq!(read(&seg, 2, 100).len(), 3);
        assert!(read(&seg, 5, 10).is_empty());
        assert!(read(&seg, 0, 0).is_empty());
        // `out` is appended to, never cleared.
        let mut out = vec![stored(99, 0, "kept")];
        assert_eq!(seg.read_into(4, 10, &mut out), 1);
        assert_eq!(out, [stored(99, 0, "kept"), stored(4, 4, "x")]);
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn non_contiguous_append_panics() {
        let mut seg = Segment::new(0);
        seg.append(stored(1, 1, "a"));
    }

    #[test]
    fn timestamps_and_bytes() {
        let mut seg = Segment::new(0);
        assert!(seg.first_timestamp().is_none());
        seg.append(stored(0, 5, "aa"));
        seg.append(stored(1, 9, "bbb"));
        assert_eq!(seg.first_timestamp().unwrap().as_micros(), 5);
        assert_eq!(seg.last_timestamp().unwrap().as_micros(), 9);
        assert_eq!(
            seg.bytes(),
            Record::from_value("aa").wire_size() + Record::from_value("bbb").wire_size()
        );
        assert_eq!(seg.first_at_or_after(Timestamp(6)), Some(1));
        assert_eq!(seg.first_at_or_after(Timestamp(10)), None);
    }

    #[test]
    fn arena_packs_values_contiguously() {
        let mut seg = Segment::new(0);
        seg.append(stored(0, 1, "alpha"));
        seg.append(stored(1, 2, "beta"));
        let a = seg.get(0).unwrap().record.value;
        let b = seg.get(1).unwrap().record.value;
        assert_eq!(&a[..], b"alpha");
        assert_eq!(&b[..], b"beta");
        // Both payloads live back-to-back in one arena chunk.
        assert_eq!(a.as_ptr() as usize + a.len(), b.as_ptr() as usize);
        // Every read is a view of the same storage, not a copy of it.
        assert_eq!(read(&seg, 0, 1)[0].value().as_ptr(), a.as_ptr());
    }

    #[test]
    fn arena_packs_keys_too() {
        let mut seg = Segment::new(0);
        seg.append(StoredRecord {
            offset: 0,
            timestamp: Timestamp::from_micros(1),
            record: Record::from_key_value(b"key".to_vec(), b"value".to_vec()),
        });
        let rec = seg.get(0).unwrap();
        assert_eq!(&rec.key().unwrap()[..], b"key");
        // Value packs first, then key: both land in the same chunk.
        assert_eq!(
            rec.value().as_ptr() as usize + rec.value().len(),
            rec.key().unwrap().as_ptr() as usize,
            "key and value pack into the same chunk"
        );
    }

    #[test]
    fn empty_key_is_not_no_key() {
        let mut seg = Segment::new(0);
        let keyed = Record::from_key_value(Vec::new(), b"v".to_vec());
        seg.append(StoredRecord {
            offset: 0,
            timestamp: Timestamp(1),
            record: keyed.clone(),
        });
        seg.append(stored(1, 2, ""));
        assert_eq!(seg.get(0).unwrap().record, keyed);
        assert_eq!(seg.get(1).unwrap().record, Record::from_value(""));
        assert!(seg.spilled.is_empty());
    }

    #[test]
    fn oversize_payloads_spill_without_copy() {
        let big = vec![7u8; super::ARENA_SPILL + 1];
        let bytes = bytes::Bytes::from(big);
        let ptr = bytes.as_ptr();
        let mut seg = Segment::new(0);
        seg.append(StoredRecord {
            offset: 0,
            timestamp: Timestamp::from_micros(1),
            record: Record::from_value(bytes),
        });
        assert_eq!(seg.get(0).unwrap().value().as_ptr(), ptr, "no copy");
    }

    #[test]
    fn static_payloads_pass_through() {
        let mut seg = Segment::new(0);
        seg.append(StoredRecord {
            offset: 0,
            timestamp: Timestamp::from_micros(1),
            record: Record::from_value(bytes::Bytes::from_static(b"static")),
        });
        assert!(seg.get(0).unwrap().value().is_static());
    }

    #[test]
    fn fetched_views_survive_the_segments_drop() {
        let mut seg = Segment::new(0);
        seg.append(stored(0, 1, "survivor"));
        let view = seg.get(0).unwrap().record.value;
        drop(seg);
        assert_eq!(&view[..], b"survivor");
    }

    #[test]
    fn reset_empties_and_rebases() {
        let mut seg = Segment::new(0);
        seg.append(stored(0, 1, "old"));
        let view = seg.get(0).unwrap().record.value;
        seg.reset(40);
        assert!(seg.is_empty());
        assert_eq!((seg.base_offset(), seg.bytes()), (40, 0));
        seg.append(stored(40, 2, "new"));
        assert_eq!(seg.get(40).unwrap(), stored(40, 2, "new"));
        assert_eq!(&view[..], b"old", "views outlive the reset");
    }

    #[test]
    fn truncate_drops_tail_and_bytes() {
        let mut seg = Segment::new(10);
        seg.append(stored(10, 1, "a"));
        seg.append(stored(11, 2, "bb"));
        seg.append(stored(12, 3, "ccc"));
        let full = seg.bytes();
        seg.truncate_to(11);
        assert_eq!(seg.len(), 1);
        assert_eq!(seg.next_offset(), 11);
        assert!(seg.bytes() < full);
        assert_eq!(seg.bytes(), Record::from_value("a").wire_size());
        // Truncating past the end is a no-op; truncating to the base
        // empties the segment.
        seg.truncate_to(100);
        assert_eq!(seg.len(), 1);
        seg.truncate_to(10);
        assert!(seg.is_empty());
        assert_eq!(seg.bytes(), 0);
    }

    #[test]
    fn iteration() {
        let mut seg = Segment::new(0);
        seg.append(stored(0, 1, "a"));
        seg.append(stored(1, 2, "b"));
        let offsets: Vec<_> = seg.iter().map(|r| r.offset).collect();
        assert_eq!(offsets, vec![0, 1]);
    }

    /// One step of the model test below.
    #[derive(Debug, Clone)]
    enum Op {
        Append(Record),
        /// Truncate to this fraction (in 1/256ths) of the stored range.
        Truncate(u8),
        /// Read from this fraction of the stored range, at most `max`.
        Read(u8, usize),
    }

    fn arb_bytes(len: std::ops::Range<usize>) -> impl Strategy<Value = Bytes> {
        prop::collection::vec(any::<u8>(), len).prop_map(Bytes::from)
    }

    /// Every shape of record `append` tells apart. The first three pack
    /// into the arena; the rest spill.
    fn arb_record() -> impl Strategy<Value = Record> {
        prop_oneof![
            arb_bytes(1..200).prop_map(Record::from_value),
            (arb_bytes(0..40), arb_bytes(0..200)).prop_map(|(k, v)| Record::from_key_value(k, v)),
            Just(Record::from_value(Bytes::new())),
            Just(Record::from_value(Bytes::from_static(b"static payload"))),
            (ARENA_SPILL - 8..ARENA_SPILL + 8).prop_map(|n| {
                // Value and key straddle the spill limit together.
                Record::from_key_value(vec![1u8; 8], vec![2u8; n - 8])
            }),
            arb_bytes(0..20)
                .prop_map(|v| { Record::from_value(v.clone()).with_header(Header::new("h", v)) }),
            (arb_bytes(0..20), any::<i64>())
                .prop_map(|(v, ts)| Record::from_value(v).with_timestamp(Timestamp(ts))),
        ]
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            arb_record().prop_map(Op::Append),
            arb_record().prop_map(Op::Append),
            arb_record().prop_map(Op::Append),
            any::<u8>().prop_map(Op::Truncate),
            (any::<u8>(), 0usize..40).prop_map(|(at, max)| Op::Read(at, max)),
        ]
    }

    proptest! {
        /// The segment behaves as the `Vec<StoredRecord>` it used to be:
        /// same records at the same offsets, same byte accounting, under
        /// any interleaving of appends, truncations and reads.
        #[test]
        fn segment_matches_vec_model(
            base in 0u64..1_000,
            ops in prop::collection::vec(arb_op(), 1..120),
        ) {
            let mut seg = Segment::new(base);
            let mut model: Vec<StoredRecord> = Vec::new();
            let at = |model: &Vec<StoredRecord>, frac: u8| {
                base + (model.len() as u64 + 1) * u64::from(frac) / 256
            };
            for (step, op) in ops.into_iter().enumerate() {
                match op {
                    Op::Append(record) => {
                        let stored = StoredRecord {
                            offset: base + model.len() as u64,
                            timestamp: Timestamp(step as i64),
                            record,
                        };
                        seg.append(stored.clone());
                        model.push(stored);
                    }
                    Op::Truncate(frac) => {
                        let offset = at(&model, frac);
                        seg.truncate_to(offset);
                        model.truncate((offset - base) as usize);
                    }
                    Op::Read(frac, max) => {
                        let offset = at(&model, frac);
                        let from = ((offset - base) as usize).min(model.len());
                        let to = (from + max).min(model.len());
                        let mut out = Vec::new();
                        prop_assert_eq!(seg.read_into(offset, max, &mut out), to - from);
                        prop_assert_eq!(&out[..], &model[from..to]);
                        prop_assert_eq!(seg.get(offset), model.get(from).cloned());
                    }
                }
                prop_assert_eq!(seg.len(), model.len());
                prop_assert_eq!(seg.next_offset(), base + model.len() as u64);
                prop_assert_eq!(
                    seg.bytes(),
                    model.iter().map(|r| r.record.wire_size()).sum::<usize>()
                );
                // Spilled entries and their side table shrink together.
                let spilled = seg.entries.iter().filter(|e| e.chunk == SPILLED).count();
                prop_assert_eq!(seg.spilled.len(), spilled);
                prop_assert_eq!(seg.last_timestamp(), model.last().map(|r| r.timestamp));
            }
            prop_assert!(seg.iter().eq(model.iter().cloned()));
        }
    }
}
