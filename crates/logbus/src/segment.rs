//! Log segments: contiguous runs of records within a partition log.

use crate::record::{Record, StoredRecord, Timestamp};
use bytes::{Bytes, BytesMut};
use parking_lot::Mutex;

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
/// `u32` fields cannot overflow: chunk offsets are bounded by
/// [`ARENA_CHUNK`], lengths by [`ARENA_SPILL`], and a segment of 2^32
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

impl Entry {
    /// Bytes of arena the record occupies: its value, then its key.
    fn arena_len(&self) -> usize {
        let key = if self.key_len == NO_KEY {
            0
        } else {
            self.key_len
        };
        self.value_len as usize + key as usize
    }

    /// [`Record::wire_size`] of an arena-packed record, from its index
    /// entry alone.
    fn wire_size(&self) -> usize {
        Record::WIRE_OVERHEAD + self.arena_len()
    }
}

/// Entries per index block: 48 KiB, so a 1 MiB segment of ~110-byte
/// records is four of them.
const INDEX_BLOCK: usize = 2048;

/// Idle index blocks the pool keeps (32 MiB): a 1 M-record topic — the
/// largest a `ledger` workload retires and refills — is 24 MB of index.
const INDEX_POOL_BLOCKS: usize = (32 << 20) / (INDEX_BLOCK * std::mem::size_of::<Entry>());

/// Retired index blocks, most recently retired on top. Every block has
/// capacity [`INDEX_BLOCK`], so any of them serves any segment: a
/// dropped topic's index is the next topic's, and a log under retention
/// rolls into the blocks it just let go.
static INDEX_POOL: Mutex<Vec<Vec<Entry>>> = Mutex::new(Vec::new());

/// A segment's index: one [`Entry`] per record in fixed-size blocks that
/// come from and return to [`INDEX_POOL`], so it never regrows and — in
/// steady state — never meets the allocator. The block being filled is
/// a field of its own: an append is a plain `Vec::push` on it.
#[derive(Debug, Default)]
struct Index {
    /// Full blocks, [`INDEX_BLOCK`] entries each.
    full: Vec<Vec<Entry>>,
    /// The block appends go to; empty until the first append.
    tail: Vec<Entry>,
}

impl Index {
    fn len(&self) -> usize {
        self.full.len() * INDEX_BLOCK + self.tail.len()
    }

    fn block(&self, b: usize) -> &[Entry] {
        self.full.get(b).unwrap_or(&self.tail)
    }

    fn get(&self, i: usize) -> Entry {
        self.block(i / INDEX_BLOCK)[i % INDEX_BLOCK]
    }

    fn first(&self) -> Option<&Entry> {
        self.block(0).first()
    }

    fn last(&self) -> Option<&Entry> {
        self.tail.last().or_else(|| self.full.last()?.last())
    }

    fn push(&mut self, entry: Entry) {
        if self.tail.len() == self.tail.capacity() {
            let fresh = INDEX_POOL.lock().pop();
            let fresh = fresh.unwrap_or_else(|| Vec::with_capacity(INDEX_BLOCK));
            let filled = std::mem::replace(&mut self.tail, fresh);
            if !filled.is_empty() {
                self.full.push(filled);
            }
        }
        self.tail.push(entry);
    }

    /// The entries at positions `from..to`, block by block.
    fn slices(&self, from: usize, to: usize) -> impl Iterator<Item = &[Entry]> {
        let to = to.min(self.len());
        let from = from.min(to);
        (from / INDEX_BLOCK..to.div_ceil(INDEX_BLOCK)).map(move |b| {
            let base = b * INDEX_BLOCK;
            &self.block(b)[from.saturating_sub(base)..(to - base).min(INDEX_BLOCK)]
        })
    }

    fn iter(&self) -> impl Iterator<Item = &Entry> {
        self.full.iter().flatten().chain(&self.tail)
    }

    /// Keeps the first `keep` entries; emptied blocks go back to the pool.
    fn truncate(&mut self, keep: usize) {
        if keep >= self.len() {
            return;
        }
        let full = keep / INDEX_BLOCK;
        if full < self.full.len() {
            // The cut falls in a full block: it becomes the tail.
            let mut dropped = self.full.drain(full..);
            let tail = dropped.next().unwrap_or_default();
            Self::retire(dropped.chain([std::mem::replace(&mut self.tail, tail)]));
        }
        self.tail.truncate(keep % INDEX_BLOCK);
    }

    fn retire(blocks: impl Iterator<Item = Vec<Entry>>) {
        let mut pool = INDEX_POOL.lock();
        for mut block in blocks {
            if pool.len() >= INDEX_POOL_BLOCKS || block.capacity() != INDEX_BLOCK {
                continue;
            }
            block.clear();
            pool.push(block);
        }
    }
}

impl Drop for Index {
    fn drop(&mut self) {
        // Last block first, so the stack hands the next segment this
        // one's blocks in the order it filled them.
        let tail = std::mem::take(&mut self.tail);
        Self::retire([tail].into_iter().chain(self.full.drain(..).rev()));
    }
}

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
    entries: Index,
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
    /// capacity of its chunk and spill tables: a log under retention
    /// rolls into the segment it last dropped. Index blocks return to the
    /// pool and arena chunks are let go at once; each chunk recycles when
    /// its last fetched view drops.
    pub fn reset(&mut self, base_offset: u64) {
        self.base_offset = base_offset;
        self.entries.truncate(0);
        self.chunks.clear();
        self.spilled.clear();
        self.bytes = 0;
    }

    /// The arena chunk with room for `len` more bytes: the last one, or
    /// a fresh one behind it. Views into a full chunk keep it alive; it
    /// recycles when the segment and the last of them drop.
    fn chunk_with_room(&mut self, len: usize) -> Option<&mut BytesMut> {
        if self.chunks.last().is_none_or(|c| c.capacity() < len) {
            self.chunks.push(BytesMut::with_capacity(ARENA_CHUNK));
        }
        self.chunks.last_mut()
    }

    /// Packs the record's value, then its key, back to back into the
    /// arena and returns the entry that finds them again; `None` for a
    /// record that spills: one too large for the arena, or one whose
    /// payload is `&'static` (kept uncopied, as the producer sent it).
    fn pack(&mut self, record: &Record, stamp: Timestamp) -> Option<Entry> {
        let value = &record.value;
        let key = record.key.as_ref();
        let len = value.len() + key.map_or(0, Bytes::len);
        let uncopied = |b: &Bytes| b.is_static() && !b.is_empty();
        if len > ARENA_SPILL || uncopied(value) || key.is_some_and(uncopied) {
            return None;
        }
        let chunk = self.chunk_with_room(len)?;
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

    /// Builds the record at `offset` from its index entry.
    fn materialise(&self, offset: u64, entry: Entry) -> StoredRecord {
        let record = if entry.chunk == SPILLED {
            self.spilled[entry.start as usize].clone()
        } else {
            let chunk = &self.chunks[entry.chunk as usize];
            let value_end = entry.start as usize + entry.value_len as usize;
            Record {
                value: chunk.frozen(entry.start as usize..value_end),
                key: (entry.key_len != NO_KEY)
                    .then(|| chunk.frozen(value_end..value_end + entry.key_len as usize)),
            }
        };
        StoredRecord {
            offset,
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
        self.entries.len() == 0
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

    /// Appends a block of `src`'s records, starting with the one at
    /// `offset` (which must be this segment's [`next_offset`] and lie in
    /// `src`) and ending before `end`, and returns how many: the longest
    /// run whose payloads sit back to back in one of `src`'s arena chunks
    /// — moved with a single `memcpy`, their entries rebased onto this
    /// segment's arena — or one spilled record, cloned as [`append`]
    /// would store it. A run also ends where `src`'s index block does,
    /// where this segment's chunk is full, and with the record that takes
    /// [`bytes`] to `segment_bytes`, so the caller rolls exactly where
    /// appending record by record would have.
    ///
    /// [`next_offset`]: Segment::next_offset
    /// [`append`]: Segment::append
    /// [`bytes`]: Segment::bytes
    pub(crate) fn append_block(
        &mut self,
        src: &Segment,
        offset: u64,
        end: u64,
        segment_bytes: usize,
    ) -> usize {
        debug_assert!(offset == self.next_offset() && src.contains(offset));
        let from = (offset - src.base_offset) as usize;
        let to = (end.min(src.next_offset()) - src.base_offset) as usize;
        let run = src.entries.slices(from, to).next().unwrap_or_default();
        let Some(&first) = run.first() else {
            return 0;
        };
        if first.chunk == SPILLED {
            self.append(src.materialise(offset, first));
            return 1;
        }
        // The chunk the first record goes to, by `pack`'s rule, bounds
        // the run: the next record that does not fit starts a new block.
        let room = self
            .chunk_with_room(first.arena_len())
            .map_or(0, |chunk| chunk.capacity());
        // How far the run goes: `len` bytes of `src`'s chunk, `wire` of
        // accounting, `count` entries.
        let (mut len, mut wire, mut count) = (0, 0, 0);
        for entry in run {
            let adjacent =
                entry.chunk == first.chunk && entry.start as usize == first.start as usize + len;
            let full = count > 0 && self.bytes + wire >= segment_bytes;
            if !adjacent || full || len + entry.arena_len() > room {
                break;
            }
            len += entry.arena_len();
            wire += entry.wire_size();
            count += 1;
        }
        let start = first.start as usize;
        let payload = src.chunks[first.chunk as usize].frozen(start..start + len);
        let Some(chunk) = self.chunks.last_mut() else {
            return 0;
        };
        let rebased = chunk.pack_frozen(&payload) as u32;
        let chunk = (self.chunks.len() - 1) as u32;
        for entry in &run[..count] {
            self.entries.push(Entry {
                chunk,
                start: entry.start - first.start + rebased,
                ..*entry
            });
        }
        self.bytes += wire;
        count
    }

    /// Returns the record at `offset`, if it lies within this segment.
    pub fn get(&self, offset: u64) -> Option<StoredRecord> {
        self.contains(offset).then(|| {
            let entry = self.entries.get((offset - self.base_offset) as usize);
            self.materialise(offset, entry)
        })
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
        let mut at = offset;
        for block in self.entries.slices(start, end) {
            // `enumerate` over a slice keeps the exact length, so the
            // extend writes in place instead of pushing one by one.
            let records = block.iter().enumerate();
            out.extend(records.map(|(i, e)| self.materialise(at + i as u64, *e)));
            at += block.len() as u64;
        }
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
        // Spilled records sit in append order, so the first dropped entry
        // that spilled marks where its side table ends too.
        let mut spilled_from = None;
        let mut dropped = 0;
        for entry in self.entries.slices(keep, self.entries.len()).flatten() {
            dropped += if entry.chunk == SPILLED {
                spilled_from = spilled_from.or(Some(entry.start as usize));
                self.spilled[entry.start as usize].wire_size()
            } else {
                entry.wire_size()
            };
        }
        self.bytes -= dropped;
        if let Some(first) = spilled_from {
            self.spilled.truncate(first);
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

    /// Iterates over the stored records, building each as it goes.
    pub fn iter(&self) -> impl Iterator<Item = StoredRecord> + '_ {
        (self.base_offset..)
            .zip(self.entries.iter())
            .map(|(offset, entry)| self.materialise(offset, *entry))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn only_jumbo_and_static_records_spill() {
        let limit = super::ARENA_SPILL;
        let mut seg = Segment::new(0);
        let mut push = |record: Record| {
            let offset = seg.next_offset();
            seg.append(StoredRecord {
                offset,
                timestamp: Timestamp(1),
                record,
            });
            seg.spilled.len()
        };
        // Owned records up to the limit, keyed or not, pack.
        assert_eq!(push(Record::from_value(vec![1u8; limit])), 0);
        assert_eq!(
            push(Record::from_key_value(vec![1u8; 8], vec![2u8; limit - 8])),
            0
        );
        assert_eq!(push(Record::from_key_value(Vec::new(), Vec::new())), 0);
        // One byte over the limit, in the value or in the key, spills.
        assert_eq!(push(Record::from_value(vec![1u8; limit + 1])), 1);
        assert_eq!(
            push(Record::from_key_value(vec![1u8; 9], vec![2u8; limit - 8])),
            2
        );
        // A `&'static` value or key spills at any size.
        assert_eq!(push(Record::from_value(Bytes::from_static(b"s"))), 3);
        assert_eq!(
            push(Record::from_key_value(
                Bytes::from_static(b"k"),
                b"v".to_vec()
            )),
            4
        );
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

    /// `src`'s records from `offset` on, block by block, as the partition
    /// log drives it; returns the sizes of the blocks.
    fn copy_blocks(dst: &mut Segment, src: &Segment, mut offset: u64) -> Vec<usize> {
        let mut blocks = Vec::new();
        while offset < src.next_offset() {
            let copied = dst.append_block(src, offset, src.next_offset(), usize::MAX);
            assert!(copied > 0, "a block holds at least one record");
            blocks.push(copied);
            offset += copied as u64;
        }
        blocks
    }

    #[test]
    fn block_copy_moves_a_contiguous_run_at_once() {
        let mut src = Segment::new(5);
        for i in 0..100u64 {
            let record = if i % 3 == 0 {
                Record::from_key_value(format!("k{i}").into_bytes(), format!("v{i}").into_bytes())
            } else {
                Record::from_value(format!("value-{i}").into_bytes())
            };
            src.append(StoredRecord {
                offset: 5 + i,
                timestamp: Timestamp(i as i64),
                record,
            });
        }
        let mut dst = Segment::new(5);
        assert_eq!(copy_blocks(&mut dst, &src, 5), [100], "one chunk, one run");
        assert!(dst.iter().eq(src.iter()));
        assert_eq!(dst.bytes(), src.bytes());
        // The copy owns its bytes: same layout, another chunk.
        let (a, b) = (src.get(7).unwrap(), dst.get(7).unwrap());
        assert_ne!(a.value().as_ptr(), b.value().as_ptr());
        drop(src);
        assert_eq!(&dst.get(7).unwrap().value()[..], b"value-2");
    }

    #[test]
    fn block_copy_splits_at_spills_chunks_gaps_and_the_size_limit() {
        let value = |n: usize, fill: u8| Record::from_value(vec![fill; n]);
        let mut src = Segment::new(0);
        let push = |src: &mut Segment, record: Record| {
            let offset = src.next_offset();
            src.append(StoredRecord {
                offset,
                timestamp: Timestamp(offset as i64),
                record,
            });
        };
        // 0..=4 fill the first chunk to within 4 KiB, 5 opens the second.
        for fill in 0..5 {
            push(&mut src, value(12 << 10, fill));
        }
        push(&mut src, value(8 << 10, 5));
        // 6 spills (static payload), 7 follows it in the second chunk.
        push(&mut src, Record::from_value(Bytes::from_static(b"static")));
        push(&mut src, value(100, 7));
        // 8 is dropped and rewritten: its first bytes stay behind, so 7
        // and the new 8 are no longer back to back.
        push(&mut src, value(100, 8));
        src.truncate_to(8);
        push(&mut src, value(100, 9));
        let mut dst = Segment::new(0);
        assert_eq!(copy_blocks(&mut dst, &src, 0), [5, 1, 1, 1, 1]);
        assert!(dst.iter().eq(src.iter()));
        assert_eq!(dst.bytes(), src.bytes());
        assert_eq!(dst.spilled.len(), 1);

        // A destination chunk with less room than the run ends it early;
        // the rest goes to a fresh chunk. 40 KiB are taken here (record 0
        // and a rewound 28 KiB), so two of the four 12 KiB records fit.
        let mut dst = Segment::new(0);
        push(&mut dst, value(12 << 10, 0));
        push(&mut dst, value(14 << 10, 0));
        push(&mut dst, value(14 << 10, 0));
        dst.truncate_to(1);
        assert_eq!(copy_blocks(&mut dst, &src, 1), [2, 2, 1, 1, 1, 1]);
        assert_eq!(dst.chunks.len(), 2);
        assert!(dst.iter().eq(src.iter()));
        assert_eq!(dst.bytes(), src.bytes());

        // The record that takes `bytes` to the limit ends the block, as
        // it would make the log roll before the next append.
        let mut dst = Segment::new(0);
        assert_eq!(dst.append_block(&src, 0, 10, 30 << 10), 3);
        assert_eq!(dst.append_block(&src, 3, 4, usize::MAX), 1, "`end` caps it");
    }

    #[test]
    fn index_blocks_recycle_through_the_pool() {
        let mut seg = Segment::new(0);
        for i in 0..(INDEX_BLOCK as u64 + 10) {
            seg.append(stored(i, i as i64, "x"));
        }
        let index = &seg.entries;
        assert_eq!((index.full.len(), index.tail.len()), (1, 10));
        assert_eq!(index.full[0].capacity(), INDEX_BLOCK);
        assert_eq!(index.tail.capacity(), INDEX_BLOCK);
        assert_eq!(
            read(&seg, INDEX_BLOCK as u64 - 2, 4).len(),
            4,
            "across blocks"
        );
        // Truncating below the block boundary makes the full block the
        // tail again and retires the old tail...
        let first = index.full[0].as_ptr();
        seg.truncate_to(INDEX_BLOCK as u64 - 1);
        assert_eq!(seg.len(), INDEX_BLOCK - 1);
        assert!(seg.entries.full.is_empty());
        assert_eq!(seg.entries.tail.as_ptr(), first);
        // ...and appending over the boundary again takes a block back.
        seg.append(stored(INDEX_BLOCK as u64 - 1, 0, "y"));
        seg.append(stored(INDEX_BLOCK as u64, 0, "z"));
        assert_eq!((seg.entries.full.len(), seg.entries.tail.len()), (1, 1));
        assert_eq!(seg.get(INDEX_BLOCK as u64).unwrap().value(), "z".as_bytes());
        // A cut on a block boundary leaves an empty tail that fills again.
        seg.truncate_to(INDEX_BLOCK as u64);
        seg.append(stored(INDEX_BLOCK as u64, 0, "w"));
        assert_eq!(seg.iter().count(), INDEX_BLOCK + 1);
        drop(seg);
        assert!(!INDEX_POOL.lock().is_empty(), "a dropped index is retired");
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
        /// The blocked index behaves as the one `Vec<Entry>` it used to
        /// be, across block boundaries: pushes by the thousand, cuts at
        /// any position (in a full block, in the tail, on a boundary).
        #[test]
        fn index_matches_vec_model(
            ops in prop::collection::vec((any::<bool>(), 0usize..3_000, any::<u8>()), 1..12),
        ) {
            let entry = |i: usize| Entry {
                stamp: Timestamp(i as i64),
                chunk: 0,
                start: i as u32,
                value_len: 1,
                key_len: NO_KEY,
            };
            let mut index = Index::default();
            let mut model: Vec<usize> = Vec::new();
            for (push, count, frac) in ops {
                if push {
                    for _ in 0..count {
                        index.push(entry(model.len()));
                        model.push(model.len());
                    }
                } else {
                    let keep = (model.len() + 1) * usize::from(frac) / 256;
                    index.truncate(keep);
                    model.truncate(keep);
                }
                prop_assert_eq!(index.len(), model.len());
                prop_assert!(index.iter().map(|e| e.start as usize).eq(model.iter().copied()));
                prop_assert_eq!(index.first().map(|e| e.start as usize), model.first().copied());
                prop_assert_eq!(index.last().map(|e| e.start as usize), model.last().copied());
                prop_assert!(index.full.iter().all(|b| b.len() == INDEX_BLOCK));
                let (from, to) = (model.len() / 3, model.len() - model.len() / 5);
                let range: Vec<usize> = index
                    .slices(from, to)
                    .flatten()
                    .map(|e| e.start as usize)
                    .collect();
                prop_assert_eq!(&range[..], &model[from..to]);
                if let Some(&mid) = model.get(from) {
                    prop_assert_eq!(index.get(from).start as usize, mid);
                }
                prop_assert_eq!(index.slices(to, from).flatten().count(), 0);
            }
        }

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
                prop_assert_eq!(seg.entries.iter().count(), seg.len());
                prop_assert_eq!(seg.spilled.len(), spilled);
                prop_assert_eq!(seg.last_timestamp(), model.last().map(|r| r.timestamp));
            }
            prop_assert!(seg.iter().eq(model.iter().cloned()));
        }
    }
}
