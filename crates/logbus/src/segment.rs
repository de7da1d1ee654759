//! The segment: a partition log's records, packed into arena chunks and
//! found again through a block index.

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
/// The offset is implicit (the record's position) and the
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
/// dropped topic's index is the next topic's.
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

    /// Room left in the tail block, taking a fresh block from the pool
    /// first when the tail is full (or not there yet).
    fn room(&mut self) -> usize {
        if self.tail.len() == self.tail.capacity() {
            let fresh = INDEX_POOL.lock().pop();
            let fresh = fresh.unwrap_or_else(|| Vec::with_capacity(INDEX_BLOCK));
            let filled = std::mem::replace(&mut self.tail, fresh);
            if !filled.is_empty() {
                self.full.push(filled);
            }
        }
        self.tail.capacity() - self.tail.len()
    }

    fn push(&mut self, entry: Entry) {
        self.room();
        self.tail.push(entry);
    }

    /// Appends `f` of each of `entries`: one `extend` per index block
    /// they land in.
    fn extend_mapped(&mut self, mut entries: &[Entry], f: impl Fn(&Entry) -> Entry) {
        while !entries.is_empty() {
            let (now, rest) = entries.split_at(self.room().min(entries.len()));
            self.tail.extend(now.iter().map(&f));
            entries = rest;
        }
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

/// Emptied segments of dropped logs. A segment's chunk, spill and
/// index-block tables grow with its log — past a kilobyte each for a
/// 100 k-record topic — and a shell keeps what they grew to, so the next
/// log (a topic created after one was deleted) fills them without
/// meeting the allocator.
static SHELLS: Mutex<Vec<Segment>> = Mutex::new(Vec::new());

/// Shells the pool keeps: one per partition replica of the topics
/// deleted last.
const SHELLS_MAX: usize = 64;

/// A partition log's records, in offset order from offset 0: the log is
/// one segment that keeps every record, so the record at offset `o` is
/// index entry `o` — found by block arithmetic, `o / INDEX_BLOCK`.
///
/// The segment owns an arena of refcounted byte chunks and an index of
/// one [`Entry`] per record: appended keys and values are packed into the
/// arena, and reads build [`StoredRecord`]s whose key and value are
/// zero-copy [`Bytes`] views of it, so fetches hand out slices of segment
/// storage without copying — the zero-copy fetch contract (DESIGN.md §12).
#[derive(Debug, Default)]
pub struct Segment {
    entries: Index,
    /// Arena chunks; appends pack into the last one.
    chunks: Vec<BytesMut>,
    /// Records an [`Entry`] cannot describe, in append order.
    spilled: Vec<Record>,
    bytes: usize,
}

impl Segment {
    /// Creates an empty segment. Nothing is allocated until the first
    /// append.
    pub fn new() -> Self {
        Segment::default()
    }

    /// An empty segment for a new log: a retired segment's shell when the
    /// pool has one.
    pub(crate) fn take() -> Self {
        SHELLS.lock().pop().unwrap_or_default()
    }

    /// Empties the segment into the shell pool [`Segment::take`] draws
    /// from. Index blocks return to their pool at once and arena chunks
    /// are let go; each chunk recycles when its last fetched view drops.
    pub(crate) fn retire(mut self) {
        self.entries.truncate(0);
        self.chunks.clear();
        self.spilled.clear();
        self.bytes = 0;
        let mut shells = SHELLS.lock();
        if shells.len() < SHELLS_MAX {
            shells.push(self);
        }
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

    /// Offset one past the last stored record.
    pub fn next_offset(&self) -> u64 {
        self.entries.len() as u64
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

    /// Appends `records` in order, all stamped `stamp`. Payloads are
    /// copied into the arena (the producer's buffers are only read, and
    /// can be recycled at once) while fetches serve refcounted views of
    /// contiguous segment storage; a record that spills is kept as a
    /// refcounted clone.
    pub(crate) fn append_batch(&mut self, records: &[Record], stamp: Timestamp) {
        for record in records {
            self.bytes += record.wire_size();
            let entry = self.pack(record, stamp).unwrap_or_else(|| {
                self.spilled.push(record.clone());
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
    }

    /// Appends one record: the log's batch append with a batch of one.
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
        self.append_batch(std::slice::from_ref(&stored.record), stored.timestamp);
    }

    /// Appends a block of `src`'s records, starting with the one at
    /// `offset` (which must be this segment's [`next_offset`] and lie in
    /// `src`) and ending before `end`, and returns how many: the longest
    /// run whose payloads sit back to back in one of `src`'s arena chunks
    /// — moved with a single `memcpy`, their entries rebased onto this
    /// segment's arena and added to its index a block at a time — or one
    /// spilled record, cloned as [`append_batch`] would store it. A run
    /// also ends where `src`'s index block does and where this segment's
    /// chunk is full.
    ///
    /// [`next_offset`]: Segment::next_offset
    /// [`append_batch`]: Segment::append_batch
    pub(crate) fn append_block(&mut self, src: &Segment, offset: u64, end: u64) -> usize {
        debug_assert!(offset == self.next_offset() && src.contains(offset));
        let to = end.min(src.next_offset()) as usize;
        let run = src
            .entries
            .slices(offset as usize, to)
            .next()
            .unwrap_or_default();
        let Some(&first) = run.first() else {
            return 0;
        };
        if first.chunk == SPILLED {
            let record = std::slice::from_ref(&src.spilled[first.start as usize]);
            self.append_batch(record, first.stamp);
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
            if !adjacent || len + entry.arena_len() > room {
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
        self.entries.extend_mapped(&run[..count], |entry| Entry {
            chunk,
            start: entry.start - first.start + rebased,
            ..*entry
        });
        self.bytes += wire;
        count
    }

    /// Returns the record at `offset`, if it lies within this segment.
    pub fn get(&self, offset: u64) -> Option<StoredRecord> {
        self.contains(offset)
            .then(|| self.materialise(offset, self.entries.get(offset as usize)))
    }

    /// Whether `offset` falls inside this segment's stored range.
    pub fn contains(&self, offset: u64) -> bool {
        offset < self.next_offset()
    }

    /// Appends up to `max` records starting at `offset` to `out` and
    /// returns how many; none when `offset` lies outside this segment.
    pub fn read_into(&self, offset: u64, max: usize, out: &mut Vec<StoredRecord>) -> usize {
        if !self.contains(offset) {
            return 0;
        }
        let start = offset as usize;
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
        let keep = offset as usize;
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
        (0..)
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
        let mut seg = Segment::new();
        assert!(seg.is_empty());
        seg.append(stored(0, 1, "a"));
        seg.append(stored(1, 2, "b"));
        seg.append(stored(2, 3, "c"));
        assert_eq!(seg.len(), 3);
        assert_eq!(seg.next_offset(), 3);
        assert!(seg.contains(1));
        assert!(!seg.contains(3));
        assert_eq!(seg.get(1).unwrap(), stored(1, 2, "b"));
        assert!(seg.get(3).is_none());
    }

    #[test]
    fn read_into_appends_ranges() {
        let mut seg = Segment::new();
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
        let mut seg = Segment::new();
        seg.append(stored(1, 1, "a"));
    }

    #[test]
    fn timestamps_and_bytes() {
        let mut seg = Segment::new();
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
        let mut seg = Segment::new();
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
        let mut seg = Segment::new();
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
        let mut seg = Segment::new();
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
        let mut seg = Segment::new();
        seg.append(StoredRecord {
            offset: 0,
            timestamp: Timestamp::from_micros(1),
            record: Record::from_value(bytes),
        });
        assert_eq!(seg.get(0).unwrap().value().as_ptr(), ptr, "no copy");
    }

    #[test]
    fn static_payloads_pass_through() {
        let mut seg = Segment::new();
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
        let mut seg = Segment::new();
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
        let mut seg = Segment::new();
        seg.append(stored(0, 1, "survivor"));
        let view = seg.get(0).unwrap().record.value;
        drop(seg);
        assert_eq!(&view[..], b"survivor");
    }

    /// `src`'s records from `offset` on, block by block, as the partition
    /// log drives it; returns the sizes of the blocks.
    fn copy_blocks(dst: &mut Segment, src: &Segment, mut offset: u64) -> Vec<usize> {
        let mut blocks = Vec::new();
        while offset < src.next_offset() {
            let copied = dst.append_block(src, offset, src.next_offset());
            assert!(copied > 0, "a block holds at least one record");
            blocks.push(copied);
            offset += copied as u64;
        }
        blocks
    }

    #[test]
    fn block_copy_moves_a_contiguous_run_at_once() {
        let mut src = Segment::new();
        for i in 0..100u64 {
            let record = if i % 3 == 0 {
                Record::from_key_value(format!("k{i}").into_bytes(), format!("v{i}").into_bytes())
            } else {
                Record::from_value(format!("value-{i}").into_bytes())
            };
            src.append(StoredRecord {
                offset: i,
                timestamp: Timestamp(i as i64),
                record,
            });
        }
        let mut dst = Segment::new();
        assert_eq!(copy_blocks(&mut dst, &src, 0), [100], "one chunk, one run");
        assert!(dst.iter().eq(src.iter()));
        assert_eq!(dst.bytes(), src.bytes());
        // The copy owns its bytes: same layout, another chunk.
        let (a, b) = (src.get(2).unwrap(), dst.get(2).unwrap());
        assert_ne!(a.value().as_ptr(), b.value().as_ptr());
        drop(src);
        assert_eq!(&dst.get(2).unwrap().value()[..], b"value-2");
    }

    #[test]
    fn block_copy_splits_at_spills_chunks_gaps_and_the_end() {
        let value = |n: usize, fill: u8| Record::from_value(vec![fill; n]);
        let mut src = Segment::new();
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
        let mut dst = Segment::new();
        assert_eq!(copy_blocks(&mut dst, &src, 0), [5, 1, 1, 1, 1]);
        assert!(dst.iter().eq(src.iter()));
        assert_eq!(dst.bytes(), src.bytes());
        assert_eq!(dst.spilled.len(), 1);

        // A destination chunk with less room than the run ends it early;
        // the rest goes to a fresh chunk. 40 KiB are taken here (record 0
        // and a rewound 28 KiB), so two of the four 12 KiB records fit.
        let mut dst = Segment::new();
        push(&mut dst, value(12 << 10, 0));
        push(&mut dst, value(14 << 10, 0));
        push(&mut dst, value(14 << 10, 0));
        dst.truncate_to(1);
        assert_eq!(copy_blocks(&mut dst, &src, 1), [2, 2, 1, 1, 1, 1]);
        assert_eq!(dst.chunks.len(), 2);
        assert!(dst.iter().eq(src.iter()));
        assert_eq!(dst.bytes(), src.bytes());

        // `end` caps a run that would go on.
        let mut dst = Segment::new();
        assert_eq!(dst.append_block(&src, 0, 3), 3);
        assert_eq!(dst.append_block(&src, 3, 4), 1);
    }

    #[test]
    fn index_blocks_recycle_through_the_pool() {
        let mut seg = Segment::new();
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
        let mut seg = Segment::new();
        seg.append(stored(0, 1, "a"));
        seg.append(stored(1, 2, "bb"));
        seg.append(stored(2, 3, "ccc"));
        let full = seg.bytes();
        seg.truncate_to(1);
        assert_eq!(seg.len(), 1);
        assert_eq!(seg.next_offset(), 1);
        assert!(seg.bytes() < full);
        assert_eq!(seg.bytes(), Record::from_value("a").wire_size());
        // Truncating past the end is a no-op; truncating to 0 empties
        // the segment.
        seg.truncate_to(100);
        assert_eq!(seg.len(), 1);
        seg.truncate_to(0);
        assert!(seg.is_empty());
        assert_eq!(seg.bytes(), 0);
    }

    #[test]
    fn iteration() {
        let mut seg = Segment::new();
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
        fn segment_matches_vec_model(ops in prop::collection::vec(arb_op(), 1..120)) {
            let mut seg = Segment::new();
            let mut model: Vec<StoredRecord> = Vec::new();
            let at = |model: &Vec<StoredRecord>, frac: u8| {
                (model.len() as u64 + 1) * u64::from(frac) / 256
            };
            for (step, op) in ops.into_iter().enumerate() {
                match op {
                    Op::Append(record) => {
                        let stored = StoredRecord {
                            offset: model.len() as u64,
                            timestamp: Timestamp(step as i64),
                            record,
                        };
                        seg.append(stored.clone());
                        model.push(stored);
                    }
                    Op::Truncate(frac) => {
                        let offset = at(&model, frac);
                        seg.truncate_to(offset);
                        model.truncate(offset as usize);
                    }
                    Op::Read(frac, max) => {
                        let offset = at(&model, frac);
                        let from = (offset as usize).min(model.len());
                        let to = (from + max).min(model.len());
                        let mut out = Vec::new();
                        prop_assert_eq!(seg.read_into(offset, max, &mut out), to - from);
                        prop_assert_eq!(&out[..], &model[from..to]);
                        prop_assert_eq!(seg.get(offset), model.get(from).cloned());
                    }
                }
                prop_assert_eq!(seg.len(), model.len());
                prop_assert_eq!(seg.next_offset(), model.len() as u64);
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
