//! Offline shim for the `bytes` API subset used by this workspace:
//! [`Bytes`], a cheaply-cloneable, sliceable, immutable byte container,
//! and [`BytesMut`], an append-only builder whose frozen prefix is served
//! as zero-copy `Bytes` views of one shared allocation.
//!
//! # Storage model
//!
//! A [`Bytes`] is a `(ptr, len, owner)` triple, three words: `len` bytes
//! at `ptr`, and the counted reference that keeps them alive. With no
//! owner the bytes are a `&'static [u8]` (zero-cost
//! [`Bytes::from_static`], and the empty view); with one they lie in a
//! reference-counted raw buffer taken directly from a `Vec<u8>` without
//! copying ([`Bytes::from`] / [`BytesMut`]). Reading a view is one
//! `slice::from_raw_parts(ptr, len)` that never looks at its owner;
//! clones and slices share storage, never copy, and move only `ptr` and
//! `len`. The per-value path (deref, clone, drop, `pack_view` and the
//! capacity check before it) is `#[inline]`, so a caller in another
//! crate pays no call for it; rolling to a fresh chunk stays out of line.
//!
//! # Who holds a buffer's references
//!
//! A shared buffer counts its references in one atomic, but a view
//! does not touch it on the way in or out in steady state. The count
//! is the sum of three kinds of holder:
//!
//! * **live views** — every `Bytes` of the buffer holds exactly one;
//! * **the writer** — the `BytesMut` that owns the buffer holds one of
//!   its own plus what is left of its *prepaid block*:
//!   [`BytesMut::pack_view`] hands each view one reference out of a
//!   block of `PREPAY` (256) that the writer buys with a single
//!   `fetch_add`, and the writer hands the unspent rest back when it
//!   rolls to a new chunk or drops;
//! * **parked entries** — dropping a view parks its reference in a
//!   per-thread table of `WAYS` (4) entries keyed by buffer, and cloning
//!   a view or calling [`BytesMut::frozen`] takes a parked reference
//!   back before it buys a new one.
//!
//! A buffer returns to the chunk pool when the count reaches zero,
//! which happens at one of three moments:
//!
//! * **a sole holder's drop** — a drop (or a writer's hand-back) that
//!   finds every reference left parked on its own thread (a relaxed
//!   load of the count equals the parked count) releases them all at
//!   once, so the last view of a chunk still reclaims it at once;
//! * **eviction** — an entry pushed out of a full table by another
//!   buffer's drop releases its references;
//! * **thread exit** — the table is a `const` thread-local whose
//!   destructor releases every entry; a drop made after that destructor
//!   has run releases its reference directly.
//!
//! # Safety invariant
//!
//! All `unsafe` in the workspace's byte path is confined to this shim.
//! A [`Shared`] buffer may be referenced by any number of read-only
//! `Bytes` views plus at most one writer, the `BytesMut` that owns its
//! `[off, cap)` window:
//!
//! * a view's `[ptr, ptr + len)` lies inside its owner's buffer (or its
//!   `&'static` slice), set once from the buffer's base plus an offset
//!   when the view is made and only narrowed by `slice`/`slice_ref`;
//! * those bytes were fully initialized *before* the view was created,
//!   and they are never written again (freezing advances the writer's
//!   base past them, and [`BytesMut::frozen`] refuses ranges beyond that
//!   base);
//! * a `BytesMut` writes only at `off + len ..`, strictly beyond every
//!   frozen view.
//!
//! Reads and writes therefore never overlap, so no `&`/`&mut` aliasing
//! or data race can occur even when views live on other threads. The
//! buffer itself stays allocated while its count is above zero: every
//! holder above is counted in it, a reference only moves between a
//! view, a prepaid block and a parked entry on one thread, and whoever
//! takes the count to zero frees the buffer. A view's `ptr` is thus
//! valid for as long as the view holds its owner's reference.
//!
//! # Chunk pool
//!
//! When a shared buffer's count reaches zero (see the three moments
//! above), its allocation goes to a free-list instead of the global
//! allocator; [`BytesMut::with_capacity`] takes from the same list. The
//! list is one LIFO stack per power-of-two size class, so taking and
//! returning a buffer are a pop and a push whatever else sits idle, and
//! a reused buffer is the one retired last — memory that has been
//! touched before. Each class is bounded in bytes, not slots: the class
//! of the 64 KiB arena chunks (segment storage, the decode [`arena`],
//! the data sender's lines) keeps up to [`POOL_ARENA_BUDGET`], enough for a
//! whole benchmark topic to retire and come back without a page fault;
//! every other class keeps 4 MiB. Beyond its budget a class hands
//! buffers back to the allocator, so resident memory is the high-water
//! mark only up to the budget. See [`pool_stats`] and
//! [`pool_fresh_chunks`].

pub mod arena;

use std::cell::RefCell;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::ptr::NonNull;
use std::sync::atomic::{fence, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Smallest buffer capacity worth keeping in the recycle pool.
const POOL_MIN_CAP: usize = 1024;
/// Largest buffer capacity the pool will retain: one such buffer is a
/// class's whole budget (oversize chunks are freed rather than hoarded).
const POOL_MAX_CAP: usize = POOL_CLASS_BUDGET;
/// Capacity of the arena chunks the workspace packs records into; its
/// size class is the one a retired topic lands in.
const POOL_ARENA_CAP: usize = 64 << 10;
/// Idle bytes the arena class may hold: the largest topic a `ledger`
/// workload retires and refills is ~110 MB (identity, 1 M records).
pub const POOL_ARENA_BUDGET: usize = 128 << 20;
/// Idle bytes every other class may hold.
const POOL_CLASS_BUDGET: usize = 4 << 20;
/// One class per power of two in `POOL_MIN_CAP..=POOL_MAX_CAP`.
const POOL_CLASSES: usize =
    (POOL_MAX_CAP.trailing_zeros() - POOL_MIN_CAP.trailing_zeros() + 1) as usize;

/// Free-lists of retired backing buffers, one stack per size class.
/// Class `k` holds buffers whose capacity lies in
/// `[POOL_MIN_CAP << k, POOL_MIN_CAP << (k + 1))`: a request is rounded
/// *up* to its class and a retired buffer *down*, so whatever a stack
/// holds is large enough for whoever pops it and no capacity is ever
/// compared.
struct ChunkPool {
    classes: [Mutex<Vec<Vec<u8>>>; POOL_CLASSES],
}

impl ChunkPool {
    const fn new() -> Self {
        ChunkPool {
            classes: [const { Mutex::new(Vec::new()) }; POOL_CLASSES],
        }
    }

    /// The class whose buffers all hold at least `cap` bytes.
    fn class_fitting(cap: usize) -> Option<usize> {
        (POOL_MIN_CAP..=POOL_MAX_CAP).contains(&cap).then(|| {
            (cap.next_power_of_two().trailing_zeros() - POOL_MIN_CAP.trailing_zeros()) as usize
        })
    }

    /// The class a buffer of capacity `cap` belongs to.
    fn class_of(cap: usize) -> Option<usize> {
        (POOL_MIN_CAP..=POOL_MAX_CAP)
            .contains(&cap)
            .then(|| (cap.ilog2() - POOL_MIN_CAP.trailing_zeros()) as usize)
    }

    /// How many idle buffers `class` may hold.
    const fn limit(class: usize) -> usize {
        let cap = POOL_MIN_CAP << class;
        if cap == POOL_ARENA_CAP {
            POOL_ARENA_BUDGET / cap
        } else {
            POOL_CLASS_BUDGET / cap
        }
    }

    /// Pops the buffer retired last in `cap`'s class, if any.
    fn take(&self, cap: usize) -> Option<Vec<u8>> {
        let class = Self::class_fitting(cap)?;
        self.classes[class].lock().ok()?.pop()
    }

    /// Pushes `v` onto its class's stack; hands it back when the class
    /// is at its budget or `v` is outside the pooled range.
    fn put(&self, mut v: Vec<u8>) -> Option<Vec<u8>> {
        let Some(class) = Self::class_of(v.capacity()) else {
            return Some(v);
        };
        let Ok(mut stack) = self.classes[class].lock() else {
            return Some(v);
        };
        if stack.len() >= Self::limit(class) {
            return Some(v);
        }
        v.clear();
        stack.push(v);
        None
    }
}

/// Shared across threads: buffers can be dropped on a different thread
/// than the one that filled them (consumer vs. producer), so the pool
/// must be global. A class is locked once per *chunk*, never per record.
static CHUNK_POOL: ChunkPool = ChunkPool::new();
static POOL_REUSED: AtomicUsize = AtomicUsize::new(0);
static POOL_RECLAIMED: AtomicUsize = AtomicUsize::new(0);
static POOL_FRESH: AtomicUsize = AtomicUsize::new(0);

/// (buffers handed back out of the pool, buffers returned to the pool)
/// since process start. Test/diagnostic hook for asserting the recycle
/// path is live.
pub fn pool_stats() -> (usize, usize) {
    (
        POOL_REUSED.load(Ordering::Relaxed),
        POOL_RECLAIMED.load(Ordering::Relaxed),
    )
}

/// Pool-sized buffers that came from the allocator because their class
/// was empty, since process start: memory that had to be touched for
/// the first time. A trial that ran on recycled memory leaves it alone.
pub fn pool_fresh_chunks() -> usize {
    POOL_FRESH.load(Ordering::Relaxed)
}

fn pool_acquire(cap: usize) -> Vec<u8> {
    if let Some(v) = CHUNK_POOL.take(cap) {
        POOL_REUSED.fetch_add(1, Ordering::Relaxed);
        return v;
    }
    if ChunkPool::class_fitting(cap).is_none() {
        return Vec::with_capacity(cap);
    }
    POOL_FRESH.fetch_add(1, Ordering::Relaxed);
    // A whole class's worth, so the buffer retires into the class the
    // next request of this size pops from.
    Vec::with_capacity(cap.next_power_of_two())
}

fn pool_reclaim(v: Vec<u8>) {
    if CHUNK_POOL.put(v).is_none() {
        POOL_RECLAIMED.fetch_add(1, Ordering::Relaxed);
    }
}

/// References a writer buys at once for the views [`BytesMut::pack_view`]
/// hands out: one `fetch_add` per this many views.
const PREPAY: usize = 256;

/// Entries in a thread's table of parked references: enough for the
/// chunks one stage reads from and writes into at the same time.
const WAYS: usize = 4;

/// A heap buffer with its reference count: the raw parts of a `Vec<u8>`
/// whose allocation is returned to the chunk pool when `refs` reaches
/// zero. Lives in a `Box` that the holder taking `refs` to zero frees.
struct Shared {
    /// Live views + the writer's own reference and unspent prepaid
    /// block + references parked in thread tables.
    refs: AtomicUsize,
    ptr: NonNull<u8>,
    cap: usize,
}

// SAFETY: `ptr` is an owning pointer to a heap allocation, freed only by
// whoever takes `refs` to zero, and the access discipline on its bytes
// (disjoint read/write regions) is enforced by the `Bytes`/`BytesMut`
// API per the module-level invariant; `refs` and `cap` are an atomic and
// an immutable integer.
unsafe impl Send for Shared {}
// SAFETY: as for `Send`: shared access reads `cap`, reads frozen bytes
// and updates `refs` atomically.
unsafe impl Sync for Shared {}

/// The canonical zero-capacity buffer, so `BytesMut::new()` never
/// allocates. Its count starts so high that no sequence of writers can
/// take it to zero, so it is never freed; no view of it exists (an
/// empty range is `Bytes::new()`).
static EMPTY: Shared = Shared {
    refs: AtomicUsize::new(usize::MAX / 2),
    ptr: NonNull::dangling(),
    cap: 0,
};

/// A pointer to a [`Shared`]. Copying one copies no reference: the code
/// that holds a handle is the code responsible for the references it
/// counts (one per `Bytes`, the writer's own plus its prepaid block, a
/// parked entry's tally), and it may dereference the handle only while
/// it holds at least one of them.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Handle(NonNull<Shared>);

impl Handle {
    /// A new buffer owning `v`'s allocation, holding one reference.
    fn alloc(mut v: Vec<u8>) -> Handle {
        let ptr = NonNull::from(v.as_mut_slice()).cast();
        let cap = v.capacity();
        std::mem::forget(v);
        let shared = Box::new(Shared {
            refs: AtomicUsize::new(1),
            ptr,
            cap,
        });
        Handle(NonNull::from(Box::leak(shared)))
    }

    fn empty() -> Handle {
        EMPTY.refs.fetch_add(1, Ordering::Relaxed);
        Handle(NonNull::from(&EMPTY))
    }

    #[inline]
    fn get(&self) -> &Shared {
        // SAFETY: the caller holds a counted reference (see `Handle`), so
        // `refs` is above zero and nobody has freed the `Box`.
        unsafe { self.0.as_ref() }
    }

    /// Hands back `n` references; whoever takes the count to zero puts
    /// the allocation in the chunk pool.
    fn release(self, n: usize) {
        // `Release` orders this holder's reads of the buffer before the
        // decrement; the `Acquire` fence of the holder that reaches zero
        // pairs with every such decrement, so the buffer is reused only
        // after all of them (the pairing `Arc` uses).
        if self.get().refs.fetch_sub(n, Ordering::Release) != n {
            return;
        }
        fence(Ordering::Acquire);
        // SAFETY: the count reached zero, so no view, writer or parked
        // entry is left to reach the buffer; the `Box` came from
        // `Handle::alloc` (`EMPTY`'s count never reaches zero), and
        // `ptr`/`cap` from a forgotten `Vec<u8>`, for which length 0 is
        // always valid.
        let v = unsafe {
            let shared = Box::from_raw(self.0.as_ptr());
            Vec::from_raw_parts(shared.ptr.as_ptr(), 0, shared.cap)
        };
        pool_reclaim(v);
    }

    /// One more reference, for a new view: a parked one if the calling
    /// thread has any, otherwise a fresh count.
    #[inline]
    fn acquire(self) {
        let unparked = PARKED
            .try_with(|table| table.borrow_mut().unpark(self))
            .unwrap_or(false);
        if !unparked {
            // Relaxed, as in `Arc::clone`: the caller already holds a
            // reference, so the buffer cannot be freed meanwhile.
            self.get().refs.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drops a view's reference: parks it in the calling thread's
    /// table, or releases it when the thread's table is gone.
    #[inline]
    fn park(self) {
        if PARKED
            .try_with(|table| table.borrow_mut().park(self))
            .is_err()
        {
            self.release(1);
        }
    }

    /// Hands back a writer's `n` references, with every reference the
    /// calling thread has parked when nothing else is outstanding.
    fn hand_back(self, n: usize) {
        let settled = PARKED
            .try_with(|table| table.borrow_mut().settle(self, n))
            .unwrap_or(false);
        if !settled {
            self.release(n);
        }
    }
}

/// A thread's references to one buffer, held for the next view of it
/// this thread makes. `refs == 0` marks a free entry, whose `handle` may
/// name a buffer that is gone: only a tally above zero keeps one alive.
#[derive(Clone, Copy)]
struct Entry {
    handle: Option<Handle>,
    refs: usize,
}

/// A thread's table of parked references, `WAYS` entries keyed by
/// buffer, evicted round-robin.
struct Parked {
    ways: [Entry; WAYS],
    victim: usize,
}

thread_local! {
    /// `const` so an access costs no lazy-init check beyond the
    /// destructor's registration; the destructor flushes every entry.
    static PARKED: RefCell<Parked> = const { RefCell::new(Parked::new()) };
}

impl Parked {
    const fn new() -> Self {
        Parked {
            ways: [Entry {
                handle: None,
                refs: 0,
            }; WAYS],
            victim: 0,
        }
    }

    #[inline]
    fn find(&self, h: Handle) -> Option<usize> {
        self.ways.iter().position(|e| e.handle == Some(h))
    }

    /// Takes one parked reference to `h`, if this thread holds any.
    #[inline]
    fn unpark(&mut self, h: Handle) -> bool {
        match self.find(h) {
            Some(i) if self.ways[i].refs > 0 => {
                self.ways[i].refs -= 1;
                true
            }
            _ => false,
        }
    }

    /// Parks one reference to `h`. A reference that is the buffer's
    /// last is released at once and takes no entry.
    fn park(&mut self, h: Handle) {
        let i = match self.find(h) {
            Some(i) => i,
            None if h.get().refs.load(Ordering::Relaxed) == 1 => {
                h.release(1);
                return;
            }
            None => self.evict(h),
        };
        self.ways[i].refs += 1;
        self.settle_at(i, 0);
    }

    /// Releases a writer's `own` references to `h` together with every
    /// one parked here, when the two are all that is left; says whether
    /// it did.
    fn settle(&mut self, h: Handle, own: usize) -> bool {
        self.find(h).is_some_and(|i| self.settle_at(i, own))
    }

    /// [`Parked::settle`] for entry `i`. The load may be stale: handing
    /// references back is correct whatever it reads, it just frees the
    /// buffer only when the count really was `parked + own`.
    #[inline]
    fn settle_at(&mut self, i: usize, own: usize) -> bool {
        let Entry {
            handle: Some(h),
            refs: parked @ 1..,
        } = self.ways[i]
        else {
            // A tally of zero holds nothing, so its buffer may be gone.
            return false;
        };
        if h.get().refs.load(Ordering::Relaxed) != parked + own {
            return false;
        }
        self.ways[i].refs = 0;
        h.release(parked + own);
        true
    }

    /// Frees an entry for `h` — a free one, or the next victim, whose
    /// references are released — and returns its index.
    fn evict(&mut self, h: Handle) -> usize {
        let i = self
            .ways
            .iter()
            .position(|e| e.refs == 0)
            .unwrap_or_else(|| {
                let i = self.victim;
                self.victim = (i + 1) % WAYS;
                i
            });
        self.flush(i);
        self.ways[i].handle = Some(h);
        i
    }

    fn flush(&mut self, i: usize) {
        let entry = &mut self.ways[i];
        if let (Some(h), refs @ 1..) = (entry.handle, entry.refs) {
            entry.refs = 0;
            h.release(refs);
        }
    }
}

impl Drop for Parked {
    fn drop(&mut self) {
        for i in 0..WAYS {
            self.flush(i);
        }
    }
}

/// A cheaply-cloneable immutable byte buffer: `len` bytes at `ptr`,
/// kept alive by `owner`'s counted reference, or `&'static` when there
/// is no owner.
pub struct Bytes {
    ptr: NonNull<u8>,
    len: usize,
    /// One counted reference, owned by this view; `None` for static
    /// bytes (and the empty view).
    owner: Option<Handle>,
}

const _: () = assert!(std::mem::size_of::<Bytes>() == 3 * std::mem::size_of::<usize>());
const _: () = assert!(std::mem::size_of::<Option<Bytes>>() == std::mem::size_of::<Bytes>());

// SAFETY: a view's bytes are immutable (module invariant) and its one
// reference is counted in `Shared::refs`, an atomic; moving a view moves
// that reference, and dropping it on any thread parks it in that
// thread's table or releases it through the atomic.
unsafe impl Send for Bytes {}
// SAFETY: `&Bytes` only reads immutable bytes, and `clone` takes its new
// reference from the calling thread's table or the atomic count.
unsafe impl Sync for Bytes {}

impl Bytes {
    /// Creates an empty buffer.
    pub const fn new() -> Self {
        Bytes::from_static(&[])
    }

    /// Wraps a static slice without copying.
    pub const fn from_static(bytes: &'static [u8]) -> Self {
        Bytes {
            ptr: NonNull::from_ref(bytes).cast(),
            len: bytes.len(),
            owner: None,
        }
    }

    /// A view of `len` bytes at `off` in `h`'s buffer.
    ///
    /// # Safety
    ///
    /// The caller has counted one reference to `h` for the view to own,
    /// `off + len` lies within the buffer's capacity, and those bytes are
    /// initialized and frozen (never written again).
    #[inline]
    unsafe fn owned(h: Handle, off: usize, len: usize) -> Self {
        Bytes {
            // SAFETY: the caller vouches `off <= cap`, so the pointer
            // stays inside (or one past) the buffer's allocation.
            ptr: unsafe { h.get().ptr.add(off) },
            len,
            owner: Some(h),
        }
    }

    /// Copies `data` into a new shared buffer (the one constructor that
    /// copies, for callers that only have a borrowed slice).
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Number of bytes in the buffer.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether this view is backed by `&'static` storage (no refcount).
    #[inline]
    pub fn is_static(&self) -> bool {
        self.owner.is_none()
    }

    /// Returns a sub-buffer sharing this buffer's storage.
    ///
    /// # Panics
    ///
    /// Panics when the range is out of bounds or inverted.
    #[inline]
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        assert!(start <= end, "slice range inverted: {start} > {end}");
        assert!(
            end <= self.len,
            "slice end {end} out of bounds (len {})",
            self.len
        );
        let mut view = self.clone();
        // SAFETY: `start <= end <= len`, so the new pointer stays inside
        // (or one past) this view's bytes.
        view.ptr = unsafe { self.ptr.add(start) };
        view.len = end - start;
        view
    }

    /// Returns a view of `subset` sharing this buffer's storage, where
    /// `subset` must be a sub-slice of `self` (same allocation). The
    /// zero-copy escape hatch for decode paths that walk a `&[u8]`
    /// cursor over a `Bytes` and want to keep a piece without copying.
    ///
    /// # Panics
    ///
    /// Panics when `subset` does not lie inside `self`'s bounds.
    #[inline]
    pub fn slice_ref(&self, subset: &[u8]) -> Self {
        if subset.is_empty() {
            return Bytes::new();
        }
        let full_start = self.ptr.as_ptr() as usize;
        let sub_start = subset.as_ptr() as usize;
        assert!(
            sub_start >= full_start && sub_start + subset.len() <= full_start + self.len,
            "slice_ref: subset is not contained in this Bytes"
        );
        let off = sub_start - full_start;
        self.slice(off..off + subset.len())
    }

    /// Copies the contents into a new `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    #[inline]
    fn as_slice(&self) -> &[u8] {
        // SAFETY: per the module invariant, `len` bytes at `ptr` lie in a
        // `&'static` slice or in `owner`'s buffer, were fully initialized
        // before this view existed and are never written while it lives;
        // the view's counted reference keeps the buffer allocated for
        // `&self`'s lifetime. An empty view's pointer is non-null.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl Clone for Bytes {
    #[inline]
    fn clone(&self) -> Self {
        if let Some(h) = self.owner {
            h.acquire();
        }
        Bytes {
            ptr: self.ptr,
            len: self.len,
            owner: self.owner,
        }
    }
}

impl Drop for Bytes {
    #[inline]
    fn drop(&mut self) {
        if let Some(h) = self.owner {
            h.park();
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::borrow::Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    /// Takes ownership of the `Vec`'s allocation without copying.
    fn from(v: Vec<u8>) -> Self {
        let len = v.len();
        // SAFETY: the new buffer's first `len` bytes are `v`'s, and no
        // writer is left to touch them.
        unsafe { Bytes::owned(Handle::alloc(v), 0, len) }
    }
}

impl From<String> for Bytes {
    /// Takes ownership of the `String`'s allocation without copying.
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::from_static(s.as_bytes())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::from_static(s)
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(b: Box<[u8]>) -> Self {
        Bytes::from(b.into_vec())
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl PartialEq for Bytes {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    #[inline]
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    #[inline]
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    #[inline]
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    #[inline]
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;

    fn into_iter(self) -> Self::IntoIter {
        self.to_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// An append-only byte builder over a pooled shared buffer.
/// [`BytesMut::pack_view`] appends bytes, freezes them in place and
/// returns their view, paid for out of the writer's prepaid block.
/// [`BytesMut::pack_frozen`] freezes without a view, handing back only
/// the start offset; [`BytesMut::frozen`] later serves any frozen range
/// as a zero-copy [`Bytes`] view, so an owner that indexes its chunk
/// with plain integers takes a reference only when a reader asks. When
/// capacity runs out the builder rolls to a fresh pooled chunk while
/// earlier views keep the old one alive.
pub struct BytesMut {
    /// The writer's own reference plus `prepaid` more.
    shared: Handle,
    /// Write base and frozen mark: every byte below `off` is frozen
    /// (visible to `Bytes` views); this builder never writes below it.
    off: usize,
    /// Initialized-but-unfrozen bytes at `off..off + len`.
    len: usize,
    /// References bought for views `pack_view` has yet to hand out.
    prepaid: usize,
}

// SAFETY: the writer's references are counted in `Shared::refs` and
// move with it; it is the buffer's only writer wherever it lives.
unsafe impl Send for BytesMut {}
// SAFETY: `&BytesMut` reads pending bytes only this writer (through
// `&mut`) writes, and `frozen` takes references from the calling
// thread's table or the atomic count.
unsafe impl Sync for BytesMut {}

impl BytesMut {
    /// Creates an empty builder without allocating.
    pub fn new() -> Self {
        BytesMut {
            shared: Handle::empty(),
            off: 0,
            len: 0,
            prepaid: 0,
        }
    }

    /// Creates a builder with at least `cap` bytes of capacity, reusing
    /// a pooled chunk when one is available.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            shared: Handle::alloc(pool_acquire(cap)),
            off: 0,
            len: 0,
            prepaid: 0,
        }
    }

    /// Number of initialized, unfrozen bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no pending bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Writable capacity remaining (including pending bytes).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.shared.get().cap - self.off
    }

    /// Ensures room for `additional` more bytes, rolling to a fresh
    /// pooled chunk (and carrying pending bytes over) when the current
    /// window is exhausted. The writer hands back its references to the
    /// old chunk; frozen views keep it alive, and once they drop it
    /// returns to the pool.
    #[inline]
    pub fn reserve(&mut self, additional: usize) {
        if self.capacity() - self.len < additional {
            self.roll(additional);
        }
    }

    /// [`BytesMut::reserve`]'s slow half: moves the pending bytes to a
    /// fresh chunk with room for `additional` more. Out of line, so the
    /// capacity check is all that inlines into a caller.
    #[cold]
    #[inline(never)]
    fn roll(&mut self, additional: usize) {
        let need = self.len + additional;
        let new_cap = need.next_power_of_two().max(POOL_MIN_CAP);
        let fresh = Handle::alloc(pool_acquire(new_cap));
        if self.len > 0 {
            // SAFETY: source region `[off, off+len)` of the old buffer is
            // initialized and owned by this builder; the fresh buffer has
            // `new_cap >= len` capacity and no other referent. The two
            // allocations are distinct, so the ranges cannot overlap.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    self.shared.get().ptr.as_ptr().add(self.off),
                    fresh.get().ptr.as_ptr(),
                    self.len,
                );
            }
        }
        self.shared.hand_back(1 + std::mem::take(&mut self.prepaid));
        self.shared = fresh;
        self.off = 0;
    }

    /// Appends `src` to the pending region.
    #[inline]
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.reserve(src.len());
        // SAFETY: `reserve` guaranteed `off + len + src.len() <= cap`;
        // per the module invariant no reader touches `[off + len, cap)`,
        // and `src` cannot alias the destination (no `&` to the
        // unwritten region can exist).
        unsafe {
            std::ptr::copy_nonoverlapping(
                src.as_ptr(),
                self.shared.get().ptr.as_ptr().add(self.off + self.len),
                src.len(),
            );
        }
        self.len += src.len();
    }

    /// `bytes`-style alias for [`BytesMut::extend_from_slice`].
    pub fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }

    /// Copies `data` in behind any pending bytes and freezes the lot in
    /// place, returning the offset of `data` within the current chunk:
    /// the packer primitive of segment arenas, which costs one `memcpy`
    /// and no refcount traffic. The offset indexes the chunk that is
    /// current *after* the call — when `data` did not fit, that is a
    /// fresh one (see [`BytesMut::reserve`]) — so an owner that keeps
    /// offsets checks [`BytesMut::capacity`] first.
    #[inline]
    pub fn pack_frozen(&mut self, data: &[u8]) -> usize {
        self.extend_from_slice(data);
        self.off += self.len;
        self.len = 0;
        self.off - data.len()
    }

    /// Copies `data` in behind any pending bytes, freezes the lot in
    /// place and returns the view of `data`: [`BytesMut::pack_frozen`]
    /// and [`BytesMut::frozen`] in one call, whose reference comes out of
    /// the writer's prepaid block — one `fetch_add` per 256 views,
    /// the unspent rest handed back when the writer rolls or drops. When
    /// `data` does not fit, the writer rolls first (see
    /// [`BytesMut::reserve`]). Empty `data` is `Bytes::new()`.
    #[inline]
    pub fn pack_view(&mut self, data: &[u8]) -> Bytes {
        let start = self.pack_frozen(data);
        if data.is_empty() {
            return Bytes::new();
        }
        if self.prepaid == 0 {
            // Relaxed: the writer holds its own reference meanwhile.
            self.shared.get().refs.fetch_add(PREPAY, Ordering::Relaxed);
            self.prepaid = PREPAY;
        }
        self.prepaid -= 1;
        // SAFETY: `pack_frozen` just wrote and froze `data` at `start`.
        unsafe { Bytes::owned(self.shared, start, data.len()) }
    }

    /// Zero-copy view of `range`, given in chunk offsets as returned by
    /// [`BytesMut::pack_frozen`]. An empty range costs no reference; any
    /// other takes one parked on the calling thread, or a fresh one.
    ///
    /// # Panics
    ///
    /// Panics when the range is inverted or reaches past the frozen
    /// mark: bytes beyond it may still be written.
    #[inline]
    pub fn frozen(&self, range: std::ops::Range<usize>) -> Bytes {
        assert!(
            range.start <= range.end && range.end <= self.off,
            "frozen range {range:?} reaches past the frozen mark {}",
            self.off
        );
        if range.is_empty() {
            return Bytes::new();
        }
        self.shared.acquire();
        // SAFETY: the assert keeps `range` below the frozen mark `off`,
        // whose bytes are initialized and never written again.
        unsafe { Bytes::owned(self.shared, range.start, range.len()) }
    }

    /// Discards pending bytes (frozen views are unaffected).
    pub fn clear(&mut self) {
        self.len = 0;
    }
}

impl Drop for BytesMut {
    fn drop(&mut self) {
        self.shared.hand_back(1 + self.prepaid);
    }
}

impl Default for BytesMut {
    fn default() -> Self {
        BytesMut::new()
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        // SAFETY: `[off, off+len)` is initialized and this builder, its
        // only writer, writes at `off + len..`, so a shared borrow is
        // sound.
        unsafe {
            std::slice::from_raw_parts(self.shared.get().ptr.as_ptr().add(self.off), self.len)
        }
    }
}

impl std::fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BytesMut(len={}, cap={})", self.len, self.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn construction_and_equality() {
        assert_eq!(Bytes::from_static(b"abc"), Bytes::from(b"abc".to_vec()));
        assert_eq!(Bytes::from("abc"), Bytes::copy_from_slice(b"abc"));
        assert_eq!(Bytes::from(String::from("x")).len(), 1);
        assert!(Bytes::new().is_empty());
    }

    #[test]
    fn from_vec_is_zero_copy() {
        let v = vec![7u8; 32];
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(
            b.as_slice().as_ptr(),
            ptr,
            "storage must be taken, not copied"
        );
    }

    #[test]
    fn slices_share_storage() {
        let b = Bytes::from(b"hello world".to_vec());
        let s = b.slice(6..);
        assert_eq!(&s[..], b"world");
        assert_eq!(s.slice(..3), Bytes::from_static(b"wor"));
        assert_eq!(b.slice(..5).to_vec(), b"hello");
    }

    #[test]
    fn empty_and_full_range_slices() {
        let b = Bytes::from(b"abcdef".to_vec());
        assert!(b.slice(3..3).is_empty());
        assert_eq!(b.slice(..), b);
        assert_eq!(b.slice(0..6), b);
        let empty = Bytes::new();
        assert_eq!(empty.slice(..), empty);
    }

    #[test]
    fn nested_slices_stay_anchored() {
        let b = Bytes::from(b"0123456789".to_vec());
        let mid = b.slice(2..8); // "234567"
        let inner = mid.slice(1..4); // "345"
        assert_eq!(&inner[..], b"345");
        assert_eq!(inner.slice(2..), Bytes::from_static(b"5"));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        let _ = Bytes::from_static(b"ab").slice(..3);
    }

    #[test]
    fn slice_ref_shares_storage() {
        let b = Bytes::from(b"key=value".to_vec());
        let cursor: &[u8] = &b[4..];
        let v = b.slice_ref(cursor);
        assert_eq!(&v[..], b"value");
        assert_eq!(v.as_slice().as_ptr(), cursor.as_ptr(), "no copy");
        assert!(b.slice_ref(&[]).is_empty());
        assert_eq!(b.slice_ref(&b[..]), b);
    }

    #[test]
    #[should_panic(expected = "not contained")]
    fn slice_ref_foreign_slice_panics() {
        let b = Bytes::from(b"abc".to_vec());
        let other = [1u8, 2, 3];
        let _ = b.slice_ref(&other);
    }

    #[test]
    fn refcount_keeps_storage_alive_after_source_drops() {
        let slice = {
            let b = Bytes::from(b"long lived backing".to_vec());
            b.slice(5..10)
        };
        assert_eq!(&slice[..], b"lived");
    }

    /// Test helper: pack `data` and view exactly those bytes.
    fn pack_view(buf: &mut BytesMut, data: &[u8]) -> Bytes {
        let start = buf.pack_frozen(data);
        buf.frozen(start..start + data.len())
    }

    #[test]
    fn bytesmut_pack_frozen_is_zero_copy_view() {
        let mut buf = BytesMut::with_capacity(64);
        let a = buf.pack_frozen(b"alpha");
        let b = buf.pack_frozen(b"beta");
        assert_eq!((a, b), (0, 5), "offsets are positions in the chunk");
        let (a, b) = (buf.frozen(a..a + 5), buf.frozen(b..b + 4));
        assert_eq!(&a[..], b"alpha");
        assert_eq!(&b[..], b"beta");
        // Both views are adjacent slices of the same allocation.
        let a_end = a.as_slice().as_ptr() as usize + a.len();
        assert_eq!(a_end, b.as_slice().as_ptr() as usize);
        // A view may span several packs, and an empty one is free.
        assert_eq!(&buf.frozen(3..7)[..], b"habe");
        assert!(buf.frozen(9..9).is_static());
    }

    #[test]
    fn bytesmut_pack_frozen_freezes_pending_bytes_too() {
        let mut buf = BytesMut::with_capacity(16);
        buf.extend_from_slice(b"header");
        assert_eq!(buf.pack_frozen(b"body"), 6);
        assert!(buf.is_empty());
        assert_eq!(&buf.frozen(0..10)[..], b"headerbody");
    }

    #[test]
    #[should_panic(expected = "past the frozen mark")]
    fn frozen_view_past_the_frozen_mark_panics() {
        let mut buf = BytesMut::with_capacity(16);
        buf.pack_frozen(b"abcd");
        buf.extend_from_slice(b"pending");
        let _ = buf.frozen(2..5);
    }

    #[test]
    fn views_stay_valid_after_the_builder_rolls() {
        let mut buf = BytesMut::with_capacity(8);
        let first = pack_view(&mut buf, b"12345678"); // fills the chunk
        assert_eq!(buf.capacity(), 0);
        // Forces a roll to a new chunk, where offsets start over.
        assert_eq!(buf.pack_frozen(b"abcdefgh"), 0);
        assert_eq!(&first[..], b"12345678", "frozen view survives the roll");
        assert_eq!(&buf.frozen(0..8)[..], b"abcdefgh");
    }

    #[test]
    fn bytesmut_growth_carries_pending_bytes() {
        let mut buf = BytesMut::with_capacity(4);
        buf.extend_from_slice(b"abc");
        buf.extend_from_slice(b"defghij"); // exceeds capacity mid-build
        assert_eq!(&buf[..], b"abcdefghij");
    }

    #[test]
    fn chunk_pool_recycles_buffers() {
        let (reused_before, reclaimed_before) = pool_stats();
        for _ in 0..4 {
            let mut buf = BytesMut::with_capacity(POOL_MIN_CAP);
            let view = pack_view(&mut buf, &[9u8; 128]);
            drop(buf);
            drop(view); // last ref: chunk goes back to the pool
        }
        let (reused, reclaimed) = pool_stats();
        assert!(
            reclaimed > reclaimed_before,
            "dropping the last view must reclaim the chunk"
        );
        assert!(reused > reused_before, "later builders must reuse chunks");
    }

    #[test]
    fn fresh_chunks_count_pool_misses_only() {
        // A class of its own (512 KiB), so no other test feeds or
        // drains the stack under this one.
        const CAP: usize = 512 << 10;
        let fresh = pool_fresh_chunks();
        drop(BytesMut::with_capacity(CAP));
        assert!(pool_fresh_chunks() > fresh, "an empty class allocates");
        let fresh = pool_fresh_chunks();
        let again = BytesMut::with_capacity(CAP - 1);
        assert_eq!(pool_fresh_chunks(), fresh, "a retired buffer is reused");
        assert_eq!(again.capacity(), CAP, "requests round up to their class");
        // Below the pooled range nothing is counted or rounded.
        assert_eq!(BytesMut::with_capacity(100).capacity(), 100);
        assert_eq!(pool_fresh_chunks(), fresh);
    }

    /// Taking and returning a buffer are a pop and a push on one class's
    /// stack, however many buffers of whatever sizes sit idle: the pool
    /// is filled to the brim (10 000+ buffers across every class), and a
    /// request must then come back with the buffer its class retired
    /// *last* — a first-fit scan hands out the oldest one that fits —
    /// while every other stack keeps its length.
    #[test]
    fn pool_take_and_put_are_o1_with_10_000_idle_buffers() {
        let pool = ChunkPool::new();
        let lens = |pool: &ChunkPool| -> Vec<usize> {
            pool.classes
                .iter()
                .map(|stack| stack.lock().unwrap().len())
                .collect()
        };
        // Capacities spread over each class's range (never touched, so
        // the test costs address space, not memory).
        for class in 0..POOL_CLASSES {
            let base = POOL_MIN_CAP << class;
            for i in 0..ChunkPool::limit(class) {
                let cap = (base + (i % 4) * base / 4).min(POOL_MAX_CAP);
                assert!(pool.put(Vec::with_capacity(cap)).is_none());
            }
        }
        let full = lens(&pool);
        assert!(full.iter().sum::<usize>() >= 10_000, "{full:?}");
        assert_eq!(
            full[ChunkPool::class_of(POOL_ARENA_CAP).unwrap()],
            POOL_ARENA_BUDGET / POOL_ARENA_CAP,
            "the arena class is bounded by its byte budget"
        );
        // What a stack holds fits whoever pops it: no capacity check on
        // the way out.
        for (class, stack) in pool.classes.iter().enumerate() {
            let base = POOL_MIN_CAP << class;
            assert!(stack
                .lock()
                .unwrap()
                .iter()
                .all(|v| (base..2 * base).contains(&v.capacity())));
        }
        for cap in [POOL_MIN_CAP, 1500, 4096, POOL_ARENA_CAP, POOL_ARENA_CAP + 1] {
            let class = ChunkPool::class_fitting(cap).unwrap();
            // A full class turns a buffer away without disturbing it...
            let marked = Vec::with_capacity(POOL_MIN_CAP << class);
            let (ptr, marked) = (marked.as_ptr(), pool.put(marked).expect("class is full"));
            assert_eq!(lens(&pool), full);
            // ...and with room for one, the next request gets that one.
            let older = pool.take(cap).expect("class is stocked");
            assert!(pool.put(marked).is_none());
            let taken = pool.take(cap).expect("class is stocked");
            assert_eq!(taken.as_ptr(), ptr, "LIFO: the buffer retired last");
            assert!(taken.capacity() >= cap);
            assert!(pool.put(older).is_none());
            assert_eq!(lens(&pool), full, "one stack moved, by one buffer");
        }
        // Outside the pooled range nothing is kept or served.
        assert!(pool.put(Vec::with_capacity(POOL_MIN_CAP - 1)).is_some());
        assert!(pool.put(Vec::with_capacity(POOL_MAX_CAP + 1)).is_some());
        assert!(pool.take(POOL_MAX_CAP + 1).is_none());
        assert_eq!(lens(&pool), full);
    }

    #[test]
    fn deref_and_hash() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Bytes::from_static(b"k"));
        assert!(set.contains(&Bytes::from(b"k".to_vec())));
        assert_eq!(Bytes::from_static(b"abc").iter().count(), 3);
    }

    /// Idle buffers in `cap`'s class of the process-wide pool. Each
    /// release-point test below owns a class no other test touches, so
    /// the count moves only when that test's chunk is reclaimed.
    fn pooled(cap: usize) -> usize {
        let class = ChunkPool::class_of(cap).expect("a pooled size");
        CHUNK_POOL.classes[class].lock().unwrap().len()
    }

    #[test]
    fn a_sole_holders_drop_reclaims_at_once() {
        const CAP: usize = 2 << 10;
        let mut buf = BytesMut::with_capacity(CAP);
        let idle = pooled(CAP);
        let view = buf.pack_view(b"sole");
        let copy = view.clone();
        drop(buf); // hands back its own reference and its unspent block
        drop(view); // parked: the clone is still out
        assert_eq!(pooled(CAP), idle);
        drop(copy); // every reference left is parked on this thread
        assert_eq!(pooled(CAP), idle + 1, "the last view's drop reclaims");

        // Views that go first leave the writer's hand-back to reclaim.
        let mut buf = BytesMut::with_capacity(CAP);
        drop(buf.pack_view(b"first"));
        assert_eq!(pooled(CAP), idle);
        drop(buf);
        assert_eq!(pooled(CAP), idle + 1, "the writer's hand-back reclaims");
    }

    #[test]
    fn an_evicted_entry_flushes() {
        const CAP: usize = 4 << 10;
        let mut buf = BytesMut::with_capacity(CAP);
        let idle = pooled(CAP);
        let view = buf.pack_view(b"parked on another thread");
        let (parked_tx, parked_rx) = mpsc::channel();
        let (evict_tx, evict_rx) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            drop(view); // the writer still holds the chunk: parked
            parked_tx.send(()).unwrap();
            evict_rx.recv().unwrap();
            // Views of WAYS buffers whose writers live take every
            // entry; the last of them evicts the chunk's.
            let mut writers: Vec<_> = (0..WAYS).map(|_| BytesMut::with_capacity(64)).collect();
            for (i, writer) in writers.iter_mut().enumerate() {
                assert_eq!(pooled(CAP), idle, "evicted early, at view {i}");
                drop(writer.pack_view(b"x"));
            }
            assert_eq!(pooled(CAP), idle + 1, "the evicted entry reclaims");
        });
        parked_rx.recv().unwrap();
        drop(buf);
        assert_eq!(pooled(CAP), idle, "the parked reference holds the chunk");
        evict_tx.send(()).unwrap();
        thread.join().expect("evicting thread");
    }

    #[test]
    fn thread_exit_flushes() {
        const CAP: usize = 8 << 10;
        let mut buf = BytesMut::with_capacity(CAP);
        let idle = pooled(CAP);
        let view = buf.pack_view(b"parked until the thread exits");
        let (parked_tx, parked_rx) = mpsc::channel();
        let (exit_tx, exit_rx) = mpsc::channel::<()>();
        let thread = std::thread::spawn(move || {
            drop(view);
            parked_tx.send(()).unwrap();
            let _ = exit_rx.recv();
        });
        parked_rx.recv().unwrap();
        drop(buf);
        assert_eq!(pooled(CAP), idle, "the parked reference holds the chunk");
        drop(exit_tx);
        thread.join().expect("exiting thread");
        assert_eq!(pooled(CAP), idle + 1, "thread exit reclaims");

        // A view dropped while its thread tears down its thread-locals,
        // before or after the table's own destructor, reclaims too.
        thread_local! {
            static HELD: RefCell<Option<Bytes>> = const { RefCell::new(None) };
        }
        let mut buf = BytesMut::with_capacity(CAP);
        let view = buf.pack_view(b"dropped during teardown");
        drop(buf);
        std::thread::spawn(move || {
            HELD.with(|held| *held.borrow_mut() = Some(view));
            drop(Bytes::from(vec![0u8; 8]).clone()); // touches the table
        })
        .join()
        .expect("exiting thread");
        assert_eq!(pooled(CAP), idle + 1, "a teardown drop reclaims");
    }

    #[test]
    fn cross_thread_views() {
        let mut buf = BytesMut::with_capacity(1024);
        let view = pack_view(&mut buf, b"shared across threads");
        let handle = std::thread::spawn(move || view.to_vec());
        buf.extend_from_slice(b"writer keeps writing meanwhile");
        assert_eq!(handle.join().unwrap(), b"shared across threads");
    }
}
