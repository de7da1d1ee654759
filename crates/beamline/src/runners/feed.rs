//! Bounded source feed: streams a pipeline source into a runner through
//! a capacity-limited channel.
//!
//! The dstream and apx runners used to materialize the **entire** source
//! on the first pull (`factory().read(..)` into one `Vec`), which is
//! harmless for a preloaded bounded topic but unbounded buffering for a
//! followed one: a source tailing a live producer would accumulate the
//! whole run in memory before the first batch was processed. The feed
//! replaces that with a reader thread pushing fixed-size chunks into a
//! **bounded** channel — when the runner falls behind, the channel fills,
//! the reader thread blocks inside `send`, and (for follow-mode broker
//! sources) the fetch loop stops advancing its cursors. Overload degrades
//! into backpressure on the source instead of an OOM.
//!
//! A chunk the reader is still filling is shared with the consumer, so a
//! source that pauses mid-chunk cannot hold elements back: the reader
//! flushes a partial chunk only when it emits, and a paused source does
//! not, so the pull takes the partial chunk itself.

use crate::graph::{RawElement, SourceFactory};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// Elements per channel message. Chunking amortizes the channel's lock
/// per element while keeping the in-flight window small.
const CHUNK: usize = 1024;

/// Channel capacity in chunks. At most `CHUNK * (CAPACITY + 2)` elements
/// are read from the source and not yet handed out: `CAPACITY` chunks on
/// the channel, one chunk the reader is filling (or blocked sending), and
/// under one chunk the feed holds from a chunk a pull cut short.
const CAPACITY: usize = 8;

/// A partial chunk is flushed once it is this old, so a slow (e.g.
/// follow-mode) source adds at most ~1 ms of feed-side batching delay to
/// end-to-end latency. A pull that waits looks at the partial chunk
/// after each such interval: one that did not grow over a whole interval
/// belongs to a paused source, which flushes nothing, and is taken.
const FLUSH_INTERVAL: std::time::Duration = std::time::Duration::from_millis(1);

/// The chunk the reader thread is filling.
type Partial = Arc<Mutex<Vec<RawElement>>>;

/// A source feed: the reader thread drives `RawSource::read`, the runner
/// pulls batches cut from the chunks on the bounded channel and from the
/// reader's partial chunk.
pub struct SourceFeed {
    /// The source and the channel's sending half, until the first pull
    /// starts the reader thread.
    unstarted: Option<(SourceFactory, Sender<Vec<RawElement>>)>,
    receiver: Receiver<Vec<RawElement>>,
    partial: Partial,
    reader: Option<std::thread::JoinHandle<()>>,
    /// Pulled off the channel but not yet handed out.
    buffered: VecDeque<RawElement>,
}

impl SourceFeed {
    /// A feed over a fresh source instance; the reader thread starts on
    /// the first [`SourceFeed::next_batch`].
    pub fn new(factory: SourceFactory) -> Self {
        let (sender, receiver) = bounded::<Vec<RawElement>>(CAPACITY);
        SourceFeed {
            unstarted: Some((factory, sender)),
            receiver,
            partial: Arc::default(),
            reader: None,
            buffered: VecDeque::new(),
        }
    }

    /// The next batch of at most `max` elements; `None` once the source
    /// is exhausted.
    ///
    /// Waits for the batch's first chunk — or takes the reader's partial
    /// chunk once it stops growing, as a paused source's does — then
    /// tops up with what is already there without waiting: queued
    /// chunks, then the partial chunk. A slow or paused source yields
    /// small timely batches instead of stalling until a full one exists.
    pub fn next_batch(&mut self, max: usize) -> Option<Vec<RawElement>> {
        if let Some((factory, sender)) = self.unstarted.take() {
            self.reader = spawn_reader(factory, sender, self.partial.clone());
        }
        let mut seen = None;
        while self.buffered.is_empty() {
            match self.receiver.recv_timeout(FLUSH_INTERVAL) {
                Ok(chunk) => self.buffered.extend(chunk),
                Err(RecvTimeoutError::Timeout) => {
                    seen = self.next_chunk(|len| seen == Some(len));
                }
                Err(RecvTimeoutError::Disconnected) => {
                    // The reader sends its last partial chunk before it
                    // hangs up, so nothing is left behind.
                    self.join();
                    return None;
                }
            }
        }
        while self.buffered.len() < max && self.next_chunk(|_| true).is_none() {}
        let take = max.min(self.buffered.len());
        Some(self.buffered.drain(..take).collect())
    }

    /// Buffers the next queued chunk and returns `None`; or, when the
    /// channel is empty, buffers the reader's partial chunk if `take`
    /// accepts its length, and returns that length. Both are looked at
    /// under the partial's lock, and the reader sends a chunk before it
    /// pushes into the next one, so the elements stay in order. One chunk
    /// at most is buffered per call, so a pull stops within a chunk of
    /// `max`.
    fn next_chunk(&mut self, take: impl Fn(usize) -> bool) -> Option<usize> {
        let mut partial = self.partial.lock();
        if let Ok(chunk) = self.receiver.try_recv() {
            self.buffered.extend(chunk);
            return None;
        }
        let len = partial.len();
        if take(len) {
            self.buffered.extend(partial.drain(..));
        }
        Some(len)
    }

    fn join(&mut self) {
        if let Some(handle) = self.reader.take() {
            let _ = handle.join();
        }
    }
}

/// Spawns the thread that reads the source into chunks on the channel.
/// `None` on spawn failure (resource exhaustion): the sender is dropped
/// with the closure, so the feed behaves as an empty source rather than
/// panicking in the data plane.
fn spawn_reader(
    factory: SourceFactory,
    sender: Sender<Vec<RawElement>>,
    partial: Partial,
) -> Option<std::thread::JoinHandle<()>> {
    std::thread::Builder::new()
        .name("beamline-source-feed".into())
        .spawn(move || {
            let mut open = true;
            let mut last_flush = std::time::Instant::now();
            factory().read(&mut |element| {
                if !open {
                    // Receiver gone (runner failed): drain the rest
                    // of the source without buffering it.
                    return;
                }
                let full = {
                    let mut partial = partial.lock();
                    partial.push(element);
                    (partial.len() >= CHUNK || last_flush.elapsed() >= FLUSH_INTERVAL)
                        .then(|| std::mem::replace(&mut *partial, Vec::with_capacity(CHUNK)))
                };
                if let Some(full) = full {
                    last_flush = std::time::Instant::now();
                    // Blocks while the channel is full: this is the
                    // backpressure edge. Sent outside the lock, so a
                    // pull draining the channel never waits on it.
                    open = sender.send(full).is_ok();
                }
            });
            let rest = std::mem::take(&mut *partial.lock());
            if open && !rest.is_empty() {
                let _ = sender.send(rest);
            }
        })
        .ok()
}

impl Drop for SourceFeed {
    fn drop(&mut self) {
        // Unblock a sender stuck on a full channel, then reap the thread.
        // Dropping the receiver first makes every pending `send` fail.
        let (_, empty) = bounded::<Vec<RawElement>>(1);
        self.receiver = empty;
        self.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::WindowedValue;
    use crate::graph::{RawEmit, RawSource};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    struct CountingSource {
        total: usize,
        emitted: Arc<AtomicUsize>,
    }

    impl RawSource for CountingSource {
        fn read(&mut self, emit: RawEmit<'_>) {
            for i in 0..self.total {
                emit(WindowedValue::in_global_window(vec![i as u8].into()));
                self.emitted.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    #[test]
    fn feed_streams_all_elements_in_order() {
        let emitted = Arc::new(AtomicUsize::new(0));
        let emitted2 = emitted.clone();
        let factory: SourceFactory = Arc::new(move || {
            Box::new(CountingSource {
                total: 5_000,
                emitted: emitted2.clone(),
            })
        });
        let mut feed = SourceFeed::new(factory);
        let mut all = Vec::new();
        while let Some(batch) = feed.next_batch(CHUNK) {
            assert!(batch.len() <= CHUNK);
            all.extend(batch);
        }
        assert_eq!(all.len(), 5_000);
        assert_eq!(emitted.load(Ordering::SeqCst), 5_000);
        for (i, element) in all.iter().enumerate() {
            assert_eq!(element.value, [i as u8][..]);
        }
    }

    #[test]
    fn feed_bounds_in_flight_elements() {
        let emitted = Arc::new(AtomicUsize::new(0));
        let emitted2 = emitted.clone();
        let factory: SourceFactory = Arc::new(move || {
            Box::new(CountingSource {
                total: 1_000_000,
                emitted: emitted2.clone(),
            })
        });
        let mut feed = SourceFeed::new(factory);
        // Take exactly one chunk's worth. A pull may return less: a
        // reader descheduled for over `FLUSH_INTERVAL` while filling its
        // first chunk flushes it partial, and the pull takes that.
        let mut taken = 0;
        while taken < CHUNK {
            taken += feed.next_batch(CHUNK - taken).expect("chunk").len();
        }
        // Give the reader time to run ahead as far as it can.
        std::thread::sleep(std::time::Duration::from_millis(30));
        let ahead = emitted.load(Ordering::SeqCst);
        // At most the chunk taken plus the in-flight bound of
        // `CAPACITY`'s doc.
        assert!(
            ahead <= CHUNK + CHUNK * (CAPACITY + 2),
            "reader ran {ahead} elements ahead of a stalled consumer"
        );
        drop(feed);
    }

    #[test]
    fn dropping_feed_unblocks_reader() {
        let emitted = Arc::new(AtomicUsize::new(0));
        let emitted2 = emitted.clone();
        let factory: SourceFactory = Arc::new(move || {
            Box::new(CountingSource {
                total: 100_000,
                emitted: emitted2.clone(),
            })
        });
        let mut feed = SourceFeed::new(factory);
        assert!(feed.next_batch(1).is_some());
        std::thread::sleep(std::time::Duration::from_millis(10));
        // Must not hang on the blocked sender.
        drop(feed);
    }

    /// Emits one full chunk, says so, and pauses until released (or
    /// five seconds pass, so a pull that waits fails instead of hanging),
    /// then emits one more chunk.
    struct PausingSource {
        paused: Sender<()>,
        released: Arc<AtomicBool>,
    }

    impl RawSource for PausingSource {
        fn read(&mut self, emit: RawEmit<'_>) {
            let element = |i: usize| {
                WindowedValue::in_global_window((i as u16).to_be_bytes().to_vec().into())
            };
            for i in 0..CHUNK {
                emit(element(i));
            }
            let _ = self.paused.send(());
            let pause = std::time::Instant::now();
            while !self.released.load(Ordering::SeqCst) && pause.elapsed().as_secs() < 5 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            for i in CHUNK..2 * CHUNK {
                emit(element(i));
            }
        }
    }

    #[test]
    fn next_batch_hands_out_what_is_queued_in_order_without_waiting() {
        let (paused, source_paused) = bounded::<()>(1);
        let released = Arc::new(AtomicBool::new(false));
        let released2 = released.clone();
        let factory: SourceFactory = Arc::new(move || {
            Box::new(PausingSource {
                paused: paused.clone(),
                released: released2.clone(),
            })
        });
        let mut feed = SourceFeed::new(factory);
        // The first pull starts the reader and blocks for its first chunk.
        let mut all = feed.next_batch(1).expect("first element");
        assert_eq!(all.len(), 1);
        source_paused.recv().expect("the source pauses");
        // The rest of the first chunk is buffered or queued, and the
        // source is paused: the pull tops up with what is there and
        // returns.
        let started = std::time::Instant::now();
        let rest_of_chunk = feed.next_batch(4 * CHUNK).expect("rest of the chunk");
        assert!(
            started.elapsed().as_secs() < 2,
            "next_batch waited for the paused source"
        );
        assert_eq!(rest_of_chunk.len(), CHUNK - 1);
        all.extend(rest_of_chunk);
        released.store(true, Ordering::SeqCst);
        while let Some(batch) = feed.next_batch(300) {
            assert!(
                !batch.is_empty() && batch.len() <= 300,
                "batch of {}",
                batch.len()
            );
            all.extend(batch);
        }
        assert_eq!(all.len(), 2 * CHUNK);
        for (i, element) in all.iter().enumerate() {
            assert_eq!(element.value, (i as u16).to_be_bytes()[..]);
        }
    }

    /// Trickles a short burst — a short sleep before each element — says
    /// so, and pauses until released (or five seconds pass).
    struct TricklingSource {
        paused: Sender<()>,
        released: Arc<AtomicBool>,
    }

    const BURST: usize = 5;

    impl RawSource for TricklingSource {
        fn read(&mut self, emit: RawEmit<'_>) {
            for i in 0..BURST {
                std::thread::sleep(std::time::Duration::from_micros(50));
                emit(WindowedValue::in_global_window(vec![i as u8].into()));
            }
            let _ = self.paused.send(());
            let pause = std::time::Instant::now();
            while !self.released.load(Ordering::SeqCst) && pause.elapsed().as_secs() < 5 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
    }

    #[test]
    fn a_paused_source_cannot_hold_back_its_burst() {
        let (paused, source_paused) = bounded::<()>(1);
        let released = Arc::new(AtomicBool::new(false));
        let released2 = released.clone();
        let factory: SourceFactory = Arc::new(move || {
            Box::new(TricklingSource {
                paused: paused.clone(),
                released: released2.clone(),
            })
        });
        let mut feed = SourceFeed::new(factory);
        let started = std::time::Instant::now();
        let mut all = Vec::new();
        while all.len() < BURST {
            all.extend(feed.next_batch(CHUNK).expect("the burst"));
        }
        assert!(
            started.elapsed().as_secs() < 2,
            "the burst waited for the paused source"
        );
        source_paused.recv().expect("the source pauses");
        for (i, element) in all.iter().enumerate() {
            assert_eq!(element.value, [i as u8][..]);
        }
        released.store(true, Ordering::SeqCst);
        assert!(feed.next_batch(CHUNK).is_none(), "the source ends");
    }
}
