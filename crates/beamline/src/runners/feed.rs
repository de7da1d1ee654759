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

use crate::graph::{RawElement, SourceFactory};
use crossbeam::channel::{bounded, Receiver, Sender};
use std::collections::VecDeque;

/// Elements per channel message. Chunking amortizes the channel's lock
/// per element while keeping the in-flight window small.
const CHUNK: usize = 1024;

/// Channel capacity in chunks: at most `CHUNK * CAPACITY` elements are
/// buffered between the reader thread and the runner.
const CAPACITY: usize = 8;

/// A partial chunk is flushed once it is this old, so a slow (e.g.
/// follow-mode) source adds at most ~1 ms of feed-side batching delay to
/// end-to-end latency instead of holding records until the read ends.
const FLUSH_INTERVAL: std::time::Duration = std::time::Duration::from_millis(1);

/// A source feed: the reader thread drives `RawSource::read`, the runner
/// pulls batches cut from the chunks on the bounded channel.
pub struct SourceFeed {
    /// The source and the channel's sending half, until the first pull
    /// starts the reader thread.
    unstarted: Option<(SourceFactory, Sender<Vec<RawElement>>)>,
    receiver: Receiver<Vec<RawElement>>,
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
            reader: None,
            buffered: VecDeque::new(),
        }
    }

    /// The next batch of at most `max` elements; `None` once the source
    /// is exhausted.
    ///
    /// Blocks for the batch's first chunk, then tops up with chunks that
    /// are already queued without blocking: a slow producer yields small
    /// timely batches instead of stalling until a full one exists.
    pub fn next_batch(&mut self, max: usize) -> Option<Vec<RawElement>> {
        if let Some((factory, sender)) = self.unstarted.take() {
            self.reader = spawn_reader(factory, sender);
        }
        if self.buffered.is_empty() {
            let Ok(chunk) = self.receiver.recv() else {
                self.join();
                return None;
            };
            self.buffered.extend(chunk);
        }
        while self.buffered.len() < max {
            match self.receiver.try_recv() {
                Ok(chunk) => self.buffered.extend(chunk),
                Err(_) => break,
            }
        }
        let take = max.min(self.buffered.len());
        Some(self.buffered.drain(..take).collect())
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
) -> Option<std::thread::JoinHandle<()>> {
    std::thread::Builder::new()
        .name("beamline-source-feed".into())
        .spawn(move || {
            let mut chunk: Vec<RawElement> = Vec::with_capacity(CHUNK);
            let mut open = true;
            let mut last_flush = std::time::Instant::now();
            factory().read(&mut |element| {
                if !open {
                    // Receiver gone (runner failed): drain the rest
                    // of the source without buffering it.
                    return;
                }
                chunk.push(element);
                if chunk.len() >= CHUNK || last_flush.elapsed() >= FLUSH_INTERVAL {
                    let full = std::mem::replace(&mut chunk, Vec::with_capacity(CHUNK));
                    // Blocks while the channel is full: this is the
                    // backpressure edge.
                    open = sender.send(full).is_ok();
                    last_flush = std::time::Instant::now();
                }
            });
            if open && !chunk.is_empty() {
                let _ = sender.send(chunk);
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
        // Give the reader time to run ahead as far as it can.
        let first = feed.next_batch(CHUNK).expect("chunk");
        assert_eq!(first.len(), CHUNK);
        std::thread::sleep(std::time::Duration::from_millis(30));
        let ahead = emitted.load(Ordering::SeqCst);
        // At most: consumed chunk + channel capacity + one in-progress
        // chunk held by the reader.
        assert!(
            ahead <= CHUNK * (CAPACITY + 2),
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
}
