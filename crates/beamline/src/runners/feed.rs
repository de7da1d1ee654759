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
use crossbeam::channel::{bounded, Receiver, TryRecvError};

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

/// A running source feed: the reader thread drives `RawSource::read`,
/// the runner pulls chunks off the bounded channel.
#[derive(Debug)]
pub struct SourceFeed {
    receiver: Receiver<Vec<RawElement>>,
    reader: Option<std::thread::JoinHandle<()>>,
}

impl SourceFeed {
    /// Spawns the reader thread over a fresh source instance.
    pub fn spawn(factory: SourceFactory) -> Self {
        let (sender, receiver) = bounded::<Vec<RawElement>>(CAPACITY);
        let reader = std::thread::Builder::new()
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
            });
        match reader {
            Ok(handle) => SourceFeed {
                receiver,
                reader: Some(handle),
            },
            Err(_) => {
                // Spawn failure (resource exhaustion): behave as an empty
                // source rather than panicking in the data plane.
                SourceFeed {
                    receiver,
                    reader: None,
                }
            }
        }
    }

    /// Pulls the next chunk, blocking on the reader thread. `None` once
    /// the source is exhausted.
    pub fn next_chunk(&mut self) -> Option<Vec<RawElement>> {
        match self.receiver.recv() {
            Ok(chunk) => Some(chunk),
            Err(_) => {
                self.join();
                None
            }
        }
    }

    /// Pulls a chunk only if one is immediately available — `None` when
    /// the channel is currently empty *or* the source is exhausted. Used
    /// to top a batch up without blocking on a slow producer.
    pub fn try_next_chunk(&mut self) -> Option<Vec<RawElement>> {
        match self.receiver.try_recv() {
            Ok(chunk) => Some(chunk),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => {
                self.join();
                None
            }
        }
    }

    fn join(&mut self) {
        if let Some(handle) = self.reader.take() {
            let _ = handle.join();
        }
    }
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
    use std::sync::atomic::{AtomicUsize, Ordering};
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
        let mut feed = SourceFeed::spawn(factory);
        let mut all = Vec::new();
        while let Some(chunk) = feed.next_chunk() {
            assert!(chunk.len() <= CHUNK);
            all.extend(chunk);
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
        let mut feed = SourceFeed::spawn(factory);
        // Give the reader time to run ahead as far as it can.
        let first = feed.next_chunk().expect("chunk");
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
        let feed = SourceFeed::spawn(factory);
        std::thread::sleep(std::time::Duration::from_millis(10));
        // Must not hang on the blocked sender.
        drop(feed);
    }
}
