//! Framing is transport, not semantics: however tuples are grouped into
//! blocks, a subscriber sees the calls its publisher received, and a
//! stream nobody drains holds a bounded number of tuples.

use super::*;
use crate::codec::StringCodec;
use proptest::prelude::*;
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

/// One call on a publisher.
#[derive(Debug, Clone, Copy)]
enum Step {
    Begin,
    Tuple,
    Batch(usize),
    End,
}

/// Everything a sink was told, batches flattened to their tuples.
#[derive(Debug, PartialEq)]
enum Event {
    Begin(u64),
    Tuple(String),
    End(u64),
    Eos,
}

#[derive(Default)]
struct EventLog(Vec<Event>);

impl FrameSink<String> for EventLog {
    fn begin_window(&mut self, window_id: u64) {
        self.0.push(Event::Begin(window_id));
    }

    fn tuple(&mut self, tuple: String) {
        self.0.push(Event::Tuple(tuple));
    }

    fn end_window(&mut self, window_id: u64) {
        self.0.push(Event::End(window_id));
    }

    fn end_stream(&mut self) {
        self.0.push(Event::Eos);
    }
}

/// Replays `steps` into `sink`, numbering tuples and windows, and ends
/// the stream. Returns the published `(tuples, bytes)`.
fn replay(steps: &[Step], sink: &mut dyn FrameSink<String>) -> (u64, u64) {
    let (mut tuples, mut bytes, mut window) = (0u64, 0u64, 0u64);
    let mut next = || {
        let tuple = tuples.to_string();
        tuples += 1;
        bytes += tuple.len() as u64;
        tuple
    };
    for step in steps {
        match *step {
            Step::Begin => sink.begin_window(window),
            Step::Tuple => sink.tuple(next()),
            Step::Batch(len) => {
                let mut batch: Vec<String> = (0..len).map(|_| next()).collect();
                sink.tuple_batch(&mut batch);
                assert!(batch.is_empty(), "tuple_batch must drain its input");
            }
            Step::End => {
                sink.end_window(window);
                window += 1;
            }
        }
    }
    sink.end_stream();
    (tuples, bytes)
}

/// Publishes `steps` on a second thread (a case can exceed what the
/// queue holds) while this one drains into an event log.
fn through_stream<B: Send>(
    steps: &[Step],
    server: &mut BufferServer<B>,
    wrap: impl FnOnce(Publisher<B>) -> Box<dyn FrameSink<String>>,
    drain: impl FnOnce(&Receiver<Frame<B>>, &mut EventLog),
) -> Vec<Event> {
    let mut publisher = wrap(server.publisher());
    let rx = server.subscriber();
    let mut log = EventLog::default();
    std::thread::scope(|scope| {
        scope.spawn(move || replay(steps, &mut *publisher));
        drain(&rx, &mut log);
    });
    log.0
}

proptest! {
    #[test]
    fn blocks_deliver_what_a_direct_sink_sees(
        steps in prop::collection::vec(
            prop_oneof![
                Just(Step::Begin),
                Just(Step::Tuple),
                Just(Step::Batch(0)),
                Just(Step::Batch(FRAME_TUPLES)),
                Just(Step::Batch(FRAME_TUPLES + 1)),
                (0..3 * FRAME_TUPLES).prop_map(Step::Batch),
                Just(Step::End),
            ],
            0..24,
        ),
    ) {
        let mut direct = EventLog::default();
        let (tuples, bytes) = replay(&steps, &mut direct);

        let mut typed: BufferServer<Vec<String>> = BufferServer::new();
        let seen = through_stream(
            &steps,
            &mut typed,
            |publisher| Box::new(publisher),
            |rx, log| drain_typed(rx, log),
        );
        prop_assert!(seen == direct.0, "typed stream reordered or lost events");
        prop_assert_eq!(typed.stats(), StreamStats { tuples, bytes: 0 });

        let mut encoded: BufferServer<Vec<u8>> = BufferServer::new();
        let seen = through_stream(
            &steps,
            &mut encoded,
            |publisher| Box::new(EncodingPublisher::new(publisher, Arc::new(StringCodec))),
            |rx, log| drain_encoded(rx, &StringCodec, log),
        );
        prop_assert!(seen == direct.0, "encoded stream reordered or lost events");
        prop_assert_eq!(encoded.stats(), StreamStats { tuples, bytes });
    }
}

/// With a subscriber that never drains, a publisher pushing 2 048-tuple
/// batches stops at the in-flight bound: the queued blocks plus the one
/// it is blocked on. (One queue slot per *batch* would hold 8 M tuples.)
fn blocks_at_the_in_flight_bound<B: Send + 'static>(
    server: BufferServer<B>,
    mut publisher: impl FrameSink<String> + 'static,
) {
    let rx = server.subscriber();
    let finished = Arc::new(AtomicBool::new(false));
    let handle = std::thread::spawn({
        let finished = finished.clone();
        move || {
            for _ in 0..8 {
                let mut batch = vec![String::from("tuple"); 2048];
                publisher.tuple_batch(&mut batch);
            }
            finished.store(true, Ordering::SeqCst);
        }
    });
    let started = Instant::now();
    while rx.len() < BUFFER_FRAMES {
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "queue never filled"
        );
        std::thread::yield_now();
    }
    // Time for a publisher that is *not* blocked to run on (it would
    // need well under a millisecond for the remaining batches).
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        !finished.load(Ordering::SeqCst),
        "publisher ran past a full queue"
    );
    assert_eq!(rx.len(), BUFFER_FRAMES);
    let in_flight = server.stats().tuples;
    assert!(
        in_flight <= ((BUFFER_FRAMES + 1) * FRAME_TUPLES) as u64,
        "{in_flight} tuples in flight"
    );
    // A dropped subscriber turns the stream into a sink-hole: the
    // publisher is released and runs to completion.
    drop((rx, server));
    handle.join().unwrap();
    assert!(finished.load(Ordering::SeqCst));
}

#[test]
fn undrained_typed_stream_is_bounded() {
    let mut server: BufferServer<Vec<String>> = BufferServer::new();
    let publisher = server.publisher();
    blocks_at_the_in_flight_bound(server, publisher);
}

#[test]
fn undrained_encoded_stream_is_bounded() {
    let mut server: BufferServer<Vec<u8>> = BufferServer::new();
    let publisher = EncodingPublisher::new(server.publisher(), Arc::new(StringCodec));
    blocks_at_the_in_flight_bound(server, publisher);
}
