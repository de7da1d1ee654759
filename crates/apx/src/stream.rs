//! Window-framed streams between operators.
//!
//! Inside a container, fused (`ThreadLocal`) streams are direct nested
//! calls. Between threads and containers, tuples travel in window-framed
//! blocks through a [`BufferServer`]; on cross-container streams every
//! tuple additionally passes its [`Codec`](crate::Codec) — bytes in, bytes
//! out — which is Apex's buffer-server serialization. The codec is paid
//! per tuple; the queue hand-off is paid per block.

use crate::codec::Codec;
use crate::operator::{Emitter, Operator, OperatorContext};
use crossbeam::channel::{bounded, Receiver, Sender};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Most tuples one frame carries. Larger batches split, so a subscriber
/// starts on the first block while the publisher still encodes the rest.
const FRAME_TUPLES: usize = 512;

/// Frames a buffer-server queue holds before its publisher blocks: at
/// most 4096 tuples in flight per stream, however they were batched.
const BUFFER_FRAMES: usize = 4096 / FRAME_TUPLES;

/// Bytes of the length each encoded tuple is prefixed with inside a
/// block (native `usize`: blocks never leave the process).
const LEN_PREFIX: usize = std::mem::size_of::<usize>();

/// The runtime face of an operator chain segment: window markers and
/// tuples flow in, and eventually `end_stream` terminates it.
pub trait FrameSink<T>: Send {
    /// Start of a streaming window.
    fn begin_window(&mut self, window_id: u64);

    /// One tuple.
    fn tuple(&mut self, tuple: T);

    /// A whole batch of tuples within the current window, draining
    /// `tuples` (capacity kept so callers reuse the buffer). The default
    /// forwards tuple by tuple; batching sinks override it to move the
    /// batch on whole — one virtual call, one count update per batch.
    fn tuple_batch(&mut self, tuples: &mut Vec<T>) {
        for tuple in tuples.drain(..) {
            self.tuple(tuple);
        }
    }

    /// End of a streaming window.
    fn end_window(&mut self, window_id: u64);

    /// End of the bounded stream; flush and tear down.
    fn end_stream(&mut self);
}

impl<T, S: FrameSink<T> + ?Sized> FrameSink<T> for Box<S> {
    fn begin_window(&mut self, window_id: u64) {
        (**self).begin_window(window_id);
    }

    fn tuple(&mut self, tuple: T) {
        (**self).tuple(tuple);
    }

    fn tuple_batch(&mut self, tuples: &mut Vec<T>) {
        (**self).tuple_batch(tuples);
    }

    fn end_window(&mut self, window_id: u64) {
        (**self).end_window(window_id);
    }

    fn end_stream(&mut self) {
        (**self).end_stream();
    }
}

/// Wraps a user [`Operator`] and its downstream sink into a `FrameSink`,
/// propagating window markers and counting emitted tuples.
pub struct OperatorSink<I, O, Op, S> {
    op: Op,
    downstream: S,
    emitted: Arc<AtomicU64>,
    /// `(records_in, busy_micros)` instruments, resolved at launch only
    /// when instrumentation is enabled so the disabled path records
    /// nothing per tuple.
    instruments: Option<(obs::Counter, obs::Counter)>,
    /// Reused output buffer for the batch path.
    scratch: Vec<O>,
    _types: std::marker::PhantomData<fn(I) -> O>,
}

impl<I, O, Op, S> OperatorSink<I, O, Op, S>
where
    Op: Operator<I, O>,
    S: FrameSink<O>,
{
    /// Creates the wrapper and runs the operator's `setup`.
    pub fn new(mut op: Op, ctx: &OperatorContext, downstream: S, emitted: Arc<AtomicU64>) -> Self {
        op.setup(ctx);
        let instruments = if obs::enabled() {
            Some((
                obs::counter(&format!("apx.op.{}.records_in", ctx.name)),
                obs::counter(&format!("apx.op.{}.busy_micros", ctx.name)),
            ))
        } else {
            None
        };
        OperatorSink {
            op,
            downstream,
            emitted,
            instruments,
            scratch: Vec::new(),
            _types: std::marker::PhantomData,
        }
    }
}

/// Emitter collecting an operator's output into a reusable buffer (the
/// batch path: counts and forwarding happen once per batch, afterwards).
struct VecEmitter<'a, O> {
    out: &'a mut Vec<O>,
}

impl<O> Emitter<O> for VecEmitter<'_, O> {
    fn emit(&mut self, tuple: O) {
        self.out.push(tuple);
    }
}

/// Emitter adapter forwarding into a `FrameSink` as plain tuples.
struct SinkEmitter<'a, O, S: FrameSink<O>> {
    sink: &'a mut S,
    emitted: &'a AtomicU64,
    _type: std::marker::PhantomData<fn(O)>,
}

impl<O, S: FrameSink<O>> Emitter<O> for SinkEmitter<'_, O, S> {
    fn emit(&mut self, tuple: O) {
        self.emitted.fetch_add(1, Ordering::Relaxed);
        self.sink.tuple(tuple);
    }
}

impl<I, O, Op, S> FrameSink<I> for OperatorSink<I, O, Op, S>
where
    I: Send,
    O: Send,
    Op: Operator<I, O>,
    S: FrameSink<O>,
{
    fn begin_window(&mut self, window_id: u64) {
        self.op.begin_window(window_id);
        self.downstream.begin_window(window_id);
    }

    fn tuple(&mut self, tuple: I) {
        let mut emitter = SinkEmitter {
            sink: &mut self.downstream,
            emitted: &self.emitted,
            _type: std::marker::PhantomData,
        };
        match &self.instruments {
            Some((records_in, busy)) => {
                records_in.inc();
                let started = std::time::Instant::now();
                self.op.process(tuple, &mut emitter);
                busy.add(started.elapsed().as_micros() as u64);
            }
            None => self.op.process(tuple, &mut emitter),
        }
    }

    fn tuple_batch(&mut self, tuples: &mut Vec<I>) {
        let op = &mut self.op;
        let mut emitter = VecEmitter {
            out: &mut self.scratch,
        };
        match &self.instruments {
            Some((records_in, busy)) => {
                records_in.add(tuples.len() as u64);
                let started = std::time::Instant::now();
                for tuple in tuples.drain(..) {
                    op.process(tuple, &mut emitter);
                }
                busy.add(started.elapsed().as_micros() as u64);
            }
            None => {
                for tuple in tuples.drain(..) {
                    op.process(tuple, &mut emitter);
                }
            }
        }
        self.emitted
            .fetch_add(self.scratch.len() as u64, Ordering::Relaxed);
        self.downstream.tuple_batch(&mut self.scratch);
    }

    fn end_window(&mut self, window_id: u64) {
        let mut emitter = SinkEmitter {
            sink: &mut self.downstream,
            emitted: &self.emitted,
            _type: std::marker::PhantomData,
        };
        self.op.end_window(window_id, &mut emitter);
        self.downstream.end_window(window_id);
    }

    fn end_stream(&mut self) {
        self.op.teardown();
        self.downstream.end_stream();
    }
}

/// A window-framed message on a buffer-server queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame<B> {
    /// Start of window.
    Begin(u64),
    /// A block of at most 512 tuples (`FRAME_TUPLES`): a `Vec<T>` on
    /// thread/container-local streams, length-prefixed encoded bytes on
    /// cross-container streams.
    Tuples(B),
    /// End of window.
    End(u64),
    /// End of stream.
    Eos,
}

/// Statistics of one buffer-server stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamStats {
    /// Tuples published.
    pub tuples: u64,
    /// Bytes published (0 for unserialized local streams).
    pub bytes: u64,
}

/// The per-stream pub/sub conduit (Apex's buffer server, reduced to the
/// single-subscriber case the benchmark topologies need). `B` is the
/// block type its [`Frame::Tuples`] carry.
#[derive(Debug)]
pub struct BufferServer<B> {
    sender: Option<Sender<Frame<B>>>,
    receiver: Receiver<Frame<B>>,
    tuples: Arc<AtomicU64>,
    bytes: Arc<AtomicU64>,
}

impl<B: Send> BufferServer<B> {
    /// Creates a stream conduit.
    pub fn new() -> Self {
        let (sender, receiver) = bounded(BUFFER_FRAMES);
        BufferServer {
            sender: Some(sender),
            receiver,
            tuples: Arc::new(AtomicU64::new(0)),
            bytes: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The publishing half. Single-publisher: the server hands it out
    /// once, so an abandoned publisher reliably disconnects the stream.
    ///
    /// # Panics
    ///
    /// Panics when called twice.
    pub fn publisher(&mut self) -> Publisher<B> {
        Publisher {
            sender: Some(self.sender.take().expect("publisher already taken")),
            tuples: self.tuples.clone(),
            bytes: self.bytes.clone(),
        }
    }

    /// The subscribing half.
    pub fn subscriber(&self) -> Receiver<Frame<B>> {
        self.receiver.clone()
    }

    /// Stream statistics so far.
    pub fn stats(&self) -> StreamStats {
        StreamStats {
            tuples: self.tuples.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }
}

impl<B: Send> Default for BufferServer<B> {
    fn default() -> Self {
        Self::new()
    }
}

/// Publishing half of a buffer-server stream.
#[derive(Debug)]
pub struct Publisher<B> {
    sender: Option<Sender<Frame<B>>>,
    tuples: Arc<AtomicU64>,
    bytes: Arc<AtomicU64>,
}

impl<B: Send> Publisher<B> {
    fn send(&mut self, frame: Frame<B>) {
        if let Some(sender) = &self.sender {
            // A dropped subscriber (downstream container failure) turns
            // the stream into a sink-hole rather than deadlocking.
            let _ = sender.send(frame);
        }
    }

    /// Ships one block: one stats update and one channel operation for
    /// all the tuples in it.
    fn send_block(&mut self, block: B, tuples: usize, bytes: usize) {
        self.tuples.fetch_add(tuples as u64, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        self.send(Frame::Tuples(block));
    }

    fn close(&mut self) {
        self.send(Frame::Eos);
        self.sender = None;
    }
}

/// Typed (thread/container-local) publisher: no serialization.
impl<T: Send> FrameSink<T> for Publisher<Vec<T>> {
    fn begin_window(&mut self, window_id: u64) {
        self.send(Frame::Begin(window_id));
    }

    fn tuple(&mut self, tuple: T) {
        self.send_block(vec![tuple], 1, 0);
    }

    fn tuple_batch(&mut self, tuples: &mut Vec<T>) {
        let mut rest = tuples.drain(..);
        loop {
            let block: Vec<T> = rest.by_ref().take(FRAME_TUPLES).collect();
            if block.is_empty() {
                break;
            }
            let count = block.len();
            self.send_block(block, count, 0);
        }
    }

    fn end_window(&mut self, window_id: u64) {
        self.send(Frame::End(window_id));
    }

    fn end_stream(&mut self) {
        self.close();
    }
}

/// Encoding publisher for cross-container streams: every tuple is
/// serialized through the stream's codec — the modeled cross-container
/// cost — into the frame's byte block; the block is the transport unit.
pub struct EncodingPublisher<T> {
    inner: Publisher<Vec<u8>>,
    codec: Arc<dyn Codec<T>>,
}

impl<T: 'static> EncodingPublisher<T> {
    /// Wraps a byte publisher with a codec.
    pub fn new(inner: Publisher<Vec<u8>>, codec: Arc<dyn Codec<T>>) -> Self {
        EncodingPublisher { inner, codec }
    }

    /// Encodes `tuples` (at most `FRAME_TUPLES`) into one pooled block and
    /// ships it.
    fn publish(&mut self, tuples: &[T]) {
        let mut block = logbus::pool::byte_vec();
        for tuple in tuples {
            let prefix = block.len();
            block.extend_from_slice(&[0; LEN_PREFIX]);
            self.codec.encode_into(tuple, &mut block);
            let len = block.len() - prefix - LEN_PREFIX;
            block[prefix..prefix + LEN_PREFIX].copy_from_slice(&len.to_ne_bytes());
        }
        let bytes = block.len() - tuples.len() * LEN_PREFIX;
        self.inner.send_block(block, tuples.len(), bytes);
    }
}

impl<T: Send + 'static> FrameSink<T> for EncodingPublisher<T> {
    fn begin_window(&mut self, window_id: u64) {
        self.inner.send(Frame::Begin(window_id));
    }

    fn tuple(&mut self, tuple: T) {
        self.publish(std::slice::from_ref(&tuple));
    }

    fn tuple_batch(&mut self, tuples: &mut Vec<T>) {
        for chunk in tuples.chunks(FRAME_TUPLES) {
            self.publish(chunk);
        }
        tuples.clear();
    }

    fn end_window(&mut self, window_id: u64) {
        self.inner.send(Frame::End(window_id));
    }

    fn end_stream(&mut self) {
        self.inner.close();
    }
}

/// Drains a subscriber into a frame sink until the stream ends, handing
/// each block to `unpack`, which forwards its tuples to the sink. This is
/// the body of a downstream container's event loop: the blocking `recv`
/// is per frame, so a lone tuple is processed as soon as it arrives and a
/// busy stream amortizes the chain traversal over whole blocks.
fn drain<B, T>(
    rx: &Receiver<Frame<B>>,
    sink: &mut dyn FrameSink<T>,
    mut unpack: impl FnMut(B, &mut dyn FrameSink<T>),
) {
    // A publisher that vanished without EOS (upstream container died)
    // still closes the chain so resources flush.
    while let Ok(frame) = rx.recv() {
        match frame {
            Frame::Begin(w) => sink.begin_window(w),
            Frame::Tuples(block) => unpack(block, sink),
            Frame::End(w) => sink.end_window(w),
            Frame::Eos => break,
        }
    }
    sink.end_stream();
}

/// Drains a typed subscriber: every block is already the batch.
pub fn drain_typed<T: Send>(rx: &Receiver<Frame<Vec<T>>>, sink: &mut dyn FrameSink<T>) {
    drain(rx, sink, |mut block, sink| sink.tuple_batch(&mut block));
}

/// Drains an encoded subscriber, decoding every tuple through `codec`.
pub fn drain_encoded<T: Send + 'static>(
    rx: &Receiver<Frame<Vec<u8>>>,
    codec: &dyn Codec<T>,
    sink: &mut dyn FrameSink<T>,
) {
    let mut batch: Vec<T> = Vec::new();
    drain(rx, sink, |block, sink| {
        let mut rest = block.as_slice();
        while let Some((len, after)) = rest.split_first_chunk::<LEN_PREFIX>() {
            let (encoded, after) = after.split_at(usize::from_ne_bytes(*len));
            batch.push(codec.decode(encoded));
            rest = after;
        }
        logbus::pool::recycle_byte_vec(block);
        sink.tuple_batch(&mut batch);
    });
}

/// Terminal sink collecting tuples, for tests.
#[derive(Debug, Default)]
pub struct CollectingSink<T> {
    /// Collected tuples.
    pub items: Vec<T>,
    /// Number of (begin, end) window markers seen.
    pub windows: (u64, u64),
    /// Whether the stream ended.
    pub ended: bool,
}

impl<T: Send> FrameSink<T> for CollectingSink<T> {
    fn begin_window(&mut self, _window_id: u64) {
        self.windows.0 += 1;
    }

    fn tuple(&mut self, tuple: T) {
        self.items.push(tuple);
    }

    fn tuple_batch(&mut self, tuples: &mut Vec<T>) {
        self.items.append(tuples);
    }

    fn end_window(&mut self, _window_id: u64) {
        self.windows.1 += 1;
    }

    fn end_stream(&mut self) {
        self.ended = true;
    }
}

#[cfg(test)]
mod framing_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::StringCodec;
    use crate::operator::FnOperator;

    #[test]
    fn operator_sink_propagates_windows() {
        let collector = CollectingSink::default();
        let emitted = Arc::new(AtomicU64::new(0));
        let op = FnOperator::new(|t: i64, out: &mut dyn Emitter<i64>| {
            if t > 0 {
                out.emit(t * 2);
            }
        });
        let ctx = OperatorContext {
            name: "x".into(),
            window_size: 10,
        };
        let mut sink = OperatorSink::new(op, &ctx, collector, emitted.clone());
        sink.begin_window(0);
        sink.tuple(-1);
        sink.tuple(5);
        sink.end_window(0);
        sink.end_stream();
        assert_eq!(emitted.load(Ordering::Relaxed), 1);
        assert_eq!(sink.downstream.items, vec![10]);
        assert_eq!(sink.downstream.windows, (1, 1));
        assert!(sink.downstream.ended);
    }

    #[test]
    fn operator_sink_processes_whole_batches() {
        let collector = CollectingSink::default();
        let emitted = Arc::new(AtomicU64::new(0));
        let op = FnOperator::new(|t: i64, out: &mut dyn Emitter<i64>| {
            if t % 2 == 0 {
                out.emit(t * 10);
            }
        });
        let ctx = OperatorContext {
            name: "batch".into(),
            window_size: 10,
        };
        let mut sink = OperatorSink::new(op, &ctx, collector, emitted.clone());
        sink.begin_window(0);
        let mut batch: Vec<i64> = (0..6).collect();
        sink.tuple_batch(&mut batch);
        assert!(batch.is_empty(), "the batch must be drained");
        sink.end_window(0);
        sink.end_stream();
        assert_eq!(emitted.load(Ordering::Relaxed), 3, "exact emitted count");
        assert_eq!(sink.downstream.items, vec![0, 20, 40]);
    }

    #[test]
    fn typed_buffer_roundtrip() {
        let mut server: BufferServer<Vec<i64>> = BufferServer::new();
        let mut publisher = server.publisher();
        let rx = server.subscriber();
        let handle = std::thread::spawn(move || {
            publisher.begin_window(1);
            for i in 0..10 {
                publisher.tuple(i);
            }
            publisher.end_window(1);
            publisher.end_stream();
        });
        let mut sink = CollectingSink::default();
        drain_typed(&rx, &mut sink);
        handle.join().unwrap();
        assert_eq!(sink.items, (0..10).collect::<Vec<i64>>());
        assert_eq!(sink.windows, (1, 1));
        assert!(sink.ended);
        assert_eq!(server.stats().tuples, 10);
        assert_eq!(server.stats().bytes, 0, "typed streams do not serialize");
    }

    #[test]
    fn encoded_buffer_roundtrip_counts_bytes() {
        let mut server: BufferServer<Vec<u8>> = BufferServer::new();
        let mut publisher = EncodingPublisher::new(server.publisher(), Arc::new(StringCodec));
        let rx = server.subscriber();
        publisher.begin_window(0);
        publisher.tuple("ab".to_string());
        publisher.tuple("cde".to_string());
        publisher.end_window(0);
        publisher.end_stream();
        let mut sink = CollectingSink::default();
        drain_encoded(&rx, &StringCodec, &mut sink);
        assert_eq!(sink.items, vec!["ab".to_string(), "cde".to_string()]);
        assert_eq!(server.stats().bytes, 5);
    }

    #[test]
    fn missing_eos_still_closes() {
        let mut server: BufferServer<Vec<i64>> = BufferServer::new();
        let mut publisher = server.publisher();
        let rx = server.subscriber();
        publisher.begin_window(0);
        publisher.tuple(1);
        drop(publisher);
        let mut sink = CollectingSink::default();
        drain_typed(&rx, &mut sink);
        assert!(sink.ended, "chain must close when the publisher disappears");
        assert_eq!(sink.items, vec![1]);
    }
}
