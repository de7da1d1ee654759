//! Application DAG construction.
//!
//! A [`Dag`] is assembled from one input operator and a chain of
//! downstream operators, each connected by a stream with an explicit
//! [`Link`] locality:
//!
//! * [`Link::Thread`] — fused: direct nested calls, no queue, no codec
//!   (Apex `THREAD_LOCAL`).
//! * [`Link::Container`] — same container, separate thread: a typed
//!   buffer-server queue, still no serialization (Apex `CONTAINER_LOCAL`).
//! * [`Link::Network`] — separate containers: every tuple is serialized
//!   through the stream's [`Codec`] into the buffer server and
//!   deserialized on the far side (Apex's default placement).
//!
//! The benchmark's native queries use one container per operator
//! (`Network` links) like stock Apex; the abstraction-layer runner chooses
//! its own placements — the difference is one of the measured overheads.

use crate::codec::Codec;
use crate::error::{Error, Result};
use crate::operator::{Emitter, InputOperator, Operator, OperatorContext};
use crate::stream::{
    drain_encoded, drain_typed, BufferServer, EncodingPublisher, FrameSink, OperatorSink,
};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Stream locality between two operators.
pub enum Link<T> {
    /// Fused into the upstream operator's thread.
    Thread,
    /// Same container, own thread, typed queue.
    Container,
    /// Separate container; tuples serialized with the codec.
    Network(Arc<dyn Codec<T>>),
}

impl<T> std::fmt::Debug for Link<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Link::Thread => f.write_str("Link::Thread"),
            Link::Container => f.write_str("Link::Container"),
            Link::Network(_) => f.write_str("Link::Network"),
        }
    }
}

/// What a DAG node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Data-originating operator.
    Input,
    /// Transforming operator.
    Generic,
    /// Terminal operator.
    Output,
}

/// Metadata of one DAG node.
#[derive(Debug, Clone)]
pub struct OpMeta {
    /// Operator name (unique within the DAG).
    pub name: String,
    /// Node kind.
    pub kind: OpKind,
    /// Container group the operator was placed in.
    pub container: usize,
    /// Tuples this operator emitted (updated live during execution).
    pub emitted: Arc<AtomicU64>,
}

pub(crate) struct TaskEntry {
    pub(crate) name: String,
    pub(crate) container: usize,
    pub(crate) body: Box<dyn FnOnce() + Send>,
}

pub(crate) struct DagCore {
    pub(crate) name: String,
    pub(crate) window_size: usize,
    pub(crate) ops: Vec<OpMeta>,
    pub(crate) tasks: Vec<TaskEntry>,
    pub(crate) containers: usize,
    pub(crate) open_streams: usize,
}

/// An application DAG under construction.
#[derive(Clone)]
pub struct Dag {
    pub(crate) core: Arc<Mutex<DagCore>>,
}

impl std::fmt::Debug for Dag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let core = self.core.lock();
        f.debug_struct("Dag")
            .field("name", &core.name)
            .field("operators", &core.ops.len())
            .field("containers", &core.containers)
            .finish()
    }
}

impl Dag {
    /// Creates an empty DAG with the default streaming-window size of
    /// 2048 tuples.
    pub fn new(name: impl Into<String>) -> Self {
        Self::with_window_size(name, 2048)
    }

    /// Creates an empty DAG with an explicit streaming-window size
    /// (tuples emitted per window by input operators).
    pub fn with_window_size(name: impl Into<String>, window_size: usize) -> Self {
        Dag {
            core: Arc::new(Mutex::new(DagCore {
                name: name.into(),
                window_size: window_size.max(1),
                ops: Vec::new(),
                tasks: Vec::new(),
                containers: 0,
                open_streams: 0,
            })),
        }
    }

    /// The application name.
    pub fn name(&self) -> String {
        self.core.lock().name.clone()
    }

    /// Number of operators added so far.
    pub fn operator_count(&self) -> usize {
        self.core.lock().ops.len()
    }

    /// Snapshot of operator metadata.
    pub fn operators(&self) -> Vec<OpMeta> {
        self.core.lock().ops.clone()
    }

    fn register_op(&self, name: &str, kind: OpKind, container: usize) -> Result<Arc<AtomicU64>> {
        let mut core = self.core.lock();
        if core.ops.iter().any(|o| o.name == name) {
            return Err(Error::DuplicateOperator(name.to_string()));
        }
        let emitted = Arc::new(AtomicU64::new(0));
        core.ops.push(OpMeta {
            name: name.to_string(),
            kind,
            container,
            emitted: emitted.clone(),
        });
        Ok(emitted)
    }

    /// Adds a data-originating operator.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DuplicateOperator`] on a name clash.
    pub fn add_input<T, I>(&self, name: &str, input: I) -> Result<OpHandle<T>>
    where
        T: Send + 'static,
        I: InputOperator<T>,
    {
        let container = {
            let mut core = self.core.lock();
            let c = core.containers;
            core.containers += 1;
            core.open_streams += 1;
            c
        };
        let emitted = self.register_op(name, OpKind::Input, container)?;
        let window_size = self.core.lock().window_size;
        let ctx = OperatorContext {
            name: name.to_string(),
            window_size,
        };
        let name_owned = name.to_string();
        let make: MakeChain<T> = Box::new(move |dag: &Dag, mut sink: Box<dyn FrameSink<T>>| {
            let mut input = input;
            let body = Box::new(move || {
                input.setup(&ctx);
                let mut window_id = 0u64;
                // One window's tuples are buffered and handed to the chain
                // as a single batch; the buffer is reused across windows.
                let mut buffer: Vec<T> = Vec::new();
                loop {
                    sink.begin_window(window_id);
                    let more = {
                        let mut emitter = BufferingEmitter {
                            buffer: &mut buffer,
                        };
                        input.emit_window(window_id, &mut emitter)
                    };
                    emitted.fetch_add(buffer.len() as u64, Ordering::Relaxed);
                    sink.tuple_batch(&mut buffer);
                    sink.end_window(window_id);
                    if !more {
                        break;
                    }
                    window_id += 1;
                }
                input.teardown();
                sink.end_stream();
            });
            dag.core.lock().tasks.push(TaskEntry {
                name: name_owned,
                container,
                body,
            });
        });
        Ok(OpHandle {
            dag: self.clone(),
            container,
            make,
        })
    }
}

/// Emitter buffering one window's tuples; the count update and the chain
/// traversal both happen once per window batch, not per tuple.
struct BufferingEmitter<'a, T> {
    buffer: &'a mut Vec<T>,
}

impl<T: Send> Emitter<T> for BufferingEmitter<'_, T> {
    fn emit(&mut self, tuple: T) {
        self.buffer.push(tuple);
    }
}

type MakeChain<T> = Box<dyn FnOnce(&Dag, Box<dyn FrameSink<T>>) + Send>;

/// Handle to an operator's output stream, consumed by connecting the next
/// operator.
pub struct OpHandle<T> {
    dag: Dag,
    container: usize,
    make: MakeChain<T>,
}

impl<T> std::fmt::Debug for OpHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpHandle")
            .field("container", &self.container)
            .finish_non_exhaustive()
    }
}

impl<T: Send + 'static> OpHandle<T> {
    /// Connects a transforming operator downstream of this stream.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DuplicateOperator`] on a name clash.
    pub fn add_operator<U, Op>(self, name: &str, op: Op, link: Link<T>) -> Result<OpHandle<U>>
    where
        U: Send + 'static,
        Op: Operator<T, U>,
    {
        let dag = self.dag.clone();
        let window_size = dag.core.lock().window_size;
        let ctx = OperatorContext {
            name: name.to_string(),
            window_size,
        };
        let parent_make = self.make;
        let parent_container = self.container;
        let name_owned = name.to_string();

        match link {
            Link::Thread => {
                let emitted = dag.register_op(name, OpKind::Generic, parent_container)?;
                let make: MakeChain<U> = Box::new(move |dag, sink_u| {
                    let chain: Box<dyn FrameSink<T>> =
                        Box::new(OperatorSink::new(op, &ctx, sink_u, emitted));
                    parent_make(dag, chain);
                });
                Ok(OpHandle {
                    dag,
                    container: parent_container,
                    make,
                })
            }
            Link::Container => {
                let emitted = dag.register_op(name, OpKind::Generic, parent_container)?;
                let make: MakeChain<U> = Box::new(move |dag, sink_u| {
                    let mut server: BufferServer<Vec<T>> = BufferServer::new();
                    let publisher = server.publisher();
                    let rx = server.subscriber();
                    let body = Box::new(move || {
                        let mut chain = OperatorSink::new(op, &ctx, sink_u, emitted);
                        drain_typed(&rx, &mut chain);
                    });
                    dag.core.lock().tasks.push(TaskEntry {
                        name: name_owned,
                        container: parent_container,
                        body,
                    });
                    parent_make(dag, Box::new(publisher));
                });
                Ok(OpHandle {
                    dag,
                    container: parent_container,
                    make,
                })
            }
            Link::Network(codec) => {
                let container = {
                    let mut core = dag.core.lock();
                    let c = core.containers;
                    core.containers += 1;
                    c
                };
                let emitted = dag.register_op(name, OpKind::Generic, container)?;
                let make: MakeChain<U> = Box::new(move |dag, sink_u| {
                    let mut server: BufferServer<Vec<u8>> = BufferServer::new();
                    let publisher = EncodingPublisher::new(server.publisher(), codec.clone());
                    let rx = server.subscriber();
                    let body = Box::new(move || {
                        let mut chain = OperatorSink::new(op, &ctx, sink_u, emitted);
                        drain_encoded(&rx, &*codec, &mut chain);
                    });
                    dag.core.lock().tasks.push(TaskEntry {
                        name: name_owned,
                        container,
                        body,
                    });
                    parent_make(dag, Box::new(publisher));
                });
                Ok(OpHandle {
                    dag,
                    container,
                    make,
                })
            }
        }
    }

    /// Terminates the stream in an output operator (an
    /// [`Operator<T, ()>`](Operator) that emits nothing).
    ///
    /// # Errors
    ///
    /// Returns [`Error::DuplicateOperator`] on a name clash.
    pub fn add_output<Op>(self, name: &str, op: Op, link: Link<T>) -> Result<()>
    where
        Op: Operator<T, ()>,
    {
        let terminated: OpHandle<()> = self.add_operator(name, op, link)?;
        let OpHandle { dag, make, .. } = terminated;
        {
            let mut core = dag.core.lock();
            if let Some(meta) = core.ops.iter_mut().find(|o| o.name == name) {
                meta.kind = OpKind::Output;
            }
            core.open_streams -= 1;
        }
        make(&dag, Box::new(NullSink));
        Ok(())
    }
}

/// Terminal sink discarding the (empty) output of output operators.
struct NullSink;

impl FrameSink<()> for NullSink {
    fn begin_window(&mut self, _window_id: u64) {}
    fn tuple(&mut self, _tuple: ()) {}
    fn end_window(&mut self, _window_id: u64) {}
    fn end_stream(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::StringCodec;
    use crate::operator::FnOperator;
    use crate::testkit::{VecInput, VecOutput};

    fn upper() -> FnOperator<impl FnMut(String, &mut dyn Emitter<String>) + Send + 'static> {
        FnOperator::new(|t: String, out: &mut dyn Emitter<String>| out.emit(t.to_uppercase()))
    }

    #[test]
    fn duplicate_names_rejected() {
        let dag = Dag::new("app");
        let h = dag
            .add_input("a", VecInput::new(vec!["x".to_string()]))
            .unwrap();
        let err = h
            .add_operator::<String, _>("a", upper(), Link::Thread)
            .unwrap_err();
        assert_eq!(err, Error::DuplicateOperator("a".to_string()));
    }

    #[test]
    fn containers_count_by_link() {
        let dag = Dag::new("app");
        let out = VecOutput::new();
        dag.add_input("in", VecInput::new(vec!["a".to_string()]))
            .unwrap()
            .add_operator::<String, _>("fused", upper(), Link::Thread)
            .unwrap()
            .add_operator::<String, _>("threaded", upper(), Link::Container)
            .unwrap()
            .add_operator::<String, _>("remote", upper(), Link::Network(Arc::new(StringCodec)))
            .unwrap()
            .add_output("out", out.clone(), Link::Thread)
            .unwrap();
        assert_eq!(dag.operator_count(), 5);
        let ops = dag.operators();
        let groups = ops.iter().map(|o| o.container).max().map_or(0, |c| c + 1);
        assert_eq!(groups, 2, "input group + one network boundary");
        assert_eq!(ops[0].kind, OpKind::Input);
        assert_eq!(ops[4].kind, OpKind::Output);
        assert_eq!(ops[1].container, ops[0].container);
        assert_ne!(ops[3].container, ops[0].container);
    }
}
