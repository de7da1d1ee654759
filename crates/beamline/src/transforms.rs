//! Core transforms: `Create`, `MapElements`, `Filter` and `Values`.

use crate::coder::{BytesCoder, Coder, StrUtf8Coder, VarIntCoder};
use crate::element::{Kv, WindowedValue};
use crate::graph::{RawEmit, RawSource, StagePayload};
use crate::pardo::{FnDoFn, ParDo, ProcessContext};
use crate::pipeline::{PCollection, PTransform, Pipeline, RootTransform};
use bytes::Bytes;
use std::sync::Arc;

/// Creates a bounded collection from in-memory values (Beam's `Create`).
pub struct Create<T> {
    items: Vec<T>,
    coder: Arc<dyn Coder<T>>,
}

impl<T> Create<T> {
    /// Creates from items and an explicit coder.
    pub fn of(items: Vec<T>, coder: Arc<dyn Coder<T>>) -> Self {
        Create { items, coder }
    }
}

impl Create<String> {
    /// Creates a collection of strings.
    pub fn strings(items: Vec<String>) -> Self {
        Create::of(items, Arc::new(StrUtf8Coder))
    }
}

impl Create<i64> {
    /// Creates a collection of integers.
    pub fn i64s(items: Vec<i64>) -> Self {
        Create::of(items, Arc::new(VarIntCoder))
    }
}

impl Create<Bytes> {
    /// Creates a collection of byte payloads.
    pub fn bytes(items: Vec<Bytes>) -> Self {
        Create::of(items, Arc::new(BytesCoder))
    }
}

struct CreateSource {
    encoded: Arc<Vec<Bytes>>,
}

impl RawSource for CreateSource {
    fn read(&mut self, emit: RawEmit<'_>) {
        for item in self.encoded.iter() {
            emit(WindowedValue::in_global_window(item.clone()));
        }
    }
}

impl<T: Send + Sync + 'static> RootTransform<T> for Create<T> {
    fn expand(self, pipeline: &Pipeline) -> PCollection<T> {
        let encoded = Arc::new(
            self.items
                .iter()
                .map(|t| Bytes::from(self.coder.encode_to_vec(t)))
                .collect::<Vec<_>>(),
        );
        let factory: Arc<dyn Fn() -> Box<dyn RawSource> + Send + Sync> = Arc::new(move || {
            Box::new(CreateSource {
                encoded: encoded.clone(),
            }) as Box<dyn RawSource>
        });
        let node = pipeline.add_stage(
            "Create",
            "Source: PTransformTranslation.UnknownRawPTransform",
            StagePayload::Read(factory),
            None,
        );
        PCollection::new(pipeline.clone(), node, self.coder)
    }
}

/// One-to-one mapping with an explicit output coder.
pub struct MapElements<F, O> {
    name: String,
    f: F,
    out_coder: Arc<dyn Coder<O>>,
}

impl<F, O> MapElements<F, O> {
    /// Creates a map transform.
    pub fn new(name: impl Into<String>, f: F, out_coder: Arc<dyn Coder<O>>) -> Self {
        MapElements {
            name: name.into(),
            f,
            out_coder,
        }
    }
}

impl<F> MapElements<F, i64> {
    /// Maps into integers.
    pub fn into_i64(name: impl Into<String>, f: F) -> Self {
        MapElements::new(name, f, Arc::new(VarIntCoder))
    }
}

impl<F> MapElements<F, Bytes> {
    /// Maps into byte payloads.
    pub fn into_bytes(name: impl Into<String>, f: F) -> Self {
        MapElements::new(name, f, Arc::new(BytesCoder))
    }
}

impl<I, O, F> PTransform<I, O> for MapElements<F, O>
where
    I: Send + 'static,
    O: Send + 'static,
    F: Fn(I) -> O + Send + Sync + Clone + 'static,
{
    fn expand(self, input: &PCollection<I>) -> PCollection<O> {
        let f = self.f;
        let dofn = FnDoFn::new(move |element: I, ctx: &mut ProcessContext<'_, O>| {
            ctx.output(f(element));
        });
        ParDo::of(self.name, dofn, self.out_coder).expand(input)
    }
}

/// Keeps elements satisfying a predicate.
pub struct Filter<F> {
    name: String,
    predicate: F,
}

impl<F> Filter<F> {
    /// Creates a filter transform.
    pub fn new(name: impl Into<String>, predicate: F) -> Self {
        Filter {
            name: name.into(),
            predicate,
        }
    }
}

impl<T, F> PTransform<T, T> for Filter<F>
where
    T: Send + 'static,
    F: Fn(&T) -> bool + Send + Sync + Clone + 'static,
{
    fn expand(self, input: &PCollection<T>) -> PCollection<T> {
        let predicate = self.predicate;
        let dofn = FnDoFn::new(move |element: T, ctx: &mut ProcessContext<'_, T>| {
            if predicate(&element) {
                ctx.output(element);
            }
        });
        ParDo::of(self.name, dofn, input.coder()).expand(input)
    }
}

/// Extracts the values of a KV collection (Beam's `Values.create()`).
pub struct Values<V> {
    value_coder: Arc<dyn Coder<V>>,
}

impl<V> Values<V> {
    /// Creates the transform with the value coder.
    pub fn create(value_coder: Arc<dyn Coder<V>>) -> Self {
        Values { value_coder }
    }
}

impl<K, V> PTransform<Kv<K, V>, V> for Values<V>
where
    K: Send + 'static,
    V: Send + 'static,
{
    fn expand(self, input: &PCollection<Kv<K, V>>) -> PCollection<V> {
        MapElements::new("Values", |kv: Kv<K, V>| kv.value, self.value_coder).expand(input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_counts_stages() {
        let p = Pipeline::new();
        let strings = p.apply(Create::strings(vec!["a".into(), "bb".into()]));
        let lengths = strings.apply(MapElements::into_i64("Len", |s: String| s.len() as i64));
        let _pos = lengths.apply(Filter::new("Positive", |x: &i64| *x > 1));
        assert_eq!(p.stage_count(), 3);
        p.with_graph(|g| {
            assert_eq!(g.nodes()[1].translated_name, crate::pardo::RAW_PAR_DO);
            assert_eq!(g.nodes()[1].name, "Len");
            assert_eq!(g.chain().unwrap().pardos.len(), 2);
        });
    }
}
