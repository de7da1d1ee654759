//! Data-plane protocol guard: a 3-operator stateless chain driven
//! element-at-a-time versus batch-at-a-time.
//!
//! Both variants run the identical operator chain across `Box<dyn
//! Collector>` boundaries (the shape `rill` builds for chained
//! transforms). The per-element variant pays three virtual dispatches per
//! element; the batched variant pays them once per batch and moves the
//! elements through each operator body in bulk. The batched chain is
//! expected to sustain at least 2x the per-element throughput.

use beamline::{Coder, WindowedValue, WindowedValueCoder};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rill::operator::{FilterCollector, MapCollector};
use rill::Collector;

const N: i64 = 100_000;
const BATCH: usize = 1024;

/// Terminal collector counting what survives the chain.
struct CountSink {
    count: u64,
}

impl Collector<i64> for CountSink {
    fn collect(&mut self, _item: i64) {
        self.count += 1;
    }

    fn collect_batch(&mut self, items: &mut Vec<i64>) {
        self.count += items.len() as u64;
        items.clear();
    }

    fn close(&mut self) {}
}

/// map → filter → map with a `Box<dyn Collector>` boundary per stage.
fn chain() -> Box<dyn Collector<i64>> {
    let sink: Box<dyn Collector<i64>> = Box::new(CountSink { count: 0 });
    let m2: Box<dyn Collector<i64>> = Box::new(MapCollector::new(|x: i64| x ^ 0x5a5a, sink));
    let f: Box<dyn Collector<i64>> = Box::new(FilterCollector::new(|x: &i64| x % 7 != 0, m2));
    Box::new(MapCollector::new(|x: i64| x.wrapping_mul(3), f))
}

fn data_plane(c: &mut Criterion) {
    let mut group = c.benchmark_group("data_plane");
    group.throughput(Throughput::Elements(N as u64));
    group
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_secs(1))
        .measurement_time(std::time::Duration::from_secs(2));

    group.bench_function("per_element_chain", |b| {
        b.iter(|| {
            let mut chain = chain();
            for x in 0..N {
                chain.collect(x);
            }
            chain.close();
        });
    });

    group.bench_function("batched_chain", |b| {
        b.iter(|| {
            let mut chain = chain();
            let mut batch: Vec<i64> = Vec::with_capacity(BATCH);
            let mut x = 0i64;
            while x < N {
                let end = (x + BATCH as i64).min(N);
                batch.extend(x..end);
                chain.collect_batch(&mut batch);
                x = end;
            }
            chain.close();
        });
    });

    // The coded stage boundary of the abstraction layer: every element
    // crossing a translated stage pays one `WindowedValueCoder` encode on
    // the producing side and one decode on the consuming side. Decoding
    // copies the payload into the thread's arena (DESIGN.md §12); the
    // encode allocates a fresh buffer per element.
    let coder = WindowedValueCoder;
    let wv =
        WindowedValue::in_global_window(bytes::Bytes::from_static(b"payload-0123456789abcdef"));
    group.bench_function("coded_boundary_copy", |b| {
        b.iter(|| {
            let mut survived = 0u64;
            for _ in 0..N {
                let buf = coder.encode_to_vec(&wv);
                let out = coder.decode_all(&buf).unwrap();
                survived += u64::from(!out.value.is_empty());
            }
            survived
        });
    });
    group.finish();
}

criterion_group!(benches, data_plane);
criterion_main!(benches);
