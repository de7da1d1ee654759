//! The direct runner: reference in-memory execution of any pipeline
//! shape.

use crate::coder::put_varint;
use crate::element::{PaneInfo, WindowRef, WindowedValue};
use crate::error::{Error, Result};
use crate::graph::{NodeId, RawElement, StagePayload};
use crate::pipeline::Pipeline;
use crate::runners::{EngineReport, PipelineResult, PipelineRunner};
use std::collections::HashMap;
use std::time::Instant as WallInstant;

/// Runs pipelines in-memory, stage by stage, materializing every
/// collection. The semantic reference for the engine runners and the
/// workhorse of tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct DirectRunner;

impl DirectRunner {
    /// Creates a direct runner.
    pub fn new() -> Self {
        DirectRunner
    }
}

impl PipelineRunner for DirectRunner {
    fn run(&self, pipeline: &Pipeline) -> Result<PipelineResult> {
        let _run_span = obs::span("beam.direct.run");
        let started = WallInstant::now();
        let mut materialized: HashMap<NodeId, Vec<RawElement>> = HashMap::new();
        pipeline.with_graph(|graph| -> Result<()> {
            if graph.is_empty() {
                return Err(Error::InvalidPipeline("pipeline has no transforms".into()));
            }
            for node in graph.nodes() {
                let mut stage_span = obs::span("beam.direct.stage");
                stage_span.field("stage", &node.name);
                let stage_started = WallInstant::now();
                let output = match &node.payload {
                    StagePayload::Read(factory) => {
                        let mut out = Vec::new();
                        factory().read(&mut |e| out.push(e));
                        out
                    }
                    StagePayload::ParDo(factory) => {
                        let input =
                            node.input
                                .and_then(|id| materialized.get(&id))
                                .ok_or_else(|| {
                                    Error::InvalidPipeline(format!(
                                        "stage `{}` has no input",
                                        node.name
                                    ))
                                })?;
                        let mut out = Vec::new();
                        // One bundle per stage over the whole bounded
                        // input.
                        let mut dofn = factory();
                        dofn.start_bundle();
                        for element in input {
                            dofn.process(element.clone(), &mut |e| out.push(e));
                        }
                        dofn.finish_bundle(&mut |e| out.push(e));
                        out
                    }
                    StagePayload::GroupByKey => {
                        let input =
                            node.input
                                .and_then(|id| materialized.get(&id))
                                .ok_or_else(|| {
                                    Error::InvalidPipeline(format!(
                                        "stage `{}` has no input",
                                        node.name
                                    ))
                                })?;
                        group_by_key(input)?
                    }
                    StagePayload::Flatten(extra) => {
                        let mut out = Vec::new();
                        let mut inputs = Vec::new();
                        if let Some(primary) = node.input {
                            inputs.push(primary);
                        }
                        inputs.extend(extra.iter().copied());
                        for id in inputs {
                            let part = materialized.get(&id).ok_or_else(|| {
                                Error::InvalidPipeline(format!(
                                    "flatten `{}` references an unknown input",
                                    node.name
                                ))
                            })?;
                            out.extend(part.iter().cloned());
                        }
                        out
                    }
                };
                if obs::enabled() {
                    obs::counter(&format!("beam.direct.{}.records_out", node.name))
                        .add(output.len() as u64);
                    obs::counter(&format!("beam.direct.{}.busy_micros", node.name))
                        .add(stage_started.elapsed().as_micros() as u64);
                }
                materialized.insert(node.id, output);
            }
            Ok(())
        })?;
        Ok(PipelineResult::new(
            started.elapsed(),
            EngineReport::Direct,
            materialized,
        ))
    }

    fn name(&self) -> &'static str {
        "direct"
    }
}

/// Groups raw KV elements by (window, encoded key). Output values follow
/// the `IterableCoder` layout so the declared output coder
/// (`KvCoder(key, IterableCoder(value))`) decodes them.
pub(crate) fn group_by_key(input: &[RawElement]) -> Result<Vec<RawElement>> {
    let mut groups: HashMap<(WindowRef, Vec<u8>), Vec<Vec<u8>>> = HashMap::new();
    let mut order: Vec<(WindowRef, Vec<u8>)> = Vec::new();
    for element in input {
        let (key, value) = crate::coder::split_encoded_kv(&element.value)?;
        let slot = (element.window, key);
        let entry = groups.entry(slot.clone()).or_default();
        if entry.is_empty() {
            order.push(slot);
        }
        entry.push(value);
    }
    let mut out = Vec::with_capacity(order.len());
    for slot in order {
        // `order` only holds keys inserted into `groups` above.
        let Some(values) = groups.remove(&slot) else {
            continue;
        };
        let (window, key) = slot;
        let mut iterable = Vec::new();
        put_varint(values.len() as u64, &mut iterable);
        for v in &values {
            put_varint(v.len() as u64, &mut iterable);
            iterable.extend_from_slice(v);
        }
        let payload = crate::coder::join_encoded_kv(&key, &iterable);
        out.push(WindowedValue {
            value: payload.into(),
            // Beam's default timestamp combiner: end of window.
            timestamp: window.max_timestamp(),
            window,
            pane: PaneInfo::ON_TIME_AND_ONLY,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coder::{StrUtf8Coder, VarIntCoder};
    use crate::element::{Instant, Kv};
    use crate::transforms::{Create, Filter, Flatten, GroupByKey, MapElements, WithKeys};
    use crate::window::{WindowFn, WindowInto};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn linear_pipeline() {
        let p = Pipeline::new();
        let out = p
            .apply(Create::i64s((0..10).collect()))
            .apply(Filter::new("Even", |x: &i64| x % 2 == 0))
            .apply(MapElements::into_i64("Square", |x: i64| x * x));
        let result = DirectRunner::new().run(&p).unwrap();
        assert_eq!(result.collect_of(&out).unwrap(), vec![0, 4, 16, 36, 64]);
    }

    #[test]
    fn empty_pipeline_rejected() {
        let p = Pipeline::new();
        assert!(matches!(
            DirectRunner::new().run(&p),
            Err(Error::InvalidPipeline(_))
        ));
    }

    #[test]
    fn flatten_merges() {
        let p = Pipeline::new();
        let a = p.apply(Create::i64s(vec![1, 2]));
        let b = p.apply(Create::i64s(vec![3]));
        let merged = Flatten::collections(&[a, b]);
        let result = DirectRunner::new().run(&p).unwrap();
        assert_eq!(result.collect_of(&merged).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn group_by_key_global_window() {
        let p = Pipeline::new();
        let grouped = p
            .apply(Create::strings(vec![
                "apple".into(),
                "avocado".into(),
                "banana".into(),
            ]))
            .apply(WithKeys::of(
                |s: &String| s.chars().next().unwrap_or('?').to_string(),
                Arc::new(StrUtf8Coder),
            ))
            .apply(GroupByKey::create(
                Arc::new(StrUtf8Coder),
                Arc::new(StrUtf8Coder),
            ));
        let result = DirectRunner::new().run(&p).unwrap();
        let mut groups = result.collect_of(&grouped).unwrap();
        groups.sort_by(|a, b| a.key.cmp(&b.key));
        assert_eq!(
            groups,
            vec![
                Kv::new(
                    "a".to_string(),
                    vec!["apple".to_string(), "avocado".to_string()]
                ),
                Kv::new("b".to_string(), vec!["banana".to_string()]),
            ]
        );
    }

    #[test]
    fn group_by_key_respects_windows() {
        // Two elements with the same key in different fixed windows must
        // not merge.
        let input = vec![
            kv_element("k", 1, Instant(10)),
            kv_element("k", 2, Instant(10)),
            kv_element("k", 3, Instant(150)),
        ];
        let windowed: Vec<RawElement> = input
            .into_iter()
            .map(|mut e| {
                e.window = WindowFn::fixed(Duration::from_micros(100)).assign(e.timestamp);
                e
            })
            .collect();
        let grouped = group_by_key(&windowed).unwrap();
        assert_eq!(grouped.len(), 2, "one group per window");
    }

    fn kv_element(key: &str, value: i64, ts: Instant) -> RawElement {
        use crate::coder::{Coder, KvCoder};
        let coder = KvCoder::new(
            Arc::new(StrUtf8Coder) as Arc<dyn Coder<String>>,
            Arc::new(VarIntCoder) as Arc<dyn Coder<i64>>,
        );
        WindowedValue::timestamped(
            coder.encode_to_vec(&Kv::new(key.to_string(), value)).into(),
            ts,
        )
    }

    #[test]
    fn windowed_group_by_key_end_to_end() {
        let p = Pipeline::new();
        let grouped = p
            .apply(Create::i64s(vec![5, 15, 25]))
            // Give each element a distinct event time via a timestamp-
            // assigning identity stage, then window.
            .apply(crate::transforms::MapElements::into_i64("Id", |x: i64| x))
            .apply(WindowInto::new(WindowFn::fixed(Duration::from_micros(10))))
            .apply(WithKeys::of(
                |_x: &i64| "all".to_string(),
                Arc::new(StrUtf8Coder),
            ))
            .apply(GroupByKey::create(
                Arc::new(StrUtf8Coder),
                Arc::new(VarIntCoder),
            ));
        let result = DirectRunner::new().run(&p).unwrap();
        // Create assigns MIN timestamps, so everything lands in one
        // window here; the unit above covers the multi-window case.
        let groups = result.collect_of(&grouped).unwrap();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].value, vec![5, 15, 25]);
    }

    #[test]
    fn not_materialized_from_other_pipeline() {
        let p1 = Pipeline::new();
        let a = p1.apply(Create::i64s(vec![1]));
        let p2 = Pipeline::new();
        let _b = p2.apply(Create::i64s(vec![2]));
        let result = DirectRunner::new().run(&p2).unwrap();
        // `a` has node id 0, which exists in p2's result too, so decode
        // works; the meaningful miss is an out-of-range node.
        let p3 = Pipeline::new();
        let c1 = p3.apply(Create::i64s(vec![1]));
        let c2 = c1.apply(MapElements::into_i64("m", |x: i64| x));
        let _ = result.collect_of(&a);
        assert!(matches!(result.raw_of(&c2), Err(Error::NotMaterialized)));
    }
}
