//! The direct runner: reference in-memory execution of the pipeline
//! chain.

use crate::error::Result;
use crate::graph::{RawElement, StageNode};
use crate::pipeline::Pipeline;
use crate::runners::{EngineReport, PipelineResult, PipelineRunner};
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
        let materialized = pipeline.with_graph(|graph| -> Result<_> {
            let chain = graph.chain()?;
            let mut stages = vec![(
                chain.read.id,
                stage(chain.read, |out| {
                    let mut source = (chain.source)();
                    while let Some(batch) = source.next_batch(usize::MAX) {
                        out.extend(batch);
                    }
                }),
            )];
            for (node, factory) in &chain.pardos {
                let input = stages.last().map_or(&[][..], |(_, out)| out.as_slice());
                let output = stage(node, |out| {
                    // One bundle per stage over the whole bounded input.
                    let mut dofn = factory();
                    dofn.start_bundle();
                    for element in input {
                        dofn.process(element.clone(), &mut |e| out.push(e));
                    }
                    dofn.finish_bundle(&mut |e| out.push(e));
                });
                stages.push((node.id, output));
            }
            Ok(stages.into_iter().collect())
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

/// Runs one stage into a fresh collection, metered per stage.
fn stage(node: &StageNode, run: impl FnOnce(&mut Vec<RawElement>)) -> Vec<RawElement> {
    let mut stage_span = obs::span("beam.direct.stage");
    stage_span.field("stage", &node.name);
    let stage_started = WallInstant::now();
    let mut output = Vec::new();
    run(&mut output);
    if obs::enabled() {
        obs::counter(&format!("beam.direct.{}.records_out", node.name)).add(output.len() as u64);
        obs::counter(&format!("beam.direct.{}.busy_micros", node.name))
            .add(stage_started.elapsed().as_micros() as u64);
    }
    output
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;
    use crate::transforms::{Create, Filter, MapElements};

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
