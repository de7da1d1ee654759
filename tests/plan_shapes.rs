//! Execution-plan shape: the paper's Fig. 12 (native grep: three plan
//! elements) versus Fig. 13 (abstraction-layer grep: seven plan
//! elements), extracted from the rill engine. The rendered text of both
//! plans is pinned by `tests/golden/plans.txt`.

use beamline::runners::RillRunner;
use logbus::{Broker, TopicConfig};
use streambench_core::{beam_pipeline, queries, Query};

fn broker() -> Broker {
    let b = Broker::new();
    b.create_topic("input", TopicConfig::default()).unwrap();
    b.create_topic("output", TopicConfig::default()).unwrap();
    b
}

#[test]
fn figure_12_native_grep_plan_has_three_elements() {
    let plan = queries::native_rill_plan(broker(), Query::Grep);
    assert_eq!(
        plan.element_count(),
        3,
        "Fig. 12: data source, operator, data sink"
    );
    assert_eq!(plan.operator_count(), 1);
    let names: Vec<&str> = plan.nodes().iter().map(|n| n.name.as_str()).collect();
    assert!(names[0].starts_with("Source:"), "{names:?}");
    assert_eq!(
        names[1], "Filter",
        "the grep query is a filter, as in Fig. 12"
    );
    assert!(names[2].starts_with("Sink:"), "{names:?}");
    assert!(plan.nodes().iter().all(|n| n.parallelism == 1));
    assert_eq!(plan.chains().len(), 1, "the native plan is fully chained");
}

#[test]
fn figure_13_beam_grep_plan_has_seven_elements() {
    let broker = broker();
    let pipeline = beam_pipeline(&broker, Query::Grep, "input", "output");
    let plan = RillRunner::new().plan(&pipeline).unwrap();
    assert_eq!(
        plan.element_count(),
        7,
        "Fig. 13: source + flat map + five ParDos"
    );
    assert_eq!(
        plan.nodes()[0].name,
        "Source: PTransformTranslation.UnknownRawPTransform"
    );
    assert_eq!(plan.nodes()[1].name, "Flat Map");
    assert_eq!(
        plan.nodes_named_like("ParDoTranslation.RawParDo").len(),
        5,
        "five RawParDo stages, as the paper describes"
    );
    assert!(plan.nodes().iter().all(|n| n.parallelism == 1));
}

#[test]
fn every_native_query_plan_has_three_elements() {
    for query in Query::ALL {
        let plan = queries::native_rill_plan(broker(), query);
        assert_eq!(plan.element_count(), 3, "query {query}");
    }
}

#[test]
fn every_beam_query_plan_has_seven_elements() {
    let broker = broker();
    for query in Query::ALL {
        let pipeline = beam_pipeline(&broker, query, "input", "output");
        let plan = RillRunner::new().plan(&pipeline).unwrap();
        assert_eq!(plan.element_count(), 7, "query {query}");
    }
}

#[test]
fn beam_plan_is_larger_by_factor_the_paper_reports() {
    // "The plan for the query implemented using Apache Beam is
    // significantly larger" — 7 vs 3 elements.
    let broker = broker();
    let native = queries::native_rill_plan(&broker, Query::Grep);
    let beam = RillRunner::new()
        .plan(&beam_pipeline(&broker, Query::Grep, "input", "output"))
        .unwrap();
    assert!(beam.element_count() > 2 * native.element_count());
}

/// Renders both plans exactly as the `plans` binary prints them.
fn render_plans() -> String {
    let broker = broker();
    let native = queries::native_rill_plan(&broker, Query::Grep);
    let pipeline = beam_pipeline(&broker, Query::Grep, "input", "output");
    let beam = RillRunner::new().plan(&pipeline).unwrap();
    format!(
        "=== Fig. 12: native grep execution plan ===\n{native}elements: {}\n\n\
         === Fig. 13: abstraction-layer grep execution plan ===\n{beam}elements: {}\n",
        native.element_count(),
        beam.element_count(),
    )
}

#[test]
fn plans_render_as_the_golden_file() {
    let golden = include_str!("golden/plans.txt");
    assert_eq!(render_plans(), golden);
}
