//! One trial = one operation: run a cell, read its output topic back,
//! verify it, and take every number from the output's `LogAppendTime`
//! stamps — the paper's measurement, made from outside the engines.

use crate::cells::{BusKind, Cell, Fleet};
use crate::stats::{percentile, Digest, StampRuns};
use crate::workloads::{input_topic, Workload};
use bytes::Bytes;
use logbus::{Acks, Bus, BusHandle, Record, StoredRecord};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use streambench_core::{
    parse_event_time_micros, send_workload, BenchConfig, OpenLoopSchedule, Query,
    QueryLogGenerator, SenderConfig,
};

/// Records per fetch when reading an output topic back.
const DRAIN_CHUNK: usize = 4_096;
/// Head start the open-loop schedule gives the engine to begin tailing.
const SCHEDULE_LEAD_MICROS: i64 = 5_000;
/// Longest single sleep of the open-loop sender.
const SENDER_NAP_MICROS: i64 = 1_000;
/// An open-loop trial whose output span exceeds its input span by more
/// than this factor did not keep up with the offered rate.
pub const MAX_DRAIN_RATIO: f64 = 1.5;

/// The modeled network round trip per broker request, µs.
pub fn rtt_micros() -> u64 {
    BenchConfig::default().request_latency_micros
}

/// Opens a harness span on the global tracer. The tracer itself is
/// always live (only `obs::span` consults the runtime switch), so the
/// few harness spans exist in every run, and `obs`'s own spans nest
/// under them once the switch is on.
pub fn span(name: &str, fields: &[(&str, String)]) -> obs::SpanGuard {
    obs::global().tracer().span_with_fields(name, fields)
}

/// What a correct output topic holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    pub count: u64,
    pub digest: u64,
}

/// `Query::apply` over the first `n` records of the seed's stream, for
/// every `n` in `sizes`, in one pass.
pub fn references(query: Query, seed: u64, sizes: &[u64]) -> BTreeMap<u64, Reference> {
    let mut generator = QueryLogGenerator::new(seed);
    let mut digest = Digest::default();
    let mut wanted: Vec<u64> = sizes.to_vec();
    wanted.sort_unstable();
    wanted.dedup();
    let mut out = BTreeMap::new();
    let mut done = 0u64;
    for size in wanted {
        while done < size {
            if let Some(result) = query.apply(&generator.next_payload()) {
                digest.push(&result);
            }
            done += 1;
        }
        out.insert(
            size,
            Reference {
                count: digest.count,
                digest: digest.value(),
            },
        );
    }
    out
}

/// Creates and fills one input topic per distinct bounded size.
pub fn preload(fleet: &Fleet, workload: &Workload, seed: u64) -> Result<(), String> {
    let acks = match fleet.kind() {
        BusKind::Broker => Acks::Leader,
        BusKind::Cluster => Acks::All,
    };
    for records in workload.input_sizes() {
        let topic = input_topic(records);
        fleet.create_topic(&topic).map_err(|e| e.to_string())?;
        let config = SenderConfig {
            records,
            acks,
            seed,
            ..SenderConfig::default()
        };
        send_workload(fleet.handle(), &topic, &config).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// An output topic read back once: digest, stamps and latency samples.
#[derive(Debug, Default)]
struct Drained {
    digest: Digest,
    first_stamp: i64,
    last_stamp: i64,
    stamps: StampRuns,
    /// Post-warm-up `LogAppendTime − event time`, µs (open loop only).
    latencies: Vec<f64>,
}

/// Streams `topic` through `fetch_into` in `DRAIN_CHUNK`s: no second
/// copy of the output is ever held. With `warmup_cutoff_micros` (open
/// loop), every output whose event-time prefix is at or past the cutoff
/// yields a latency sample.
fn drain(
    bus: &BusHandle,
    topic: &str,
    warmup_cutoff_micros: Option<i64>,
) -> Result<Drained, String> {
    let mut drained = Drained::default();
    let mut chunk: Vec<StoredRecord> = Vec::with_capacity(DRAIN_CHUNK);
    let mut offset = 0u64;
    loop {
        chunk.clear();
        let got = bus
            .fetch_into(topic, 0, offset, DRAIN_CHUNK, &mut chunk)
            .map_err(|e| format!("drain of {topic} at offset {offset}: {e}"))?;
        if got == 0 {
            return Ok(drained);
        }
        for stored in &chunk {
            let stamp = stored.timestamp.as_micros();
            if drained.digest.count == 0 {
                drained.first_stamp = stamp;
            }
            drained.last_stamp = stamp;
            drained.stamps.push(stamp);
            let value = &stored.record.value;
            drained.digest.push(value);
            let event = warmup_cutoff_micros
                .and_then(|cutoff| parse_event_time_micros(value).filter(|&event| event >= cutoff));
            if let Some(event) = event {
                drained.latencies.push((stamp - event).max(0) as f64);
            }
        }
        offset += got as u64;
    }
}

/// What a bounded job over the first `records` of the seed's stream
/// must write, record by record.
fn expected_bounded(query: Query, seed: u64, records: u64) -> impl Iterator<Item = Bytes> {
    let mut generator = QueryLogGenerator::new(seed);
    (0..records).filter_map(move |_| query.apply(&generator.next_payload()))
}

/// Open-loop input record `index`: the payload prefixed with the time it
/// is due, `"<micros>\t"`.
fn stamped(schedule: &OpenLoopSchedule, index: u64, payload: &[u8]) -> Bytes {
    let mut stamped = schedule.event_time_micros(index).to_string().into_bytes();
    stamped.push(b'\t');
    stamped.extend_from_slice(payload);
    Bytes::from(stamped)
}

/// Describes where `topic` departs from `expected`: the slow path,
/// walked only after a digest mismatch.
fn first_difference(
    bus: &BusHandle,
    topic: &str,
    mut expected: impl Iterator<Item = Bytes>,
) -> String {
    let mut chunk: Vec<StoredRecord> = Vec::with_capacity(DRAIN_CHUNK);
    let mut offset = 0u64;
    loop {
        chunk.clear();
        match bus.fetch_into(topic, 0, offset, DRAIN_CHUNK, &mut chunk) {
            Err(e) => return format!("fetch at offset {offset} failed: {e}"),
            Ok(0) => {
                return match expected.next() {
                    Some(_) => format!("output ends at offset {offset}, reference continues"),
                    None => "no differing offset found".to_string(),
                }
            }
            Ok(_) => {}
        }
        for stored in &chunk {
            match expected.next() {
                Some(want) if want == stored.record.value => offset += 1,
                Some(_) => return format!("first differing offset {offset}"),
                None => return format!("reference ends at offset {offset}, output continues"),
            }
        }
    }
}

static NEXT_TRIAL_ID: AtomicU64 = AtomicU64::new(1);

/// Everything one trial needs to know about its place in the run.
#[derive(Debug, Clone, Copy)]
pub struct TrialContext<'a> {
    pub workload: &'a Workload,
    pub cell: Cell,
    pub seed: u64,
}

impl TrialContext<'_> {
    /// Opens the trial's span; every span below it carries its id.
    fn open_span(&self, kind: &str) -> (obs::SpanGuard, String) {
        let id = NEXT_TRIAL_ID.fetch_add(1, Ordering::Relaxed).to_string();
        let guard = span(
            "trial",
            &[
                ("trial", id.clone()),
                ("cell", self.cell.name()),
                ("loop", kind.to_string()),
            ],
        );
        (guard, id)
    }

    fn fail(&self, kind: &str, id: &str, why: &str) -> String {
        format!(
            "{} {} trial {id} on {}: {why}",
            self.cell.name(),
            kind,
            self.workload.name
        )
    }
}

/// Measurements of one bounded trial.
#[derive(Debug, Clone, Copy)]
pub struct BoundedTrial {
    /// Output append span over input record count, ns.
    pub ns_per_rec: f64,
    /// Wall time of the engine-run call, s.
    pub wall_s: f64,
    /// Wall time outside the append span: deploy, allocation, first
    /// fetch, teardown.
    pub startup_s: f64,
    /// Output records per distinct append stamp.
    pub out_batch_records: f64,
    /// Harness time to read the output back and verify it, s.
    pub verify_s: f64,
}

/// Runs `ctx.cell` as a bounded job over its preloaded input on `fleet`.
/// `after_run` fires between the engine call and the read-back, so a
/// traced run can snapshot `obs` before the harness's own fetches count.
pub fn bounded_trial(
    ctx: &TrialContext<'_>,
    fleet: &Fleet,
    reference: &Reference,
    after_run: &mut dyn FnMut(f64),
) -> Result<BoundedTrial, String> {
    let (_trial_span, id) = ctx.open_span("bounded");
    let tag = [("trial", id.clone())];
    let records = ctx.workload.bounded_records[ctx.cell.index()];
    let input = input_topic(records);
    let output = format!("output-{id}");
    let bus = fleet.handle();
    fleet
        .create_topic(&output)
        .map_err(|e| ctx.fail("bounded", &id, &e.to_string()))?;

    let started = Instant::now();
    let run = {
        let _s = span("engine.run", &tag);
        ctx.cell
            .run(&bus, ctx.workload.query, &input, &output, None)
    };
    let wall_s = started.elapsed().as_secs_f64();
    after_run(wall_s);

    let verify_started = Instant::now();
    let drained = {
        let _s = span("drain", &tag);
        drain(&bus, &output, None)
    };
    let outcome = {
        let _s = span("verify", &tag);
        run.and(drained).and_then(|d| {
            if d.digest.count == reference.count && d.digest.value() == reference.digest {
                Ok(d)
            } else {
                Err(format!(
                    "{} output records, reference {}; {}",
                    d.digest.count,
                    reference.count,
                    first_difference(
                        &bus,
                        &output,
                        expected_bounded(ctx.workload.query, ctx.seed, records)
                    )
                ))
            }
        })
    };
    fleet.delete_topic(&output);
    let verify_s = verify_started.elapsed().as_secs_f64();

    let d = outcome.map_err(|e| ctx.fail("bounded", &id, &e))?;
    let span_s = (d.last_stamp - d.first_stamp) as f64 / 1e6;
    if span_s <= 0.0 {
        return Err(ctx.fail("bounded", &id, "output has no append span to time"));
    }
    Ok(BoundedTrial {
        ns_per_rec: span_s * 1e9 / records as f64,
        wall_s,
        startup_s: wall_s - span_s,
        out_batch_records: d.digest.count as f64 / d.stamps.distinct as f64,
        verify_s,
    })
}

/// Measurements of one open-loop trial.
#[derive(Debug, Clone)]
pub struct OpenTrial {
    /// Post-warm-up latencies, µs, sorted.
    pub latencies_us: Vec<f64>,
    /// Their exact median, µs.
    pub p50_us: f64,
    /// Their exact 99th percentile, µs.
    pub p99_us: f64,
    /// Output append span over the span in which the input was appended
    /// (the offered span, or longer when the host stalled the sender —
    /// that stall is charged to latency, not to the engine's drain).
    pub drain_ratio: f64,
    /// Worst wake-up lag of the sender behind its schedule, µs.
    pub max_lag_us: f64,
}

/// The load generator: offers `records` records on `schedule`, each
/// prefixed with the time it was *due*, not the time it was sent — a
/// stalled sender ships the overdue records in one append at their
/// original stamps, so its stall counts as latency. Returns the worst
/// wake-up lag, µs, and what `query` must make of what was offered (the
/// stamps differ per trial, so this reference cannot be precomputed).
fn offer_open_loop(
    bus: &BusHandle,
    topic: &str,
    schedule: &OpenLoopSchedule,
    records: u64,
    seed: u64,
    query: Query,
) -> Result<(i64, Reference), String> {
    let mut generator = QueryLogGenerator::new(seed);
    let mut reference = Digest::default();
    let mut next = 0u64;
    let mut max_lag = 0i64;
    while next < records {
        let due_at = schedule.event_time_micros(next);
        let mut now = bus.now().as_micros();
        while now < due_at {
            let nap = (due_at - now).min(SENDER_NAP_MICROS) as u64;
            std::thread::sleep(std::time::Duration::from_micros(nap));
            now = bus.now().as_micros();
        }
        max_lag = max_lag.max(now - due_at);
        let due = schedule.due_count(now, next, records).max(1);
        let batch: Vec<Record> = (next..next + due)
            .map(|i| {
                let value = stamped(schedule, i, &generator.next_payload());
                if let Some(result) = query.apply(&value) {
                    reference.push(&result);
                }
                Record::from_value(value)
            })
            .collect();
        bus.produce_batch(topic, 0, batch)
            .map_err(|e| format!("open-loop sender: {e}"))?;
        next += due;
    }
    let reference = Reference {
        count: reference.count,
        digest: reference.value(),
    };
    Ok((max_lag, reference))
}

/// Runs `ctx.cell` in follow mode on a fresh bus while one sender thread
/// offers the workload's open loop.
pub fn open_trial(ctx: &TrialContext<'_>) -> Result<OpenTrial, String> {
    let (_trial_span, id) = ctx.open_span("open");
    let tag = [("trial", id.clone())];
    let records = ctx.workload.open_records;
    let fleet = Fleet::new(ctx.workload.bus, rtt_micros());
    let bus = fleet.handle();
    for topic in ["input", "output"] {
        fleet
            .create_topic(topic)
            .map_err(|e| ctx.fail("open", &id, &e.to_string()))?;
    }
    let schedule = OpenLoopSchedule::new(
        bus.now().as_micros() + SCHEDULE_LEAD_MICROS,
        ctx.workload.open_rate,
    );

    let query = ctx.workload.query;
    let (run, sent) = std::thread::scope(|scope| {
        let sender =
            scope.spawn(|| offer_open_loop(&bus, "input", &schedule, records, ctx.seed, query));
        let run = {
            let _s = span("engine.run", &tag);
            ctx.cell.run(&bus, query, "input", "output", Some(records))
        };
        let sent = sender
            .join()
            .unwrap_or_else(|_| Err("open-loop sender panicked".to_string()));
        (run, sent)
    });

    let drained = {
        let _s = span("drain", &tag);
        drain(
            &bus,
            "output",
            Some(schedule.event_time_micros(records / 10)),
        )
    };
    let _s = span("verify", &tag);
    let (max_lag, reference) = sent.map_err(|e| ctx.fail("open", &id, &e))?;
    let mut d = run.and(drained).map_err(|e| ctx.fail("open", &id, &e))?;
    if d.digest.count != reference.count || d.digest.value() != reference.digest {
        let mut generator = QueryLogGenerator::new(ctx.seed);
        let expected = (0..records)
            .filter_map(|i| query.apply(&stamped(&schedule, i, &generator.next_payload())));
        let at = first_difference(&bus, "output", expected);
        let why = format!(
            "{} output records, reference {}; {at}",
            d.digest.count, reference.count
        );
        return Err(ctx.fail("open", &id, &why));
    }
    let offered_span = schedule.event_time_micros(records - 1) - schedule.start_micros();
    let stamp_of = |at: logbus::Result<Option<logbus::Timestamp>>| {
        at.ok().flatten().map_or(0, logbus::Timestamp::as_micros)
    };
    let input_span =
        stamp_of(bus.last_timestamp("input", 0)) - stamp_of(bus.first_timestamp("input", 0));
    let drain_ratio =
        (d.last_stamp - d.first_stamp) as f64 / offered_span.max(input_span).max(1) as f64;
    d.latencies.sort_by(f64::total_cmp);
    let (Some(p50_us), Some(p99_us)) = (
        percentile(&d.latencies, 0.5),
        percentile(&d.latencies, 0.99),
    ) else {
        return Err(ctx.fail("open", &id, "no post-warm-up output to time"));
    };
    Ok(OpenTrial {
        latencies_us: d.latencies,
        p50_us,
        p99_us,
        drain_ratio,
        max_lag_us: max_lag as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::CELLS;
    use crate::workloads::WORKLOADS;

    #[test]
    fn references_are_prefix_consistent() {
        let all = references(Query::Grep, 7, &[5_000, 1_000]);
        let small = references(Query::Grep, 7, &[1_000]);
        assert_eq!(all[&1_000], small[&1_000]);
        assert!(all[&5_000].count > all[&1_000].count);
        assert_eq!(references(Query::Identity, 7, &[10])[&10].count, 10);
    }

    #[test]
    fn stamped_records_carry_their_due_time_through_every_query() {
        let schedule = OpenLoopSchedule::new(1_000_000, 10_000.0);
        let value = stamped(&schedule, 3, b"42\ta test\tt");
        assert_eq!(&value[..], b"1000300\t42\ta test\tt");
        for query in Query::ALL {
            let out = query.apply(&value).unwrap_or(value.clone());
            assert_eq!(parse_event_time_micros(&out), Some(1_000_300), "{query}");
        }
    }

    #[test]
    fn a_corrupted_output_names_its_first_differing_offset() {
        let fleet = Fleet::new(BusKind::Broker, 0);
        fleet.create_topic("out").unwrap();
        let mut generator = QueryLogGenerator::new(3);
        let mut batch: Vec<Record> = (0..10)
            .map(|_| Record::from_value(generator.next_payload()))
            .collect();
        batch[6] = Record::from_value(Bytes::from_static(b"corrupt"));
        fleet.handle().produce_batch("out", 0, batch).unwrap();
        let bus = fleet.handle();
        let at = first_difference(&bus, "out", expected_bounded(Query::Identity, 3, 10));
        assert_eq!(at, "first differing offset 6");
        let short = first_difference(&bus, "out", expected_bounded(Query::Identity, 3, 4));
        assert_eq!(short, "reference ends at offset 4, output continues");
    }

    #[test]
    fn both_loops_verify_on_every_cell() {
        // Projection cuts open-loop records down to their event time.
        let workload = WORKLOADS[2].scaled_down(200);
        let seed = 11;
        let fleet = Fleet::new(workload.bus, 0);
        preload(&fleet, &workload, seed).unwrap();
        let sizes = workload.input_sizes();
        let refs = references(workload.query, seed, &sizes);
        for cell in CELLS {
            let ctx = TrialContext {
                workload: &workload,
                cell,
                seed,
            };
            let reference = &refs[&workload.bounded_records[cell.index()]];
            let bounded = bounded_trial(&ctx, &fleet, reference, &mut |_| {}).unwrap();
            assert!(bounded.ns_per_rec > 0.0 && bounded.out_batch_records >= 1.0);
            let open = open_trial(&ctx).unwrap();
            assert!(open.p50_us <= open.p99_us, "{}", cell.name());
        }
        // A wrong reference fails the operation and says where.
        let ctx = TrialContext {
            workload: &workload,
            cell: CELLS[0],
            seed: seed + 1,
        };
        let mut wrong = refs[&workload.bounded_records[0]];
        wrong.digest ^= 1;
        let err = bounded_trial(&ctx, &fleet, &wrong, &mut |_| {}).unwrap_err();
        assert!(
            err.contains("rill.native") && err.contains("offset"),
            "{err}"
        );
    }
}
