//! The benchmark's workloads. A workload is an input configuration —
//! query, bus, sizes and offered rate; every workload runs the same two
//! loops over it (a bounded job on preloaded input, then an open loop at
//! a fixed offered rate) and so reports the same metric names.

use crate::cells::BusKind;
use streambench_core::Query;

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why the workload exists.
    pub why: &'static str,
    pub query: Query,
    pub bus: BusKind,
    /// Input records of each cell's bounded trial, in `CELLS` order.
    /// `ns_per_rec` is per input record, so cells need not share a size;
    /// each is sized so its output append span is 0.2–0.4 s on the
    /// 2-vCPU reference host. Cells of equal size share an input topic.
    pub bounded_records: [u64; 6],
    /// Offered rate of the open loop, records per second.
    pub open_rate: f64,
    /// Records offered per open-loop trial; the first tenth is warm-up.
    pub open_records: u64,
}

/// Output density (40 % against 100 %) splits a cell into its read half
/// and its write half; record size (whole against first column) splits
/// the write half into per-byte and per-record cost; the cluster adds
/// replication.
///
/// Open-loop rates sit at a quarter of the slowest cell's ceiling
/// (`apx.beam` appends synchronously per record: about 21 000 records/s
/// on a broker, 10 000 on the cluster), so a host stall does not tip a
/// trial of a few tenths of a second into overload.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sample",
        why: "a content-determined 40 % of records reach the sink: the whole read half (fetch, operator, Beam decode/ParDo) with 0.4 of identity's writes, so the pair splits a cell into read and write cost",
        query: Query::Sample,
        bus: BusKind::Broker,
        bounded_records: [1_300_000, 120_000, 1_300_000, 120_000, 250_000, 12_000],
        open_rate: 5_000.0,
        open_records: 2_000,
    },
    Workload {
        name: "identity",
        why: "every record is written back whole (Fig. 6, where the paper's 58x lives), so sink produce, AsyncProducer batching, broker append and the modeled RTT dominate",
        query: Query::Identity,
        bus: BusKind::Broker,
        bounded_records: [1_000_000, 100_000, 1_000_000, 100_000, 200_000, 6_000],
        open_rate: 5_000.0,
        open_records: 2_000,
    },
    Workload {
        name: "projection",
        why: "every record is written back cut to its first column: identity's appends and round trips with a tenth of the bytes, splitting per-record from per-byte cost on the write path",
        query: Query::Projection,
        bus: BusKind::Broker,
        bounded_records: [1_000_000, 100_000, 1_000_000, 100_000, 200_000, 6_000],
        open_rate: 5_000.0,
        open_records: 2_000,
    },
    Workload {
        name: "repl_identity",
        why: "identity on a 3-broker RF-3 cluster with Acks::All: the only workload that runs logbus::cluster (replication, high-watermark clamp, epoch checks), which ROADMAP items 1 and 3 rewrite",
        query: Query::Identity,
        bus: BusKind::Cluster,
        bounded_records: [250_000, 100_000, 250_000, 100_000, 100_000, 2_500],
        open_rate: 2_500.0,
        open_records: 1_000,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The workload with every record count divided by `div` (smoke
    /// runs); sizes stay large enough for every cell to append its
    /// output in several batches, so there is a span to time.
    pub fn scaled_down(mut self, div: u64) -> Workload {
        for n in &mut self.bounded_records {
            *n = (*n / div).max(10_000);
        }
        self.open_records = (self.open_records / div.min(10)).max(400);
        self
    }

    /// Distinct bounded input sizes, largest first.
    pub fn input_sizes(&self) -> Vec<u64> {
        let mut sizes = self.bounded_records.to_vec();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        sizes.dedup();
        sizes
    }
}

/// The input topic holding the first `records` records of the seed's
/// stream.
pub fn input_topic(records: u64) -> String {
    format!("input-{records}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_sizes_dedup() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(w.why.len() <= 200, "{}", w.name);
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
        }
        let sizes = vec![1_300_000, 250_000, 120_000, 12_000];
        assert_eq!(WORKLOADS[0].input_sizes(), sizes);
        let small = WORKLOADS[1].scaled_down(100);
        assert_eq!(small.bounded_records[5], 10_000);
        assert_eq!(small.open_records, 400);
        assert!(WORKLOADS.iter().all(|w| w.open_records >= 1_000));
    }
}
