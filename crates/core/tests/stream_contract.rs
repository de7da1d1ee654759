//! The generated stream's contract. Every input topic of every campaign
//! is `QueryLogGenerator`'s stream, so its bytes are part of every
//! committed number: `next_record().to_tsv()` is the specification,
//! `next_payload()` the arena-backed fast path that must reproduce it
//! byte for byte, and the golden digests pin the specification itself.

use bytes::Bytes;
use proptest::prelude::*;
use streambench_core::{Query, QueryLogGenerator};

/// The specification: the typed record rendered as a TSV line.
fn spec_line(generator: &mut QueryLogGenerator) -> Vec<u8> {
    generator.next_record().to_tsv().into_bytes()
}

proptest! {
    /// Twin generators, one on each path. 2 000+ records cross at least
    /// six grep-marker rows (where `"test"` is inserted and may become
    /// the URL's first word) and two arena rolls.
    #[test]
    fn fast_path_reproduces_the_specification(seed in any::<u64>(), len in 2_000usize..2_600) {
        let mut fast = QueryLogGenerator::new(seed);
        let mut spec = QueryLogGenerator::new(seed);
        for index in 0..len {
            let payload = fast.next_payload();
            prop_assert_eq!(&payload[..], &spec_line(&mut spec)[..], "record {}", index);
        }
        prop_assert_eq!(fast.generated(), spec.generated());
    }

    /// The event-time prefix is `"<micros>\t"` in front of the same
    /// line, for any stamp, and costs the stream no RNG draw.
    #[test]
    fn stamped_payload_is_prefix_plus_line(seed in any::<u64>(), micros in any::<i64>()) {
        let mut fast = QueryLogGenerator::new(seed);
        let mut spec = QueryLogGenerator::new(seed);
        for index in 0..400u64 {
            let micros = micros.wrapping_add(index as i64 * 1_000_003);
            let mut want = format!("{micros}\t").into_bytes();
            want.extend_from_slice(&spec_line(&mut spec));
            prop_assert_eq!(&fast.next_stamped_payload(micros)[..], &want[..], "record {}", index);
        }
    }
}

#[test]
fn a_clone_continues_the_stream_in_an_arena_of_its_own() {
    let mut parent = QueryLogGenerator::new(11);
    let mut spec = QueryLogGenerator::new(11);
    for _ in 0..500 {
        assert_eq!(&parent.next_payload()[..], &spec_line(&mut spec)[..]);
    }
    let mut clone = parent.clone();
    let mut held: [Vec<Bytes>; 2] = [Vec::new(), Vec::new()];
    // Interleaved, so a shared arena would alternate the two streams'
    // lines in memory.
    for _ in 0..2_000 {
        let want = spec_line(&mut spec);
        for (generator, held) in [&mut parent, &mut clone].into_iter().zip(&mut held) {
            let payload = generator.next_payload();
            assert_eq!(&payload[..], &want[..]);
            held.push(payload);
        }
    }
    // Each generator packs its own lines back to back: consecutive
    // payloads are adjacent except across the few arena rolls.
    for held in &held {
        let apart = held
            .windows(2)
            .filter(|pair| pair[0].as_ptr() as usize + pair[0].len() != pair[1].as_ptr() as usize)
            .count();
        assert!(
            apart <= 4,
            "{apart} of 1 999 consecutive payloads not adjacent"
        );
    }
}

#[test]
fn payloads_outlive_their_generator_and_never_change() {
    let mut generator = QueryLogGenerator::new(5);
    let mut spec = QueryLogGenerator::new(5);
    let held: Vec<Bytes> = (0..1_000).map(|_| generator.next_payload()).collect();
    // Later payloads (several arena rolls' worth) leave held ones alone.
    for _ in 0..5_000 {
        generator.next_payload();
    }
    drop(generator);
    for (index, payload) in held.iter().enumerate() {
        assert_eq!(&payload[..], &spec_line(&mut spec)[..], "record {index}");
    }
}

/// Order-sensitive FNV-1a over each output's length and bytes.
fn digest(outputs: impl Iterator<Item = Bytes>) -> (u64, u64) {
    let mut count = 0u64;
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for output in outputs {
        count += 1;
        let len = (output.len() as u64).to_le_bytes();
        for &byte in len.iter().chain(output.iter()) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
    }
    (count, hash)
}

/// What `Query::apply` makes of the first 10 000 records of seed 2019
/// (`SenderConfig::default().seed`), captured before the fast path
/// existed. A change that moves any of these has changed every input
/// topic — reordered an RNG draw, reformatted a column — and with it
/// every committed result; that is a new workload, not an optimisation.
#[test]
fn golden_digests_of_the_default_seed() {
    const GOLDEN: [(Query, u64, u64); 4] = [
        (Query::Identity, 10_000, 0x82a1_9687_55d7_9e71),
        (Query::Sample, 3_961, 0x2efb_ead1_af0c_798f),
        (Query::Projection, 10_000, 0x8f2a_65c9_0cf5_f28e),
        (Query::Grep, 31, 0x5285_0253_2fa4_1907),
    ];
    for (query, count, hash) in GOLDEN {
        let mut generator = QueryLogGenerator::new(2019);
        let outputs = (0..10_000).filter_map(|_| query.apply(&generator.next_payload()));
        let got = digest(outputs);
        assert_eq!(
            got,
            (count, hash),
            "{query}: got ({}, {:#018x})",
            got.0,
            got.1
        );
    }
}
