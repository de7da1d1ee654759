//! Views of a few chunks are cloned, sliced, moved between threads and
//! dropped in seeded orders while their writers keep packing. No view's
//! bytes ever change, and once every thread has exited each chunk has
//! reached the pool exactly once — whichever of a sole holder's drop, an
//! evicted entry or a thread exit released its last reference.

use bytes::{pool_fresh_chunks, pool_stats, Bytes, BytesMut};
use std::sync::{Barrier, Mutex, PoisonError};

/// `bytes::pool_stats` counts for the whole process: tests that read it
/// or turn chunks over run one at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// A size class no other test in this binary uses.
const CAP: usize = 128 << 10;
/// More chunks than a thread's table has entries, so entries get evicted.
const CHUNKS: usize = 6;
const THREADS: usize = 4;
const ROUNDS: usize = 24;

/// SplitMix64: a seeded, dependency-free generator for the schedule.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, stream: usize) -> Self {
        Rng(seed ^ (stream as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F))
    }

    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// A view and the bytes it must read for as long as it lives.
struct Held {
    view: Bytes,
    expected: Vec<u8>,
}

impl Held {
    fn check(&self) {
        assert_eq!(&self.view[..], &self.expected[..], "a view's bytes changed");
    }
}

/// The `seq`-th value writer `chunk` packs: lengths and bytes differ
/// between neighbours.
fn value(chunk: usize, seq: usize) -> Vec<u8> {
    let len = 1 + (seq * 37 + chunk * 11) % 120;
    (0..len).map(|i| (i * 31 + seq * 7 + chunk) as u8).collect()
}

/// One thread of the schedule: packs views while it owns a live writer,
/// and each round drops, keeps, clones, slices or forwards every view it
/// holds; in the last round it drops what is left.
fn run_thread(
    seed: u64,
    me: usize,
    writers: Vec<(usize, BytesMut)>,
    slots: &[Vec<Mutex<Vec<Held>>>],
    barrier: &Barrier,
) {
    let mut rng = Rng::new(seed, me);
    // (chunk, writer, values packed, round after which it drops)
    let mut writers: Vec<_> = writers
        .into_iter()
        .map(|(chunk, writer)| (chunk, writer, 0, rng.below(ROUNDS)))
        .collect();
    let mut held: Vec<Held> = Vec::new();
    for round in 0..ROUNDS {
        for (chunk, writer, seq, _) in &mut writers {
            for _ in 0..rng.below(32) {
                let expected = value(*chunk, *seq);
                if writer.capacity() < expected.len() {
                    break; // never roll: the test counts exactly CHUNKS buffers
                }
                held.push(Held {
                    view: writer.pack_view(&expected),
                    expected,
                });
                *seq += 1;
            }
        }
        writers.retain(|&(_, _, _, retire)| retire > round);
        let mut outbox: Vec<Vec<Held>> = (0..THREADS).map(|_| Vec::new()).collect();
        let mut kept = Vec::new();
        while !held.is_empty() {
            let item = held.swap_remove(rng.below(held.len()));
            item.check();
            if round + 1 == ROUNDS {
                continue; // dropped
            }
            match rng.below(6) {
                0 => {} // dropped
                1 => kept.push(item),
                2 => outbox[rng.below(THREADS)].push(item),
                3 => {
                    let copy = Held {
                        view: item.view.clone(),
                        expected: item.expected.clone(),
                    };
                    outbox[rng.below(THREADS)].push(copy);
                    kept.push(item);
                }
                4 => {
                    let from = rng.below(item.expected.len());
                    let part = Held {
                        view: item.view.slice(from..),
                        expected: item.expected[from..].to_vec(),
                    };
                    outbox[rng.below(THREADS)].push(part);
                    outbox[rng.below(THREADS)].push(item);
                }
                _ => {
                    let copy = item.view.clone();
                    drop(item.view.clone());
                    assert_eq!(copy, item.view);
                    kept.push(item);
                }
            }
        }
        held = kept;
        for (dst, items) in outbox.into_iter().enumerate() {
            *slots[dst][me].lock().unwrap() = items;
        }
        barrier.wait();
        // Senders in a fixed order, so a seed fixes the schedule.
        for slot in &slots[me] {
            held.append(&mut slot.lock().unwrap());
        }
        barrier.wait();
    }
    assert!(held.is_empty());
}

#[test]
fn churned_views_never_change_and_each_chunk_reaches_the_pool_once() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    for seed in 0..8u64 {
        let (_, reclaimed_before) = pool_stats();
        let fresh_before = pool_fresh_chunks();
        let mut writers: Vec<Vec<(usize, BytesMut)>> = (0..THREADS).map(|_| Vec::new()).collect();
        let mut bases = Vec::new();
        for chunk in 0..CHUNKS {
            let writer = BytesMut::with_capacity(CAP);
            // Nothing is pending yet, so that slice starts at the base.
            bases.push(writer.as_ptr() as usize);
            writers[chunk % THREADS].push((chunk, writer));
        }
        let slots: Vec<Vec<Mutex<Vec<Held>>>> = (0..THREADS)
            .map(|_| (0..THREADS).map(|_| Mutex::new(Vec::new())).collect())
            .collect();
        let barrier = Barrier::new(THREADS);
        std::thread::scope(|scope| {
            let threads: Vec<_> = writers
                .into_iter()
                .enumerate()
                .map(|(me, writers)| {
                    let (slots, barrier) = (&slots, &barrier);
                    scope.spawn(move || run_thread(seed, me, writers, slots, barrier))
                })
                .collect();
            // Joined one by one: a join returns only after the thread's
            // thread-locals, its table of parked references among them,
            // have been destroyed.
            for thread in threads {
                thread.join().expect("churn thread");
            }
        });

        let (_, reclaimed) = pool_stats();
        assert_eq!(
            reclaimed - reclaimed_before,
            CHUNKS,
            "seed {seed}: chunks reclaimed"
        );
        // The class now holds each chunk once: taking CHUNKS buffers back
        // allocates nothing and yields every chunk's address exactly once.
        let again: Vec<BytesMut> = (0..CHUNKS).map(|_| BytesMut::with_capacity(CAP)).collect();
        let mut reused: Vec<usize> = again.iter().map(|w| w.as_ptr() as usize).collect();
        assert_eq!(
            pool_fresh_chunks(),
            fresh_before + if seed == 0 { CHUNKS } else { 0 }
        );
        reused.sort_unstable();
        bases.sort_unstable();
        assert_eq!(
            reused, bases,
            "seed {seed}: a chunk came back twice or not at all"
        );
    }
}
