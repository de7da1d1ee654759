//! Offline shim for the `crossbeam::channel` API subset used by this
//! workspace: multi-producer multi-consumer channels with optional
//! capacity bounds, cloneable receivers, and disconnect semantics.

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    /// Error returned by [`Sender::send`] when all receivers are gone.
    #[derive(Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> std::fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// all senders are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty.
        Empty,
        /// The channel is empty and all senders have disconnected.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived before the timeout.
        Timeout,
        /// The channel is empty and all senders have disconnected.
        Disconnected,
    }

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
        /// Threads inside `not_full.wait` / `not_empty.wait`. Counted
        /// under the state mutex, so whoever changes the queue knows
        /// whether a `notify_one` (a futex syscall) has anyone to wake.
        parked_senders: usize,
        parked_receivers: usize,
    }

    struct Chan<T> {
        state: Mutex<State<T>>,
        not_empty: Condvar,
        not_full: Condvar,
        capacity: Option<usize>,
    }

    /// The sending half of a channel. Cloneable.
    pub struct Sender<T> {
        chan: Arc<Chan<T>>,
    }

    /// The receiving half of a channel. Cloneable: each message is
    /// delivered to exactly one receiver.
    pub struct Receiver<T> {
        chan: Arc<Chan<T>>,
    }

    impl<T> std::fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> std::fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    /// Creates a channel with a capacity bound; sends block when full.
    pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        new_channel(Some(capacity))
    }

    /// Creates a channel without a capacity bound.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        new_channel(None)
    }

    fn new_channel<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
                parked_senders: 0,
                parked_receivers: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        });
        (Sender { chan: chan.clone() }, Receiver { chan })
    }

    impl<T> Sender<T> {
        /// Sends `value`, blocking while a bounded channel is full.
        /// Returns the value if every receiver has disconnected.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut state = self.chan.state.lock().expect("channel lock");
            loop {
                if state.receivers == 0 {
                    return Err(SendError(value));
                }
                match self.chan.capacity {
                    Some(cap) if state.queue.len() >= cap => {
                        state.parked_senders += 1;
                        state = self.chan.not_full.wait(state).expect("channel lock");
                        state.parked_senders -= 1;
                    }
                    _ => break,
                }
            }
            state.queue.push_back(value);
            let wake = state.parked_receivers > 0;
            drop(state);
            if wake {
                self.chan.not_empty.notify_one();
            }
            Ok(())
        }
    }

    impl<T> Chan<T> {
        /// Hands a popped message out, waking one sender only if one is
        /// parked on the full queue.
        fn popped(&self, state: MutexGuard<'_, State<T>>, value: T) -> T {
            let wake = state.parked_senders > 0;
            drop(state);
            if wake {
                self.not_full.notify_one();
            }
            value
        }
    }

    impl<T> Receiver<T> {
        /// Receives the next message, blocking until one is available.
        /// Errors when the channel is empty and all senders are gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.chan.state.lock().expect("channel lock");
            loop {
                if let Some(value) = state.queue.pop_front() {
                    return Ok(self.chan.popped(state, value));
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state.parked_receivers += 1;
                state = self.chan.not_empty.wait(state).expect("channel lock");
                state.parked_receivers -= 1;
            }
        }

        /// Receives the next message, blocking for at most `timeout`.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut state = self.chan.state.lock().expect("channel lock");
            loop {
                if let Some(value) = state.queue.pop_front() {
                    return Ok(self.chan.popped(state, value));
                }
                if state.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(RecvTimeoutError::Timeout);
                }
                state.parked_receivers += 1;
                let waited = self.chan.not_empty.wait_timeout(state, left);
                state = waited.expect("channel lock").0;
                state.parked_receivers -= 1;
            }
        }

        /// Receives the next message if one is immediately available.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = self.chan.state.lock().expect("channel lock");
            if let Some(value) = state.queue.pop_front() {
                return Ok(self.chan.popped(state, value));
            }
            if state.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Number of messages currently queued.
        pub fn len(&self) -> usize {
            self.chan.state.lock().expect("channel lock").queue.len()
        }

        /// Whether the queue is currently empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.chan.state.lock().expect("channel lock").senders += 1;
            Sender {
                chan: self.chan.clone(),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.chan.state.lock().expect("channel lock").receivers += 1;
            Receiver {
                chan: self.chan.clone(),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.chan.state.lock().expect("channel lock");
            state.senders -= 1;
            if state.senders == 0 {
                drop(state);
                self.chan.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut state = self.chan.state.lock().expect("channel lock");
            state.receivers -= 1;
            if state.receivers == 0 {
                drop(state);
                self.chan.not_full.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{bounded, unbounded, RecvError, RecvTimeoutError, TryRecvError};
    use std::time::Duration;

    #[test]
    fn roundtrip_in_order() {
        let (tx, rx) = unbounded();
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        drop(tx);
        for i in 0..100 {
            assert_eq!(rx.recv(), Ok(i));
        }
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn bounded_blocks_until_drained() {
        let (tx, rx) = bounded(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let handle = std::thread::spawn(move || tx.send(3));
        assert_eq!(rx.recv(), Ok(1));
        assert!(handle.join().unwrap().is_ok());
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Ok(3));
    }

    #[test]
    fn try_recv_reports_state() {
        let (tx, rx) = unbounded::<i32>();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        tx.send(1).unwrap();
        assert_eq!(rx.try_recv(), Ok(1));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn cloned_receivers_compete() {
        let (tx, rx1) = unbounded();
        let rx2 = rx1.clone();
        tx.send("a").unwrap();
        tx.send("b").unwrap();
        drop(tx);
        let mut got = vec![rx1.recv().unwrap(), rx2.recv().unwrap()];
        got.sort_unstable();
        assert_eq!(got, vec!["a", "b"]);
        assert!(rx1.recv().is_err());
    }

    #[test]
    fn send_fails_without_receivers() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn cross_thread_handoff() {
        let (tx, rx) = bounded(16);
        let producer = std::thread::spawn(move || {
            for i in 0..10_000u64 {
                tx.send(i).unwrap();
            }
        });
        let mut sum = 0u64;
        while let Ok(v) = rx.recv() {
            sum += v;
        }
        producer.join().unwrap();
        assert_eq!(sum, 10_000 * 9_999 / 2);
    }

    /// Wake-ups are sent only to parked threads, so a miscounted parker
    /// would show up as a lost wake-up: a hang, or a message nobody
    /// receives. Capacity 1 makes nearly every send and receive park.
    #[test]
    fn no_lost_wakeups_under_contention() {
        const PRODUCERS: u64 = 4;
        const CONSUMERS: usize = 4;
        const PER_PRODUCER: u64 = 5_000;
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let (tx, rx) = bounded::<u64>(1);
            let producers: Vec<_> = (0..PRODUCERS)
                .map(|p| {
                    let tx = tx.clone();
                    std::thread::spawn(move || {
                        for i in 0..PER_PRODUCER {
                            tx.send(p * PER_PRODUCER + i).unwrap();
                        }
                    })
                })
                .collect();
            drop(tx);
            let consumers: Vec<_> = (0..CONSUMERS)
                .map(|_| {
                    let rx = rx.clone();
                    std::thread::spawn(move || {
                        let mut got = Vec::new();
                        while let Ok(v) = rx.recv() {
                            got.push(v);
                        }
                        got
                    })
                })
                .collect();
            drop(rx);
            for producer in producers {
                producer.join().unwrap();
            }
            let mut all: Vec<u64> = consumers
                .into_iter()
                .flat_map(|c| c.join().unwrap())
                .collect();
            all.sort_unstable();
            done_tx.send(all).unwrap();
        });
        let all = done_rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("channel hung: a parked thread was never woken");
        let expected: Vec<u64> = (0..PRODUCERS * PER_PRODUCER).collect();
        assert_eq!(all, expected, "every message delivered exactly once");
    }

    #[test]
    fn recv_timeout_waits_then_reports_state() {
        let (tx, rx) = unbounded::<i32>();
        let wait = Duration::from_millis(5);
        let started = std::time::Instant::now();
        assert_eq!(rx.recv_timeout(wait), Err(RecvTimeoutError::Timeout));
        assert!(started.elapsed() >= wait);
        let handle = std::thread::spawn(move || {
            tx.send(7).unwrap();
            tx
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(7));
        drop(handle.join().unwrap());
        assert_eq!(rx.recv_timeout(wait), Err(RecvTimeoutError::Disconnected));
    }
}
