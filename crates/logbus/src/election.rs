//! Per-partition leader-election state: epochs, the in-sync set, and
//! the high-watermark.
//!
//! The [`Cluster`](crate::Cluster) keeps one [`PartitionState`] per
//! partition behind its route locks. The state machine itself is pure
//! bookkeeping — positions into a fixed replica set, no broker handles —
//! so every transition (promotion, in-sync shrinkage, high-watermark
//! advance) can be tested without standing up brokers.
//!
//! The rules mirror Kafka's controller:
//!
//! - **Election** promotes the live in-sync replica with the most
//!   confirmed log; ties go to the lowest replica position. Each election
//!   bumps the **leader epoch**, which the partition logs enforce as a
//!   fence against appends from deposed leaders.
//! - The **in-sync set** always contains the leader. Dead replicas drop
//!   out at election time (or when a produce finds them dead) and rejoin
//!   only after catching back up to the leader's log end.
//! - The **high-watermark** is the minimum confirmed log end across the
//!   in-sync set. Consumers observe nothing at or past it, so a record
//!   is visible only once the whole in-sync set holds it — which is what
//!   makes a clean failover lose nothing that was ever readable.

/// Replication state of one partition: who leads, which replicas are in
/// sync, and how far each has confirmed the leader's log.
///
/// All vectors are parallel to the partition's fixed replica set (broker
/// indices held by the cluster route); this struct deals only in
/// *positions* within that set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PartitionState {
    /// Leader epoch: bumped by every election, enforced by the logs as a
    /// fence against deposed leaders.
    pub(crate) epoch: u64,
    /// Position of the current leader within the replica set.
    pub(crate) leader_pos: usize,
    /// In-sync flags. The leader's own flag is always `true`.
    pub(crate) in_sync: Vec<bool>,
    /// Confirmed log end per replica: records below `synced[p]` are
    /// known to match the leader's log (they were copied from it and
    /// acknowledged). A replica's physical log may run past its entry —
    /// an append whose ack was lost — but never diverge below it.
    pub(crate) synced: Vec<u64>,
    /// High-watermark: consumers observe only offsets below this. Never
    /// moves backwards.
    pub(crate) hw: u64,
    /// `(epoch, start offset)` per election, in election order: the log
    /// end the epoch's leader held when it took over. A replica that was
    /// dead during an election consults this on rejoin (KIP-101).
    pub(crate) epoch_starts: Vec<(u64, u64)>,
    /// Scratch for one replication round: `(position, acked)` of every
    /// follower that fetches in it. Sized for the replica set up front,
    /// so a round never allocates.
    pub(crate) legs: Vec<(usize, bool)>,
}

impl PartitionState {
    /// Fresh state for a partition with `replicas` replicas; the replica
    /// at position 0 (the placement's designated leader) starts as
    /// leader at epoch 0 with everyone in sync at offset 0.
    pub(crate) fn new(replicas: usize) -> Self {
        PartitionState {
            epoch: 0,
            leader_pos: 0,
            in_sync: vec![true; replicas],
            synced: vec![0; replicas],
            hw: 0,
            epoch_starts: Vec::new(),
            legs: Vec::with_capacity(replicas),
        }
    }

    /// Where the replica at `pos`, last fenced at `own_epoch`, may
    /// diverge from the current leader's log: its confirmed end, capped
    /// at the start of the first epoch it missed. Anything it holds past
    /// that point was written under a leader that has since been deposed
    /// without this replica hearing of it, so `synced[pos]` alone would
    /// vouch for records the newer timeline may have replaced.
    pub(crate) fn divergence_point(&self, pos: usize, own_epoch: u64) -> u64 {
        let missed = self
            .epoch_starts
            .iter()
            .find(|&&(epoch, _)| epoch > own_epoch);
        match missed {
            Some(&(_, start)) => self.synced[pos].min(start),
            None => self.synced[pos],
        }
    }

    /// Whether every in-sync replica has confirmed the log up to `end` —
    /// the `acks=all` commit test.
    pub(crate) fn fully_acked(&self, end: u64) -> bool {
        self.in_sync
            .iter()
            .zip(&self.synced)
            .all(|(&in_sync, &synced)| !in_sync || synced >= end)
    }

    /// Recomputes the high-watermark as the minimum confirmed end across
    /// the in-sync set. Monotonic: shrinking the set (or truncating a
    /// follower) never pulls already-published offsets back.
    pub(crate) fn recompute_hw(&mut self) {
        let committed = self
            .in_sync
            .iter()
            .zip(&self.synced)
            .filter(|(&in_sync, _)| in_sync)
            .map(|(_, &synced)| synced)
            .min()
            .unwrap_or(self.hw);
        self.hw = self.hw.max(committed);
    }

    /// Elects a new leader after the current one died: the live in-sync
    /// replica with the most confirmed log wins, ties to the lowest
    /// position (deterministic, like a controller walking the replica
    /// list). Bumps the epoch and drops dead members from the in-sync
    /// set. Returns the new leader's position, or `None` when no live
    /// in-sync candidate exists — the partition is offline until a
    /// replica restarts.
    pub(crate) fn elect(&mut self, alive: &[bool]) -> Option<usize> {
        let mut winner: Option<usize> = None;
        for pos in 0..self.in_sync.len() {
            if !self.in_sync[pos] || !alive.get(pos).copied().unwrap_or(false) {
                continue;
            }
            let better = match winner {
                None => true,
                Some(best) => self.synced[pos] > self.synced[best],
            };
            if better {
                winner = Some(pos);
            }
        }
        let winner = winner?;
        self.epoch += 1;
        self.leader_pos = winner;
        for pos in 0..self.in_sync.len() {
            self.in_sync[pos] = self.in_sync[pos] && alive.get(pos).copied().unwrap_or(false);
        }
        Some(winner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_state_leads_from_position_zero() {
        let st = PartitionState::new(3);
        assert_eq!(st.epoch, 0);
        assert_eq!(st.leader_pos, 0);
        assert_eq!(st.synced[st.leader_pos], 0);
        assert!(st.fully_acked(0));
        assert_eq!(st.hw, 0);
    }

    #[test]
    fn election_promotes_most_caught_up_live_replica() {
        let mut st = PartitionState::new(3);
        st.synced = vec![10, 7, 9];
        // Leader (pos 0) died; pos 2 has the longer confirmed log.
        assert_eq!(st.elect(&[false, true, true]), Some(2));
        assert_eq!(st.leader_pos, 2);
        assert_eq!(st.epoch, 1);
        assert_eq!(st.in_sync, vec![false, true, true]);
    }

    #[test]
    fn election_ties_break_to_lowest_position() {
        let mut st = PartitionState::new(3);
        st.synced = vec![5, 8, 8];
        assert_eq!(st.elect(&[false, true, true]), Some(1));
    }

    #[test]
    fn election_skips_out_of_sync_replicas() {
        let mut st = PartitionState::new(3);
        st.synced = vec![10, 4, 99];
        st.in_sync = vec![true, true, false];
        // Pos 2 has the longest log but fell out of sync — it may hold
        // records the old leader never acknowledged, so it cannot lead.
        assert_eq!(st.elect(&[false, true, true]), Some(1));
    }

    #[test]
    fn no_live_candidate_means_offline() {
        let mut st = PartitionState::new(2);
        assert_eq!(st.elect(&[false, false]), None);
        // State unchanged: a failed election bumps nothing.
        assert_eq!(st.epoch, 0);
        assert_eq!(st.leader_pos, 0);
    }

    #[test]
    fn epochs_accumulate_across_elections() {
        let mut st = PartitionState::new(3);
        assert_eq!(st.elect(&[false, true, true]), Some(1));
        assert_eq!(st.elect(&[true, false, true]), Some(2));
        assert_eq!(st.epoch, 2);
    }

    #[test]
    fn divergence_point_is_the_first_missed_epochs_start() {
        let mut st = PartitionState::new(3);
        st.synced = vec![9, 9, 4];
        // No election missed: the confirmed end stands.
        assert_eq!(st.divergence_point(1, 0), 9);
        st.epoch_starts = vec![(1, 4), (2, 7)];
        // Fenced at epoch 0, missed both: cut at epoch 1's start.
        assert_eq!(st.divergence_point(1, 0), 4);
        // Heard of epoch 1, missed epoch 2.
        assert_eq!(st.divergence_point(1, 1), 7);
        // Up to date, or confirmed end already below the start.
        assert_eq!(st.divergence_point(1, 2), 9);
        assert_eq!(st.divergence_point(2, 1), 4);
    }

    #[test]
    fn hw_is_min_over_in_sync_set_and_monotonic() {
        let mut st = PartitionState::new(3);
        st.synced = vec![10, 6, 8];
        st.recompute_hw();
        assert_eq!(st.hw, 6);
        // The laggard leaves the set: the watermark advances.
        st.in_sync[1] = false;
        st.recompute_hw();
        assert_eq!(st.hw, 8);
        // It rejoins behind: the watermark must not move backwards.
        st.in_sync[1] = true;
        st.synced[1] = 7;
        st.recompute_hw();
        assert_eq!(st.hw, 8);
    }

    #[test]
    fn fully_acked_ignores_out_of_sync_laggards() {
        let mut st = PartitionState::new(3);
        st.synced = vec![10, 3, 10];
        assert!(!st.fully_acked(10));
        st.in_sync[1] = false;
        assert!(st.fully_acked(10));
        assert!(!st.fully_acked(11));
    }
}
