//! Interval/queue-depth flush scheduling for batched rekeying.

use kg_core::ids::UserId;
use kg_crypto::SymmetricKey;
use kg_obs::{Counter, Gauge, Obs, ObsEvent};

/// When the scheduler flushes its queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Flush at least this often (milliseconds) while requests are pending.
    pub interval_ms: u64,
    /// Flush immediately once this many requests are queued.
    pub max_pending: usize,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy { interval_ms: 1_000, max_pending: 64 }
    }
}

/// One interval's drained requests, ready for
/// [`KeyTree::apply_batch`](kg_core::tree::KeyTree::apply_batch).
#[derive(Debug, Clone)]
pub struct PendingBatch {
    /// Interval sequence number (1-based, monotonically increasing).
    pub interval: u64,
    /// Queued joins, in arrival order.
    pub joins: Vec<(UserId, SymmetricKey)>,
    /// Queued leaves, in arrival order.
    pub leaves: Vec<UserId>,
}

/// Queues join/leave requests between rekey intervals.
///
/// Flush timing is decided by [`BatchPolicy`]: the queue is drained when
/// `interval_ms` has elapsed since the last flush (and something is
/// pending), or as soon as `max_pending` requests accumulate, whichever
/// comes first. The scheduler never consults a clock itself — callers
/// pass `now_ms`, which keeps it usable under the simulated network.
///
/// Within one interval, opposing requests collapse: a leave cancels a
/// pending join for the same user (the pair is a no-op), while a join
/// after a pending leave is kept as a leave-then-rejoin (the tree
/// handles that pairing in one batch).
#[derive(Debug, Default)]
pub struct BatchScheduler {
    policy: BatchPolicy,
    joins: Vec<(UserId, SymmetricKey)>,
    leaves: Vec<UserId>,
    last_flush_ms: u64,
    intervals_flushed: u64,
    obs: Obs,
    queue_depth: Gauge,
    collapsed_joins: Counter,
    deduped_leaves: Counter,
}

impl BatchScheduler {
    /// Create a scheduler; `now_ms` starts the first interval.
    pub fn new(policy: BatchPolicy, now_ms: u64) -> Self {
        BatchScheduler {
            policy,
            joins: Vec::new(),
            leaves: Vec::new(),
            last_flush_ms: now_ms,
            intervals_flushed: 0,
            obs: Obs::disabled(),
            queue_depth: Gauge::default(),
            collapsed_joins: Counter::default(),
            deduped_leaves: Counter::default(),
        }
    }

    /// Attach an observability handle: the queue-depth gauge
    /// (`kg_batch_queue_depth`), collapse/dedup counters, and
    /// enqueue/flush timeline events flow to it.
    pub fn attach_obs(&mut self, obs: Obs) {
        self.queue_depth = obs.gauge("kg_batch_queue_depth");
        self.collapsed_joins = obs.counter("kg_batch_collapsed_joins_total");
        self.deduped_leaves = obs.counter("kg_batch_deduped_leaves_total");
        self.queue_depth.set(self.pending() as i64);
        self.obs = obs;
    }

    /// The flush policy.
    pub fn policy(&self) -> BatchPolicy {
        self.policy
    }

    /// Number of queued requests.
    pub fn pending(&self) -> usize {
        self.joins.len() + self.leaves.len()
    }

    /// Number of intervals flushed so far.
    pub fn intervals_flushed(&self) -> u64 {
        self.intervals_flushed
    }

    /// Whether `user` has a queued join.
    pub fn has_pending_join(&self, user: UserId) -> bool {
        self.joins.iter().any(|(u, _)| *u == user)
    }

    /// Whether `user` has a queued leave.
    pub fn has_pending_leave(&self, user: UserId) -> bool {
        self.leaves.contains(&user)
    }

    /// Queue a join request. A repeated join for the same user replaces
    /// the queued individual key (the later request wins).
    pub fn enqueue_join(&mut self, user: UserId, individual_key: SymmetricKey) {
        if let Some(slot) = self.joins.iter_mut().find(|(u, _)| *u == user) {
            slot.1 = individual_key;
        } else {
            self.joins.push((user, individual_key));
        }
        self.obs.event(ObsEvent::EnqueueJoin { user: user.0 });
        self.queue_depth.set(self.pending() as i64);
    }

    /// Queue a leave request. Cancels a pending join for the same user
    /// (join-then-leave within one interval is a net no-op); a repeated
    /// leave is ignored.
    pub fn enqueue_leave(&mut self, user: UserId) {
        if let Some(pos) = self.joins.iter().position(|(u, _)| *u == user) {
            self.joins.remove(pos);
            self.collapsed_joins.inc();
            self.obs.event(ObsEvent::CollapsedJoin { user: user.0 });
            self.queue_depth.set(self.pending() as i64);
            return;
        }
        if self.leaves.contains(&user) {
            self.deduped_leaves.inc();
        } else {
            self.leaves.push(user);
        }
        self.obs.event(ObsEvent::EnqueueLeave { user: user.0 });
        self.queue_depth.set(self.pending() as i64);
    }

    /// Whether the queue should flush at `now_ms`.
    pub fn should_flush(&self, now_ms: u64) -> bool {
        let n = self.pending();
        n >= self.policy.max_pending
            || (n > 0 && now_ms.saturating_sub(self.last_flush_ms) >= self.policy.interval_ms)
    }

    /// Drain the queue as one interval, unconditionally. Returns `None`
    /// when nothing is pending (the empty interval is not counted).
    pub fn take(&mut self, now_ms: u64) -> Option<PendingBatch> {
        if self.pending() == 0 {
            self.last_flush_ms = now_ms;
            return None;
        }
        self.intervals_flushed += 1;
        self.last_flush_ms = now_ms;
        let batch = PendingBatch {
            interval: self.intervals_flushed,
            joins: std::mem::take(&mut self.joins),
            leaves: std::mem::take(&mut self.leaves),
        };
        self.obs.event(ObsEvent::Flush {
            interval: batch.interval,
            joins: batch.joins.len() as u64,
            leaves: batch.leaves.len() as u64,
        });
        self.queue_depth.set(0);
        Some(batch)
    }

    /// [`take`](Self::take) if [`should_flush`](Self::should_flush).
    pub fn poll(&mut self, now_ms: u64) -> Option<PendingBatch> {
        if self.should_flush(now_ms) {
            self.take(now_ms)
        } else {
            None
        }
    }

    // ------------------------------------------------------------------
    // Checkpointing (used by persistence layers)
    // ------------------------------------------------------------------

    /// The queued joins, in arrival order (checkpointing).
    pub fn pending_joins(&self) -> &[(UserId, SymmetricKey)] {
        &self.joins
    }

    /// The queued leaves, in arrival order (checkpointing).
    pub fn pending_leaves(&self) -> &[UserId] {
        &self.leaves
    }

    /// Start of the current interval (checkpointing).
    pub fn last_flush_ms(&self) -> u64 {
        self.last_flush_ms
    }

    /// Rebuild a scheduler from checkpointed state, continuing exactly
    /// where the original left off.
    pub fn restore(
        policy: BatchPolicy,
        joins: Vec<(UserId, SymmetricKey)>,
        leaves: Vec<UserId>,
        last_flush_ms: u64,
        intervals_flushed: u64,
    ) -> Self {
        BatchScheduler {
            policy,
            joins,
            leaves,
            last_flush_ms,
            intervals_flushed,
            ..BatchScheduler::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(b: u8) -> SymmetricKey {
        SymmetricKey::new(vec![b; 8])
    }

    #[test]
    fn flushes_on_interval_elapse() {
        let mut s = BatchScheduler::new(BatchPolicy { interval_ms: 100, max_pending: 10 }, 0);
        s.enqueue_join(UserId(1), key(1));
        assert!(s.poll(50).is_none());
        let batch = s.poll(100).expect("interval elapsed");
        assert_eq!(batch.interval, 1);
        assert_eq!(batch.joins.len(), 1);
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn flushes_early_on_queue_depth() {
        let mut s = BatchScheduler::new(BatchPolicy { interval_ms: 1_000, max_pending: 3 }, 0);
        s.enqueue_join(UserId(1), key(1));
        s.enqueue_leave(UserId(9));
        assert!(s.poll(1).is_none());
        s.enqueue_join(UserId(2), key(2));
        let batch = s.poll(1).expect("depth threshold hit");
        assert_eq!(batch.joins.len(), 2);
        assert_eq!(batch.leaves, vec![UserId(9)]);
    }

    #[test]
    fn empty_queue_never_flushes() {
        let mut s = BatchScheduler::new(BatchPolicy { interval_ms: 10, max_pending: 1 }, 0);
        assert!(!s.should_flush(1_000_000));
        assert!(s.poll(1_000_000).is_none());
        assert_eq!(s.intervals_flushed(), 0);
    }

    #[test]
    fn leave_cancels_pending_join() {
        let mut s = BatchScheduler::new(BatchPolicy::default(), 0);
        s.enqueue_join(UserId(7), key(7));
        s.enqueue_leave(UserId(7));
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn join_after_leave_is_kept_as_rejoin() {
        let mut s = BatchScheduler::new(BatchPolicy::default(), 0);
        s.enqueue_leave(UserId(7));
        s.enqueue_join(UserId(7), key(7));
        assert_eq!(s.pending(), 2);
        let batch = s.take(1).unwrap();
        assert_eq!(batch.joins.len(), 1);
        assert_eq!(batch.leaves.len(), 1);
    }

    #[test]
    fn repeated_join_replaces_key_and_repeated_leave_is_deduped() {
        let mut s = BatchScheduler::new(BatchPolicy::default(), 0);
        s.enqueue_join(UserId(1), key(1));
        s.enqueue_join(UserId(1), key(2));
        s.enqueue_leave(UserId(5));
        s.enqueue_leave(UserId(5));
        assert_eq!(s.pending(), 2);
        let batch = s.take(1).unwrap();
        assert_eq!(batch.joins, vec![(UserId(1), key(2))]);
        assert_eq!(batch.leaves, vec![UserId(5)]);
    }

    #[test]
    fn interval_counter_is_monotonic_and_skips_empty_flushes() {
        let mut s = BatchScheduler::new(BatchPolicy { interval_ms: 10, max_pending: 100 }, 0);
        s.enqueue_leave(UserId(1));
        assert_eq!(s.take(10).unwrap().interval, 1);
        assert!(s.take(20).is_none());
        s.enqueue_leave(UserId(2));
        assert_eq!(s.take(30).unwrap().interval, 2);
    }

    #[test]
    fn restore_continues_where_snapshot_left_off() {
        let policy = BatchPolicy { interval_ms: 100, max_pending: 10 };
        let mut original = BatchScheduler::new(policy, 0);
        original.enqueue_leave(UserId(1));
        original.take(40);
        original.enqueue_join(UserId(2), key(2));
        original.enqueue_leave(UserId(3));

        let mut restored = BatchScheduler::restore(
            original.policy(),
            original.pending_joins().to_vec(),
            original.pending_leaves().to_vec(),
            original.last_flush_ms(),
            original.intervals_flushed(),
        );
        assert_eq!(restored.pending(), original.pending());
        assert!(!restored.should_flush(100));
        let batch = restored.poll(140).expect("interval elapsed from restored clock");
        assert_eq!(batch.interval, 2);
        assert_eq!(batch.joins, vec![(UserId(2), key(2))]);
        assert_eq!(batch.leaves, vec![UserId(3)]);
    }

    #[test]
    fn take_resets_the_interval_clock() {
        let mut s = BatchScheduler::new(BatchPolicy { interval_ms: 100, max_pending: 10 }, 0);
        s.enqueue_leave(UserId(1));
        s.take(150);
        s.enqueue_leave(UserId(2));
        assert!(!s.should_flush(200));
        assert!(s.should_flush(250));
    }
}
