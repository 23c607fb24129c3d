//! Seeded request generator. The benchmark carries its own so that a later
//! change to `kg_bench::workload` cannot alter what is measured.

/// splitmix64: small, seedable, and good enough to pick leave targets.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`; the modulo bias at n ≤ 2^16 is below 2^-48.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    Join(u64),
    Leave(u64),
}

/// The paper's 1:1 join/leave churn over a group that starts with users
/// `1..=n`. Joins and leaves come in pairs whose order is drawn at random,
/// so the group size stays within one of `n` for any run length — a
/// time-bounded run must not drift to a different n on a faster host.
#[derive(Debug, Clone)]
pub struct Churn {
    rng: Rng,
    members: Vec<u64>,
    next_user: u64,
    /// Second half of the current pair, if the first was already issued.
    second_is_join: Option<bool>,
}

impl Churn {
    pub fn new(seed: u64, n: usize) -> Self {
        Churn {
            rng: Rng::new(seed),
            members: (1..=n as u64).collect(),
            next_user: n as u64 + 1,
            second_is_join: None,
        }
    }

    pub fn members(&self) -> &[u64] {
        &self.members
    }

    fn join(&mut self) -> Request {
        let user = self.next_user;
        self.next_user += 1;
        self.members.push(user);
        Request::Join(user)
    }

    /// Leaves are uniform over the members present when the leave is issued.
    fn leave(&mut self) -> Request {
        let at = self.rng.below(self.members.len());
        Request::Leave(self.members.swap_remove(at))
    }

    /// The next per-op request.
    pub fn next_request(&mut self) -> Request {
        let is_join = match self.second_is_join.take() {
            Some(kind) => kind,
            None => {
                let first_is_join = self.rng.next_u64() & 1 == 1;
                self.second_is_join = Some(!first_is_join);
                first_is_join
            }
        };
        if is_join {
            self.join()
        } else {
            self.leave()
        }
    }

    /// One batch interval of `pairs` leaves and `pairs` joins. Leaves target
    /// distinct members admitted before this interval: a member whose join
    /// is still queued holds no grant to authenticate a leave with.
    pub fn interval(&mut self, pairs: usize) -> Vec<Request> {
        let mut out = Vec::with_capacity(2 * pairs);
        for _ in 0..pairs {
            out.push(self.leave());
        }
        for _ in 0..pairs {
            out.push(self.join());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn same_seed_same_sequence_and_other_seed_differs() {
        let take = |seed| {
            let mut c = Churn::new(seed, 64);
            (0..500).map(|_| c.next_request()).collect::<Vec<_>>()
        };
        assert_eq!(take(101), take(101));
        assert_ne!(take(101), take(202));
        let mut a = Churn::new(7, 64);
        let mut b = Churn::new(7, 64);
        assert_eq!(a.interval(8), b.interval(8));
    }

    #[test]
    fn leaves_target_current_members_and_size_stays_pinned() {
        let mut c = Churn::new(101, 32);
        let mut present: BTreeSet<u64> = (1..=32).collect();
        for _ in 0..2000 {
            match c.next_request() {
                Request::Join(u) => assert!(present.insert(u), "join of a present member"),
                Request::Leave(u) => assert!(present.remove(&u), "leave of an absent member"),
            }
            assert!((31..=33).contains(&present.len()));
            assert_eq!(present, c.members().iter().copied().collect());
        }
    }

    #[test]
    fn interval_leaves_are_distinct_members_from_before_the_interval() {
        let mut c = Churn::new(3, 40);
        for _ in 0..50 {
            let before: BTreeSet<u64> = c.members().iter().copied().collect();
            let reqs = c.interval(8);
            let leaves: BTreeSet<u64> = reqs
                .iter()
                .filter_map(|r| match r {
                    Request::Leave(u) => Some(*u),
                    Request::Join(_) => None,
                })
                .collect();
            assert_eq!(leaves.len(), 8);
            assert!(leaves.is_subset(&before));
            assert_eq!(c.members().len(), 40);
        }
    }
}
