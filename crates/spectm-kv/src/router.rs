//! The shard router: key -> shard assignment.
//!
//! The router owns nothing but a mask; it exists as its own type so the
//! assignment function has a single definition shared by the store, the
//! tests and any future placement-aware client (e.g. one that batches
//! operations per shard before dispatching them).

/// Routes keys to one of a power-of-two number of shards.
///
/// The mixing function is a multiply by an odd constant followed by taking
/// the *top* bits — deliberately different from the Fibonacci hash the
/// bucket chains use (multiply + low-ish bits), so a key's shard index and
/// its bucket index within the shard are decorrelated and a pathological key
/// set cannot alias both at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    mask: u64,
}

impl ShardRouter {
    /// Creates a router over `shards` shards (rounded up to a power of two,
    /// minimum one).
    pub fn new(shards: usize) -> Self {
        let n = shards.next_power_of_two().max(1);
        Self { mask: n as u64 - 1 }
    }

    /// Number of shards routed to.
    pub fn shard_count(&self) -> usize {
        (self.mask + 1) as usize
    }

    /// The shard owning `key`; always less than [`ShardRouter::shard_count`].
    #[inline]
    pub fn route(&self, key: u64) -> usize {
        ((key.wrapping_mul(0xA24B_AED4_963E_E407) >> 32) & self.mask) as usize
    }

    /// Reference grouping shape, kept only as a test oracle for
    /// [`ShardRouter::group_runs_into`]: partitions the positions of `keys`
    /// into per-shard groups, where group `s` holds the indexes `i` (in
    /// ascending order) whose `keys[i]` routes to shard `s`.  Every input
    /// position appears in exactly one group — duplicates included, since
    /// positions rather than keys are grouped — so the concatenation of
    /// the groups is a permutation of `0..keys.len()`.  Production
    /// grouping (the batched dispatch path) uses `group_runs_into`
    /// exclusively.
    #[cfg(test)]
    fn group_indices(&self, keys: impl IntoIterator<Item = u64>) -> Vec<Vec<usize>> {
        let mut groups: Vec<Vec<usize>> = (0..self.shard_count()).map(|_| Vec::new()).collect();
        for (i, key) in keys.into_iter().enumerate() {
            groups[self.route(key)].push(i);
        }
        groups
    }

    /// [`ShardRouter::group_runs_into`] into fresh buffers, for the tests.
    #[cfg(test)]
    fn group_runs(&self, keys: impl Iterator<Item = u64> + Clone) -> (Vec<usize>, Vec<usize>) {
        let mut order = Vec::new();
        let mut bounds = Vec::new();
        self.group_runs_into(keys, &mut order, &mut bounds);
        (order, bounds)
    }

    /// Partitions the positions of `keys` into per-shard runs: a counting
    /// sort producing `(order, bounds)` where shard `s`'s group is
    /// `order[start..bounds[s]]` with `start = if s == 0 { 0 } else
    /// { bounds[s - 1] }` — the positions `i` (ascending) whose `keys[i]`
    /// route to shard `s`; every position appears exactly once, duplicates
    /// included, so `order` is a permutation of `0..len`.  `keys` is
    /// consumed twice, so it must be cheaply cloneable.  The buffers are
    /// the caller's (cleared first), so a batch loop reusing them performs
    /// **zero** allocations per grouping — allocation is the dominant cost
    /// of grouping small batches, and `ShardedKv::execute_batch` runs this
    /// once per batch.
    pub fn group_runs_into(
        &self,
        keys: impl Iterator<Item = u64> + Clone,
        order: &mut Vec<usize>,
        bounds: &mut Vec<usize>,
    ) {
        // Pass 1: count positions per shard.
        bounds.clear();
        bounds.resize(self.shard_count(), 0);
        let mut n = 0usize;
        for key in keys.clone() {
            bounds[self.route(key)] += 1;
            n += 1;
        }
        // Exclusive prefix sum: `bounds[s]` is now the start of run `s`.
        let mut start = 0usize;
        for b in bounds.iter_mut() {
            let count = *b;
            *b = start;
            start += count;
        }
        // Pass 2: place each position at its run's cursor.  Each placement
        // advances the cursor, so when the loop finishes `bounds[s]` has
        // become the exclusive *end* of run `s`.
        order.clear();
        order.resize(n, 0);
        for (i, key) in keys.enumerate() {
            let s = self.route(key);
            order[bounds[s]] = i;
            bounds[s] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rounds_up_to_power_of_two() {
        assert_eq!(ShardRouter::new(0).shard_count(), 1);
        assert_eq!(ShardRouter::new(1).shard_count(), 1);
        assert_eq!(ShardRouter::new(3).shard_count(), 4);
        assert_eq!(ShardRouter::new(8).shard_count(), 8);
        assert_eq!(ShardRouter::new(9).shard_count(), 16);
    }

    #[test]
    fn single_shard_routes_everything_to_zero() {
        let r = ShardRouter::new(1);
        for key in [0u64, 1, 17, u64::MAX] {
            assert_eq!(r.route(key), 0);
        }
    }

    /// Gray-method zipfian rank sampler (the YCSB draw), self-contained so
    /// the router crate needs no harness dependency.
    struct Zipf {
        n: u64,
        theta: f64,
        alpha: f64,
        zetan: f64,
        eta: f64,
    }

    impl Zipf {
        fn new(n: u64, theta: f64) -> Self {
            let zetan: f64 = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
            let zeta2 = 1.0 + 0.5f64.powf(theta);
            Self {
                n,
                theta,
                alpha: 1.0 / (1.0 - theta),
                zetan,
                eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
            }
        }

        fn sample(&self, u: f64) -> u64 {
            let uz = u * self.zetan;
            if uz < 1.0 {
                return 0;
            }
            if uz < 1.0 + 0.5f64.powf(self.theta) {
                return 1;
            }
            let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
            rank.min(self.n - 1)
        }
    }

    /// Guards the multiplicative-hash constant in [`ShardRouter::route`]:
    /// one million sequential keys (the YCSB loader's key space) and one
    /// million scrambled-zipfian draws (its runtime skew) must both spread
    /// across 16 shards within a sane bound of the uniform fair share.
    #[test]
    fn million_key_loads_stay_near_uniform() {
        const SHARDS: usize = 16;
        const DRAWS: u64 = 1_000_000;
        let router = ShardRouter::new(SHARDS);
        let fair = (DRAWS as usize) / SHARDS;

        // Sequential keys: the loader inserts 0..n densely, so any aliasing
        // between the hash constant and small strides would starve shards.
        let mut counts = [0usize; SHARDS];
        for key in 0..DRAWS {
            counts[router.route(key)] += 1;
        }
        for (shard, &c) in counts.iter().enumerate() {
            assert!(
                c > fair / 2 && c < fair * 2,
                "sequential: shard {shard} got {c} of {DRAWS} (fair {fair})"
            );
        }

        // Scrambled zipfian (theta 0.99, the YCSB default): the hottest
        // single key carries ~6.5% of all draws by itself, so the shard it
        // lands on legitimately exceeds the 6.25% fair share — but no shard
        // may collect a pile-up of hot keys beyond a small multiple of it.
        let zipf = Zipf::new(DRAWS, 0.99);
        let mut counts = [0usize; SHARDS];
        let mut state = 0x9E37_79B9_97F4_A7C1u64;
        for _ in 0..DRAWS {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            let key = zipf.sample(u).wrapping_mul(0x9E37_79B9_7F4A_7C15) % DRAWS;
            counts[router.route(key)] += 1;
        }
        for (shard, &c) in counts.iter().enumerate() {
            assert!(
                c < fair * 4,
                "zipfian: shard {shard} got {c} of {DRAWS} (fair {fair})"
            );
        }
        assert!(
            counts.iter().all(|&c| c > 0),
            "zipfian draws left a shard idle"
        );
    }

    proptest! {
        #[test]
        fn route_is_always_in_range(key in 0u64..u64::MAX, shards in 1usize..64) {
            let r = ShardRouter::new(shards);
            prop_assert!(r.route(key) < r.shard_count());
        }

        #[test]
        fn route_is_deterministic(key in 0u64..u64::MAX, shards in 1usize..64) {
            let r = ShardRouter::new(shards);
            prop_assert_eq!(r.route(key), r.route(key));
        }

        #[test]
        fn dense_key_ranges_cover_every_shard(base in 0u64..1_000_000) {
            // A production store must not leave shards idle under the dense,
            // mostly-sequential key spaces the YCSB-style loader produces.
            let r = ShardRouter::new(8);
            let mut hit = [false; 8];
            for key in base..base + 4_096 {
                hit[r.route(key)] = true;
            }
            prop_assert!(hit.iter().all(|&h| h), "unused shard for base {}", base);
        }

        /// The test-only `group_indices` reference must itself be a valid
        /// partition of the input *positions* — no drops, no duplicates —
        /// for every power-of-two shard count, even when the key list
        /// repeats keys; it is the oracle `group_runs_into` is held to below.
        #[test]
        fn grouping_is_a_permutation_of_the_batch(
            keys in proptest::collection::vec(0u64..64, 0..200),
            shards_log2 in 0u32..7,
        ) {
            let r = ShardRouter::new(1usize << shards_log2);
            let groups = r.group_indices(keys.iter().copied());
            prop_assert_eq!(groups.len(), r.shard_count());
            // Each group holds ascending positions that route to it.
            for (shard, group) in groups.iter().enumerate() {
                prop_assert!(group.windows(2).all(|w| w[0] < w[1]));
                for &i in group {
                    prop_assert_eq!(r.route(keys[i]), shard);
                }
            }
            // Concatenated, the groups are a permutation of 0..len.
            let mut flat: Vec<usize> = groups.into_iter().flatten().collect();
            flat.sort_unstable();
            prop_assert_eq!(flat, (0..keys.len()).collect::<Vec<_>>());
        }

        /// The batched dispatch contract: `group_runs_into` — the only
        /// production grouping path — must agree with the reference
        /// `group_indices` shape exactly: same runs, same order.
        #[test]
        fn flat_runs_agree_with_grouped_indices(
            keys in proptest::collection::vec(0u64..64, 0..200),
            shards_log2 in 0u32..7,
        ) {
            let r = ShardRouter::new(1usize << shards_log2);
            let groups = r.group_indices(keys.iter().copied());
            let (order, ends) = r.group_runs(keys.iter().copied());
            prop_assert_eq!(ends.len(), r.shard_count());
            prop_assert_eq!(order.len(), keys.len());
            let mut start = 0usize;
            for (s, &end) in ends.iter().enumerate() {
                prop_assert_eq!(&order[start..end], groups[s].as_slice());
                start = end;
            }
            prop_assert_eq!(start, keys.len());
        }

        #[test]
        fn load_is_roughly_balanced(seed in 1u64..u64::MAX) {
            // Xorshift-scattered keys should land near-uniformly: no shard
            // more than 2x the fair share over 8k draws.
            let r = ShardRouter::new(16);
            let mut counts = [0u32; 16];
            let mut s = seed | 1;
            for _ in 0..8_192 {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                counts[r.route(s)] += 1;
            }
            let fair = 8_192 / 16;
            for (i, &c) in counts.iter().enumerate() {
                prop_assert!(c < 2 * fair, "shard {} got {} of {}", i, c, 8_192);
            }
        }
    }
}
