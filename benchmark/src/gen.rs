//! Workload generation: the PRNG, the key distributions and the
//! self-certifying payloads.  Everything here is a pure function of the
//! `--seed`, so the same seed gives the same inputs; the program under test
//! only ever sees what this module produced.

/// xorshift64* — small, fast, and good enough for load generation.
#[derive(Debug, Clone)]
pub struct Xorshift(u64);

impl Xorshift {
    /// Seeds through one splitmix64 step so that nearby seeds (1, 2, 3…)
    /// give unrelated streams and a zero seed cannot stick at zero.
    pub fn new(seed: u64) -> Self {
        Self(mix(seed) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (`n` at most 2^32; multiply-shift, no modulo bias
    /// worth caring about at these sizes).
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0 && n <= 1 << 32);
        ((self.next_u64() >> 32) * n) >> 32
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// splitmix64 finalizer: the one mixing function behind seeding and
/// payload derivation.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The YCSB zipfian generator (Gray et al., "Quickly generating
/// billion-record synthetic databases"): rank 0 is the hottest.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Self {
        let zeta = |count: u64| (1..=count).map(|i| (i as f64).powf(-theta)).sum::<f64>();
        let zetan = zeta(n);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan);
        Self {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta,
        }
    }

    /// Maps a uniform `u` in `[0, 1)` to a rank in `0..n`.
    pub fn rank(&self, u: f64) -> u64 {
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

/// How a workload picks keys out of its dense `0..n` key space.
#[derive(Debug, Clone)]
pub enum KeyDist {
    Uniform(u64),
    /// Zipfian over ranks, with ranks scattered over the key space by an odd
    /// multiplier (a bijection because `n` is a power of two) so that hot
    /// keys are not neighbours in the ordered index.
    Zipf(Zipf),
}

impl KeyDist {
    pub fn new(n: u64, zipfian: bool) -> Self {
        assert!(n.is_power_of_two(), "key spaces are powers of two");
        if zipfian {
            KeyDist::Zipf(Zipf::new(n, 0.99))
        } else {
            KeyDist::Uniform(n)
        }
    }

    pub fn key(&self, rng: &mut Xorshift) -> u64 {
        match self {
            KeyDist::Uniform(n) => rng.below(*n),
            KeyDist::Zipf(z) => z.rank(rng.unit()).wrapping_mul(0x9E37_79B1) & (z.n - 1),
        }
    }
}

/// Self-certifying payloads.
///
/// A payload is a deterministic function of `(key, nonce, len)` that embeds
/// its nonce, so a reader holding only the key can tell whether the bytes it
/// got back are *some* value that was legitimately written for that key —
/// torn, truncated, misrouted or stale-pointer reads all fail the check —
/// without the benchmark having to track which write came last.  The
/// expected length is the workload's fixed value size.
///
/// Layout, for `len >= 16`: bytes `0..8` are the nonce, then 8-byte words
/// `base + i * STEP` (truncated at `len`), with `base = mix(key ^ mix(nonce))`.
/// For `len < 16` (the 8-byte inline values): 4 bytes of nonce, then the low
/// bytes of `mix(key ^ mix(nonce32))`.
pub mod payload {
    use super::mix;

    const STEP: u64 = 0x9E37_79B9_7F4A_7C15;

    pub fn fill(key: u64, nonce: u64, buf: &mut [u8]) {
        if buf.len() < 16 {
            let nonce = nonce & 0xFFFF_FFFF;
            let check = mix(key ^ mix(nonce)).to_le_bytes();
            let head = buf.len().min(4);
            buf[..head].copy_from_slice(&nonce.to_le_bytes()[..head]);
            let tail = buf.len() - head;
            buf[head..].copy_from_slice(&check[..tail]);
            return;
        }
        buf[..8].copy_from_slice(&nonce.to_le_bytes());
        let base = mix(key ^ mix(nonce));
        for (i, chunk) in buf[8..].chunks_mut(8).enumerate() {
            let word = base
                .wrapping_add((i as u64).wrapping_mul(STEP))
                .to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }

    /// Whether `bytes` is a payload of exactly `len` bytes written for `key`.
    pub fn valid(key: u64, len: usize, bytes: &[u8]) -> bool {
        if bytes.len() != len || len < 5 {
            return false;
        }
        if len < 16 {
            let mut nonce = [0u8; 8];
            nonce[..4].copy_from_slice(&bytes[..4]);
            let check = mix(key ^ mix(u64::from_le_bytes(nonce))).to_le_bytes();
            return bytes[4..] == check[..bytes.len() - 4];
        }
        let nonce = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
        let base = mix(key ^ mix(nonce));
        bytes[8..].chunks(8).enumerate().all(|(i, chunk)| {
            let word = base
                .wrapping_add((i as u64).wrapping_mul(STEP))
                .to_le_bytes();
            chunk == &word[..chunk.len()]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_seeds_differ() {
        let draw = |seed| {
            let mut rng = Xorshift::new(seed);
            (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        assert_ne!(draw(0), vec![0; 8]);
    }

    #[test]
    fn below_and_unit_stay_in_range() {
        let mut rng = Xorshift::new(3);
        for _ in 0..10_000 {
            assert!(rng.below(10) < 10);
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn zipfian_is_skewed_and_deterministic_per_seed() {
        let n = 1 << 16;
        let dist = KeyDist::new(n, true);
        let sample = |seed| {
            let mut rng = Xorshift::new(seed);
            (0..200_000).map(|_| dist.key(&mut rng)).collect::<Vec<_>>()
        };
        let a = sample(11);
        assert_eq!(a, sample(11), "same seed, same keys");
        assert_ne!(a, sample(12));
        assert!(a.iter().all(|&k| k < n));
        let mut counts = std::collections::HashMap::new();
        for &k in &a {
            *counts.entry(k).or_insert(0u32) += 1;
        }
        let mut freq: Vec<u32> = counts.into_values().collect();
        freq.sort_unstable_by(|x, y| y.cmp(x));
        // theta = 0.99 over 65 536 keys: the hottest key draws ~8.5% of the
        // traffic and the top 1% of keys well over half; uniform would give
        // 0.0015% and 1%.
        let hottest = freq[0] as f64 / a.len() as f64;
        assert!((0.06..0.11).contains(&hottest), "hottest share {hottest}");
        let top: u32 = freq.iter().take(n as usize / 100).sum();
        assert!(top as f64 / a.len() as f64 > 0.5);
    }

    #[test]
    fn zipf_rank_covers_the_range_ends() {
        let z = Zipf::new(1024, 0.99);
        assert_eq!(z.rank(0.0), 0);
        assert!(z.rank(0.999_999_999) < 1024);
        assert!(z.rank(0.999_999_999) > 900);
    }

    #[test]
    fn payloads_certify_themselves() {
        for len in [8usize, 16, 100, 256, 512] {
            let mut buf = vec![0u8; len];
            payload::fill(42, 7, &mut buf);
            assert!(payload::valid(42, len, &buf), "len {len}");
            assert!(!payload::valid(43, len, &buf), "wrong key, len {len}");
            for at in [0, len / 2, len - 1] {
                let mut torn = buf.clone();
                torn[at] ^= 0x10;
                assert!(!payload::valid(42, len, &torn), "flip at {at}, len {len}");
            }
            assert!(
                !payload::valid(42, len, &buf[..len - 1]),
                "truncated, len {len}"
            );
            let mut other = vec![0u8; len];
            payload::fill(42, 8, &mut other);
            assert_ne!(buf, other, "nonce changes the bytes");
            assert!(payload::valid(42, len, &other));
        }
    }
}
