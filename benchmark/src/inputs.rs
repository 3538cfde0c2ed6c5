//! Inputs, generated from the seed before any timing starts. The program
//! under test only ever sees the generated keys and requests.
//!
//! The generator is the benchmark's own (SplitMix64), so the inputs a
//! seed stands for do not change when the repository's vendored `rand`
//! shim does.

/// SplitMix64: a full-period 64-bit generator, plenty for key streams.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, lane)`; lanes keep the per-worker vectors of
    /// one seed independent.
    pub fn new(seed: u64, lane: u64) -> Rng {
        let mut r = Rng(seed ^ lane.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; bias below 2^-32 for the ranges
    /// used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)` with 53 bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Key range of the `cia_*` workloads: small enough that the map stays
/// in cache, so the lock path is most of an operation.
pub const CIA_KEY_RANGE: u64 = 1 << 10;

/// Length of the cycled `cia_*` key stream.
pub const CIA_STREAM_LEN: usize = 1 << 18;

/// The `cia_*` key stream: uniform keys over [`CIA_KEY_RANGE`].
pub fn cia_keys(seed: u64) -> Vec<u32> {
    let mut rng = Rng::new(seed, 0xC1A);
    (0..CIA_STREAM_LEN)
        .map(|_| rng.below(CIA_KEY_RANGE) as u32)
        .collect()
}

/// Key popularity of a server workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KeyDist {
    Uniform,
    /// Zipfian with exponent `s` (rank 0 is the hottest key).
    Zipf(f64),
}

/// The shape of a server workload: how many `Map` shards, how many keys,
/// how they are drawn, and the request mix.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServerShape {
    pub shards: usize,
    /// Keys across all shards; key `k` is per-shard key `k / shards` of
    /// shard `k % shards`.
    pub keys: u64,
    pub dist: KeyDist,
    /// Percent of requests that are two-shard transfers.
    pub transfer_pct: u32,
    /// Percent that are scan+mutate; the rest are balance reads.
    pub scan_pct: u32,
}

/// `server_uniform`: no contention, so `interp` and data movement are
/// the cost.
pub const SERVER_UNIFORM: ServerShape = ServerShape {
    shards: 1024,
    keys: 1 << 16,
    dist: KeyDist::Uniform,
    transfer_pct: 40,
    scan_pct: 10,
};

/// `server_hot`: two shards and 64 Zipfian keys, so admission refusal,
/// park/wake, the watchdog and retry backoff do the work.
pub const SERVER_HOT: ServerShape = ServerShape {
    shards: 2,
    keys: 64,
    dist: KeyDist::Zipf(0.99),
    transfer_pct: 40,
    scan_pct: 20,
};

/// Requests in each worker's cycled vector.
pub const SERVER_VECTOR_LEN: usize = 1 << 18;

/// Which atomic section a request runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    Transfer,
    ScanMutate,
    Balance,
}

impl Kind {
    /// The section's name in the synthesized program.
    pub fn section(self) -> &'static str {
        match self {
            Kind::Transfer => "transfer",
            Kind::ScanMutate => "scan_mutate",
            Kind::Balance => "balance",
        }
    }
}

/// One pre-generated server request. `shard2`/`key2` are used by
/// transfers only.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Request {
    pub kind: Kind,
    pub shard1: u16,
    pub shard2: u16,
    pub key1: u32,
    pub key2: u32,
}

/// Sampler over `0..n` by inverse CDF.
struct KeySampler {
    n: u64,
    /// Empty for the uniform distribution.
    cdf: Vec<f64>,
}

impl KeySampler {
    fn new(n: u64, dist: KeyDist) -> KeySampler {
        let cdf = match dist {
            KeyDist::Uniform => Vec::new(),
            KeyDist::Zipf(s) => {
                let mut acc = 0.0;
                let mut cdf: Vec<f64> = (1..=n)
                    .map(|i| {
                        acc += 1.0 / (i as f64).powf(s);
                        acc
                    })
                    .collect();
                for c in &mut cdf {
                    *c /= acc;
                }
                cdf
            }
        };
        KeySampler { n, cdf }
    }

    fn sample(&self, rng: &mut Rng) -> u64 {
        if self.cdf.is_empty() {
            rng.below(self.n)
        } else {
            let u = rng.unit();
            (self.cdf.partition_point(|&c| c < u) as u64).min(self.n - 1)
        }
    }
}

/// Worker `worker`'s request vector for `seed`.
pub fn requests(seed: u64, worker: usize, shape: &ServerShape, len: usize) -> Vec<Request> {
    assert!(shape.shards >= 2 && shape.shards <= usize::from(u16::MAX));
    assert!(shape.keys >= shape.shards as u64 && shape.keys <= u64::from(u32::MAX));
    assert!(shape.transfer_pct + shape.scan_pct <= 100);
    let mut rng = Rng::new(seed, 0x5E7 + worker as u64);
    let sampler = KeySampler::new(shape.keys, shape.dist);
    let shards = shape.shards as u64;
    (0..len)
        .map(|_| {
            let mix = rng.below(100) as u32;
            let k1 = sampler.sample(&mut rng);
            let (s1, l1) = (k1 % shards, k1 / shards);
            let kind = if mix < shape.transfer_pct {
                Kind::Transfer
            } else if mix < shape.transfer_pct + shape.scan_pct {
                Kind::ScanMutate
            } else {
                Kind::Balance
            };
            let (mut s2, mut l2) = (0, 0);
            if kind == Kind::Transfer {
                // Distinct shards, so `src` and `dst` never alias. The
                // acquisition order stays the request's own: opposing
                // transfers really do cycle.
                let mut k2 = sampler.sample(&mut rng);
                if k2 % shards == s1 {
                    k2 = (k2 + 1) % shape.keys;
                }
                (s2, l2) = (k2 % shards, k2 / shards);
            }
            Request {
                kind,
                shard1: s1 as u16,
                shard2: s2 as u16,
                key1: l1 as u32,
                key2: l2 as u32,
            }
        })
        .collect()
}

/// FNV-1a over anything hashable to bytes here: the identity of a
/// generated input, printed with every run and compared in the tests.
pub fn fingerprint<T: std::hash::Hash>(items: &[T]) -> u64 {
    struct Fnv(u64);
    impl std::hash::Hasher for Fnv {
        fn finish(&self) -> u64 {
            self.0
        }
        fn write(&mut self, bytes: &[u8]) {
            for b in bytes {
                self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    for item in items {
        item.hash(&mut h);
    }
    std::hash::Hasher::finish(&h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_different_seed_different_inputs() {
        for shape in [SERVER_UNIFORM, SERVER_HOT] {
            let a = requests(7, 0, &shape, 4096);
            assert_eq!(fingerprint(&a), fingerprint(&requests(7, 0, &shape, 4096)));
            assert_ne!(fingerprint(&a), fingerprint(&requests(8, 0, &shape, 4096)));
            // Workers of one seed get independent vectors.
            assert_ne!(fingerprint(&a), fingerprint(&requests(7, 1, &shape, 4096)));
        }
        assert_eq!(fingerprint(&cia_keys(3)), fingerprint(&cia_keys(3)));
        assert_ne!(fingerprint(&cia_keys(3)), fingerprint(&cia_keys(4)));
    }

    #[test]
    fn requests_respect_the_shape() {
        for shape in [SERVER_UNIFORM, SERVER_HOT] {
            let reqs = requests(11, 0, &shape, 20_000);
            let per_shard = shape.keys.div_ceil(shape.shards as u64);
            let mut counts = [0usize; 3];
            for r in &reqs {
                assert!(usize::from(r.shard1) < shape.shards);
                assert!(u64::from(r.key1) < per_shard);
                if r.kind == Kind::Transfer {
                    assert_ne!(r.shard1, r.shard2, "transfer aliases its shards");
                    assert!(usize::from(r.shard2) < shape.shards);
                    assert!(u64::from(r.key2) < per_shard);
                }
                counts[match r.kind {
                    Kind::Transfer => 0,
                    Kind::ScanMutate => 1,
                    Kind::Balance => 2,
                }] += 1;
            }
            let share = |n: usize| 100.0 * n as f64 / reqs.len() as f64;
            assert!((share(counts[0]) - f64::from(shape.transfer_pct)).abs() < 2.0);
            assert!((share(counts[1]) - f64::from(shape.scan_pct)).abs() < 2.0);
        }
    }

    #[test]
    fn zipf_is_skewed_and_uniform_is_not() {
        let hot = requests(5, 0, &SERVER_HOT, 20_000);
        let rank0 = hot.iter().filter(|r| r.shard1 == 0 && r.key1 == 0).count();
        // Rank 0 carries ~21 % of the mass at s = 0.99 over 64 keys.
        assert!(rank0 > 3_000, "rank 0 drawn {rank0}/20000 times");
        let flat = requests(5, 0, &SERVER_UNIFORM, 20_000);
        let same = flat.iter().filter(|r| r.shard1 == 0 && r.key1 == 0).count();
        assert!(same < 5);
    }
}
