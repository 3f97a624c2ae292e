//! Seeded input generation. Everything a workload feeds the program comes
//! from here, so one `--seed` fixes every input byte.

/// SplitMix64: a small, fast generator whose output is fixed by its seed on
/// every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Generator for `seed` on the named `stream`, so independent consumers
    /// of one seed (reader, writer, fill) never share a sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(mix(seed ^ mix(stream.wrapping_add(0x5eed))))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 11) as u128 * n as u128) >> 53) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The SplitMix64 finaliser: a bijective 64-bit hash.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `n` finite, exactly representable STREAM operands in `[1, 2)`.
pub fn vector(seed: u64, stream: u64, n: usize) -> Vec<f64> {
    let mut rng = Rng::new(seed, stream);
    (0..n).map(|_| 1.0 + rng.unit()).collect()
}

/// Shuffle `v` in place (Fisher-Yates).
pub fn shuffle<T>(v: &mut [T], rng: &mut Rng) {
    for k in (1..v.len()).rev() {
        v.swap(k, rng.below(k + 1));
    }
}

/// A Zipf(`s`) distribution over ranked items: the item at index `r` of
/// the ranking is drawn with probability proportional to `(r + 1)^-s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    item: Vec<usize>,
}

impl Zipf {
    /// Distribution over `ranking` (hottest first) with exponent `s`.
    pub fn new(ranking: Vec<usize>, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=ranking.len())
            .map(|r| {
                acc += (r as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf, item: ranking }
    }

    /// Draw one item.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.item[rank]
    }
}
