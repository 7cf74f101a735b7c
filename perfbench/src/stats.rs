//! Timing summaries: a median plus the highest percentile that still has
//! at least [`MIN_BEYOND`] samples above it, always with the sample count.
//! A percentile without that support is reported as missing, never as a
//! number — a p99 over 300 samples is one sample, not a tail.

/// Samples that must lie strictly above a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried from the top, in per-mille (999 = p99.9).
const LADDER_PER_MILLE: [u32; 4] = [999, 990, 950, 900];

/// Sorted samples of one timing.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    sorted: Vec<f64>,
    /// Observations the samples were drawn from (≥ the sample count).
    seen: u64,
}

impl Summary {
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        let seen = samples.len() as u64;
        Summary {
            sorted: samples,
            seen,
        }
    }

    /// Samples the percentiles are computed from.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// Observations made, sampled or not.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Nearest-rank index of the `per_mille` percentile, or `None` when
    /// fewer than [`MIN_BEYOND`] samples lie above it.
    fn rank(&self, per_mille: u32) -> Option<usize> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        let idx = (per_mille as usize * n).div_ceil(1000).max(1) - 1;
        (n - 1 - idx >= MIN_BEYOND).then_some(idx)
    }

    /// The median (nearest rank); `None` only without samples.
    pub fn median(&self) -> Option<f64> {
        let n = self.sorted.len();
        (n > 0).then(|| self.sorted[(500 * n).div_ceil(1000).max(1) - 1])
    }

    /// The `per_mille` percentile, if enough samples lie beyond it.
    pub fn per_mille(&self, per_mille: u32) -> Option<f64> {
        self.rank(per_mille).map(|i| self.sorted[i])
    }

    /// The highest of p99.9 / p99 / p95 / p90 that the samples support,
    /// as `(per_mille, value)`.
    pub fn tail(&self) -> Option<(u32, f64)> {
        LADDER_PER_MILLE
            .iter()
            .find_map(|&pm| self.per_mille(pm).map(|v| (pm, v)))
    }
}

/// `p99.9`, `p99`, `p95` … for a per-mille rank.
pub fn label(per_mille: u32) -> String {
    if per_mille.is_multiple_of(10) {
        format!("p{}", per_mille / 10)
    } else {
        format!("p{}.{}", per_mille / 10, per_mille % 10)
    }
}

/// One report line for a timing: `median`, the supported tail and `n`.
pub fn describe(s: &Summary, unit: &str) -> String {
    let Some(med) = s.median() else {
        return "no samples".to_string();
    };
    let tail = match s.tail() {
        Some((pm, v)) => format!("{} {v:.3}{unit}", label(pm)),
        None => format!("no tail (needs >{MIN_BEYOND} samples above p90)"),
    };
    if s.seen() > s.count() as u64 {
        format!(
            "p50 {med:.3}{unit}, {tail}, n={} (uniform sample of {})",
            s.count(),
            s.seen()
        )
    } else {
        format!("p50 {med:.3}{unit}, {tail}, n={}", s.count())
    }
}

/// A uniform sample of at most `capacity` observations (Vitter's
/// algorithm R), so a run's memory does not grow with the number of
/// queries it completes — peak RSS is itself a reported metric.
#[derive(Clone, Debug)]
pub struct Reservoir {
    samples: Vec<f64>,
    capacity: usize,
    seen: u64,
    rng: u64,
}

impl Default for Reservoir {
    fn default() -> Self {
        Reservoir::with_capacity(Self::CAPACITY)
    }
}

impl Reservoir {
    /// The default capacity.
    pub const CAPACITY: usize = 1 << 16;

    pub fn with_capacity(capacity: usize) -> Self {
        Reservoir {
            samples: Vec::new(),
            capacity,
            seen: 0,
            rng: 0x9E37_79B9_7F4A_7C15,
        }
    }

    pub fn push(&mut self, v: f64) {
        self.seen += 1;
        if self.samples.len() < self.capacity {
            self.samples.push(v);
            return;
        }
        let j = self.next() % self.seen;
        if j < self.capacity as u64 {
            self.samples[j as usize] = v;
        }
    }

    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// splitmix64: deterministic, dependency-free.
    fn next(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The pooled samples of `parts` (one per client). Clients of a
    /// workload run the same loop, so their streams are pooled unweighted.
    pub fn summary<'a>(parts: impl IntoIterator<Item = &'a Reservoir>) -> Summary {
        let mut samples = Vec::new();
        let mut seen = 0;
        for r in parts {
            samples.extend_from_slice(&r.samples);
            seen += r.seen;
        }
        let mut s = Summary::new(samples);
        s.seen = seen;
        s
    }
}
