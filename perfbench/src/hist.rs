//! A fixed-memory, log-bucketed latency histogram (HDR-style).
//!
//! Values below `SUB` get a bucket each; above, every power of two is
//! split into `SUB` equal-width buckets, so a bucket's width is at most
//! `1/SUB` (< 0.8 %) of any value in it. Quantiles interpolate linearly
//! inside the bucket that holds the requested rank. Memory is one fixed
//! array whatever the number of samples, so recording never moves the
//! benchmark's own resident set.

/// Sub-buckets per power of two: the relative-error knob.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Exact buckets `0..SUB`, then `SUB` buckets for each exponent `SUB_BITS..64`.
const BUCKETS: usize = (SUB + (64 - SUB_BITS as u64) * SUB) as usize;

/// Log-bucketed histogram of `u64` samples (nanoseconds, by convention).
#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: Box::new([0; BUCKETS]),
            total: 0,
            max: 0,
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.total)
            .field("max", &self.max)
            .finish()
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // >= SUB_BITS
    let shift = exp - SUB_BITS;
    let sub = (v >> shift) - SUB;
    (SUB + u64::from(shift) * SUB + sub) as usize
}

/// `(lower bound, width)` of bucket `i`.
fn bucket_range(i: usize) -> (f64, f64) {
    let i = i as u64;
    if i < SUB {
        return (i as f64, 1.0);
    }
    let shift = (i - SUB) / SUB;
    let sub = (i - SUB) % SUB;
    (((SUB + sub) << shift) as f64, (1u64 << shift) as f64)
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
        self.max = self.max.max(v);
    }

    /// Folds another histogram (e.g. another load thread's) into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`): the sample of 0-based rank
    /// `q · (count − 1)`, placed inside its bucket as if the bucket's
    /// samples were spread evenly over it; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.total - 1) as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if rank < (below + c) as f64 {
                let (lo, width) = bucket_range(i);
                let within = (rank - below as f64 + 0.5) / c as f64;
                return (lo + within * width).min(self.max as f64);
            }
            below += c;
        }
        self.max as f64
    }

    /// Number of samples strictly above the `q`-quantile — how many
    /// samples a tail percentile rests on.
    pub fn beyond(&self, q: f64) -> u64 {
        self.total - (q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range() {
        let mut prev_end = 0.0;
        for i in 0..BUCKETS {
            let (lo, w) = bucket_range(i);
            assert_eq!(lo, prev_end, "bucket {i}");
            prev_end = lo + w;
        }
        for v in [
            0,
            1,
            127,
            128,
            129,
            255,
            256,
            1 << 20,
            (1 << 40) + 3,
            1 << 62,
        ] {
            let (lo, w) = bucket_range(bucket_of(v));
            assert!(lo <= v as f64 && (v as f64) < lo + w, "{v}");
        }
    }
}
