//! The latency recorder's quantiles stay within its error bound of the
//! exact (sorted) quantiles, and merging per-thread recorders loses nothing.

use prcc_perfbench::hist::Histogram;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Relative error the recorder promises above 128 (its buckets there are
/// < 0.8 % wide).
const BOUND: f64 = 0.01;

fn exact(sorted: &[u64], q: f64) -> f64 {
    sorted[(q * (sorted.len() - 1) as f64).round() as usize] as f64
}

fn check(samples: &[u64]) {
    let mut h = Histogram::default();
    for &v in samples {
        h.record(v);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    assert_eq!(h.count(), samples.len() as u64);
    assert_eq!(h.max(), *sorted.last().unwrap());
    for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
        let (want, got) = (exact(&sorted, q), h.quantile(q));
        // Below 128 the buckets are 1 wide: the error is under 1 (ns).
        let err = (got - want).abs();
        assert!(
            err <= (BOUND * want).max(1.0),
            "q={q}: exact {want}, histogram {got}"
        );
    }
}

#[test]
fn quantiles_match_sorting_on_log_uniform_samples() {
    let mut rng = StdRng::seed_from_u64(7);
    let samples: Vec<u64> = (0..200_000)
        .map(|_| 10f64.powf(1.0 + 8.0 * rng.gen::<f64>()) as u64)
        .collect();
    check(&samples);
}

#[test]
fn quantiles_match_sorting_on_a_narrow_heavy_tailed_mix() {
    let mut rng = StdRng::seed_from_u64(8);
    let samples: Vec<u64> = (0..100_000)
        .map(|_| {
            if rng.gen_bool(0.95) {
                rng.gen_range(900..1_100)
            } else {
                rng.gen_range(50_000..5_000_000)
            }
        })
        .collect();
    check(&samples);
}

#[test]
fn small_values_are_exact() {
    let samples: Vec<u64> = (0..100).collect();
    check(&samples);
    let mut h = Histogram::default();
    for v in &samples {
        h.record(*v);
    }
    assert!((h.quantile(0.5) - 49.5).abs() <= 1.0);
}

#[test]
fn merging_equals_recording_everything_in_one() {
    let mut rng = StdRng::seed_from_u64(9);
    let (mut a, mut b, mut all) = (
        Histogram::default(),
        Histogram::default(),
        Histogram::default(),
    );
    for i in 0..50_000u64 {
        let v = rng.gen_range(1..10_000_000);
        if i % 3 == 0 {
            a.record(v)
        } else {
            b.record(v)
        }
        all.record(v);
    }
    a.merge(&b);
    assert_eq!(a.count(), all.count());
    assert_eq!(a.max(), all.max());
    for q in [0.5, 0.9, 0.99] {
        assert_eq!(a.quantile(q), all.quantile(q));
    }
}

#[test]
fn empty_histogram_reads_zero() {
    let h = Histogram::default();
    assert_eq!(h.quantile(0.5), 0.0);
    assert_eq!(h.count(), 0);
}
