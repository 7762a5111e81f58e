//! Minimal wall-clock micro-benchmark harness for the `benches/` targets.
//!
//! Each bench target is a plain `fn main()` (`harness = false`) that calls
//! [`bench()`] per case. The harness warms the case up, auto-scales the
//! batch size to a ~25 ms measurement window, repeats a few batches, and
//! reports the best (least-noisy) per-iteration time.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Target duration of one measured batch.
const TARGET_BATCH: Duration = Duration::from_millis(25);
/// Number of measured batches; the minimum is reported.
const BATCHES: usize = 5;

/// Times `f`, printing `label` and the best observed per-iteration time.
///
/// The closure's result is passed through [`black_box`] so the work is not
/// optimized away. Returns the best per-iteration time in nanoseconds.
pub fn bench<R>(label: &str, mut f: impl FnMut() -> R) -> f64 {
    // Warm up and size the batch.
    let mut iters: u64 = 1;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let elapsed = t.elapsed();
        if elapsed >= TARGET_BATCH || iters >= 1 << 24 {
            break;
        }
        // Grow toward the target window without overshooting wildly.
        let grow = if elapsed < TARGET_BATCH / 16 { 8 } else { 2 };
        iters = iters.saturating_mul(grow);
    }

    let mut best = f64::INFINITY;
    for _ in 0..BATCHES {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let per_iter = t.elapsed().as_nanos() as f64 / iters as f64;
        if per_iter < best {
            best = per_iter;
        }
    }
    println!(
        "{label:<40} {:>12} /iter  ({iters} iters/batch)",
        fmt_ns(best)
    );
    best
}

/// Formats a nanosecond count with an adaptive unit.
#[must_use]
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_ns_picks_units() {
        assert_eq!(fmt_ns(12.3), "12.3 ns");
        assert_eq!(fmt_ns(12_300.0), "12.30 µs");
        assert_eq!(fmt_ns(12_300_000.0), "12.30 ms");
        assert_eq!(fmt_ns(2_500_000_000.0), "2.500 s");
    }

    #[test]
    fn bench_returns_finite_time() {
        let t = bench("noop", || 1 + 1);
        assert!(t.is_finite() && t >= 0.0);
    }
}
