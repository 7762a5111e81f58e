//! Seeded input generation. Everything the program under test receives is
//! built here from the workload seed: loop pools, request orders and
//! arrival times.

use veal::ir::rng::{Fnv64, Rng64};
use veal::vm::StaticHints;
use veal::workloads::{full_suite, synth_loop, SynthSpec};
use veal::{legalize, LoopBody, TransformLimits};

/// One legalized loop of the 27-application suite.
pub struct SuiteLoop {
    pub body: LoopBody,
    /// Iterations per invocation: the profile's trip count times the
    /// re-roll multiplier, as the system simulator runs it.
    pub trips: u64,
}

/// Every legalized suite loop, in suite order (200 loops).
pub fn suite_loops() -> Vec<SuiteLoop> {
    let limits = TransformLimits::default();
    let mut out = Vec::new();
    for app in full_suite() {
        for l in &app.loops {
            for part in legalize(&l.raw, &limits) {
                out.push(SuiteLoop {
                    trips: l.profile.trip_count * u64::from(part.trip_multiplier),
                    body: part.body,
                });
            }
        }
    }
    out
}

/// A seeded synthetic loop of `lo..=hi` compute ops, with the shape mix of
/// the serving load generator.
pub fn synth(rng: &mut Rng64, lo: usize, hi: usize) -> LoopBody {
    synth_loop(&SynthSpec {
        seed: rng.next_u64(),
        compute_ops: rng.gen_range(lo, hi + 1),
        fp_frac: [0.0, 0.4, 0.8][rng.gen_range(0, 3)],
        loads: rng.gen_range(1, 5),
        stores: rng.gen_range(1, 3),
        recurrences: rng.gen_range(0, 3),
        rec_distance: rng.gen_range(1, 4) as u32,
    })
}

/// Fisher–Yates shuffle driven by the workload RNG.
pub fn shuffle<T>(rng: &mut Rng64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0, i + 1));
    }
}

/// Arrival offsets (ns from the window start) of a Poisson process at
/// `rate` per second over `seconds`.
pub fn poisson_arrivals(rng: &mut Rng64, rate: f64, seconds: f64) -> Vec<u64> {
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        // 1 − U lies in (0, 1], so the logarithm is finite.
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push((t * 1e9) as u64);
    }
}

/// Order-sensitive fingerprint of a generated request stream, so two runs
/// can be checked to have offered the program identical inputs.
#[derive(Default)]
pub struct StreamFp(Option<Fnv64>);

impl StreamFp {
    pub fn add(
        &mut self,
        tenant: usize,
        key: u64,
        body: &LoopBody,
        hints: &StaticHints,
        due_ns: u64,
    ) {
        let h = self.0.get_or_insert_with(Fnv64::new);
        h.write_u64(tenant as u64);
        h.write_u64(key);
        h.write_u64(body.content_hash());
        h.write_u64(hints.fingerprint());
        h.write_u64(due_ns);
    }

    pub fn finish(&self) -> u64 {
        self.0.as_ref().map_or(0, Fnv64::finish)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_poisson_schedule_keeps_its_mean_rate() {
        let mut rng = Rng64::new(11);
        let arrivals = poisson_arrivals(&mut rng, 4000.0, 20.0);
        let n = arrivals.len() as f64;
        assert!(n > 79_000.0, "about 80k arrivals, got {n}");
        let rate = n / 20.0;
        assert!((rate / 4000.0 - 1.0).abs() < 0.01, "mean rate {rate}");
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn the_request_fingerprint_is_stable_per_seed_and_differs_across_seeds() {
        let fp = |seed: u64| {
            let mut rng = Rng64::new(seed);
            let mut fp = StreamFp::default();
            for i in 0..32u64 {
                let body = synth(&mut rng, 4, 24);
                fp.add((i % 2) as usize, i, &body, &StaticHints::none(), i * 1000);
            }
            fp.finish()
        };
        assert_eq!(fp(3), fp(3));
        assert_ne!(fp(3), fp(4));
    }
}
