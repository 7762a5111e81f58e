//! What one workload run measured, and how the reported metrics are
//! derived from it.

use crate::json::{write_num, write_str};
use crate::spec::spec;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Knobs shared by every workload.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    pub traced: bool,
    /// CI smoke mode: one set-up, smaller replays.
    pub smoke: bool,
}

impl Opts {
    /// Whether to set up once more, given the set-up times so far. A run
    /// sets up at least 5 times and until two seconds have gone into set-up
    /// (at most 101 times), and reports the median, so that a workload
    /// whose set-up takes milliseconds still reports a steady `setup_s`.
    pub fn more_setups(&self, done: &[f64]) -> bool {
        let spent: f64 = done.iter().sum();
        match done.len() {
            0 => true,
            _ if self.smoke => false,
            n => n < 5 || (n < 101 && spent < 2.0),
        }
    }

    /// Capacity to reserve for a per-request record of the window.
    pub fn reserve(&self) -> usize {
        (self.seconds * RESERVE_PER_SECOND) as usize
    }
}

/// Requests per reported segment: a segment's p99 then has a hundred
/// samples beyond it.
const SEGMENT_REQUESTS: usize = 10_000;

/// The latency a failed request is recorded with: +∞.
pub const FAILED: u64 = u64::MAX;

/// Requests per second of window the per-request records are reserved
/// for up front (see [`Opts::reserve`]), ten times the fastest workload.
/// Reserved pages stay unresident until written, so the records add to
/// `peak_rss_mb` in proportion to the requests served; grown by doubling
/// instead, they added a copy of a few MiB or none depending on where the
/// count fell.
const RESERVE_PER_SECOND: f64 = 200_000.0;

/// The raw measurements of one run of one workload.
pub struct Run {
    pub workload: &'static str,
    pub opts: Opts,
    /// Wall time of each set-up: service construction to the first
    /// measured request.
    pub setups_s: Vec<f64>,
    /// Latency of every request in the window, in the order the workload
    /// recorded them; a failed request reads [`FAILED`].
    pub latencies_ns: Vec<u64>,
    /// The window cut where the workload's natural units end (a pass, a
    /// cycle, a batch of requests): each cut's end index into
    /// `latencies_ns` and the wall time its requests were served in.
    pub segments: Vec<(usize, f64)>,
    pub attempted: u64,
    /// Requests that failed: refusals, socket or protocol errors, failed
    /// verification, responses missing at window end, oracle mismatches.
    pub failed: u64,
    /// How late the generator issued each request (open loop: send time
    /// minus due time; closed loop: turnaround between requests).
    pub lags_ns: Vec<u64>,
    /// `CostMeter` units charged to the requests in the window.
    pub units: u64,
    /// Correctness-gate failures; any entry fails the run.
    pub gate_failures: Vec<String>,
    /// Fingerprint of the generated request stream.
    pub stream_fp: u64,
    /// Workload-specific per-layer values (counters and replay timings).
    pub layers: BTreeMap<String, f64>,
    pub tracer: Tracer,
}

impl Run {
    pub fn new(workload: &'static str, opts: Opts) -> Self {
        let reserve = opts.reserve();
        Run {
            workload,
            opts,
            setups_s: Vec::new(),
            latencies_ns: Vec::with_capacity(reserve),
            segments: Vec::new(),
            attempted: 0,
            failed: 0,
            lags_ns: Vec::with_capacity(reserve),
            units: 0,
            gate_failures: Vec::new(),
            stream_fp: 0,
            layers: BTreeMap::new(),
            tracer: Tracer::new(opts.traced),
        }
    }

    /// Records a gate failure, keeping the first few messages.
    pub fn gate(&mut self, msg: String) {
        if self.gate_failures.len() < 8 {
            self.gate_failures.push(msg);
        }
    }

    /// Records a request that failed in the window.
    pub fn fail(&mut self) {
        self.failed += 1;
        self.latencies_ns.push(FAILED);
    }

    /// Marks the end of a natural unit of the window, whose requests took
    /// `busy_s` of wall time to serve.
    pub fn end_segment(&mut self, busy_s: f64) {
        let start = self.segments.last().map_or(0, |s| s.0);
        if self.latencies_ns.len() > start {
            self.segments.push((self.latencies_ns.len(), busy_s));
        }
    }

    /// Fails a traced run whose root spans leave more than 10% of their
    /// time unattributed to any layer: the breakdown would not account for
    /// where the time went.
    pub fn require_attribution(&mut self) {
        let share = self.tracer.unattributed_share();
        if self.tracer.on() && share > 0.10 {
            self.gate(format!(
                "{:.1}% of the traced time is unattributed (limit 10%)",
                100.0 * share
            ));
        }
    }

    pub fn completed(&self) -> usize {
        self.latencies_ns.iter().filter(|&&ns| ns != FAILED).count()
    }

    pub fn correct(&self) -> bool {
        self.gate_failures.is_empty() && self.failed == 0 && self.completed() > 0
    }

    /// Consecutive units merged into segments of at least
    /// [`SEGMENT_REQUESTS`] requests, as `(start, end, busy_s)`; a short
    /// tail joins the last segment.
    fn merged_segments(&self) -> Vec<(usize, usize, f64)> {
        let mut out: Vec<(usize, usize, f64)> = Vec::new();
        let (mut start, mut busy) = (0, 0.0);
        for &(end, b) in &self.segments {
            busy += b;
            if end - start >= SEGMENT_REQUESTS {
                out.push((start, end, busy));
                (start, busy) = (end, 0.0);
            }
        }
        if let Some(&(end, _)) = self.segments.last().filter(|s| s.0 > start) {
            match out.last_mut() {
                Some(last) => (last.1, last.2) = (end, last.2 + busy),
                None => out.push((start, end, busy)),
            }
        }
        out
    }

    /// End-to-end metrics as `(name, value, samples)`.
    ///
    /// Throughput and latency percentiles are computed per segment of the
    /// window and the run reports its best segment — highest throughput,
    /// lowest percentiles — because another tenant of the host can only
    /// slow a segment down, and its interference comes and goes over
    /// seconds. A failed request's latency counts as +∞; a segment too
    /// small for a percentile (see [`percentile`]) sits that one out.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64, u64)> {
        let (mut tput, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
        for (start, end, busy_s) in self.merged_segments() {
            let mut lat: Vec<f64> = self.latencies_ns[start..end]
                .iter()
                .map(|&ns| {
                    if ns == FAILED {
                        f64::INFINITY
                    } else {
                        ns as f64 / 1e6
                    }
                })
                .collect();
            lat.sort_by(f64::total_cmp);
            let done = lat.iter().filter(|x| x.is_finite()).count();
            tput.push(done as f64 / busy_s.max(1e-9));
            p50.extend(percentile(&lat, 0.50));
            p99.extend(percentile(&lat, 0.99));
        }
        let samples = self.latencies_ns.len() as u64;
        let mut out = vec![(
            "setup_s",
            median(&self.setups_s),
            self.setups_s.len() as u64,
        )];
        let best = |v: &[f64], pick: fn(f64, f64) -> f64| v.iter().copied().reduce(pick);
        out.extend(best(&tput, f64::max).map(|t| ("throughput_rps", t, self.completed() as u64)));
        out.extend(best(&p50, f64::min).map(|p| ("latency_p50_ms", p, samples)));
        out.extend(best(&p99, f64::min).map(|p| ("latency_p99_ms", p, samples)));
        out.push(("peak_rss_mb", peak_rss_mb(), 1));
        out
    }

    /// p99 of the generator's lag (its maximum when there are too few
    /// samples for a p99).
    pub fn lag_p99_ms(&self) -> f64 {
        let mut lags: Vec<f64> = self.lags_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
        lags.sort_by(f64::total_cmp);
        percentile(&lags, 0.99)
            .or_else(|| lags.last().copied())
            .unwrap_or(0.0)
    }

    /// Per-layer metrics: the workload's own values plus the ones every
    /// workload derives the same way.
    pub fn per_layer(&self) -> BTreeMap<String, f64> {
        let mut out = self.layers.clone();
        out.insert("bench.loadgen.lag_p99_ms".into(), self.lag_p99_ms());
        out.insert("bench.loadgen.attempted".into(), self.attempted as f64);
        out.insert(
            "bench.error_rate".into(),
            self.failed as f64 / self.attempted.max(1) as f64,
        );
        out.insert(
            "vm.translate.units_per_req".into(),
            self.units as f64 / self.completed().max(1) as f64,
        );
        if self.tracer.on() {
            let mut res: Vec<f64> = self
                .tracer
                .root_residuals_ns()
                .iter()
                .map(|&ns| ns as f64 / 1e3)
                .collect();
            res.sort_by(f64::total_cmp);
            let pick = |q| {
                percentile(&res, q)
                    .or_else(|| res.last().copied())
                    .unwrap_or(0.0)
            };
            out.insert("bench.residual_us_p50".into(), pick(0.50));
            out.insert("bench.residual_us_p99".into(), pick(0.99));
            out.insert(
                "bench.unattributed_share".into(),
                100.0 * self.tracer.unattributed_share(),
            );
        }
        out
    }

    /// The full record of the run, read back by `--all` and `--compare`.
    pub fn detail_json(&self) -> String {
        let s = spec();
        let mut j = String::from("{\"workload\": ");
        write_str(&mut j, self.workload);
        let _ = write!(
            j,
            ", \"seed\": {}, \"seconds\": {}, \"traced\": {}, \"smoke\": {}, \"correct\": {}, \
             \"attempted\": {}, \"failed\": {}, \"stream_fp\": \"{:#018x}\", \"gate_failures\": [",
            self.opts.seed,
            self.opts.seconds,
            self.opts.traced,
            self.opts.smoke,
            self.correct(),
            self.attempted,
            self.failed,
            self.stream_fp
        );
        for (i, g) in self.gate_failures.iter().enumerate() {
            if i > 0 {
                j.push_str(", ");
            }
            write_str(&mut j, g);
        }
        j.push_str("], \"end_to_end\": {");
        for (i, (name, value, samples)) in self.end_to_end().into_iter().enumerate() {
            let unit = s.metric(name).map_or("", |m| m.unit.as_str());
            let _ = write!(
                j,
                "{}\"{name}\": {{\"value\": ",
                if i > 0 { ", " } else { "" }
            );
            write_num(&mut j, value);
            let _ = write!(j, ", \"unit\": \"{unit}\", \"samples\": {samples}}}");
        }
        j.push_str("}, \"per_layer\": {");
        for (i, (name, value)) in self.per_layer().into_iter().enumerate() {
            let unit = s.metric(&name).map_or("", |m| m.unit.as_str());
            let _ = write!(
                j,
                "{}\"{name}\": {{\"value\": ",
                if i > 0 { ", " } else { "" }
            );
            write_num(&mut j, value);
            let _ = write!(j, ", \"unit\": \"{unit}\"}}");
        }
        j.push_str("}, \"self_time_ms\": {");
        for (i, (name, (count, ns))) in self.tracer.by_name().into_iter().enumerate() {
            let _ = write!(
                j,
                "{}\"{name}\": {{\"spans\": {count}, \"self_ms\": ",
                if i > 0 { ", " } else { "" }
            );
            write_num(&mut j, ns as f64 / 1e6);
            j.push('}');
        }
        j.push_str("}}\n");
        j
    }

    /// The one-line result: every end-to-end metric untraced, every
    /// per-layer metric traced, in `BENCHMARK.json` order.
    pub fn result_line(&self) -> Result<String, String> {
        let s = spec();
        let measured: BTreeMap<String, f64> = if self.opts.traced {
            self.per_layer()
        } else {
            self.end_to_end()
                .into_iter()
                .map(|(n, v, _)| (n.to_string(), v))
                .collect()
        };
        let wanted = if self.opts.traced {
            &s.per_layer
        } else {
            &s.end_to_end
        };
        let mut j = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        let mut first = true;
        for m in wanted {
            // A smoke run may be too short for a p99; a full run never is.
            let Some(v) = measured.get(&m.name) else {
                if self.opts.smoke {
                    continue;
                }
                return Err(format!(
                    "{}: metric {} was not measured",
                    self.workload, m.name
                ));
            };
            let sep = if first { "" } else { ", " };
            first = false;
            let _ = write!(j, "{sep}\"{}\": {{\"value\": ", m.name);
            write_num(&mut j, *v);
            let _ = write!(j, ", \"unit\": \"{}\"}}", m.unit);
        }
        j.push_str("}}");
        Ok(j)
    }
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_with_units(units: usize, per_unit: usize) -> Run {
        let mut run = Run::new(
            "test",
            Opts {
                seed: 0,
                seconds: 1.0,
                traced: false,
                smoke: false,
            },
        );
        for u in 0..units {
            run.latencies_ns
                .extend(std::iter::repeat_n(1_000_000 * (u as u64 + 1), per_unit));
            run.end_segment(1.0);
        }
        run
    }

    #[test]
    fn units_merge_into_segments_and_a_short_tail_joins_the_last() {
        let run = run_with_units(12, 2000);
        assert_eq!(
            run.merged_segments(),
            vec![(0, 10_000, 5.0), (10_000, 24_000, 7.0)]
        );
        assert_eq!(
            run_with_units(3, 2000).merged_segments(),
            vec![(0, 6000, 3.0)]
        );
    }

    #[test]
    fn the_best_segment_is_reported() {
        // Segment 1 serves 10k requests in 5 s at 1–5 ms; segment 2 serves
        // 14k in 7 s at 6–12 ms. The first is faster on every count.
        let run = run_with_units(12, 2000);
        let e2e = run.end_to_end();
        let get = |name| e2e.iter().find(|m| m.0 == name).map(|m| m.1);
        assert_eq!(get("throughput_rps"), Some(2000.0));
        assert_eq!(get("latency_p50_ms"), Some(3.0));
        assert_eq!(get("latency_p99_ms"), Some(5.0));
    }
}
