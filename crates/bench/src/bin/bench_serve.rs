//! Benchmarks the multi-tenant translation service (`veal::serve`): one
//! seeded request stream served at 1/2/4/8 worker threads, cold and warm,
//! asserting the serving invariant along the way — per-tenant statistics
//! are **bit-identical** at every thread count (concurrency reorders work
//! across tenants, never results within one).
//!
//! The wall-clock arms are honest host measurements, tagged with
//! `host_cores`; on a one-core CI box they do not scale and are not
//! expected to. A restart arm times snapshot restore against a cold run.
//!
//! Results go to `BENCH_serve.json`. Knobs for the CI smoke job:
//! `VEAL_SERVE_REQUESTS`, `VEAL_SERVE_TENANTS`, `VEAL_SERVE_MAX_THREADS`.
//! `--trace-out <path>` attaches a [`veal::JsonlSink`] to every tenant
//! session (the file is validated by `vealc stats`).

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;
use veal::serve::{generate, LoadSpec};
use veal::{
    AcceleratorFamily, JsonlSink, NullSink, ServeConfig, ServeReport, Trace, TranslationService,
    VmStats,
};

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Parses `--trace-out <path>` from argv; `None` when absent.
fn trace_out_arg() -> Option<std::path::PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--trace-out" {
            match args.next() {
                Some(p) => return Some(p.into()),
                None => {
                    eprintln!("bench_serve: --trace-out requires a path");
                    std::process::exit(2);
                }
            }
        }
    }
    None
}

/// Nearest-rank percentile of an **ascending-sorted** slice; `q` in
/// `[0, 1]`. Returns 0 for an empty slice.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// One thread count's wall-clock arm.
struct WallArm {
    threads: usize,
    cold_ms: f64,
    warm_ms: f64,
    cold_rps: f64,
    warm_rps: f64,
    p50_ns: u64,
    p99_ns: u64,
}

fn throughput_rps(completed: u64, wall_ns: u64) -> f64 {
    completed as f64 / (wall_ns.max(1) as f64 / 1e9)
}

fn main() {
    let trace = match trace_out_arg() {
        Some(path) => match JsonlSink::create(&path) {
            Ok(sink) => {
                println!("tracing to {}", path.display());
                Trace::new(Arc::new(sink))
            }
            Err(e) => {
                eprintln!("bench_serve: cannot create {}: {e}", path.display());
                std::process::exit(1);
            }
        },
        None => Trace::null(),
    };

    let spec = LoadSpec {
        requests: env_usize("VEAL_SERVE_REQUESTS", 600),
        tenants: env_usize("VEAL_SERVE_TENANTS", 4).max(1),
        ..LoadSpec::default()
    };
    let max_threads = env_usize("VEAL_SERVE_MAX_THREADS", 8).max(1);
    let thread_counts: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&t| t <= max_threads)
        .collect();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Symbolic serving: the fleet shares family-keyed symbolic entries and
    // every tenant concretizes locally — the memoized artifact is now
    // reusable across any design point the family covers.
    let mut base = ServeConfig::paper();
    base.family = Some(Arc::new(AcceleratorFamily::point(&base.config)));
    let stream = generate(&spec, &base.config, base.cca.as_ref());
    println!(
        "bench_serve: {} requests, {} tenants, threads {:?}, {} host core(s)",
        stream.len(),
        spec.tenants,
        thread_counts,
        host_cores
    );

    // Reference run: one thread, cold memo. Everything else is compared
    // against these per-tenant stats.
    let mut reference: Option<Vec<VmStats>> = None;
    let mut arms: Vec<WallArm> = Vec::new();
    let mut last_report: Option<ServeReport> = None;

    for &threads in &thread_counts {
        let cfg = ServeConfig {
            threads,
            ..base.clone()
        };
        // Closed loop: admit a queue-bound's worth per window so the
        // bench measures serving, not shedding.
        let window = spec.tenants * base.queue_capacity;
        let service = TranslationService::new(cfg).with_trace(trace.clone());
        let t0 = Instant::now();
        let cold = service.run_windowed(&stream, window);
        let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        let warm = service.run_windowed(&stream, window);
        let warm_ms = t0.elapsed().as_secs_f64() * 1e3;

        assert_eq!(cold.stats.shed, 0, "bench stream must not shed");
        assert_eq!(
            warm.stats.computes, 0,
            "warm run recomputed a memoized translation"
        );
        assert_eq!(
            cold.stats.duplicate_translations, 0,
            "single-flight admitted duplicate work at {threads} thread(s)"
        );

        let stats: Vec<VmStats> = cold.tenants.iter().map(|t| t.stats.clone()).collect();
        match &reference {
            None => reference = Some(stats),
            Some(reference) => {
                // The serving invariant: thread count must be invisible in
                // every tenant's stats, or the concurrency is unsound.
                assert_eq!(
                    reference, &stats,
                    "per-tenant stats diverged at {threads} thread(s)"
                );
            }
        }

        let lat = cold.sorted_latencies_ns();
        arms.push(WallArm {
            threads,
            cold_ms,
            warm_ms,
            cold_rps: throughput_rps(cold.stats.completed, cold.stats.wall_ns),
            warm_rps: throughput_rps(warm.stats.completed, warm.stats.wall_ns),
            p50_ns: percentile(&lat, 0.50),
            p99_ns: percentile(&lat, 0.99),
        });
        last_report = Some(cold);
    }

    let report = last_report.expect("at least one thread count");
    let duplicates = report.stats.duplicate_translations;

    // Telemetry run (untimed): an enabled discarding trace lets the
    // per-call concretize wall timer record; read the histogram delta.
    let concretize_wall = veal::obs::metrics::histogram("vm.concretize.wall_ns");
    let wall_before = concretize_wall.sum();
    let telem = TranslationService::new(ServeConfig {
        threads: 1,
        ..base.clone()
    })
    .with_trace(Trace::new(Arc::new(NullSink)))
    .run_windowed(&stream, spec.tenants * base.queue_capacity);
    let concretize_ms = (concretize_wall.sum() - wall_before) as f64 / 1e6;
    assert!(
        telem.stats.concretizations >= telem.stats.completed.min(1),
        "family-mode serving must concretize"
    );

    // Restart arm: warm a service, snapshot it, "crash" (drop it), revive
    // a fresh one from the snapshot, and serve the same stream — the
    // cold-start tax a deployment avoids by persisting warm state
    // (DESIGN.md §14). The revived run must compute nothing and stay
    // bit-identical to the cold reference per tenant.
    let window = spec.tenants * base.queue_capacity;
    let restart_cfg = ServeConfig {
        threads: 1,
        ..base.clone()
    };
    let origin = TranslationService::new(restart_cfg.clone());
    let t0 = Instant::now();
    let restart_cold = origin.run_windowed(&stream, window);
    let restart_cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    let snapshot = origin.save_snapshot().expect("warm state encodes");
    drop(origin);

    let revived = TranslationService::new(restart_cfg);
    let t0 = Instant::now();
    let restore = revived.restore_snapshot(&snapshot);
    let restore_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let restart_warm = revived.run_windowed(&stream, window);
    let restart_warm_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        restore.salvaged + restore.rejected,
        0,
        "a pristine snapshot must restore in full"
    );
    assert_eq!(
        restart_warm.stats.computes, 0,
        "restored memo must absorb every translation"
    );
    for (c, w) in restart_cold.tenants.iter().zip(&restart_warm.tenants) {
        assert_eq!(
            c.stats, w.stats,
            "restored tenant {} diverged from the cold run",
            c.tenant
        );
    }

    let cache_hits: u64 = report.tenants.iter().map(|t| t.cache.hits).sum();
    let cache_misses: u64 = report.tenants.iter().map(|t| t.cache.misses).sum();
    for a in &arms {
        println!(
            "{} thread(s): cold {:>8.1} ms ({:>9.0} req/s), warm {:>8.1} ms ({:>9.0} req/s), p50 {} ns, p99 {} ns",
            a.threads, a.cold_ms, a.cold_rps, a.warm_ms, a.warm_rps, a.p50_ns, a.p99_ns
        );
    }
    println!(
        "memo: {} hits / {} misses, {} entries; {} computes, {} coalesced, {} duplicates",
        report.stats.memo.hits,
        report.stats.memo.misses,
        report.stats.memo.entries,
        report.stats.computes,
        report.stats.coalesced,
        duplicates
    );
    println!(
        "family: {} entries, {} concretizations ({} units), {:.2} ms/run",
        report.stats.memo.entries,
        report.stats.concretizations,
        report.stats.concretize_units,
        concretize_ms
    );
    println!("code caches: {cache_hits} hits / {cache_misses} misses");
    println!(
        "restart: cold {:.1} ms, restore {:.3} ms ({} bytes, {} entries), warm {:.1} ms",
        restart_cold_ms,
        restore_ms,
        snapshot.len(),
        restore.restored(),
        restart_warm_ms
    );

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"serve\",");
    let _ = writeln!(json, "  \"requests\": {},", stream.len());
    let _ = writeln!(json, "  \"tenants\": {},", spec.tenants);
    let _ = writeln!(json, "  \"host_cores\": {host_cores},");
    json.push_str("  \"wall\": [\n");
    for (i, a) in arms.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"threads\": {}, \"cold_ms\": {:.3}, \"warm_ms\": {:.3}, \
             \"cold_rps\": {:.1}, \"warm_rps\": {:.1}, \"p50_ns\": {}, \"p99_ns\": {}}}",
            a.threads, a.cold_ms, a.warm_ms, a.cold_rps, a.warm_rps, a.p50_ns, a.p99_ns
        );
        json.push_str(if i + 1 < arms.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"memo_hits\": {},", report.stats.memo.hits);
    let _ = writeln!(json, "  \"memo_misses\": {},", report.stats.memo.misses);
    let _ = writeln!(json, "  \"memo_entries\": {},", report.stats.memo.entries);
    let _ = writeln!(json, "  \"computes\": {},", report.stats.computes);
    let _ = writeln!(json, "  \"coalesced\": {},", report.stats.coalesced);
    let _ = writeln!(json, "  \"duplicate_translations\": {duplicates},");
    let _ = writeln!(json, "  \"family_entries\": {},", report.stats.memo.entries);
    let _ = writeln!(json, "  \"family_hits\": {},", report.stats.memo.hits);
    let _ = writeln!(
        json,
        "  \"concretizations\": {},",
        report.stats.concretizations
    );
    let _ = writeln!(
        json,
        "  \"concretize_units\": {},",
        report.stats.concretize_units
    );
    let _ = writeln!(json, "  \"concretize_ms\": {concretize_ms:.3},");
    let _ = writeln!(json, "  \"cache_hits\": {cache_hits},");
    let _ = writeln!(json, "  \"cache_misses\": {cache_misses},");
    let _ = writeln!(
        json,
        "  \"restart\": {{\"snapshot_bytes\": {}, \"cold_ms\": {:.3}, \"restore_ms\": {:.3}, \
         \"warm_ms\": {:.3}, \"restored\": {}, \"salvaged\": {}, \"rejected\": {}}},",
        snapshot.len(),
        restart_cold_ms,
        restore_ms,
        restart_warm_ms,
        restore.restored(),
        restore.salvaged,
        restore.rejected
    );
    let _ = writeln!(json, "  \"shed\": {},", report.stats.shed);
    json.push_str("  \"bit_identical\": true\n}\n");

    if let Err(e) = std::fs::write("BENCH_serve.json", json) {
        eprintln!("bench_serve: failed to write BENCH_serve.json: {e}");
        std::process::exit(1);
    }
    println!("wrote BENCH_serve.json");
    if let Err(e) = trace.flush() {
        eprintln!("bench_serve: failed to flush trace: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::percentile;

    #[test]
    fn percentile_is_nearest_rank() {
        let v = vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        assert_eq!(percentile(&v, 0.50), 5);
        assert_eq!(percentile(&v, 0.99), 10);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[], 0.5), 0);
    }
}
