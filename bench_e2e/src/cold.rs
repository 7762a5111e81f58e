//! `translate-cold`: in-process serving where every request is a memo
//! miss. The pool holds the legalized suite loops plus seeded synthetic
//! loops, all unhinted; requests take the paper's fully dynamic route
//! through family-mode sessions (`AcceleratorFamily::point`), and each pass
//! runs on a fresh service so nothing is remembered between passes.

use crate::gen::{shuffle, suite_loops, synth, StreamFp};
use crate::layers;
use crate::run::{nanos, Opts, Run, FAILED};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};
use veal::ir::rng::Rng64;
use veal::serve::{Request, RequestOutcome, TenantReport};
use veal::vm::{encode_translated_loop, StaticHints, TranslationPolicy, Translator};
use veal::{AcceleratorFamily, ServeConfig, TranslationService};

/// Distinct loops in the pool: the suite's plus synthetic ones.
const POOL: usize = 4096;
const TENANTS: usize = 4;
/// Requests admitted per drain: the tenants' whole queue capacity.
const WINDOW: usize = 256;
/// Requests whose outcome is checked against a direct translation.
const CHECKS: usize = 256;
/// Largest synthetic loop, in compute ops. Translation cost grows
/// heavy-tailed past this size — one 41-op loop in a few thousand took
/// 200 ms, two thousand times the median — and a pool drawn with such a
/// loop moved a run's throughput by a quarter, so the pool stops here.
const SYNTH_OPS: usize = 32;
/// Trip count the layer replay runs synthetic loops at.
const SYNTH_TRIPS: u64 = 256;
/// Seeded orders of the pool one segment cycles through: 12,288
/// requests, so a segment's p99 has over a hundred samples beyond it.
/// Within a run, a fresh order per pass made segments differ in how the
/// expensive loops fell into windows, and the best segment's p99 spread
/// 16% across seeds.
const ORDERS: usize = 3;

fn serve_config() -> ServeConfig {
    let base = ServeConfig::paper();
    ServeConfig {
        // One worker drains inline. With two, a pass spawned two threads
        // per window, and on a shared two-core host throughput spread
        // 6–13% across runs against 1.4–2.6% with one.
        threads: 1,
        policy: TranslationPolicy::fully_dynamic(),
        family: Some(Arc::new(AcceleratorFamily::point(&base.config))),
        ..base
    }
}

fn translator(cfg: &ServeConfig) -> Translator {
    Translator::new(cfg.config.clone(), cfg.cca.clone(), cfg.policy)
}

/// The schedule bytes and charged cycles a request must come back with.
type Expected = (Option<Vec<u8>>, u64);

fn observed(o: &RequestOutcome) -> Expected {
    let bytes = o
        .translated
        .as_deref()
        .map(|t| encode_translated_loop(t).expect("a translated loop encodes"));
    (bytes, o.translation_cycles)
}

/// Folds one pass's tenants into the run: latencies, units, counters and
/// the oracle check.
fn absorb(
    run: &mut Run,
    tenants: &[TenantReport],
    expected: &HashMap<u64, Expected>,
    cache: &mut [u64; 3],
) {
    let mut checked = 0;
    for t in tenants {
        cache[0] += t.cache.hits;
        cache[1] += t.cache.misses;
        cache[2] += t.cache.evictions;
        for o in &t.outcomes {
            run.latencies_ns.push(o.latency_ns);
            run.units += o.translation_cycles;
            if let Some(want) = expected.get(&o.key) {
                checked += 1;
                if observed(o) != *want {
                    run.failed += 1;
                    run.gate(format!(
                        "loop {}: served outcome differs from a direct translation",
                        o.key
                    ));
                }
            }
        }
    }
    if checked != expected.len() {
        run.gate(format!(
            "{} sampled request(s) were not served",
            expected.len() - checked
        ));
    }
}

pub fn translate_cold(opts: Opts) -> Result<Run, String> {
    let mut run = Run::new("translate-cold", opts);
    let cfg = serve_config();
    let mut rng = Rng64::new(opts.seed);

    // Distinct bodies only: a repeated body would be a memo hit.
    let mut seen = HashSet::new();
    let mut pool: Vec<(veal::LoopBody, u64)> = suite_loops()
        .into_iter()
        .filter(|l| seen.insert(l.body.content_hash()))
        .map(|l| (l.body, l.trips))
        .collect();
    while pool.len() < POOL {
        let body = synth(&mut rng, 4, SYNTH_OPS);
        if seen.insert(body.content_hash()) {
            pool.push((body, SYNTH_TRIPS));
        }
    }
    let none = Arc::new(StaticHints::none());
    let mut fp = StreamFp::default();
    let loops: Vec<Request> = pool
        .iter()
        .enumerate()
        .map(|(i, (body, _))| {
            fp.add(0, i as u64, body, &none, 0);
            Request {
                tenant: 0,
                key: i as u64,
                body: Arc::new(body.clone()),
                hints: Arc::clone(&none),
            }
        })
        .collect();
    run.stream_fp = fp.finish();
    // Every pass admits the whole pool in one of `ORDERS` seeded orders,
    // dealt round-robin to the tenants. The window cycles through the
    // orders, so every segment serves the same requests in the same
    // windows and segments differ only in how fast the host ran them.
    let orders: Vec<Vec<Request>> = (0..ORDERS)
        .map(|_| {
            let mut order: Vec<usize> = (0..loops.len()).collect();
            shuffle(&mut rng, &mut order);
            order
                .iter()
                .enumerate()
                .map(|(pos, &i)| Request {
                    tenant: pos % TENANTS,
                    ..loops[i].clone()
                })
                .collect()
        })
        .collect();

    // The oracle: a direct translation of a seeded sample of the pool.
    let direct = translator(&cfg);
    let mut sample: Vec<usize> = (0..loops.len()).collect();
    shuffle(&mut rng, &mut sample);
    sample.truncate(if opts.smoke { 16 } else { CHECKS });
    let expected: HashMap<u64, Expected> = sample
        .iter()
        .map(|&i| {
            let out = direct.translate(&loops[i].body, &loops[i].hints);
            let bytes = out
                .result
                .ok()
                .map(|t| encode_translated_loop(&t).expect("a translated loop encodes"));
            (loops[i].key, (bytes, out.breakdown.total()))
        })
        .collect();

    // Set-up: construction plus one cold pass over the pool.
    while opts.more_setups(&run.setups_s) {
        let stream = &orders[run.setups_s.len() % ORDERS];
        let t0 = Instant::now();
        let report = TranslationService::new(cfg.clone()).run_windowed(stream, WINDOW);
        run.setups_s.push(t0.elapsed().as_secs_f64());
        if report.stats.shed > 0 {
            return Err(format!("set-up pass shed {} request(s)", report.stats.shed));
        }
    }

    let mut cache = [0u64; 3];
    let (mut memo_hits, mut memo_misses, mut coalesced, mut duplicates) = (0u64, 0u64, 0u64, 0u64);
    let mut batches = 0u64;
    let mut shed_total = 0u64;
    let start = Instant::now();
    let window = Duration::from_secs_f64(opts.seconds);
    let mut prev = start;
    let mut pass = 0u64;
    let mut busy_s = 0.0;
    // Whole cycles of the orders only, one segment each.
    let cycle_done = |pass: u64| pass > 0 && pass.is_multiple_of(ORDERS as u64);
    while !cycle_done(pass) || start.elapsed() < window {
        let stream = &orders[pass as usize % ORDERS];
        let t_pass = Instant::now();
        run.lags_ns.push(nanos(t_pass - prev));
        let service = TranslationService::new(cfg.clone());
        let mut shed = 0u64;
        let (tenants, busy_ns) = if run.tracer.on() {
            // The same admission windows, driven through the pool API so
            // each call into the service is a span.
            let mut pool = service.session_pool(TENANTS);
            let mut served: Vec<Vec<RequestOutcome>> = vec![Vec::new(); TENANTS];
            for (w, chunk) in stream.chunks(WINDOW).enumerate() {
                let id = pass * stream.len().div_ceil(WINDOW) as u64 + w as u64;
                let tr = &mut run.tracer;
                let root = tr.open("bench.window", id, None, Instant::now());
                for (off, r) in chunk.iter().enumerate() {
                    let dropped = tr.time("serve.service.admit", id, root, || {
                        pool.admit(
                            r.tenant,
                            w * WINDOW + off,
                            r.key,
                            Arc::clone(&r.body),
                            Arc::clone(&r.hints),
                        )
                    });
                    shed += dropped.len() as u64;
                }
                tr.time("serve.service.drain", id, root, || pool.drain());
                for (t, out) in served.iter_mut().enumerate() {
                    out.extend(tr.time("serve.service.take_outcomes", id, root, || {
                        pool.take_outcomes(t)
                    }));
                }
                tr.close(root, Instant::now());
            }
            let busy_ns = nanos(t_pass.elapsed());
            batches += pool.stats().batches;
            run.attempted += pool.stats().offered;
            let mut reports = pool.into_reports();
            for (r, out) in reports.iter_mut().zip(served) {
                r.outcomes = out;
            }
            (reports, busy_ns)
        } else {
            let report = service.run_windowed(stream, WINDOW);
            batches += report.stats.batches;
            run.attempted += report.stats.offered;
            shed = report.stats.shed;
            (report.tenants, report.stats.wall_ns)
        };
        let memo = veal::vm::MemoBackend::stats(&**service.memo());
        memo_hits += memo.hits;
        memo_misses += memo.misses;
        coalesced += service.memo().coalesced();
        duplicates += service.memo().duplicate_translations();
        absorb(&mut run, &tenants, &expected, &mut cache);
        for _ in 0..shed {
            run.fail();
        }
        shed_total += shed;
        busy_s += busy_ns as f64 / 1e9;
        pass += 1;
        if cycle_done(pass) {
            run.end_segment(busy_s);
            busy_s = 0.0;
        }
        prev = Instant::now();
    }

    let completed = run.completed() as f64;
    let l = &mut run.layers;
    for zero in [
        "serve.net.frames",
        "serve.net.decode_rejects",
        "serve.net.fatal_closes",
        "serve.wire.bytes_in_per_req",
        "serve.wire.bytes_out_per_req",
        "vm.binfmt.modules",
        "exec.cache_hit_rate",
    ] {
        l.insert(zero.into(), 0.0);
    }
    l.insert("serve.service.shed".into(), shed_total as f64);
    l.insert("serve.service.batches".into(), batches as f64);
    l.insert(
        "serve.service.batch_fill".into(),
        completed / (batches.max(1) as f64 * cfg.batch_size.max(1) as f64),
    );
    l.insert(
        "vm.cache.hit_rate".into(),
        cache[0] as f64 / (cache[0] + cache[1]).max(1) as f64,
    );
    l.insert("vm.cache.evictions".into(), cache[2] as f64);
    l.insert(
        "vm.memo.hit_rate".into(),
        memo_hits as f64 / (memo_hits + memo_misses).max(1) as f64,
    );
    l.insert("vm.memo.misses".into(), memo_misses as f64);
    l.insert("vm.memo.coalesced".into(), coalesced as f64);
    l.insert("vm.memo.duplicate_translations".into(), duplicates as f64);

    if run.tracer.on() {
        let tr = translator(&cfg);
        let replay: Vec<layers::Loop<'_>> = loops
            .iter()
            .zip(&pool)
            .map(|(r, (_, trips))| layers::Loop {
                body: &r.body,
                hints: &r.hints,
                trips: *trips,
            })
            .collect();
        // Queue wait: the part of each request's latency not spent on its
        // own translation, with the per-loop cost replayed once per loop.
        let own: u64 = loops
            .iter()
            .map(|r| {
                let t = Instant::now();
                let sym = tr.translate_symbolic(&r.body, &r.hints);
                std::hint::black_box(tr.concretize(&sym, &mut veal::CostMeter::new()));
                nanos(t.elapsed())
            })
            .sum();
        let total: u64 = run.latencies_ns.iter().filter(|&&ns| ns != FAILED).sum();
        let share = 1.0 - (own * pass) as f64 / total.max(1) as f64;
        let replayed = layers::replay(&replay, &tr, &mut rng, opts.smoke);
        run.layers.insert(
            "vm.binfmt.roundtrip_drift".into(),
            layers::roundtrip_drift(&replay),
        );
        run.layers.insert(
            "serve.service.queue_wait_share".into(),
            100.0 * share.max(0.0),
        );
        run.layers.extend(replayed);
        run.require_attribution();
    } else {
        run.layers
            .insert("serve.service.queue_wait_share".into(), 0.0);
    }
    Ok(run)
}
