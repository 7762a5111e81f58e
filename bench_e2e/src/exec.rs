//! `exec-steady`: loops executed on the host through one `VmSession`
//! (paper design, static hints shipped), each request an
//! `invoke_executable` plus a lane-vectorized run at the loop's suite trip
//! count, checked against an interpreter golden.
//!
//! The working set is kept inside the 16-entry code and exec caches on
//! purpose: cycling every executable suite loop through them would miss on
//! every call and recompile. Instead the seed permutes all executable loops
//! into hot sets of 16; the window visits the hot sets in turn, warming
//! each (unmeasured) and then measuring a fixed number of rounds over it,
//! and ends on a whole cycle of hot sets. Every loop is therefore measured
//! equally often whatever the seed, so the metrics do not hinge on which 16
//! loops one seed would have drawn.

use crate::gen::{shuffle, suite_loops, StreamFp};
use crate::layers;
use crate::run::{nanos, Opts, Run};
use std::time::{Duration, Instant};
use veal::ir::interp::{interpret, Inputs};
use veal::ir::rng::Rng64;
use veal::vm::{StaticHints, TranslationPolicy, Translator};
use veal::workloads::{fixture_inputs, fold_checksum};
use veal::{compute_hints, AcceleratorConfig, CcaSpec, LoopBody, VmSession, DEFAULT_LANES};

/// Loops per hot set: the capacity of the session's code and exec caches.
const HOT: usize = 16;
/// Measured rounds over a hot set per visit.
const ROUNDS: usize = 8;

struct ExecLoop {
    key: u64,
    body: LoopBody,
    hints: StaticHints,
    inputs: Inputs,
    trips: u64,
    /// `fold_checksum` of the reference interpreter's result.
    golden: u64,
}

fn translator() -> Translator {
    Translator::new(
        AcceleratorConfig::paper_design(),
        Some(CcaSpec::paper()),
        TranslationPolicy::static_hints(),
    )
}

pub fn exec_steady(opts: Opts) -> Result<Run, String> {
    let mut run = Run::new("exec-steady", opts);
    let config = AcceleratorConfig::paper_design();
    let cca = CcaSpec::paper();
    // Every suite loop the interpreter can run, with its golden checksum.
    let loops: Vec<ExecLoop> = suite_loops()
        .into_iter()
        .enumerate()
        .filter_map(|(i, l)| {
            let inputs = fixture_inputs(&l.body);
            let golden = fold_checksum(&interpret(&l.body.dfg, l.trips, &inputs).ok()?);
            Some(ExecLoop {
                key: i as u64,
                hints: compute_hints(&l.body, &config, Some(&cca)),
                body: l.body,
                inputs,
                trips: l.trips,
                golden,
            })
        })
        .collect();
    let mut rng = Rng64::new(opts.seed);
    let mut order: Vec<usize> = (0..loops.len()).collect();
    shuffle(&mut rng, &mut order);
    let hot_sets: Vec<&[usize]> = order.chunks(HOT).collect();
    let mut fp = StreamFp::default();
    for &i in &order {
        let l = &loops[i];
        fp.add(0, l.key, &l.body, &l.hints, l.trips);
    }
    run.stream_fp = fp.finish();

    // Set-up: a session, then a cold pass translating and compiling every
    // loop once.
    let mut session = None;
    while opts.more_setups(&run.setups_s) {
        let t0 = Instant::now();
        let mut s = VmSession::new(translator());
        for l in &loops {
            if s.invoke_executable(l.key, &l.body, &l.hints).is_none() {
                return Err(format!(
                    "{}: LoopVM refused an interpretable loop",
                    l.body.name
                ));
            }
        }
        run.setups_s.push(t0.elapsed().as_secs_f64());
        session = Some(s);
    }
    let mut session = session.expect("at least one set-up");

    let start = Instant::now();
    let window = Duration::from_secs_f64(opts.seconds);
    let mut prev = start;
    let mut id = 0u64;
    let rounds = if opts.smoke { 2 } else { ROUNDS };
    'window: loop {
        let mut busy_ns = 0u64;
        for hot in &hot_sets {
            for &i in *hot {
                let l = &loops[i];
                session.invoke_executable(l.key, &l.body, &l.hints);
            }
            let units0 = session.stats().translation_units;
            let t_set = Instant::now();
            for _ in 0..rounds {
                for &i in *hot {
                    let l = &loops[i];
                    let t0 = Instant::now();
                    run.lags_ns.push(nanos(t0.saturating_duration_since(prev)));
                    let tr = &mut run.tracer;
                    let root = tr.open("bench.request", id, None, t0);
                    let exe = tr.time("vm.session.invoke_executable", id, root, || {
                        session.invoke_executable(l.key, &l.body, &l.hints)
                    });
                    let out = exe.map(|exe| {
                        tr.time("exec.run_lanes", id, root, || {
                            exe.run_lanes(l.trips, &l.inputs, DEFAULT_LANES)
                        })
                    });
                    let t1 = Instant::now();
                    tr.close(root, t1);
                    run.attempted += 1;
                    id += 1;
                    match out.map(|o| fold_checksum(&o)) {
                        Some(sum) if sum == l.golden => run.latencies_ns.push(nanos(t1 - t0)),
                        got => {
                            run.fail();
                            run.gate(format!(
                                "{}: checksum {got:?} differs from the interpreter's {:#018x}",
                                l.body.name, l.golden
                            ));
                        }
                    }
                    prev = Instant::now();
                }
            }
            busy_ns += nanos(t_set.elapsed());
            run.units += session.stats().translation_units - units0;
        }
        // One segment per cycle over every hot set.
        run.end_segment(busy_ns as f64 / 1e9);
        if start.elapsed() >= window {
            break 'window;
        }
    }

    let l = &mut run.layers;
    for zero in [
        "serve.net.frames",
        "serve.net.decode_rejects",
        "serve.net.fatal_closes",
        "serve.wire.bytes_in_per_req",
        "serve.wire.bytes_out_per_req",
        "vm.binfmt.modules",
        "serve.service.shed",
        "serve.service.batches",
        "serve.service.batch_fill",
        "serve.service.queue_wait_share",
        "vm.memo.hit_rate",
        "vm.memo.misses",
        "vm.memo.coalesced",
        "vm.memo.duplicate_translations",
    ] {
        l.insert(zero.into(), 0.0);
    }
    let cache = session.cache_stats();
    l.insert("vm.cache.hit_rate".into(), cache.hit_rate());
    l.insert("vm.cache.evictions".into(), cache.evictions as f64);
    l.insert(
        "exec.cache_hit_rate".into(),
        session.exec_cache_stats().hit_rate(),
    );
    if run.tracer.on() {
        let replay: Vec<layers::Loop<'_>> = loops
            .iter()
            .map(|l| layers::Loop {
                body: &l.body,
                hints: &l.hints,
                trips: l.trips,
            })
            .collect();
        let replayed = layers::replay(&replay, &translator(), &mut rng, opts.smoke);
        run.layers.insert(
            "vm.binfmt.roundtrip_drift".into(),
            layers::roundtrip_drift(&replay),
        );
        run.layers.extend(replayed);
        run.require_attribution();
    }
    Ok(run)
}
