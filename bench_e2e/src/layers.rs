//! Layer replay for the traced run: a seeded sample of the workload's
//! distinct loops goes through each layer's public functions one call at a
//! time, so every layer reports its unit cost on this workload's inputs —
//! including layers the workload's own path bypasses, which the README
//! lists as predicted flat.
//!
//! The `vm.translate.*` phase rows time the public kernel of each phase in
//! the order `Translator::translate` calls them, and set the wall-clock
//! share of each phase against its `CostMeter` share (the paper's Fig. 8
//! model). Loop identification has no kernel of its own — the translator
//! charges it as a constant — so its wall share is zero by construction.

use crate::run::nanos;
use crate::stats::percentile;
use std::collections::BTreeMap;
use std::time::Instant;
use veal::ir::meter::ALL_PHASES;
use veal::ir::rng::Rng64;
use veal::ir::streams::separate;
use veal::ir::{CostMeter, Phase};
use veal::sched::{
    assign_registers, height_order, list_schedule, rec_mii, res_mii, swing_order, PriorityKind,
};
use veal::serve::wire::{decode_frame, encode_frame, FrameStatus, WireFrame, MAX_FRAME_LEN};
use veal::vm::verify::{verify_and_apply_cca, verify_priority};
use veal::vm::{
    decode_module, decode_translated_loop, encode_module, encode_translated_loop, BinaryModule,
    EncodedLoop, StaticHints, Translator,
};
use veal::workloads::fixture_inputs;
use veal::{ExecutableLoop, LoopBody, DEFAULT_LANES};

/// Distinct loops sampled from the workload.
const SAMPLE: usize = 256;
/// Calls per timed operation, so `call_us_p99` clears its 1000-sample floor.
const CALLS: usize = 1000;

/// One distinct loop of the workload, with the trip count it runs at.
pub struct Loop<'a> {
    pub body: &'a LoopBody,
    pub hints: &'a StaticHints,
    pub trips: u64,
}

/// Packs one loop and its hints as a single-loop module, as a client ships
/// it.
pub fn pack_module(body: &LoopBody, hints: &StaticHints) -> Vec<u8> {
    encode_module(&BinaryModule {
        loops: vec![EncodedLoop {
            body: body.clone(),
            priority_hint: hints.priority.clone(),
            cca_hint: hints.cca_groups.clone(),
            family_hint: None,
        }],
    })
}

/// How many of `loops` come back from `encode_module` + `decode_module`
/// with a different content hash: module codec fidelity on this workload's
/// inputs.
pub fn roundtrip_drift(loops: &[Loop<'_>]) -> f64 {
    loops
        .iter()
        .filter(|l| {
            decode_module(&pack_module(l.body, l.hints)).map_or(true, |m| {
                m.loops.first().map(|d| d.body.dfg.content_hash())
                    != Some(l.body.dfg.content_hash())
            })
        })
        .count() as f64
}

/// The metric name of one phase's `what`.
fn phase_metric(p: Phase, what: &str) -> String {
    format!("vm.translate.{}.{what}", p.name())
}

/// Replays `loops` through every layer and returns the per-layer metrics.
pub fn replay(
    loops: &[Loop<'_>],
    translator: &Translator,
    rng: &mut Rng64,
    smoke: bool,
) -> BTreeMap<String, f64> {
    let mut idx: Vec<usize> = (0..loops.len()).collect();
    crate::gen::shuffle(rng, &mut idx);
    idx.truncate(if smoke { 16 } else { SAMPLE });
    let calls = if smoke { 16 } else { CALLS };
    let rounds = calls.div_ceil(idx.len().max(1));

    let config = translator.config();
    let mut wire_enc = (0u64, 0u64);
    let mut wire_dec = (0u64, 0u64);
    let mut module_dec = (0u64, 0u64);
    let mut snap_enc = (0u64, 0u64);
    let mut snap_dec = (0u64, 0u64);
    let mut compile = (0u64, 0u64);
    let mut run_ns = 0u64;
    let mut run_iters = 0u64;
    let (mut serial, mut vector) = (0usize, 0usize);
    let mut translate_ns: Vec<f64> = Vec::new();
    let mut wall = [0u64; 10];
    let mut units = [0u64; 10];
    let mut translations = 0u64;

    let timed = |acc: &mut (u64, u64), f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        acc.0 += nanos(t.elapsed());
        acc.1 += 1;
    };

    for _ in 0..rounds {
        for &i in &idx {
            let l = &loops[i];
            // Front door: the request frame and the module inside it.
            let module = pack_module(l.body, l.hints);
            let mut frame = Vec::new();
            timed(&mut wire_enc, &mut || {
                frame = encode_frame(&WireFrame::ReqModule {
                    seq: 0,
                    key: 0,
                    module: module.clone(),
                });
            });
            timed(&mut wire_dec, &mut || {
                std::hint::black_box(decode_frame(&frame, MAX_FRAME_LEN));
            });
            timed(&mut module_dec, &mut || {
                std::hint::black_box(decode_module(&module).is_ok());
            });

            // Whole translation, then the same pipeline phase by phase.
            let t = Instant::now();
            let outcome = translator.translate(l.body, l.hints);
            translate_ns.push(nanos(t.elapsed()) as f64);
            translations += 1;
            for &p in ALL_PHASES {
                units[p as usize] += outcome.breakdown.get(p);
            }
            phase_walls(l.body, l.hints, translator, &mut wall);
            let sym = translator.translate_symbolic(l.body, l.hints);
            let mut cm = CostMeter::new();
            let t = Instant::now();
            std::hint::black_box(translator.concretize(&sym, &mut cm));
            wall[Phase::Concretize as usize] += nanos(t.elapsed());
            units[Phase::Concretize as usize] += cm.breakdown().get(Phase::Concretize);

            // Response: snapshot codec and the outcome frame.
            if let Ok(t) = &outcome.result {
                let mut bytes = Vec::new();
                timed(&mut snap_enc, &mut || {
                    bytes = encode_translated_loop(t).expect("a translated loop encodes");
                });
                timed(&mut snap_dec, &mut || {
                    std::hint::black_box(decode_translated_loop(&bytes, config).is_ok());
                });
                let mut frame = Vec::new();
                timed(&mut wire_enc, &mut || {
                    frame = encode_frame(&WireFrame::Outcome {
                        seq: 0,
                        key: 0,
                        translation_cycles: outcome.breakdown.total(),
                        translated: Some(bytes.clone()),
                    });
                });
                timed(&mut wire_dec, &mut || {
                    let ok = matches!(
                        decode_frame(&frame, MAX_FRAME_LEN),
                        FrameStatus::Frame { .. }
                    );
                    std::hint::black_box(ok);
                });
            }

            // Host execution of the same loop.
            let schedule = outcome.result.as_ref().ok().map(|t| &t.scheduled.schedule);
            let mut exe = None;
            timed(&mut compile, &mut || {
                exe = ExecutableLoop::compile(&l.body.dfg, schedule).ok();
            });
            if let Some(exe) = exe {
                let (s, v) = exe.lane_stats();
                serial += s;
                vector += v;
                let inputs = fixture_inputs(l.body);
                let t = Instant::now();
                std::hint::black_box(exe.run_lanes(l.trips, &inputs, DEFAULT_LANES));
                run_ns += nanos(t.elapsed());
                run_iters += l.trips;
            }
        }
    }

    let mean_us = |(ns, n): (u64, u64)| ns as f64 / 1e3 / n.max(1) as f64;
    let mut out = BTreeMap::new();
    out.insert("serve.wire.encode_us".into(), mean_us(wire_enc));
    out.insert("serve.wire.decode_us".into(), mean_us(wire_dec));
    out.insert("vm.binfmt.decode_module_us".into(), mean_us(module_dec));
    out.insert("vm.snapshot.encode_us".into(), mean_us(snap_enc));
    out.insert("vm.snapshot.verify_us".into(), mean_us(snap_dec));
    out.insert("exec.compile_us".into(), mean_us(compile));
    out.insert(
        "exec.run_ns_per_iter".into(),
        run_ns as f64 / run_iters.max(1) as f64,
    );
    out.insert(
        "exec.vector_share".into(),
        vector as f64 / (serial + vector).max(1) as f64,
    );
    translate_ns.sort_by(f64::total_cmp);
    let pick = |q| {
        percentile(&translate_ns, q)
            .or_else(|| translate_ns.last().copied())
            .unwrap_or(0.0)
    };
    out.insert("vm.translate.call_us_p50".into(), pick(0.50) / 1e3);
    out.insert("vm.translate.call_us_p99".into(), pick(0.99) / 1e3);
    let wall_total: u64 = wall.iter().sum();
    let unit_total: u64 = units.iter().sum();
    for &p in ALL_PHASES {
        let i = p as usize;
        let wall_pct = 100.0 * wall[i] as f64 / wall_total.max(1) as f64;
        let unit_pct = 100.0 * units[i] as f64 / unit_total.max(1) as f64;
        out.insert(
            phase_metric(p, "units"),
            units[i] as f64 / translations.max(1) as f64,
        );
        out.insert(phase_metric(p, "wall_pct"), wall_pct);
        out.insert(phase_metric(p, "share_gap_pp"), wall_pct - unit_pct);
    }
    out
}

/// Adds the wall time of each phase kernel of one translation to `wall`,
/// calling the kernels in the order and with the inputs
/// `Translator::translate` gives them.
fn phase_walls(body: &LoopBody, hints: &StaticHints, tr: &Translator, wall: &mut [u64; 10]) {
    let config = tr.config();
    let policy = tr.policy();
    let mut m = CostMeter::new();
    let mut clock = |p: Phase, t: Instant| wall[p as usize] += nanos(t.elapsed());

    let t = Instant::now();
    let sep = separate(&body.dfg, &mut m);
    clock(Phase::StreamSep, t);
    let Ok(sep) = sep else { return };
    let summary = sep.summary();
    let mut dfg = sep.dfg;
    if let Some(spec) = tr.cca() {
        let hinted = policy
            .static_cca
            .then_some(hints.cca_groups.as_ref())
            .flatten();
        match hinted {
            Some(groups) => {
                let t = Instant::now();
                let applied = verify_and_apply_cca(&mut dfg, spec, groups, &mut m);
                clock(Phase::HintDecode, t);
                if applied.is_err() {
                    let t = Instant::now();
                    veal::cca::map_cca(&mut dfg, spec, &mut m);
                    clock(Phase::CcaMapping, t);
                }
            }
            // A static policy without CCA hints leaves the CCA idle.
            None if policy.static_cca => {}
            None => {
                let t = Instant::now();
                veal::cca::map_cca(&mut dfg, spec, &mut m);
                clock(Phase::CcaMapping, t);
            }
        }
    }
    let mut static_order = None;
    if let (true, Some(order)) = (policy.static_priority, &hints.priority) {
        let t = Instant::now();
        let ok = verify_priority(&dfg, order, &mut m).is_ok();
        clock(Phase::HintDecode, t);
        static_order = ok.then(|| order.clone());
    }
    if config.check_streams(summary).is_err() {
        return;
    }
    let t = Instant::now();
    let res = res_mii(&dfg, config, summary, &mut m);
    clock(Phase::ResMii, t);
    let t = Instant::now();
    let rec = rec_mii(&dfg, &config.latencies, &mut m);
    clock(Phase::RecMii, t);
    let mii = res.max(rec);
    if mii > config.max_ii {
        return;
    }
    let order = match static_order {
        Some(order) => order,
        None => {
            let t = Instant::now();
            let order = match policy.priority {
                PriorityKind::Swing => swing_order(&dfg, &config.latencies, mii, &mut m),
                PriorityKind::Height => height_order(&dfg, &config.latencies, &mut m),
            };
            clock(Phase::Priority, t);
            order
        }
    };
    // The same register-pressure retry loop as `modulo_schedule`.
    let mut ii = mii;
    for _ in 0..8 {
        let t = Instant::now();
        let sched = list_schedule(&dfg, config, &order, ii, summary, &mut m);
        clock(Phase::Scheduling, t);
        let Ok(sched) = sched else { return };
        let t = Instant::now();
        let regs = assign_registers(&dfg, &sched, config, &mut m);
        clock(Phase::RegAssign, t);
        if regs.is_ok() || sched.ii >= config.max_ii {
            return;
        }
        ii = sched.ii + 1;
    }
}
