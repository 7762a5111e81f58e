//! Benchmarks the shipped translator over the full workload suite: host
//! wall time next to the abstract `CostMeter` units.
//!
//! Four measurements:
//!
//! * **per policy** — wall time and `CostMeter` units per loop of a whole
//!   `Translator::translate` under the fully dynamic, height-priority and
//!   static-hint policies (the last with the hints the compiler ships), on
//!   every legalized suite loop (the loops the system simulator
//!   translates), and the dynamic/hinted wall ratio: whether Fig. 8's cost
//!   argument for hints holds in host time, not only in meter units;
//! * **Fig. 8 measured** — the fully dynamic wall-clock share of each
//!   phase next to its meter share, on the legalized suite and on a seeded
//!   pool of synthetic loops shaped like `bench_e2e`'s translate-cold
//!   pool. Each phase kernel is timed in the order `translate` calls it,
//!   and the replay's charges are asserted equal to `translate`'s;
//! * **per phase** — one absolute wall-time row per [`Phase`] on the
//!   legalized suite: the suite replay's rows, plus loops of their own for
//!   the two phases the fully dynamic replay never runs. The hint-decode
//!   loop verifies the shipped hints as the static-hint `translate` does
//!   (charges asserted equal to its own); the concretize loop times the
//!   whole `Translator::concretize` call on prebuilt symbolic
//!   translations, its list scheduling and register assignment included;
//! * **concretize vs translate** — on every raw suite loop, a symbolic
//!   translation concretized at the design point against a direct point
//!   `translate`, the work a family-memo hit pays against a full
//!   retranslation. The outcomes (result, per-phase charges, verdict) are
//!   asserted bit-identical before the pair is timed.
//!
//! `"bit_identical": true` in the report records that both identity checks
//! held: concretize ≡ direct translate, and the phase replays' charges ≡
//! `translate`'s. The absolute numbers compare against the committed
//! `BENCH_translate.json`, measured on the 2-core host EXPERIMENTS.md
//! describes.
//!
//! Results are printed and written to `BENCH_translate.json`. Timing keeps
//! the best of `VEAL_BENCH_PASSES` passes (default 5). Environment knobs
//! for the CI smoke job: `VEAL_BENCH_APPS` truncates the suite, and
//! `VEAL_BENCH_REPS` sets the timed repetitions per loop of the
//! concretize-vs-translate pair (default 5).
//!
//! `--trace-out <path>` records one `translate_start`/`translate_end`
//! event pair per raw suite loop from the concretize-vs-translate
//! validation pass (this bin drives the `Translator` directly, so the
//! events are constructed here rather than by a `VmSession`). Tracing
//! never changes the timed numbers or the bit-identity asserts.

use std::sync::Arc;
use std::time::Instant;
use veal::ir::meter::ALL_PHASES;
use veal::ir::streams::separate;
use veal::ir::{CostMeter, Phase, PhaseBreakdown};
use veal::obs::TranslateStatus;
use veal::sched::{assign_registers, list_schedule, rec_mii, res_mii, swing_order};
use veal::vm::verify::{verify_and_apply_cca, verify_priority};
use veal::vm::{StaticHints, TranslationPolicy, Translator};
use veal::workloads::{synth_loop, SynthSpec};
use veal::{
    compute_hints, legalize, AcceleratorConfig, CcaSpec, Event, JsonlSink, LoopBody, Trace,
    TransformLimits,
};

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Minimum wall-clock nanos over `passes` runs of `f`. Taking the best of N
/// passes filters scheduler/frequency noise out of each sample.
fn min_ns(passes: usize, mut f: impl FnMut()) -> u128 {
    let mut best = u128::MAX;
    for _ in 0..passes {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_nanos());
    }
    best
}

/// One timed policy: JSON key, policy, and whether the loops ship their
/// static hints.
type PolicyArm = (&'static str, fn() -> TranslationPolicy, bool);

/// The translation policies timed end to end on the legalized suite.
const POLICIES: [PolicyArm; 3] = [
    ("fully_dynamic", TranslationPolicy::fully_dynamic, false),
    ("height", TranslationPolicy::fully_dynamic_height, false),
    ("static_hints", TranslationPolicy::static_hints, true),
];

/// Every legalized loop of `apps` (`legalize` + `TransformLimits::default()`,
/// as the system simulator runs them) with the static hints the compiler
/// ships for the paper design.
fn legalized_suite(
    apps: &[veal::workloads::Application],
    config: &AcceleratorConfig,
) -> Vec<(LoopBody, StaticHints)> {
    let limits = TransformLimits::default();
    let spec = CcaSpec::paper();
    apps.iter()
        .flat_map(|a| &a.loops)
        .flat_map(|l| legalize(&l.raw, &limits))
        .map(|part| {
            let hints = compute_hints(&part.body, config, Some(&spec));
            (part.body, hints)
        })
        .collect()
}

/// `n` distinct seeded synthetic loops of 4–32 compute ops, with the shape
/// mix of the serving load generator: the population of `bench_e2e`'s
/// translate-cold pool beyond its suite loops.
fn synthetic_pool(n: usize) -> Vec<LoopBody> {
    let mut rng = veal::ir::rng::Rng64::new(0x5EED_F168);
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let body = synth_loop(&SynthSpec {
            seed: rng.next_u64(),
            compute_ops: rng.gen_range(4, 33),
            fp_frac: [0.0, 0.4, 0.8][rng.gen_range(0, 3)],
            loads: rng.gen_range(1, 5),
            stores: rng.gen_range(1, 3),
            recurrences: rng.gen_range(0, 3),
            rec_distance: rng.gen_range(1, 4) as u32,
        });
        if seen.insert(body.content_hash()) {
            out.push(body);
        }
    }
    out
}

/// Adds the wall time of each phase kernel of one fully dynamic
/// translation of `body` to `wall`, calling the kernels in the order and
/// with the inputs `Translator::translate` gives them, and returns the
/// charges they made (asserted equal to `translate`'s by the caller).
/// Loop identification has no kernel of its own — the translator charges
/// it as a constant — so its wall share is zero by construction.
fn dynamic_phase_walls(
    body: &LoopBody,
    config: &AcceleratorConfig,
    spec: &CcaSpec,
    wall: &mut [u128; 10],
) -> PhaseBreakdown {
    let mut m = CostMeter::new();
    m.charge(Phase::LoopIdent, body.dfg.len() as u64 + 8);
    let mut clock = |p: Phase, t: Instant| wall[p as usize] += t.elapsed().as_nanos();
    let t = Instant::now();
    let sep = separate(&body.dfg, &mut m);
    clock(Phase::StreamSep, t);
    let Ok(sep) = sep else {
        return *m.breakdown();
    };
    let summary = sep.summary();
    let mut dfg = sep.dfg;
    let t = Instant::now();
    veal::cca::map_cca(&mut dfg, spec, &mut m);
    clock(Phase::CcaMapping, t);
    if config.check_streams(summary).is_err() {
        return *m.breakdown();
    }
    let t = Instant::now();
    let res = res_mii(&dfg, config, summary, &mut m);
    clock(Phase::ResMii, t);
    let t = Instant::now();
    let rec = rec_mii(&dfg, &config.latencies, &mut m);
    clock(Phase::RecMii, t);
    let mii = res.max(rec);
    if mii > config.max_ii {
        return *m.breakdown();
    }
    let t = Instant::now();
    let order = swing_order(&dfg, &config.latencies, mii, &mut m);
    clock(Phase::Priority, t);
    // The same register-pressure retry loop as `modulo_schedule`.
    let mut ii = mii;
    for _ in 0..8 {
        let t = Instant::now();
        let sched = list_schedule(&dfg, config, &order, ii, summary, &mut m);
        clock(Phase::Scheduling, t);
        let Ok(sched) = sched else { break };
        let t = Instant::now();
        let regs = assign_registers(&dfg, &sched, config, &mut m);
        clock(Phase::RegAssign, t);
        if regs.is_ok() || sched.ii >= config.max_ii {
            break;
        }
        ii = sched.ii + 1;
    }
    *m.breakdown()
}

/// One population's fully dynamic phase replay, indexed by
/// `Phase as usize`: each phase's best whole-population wall time over the
/// passes, and the meter units it charged.
struct Replay {
    wall_ns: [u128; 10],
    units: [u64; 10],
}

impl Replay {
    /// Replays every loop of `bodies` phase by phase, asserting each
    /// replay's charges equal a fully dynamic `translate`'s, and keeps each
    /// phase's best total over `passes` whole passes. No phase keeps state
    /// between calls, so every pass times what a first translation does.
    fn run(bodies: &[&LoopBody], translator: &Translator, passes: usize) -> Replay {
        let config = translator.config();
        let spec = CcaSpec::paper();
        let mut units = [0u64; 10];
        for body in bodies {
            let want = translator.translate(body, &StaticHints::none()).breakdown;
            let got = dynamic_phase_walls(body, config, &spec, &mut [0; 10]);
            assert_eq!(want, got, "{}: phase replay charges diverged", body.name);
            for &p in ALL_PHASES {
                units[p as usize] += got.get(p);
            }
        }
        let mut wall_ns = [u128::MAX; 10];
        for _ in 0..passes {
            let mut wall = [0u128; 10];
            for body in bodies {
                dynamic_phase_walls(body, config, &spec, &mut wall);
            }
            for (b, w) in wall_ns.iter_mut().zip(wall) {
                *b = (*b).min(w);
            }
        }
        Replay { wall_ns, units }
    }

    /// Wall-clock share per phase against the meter's share:
    /// `(phase, wall %, unit %)` in [`ALL_PHASES`] order.
    fn shares(&self) -> Vec<(Phase, f64, f64)> {
        let wall_total: u128 = self.wall_ns.iter().sum();
        let unit_total: u64 = self.units.iter().sum();
        ALL_PHASES
            .iter()
            .map(|&p| {
                let i = p as usize;
                (
                    p,
                    100.0 * self.wall_ns[i] as f64 / wall_total.max(1) as f64,
                    100.0 * self.units[i] as f64 / unit_total.max(1) as f64,
                )
            })
            .collect()
    }
}

/// Adds the wall time of the hint-decode kernels of one static-hint
/// translation of `body` to `wall` — CCA hint verification and collapse,
/// then priority verification, on the graphs `Translator::translate` gives
/// them — and returns what the phase charged. A CCA hint that fails
/// verification sends `translate` to the dynamic mapper, which runs here
/// untimed so the order is checked against the same graph.
fn hint_decode_wall(
    body: &LoopBody,
    hints: &StaticHints,
    config: &AcceleratorConfig,
    spec: &CcaSpec,
    wall: &mut u128,
) -> u64 {
    let Ok(sep) = separate(&body.dfg, &mut CostMeter::new()) else {
        return 0;
    };
    let summary = sep.summary();
    let mut dfg = sep.dfg;
    let mut m = CostMeter::new();
    if let Some(groups) = &hints.cca_groups {
        let t = Instant::now();
        let ok = verify_and_apply_cca(&mut dfg, spec, groups, &mut m).is_ok();
        *wall += t.elapsed().as_nanos();
        if !ok {
            veal::cca::map_cca(&mut dfg, spec, &mut CostMeter::new());
        }
    }
    let Some(order) = &hints.priority else {
        return m.breakdown().get(Phase::HintDecode);
    };
    let t = Instant::now();
    let verified = verify_priority(&dfg, order, &mut m).is_ok();
    *wall += t.elapsed().as_nanos();
    // Once the loop passes its capability and MII checks, the scheduler
    // charges one pass over the graph for taking the verified order; there
    // is no kernel to time.
    if verified && config.check_streams(summary).is_ok() {
        let mut untimed = CostMeter::new();
        let mii = res_mii(&dfg, config, summary, &mut untimed).max(rec_mii(
            &dfg,
            &config.latencies,
            &mut untimed,
        ));
        if mii <= config.max_ii {
            m.charge(Phase::HintDecode, dfg.len() as u64);
        }
    }
    m.breakdown().get(Phase::HintDecode)
}

/// The `fig8_wall_share` JSON object for one population.
fn shares_json(loops: usize, shares: &[(Phase, f64, f64)]) -> String {
    let rows: Vec<String> = shares
        .iter()
        .map(|(p, w, u)| {
            format!(
                "        \"{}\": {{ \"wall_pct\": {w:.2}, \"unit_pct\": {u:.2} }}",
                p.name()
            )
        })
        .collect();
    format!(
        "{{\n      \"loops\": {loops},\n      \"phases\": {{\n{}\n      }}\n    }}",
        rows.join(",\n")
    )
}

/// Parses `--trace-out <path>` from argv; `None` when absent.
fn trace_out_arg() -> Option<std::path::PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--trace-out" {
            match args.next() {
                Some(p) => return Some(p.into()),
                None => {
                    eprintln!("bench_translate: --trace-out requires a path");
                    std::process::exit(2);
                }
            }
        }
    }
    None
}

/// The schedule, control size and CCA counts of a translation, or its
/// error: what must match between a direct and a concretized translation.
fn signature(r: &Result<veal::vm::TranslatedLoop, veal::vm::TranslationError>) -> String {
    match r {
        Ok(t) => format!(
            "{}|{}|{}|{}",
            t.scheduled.schedule, t.control_words, t.cca_groups, t.accel_ops
        ),
        Err(e) => format!("ERR {e}"),
    }
}

fn main() {
    let trace = match trace_out_arg() {
        Some(path) => match JsonlSink::create(&path) {
            Ok(sink) => {
                println!("tracing to {}", path.display());
                Trace::new(Arc::new(sink))
            }
            Err(e) => {
                eprintln!("bench_translate: cannot create {}: {e}", path.display());
                std::process::exit(1);
            }
        },
        None => Trace::null(),
    };
    let mut apps = veal::workloads::full_suite();
    let max_apps = env_usize("VEAL_BENCH_APPS", usize::MAX);
    apps.truncate(max_apps);
    let reps = env_usize("VEAL_BENCH_REPS", 5).max(1) as u32;
    let passes = env_usize("VEAL_BENCH_PASSES", 5).max(1);
    let config = AcceleratorConfig::paper_design();
    let spec = CcaSpec::paper();
    let none = StaticHints::none();
    let dynamic = Translator::new(
        config.clone(),
        Some(spec.clone()),
        TranslationPolicy::fully_dynamic(),
    );
    let bodies: Vec<&LoopBody> = apps
        .iter()
        .flat_map(|a| a.loops.iter().map(|l| &l.raw.body))
        .collect();
    let suite = legalized_suite(&apps, &config);
    println!(
        "bench_translate: {} apps, {} raw / {} legalized loops, best of {passes} passes",
        apps.len(),
        bodies.len(),
        suite.len()
    );

    // --- symbolic concretize vs direct translate -------------------------
    // The family-memoization differential: one symbolic translation per
    // raw suite loop, concretized at the design point, must be
    // bit-identical to a direct point translation — result, per-phase
    // charges, verdict. The timing pair is the full pipeline (what a
    // family hit would otherwise recompute) against concretization alone.
    let (mut translate_ns, mut concretize_ns) = (0u128, 0u128);
    for (key, body) in bodies.iter().enumerate() {
        let key = key as u64;
        trace.emit(|| Event::TranslateStart {
            key,
            loop_hash: body.content_hash(),
        });
        let direct = dynamic.translate(body, &none);
        trace.emit(|| Event::TranslateEnd {
            key,
            status: if direct.result.is_ok() {
                TranslateStatus::Mapped
            } else {
                TranslateStatus::Failed
            },
            units: direct.breakdown.total(),
            checks: 0,
            degraded: false,
            breakdown: direct.breakdown,
        });
        let sym = dynamic.translate_symbolic(body, &none);
        let conc = dynamic.concretize(&sym, &mut CostMeter::new());
        assert_eq!(
            direct.breakdown, conc.breakdown,
            "{}: concretize breakdown diverged",
            body.name
        );
        assert_eq!(
            direct.verdict, conc.verdict,
            "{}: concretize verdict diverged",
            body.name
        );
        assert_eq!(
            signature(&direct.result),
            signature(&conc.result),
            "{}: concretize result diverged",
            body.name
        );
        translate_ns += min_ns(passes, || {
            for _ in 0..reps {
                std::hint::black_box(dynamic.translate(body, &none));
            }
        });
        concretize_ns += min_ns(passes, || {
            for _ in 0..reps {
                let mut cm = CostMeter::new();
                std::hint::black_box(dynamic.concretize(&sym, &mut cm));
            }
        });
    }
    let concretize_speedup = translate_ns as f64 / concretize_ns.max(1) as f64;

    // --- translation wall time per policy --------------------------------
    // The paper's case for static hints is a cost argument (Fig. 8); the
    // meter gives the units, this section the host wall time of the same
    // translations. Every legalized suite loop is translated under each
    // policy; a timed pass covers the whole suite, passes interleave the
    // policies, and each policy keeps its best pass.
    let translators: Vec<(bool, Translator)> = POLICIES
        .iter()
        .map(|&(_, policy, hinted)| {
            let tr = Translator::new(config.clone(), Some(spec.clone()), policy());
            (hinted, tr)
        })
        .collect();
    let mut policy_units = [0u64; POLICIES.len()];
    for (k, (hinted, tr)) in translators.iter().enumerate() {
        for (body, hints) in &suite {
            policy_units[k] += tr
                .translate(body, if *hinted { hints } else { &none })
                .cost();
        }
    }
    let mut policy_ns = [u128::MAX; POLICIES.len()];
    for _ in 0..passes {
        for (k, (hinted, tr)) in translators.iter().enumerate() {
            let ns = min_ns(1, || {
                for (body, hints) in &suite {
                    std::hint::black_box(tr.translate(body, if *hinted { hints } else { &none }));
                }
            });
            policy_ns[k] = policy_ns[k].min(ns);
        }
    }
    let n_suite = suite.len().max(1);
    let wall_us = |k: usize| policy_ns[k] as f64 / 1e3 / n_suite as f64;
    let units_per = |k: usize| policy_units[k] as f64 / n_suite as f64;
    let hinted = POLICIES.len() - 1;
    let hint_wall_ratio = wall_us(0) / wall_us(hinted).max(1e-9);
    let hint_unit_ratio = units_per(0) / units_per(hinted).max(1e-9);

    // --- Fig. 8 measured, and one wall-time row per phase ----------------
    let suite_bodies: Vec<&LoopBody> = suite.iter().map(|(b, _)| b).collect();
    let synthetic = synthetic_pool(512);
    let synth_bodies: Vec<&LoopBody> = synthetic.iter().collect();
    let suite_replay = Replay::run(&suite_bodies, &dynamic, passes);
    let synth_replay = Replay::run(&synth_bodies, &dynamic, passes);
    let mut phase_ns = suite_replay.wall_ns;
    // Hint decoding: the shipped hints, verified as the static-hint
    // translator verifies them.
    let (_, hinted_tr) = &translators[hinted];
    for (body, hints) in &suite {
        assert_eq!(
            hint_decode_wall(body, hints, &config, &spec, &mut 0),
            hinted_tr
                .translate(body, hints)
                .breakdown
                .get(Phase::HintDecode),
            "{}: hint-decode replay charges diverged",
            body.name
        );
    }
    phase_ns[Phase::HintDecode as usize] = (0..passes)
        .map(|_| {
            let mut wall = 0u128;
            for (body, hints) in &suite {
                hint_decode_wall(body, hints, &config, &spec, &mut wall);
            }
            wall
        })
        .min()
        .unwrap_or(0);
    // Concretize: the whole call, on prebuilt fully dynamic symbolic
    // translations.
    let syms: Vec<_> = suite_bodies
        .iter()
        .map(|b| dynamic.translate_symbolic(b, &none))
        .collect();
    phase_ns[Phase::Concretize as usize] = min_ns(passes, || {
        for sym in &syms {
            let mut cm = CostMeter::new();
            std::hint::black_box(dynamic.concretize(sym, &mut cm));
        }
    });
    let suite_shares = suite_replay.shares();
    let synth_shares = synth_replay.shares();

    let ms = |ns: u128| ns as f64 / 1e6;
    println!(
        "wall time per phase ({} legalized suite loops):",
        suite.len()
    );
    for &p in ALL_PHASES {
        let ns = phase_ns[p as usize];
        println!(
            "  {:<12} : {:>8.3} ms  {:>8.2} us/loop",
            p.name(),
            ms(ns),
            ns as f64 / 1e3 / n_suite as f64
        );
    }
    println!(
        "concretize vs translate ({} raw suite loops, {reps} reps): {:.3} ms vs {:.3} ms ({concretize_speedup:.2}x)",
        bodies.len(),
        ms(concretize_ns),
        ms(translate_ns)
    );
    println!("outputs          : concretize and phase replays bit-identical to translate");
    println!(
        "translate per policy ({} legalized suite loops):",
        suite.len()
    );
    for (k, (name, _, _)) in POLICIES.iter().enumerate() {
        println!(
            "  {name:<14} : {:>8.1} us/loop  {:>8.0} units/loop",
            wall_us(k),
            units_per(k)
        );
    }
    println!("  dynamic/hinted : {hint_wall_ratio:.2}x wall, {hint_unit_ratio:.2}x units");
    println!("fully dynamic wall share per phase (suite | synthetic pool; meter share):");
    for (s, y) in suite_shares.iter().zip(&synth_shares) {
        println!(
            "  {:<12} : {:>5.1}% | {:>5.1}%   (meter {:>5.1}% | {:>5.1}%)",
            s.0.name(),
            s.1,
            y.1,
            s.2,
            y.2
        );
    }

    let phase_rows: Vec<String> = ALL_PHASES
        .iter()
        .map(|&p| {
            let ns = phase_ns[p as usize];
            format!(
                "      \"{}\": {{ \"ms\": {:.3}, \"us_per_loop\": {:.2} }}",
                p.name(),
                ms(ns),
                ns as f64 / 1e3 / n_suite as f64
            )
        })
        .collect();
    let policy_rows: Vec<String> = POLICIES
        .iter()
        .enumerate()
        .map(|(k, (name, _, _))| {
            format!(
                "    \"{name}\": {{ \"wall_us_per_loop\": {:.2}, \"units_per_loop\": {:.1} }}",
                wall_us(k),
                units_per(k)
            )
        })
        .collect();
    let policies_json = format!(
        "{{\n    \"loops\": {},\n    \"passes\": {passes},\n{},\n    \
         \"dynamic_hinted_wall_ratio\": {hint_wall_ratio:.3},\n    \
         \"dynamic_hinted_units_ratio\": {hint_unit_ratio:.3}\n  }}",
        suite.len(),
        policy_rows.join(",\n")
    );
    let json = format!(
        "{{\n  \"suite\": \"full\",\n  \"apps\": {},\n  \"passes\": {passes},\n  \
         \"phase_wall\": {{\n    \"loops\": {},\n    \"phases\": {{\n{}\n    }}\n  }},\n  \
         \"concretize_vs_translate\": {{\n    \"loops\": {},\n    \"reps_per_loop\": {reps},\n    \
         \"translate_ms\": {:.3},\n    \"concretize_ms\": {:.3},\n    \
         \"speedup\": {concretize_speedup:.3}\n  }},\n  \
         \"policies\": {},\n  \
         \"fig8_wall_share\": {{\n    \"suite\": {},\n    \"synthetic\": {}\n  }},\n  \
         \"bit_identical\": true\n}}\n",
        apps.len(),
        suite.len(),
        phase_rows.join(",\n"),
        bodies.len(),
        ms(translate_ns),
        ms(concretize_ns),
        policies_json,
        shares_json(suite.len(), &suite_shares),
        shares_json(synthetic.len(), &synth_shares),
    );
    if let Err(e) = std::fs::write("BENCH_translate.json", json) {
        eprintln!("bench_translate: failed to write BENCH_translate.json: {e}");
        std::process::exit(1);
    }
    println!("wrote BENCH_translate.json");
    if let Err(e) = trace.flush() {
        eprintln!("bench_translate: failed to flush trace: {e}");
        std::process::exit(1);
    }
}
