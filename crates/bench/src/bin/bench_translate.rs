//! Benchmarks the translation hot kernel, old vs new, over every loop of
//! the full workload suite.
//!
//! The **old kernel** is the pre-optimization implementation, retained
//! verbatim in `veal::sched::reference`: hash-set based Swing
//! ordering over the naive Θ(n³) Floyd–Warshall MinDist
//! ([`veal::sched::MinDist::compute_naive`]) and the hash-map based modulo
//! list scheduler. The **new kernel** is the current pipeline: the
//! SCC-structured, II-parametric MinDist envelope with its cross-invocation
//! cache, bitset Swing ordering, and the dense-array list scheduler.
//!
//! Three old-vs-new measurements per loop:
//!
//! * **priority + scheduling** — `swing_order` followed by
//!   `list_schedule` on the separated, CCA-mapped body (the paper's 69% +
//!   9% of translation cost, Figure 8), old kernels vs new kernels. Each
//!   loop is run at `VEAL_BENCH_IIS` consecutive IIs starting at its MII —
//!   the pattern the design-space sweep and II escalation actually
//!   generate (same graph, shifting II), where the old kernel pays a full
//!   Θ(n³) Floyd–Warshall per point and the new one evaluates the cached
//!   Pareto frontiers in O(n²·k).
//! * **per-phase breakdown** — one old-vs-new wall-clock entry for each
//!   [`veal::ir::Phase`], timing that phase's kernel in isolation: DFG
//!   analyses (`RefDfg` push-adjacency vs CSR), stream separation, CCA
//!   mapping, MIIs, priority/scheduling (from the section above), register
//!   assignment, and hint decoding. Phases whose implementation did not
//!   change in the data-oriented sweep time the same code under both arms
//!   and report ≈1.0x. The `concretize` row is the symbolic-translation
//!   differential: "old" is a direct point `translate`, "new" is
//!   `Translator::concretize` of a prebuilt symbolic translation — the
//!   work a family-memo hit pays instead of a full retranslation — with
//!   the outcomes asserted bit-identical first.
//! * **end-to-end translate** — the whole `Translator::translate`
//!   pipeline on the raw loop body. The old arm disables *both* runtime
//!   toggles (`set_parametric_enabled(false)` +
//!   `veal::ir::set_data_oriented(false)`): naive Floyd–Warshall MinDist
//!   over the retained reference analysis kernels. The new arm enables
//!   both: parametric MinDist over the struct-of-arrays kernels.
//!
//! Every order, schedule, and per-phase abstract-instruction breakdown is
//! asserted identical between the two kernels — the abstract cost model
//! is the paper's result and must not move.
//!
//! Two absolute measurements of the shipped translator, on every
//! legalized suite loop (the loops the system simulator translates):
//!
//! * **per policy** — wall time and `CostMeter` units per loop of a whole
//!   `Translator::translate` under the fully dynamic, height-priority and
//!   static-hint policies (the last with the hints the compiler ships),
//!   and the dynamic/hinted wall ratio: whether Fig. 8's cost argument
//!   for hints holds in host time, not only in meter units;
//! * **Fig. 8 measured** — the fully dynamic wall-clock share of each
//!   phase next to its meter share, on the suite and on a seeded pool of
//!   synthetic loops shaped like `bench_e2e`'s translate-cold pool. Each
//!   phase kernel is timed in the order `translate` calls it, and the
//!   replay's charges are asserted equal to `translate`'s.
//!
//! Results are printed and written to `BENCH_translate.json`. Timing keeps
//! the best of `VEAL_BENCH_PASSES` passes (default 5). Environment knobs
//! for the CI smoke job: `VEAL_BENCH_APPS` truncates the suite,
//! `VEAL_BENCH_REPS` sets the timed repetitions per loop (default 5),
//! and `VEAL_BENCH_MIN_SPEEDUP` (a float) makes the run exit non-zero
//! when `translate_speedup` lands below the floor.
//!
//! `--trace-out <path>` records one `translate_start`/`translate_end`
//! event pair per suite loop from the end-to-end validation pass (this
//! bin drives the `Translator` directly, so the events are constructed
//! here rather than by a `VmSession`). Tracing never changes the timed
//! numbers or the bit-identity asserts.

use std::sync::Arc;
use std::time::Instant;
use veal::ir::meter::ALL_PHASES;
use veal::ir::streams::{separate, StreamSummary};
use veal::ir::{set_data_oriented, CostMeter, Dfg, OpId, Phase, PhaseBreakdown, RefDfg};
use veal::obs::TranslateStatus;
use veal::sched::{
    assign_registers, list_schedule, rec_mii, res_mii, set_parametric_enabled, swing_order,
    ModuloSchedule, ScheduleError,
};
use veal::vm::verify::verify_and_apply_cca;
use veal::vm::{StaticHints, TranslationPolicy, Translator};
use veal::workloads::{synth_loop, SynthSpec};
use veal::{
    compute_hints, legalize, AcceleratorConfig, CcaSpec, Event, JsonlSink, LoopBody, Trace,
    TransformLimits,
};

/// The pre-optimization translation kernels (hash-set Swing ordering over
/// a fresh naive Floyd–Warshall, hash-map list scheduler), retained
/// verbatim in `veal::sched::reference` so the benchmark compares real old
/// code against real new code on the same build — and so the end-to-end
/// old arm (`set_data_oriented(false)`) routes `translate` through them.
use veal::sched::reference;

/// One loop readied for the scheduling kernel: separated, CCA-mapped, MII
/// computed — exactly the state `modulo_schedule` sees inside `translate`.
struct Prepped {
    name: String,
    /// The raw loop body before stream separation — input to the
    /// loop-identification and stream-separation phase kernels.
    raw: Dfg,
    /// Separated but not yet CCA-mapped — input to the CCA-mapping and
    /// hint-decode phase kernels.
    sep: Dfg,
    dfg: Dfg,
    summary: StreamSummary,
    mii: u32,
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Minimum wall-clock nanos over `passes` runs of `f`. Taking the best of N
/// passes filters scheduler/frequency noise out of each sample; it is applied
/// identically to both arms so the speedup ratio stays unbiased.
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

/// Fully dynamic wall-clock share per phase over `bodies`, against the
/// meter's share: `(phase, wall %, unit %)` in [`ALL_PHASES`] order. Each
/// phase keeps its best total over `passes` whole passes. A population
/// larger than the MinDist cache (64 entries per thread) reaches every
/// loop with its frontier evicted, so the priority row includes building
/// it, as a first translation does.
fn fig8_shares(
    bodies: &[&LoopBody],
    config: &AcceleratorConfig,
    passes: usize,
) -> Vec<(Phase, f64, f64)> {
    let spec = CcaSpec::paper();
    let translator = Translator::new(
        config.clone(),
        Some(spec.clone()),
        TranslationPolicy::fully_dynamic(),
    );
    let mut units = [0u64; 10];
    for body in bodies {
        let want = translator.translate(body, &StaticHints::none()).breakdown;
        let got = dynamic_phase_walls(body, config, &spec, &mut [0; 10]);
        assert_eq!(want, got, "{}: phase replay charges diverged", body.name);
        for &p in ALL_PHASES {
            units[p as usize] += got.get(p);
        }
    }
    let mut best = [u128::MAX; 10];
    for _ in 0..passes {
        let mut wall = [0u128; 10];
        for body in bodies {
            dynamic_phase_walls(body, config, &spec, &mut wall);
        }
        for (b, w) in best.iter_mut().zip(wall) {
            *b = (*b).min(w);
        }
    }
    let wall_total: u128 = best.iter().sum();
    let unit_total: u64 = units.iter().sum();
    ALL_PHASES
        .iter()
        .map(|&p| {
            let i = p as usize;
            (
                p,
                100.0 * best[i] as f64 / wall_total.max(1) as f64,
                100.0 * units[i] as f64 / unit_total.max(1) as f64,
            )
        })
        .collect()
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

fn prep_suite(apps: &[veal::workloads::Application], config: &AcceleratorConfig) -> Vec<Prepped> {
    let spec = CcaSpec::paper();
    let mut out = Vec::new();
    for app in apps {
        for (i, l) in app.loops.iter().enumerate() {
            let mut meter = CostMeter::new();
            let Ok(sep) = separate(&l.raw.body.dfg, &mut meter) else {
                continue;
            };
            let summary = sep.summary();
            if config.check_streams(summary).is_err() {
                continue;
            }
            let sep_dfg = sep.dfg.clone();
            let mut dfg = sep.dfg;
            veal::cca::map_cca(&mut dfg, &spec, &mut meter);
            let mii = res_mii(&dfg, config, summary, &mut meter).max(rec_mii(
                &dfg,
                &config.latencies,
                &mut meter,
            ));
            if mii > config.max_ii {
                continue;
            }
            out.push(Prepped {
                name: format!("{}#{i}", app.name),
                raw: l.raw.body.dfg.clone(),
                sep: sep_dfg,
                dfg,
                summary,
                mii,
            });
        }
    }
    out
}

/// Old kernels: hash-based Swing order over a fresh naive Floyd–Warshall,
/// then the hash-map list scheduler.
fn old_prio_and_sched(
    p: &Prepped,
    config: &AcceleratorConfig,
    ii: u32,
) -> (
    Vec<OpId>,
    Result<ModuloSchedule, ScheduleError>,
    PhaseBreakdown,
) {
    let mut meter = CostMeter::new();
    let order = reference::swing_order(&p.dfg, &config.latencies, ii, &mut meter);
    let sched = reference::list_schedule(&p.dfg, config, &order, ii, p.summary, &mut meter);
    (order, sched, *meter.breakdown())
}

/// New kernels: bitset Swing order over the II-parametric MinDist
/// envelope, then the dense-array list scheduler.
fn new_prio_and_sched(
    p: &Prepped,
    config: &AcceleratorConfig,
    ii: u32,
) -> (
    Vec<OpId>,
    Result<ModuloSchedule, ScheduleError>,
    PhaseBreakdown,
) {
    let mut meter = CostMeter::new();
    let order = swing_order(&p.dfg, &config.latencies, ii, &mut meter);
    let sched = list_schedule(&p.dfg, config, &order, ii, p.summary, &mut meter);
    (order, sched, *meter.breakdown())
}

/// Asserts the old and new schedulers produced the same schedule (or the
/// same failure): same II, same op→time map, same op→unit map.
fn assert_same_schedule(
    name: &str,
    old: &Result<ModuloSchedule, ScheduleError>,
    new: &Result<ModuloSchedule, ScheduleError>,
) {
    match (old, new) {
        (Err(eo), Err(en)) => assert_eq!(eo, en, "{name}: errors diverged"),
        (Ok(so), Ok(sn)) => {
            assert_eq!(so.ii, sn.ii, "{name}: II diverged");
            assert_eq!(so.entries(), sn.entries(), "{name}: times diverged");
            for (op, _) in so.entries() {
                assert_eq!(so.unit(op), sn.unit(op), "{name}: unit of {op} diverged");
            }
        }
        (o, n) => panic!(
            "{name}: outcome diverged (old ok={}, new ok={})",
            o.is_ok(),
            n.is_ok()
        ),
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
    let prepped = prep_suite(&apps, &config);
    println!(
        "bench_translate: {} apps, {} schedulable loops, {} reps/loop, best of {} passes",
        apps.len(),
        prepped.len(),
        reps,
        passes
    );

    // --- priority + scheduling, old vs new kernel ------------------------
    // Each loop is visited at a small range of IIs starting at its MII:
    // exactly what the DSE sweep (one MII per machine configuration) and
    // the scheduler's own II escalation generate.
    set_parametric_enabled(true);
    let iis = env_usize("VEAL_BENCH_IIS", 8).max(1) as u32;
    let mut points = 0usize;
    let mut old_prio_ns = 0u128;
    let mut old_sched_ns = 0u128;
    let mut new_prio_ns = 0u128;
    let mut new_sched_ns = 0u128;
    for p in &prepped {
        for ii in p.mii..=(p.mii + iis - 1).min(config.max_ii) {
            points += 1;
            // Warm both kernels once and assert bit-identity: same order,
            // same schedule (or same failure), same per-phase charges.
            let (order_o, sched_o, bd_o) = old_prio_and_sched(p, &config, ii);
            let (order_n, sched_n, bd_n) = new_prio_and_sched(p, &config, ii);
            assert_eq!(order_o, order_n, "{}@{ii}: swing order diverged", p.name);
            assert_same_schedule(&p.name, &sched_o, &sched_n);
            assert_eq!(bd_o, bd_n, "{}@{ii}: phase breakdown diverged", p.name);

            old_prio_ns += min_ns(passes, || {
                for _ in 0..reps {
                    let mut meter = CostMeter::new();
                    std::hint::black_box(reference::swing_order(
                        &p.dfg,
                        &config.latencies,
                        ii,
                        &mut meter,
                    ));
                }
            });
            old_sched_ns += min_ns(passes, || {
                for _ in 0..reps {
                    let mut meter = CostMeter::new();
                    let _ = std::hint::black_box(reference::list_schedule(
                        &p.dfg, &config, &order_n, ii, p.summary, &mut meter,
                    ));
                }
            });

            new_prio_ns += min_ns(passes, || {
                for _ in 0..reps {
                    let mut meter = CostMeter::new();
                    std::hint::black_box(swing_order(&p.dfg, &config.latencies, ii, &mut meter));
                }
            });
            new_sched_ns += min_ns(passes, || {
                for _ in 0..reps {
                    let mut meter = CostMeter::new();
                    let _ = std::hint::black_box(list_schedule(
                        &p.dfg, &config, &order_n, ii, p.summary, &mut meter,
                    ));
                }
            });
        }
    }

    // --- per-phase breakdown, old vs new ---------------------------------
    // One wall-clock entry per `Phase`, timing that phase's kernel in
    // isolation over every schedulable loop. Phases whose kernels dispatch
    // on the data-oriented toggle are timed under both arms and asserted
    // bit-identical; phases untouched by the sweep run the same code twice.
    let spec = CcaSpec::paper();
    let mut ph_old = [0u128; 10];
    let mut ph_new = [0u128; 10];
    assert_eq!(ALL_PHASES.len(), 10);
    let fold_ref = |r: &RefDfg| {
        let ok = r.verify().is_ok();
        let n_sccs = r.sccs().len();
        r.content_hash() ^ u64::from(ok) ^ (n_sccs as u64) << 1
    };
    for p in &prepped {
        // loop-ident: re-derive every structural analysis (adjacency,
        // verification, SCCs, content hash) from the raw node/edge lists —
        // push-built `Vec<Vec<u32>>` adjacency vs the CSR arena build.
        {
            let r = RefDfg::from_dfg(&p.raw);
            assert_eq!(
                fold_ref(&r),
                p.raw.reanalyze(),
                "{}: loop-ident analyses diverged",
                p.name
            );
            let i = Phase::LoopIdent as usize;
            ph_old[i] += min_ns(passes, || {
                for _ in 0..reps {
                    let r = RefDfg::from_dfg(&p.raw);
                    std::hint::black_box(fold_ref(&r));
                }
            });
            ph_new[i] += min_ns(passes, || {
                for _ in 0..reps {
                    std::hint::black_box(p.raw.reanalyze());
                }
            });
        }

        // stream-sep: the full separation pass, reference vs single-pass.
        {
            set_data_oriented(false);
            let mut m_o = CostMeter::new();
            let out_o = separate(&p.raw, &mut m_o).expect("prepped loop separates");
            set_data_oriented(true);
            let mut m_n = CostMeter::new();
            let out_n = separate(&p.raw, &mut m_n).expect("prepped loop separates");
            assert_eq!(
                out_o.dfg.content_hash(),
                out_n.dfg.content_hash(),
                "{}: separation diverged",
                p.name
            );
            assert_eq!(
                m_o.breakdown(),
                m_n.breakdown(),
                "{}: separation charges diverged",
                p.name
            );
            let i = Phase::StreamSep as usize;
            for (arm, acc) in [(false, &mut ph_old[i]), (true, &mut ph_new[i])] {
                set_data_oriented(arm);
                *acc += min_ns(passes, || {
                    for _ in 0..reps {
                        let mut meter = CostMeter::new();
                        let _ = std::hint::black_box(separate(&p.raw, &mut meter));
                    }
                });
            }
        }

        // cca-mapping: the greedy seed-and-grow mapper plus group commit.
        {
            set_data_oriented(false);
            let mut m_o = CostMeter::new();
            let mut d_o = p.sep.clone();
            let g_o = veal::cca::map_cca(&mut d_o, &spec, &mut m_o);
            set_data_oriented(true);
            let mut m_n = CostMeter::new();
            let mut d_n = p.sep.clone();
            let g_n = veal::cca::map_cca(&mut d_n, &spec, &mut m_n);
            assert_eq!(g_o, g_n, "{}: CCA groups diverged", p.name);
            assert_eq!(
                d_o.content_hash(),
                d_n.content_hash(),
                "{}: CCA-mapped graph diverged",
                p.name
            );
            assert_eq!(
                m_o.breakdown(),
                m_n.breakdown(),
                "{}: CCA charges diverged",
                p.name
            );
            let i = Phase::CcaMapping as usize;
            for (arm, acc) in [(false, &mut ph_old[i]), (true, &mut ph_new[i])] {
                set_data_oriented(arm);
                *acc += min_ns(passes, || {
                    for _ in 0..reps {
                        let mut meter = CostMeter::new();
                        let mut d = p.sep.clone();
                        std::hint::black_box(veal::cca::map_cca(&mut d, &spec, &mut meter));
                    }
                });
            }
        }

        // res-mii / rec-mii: unchanged kernels, same code under both arms.
        {
            let i = Phase::ResMii as usize;
            for (arm, acc) in [(false, &mut ph_old[i]), (true, &mut ph_new[i])] {
                set_data_oriented(arm);
                *acc += min_ns(passes, || {
                    for _ in 0..reps {
                        let mut meter = CostMeter::new();
                        std::hint::black_box(res_mii(&p.dfg, &config, p.summary, &mut meter));
                    }
                });
            }
        }
        {
            let i = Phase::RecMii as usize;
            for (arm, acc) in [(false, &mut ph_old[i]), (true, &mut ph_new[i])] {
                set_data_oriented(arm);
                *acc += min_ns(passes, || {
                    for _ in 0..reps {
                        let mut meter = CostMeter::new();
                        std::hint::black_box(rec_mii(&p.dfg, &config.latencies, &mut meter));
                    }
                });
            }
        }

        // reg-assign: unchanged kernel over the new scheduler's output.
        set_data_oriented(true);
        if let (_, Ok(sched), _) = new_prio_and_sched(p, &config, p.mii) {
            let i = Phase::RegAssign as usize;
            for (arm, acc) in [(false, &mut ph_old[i]), (true, &mut ph_new[i])] {
                set_data_oriented(arm);
                *acc += min_ns(passes, || {
                    for _ in 0..reps {
                        let mut meter = CostMeter::new();
                        let _ = std::hint::black_box(assign_registers(
                            &p.dfg, &sched, &config, &mut meter,
                        ));
                    }
                });
            }
        }

        // hint-decode: re-verify and re-apply the mapper's groups as if
        // they had arrived as static hints.
        {
            set_data_oriented(true);
            let mut meter = CostMeter::new();
            let groups: Vec<Vec<OpId>> = veal::cca::identify_groups(&p.sep, &spec, &mut meter)
                .into_iter()
                .map(|g| g.members)
                .collect();
            let i = Phase::HintDecode as usize;
            for (arm, acc) in [(false, &mut ph_old[i]), (true, &mut ph_new[i])] {
                set_data_oriented(arm);
                *acc += min_ns(passes, || {
                    for _ in 0..reps {
                        let mut meter = CostMeter::new();
                        let mut d = p.sep.clone();
                        let _ = std::hint::black_box(verify_and_apply_cca(
                            &mut d, &spec, &groups, &mut meter,
                        ));
                    }
                });
            }
        }
    }
    set_data_oriented(true);
    // priority / scheduling: measured by the (loop, II) section above.
    ph_old[Phase::Priority as usize] = old_prio_ns;
    ph_new[Phase::Priority as usize] = new_prio_ns;
    ph_old[Phase::Scheduling as usize] = old_sched_ns;
    ph_new[Phase::Scheduling as usize] = new_sched_ns;

    // --- end-to-end translate, old arm vs new arm ------------------------
    let translator = Translator::new(
        config.clone(),
        Some(CcaSpec::paper()),
        TranslationPolicy::fully_dynamic(),
    );
    let hints = StaticHints::none();
    let bodies: Vec<_> = apps
        .iter()
        .flat_map(|a| a.loops.iter().map(|l| &l.raw.body))
        .collect();
    let mut old_e2e_ns = 0u128;
    let mut new_e2e_ns = 0u128;
    for (key, body) in bodies.iter().enumerate() {
        let key = key as u64;
        set_parametric_enabled(false);
        set_data_oriented(false);
        let out_n = translator.translate(body, &hints);
        set_parametric_enabled(true);
        set_data_oriented(true);
        trace.emit(|| Event::TranslateStart {
            key,
            loop_hash: body.content_hash(),
        });
        let out_p = translator.translate(body, &hints);
        trace.emit(|| Event::TranslateEnd {
            key,
            status: if out_p.result.is_ok() {
                TranslateStatus::Mapped
            } else {
                TranslateStatus::Failed
            },
            units: out_p.breakdown.total(),
            checks: 0,
            degraded: false,
            breakdown: out_p.breakdown,
        });
        assert_eq!(
            out_n.breakdown, out_p.breakdown,
            "{}: translate breakdown diverged",
            body.name
        );
        let sig = |r: &Result<veal::vm::TranslatedLoop, veal::vm::TranslationError>| match r {
            Ok(t) => format!(
                "{}|{}|{}|{}",
                t.scheduled.schedule, t.control_words, t.cca_groups, t.accel_ops
            ),
            Err(e) => format!("ERR {e}"),
        };
        assert_eq!(
            sig(&out_n.result),
            sig(&out_p.result),
            "{}: translate result diverged",
            body.name
        );
        for (new_arm, e2e_ns) in [(false, &mut old_e2e_ns), (true, &mut new_e2e_ns)] {
            set_parametric_enabled(new_arm);
            set_data_oriented(new_arm);
            *e2e_ns += min_ns(passes, || {
                for _ in 0..reps {
                    std::hint::black_box(translator.translate(body, &hints));
                }
            });
        }
    }
    set_parametric_enabled(true);
    set_data_oriented(true);

    // --- symbolic concretize vs direct translate -------------------------
    // The family-memoization differential: one symbolic translation per
    // loop, concretized at the design point, must be bit-identical to a
    // direct point translation — result, per-phase charges, verdict. The
    // timing pair fills the `concretize` phase row: "old" pays the full
    // pipeline (what a family hit would otherwise recompute), "new" pays
    // only concretization.
    for body in &bodies {
        let sym = translator.translate_symbolic(body, &hints);
        let direct = translator.translate(body, &hints);
        let mut cm = CostMeter::new();
        let conc = translator.concretize(&sym, &mut cm);
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
        let sig = |r: &Result<veal::vm::TranslatedLoop, veal::vm::TranslationError>| match r {
            Ok(t) => format!(
                "{}|{}|{}|{}",
                t.scheduled.schedule, t.control_words, t.cca_groups, t.accel_ops
            ),
            Err(e) => format!("ERR {e}"),
        };
        assert_eq!(
            sig(&direct.result),
            sig(&conc.result),
            "{}: concretize result diverged",
            body.name
        );
        let i = Phase::Concretize as usize;
        ph_old[i] += min_ns(passes, || {
            for _ in 0..reps {
                std::hint::black_box(translator.translate(body, &hints));
            }
        });
        ph_new[i] += min_ns(passes, || {
            for _ in 0..reps {
                let mut cm = CostMeter::new();
                std::hint::black_box(translator.concretize(&sym, &mut cm));
            }
        });
    }
    let concretize_speedup = ph_old[Phase::Concretize as usize] as f64
        / ph_new[Phase::Concretize as usize].max(1) as f64;

    // --- translation wall time per policy --------------------------------
    // The paper's case for static hints is a cost argument (Fig. 8); the
    // meter gives the units, this section the host wall time of the same
    // translations. Every legalized suite loop is translated under each
    // policy; a timed pass covers the whole suite, passes interleave the
    // policies, and each policy keeps its best pass.
    let suite = legalized_suite(&apps, &config);
    let none = StaticHints::none();
    let translators: Vec<(bool, Translator)> = POLICIES
        .iter()
        .map(|&(_, policy, hinted)| {
            let tr = Translator::new(config.clone(), Some(CcaSpec::paper()), policy());
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

    // --- Fig. 8 measured: fully dynamic wall share per phase -------------
    let suite_bodies: Vec<&LoopBody> = suite.iter().map(|(b, _)| b).collect();
    let synthetic = synthetic_pool(512);
    let synth_bodies: Vec<&LoopBody> = synthetic.iter().collect();
    let suite_shares = fig8_shares(&suite_bodies, &config, passes);
    let synth_shares = fig8_shares(&synth_bodies, &config, passes);

    let ms = |ns: u128| ns as f64 / 1e6;
    println!("priority+sched measured over {points} (loop, II) points");
    let old_ps = ms(old_prio_ns + old_sched_ns);
    let new_ps = ms(new_prio_ns + new_sched_ns);
    let prio_speedup = ms(old_prio_ns) / ms(new_prio_ns).max(1e-9);
    let sched_speedup = ms(old_sched_ns) / ms(new_sched_ns).max(1e-9);
    let ps_speedup = old_ps / new_ps.max(1e-9);
    let e2e_speedup = ms(old_e2e_ns) / ms(new_e2e_ns).max(1e-9);
    println!("per-phase kernels (old vs new):");
    for &p in ALL_PHASES {
        let i = p as usize;
        let (o, n) = (ms(ph_old[i]), ms(ph_new[i]));
        println!(
            "  {:<12} : old {o:>9.1} ms  new {n:>9.1} ms  ({:.2}x)",
            p.name(),
            o / n.max(1e-9)
        );
    }
    println!(
        "translate e2e    : old {:>9.1} ms  new {:>9.1} ms  ({e2e_speedup:.2}x)",
        ms(old_e2e_ns),
        ms(new_e2e_ns)
    );
    println!("outputs          : bit-identical across both kernels");
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

    let mut phases_json = String::new();
    for (k, &p) in ALL_PHASES.iter().enumerate() {
        let i = p as usize;
        let (o, n) = (ms(ph_old[i]), ms(ph_new[i]));
        phases_json.push_str(&format!(
            "    \"{}\": {{ \"old_ms\": {o:.3}, \"new_ms\": {n:.3}, \"speedup\": {:.3} }}{}\n",
            p.name(),
            o / n.max(1e-9),
            if k + 1 < ALL_PHASES.len() { "," } else { "" }
        ));
    }
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
        "{{\n  \"suite\": \"full\",\n  \"apps\": {},\n  \"loops_schedulable\": {},\n  \
         \"ii_points\": {},\n  \"reps_per_point\": {},\n  \"old_priority_ms\": {:.3},\n  \
         \"new_priority_ms\": {:.3},\n  \"old_scheduling_ms\": {:.3},\n  \
         \"new_scheduling_ms\": {:.3},\n  \"priority_speedup\": {:.3},\n  \
         \"scheduling_speedup\": {:.3},\n  \"priority_scheduling_speedup\": {:.3},\n  \
         \"phases\": {{\n{}  }},\n  \
         \"old_translate_ms\": {:.3},\n  \"new_translate_ms\": {:.3},\n  \
         \"translate_speedup\": {:.3},\n  \"symbolic_concretize_speedup\": {:.3},\n  \
         \"policies\": {},\n  \
         \"fig8_wall_share\": {{\n    \"suite\": {},\n    \"synthetic\": {}\n  }},\n  \
         \"bit_identical\": true\n}}\n",
        apps.len(),
        prepped.len(),
        points,
        reps,
        ms(old_prio_ns),
        ms(new_prio_ns),
        ms(old_sched_ns),
        ms(new_sched_ns),
        prio_speedup,
        sched_speedup,
        ps_speedup,
        phases_json,
        ms(old_e2e_ns),
        ms(new_e2e_ns),
        e2e_speedup,
        concretize_speedup,
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
    if let Some(floor) = std::env::var("VEAL_BENCH_MIN_SPEEDUP")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
    {
        if e2e_speedup < floor {
            eprintln!("bench_translate: translate_speedup {e2e_speedup:.3} below floor {floor:.3}");
            std::process::exit(1);
        }
        println!("translate_speedup {e2e_speedup:.3} >= floor {floor:.3}");
    }
}
