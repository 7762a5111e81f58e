//! Differential gate for family-mode translation (ISSUE 7): over a seeded
//! corpus of ≥200 synthetic loops, `translate_symbolic` + `concretize`
//! must be **bit-identical** — result, per-phase charges, verdict, and the
//! VmStats a session accumulates — to direct point translation at every
//! configuration of the family and every trip count, and family-keyed memo
//! entries must never coalesce across distinct families or with point
//! entries.

use std::sync::Arc;
use veal_accel::{AcceleratorConfig, AcceleratorFamily};
use veal_cca::CcaSpec;
use veal_ir::meter::ALL_PHASES;
use veal_ir::rng::{Fnv64, Rng64};
use veal_ir::{CostMeter, LoopBody, Phase};
use veal_vm::{
    compute_hints, MemoBackend, ShardedMemo, StaticHints, TranslationMemo, TranslationOutcome,
    TranslationPolicy, Translator, VmSession,
};
use veal_workloads::{synth_loop, SynthSpec};

const CASES: u64 = 200;

fn corpus_body(case: u64) -> LoopBody {
    let mut rng = Rng64::new(case.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xFA51);
    synth_loop(&SynthSpec {
        seed: rng.next_u64(),
        compute_ops: rng.gen_range(2, 28),
        fp_frac: if case.is_multiple_of(5) { 0.25 } else { 0.0 },
        loads: rng.gen_range(0, 4),
        stores: rng.gen_range(0, 2),
        recurrences: rng.gen_range(0, 3),
        rec_distance: 1 + (case as u32 % 3),
    })
}

/// The family grid: unit/register/II axes spanning the paper design —
/// includes tight-register and tiny-control-store corners so the corpus
/// exercises the register-pressure II-escalation loop and both error arms.
fn family_configs(case: u64) -> Vec<AcceleratorConfig> {
    let mut configs = vec![
        AcceleratorConfig::paper_design(),
        AcceleratorConfig::builder().int_units(1).build(),
        AcceleratorConfig::builder()
            .int_units(4)
            .fp_units(2)
            .build(),
        AcceleratorConfig::builder().int_regs(6).fp_regs(6).build(),
        AcceleratorConfig::builder().max_ii(4).build(),
    ];
    if case.is_multiple_of(3) {
        configs.push(AcceleratorConfig::builder().load_streams(2).build());
    }
    configs
}

fn assert_outcomes_identical(
    case: u64,
    config: &AcceleratorConfig,
    direct: &TranslationOutcome,
    symbolic: &TranslationOutcome,
) {
    assert_eq!(
        direct.breakdown, symbolic.breakdown,
        "case {case} at {config}: charges diverged"
    );
    assert_eq!(
        direct.verdict, symbolic.verdict,
        "case {case} at {config}: verdict diverged"
    );
    match (&direct.result, &symbolic.result) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.scheduled.schedule.ii, b.scheduled.schedule.ii);
            assert_eq!(
                a.scheduled.schedule.entries(),
                b.scheduled.schedule.entries()
            );
            assert_eq!(a.scheduled.mii, b.scheduled.mii);
            assert_eq!(
                a.scheduled.registers.pressure,
                b.scheduled.registers.pressure
            );
            assert_eq!(
                a.scheduled.registers.assignment,
                b.scheduled.registers.assignment
            );
            assert_eq!(a.control_words, b.control_words);
            assert_eq!(a.cca_groups, b.cca_groups);
            assert_eq!(a.accel_ops, b.accel_ops);
            assert_eq!(a.streams, b.streams);
            for trips in [1u64, 7, 100, 100_000] {
                assert_eq!(
                    a.kernel_cycles(trips),
                    b.kernel_cycles(trips),
                    "case {case} at {config}: cycles diverged at {trips} trips"
                );
            }
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "case {case} at {config}: error diverged"),
        (a, b) => panic!("case {case} at {config}: feasibility diverged: {a:?} vs {b:?}"),
    }
}

/// Folds everything a translation outcome reports into `h`: per-phase
/// charges, verdict, and the schedule (II, times, units), registers and
/// graph of a mapped loop, or the error.
fn fold_outcome(h: &mut Fnv64, out: &TranslationOutcome) {
    for &p in ALL_PHASES {
        h.write_u64(out.breakdown.get(p));
    }
    h.write_str(&format!("{:?}", out.verdict));
    match &out.result {
        Ok(t) => {
            h.write_u64(t.dfg.content_hash());
            h.write_u64(u64::from(t.scheduled.mii));
            h.write_u64(u64::from(t.scheduled.schedule.ii));
            for (op, time) in t.scheduled.schedule.entries() {
                h.write_u64(op.index() as u64);
                h.write_u64(time as u64);
                h.write_str(&format!("{:?}", t.scheduled.schedule.unit(op)));
            }
            h.write_str(&format!("{:?}", t.scheduled.registers.pressure));
            let mut regs: Vec<_> = t.scheduled.registers.assignment.iter().collect();
            regs.sort();
            for (op, reg) in regs {
                h.write_u64(op.index() as u64);
                h.write_u64(u64::from(*reg));
            }
            h.write_u64(t.control_words as u64);
            h.write_u64(t.cca_groups as u64);
            h.write_u64(t.accel_ops as u64);
            h.write_str(&format!("{:?}", t.streams));
        }
        Err(e) => h.write_str(&format!("{e:?}")),
    }
}

/// Property 1 (the tentpole gate): one symbolic translation per loop,
/// concretized at every family member, equals direct translation — across
/// hint regimes (none, computed, quarantine-style garbage). Direct
/// translation is itself a concretization with a fresh cache, so its
/// outputs are also folded into a digest recorded while it still ran its
/// own copy of the scheduling pipeline.
#[test]
fn symbolic_concretize_equals_direct_translation_over_corpus() {
    let spec = CcaSpec::paper();
    let mut digest = Fnv64::new();
    let mut mapped = 0u64;
    let mut concretize_units = 0u64;
    for case in 0..CASES {
        let body = corpus_body(case);
        let configs = family_configs(case);
        let policy = match case % 3 {
            0 => TranslationPolicy::fully_dynamic(),
            1 => TranslationPolicy::fully_dynamic_height(),
            _ => TranslationPolicy::static_hints(),
        };
        let hints = match case % 3 {
            2 => compute_hints(&body, &configs[0], Some(&spec)),
            _ => StaticHints::none(),
        };
        // One symbolic translation for the whole family (the prefix is
        // config-independent; any member's translator can build it).
        let sym_builder = Translator::new(configs[0].clone(), Some(spec.clone()), policy);
        let sym = sym_builder.translate_symbolic(&body, &hints);
        for config in &configs {
            let t = Translator::new(config.clone(), Some(spec.clone()), policy);
            let direct = t.translate(&body, &hints);
            let mut cm = CostMeter::new();
            let concrete = t.concretize(&sym, &mut cm);
            assert_outcomes_identical(case, config, &direct, &concrete);
            fold_outcome(&mut digest, &direct);
            assert!(
                cm.breakdown().get(Phase::Concretize) > 0,
                "concretization must charge the concretize meter"
            );
            assert_eq!(
                cm.breakdown().get(Phase::Concretize),
                cm.total(),
                "concretize work must land on the concretize phase only"
            );
            concretize_units += cm.total();
            mapped += u64::from(direct.result.is_ok());
        }
    }
    assert!(mapped > 300, "corpus degenerated: only {mapped} mapped");
    assert!(concretize_units > 0);
    let (got, want) = (digest.finish(), 0x994a_5088_9709_c697);
    assert_eq!(
        got, want,
        "direct-translation digest {got:#018x}, recorded {want:#018x}"
    );
}

/// Property 2: a family-mode session sweep over N member configurations
/// accumulates bit-identical VmStats to N memo-less direct sessions, while
/// the shared memo holds ONE family entry (vs N point entries before).
#[test]
fn family_mode_vmstats_bit_identical_and_entries_collapse() {
    let spec = CcaSpec::paper();
    for case in 0..32 {
        let body = corpus_body(case);
        let configs = family_configs(case);
        let family = Arc::new(AcceleratorFamily::spanning(&configs).expect("same latencies"));
        let memo = Arc::new(TranslationMemo::new());
        for (i, config) in configs.iter().enumerate() {
            let t = || {
                Translator::new(
                    config.clone(),
                    Some(spec.clone()),
                    TranslationPolicy::fully_dynamic(),
                )
            };
            let mut direct = VmSession::new(t());
            direct.invoke(1, &body, &StaticHints::none());

            let mut fam = VmSession::new(t())
                .with_memo(Arc::clone(&memo))
                .with_family(Arc::clone(&family));
            fam.invoke(1, &body, &StaticHints::none());

            assert_eq!(
                direct.stats(),
                fam.stats(),
                "case {case} config {i}: family-mode stats diverged"
            );
            assert_eq!(fam.concretize_stats().concretizations, 1);
            assert!(fam.concretize_stats().units > 0);
            assert_eq!(direct.concretize_stats().concretizations, 0);
        }
        let stats = memo.stats();
        assert_eq!(stats.entries, 1, "case {case}: one family entry total");
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits as usize, configs.len() - 1);
    }
}

/// Property 3 (satellite): distinct families never coalesce in a shared
/// [`ShardedMemo`], and family keys never collide with point keys — even
/// for a degenerate single-point family over the *same* configuration.
#[test]
fn family_fingerprints_are_disjoint_in_a_sharded_memo() {
    let body = corpus_body(7);
    let config = AcceleratorConfig::paper_design();
    let small = Arc::new(
        AcceleratorFamily::spanning(&[
            config.clone(),
            AcceleratorConfig::builder().int_units(1).build(),
        ])
        .unwrap(),
    );
    let wide = Arc::new(
        AcceleratorFamily::spanning(&[
            config.clone(),
            AcceleratorConfig::builder().int_units(8).build(),
        ])
        .unwrap(),
    );
    let degenerate = Arc::new(AcceleratorFamily::point(&config));

    let memo: Arc<ShardedMemo> = Arc::new(ShardedMemo::new(8));
    let session = |family: Option<Arc<AcceleratorFamily>>| {
        let t = Translator::new(config.clone(), None, TranslationPolicy::fully_dynamic());
        let s = VmSession::new(t).with_memo_backend(Arc::clone(&memo) as Arc<dyn MemoBackend>);
        match family {
            Some(f) => s.with_family(f),
            None => s,
        }
    };
    let mut outcomes = Vec::new();
    for family in [Some(small), Some(wide), Some(degenerate), None] {
        let mut s = session(family);
        let inv = s.invoke(1, &body, &StaticHints::none());
        outcomes.push(inv.translation_cycles);
    }
    // Four sessions, four *distinct* memo entries: two real families, the
    // degenerate family, and the point entry. Zero cross-family reuse.
    let stats = MemoBackend::stats(&*memo);
    assert_eq!(stats.entries, 4, "families must never coalesce");
    assert_eq!(stats.hits, 0);
    assert_eq!(memo.computes(), 4);
    assert_eq!(memo.duplicate_translations(), 0);
    // All four paths still agree on the simulated cost, of course.
    assert!(outcomes.windows(2).all(|w| w[0] == w[1]));
}

/// Property 4: a session whose configuration lies outside the family keeps
/// the point-keyed path (a symbolic translation would not be valid there).
#[test]
fn out_of_family_config_falls_back_to_point_keys() {
    let body = corpus_body(3);
    let family = Arc::new(AcceleratorFamily::point(&AcceleratorConfig::paper_design()));
    let outside = AcceleratorConfig::builder().int_units(16).build();
    let memo = Arc::new(TranslationMemo::new());
    let mut s = VmSession::new(Translator::new(
        outside,
        None,
        TranslationPolicy::fully_dynamic(),
    ))
    .with_memo(Arc::clone(&memo))
    .with_family(family);
    s.invoke(1, &body, &StaticHints::none());
    assert_eq!(s.concretize_stats().concretizations, 0);
    assert_eq!(memo.stats().entries, 1);
}
