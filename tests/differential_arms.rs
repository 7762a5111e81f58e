//! Differential harness for the data-oriented sweep: the old arm (reference
//! kernels, hash-based containers, toggles off) and the new arm (CSR/bitset
//! kernels, toggles on) must produce **bit-identical** translations — same
//! schedules, same CCA decisions, same graphs, same per-phase meter charges
//! — over the whole workload suite.
//!
//! This is the repo-level gate behind the hot-path rewrite: the per-crate
//! corpora (`crates/ir/tests/soa_equivalence.rs`, the sched/cca proptests)
//! pin individual kernels; this test pins the *composition*, including the
//! dispatch points inside `translate` (`sched::reference` routing,
//! `map_cca`'s commit loop, `verify_and_apply_cca`'s probe move, `rec_mii`'s
//! packed-SCC fast path, and `Dfg::collapse`'s sorted-merge fast path).

use veal::ir::streams::separate;
use veal::ir::{set_data_oriented, CostMeter};
use veal::sched::{rec_mii, set_parametric_enabled};
use veal::vm::verify::verify_and_apply_cca;
use veal::vm::{StaticHints, TranslationPolicy, Translator};
use veal::{AcceleratorConfig, CcaSpec, OpId};

/// Runs `f` with both toggles forced to one arm, restoring defaults after.
fn with_arm<T>(new_arm: bool, f: impl FnOnce() -> T) -> T {
    set_parametric_enabled(new_arm);
    set_data_oriented(new_arm);
    let out = f();
    set_parametric_enabled(true);
    set_data_oriented(true);
    out
}

#[test]
fn translate_is_bit_identical_across_arms_on_full_suite() {
    let translator = Translator::new(
        AcceleratorConfig::paper_design(),
        Some(CcaSpec::paper()),
        TranslationPolicy::fully_dynamic(),
    );
    let hints = StaticHints::none();
    let mut loops = 0usize;
    for app in veal::workloads::full_suite() {
        for (i, l) in app.loops.iter().enumerate() {
            loops += 1;
            let body = &l.raw.body;
            let old = with_arm(false, || translator.translate(body, &hints));
            let new = with_arm(true, || translator.translate(body, &hints));
            let name = format!("{}#{i}", app.name);
            assert_eq!(old.breakdown, new.breakdown, "{name}: charges diverged");
            match (&old.result, &new.result) {
                (Ok(o), Ok(n)) => {
                    assert_eq!(
                        o.dfg.content_hash(),
                        n.dfg.content_hash(),
                        "{name}: final graph diverged"
                    );
                    assert_eq!(o.scheduled.schedule.ii, n.scheduled.schedule.ii, "{name}");
                    assert_eq!(
                        o.scheduled.schedule.entries(),
                        n.scheduled.schedule.entries(),
                        "{name}: schedule diverged"
                    );
                    assert_eq!(
                        format!("{}", o.scheduled.schedule),
                        format!("{}", n.scheduled.schedule),
                        "{name}: rendered schedule diverged"
                    );
                    assert_eq!(o.control_words, n.control_words, "{name}");
                    assert_eq!(o.cca_groups, n.cca_groups, "{name}");
                    assert_eq!(o.accel_ops, n.accel_ops, "{name}");
                }
                (Err(eo), Err(en)) => {
                    assert_eq!(format!("{eo}"), format!("{en}"), "{name}: errors diverged");
                }
                (o, n) => panic!(
                    "{name}: outcome diverged (old ok={}, new ok={})",
                    o.is_ok(),
                    n.is_ok()
                ),
            }
        }
    }
    assert!(loops >= 27, "suite shrank: only {loops} loops");
}

#[test]
fn cca_commit_and_hint_decode_match_across_arms() {
    // `map_cca` (identify + commit, exercising the collapse fast path) and
    // `verify_and_apply_cca` (the hint-decode path that now moves the
    // vetted probe into place instead of replaying collapses) must agree
    // with the reference arm on graph content, group list, and charges.
    let spec = CcaSpec::paper();
    for app in veal::workloads::full_suite() {
        for (i, l) in app.loops.iter().enumerate() {
            let mut meter = CostMeter::new();
            let Ok(sep) = separate(&l.raw.body.dfg, &mut meter) else {
                continue;
            };
            let name = format!("{}#{i}", app.name);

            let run_map = |arm: bool| {
                with_arm(arm, || {
                    let mut meter = CostMeter::new();
                    let mut d = sep.dfg.clone();
                    let groups = veal::cca::map_cca(&mut d, &spec, &mut meter);
                    (groups, d.content_hash(), *meter.breakdown())
                })
            };
            let (g_old, h_old, m_old) = run_map(false);
            let (g_new, h_new, m_new) = run_map(true);
            assert_eq!(g_old, g_new, "{name}: groups diverged");
            assert_eq!(h_old, h_new, "{name}: mapped graph diverged");
            assert_eq!(m_old, m_new, "{name}: mapping charges diverged");

            let groups: Vec<Vec<OpId>> = g_new.into_iter().map(|g| g.members).collect();
            let run_decode = |arm: bool| {
                with_arm(arm, || {
                    let mut meter = CostMeter::new();
                    let mut d = sep.dfg.clone();
                    let n = verify_and_apply_cca(&mut d, &spec, &groups, &mut meter);
                    (n, d.content_hash(), *meter.breakdown())
                })
            };
            let (n_old, h_old, m_old) = run_decode(false);
            let (n_new, h_new, m_new) = run_decode(true);
            assert_eq!(n_old, n_new, "{name}: applied-group count diverged");
            assert_eq!(h_old, h_new, "{name}: decoded graph diverged");
            assert_eq!(m_old, m_new, "{name}: decode charges diverged");
            assert_eq!(
                h_old,
                with_arm(true, || {
                    let mut d = sep.dfg.clone();
                    for g in &groups {
                        d.collapse(g);
                    }
                    d.content_hash()
                }),
                "{name}: probe move differs from direct collapse replay"
            );
        }
    }
}

#[test]
fn rec_mii_dispatch_matches_across_arms() {
    let config = AcceleratorConfig::paper_design();
    for app in veal::workloads::full_suite() {
        for (i, l) in app.loops.iter().enumerate() {
            let mut meter = CostMeter::new();
            let Ok(sep) = separate(&l.raw.body.dfg, &mut meter) else {
                continue;
            };
            let mut dfg = sep.dfg;
            veal::cca::map_cca(&mut dfg, &CcaSpec::paper(), &mut meter);
            let name = format!("{}#{i}", app.name);
            let run = |arm: bool| {
                with_arm(arm, || {
                    let mut meter = CostMeter::new();
                    let mii = rec_mii(&dfg, &config.latencies, &mut meter);
                    (mii, *meter.breakdown())
                })
            };
            let (mii_old, m_old) = run(false);
            let (mii_new, m_new) = run(true);
            assert_eq!(mii_old, mii_new, "{name}: RecMII diverged");
            assert_eq!(m_old, m_new, "{name}: RecMII charges diverged");
        }
    }
}

#[test]
fn hint_decode_verdicts_match_across_arms_on_mutated_groups() {
    // `verify_and_apply_cca` checks each group against the graph the
    // earlier groups' collapses leave. The new arm answers from a
    // `CollapseProbe` and collapses once at the end; the reference arm
    // collapses a cloned probe group by group. Hostile and stale hints must
    // get the same verdict (down to the `HintError` variant), the same
    // charges, and the same graph either way — so the suite's own hint
    // groups are mutated the ways a forged section can: reordered, merged,
    // split, cross-wired to a previous group's CCA node, duplicated.
    let spec = CcaSpec::paper();
    let mut rng = veal::ir::rng::Rng64::new(0x41D_DEC0DE);
    let mut verdicts = std::collections::BTreeMap::<String, usize>::new();
    for app in veal::workloads::full_suite() {
        for (i, l) in app.loops.iter().enumerate() {
            let mut meter = CostMeter::new();
            let Ok(sep) = separate(&l.raw.body.dfg, &mut meter) else {
                continue;
            };
            let base: Vec<Vec<OpId>> =
                veal::cca::identify_groups(&sep.dfg, &spec, &mut CostMeter::new())
                    .into_iter()
                    .map(|g| g.members)
                    .collect();
            let ops: Vec<OpId> = sep.dfg.schedulable_ops().collect();
            for case in 0..12 {
                let mut groups = base.clone();
                for _ in 0..rng.gen_range(1, 4) {
                    let k = groups.len();
                    match rng.gen_range(0, 7) {
                        0 if k > 1 => groups.swap(rng.gen_range(0, k), rng.gen_range(0, k)),
                        1 if k > 1 => {
                            let g = groups.remove(rng.gen_range(0, k));
                            let at = rng.gen_range(0, groups.len());
                            groups[at].extend(g);
                        }
                        2 if k > 0 => {
                            let at = rng.gen_range(0, k);
                            let half = groups[at].len() / 2;
                            if half > 0 {
                                let tail = groups[at].split_off(half);
                                groups.push(tail);
                            }
                        }
                        3 if k > 0 && !ops.is_empty() => {
                            let at = rng.gen_range(0, k);
                            groups[at].push(ops[rng.gen_range(0, ops.len())]);
                        }
                        4 if k > 0 => {
                            // A previously created CCA node (or one past it).
                            let at = rng.gen_range(0, k);
                            let id = sep.dfg.len() + rng.gen_range(0, k + 1);
                            groups[at].push(OpId::new(id));
                        }
                        5 if k > 0 => {
                            let g = groups[rng.gen_range(0, k)].clone();
                            groups.insert(rng.gen_range(0, k + 1), g);
                        }
                        _ if !ops.is_empty() => {
                            let g = (0..rng.gen_range(1, 5))
                                .map(|_| ops[rng.gen_range(0, ops.len())])
                                .collect();
                            groups.insert(rng.gen_range(0, k + 1), g);
                        }
                        _ => {}
                    }
                }
                let run = |arm: bool| {
                    with_arm(arm, || {
                        let mut meter = CostMeter::new();
                        let mut d = sep.dfg.clone();
                        let r = verify_and_apply_cca(&mut d, &spec, &groups, &mut meter);
                        (r, d, *meter.breakdown())
                    })
                };
                let (r_old, d_old, m_old) = run(false);
                let (r_new, d_new, m_new) = run(true);
                let name = format!("{}#{i} case {case}", app.name);
                assert_eq!(r_old, r_new, "{name}: verdict diverged on {groups:?}");
                assert_eq!(d_old, d_new, "{name}: graph diverged");
                assert_eq!(m_old, m_new, "{name}: charges diverged");
                let key = match &r_new {
                    Ok(_) => "accepted".to_string(),
                    Err(e) => format!("{e:?}")
                        .split(['(', ' '])
                        .next()
                        .unwrap_or("")
                        .into(),
                };
                *verdicts.entry(key).or_default() += 1;
            }
        }
    }
    // Every verdict kind the mutations can reach must actually occur.
    for kind in [
        "accepted",
        "CcaMemberOutOfRange",
        "CcaMemberNotSchedulable",
        "CcaDuplicateMember",
        "CcaIllegalGroup",
    ] {
        assert!(
            verdicts.get(kind).is_some_and(|&n| n > 0),
            "{kind}: {verdicts:?}"
        );
    }
}
