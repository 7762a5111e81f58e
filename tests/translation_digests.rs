//! Pinned digests of the translator's outputs over the whole workload
//! suite.
//!
//! Each test folds one stage's outputs — schedules (times and units), CCA
//! groups, graph content hashes, per-phase meter charges, hint verdicts —
//! into an [`Fnv64`] digest and compares it with a recorded value. The
//! values were recorded when the translation kernels still had a second,
//! pre-optimisation implementation each, and checked equal under both, so
//! a digest that moves means a schedule, a charge or a verdict moved: find
//! which before re-recording it. Where an oracle built from the remaining
//! primitives exists (sequential [`Dfg::collapse`] for hint decoding, the
//! frontier RecMII), it is checked loop by loop as well.

use veal::ir::meter::ALL_PHASES;
use veal::ir::rng::{Fnv64, Rng64};
use veal::ir::streams::separate;
use veal::ir::{CostMeter, Dfg, Phase, PhaseBreakdown};
use veal::sched::{rec_mii, rec_mii_from_frontier, ModuloSchedule, RegisterAssignment};
use veal::vm::verify::{verify_and_apply_cca, HintError};
use veal::vm::{StaticHints, TranslationPolicy, Translator};
use veal::{AcceleratorConfig, CcaSpec, OpId};

/// Fails with the digest it got, so an intended change can re-record it.
fn assert_digest(what: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{what}: digest {got:#018x}, recorded {want:#018x}"
    );
}

fn fold_breakdown(h: &mut Fnv64, bd: &PhaseBreakdown) {
    for &p in ALL_PHASES {
        h.write_u64(bd.get(p));
    }
}

fn fold_schedule(h: &mut Fnv64, s: &ModuloSchedule) {
    h.write_u64(u64::from(s.ii));
    for (op, t) in s.entries() {
        h.write_u64(op.index() as u64);
        h.write_u64(t as u64);
        h.write_str(&format!("{:?}", s.unit(op)));
    }
}

fn fold_registers(h: &mut Fnv64, r: &RegisterAssignment) {
    h.write_str(&format!("{:?}", r.pressure));
    h.write_u64(r.pinned_int as u64);
    h.write_u64(r.pinned_fp as u64);
    let mut regs: Vec<_> = r.assignment.iter().collect();
    regs.sort();
    for (op, reg) in regs {
        h.write_u64(op.index() as u64);
        h.write_u64(u64::from(*reg));
    }
}

fn fold_groups(h: &mut Fnv64, groups: &[veal::cca::CcaGroup]) {
    h.write_u64(groups.len() as u64);
    for g in groups {
        h.write_u64(g.node.map_or(u64::MAX, |n| n.index() as u64));
        h.write_u64(g.members.len() as u64);
        for m in &g.members {
            h.write_u64(m.index() as u64);
        }
    }
}

/// Every suite loop's separated graph, named `app#i`; loops that do not
/// separate are skipped.
fn separated_suite() -> Vec<(String, Dfg)> {
    let mut out = Vec::new();
    for app in veal::workloads::full_suite() {
        for (i, l) in app.loops.iter().enumerate() {
            if let Ok(sep) = separate(&l.raw.body.dfg, &mut CostMeter::new()) {
                out.push((format!("{}#{i}", app.name), sep.dfg));
            }
        }
    }
    out
}

#[test]
fn translate_matches_recorded_digest_on_full_suite() {
    let translator = Translator::new(
        AcceleratorConfig::paper_design(),
        Some(CcaSpec::paper()),
        TranslationPolicy::fully_dynamic(),
    );
    let hints = StaticHints::none();
    let mut h = Fnv64::new();
    let mut loops = 0usize;
    for app in veal::workloads::full_suite() {
        for l in &app.loops {
            loops += 1;
            let out = translator.translate(&l.raw.body, &hints);
            fold_breakdown(&mut h, &out.breakdown);
            match &out.result {
                Ok(t) => {
                    h.write_u64(t.dfg.content_hash());
                    fold_schedule(&mut h, &t.scheduled.schedule);
                    h.write_str(&format!("{}", t.scheduled.schedule));
                    h.write_u64(u64::from(t.scheduled.mii));
                    fold_registers(&mut h, &t.scheduled.registers);
                    h.write_u64(t.control_words as u64);
                    h.write_u64(t.cca_groups as u64);
                    h.write_u64(t.accel_ops as u64);
                }
                Err(e) => h.write_str(&format!("{e}")),
            }
        }
    }
    assert!(loops >= 27, "suite shrank: only {loops} loops");
    assert_digest("translate", h.finish(), 0x74cd_3194_ffa7_1214);
}

#[test]
fn cca_commit_and_hint_decode_match_recorded_digest() {
    // `map_cca` (identify + commit) and `verify_and_apply_cca` (the
    // hint-decode path, which vets the groups on a probe and collapses
    // them in one pass) on every separated suite loop: groups, graph
    // content and charges.
    let spec = CcaSpec::paper();
    let mut h = Fnv64::new();
    for (name, sep) in separated_suite() {
        let mut meter = CostMeter::new();
        let mut d = sep.clone();
        let groups = veal::cca::map_cca(&mut d, &spec, &mut meter);
        fold_groups(&mut h, &groups);
        h.write_u64(d.content_hash());
        fold_breakdown(&mut h, meter.breakdown());

        let groups: Vec<Vec<OpId>> = groups.into_iter().map(|g| g.members).collect();
        let mut meter = CostMeter::new();
        let mut d = sep.clone();
        let n = verify_and_apply_cca(&mut d, &spec, &groups, &mut meter);
        h.write_str(&format!("{n:?}"));
        h.write_u64(d.content_hash());
        fold_breakdown(&mut h, meter.breakdown());
        let mut replay = sep.clone();
        for g in &groups {
            replay.collapse(g);
        }
        assert_eq!(
            d.content_hash(),
            replay.content_hash(),
            "{name}: hint decode differs from direct collapse replay"
        );
    }
    assert_digest(
        "cca commit and hint decode",
        h.finish(),
        0x9a94_35f0_4710_df8f,
    );
}

#[test]
fn rec_mii_matches_recorded_digest() {
    let config = AcceleratorConfig::paper_design();
    let mut h = Fnv64::new();
    for (name, mut dfg) in separated_suite() {
        veal::cca::map_cca(&mut dfg, &CcaSpec::paper(), &mut CostMeter::new());
        let mut meter = CostMeter::new();
        let mii = rec_mii(&dfg, &config.latencies, &mut meter);
        assert_eq!(
            mii,
            rec_mii_from_frontier(&dfg, &config.latencies),
            "{name}: RecMII disagrees with the frontier"
        );
        h.write_u64(u64::from(mii));
        fold_breakdown(&mut h, meter.breakdown());
    }
    assert_digest("rec_mii", h.finish(), 0x3b77_ff45_09f6_906a);
}

/// The verdict a hint decoder owes `groups`, worked out the slow way: a
/// real copy of the graph collapsed group by group, each group checked by
/// [`veal::cca::is_legal_group`] against the copy's rebuilt condensation.
/// Returns the verdict, the graph the caller must end with, and the
/// charges, exactly as [`verify_and_apply_cca`] defines them.
fn sequential_decode(
    dfg: &Dfg,
    spec: &CcaSpec,
    groups: &[Vec<OpId>],
) -> (Result<usize, HintError>, Dfg, PhaseBreakdown) {
    let mut meter = CostMeter::new();
    meter.charge(Phase::HintDecode, dfg.len() as u64 + 4);
    let mut g = dfg.clone();
    let verdict = (|| {
        for (gi, group) in groups.iter().enumerate() {
            meter.charge(Phase::HintDecode, group.len() as u64);
            if group.is_empty() {
                return Err(HintError::CcaEmptyGroup);
            }
            let mut seen = std::collections::HashSet::new();
            for &m in group {
                if m.index() >= g.len() {
                    return Err(HintError::CcaMemberOutOfRange(m));
                }
                if !g.node(m).is_schedulable() {
                    return Err(HintError::CcaMemberNotSchedulable(m));
                }
                if !seen.insert(m) {
                    return Err(HintError::CcaDuplicateMember(m));
                }
            }
            if !veal::cca::is_legal_group(&g, spec, group, &g.condensation()) {
                return Err(HintError::CcaIllegalGroup { group: gi });
            }
            g.collapse(group);
        }
        Ok(groups.len())
    })();
    let out = if verdict.is_ok() { g } else { dfg.clone() };
    (verdict, out, *meter.breakdown())
}

#[test]
fn mutated_hint_verdicts_match_sequential_collapse() {
    // Hostile and stale hints must get the verdict (down to the
    // `HintError` variant), the charges and the graph that checking each
    // group on a graph collapsed group by group gives. The suite's own
    // hint groups are mutated the ways a forged section can: reordered,
    // merged, split, cross-wired to a previous group's CCA node,
    // duplicated.
    let spec = CcaSpec::paper();
    let mut rng = Rng64::new(0x41D_DEC0DE);
    let mut verdicts = std::collections::BTreeMap::<String, usize>::new();
    let mut h = Fnv64::new();
    for (name, sep) in separated_suite() {
        let base: Vec<Vec<OpId>> = veal::cca::identify_groups(&sep, &spec, &mut CostMeter::new())
            .into_iter()
            .map(|g| g.members)
            .collect();
        let ops: Vec<OpId> = sep.schedulable_ops().collect();
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
                        let id = sep.len() + rng.gen_range(0, k + 1);
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
            let mut meter = CostMeter::new();
            let mut d = sep.clone();
            let r = verify_and_apply_cca(&mut d, &spec, &groups, &mut meter);
            let (want_r, want_d, want_m) = sequential_decode(&sep, &spec, &groups);
            let name = format!("{name} case {case}");
            assert_eq!(r, want_r, "{name}: verdict on {groups:?}");
            assert_eq!(d, want_d, "{name}: graph");
            assert_eq!(*meter.breakdown(), want_m, "{name}: charges");
            h.write_str(&format!("{r:?}"));
            h.write_u64(d.content_hash());
            fold_breakdown(&mut h, meter.breakdown());
            let key = match &r {
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
    assert_digest("mutated hint verdicts", h.finish(), 0x1d85_e0b8_1bef_5e8b);
}
