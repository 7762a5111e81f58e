//! Seeded differential corpus for [`CollapseProbe`] and
//! [`Dfg::collapse_all`].
//!
//! The probe claims the verdict [`is_legal_group`] would give on the graph
//! left by collapsing every earlier accepted group, without collapsing; `collapse_all` claims the graph one [`Dfg::collapse`] per
//! group leaves. Both are checked here against the real thing: a copy of
//! the graph collapsed group by group. The corpus covers builder graphs
//! whose edge arrays are not canonical, graphs with tombstones (and with
//! edges still touching them), recurrences the collapses merge, and group
//! sequences mixing mapper-identified, random and deliberately overlapping
//! groups.

use veal_cca::{identify_groups, is_legal_group_in, CcaSpec, CollapseProbe, LegalityScratch};
use veal_ir::rng::Rng64;
use veal_ir::{CostMeter, Dfg, DfgBuilder, OpId, Opcode};

const CASES: u64 = 400;

/// A random graph of mostly CCA-supported ops with fan-out, a few
/// loop-carried edges (recurrences), and — depending on `shape` — its
/// edges canonicalized and some nodes tombstoned.
fn corpus_dfg(rng: &mut Rng64, shape: u64) -> Dfg {
    let supported = [
        Opcode::Add,
        Opcode::Sub,
        Opcode::And,
        Opcode::Or,
        Opcode::Xor,
        Opcode::Min,
        Opcode::Max,
    ];
    let mut b = DfgBuilder::new();
    let mut vals = vec![b.live_in(), b.live_in()];
    let mut ops = Vec::new();
    for _ in 0..rng.gen_range(4, 28) {
        let op = if rng.gen_bool(0.85) {
            supported[rng.gen_range(0, supported.len())]
        } else {
            [Opcode::Mul, Opcode::Shl][rng.gen_range(0, 2)]
        };
        let a = vals[rng.gen_range(0, vals.len())];
        let c = vals[rng.gen_range(0, vals.len())];
        let id = b.op(op, &[a, c]);
        vals.push(id);
        ops.push(id);
    }
    for _ in 0..rng.gen_range(0, 4) {
        let src = ops[rng.gen_range(0, ops.len())];
        let dst = ops[rng.gen_range(0, ops.len())];
        b.loop_carried(src, dst, rng.gen_range(1, 3) as u32);
    }
    let last = *ops.last().expect("ops");
    b.mark_live_out(last);
    let mut dfg = b.finish();
    match shape % 3 {
        // Builder order: usually not canonical.
        0 => {}
        // Tombstones through `remove_nodes`: canonical edges.
        1 => {
            let victim = ops[rng.gen_range(0, ops.len())];
            dfg.remove_nodes(&[victim]);
        }
        // Tombstones whose edges stay in the array.
        _ => {
            let victim = ops[rng.gen_range(0, ops.len())];
            dfg.mark_dead(victim);
        }
    }
    dfg
}

/// A candidate group sequence: the mapper's groups plus random ones,
/// some overlapping, some naming pseudo nodes or dead slots.
fn corpus_groups(rng: &mut Rng64, dfg: &Dfg) -> Vec<Vec<OpId>> {
    let spec = CcaSpec::paper();
    let mut groups: Vec<Vec<OpId>> = identify_groups(dfg, &spec, &mut CostMeter::new())
        .into_iter()
        .map(|g| g.members)
        .collect();
    let live: Vec<OpId> = dfg.schedulable_ops().collect();
    for _ in 0..rng.gen_range(0, 6) {
        let mut g: Vec<OpId> = if rng.gen_bool(0.5) {
            // A connected walk: seeds likely-legal chains.
            let mut v = live[rng.gen_range(0, live.len())];
            let mut g = vec![v];
            for _ in 0..rng.gen_range(0, 4) {
                let next: Vec<OpId> = dfg.succ_edges(v).map(|e| e.dst).collect();
                if next.is_empty() {
                    break;
                }
                v = next[rng.gen_range(0, next.len())];
                g.push(v);
            }
            g
        } else {
            (0..rng.gen_range(1, 5))
                .map(|_| OpId::new(rng.gen_range(0, dfg.len())))
                .collect()
        };
        g.sort();
        g.dedup();
        let at = rng.gen_range(0, groups.len() + 1);
        groups.insert(at, g);
    }
    groups
}

#[test]
fn probe_verdicts_match_sequential_collapse() {
    let spec = CcaSpec::paper();
    let (mut accepted_total, mut rejected_total) = (0usize, 0usize);
    for case in 0..CASES {
        let mut rng = Rng64::new(case.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC011);
        let dfg = corpus_dfg(&mut rng, case);
        let groups = corpus_groups(&mut rng, &dfg);

        let mut real = dfg.clone();
        let mut probe = CollapseProbe::new(&dfg);
        let mut scratch = LegalityScratch::new();
        let mut accepted: Vec<Vec<OpId>> = Vec::new();
        for g in &groups {
            assert_eq!(probe.len(), real.len(), "case {case}: slot count");
            let members_ok = g
                .iter()
                .all(|&m| m.index() < real.len() && real.node(m).is_schedulable());
            for &m in g.iter().filter(|m| m.index() < real.len()) {
                assert_eq!(
                    probe.is_schedulable(m),
                    real.node(m).is_schedulable(),
                    "case {case}: schedulability of {m}"
                );
            }
            if !members_ok {
                continue;
            }
            let cond = real.condensation();
            let want = is_legal_group_in(&real, &spec, g, &cond, &mut scratch);
            let got = probe.is_legal(&spec, g);
            assert_eq!(
                got, want,
                "case {case}: verdict on {g:?} after {accepted:?}"
            );
            if want {
                real.collapse(g);
                probe.collapse(g);
                accepted.push(g.clone());
                accepted_total += 1;
            } else {
                rejected_total += 1;
            }
        }
        drop(probe);

        let mut batched = dfg.clone();
        let ids = batched.collapse_all(accepted.iter().map(Vec::as_slice));
        assert_eq!(ids.len(), accepted.len());
        assert_eq!(batched, real, "case {case}: collapse_all diverged");
        assert_eq!(batched.content_hash(), real.content_hash());
    }
    // The corpus must exercise both verdicts in volume.
    assert!(accepted_total > 200, "accepted {accepted_total}");
    assert!(rejected_total > 200, "rejected {rejected_total}");
}
