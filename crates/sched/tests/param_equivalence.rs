//! Seeded-corpus checks of the Swing ordering's MinDist kernel against
//! the whole-graph Floyd–Warshall (`MinDist::compute`).
//!
//! Three properties, over the same deterministic [`Rng64`] corpus:
//!
//! 1. The per-recurrence diagonal (`mindist::self_distances`, what
//!    `swing_order` ranks recurrences by) equals `MinDist::compute`'s
//!    diagonal for every op at every II from 1 to RecMII + 16, below
//!    RecMII included. The corpus gains larger loops here, so that
//!    recurrences of many members are covered.
//! 2. `swing_order` and `list_schedule` produce the orders, schedules
//!    *and abstract cost breakdowns* folded into a recorded digest. It was
//!    recorded when `swing_order` could still be switched to the naive
//!    MinDist kernel and checked equal under both, so the paper's measured
//!    translation cost does not depend on the host algorithm.
//! 3. The metered Bellman–Ford `rec_mii` is the smallest II at which the
//!    Floyd–Warshall diagonal holds no positive entry.

use veal_accel::{AcceleratorConfig, LatencyModel};
use veal_ir::meter::ALL_PHASES;
use veal_ir::rng::{Fnv64, Rng64};
use veal_ir::streams::{separate, StreamSummary};
use veal_ir::{CostMeter, Dfg, OpId};
use veal_sched::mindist::self_distances;
use veal_sched::{list_schedule, rec_mii, swing_order, MinDist};
use veal_workloads::{synth_loop, SynthSpec};

const CASES: u64 = 200;

/// Larger loops (33–64 compute ops) whose recurrences span many ops.
const LARGE_CASES: u64 = 20;

/// One corpus graph: a synthetic loop pushed through the same pipeline the
/// translator uses (stream separation, then greedy CCA mapping), so the
/// graphs carry stream ops, CCA pseudo-nodes, and loop-carried edges.
fn corpus_dfg(case: u64) -> Option<(Dfg, StreamSummary)> {
    let mut rng = Rng64::new(case.wrapping_mul(0x517C_C1B7_2722_0A95) ^ 0x5EED);
    let body = synth_loop(&SynthSpec {
        seed: rng.next_u64(),
        compute_ops: rng.gen_range(3, 24),
        fp_frac: if case.is_multiple_of(4) { 0.3 } else { 0.0 },
        loads: rng.gen_range(0, 4),
        stores: rng.gen_range(0, 2),
        recurrences: rng.gen_range(0, 3),
        rec_distance: 1 + (case as u32 % 3),
    });
    prepare(&body.dfg)
}

/// A larger corpus graph, built like [`corpus_dfg`]: every one carries a
/// recurrence from its last compute op back to its first.
fn large_corpus_dfg(case: u64) -> Option<(Dfg, StreamSummary)> {
    let mut rng = Rng64::new(case.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ 0x1A26E);
    let body = synth_loop(&SynthSpec {
        seed: rng.next_u64(),
        compute_ops: rng.gen_range(33, 65),
        fp_frac: if case.is_multiple_of(3) { 0.3 } else { 0.0 },
        loads: rng.gen_range(1, 5),
        stores: rng.gen_range(1, 3),
        recurrences: 1,
        rec_distance: 1 + (case as u32 % 3),
    });
    prepare(&body.dfg)
}

fn prepare(dfg: &Dfg) -> Option<(Dfg, StreamSummary)> {
    let mut meter = CostMeter::new();
    let sep = separate(dfg, &mut meter).ok()?;
    let summary = sep.summary();
    let mut dfg = sep.dfg;
    veal_cca::map_cca(&mut dfg, &veal_cca::CcaSpec::paper(), &mut meter);
    Some((dfg, summary))
}

/// Every corpus graph, small then large.
fn full_corpus() -> impl Iterator<Item = (String, Dfg)> {
    let small = (0..CASES).filter_map(|c| corpus_dfg(c).map(|(d, _)| (format!("case {c}"), d)));
    let large = (0..LARGE_CASES)
        .filter_map(|c| large_corpus_dfg(c).map(|(d, _)| (format!("large case {c}"), d)));
    small.chain(large)
}

/// The graph's recurrences as `swing_order` sees them: cyclic strongly
/// connected components whose members are all schedulable, each sorted by
/// id.
fn recurrences(dfg: &Dfg) -> Vec<Vec<OpId>> {
    let view = dfg.scc_view();
    let mut sets: Vec<Vec<OpId>> = vec![Vec::new(); view.n_comps];
    for (v, &c) in view.comp_of.iter().enumerate() {
        if c != u32::MAX && view.is_cyclic(c) {
            sets[c as usize].push(OpId::new(v));
        }
    }
    sets.retain(|s| !s.is_empty() && s.iter().all(|&v| dfg.node(v).is_schedulable()));
    sets
}

#[test]
fn recurrence_diagonal_matches_floyd_warshall_at_every_ii() {
    let lat = LatencyModel::default();
    let (mut cells, mut below_rec_mii, mut multi_member) = (0u64, 0u64, 0u64);
    let mut largest = 0usize;
    for (case, dfg) in full_corpus() {
        let rec = rec_mii(&dfg, &lat, &mut CostMeter::new());
        let sets = recurrences(&dfg);
        multi_member += sets.iter().filter(|s| s.len() > 1).count() as u64;
        largest = largest.max(sets.iter().map(Vec::len).max().unwrap_or(0));
        for ii in 1..=rec + 16 {
            let whole = MinDist::compute(&dfg, &lat, ii, &mut CostMeter::new());
            let mut covered = vec![false; dfg.len()];
            for set in &sets {
                for (&v, got) in set.iter().zip(self_distances(&dfg, &lat, set, ii)) {
                    assert_eq!(
                        got,
                        whole.get(v, v),
                        "{case} ii {ii}: MinDist({v}, {v}) diverged"
                    );
                    covered[v.index()] = true;
                    cells += 1;
                    below_rec_mii += u64::from(ii < rec);
                }
            }
            // An op outside every recurrence lies on no cycle.
            for &v in whole.ops() {
                if !covered[v.index()] {
                    assert_eq!(whole.get(v, v), None, "{case} ii {ii}: {v} on a cycle");
                }
            }
        }
    }
    assert!(
        cells > 20_000 && below_rec_mii > 5_000 && multi_member > 80 && largest >= 24,
        "corpus degenerated: {cells} cells, {below_rec_mii} below RecMII, \
         {multi_member} multi-member recurrences, largest {largest}"
    );
}

#[test]
fn swing_and_schedule_match_recorded_digest() {
    let config = AcceleratorConfig::paper_design();
    let lat = &config.latencies;
    let mut scheduled = 0u32;
    let mut h = Fnv64::new();
    for case in 0..CASES {
        let Some((dfg, summary)) = corpus_dfg(case) else {
            continue;
        };
        let mii = rec_mii(&dfg, lat, &mut CostMeter::new());
        let mut meter = CostMeter::new();
        let order = swing_order(&dfg, lat, mii, &mut meter);
        let sched = list_schedule(&dfg, &config, &order, mii, summary, &mut meter);
        for op in &order {
            h.write_u64(op.index() as u64);
        }
        for &p in ALL_PHASES {
            h.write_u64(meter.breakdown().get(p));
        }
        match sched {
            Ok(s) => {
                h.write_u64(u64::from(s.ii));
                for (op, t) in s.entries() {
                    h.write_u64(op.index() as u64);
                    h.write_u64(t as u64);
                    h.write_str(&format!("{:?}", s.unit(op)));
                }
                scheduled += 1;
            }
            Err(e) => h.write_str(&format!("{e:?}")),
        }
    }
    assert!(
        scheduled > 50,
        "corpus degenerated: {scheduled} schedulable"
    );
    let (got, want) = (h.finish(), 0x1617_fce1_cbaa_4ea8);
    assert_eq!(
        got, want,
        "schedule digest {got:#018x}, recorded {want:#018x}"
    );
}

/// Whether any op of `dfg` lies on a positive cycle at `ii`.
fn has_positive_diagonal(dfg: &Dfg, lat: &LatencyModel, ii: u32) -> bool {
    let md = MinDist::compute(dfg, lat, ii, &mut CostMeter::new());
    md.ops()
        .iter()
        .any(|&v| md.get(v, v).is_some_and(|d| d > 0))
}

#[test]
fn floyd_warshall_rec_mii_matches_bellman_ford() {
    let lat = LatencyModel::default();
    for (case, dfg) in full_corpus() {
        let rec = rec_mii(&dfg, &lat, &mut CostMeter::new());
        assert!(
            !has_positive_diagonal(&dfg, &lat, rec),
            "{case}: a cycle is still positive at RecMII {rec}"
        );
        assert!(
            rec == 1 || has_positive_diagonal(&dfg, &lat, rec - 1),
            "{case}: no cycle is positive at RecMII − 1 = {}",
            rec - 1
        );
    }
}
