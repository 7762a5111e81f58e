//! Seeded-corpus equivalence of the II-parametric MinDist against the
//! naive Floyd–Warshall kernel (ISSUE: ~200 random DFGs).
//!
//! Three properties, each over the same deterministic [`Rng64`] corpus:
//!
//! 1. `MinDistParam::eval_pair` equals `MinDist::compute_naive` for every
//!    op pair at every II in 1..=16 where the parametric structure is
//!    valid (and validity begins exactly at its RecMII).
//! 2. `swing_order` and `list_schedule` produce the orders, schedules
//!    *and abstract cost breakdowns* folded into a recorded digest. It was
//!    recorded when `swing_order` could still be switched to the naive
//!    MinDist kernel and checked equal under both, so the paper's measured
//!    translation cost does not depend on the host algorithm.
//! 3. `rec_mii_from_frontier` equals the metered Bellman–Ford `rec_mii`.

use veal_accel::{AcceleratorConfig, LatencyModel};
use veal_ir::meter::ALL_PHASES;
use veal_ir::rng::{Fnv64, Rng64};
use veal_ir::streams::{separate, StreamSummary};
use veal_ir::{CostMeter, Dfg};
use veal_sched::{
    list_schedule, rec_mii, rec_mii_from_frontier, swing_order, MinDist, MinDistParam,
};
use veal_workloads::{synth_loop, SynthSpec};

const CASES: u64 = 200;

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
    let mut meter = CostMeter::new();
    let sep = separate(&body.dfg, &mut meter).ok()?;
    let summary = sep.summary();
    let mut dfg = sep.dfg;
    veal_cca::map_cca(&mut dfg, &veal_cca::CcaSpec::paper(), &mut meter);
    Some((dfg, summary))
}

#[test]
fn parametric_matches_naive_for_all_pairs_at_every_ii() {
    let lat = LatencyModel::default();
    let mut pairs_checked = 0u64;
    for case in 0..CASES {
        let Some((dfg, _)) = corpus_dfg(case) else {
            continue;
        };
        let param = MinDistParam::compute(&dfg, &lat);
        for ii in 1..=16u32 {
            assert_eq!(
                param.valid_at(ii),
                ii >= param.rec_mii(),
                "case {case}: validity must begin exactly at RecMII"
            );
            if !param.valid_at(ii) {
                // Below RecMII the naive matrix has a positive diagonal
                // and the pruned frontiers are not comparable by design.
                continue;
            }
            let naive = MinDist::compute_naive(&dfg, &lat, ii, &mut CostMeter::new());
            for &u in param.ops() {
                for &v in param.ops() {
                    assert_eq!(
                        param.eval_pair(u, v, ii),
                        naive.get(u, v),
                        "case {case} ii {ii}: MinDist({u}, {v}) diverged"
                    );
                    pairs_checked += 1;
                }
            }
        }
    }
    assert!(
        pairs_checked > 100_000,
        "corpus degenerated: only {pairs_checked} pairs compared"
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

#[test]
fn frontier_rec_mii_matches_bellman_ford() {
    let lat = LatencyModel::default();
    for case in 0..CASES {
        let Some((dfg, _)) = corpus_dfg(case) else {
            continue;
        };
        assert_eq!(
            rec_mii_from_frontier(&dfg, &lat),
            rec_mii(&dfg, &lat, &mut CostMeter::new()),
            "case {case}: RecMII diverged"
        );
    }
}
