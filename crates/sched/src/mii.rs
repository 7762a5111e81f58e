//! Minimum initiation interval calculation (paper §4.1).
//!
//! `II ≥ ResMII`: "since there are 5 integer instructions in the loop and 2
//! integer units, II must be at least ⌈5/2⌉" — per-resource-class op counts
//! divided by unit counts, plus the address-generator multiplexing bound.
//!
//! `II ≥ RecMII`: "because the longest recurrence is 4 cycles long, the II
//! must be at least 4" — the maximum over recurrence cycles of
//! `⌈Σ latency / Σ distance⌉`. Computed per strongly connected component
//! with a small binary search + Bellman–Ford feasibility check, keeping the
//! cost low (the paper measured ResMII+RecMII at only ~1.25k instructions
//! per loop).

use veal_accel::{AcceleratorConfig, LatencyModel, ResourceKind};
use veal_ir::streams::StreamSummary;
use veal_ir::{with_arena, CostMeter, Dfg, OpId, Phase};

/// Resource-constrained minimum II.
///
/// # Example
///
/// ```
/// use veal_accel::AcceleratorConfig;
/// use veal_ir::streams::StreamSummary;
/// use veal_ir::{CostMeter, DfgBuilder, Opcode};
/// use veal_sched::res_mii;
///
/// // 5 integer ops on 2 integer units -> ResMII = 3 (the paper's example).
/// let mut b = DfgBuilder::new();
/// let mut prev = b.op(Opcode::Shl, &[]);
/// for _ in 0..4 {
///     prev = b.op(Opcode::Shl, &[prev]);
/// }
/// let dfg = b.finish();
/// let la = AcceleratorConfig::paper_design();
/// let mut m = CostMeter::new();
/// assert_eq!(res_mii(&dfg, &la, StreamSummary::default(), &mut m), 3);
/// ```
#[must_use]
pub fn res_mii(
    dfg: &Dfg,
    config: &AcceleratorConfig,
    streams: StreamSummary,
    meter: &mut CostMeter,
) -> u32 {
    let mut counts = [0usize; 5];
    for id in dfg.schedulable_ops() {
        meter.charge(Phase::ResMii, 1);
        let op = dfg.node(id).opcode().expect("schedulable op");
        if let Some(kind) = ResourceKind::for_opcode(op) {
            counts[kind.index()] += 1;
        }
    }
    let mut mii = 1u32;
    for &kind in veal_accel::resources::ALL_RESOURCES {
        let n = counts[kind.index()];
        if n == 0 {
            continue;
        }
        let units = config.units(kind);
        meter.charge(Phase::ResMii, 2);
        if units == 0 {
            // No unit of a needed class: effectively unschedulable; signal
            // with an II beyond any control store.
            return u32::MAX;
        }
        mii = mii.max(n.div_ceil(units) as u32);
    }
    // Address generators are time-multiplexed: a generator serves at most II
    // streams (paper §3.1).
    mii = mii.max(config.min_ii_for_streams(streams));
    mii
}

/// Recurrence-constrained minimum II.
///
/// # Example
///
/// ```
/// use veal_accel::LatencyModel;
/// use veal_ir::{CostMeter, DfgBuilder, Opcode};
/// use veal_sched::rec_mii;
///
/// // mul (3 cy) -> or (1 cy) -> back at distance 1: RecMII = 4.
/// let mut b = DfgBuilder::new();
/// let m = b.op(Opcode::Mul, &[]);
/// let o = b.op(Opcode::Or, &[m]);
/// b.loop_carried(o, m, 1);
/// let mut meter = CostMeter::new();
/// assert_eq!(rec_mii(&b.finish(), &LatencyModel::default(), &mut meter), 4);
/// ```
#[must_use]
pub fn rec_mii(dfg: &Dfg, lat: &LatencyModel, meter: &mut CostMeter) -> u32 {
    // The metered algorithm is the VM's: an SCC pass plus the per-SCC
    // binary search + Bellman–Ford below — the paper's ~1.25k
    // instructions. Only the cyclic SCCs matter, and RecMII is a max over
    // them, so the host reads an SCC membership map off the graph instead
    // of the full condensation. Each cyclic component's members collect in
    // ascending slot order, the order the relaxation scans them in.
    let adj = dfg.adjacency();
    let edges = dfg.edges();
    meter.charge(Phase::RecMii, dfg.len() as u64);
    let scc_view = dfg.scc_view();
    let mut packed = with_arena(veal_ir::DfgArena::take_u64);
    // Members of cyclic components as `(comp << 32) | slot`: sorting groups
    // them by component with slots ascending inside each run.
    packed.clear();
    for v in 0..dfg.len() {
        let c = scc_view.comp_of[v];
        if c != u32::MAX && scc_view.is_cyclic(c) {
            packed.push(u64::from(c) << 32 | v as u64);
        }
    }
    packed.sort_unstable();

    let mut mii = 1u32;
    // Reused across SCCs: the compacted subgraph and the Bellman–Ford
    // distance column.
    let mut sedges: Vec<(u32, u32, i64, i64)> = Vec::new();
    let mut dist: Vec<i64> = Vec::new();
    let mut start = 0usize;
    while start < packed.len() {
        let c = packed[start] >> 32;
        let mut end = start + 1;
        while end < packed.len() && packed[end] >> 32 == c {
            end += 1;
        }
        let scc = &packed[start..end];
        // Compact the SCC subgraph once — `(src index, dst index, src
        // latency, distance)` in SCC member order × successor-edge order —
        // so each Bellman–Ford pass below runs over a flat array instead
        // of re-walking adjacency, re-resolving member indices, and
        // re-reading latencies per relaxation.
        sedges.clear();
        let mut lat_sum = 0u32;
        for (i, &pv) in scc.iter().enumerate() {
            let v = OpId::new((pv & 0xffff_ffff) as usize);
            let l = dfg.node(v).opcode().map_or(0, |op| lat.latency(op));
            lat_sum += l;
            for &ei in adj.succ_edge_ids(v.index()) {
                let e = &edges[ei as usize];
                // In-SCC targets share the packed high word, so the search
                // key is just the packed (comp, dst) pair.
                if let Ok(j) = scc.binary_search(&(c << 32 | e.dst.index() as u64)) {
                    sedges.push((i as u32, j as u32, i64::from(l), i64::from(e.distance)));
                }
            }
        }
        // Upper bound: the sum of latencies around the component.
        let mut lo = 1u32;
        let mut hi = lat_sum.max(1);
        // Binary search the smallest II with no positive cycle in the SCC.
        while lo < hi {
            let mid = (lo + hi) / 2;
            if has_positive_cycle(&sedges, scc.len(), mid, &mut dist, meter) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        mii = mii.max(lo);
        start = end;
    }
    with_arena(|a| a.give_u64(packed));
    mii
}

/// RecMII read directly off the cached II-parametric MinDist structure
/// ([`crate::MinDistParam`]): the smallest II at which no frontier
/// diagonal entry is positive. **Unmetered** — the VM's cost model still
/// runs (and charges for) the Bellman–Ford in [`rec_mii`]; this accessor
/// serves host-side fast paths and cross-checks.
///
/// Equals [`rec_mii`] for every well-formed body (recurrence cycles pass
/// only through schedulable ops); property tests assert the equality over
/// a randomized corpus.
#[must_use]
pub fn rec_mii_from_frontier(dfg: &Dfg, lat: &LatencyModel) -> u32 {
    crate::param::cached(dfg, lat).rec_mii()
}

/// Bellman–Ford style positive-cycle detection on a pre-compacted SCC edge
/// list `(src index, dst index, src latency, distance)`, with edge weight
/// `latency(src) − ii·distance`. One unit is charged per in-SCC edge per
/// executed round (batched into one call per round); the rounds stop
/// early once nothing changes, and improvement in round `n` implies a
/// positive cycle.
fn has_positive_cycle(
    sedges: &[(u32, u32, i64, i64)],
    n: usize,
    ii: u32,
    dist: &mut Vec<i64>,
    meter: &mut CostMeter,
) -> bool {
    dist.clear();
    dist.resize(n, 0);
    for round in 0..=n {
        meter.charge(Phase::RecMii, sedges.len() as u64);
        let mut changed = false;
        for &(i, j, l, d) in sedges {
            let w = l - i64::from(ii) * d;
            let cand = dist[i as usize] + w;
            if cand > dist[j as usize] {
                dist[j as usize] = cand;
                changed = true;
            }
        }
        if !changed {
            return false;
        }
        if round == n {
            return true;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use veal_ir::{DfgBuilder, Opcode};

    fn meter() -> CostMeter {
        CostMeter::new()
    }

    #[test]
    fn acyclic_loop_rec_mii_is_one() {
        let mut b = DfgBuilder::new();
        let x = b.load_stream(0);
        let y = b.op(Opcode::Add, &[x, x]);
        b.store_stream(1, y);
        assert_eq!(
            rec_mii(&b.finish(), &LatencyModel::default(), &mut meter()),
            1
        );
    }

    #[test]
    fn self_accumulator_rec_mii_is_latency() {
        let mut b = DfgBuilder::new();
        let acc = b.op(Opcode::FAdd, &[]);
        b.loop_carried(acc, acc, 1);
        // FAdd latency 3, distance 1 -> RecMII 3.
        assert_eq!(
            rec_mii(&b.finish(), &LatencyModel::default(), &mut meter()),
            3
        );
    }

    #[test]
    fn distance_two_halves_rec_mii() {
        let mut b = DfgBuilder::new();
        let acc = b.op(Opcode::FAdd, &[]);
        b.loop_carried(acc, acc, 2);
        // 3 cycles over distance 2 -> ceil(3/2) = 2.
        assert_eq!(
            rec_mii(&b.finish(), &LatencyModel::default(), &mut meter()),
            2
        );
    }

    #[test]
    fn paper_figure5_recurrences() {
        // Two 4-cycle recurrences: shl(1)+cca(2)+shr(1) and mpy(3)+or(1).
        let mut b = DfgBuilder::new();
        let shl = b.op(Opcode::Shl, &[]);
        let cca = b.op(Opcode::And, &[shl]); // stand-in; collapsed later
        let shr = b.op(Opcode::Shr, &[cca]);
        b.loop_carried(shr, shl, 1);
        let mpy = b.op(Opcode::Mul, &[]);
        let or = b.op(Opcode::Or, &[mpy]);
        b.loop_carried(or, mpy, 1);
        let mut dfg = b.finish();
        // Collapse the stand-in into a real 2-cycle CCA node.
        dfg.collapse(&[cca]);
        // shl(1) + cca(2) + shr(1) = 4; mpy(3) + or(1) = 4.
        assert_eq!(rec_mii(&dfg, &LatencyModel::default(), &mut meter()), 4);
    }

    #[test]
    fn res_mii_integer_example_from_paper() {
        // 5 int ops, 2 int units -> 3.
        let mut b = DfgBuilder::new();
        for _ in 0..5 {
            b.op(Opcode::Shl, &[]);
        }
        let la = AcceleratorConfig::paper_design();
        assert_eq!(
            res_mii(&b.finish(), &la, StreamSummary::default(), &mut meter()),
            3
        );
    }

    #[test]
    fn res_mii_counts_classes_independently() {
        let mut b = DfgBuilder::new();
        for _ in 0..4 {
            b.op(Opcode::Mul, &[]);
        }
        for _ in 0..6 {
            b.op(Opcode::FAdd, &[]);
        }
        let la = AcceleratorConfig::paper_design();
        // int: ceil(4/2)=2, fp: ceil(6/2)=3 -> 3.
        assert_eq!(
            res_mii(&b.finish(), &la, StreamSummary::default(), &mut meter()),
            3
        );
    }

    #[test]
    fn res_mii_missing_unit_class_is_unschedulable() {
        let mut b = DfgBuilder::new();
        b.op(Opcode::FAdd, &[]);
        let la = AcceleratorConfig::builder().fp_units(0).build();
        assert_eq!(
            res_mii(&b.finish(), &la, StreamSummary::default(), &mut meter()),
            u32::MAX
        );
    }

    #[test]
    fn res_mii_stream_multiplexing_bound() {
        let mut b = DfgBuilder::new();
        b.op(Opcode::Add, &[]);
        let la = AcceleratorConfig::paper_design();
        let streams = StreamSummary {
            loads: 16,
            stores: 0,
        };
        // 16 streams / 4 generators -> II >= 4.
        assert_eq!(res_mii(&b.finish(), &la, streams, &mut meter()), 4);
    }

    #[test]
    fn mem_ops_schedule_on_ports() {
        let mut b = DfgBuilder::new();
        for i in 0..8 {
            b.load_stream(i);
        }
        let la = AcceleratorConfig::paper_design();
        // 8 load ops on 4 load ports -> II >= 2.
        assert_eq!(
            res_mii(
                &b.finish(),
                &la,
                StreamSummary {
                    loads: 8,
                    stores: 0
                },
                &mut meter()
            ),
            2
        );
    }

    #[test]
    fn two_node_cycle_with_slack_distance() {
        // a -> b (0), b -> a (distance 3), latencies 1+1=2 over distance 3
        // -> RecMII 1.
        let mut b = DfgBuilder::new();
        let x = b.op(Opcode::Add, &[]);
        let y = b.op(Opcode::Sub, &[x]);
        b.loop_carried(y, x, 3);
        assert_eq!(
            rec_mii(&b.finish(), &LatencyModel::default(), &mut meter()),
            1
        );
    }
}
