//! Scheduling priority functions.
//!
//! * [`swing_order`] — the Swing Modulo Scheduling ordering (Llosa et al.
//!   \[19\]): recurrence sets first, most critical first, each extended with
//!   the nodes on paths to previously ordered sets, swept alternately
//!   bottom-up/top-down so every op is scheduled next to an already placed
//!   neighbour. This is the high-quality, expensive priority (the VM
//!   computes the MinDist matrix for it).
//! * [`height_order`] — Rau's height-based priority \[24\]: a single
//!   O(V + E) longest-path-to-sink pass. Much cheaper to compute, but with
//!   a single-pass list scheduler it "often yielded sub-optimal schedules"
//!   (paper §4.2) — reproduced here and evaluated in Figure 10.

use crate::mindist::self_distances;
use veal_accel::LatencyModel;
use veal_ir::{CostMeter, Dfg, OpId, Phase};

/// Which priority function the translator uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PriorityKind {
    /// Swing modulo scheduling order (recurrence-aware, expensive).
    #[default]
    Swing,
    /// Height-based order (cheap, sometimes worse II).
    Height,
}

/// The distance-0 topological order the longest-path passes walk. A
/// direct Kahn pass: the graph's full condensation (Tarjan plus the
/// reachability snapshot) is not needed just for its order. Any
/// topological order of the live nodes gives the same profiles and the
/// same charge.
fn topo0(dfg: &Dfg) -> Vec<OpId> {
    dfg.topo_order()
        .unwrap_or_else(|_| panic!("distance-0 subgraph must be acyclic"))
}

/// Computes per-op height: the longest latency path from the op to any sink
/// over distance-0 edges.
#[must_use]
pub fn heights(dfg: &Dfg, lat: &LatencyModel, meter: &mut CostMeter, phase: Phase) -> Vec<u32> {
    heights_over(dfg, lat, &topo0(dfg), meter, phase)
}

/// [`heights`] along a given distance-0 topological order of the live nodes.
fn heights_over(
    dfg: &Dfg,
    lat: &LatencyModel,
    order: &[OpId],
    meter: &mut CostMeter,
    phase: Phase,
) -> Vec<u32> {
    let mut h = vec![0u32; dfg.len()];
    for &v in order.iter().rev() {
        meter.charge(phase, 1);
        if !dfg.node(v).is_schedulable() {
            continue;
        }
        let l = dfg.node(v).opcode().map_or(0, |op| lat.latency(op));
        let best = dfg
            .succ_edges(v)
            .filter(|e| e.distance == 0 && dfg.node(e.dst).is_schedulable())
            .map(|e| h[e.dst.index()])
            .max()
            .unwrap_or(0);
        h[v.index()] = best + l;
    }
    h
}

/// Computes per-op depth: the longest latency path from any source to the
/// op over distance-0 edges (excluding the op's own latency).
#[must_use]
pub fn depths(dfg: &Dfg, lat: &LatencyModel, meter: &mut CostMeter, phase: Phase) -> Vec<u32> {
    depths_over(dfg, lat, &topo0(dfg), meter, phase)
}

/// [`depths`] along a given distance-0 topological order of the live nodes.
fn depths_over(
    dfg: &Dfg,
    lat: &LatencyModel,
    order: &[OpId],
    meter: &mut CostMeter,
    phase: Phase,
) -> Vec<u32> {
    let mut d = vec![0u32; dfg.len()];
    for &v in order {
        meter.charge(phase, 1);
        if !dfg.node(v).is_schedulable() {
            continue;
        }
        let best = dfg
            .pred_edges(v)
            .filter(|e| e.distance == 0 && dfg.node(e.src).is_schedulable())
            .map(|e| {
                let l = dfg.node(e.src).opcode().map_or(0, |op| lat.latency(op));
                d[e.src.index()] + l
            })
            .max()
            .unwrap_or(0);
        d[v.index()] = best;
    }
    d
}

/// Height-based scheduling order: ops sorted by decreasing height, ties by
/// increasing id (deterministic).
///
/// # Example
///
/// ```
/// use veal_accel::LatencyModel;
/// use veal_ir::{CostMeter, DfgBuilder, Opcode};
/// use veal_sched::height_order;
///
/// let mut b = DfgBuilder::new();
/// let x = b.op(Opcode::Mul, &[]);
/// let y = b.op(Opcode::Add, &[x]);
/// let order = height_order(&b.finish(), &LatencyModel::default(),
///                          &mut CostMeter::new());
/// assert_eq!(order, vec![x, y]);
/// ```
#[must_use]
pub fn height_order(dfg: &Dfg, lat: &LatencyModel, meter: &mut CostMeter) -> Vec<OpId> {
    let h = heights(dfg, lat, meter, Phase::Priority);
    let mut ops: Vec<OpId> = dfg.schedulable_ops().collect();
    meter.charge(
        Phase::Priority,
        (ops.len() as u64) * (64 - (ops.len() as u64).leading_zeros() as u64).max(1),
    );
    ops.sort_by_key(|&v| (std::cmp::Reverse(h[v.index()]), v));
    ops
}

#[inline]
fn bit_get(words: &[u64], i: usize) -> bool {
    words[i / 64] >> (i % 64) & 1 != 0
}

#[inline]
fn bit_set(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

#[inline]
fn bit_clear(words: &mut [u64], i: usize) {
    words[i / 64] &= !(1 << (i % 64));
}

/// Swing modulo scheduling order.
///
/// Recurrence sets are ordered by decreasing criticality; the nodes of each
/// set (plus, implicitly, path nodes encountered later) are emitted in an
/// alternating sweep that guarantees every emitted op (except set seeds) is
/// adjacent to an already emitted op — so the list scheduler always has a
/// one-sided or two-sided window to place it in.
///
/// A set's criticality is the largest MinDist self distance among its
/// members at `ii` (normally the MII). The meter charges the VM's
/// whole-graph Floyd–Warshall (`3n³ + 1` over the `n` schedulable ops);
/// the host runs it inside each recurrence only
/// ([`crate::mindist::self_distances`]), which yields the same diagonal at
/// every `ii`, below RecMII included.
#[must_use]
pub fn swing_order(dfg: &Dfg, lat: &LatencyModel, ii: u32, meter: &mut CostMeter) -> Vec<OpId> {
    let ii = ii.max(1);
    let n = dfg.schedulable_ops().count() as u64;
    meter.charge(Phase::Priority, 3 * n * n * n + 1);
    let topo = topo0(dfg);
    let d = depths_over(dfg, lat, &topo, meter, Phase::Priority);
    let h = heights_over(dfg, lat, &topo, meter, Phase::Priority);

    // Partition into recurrence sets and rank them. Only cyclic-SCC
    // membership matters here, so the allocation-free Tarjan suffices —
    // the full cached `Condensation` (per-component lists plus the reach0
    // snapshot) is never forced on the scheduling graph. Members are
    // collected in ascending id order, exactly the sorted component lists
    // the condensation would hand out, and `scc_membership`'s cyclic test
    // (size > 1, or a self-edge on the lone member) is the same predicate
    // the component filter used to apply inline.
    meter.charge(Phase::Priority, (dfg.len() as u64) * 2);
    let scc_view = dfg.scc_view();
    let mut packed = veal_ir::with_arena(veal_ir::DfgArena::take_u64);
    packed.clear();
    for (v, &c) in scc_view.comp_of.iter().enumerate() {
        if c != u32::MAX && scc_view.is_cyclic(c) {
            packed.push(u64::from(c) << 32 | v as u64);
        }
    }
    packed.sort_unstable();
    let mut members: Vec<OpId> = Vec::new();
    let mut set_bounds: Vec<(usize, usize)> = Vec::new();
    let mut i = 0usize;
    while i < packed.len() {
        let c = packed[i] >> 32;
        let start = members.len();
        let mut all_sched = true;
        while i < packed.len() && packed[i] >> 32 == c {
            let v = OpId::new((packed[i] & 0xffff_ffff) as usize);
            all_sched &= dfg.node(v).is_schedulable();
            members.push(v);
            i += 1;
        }
        if all_sched {
            set_bounds.push((start, members.len()));
        } else {
            members.truncate(start);
        }
    }
    veal_ir::with_arena(|a| a.give_u64(packed));
    // Each set's criticality is computed once, then the sets are sorted;
    // the key is total (distinct sets differ in their smallest member).
    // Component ids are assigned in Tarjan emission order, so the
    // pre-sort order matches the old comps() iteration.
    let mut rec_sets: Vec<(i64, &[OpId])> = set_bounds
        .iter()
        .map(|&(s, e)| {
            let scc = &members[s..e];
            let critical = self_distances(dfg, lat, scc, ii)
                .into_iter()
                .flatten()
                .max()
                .unwrap_or(i64::MIN);
            (critical, scc)
        })
        .collect();
    rec_sets.sort_by_key(|&(critical, scc)| {
        (
            std::cmp::Reverse(critical),
            std::cmp::Reverse(scc.len()),
            scc[0],
        )
    });

    // Membership sets as u64 bitmask words over node slots. The emission
    // loop (and its per-iteration charge of `remaining.len()`) is
    // unchanged; the selection key is a total order (it ends in the op
    // id), so the produced order is identical to the HashSet version.
    // "Adjacent to something placed" is monotone (the placed set only
    // grows), so instead of rescanning every pending node's edge lists
    // each round, a bitset of placed-adjacent nodes is updated once per
    // placement from the CSR adjacency.
    let adj = dfg.adjacency();
    let edges = dfg.edges();
    let words = dfg.len().div_ceil(64);
    let mut order: Vec<OpId> = Vec::new();
    let mut placed = vec![0u64; words];
    let mut adjacent = vec![0u64; words];
    let mut remaining = vec![0u64; words];
    let mut pending: Vec<OpId> = Vec::new();

    let mut emit_set = |set: &[OpId], order: &mut Vec<OpId>, placed: &mut Vec<u64>| {
        pending.clear();
        pending.extend(set.iter().copied().filter(|v| !bit_get(placed, v.index())));
        if pending.is_empty() {
            return;
        }
        // `remaining` drains to all-zero by the end of each call, so the
        // buffer is reusable without re-clearing.
        for &v in &pending {
            bit_set(&mut remaining, v.index());
        }
        let mut remaining_count = pending.len();
        while remaining_count > 0 {
            meter.charge(Phase::Priority, remaining_count as u64);
            // Prefer nodes adjacent to something already ordered (either
            // direction); among those, minimal mobility-ish key: highest
            // depth+height sum (most critical), then lowest id. Only the
            // minimum is ever used, so a single scan tracking the best
            // adjacent and best overall key replaces materializing and
            // sorting the candidate list — same total order, same choice.
            type Key = (std::cmp::Reverse<u32>, u32, OpId);
            let mut best_adj: Option<Key> = None;
            let mut best_any: Option<Key> = None;
            for &v in &pending {
                if !bit_get(&remaining, v.index()) {
                    continue;
                }
                let k = (
                    std::cmp::Reverse(d[v.index()] + h[v.index()]),
                    d[v.index()], // producers before consumers on ties
                    v,
                );
                if best_any.is_none_or(|b| k < b) {
                    best_any = Some(k);
                }
                if bit_get(&adjacent, v.index()) && best_adj.is_none_or(|b| k < b) {
                    best_adj = Some(k);
                }
            }
            let chosen = best_adj.or(best_any).expect("remaining_count > 0").2;
            bit_clear(&mut remaining, chosen.index());
            remaining_count -= 1;
            bit_set(placed, chosen.index());
            for &ei in adj.pred_edge_ids(chosen.index()) {
                bit_set(&mut adjacent, edges[ei as usize].src.index());
            }
            for &ei in adj.succ_edge_ids(chosen.index()) {
                bit_set(&mut adjacent, edges[ei as usize].dst.index());
            }
            order.push(chosen);
        }
    };

    for (_, scc) in rec_sets {
        emit_set(scc, &mut order, &mut placed);
    }
    // Final set: all remaining schedulable ops.
    let rest: Vec<OpId> = dfg
        .schedulable_ops()
        .filter(|v| !bit_get(&placed, v.index()))
        .collect();
    emit_set(&rest, &mut order, &mut placed);
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use veal_ir::{DfgBuilder, Opcode};

    #[test]
    fn heights_and_depths_of_chain() {
        let mut b = DfgBuilder::new();
        let x = b.op(Opcode::Mul, &[]); // lat 3
        let y = b.op(Opcode::Add, &[x]); // lat 1
        let z = b.op(Opcode::Add, &[y]);
        let dfg = b.finish();
        let mut m = CostMeter::new();
        let h = heights(&dfg, &LatencyModel::default(), &mut m, Phase::Priority);
        let d = depths(&dfg, &LatencyModel::default(), &mut m, Phase::Priority);
        assert_eq!(h[x.index()], 5);
        assert_eq!(h[z.index()], 1);
        assert_eq!(d[x.index()], 0);
        assert_eq!(d[y.index()], 3);
        assert_eq!(d[z.index()], 4);
    }

    #[test]
    fn height_order_puts_critical_first() {
        let mut b = DfgBuilder::new();
        let cheap = b.op(Opcode::Add, &[]);
        let deep1 = b.op(Opcode::Mul, &[]);
        let deep2 = b.op(Opcode::Add, &[deep1]);
        let _ = (cheap, deep2);
        let dfg = b.finish();
        let order = height_order(&dfg, &LatencyModel::default(), &mut CostMeter::new());
        assert_eq!(order[0], deep1);
    }

    #[test]
    fn swing_order_recurrence_first() {
        // An acyclic op plus a critical mul recurrence: the recurrence ops
        // must come before the acyclic one (paper: "schedule the most
        // critical recurrence first").
        let mut b = DfgBuilder::new();
        let acyclic = b.op(Opcode::Add, &[]);
        let mpy = b.op(Opcode::Mul, &[]);
        let or = b.op(Opcode::Or, &[mpy]);
        b.loop_carried(or, mpy, 1);
        let consume = b.op(Opcode::Add, &[or, acyclic]);
        let _ = consume;
        let dfg = b.finish();
        let order = swing_order(&dfg, &LatencyModel::default(), 4, &mut CostMeter::new());
        let pos = |v: OpId| order.iter().position(|&o| o == v).unwrap();
        assert!(pos(mpy) < pos(acyclic));
        assert!(pos(or) < pos(acyclic));
    }

    #[test]
    fn swing_order_two_recurrences_by_criticality() {
        // Recurrence A: fdiv (16 cy); recurrence B: add (1 cy). A first.
        let mut b = DfgBuilder::new();
        let slow = b.op(Opcode::FDiv, &[]);
        b.loop_carried(slow, slow, 1);
        let fast = b.op(Opcode::Add, &[]);
        b.loop_carried(fast, fast, 1);
        let dfg = b.finish();
        let order = swing_order(&dfg, &LatencyModel::default(), 16, &mut CostMeter::new());
        let pos = |v: OpId| order.iter().position(|&o| o == v).unwrap();
        assert!(pos(slow) < pos(fast));
    }

    #[test]
    fn swing_order_covers_all_ops_once() {
        let mut b = DfgBuilder::new();
        let x = b.load_stream(0);
        let y = b.op(Opcode::Mul, &[x, x]);
        let z = b.op(Opcode::Add, &[y]);
        b.loop_carried(z, z, 1);
        b.store_stream(1, z);
        let dfg = b.finish();
        let order = swing_order(&dfg, &LatencyModel::default(), 3, &mut CostMeter::new());
        let expect: HashSet<OpId> = dfg.schedulable_ops().collect();
        let got: HashSet<OpId> = order.iter().copied().collect();
        assert_eq!(order.len(), expect.len());
        assert_eq!(got, expect);
    }

    #[test]
    fn swing_nonseed_ops_adjacent_to_placed() {
        // Every op after the first in a connected graph must touch an
        // already ordered neighbour.
        let mut b = DfgBuilder::new();
        let a = b.load_stream(0);
        let c = b.op(Opcode::Add, &[a]);
        let d2 = b.op(Opcode::Mul, &[c]);
        let e = b.op(Opcode::Sub, &[d2, a]);
        b.store_stream(1, e);
        let dfg = b.finish();
        let order = swing_order(&dfg, &LatencyModel::default(), 2, &mut CostMeter::new());
        let mut placed: HashSet<OpId> = HashSet::new();
        placed.insert(order[0]);
        for &v in &order[1..] {
            let adjacent = dfg.pred_edges(v).any(|e| placed.contains(&e.src))
                || dfg.succ_edges(v).any(|e| placed.contains(&e.dst));
            assert!(adjacent, "{v} ordered with no placed neighbour");
            placed.insert(v);
        }
    }

    #[test]
    fn swing_is_more_expensive_than_height() {
        let mut b = DfgBuilder::new();
        let mut prev = b.op(Opcode::Add, &[]);
        for _ in 0..30 {
            prev = b.op(Opcode::Add, &[prev]);
        }
        let dfg = b.finish();
        let mut ms = CostMeter::new();
        let _ = swing_order(&dfg, &LatencyModel::default(), 1, &mut ms);
        let mut mh = CostMeter::new();
        let _ = height_order(&dfg, &LatencyModel::default(), &mut mh);
        assert!(ms.total() > 10 * mh.total());
    }
}
