//! All-pairs longest-path (MinDist) matrix.
//!
//! `MinDist[u][v]` is the largest value of `Σ latency − II·Σ distance` over
//! all paths from `u` to `v`; scheduling must satisfy
//! `t(v) ≥ t(u) + MinDist[u][v]`. The Swing ordering ranks recurrences by
//! the matrix diagonal.
//!
//! Computing it is Θ(n³) (Floyd–Warshall) — this is, by design, the
//! dominant cost of translation, matching the paper's finding that priority
//! computation consumes 69% of the ~100k-instruction average translation
//! penalty (Figure 8), and motivating its static precomputation (§4.2).
//! The meter charges that whole-graph kernel; the host runs it only over
//! each recurrence ([`self_distances`]), because the diagonal is all the
//! ordering reads.

use veal_accel::LatencyModel;
use veal_ir::{CostMeter, Dfg, OpId, Phase};

/// The MinDist matrix over the schedulable ops of a graph.
#[derive(Debug, Clone)]
pub struct MinDist {
    ops: Vec<OpId>,
    // Row-major; NEG_INF encodes "no path".
    dist: Vec<i64>,
    n: usize,
}

const NEG_INF: i64 = i64::MIN / 4;

/// The heaviest single edge between each pair of `members` (sorted by id)
/// at `ii`, row-major; `NEG_INF` where no edge joins the pair.
fn edge_weights(dfg: &Dfg, lat: &LatencyModel, members: &[OpId], ii: u32) -> Vec<i64> {
    let n = members.len();
    let mut dist = vec![NEG_INF; n * n];
    for (i, &u) in members.iter().enumerate() {
        let l = i64::from(dfg.node(u).opcode().map_or(0, |op| lat.latency(op)));
        for e in dfg.succ_edges(u) {
            let Ok(j) = members.binary_search(&e.dst) else {
                continue;
            };
            let w = l - i64::from(ii) * i64::from(e.distance);
            let cell = &mut dist[i * n + j];
            if w > *cell {
                *cell = w;
            }
        }
    }
    dist
}

/// In-place Floyd–Warshall over a row-major `n·n` matrix, with `k`, `i`
/// and `j` ascending. Below RecMII positive cycles keep it from
/// converging; the cells it leaves are still a fixed function of the
/// input, which is what [`self_distances`] relies on.
fn floyd_warshall(dist: &mut [i64], n: usize) {
    for k in 0..n {
        for i in 0..n {
            let dik = dist[i * n + k];
            if dik == NEG_INF {
                continue;
            }
            for j in 0..n {
                let through = dik + dist[k * n + j];
                if dist[k * n + j] != NEG_INF && through > dist[i * n + j] {
                    dist[i * n + j] = through;
                }
            }
        }
    }
}

impl MinDist {
    /// Computes the matrix at initiation interval `ii` with the Θ(n³)
    /// Floyd–Warshall kernel.
    ///
    /// Costs are charged to [`Phase::Priority`] because VEAL computes this
    /// matrix as part of priority calculation: `3n³ + 1`, because each
    /// inner step is several host instructions (two loads, compare, add,
    /// conditional store), charged as 3 abstract instructions calibrated
    /// against the paper's x86 instruction counts. [`crate::swing_order`]
    /// charges the same figure.
    #[must_use]
    pub fn compute(dfg: &Dfg, lat: &LatencyModel, ii: u32, meter: &mut CostMeter) -> Self {
        let ops: Vec<OpId> = dfg.schedulable_ops().collect();
        let n = ops.len();
        let mut dist = edge_weights(dfg, lat, &ops, ii);
        meter.charge(
            Phase::Priority,
            3 * (n as u64) * (n as u64) * (n as u64) + 1,
        );
        floyd_warshall(&mut dist, n);
        MinDist { ops, dist, n }
    }

    /// The schedulable ops this matrix covers, sorted by id.
    #[must_use]
    pub fn ops(&self) -> &[OpId] {
        &self.ops
    }

    /// Longest-path weight from `u` to `v`, or `None` when no path exists.
    #[must_use]
    pub fn get(&self, u: OpId, v: OpId) -> Option<i64> {
        let i = self.ops.binary_search(&u).ok()?;
        let j = self.ops.binary_search(&v).ok()?;
        let d = self.dist[i * self.n + j];
        (d != NEG_INF).then_some(d)
    }

    /// Whether `u` and `v` lie on a common cycle (mutually reachable).
    #[must_use]
    pub fn on_common_cycle(&self, u: OpId, v: OpId) -> bool {
        self.get(u, v).is_some() && self.get(v, u).is_some()
    }

    /// Earliest start of `v` relative to the graph's sources:
    /// `max(0, max_u MinDist[u][v])` over source ops `u` (no predecessors
    /// among schedulable ops).
    #[must_use]
    pub fn earliest(&self, dfg: &Dfg, v: OpId) -> i64 {
        let mut e = 0i64;
        for &u in &self.ops {
            let is_source = dfg
                .pred_edges(u)
                .all(|edge| edge.distance > 0 || !dfg.node(edge.src).is_schedulable());
            if !is_source {
                continue;
            }
            if let Some(d) = self.get(u, v) {
                e = e.max(d);
            }
        }
        e
    }
}

/// `MinDist[v][v]` at `ii` for each `v` of `members`, in member order:
/// the heaviest closed walk through `v`, or `None` where `v` lies on no
/// cycle among `members`. Unmetered — callers charge the whole-graph
/// kernel the VM runs.
///
/// The result equals [`MinDist::compute`]'s diagonal at every `ii`,
/// converged or not, whenever `members` is sorted by id and is a union of
/// strongly connected components of the schedulable ops (one recurrence,
/// say). Every vertex on a closed walk through a member lies in that
/// member's component, so the whole-graph Floyd–Warshall never updates a
/// cell between members through a vertex outside them; run over the
/// members alone, in the same ascending order, it makes the same updates
/// to those cells in the same order.
#[must_use]
pub fn self_distances(
    dfg: &Dfg,
    lat: &LatencyModel,
    members: &[OpId],
    ii: u32,
) -> Vec<Option<i64>> {
    let n = members.len();
    let mut dist = edge_weights(dfg, lat, members, ii);
    floyd_warshall(&mut dist, n);
    (0..n)
        .map(|i| {
            let d = dist[i * n + i];
            (d != NEG_INF).then_some(d)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use veal_ir::{DfgBuilder, Opcode};

    #[test]
    fn chain_distances() {
        let mut b = DfgBuilder::new();
        let x = b.op(Opcode::Mul, &[]); // 3 cycles
        let y = b.op(Opcode::Add, &[x]); // 1 cycle
        let z = b.op(Opcode::Add, &[y]);
        let dfg = b.finish();
        let mut m = CostMeter::new();
        let d = MinDist::compute(&dfg, &LatencyModel::default(), 2, &mut m);
        assert_eq!(d.get(x, y), Some(3));
        assert_eq!(d.get(x, z), Some(4));
        assert_eq!(d.get(z, x), None);
    }

    #[test]
    fn loop_carried_edge_subtracts_ii() {
        let mut b = DfgBuilder::new();
        let x = b.op(Opcode::Add, &[]);
        let y = b.op(Opcode::Add, &[x]);
        b.loop_carried(y, x, 1);
        let dfg = b.finish();
        let mut m = CostMeter::new();
        let d = MinDist::compute(&dfg, &LatencyModel::default(), 2, &mut m);
        // y -> x: 1 - 2*1 = -1.
        assert_eq!(d.get(y, x), Some(-1));
        assert!(d.on_common_cycle(x, y));
    }

    #[test]
    fn self_distance_zero_at_rec_mii() {
        // At II = RecMII the critical cycle has weight exactly 0.
        let mut b = DfgBuilder::new();
        let m1 = b.op(Opcode::Mul, &[]);
        let o = b.op(Opcode::Or, &[m1]);
        b.loop_carried(o, m1, 1);
        let dfg = b.finish();
        let mut m = CostMeter::new();
        let d = MinDist::compute(&dfg, &LatencyModel::default(), 4, &mut m);
        assert_eq!(d.get(m1, m1), Some(0));
    }

    #[test]
    fn cost_charged_cubically() {
        let mut b = DfgBuilder::new();
        let mut prev = b.op(Opcode::Add, &[]);
        for _ in 0..9 {
            prev = b.op(Opcode::Add, &[prev]);
        }
        let dfg = b.finish();
        let mut m = CostMeter::new();
        let _ = MinDist::compute(&dfg, &LatencyModel::default(), 1, &mut m);
        assert!(m.breakdown().get(Phase::Priority) >= 1000);
    }

    #[test]
    fn earliest_tracks_critical_path() {
        let mut b = DfgBuilder::new();
        let x = b.op(Opcode::Mul, &[]); // source, 3 cycles
        let y = b.op(Opcode::Add, &[x]);
        let dfg = b.finish();
        let mut m = CostMeter::new();
        let d = MinDist::compute(&dfg, &LatencyModel::default(), 1, &mut m);
        assert_eq!(d.earliest(&dfg, y), 3);
        assert_eq!(d.earliest(&dfg, x), 0);
    }
}
