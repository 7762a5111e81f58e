//! The single-pass modulo list scheduler (paper §4.1, "Scheduling").

use crate::mrt::ModuloReservationTable;
use crate::priority::depths;
use std::collections::VecDeque;
use std::fmt;
use veal_accel::{AcceleratorConfig, CapabilityError, ResourceKind};
use veal_ir::streams::StreamSummary;
use veal_ir::{CostMeter, Dfg, OpId, Phase};

/// Sentinel in the dense time table for ops without a scheduled time
/// (non-schedulable nodes, or slots of another attempt).
pub(crate) const UNSCHEDULED: i64 = i64::MIN;

/// A completed modulo schedule.
#[derive(Debug, Clone)]
pub struct ModuloSchedule {
    /// The achieved initiation interval.
    pub ii: u32,
    /// Absolute schedule time per node slot (indexed by `OpId::index()`,
    /// normalized so the earliest is 0); `UNSCHEDULED` where no op was
    /// placed.
    times: Vec<i64>,
    /// Unit assignment per node slot; meaningful only where `times` is set.
    units: Vec<(ResourceKind, usize)>,
}

impl ModuloSchedule {
    /// Schedule time of `op`, if it was scheduled.
    #[must_use]
    pub fn time(&self, op: OpId) -> Option<i64> {
        self.times
            .get(op.index())
            .copied()
            .filter(|&t| t != UNSCHEDULED)
    }

    /// Kernel row (`time mod II`) of `op`.
    #[must_use]
    pub fn cycle(&self, op: OpId) -> Option<u32> {
        self.time(op)
            .map(|t| t.rem_euclid(i64::from(self.ii)) as u32)
    }

    /// Pipeline stage (`time / II`) of `op`.
    #[must_use]
    pub fn stage(&self, op: OpId) -> Option<u32> {
        self.time(op).map(|t| (t / i64::from(self.ii)) as u32)
    }

    /// The unit `op` executes on.
    #[must_use]
    pub fn unit(&self, op: OpId) -> Option<(ResourceKind, usize)> {
        self.time(op)?;
        self.units.get(op.index()).copied()
    }

    /// Number of stages (SC): lower SC means lower iteration latency
    /// (paper §2.2).
    #[must_use]
    pub fn stage_count(&self) -> u32 {
        self.times
            .iter()
            .filter(|&&t| t != UNSCHEDULED)
            .map(|&t| (t / i64::from(self.ii)) as u32 + 1)
            .max()
            .unwrap_or(1)
    }

    /// All scheduled ops with their times, sorted by time then id.
    #[must_use]
    pub fn entries(&self) -> Vec<(OpId, i64)> {
        let mut v: Vec<(OpId, i64)> = self
            .times
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t != UNSCHEDULED)
            .map(|(i, &t)| (OpId::new(i), t))
            .collect();
        v.sort_by_key(|&(k, t)| (t, k));
        v
    }

    /// Size of the accelerator control configuration for this schedule, in
    /// 32-bit words: one instruction slot per (FU × II row) plus stream
    /// descriptors. Used to size the VM's code cache (paper §4.3 sizes 16
    /// translated loops at ~48 KB).
    #[must_use]
    pub fn control_words(&self, config: &AcceleratorConfig) -> usize {
        let fus = config.int_units + config.fp_units + config.cca_units;
        let agens = config.load_addr_gens + config.store_addr_gens;
        (fus + agens) * self.ii as usize + 2 * (config.load_streams + config.store_streams)
    }

    /// The dense per-slot representation: `(ii, times, units)`. Slots with
    /// no scheduled op carry [`Self::raw_unscheduled`] in `times`; their
    /// `units` entry is meaningless. Used by serializers (warm-state
    /// snapshots) that need the exact placement, not just the
    /// [`Self::entries`] view.
    #[must_use]
    pub fn raw_parts(&self) -> (u32, &[i64], &[(ResourceKind, usize)]) {
        (self.ii, &self.times, &self.units)
    }

    /// The `times` sentinel marking an unscheduled slot in
    /// [`Self::raw_parts`].
    #[must_use]
    pub fn raw_unscheduled() -> i64 {
        UNSCHEDULED
    }

    /// Reassembles a schedule from [`Self::raw_parts`] data. The caller
    /// owns validity: a schedule built from untrusted parts must be checked
    /// with [`crate::verify_schedule`] before use. `ii` is clamped to ≥ 1
    /// and `units` is resized to `times.len()` so the accessors never
    /// index out of bounds or divide by zero, whatever the input.
    #[must_use]
    pub fn from_raw_parts(ii: u32, times: Vec<i64>, mut units: Vec<(ResourceKind, usize)>) -> Self {
        units.resize(times.len(), (ResourceKind::Int, usize::MAX));
        ModuloSchedule {
            ii: ii.max(1),
            times,
            units,
        }
    }
}

impl fmt::Display for ModuloSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "II={} SC={}", self.ii, self.stage_count())?;
        for (op, t) in self.entries() {
            let (kind, unit) = self.unit(op).expect("entries are scheduled");
            writeln!(
                f,
                "  t={t:3} cycle={} stage={} {op} on {kind}{unit}",
                t.rem_euclid(i64::from(self.ii)),
                t / i64::from(self.ii),
            )?;
        }
        Ok(())
    }
}

/// Why a loop could not be scheduled onto the accelerator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// Stream requirements exceed the hardware.
    Capability(CapabilityError),
    /// The minimum II already exceeds the control-store depth.
    MiiExceedsControlStore {
        /// Required minimum II.
        mii: u32,
        /// Hardware maximum II.
        max_ii: u32,
    },
    /// No II up to the hardware maximum admitted a schedule.
    NoSchedule {
        /// The largest II attempted.
        tried_up_to: u32,
    },
    /// Register pressure exceeds the register file.
    Registers(crate::regalloc::RegisterPressure),
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::Capability(e) => write!(f, "{e}"),
            ScheduleError::MiiExceedsControlStore { mii, max_ii } => {
                write!(f, "MII {mii} exceeds control store depth {max_ii}")
            }
            ScheduleError::NoSchedule { tried_up_to } => {
                write!(f, "no feasible schedule up to II {tried_up_to}")
            }
            ScheduleError::Registers(p) => write!(f, "register pressure too high: {p}"),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Schedules `order` onto `config`, trying IIs from `mii` up to the
/// hardware maximum.
///
/// Placement follows the paper's walkthrough: each op's window is derived
/// from its already placed neighbours (`t(succ) ≥ t(pred) + latency −
/// II·distance`); the scheduler scans at most II slots in the appropriate
/// direction and, failing that for any op, retries the whole loop at
/// II + 1.
///
/// # Errors
///
/// [`ScheduleError::NoSchedule`] if no II ≤ `config.max_ii` works.
pub fn list_schedule(
    dfg: &Dfg,
    config: &AcceleratorConfig,
    order: &[OpId],
    mii: u32,
    streams: StreamSummary,
    meter: &mut CostMeter,
) -> Result<ModuloSchedule, ScheduleError> {
    let lat = &config.latencies;
    // Depths depend only on (dfg, lat). Only the Swing ordering builds the
    // II-parametric MinDist structure, which memoizes them; when this
    // thread still holds it, its copy is reused. Otherwise — static or
    // height priority, or a concretization whose order came from the
    // symbolic cache — the direct O(V + E) pass runs: building the whole
    // frontier just to read depths is the work a priority hint skips.
    // Both sources charge one unit per topo node, and both panic on
    // ill-formed (distance-0 cyclic) bodies exactly as before.
    let resident = crate::param::peek(dfg, lat);
    let owned;
    let d: &[u32] = match resident.as_ref().and_then(|p| p.profiles()) {
        Some((pd, _, topo_len)) => {
            meter.charge(Phase::Scheduling, topo_len as u64);
            pd
        }
        None => {
            owned = depths(dfg, lat, meter, Phase::Scheduling);
            &owned
        }
    };
    let start_ii = mii.max(config.min_ii_for_streams(streams)).max(1);
    // Bound the escalation: a loop that fails 64 consecutive IIs is not
    // going to schedule (keeps the huge-control-store infinite machine from
    // scanning thousands of IIs).
    let last_ii = config.max_ii.min(start_ii.saturating_add(63));
    // The reservation table, time/unit maps, and worklist are hoisted out
    // of the escalation loop and cleared per attempt, so retrying at II + 1
    // re-uses the previous attempt's allocations. The scratch itself is
    // parked in a thread-local between calls: the VM schedules hundreds of
    // small loops back to back (translation, DSE sweeps), and re-allocating
    // the Θ(units·II) reservation table per loop shows up at that scale.
    // No reset here: `try_schedule` resets (and re-sizes) the scratch at
    // the top of every attempt.
    let mut scratch = SCRATCH_POOL
        .with(|p| p.borrow_mut().take())
        .unwrap_or_else(|| SchedScratch::new(start_ii, config, order.len(), dfg.len()));
    scratch.load_latencies(dfg, lat);
    let mut result = Err(ScheduleError::NoSchedule {
        tried_up_to: last_ii,
    });
    for ii in start_ii..=last_ii {
        meter.charge(Phase::Scheduling, 4);
        if ii > start_ii {
            // Escalations past the MII are the scheduler retrying; their
            // count (per attempted II step) is the headline "how often does
            // modulo scheduling fail first try" metric.
            static ESCALATIONS: std::sync::OnceLock<&'static veal_obs::Counter> =
                std::sync::OnceLock::new();
            ESCALATIONS
                .get_or_init(|| veal_obs::counter("sched.ii_escalations"))
                .inc();
        }
        if let Some(schedule) = try_schedule(dfg, config, order, ii, d, &mut scratch, meter) {
            result = Ok(schedule);
            break;
        }
    }
    SCRATCH_POOL.with(|p| *p.borrow_mut() = Some(scratch));
    result
}

thread_local! {
    /// Parked [`SchedScratch`] reused across `list_schedule` calls on this
    /// thread (the reservation table and worklist keep their allocations;
    /// the dense time/unit tables move into each successful schedule).
    static SCRATCH_POOL: std::cell::RefCell<Option<SchedScratch>> =
        const { std::cell::RefCell::new(None) };
}

/// Per-attempt working state of [`try_schedule`], reused across the
/// II-escalation loop so each retry stops re-allocating Θ(units·II) tables
/// and Θ(nodes) tables. Times and units are dense over node slots —
/// lookups in the scheduler's inner loop are direct indexing instead of
/// hashing.
struct SchedScratch {
    mrt: ModuloReservationTable,
    times: Vec<i64>,
    units: Vec<(ResourceKind, usize)>,
    queue: VecDeque<OpId>,
    /// Per-slot operation latency (0 for non-ops); filled once per
    /// `list_schedule` call, shared by every II attempt.
    lat_of: Vec<u32>,
    /// Per-slot reservation span (1 for pipelined ops).
    span_of: Vec<u32>,
    /// Ejection victim buffer.
    victims: Vec<OpId>,
}

/// Dense-unit sentinel for slots with no reservation (and the default for
/// resource-free ops, matching `unit()`'s historical answer for them).
const NO_UNIT: (ResourceKind, usize) = (ResourceKind::Int, usize::MAX);

impl SchedScratch {
    fn new(ii: u32, config: &AcceleratorConfig, ops: usize, nodes: usize) -> Self {
        SchedScratch {
            mrt: ModuloReservationTable::with_unit_cap(ii, config, ops.max(1)),
            times: vec![UNSCHEDULED; nodes],
            units: vec![NO_UNIT; nodes],
            queue: VecDeque::with_capacity(ops),
            lat_of: Vec::with_capacity(nodes),
            span_of: Vec::with_capacity(nodes),
            victims: Vec::new(),
        }
    }

    /// Rebuilds the per-slot latency/span tables for `dfg`.
    fn load_latencies(&mut self, dfg: &Dfg, lat: &veal_accel::LatencyModel) {
        let opcs = dfg.adjacency().opcodes();
        self.lat_of.clear();
        self.span_of.clear();
        for &enc in opcs {
            let (l, sp) = match veal_ir::Opcode::decode(enc) {
                Some(op) => {
                    let l = lat.latency(op);
                    (l, if op.pipelined() { 1 } else { l })
                }
                None => (0, 1),
            };
            self.lat_of.push(l);
            self.span_of.push(sp);
        }
    }

    /// Empties every structure for a fresh attempt at `ii`.
    fn reset(&mut self, ii: u32, config: &AcceleratorConfig, ops: usize, nodes: usize) {
        self.mrt.reset(ii, config, ops.max(1));
        self.times.clear();
        self.times.resize(nodes, UNSCHEDULED);
        self.units.clear();
        self.units.resize(nodes, NO_UNIT);
        self.queue.clear();
        self.victims.clear();
    }
}

fn try_schedule(
    dfg: &Dfg,
    config: &AcceleratorConfig,
    order: &[OpId],
    ii: u32,
    depth: &[u32],
    scratch: &mut SchedScratch,
    meter: &mut CostMeter,
) -> Option<ModuloSchedule> {
    scratch.reset(ii, config, order.len(), dfg.len());
    let SchedScratch {
        mrt,
        times,
        units,
        queue,
        lat_of,
        span_of,
        victims,
    } = scratch;
    let adj = dfg.adjacency();
    let edges = dfg.edges();
    let opcs = adj.opcodes();

    // Worklist form of the list scheduler with a bounded ejection fallback
    // (Rau-style iterative scheduling): when an op's two-sided window is
    // structurally empty — its placed successors sit too close to its
    // placed predecessors — the successors are unplaced and rescheduled
    // after it. This keeps any externally supplied order (static hints,
    // height priority) feasible instead of failing every II.
    queue.extend(order.iter().copied());
    let mut ejections = 32 * order.len() as u64 + 64;

    while let Some(v) = queue.pop_front() {
        let op = veal_ir::Opcode::decode(opcs[v.index()]).expect("order contains only ops");
        let span = span_of[v.index()];

        // Earliest from placed predecessors, latest from placed successors.
        // The cost model charges one unit per adjacent edge; the count is
        // accumulated in a register and charged in bulk after the loops
        // (identical totals, no memory read-modify-write per edge).
        // Latencies come from the precomputed per-slot table.
        let mut edge_charges = 0u64;
        let mut early: Option<i64> = None;
        let mut late: Option<i64> = None;
        for &ei in adj.pred_edge_ids(v.index()) {
            let e = &edges[ei as usize];
            edge_charges += 1;
            if e.src == v {
                continue; // self edge: handled by the II >= RecMII bound
            }
            let tp = times[e.src.index()];
            if tp != UNSCHEDULED {
                let lp = i64::from(lat_of[e.src.index()]);
                let bound = tp + lp - i64::from(ii) * i64::from(e.distance);
                early = Some(early.map_or(bound, |b: i64| b.max(bound)));
            }
        }
        for &ei in adj.succ_edge_ids(v.index()) {
            let e = &edges[ei as usize];
            edge_charges += 1;
            if e.dst == v {
                continue;
            }
            let ts = times[e.dst.index()];
            if ts != UNSCHEDULED {
                let lv = i64::from(lat_of[v.index()]);
                let bound = ts - lv + i64::from(ii) * i64::from(e.distance);
                late = Some(late.map_or(bound, |b: i64| b.min(bound)));
            }
        }
        meter.charge(Phase::Scheduling, edge_charges);

        // Window and scan direction per the Swing scheme: top-down when
        // constrained from above, bottom-up when constrained from below. A
        // two-sided window that is empty (e0 > l0) or fully resource-blocked
        // triggers the ejection fallback: the placed successors are
        // unscheduled and retried after this op (Rau-style iterative
        // scheduling), which keeps any externally supplied order feasible.
        let slot = match (early, late) {
            (Some(e0), Some(l0)) if e0 > l0 => None,
            (Some(e0), Some(l0)) => scan_up(
                mrt,
                resource(op),
                e0,
                l0.min(e0 + i64::from(ii) - 1),
                span,
                meter,
            ),
            (Some(e0), None) => scan_up(mrt, resource(op), e0, e0 + i64::from(ii) - 1, span, meter),
            (None, Some(l0)) => {
                scan_down(mrt, resource(op), l0, l0 - i64::from(ii) + 1, span, meter)
            }
            (None, None) => {
                let e0 = i64::from(depth[v.index()]);
                scan_up(mrt, resource(op), e0, e0 + i64::from(ii) - 1, span, meter)
            }
        };
        let slot = match slot {
            Some(s) => s,
            None => {
                static SCHED_DEBUG: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
                if *SCHED_DEBUG.get_or_init(|| std::env::var_os("VEAL_SCHED_DEBUG").is_some()) {
                    eprintln!("stuck {v} ({op}) early={early:?} late={late:?} ii={ii}");
                }
                if late.is_none() || ejections == 0 {
                    // One-sided failures mean genuine resource shortage at
                    // this II; ejection cannot help.
                    return None;
                }
                ejections -= 1;
                meter.charge(Phase::Scheduling, 4);
                victims.clear();
                for &ei in adj.succ_edge_ids(v.index()) {
                    let e = &edges[ei as usize];
                    if e.dst != v && times[e.dst.index()] != UNSCHEDULED {
                        victims.push(e.dst);
                    }
                }
                if victims.is_empty() {
                    return None;
                }
                for w in victims.drain(..) {
                    let tw = std::mem::replace(&mut times[w.index()], UNSCHEDULED);
                    if tw != UNSCHEDULED {
                        let (kind, u) = std::mem::replace(&mut units[w.index()], NO_UNIT);
                        if u != usize::MAX {
                            mrt.release(kind, u, tw, span_of[w.index()]);
                        }
                        queue.push_back(w);
                    }
                }
                queue.push_front(v);
                continue;
            }
        };
        let (t, unit_choice) = slot;
        if let Some((kind, u)) = unit_choice {
            mrt.reserve(kind, u, t, span);
            units[v.index()] = (kind, u);
        }
        times[v.index()] = t;
    }

    // Normalize times so the earliest op is at 0 (keeping rows intact would
    // also be valid; normalizing keeps stage counts meaningful).
    let min_t = times
        .iter()
        .copied()
        .filter(|&t| t != UNSCHEDULED)
        .min()
        .unwrap_or(0);
    let shift = min_t.rem_euclid(i64::from(ii)) - min_t;
    for t in times.iter_mut() {
        if *t != UNSCHEDULED {
            *t += shift;
        }
    }
    // Resource-free ops (none today) keep the dense NO_UNIT default, which
    // is exactly what `unit()` has always answered for them.
    // Success ends the escalation loop, so the tables can move straight into
    // the schedule (the scratch is left empty).
    Some(ModuloSchedule {
        ii,
        times: std::mem::take(times),
        units: std::mem::take(units),
    })
}

fn resource(op: veal_ir::Opcode) -> ResourceKind {
    ResourceKind::for_opcode(op).unwrap_or(ResourceKind::Int)
}

type Slot = (i64, Option<(ResourceKind, usize)>);

// Both scans charge one unit per probed slot; the probe count is kept in a
// register and charged in bulk on exit (identical totals to the historical
// per-probe charge).
fn scan_up(
    mrt: &ModuloReservationTable,
    kind: ResourceKind,
    from: i64,
    to: i64,
    span: u32,
    meter: &mut CostMeter,
) -> Option<Slot> {
    let mut probes = 0u64;
    let mut t = from;
    while t <= to {
        probes += 1;
        if let Some(u) = mrt.find_unit(kind, t, span) {
            meter.charge(Phase::Scheduling, probes);
            return Some((t, Some((kind, u))));
        }
        t += 1;
    }
    meter.charge(Phase::Scheduling, probes);
    None
}

fn scan_down(
    mrt: &ModuloReservationTable,
    kind: ResourceKind,
    from: i64,
    to: i64,
    span: u32,
    meter: &mut CostMeter,
) -> Option<Slot> {
    let mut probes = 0u64;
    let mut t = from;
    while t >= to {
        probes += 1;
        if let Some(u) = mrt.find_unit(kind, t, span) {
            meter.charge(Phase::Scheduling, probes);
            return Some((t, Some((kind, u))));
        }
        t -= 1;
    }
    meter.charge(Phase::Scheduling, probes);
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::priority::swing_order;
    use veal_accel::LatencyModel;
    use veal_ir::{DfgBuilder, Opcode};

    fn schedule(dfg: &Dfg, config: &AcceleratorConfig, mii: u32) -> ModuloSchedule {
        let mut m = CostMeter::new();
        let order = swing_order(dfg, &LatencyModel::default(), mii, &mut m);
        list_schedule(dfg, config, &order, mii, StreamSummary::default(), &mut m)
            .expect("schedulable")
    }

    #[test]
    fn chain_scheduled_in_dependence_order() {
        let mut b = DfgBuilder::new();
        let x = b.op(Opcode::Mul, &[]);
        let y = b.op(Opcode::Add, &[x]);
        let dfg = b.finish();
        let s = schedule(&dfg, &AcceleratorConfig::paper_design(), 1);
        assert!(s.time(y).unwrap() >= s.time(x).unwrap() + 3);
    }

    #[test]
    fn five_int_ops_two_units_ii3() {
        // The paper's ResMII example: 5 independent int ops, 2 units.
        let mut b = DfgBuilder::new();
        for _ in 0..5 {
            b.op(Opcode::Shl, &[]);
        }
        let dfg = b.finish();
        let s = schedule(&dfg, &AcceleratorConfig::paper_design(), 3);
        assert_eq!(s.ii, 3);
        // No more than 2 ops share a kernel row.
        let mut per_row = [0; 3];
        for id in dfg.schedulable_ops() {
            per_row[s.cycle(id).unwrap() as usize] += 1;
        }
        assert!(per_row.iter().all(|&c| c <= 2));
    }

    #[test]
    fn recurrence_constrains_but_schedules() {
        let mut b = DfgBuilder::new();
        let m1 = b.op(Opcode::Mul, &[]);
        let o = b.op(Opcode::Or, &[m1]);
        b.loop_carried(o, m1, 1);
        let dfg = b.finish();
        let s = schedule(&dfg, &AcceleratorConfig::paper_design(), 4);
        assert_eq!(s.ii, 4);
        let tm = s.time(m1).unwrap();
        let to = s.time(o).unwrap();
        assert!(to >= tm + 3);
        // Loop-carried constraint: tm(next iter) = tm + 4 >= to + 1.
        assert!(tm + 4 > to);
    }

    #[test]
    fn ii_escalates_when_resources_tight() {
        // 4 FP ops on a 1-FP-unit machine with long latency chains.
        let la = AcceleratorConfig::builder().fp_units(1).build();
        let mut b = DfgBuilder::new();
        for _ in 0..4 {
            b.op(Opcode::FAdd, &[]);
        }
        let dfg = b.finish();
        let s = schedule(&dfg, &la, 1);
        assert!(s.ii >= 4);
    }

    #[test]
    fn unpipelined_div_occupies_span() {
        let la = AcceleratorConfig::builder().int_units(1).build();
        let mut b = DfgBuilder::new();
        b.op(Opcode::Div, &[]);
        b.op(Opcode::Add, &[]);
        let dfg = b.finish();
        // Div occupies its unit for 12 cycles; a second op needs II >= 13
        // on a single int unit.
        let s = schedule(&dfg, &la, 1);
        assert!(s.ii >= 13, "ii was {}", s.ii);
    }

    #[test]
    fn no_schedule_when_mii_exceeds_max() {
        let la = AcceleratorConfig::builder().max_ii(2).int_units(1).build();
        let mut b = DfgBuilder::new();
        for _ in 0..5 {
            b.op(Opcode::Add, &[]);
        }
        let dfg = b.finish();
        let mut m = CostMeter::new();
        let order = swing_order(&dfg, &LatencyModel::default(), 5, &mut m);
        let r = list_schedule(&dfg, &la, &order, 1, StreamSummary::default(), &mut m);
        assert!(matches!(r, Err(ScheduleError::NoSchedule { .. })));
    }

    #[test]
    fn stage_count_and_cycles() {
        let mut b = DfgBuilder::new();
        let x = b.op(Opcode::Mul, &[]);
        let y = b.op(Opcode::Mul, &[x]);
        let z = b.op(Opcode::Add, &[y]);
        let _ = z;
        let dfg = b.finish();
        // 3 int ops on 2 units: ResMII = 2.
        let s = schedule(&dfg, &AcceleratorConfig::paper_design(), 2);
        assert_eq!(s.ii, 2);
        // Chain latency 3+3+1 = 7 over II=2: at least 4 stages.
        assert!(s.stage_count() >= 4);
    }

    #[test]
    fn control_words_scale_with_ii() {
        let la = AcceleratorConfig::paper_design();
        let mut b = DfgBuilder::new();
        let x = b.op(Opcode::Add, &[]);
        b.loop_carried(x, x, 1);
        for _ in 0..7 {
            b.op(Opcode::Shl, &[]);
        }
        let dfg = b.finish();
        let s = schedule(&dfg, &la, 4);
        assert!(s.control_words(&la) > 0);
        assert!(s.control_words(&la) >= 11 * s.ii as usize);
    }

    #[test]
    fn display_lists_all_ops() {
        let mut b = DfgBuilder::new();
        let x = b.op(Opcode::Add, &[]);
        let _ = x;
        let dfg = b.finish();
        let s = schedule(&dfg, &AcceleratorConfig::paper_design(), 1);
        assert!(s.to_string().contains("II=1"));
        assert!(s.to_string().contains("op0"));
    }
}
