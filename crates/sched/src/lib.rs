//! Modulo scheduling for VEAL loop accelerators.
//!
//! Implements the translation pipeline of paper §4.1 from "Minimum II
//! Calculation" onward:
//!
//! * [`mii`] — ResMII (resource-constrained) and RecMII
//!   (recurrence-constrained) minimum initiation intervals;
//! * [`mindist`] — the all-pairs longest-path matrix used by the
//!   Swing ordering (the O(n³) pass that makes priority computation the
//!   dominant translation cost, 69% in the paper's Figure 8), and the
//!   per-recurrence diagonal the host actually computes for it;
//! * [`priority`] — Swing modulo scheduling order (Llosa et al.) and the
//!   cheaper height-based order (Rau), plus orders injected from static
//!   binary hints;
//! * [`mrt`] / [`scheduler`] — the modulo reservation table and the
//!   single-pass list scheduler;
//! * [`regalloc`] — MaxLive register-pressure analysis and assignment;
//! * [`verify`] — an independent checker for schedule validity.
//!
//! The top-level entry point is [`modulo_schedule`].
//!
//! # Example
//!
//! ```
//! use veal_accel::AcceleratorConfig;
//! use veal_ir::{CostMeter, DfgBuilder, Opcode};
//! use veal_sched::{modulo_schedule, ScheduleOptions};
//!
//! let mut b = DfgBuilder::new();
//! let x = b.load_stream(0);
//! let y = b.load_stream(1);
//! let p = b.op(Opcode::Mul, &[x, y]);
//! let s = b.op(Opcode::Add, &[p]);
//! b.loop_carried(s, s, 1);
//! b.mark_live_out(s);
//! let dfg = b.finish();
//!
//! let mut meter = CostMeter::new();
//! let la = AcceleratorConfig::paper_design();
//! let sched = modulo_schedule(&dfg, &la, &ScheduleOptions::default(), &mut meter)
//!     .expect("schedulable");
//! assert!(sched.schedule.ii >= 1);
//! ```

pub mod display;
pub mod mii;
pub mod mindist;
pub mod mrt;
pub mod priority;
pub mod regalloc;
pub mod scheduler;
pub mod symbolic;
pub mod verify;

pub use display::render_mrt;
pub use mii::{rec_mii, res_mii};
pub use mindist::MinDist;
pub use mrt::ModuloReservationTable;
pub use priority::{height_order, swing_order, PriorityKind};
pub use regalloc::{assign_registers, RegisterAssignment, RegisterPressure};
pub use scheduler::{list_schedule, ModuloSchedule, ScheduleError};
pub use symbolic::{concretize, SymbolicSchedule};
pub use verify::{verify_schedule, ScheduleDefect};

use veal_accel::AcceleratorConfig;
use veal_ir::streams::StreamSummary;
use veal_ir::{CostMeter, Dfg, OpId};

/// Knobs for the scheduling pipeline.
#[derive(Debug, Clone, Default)]
pub struct ScheduleOptions {
    /// Which priority function orders the ops.
    pub priority: PriorityKind,
    /// An externally supplied order (decoded from static binary hints);
    /// overrides `priority` when present.
    pub static_order: Option<Vec<OpId>>,
    /// Stream counts, when the caller has already separated streams (used
    /// for the address-generator multiplexing bound on II). Defaults to
    /// counting the graph's annotated streams.
    pub streams: Option<StreamSummary>,
}

/// A fully scheduled and register-allocated loop.
#[derive(Debug, Clone)]
pub struct ScheduledLoop {
    /// The modulo schedule (II, per-op times, stage count).
    pub schedule: ModuloSchedule,
    /// The register assignment.
    pub registers: RegisterAssignment,
    /// Minimum II that was attempted (max of ResMII and RecMII).
    pub mii: u32,
}

impl ScheduledLoop {
    /// Kernel cycles for `trips` iterations of this loop:
    /// `(SC + trips − 1) · II` (ramp-up through the prologue, one iteration
    /// completing per II in the kernel, drain through the epilogue).
    #[must_use]
    pub fn cycles(&self, trips: u64) -> u64 {
        (u64::from(self.schedule.stage_count()) + trips.saturating_sub(1))
            * u64::from(self.schedule.ii)
    }
}

fn stream_summary_of(dfg: &Dfg) -> StreamSummary {
    use veal_ir::Opcode;
    let mut loads = std::collections::HashSet::new();
    let mut stores = std::collections::HashSet::new();
    for id in dfg.schedulable_ops() {
        if let (Some(op), Some(s)) = (dfg.node(id).opcode(), dfg.node(id).stream) {
            match op {
                Opcode::Load => {
                    loads.insert(s);
                }
                Opcode::Store => {
                    stores.insert(s);
                }
                _ => {}
            }
        }
    }
    StreamSummary {
        loads: loads.len(),
        stores: stores.len(),
    }
}

/// Runs the full §4.1 pipeline on a *separated* loop body (compute ops and
/// stream-annotated memory accesses; CCA subgraphs already collapsed if a
/// CCA is present): MII calculation, priority, scheduling, register
/// assignment.
///
/// # Errors
///
/// Returns a [`ScheduleError`] when the loop cannot be mapped (too many
/// streams, no II ≤ `max_ii` admits a schedule, or register pressure
/// exceeds the file) — such loops execute on the baseline processor.
pub fn modulo_schedule(
    dfg: &Dfg,
    config: &AcceleratorConfig,
    options: &ScheduleOptions,
    meter: &mut CostMeter,
) -> Result<ScheduledLoop, ScheduleError> {
    let summary = options.streams.unwrap_or_else(|| stream_summary_of(dfg));
    config
        .check_streams(summary)
        .map_err(ScheduleError::Capability)?;

    let res = res_mii(dfg, config, summary, meter);
    let rec = rec_mii(dfg, &config.latencies, meter);
    let mii = res.max(rec);
    if mii > config.max_ii {
        return Err(ScheduleError::MiiExceedsControlStore {
            mii,
            max_ii: config.max_ii,
        });
    }

    let order = match &options.static_order {
        Some(order) => {
            // Decoding a static order costs one pass over the loop
            // (paper §4.2, Figure 9(c)).
            meter.charge(veal_ir::Phase::HintDecode, dfg.len() as u64);
            order.clone()
        }
        None => match options.priority {
            PriorityKind::Swing => swing_order(dfg, &config.latencies, mii, meter),
            PriorityKind::Height => height_order(dfg, &config.latencies, meter),
        },
    };

    // Schedule, then assign registers; excessive register pressure is
    // relieved by retrying at a higher II (longer kernels shorten the
    // *relative* lifetimes, reducing the self-overlap that costs extra
    // registers), up to the control-store depth.
    let mut ii_floor = mii;
    let mut last_pressure = None;
    for _ in 0..8 {
        let schedule = list_schedule(dfg, config, &order, ii_floor, summary, meter)?;
        let achieved = schedule.ii;
        match assign_registers(dfg, &schedule, config, meter) {
            Ok(registers) => {
                return Ok(ScheduledLoop {
                    schedule,
                    registers,
                    mii,
                })
            }
            Err(p) => {
                last_pressure = Some(p);
                if achieved >= config.max_ii {
                    break;
                }
                ii_floor = achieved + 1;
            }
        }
    }
    Err(ScheduleError::Registers(
        last_pressure.expect("retry loop ran at least once"),
    ))
}
