//! Symbolic schedules: the configuration-independent half of the
//! scheduling pipeline, computed once per loop family and concretized per
//! configuration.
//!
//! [`modulo_schedule`](crate::modulo_schedule) interleaves two kinds of
//! work. RecMII and the priority order depend only on `(graph, latencies,
//! II)` — for every configuration in an [`veal_accel::AcceleratorFamily`]
//! (which fixes the latency model) they come out identical, and their
//! charges are deterministic. ResMII, the list scheduler, and register
//! assignment genuinely depend on unit/register counts and must run per
//! configuration. A [`SymbolicSchedule`] caches the former — the RecMII
//! value and, per distinct MII, the priority order, each with the exact
//! [`PhaseBreakdown`] the real computation charged — so that
//! [`concretize`] replays the cached charges bit-identically and spends
//! host time only on the cheap configuration-dependent suffix (which
//! reuses the scheduler's thread-local scratch pool, so a concretization
//! is allocation-light). This cache is the only place priority work is
//! reused across configurations or IIs, after Witterauf et al.'s
//! symbolic loop compilation: the Swing ordering itself keeps no state
//! between calls.
//!
//! The bit-identity contract: for any `(dfg, options)` pair the symbolic
//! schedule was built against and any configuration with the family's
//! latency model, `concretize` returns the same `Result` and charges the
//! same per-phase costs as `modulo_schedule` — asserted by the property
//! corpus below, by `bench_translate`'s concretize-vs-translate check and
//! by `bench_dse`'s serial-vs-sweep check.

use crate::mii::{rec_mii, res_mii};
use crate::priority::{height_order, swing_order, PriorityKind};
use crate::regalloc::assign_registers;
use crate::scheduler::list_schedule;
use crate::{ScheduleError, ScheduleOptions, ScheduledLoop};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use veal_accel::AcceleratorConfig;
use veal_ir::meter::ALL_PHASES;
use veal_ir::{CostMeter, Dfg, OpId, Phase, PhaseBreakdown};

/// A cached priority order plus the exact charges its real computation
/// made.
#[derive(Debug)]
struct OrderEntry {
    order: Vec<OpId>,
    charges: PhaseBreakdown,
}

/// Key of the order cache: the MII the order was computed at for the Swing
/// priority (which reads MinDist self distances at that II), or this
/// sentinel for the II-independent height priority.
const HEIGHT_KEY: u32 = u32::MAX;

/// The family-invariant scheduling state of one loop: cached RecMII and
/// per-MII priority orders, each paired with the [`PhaseBreakdown`] the
/// underlying kernel charged, so concretizations replay costs exactly.
///
/// A `SymbolicSchedule` is valid for exactly one `(separated graph,
/// latency model)` pair — the caller (the VM's family-keyed memo entry)
/// owns that pairing. It is internally synchronized: one instance is
/// shared across serving threads via `Arc`, and racing fills of the same
/// cache slot compute identical values (first writer wins).
#[derive(Debug, Default)]
pub struct SymbolicSchedule {
    /// `(RecMII, charges)` — Bellman–Ford over the recurrence edges
    /// depends only on the graph and latencies.
    rec: OnceLock<(u32, PhaseBreakdown)>,
    /// Priority orders by MII (or [`HEIGHT_KEY`]).
    orders: Mutex<HashMap<u32, Arc<OrderEntry>>>,
}

impl SymbolicSchedule {
    /// Creates an empty symbolic schedule; caches fill on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct priority orders cached so far (telemetry).
    #[must_use]
    pub fn cached_orders(&self) -> usize {
        self.orders
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Cached RecMII: computed for real (with its exact charges recorded)
    /// on first use, replayed thereafter.
    fn rec_mii(&self, dfg: &Dfg, lat: &veal_accel::LatencyModel, meter: &mut CostMeter) -> u32 {
        let (value, charges) = self.rec.get_or_init(|| {
            let mut scratch = CostMeter::new();
            let value = rec_mii(dfg, lat, &mut scratch);
            (value, *scratch.breakdown())
        });
        replay(meter, charges);
        *value
    }

    /// Cached priority order for `key` (an MII, or [`HEIGHT_KEY`]),
    /// computing through `make` on the first request.
    fn order(
        &self,
        key: u32,
        meter: &mut CostMeter,
        make: impl FnOnce(&mut CostMeter) -> Vec<OpId>,
    ) -> Arc<OrderEntry> {
        let cached = self
            .orders
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
            .cloned();
        let entry = match cached {
            Some(e) => e,
            None => {
                // Compute outside the lock (priority is the O(n³) phase);
                // a racing thread computes the identical entry and the
                // first insert wins.
                let mut scratch = CostMeter::new();
                let order = make(&mut scratch);
                let entry = Arc::new(OrderEntry {
                    order,
                    charges: *scratch.breakdown(),
                });
                Arc::clone(
                    self.orders
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .entry(key)
                        .or_insert(entry),
                )
            }
        };
        replay(meter, &entry.charges);
        entry
    }
}

/// Charges every phase of `charges` into `meter`, reproducing the original
/// computation's metering exactly.
fn replay(meter: &mut CostMeter, charges: &PhaseBreakdown) {
    for &p in ALL_PHASES {
        let c = charges.get(p);
        if c != 0 {
            meter.charge(p, c);
        }
    }
}

/// Runs the scheduling pipeline at one concrete `config`, answering the
/// configuration-independent steps (RecMII, priority order) from `sym`'s
/// caches and running the configuration-dependent suffix (ResMII, list
/// scheduling, register assignment, II escalation) for real.
///
/// Mirrors [`modulo_schedule`](crate::modulo_schedule) step for step —
/// result and charges are bit-identical for every configuration sharing
/// the latency model `sym` was filled under.
///
/// # Errors
///
/// Exactly [`modulo_schedule`](crate::modulo_schedule)'s errors: the loop
/// cannot be mapped at this configuration.
pub fn concretize(
    sym: &SymbolicSchedule,
    dfg: &Dfg,
    config: &AcceleratorConfig,
    options: &ScheduleOptions,
    meter: &mut CostMeter,
) -> Result<ScheduledLoop, ScheduleError> {
    let summary = options
        .streams
        .unwrap_or_else(|| crate::stream_summary_of(dfg));
    config
        .check_streams(summary)
        .map_err(ScheduleError::Capability)?;

    let res = res_mii(dfg, config, summary, meter);
    let rec = sym.rec_mii(dfg, &config.latencies, meter);
    let mii = res.max(rec);
    if mii > config.max_ii {
        return Err(ScheduleError::MiiExceedsControlStore {
            mii,
            max_ii: config.max_ii,
        });
    }

    // The order: decoded hints charge per decode (as in the direct path);
    // dynamic priorities come from the per-MII cache.
    let static_entry;
    let cached_entry;
    let order: &[OpId] = match &options.static_order {
        Some(order) => {
            meter.charge(Phase::HintDecode, dfg.len() as u64);
            static_entry = order;
            static_entry
        }
        None => {
            cached_entry = match options.priority {
                PriorityKind::Swing => sym.order(mii, meter, |scratch| {
                    swing_order(dfg, &config.latencies, mii, scratch)
                }),
                PriorityKind::Height => sym.order(HEIGHT_KEY, meter, |scratch| {
                    height_order(dfg, &config.latencies, scratch)
                }),
            };
            &cached_entry.order
        }
    };

    // Configuration-dependent suffix, identical to `modulo_schedule`:
    // schedule, assign registers, relieve pressure by escalating II.
    let mut ii_floor = mii;
    let mut last_pressure = None;
    for _ in 0..8 {
        let schedule = list_schedule(dfg, config, order, ii_floor, summary, meter)?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modulo_schedule;
    use veal_ir::{DfgBuilder, Opcode};

    fn media_dfg() -> Dfg {
        let mut b = DfgBuilder::new();
        let x = b.load_stream(0);
        let y = b.load_stream(1);
        let m = b.op(Opcode::Mul, &[x, y]);
        let a = b.op(Opcode::Add, &[m]);
        let s = b.op(Opcode::Shl, &[a, y]);
        b.loop_carried(a, a, 1);
        b.store_stream(2, s);
        b.finish()
    }

    fn configs() -> Vec<AcceleratorConfig> {
        vec![
            AcceleratorConfig::paper_design(),
            AcceleratorConfig::builder().int_units(1).build(),
            AcceleratorConfig::builder().int_units(4).max_ii(32).build(),
            AcceleratorConfig::builder().int_regs(4).fp_regs(4).build(),
        ]
    }

    fn assert_identical(
        a: &Result<ScheduledLoop, ScheduleError>,
        b: &Result<ScheduledLoop, ScheduleError>,
    ) {
        match (a, b) {
            (Ok(x), Ok(y)) => {
                assert_eq!(x.mii, y.mii);
                assert_eq!(x.schedule.ii, y.schedule.ii);
                assert_eq!(x.schedule.entries(), y.schedule.entries());
                assert_eq!(x.registers.pressure, y.registers.pressure);
                assert_eq!(x.registers.assignment, y.registers.assignment);
            }
            (Err(x), Err(y)) => assert_eq!(x, y),
            _ => panic!("one arm scheduled, the other failed: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn concretize_matches_modulo_schedule_across_configs() {
        let dfg = media_dfg();
        let sym = SymbolicSchedule::new();
        for config in configs() {
            let options = ScheduleOptions::default();
            let mut m_direct = CostMeter::new();
            let direct = modulo_schedule(&dfg, &config, &options, &mut m_direct);
            let mut m_sym = CostMeter::new();
            let symbolic = concretize(&sym, &dfg, &config, &options, &mut m_sym);
            assert_identical(&direct, &symbolic);
            assert_eq!(
                m_direct.breakdown(),
                m_sym.breakdown(),
                "charges diverged at {config}"
            );
        }
        // The sweep above shares one RecMII and one order per distinct MII.
        assert!(sym.cached_orders() >= 1);
    }

    #[test]
    fn height_priority_cached_independently_of_mii() {
        let dfg = media_dfg();
        let sym = SymbolicSchedule::new();
        let options = ScheduleOptions {
            priority: PriorityKind::Height,
            ..ScheduleOptions::default()
        };
        for config in configs() {
            let mut m_direct = CostMeter::new();
            let direct = modulo_schedule(&dfg, &config, &options, &mut m_direct);
            let mut m_sym = CostMeter::new();
            let symbolic = concretize(&sym, &dfg, &config, &options, &mut m_sym);
            assert_identical(&direct, &symbolic);
            assert_eq!(m_direct.breakdown(), m_sym.breakdown());
        }
        assert_eq!(sym.cached_orders(), 1, "height order is II-independent");
    }

    #[test]
    fn static_order_charges_hint_decode_like_the_direct_path() {
        let dfg = media_dfg();
        let order: Vec<OpId> = {
            let mut m = CostMeter::new();
            swing_order(&dfg, &veal_accel::LatencyModel::default(), 1, &mut m)
        };
        let options = ScheduleOptions {
            static_order: Some(order),
            ..ScheduleOptions::default()
        };
        let config = AcceleratorConfig::paper_design();
        let sym = SymbolicSchedule::new();
        let mut m_direct = CostMeter::new();
        let direct = modulo_schedule(&dfg, &config, &options, &mut m_direct);
        let mut m_sym = CostMeter::new();
        let symbolic = concretize(&sym, &dfg, &config, &options, &mut m_sym);
        assert_identical(&direct, &symbolic);
        assert_eq!(m_direct.breakdown(), m_sym.breakdown());
        assert!(m_sym.breakdown().get(Phase::HintDecode) > 0);
        assert_eq!(sym.cached_orders(), 0, "static orders bypass the cache");
    }

    #[test]
    fn capability_and_control_store_errors_replay() {
        // Too few streams → Capability; tiny control store → MII overflow.
        let dfg = media_dfg();
        let sym = SymbolicSchedule::new();
        for config in [
            AcceleratorConfig::builder().load_streams(1).build(),
            AcceleratorConfig::builder()
                .max_ii(1)
                .load_addr_gens(1)
                .store_addr_gens(1)
                .build(),
        ] {
            let options = ScheduleOptions::default();
            let mut m_direct = CostMeter::new();
            let direct = modulo_schedule(&dfg, &config, &options, &mut m_direct);
            assert!(direct.is_err());
            let mut m_sym = CostMeter::new();
            let symbolic = concretize(&sym, &dfg, &config, &options, &mut m_sym);
            assert_identical(&direct, &symbolic);
            assert_eq!(m_direct.breakdown(), m_sym.breakdown());
        }
    }

    #[test]
    fn shared_across_threads_stays_consistent() {
        let dfg = media_dfg();
        let sym = Arc::new(SymbolicSchedule::new());
        let config = AcceleratorConfig::paper_design();
        let options = ScheduleOptions::default();
        let mut reference = CostMeter::new();
        let want = modulo_schedule(&dfg, &config, &options, &mut reference);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let sym = Arc::clone(&sym);
                let (dfg, config, options) = (&dfg, &config, &options);
                let want = &want;
                let reference = &reference;
                s.spawn(move || {
                    for _ in 0..8 {
                        let mut m = CostMeter::new();
                        let got = concretize(&sym, dfg, config, options, &mut m);
                        assert_identical(want, &got);
                        assert_eq!(reference.breakdown(), m.breakdown());
                    }
                });
            }
        });
    }
}
