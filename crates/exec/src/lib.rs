//! # LoopVM — a native execution backend for modulo-scheduled loops
//!
//! Every speedup the rest of the workspace reports is *analytic*: the LA
//! cost model's `(SC + trips − 1) · II` formula, fed by a schedule that was
//! never executed. This crate closes that gap. It compiles a loop-body
//! [`Dfg`] — optionally ordered by its [`ModuloSchedule`] — into
//! [`ExecutableLoop`], a compact register-VM bytecode that a host CPU runs
//! at wall-clock speed:
//!
//! * **flat SoA instruction stream** in schedule order: dense opcodes, a
//!   CSR operand bank of `(source slot, iteration distance)` pairs, and a
//!   per-instruction payload word (stream cursor, store site, or address
//!   salt) — no per-iteration allocation, no map lookups;
//! * **preallocated operand ring**: one flat `depth × slots` bank of
//!   [`Value`](veal_ir::Value)s, `depth` rounded to a power of two so
//!   loop-carried reads are a mask instead of a division;
//! * **stream-engine reads resolved to cursors**: each stream-annotated
//!   load is bound to a dense input-slice index at compile time;
//! * a **lane-vectorized mode** ([`ExecutableLoop::run_lanes`]) that maps
//!   LA lanes onto fixed-width software-SIMD batches: acyclic DFG nodes
//!   dispatch their opcode once and sweep `W` iterations in an inner lane
//!   loop (masked tail), while recurrence SCCs fall back to per-lane
//!   serial evaluation — mirroring how the modulo schedule overlaps
//!   stages across iterations.
//!
//! ## Trust and differential model
//!
//! LoopVM is *not* a second specification. `veal_ir::interp` remains the
//! single reference semantics; this backend must reproduce it bit for bit
//! (stores, live-outs, and therefore every golden `semantic_checksum`).
//! Compilation refuses exactly the graphs the interpreter refuses —
//! cyclic distance-0 subgraphs, opaque `Call`/`Cca` ops, and
//! arity-malformed ops with no operands — so the two executors agree on
//! the error surface as well as the value surface. The differential
//! corpus in `tests/` and the `bench_exec` gate hold that line.

mod compile;
mod run;

use std::fmt;

use veal_ir::interp::{ExecResult, Inputs};
use veal_ir::{Dfg, OpId};
use veal_sched::ModuloSchedule;

/// Default lane width for [`ExecutableLoop::run_lanes`]: batches of eight
/// iterations per inner step, matching the widest LA configurations.
pub const DEFAULT_LANES: usize = 8;

/// Why a graph could not be compiled to LoopVM bytecode. Mirrors
/// [`veal_ir::interp::InterpError`] case for case: a graph the
/// interpreter refuses must be refused here too, and vice versa.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The distance-0 subgraph is cyclic.
    Cyclic,
    /// The graph contains an op with no executable semantics
    /// (`Call`/`Cca`).
    Opaque(OpId),
    /// An op that reads operands has none (see
    /// [`veal_ir::interp::InterpError::Arity`]).
    Arity(OpId),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Cyclic => write!(f, "distance-0 subgraph is cyclic"),
            CompileError::Opaque(op) => write!(f, "{op} has no executable semantics"),
            CompileError::Arity(op) => write!(f, "{op} reads operands but has none"),
        }
    }
}

impl std::error::Error for CompileError {}

/// LoopVM's dense opcode set: the interpretable subset of
/// [`veal_ir::Opcode`] with loads split by addressing mode and the
/// value-free control ops folded into one `Zero`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum ExecOp {
    Add,
    Sub,
    And,
    Or,
    Xor,
    Not,
    Neg,
    Min,
    Max,
    Abs,
    CmpEq,
    CmpNe,
    CmpLt,
    CmpLe,
    Select,
    Mov,
    Shl,
    Shr,
    Sra,
    Mul,
    Div,
    Rem,
    FAdd,
    FSub,
    FMul,
    FDiv,
    FNeg,
    FAbs,
    FMin,
    FMax,
    FCmpLt,
    ItoF,
    FtoI,
    FMac,
    FSqrt,
    /// Stream-engine load: payload is a cursor into the bound input
    /// slices.
    LoadStream,
    /// Full-form load addressed by a generator: payload indexes the
    /// per-site salt table.
    LoadAddr,
    /// Store: payload is the store site; the value is staged and
    /// committed in interpreter topo order at end of iteration.
    Store,
    /// `LoadImm`/`Br`/`BrCond`/`Ret`: evaluates to `Int(0)`.
    Zero,
}

/// One group of the lane execution plan: a strongly-connected component
/// of the full dependence graph (all distances), in component topological
/// order.
#[derive(Debug, Clone)]
pub(crate) struct LaneGroup {
    /// Instruction indices, in d0-topological order.
    pub members: Vec<u32>,
    /// Multi-member cyclic components carry a recurrence through other
    /// instructions: evaluate each lane serially. Everything else —
    /// trivial components and single-member self-recurrences — dispatches
    /// once and sweeps all lanes in iteration order.
    pub serial: bool,
}

/// A loop compiled to LoopVM bytecode. Immutable after
/// [`ExecutableLoop::compile`]; every run allocates only its ring and
/// staging banks.
#[derive(Debug, Clone)]
pub struct ExecutableLoop {
    /// Node-slot count of the source graph (ring row width).
    pub(crate) n_slots: usize,
    /// Largest loop-carried distance across all edges.
    pub(crate) max_dist: usize,
    /// Dense opcode per instruction, in schedule order.
    pub(crate) ops: Vec<ExecOp>,
    /// Destination ring slot per instruction.
    pub(crate) dest: Vec<u32>,
    /// Payload word per instruction (see [`ExecOp`]).
    pub(crate) payload: Vec<u32>,
    /// CSR operand bank: instruction `i` reads
    /// `arg_src/arg_dist[arg_base[i] .. arg_base[i + 1]]`.
    pub(crate) arg_base: Vec<u32>,
    pub(crate) arg_src: Vec<u32>,
    pub(crate) arg_dist: Vec<u32>,
    /// Stream id per load cursor.
    pub(crate) load_streams: Vec<u16>,
    /// Stream id per store site (`u16::MAX` for un-annotated stores).
    pub(crate) store_streams: Vec<u16>,
    /// Dense output-vector index per store site (sites sharing a stream
    /// share a vector).
    pub(crate) store_slot: Vec<u32>,
    /// Distinct store stream ids, in ascending order (one output vector
    /// each).
    pub(crate) out_streams: Vec<u16>,
    /// Store sites in the interpreter's commit order (`dfg.topo_order()`),
    /// which schedule-order execution must replay per iteration.
    pub(crate) store_commit: Vec<u32>,
    /// Address salt per `LoadAddr` site (`node index · 17`).
    pub(crate) load_salts: Vec<i64>,
    /// Iteration-invariant ring seeds: `(slot, value)` per `Const` node.
    pub(crate) consts: Vec<(u32, i64)>,
    /// Ring slots of `LiveIn` nodes (paired with their `OpId` for input
    /// lookup).
    pub(crate) live_ins: Vec<OpId>,
    /// Live-out nodes, read from the final iteration's ring row.
    pub(crate) live_outs: Vec<OpId>,
    /// Lane execution plan: full-graph SCCs in component topo order.
    pub(crate) lane_plan: Vec<LaneGroup>,
}

impl ExecutableLoop {
    /// Compiles `dfg` to LoopVM bytecode. When a [`ModuloSchedule`] is
    /// given, instructions are emitted in schedule order (ties and
    /// unscheduled ops fall back to node id), which keeps the bytecode
    /// congruent with the accelerator's issue order; without one, plain
    /// topological order is used.
    ///
    /// # Errors
    ///
    /// See [`CompileError`]; the refused set matches `veal_ir::interp`.
    pub fn compile(dfg: &Dfg, schedule: Option<&ModuloSchedule>) -> Result<Self, CompileError> {
        compile::compile(dfg, schedule)
    }

    /// Executes the loop for `iterations` iterations, one iteration at a
    /// time, reproducing `veal_ir::interp::interpret` bit for bit.
    #[must_use]
    pub fn run(&self, iterations: u64, inputs: &Inputs) -> ExecResult {
        run::run_scalar(self, iterations, inputs)
    }

    /// Executes the loop in lane-vectorized batches of `width`
    /// iterations (masked tail), reproducing the interpreter bit for
    /// bit. `width` is clamped to at least 1.
    #[must_use]
    pub fn run_lanes(&self, iterations: u64, inputs: &Inputs, width: usize) -> ExecResult {
        run::run_lanes(self, iterations, inputs, width.max(1))
    }

    /// Number of bytecode instructions.
    #[must_use]
    pub fn instruction_count(&self) -> usize {
        self.ops.len()
    }

    /// Split of the lane plan: `(serial, vector)` instruction counts —
    /// how much of the stream runs lane-serially (recurrence components)
    /// versus dispatch-once-sweep-lanes.
    #[must_use]
    pub fn lane_stats(&self) -> (usize, usize) {
        let mut serial = 0;
        let mut vector = 0;
        for g in &self.lane_plan {
            if g.serial {
                serial += g.members.len();
            } else {
                vector += g.members.len();
            }
        }
        (serial, vector)
    }

    /// Approximate footprint of the compiled artifact, for code-cache
    /// accounting.
    #[must_use]
    pub fn code_bytes(&self) -> usize {
        self.ops.len()
            + 4 * (self.dest.len() + self.payload.len() + self.arg_base.len())
            + 4 * (self.arg_src.len() + self.arg_dist.len())
            + 2 * (self.load_streams.len() + self.store_streams.len())
            + 8 * self.load_salts.len()
            + 12 * self.consts.len()
    }
}
