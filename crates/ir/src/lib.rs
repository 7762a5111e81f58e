//! Baseline intermediate representation for the VEAL system.
//!
//! This crate provides the "baseline instruction set" substrate the VEAL
//! paper assumes: a RISC-like operation set ([`Opcode`]), instructions over
//! virtual registers ([`Instruction`]), a control-flow graph with dominator
//! and natural-loop analysis ([`mod@cfg`]), and — most importantly — the
//! **dataflow graph** of an innermost loop body ([`Dfg`]) whose edges carry
//! *iteration distances*, the representation every later stage (CCA mapping,
//! modulo scheduling, the co-designed VM) operates on.
//!
//! The crate also hosts the [`meter::CostMeter`], the abstract
//! instruction-count meter used to reproduce the paper's Figure 8
//! translation-overhead measurements.
//!
//! # Example
//!
//! Build the dataflow graph of a tiny accumulation loop and inspect its
//! recurrences:
//!
//! ```
//! use veal_ir::{DfgBuilder, Opcode};
//!
//! let mut b = DfgBuilder::new();
//! let x = b.load_stream(0);
//! let acc = b.op(Opcode::Add, &[x, x]);
//! // `acc` feeds itself on the next iteration: a distance-1 recurrence.
//! b.loop_carried(acc, acc, 1);
//! let dfg = b.finish();
//! assert!(!dfg.sccs().is_empty());
//! ```

pub mod arena;
pub mod asm;
pub mod builder;
pub mod cfg;
pub mod classify;
pub mod condense;
pub mod dfg;
pub mod instr;
pub mod interp;
pub mod loops;
pub mod meter;
pub mod opcode;
pub mod pretty;
pub mod rng;
pub mod streams;
pub mod types;
pub mod verify;

pub use arena::{with_arena, DfgArena};
pub use builder::{DfgBuilder, FunctionBuilder};
pub use cfg::{BasicBlock, Function, NaturalLoop};
pub use classify::{classify_loop, LoopClass};
pub use condense::{scc_membership, BitMatrix, Condensation, SccView};
pub use dfg::{Adjacency, Dfg, DfgEdge, DfgNode, EdgeKind};
pub use instr::{Instruction, Operand};
pub use interp::{interpret, ExecResult, Inputs, Value};
pub use loops::{LoopBody, LoopProfile};
pub use meter::{CostMeter, Phase, PhaseBreakdown};
pub use opcode::{FuClass, Opcode};
pub use streams::{MemStream, StreamDir, StreamSummary};
pub use types::{BlockId, FuncId, OpId, VReg};
pub use verify::{verify_dfg, VerifyError};
