//! The combinational compute accelerator (CCA) and its subgraph mapper.
//!
//! The paper's CCA (§3.1, after Clark et al. \[5\]) is a combinational
//! structure with **4 inputs, 2 outputs**, that executes **up to 15
//! RISC ops in 4 rows within 2 clock cycles**; rows 1 and 3 execute simple
//! arithmetic (add, subtract, comparison) and bitwise logic, rows 2 and 4
//! execute only bitwise logic. Shifts, multiplies, floating point, and
//! memory ops are not supported.
//!
//! Optimal CCA utilization is NP-complete, so VEAL uses the paper's greedy
//! seed-and-grow heuristic (§4.1): seeds are examined in numerical order,
//! each seed is recursively grown along its dataflow edges, and growth that
//! would lengthen a recurrence cycle is rejected (the paper's op-7/op-10
//! example).
//!
//! # Example
//!
//! ```
//! use veal_cca::{map_cca, CcaSpec};
//! use veal_ir::{CostMeter, DfgBuilder, Opcode};
//!
//! let mut b = DfgBuilder::new();
//! let x = b.load_stream(0);
//! let a = b.op(Opcode::And, &[x, x]);
//! let s = b.op(Opcode::Sub, &[a, x]);
//! let o = b.op(Opcode::Xor, &[s, a]);
//! b.store_stream(1, o);
//! let mut dfg = b.finish();
//!
//! let mut meter = CostMeter::new();
//! let groups = map_cca(&mut dfg, &CcaSpec::paper(), &mut meter);
//! assert_eq!(groups.len(), 1);
//! assert_eq!(groups[0].members.len(), 3);
//! ```

pub mod legality;
pub mod mapper;
pub mod optimal;
pub mod spec;

pub use legality::{
    group_io, is_legal_group, is_legal_group_in, CollapseProbe, GroupIo, LegalityScratch,
    RowAssignment,
};
pub use mapper::{identify_groups, map_cca, CcaGroup};
pub use optimal::{coverage, optimal_groups};
pub use spec::CcaSpec;
