//! Structural validation of dataflow graphs.
//!
//! Every workload generator and transformation pass runs its output through
//! [`verify_dfg`]; the property tests fuzz random graphs against it.

use crate::dfg::Dfg;
use crate::opcode::Opcode;
use crate::types::OpId;
use std::fmt;

/// A structural defect found in a [`Dfg`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// An edge references a dead node.
    EdgeToDeadNode { src: OpId, dst: OpId },
    /// The distance-0 subgraph contains a cycle, which cannot execute.
    IntraIterationCycle(Vec<OpId>),
    /// A pseudo-node (live-in or constant) has incoming data edges.
    PseudoNodeHasInputs(OpId),
    /// A memory op carries no stream annotation *and* has no address input
    /// (it could never execute anywhere).
    DanglingMemoryOp(OpId),
    /// A CCA pseudo-op with no recorded members.
    EmptyCca(OpId),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::EdgeToDeadNode { src, dst } => {
                write!(f, "edge {src}->{dst} touches a dead node")
            }
            VerifyError::IntraIterationCycle(ids) => {
                write!(f, "distance-0 cycle through {} nodes", ids.len())
            }
            VerifyError::PseudoNodeHasInputs(id) => {
                write!(f, "pseudo node {id} has incoming edges")
            }
            VerifyError::DanglingMemoryOp(id) => {
                write!(f, "memory op {id} has neither stream nor address")
            }
            VerifyError::EmptyCca(id) => write!(f, "CCA op {id} has no members"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Checks the structural invariants of a graph.
///
/// Runs over the CSR adjacency: the dead-endpoint edge scan runs only when
/// the dead bitset has any bit set (decode-time graphs normally have none),
/// and the per-node checks read CSR offsets instead of constructing
/// predecessor iterators.
///
/// # Errors
///
/// Returns the first [`VerifyError`] found, or `Ok(())` for a well-formed
/// graph.
///
/// # Example
///
/// ```
/// use veal_ir::{verify_dfg, DfgBuilder, Opcode};
/// let mut b = DfgBuilder::new();
/// let x = b.load_stream(0);
/// b.store_stream(1, x);
/// assert!(verify_dfg(&b.finish()).is_ok());
/// ```
pub fn verify_dfg(dfg: &Dfg) -> Result<(), VerifyError> {
    let adj = dfg.adjacency();
    // A dead endpoint requires a dead node; word-parallel gate first.
    if adj.any_dead() {
        for e in dfg.edges() {
            if adj.is_dead(e.src.index()) || adj.is_dead(e.dst.index()) {
                return Err(VerifyError::EdgeToDeadNode {
                    src: e.src,
                    dst: e.dst,
                });
            }
        }
    }
    for i in 0..adj.len() {
        if adj.is_dead(i) {
            continue;
        }
        let id = OpId::new(i);
        if !adj.is_schedulable(i) {
            // Live but not an op: a pseudo node (live-in or constant).
            if !adj.pred_edge_ids(i).is_empty() {
                return Err(VerifyError::PseudoNodeHasInputs(id));
            }
            continue;
        }
        let opc = adj.opcodes()[i];
        let op = Opcode::decode(opc).expect("schedulable slot has a valid opcode");
        if op.is_mem() && dfg.node(id).stream.is_none() && adj.pred_edge_ids(i).is_empty() {
            return Err(VerifyError::DanglingMemoryOp(id));
        }
        if op == Opcode::Cca && dfg.node(id).cca_members.is_empty() {
            return Err(VerifyError::EmptyCca(id));
        }
    }
    dfg.topo_order().map_err(VerifyError::IntraIterationCycle)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DfgBuilder;
    use crate::dfg::{EdgeKind, NodeKind};

    #[test]
    fn well_formed_graph_passes() {
        let mut b = DfgBuilder::new();
        let x = b.load_stream(0);
        let y = b.op(Opcode::Add, &[x, x]);
        b.store_stream(1, y);
        assert_eq!(verify_dfg(&b.finish()), Ok(()));
    }

    #[test]
    fn intra_iteration_cycle_detected() {
        let mut dfg = Dfg::new();
        let a = dfg.add_node(NodeKind::Op(Opcode::Add));
        let b = dfg.add_node(NodeKind::Op(Opcode::Sub));
        dfg.add_edge(a, b, 0, EdgeKind::Data);
        dfg.add_edge(b, a, 0, EdgeKind::Data);
        assert!(matches!(
            verify_dfg(&dfg),
            Err(VerifyError::IntraIterationCycle(_))
        ));
    }

    #[test]
    fn pseudo_node_with_inputs_detected() {
        let mut dfg = Dfg::new();
        let a = dfg.add_node(NodeKind::Op(Opcode::Add));
        let li = dfg.add_node(NodeKind::LiveIn);
        dfg.add_edge(a, li, 0, EdgeKind::Data);
        assert_eq!(verify_dfg(&dfg), Err(VerifyError::PseudoNodeHasInputs(li)));
    }

    #[test]
    fn dangling_memory_op_detected() {
        let mut dfg = Dfg::new();
        let ld = dfg.add_node(NodeKind::Op(Opcode::Load));
        assert_eq!(verify_dfg(&dfg), Err(VerifyError::DanglingMemoryOp(ld)));
    }

    #[test]
    fn loop_carried_cycle_is_fine() {
        let mut b = DfgBuilder::new();
        let x = b.op(Opcode::Add, &[]);
        b.loop_carried(x, x, 1);
        assert_eq!(verify_dfg(&b.finish()), Ok(()));
    }
}
