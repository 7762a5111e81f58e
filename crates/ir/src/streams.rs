//! Separating control and memory streams from a loop body.
//!
//! Paper §4.1: "data dependence information is used to identify the control
//! and address calculations. These calculations are then mapped onto the
//! special hardware supporting address generation and accelerator control."
//! In the Figure 5 example, op 13/14/15 (induction increment, compare,
//! back-branch) form the control pattern, and ops 1 and 11 (address
//! increments) feed the load/store streams. "If the control and address
//! patterns are more complicated than supported by the accelerator, then
//! translation terminates at this point."
//!
//! This module recognizes exactly those patterns on a full loop-body
//! [`Dfg`]: an *address generator* is an `Add`/`Sub` node with a distance-1
//! self edge and one constant/live-in stride input, consumed only by memory
//! address ports (and itself); the *control slice* is the back branch, its
//! compare, and the induction increment (which stays in the compute graph if
//! the computation also reads it).

use crate::dfg::{Dfg, NodeKind};
use crate::meter::{CostMeter, Phase};
use crate::opcode::Opcode;
use crate::types::OpId;
use std::fmt;

/// Direction of a memory stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamDir {
    /// Data streams from memory into the accelerator FIFOs.
    Load,
    /// Results stream from the accelerator back to memory.
    Store,
}

impl fmt::Display for StreamDir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StreamDir::Load => "load",
            StreamDir::Store => "store",
        })
    }
}

/// One memory stream: "a unique reference pattern, i.e., a base address and
/// a linear function that modifies that address each loop iteration"
/// (paper §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemStream {
    /// Direction.
    pub dir: StreamDir,
    /// Per-iteration address step, in bytes.
    pub stride: i64,
    /// The address-generator node that produced this stream (in the
    /// original, unseparated graph).
    pub addr_node: OpId,
}

/// Aggregate stream requirements of a loop, checked against the
/// accelerator's stream/address-generator budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamSummary {
    /// Number of load streams.
    pub loads: usize,
    /// Number of store streams.
    pub stores: usize,
}

/// Result of separating control and memory streams from a full loop body.
#[derive(Debug, Clone)]
pub struct SeparatedLoop {
    /// The compute view: control and address ops removed, every `Load`/
    /// `Store` annotated with its stream index.
    pub dfg: Dfg,
    /// The discovered memory streams, indexed by the stream ids stored in
    /// the `Load`/`Store` nodes.
    pub streams: Vec<MemStream>,
    /// Ids (in the original graph) of the removed control ops.
    pub control_ops: Vec<OpId>,
    /// Ids (in the original graph) of the removed address-generator ops.
    pub addr_ops: Vec<OpId>,
}

impl SeparatedLoop {
    /// Stream counts by direction.
    #[must_use]
    pub fn summary(&self) -> StreamSummary {
        let loads = self
            .streams
            .iter()
            .filter(|s| s.dir == StreamDir::Load)
            .count();
        StreamSummary {
            loads,
            stores: self.streams.len() - loads,
        }
    }
}

/// Why separation failed; such loops run on the baseline processor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeparationError {
    /// The loop has no conditional back branch at all.
    NoBackBranch,
    /// More than one conditional branch: a side exit or while-loop shape
    /// that needs speculation support the accelerator does not provide
    /// (paper §2.2).
    MultipleBranches,
    /// The branch's condition is not a simple induction/bound compare.
    ComplexControl,
    /// A memory access whose address is not a recognized affine pattern.
    ComplexAddress(OpId),
    /// The loop contains a function call (must be inlined statically).
    CallInLoop,
}

impl fmt::Display for SeparationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeparationError::NoBackBranch => write!(f, "loop has no back branch"),
            SeparationError::MultipleBranches => {
                write!(f, "loop has side exits (needs speculation support)")
            }
            SeparationError::ComplexControl => write!(f, "control pattern too complex"),
            SeparationError::ComplexAddress(op) => {
                write!(f, "address pattern of {op} is not affine")
            }
            SeparationError::CallInLoop => write!(f, "loop contains a function call"),
        }
    }
}

impl std::error::Error for SeparationError {}

/// Whether `id` matches the address-generator pattern: an `Add`/`Sub` with a
/// distance-1 self edge, whose other data inputs are constants or live-ins.
fn is_addr_generator(dfg: &Dfg, id: OpId) -> bool {
    let Some(op) = dfg.node(id).opcode() else {
        return false;
    };
    if !matches!(op, Opcode::Add | Opcode::Sub) {
        return false;
    }
    let mut has_self = false;
    for e in dfg.pred_edges(id) {
        if e.src == id && e.distance == 1 {
            has_self = true;
        } else if e.src == id {
            return false; // self edge at other distance: not a simple stride
        } else {
            match &dfg.node(e.src).kind {
                NodeKind::Const(_) | NodeKind::LiveIn => {}
                _ => return false,
            }
        }
    }
    has_self
}

/// Extracts the constant stride of an address generator, defaulting to 1
/// when the step comes from a live-in.
fn stride_of(dfg: &Dfg, id: OpId) -> i64 {
    let mut stride = 1i64;
    for e in dfg.pred_edges(id) {
        if e.src == id {
            continue;
        }
        if let NodeKind::Const(v) = dfg.node(e.src).kind {
            stride = v;
        }
    }
    if dfg.node(id).opcode() == Some(Opcode::Sub) {
        stride = -stride;
    }
    stride
}

/// Separates control and memory streams from a full loop-body graph.
///
/// On success the returned [`SeparatedLoop::dfg`] contains only compute ops
/// and stream-annotated memory accesses — the form the CCA mapper and the
/// modulo scheduler consume. Pre-separated graphs (already free of control
/// ops, built with [`crate::DfgBuilder::load_stream`]) pass through with
/// their existing stream annotations.
///
/// Classification runs over the flat opcode array of the CSR
/// [`crate::dfg::Adjacency`] (one byte per node instead of a [`NodeKind`]
/// dereference), and the output graph is assembled in a single fused pass
/// — annotate, tombstone, filter — instead of cloning and then rebuilding.
///
/// # Errors
///
/// See [`SeparationError`]; any error means the loop executes on the
/// baseline processor instead.
///
/// # Example
///
/// ```
/// use veal_ir::{CostMeter, DfgBuilder, Opcode};
/// use veal_ir::streams::separate;
///
/// // for (i = 0; i < n; ++i) b[i] = a[i] * 3;
/// let mut b = DfgBuilder::new();
/// let step = b.constant(4);
/// let a_addr = b.op(Opcode::Add, &[step]);
/// b.loop_carried(a_addr, a_addr, 1);
/// let x = b.op(Opcode::Load, &[a_addr]);
/// let k = b.constant(3);
/// let y = b.op(Opcode::Mul, &[x, k]);
/// let b_addr = b.op(Opcode::Add, &[step]);
/// b.loop_carried(b_addr, b_addr, 1);
/// let st = b.op(Opcode::Store, &[y, b_addr]);
/// let _ = st;
/// // control: i += 1; cmp; branch
/// let one = b.constant(1);
/// let i = b.op(Opcode::Add, &[one]);
/// b.loop_carried(i, i, 1);
/// let n = b.live_in();
/// let c = b.op(Opcode::CmpLt, &[i, n]);
/// let _br = b.op(Opcode::BrCond, &[c]);
/// let dfg = b.finish();
///
/// let mut meter = CostMeter::new();
/// let sep = separate(&dfg, &mut meter).expect("simple loop separates");
/// assert_eq!(sep.summary().loads, 1);
/// assert_eq!(sep.summary().stores, 1);
/// assert_eq!(sep.dfg.schedulable_ops().count(), 3); // ld, mul, str
/// ```
pub fn separate(dfg: &Dfg, meter: &mut CostMeter) -> Result<SeparatedLoop, SeparationError> {
    let adj = dfg.adjacency();
    let opcs = adj.opcodes();
    let edges = dfg.edges();
    let no_op = crate::dfg::Adjacency::NO_OP;
    let enc_br = Opcode::Br.encode();
    let enc_brcond = Opcode::BrCond.encode();
    let enc_call = Opcode::Call.encode();

    // --- 1. Find the loop's control slice. ---------------------------------
    let mut branch = None;
    let mut num_branches = 0usize;
    for (i, &o) in opcs.iter().enumerate() {
        if o == no_op {
            continue;
        }
        meter.charge(Phase::StreamSep, 1);
        if o == enc_brcond || o == enc_br {
            num_branches += 1;
            if branch.is_none() {
                branch = Some(OpId::new(i));
            }
        } else if o == enc_call {
            return Err(SeparationError::CallInLoop);
        }
    }

    let Some(branch) = branch else {
        // Pre-separated graph: accept as-is if every memory op already has a
        // stream; otherwise the address pattern is unanalyzable.
        for (i, &o) in opcs.iter().enumerate() {
            if o == no_op {
                continue;
            }
            let id = OpId::new(i);
            if Opcode::decode(o).is_some_and(Opcode::is_mem) && dfg.node(id).stream.is_none() {
                return Err(SeparationError::ComplexAddress(id));
            }
        }
        let streams = collect_existing_streams(dfg);
        return Ok(SeparatedLoop {
            dfg: dfg.clone(),
            streams,
            control_ops: Vec::new(),
            addr_ops: Vec::new(),
        });
    };
    if num_branches > 1 {
        return Err(SeparationError::MultipleBranches);
    }
    if opcs[branch.index()] != enc_brcond {
        return Err(SeparationError::NoBackBranch);
    }

    // Follow the backward slice of the branch: BrCond <- Cmp <- induction.
    let mut cmp = None;
    for &e in adj.pred_edge_ids(branch.index()) {
        meter.charge(Phase::StreamSep, 1);
        let src = edges[e as usize].src;
        let op = dfg.node(src).opcode();
        if matches!(
            op,
            Some(Opcode::CmpEq | Opcode::CmpNe | Opcode::CmpLt | Opcode::CmpLe)
        ) {
            if cmp.is_some() {
                return Err(SeparationError::ComplexControl);
            }
            cmp = Some(src);
        } else {
            return Err(SeparationError::ComplexControl);
        }
    }
    let cmp = cmp.ok_or(SeparationError::ComplexControl)?;

    // The compare reads the induction variable and a bound.
    let mut induction = None;
    for &e in adj.pred_edge_ids(cmp.index()) {
        meter.charge(Phase::StreamSep, 1);
        let src = edges[e as usize].src;
        match &dfg.node(src).kind {
            NodeKind::Const(_) | NodeKind::LiveIn => {}
            NodeKind::Op(_) if is_addr_generator(dfg, src) => {
                if induction.replace(src).is_some() {
                    return Err(SeparationError::ComplexControl);
                }
            }
            NodeKind::Op(_) => return Err(SeparationError::ComplexControl),
        }
    }
    let induction = induction.ok_or(SeparationError::ComplexControl)?;

    let mut control_ops = vec![branch, cmp];
    // The induction increment moves to the loop-control hardware only if the
    // computation does not read it.
    let induction_feeds_compute = adj
        .succ_edge_ids(induction.index())
        .iter()
        .any(|&e| edges[e as usize].dst != induction && edges[e as usize].dst != cmp);
    if !induction_feeds_compute {
        control_ops.push(induction);
    }

    // --- 2. Identify memory streams. ---------------------------------------
    // The output node table is cloned up front so stream annotations land
    // directly on it; an error return simply drops the clone.
    let mut nodes = dfg.nodes.clone();
    let mut streams = Vec::new();
    let mut addr_ops: Vec<OpId> = Vec::new();
    for (i, &o) in opcs.iter().enumerate() {
        if o == no_op {
            continue;
        }
        meter.charge(Phase::StreamSep, 1);
        let op = Opcode::decode(o).expect("schedulable slot has a valid opcode");
        if !op.is_mem() {
            continue;
        }
        let id = OpId::new(i);
        let dir = if op == Opcode::Load {
            StreamDir::Load
        } else {
            StreamDir::Store
        };
        if nodes[i].stream.is_some() {
            // Already annotated (pre-separated kernels mixed into a full
            // graph): give the access its own entry in the unified table.
            let idx = streams.len() as u16;
            streams.push(MemStream {
                dir,
                stride: 1,
                addr_node: id,
            });
            nodes[i].stream = Some(idx);
            continue;
        }
        let addr = adj
            .pred_edge_ids(i)
            .iter()
            .map(|&e| edges[e as usize].src)
            .find(|&p| is_addr_generator(dfg, p))
            .ok_or(SeparationError::ComplexAddress(id))?;
        meter.charge(Phase::StreamSep, 4);
        let stream_idx = streams.len() as u16;
        streams.push(MemStream {
            dir,
            stride: stride_of(dfg, addr),
            addr_node: addr,
        });
        nodes[i].stream = Some(stream_idx);
        if !addr_ops.contains(&addr) {
            addr_ops.push(addr);
        }
    }

    // Address generators must only feed memory ports, themselves, or the
    // control compare; otherwise they are also compute values and must stay.
    addr_ops.retain(|&a| {
        adj.succ_edge_ids(a.index()).iter().all(|&e| {
            let dst = edges[e as usize].dst;
            dst == a || dst == cmp || Opcode::decode(opcs[dst.index()]).is_some_and(Opcode::is_mem)
        })
    });

    // Fused output construction: tombstone the separated nodes and
    // drop/canonicalize their edges in one pass — semantically a clone
    // followed by `remove_nodes`.
    let mut removed: Vec<OpId> = control_ops.clone();
    removed.extend(addr_ops.iter().copied());
    for &r in &removed {
        nodes[r.index()].dead = true;
    }
    let mut out_edges: Vec<crate::dfg::DfgEdge> = Vec::with_capacity(edges.len());
    out_edges.extend(
        edges
            .iter()
            .copied()
            .filter(|e| !nodes[e.src.index()].dead && !nodes[e.dst.index()].dead),
    );
    // A filtered subset of the canonically sorted input edge array is still
    // strictly sorted, so the re-sort is skipped as in
    // `rebuild_edges_excluding_dead` (which this fused pass mirrors); only
    // a non-canonical input pays the sort.
    let key = |e: &crate::dfg::DfgEdge| (e.src, e.dst, e.distance, e.kind as u8);
    if !out_edges.is_sorted_by(|a, b| key(a) < key(b)) {
        Dfg::sort_dedup_edges(&mut out_edges);
    }
    let out = Dfg::from_parts(nodes, out_edges);
    meter.charge(Phase::StreamSep, removed.len() as u64 * 2);

    Ok(SeparatedLoop {
        dfg: out,
        streams,
        control_ops,
        addr_ops,
    })
}

fn collect_existing_streams(dfg: &Dfg) -> Vec<MemStream> {
    let mut max_idx: Option<u16> = None;
    for id in dfg.schedulable_ops() {
        if let (Some(op), Some(s)) = (dfg.node(id).opcode(), dfg.node(id).stream) {
            if op.is_mem() {
                max_idx = Some(max_idx.map_or(s, |m: u16| m.max(s)));
            }
        }
    }
    let Some(max_idx) = max_idx else {
        return Vec::new();
    };
    let mut streams = vec![
        MemStream {
            dir: StreamDir::Load,
            stride: 1,
            addr_node: OpId::new(0),
        };
        max_idx as usize + 1
    ];
    for id in dfg.schedulable_ops() {
        if let (Some(op), Some(s)) = (dfg.node(id).opcode(), dfg.node(id).stream) {
            if op.is_mem() {
                streams[s as usize] = MemStream {
                    dir: if op == Opcode::Load {
                        StreamDir::Load
                    } else {
                        StreamDir::Store
                    },
                    stride: 1,
                    addr_node: id,
                };
            }
        }
    }
    streams
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DfgBuilder;

    /// Builds the full form of `for i { b[i] = a[i] + k }`.
    fn full_loop() -> Dfg {
        let mut b = DfgBuilder::new();
        let four = b.constant(4);
        let a_addr = b.op(Opcode::Add, &[four]);
        b.loop_carried(a_addr, a_addr, 1);
        let x = b.op(Opcode::Load, &[a_addr]);
        let k = b.live_in();
        let sum = b.op(Opcode::Add, &[x, k]);
        let b_addr = b.op(Opcode::Add, &[four]);
        b.loop_carried(b_addr, b_addr, 1);
        b.op(Opcode::Store, &[sum, b_addr]);
        let one = b.constant(1);
        let i = b.op(Opcode::Add, &[one]);
        b.loop_carried(i, i, 1);
        let n = b.live_in();
        let c = b.op(Opcode::CmpLt, &[i, n]);
        b.op(Opcode::BrCond, &[c]);
        b.finish()
    }

    #[test]
    fn separates_simple_loop() {
        let dfg = full_loop();
        let mut m = CostMeter::new();
        let sep = separate(&dfg, &mut m).expect("separates");
        assert_eq!(
            sep.summary(),
            StreamSummary {
                loads: 1,
                stores: 1
            }
        );
        // Compute view: load, add, store.
        assert_eq!(sep.dfg.schedulable_ops().count(), 3);
        // Control: brc + cmp + induction (unused by compute).
        assert_eq!(sep.control_ops.len(), 3);
        assert_eq!(sep.addr_ops.len(), 2);
        assert!(m.breakdown().get(Phase::StreamSep) > 0);
    }

    #[test]
    fn stream_strides_extracted() {
        let dfg = full_loop();
        let mut m = CostMeter::new();
        let sep = separate(&dfg, &mut m).unwrap();
        assert!(sep.streams.iter().all(|s| s.stride == 4));
    }

    #[test]
    fn induction_feeding_compute_stays() {
        // b[i] = i * 2 — the induction value is a compute input.
        let mut b = DfgBuilder::new();
        let one = b.constant(1);
        let i = b.op(Opcode::Add, &[one]);
        b.loop_carried(i, i, 1);
        let two = b.constant(2);
        let v = b.op(Opcode::Mul, &[i, two]);
        let four = b.constant(4);
        let b_addr = b.op(Opcode::Add, &[four]);
        b.loop_carried(b_addr, b_addr, 1);
        b.op(Opcode::Store, &[v, b_addr]);
        let n = b.live_in();
        let c = b.op(Opcode::CmpLt, &[i, n]);
        b.op(Opcode::BrCond, &[c]);
        let dfg = b.finish();
        let mut m = CostMeter::new();
        let sep = separate(&dfg, &mut m).expect("separates");
        // i stays: mul, store, i-add remain.
        assert_eq!(sep.dfg.schedulable_ops().count(), 3);
        assert_eq!(sep.control_ops.len(), 2); // brc + cmp only
    }

    #[test]
    fn side_exit_rejected() {
        let mut b = DfgBuilder::new();
        let x = b.live_in();
        let c1 = b.op(Opcode::CmpLt, &[x, x]);
        b.op(Opcode::BrCond, &[c1]);
        let c2 = b.op(Opcode::CmpEq, &[x, x]);
        b.op(Opcode::BrCond, &[c2]);
        let dfg = b.finish();
        let mut m = CostMeter::new();
        assert_eq!(
            separate(&dfg, &mut m).unwrap_err(),
            SeparationError::MultipleBranches
        );
    }

    #[test]
    fn call_rejected() {
        let mut b = DfgBuilder::new();
        let x = b.live_in();
        b.op(Opcode::Call, &[x]);
        let one = b.constant(1);
        let i = b.op(Opcode::Add, &[one]);
        b.loop_carried(i, i, 1);
        let n = b.live_in();
        let c = b.op(Opcode::CmpLt, &[i, n]);
        b.op(Opcode::BrCond, &[c]);
        let dfg = b.finish();
        let mut m = CostMeter::new();
        assert_eq!(
            separate(&dfg, &mut m).unwrap_err(),
            SeparationError::CallInLoop
        );
    }

    #[test]
    fn non_affine_address_rejected() {
        // Address computed by a multiply: not a recognized stream pattern.
        let mut b = DfgBuilder::new();
        let one = b.constant(1);
        let i = b.op(Opcode::Add, &[one]);
        b.loop_carried(i, i, 1);
        let addr = b.op(Opcode::Mul, &[i, i]);
        let ld = b.op(Opcode::Load, &[addr]);
        b.mark_live_out(ld);
        let n = b.live_in();
        let c = b.op(Opcode::CmpLt, &[i, n]);
        b.op(Opcode::BrCond, &[c]);
        let dfg = b.finish();
        let mut m = CostMeter::new();
        assert!(matches!(
            separate(&dfg, &mut m).unwrap_err(),
            SeparationError::ComplexAddress(_)
        ));
    }

    #[test]
    fn preseparated_graph_passes_through() {
        let mut b = DfgBuilder::new();
        let x = b.load_stream(0);
        let y = b.op(Opcode::Add, &[x, x]);
        b.store_stream(1, y);
        let dfg = b.finish();
        let mut m = CostMeter::new();
        let sep = separate(&dfg, &mut m).expect("pre-separated ok");
        assert_eq!(
            sep.summary(),
            StreamSummary {
                loads: 1,
                stores: 1
            }
        );
        assert_eq!(sep.dfg.schedulable_ops().count(), 3);
    }

    #[test]
    fn while_loop_shape_rejected() {
        // Branch condition computed from loaded data, not an induction
        // pattern: a while-loop, needs speculation support.
        let mut b = DfgBuilder::new();
        let four = b.constant(4);
        let a = b.op(Opcode::Add, &[four]);
        b.loop_carried(a, a, 1);
        let x = b.op(Opcode::Load, &[a]);
        let zero = b.constant(0);
        let c = b.op(Opcode::CmpNe, &[x, zero]);
        b.op(Opcode::BrCond, &[c]);
        let dfg = b.finish();
        let mut m = CostMeter::new();
        assert_eq!(
            separate(&dfg, &mut m).unwrap_err(),
            SeparationError::ComplexControl
        );
    }
}
