//! The pre-sweep adjacency representation, kept as a test oracle.
//!
//! Before the data-oriented sweep, [`Dfg`] kept per-node `Vec<u32>` edge
//! lists built by pushing on every `add_edge`. [`RefDfg`] preserves that
//! representation — push-built adjacency, the original Kahn topological
//! sort over those lists, the original iterator-`nth` Tarjan, and the
//! original structural verifier — as an executable specification that
//! `soa_equivalence.rs` checks the CSR-backed [`Dfg`] against on succ/pred
//! iteration order, SCC partition, topological order and verify verdicts.

use veal_ir::dfg::NodeKind;
use veal_ir::{Dfg, DfgEdge, DfgNode, OpId, Opcode, VerifyError};

/// A dataflow graph in the pre-sweep representation: array-of-`Vec`
/// adjacency, no caches.
#[derive(Debug, Clone)]
pub struct RefDfg {
    nodes: Vec<DfgNode>,
    edges: Vec<DfgEdge>,
    succ: Vec<Vec<u32>>,
    pred: Vec<Vec<u32>>,
}

impl RefDfg {
    /// Rebuilds `dfg` in the reference representation, replaying every
    /// edge through the original push-based adjacency construction.
    #[must_use]
    pub fn from_dfg(dfg: &Dfg) -> Self {
        let nodes: Vec<DfgNode> = (0..dfg.len())
            .map(|i| dfg.node(OpId::new(i)).clone())
            .collect();
        let edges = dfg.edges().to_vec();
        let mut succ = vec![Vec::new(); nodes.len()];
        let mut pred = vec![Vec::new(); nodes.len()];
        for (i, e) in edges.iter().enumerate() {
            succ[e.src.index()].push(i as u32);
            pred[e.dst.index()].push(i as u32);
        }
        RefDfg {
            nodes,
            edges,
            succ,
            pred,
        }
    }

    /// Total number of node slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Immutable access to a node.
    #[must_use]
    pub fn node(&self, id: OpId) -> &DfgNode {
        &self.nodes[id.index()]
    }

    /// Outgoing edges of `id`, in insertion order.
    pub fn succ_edges(&self, id: OpId) -> impl Iterator<Item = &DfgEdge> + '_ {
        self.succ[id.index()]
            .iter()
            .map(|&e| &self.edges[e as usize])
    }

    /// Incoming edges of `id`, in insertion order.
    pub fn pred_edges(&self, id: OpId) -> impl Iterator<Item = &DfgEdge> + '_ {
        self.pred[id.index()]
            .iter()
            .map(|&e| &self.edges[e as usize])
    }

    /// Live node ids.
    pub fn live_ids(&self) -> impl Iterator<Item = OpId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.is_dead())
            .map(|(i, _)| OpId::new(i))
    }

    /// The original Kahn topological sort over distance-0 edges (seed in
    /// ascending id order, LIFO pop).
    ///
    /// # Errors
    ///
    /// Returns the ids stuck in a distance-0 cycle, exactly like
    /// [`Dfg::topo_order`].
    pub fn topo_order(&self) -> Result<Vec<OpId>, Vec<OpId>> {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        let mut live = 0usize;
        for (i, node) in self.nodes.iter().enumerate() {
            if node.is_dead() {
                continue;
            }
            live += 1;
            indeg[i] = self.pred[i]
                .iter()
                .filter(|&&e| {
                    let edge = &self.edges[e as usize];
                    edge.distance == 0 && !self.nodes[edge.src.index()].is_dead()
                })
                .count();
        }
        let mut queue: Vec<usize> = (0..n)
            .filter(|&i| !self.nodes[i].is_dead() && indeg[i] == 0)
            .collect();
        let mut order = Vec::with_capacity(live);
        while let Some(v) = queue.pop() {
            order.push(OpId::new(v));
            for &e in &self.succ[v] {
                let edge = &self.edges[e as usize];
                if edge.distance != 0 || self.nodes[edge.dst.index()].is_dead() {
                    continue;
                }
                let w = edge.dst.index();
                indeg[w] -= 1;
                if indeg[w] == 0 {
                    queue.push(w);
                }
            }
        }
        if order.len() == live {
            Ok(order)
        } else {
            let stuck: Vec<OpId> = (0..n)
                .filter(|&i| !self.nodes[i].is_dead() && indeg[i] > 0)
                .map(OpId::new)
                .collect();
            Err(stuck)
        }
    }

    /// The original iterative Tarjan over all edges (iterator + `nth`
    /// cursor), emitting components in reverse topological order with
    /// members sorted — the exact list [`Dfg::sccs`] produces.
    #[must_use]
    pub fn sccs(&self) -> Vec<Vec<OpId>> {
        const UNVISITED: u32 = u32::MAX;
        let n = self.len();
        let mut index = vec![UNVISITED; n];
        let mut low = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut next_index = 0u32;
        let mut comps: Vec<Vec<OpId>> = Vec::new();

        let mut call_stack: Vec<(u32, usize)> = Vec::new();
        for start in 0..n {
            if self.nodes[start].is_dead() || index[start] != UNVISITED {
                continue;
            }
            call_stack.push((start as u32, 0));
            index[start] = next_index;
            low[start] = next_index;
            next_index += 1;
            stack.push(start as u32);
            on_stack[start] = true;

            while let Some(&mut (v, ref mut pos)) = call_stack.last_mut() {
                let v_usize = v as usize;
                let mut advanced = false;
                if let Some(edge) = self.succ_edges(OpId::new(v_usize)).nth(*pos) {
                    *pos += 1;
                    advanced = true;
                    let w = edge.dst.index();
                    if !self.nodes[w].is_dead() {
                        if index[w] == UNVISITED {
                            index[w] = next_index;
                            low[w] = next_index;
                            next_index += 1;
                            stack.push(w as u32);
                            on_stack[w] = true;
                            call_stack.push((w as u32, 0));
                        } else if on_stack[w] {
                            low[v_usize] = low[v_usize].min(index[w]);
                        }
                    }
                }
                if advanced {
                    continue;
                }
                call_stack.pop();
                if let Some(&mut (parent, _)) = call_stack.last_mut() {
                    let p = parent as usize;
                    low[p] = low[p].min(low[v_usize]);
                }
                if low[v_usize] == index[v_usize] {
                    let mut component = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w as usize] = false;
                        component.push(OpId::new(w as usize));
                        if w == v {
                            break;
                        }
                    }
                    component.sort();
                    comps.push(component);
                }
            }
        }
        comps
    }

    /// The original structural verifier, error for error identical to
    /// [`veal_ir::verify_dfg`].
    ///
    /// # Errors
    ///
    /// Returns the first [`VerifyError`] found.
    pub fn verify(&self) -> Result<(), VerifyError> {
        for e in &self.edges {
            if self.node(e.src).is_dead() || self.node(e.dst).is_dead() {
                return Err(VerifyError::EdgeToDeadNode {
                    src: e.src,
                    dst: e.dst,
                });
            }
        }
        for id in self.live_ids() {
            let node = self.node(id);
            match &node.kind {
                NodeKind::LiveIn | NodeKind::Const(_) => {
                    if self.pred_edges(id).next().is_some() {
                        return Err(VerifyError::PseudoNodeHasInputs(id));
                    }
                }
                NodeKind::Op(op) => {
                    if op.is_mem() && node.stream.is_none() && self.pred_edges(id).next().is_none()
                    {
                        return Err(VerifyError::DanglingMemoryOp(id));
                    }
                    if *op == Opcode::Cca && node.cca_members.is_empty() {
                        return Err(VerifyError::EmptyCca(id));
                    }
                }
            }
        }
        self.topo_order()
            .map_err(VerifyError::IntraIterationCycle)?;
        Ok(())
    }
}
