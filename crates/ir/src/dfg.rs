//! The dataflow graph of an innermost loop body.
//!
//! A [`Dfg`] is the representation every translation stage of VEAL operates
//! on: nodes are operations (plus pseudo-nodes for scalar live-ins and
//! constants, which occupy accelerator registers but are not scheduled), and
//! edges carry an **iteration distance** — a distance of 0 is an ordinary
//! intra-iteration dependence, a distance of `d > 0` means the value flows
//! to the consumer `d` iterations later (a loop-carried dependence).
//! Recurrences — the cycles that bound the achievable initiation interval —
//! are exactly the non-trivial strongly connected components of this graph.

use crate::arena::{with_arena, DfgArena};
use crate::condense::Condensation;
use crate::opcode::{FuClass, Opcode};
use crate::types::OpId;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// What a [`DfgNode`] represents.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A real operation of the loop body.
    Op(Opcode),
    /// A scalar live-in value, written into the accelerator's memory-mapped
    /// register file before the loop starts (paper §2.1).
    LiveIn,
    /// A compile-time constant, preloaded into a register.
    Const(i64),
}

/// The kind of a dependence edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// True register dataflow.
    Data,
    /// Memory ordering (store→load, store→store) that the hardware memory
    /// ordering support must honor (paper §4.1, "Separating Control and
    /// Memory Streams").
    Mem,
}

/// A dependence edge between two nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DfgEdge {
    /// Producer node.
    pub src: OpId,
    /// Consumer node.
    pub dst: OpId,
    /// Iteration distance: 0 for intra-iteration dependences, `d > 0` when
    /// the value is consumed `d` iterations after it is produced.
    pub distance: u32,
    /// Dependence kind.
    pub kind: EdgeKind,
}

/// A node of the dataflow graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DfgNode {
    /// What this node is.
    pub kind: NodeKind,
    /// For `Load`/`Store` ops: the memory stream this access belongs to.
    pub stream: Option<u16>,
    /// For [`Opcode::Cca`] pseudo-ops: the original ops collapsed into this
    /// CCA invocation, in seed order.
    pub cca_members: Vec<OpId>,
    /// Whether the value produced by this node is live after the loop
    /// (read from the memory-mapped register file on completion).
    pub live_out: bool,
    /// Tombstone flag set when the node was collapsed into a CCA op.
    pub(crate) dead: bool,
}

impl DfgNode {
    pub(crate) fn new(kind: NodeKind) -> Self {
        DfgNode {
            kind,
            stream: None,
            cca_members: Vec::new(),
            live_out: false,
            dead: false,
        }
    }

    /// The opcode, if this node is a real operation.
    #[must_use]
    pub fn opcode(&self) -> Option<Opcode> {
        match self.kind {
            NodeKind::Op(op) => Some(op),
            _ => None,
        }
    }

    /// Whether this node has been collapsed away.
    #[must_use]
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Whether this node is an operation that occupies a function-unit slot
    /// in a modulo schedule (everything except live-ins, constants, and dead
    /// nodes).
    #[must_use]
    pub fn is_schedulable(&self) -> bool {
        !self.dead && matches!(self.kind, NodeKind::Op(_))
    }
}

/// The struct-of-arrays view of a [`Dfg`]'s structure: CSR adjacency plus
/// flat per-node arrays, rebuilt lazily per structural version of the
/// graph (see [`Dfg::adjacency`]).
///
/// * `succ_edge_ids(v)` / `pred_edge_ids(v)` are the indices into
///   [`Dfg::edges`] of `v`'s outgoing/incoming edges, **in edge insertion
///   order** — byte-for-byte the order the old per-node `Vec<u32>`
///   adjacency lists produced, which is what keeps downstream iteration
///   (and therefore schedules and memo fingerprints) bit-stable.
/// * `dead_words()` / `sched_words()` are `u64` bitsets over node slots
///   (bit `i` of word `i / 64`): tombstoned nodes and schedulable ops.
/// * `opcodes()` is a flat per-node array of [`Opcode::encode`] values,
///   [`Adjacency::NO_OP`] for pseudo nodes and dead slots — so hot
///   classification loops touch one byte per node instead of a
///   [`NodeKind`] (which drags the node's `cca_members` vector into
///   cache).
///
/// All buffers come from the shared [`DfgArena`] pool and return to it on
/// drop, so steady-state translation builds adjacency with ~zero
/// allocator traffic.
#[derive(Debug)]
pub struct Adjacency {
    n: usize,
    succ_off: Vec<u32>,
    succ_edge: Vec<u32>,
    pred_off: Vec<u32>,
    pred_edge: Vec<u32>,
    dead: Vec<u64>,
    sched: Vec<u64>,
    opc: Vec<u8>,
    any_dead: bool,
}

impl Adjacency {
    /// The `opcodes()` value of a node that is not a live operation.
    pub const NO_OP: u8 = u8::MAX;

    fn build(nodes: &[DfgNode], edges: &[DfgEdge], a: &mut DfgArena) -> Self {
        let n = nodes.len();
        let m = edges.len();
        let mut succ_off = a.take_u32();
        succ_off.resize(n + 1, 0);
        let mut pred_off = a.take_u32();
        pred_off.resize(n + 1, 0);
        for e in edges {
            succ_off[e.src.index() + 1] += 1;
            pred_off[e.dst.index() + 1] += 1;
        }
        for i in 0..n {
            succ_off[i + 1] += succ_off[i];
            pred_off[i + 1] += pred_off[i];
        }
        let mut succ_edge = a.take_u32();
        succ_edge.resize(m, 0);
        let mut pred_edge = a.take_u32();
        pred_edge.resize(m, 0);
        let mut next_s = a.take_u32();
        next_s.extend_from_slice(&succ_off[..n]);
        let mut next_p = a.take_u32();
        next_p.extend_from_slice(&pred_off[..n]);
        // Stable counting sort: filling in edge-index order preserves the
        // per-node insertion order of the old push-based lists.
        for (i, e) in edges.iter().enumerate() {
            let s = e.src.index();
            succ_edge[next_s[s] as usize] = i as u32;
            next_s[s] += 1;
            let d = e.dst.index();
            pred_edge[next_p[d] as usize] = i as u32;
            next_p[d] += 1;
        }
        a.give_u32(next_s);
        a.give_u32(next_p);

        let words = n.div_ceil(64);
        let mut dead = a.take_u64();
        dead.resize(words, 0);
        let mut sched = a.take_u64();
        sched.resize(words, 0);
        let mut opc = a.take_u8();
        opc.resize(n, Self::NO_OP);
        let mut any_dead = false;
        for (i, node) in nodes.iter().enumerate() {
            if node.dead {
                dead[i / 64] |= 1 << (i % 64);
                any_dead = true;
            } else if let NodeKind::Op(op) = node.kind {
                sched[i / 64] |= 1 << (i % 64);
                opc[i] = op.encode();
            }
        }
        Adjacency {
            n,
            succ_off,
            succ_edge,
            pred_off,
            pred_edge,
            dead,
            sched,
            opc,
            any_dead,
        }
    }

    /// Number of node slots covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the graph has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Indices into [`Dfg::edges`] of node `v`'s outgoing edges, in
    /// insertion order.
    #[must_use]
    #[inline]
    pub fn succ_edge_ids(&self, v: usize) -> &[u32] {
        &self.succ_edge[self.succ_off[v] as usize..self.succ_off[v + 1] as usize]
    }

    /// Indices into [`Dfg::edges`] of node `v`'s incoming edges, in
    /// insertion order.
    #[must_use]
    #[inline]
    pub fn pred_edge_ids(&self, v: usize) -> &[u32] {
        &self.pred_edge[self.pred_off[v] as usize..self.pred_off[v + 1] as usize]
    }

    /// The tombstone bitset (bit per node slot).
    #[must_use]
    pub fn dead_words(&self) -> &[u64] {
        &self.dead
    }

    /// The schedulable-op bitset (bit per node slot).
    #[must_use]
    pub fn sched_words(&self) -> &[u64] {
        &self.sched
    }

    /// Whether any node is tombstoned (fast gate for dead-endpoint scans).
    #[must_use]
    pub fn any_dead(&self) -> bool {
        self.any_dead
    }

    /// Whether node `v` is tombstoned.
    #[must_use]
    #[inline]
    pub fn is_dead(&self, v: usize) -> bool {
        self.dead[v / 64] >> (v % 64) & 1 != 0
    }

    /// Whether node `v` is a live operation (occupies a schedule slot).
    #[must_use]
    #[inline]
    pub fn is_schedulable(&self, v: usize) -> bool {
        self.sched[v / 64] >> (v % 64) & 1 != 0
    }

    /// Flat per-node [`Opcode::encode`] values ([`Adjacency::NO_OP`] for
    /// pseudo/dead slots).
    #[must_use]
    pub fn opcodes(&self) -> &[u8] {
        &self.opc
    }
}

impl Drop for Adjacency {
    fn drop(&mut self) {
        with_arena(|a| {
            a.give_u32(std::mem::take(&mut self.succ_off));
            a.give_u32(std::mem::take(&mut self.succ_edge));
            a.give_u32(std::mem::take(&mut self.pred_off));
            a.give_u32(std::mem::take(&mut self.pred_edge));
            a.give_u64(std::mem::take(&mut self.dead));
            a.give_u64(std::mem::take(&mut self.sched));
            a.give_u8(std::mem::take(&mut self.opc));
        });
    }
}

/// The dataflow graph of one innermost loop body.
///
/// Constructed through [`crate::DfgBuilder`]; mutated only by the CCA mapper
/// (via [`Dfg::collapse`]). Node ids are stable: collapsing tombstones the
/// member nodes rather than renumbering.
///
/// # Example
///
/// ```
/// use veal_ir::{DfgBuilder, Opcode};
/// let mut b = DfgBuilder::new();
/// let a = b.load_stream(0);
/// let c = b.op(Opcode::Mul, &[a, a]);
/// b.store_stream(1, c);
/// let dfg = b.finish();
/// assert_eq!(dfg.schedulable_ops().count(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Dfg {
    pub(crate) nodes: Vec<DfgNode>,
    pub(crate) edges: Vec<DfgEdge>,
    /// Lazily built CSR adjacency + flat node arrays (see
    /// [`Dfg::adjacency`]). Like `cond`, cloning shares the cached value
    /// and structural mutation clears it.
    adj: OnceLock<Arc<Adjacency>>,
    /// Lazily built SCC condensation + reachability (see
    /// [`Dfg::condensation`]). Cloning a graph shares the cached value;
    /// structural mutation clears it. Not part of the graph's identity:
    /// `PartialEq` and `content_hash` ignore it.
    cond: OnceLock<Arc<Condensation>>,
    /// Lazily computed [`Dfg::content_hash`]. Cleared by every mutator,
    /// including [`Dfg::node_mut`] (stream/live-out annotations are part
    /// of the hashed identity even though they don't affect `cond`).
    hash: OnceLock<u64>,
    /// Lazily computed SCC membership (see [`Dfg::scc_view`]): the
    /// cheapest recurrence answer, shared by RecMII, the Swing ordering,
    /// and the commit-path legality checks. Same lifecycle as `cond`.
    scc: OnceLock<Arc<crate::condense::SccView>>,
}

impl PartialEq for Dfg {
    fn eq(&self, other: &Self) -> bool {
        // succ/pred are derived from `edges`; the cached condensation is
        // derived from both and deliberately excluded.
        self.nodes == other.nodes && self.edges == other.edges
    }
}

impl Eq for Dfg {}

impl Dfg {
    /// Creates an empty graph.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, kind: NodeKind) -> OpId {
        self.invalidate_structure();
        let id = OpId::new(self.nodes.len());
        self.nodes.push(DfgNode::new(kind));
        id
    }

    /// Adds a dependence edge.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, src: OpId, dst: OpId, distance: u32, kind: EdgeKind) {
        self.invalidate_structure();
        assert!(src.index() < self.nodes.len(), "src out of range");
        assert!(dst.index() < self.nodes.len(), "dst out of range");
        self.edges.push(DfgEdge {
            src,
            dst,
            distance,
            kind,
        });
    }

    /// Clears every cache derived from the graph's structure.
    pub(crate) fn invalidate_structure(&mut self) {
        self.adj = OnceLock::new();
        self.cond = OnceLock::new();
        self.hash = OnceLock::new();
        self.scc = OnceLock::new();
    }

    /// Assembles a graph directly from parts (the fused single-pass
    /// separation uses this to skip the clone-then-rebuild round trip).
    pub(crate) fn from_parts(nodes: Vec<DfgNode>, edges: Vec<DfgEdge>) -> Self {
        Dfg {
            nodes,
            edges,
            adj: OnceLock::new(),
            cond: OnceLock::new(),
            hash: OnceLock::new(),
            scc: OnceLock::new(),
        }
    }

    /// The cached SCC membership view: `comp_of` per slot plus the cyclic
    /// bitset, computed by one allocation-free Tarjan pass
    /// ([`crate::scc_membership`]) on first use. Shared by clones and
    /// invalidated by structural mutation, like [`Dfg::adjacency`]. The
    /// per-loop recurrence consumers (RecMII, the Swing ordering, the
    /// hint-verify legality path) all ask the same question of the same
    /// graph version — this answers it once.
    #[must_use]
    pub fn scc_view(&self) -> Arc<crate::condense::SccView> {
        Arc::clone(self.scc.get_or_init(|| {
            let mut comp_of = Vec::new();
            let mut cyclic = Vec::new();
            let n_comps = crate::condense::scc_membership(self, &mut comp_of, &mut cyclic);
            Arc::new(crate::condense::SccView {
                comp_of,
                cyclic,
                n_comps,
            })
        }))
    }

    /// The cached struct-of-arrays view of the graph: CSR adjacency, dead
    /// and schedulable bitsets, and the flat opcode array. Built on first
    /// use from pooled [`DfgArena`] buffers, shared by clones, and
    /// invalidated by any structural mutation — the same lifecycle as
    /// [`Dfg::condensation`].
    #[must_use]
    pub fn adjacency(&self) -> &Adjacency {
        self.adj.get_or_init(|| {
            Arc::new(with_arena(|a| {
                Adjacency::build(&self.nodes, &self.edges, a)
            }))
        })
    }

    /// Total number of node slots (including dead nodes).
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Immutable access to a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn node(&self, id: OpId) -> &DfgNode {
        &self.nodes[id.index()]
    }

    /// Mutable access to a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node_mut(&mut self, id: OpId) -> &mut DfgNode {
        // The caller may rewrite hashed annotations (stream, live_out)
        // through the returned reference.
        self.hash = OnceLock::new();
        &mut self.nodes[id.index()]
    }

    /// Iterates over all live (non-tombstoned) node ids.
    pub fn live_ids(&self) -> impl Iterator<Item = OpId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.dead)
            .map(|(i, _)| OpId::new(i))
    }

    /// Iterates over the ids of nodes that occupy schedule slots.
    pub fn schedulable_ops(&self) -> impl Iterator<Item = OpId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.is_schedulable())
            .map(|(i, _)| OpId::new(i))
    }

    /// All edges, including those whose endpoints are dead (callers that
    /// walk adjacency through [`Dfg::succ_edges`]/[`Dfg::pred_edges`] never
    /// see dead endpoints because dead nodes keep no adjacency).
    #[must_use]
    pub fn edges(&self) -> &[DfgEdge] {
        &self.edges
    }

    /// Outgoing edges of `id`, in insertion order.
    pub fn succ_edges(&self, id: OpId) -> impl Iterator<Item = &DfgEdge> + '_ {
        self.adjacency()
            .succ_edge_ids(id.index())
            .iter()
            .map(|&e| &self.edges[e as usize])
    }

    /// Incoming edges of `id`, in insertion order.
    pub fn pred_edges(&self, id: OpId) -> impl Iterator<Item = &DfgEdge> + '_ {
        self.adjacency()
            .pred_edge_ids(id.index())
            .iter()
            .map(|&e| &self.edges[e as usize])
    }

    /// Number of schedulable ops per function-unit class.
    #[must_use]
    pub fn op_counts(&self) -> OpCounts {
        let mut counts = OpCounts::default();
        for id in self.schedulable_ops() {
            let op = self.node(id).opcode().expect("schedulable node is op");
            match op.fu_class() {
                FuClass::Int => counts.int += 1,
                FuClass::Fp => counts.fp += 1,
                FuClass::Cca => counts.cca += 1,
                FuClass::Mem => counts.mem += 1,
                FuClass::Control => counts.control += 1,
            }
        }
        counts
    }

    /// Strongly connected components over all edges (any distance), in
    /// reverse topological order of the component DAG. Components containing
    /// a cycle — `len() > 1`, or a single node with a self edge — are the
    /// loop's **recurrences**.
    ///
    /// Dead nodes are excluded.
    ///
    /// Delegates to the cached [`Dfg::condensation`]; the list (content
    /// and order) is identical to the original per-call Tarjan.
    #[must_use]
    pub fn sccs(&self) -> Vec<Vec<OpId>> {
        self.condensation().comps().to_vec()
    }

    /// The cached SCC condensation + distance-0 reachability closure of
    /// the graph (see [`Condensation`]). Built on first use, shared by
    /// clones, and invalidated by any structural mutation (`add_node`,
    /// `add_edge`, `collapse`, `remove_nodes`). The returned [`Arc`] stays
    /// valid even if the graph is mutated afterwards.
    #[must_use]
    pub fn condensation(&self) -> Arc<Condensation> {
        Arc::clone(
            self.cond
                .get_or_init(|| Arc::new(Condensation::build(self))),
        )
    }

    /// The recurrences of the loop: SCCs that actually contain a cycle.
    #[must_use]
    pub fn recurrences(&self) -> Vec<Vec<OpId>> {
        self.sccs()
            .into_iter()
            .filter(|scc| {
                scc.len() > 1
                    || self
                        .succ_edges(scc[0])
                        .any(|e| e.dst == scc[0] && !self.node(e.src).dead)
            })
            .collect()
    }

    /// Topological order of live nodes over distance-0 edges only.
    ///
    /// # Errors
    ///
    /// Returns `Err` with the ids stuck in a cycle if the distance-0
    /// subgraph is cyclic (an ill-formed loop body: an intra-iteration
    /// dependence cycle cannot execute).
    pub fn topo_order(&self) -> Result<Vec<OpId>, Vec<OpId>> {
        let n = self.nodes.len();
        let adj = self.adjacency();
        with_arena(|a| {
            let mut indeg = a.take_u32();
            indeg.resize(n, 0);
            let mut live = 0usize;
            for (i, d) in indeg.iter_mut().enumerate() {
                if adj.is_dead(i) {
                    continue;
                }
                live += 1;
                *d = adj
                    .pred_edge_ids(i)
                    .iter()
                    .filter(|&&e| {
                        let edge = &self.edges[e as usize];
                        edge.distance == 0 && !adj.is_dead(edge.src.index())
                    })
                    .count() as u32;
            }
            // Same Kahn worklist as the original per-node-`Vec` version
            // (seed in ascending id order, LIFO pop): the emitted order is
            // bit-identical.
            let mut queue = a.take_u32();
            queue.extend(
                (0..n as u32).filter(|&i| !adj.is_dead(i as usize) && indeg[i as usize] == 0),
            );
            let mut order = Vec::with_capacity(live);
            while let Some(v) = queue.pop() {
                order.push(OpId::new(v as usize));
                for &e in adj.succ_edge_ids(v as usize) {
                    let edge = &self.edges[e as usize];
                    if edge.distance != 0 || adj.is_dead(edge.dst.index()) {
                        continue;
                    }
                    let w = edge.dst.index();
                    indeg[w] -= 1;
                    if indeg[w] == 0 {
                        queue.push(w as u32);
                    }
                }
            }
            let result = if order.len() == live {
                Ok(order)
            } else {
                let stuck: Vec<OpId> = (0..n)
                    .filter(|&i| !adj.is_dead(i) && indeg[i] > 0)
                    .map(OpId::new)
                    .collect();
                Err(stuck)
            };
            a.give_u32(indeg);
            a.give_u32(queue);
            result
        })
    }

    /// Collapses `members` into a single [`Opcode::Cca`] pseudo-node,
    /// rewiring external edges to the new node and tombstoning the members.
    ///
    /// Internal distance-0 edges become the CCA's combinational wiring and
    /// disappear; internal loop-carried edges (distance > 0) become
    /// self-edges on the CCA node — the value is routed out to a register
    /// and back in on a later iteration.
    ///
    /// Returns the id of the new CCA node.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty or contains a dead or non-CCA-supported
    /// node.
    pub fn collapse(&mut self, members: &[OpId]) -> OpId {
        self.collapse_all([members])[0]
    }

    /// Collapses each of `groups` in order, exactly as calling
    /// [`Dfg::collapse`] on each in turn would — same node slots, same
    /// `cca_members` and live-out flags, same final edge array — but
    /// rewrites the edge array once instead of once per group. Returns the
    /// new CCA node ids in group order.
    ///
    /// After any collapse the edge array is canonical: sorted by `(src,
    /// dst, distance, kind)`, duplicate-free, and free of dead endpoints.
    /// Its content is fixed by the groups alone: every edge whose
    /// endpoints are live, with each member endpoint replaced by its
    /// group's node, except that edges internal to one group survive only
    /// when loop-carried (as self-edges). Sequential collapses reach the
    /// same array step by step, which is why one pass can stand in for
    /// them.
    ///
    /// # Panics
    ///
    /// Panics if a group is empty or contains a dead or non-CCA-supported
    /// node, or a node an earlier group already claimed.
    pub fn collapse_all<'g>(&mut self, groups: impl IntoIterator<Item = &'g [OpId]>) -> Vec<OpId> {
        // Owning CCA node per pre-collapse slot (`NONE` if not collapsed):
        // the rewiring pass below probes it twice per edge.
        const NONE: u32 = u32::MAX;
        let n0 = self.nodes.len();
        let mut owner = with_arena(|a| {
            let mut o = a.take_u32();
            o.resize(n0, NONE);
            o
        });
        let mut ids = Vec::new();
        for members in groups {
            assert!(!members.is_empty(), "cannot collapse an empty member set");
            let cca = self.nodes.len() as u32;
            for &m in members {
                let node = &self.nodes[m.index()];
                let claimed = owner[m.index()];
                assert!(
                    !node.dead && (claimed == NONE || claimed == cca),
                    "member {m} already dead"
                );
                assert!(
                    node.opcode().is_some_and(|op| op.cca_supported()),
                    "member {m} is not a CCA-supported op"
                );
                owner[m.index()] = cca;
            }
            let mut node = DfgNode::new(NodeKind::Op(Opcode::Cca));
            node.cca_members = members.to_vec();
            node.live_out = members.iter().any(|&m| self.nodes[m.index()].live_out);
            self.nodes.push(node);
            ids.push(OpId::new(cca as usize));
        }
        if ids.is_empty() {
            with_arena(|a| a.give_u32(owner));
            return ids;
        }

        // Rewire in one retain pass: member-touching edges leave the array
        // (redirected copies and internal loop-carried self-edges collect
        // in `rewired`), dead-endpoint edges drop out. Removing elements
        // from a canonically sorted array leaves the retained run sorted,
        // so the sort below only pays for the short rewired tail.
        self.invalidate_structure();
        let nodes = &self.nodes;
        let mut edges = std::mem::take(&mut self.edges);
        let mut rewired: Vec<DfgEdge> = Vec::new();
        edges.retain(|e| {
            let (os, od) = (owner[e.src.index()], owner[e.dst.index()]);
            if os == NONE && od == NONE {
                return !nodes[e.src.index()].dead && !nodes[e.dst.index()].dead;
            }
            let live = |o: u32, v: OpId| o != NONE || !nodes[v.index()].dead;
            let internal = os == od;
            if (!internal || e.distance > 0) && live(os, e.src) && live(od, e.dst) {
                let node = |o: u32, v: OpId| if o == NONE { v } else { OpId::new(o as usize) };
                rewired.push(DfgEdge {
                    src: node(os, e.src),
                    dst: node(od, e.dst),
                    distance: e.distance,
                    kind: e.kind,
                });
            }
            false
        });
        // Tombstone members and drop their adjacency.
        for (node, &o) in self.nodes.iter_mut().zip(&owner) {
            if o != NONE {
                node.dead = true;
            }
        }
        with_arena(|a| a.give_u32(owner));
        // Hot-path merge: a canonical pre-collapse array is strictly
        // sorted (sorted and duplicate-free), and `retain` preserves that
        // for the kept run. Every rewired edge references a new CCA node —
        // an id no retained edge can mention — so no duplicate straddles
        // the two runs, and backward-merging the sorted-deduped tail yields
        // byte-for-byte the array the full sort+dedup would. Non-canonical
        // arrays (builder graphs that never went through a structural
        // rewrite) take the full sort below.
        let key = |e: &DfgEdge| (e.src, e.dst, e.distance, e.kind as u8);
        if edges.is_sorted_by(|a, b| key(a) < key(b)) {
            Self::sort_dedup_edges(&mut rewired);
            let old_len = edges.len();
            edges.extend_from_slice(&rewired);
            let (mut i, mut j, mut k) = (old_len, rewired.len(), edges.len());
            while j > 0 {
                if i > 0 && key(&edges[i - 1]) > key(&rewired[j - 1]) {
                    edges[k - 1] = edges[i - 1];
                    i -= 1;
                } else {
                    edges[k - 1] = rewired[j - 1];
                    j -= 1;
                }
                k -= 1;
            }
        } else {
            edges.append(&mut rewired);
            Self::sort_dedup_edges(&mut edges);
        }
        self.edges = edges;
        ids
    }

    /// Removes the given nodes (and their edges) from the graph by
    /// tombstoning. Used when separating control and address computations
    /// from the compute dataflow (paper §4.1).
    pub fn remove_nodes(&mut self, ids: &[OpId]) {
        for &id in ids {
            self.nodes[id.index()].dead = true;
        }
        self.rebuild_edges_excluding_dead(Vec::new());
    }

    /// Tombstones one node *without* rebuilding edges. Deserializers use
    /// this to reproduce a post-rewrite graph slot-for-slot, dead kinds and
    /// all (the edge array they restore was already rebuilt before
    /// serialization, so nothing touches the dead slot; if untrusted input
    /// does add such an edge, [`crate::verify_dfg`] rejects the graph).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn mark_dead(&mut self, id: OpId) {
        self.invalidate_structure();
        self.nodes[id.index()].dead = true;
    }

    pub(crate) fn rebuild_edges_excluding_dead(&mut self, extra: Vec<DfgEdge>) {
        self.invalidate_structure();
        let nodes = &self.nodes;
        let mut kept = std::mem::take(&mut self.edges);
        kept.retain(|e| !nodes[e.src.index()].dead && !nodes[e.dst.index()].dead);
        kept.extend(
            extra
                .into_iter()
                .filter(|e| !nodes[e.src.index()].dead && !nodes[e.dst.index()].dead),
        );
        // Deduplicate identical edges introduced by rewiring. The sort is
        // part of the graph's observable edge order (and thus its content
        // hash); adjacency is rebuilt lazily on next use. A strictly
        // sorted array (canonical input, nothing appended) is already in
        // that form, so the re-sort is skipped.
        let key = |e: &DfgEdge| (e.src, e.dst, e.distance, e.kind as u8);
        if !kept.is_sorted_by(|a, b| key(a) < key(b)) {
            Self::sort_dedup_edges(&mut kept);
        }
        self.edges = kept;
    }

    /// The canonical edge ordering applied after structural rewrites
    /// ([`Dfg::collapse`], [`Dfg::remove_nodes`]): sort by
    /// `(src, dst, distance, kind)` and drop exact duplicates.
    pub(crate) fn sort_dedup_edges(edges: &mut Vec<DfgEdge>) {
        edges.sort_by_key(|e| (e.src, e.dst, e.distance, e.kind as u8));
        edges.dedup();
    }

    /// The ids of scalar live-in nodes.
    pub fn live_in_ids(&self) -> impl Iterator<Item = OpId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.dead && matches!(n.kind, NodeKind::LiveIn))
            .map(|(i, _)| OpId::new(i))
    }

    /// The ids of constant nodes.
    pub fn const_ids(&self) -> impl Iterator<Item = OpId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.dead && matches!(n.kind, NodeKind::Const(_)))
            .map(|(i, _)| OpId::new(i))
    }

    /// The ids of live-out values.
    pub fn live_out_ids(&self) -> impl Iterator<Item = OpId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.dead && n.live_out)
            .map(|(i, _)| OpId::new(i))
    }

    /// A stable 64-bit fingerprint of the graph's content: which slots are
    /// tombstones, every live node's kind, stream annotation, liveness and
    /// CCA membership (with the members' kinds), and every edge. Equal
    /// graphs hash equal across threads and processes, so the fingerprint
    /// can key persistent or shared caches (the sweep engine's translation
    /// memo keys on it). Cached after the first call (the parametric
    /// MinDist cache and the sweep memo both key on it per translation);
    /// every mutator, including [`Dfg::node_mut`], clears the cache.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        *self.hash.get_or_init(|| self.content_hash_uncached())
    }

    /// [`Dfg::content_hash`] without the cache.
    ///
    /// A tombstone hashes as a bare slot. Nothing downstream reads a dead
    /// node's kind, stream or flags, and the module format does not keep them
    /// (it writes one `KIND_DEAD` byte per dead slot), so hashing them would
    /// give a loop a different memo key after a round trip through the wire
    /// than in process. The one place a tombstone's opcode still matters is as
    /// a member of a `Cca` node, so each `Cca` node hashes its members' kinds
    /// next to their ids: graphs that collapse different ops never share a key.
    fn content_hash_uncached(&self) -> u64 {
        let write_kind = |h: &mut crate::rng::Fnv64, kind: &NodeKind| match kind {
            NodeKind::Op(op) => {
                h.write_u8(1);
                h.write_u64(*op as u64);
            }
            NodeKind::LiveIn => h.write_u8(2),
            NodeKind::Const(v) => {
                h.write_u8(3);
                h.write_u64(*v as u64);
            }
        };
        let mut h = crate::rng::Fnv64::new();
        h.write_u64(self.nodes.len() as u64);
        for n in &self.nodes {
            if n.dead {
                h.write_u8(0);
                continue;
            }
            write_kind(&mut h, &n.kind);
            h.write_u64(n.stream.map_or(u64::MAX, u64::from));
            h.write_u8(u8::from(n.live_out));
            h.write_u64(n.cca_members.len() as u64);
            for m in &n.cca_members {
                h.write_u64(m.index() as u64);
                if let Some(member) = self.nodes.get(m.index()) {
                    write_kind(&mut h, &member.kind);
                }
            }
        }
        h.write_u64(self.edges.len() as u64);
        for e in &self.edges {
            h.write_u64(e.src.index() as u64);
            h.write_u64(e.dst.index() as u64);
            h.write_u64(u64::from(e.distance));
            h.write_u8(match e.kind {
                EdgeKind::Data => 0,
                EdgeKind::Mem => 1,
            });
        }
        h.finish()
    }
}

/// Per-function-unit-class operation counts, as used by the ResMII
/// computation (paper §4.1, "Minimum II Calculation").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCounts {
    /// Ops needing an integer unit.
    pub int: usize,
    /// Ops needing a floating-point unit.
    pub fp: usize,
    /// Collapsed CCA invocations.
    pub cca: usize,
    /// Memory (FIFO) accesses.
    pub mem: usize,
    /// Control ops (normally stripped before scheduling).
    pub control: usize,
}

impl fmt::Display for OpCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "int={} fp={} cca={} mem={} ctrl={}",
            self.int, self.fp, self.cca, self.mem, self.control
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DfgBuilder;

    fn chain3() -> Dfg {
        let mut b = DfgBuilder::new();
        let a = b.load_stream(0);
        let c = b.op(Opcode::Add, &[a, a]);
        b.store_stream(1, c);
        b.finish()
    }

    #[test]
    fn add_edge_builds_adjacency() {
        let dfg = chain3();
        let load = OpId::new(0);
        // `add` reads the loaded value twice: two edges.
        assert_eq!(dfg.succ_edges(load).count(), 2);
        assert_eq!(dfg.pred_edges(load).count(), 0);
    }

    #[test]
    fn topo_order_of_chain() {
        let dfg = chain3();
        let order = dfg.topo_order().expect("acyclic");
        let pos: Vec<usize> = (0..3)
            .map(|i| order.iter().position(|&o| o == OpId::new(i)).unwrap())
            .collect();
        assert!(pos[0] < pos[1] && pos[1] < pos[2]);
    }

    #[test]
    fn topo_order_detects_distance0_cycle() {
        let mut dfg = Dfg::new();
        let a = dfg.add_node(NodeKind::Op(Opcode::Add));
        let b = dfg.add_node(NodeKind::Op(Opcode::Sub));
        dfg.add_edge(a, b, 0, EdgeKind::Data);
        dfg.add_edge(b, a, 0, EdgeKind::Data);
        assert!(dfg.topo_order().is_err());
    }

    #[test]
    fn recurrence_detection_self_edge() {
        let mut b = DfgBuilder::new();
        let x = b.op(Opcode::Add, &[]);
        b.loop_carried(x, x, 1);
        let dfg = b.finish();
        let recs = dfg.recurrences();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0], vec![x]);
    }

    #[test]
    fn recurrence_detection_two_node_cycle() {
        let mut b = DfgBuilder::new();
        let x = b.op(Opcode::Add, &[]);
        let y = b.op(Opcode::Sub, &[x]);
        b.loop_carried(y, x, 1);
        let dfg = b.finish();
        let recs = dfg.recurrences();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].len(), 2);
    }

    #[test]
    fn acyclic_graph_has_no_recurrences() {
        assert!(chain3().recurrences().is_empty());
    }

    #[test]
    fn sccs_cover_all_live_nodes() {
        let dfg = chain3();
        let total: usize = dfg.sccs().iter().map(Vec::len).sum();
        assert_eq!(total, dfg.live_ids().count());
    }

    #[test]
    fn collapse_rewires_external_edges() {
        let mut b = DfgBuilder::new();
        let input = b.live_in();
        let x = b.op(Opcode::And, &[input]);
        let y = b.op(Opcode::Xor, &[x]);
        let z = b.op(Opcode::Shl, &[y]); // not CCA-supported, stays outside
        b.store_stream(0, z);
        let mut dfg = b.finish();
        let cca = dfg.collapse(&[x, y]);
        assert!(dfg.node(x).is_dead());
        assert!(dfg.node(y).is_dead());
        let preds: Vec<OpId> = dfg.pred_edges(cca).map(|e| e.src).collect();
        assert_eq!(preds, vec![input]);
        let succs: Vec<OpId> = dfg.succ_edges(cca).map(|e| e.dst).collect();
        assert_eq!(succs, vec![z]);
        assert_eq!(dfg.node(cca).cca_members, vec![x, y]);
    }

    #[test]
    fn collapse_preserves_loop_carried_external_edge() {
        let mut b = DfgBuilder::new();
        let x = b.op(Opcode::Add, &[]);
        let y = b.op(Opcode::Sub, &[x]);
        b.loop_carried(y, x, 1);
        let mut dfg = b.finish();
        let cca = dfg.collapse(&[x, y]);
        // The distance-1 cycle is now a self edge on the CCA node.
        let self_edges: Vec<&DfgEdge> = dfg.succ_edges(cca).filter(|e| e.dst == cca).collect();
        assert_eq!(self_edges.len(), 1);
        assert_eq!(self_edges[0].distance, 1);
    }

    #[test]
    #[should_panic(expected = "not a CCA-supported op")]
    fn collapse_rejects_unsupported_member() {
        let mut b = DfgBuilder::new();
        let x = b.op(Opcode::Add, &[]);
        let y = b.op(Opcode::Shl, &[x]); // shifts are not CCA-supported
        let mut dfg = b.finish();
        let _ = dfg.collapse(&[x, y]);
    }

    #[test]
    fn op_counts_by_class() {
        let mut b = DfgBuilder::new();
        let a = b.load_stream(0);
        let m = b.op(Opcode::Mul, &[a, a]);
        let f = b.op(Opcode::ItoF, &[m]);
        let g = b.op(Opcode::FAdd, &[f, f]);
        b.store_stream(1, g);
        let dfg = b.finish();
        let c = dfg.op_counts();
        assert_eq!(c.int, 1);
        assert_eq!(c.fp, 2);
        assert_eq!(c.mem, 2);
        assert_eq!(c.cca, 0);
    }

    #[test]
    fn remove_nodes_drops_edges() {
        let mut b = DfgBuilder::new();
        let a = b.op(Opcode::Add, &[]);
        let c = b.op(Opcode::Sub, &[a]);
        let d = b.op(Opcode::Xor, &[c]);
        let mut dfg = b.finish();
        dfg.remove_nodes(&[c]);
        assert!(dfg.node(c).is_dead());
        assert_eq!(dfg.succ_edges(a).count(), 0);
        assert_eq!(dfg.pred_edges(d).count(), 0);
    }

    #[test]
    fn live_in_and_const_iterators() {
        let mut b = DfgBuilder::new();
        let li = b.live_in();
        let k = b.constant(3);
        let s = b.op(Opcode::Add, &[li, k]);
        b.mark_live_out(s);
        let dfg = b.finish();
        assert_eq!(dfg.live_in_ids().collect::<Vec<_>>(), vec![li]);
        assert_eq!(dfg.const_ids().collect::<Vec<_>>(), vec![k]);
        assert_eq!(dfg.live_out_ids().collect::<Vec<_>>(), vec![s]);
    }

    #[test]
    fn collapse_marks_live_out_if_member_was() {
        let mut b = DfgBuilder::new();
        let x = b.op(Opcode::Add, &[]);
        let y = b.op(Opcode::Xor, &[x]);
        b.mark_live_out(y);
        let mut dfg = b.finish();
        let cca = dfg.collapse(&[x, y]);
        assert!(dfg.node(cca).live_out);
    }

    #[test]
    fn adjacency_matches_nodes_and_preserves_insertion_order() {
        use crate::rng::Rng64;
        let mut rng = Rng64::new(0xad7);
        for _ in 0..50 {
            let n = rng.gen_range(1, 24);
            let mut dfg = Dfg::new();
            let ids: Vec<OpId> = (0..n)
                .map(|_| dfg.add_node(NodeKind::Op(Opcode::Add)))
                .collect();
            for _ in 0..rng.gen_range(0, 4 * n) {
                let a = rng.gen_range(0, n);
                let b = rng.gen_range(0, n);
                dfg.add_edge(ids[a], ids[b], rng.gen_range(0, 2) as u32, EdgeKind::Data);
            }
            // Reference adjacency: push-based per-node lists.
            let mut succ = vec![Vec::new(); n];
            let mut pred = vec![Vec::new(); n];
            for (i, e) in dfg.edges().iter().enumerate() {
                succ[e.src.index()].push(i as u32);
                pred[e.dst.index()].push(i as u32);
            }
            let adj = dfg.adjacency();
            for i in 0..n {
                assert_eq!(adj.succ_edge_ids(i), succ[i].as_slice(), "succ of {i}");
                assert_eq!(adj.pred_edge_ids(i), pred[i].as_slice(), "pred of {i}");
                assert!(adj.is_schedulable(i) && !adj.is_dead(i));
                assert_eq!(adj.opcodes()[i], Opcode::Add.encode());
            }
        }
    }

    #[test]
    fn collapse_bitset_matches_hashset_reference() {
        // Satellite regression for the `HashSet<OpId>` membership check
        // that `collapse` used to build per call: random graphs, random
        // member sets, edges compared against a HashSet-driven rewiring
        // reference.
        use crate::rng::Rng64;
        use std::collections::HashSet;
        let mut rng = Rng64::new(0xc0117);
        for _ in 0..100 {
            let n = rng.gen_range(2, 20);
            let mut dfg = Dfg::new();
            let ids: Vec<OpId> = (0..n)
                .map(|_| dfg.add_node(NodeKind::Op(Opcode::Add)))
                .collect();
            for _ in 0..rng.gen_range(0, 3 * n) {
                let a = rng.gen_range(0, n);
                let b = rng.gen_range(0, n);
                dfg.add_edge(ids[a], ids[b], rng.gen_range(0, 3) as u32, EdgeKind::Data);
            }
            let mut members: Vec<OpId> =
                ids.iter().copied().filter(|_| rng.gen_bool(0.4)).collect();
            if members.is_empty() {
                members.push(ids[rng.gen_range(0, n)]);
            }
            // HashSet reference over the pre-collapse graph.
            let member_set: HashSet<OpId> = members.iter().copied().collect();
            let pre_edges = dfg.edges().to_vec();
            let cca_expected = OpId::new(n);
            let mut expected: Vec<DfgEdge> = pre_edges
                .iter()
                .filter(|e| !member_set.contains(&e.src) || !member_set.contains(&e.dst))
                .map(|e| DfgEdge {
                    src: if member_set.contains(&e.src) {
                        cca_expected
                    } else {
                        e.src
                    },
                    dst: if member_set.contains(&e.dst) {
                        cca_expected
                    } else {
                        e.dst
                    },
                    distance: e.distance,
                    kind: e.kind,
                })
                .chain(
                    pre_edges
                        .iter()
                        .filter(|e| {
                            member_set.contains(&e.src)
                                && member_set.contains(&e.dst)
                                && e.distance > 0
                        })
                        .map(|e| DfgEdge {
                            src: cca_expected,
                            dst: cca_expected,
                            distance: e.distance,
                            kind: e.kind,
                        }),
                )
                .collect();
            Dfg::sort_dedup_edges(&mut expected);
            let cca = dfg.collapse(&members);
            assert_eq!(cca, cca_expected);
            assert_eq!(dfg.edges(), expected.as_slice());
            for &m in &members {
                assert!(dfg.node(m).is_dead());
            }
        }
    }

    #[test]
    fn large_scc_iterative_tarjan_no_overflow() {
        // A single cycle through 50_000 nodes would overflow a recursive
        // Tarjan; the iterative version must handle it.
        let mut dfg = Dfg::new();
        let n = 50_000;
        let ids: Vec<OpId> = (0..n)
            .map(|_| dfg.add_node(NodeKind::Op(Opcode::Add)))
            .collect();
        for i in 0..n - 1 {
            dfg.add_edge(ids[i], ids[i + 1], 0, EdgeKind::Data);
        }
        dfg.add_edge(ids[n - 1], ids[0], 1, EdgeKind::Data);
        let recs = dfg.recurrences();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].len(), n);
    }
}
