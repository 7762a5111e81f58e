//! Cached SCC condensation and bitset reachability for [`Dfg`]s.
//!
//! Every translation stage consumes the same structural facts about the
//! loop body: its strongly connected components (the recurrences), the
//! component DAG, and which nodes can reach which through intra-iteration
//! (distance-0) dependences. Historically each stage recomputed them from
//! scratch — Tarjan per CCA legality check, a BFS per convexity query, a
//! full Floyd–Warshall per candidate II. [`Condensation`] computes them
//! once per graph and [`Dfg::condensation`](crate::Dfg::condensation)
//! caches the result until the graph is structurally mutated, so the hot
//! kernels downstream (MinDist, CCA legality, the exhaustive mapper) can
//! run on dense indices and `u64` bitmask words instead.
//!
//! Nothing here is metered: the abstract cost model charges for the
//! *algorithms the paper's VM runs* (see `veal-ir`'s `meter` module), and
//! those charges are emitted by the call sites exactly as before. The
//! condensation only changes how fast the host arrives at the same
//! numbers.

use crate::arena::{with_arena, DfgArena};
use crate::dfg::Dfg;
use crate::types::OpId;

/// A dense row-major bit matrix: `n` rows of `n` columns packed into
/// `u64` words. Row `i` is the reachability (or adjacency) set of node
/// `i`, so set algebra over whole rows is a word-wise loop.
///
/// The word storage is recycled through the shared [`DfgArena`] pool:
/// `new` reclaims a parked buffer and `Drop` parks it again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMatrix {
    n: usize,
    words_per_row: usize,
    bits: Vec<u64>,
}

impl Drop for BitMatrix {
    fn drop(&mut self) {
        let bits = std::mem::take(&mut self.bits);
        if bits.capacity() > 0 {
            with_arena(|a| a.give_u64(bits));
        }
    }
}

impl BitMatrix {
    /// An `n` × `n` matrix of zeroes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        let words_per_row = n.div_ceil(64);
        let mut bits = with_arena(DfgArena::take_u64);
        bits.resize(n * words_per_row, 0);
        BitMatrix {
            n,
            words_per_row,
            bits,
        }
    }

    /// Number of rows (= columns).
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix has zero rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// `u64` words per row; every row slice has this length.
    #[must_use]
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// Sets bit `(row, col)`.
    pub fn set(&mut self, row: usize, col: usize) {
        let w = row * self.words_per_row + col / 64;
        self.bits[w] |= 1u64 << (col % 64);
    }

    /// Reads bit `(row, col)`.
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> bool {
        let w = row * self.words_per_row + col / 64;
        self.bits[w] >> (col % 64) & 1 != 0
    }

    /// The packed words of `row`.
    #[must_use]
    pub fn row(&self, row: usize) -> &[u64] {
        let start = row * self.words_per_row;
        &self.bits[start..start + self.words_per_row]
    }

    /// OR-accumulates row `src` into row `dst` (`dst |= src`).
    pub fn or_row_into(&mut self, src: usize, dst: usize) {
        let (s, d) = (src * self.words_per_row, dst * self.words_per_row);
        for i in 0..self.words_per_row {
            let w = self.bits[s + i];
            self.bits[d + i] |= w;
        }
    }

    /// Whether row `row` intersects the given mask words (missing mask
    /// words are treated as zero).
    #[must_use]
    pub fn row_intersects(&self, row: usize, mask: &[u64]) -> bool {
        self.row(row).iter().zip(mask).any(|(&a, &b)| a & b != 0)
    }
}

/// The SCC condensation of a [`Dfg`], plus distance-0 reachability.
///
/// * `comps` lists the strongly connected components over **all** edges
///   (any distance) in reverse topological order of the component DAG —
///   byte-for-byte the same list, order, and member sort as
///   [`Dfg::sccs`] has always produced (which now delegates here).
/// * `comp_of[node]` maps a live node to its component index.
/// * `cyclic[c]` marks recurrences: components with more than one member
///   or a self edge.
/// * `reach0` is the reflexive-transitive closure over **distance-0**
///   edges only — `reach0[u]` has bit `v` set iff a (possibly empty)
///   intra-iteration dependence path leads from `u` to `v`. This is the
///   relation CCA convexity queries (`veal-cca`) and the acyclic-region
///   longest-path DP (`veal-sched`) need.
///
/// Dead (tombstoned) nodes belong to no component and have empty
/// `reach0` rows.
#[derive(Debug)]
pub struct Condensation {
    comp_of: Vec<u32>,
    comps: Vec<Vec<OpId>>,
    cyclic: Vec<bool>,
    /// The closure, once someone has asked for it (see `reach0_src`).
    reach0: std::sync::OnceLock<BitMatrix>,
    /// The n×n closure is computed *lazily*: only CCA convexity reads it,
    /// so graphs that go straight to the scheduler (every post-mapping
    /// graph) never pay the O(n²) sweep. The build captures a compact CSR
    /// snapshot of the live distance-0 successor lists instead — the
    /// condensation must stay valid even after the graph mutates, so it
    /// cannot reach back into the `Dfg`.
    reach0_src: Reach0Source,
    topo0: Option<Vec<OpId>>,
}

impl Clone for Condensation {
    fn clone(&self) -> Self {
        Condensation {
            comp_of: self.comp_of.clone(),
            comps: self.comps.clone(),
            cyclic: self.cyclic.clone(),
            reach0: match self.reach0.get() {
                Some(m) => std::sync::OnceLock::from(m.clone()),
                None => std::sync::OnceLock::new(),
            },
            reach0_src: self.reach0_src.clone(),
            topo0: self.topo0.clone(),
        }
    }
}

impl PartialEq for Condensation {
    /// Equality over the *semantic* fields; comparing forces the closure
    /// on both sides, so a condensation that has computed its closure and
    /// one that has not compare equal.
    fn eq(&self, other: &Self) -> bool {
        self.comp_of == other.comp_of
            && self.comps == other.comps
            && self.cyclic == other.cyclic
            && self.topo0 == other.topo0
            && self.reach0() == other.reach0()
    }
}

impl Eq for Condensation {}

/// The captured distance-0 successor CSR a lazy closure is computed from
/// (live endpoints only). Buffers are pooled through the [`DfgArena`].
#[derive(Debug)]
struct Reach0Source {
    n: usize,
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Clone for Reach0Source {
    fn clone(&self) -> Self {
        Reach0Source {
            n: self.n,
            offsets: self.offsets.clone(),
            targets: self.targets.clone(),
        }
    }
}

impl Drop for Reach0Source {
    fn drop(&mut self) {
        with_arena(|a| {
            a.give_u32(std::mem::take(&mut self.offsets));
            a.give_u32(std::mem::take(&mut self.targets));
        });
    }
}

impl Reach0Source {
    fn capture(dfg: &Dfg) -> Self {
        let n = dfg.len();
        let adj = dfg.adjacency();
        let edges = dfg.edges();
        let (mut offsets, mut targets) = with_arena(|a| (a.take_u32(), a.take_u32()));
        offsets.reserve(n + 1);
        offsets.push(0);
        for v in 0..n {
            if !adj.is_dead(v) {
                for &e in adj.succ_edge_ids(v) {
                    let edge = &edges[e as usize];
                    if edge.distance == 0 && !adj.is_dead(edge.dst.index()) {
                        targets.push(edge.dst.index() as u32);
                    }
                }
            }
            offsets.push(targets.len() as u32);
        }
        Reach0Source {
            n,
            offsets,
            targets,
        }
    }

    fn succs(&self, v: usize) -> &[u32] {
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// The reflexive-transitive closure over distance-0 edges, from the
    /// snapshot. The distance-0 subgraph of a well-formed loop body is
    /// acyclic, so one reverse-topological OR sweep suffices; ill-formed
    /// bodies (intra-iteration cycles) fall back to per-node BFS, which is
    /// correct regardless.
    fn compute(&self, topo0: Option<&[OpId]>, comp_of: &[u32]) -> BitMatrix {
        let mut m = BitMatrix::new(self.n);
        match topo0 {
            Some(order) => {
                for &v in order.iter().rev() {
                    let vi = v.index();
                    m.set(vi, vi);
                    for &w in self.succs(vi) {
                        m.or_row_into(w as usize, vi);
                    }
                }
            }
            None => {
                with_arena(|a| {
                    let mut queue = a.take_u32();
                    for (vi, &c) in comp_of.iter().enumerate().take(self.n) {
                        if c == NO_COMP {
                            continue; // dead slot
                        }
                        m.set(vi, vi);
                        queue.clear();
                        queue.push(vi as u32);
                        while let Some(u) = queue.pop() {
                            for &w in self.succs(u as usize) {
                                if !m.get(vi, w as usize) {
                                    m.set(vi, w as usize);
                                    queue.push(w);
                                }
                            }
                        }
                    }
                    a.give_u32(queue);
                });
            }
        }
        m
    }
}

const NO_COMP: u32 = u32::MAX;

impl Condensation {
    /// Builds the condensation of `dfg`. Prefer the cached
    /// [`Dfg::condensation`](crate::Dfg::condensation) accessor.
    ///
    /// Three passes over the graph's CSR [`crate::dfg::Adjacency`] with
    /// [`DfgArena`]-pooled scratch: Tarjan, the cyclic flags, and the
    /// distance-0 topological order; the closure is deferred.
    #[must_use]
    pub fn build(dfg: &Dfg) -> Self {
        let (comps, comp_of) = with_arena(|a| tarjan(dfg, a));
        let adj = dfg.adjacency();
        let edges = dfg.edges();
        let cyclic = comps
            .iter()
            .map(|c| {
                c.len() > 1
                    || adj
                        .succ_edge_ids(c[0].index())
                        .iter()
                        .any(|&e| edges[e as usize].dst == c[0])
            })
            .collect();
        let topo0 = dfg.topo_order().ok();
        Condensation {
            comp_of,
            comps,
            cyclic,
            reach0: std::sync::OnceLock::new(),
            reach0_src: Reach0Source::capture(dfg),
            topo0,
        }
    }

    /// The cached topological order of live nodes over distance-0 edges —
    /// exactly what [`Dfg::topo_order`](crate::Dfg::topo_order) returns on
    /// success — or `None` for ill-formed bodies whose distance-0 subgraph
    /// is cyclic. The scheduler's longest-path passes (`depths`, `heights`)
    /// run once per translation attempt; caching the order here removes a
    /// repeated Kahn sort (plus its allocations) from the hot path.
    #[must_use]
    pub fn topo0(&self) -> Option<&[OpId]> {
        self.topo0.as_deref()
    }

    /// The components, in reverse topological order of the component DAG
    /// (successors before predecessors), each sorted by node id.
    #[must_use]
    pub fn comps(&self) -> &[Vec<OpId>] {
        &self.comps
    }

    /// Number of components.
    #[must_use]
    pub fn num_comps(&self) -> usize {
        self.comps.len()
    }

    /// The component index of a live node, `None` for dead nodes.
    #[must_use]
    pub fn comp_of(&self, id: OpId) -> Option<usize> {
        match self.comp_of.get(id.index()) {
            Some(&c) if c != NO_COMP => Some(c as usize),
            _ => None,
        }
    }

    /// Whether component `c` contains a cycle (i.e. is a recurrence).
    #[must_use]
    pub fn is_cyclic(&self, c: usize) -> bool {
        self.cyclic[c]
    }

    /// The per-component cyclic flags, indexed like [`Self::comps`].
    #[must_use]
    pub fn cyclic_flags(&self) -> &[bool] {
        &self.cyclic
    }

    /// Whether a distance-0 dependence path (possibly empty) leads from
    /// `from` to `to`.
    #[must_use]
    pub fn reaches0(&self, from: OpId, to: OpId) -> bool {
        self.reach0().get(from.index(), to.index())
    }

    /// The packed distance-0 reachability row of `id` (one bit per node
    /// slot in the graph, including dead slots, which are never set).
    #[must_use]
    pub fn reach0_row(&self, id: OpId) -> &[u64] {
        self.reach0().row(id.index())
    }

    /// The full distance-0 reachability closure. The first call computes
    /// it from the captured successor snapshot; later calls return the
    /// stored matrix.
    #[must_use]
    pub fn reach0(&self) -> &BitMatrix {
        self.reach0.get_or_init(|| {
            self.reach0_src
                .compute(self.topo0.as_deref(), &self.comp_of)
        })
    }
}

/// Cached result of [`scc_membership`]: the per-slot component map and the
/// cyclic-component bitset, without member lists or reachability. This is
/// the shape every per-loop recurrence query needs (RecMII, the Swing
/// ordering's recurrence sets, the commit-path legality re-check), so
/// [`crate::Dfg::scc_view`] memoizes one per graph version and the
/// consumers share it instead of re-running Tarjan back to back.
#[derive(Debug, Clone)]
pub struct SccView {
    /// Component index per node slot (`u32::MAX` for dead slots).
    pub comp_of: Vec<u32>,
    /// Bit `c` marks component `c` as a recurrence (more than one member,
    /// or a self-edge on its lone member).
    pub cyclic: Vec<u64>,
    /// Total number of components.
    pub n_comps: usize,
}

impl SccView {
    /// Whether component `c` is cyclic.
    #[must_use]
    pub fn is_cyclic(&self, c: u32) -> bool {
        self.cyclic[c as usize / 64] >> (c as usize % 64) & 1 != 0
    }
}

/// Writes the SCC membership of `dfg` into caller-owned buffers, without
/// materializing per-component member lists, the reach0 closure, or the
/// topological order: on return `comp_of[slot]` is the component index of
/// each live node (`u32::MAX` for dead slots) and bit `c` of `cyclic`
/// marks component `c` as a recurrence. Returns the component count.
/// Component numbering matches [`Condensation::comps`] (reverse
/// topological emission order).
///
/// One Tarjan pass over CSR slices with pooled scratch — the cheapest
/// possible answer to "which recurrence is this node on?" for a
/// *transient* graph. The CCA mapper's commit loop asks once per
/// collapse; building (and immediately discarding) a full condensation
/// there would dwarf the single query it serves.
pub fn scc_membership(dfg: &Dfg, comp_of: &mut Vec<u32>, cyclic: &mut Vec<u64>) -> usize {
    const UNVISITED: u32 = u32::MAX;
    let n = dfg.len();
    let adj = dfg.adjacency();
    let edges = dfg.edges();
    comp_of.clear();
    comp_of.resize(n, NO_COMP);
    cyclic.clear();
    cyclic.resize(n.div_ceil(64), 0);
    let mut n_comps = 0usize;
    with_arena(|a| {
        let mut index = a.take_u32();
        index.resize(n, UNVISITED);
        let mut low = a.take_u32();
        low.resize(n, 0);
        let mut on_stack = a.take_u64();
        on_stack.resize(n.div_ceil(64), 0);
        let mut stack = a.take_u32();
        let mut cs_node = a.take_u32();
        let mut cs_pos = a.take_u32();
        let mut next_index = 0u32;

        for start in 0..n {
            if adj.is_dead(start) || index[start] != UNVISITED {
                continue;
            }
            cs_node.push(start as u32);
            cs_pos.push(0);
            index[start] = next_index;
            low[start] = next_index;
            next_index += 1;
            stack.push(start as u32);
            on_stack[start / 64] |= 1 << (start % 64);

            while let Some(&v) = cs_node.last() {
                let v_usize = v as usize;
                let succs = adj.succ_edge_ids(v_usize);
                let pos = cs_pos.last_mut().expect("cursor stack tracks node stack");
                if let Some(&e) = succs.get(*pos as usize) {
                    *pos += 1;
                    let w = edges[e as usize].dst.index();
                    if !adj.is_dead(w) {
                        if index[w] == UNVISITED {
                            index[w] = next_index;
                            low[w] = next_index;
                            next_index += 1;
                            stack.push(w as u32);
                            on_stack[w / 64] |= 1 << (w % 64);
                            cs_node.push(w as u32);
                            cs_pos.push(0);
                        } else if on_stack[w / 64] >> (w % 64) & 1 != 0 {
                            low[v_usize] = low[v_usize].min(index[w]);
                        }
                    }
                    continue;
                }
                cs_node.pop();
                cs_pos.pop();
                if let Some(&parent) = cs_node.last() {
                    let p = parent as usize;
                    low[p] = low[p].min(low[v_usize]);
                }
                if low[v_usize] == index[v_usize] {
                    let comp_idx = n_comps as u32;
                    let mut size = 0usize;
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w as usize / 64] &= !(1 << (w as usize % 64));
                        comp_of[w as usize] = comp_idx;
                        size += 1;
                        if w == v {
                            break;
                        }
                    }
                    let self_loop = || {
                        adj.succ_edge_ids(v_usize)
                            .iter()
                            .any(|&e| edges[e as usize].dst.index() == v_usize)
                    };
                    if size > 1 || self_loop() {
                        cyclic[n_comps / 64] |= 1 << (n_comps % 64);
                    }
                    n_comps += 1;
                }
            }
        }
        a.give_u32(index);
        a.give_u32(low);
        a.give_u64(on_stack);
        a.give_u32(stack);
        a.give_u32(cs_node);
        a.give_u32(cs_pos);
    });
    n_comps
}

/// Iterative Tarjan over all edges, excluding dead nodes. Produces the
/// exact component list [`Dfg::sccs`] has always produced (reverse
/// topological emission order, members sorted), plus the node→component
/// map. The DFS walks CSR slices with a plain cursor (O(V + E) total) and
/// keeps every piece of per-node state in pooled buffers — `on_stack` as
/// bitset words, the explicit call stack as two parallel `u32` arrays.
fn tarjan(dfg: &Dfg, a: &mut DfgArena) -> (Vec<Vec<OpId>>, Vec<u32>) {
    const UNVISITED: u32 = u32::MAX;
    let n = dfg.len();
    let adj = dfg.adjacency();
    let edges = dfg.edges();
    let mut index = a.take_u32();
    index.resize(n, UNVISITED);
    let mut low = a.take_u32();
    low.resize(n, 0);
    let mut on_stack = a.take_u64();
    on_stack.resize(n.div_ceil(64), 0);
    let mut stack = a.take_u32();
    // Explicit DFS state machine as parallel arrays: node and successor
    // cursor.
    let mut cs_node = a.take_u32();
    let mut cs_pos = a.take_u32();
    let mut next_index = 0u32;
    let mut comps: Vec<Vec<OpId>> = Vec::new();
    let mut comp_of = vec![NO_COMP; n];

    for start in 0..n {
        if adj.is_dead(start) || index[start] != UNVISITED {
            continue;
        }
        cs_node.push(start as u32);
        cs_pos.push(0);
        index[start] = next_index;
        low[start] = next_index;
        next_index += 1;
        stack.push(start as u32);
        on_stack[start / 64] |= 1 << (start % 64);

        while let Some(&v) = cs_node.last() {
            let v_usize = v as usize;
            let succs = adj.succ_edge_ids(v_usize);
            let pos = cs_pos.last_mut().expect("cursor stack tracks node stack");
            if let Some(&e) = succs.get(*pos as usize) {
                *pos += 1;
                let w = edges[e as usize].dst.index();
                if !adj.is_dead(w) {
                    if index[w] == UNVISITED {
                        index[w] = next_index;
                        low[w] = next_index;
                        next_index += 1;
                        stack.push(w as u32);
                        on_stack[w / 64] |= 1 << (w % 64);
                        cs_node.push(w as u32);
                        cs_pos.push(0);
                    } else if on_stack[w / 64] >> (w % 64) & 1 != 0 {
                        low[v_usize] = low[v_usize].min(index[w]);
                    }
                }
                continue;
            }
            cs_node.pop();
            cs_pos.pop();
            if let Some(&parent) = cs_node.last() {
                let p = parent as usize;
                low[p] = low[p].min(low[v_usize]);
            }
            if low[v_usize] == index[v_usize] {
                let comp_idx = comps.len() as u32;
                let mut component = Vec::new();
                loop {
                    let w = stack.pop().expect("tarjan stack underflow");
                    on_stack[w as usize / 64] &= !(1 << (w as usize % 64));
                    comp_of[w as usize] = comp_idx;
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
    a.give_u32(index);
    a.give_u32(low);
    a.give_u64(on_stack);
    a.give_u32(stack);
    a.give_u32(cs_node);
    a.give_u32(cs_pos);
    (comps, comp_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DfgBuilder;
    use crate::dfg::{EdgeKind, NodeKind};
    use crate::opcode::Opcode;
    use crate::rng::Rng64;

    #[test]
    fn bitmatrix_set_get_row_ops() {
        let mut m = BitMatrix::new(130);
        m.set(0, 0);
        m.set(0, 129);
        m.set(5, 64);
        assert!(m.get(0, 129) && m.get(5, 64) && !m.get(5, 65));
        assert_eq!(m.words_per_row(), 3);
        m.or_row_into(0, 5);
        assert!(m.get(5, 129) && m.get(5, 0) && m.get(5, 64));
        let mask = [0u64, 1u64, 0u64];
        assert!(m.row_intersects(5, &mask));
        assert!(!m.row_intersects(1, &mask));
    }

    #[test]
    fn condensation_matches_sccs_on_random_graphs() {
        let mut rng = Rng64::new(0x5ecc);
        for _ in 0..50 {
            let n = rng.gen_range(1, 20);
            let mut dfg = Dfg::new();
            let ids: Vec<OpId> = (0..n)
                .map(|_| dfg.add_node(NodeKind::Op(Opcode::Add)))
                .collect();
            for _ in 0..rng.gen_range(0, 3 * n) {
                let a = rng.gen_range(0, n);
                let b = rng.gen_range(0, n);
                let d = if a < b { 0 } else { rng.gen_range(1, 3) as u32 };
                dfg.add_edge(ids[a], ids[b], d, EdgeKind::Data);
            }
            let cond = Condensation::build(&dfg);
            assert_eq!(cond.comps(), dfg.sccs().as_slice());
            // Independent reference: u and v share a component iff each
            // reaches the other over edges of any distance.
            let reach = |from: OpId| {
                let mut seen = vec![false; n];
                seen[from.index()] = true;
                let mut queue = vec![from];
                while let Some(x) = queue.pop() {
                    for e in dfg.succ_edges(x) {
                        if !seen[e.dst.index()] {
                            seen[e.dst.index()] = true;
                            queue.push(e.dst);
                        }
                    }
                }
                seen
            };
            let reachable: Vec<Vec<bool>> = ids.iter().map(|&u| reach(u)).collect();
            for &u in &ids {
                for &v in &ids {
                    let mutual = reachable[u.index()][v.index()] && reachable[v.index()][u.index()];
                    assert_eq!(cond.comp_of(u) == cond.comp_of(v), mutual, "{u} {v}");
                }
            }
            // comp_of is consistent with the component list.
            for (c, comp) in cond.comps().iter().enumerate() {
                for &m in comp {
                    assert_eq!(cond.comp_of(m), Some(c));
                }
            }
            // Cyclic flags match recurrences().
            let recs = dfg.recurrences();
            let flagged: Vec<Vec<OpId>> = cond
                .comps()
                .iter()
                .enumerate()
                .filter(|&(c, _)| cond.is_cyclic(c))
                .map(|(_, comp)| comp.clone())
                .collect();
            assert_eq!(flagged, recs);
        }
    }

    #[test]
    fn reach0_matches_bfs_reference() {
        let mut rng = Rng64::new(0xbeef);
        for _ in 0..50 {
            let n = rng.gen_range(1, 16);
            let mut dfg = Dfg::new();
            let ids: Vec<OpId> = (0..n)
                .map(|_| dfg.add_node(NodeKind::Op(Opcode::Add)))
                .collect();
            for _ in 0..rng.gen_range(0, 2 * n) {
                let a = rng.gen_range(0, n);
                let b = rng.gen_range(0, n);
                // Forward edges distance 0 keep the d0 subgraph acyclic.
                let d = if a < b { 0 } else { 1 };
                dfg.add_edge(ids[a], ids[b], d, EdgeKind::Data);
            }
            let cond = Condensation::build(&dfg);
            for &u in &ids {
                // BFS reference over distance-0 edges.
                let mut seen = vec![false; n];
                seen[u.index()] = true;
                let mut queue = vec![u];
                while let Some(x) = queue.pop() {
                    for e in dfg.succ_edges(x) {
                        if e.distance == 0 && !seen[e.dst.index()] {
                            seen[e.dst.index()] = true;
                            queue.push(e.dst);
                        }
                    }
                }
                for &v in &ids {
                    assert_eq!(cond.reaches0(u, v), seen[v.index()], "{u} -> {v}");
                }
            }
        }
    }

    #[test]
    fn reach0_falls_back_on_distance0_cycle() {
        let mut dfg = Dfg::new();
        let a = dfg.add_node(NodeKind::Op(Opcode::Add));
        let b = dfg.add_node(NodeKind::Op(Opcode::Sub));
        let c = dfg.add_node(NodeKind::Op(Opcode::Xor));
        dfg.add_edge(a, b, 0, EdgeKind::Data);
        dfg.add_edge(b, a, 0, EdgeKind::Data);
        dfg.add_edge(b, c, 0, EdgeKind::Data);
        let cond = Condensation::build(&dfg);
        assert!(cond.reaches0(a, c) && cond.reaches0(b, a) && !cond.reaches0(c, a));
    }

    #[test]
    fn dead_nodes_have_no_component_and_empty_rows() {
        let mut bld = DfgBuilder::new();
        let x = bld.op(Opcode::And, &[]);
        let y = bld.op(Opcode::Xor, &[x]);
        let z = bld.op(Opcode::Shl, &[y]);
        let mut dfg = bld.finish();
        let cca = dfg.collapse(&[x, y]);
        let cond = dfg.condensation();
        assert_eq!(cond.comp_of(x), None);
        assert_eq!(cond.reach0_row(y).iter().copied().sum::<u64>(), 0);
        assert!(cond.reaches0(cca, z));
    }

    #[test]
    fn cache_shared_by_clone_and_invalidated_by_mutation() {
        let mut dfg = Dfg::new();
        let a = dfg.add_node(NodeKind::Op(Opcode::Add));
        let b = dfg.add_node(NodeKind::Op(Opcode::Sub));
        dfg.add_edge(a, b, 0, EdgeKind::Data);
        let first = dfg.condensation();
        // Same Arc on repeated calls, and shared by clones.
        assert!(std::sync::Arc::ptr_eq(&first, &dfg.condensation()));
        let copy = dfg.clone();
        assert!(std::sync::Arc::ptr_eq(&first, &copy.condensation()));
        assert_eq!(dfg, copy);
        // Mutation invalidates: b -> a closes a cycle, merging the comps.
        dfg.add_edge(b, a, 1, EdgeKind::Data);
        let second = dfg.condensation();
        assert!(!std::sync::Arc::ptr_eq(&first, &second));
        assert_eq!(second.num_comps(), 1);
        // The clone still sees the old structure.
        assert_eq!(copy.condensation().num_comps(), 2);
        assert_ne!(dfg, copy);
    }
}
