//! Legality checks for candidate CCA subgraphs.
//!
//! Every set-membership question here is asked thousands of times per
//! loop by the seed-and-grow mapper and millions of times by the
//! exhaustive mapper, so groups are represented as packed `u64` bitmasks
//! over node slots and convexity reads the graph's cached distance-0
//! reachability closure ([`Condensation`]) instead of re-running a BFS
//! per query.
//!
//! Each kernel (`*_in`) threads a [`LegalityScratch`] of arena-backed
//! buffers through every query and reads the graph through its CSR
//! [`veal_ir::Adjacency`], so a legality trial in the mapper's inner loop
//! allocates nothing. The plain entry points ([`is_legal_group`],
//! [`group_io`], …) wrap them with a fresh scratch.

use crate::spec::CcaSpec;
use veal_ir::{with_arena, Condensation, Dfg, OpId, Opcode};

#[inline]
fn bit(mask: &[u64], i: usize) -> bool {
    mask[i / 64] >> (i % 64) & 1 != 0
}

#[inline]
fn set_bit(mask: &mut [u64], i: usize) {
    mask[i / 64] |= 1u64 << (i % 64);
}

fn count_ones(mask: &[u64]) -> usize {
    mask.iter().map(|w| w.count_ones() as usize).sum()
}

/// Reusable buffers for the fast legality kernels.
///
/// One scratch serves any number of queries against graphs of any size —
/// each kernel resizes what it touches. The buffers come from the shared
/// [`veal_ir::DfgArena`] pool and return to it on drop, so constructing a
/// scratch in steady state allocates nothing either.
#[derive(Debug)]
pub struct LegalityScratch {
    /// Member mask over node slots.
    set: Vec<u64>,
    /// Producers mask / convexity out-reach / BFS visited.
    wa: Vec<u64>,
    /// Outputs mask.
    wb: Vec<u64>,
    /// Node slot -> index within the current group (stale outside the
    /// current group's slots; always guarded by `set`).
    pos: Vec<u32>,
    /// Per-member intra-group in-degree.
    indeg: Vec<u32>,
    /// Topological work queue over member indices.
    queue: Vec<u32>,
    /// Per-member assigned row (`u32::MAX` = unplaced).
    row_of: Vec<u32>,
    /// Per-row occupancy.
    row_load: Vec<u32>,
    /// DFS work stack of node slots.
    work: Vec<u32>,
}

impl LegalityScratch {
    /// Checks buffers out of the arena pool.
    #[must_use]
    pub fn new() -> Self {
        with_arena(|a| LegalityScratch {
            set: a.take_u64(),
            wa: a.take_u64(),
            wb: a.take_u64(),
            pos: a.take_u32(),
            indeg: a.take_u32(),
            queue: a.take_u32(),
            row_of: a.take_u32(),
            row_load: a.take_u32(),
            work: a.take_u32(),
        })
    }

    /// Rebuilds the member mask and position table for `group` over a
    /// graph of `n` slots.
    fn load_group(&mut self, group: &[OpId], n: usize) {
        let words = n.div_ceil(64);
        self.set.clear();
        self.set.resize(words, 0);
        self.pos.resize(n.max(self.pos.len()), 0);
        for (i, &g) in group.iter().enumerate() {
            self.set[g.index() / 64] |= 1u64 << (g.index() % 64);
            self.pos[g.index()] = i as u32;
        }
    }
}

impl Default for LegalityScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for LegalityScratch {
    fn drop(&mut self) {
        with_arena(|a| {
            a.give_u64(std::mem::take(&mut self.set));
            a.give_u64(std::mem::take(&mut self.wa));
            a.give_u64(std::mem::take(&mut self.wb));
            a.give_u32(std::mem::take(&mut self.pos));
            a.give_u32(std::mem::take(&mut self.indeg));
            a.give_u32(std::mem::take(&mut self.queue));
            a.give_u32(std::mem::take(&mut self.row_of));
            a.give_u32(std::mem::take(&mut self.row_load));
            a.give_u32(std::mem::take(&mut self.work));
        });
    }
}

/// The row each member of a legal group occupies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowAssignment {
    /// `(member, row)` pairs.
    pub rows: Vec<(OpId, usize)>,
}

/// External interface requirements of a candidate group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GroupIo {
    /// Distinct external value producers feeding the group.
    pub inputs: usize,
    /// Distinct members whose value leaves the group (external consumers,
    /// live-outs, or loop-carried feedback).
    pub outputs: usize,
}

/// Counts the external inputs and outputs a group would need.
#[must_use]
pub fn group_io(dfg: &Dfg, group: &[OpId]) -> GroupIo {
    group_io_in(dfg, group, &mut LegalityScratch::new())
}

/// [`group_io`] over the CSR adjacency and a caller-owned scratch.
#[must_use]
pub fn group_io_in(dfg: &Dfg, group: &[OpId], s: &mut LegalityScratch) -> GroupIo {
    let adj = dfg.adjacency();
    let edges = dfg.edges();
    let words = adj.len().div_ceil(64);
    s.load_group(group, adj.len());
    s.wa.clear();
    s.wa.resize(words, 0);
    s.wb.clear();
    s.wb.resize(words, 0);
    for &m in group {
        for &ei in adj.pred_edge_ids(m.index()) {
            let e = &edges[ei as usize];
            if !bit(&s.set, e.src.index()) || e.distance > 0 {
                set_bit(&mut s.wa, e.src.index());
            }
        }
        for &ei in adj.succ_edge_ids(m.index()) {
            let e = &edges[ei as usize];
            if !bit(&s.set, e.dst.index()) || e.distance > 0 {
                set_bit(&mut s.wb, m.index());
            }
        }
        if dfg.node(m).live_out {
            set_bit(&mut s.wb, m.index());
        }
    }
    GroupIo {
        inputs: count_ones(&s.wa),
        outputs: count_ones(&s.wb),
    }
}

/// Assigns each member to a CCA row, or `None` if the group is too deep or
/// too wide.
///
/// Members are processed in intra-group topological order; each lands on the
/// lowest row that is (a) below all its in-group producers and (b) capable
/// of its op kind (arithmetic ops need an arithmetic row), subject to
/// per-row capacity.
#[must_use]
pub fn assign_rows(dfg: &Dfg, spec: &CcaSpec, group: &[OpId]) -> Option<RowAssignment> {
    assign_rows_in(dfg, spec, group, &mut LegalityScratch::new())
}

/// [`assign_rows`] over the CSR adjacency with O(1) member lookup through
/// the scratch position table.
#[must_use]
pub fn assign_rows_in(
    dfg: &Dfg,
    spec: &CcaSpec,
    group: &[OpId],
    s: &mut LegalityScratch,
) -> Option<RowAssignment> {
    if !assign_rows_fill_in(dfg, spec, group, s) {
        return None;
    }
    Some(RowAssignment {
        rows: group
            .iter()
            .enumerate()
            .map(|(i, &m)| (m, s.row_of[i] as usize))
            .collect(),
    })
}

/// Core placement behind [`assign_rows_in`]: fills `s.row_of` and reports
/// feasibility without materializing a [`RowAssignment`] — the legality
/// predicates only ask whether the group fits.
#[must_use]
pub(crate) fn assign_rows_fill_in(
    dfg: &Dfg,
    spec: &CcaSpec,
    group: &[OpId],
    s: &mut LegalityScratch,
) -> bool {
    if group.len() > spec.max_ops() {
        return false;
    }
    let adj = dfg.adjacency();
    let edges = dfg.edges();
    let opcs = adj.opcodes();
    s.load_group(group, adj.len());

    // Topological order within the group over distance-0 edges; the queue
    // buffer doubles as the order (FIFO head never outruns the tail).
    s.indeg.clear();
    s.queue.clear();
    for &m in group {
        let d = adj
            .pred_edge_ids(m.index())
            .iter()
            .filter(|&&ei| {
                let e = &edges[ei as usize];
                e.distance == 0 && bit(&s.set, e.src.index())
            })
            .count();
        s.indeg.push(d as u32);
    }
    for i in 0..group.len() {
        if s.indeg[i] == 0 {
            s.queue.push(i as u32);
        }
    }
    let mut head = 0usize;
    while head < s.queue.len() {
        let i = s.queue[head] as usize;
        head += 1;
        for &ei in adj.succ_edge_ids(group[i].index()) {
            let e = &edges[ei as usize];
            if e.distance == 0 && bit(&s.set, e.dst.index()) {
                let j = s.pos[e.dst.index()] as usize;
                s.indeg[j] -= 1;
                if s.indeg[j] == 0 {
                    s.queue.push(j as u32);
                }
            }
        }
    }
    if s.queue.len() != group.len() {
        return false; // distance-0 cycle inside the group
    }

    const UNPLACED: u32 = u32::MAX;
    s.row_of.clear();
    s.row_of.resize(group.len(), UNPLACED);
    s.row_load.clear();
    s.row_load.resize(spec.depth(), 0);
    for qi in 0..s.queue.len() {
        let i = s.queue[qi] as usize;
        let m = group[i];
        let mut min_row = 0usize;
        for &ei in adj.pred_edge_ids(m.index()) {
            let e = &edges[ei as usize];
            if e.distance == 0 && bit(&s.set, e.src.index()) {
                let r = s.row_of[s.pos[e.src.index()] as usize] as usize + 1;
                min_row = min_row.max(r);
            }
        }
        let needs_arith = Opcode::decode(opcs[m.index()])
            .expect("member is an op")
            .cca_arithmetic();
        let mut placed = false;
        for r in min_row..spec.depth() {
            if needs_arith && !spec.row_supports_arith(r) {
                continue;
            }
            if s.row_load[r] as usize >= spec.row_caps[r] {
                continue;
            }
            s.row_of[i] = r as u32;
            s.row_load[r] += 1;
            placed = true;
            break;
        }
        if !placed {
            return false;
        }
    }
    true
}

/// Whether `group` is convex: no distance-0 path leaves the group and
/// re-enters it. A non-convex group cannot execute atomically because an
/// external op would need a group output before the group finishes.
///
/// Reads the cached distance-0 reachability closure: the group is
/// non-convex exactly when some *external* node both is reachable from a
/// member and reaches a member (split any witnessing path at the last
/// member before the external node and the first member after it — the
/// external segments are the escape and the re-entry).
#[must_use]
pub fn is_convex(cond: &Condensation, group: &[OpId]) -> bool {
    is_convex_in(cond, group, &mut LegalityScratch::new())
}

/// [`is_convex`] over a caller-owned scratch.
#[must_use]
pub fn is_convex_in(cond: &Condensation, group: &[OpId], s: &mut LegalityScratch) -> bool {
    let words = cond.reach0().words_per_row();
    if words == 0 {
        return true;
    }
    s.set.clear();
    s.set.resize(words, 0);
    for &g in group {
        set_bit(&mut s.set, g.index());
    }
    s.wa.clear();
    s.wa.resize(words, 0);
    for &m in group {
        for (o, &r) in s.wa.iter_mut().zip(cond.reach0_row(m)) {
            *o |= r;
        }
    }
    for (o, &m) in s.wa.iter_mut().zip(&s.set) {
        *o &= !m;
    }
    for w in 0..words {
        let mut word = s.wa[w];
        while word != 0 {
            let x = w * 64 + word.trailing_zeros() as usize;
            word &= word - 1;
            if cond.reach0().row_intersects(x, &s.set) {
                return false;
            }
        }
    }
    true
}

/// Whether collapsing `group` avoids lengthening any recurrence cycle.
///
/// A group's ops execute in [`CcaSpec::latency`] cycles total. If the group
/// contains exactly one op of some recurrence, that recurrence's path now
/// pays the full CCA latency instead of one cycle — the paper's op-7/op-10
/// rejection. Two or more *connected* ops of the same recurrence break
/// even or win.
///
/// `cond` must be the graph's cached condensation
/// ([`Dfg::condensation`]); only cyclic components matter.
#[must_use]
pub fn recurrences_ok(dfg: &Dfg, spec: &CcaSpec, group: &[OpId], cond: &Condensation) -> bool {
    recurrences_ok_in(dfg, spec, group, cond, &mut LegalityScratch::new())
}

/// [`recurrences_ok`] over a caller-owned scratch.
#[must_use]
pub fn recurrences_ok_in(
    dfg: &Dfg,
    spec: &CcaSpec,
    group: &[OpId],
    cond: &Condensation,
    s: &mut LegalityScratch,
) -> bool {
    let (comps, cyclic) = (cond.comps(), cond.cyclic_flags());
    let adj = dfg.adjacency();
    s.load_group(group, adj.len());
    for (ci, scc) in comps.iter().enumerate() {
        if !cyclic[ci] {
            continue;
        }
        // group ∩ scc, collected into the work buffer.
        s.work.clear();
        for &m in scc {
            if bit(&s.set, m.index()) {
                s.work.push(m.index() as u32);
            }
        }
        if s.work.is_empty() {
            continue;
        }
        if (s.work.len() as u32) < spec.latency {
            return false;
        }
        if !weakly_connected_in(dfg, s) {
            return false;
        }
    }
    true
}

/// Whether the node slots in `s.work` are weakly connected via distance-0
/// edges among themselves. Consumes `s.work` as the membership list and
/// DFS stack; uses `s.wa`/`s.wb` as the member and visited masks.
fn weakly_connected_in(dfg: &Dfg, s: &mut LegalityScratch) -> bool {
    let n_nodes = s.work.len();
    if n_nodes <= 1 {
        return true;
    }
    let adj = dfg.adjacency();
    let edges = dfg.edges();
    let words = adj.len().div_ceil(64);
    s.wa.clear();
    s.wa.resize(words, 0);
    for &v in &s.work {
        set_bit(&mut s.wa, v as usize);
    }
    s.wb.clear();
    s.wb.resize(words, 0);
    let start = s.work[0];
    s.work.clear();
    s.work.push(start);
    set_bit(&mut s.wb, start as usize);
    let mut reached = 1usize;
    while let Some(x) = s.work.pop() {
        for &ei in adj.succ_edge_ids(x as usize) {
            let e = &edges[ei as usize];
            let d = e.dst.index();
            if e.distance == 0 && bit(&s.wa, d) && !bit(&s.wb, d) {
                set_bit(&mut s.wb, d);
                reached += 1;
                s.work.push(d as u32);
            }
        }
        for &ei in adj.pred_edge_ids(x as usize) {
            let e = &edges[ei as usize];
            let src = e.src.index();
            if e.distance == 0 && bit(&s.wa, src) && !bit(&s.wb, src) {
                set_bit(&mut s.wb, src);
                reached += 1;
                s.work.push(src as u32);
            }
        }
    }
    reached == n_nodes
}

/// Full legality check for a candidate group: every member CCA-supported,
/// row-assignable, within the IO budget, convex, and recurrence-safe.
#[must_use]
pub fn is_legal_group(dfg: &Dfg, spec: &CcaSpec, group: &[OpId], cond: &Condensation) -> bool {
    is_legal_group_in(dfg, spec, group, cond, &mut LegalityScratch::new())
}

/// [`is_legal_group`] over a caller-owned scratch: the mapper's inner loop
/// runs this thousands of times per graph without allocating.
#[must_use]
pub fn is_legal_group_in(
    dfg: &Dfg,
    spec: &CcaSpec,
    group: &[OpId],
    cond: &Condensation,
    s: &mut LegalityScratch,
) -> bool {
    if group.is_empty() {
        return false;
    }
    let opcs = dfg.adjacency().opcodes();
    for &m in group {
        // `NO_OP` covers pseudo nodes and tombstones in one byte probe.
        let ok = Opcode::decode(opcs[m.index()]).is_some_and(|op| op.cca_supported());
        if !ok {
            return false;
        }
    }
    let io = group_io_in(dfg, group, s);
    if io.inputs > spec.inputs || io.outputs > spec.outputs {
        return false;
    }
    if !assign_rows_fill_in(dfg, spec, group, s) {
        return false;
    }
    if !is_convex_in(cond, group, s) {
        return false;
    }
    recurrences_ok_in(dfg, spec, group, cond, s)
}

/// Group legality against the graph a sequence of collapses *would*
/// produce, without performing them.
///
/// Both commit disciplines — the mapper's commit loop and hint
/// verification — ask each group's legality on the graph left by
/// collapsing every earlier accepted group. Collapsing for real rewrites
/// the edge array and forces a fresh CSR adjacency and SCC view per group.
/// The probe answers from the base graph's structures instead:
///
/// * a collapsed group is a class of base slots standing for its `Cca`
///   node, which [`Dfg::collapse`] gives every external edge of every
///   member (so IO counts and the convexity search map edge endpoints
///   through the class table);
/// * the SCC partition is a union–find over the base components.
///   Collapsing a group merges exactly the components lying on a path from
///   the group back to it (forward ∩ backward reach), and nothing else;
///   a component that gains the new node beside any other node is a
///   recurrence;
/// * row assignment and weak connectivity look only at edges between the
///   group's own (uncollapsed) members, which collapsing never changes —
///   provided the base edge array is canonical, because a collapse
///   re-sorts it. A base that is not canonical, or that carries edges to
///   dead slots, is collapsed for real once, at the first accepted group;
///   every later group is checked against that canonical graph.
///
/// Verdicts equal [`is_legal_group`] on the collapsed graph; the caller
/// applies the accepted groups once, with [`Dfg::collapse_all`].
#[derive(Debug)]
pub struct CollapseProbe<'a> {
    base: std::borrow::Cow<'a, Dfg>,
    /// Whether `base`'s edges are strictly canonical with live endpoints.
    canonical: bool,
    /// Groups collapsed on top of `base`; group `i` is node `base.len() + i`.
    groups: usize,
    /// Per base slot: the collapsed group owning it, or `NONE`.
    owner: Vec<u32>,
    /// Members of collapsed group `i`: `members[starts[i]..starts[i + 1]]`.
    members: Vec<u32>,
    starts: Vec<u32>,
    /// Base SCC component per slot (`NONE` for dead slots).
    comp_of: Vec<u32>,
    /// Union–find parent per base component.
    parent: Vec<u32>,
    /// Per component root: whether it is a recurrence (bitset).
    cyclic: Vec<u64>,
    /// Forward/backward reach of the group being collapsed.
    fwd: Vec<u64>,
    bwd: Vec<u64>,
    scratch: LegalityScratch,
}

const NONE: u32 = u32::MAX;

/// The collapsed-graph node standing for base slot `v`: the slot itself,
/// or the node of the group that owns it.
fn node_of(owner: &[u32], base_len: usize, v: usize) -> usize {
    match owner[v] {
        NONE => v,
        g => base_len + g as usize,
    }
}

impl<'a> CollapseProbe<'a> {
    /// A probe over `dfg` with nothing collapsed yet.
    #[must_use]
    pub fn new(dfg: &'a Dfg) -> Self {
        let key = |e: &veal_ir::DfgEdge| (e.src, e.dst, e.distance, e.kind as u8);
        let adj = dfg.adjacency();
        let edges = dfg.edges();
        let canonical = edges.windows(2).all(|w| key(&w[0]) < key(&w[1]))
            && (!adj.any_dead()
                || edges
                    .iter()
                    .all(|e| !adj.is_dead(e.src.index()) && !adj.is_dead(e.dst.index())));
        let mut probe = with_arena(|a| CollapseProbe {
            base: std::borrow::Cow::Borrowed(dfg),
            canonical,
            groups: 0,
            owner: a.take_u32(),
            members: a.take_u32(),
            starts: a.take_u32(),
            comp_of: a.take_u32(),
            parent: a.take_u32(),
            cyclic: a.take_u64(),
            fwd: a.take_u64(),
            bwd: a.take_u64(),
            scratch: LegalityScratch::new(),
        });
        probe.load_base();
        probe
    }

    /// Resets the class table and SCC state to `self.base` as it stands.
    fn load_base(&mut self) {
        let n = self.base.len();
        self.groups = 0;
        self.owner.clear();
        self.owner.resize(n, NONE);
        self.members.clear();
        self.starts.clear();
        self.starts.push(0);
        let scc = self.base.scc_view();
        self.comp_of.clear();
        self.comp_of.extend_from_slice(&scc.comp_of);
        self.parent.clear();
        self.parent.extend(0..scc.n_comps as u32);
        self.cyclic.clear();
        self.cyclic.extend_from_slice(&scc.cyclic);
    }

    /// Node slots in the collapsed graph (base slots plus one per group).
    #[must_use]
    pub fn len(&self) -> usize {
        self.base.len() + self.groups
    }

    /// Whether the collapsed graph has no node slots.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `id` is a live operation of the collapsed graph (the `Cca`
    /// nodes of collapsed groups are; their members are not).
    #[must_use]
    pub fn is_schedulable(&self, id: OpId) -> bool {
        let i = id.index();
        if i < self.base.len() {
            self.base.adjacency().is_schedulable(i) && self.owner[i] == NONE
        } else {
            i < self.len()
        }
    }

    fn find(&mut self, mut c: u32) -> u32 {
        while self.parent[c as usize] != c {
            let up = self.parent[self.parent[c as usize] as usize];
            self.parent[c as usize] = up;
            c = up;
        }
        c
    }

    /// [`is_legal_group`] against the collapsed graph.
    pub fn is_legal(&mut self, spec: &CcaSpec, group: &[OpId]) -> bool {
        if group.is_empty() {
            return false;
        }
        let opcs = self.base.adjacency().opcodes();
        for &m in group {
            // Collapsed members are dead and group nodes are `Cca`: neither
            // is CCA-supported.
            let i = m.index();
            let supported = i < self.base.len()
                && self.owner[i] == NONE
                && Opcode::decode(opcs[i]).is_some_and(|op| op.cca_supported());
            if !supported {
                return false;
            }
        }
        // Every member is now an uncollapsed base op.
        self.io_fits(spec, group)
            && assign_rows_fill_in(&self.base, spec, group, &mut self.scratch)
            && self.is_convex(group)
            && self.recurrences_ok(spec, group)
    }

    /// [`group_io_in`] on the collapsed graph, checked against `spec`.
    fn io_fits(&mut self, spec: &CcaSpec, group: &[OpId]) -> bool {
        let len = self.len();
        let words = len.div_ceil(64);
        let base: &Dfg = &self.base;
        let adj = base.adjacency();
        let edges = base.edges();
        let node = |v: usize| node_of(&self.owner, base.len(), v);
        let s = &mut self.scratch;
        s.load_group(group, len);
        s.wa.clear();
        s.wa.resize(words, 0);
        s.wb.clear();
        s.wb.resize(words, 0);
        for &m in group {
            for &ei in adj.pred_edge_ids(m.index()) {
                let e = &edges[ei as usize];
                let src = node(e.src.index());
                if !bit(&s.set, src) || e.distance > 0 {
                    set_bit(&mut s.wa, src);
                }
            }
            for &ei in adj.succ_edge_ids(m.index()) {
                let e = &edges[ei as usize];
                if !bit(&s.set, node(e.dst.index())) || e.distance > 0 {
                    set_bit(&mut s.wb, m.index());
                }
            }
            if base.node(m).live_out {
                set_bit(&mut s.wb, m.index());
            }
        }
        count_ones(&s.wa) <= spec.inputs && count_ones(&s.wb) <= spec.outputs
    }

    /// [`is_convex`] on the collapsed graph, by direct search instead of
    /// a reachability closure: BFS forward over distance-0 edges from the
    /// members' external successors, staying outside the group; the group
    /// is non-convex exactly when the search re-enters it. (Split any
    /// closure witness `u ∈ G ⇝ x ∉ G ⇝ v ∈ G` at the last member before
    /// `x` and the first member after it — the segments between are
    /// external-only, so this search finds them.) A collapsed node's
    /// successors are its members' successors.
    fn is_convex(&mut self, group: &[OpId]) -> bool {
        let len = self.len();
        let n = self.base.len();
        let base: &Dfg = &self.base;
        let adj = base.adjacency();
        let edges = base.edges();
        let node = |v: usize| node_of(&self.owner, n, v);
        let s = &mut self.scratch;
        s.load_group(group, len);
        s.wa.clear();
        s.wa.resize(len.div_ceil(64), 0);
        s.work.clear();
        for &m in group {
            for &ei in adj.succ_edge_ids(m.index()) {
                let e = &edges[ei as usize];
                if e.distance != 0 || adj.is_dead(e.dst.index()) {
                    continue;
                }
                let d = node(e.dst.index());
                if !bit(&s.set, d) && !bit(&s.wa, d) {
                    set_bit(&mut s.wa, d);
                    s.work.push(d as u32);
                }
            }
        }
        while let Some(x) = s.work.pop() {
            let one = [x];
            let x = x as usize;
            let from: &[u32] = if x < n {
                &one
            } else {
                let g = x - n;
                &self.members[self.starts[g] as usize..self.starts[g + 1] as usize]
            };
            for &y in from {
                for &ei in adj.succ_edge_ids(y as usize) {
                    let e = &edges[ei as usize];
                    if e.distance != 0 || adj.is_dead(e.dst.index()) {
                        continue;
                    }
                    let d = node(e.dst.index());
                    if bit(&s.set, d) {
                        return false; // escaped path re-enters the group
                    }
                    if !bit(&s.wa, d) {
                        set_bit(&mut s.wa, d);
                        s.work.push(d as u32);
                    }
                }
            }
        }
        true
    }

    /// [`recurrences_ok`] against the collapsed graph's SCC partition.
    /// Each recurrence meeting the group is checked once, at its first
    /// member: its members in the group (in group order) must number at
    /// least the CCA latency and be weakly connected.
    fn recurrences_ok(&mut self, spec: &CcaSpec, group: &[OpId]) -> bool {
        for (i, &m) in group.iter().enumerate() {
            let c = self.find(self.comp_of[m.index()]);
            if self.cyclic[c as usize / 64] >> (c % 64) & 1 == 0 {
                continue;
            }
            let mut seen = false;
            for &p in &group[..i] {
                seen |= self.find(self.comp_of[p.index()]) == c;
            }
            if seen {
                continue; // this recurrence already checked
            }
            self.scratch.work.clear();
            for &g in group {
                if self.find(self.comp_of[g.index()]) == c {
                    self.scratch.work.push(g.index() as u32);
                }
            }
            if (self.scratch.work.len() as u32) < spec.latency {
                return false;
            }
            // Edges among uncollapsed members are the base graph's.
            let base: &Dfg = &self.base;
            if !weakly_connected_in(base, &mut self.scratch) {
                return false;
            }
        }
        true
    }

    /// Records `group` (which must be legal) as collapsed.
    ///
    /// # Panics
    ///
    /// Panics if the group is empty or a member is out of range or
    /// already collapsed by an earlier group.
    pub fn collapse(&mut self, group: &[OpId]) {
        assert!(!group.is_empty(), "cannot collapse an empty member set");
        if self.groups == 0 && !self.canonical {
            let mut g = self.base.clone().into_owned();
            g.collapse(group);
            self.base = std::borrow::Cow::Owned(g);
            self.canonical = true;
            self.load_base();
            return;
        }
        let n = self.base.len();
        let g = self.groups as u32;
        for &m in group {
            let owner = &mut self.owner[m.index()];
            assert!(
                *owner == NONE || *owner == g,
                "member {m} already collapsed"
            );
            if *owner == NONE {
                *owner = g;
                self.members.push(m.index() as u32);
            }
        }
        self.starts.push(self.members.len() as u32);
        self.groups += 1;

        // Merge the components on a path from the group back to it.
        let first = self.find(self.comp_of[group[0].index()]);
        let mut spans = false;
        for &m in &group[1..] {
            spans |= self.find(self.comp_of[m.index()]) != first;
        }
        if !spans {
            return; // one component: the partition of other nodes stands
        }
        // A path from the group back to it re-enters through an edge whose
        // source the group reaches; without one, the group's components
        // held only its own members and nothing else merges.
        self.reach(group, true);
        let (base, fwd, owner): (&Dfg, _, _) = (&self.base, &self.fwd, &self.owner);
        let adj = base.adjacency();
        let reenters = group.iter().any(|m| {
            adj.pred_edge_ids(m.index()).iter().any(|&ei| {
                let v = base.edges()[ei as usize].src.index();
                !adj.is_dead(v) && bit(fwd, v) && owner[v] != g
            })
        });
        if !reenters {
            return;
        }
        self.reach(group, false);
        let words = n.div_ceil(64);
        let mut root = first;
        let mut other = false;
        for w in 0..words {
            let mut word = self.fwd[w] & self.bwd[w];
            while word != 0 {
                let v = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                other |= self.owner[v] != g;
                let c = self.find(self.comp_of[v]);
                if c != root {
                    self.parent[c as usize] = root;
                }
                root = self.find(root);
            }
        }
        let bits = &mut self.cyclic[root as usize / 64];
        if other {
            *bits |= 1 << (root % 64);
        } else {
            *bits &= !(1 << (root % 64));
        }
    }

    /// Base slots reachable from (`forward`) or reaching (`!forward`) the
    /// newest collapsed group over edges of any distance, into `fwd`/`bwd`.
    /// Reaching any member of a collapsed group reaches its node, hence
    /// all of its members.
    fn reach(&mut self, group: &[OpId], forward: bool) {
        let n = self.base.len();
        let base: &Dfg = &self.base;
        let adj = base.adjacency();
        let edges = base.edges();
        let mut seen = std::mem::take(if forward {
            &mut self.fwd
        } else {
            &mut self.bwd
        });
        seen.clear();
        seen.resize(n.div_ceil(64), 0);
        let work = &mut self.scratch.work;
        work.clear();
        for &m in group {
            set_bit(&mut seen, m.index());
            work.push(m.index() as u32);
        }
        while let Some(y) = work.pop() {
            let ids = if forward {
                adj.succ_edge_ids(y as usize)
            } else {
                adj.pred_edge_ids(y as usize)
            };
            for &ei in ids {
                let e = &edges[ei as usize];
                let v = if forward { e.dst } else { e.src }.index();
                if adj.is_dead(v) || bit(&seen, v) {
                    continue;
                }
                let owner = self.owner[v];
                if owner == NONE {
                    set_bit(&mut seen, v);
                    work.push(v as u32);
                } else {
                    let g = owner as usize;
                    for &u in &self.members[self.starts[g] as usize..self.starts[g + 1] as usize] {
                        set_bit(&mut seen, u as usize);
                        work.push(u);
                    }
                }
            }
        }
        *(if forward {
            &mut self.fwd
        } else {
            &mut self.bwd
        }) = seen;
    }
}

impl Drop for CollapseProbe<'_> {
    fn drop(&mut self) {
        with_arena(|a| {
            a.give_u32(std::mem::take(&mut self.owner));
            a.give_u32(std::mem::take(&mut self.members));
            a.give_u32(std::mem::take(&mut self.starts));
            a.give_u32(std::mem::take(&mut self.comp_of));
            a.give_u32(std::mem::take(&mut self.parent));
            a.give_u64(std::mem::take(&mut self.cyclic));
            a.give_u64(std::mem::take(&mut self.fwd));
            a.give_u64(std::mem::take(&mut self.bwd));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veal_ir::{DfgBuilder, Opcode};

    #[test]
    fn io_counts_distinct_producers() {
        let mut b = DfgBuilder::new();
        let x = b.live_in();
        let y = b.live_in();
        let a = b.op(Opcode::And, &[x, y]);
        let c = b.op(Opcode::Xor, &[a, x]); // x reused: still one producer
        b.mark_live_out(c);
        let dfg = b.finish();
        let io = group_io(&dfg, &[a, c]);
        assert_eq!(io.inputs, 2);
        assert_eq!(io.outputs, 1);
    }

    #[test]
    fn loop_carried_feedback_counts_as_io() {
        let mut b = DfgBuilder::new();
        let a = b.op(Opcode::Add, &[]);
        let c = b.op(Opcode::Sub, &[a]);
        b.loop_carried(c, a, 1);
        let dfg = b.finish();
        let io = group_io(&dfg, &[a, c]);
        // The distance-1 edge c->a needs a register round trip: one input
        // (from c's previous value) and one output (c's value).
        assert_eq!(io.inputs, 1);
        assert_eq!(io.outputs, 1);
    }

    #[test]
    fn row_assignment_respects_depth() {
        let spec = CcaSpec::paper();
        let mut b = DfgBuilder::new();
        let mut prev = b.op(Opcode::And, &[]);
        let mut group = vec![prev];
        for _ in 0..5 {
            prev = b.op(Opcode::Or, &[prev]);
            group.push(prev);
        }
        let dfg = b.finish();
        // A 6-deep logic chain cannot fit 4 rows.
        assert!(assign_rows(&dfg, &spec, &group).is_none());
        // But a 4-deep chain can.
        assert!(assign_rows(&dfg, &spec, &group[..4]).is_some());
    }

    #[test]
    fn arithmetic_lands_on_arith_rows() {
        let spec = CcaSpec::paper();
        let mut b = DfgBuilder::new();
        let a = b.op(Opcode::And, &[]);
        let s = b.op(Opcode::Add, &[a]); // arith, min row 1 -> bumped to 2
        let dfg = b.finish();
        let rows = assign_rows(&dfg, &spec, &[a, s]).expect("fits");
        let row_of = |id| {
            rows.rows
                .iter()
                .find(|(m, _)| *m == id)
                .map(|&(_, r)| r)
                .unwrap()
        };
        assert_eq!(row_of(a), 0);
        assert_eq!(row_of(s), 2);
    }

    #[test]
    fn arith_chain_deeper_than_arith_rows_fails() {
        let spec = CcaSpec::paper();
        let mut b = DfgBuilder::new();
        let a = b.op(Opcode::Add, &[]);
        let c = b.op(Opcode::Sub, &[a]);
        let d = b.op(Opcode::Add, &[c]); // needs a third arith row: none
        let dfg = b.finish();
        assert!(assign_rows(&dfg, &spec, &[a, c, d]).is_none());
    }

    #[test]
    fn non_convex_group_detected() {
        let mut b = DfgBuilder::new();
        let a = b.op(Opcode::And, &[]);
        let x = b.op(Opcode::Shl, &[a]); // external (unsupported)
        let c = b.op(Opcode::Xor, &[x]);
        let dfg = b.finish();
        // Path a -> x -> c leaves {a, c} through x and re-enters.
        let cond = dfg.condensation();
        assert!(!is_convex(&cond, &[a, c]));
        assert!(is_convex(&cond, &[a]));
    }

    #[test]
    fn singleton_on_recurrence_rejected() {
        // The paper's op-7/op-10 case: merging an op that sits alone on a
        // recurrence into a 2-cycle CCA lengthens the cycle.
        let mut b = DfgBuilder::new();
        let m = b.op(Opcode::Mul, &[]);
        let o = b.op(Opcode::Or, &[m]);
        b.loop_carried(o, m, 1);
        let acyclic = b.op(Opcode::Add, &[o]);
        let dfg = b.finish();
        let cond = dfg.condensation();
        assert!(!recurrences_ok(
            &dfg,
            &CcaSpec::paper(),
            &[o, acyclic],
            &cond
        ));
    }

    #[test]
    fn two_connected_recurrence_ops_accepted() {
        let mut b = DfgBuilder::new();
        let a = b.op(Opcode::And, &[]);
        let c = b.op(Opcode::Xor, &[a]);
        b.loop_carried(c, a, 1);
        let dfg = b.finish();
        let cond = dfg.condensation();
        assert!(recurrences_ok(&dfg, &CcaSpec::paper(), &[a, c], &cond));
    }

    #[test]
    fn legal_group_end_to_end() {
        let mut b = DfgBuilder::new();
        let x = b.live_in();
        let a = b.op(Opcode::And, &[x, x]);
        let s = b.op(Opcode::Sub, &[a, x]);
        let o = b.op(Opcode::Xor, &[s, a]);
        b.mark_live_out(o);
        let dfg = b.finish();
        let cond = dfg.condensation();
        assert!(is_legal_group(&dfg, &CcaSpec::paper(), &[a, s, o], &cond));
        // A group including the live-in pseudo node is not legal.
        assert!(!is_legal_group(&dfg, &CcaSpec::paper(), &[x, a], &cond));
    }

    #[test]
    fn too_many_inputs_rejected() {
        let mut b = DfgBuilder::new();
        let ins: Vec<_> = (0..5).map(|_| b.live_in()).collect();
        let a = b.op(Opcode::And, &[ins[0], ins[1]]);
        let c = b.op(Opcode::Or, &[ins[2], ins[3]]);
        let d = b.op(Opcode::Xor, &[a, c]);
        let e = b.op(Opcode::Add, &[d, ins[4]]);
        let dfg = b.finish();
        let cond = dfg.condensation();
        // 5 distinct external producers > 4 CCA inputs.
        assert!(!is_legal_group(
            &dfg,
            &CcaSpec::paper(),
            &[a, c, d, e],
            &cond
        ));
    }

    /// Verdicts, I/O counts and row assignments on a mixed bag of random
    /// groups, folded into a digest recorded when each of these kernels
    /// still had a pre-optimisation twin (and checked equal under both).
    /// The allocating entry points must agree with the scratch-threaded
    /// ones on every group.
    #[test]
    fn legality_verdicts_match_recorded_digest() {
        let mut rng = veal_ir::rng::Rng64::new(0xCCA);
        let mut h = veal_ir::rng::Fnv64::new();
        for _ in 0..60 {
            let mut b = DfgBuilder::new();
            let mut vals = vec![b.live_in()];
            let ops = [
                Opcode::And,
                Opcode::Or,
                Opcode::Xor,
                Opcode::Add,
                Opcode::Sub,
                Opcode::Shl,
                Opcode::Mul,
            ];
            for _ in 0..rng.gen_range(4, 14) {
                let op = ops[rng.gen_range(0, ops.len())];
                let a = vals[rng.gen_range(0, vals.len())];
                let c = vals[rng.gen_range(0, vals.len())];
                vals.push(b.op(op, &[a, c]));
            }
            if vals.len() > 2 && rng.gen_bool(0.5) {
                let src = vals[vals.len() - 1];
                let dst = vals[1];
                b.loop_carried(src, dst, 1);
            }
            let last = *vals.last().unwrap();
            b.mark_live_out(last);
            let dfg = b.finish();
            let cond = dfg.condensation();
            let spec = CcaSpec::paper();
            let mut s = LegalityScratch::new();
            for _ in 0..8 {
                let mut group: Vec<OpId> =
                    vals.iter().copied().filter(|_| rng.gen_bool(0.4)).collect();
                group.sort();
                group.dedup();
                let legal = is_legal_group(&dfg, &spec, &group, &cond);
                assert_eq!(
                    is_legal_group_in(&dfg, &spec, &group, &cond, &mut s),
                    legal,
                    "verdict mismatch on group {group:?}"
                );
                let io = group_io(&dfg, &group);
                assert_eq!(group_io_in(&dfg, &group, &mut s), io);
                h.write_u8(u8::from(legal));
                h.write_u64(io.inputs as u64);
                h.write_u64(io.outputs as u64);
                h.write_u8(u8::from(is_convex(&cond, &group)));
                h.write_u8(u8::from(recurrences_ok(&dfg, &spec, &group, &cond)));
                // `assign_rows` is only defined over op members (it
                // unwraps the opcode).
                if group.iter().all(|&m| dfg.node(m).opcode().is_some()) {
                    let rows = assign_rows(&dfg, &spec, &group);
                    assert_eq!(assign_rows_in(&dfg, &spec, &group, &mut s), rows);
                    h.write_str(&format!("{rows:?}"));
                }
            }
        }
        let (got, want) = (h.finish(), 0xab0d_0937_e974_cf81);
        assert_eq!(
            got, want,
            "legality digest {got:#018x}, recorded {want:#018x}"
        );
    }
}
