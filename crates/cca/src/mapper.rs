//! The greedy seed-and-grow CCA subgraph mapper (paper §4.1).
//!
//! The walk allocates nothing in steady state: the taken set is a `u64`
//! bitset from the arena pool, the current group stays sorted so
//! membership is a binary search, growth trials reuse one buffer, and one
//! [`LegalityScratch`] is threaded through every legality query.

use crate::legality::{is_legal_group_in, CollapseProbe, LegalityScratch};
use crate::spec::CcaSpec;
use veal_ir::{with_arena, CostMeter, Dfg, OpId, Opcode, Phase};

/// One committed CCA subgraph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CcaGroup {
    /// The new CCA pseudo-node in the rewritten graph (only set by
    /// [`map_cca`]; [`identify_groups`] leaves the graph untouched).
    pub node: Option<OpId>,
    /// The original member ops, sorted by id.
    pub members: Vec<OpId>,
}

/// Identifies CCA subgraphs without mutating the graph.
///
/// This is the *static* half of "Static CCA Identification" (paper §4.2):
/// the compiler runs this offline and encodes each group via procedural
/// abstraction; the VM either maps a group onto its CCA or executes the
/// member ops individually.
///
/// The algorithm follows §4.1: seeds are examined in numerical order; each
/// seed is grown recursively along its dataflow edges, admitting the
/// lowest-numbered legal candidate each step; each operation is selected as
/// a seed at most once. Groups that end up smaller than two ops are
/// discarded (a single-op "group" gains nothing).
#[must_use]
pub fn identify_groups(dfg: &Dfg, spec: &CcaSpec, meter: &mut CostMeter) -> Vec<CcaGroup> {
    let cond = dfg.condensation();
    meter.charge(Phase::CcaMapping, (dfg.len() as u64) * 10);
    let adj = dfg.adjacency();
    let opcs = adj.opcodes();
    let edges = dfg.edges();
    let words = dfg.len().div_ceil(64);
    let mut s = LegalityScratch::new();
    let mut taken = with_arena(veal_ir::DfgArena::take_u64);
    taken.resize(words, 0);

    let mut groups = Vec::new();
    let mut candidates: Vec<OpId> = Vec::new();
    let mut trial: Vec<OpId> = Vec::new();

    // `opcs` is NO_OP for pseudo and dead slots, so the supported slots in
    // ascending id order are the seeds, in numerical order.
    for i in 0..opcs.len() {
        let supported = Opcode::decode(opcs[i]).is_some_and(|op| op.cca_supported());
        if !supported {
            continue;
        }
        if taken[i / 64] >> (i % 64) & 1 != 0 {
            continue;
        }
        let seed = OpId::new(i);
        meter.charge(Phase::CcaMapping, 4);
        let mut group = vec![seed];
        if !is_legal_group_in(dfg, spec, &group, &cond, &mut s) {
            // A seed alone can be illegal only through the recurrence rule;
            // try pairing it with a same-recurrence neighbour below anyway.
            meter.charge(Phase::CcaMapping, group.len() as u64);
        }
        // Grow until no candidate can be admitted.
        loop {
            candidates.clear();
            for &m in &group {
                let pred = adj.pred_edge_ids(m.index());
                let succ = adj.succ_edge_ids(m.index());
                for &ei in pred.iter().chain(succ) {
                    let e = &edges[ei as usize];
                    let n = if e.src == m { e.dst } else { e.src };
                    meter.charge(Phase::CcaMapping, 2);
                    let ni = n.index();
                    if taken[ni / 64] >> (ni % 64) & 1 != 0
                        || group.binary_search(&n).is_ok()
                        || !Opcode::decode(opcs[ni]).is_some_and(|op| op.cca_supported())
                    {
                        continue;
                    }
                    if !candidates.contains(&n) {
                        candidates.push(n);
                    }
                }
            }
            candidates.sort();
            let mut grew = false;
            for &c in &candidates {
                trial.clear();
                trial.extend_from_slice(&group);
                let at = trial.binary_search(&c).unwrap_err();
                trial.insert(at, c);
                meter.charge(Phase::CcaMapping, 100 + (trial.len() as u64) * 80);
                if is_legal_group_in(dfg, spec, &trial, &cond, &mut s)
                    || provisional_ok(dfg, spec, &trial, &cond, &mut s)
                {
                    std::mem::swap(&mut group, &mut trial);
                    grew = true;
                    break;
                }
            }
            if !grew {
                break;
            }
        }
        if group.len() >= 2 && is_legal_group_in(dfg, spec, &group, &cond, &mut s) {
            for &m in &group {
                taken[m.index() / 64] |= 1u64 << (m.index() % 64);
            }
            groups.push(CcaGroup {
                node: None,
                members: group,
            });
        }
    }
    with_arena(|a| a.give_u64(taken));
    groups
}

/// During growth a group may transiently violate only the recurrence rule
/// (e.g. the seed itself lies on a recurrence and its partner has not been
/// admitted yet). Such a group may keep growing; commit re-checks strictly.
fn provisional_ok(
    dfg: &Dfg,
    spec: &CcaSpec,
    group: &[OpId],
    cond: &veal_ir::Condensation,
    s: &mut LegalityScratch,
) -> bool {
    use crate::legality::{assign_rows_fill_in, group_io_in, is_convex_in};
    let io = group_io_in(dfg, group, s);
    if io.inputs > spec.inputs || io.outputs > spec.outputs {
        return false;
    }
    if !assign_rows_fill_in(dfg, spec, group, s) || !is_convex_in(cond, group, s) {
        return false;
    }
    let opcs = dfg.adjacency().opcodes();
    // `group` is sorted, so membership is a binary search.
    for (ci, scc) in cond.comps().iter().enumerate() {
        if !cond.is_cyclic(ci) {
            continue;
        }
        let inside = scc
            .iter()
            .filter(|m| group.binary_search(m).is_ok())
            .count();
        if inside == 0 || inside as u32 >= spec.latency {
            continue;
        }
        let completable = scc.iter().any(|&m| {
            group.binary_search(&m).is_err()
                && Opcode::decode(opcs[m.index()]).is_some_and(|op| op.cca_supported())
        });
        if !completable {
            return false;
        }
    }
    true
}

/// Identifies CCA subgraphs and collapses each into a [`veal_ir::Opcode::Cca`]
/// pseudo-node, returning the committed groups with their new node ids.
///
/// # Example
///
/// See the crate-level example.
pub fn map_cca(dfg: &mut Dfg, spec: &CcaSpec, meter: &mut CostMeter) -> Vec<CcaGroup> {
    let groups = identify_groups(dfg, spec, meter);
    // Groups were identified against the original graph; two groups that
    // feed each other would deadlock as atomic units, so re-validate each
    // against the evolving graph (earlier collapses are single nodes now)
    // and skip any that became illegal. Each question goes to a
    // `CollapseProbe`, and the survivors are applied in one pass.
    let mut committed = Vec::new();
    let mut probe = CollapseProbe::new(dfg);
    for g in groups {
        meter.charge(Phase::CcaMapping, 20 + (g.members.len() as u64) * 12);
        if probe.is_legal(spec, &g.members) {
            probe.collapse(&g.members);
            committed.push(g);
        }
    }
    drop(probe);
    let nodes = dfg.collapse_all(committed.iter().map(|g| g.members.as_slice()));
    for (g, node) in committed.iter_mut().zip(nodes) {
        g.node = Some(node);
    }
    committed
}

#[cfg(test)]
mod tests {
    use super::*;
    use veal_ir::{verify_dfg, DfgBuilder, Opcode};

    #[test]
    fn maps_simple_logic_chain() {
        let mut b = DfgBuilder::new();
        let x = b.load_stream(0);
        let a = b.op(Opcode::And, &[x, x]);
        let s = b.op(Opcode::Sub, &[a, x]);
        let o = b.op(Opcode::Xor, &[s, a]);
        b.store_stream(1, o);
        let mut dfg = b.finish();
        let mut m = CostMeter::new();
        let groups = map_cca(&mut dfg, &CcaSpec::paper(), &mut m);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].members, vec![a, s, o]);
        assert!(groups[0].node.is_some());
        assert!(verify_dfg(&dfg).is_ok());
        assert!(m.breakdown().get(Phase::CcaMapping) > 0);
    }

    #[test]
    fn no_cca_ops_no_groups() {
        let mut b = DfgBuilder::new();
        let x = b.load_stream(0);
        let y = b.op(Opcode::Mul, &[x, x]);
        let z = b.op(Opcode::Shl, &[y]);
        b.store_stream(1, z);
        let mut dfg = b.finish();
        let mut m = CostMeter::new();
        assert!(map_cca(&mut dfg, &CcaSpec::paper(), &mut m).is_empty());
    }

    #[test]
    fn singleton_groups_not_committed() {
        // One supported op surrounded by unsupported ops.
        let mut b = DfgBuilder::new();
        let x = b.load_stream(0);
        let m1 = b.op(Opcode::Mul, &[x, x]);
        let a = b.op(Opcode::Add, &[m1, x]);
        let m2 = b.op(Opcode::Shl, &[a]);
        b.store_stream(1, m2);
        let mut dfg = b.finish();
        let mut m = CostMeter::new();
        assert!(map_cca(&mut dfg, &CcaSpec::paper(), &mut m).is_empty());
        // The graph is untouched.
        assert!(!dfg.node(a).is_dead());
    }

    #[test]
    fn recurrence_singleton_partner_rejected() {
        // Paper example: op 7 (on a mul recurrence) must not merge with the
        // acyclic op 10, because that lengthens the 4-7 recurrence.
        let mut b = DfgBuilder::new();
        let mpy = b.op(Opcode::Mul, &[]);
        let or = b.op(Opcode::Or, &[mpy]);
        b.loop_carried(or, mpy, 1);
        let shr = b.op(Opcode::Shr, &[]);
        let add = b.op(Opcode::Add, &[or, shr]);
        b.mark_live_out(add);
        let mut dfg = b.finish();
        let mut m = CostMeter::new();
        let groups = map_cca(&mut dfg, &CcaSpec::paper(), &mut m);
        assert!(
            groups.iter().all(|g| !g.members.contains(&or)),
            "op on mul-recurrence must stay out of CCA groups"
        );
    }

    #[test]
    fn growth_respects_input_budget() {
        // A wide fan-in tree: only 4 external inputs allowed.
        let mut b = DfgBuilder::new();
        let ins: Vec<_> = (0..8).map(|_| b.live_in()).collect();
        let l1: Vec<_> = ins
            .chunks(2)
            .map(|p| b.op(Opcode::Add, &[p[0], p[1]]))
            .collect();
        let l2a = b.op(Opcode::Or, &[l1[0], l1[1]]);
        let l2b = b.op(Opcode::Or, &[l1[2], l1[3]]);
        let top = b.op(Opcode::Xor, &[l2a, l2b]);
        b.mark_live_out(top);
        let mut dfg = b.finish();
        let mut m = CostMeter::new();
        let groups = map_cca(&mut dfg, &CcaSpec::paper(), &mut m);
        assert!(groups.iter().all(|g| g.members.len() >= 2));
        // No group may exceed 4 inputs / 2 outputs; the mapper enforced it,
        // the schedule-level invariant is that the rewritten graph is sane.
        assert!(verify_dfg(&dfg).is_ok());
    }

    #[test]
    fn identify_does_not_mutate() {
        let mut b = DfgBuilder::new();
        let x = b.load_stream(0);
        let a = b.op(Opcode::And, &[x, x]);
        let o = b.op(Opcode::Xor, &[a, x]);
        b.store_stream(1, o);
        let dfg = b.finish();
        let before = dfg.clone();
        let mut m = CostMeter::new();
        let groups = identify_groups(&dfg, &CcaSpec::paper(), &mut m);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].node, None);
        assert_eq!(dfg, before);
    }

    #[test]
    fn narrow_cca_accepts_fewer_ops() {
        let mut b = DfgBuilder::new();
        let x = b.live_in();
        let mut cur = x;
        let mut chain = Vec::new();
        for i in 0..4 {
            let op = if i % 2 == 0 { Opcode::And } else { Opcode::Or };
            cur = b.op(op, &[cur]);
            chain.push(cur);
        }
        b.mark_live_out(cur);
        let dfg = b.finish();
        let mut m = CostMeter::new();
        let wide = identify_groups(&dfg, &CcaSpec::paper(), &mut m);
        let narrow = identify_groups(&dfg, &CcaSpec::narrow(), &mut m);
        assert_eq!(wide[0].members.len(), 4);
        assert!(narrow.is_empty() || narrow[0].members.len() <= 2);
    }

    /// Groups, committed graph *and* meter charges over a random corpus,
    /// folded into a digest recorded when the mapper still had a
    /// pre-optimisation twin (and checked equal under both).
    #[test]
    fn mapper_groups_and_charges_match_recorded_digest() {
        let mut rng = veal_ir::rng::Rng64::new(0x5EED);
        let mut h = veal_ir::rng::Fnv64::new();
        let fold = |h: &mut veal_ir::rng::Fnv64, groups: &[CcaGroup], m: &CostMeter| {
            for g in groups {
                h.write_u64(g.node.map_or(u64::MAX, |n| n.index() as u64));
                h.write_u64(g.members.len() as u64);
                for v in &g.members {
                    h.write_u64(v.index() as u64);
                }
            }
            for &p in veal_ir::meter::ALL_PHASES {
                h.write_u64(m.breakdown().get(p));
            }
        };
        let ops = [
            Opcode::And,
            Opcode::Or,
            Opcode::Xor,
            Opcode::Add,
            Opcode::Sub,
            Opcode::Shl,
            Opcode::Mul,
        ];
        for _ in 0..40 {
            let mut b = DfgBuilder::new();
            let mut vals = vec![b.live_in()];
            for _ in 0..rng.gen_range(4, 20) {
                let op = ops[rng.gen_range(0, ops.len())];
                let a = vals[rng.gen_range(0, vals.len())];
                let c = vals[rng.gen_range(0, vals.len())];
                vals.push(b.op(op, &[a, c]));
            }
            if rng.gen_bool(0.5) {
                let src = *vals.last().unwrap();
                let dst = vals[1];
                b.loop_carried(src, dst, 1);
            }
            let last = *vals.last().unwrap();
            b.mark_live_out(last);
            let dfg = b.finish();
            let spec = CcaSpec::paper();

            let mut m = CostMeter::new();
            let groups = identify_groups(&dfg, &spec, &mut m);
            fold(&mut h, &groups, &m);
            let mut m = CostMeter::new();
            let mut mapped = dfg.clone();
            let groups = map_cca(&mut mapped, &spec, &mut m);
            fold(&mut h, &groups, &m);
            h.write_u64(mapped.content_hash());
        }
        let (got, want) = (h.finish(), 0x0296_33ea_a444_e796);
        assert_eq!(
            got, want,
            "mapper digest {got:#018x}, recorded {want:#018x}"
        );
    }
}
