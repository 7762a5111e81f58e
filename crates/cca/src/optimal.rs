//! An exhaustive CCA mapper for small graphs.
//!
//! The paper notes that optimal CCA utilization is NP-complete \[13\] and
//! therefore uses a greedy heuristic. This module provides the reference
//! point: on graphs with few CCA-supported ops it enumerates every legal
//! partition into groups and maximizes the number of *covered* ops — the
//! quantity the greedy mapper approximates. The ablation bench
//! (`veal-bench --bin ablation`) and the property tests use it to bound
//! the greedy mapper's loss.

use crate::legality::{is_legal_group_in, LegalityScratch};
use crate::mapper::CcaGroup;
use crate::spec::CcaSpec;
use veal_ir::{CostMeter, Dfg, OpId, Phase};

/// Upper bound on CCA-supported candidate ops before [`optimal_groups`]
/// refuses to run (the search is exponential).
pub const MAX_CANDIDATES: usize = 14;

/// Exhaustively finds the grouping that covers the most ops with legal CCA
/// groups (ties broken toward fewer groups). Returns `None` when the graph
/// has more than [`MAX_CANDIDATES`] candidate ops.
///
/// Groups are returned like [`crate::identify_groups`]'s: member lists
/// over the unmodified graph.
///
/// Greedy bound (pinned by the `greedy_bound` corpus test): the greedy
/// mapper never covers more ops than this optimum, attains at least two
/// thirds of it in aggregate over a random corpus (~71% measured), but
/// admits no per-graph multiplicative bound — seed-and-grow walks dataflow
/// edges, so it can come up empty on graphs whose only legal groupings
/// combine disconnected ops.
#[must_use]
pub fn optimal_groups(dfg: &Dfg, spec: &CcaSpec, meter: &mut CostMeter) -> Option<Vec<CcaGroup>> {
    let candidates: Vec<OpId> = dfg
        .schedulable_ops()
        .filter(|&id| dfg.node(id).opcode().is_some_and(|op| op.cca_supported()))
        .collect();
    if candidates.len() > MAX_CANDIDATES {
        return None;
    }
    let cond = dfg.condensation();

    // Enumerate all legal groups (subsets of candidates, size >= 2).
    let n = candidates.len();
    let mut legal: Vec<(u32, Vec<OpId>)> = Vec::new();
    // One member buffer reused across all 2^n masks: the common case
    // (illegal subset) allocates nothing, and the charge (four units per
    // member) is read off the mask's popcount before any materialization
    // happens.
    let mut members: Vec<OpId> = Vec::with_capacity(n);
    // Word-parallel recurrence prefilter: project each cyclic SCC onto
    // candidate-index bit positions. `recurrences_ok` rejects any group
    // holding more than zero but fewer than `latency` ops of a cyclic
    // SCC, so a subset mask failing that popcount test is illegal no
    // matter what the other checks say — skip it with two ALU ops
    // instead of a full legality run. (The converse is not prunable:
    // convexity is not monotone, so only this rule is applied.)
    let mut scc_masks: Vec<u32> = Vec::new();
    for (ci, scc) in cond.comps().iter().enumerate() {
        if !cond.is_cyclic(ci) {
            continue;
        }
        let mut m = 0u32;
        for (i, c) in candidates.iter().enumerate() {
            if scc.binary_search(c).is_ok() {
                m |= 1 << i;
            }
        }
        if m != 0 {
            scc_masks.push(m);
        }
    }
    let mut s = LegalityScratch::new();
    for mask in 1u32..(1 << n) {
        if mask.count_ones() < 2 {
            continue;
        }
        meter.charge(Phase::CcaMapping, u64::from(mask.count_ones()) * 4);
        let doomed = scc_masks.iter().any(|&sm| {
            let inside = (mask & sm).count_ones();
            inside > 0 && inside < spec.latency
        });
        if doomed {
            continue;
        }
        members.clear();
        members.extend(
            (0..n)
                .filter(|&i| mask & (1 << i) != 0)
                .map(|i| candidates[i]),
        );
        if is_legal_group_in(dfg, spec, &members, &cond, &mut s) {
            legal.push((mask, members.clone()));
        }
    }

    // Branch-and-bound over disjoint unions of legal groups, maximizing
    // covered ops.
    fn search(
        legal: &[(u32, Vec<OpId>)],
        start: usize,
        used: u32,
        covered: u32,
        best: &mut (u32, Vec<usize>),
        chosen: &mut Vec<usize>,
    ) {
        if covered.count_ones() > best.0.count_ones()
            || (covered.count_ones() == best.0.count_ones() && chosen.len() < best.1.len())
        {
            *best = (covered, chosen.clone());
        }
        for (i, (mask, _)) in legal.iter().enumerate().skip(start) {
            if mask & used != 0 {
                continue;
            }
            chosen.push(i);
            search(legal, i + 1, used | mask, covered | mask, best, chosen);
            chosen.pop();
        }
    }
    let mut best = (0u32, Vec::new());
    let mut chosen = Vec::new();
    search(&legal, 0, 0, 0, &mut best, &mut chosen);

    Some(
        best.1
            .into_iter()
            .map(|i| CcaGroup {
                node: None,
                members: legal[i].1.clone(),
            })
            .collect(),
    )
}

/// Ops covered by a set of groups.
#[must_use]
pub fn coverage(groups: &[CcaGroup]) -> usize {
    groups.iter().map(|g| g.members.len()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identify_groups;
    use veal_ir::{DfgBuilder, Opcode};

    #[test]
    fn optimal_matches_greedy_on_simple_chain() {
        let mut b = DfgBuilder::new();
        let x = b.live_in();
        let a = b.op(Opcode::And, &[x, x]);
        let s = b.op(Opcode::Sub, &[a, x]);
        let o = b.op(Opcode::Xor, &[s, a]);
        b.mark_live_out(o);
        let dfg = b.finish();
        let spec = CcaSpec::paper();
        let greedy = identify_groups(&dfg, &spec, &mut CostMeter::new());
        let optimal = optimal_groups(&dfg, &spec, &mut CostMeter::new()).unwrap();
        assert_eq!(coverage(&greedy), coverage(&optimal));
    }

    #[test]
    fn optimal_never_below_greedy() {
        // Random-ish small graphs: the exhaustive answer is a true upper
        // bound for the greedy one.
        for seed in 0..12u64 {
            let mut b = DfgBuilder::new();
            let mut vals = vec![b.live_in()];
            for i in 0..8 {
                let ops = [
                    Opcode::And,
                    Opcode::Or,
                    Opcode::Xor,
                    Opcode::Add,
                    Opcode::Shl,
                ];
                let op = ops[((seed + i) % 5) as usize];
                let a = vals[(seed as usize + i as usize) % vals.len()];
                let c = vals[(seed as usize * 3 + i as usize) % vals.len()];
                vals.push(b.op(op, &[a, c]));
            }
            let last = *vals.last().unwrap();
            b.mark_live_out(last);
            let dfg = b.finish();
            let spec = CcaSpec::paper();
            let greedy = identify_groups(&dfg, &spec, &mut CostMeter::new());
            let optimal = optimal_groups(&dfg, &spec, &mut CostMeter::new()).unwrap();
            assert!(
                coverage(&optimal) >= coverage(&greedy),
                "seed {seed}: optimal {} < greedy {}",
                coverage(&optimal),
                coverage(&greedy)
            );
        }
    }

    #[test]
    fn refuses_large_graphs() {
        let mut b = DfgBuilder::new();
        let mut prev = b.op(Opcode::And, &[]);
        for _ in 0..20 {
            prev = b.op(Opcode::Or, &[prev]);
        }
        let dfg = b.finish();
        assert!(optimal_groups(&dfg, &CcaSpec::paper(), &mut CostMeter::new()).is_none());
    }

    /// The recurrence prefilter keeps the optimum and the charges of the
    /// unfiltered enumeration: both are folded into a digest recorded when
    /// that enumeration was still in the tree (and checked equal under
    /// both).
    #[test]
    fn prefilter_preserves_optimum_and_charges() {
        let mut rng = veal_ir::rng::Rng64::new(0x0917);
        let mut h = veal_ir::rng::Fnv64::new();
        let ops = [
            Opcode::And,
            Opcode::Or,
            Opcode::Xor,
            Opcode::Add,
            Opcode::Shl,
        ];
        for _ in 0..12 {
            let mut b = DfgBuilder::new();
            let mut vals = vec![b.live_in()];
            for _ in 0..rng.gen_range(4, 10) {
                let op = ops[rng.gen_range(0, ops.len())];
                let a = vals[rng.gen_range(0, vals.len())];
                let c = vals[rng.gen_range(0, vals.len())];
                vals.push(b.op(op, &[a, c]));
            }
            if rng.gen_bool(0.6) {
                let src = *vals.last().unwrap();
                let dst = vals[1];
                b.loop_carried(src, dst, 1);
            }
            let last = *vals.last().unwrap();
            b.mark_live_out(last);
            let dfg = b.finish();

            let mut m = CostMeter::new();
            let groups = optimal_groups(&dfg, &CcaSpec::paper(), &mut m).unwrap();
            for g in &groups {
                h.write_u64(g.members.len() as u64);
                for v in &g.members {
                    h.write_u64(v.index() as u64);
                }
            }
            for &p in veal_ir::meter::ALL_PHASES {
                h.write_u64(m.breakdown().get(p));
            }
        }
        let (got, want) = (h.finish(), 0x0a8a_28a2_30ad_cffa);
        assert_eq!(
            got, want,
            "optimum digest {got:#018x}, recorded {want:#018x}"
        );
    }

    #[test]
    fn optimal_groups_are_disjoint_and_legal() {
        let mut b = DfgBuilder::new();
        let x = b.live_in();
        let a = b.op(Opcode::And, &[x, x]);
        let c = b.op(Opcode::Or, &[a, x]);
        let d = b.op(Opcode::Shl, &[c]); // splits the region
        let e = b.op(Opcode::Xor, &[d, a]);
        let f = b.op(Opcode::Add, &[e, d]);
        b.mark_live_out(f);
        let dfg = b.finish();
        let spec = CcaSpec::paper();
        let groups = optimal_groups(&dfg, &spec, &mut CostMeter::new()).unwrap();
        let cond = dfg.condensation();
        let mut seen = std::collections::HashSet::new();
        for g in &groups {
            assert!(crate::is_legal_group(&dfg, &spec, &g.members, &cond));
            for &m in &g.members {
                assert!(seen.insert(m), "{m} in two groups");
            }
        }
    }
}
