//! SoA-vs-reference equivalence corpus for the data-oriented DFG layout.
//!
//! The arena-backed CSR [`Dfg`] must be observationally identical to the
//! straightforward push-built [`RefDfg`] — not just "same answers" but the
//! same *iteration order* everywhere, because downstream kernels (swing
//! priority, the greedy CCA mapper) are order-sensitive.
//!
//! Each seed draws one random well-formed loop body from the in-repo
//! deterministic [`Rng64`]; failures reproduce by seed with no external
//! test framework. The corpus checks, per graph:
//!
//! - successor/predecessor edge iteration order (exact edge sequences),
//! - SCC partition against the reference, and the [`Condensation`]
//!   against a recorded digest,
//! - the memoized [`Dfg::scc_view`] membership against `sccs()`,
//! - verifier verdicts against the reference verifier,
//! - stream separation outputs *and* per-phase meter charges against a
//!   recorded digest.
//!
//! The digests were recorded when the analysis kernels still had a second,
//! pre-optimisation implementation each, and checked equal under both.
//! [`Dfg::content_hash`] values are pinned here too, over this corpus and
//! every raw and legalized suite loop, because memo keys and warm-state
//! snapshots are keyed by them.

mod refgraph;

use refgraph::RefDfg;
use veal_ir::dfg::NodeKind;
use veal_ir::meter::ALL_PHASES;
use veal_ir::rng::{Fnv64, Rng64};
use veal_ir::streams::separate;
use veal_ir::{verify_dfg, Condensation, CostMeter, Dfg, EdgeKind, OpId, Opcode};

/// Ops safe for random placement (value-producing, non-control).
const SAFE_OPS: &[Opcode] = &[
    Opcode::Add,
    Opcode::Sub,
    Opcode::And,
    Opcode::Or,
    Opcode::Xor,
    Opcode::Min,
    Opcode::Max,
    Opcode::Shl,
    Opcode::Shr,
    Opcode::Mul,
    Opcode::FAdd,
    Opcode::FMul,
];

/// Draws one random loop DFG. Distance-0 edges always run forward so the
/// iteration body stays acyclic; loop-carried edges go anywhere, which is
/// what makes the SCC checks interesting.
fn arb_dfg(rng: &mut Rng64) -> Dfg {
    let n = rng.gen_range(2, 40);
    let n_loads = rng.gen_range(1, 5);
    let mut dfg = Dfg::new();
    let mut loads = Vec::new();
    for i in 0..n_loads {
        let id = dfg.add_node(NodeKind::Op(Opcode::Load));
        dfg.node_mut(id).stream = Some(i as u16);
        loads.push(id);
    }
    let nodes: Vec<OpId> = (0..n)
        .map(|_| dfg.add_node(NodeKind::Op(SAFE_OPS[rng.gen_range(0, SAFE_OPS.len())])))
        .collect();
    for (i, &v) in nodes.iter().enumerate() {
        dfg.add_edge(loads[i % loads.len()], v, 0, EdgeKind::Data);
    }
    for _ in 0..rng.gen_range(0, n * 2) {
        let a = rng.gen_range(0, n);
        let b = rng.gen_range(0, n);
        let d = rng.gen_range(0, 3) as u32;
        if d == 0 {
            if a < b {
                dfg.add_edge(nodes[a], nodes[b], 0, EdgeKind::Data);
            }
        } else {
            dfg.add_edge(nodes[a], nodes[b], d, EdgeKind::Data);
        }
    }
    for _ in 0..rng.gen_range(1, 4) {
        let v = nodes[rng.gen_range(0, n)];
        dfg.node_mut(v).live_out = true;
    }
    // Occasionally tombstone a node so the dead-slot paths (compaction in
    // the CSR build, `u32::MAX` components) get exercised too.
    if rng.gen_bool(0.3) {
        let v = nodes[rng.gen_range(0, n)];
        if !dfg.node(v).live_out {
            dfg.remove_nodes(&[v]);
        }
    }
    dfg
}

const CASES: u64 = 256;

fn for_each_graph(mut check: impl FnMut(u64, &Dfg)) {
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed.wrapping_mul(0x9E37_79B9) ^ 0xD1B5_4A32);
        let dfg = arb_dfg(&mut rng);
        check(seed, &dfg);
    }
}

/// Fails with the digest it got, so an intended change can re-record it.
fn assert_digest(what: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{what}: digest {got:#018x}, recorded {want:#018x}"
    );
}

#[test]
fn succ_and_pred_iteration_order_matches_reference() {
    for_each_graph(|seed, dfg| {
        let r = RefDfg::from_dfg(dfg);
        assert_eq!(dfg.len(), r.len(), "seed {seed}");
        for v in dfg.live_ids() {
            let succ_soa: Vec<_> = dfg.succ_edges(v).cloned().collect();
            let succ_ref: Vec<_> = r.succ_edges(v).cloned().collect();
            assert_eq!(succ_soa, succ_ref, "seed {seed}: succ order of {v}");
            let pred_soa: Vec<_> = dfg.pred_edges(v).cloned().collect();
            let pred_ref: Vec<_> = r.pred_edges(v).cloned().collect();
            assert_eq!(pred_soa, pred_ref, "seed {seed}: pred order of {v}");
        }
    });
}

#[test]
fn scc_condensation_matches_reference() {
    let mut h = Fnv64::new();
    for_each_graph(|seed, dfg| {
        let r = RefDfg::from_dfg(dfg);
        assert_eq!(dfg.sccs(), r.sccs(), "seed {seed}: SCC partition");
        let c = Condensation::build(dfg);
        assert_eq!(&c, &*dfg.condensation(), "seed {seed}: cached condensation");
        for comp in c.comps() {
            h.write_u64(comp.len() as u64);
            for v in comp {
                h.write_u64(v.index() as u64);
            }
        }
        for &cyclic in c.cyclic_flags() {
            h.write_u8(u8::from(cyclic));
        }
        for &v in c.topo0().unwrap_or(&[]) {
            h.write_u64(v.index() as u64);
        }
        for v in dfg.live_ids() {
            for &w in c.reach0_row(v) {
                h.write_u64(w);
            }
        }
    });
    assert_digest("condensation", h.finish(), 0x4656_70c7_203f_3b55);
}

#[test]
fn scc_view_membership_agrees_with_sccs() {
    for_each_graph(|seed, dfg| {
        let view = dfg.scc_view();
        let sccs = dfg.sccs();
        for (c, scc) in sccs.iter().enumerate() {
            for &v in scc {
                assert_eq!(
                    view.comp_of[v.index()] as usize,
                    c,
                    "seed {seed}: {v} component"
                );
            }
            let has_self_loop = scc
                .iter()
                .any(|&v| dfg.succ_edges(v).any(|e| e.dst == v && e.distance > 0));
            let cyclic = scc.len() > 1 || has_self_loop;
            assert_eq!(
                view.is_cyclic(c as u32),
                cyclic,
                "seed {seed}: component {c} cyclicity"
            );
        }
        // Dead slots carry the sentinel, never a component id.
        for i in 0..dfg.len() {
            let dead = dfg.node(OpId::new(i)).is_dead();
            assert_eq!(view.comp_of[i] == u32::MAX, dead, "seed {seed}: slot {i}");
        }
    });
}

#[test]
fn content_hashes_are_pinned() {
    // Memo keys and warm-state snapshots are keyed by content hashes: a
    // change here invalidates every stored snapshot, so it must come with
    // a `SNAP_VERSION` bump in veal-vm's snapshot module.
    let mut h = Fnv64::new();
    for_each_graph(|_, dfg| h.write_u64(dfg.content_hash()));
    let limits = veal_opt::TransformLimits::default();
    for app in veal_workloads::full_suite() {
        for l in &app.loops {
            h.write_u64(l.raw.body.dfg.content_hash());
            for part in veal_opt::legalize(&l.raw, &limits) {
                h.write_u64(part.body.dfg.content_hash());
            }
        }
    }
    assert_eq!(
        h.finish(),
        0xae88_6669_1f59_6efa,
        "content hashes moved (digest {:#018x}): bump SNAP_VERSION in \
         crates/vm/src/snapshot.rs, then re-record this digest",
        h.finish()
    );
}

#[test]
fn verify_verdict_matches_reference() {
    for_each_graph(|seed, dfg| {
        let r = RefDfg::from_dfg(dfg);
        assert_eq!(verify_dfg(dfg), r.verify(), "seed {seed}");
    });
}

#[test]
fn separation_outputs_and_charges_match_recorded_digest() {
    let mut h = Fnv64::new();
    for_each_graph(|_, dfg| {
        let mut meter = CostMeter::new();
        match separate(dfg, &mut meter) {
            Ok(sep) => {
                h.write_u64(sep.dfg.content_hash());
                h.write_str(&format!("{:?}", sep.streams));
                h.write_str(&format!("{:?}", sep.control_ops));
                h.write_str(&format!("{:?}", sep.addr_ops));
            }
            Err(e) => h.write_str(&format!("{e:?}")),
        }
        for &p in ALL_PHASES {
            h.write_u64(meter.breakdown().get(p));
        }
    });
    assert_digest("separation", h.finish(), 0x6c00_98e2_d178_8c48);
}

#[test]
fn topo_order_matches_reference() {
    for_each_graph(|seed, dfg| {
        let r = RefDfg::from_dfg(dfg);
        assert_eq!(dfg.topo_order(), r.topo_order(), "seed {seed}");
    });
}
