//! Property tests for the binary module format: arbitrary well-formed
//! loops (hand kernels and random synthetics) must round-trip exactly,
//! with and without hint sections, and truncated or corrupted bytes must
//! never panic the decoder.

use veal::{
    compute_hints, decode_module, encode_module, AcceleratorConfig, BinaryModule, CcaSpec,
    EncodedLoop, OpId,
};
use veal_ir::rng::Rng64;
use veal_workloads::{synth_loop, SynthSpec};

fn arb_spec(rng: &mut Rng64) -> SynthSpec {
    SynthSpec {
        seed: rng.next_u64(),
        compute_ops: rng.gen_range(4, 40),
        fp_frac: [0.0, 0.4, 0.8][rng.gen_range(0, 3)],
        loads: rng.gen_range(1, 6),
        stores: rng.gen_range(1, 3),
        recurrences: rng.gen_range(0, 3),
        rec_distance: rng.gen_range(1, 5) as u32,
    }
}

const CASES: u64 = 64;

fn for_each_spec(mut check: impl FnMut(u64, &mut Rng64, SynthSpec)) {
    for case in 0..CASES {
        let mut rng = Rng64::new(case.wrapping_mul(0xD1B5_4A32) ^ 0xB17);
        let spec = arb_spec(&mut rng);
        check(case, &mut rng, spec);
    }
}

#[test]
fn random_loops_round_trip() {
    for_each_spec(|case, _rng, spec| {
        let body = synth_loop(&spec);
        let module = BinaryModule {
            loops: vec![EncodedLoop {
                body: body.clone(),
                priority_hint: None,
                cca_hint: None,
                family_hint: None,
            }],
        };
        let back = decode_module(&encode_module(&module)).expect("round trip");
        assert_eq!(
            back.loops[0].body.dfg.edges(),
            body.dfg.edges(),
            "case {case}"
        );
        assert_eq!(back.loops[0].body.dfg.len(), body.dfg.len(), "case {case}");
        for i in 0..body.dfg.len() {
            let id = OpId::new(i);
            assert_eq!(
                &back.loops[0].body.dfg.node(id).kind,
                &body.dfg.node(id).kind,
                "case {case}"
            );
            assert_eq!(
                back.loops[0].body.dfg.node(id).stream,
                body.dfg.node(id).stream,
                "case {case}"
            );
            assert_eq!(
                back.loops[0].body.dfg.node(id).live_out,
                body.dfg.node(id).live_out,
                "case {case}"
            );
        }
    });
}

#[test]
fn hinted_loops_round_trip() {
    for_each_spec(|case, _rng, spec| {
        let body = synth_loop(&spec);
        let la = AcceleratorConfig::paper_design();
        let hints = compute_hints(&body, &la, Some(&CcaSpec::paper()));
        let module = BinaryModule {
            loops: vec![EncodedLoop {
                body,
                priority_hint: hints.priority.clone(),
                cca_hint: hints.cca_groups.clone(),
                family_hint: Some(case),
            }],
        };
        let back = decode_module(&encode_module(&module)).expect("round trip");
        assert_eq!(&back.loops[0].priority_hint, &hints.priority, "case {case}");
        assert_eq!(&back.loops[0].cca_hint, &hints.cca_groups, "case {case}");
        assert_eq!(back.loops[0].family_hint, Some(case), "case {case}");
    });
}

#[test]
fn truncation_never_panics() {
    for_each_spec(|_case, rng, spec| {
        let body = synth_loop(&spec);
        let module = BinaryModule {
            loops: vec![EncodedLoop {
                body,
                priority_hint: None,
                cca_hint: None,
                family_hint: None,
            }],
        };
        let bytes = encode_module(&module);
        let cut_frac = rng.next_f64();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        // Must return an error or a module, never panic.
        let _ = decode_module(&bytes[..cut.min(bytes.len().saturating_sub(1))]);
    });
}

#[test]
fn byte_corruption_never_panics() {
    for_each_spec(|_case, rng, spec| {
        let body = synth_loop(&spec);
        let module = BinaryModule {
            loops: vec![EncodedLoop {
                body,
                priority_hint: None,
                cca_hint: None,
                family_hint: None,
            }],
        };
        let mut bytes = encode_module(&module);
        if !bytes.is_empty() {
            let pos = rng.gen_range(0, bytes.len());
            bytes[pos] = (rng.next_u64() & 0xFF) as u8;
            let _ = decode_module(&bytes);
        }
    });
}

#[test]
fn every_prefix_of_every_module_yields_a_clean_decode_error() {
    // The exhaustive truncation sweep: for EVERY cut point k, decoding
    // bytes[..k] must return a typed DecodeError — never panic, never
    // succeed on a strict prefix (a well-formed module consumes all its
    // bytes, so any prefix is missing at least the final section
    // terminator).
    for_each_spec(|case, _rng, spec| {
        let body = synth_loop(&spec);
        let la = AcceleratorConfig::paper_design();
        let hints = compute_hints(&body, &la, Some(&CcaSpec::paper()));
        let module = BinaryModule {
            loops: vec![EncodedLoop {
                body,
                priority_hint: hints.priority,
                cca_hint: hints.cca_groups,
                family_hint: None,
            }],
        };
        let bytes = encode_module(&module);
        for k in 0..bytes.len() {
            let err = decode_module(&bytes[..k])
                .expect_err("case {case}: prefix of length {k} must not decode");
            // Exercise Display on the typed error as well.
            assert!(!err.to_string().is_empty(), "case {case} cut {k}");
        }
    });
}

#[test]
fn multi_loop_modules_preserve_order() {
    for case in 0u64..16 {
        let mut rng = Rng64::new(case.wrapping_mul(0xC0FF_EE11) ^ 0x51DE);
        let n = rng.gen_range(1, 6);
        let module = BinaryModule {
            loops: (0..n)
                .map(|_| EncodedLoop {
                    body: synth_loop(&SynthSpec {
                        seed: rng.next_u64(),
                        ..SynthSpec::default()
                    }),
                    priority_hint: None,
                    cca_hint: None,
                    family_hint: None,
                })
                .collect(),
        };
        let back = decode_module(&encode_module(&module)).expect("round trip");
        assert_eq!(back.loops.len(), module.loops.len(), "case {case}");
        for (a, b) in back.loops.iter().zip(&module.loops) {
            assert_eq!(&a.body.name, &b.body.name, "case {case}");
            assert_eq!(a.body.dfg.edges(), b.body.dfg.edges(), "case {case}");
        }
    }
}

/// Packs `body` with its hints as a one-loop module, as a client ships it,
/// and returns the decoded body's content hash.
fn round_trip_hash(body: &veal::LoopBody, hints: &veal::StaticHints) -> u64 {
    let module = BinaryModule {
        loops: vec![EncodedLoop {
            body: body.clone(),
            priority_hint: hints.priority.clone(),
            cca_hint: hints.cca_groups.clone(),
            family_hint: None,
        }],
    };
    decode_module(&encode_module(&module))
        .expect("round trip")
        .loops[0]
        .body
        .dfg
        .content_hash()
}

#[test]
fn round_trip_keeps_the_content_hash() {
    // The hash keys the memo, the code cache and snapshots, so a loop that
    // arrives over the wire must land on the same key as the same loop in
    // process. The module format keeps a tombstone as one byte (its kind
    // is gone after decoding), which the hash must not see.
    let config = AcceleratorConfig::paper_design();
    let spec = CcaSpec::paper();
    let limits = veal::TransformLimits::default();
    let mut with_tombstones = 0usize;
    for app in veal::workloads::full_suite() {
        for l in &app.loops {
            for part in veal::legalize(&l.raw, &limits) {
                let body = &part.body;
                with_tombstones += usize::from(body.dfg.live_ids().count() < body.dfg.len());
                let hints = compute_hints(body, &config, Some(&spec));
                assert_eq!(
                    round_trip_hash(body, &hints),
                    body.dfg.content_hash(),
                    "{}: hash drifted",
                    body.name
                );
            }
        }
    }
    assert!(
        with_tombstones >= 70,
        "{with_tombstones} suite loops carry tombstones"
    );
    for_each_spec(|case, _rng, spec| {
        let body = synth_loop(&spec);
        assert_eq!(
            round_trip_hash(&body, &veal::StaticHints::none()),
            body.dfg.content_hash(),
            "case {case}: hash drifted"
        );
    });
}

#[test]
fn tombstone_kind_is_outside_the_hash_but_cca_members_are_inside() {
    use veal::{DfgBuilder, Opcode};
    // Two graphs that differ only in what a tombstone used to be share a
    // key; two that collapsed different ops do not.
    let graph = |first: Opcode| {
        let mut b = DfgBuilder::new();
        let x = b.live_in();
        let a = b.op(first, &[x]);
        let c = b.op(Opcode::Xor, &[a, x]);
        b.mark_live_out(c);
        (b.finish(), a, c)
    };
    let (mut p, pa, _) = graph(Opcode::And);
    let (mut q, qa, _) = graph(Opcode::Or);
    assert_ne!(p.content_hash(), q.content_hash());
    p.mark_dead(pa);
    q.mark_dead(qa);
    assert_eq!(
        p.content_hash(),
        q.content_hash(),
        "dead kinds must not key"
    );

    let (mut p, pa, pc) = graph(Opcode::And);
    let (mut q, qa, qc) = graph(Opcode::Or);
    p.collapse(&[pa, pc]);
    q.collapse(&[qa, qc]);
    assert_ne!(
        p.content_hash(),
        q.content_hash(),
        "a CCA node's members must key by kind"
    );
}
