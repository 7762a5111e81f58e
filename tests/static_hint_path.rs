//! The list scheduler charges the same on every priority route.
//!
//! The scheduler reads a depth profile, which it computes with one
//! O(V + E) pass at one unit per topo node whatever produced the order: a
//! static hint, the height priority or the Swing ordering. Its suite-wide
//! Scheduling charge on each route is pinned to the figure recorded
//! before the scheduler stopped borrowing the profile from the Swing
//! ordering's MinDist structures.

use veal::ir::Phase;
use veal::vm::{StaticHints, TranslationPolicy, Translator};
use veal::{compute_hints, legalize, AcceleratorConfig, CcaSpec, LoopBody, TransformLimits};

/// Every legalized suite loop with its shipped hints.
fn hinted_suite() -> Vec<(LoopBody, StaticHints)> {
    let config = AcceleratorConfig::paper_design();
    let spec = CcaSpec::paper();
    let limits = TransformLimits::default();
    veal::workloads::full_suite()
        .iter()
        .flat_map(|a| &a.loops)
        .flat_map(|l| legalize(&l.raw, &limits))
        .map(|p| {
            let hints = compute_hints(&p.body, &config, Some(&spec));
            (p.body, hints)
        })
        .collect()
}

#[test]
fn scheduling_charge_is_pinned_on_every_priority_route() {
    let config = AcceleratorConfig::paper_design();
    let suite = hinted_suite();
    assert_eq!(suite.len(), 200);
    let none = StaticHints::none();
    // Suite-wide Scheduling units per route.
    let routes = [
        (TranslationPolicy::static_hints(), true, 831_561),
        (TranslationPolicy::fully_dynamic_height(), false, 45_635),
        (TranslationPolicy::fully_dynamic(), false, 831_561),
    ];
    for (policy, hinted, want) in routes {
        let tr = Translator::new(config.clone(), Some(CcaSpec::paper()), policy);
        let mut units = 0u64;
        let mut mapped = 0usize;
        for (body, hints) in &suite {
            let out = tr.translate(body, if hinted { hints } else { &none });
            units += out.breakdown.get(Phase::Scheduling);
            mapped += usize::from(out.result.is_ok());
        }
        assert!(mapped > 150, "{policy:?}: only {mapped} loops mapped");
        assert_eq!(units, want, "{policy:?}: Scheduling charge moved");
    }
}
