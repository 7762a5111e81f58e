//! The static-hint and height-priority routes skip the work their
//! priority exists to skip.
//!
//! Only the Swing ordering needs the II-parametric MinDist frontier; the
//! list scheduler reads just a depth profile, which it takes from a
//! frontier already resident on its thread or else from one O(V + E)
//! pass with the same charge. So after a hinted or height-priority
//! translation no frontier may be resident for the translated graph —
//! checked through this thread's cache, which no other test touches — and
//! the Scheduling charge must stay the figure it was before the scheduler
//! stopped building the frontier.

use veal::ir::Phase;
use veal::sched::param;
use veal::vm::{StaticHints, TranslationPolicy, Translator};
use veal::{compute_hints, legalize, AcceleratorConfig, CcaSpec, LoopBody, TransformLimits};

/// Every legalized suite loop with its shipped hints. Built on its own
/// thread: `compute_hints` runs the Swing ordering, which would leave
/// frontiers in the calling thread's cache.
fn hinted_suite() -> Vec<(LoopBody, StaticHints)> {
    std::thread::spawn(|| {
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
    })
    .join()
    .expect("hint computation")
}

#[test]
fn hinted_and_height_translations_leave_no_mindist_frontier() {
    let config = AcceleratorConfig::paper_design();
    let suite = hinted_suite();
    assert_eq!(suite.len(), 200);
    let none = StaticHints::none();
    // Suite-wide Scheduling units, as charged before the change.
    let routes = [
        (TranslationPolicy::static_hints(), true, 831_561),
        (TranslationPolicy::fully_dynamic_height(), false, 45_635),
    ];
    for (policy, hinted, want) in routes {
        let tr = Translator::new(config.clone(), Some(CcaSpec::paper()), policy);
        let mut units = 0u64;
        let mut mapped = 0usize;
        for (body, hints) in &suite {
            let out = tr.translate(body, if hinted { hints } else { &none });
            units += out.breakdown.get(Phase::Scheduling);
            if let Ok(t) = &out.result {
                mapped += 1;
                assert!(
                    param::peek(&t.dfg, &config.latencies).is_none(),
                    "{}: {policy:?} left a MinDist frontier resident",
                    body.name
                );
            }
        }
        assert!(mapped > 150, "{policy:?}: only {mapped} loops mapped");
        assert_eq!(units, want, "{policy:?}: Scheduling charge moved");
    }

    // The check can see a frontier: the Swing route builds one per loop
    // and leaves it resident.
    let swing = Translator::new(
        config.clone(),
        Some(CcaSpec::paper()),
        TranslationPolicy::fully_dynamic(),
    );
    let mut units = 0u64;
    for (body, _) in &suite {
        let out = swing.translate(body, &none);
        units += out.breakdown.get(Phase::Scheduling);
        if let Ok(t) = &out.result {
            assert!(
                param::peek(&t.dfg, &config.latencies).is_some(),
                "{}: Swing ordering left no frontier",
                body.name
            );
        }
    }
    assert_eq!(units, 831_561, "fully dynamic Scheduling charge moved");
}
