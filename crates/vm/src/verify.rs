//! Semantic validation of untrusted static hints (DESIGN.md §9).
//!
//! [`crate::binfmt`] guarantees *transport* integrity: sections are
//! checksummed and structurally well-formed. It cannot guarantee *semantic*
//! validity — a stale binary carries hints computed for a different CCA
//! generation, a hostile one carries hints crafted to break the scheduler.
//! The paper's compatibility story (§4.2) requires that such hints degrade
//! the translation to its dynamic path, never corrupt it.
//!
//! This module is that trust boundary. Each hint kind has a validator:
//!
//! * the **priority** order must be an exact permutation of the separated
//!   graph's schedulable ops — length, membership, and no duplicates (the
//!   modulo scheduler walks the order as-is, so a duplicate would schedule
//!   an op twice);
//! * each **CCA group** must be legal on the *current* [`CcaSpec`]
//!   ([`veal_cca::is_legal_group`]) on the graph the earlier groups' collapses
//!   leave, checked through a [`CollapseProbe`] so the real graph is never
//!   mutated by a hint that later turns out bad.
//!
//! Validation is not free, and the paper's cost model must say so: every
//! check is charged to [`Phase::HintDecode`] on the caller's [`CostMeter`].
//! For *valid* hints the charges are exactly the decode charges the
//! translator always paid (`dfg.len() + 4` plus each group's length for
//! CCA, the order length for priority), so accepting a good hint costs the
//! same as before this boundary existed; rejection surfaces as extra
//! dynamic-phase cost in the Figure 10/11 accounting.

use std::fmt;
use veal_cca::{CcaSpec, CollapseProbe};
use veal_ir::dfg::Dfg;
use veal_ir::{CostMeter, OpId, Phase};

/// Why a hint failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HintError {
    /// The priority order's length differs from the schedulable-op count.
    PriorityWrongLength {
        /// Schedulable ops in the separated graph.
        expected: usize,
        /// Entries in the hint.
        got: usize,
    },
    /// The priority order names an op that is not schedulable here.
    PriorityUnknownOp(OpId),
    /// The priority order names an op twice.
    PriorityDuplicate(OpId),
    /// A CCA group is empty.
    CcaEmptyGroup,
    /// A CCA group member is outside the graph.
    CcaMemberOutOfRange(OpId),
    /// A CCA group member is not a schedulable op (dead, control, or
    /// already claimed by an earlier group).
    CcaMemberNotSchedulable(OpId),
    /// A CCA group lists the same member twice.
    CcaDuplicateMember(OpId),
    /// A CCA group is not executable as a unit on the current spec.
    CcaIllegalGroup {
        /// Index of the offending group within the hint.
        group: usize,
    },
}

impl fmt::Display for HintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HintError::PriorityWrongLength { expected, got } => {
                write!(
                    f,
                    "priority order has {got} entries, graph has {expected} ops"
                )
            }
            HintError::PriorityUnknownOp(op) => {
                write!(f, "priority order names unknown op {op}")
            }
            HintError::PriorityDuplicate(op) => {
                write!(f, "priority order names op {op} twice")
            }
            HintError::CcaEmptyGroup => write!(f, "empty CCA group"),
            HintError::CcaMemberOutOfRange(op) => {
                write!(f, "CCA group member {op} outside the graph")
            }
            HintError::CcaMemberNotSchedulable(op) => {
                write!(f, "CCA group member {op} is not schedulable")
            }
            HintError::CcaDuplicateMember(op) => {
                write!(f, "CCA group lists member {op} twice")
            }
            HintError::CcaIllegalGroup { group } => {
                write!(f, "CCA group {group} illegal on this spec")
            }
        }
    }
}

impl std::error::Error for HintError {}

/// Which translation step degraded to its dynamic path, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DegradeReason {
    /// The priority hint failed; the scheduler recomputed the order
    /// dynamically (Swing or Height per policy).
    PriorityHint(HintError),
    /// The CCA hint failed; subgraphs were re-identified dynamically.
    CcaHint(HintError),
}

impl fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradeReason::PriorityHint(e) => write!(f, "priority hint rejected: {e}"),
            DegradeReason::CcaHint(e) => write!(f, "CCA hint rejected: {e}"),
        }
    }
}

/// The outcome of hint validation for one translation.
///
/// `None` means the hint was never validated — absent from the binary, or
/// the policy/hardware does not consume it. That is *not* a degradation:
/// a legacy binary without hints runs the documented hint-less path.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HintVerdict {
    /// Priority-hint validation result, if one ran.
    pub priority: Option<Result<(), HintError>>,
    /// CCA-hint validation result, if one ran.
    pub cca: Option<Result<(), HintError>>,
}

impl HintVerdict {
    /// How many hint validations ran.
    #[must_use]
    pub fn checks(&self) -> u64 {
        u64::from(self.priority.is_some()) + u64::from(self.cca.is_some())
    }

    /// Every per-step degradation this translation suffered.
    #[must_use]
    pub fn degradations(&self) -> Vec<DegradeReason> {
        let mut out = Vec::new();
        if let Some(Err(e)) = &self.cca {
            out.push(DegradeReason::CcaHint(e.clone()));
        }
        if let Some(Err(e)) = &self.priority {
            out.push(DegradeReason::PriorityHint(e.clone()));
        }
        out
    }

    /// True when any validated hint was rejected.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        matches!(self.priority, Some(Err(_))) || matches!(self.cca, Some(Err(_)))
    }
}

/// Validates a CCA hint against `spec` and, only if *every* group is legal,
/// collapses the groups into `dfg`. On any failure `dfg` is untouched and
/// the caller should fall back to dynamic identification.
///
/// Each group is checked against the graph the earlier groups' collapses
/// leave — the same sequential discipline the dynamic identifier commits
/// with — so mutually dependent groups cannot both pass, and a group made
/// illegal by an earlier collapse (convexity through a new pseudo-op, say)
/// is caught before the real graph changes. A [`CollapseProbe`] answers
/// those questions without collapsing anything, and the vetted groups are
/// applied in one [`Dfg::collapse_all`] pass. [`Dfg::collapse`] panics on
/// malformed members by contract; validation here is what makes that
/// contract hold for untrusted input.
///
/// # Errors
///
/// The first [`HintError`] encountered, in group order.
pub fn verify_and_apply_cca(
    dfg: &mut Dfg,
    spec: &CcaSpec,
    groups: &[Vec<OpId>],
    meter: &mut CostMeter,
) -> Result<usize, HintError> {
    // Decoding the procedural abstraction is a linear pass.
    meter.charge(Phase::HintDecode, dfg.len() as u64 + 4);
    vet_cca_groups(dfg, spec, groups, meter)?;
    dfg.collapse_all(groups.iter().map(Vec::as_slice));
    Ok(groups.len())
}

/// Checks every group of a CCA hint, in order, against the graph the
/// earlier groups' collapses leave, without collapsing anything.
fn vet_cca_groups(
    dfg: &Dfg,
    spec: &CcaSpec,
    groups: &[Vec<OpId>],
    meter: &mut CostMeter,
) -> Result<(), HintError> {
    let mut probe = CollapseProbe::new(dfg);
    let mut seen = Vec::new();
    for (gi, g) in groups.iter().enumerate() {
        meter.charge(Phase::HintDecode, g.len() as u64);
        if g.is_empty() {
            return Err(HintError::CcaEmptyGroup);
        }
        seen.clear();
        seen.resize(probe.len().div_ceil(64), 0u64);
        for &m in g {
            let i = m.index();
            if i >= probe.len() {
                return Err(HintError::CcaMemberOutOfRange(m));
            }
            if !probe.is_schedulable(m) {
                return Err(HintError::CcaMemberNotSchedulable(m));
            }
            if seen[i / 64] >> (i % 64) & 1 != 0 {
                return Err(HintError::CcaDuplicateMember(m));
            }
            seen[i / 64] |= 1 << (i % 64);
        }
        if !probe.is_legal(spec, g) {
            return Err(HintError::CcaIllegalGroup { group: gi });
        }
        probe.collapse(g);
    }
    Ok(())
}

/// Validates a priority hint: `order` must be an exact permutation of
/// `dfg`'s schedulable ops.
///
/// # Errors
///
/// The first [`HintError`] encountered, scanning the order left to right.
pub fn verify_priority(dfg: &Dfg, order: &[OpId], meter: &mut CostMeter) -> Result<(), HintError> {
    meter.charge(Phase::HintDecode, order.len() as u64);
    let adj = dfg.adjacency();
    let expected: usize = adj
        .sched_words()
        .iter()
        .map(|w| w.count_ones() as usize)
        .sum();
    if order.len() != expected {
        return Err(HintError::PriorityWrongLength {
            expected,
            got: order.len(),
        });
    }
    let mut seen = vec![0u64; adj.sched_words().len()];
    for &op in order {
        let i = op.index();
        if i >= adj.len() || !adj.is_schedulable(i) {
            return Err(HintError::PriorityUnknownOp(op));
        }
        if seen[i / 64] >> (i % 64) & 1 != 0 {
            return Err(HintError::PriorityDuplicate(op));
        }
        seen[i / 64] |= 1 << (i % 64);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hints::compute_hints;
    use veal_accel::AcceleratorConfig;
    use veal_ir::streams::separate;
    use veal_ir::{DfgBuilder, LoopBody, Opcode};

    fn media_loop() -> LoopBody {
        let mut b = DfgBuilder::new();
        let x = b.load_stream(0);
        let k = b.live_in();
        let m = b.op(Opcode::Mul, &[x, k]);
        let a = b.op(Opcode::And, &[m, k]);
        let s = b.op(Opcode::Sub, &[a, x]);
        let o = b.op(Opcode::Xor, &[s, a]);
        b.store_stream(1, o);
        LoopBody::new("media", b.finish())
    }

    fn separated(body: &LoopBody) -> Dfg {
        let mut meter = CostMeter::new();
        separate(&body.dfg, &mut meter).expect("separable").dfg
    }

    #[test]
    fn valid_hints_pass_and_charge_exactly_the_decode_cost() {
        let la = AcceleratorConfig::paper_design();
        let spec = CcaSpec::paper();
        let body = media_loop();
        let hints = compute_hints(&body, &la, Some(&spec));
        let groups = hints.cca_groups.as_ref().expect("cca hint");
        let order = hints.priority.as_ref().expect("priority hint");

        let mut dfg = separated(&body);
        let pre_len = dfg.len();
        let mut meter = CostMeter::new();
        let n = verify_and_apply_cca(&mut dfg, &spec, groups, &mut meter)
            .expect("valid groups accepted");
        assert_eq!(n, groups.len());
        assert_eq!(dfg.len(), pre_len + groups.len(), "one pseudo-op per group");

        let expected_cca: u64 =
            pre_len as u64 + 4 + groups.iter().map(|g| g.len() as u64).sum::<u64>();
        assert_eq!(meter.breakdown().get(Phase::HintDecode), expected_cca);

        verify_priority(&dfg, order, &mut meter).expect("valid order accepted");
        assert_eq!(
            meter.breakdown().get(Phase::HintDecode),
            expected_cca + order.len() as u64
        );
        // Validation charges nothing outside HintDecode.
        assert_eq!(meter.total(), meter.breakdown().get(Phase::HintDecode));
    }

    #[test]
    fn priority_permutation_violations_each_get_their_variant() {
        let body = media_loop();
        let dfg = separated(&body);
        let mut order: Vec<OpId> = dfg.schedulable_ops().collect();
        let mut meter = CostMeter::new();

        let mut short = order.clone();
        short.pop();
        assert!(matches!(
            verify_priority(&dfg, &short, &mut meter),
            Err(HintError::PriorityWrongLength { .. })
        ));

        let mut dup = order.clone();
        let n = dup.len();
        dup[n - 1] = dup[0];
        assert!(matches!(
            verify_priority(&dfg, &dup, &mut meter),
            Err(HintError::PriorityDuplicate(_))
        ));

        let n = order.len();
        order[n - 1] = OpId::new(9999);
        assert!(matches!(
            verify_priority(&dfg, &order, &mut meter),
            Err(HintError::PriorityUnknownOp(_))
        ));
    }

    #[test]
    fn cca_violations_leave_the_graph_untouched() {
        let spec = CcaSpec::paper();
        let body = media_loop();
        let good = compute_hints(&body, &AcceleratorConfig::paper_design(), Some(&spec));
        let good_group = good.cca_groups.expect("cca hint").remove(0);

        let cases: Vec<(Vec<Vec<OpId>>, HintError)> = vec![
            (vec![vec![]], HintError::CcaEmptyGroup),
            (
                vec![vec![OpId::new(9999)]],
                HintError::CcaMemberOutOfRange(OpId::new(9999)),
            ),
            (
                vec![vec![good_group[0], good_group[0]]],
                HintError::CcaDuplicateMember(good_group[0]),
            ),
            // The same (legal) group twice: the second sees its members
            // tombstoned by the first collapse on the probe.
            (
                vec![good_group.clone(), good_group.clone()],
                HintError::CcaMemberNotSchedulable(good_group[0]),
            ),
        ];
        for (groups, want) in cases {
            let mut dfg = separated(&body);
            let pre_len = dfg.len();
            let pre_edges = dfg.edges().to_vec();
            let mut meter = CostMeter::new();
            let got = verify_and_apply_cca(&mut dfg, &spec, &groups, &mut meter)
                .expect_err("invalid hint rejected");
            assert_eq!(got, want);
            assert_eq!(dfg.len(), pre_len, "graph untouched on rejection");
            assert_eq!(dfg.edges(), &pre_edges[..]);
        }
    }

    #[test]
    fn cross_spec_group_is_illegal_not_a_panic() {
        // Hints computed for the wide paper CCA, validated on the narrow
        // one: the stale-binary case the paper's compatibility story is
        // about.
        let body = media_loop();
        let wide = compute_hints(
            &body,
            &AcceleratorConfig::paper_design(),
            Some(&CcaSpec::paper()),
        );
        let groups = wide.cca_groups.expect("cca hint");
        let mut dfg = separated(&body);
        let mut meter = CostMeter::new();
        let err = verify_and_apply_cca(&mut dfg, &CcaSpec::narrow(), &groups, &mut meter)
            .expect_err("wide group illegal on narrow spec");
        assert!(matches!(err, HintError::CcaIllegalGroup { .. }));
    }

    #[test]
    fn verdict_counts_checks_and_degradations() {
        let ok = HintVerdict {
            priority: Some(Ok(())),
            cca: Some(Ok(())),
        };
        assert_eq!(ok.checks(), 2);
        assert!(!ok.is_degraded());
        assert!(ok.degradations().is_empty());

        let mixed = HintVerdict {
            priority: Some(Err(HintError::PriorityDuplicate(OpId::new(1)))),
            cca: None,
        };
        assert_eq!(mixed.checks(), 1);
        assert!(mixed.is_degraded());
        assert_eq!(mixed.degradations().len(), 1);
        assert!(matches!(
            mixed.degradations()[0],
            DegradeReason::PriorityHint(HintError::PriorityDuplicate(_))
        ));

        let silent = HintVerdict::default();
        assert_eq!(silent.checks(), 0);
        assert!(!silent.is_degraded());
    }
}
