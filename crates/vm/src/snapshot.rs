//! Crash-safe persistence of warm translation state.
//!
//! A VM restart normally pays the full translation bill again: every memo
//! entry and every cached control program is rebuilt from scratch. This
//! module snapshots the two warm stores — the translation memo
//! ([`crate::memo`]) and the code cache ([`crate::cache`]) — into a
//! versioned byte stream and restores them on the next boot, so a restarted
//! service replays instead of recomputing.
//!
//! # Trust model
//!
//! A snapshot file is **untrusted input**, exactly like a binary module
//! (DESIGN.md §9): it may be truncated by a crash mid-write, bit-rotted on
//! disk, produced by an older build with a different cost model, or forged
//! outright. The restore path therefore promises:
//!
//! 1. **No panic, ever.** Every read is bounds-checked, every count is
//!    validated against the bytes that remain, and every failure is a typed
//!    [`EntryReject`].
//! 2. **No invalid state.** An entry only enters the live memo/cache after
//!    it re-passes the same validators a fresh translation would:
//!    [`veal_ir::verify_dfg`] plus a content-hash cross-check on the graph,
//!    [`veal_sched::verify_schedule`] with zero defects on the schedule,
//!    [`crate::verify::verify_priority`] on any stored static order,
//!    register-map bounds checks, and a fingerprint gate against the live
//!    [`Translator`] (or family fingerprint). Derived fields the session
//!    relies on for accounting (`control_words`, `accel_ops`, cache bytes)
//!    are **recomputed** from the validated structure, never trusted, so a
//!    forged snapshot cannot overcommit the cache byte budget.
//! 3. **Per-entry salvage.** A corrupt, stale, or malformed entry is
//!    counted and skipped; it never aborts the restore. A wholly bad
//!    snapshot degrades gracefully to a cold start ([`RestoreReport`]
//!    says which happened).
//!
//! What it deliberately does **not** promise is *authenticity*: the
//! per-section FNV-1a checksum catches corruption, not adversaries — anyone
//! who can edit the file can reseal it ([`crate::binfmt::reseal_section`]).
//! A resealed forgery that survives re-validation is, by construction, a
//! semantically valid entry (a real graph with a real defect-free
//! schedule); at worst it carries wrong-but-plausible cost accounting. It
//! can never crash the VM, admit an invalid schedule, or breach a budget.
//! Deployments that need authenticity should wrap the file in a real MAC.
//!
//! # Layout
//!
//! Little endian: magic `VSNP`, version u16, then the same
//! `tag u8, len u32, checksum u64, payload` section frames as the binary
//! module format (the framing code is shared), terminated by [`SNAP_END`].
//! Unlike a module, a tag may repeat: each memo/cache entry rides in its
//! own section so one flipped bit costs one entry, not the file. The
//! [`SNAP_META`] section is advisory (counts and fingerprints for
//! `vealc snapshot inspect`); restore ignores what it claims.
//!
//! Restore bumps the observability counters `vm.snapshot.restored`,
//! `vm.snapshot.salvaged`, and `vm.snapshot.rejected`.

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::Arc;

use veal_accel::resources::ALL_RESOURCES;
use veal_accel::{AcceleratorConfig, CapabilityError};
use veal_ir::dfg::{Dfg, EdgeKind, NodeKind};
use veal_ir::meter::ALL_PHASES;
use veal_ir::streams::{SeparationError, StreamSummary};
use veal_ir::{verify_dfg, CostMeter, OpId, Opcode, PhaseBreakdown};
use veal_obs::metrics;
use veal_sched::{
    verify_schedule, ModuloSchedule, RegisterAssignment, RegisterPressure, ScheduleError,
    ScheduledLoop, SymbolicSchedule,
};

use crate::binfmt::{section_checksum, DecodeError, Reader, SectionRange, Writer};
use crate::cache::CodeCache;
use crate::memo::{MemoBackend, MemoEntry, MemoKey, MemoizedOutcome};
use crate::translator::{
    SymbolicBody, SymbolicTranslation, TranslatedLoop, TranslationError, Translator,
};
use crate::verify::{verify_priority, HintError, HintVerdict};

/// Snapshot magic bytes.
pub const SNAP_MAGIC: &[u8; 4] = b"VSNP";
/// Snapshot format version. Version 2: graph content hashes (which key
/// the memo and guard every stored graph) treat tombstones as bare slots,
/// so version-1 keys and stored hashes no longer match.
pub const SNAP_VERSION: u16 = 2;

/// End-of-stream marker tag.
pub const SNAP_END: u8 = 0;
/// Advisory metadata: fingerprints and entry counts.
pub const SNAP_META: u8 = 1;
/// One point memo entry ([`MemoEntry::Point`]).
pub const SNAP_POINT: u8 = 2;
/// One family memo entry ([`MemoEntry::Family`]).
pub const SNAP_FAMILY: u8 = 3;
/// One code-cache entry.
pub const SNAP_CACHE: u8 = 4;

/// Loop lengths above this are rejected as implausible (a forged length
/// would otherwise inflate replayed cost accounting without bound).
const MAX_LOOP_LEN: u64 = 1 << 24;

/// Why warm state could not be serialized: a structural count or id does
/// not fit the format's fixed-width fields.
///
/// Encoding only fails on implausibly oversized state — a graph or memo
/// with more than `u32::MAX` elements — but a silent truncating cast there
/// would alias `OpId`s across the wrap and corrupt the snapshot
/// undetectably (the per-section checksum seals the *truncated* bytes), so
/// the bound is checked and the failure typed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodeError {
    /// Which field overflowed.
    pub what: &'static str,
    /// The value that does not fit.
    pub value: u64,
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} does not fit in u32", self.what, self.value)
    }
}

impl std::error::Error for EncodeError {}

/// Checked `usize -> u32` narrowing for the fixed-width count/id fields.
fn fit_u32(what: &'static str, v: usize) -> Result<u32, EncodeError> {
    u32::try_from(v).map_err(|_| EncodeError {
        what,
        value: v as u64,
    })
}

/// Why one snapshot entry was refused (the restore itself continues).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntryReject {
    /// The payload bytes do not decode.
    Decode(DecodeError),
    /// The entry was produced under a different translator/family
    /// fingerprint than the live one — stale, not corrupt.
    StaleFingerprint {
        /// Fingerprint stored with the entry.
        stored: u64,
        /// Fingerprint of the live translator (or family).
        live: u64,
    },
    /// The stored graph hash disagrees with the hash of the decoded graph.
    ContentHash {
        /// Hash stored in the payload.
        stored: u64,
        /// Hash recomputed over the decoded graph.
        recomputed: u64,
    },
    /// The decoded schedule fails re-verification against the live config.
    BadSchedule {
        /// Number of defects [`veal_sched::verify_schedule`] reported.
        defects: usize,
    },
    /// A stored static order fails [`crate::verify::verify_priority`].
    BadStaticOrder(HintError),
    /// The register map names an op outside the decoded graph.
    RegisterOutOfRange(OpId),
}

impl From<DecodeError> for EntryReject {
    fn from(e: DecodeError) -> Self {
        EntryReject::Decode(e)
    }
}

impl fmt::Display for EntryReject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EntryReject::Decode(e) => write!(f, "payload does not decode: {e}"),
            EntryReject::StaleFingerprint { stored, live } => {
                write!(f, "stale fingerprint {stored:#018x} (live {live:#018x})")
            }
            EntryReject::ContentHash { stored, recomputed } => {
                write!(
                    f,
                    "graph hash mismatch: stored {stored:#018x}, got {recomputed:#018x}"
                )
            }
            EntryReject::BadSchedule { defects } => {
                write!(f, "schedule fails re-verification with {defects} defect(s)")
            }
            EntryReject::BadStaticOrder(e) => write!(f, "static order invalid: {e}"),
            EntryReject::RegisterOutOfRange(id) => {
                write!(f, "register map names out-of-range op {}", id.index())
            }
        }
    }
}

impl std::error::Error for EntryReject {}

/// What a restore accomplished. `salvaged` frames were skipped on
/// checksum/framing damage; `rejected` frames decoded but failed semantic
/// re-validation or the fingerprint gate; `torn` means the stream ended
/// before its end marker (crash mid-write). None of these abort a restore.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestoreReport {
    /// Point memo entries restored.
    pub points: u64,
    /// Family memo entries restored.
    pub families: u64,
    /// Code-cache entries restored.
    pub cache_entries: u64,
    /// Sections skipped for checksum mismatch or unknown tag.
    pub salvaged: u64,
    /// Sections whose payload decoded but failed re-validation.
    pub rejected: u64,
    /// The stream ended without [`SNAP_END`] (torn write).
    pub torn: bool,
}

impl RestoreReport {
    /// Total entries that entered the live stores.
    #[must_use]
    pub fn restored(&self) -> u64 {
        self.points + self.families + self.cache_entries
    }

    /// Whether nothing was restored — the VM starts cold.
    #[must_use]
    pub fn is_cold(&self) -> bool {
        self.restored() == 0
    }
}

impl fmt::Display for RestoreReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "restored {} (points {}, families {}, cache {}), salvaged {}, rejected {}{}",
            self.restored(),
            self.points,
            self.families,
            self.cache_entries,
            self.salvaged,
            self.rejected,
            if self.torn { ", torn" } else { "" }
        )
    }
}

/// The advisory [`SNAP_META`] payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// Fingerprint of the translator the snapshot was taken under.
    pub translator_fp: u64,
    /// Family fingerprint, if the session ran in family mode.
    pub family_fp: Option<u64>,
    /// Point entries the writer claims to have emitted.
    pub points: u32,
    /// Family entries the writer claims to have emitted.
    pub families: u32,
    /// Cache entries the writer claims to have emitted.
    pub cache_entries: u32,
}

/// A checksum-walk summary of a snapshot, without decoding any entry
/// (what `vealc snapshot inspect` prints).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Decoded metadata section, if present and intact.
    pub meta: Option<SnapshotMeta>,
    /// Point sections with intact checksums.
    pub points: u64,
    /// Family sections with intact checksums.
    pub families: u64,
    /// Cache sections with intact checksums.
    pub cache_entries: u64,
    /// Sections with an unknown tag (skipped on restore).
    pub unknown: u64,
    /// Sections whose checksum does not match their payload.
    pub bad_sections: u64,
    /// The stream ended without [`SNAP_END`].
    pub torn: bool,
    /// Total snapshot size in bytes.
    pub total_bytes: usize,
}

// ---------------------------------------------------------------------------
// Leaf codecs. The encoders are infallible; every decoder is bounds-checked
// and returns a typed rejection. Derived quantities (control words, accel
// ops, cache bytes) are never serialized — the decoder recomputes them from
// the validated structure so a forged snapshot cannot skew accounting.
// ---------------------------------------------------------------------------

fn encode_breakdown(w: &mut Writer, b: &PhaseBreakdown) {
    for &p in ALL_PHASES {
        w.u64(b.get(p));
    }
}

fn decode_breakdown(r: &mut Reader) -> Result<PhaseBreakdown, EntryReject> {
    let mut b = PhaseBreakdown::default();
    for &p in ALL_PHASES {
        b.set(p, r.u64()?);
    }
    Ok(b)
}

fn encode_key(w: &mut Writer, key: &MemoKey) {
    w.u64(key.loop_hash);
    w.u64(key.translator_fp);
    w.u64(key.hints_fp);
}

fn decode_key(r: &mut Reader) -> Result<MemoKey, EntryReject> {
    Ok(MemoKey {
        loop_hash: r.u64()?,
        translator_fp: r.u64()?,
        hints_fp: r.u64()?,
    })
}

fn encode_hint_error(w: &mut Writer, e: &HintError) -> Result<(), EncodeError> {
    let op = |id: &OpId| fit_u32("diagnostic op id", id.index());
    match e {
        HintError::PriorityWrongLength { expected, got } => {
            w.u8(0);
            w.u64(*expected as u64);
            w.u64(*got as u64);
        }
        HintError::PriorityUnknownOp(id) => {
            w.u8(1);
            w.u32(op(id)?);
        }
        HintError::PriorityDuplicate(id) => {
            w.u8(2);
            w.u32(op(id)?);
        }
        HintError::CcaEmptyGroup => w.u8(3),
        HintError::CcaMemberOutOfRange(id) => {
            w.u8(4);
            w.u32(op(id)?);
        }
        HintError::CcaMemberNotSchedulable(id) => {
            w.u8(5);
            w.u32(op(id)?);
        }
        HintError::CcaDuplicateMember(id) => {
            w.u8(6);
            w.u32(op(id)?);
        }
        HintError::CcaIllegalGroup { group } => {
            w.u8(7);
            w.u64(*group as u64);
        }
    }
    Ok(())
}

fn decode_hint_error(r: &mut Reader) -> Result<HintError, EntryReject> {
    // The op ids here are diagnostic payloads, not indices into a live
    // graph, so they carry no bound.
    Ok(match r.u8()? {
        0 => HintError::PriorityWrongLength {
            expected: r.u64()? as usize,
            got: r.u64()? as usize,
        },
        1 => HintError::PriorityUnknownOp(OpId::new(r.u32()? as usize)),
        2 => HintError::PriorityDuplicate(OpId::new(r.u32()? as usize)),
        3 => HintError::CcaEmptyGroup,
        4 => HintError::CcaMemberOutOfRange(OpId::new(r.u32()? as usize)),
        5 => HintError::CcaMemberNotSchedulable(OpId::new(r.u32()? as usize)),
        6 => HintError::CcaDuplicateMember(OpId::new(r.u32()? as usize)),
        7 => HintError::CcaIllegalGroup {
            group: r.u64()? as usize,
        },
        _ => return Err(DecodeError::BadHint.into()),
    })
}

fn encode_check(w: &mut Writer, c: &Option<Result<(), HintError>>) -> Result<(), EncodeError> {
    match c {
        None => w.u8(0),
        Some(Ok(())) => w.u8(1),
        Some(Err(e)) => {
            w.u8(2);
            encode_hint_error(w, e)?;
        }
    }
    Ok(())
}

fn decode_check(r: &mut Reader) -> Result<Option<Result<(), HintError>>, EntryReject> {
    Ok(match r.u8()? {
        0 => None,
        1 => Some(Ok(())),
        2 => Some(Err(decode_hint_error(r)?)),
        _ => return Err(DecodeError::BadHint.into()),
    })
}

fn encode_verdict(w: &mut Writer, v: &HintVerdict) -> Result<(), EncodeError> {
    encode_check(w, &v.priority)?;
    encode_check(w, &v.cca)
}

fn decode_verdict(r: &mut Reader) -> Result<HintVerdict, EntryReject> {
    Ok(HintVerdict {
        priority: decode_check(r)?,
        cca: decode_check(r)?,
    })
}

fn encode_separation_error(w: &mut Writer, e: &SeparationError) -> Result<(), EncodeError> {
    match e {
        SeparationError::NoBackBranch => w.u8(0),
        SeparationError::MultipleBranches => w.u8(1),
        SeparationError::ComplexControl => w.u8(2),
        SeparationError::ComplexAddress(id) => {
            w.u8(3);
            w.u32(fit_u32("diagnostic op id", id.index())?);
        }
        SeparationError::CallInLoop => w.u8(4),
    }
    Ok(())
}

fn decode_separation_error(r: &mut Reader) -> Result<SeparationError, EntryReject> {
    Ok(match r.u8()? {
        0 => SeparationError::NoBackBranch,
        1 => SeparationError::MultipleBranches,
        2 => SeparationError::ComplexControl,
        3 => SeparationError::ComplexAddress(OpId::new(r.u32()? as usize)),
        4 => SeparationError::CallInLoop,
        t => return Err(DecodeError::BadOpcode(t).into()),
    })
}

fn encode_pressure(w: &mut Writer, p: &RegisterPressure) {
    w.u64(p.int_live as u64);
    w.u64(p.fp_live as u64);
    w.u64(p.int_regs as u64);
    w.u64(p.fp_regs as u64);
}

fn decode_pressure(r: &mut Reader) -> Result<RegisterPressure, EntryReject> {
    Ok(RegisterPressure {
        int_live: r.u64()? as usize,
        fp_live: r.u64()? as usize,
        int_regs: r.u64()? as usize,
        fp_regs: r.u64()? as usize,
    })
}

fn encode_schedule_error(w: &mut Writer, e: &ScheduleError) {
    match e {
        ScheduleError::Capability(c) => {
            w.u8(0);
            match c {
                CapabilityError::TooManyLoadStreams { needed, available } => {
                    w.u8(0);
                    w.u64(*needed as u64);
                    w.u64(*available as u64);
                }
                CapabilityError::TooManyStoreStreams { needed, available } => {
                    w.u8(1);
                    w.u64(*needed as u64);
                    w.u64(*available as u64);
                }
            }
        }
        ScheduleError::MiiExceedsControlStore { mii, max_ii } => {
            w.u8(1);
            w.u32(*mii);
            w.u32(*max_ii);
        }
        ScheduleError::NoSchedule { tried_up_to } => {
            w.u8(2);
            w.u32(*tried_up_to);
        }
        ScheduleError::Registers(p) => {
            w.u8(3);
            encode_pressure(w, p);
        }
    }
}

fn decode_schedule_error(r: &mut Reader) -> Result<ScheduleError, EntryReject> {
    Ok(match r.u8()? {
        0 => {
            let sub = r.u8()?;
            let needed = r.u64()? as usize;
            let available = r.u64()? as usize;
            ScheduleError::Capability(match sub {
                0 => CapabilityError::TooManyLoadStreams { needed, available },
                1 => CapabilityError::TooManyStoreStreams { needed, available },
                t => return Err(DecodeError::BadOpcode(t).into()),
            })
        }
        1 => ScheduleError::MiiExceedsControlStore {
            mii: r.u32()?,
            max_ii: r.u32()?,
        },
        2 => ScheduleError::NoSchedule {
            tried_up_to: r.u32()?,
        },
        3 => ScheduleError::Registers(decode_pressure(r)?),
        t => return Err(DecodeError::BadOpcode(t).into()),
    })
}

/// Full-fidelity graph codec. The module format's node codec is lossy by
/// design (it erases dead slots and CCA membership, which a *loader*
/// re-derives); a snapshot must reproduce the post-rewrite graph
/// slot-for-slot or the memo's content hashes stop matching, so it carries
/// its own.
fn encode_dfg(w: &mut Writer, dfg: &Dfg) -> Result<(), EncodeError> {
    w.u32(fit_u32("graph node count", dfg.len())?);
    for i in 0..dfg.len() {
        let n = dfg.node(OpId::new(i));
        match n.kind {
            NodeKind::Op(op) => {
                w.u8(0);
                w.u8(op.encode());
            }
            NodeKind::LiveIn => w.u8(1),
            NodeKind::Const(v) => {
                w.u8(2);
                w.i64(v);
            }
        }
        w.u16(n.stream.unwrap_or(u16::MAX));
        let mut flags = 0u8;
        if n.live_out {
            flags |= 1;
        }
        if n.is_dead() {
            flags |= 2;
        }
        w.u8(flags);
        w.u32(fit_u32("cca member count", n.cca_members.len())?);
        for &m in &n.cca_members {
            w.u32(fit_u32("cca member id", m.index())?);
        }
    }
    w.u32(fit_u32("graph edge count", dfg.edges().len())?);
    for e in dfg.edges() {
        w.u32(fit_u32("edge source id", e.src.index())?);
        w.u32(fit_u32("edge target id", e.dst.index())?);
        w.u32(e.distance);
        w.u8(match e.kind {
            EdgeKind::Data => 0,
            EdgeKind::Mem => 1,
        });
    }
    w.u64(dfg.content_hash());
    Ok(())
}

fn decode_dfg(r: &mut Reader) -> Result<Dfg, EntryReject> {
    let nnodes = r.u32()? as usize;
    // Smallest possible node: kind tag + stream + flags + member count.
    if nnodes > r.remaining() / 8 {
        return Err(DecodeError::BadCount.into());
    }
    let mut dfg = Dfg::new();
    for _ in 0..nnodes {
        let kind = match r.u8()? {
            0 => {
                let b = r.u8()?;
                NodeKind::Op(Opcode::decode(b).ok_or(DecodeError::BadOpcode(b))?)
            }
            1 => NodeKind::LiveIn,
            2 => NodeKind::Const(r.i64()?),
            t => return Err(DecodeError::BadNodeKind(t).into()),
        };
        let id = dfg.add_node(kind);
        let stream = r.u16()?;
        let flags = r.u8()?;
        if flags > 3 {
            return Err(DecodeError::BadNodeKind(flags).into());
        }
        let nmembers = r.u32()? as usize;
        if nmembers > r.remaining() / 4 {
            return Err(DecodeError::BadCount.into());
        }
        let mut members = Vec::with_capacity(nmembers);
        for _ in 0..nmembers {
            let m = r.u32()? as usize;
            if m >= nnodes {
                return Err(DecodeError::BadHint.into());
            }
            members.push(OpId::new(m));
        }
        {
            let node = dfg.node_mut(id);
            if stream != u16::MAX {
                node.stream = Some(stream);
            }
            node.live_out = flags & 1 != 0;
            node.cca_members = members;
        }
        if flags & 2 != 0 {
            dfg.mark_dead(id);
        }
    }
    let nedges = r.u32()? as usize;
    // src + dst + distance + kind.
    if nedges > r.remaining() / 13 {
        return Err(DecodeError::BadCount.into());
    }
    for _ in 0..nedges {
        let src = r.u32()? as usize;
        let dst = r.u32()? as usize;
        if src >= nnodes || dst >= nnodes {
            return Err(DecodeError::BadEdge.into());
        }
        let distance = r.u32()?;
        let kind = match r.u8()? {
            0 => EdgeKind::Data,
            1 => EdgeKind::Mem,
            _ => return Err(DecodeError::BadEdge.into()),
        };
        dfg.add_edge(OpId::new(src), OpId::new(dst), distance, kind);
    }
    let stored = r.u64()?;
    verify_dfg(&dfg).map_err(|e| EntryReject::Decode(DecodeError::BadGraph(e)))?;
    let recomputed = dfg.content_hash();
    if recomputed != stored {
        return Err(EntryReject::ContentHash { stored, recomputed });
    }
    Ok(dfg)
}

fn encode_schedule(w: &mut Writer, s: &ModuloSchedule) -> Result<(), EncodeError> {
    let (ii, times, units) = s.raw_parts();
    w.u32(ii);
    w.u32(fit_u32("schedule slot count", times.len())?);
    for (&t, &(kind, unit)) in times.iter().zip(units) {
        w.i64(t);
        w.u8(kind.index() as u8);
        w.u64(unit as u64);
    }
    Ok(())
}

fn decode_schedule(
    r: &mut Reader,
    dfg: &Dfg,
    config: &AcceleratorConfig,
) -> Result<ModuloSchedule, EntryReject> {
    let ii = r.u32()?;
    let n = r.u32()? as usize;
    if n != dfg.len() {
        return Err(DecodeError::BadCount.into());
    }
    // time + resource kind + unit.
    if n > r.remaining() / 17 {
        return Err(DecodeError::BadCount.into());
    }
    let mut times = Vec::with_capacity(n);
    let mut units = Vec::with_capacity(n);
    for _ in 0..n {
        times.push(r.i64()?);
        let k = r.u8()?;
        let kind = *ALL_RESOURCES
            .get(k as usize)
            .ok_or(DecodeError::BadNodeKind(k))?;
        units.push((kind, r.u64()? as usize));
    }
    let schedule = ModuloSchedule::from_raw_parts(ii, times, units);
    let defects = verify_schedule(dfg, &schedule, config);
    if !defects.is_empty() {
        return Err(EntryReject::BadSchedule {
            defects: defects.len(),
        });
    }
    Ok(schedule)
}

fn encode_registers(w: &mut Writer, ra: &RegisterAssignment) -> Result<(), EncodeError> {
    encode_pressure(w, &ra.pressure);
    w.u64(ra.pinned_int as u64);
    w.u64(ra.pinned_fp as u64);
    let mut pairs = Vec::with_capacity(ra.assignment.len());
    for (&id, &reg) in &ra.assignment {
        pairs.push((fit_u32("register op id", id.index())?, reg));
    }
    pairs.sort_unstable();
    w.u32(fit_u32("register map size", pairs.len())?);
    for (i, reg) in pairs {
        w.u32(i);
        w.u16(reg);
    }
    Ok(())
}

fn decode_registers(r: &mut Reader, bound: usize) -> Result<RegisterAssignment, EntryReject> {
    let pressure = decode_pressure(r)?;
    let pinned_int = r.u64()? as usize;
    let pinned_fp = r.u64()? as usize;
    let n = r.u32()? as usize;
    // op id + register.
    if n > r.remaining() / 6 {
        return Err(DecodeError::BadCount.into());
    }
    let mut assignment = HashMap::with_capacity(n);
    for _ in 0..n {
        let i = r.u32()? as usize;
        if i >= bound {
            return Err(EntryReject::RegisterOutOfRange(OpId::new(i)));
        }
        assignment.insert(OpId::new(i), r.u16()?);
    }
    Ok(RegisterAssignment {
        pressure,
        pinned_int,
        pinned_fp,
        assignment,
    })
}

fn encode_translated(w: &mut Writer, t: &TranslatedLoop) -> Result<(), EncodeError> {
    encode_dfg(w, &t.dfg)?;
    w.u32(fit_u32("cca group count", t.cca_groups)?);
    encode_schedule(w, &t.scheduled.schedule)?;
    encode_registers(w, &t.scheduled.registers)?;
    w.u32(t.scheduled.mii);
    w.u32(fit_u32("load stream count", t.streams.loads)?);
    w.u32(fit_u32("store stream count", t.streams.stores)?);
    Ok(())
}

fn decode_translated(
    r: &mut Reader,
    config: &AcceleratorConfig,
) -> Result<TranslatedLoop, EntryReject> {
    let dfg = decode_dfg(r)?;
    let cca_groups = r.u32()? as usize;
    let schedule = decode_schedule(r, &dfg, config)?;
    let registers = decode_registers(r, dfg.len())?;
    let mii = r.u32()?;
    let streams = StreamSummary {
        loads: r.u32()? as usize,
        stores: r.u32()? as usize,
    };
    // Derived, never trusted: a forged control-word count would skew cache
    // budgets, a forged op count would skew stats.
    let control_words = schedule.control_words(config);
    let accel_ops = dfg.schedulable_ops().count();
    Ok(TranslatedLoop {
        dfg,
        scheduled: ScheduledLoop {
            schedule,
            registers,
            mii,
        },
        streams,
        control_words,
        cca_groups,
        accel_ops,
    })
}

fn encode_point(w: &mut Writer, key: &MemoKey, m: &MemoizedOutcome) -> Result<(), EncodeError> {
    encode_key(w, key);
    encode_breakdown(w, &m.breakdown);
    encode_verdict(w, &m.verdict)?;
    match &m.result {
        Ok(t) => {
            w.u8(0);
            encode_translated(w, t)?;
        }
        Err(TranslationError::Unsupported(e)) => {
            w.u8(1);
            encode_separation_error(w, e)?;
        }
        Err(TranslationError::Schedule(e)) => {
            w.u8(2);
            encode_schedule_error(w, e);
        }
    }
    Ok(())
}

fn decode_point(
    r: &mut Reader,
    live_fp: u64,
    config: &AcceleratorConfig,
) -> Result<(MemoKey, MemoEntry), EntryReject> {
    let key = decode_key(r)?;
    if key.translator_fp != live_fp {
        return Err(EntryReject::StaleFingerprint {
            stored: key.translator_fp,
            live: live_fp,
        });
    }
    let breakdown = decode_breakdown(r)?;
    let verdict = decode_verdict(r)?;
    let result = match r.u8()? {
        0 => Ok(Arc::new(decode_translated(r, config)?)),
        1 => Err(TranslationError::Unsupported(decode_separation_error(r)?)),
        2 => Err(TranslationError::Schedule(decode_schedule_error(r)?)),
        t => return Err(DecodeError::BadOpcode(t).into()),
    };
    Ok((
        key,
        MemoEntry::Point(MemoizedOutcome {
            result,
            breakdown,
            verdict,
        }),
    ))
}

fn encode_family(
    w: &mut Writer,
    key: &MemoKey,
    f: &SymbolicTranslation,
) -> Result<(), EncodeError> {
    encode_key(w, key);
    w.u64(f.loop_len as u64);
    encode_breakdown(w, &f.prefix);
    encode_verdict(w, &f.verdict)?;
    match &f.body {
        Ok(b) => {
            w.u8(0);
            encode_dfg(w, &b.dfg)?;
            w.u32(fit_u32("load stream count", b.summary.loads)?);
            w.u32(fit_u32("store stream count", b.summary.stores)?);
            w.u32(fit_u32("cca group count", b.cca_groups)?);
            match &b.static_order {
                None => w.u8(0),
                Some(order) => {
                    w.u8(1);
                    w.u32(fit_u32("static order length", order.len())?);
                    for &id in order {
                        w.u32(fit_u32("static order op id", id.index())?);
                    }
                }
            }
        }
        Err(e) => {
            w.u8(1);
            encode_separation_error(w, e)?;
        }
    }
    Ok(())
}

fn decode_family(r: &mut Reader, live_family_fp: u64) -> Result<(MemoKey, MemoEntry), EntryReject> {
    let key = decode_key(r)?;
    if key.translator_fp != live_family_fp {
        return Err(EntryReject::StaleFingerprint {
            stored: key.translator_fp,
            live: live_family_fp,
        });
    }
    let loop_len64 = r.u64()?;
    if loop_len64 > MAX_LOOP_LEN {
        return Err(DecodeError::BadCount.into());
    }
    let loop_len = loop_len64 as usize;
    let prefix = decode_breakdown(r)?;
    let verdict = decode_verdict(r)?;
    let body = match r.u8()? {
        0 => {
            let dfg = decode_dfg(r)?;
            let summary = StreamSummary {
                loads: r.u32()? as usize,
                stores: r.u32()? as usize,
            };
            let cca_groups = r.u32()? as usize;
            let static_order = match r.u8()? {
                0 => None,
                1 => {
                    let n = r.u32()? as usize;
                    if n > r.remaining() / 4 {
                        return Err(DecodeError::BadCount.into());
                    }
                    let mut order = Vec::with_capacity(n);
                    for _ in 0..n {
                        let i = r.u32()? as usize;
                        if i >= dfg.len() {
                            return Err(DecodeError::BadHint.into());
                        }
                        order.push(OpId::new(i));
                    }
                    // Same gate a fresh hint goes through; the throwaway
                    // meter keeps re-validation off the session's books.
                    verify_priority(&dfg, &order, &mut CostMeter::new())
                        .map_err(EntryReject::BadStaticOrder)?;
                    Some(order)
                }
                _ => return Err(DecodeError::BadHint.into()),
            };
            Ok(SymbolicBody {
                dfg,
                summary,
                cca_groups,
                static_order,
                // The symbolic caches are lazy and config-keyed; a fresh one
                // reproduces bit-identical concretizations, so they are
                // never serialized.
                sym: SymbolicSchedule::new(),
            })
        }
        1 => Err(decode_separation_error(r)?),
        t => return Err(DecodeError::BadOpcode(t).into()),
    };
    Ok((
        key,
        MemoEntry::Family(Arc::new(SymbolicTranslation {
            loop_len,
            prefix,
            verdict,
            body,
        })),
    ))
}

fn encode_cache_entry(
    w: &mut Writer,
    key: u64,
    translator_fp: u64,
    t: &TranslatedLoop,
) -> Result<(), EncodeError> {
    w.u64(key);
    w.u64(translator_fp);
    encode_translated(w, t)
}

fn decode_cache_entry(
    r: &mut Reader,
    live_fp: u64,
    config: &AcceleratorConfig,
) -> Result<(u64, TranslatedLoop), EntryReject> {
    let key = r.u64()?;
    let stored_fp = r.u64()?;
    if stored_fp != live_fp {
        return Err(EntryReject::StaleFingerprint {
            stored: stored_fp,
            live: live_fp,
        });
    }
    Ok((key, decode_translated(r, config)?))
}

fn encode_meta(w: &mut Writer, meta: &SnapshotMeta) {
    w.u64(meta.translator_fp);
    w.u64(meta.family_fp.unwrap_or(0));
    w.u32(meta.points);
    w.u32(meta.families);
    w.u32(meta.cache_entries);
}

fn decode_meta(r: &mut Reader) -> Result<SnapshotMeta, EntryReject> {
    let translator_fp = r.u64()?;
    let fam = r.u64()?;
    Ok(SnapshotMeta {
        translator_fp,
        family_fp: if fam == 0 { None } else { Some(fam) },
        points: r.u32()?,
        families: r.u32()?,
        cache_entries: r.u32()?,
    })
}

// ---------------------------------------------------------------------------
// Whole-snapshot operations.
// ---------------------------------------------------------------------------

/// Serializes warm state to a snapshot byte stream.
///
/// `memo_entries` and `cache_entries` come from the stores' sorted
/// `export_entries` accessors, so two snapshots of the same logical state
/// are byte-identical regardless of shard striping or insertion order.
///
/// # Errors
///
/// [`EncodeError`] when a count or id does not fit the format's
/// fixed-width fields — only possible on implausibly oversized state,
/// but typed rather than silently truncated (see [`EncodeError`]).
pub fn encode_warm_state(
    translator_fp: u64,
    family_fp: Option<u64>,
    memo_entries: &[(MemoKey, MemoEntry)],
    cache_entries: &[(u64, &Arc<TranslatedLoop>, usize)],
) -> Result<Vec<u8>, EncodeError> {
    let points = memo_entries
        .iter()
        .filter(|(_, e)| matches!(e, MemoEntry::Point(_)))
        .count();
    let points = fit_u32("memo point count", points)?;
    let families = fit_u32("memo entry count", memo_entries.len())? - points;
    let mut w = Writer::new();
    w.buf.extend_from_slice(SNAP_MAGIC);
    w.u16(SNAP_VERSION);
    let mut p = Writer::new();
    encode_meta(
        &mut p,
        &SnapshotMeta {
            translator_fp,
            family_fp,
            points,
            families,
            cache_entries: fit_u32("cache entry count", cache_entries.len())?,
        },
    );
    w.section(SNAP_META, &p.buf);
    for (key, entry) in memo_entries {
        let mut p = Writer::new();
        match entry {
            MemoEntry::Point(m) => {
                encode_point(&mut p, key, m)?;
                w.section(SNAP_POINT, &p.buf);
            }
            MemoEntry::Family(f) => {
                encode_family(&mut p, key, f)?;
                w.section(SNAP_FAMILY, &p.buf);
            }
        }
    }
    for &(key, t, _bytes) in cache_entries {
        let mut p = Writer::new();
        encode_cache_entry(&mut p, key, translator_fp, t)?;
        w.section(SNAP_CACHE, &p.buf);
    }
    w.u8(SNAP_END);
    Ok(w.buf)
}

/// Serializes one translated loop in the snapshot's full-fidelity codec —
/// the payload a serving response carries over the wire.
///
/// # Errors
///
/// [`EncodeError`] when a count or id overflows the fixed-width fields.
pub fn encode_translated_loop(t: &TranslatedLoop) -> Result<Vec<u8>, EncodeError> {
    let mut w = Writer::new();
    encode_translated(&mut w, t)?;
    Ok(w.buf)
}

/// Decodes one translated loop from **untrusted** bytes, re-running the
/// full verification gauntlet a snapshot entry passes: [`verify_dfg`] plus
/// a content-hash cross-check, [`verify_schedule`] against `config` with
/// zero defects, register bounds checks, and recomputed accounting. A
/// network client uses this on response payloads so a compromised or
/// corrupted server can never hand it an invalid schedule.
///
/// # Errors
///
/// A typed [`EntryReject`] naming the first check the bytes failed.
pub fn decode_translated_loop(
    bytes: &[u8],
    config: &AcceleratorConfig,
) -> Result<TranslatedLoop, EntryReject> {
    let mut r = Reader::new(bytes);
    let t = decode_translated(&mut r, config)?;
    if !r.is_done() {
        return Err(DecodeError::SectionTrailing(0).into());
    }
    Ok(t)
}

/// Restores a snapshot into live stores, treating every byte as hostile.
///
/// Never fails: damage is absorbed per entry (see [`RestoreReport`]). A
/// stream that is not a snapshot at all (wrong magic or version) restores
/// nothing — a cold start. Point and cache entries are gated on the live
/// translator's fingerprint; family entries on `family_fp` (a session
/// running without a family rejects all family entries as stale). Memo
/// inserts are first-writer-wins, so restoring into a store that already
/// has fresher entries never clobbers them.
pub fn restore_warm_state(
    bytes: &[u8],
    translator: &Translator,
    family_fp: Option<u64>,
    memo: Option<&dyn MemoBackend>,
    mut cache: Option<&mut CodeCache<Arc<TranslatedLoop>>>,
) -> RestoreReport {
    let mut report = RestoreReport::default();
    let mut r = Reader::new(bytes);
    let header_ok = matches!(r.take(4), Ok(m) if m == SNAP_MAGIC)
        && matches!(r.u16(), Ok(v) if v == SNAP_VERSION);
    if !header_ok {
        return report;
    }
    let live_fp = translator.fingerprint();
    let live_family_fp = family_fp.unwrap_or(0);
    let config = translator.config();
    loop {
        let tag = match r.u8() {
            Ok(t) => t,
            Err(_) => {
                report.torn = true;
                break;
            }
        };
        if tag == SNAP_END {
            break;
        }
        let (stored_sum, payload) = match next_frame(&mut r) {
            Ok(f) => f,
            Err(_) => {
                // A torn length field loses the rest of the stream; every
                // frame before it has already been restored.
                report.torn = true;
                break;
            }
        };
        if section_checksum(payload) != stored_sum {
            report.salvaged += 1;
            continue;
        }
        let mut pr = Reader::new(payload);
        match tag {
            // Advisory only: restore counts what it verifies, not what the
            // writer claims.
            SNAP_META => {}
            SNAP_POINT | SNAP_FAMILY => {
                let Some(memo) = memo else { continue };
                let decoded = if tag == SNAP_POINT {
                    decode_point(&mut pr, live_fp, config)
                } else {
                    decode_family(&mut pr, live_family_fp)
                };
                match decoded {
                    Ok((key, entry)) if pr.is_done() => {
                        memo.insert(key, entry);
                        if tag == SNAP_POINT {
                            report.points += 1;
                        } else {
                            report.families += 1;
                        }
                    }
                    Ok(_) | Err(_) => report.rejected += 1,
                }
            }
            SNAP_CACHE => {
                let Some(c) = cache.as_deref_mut() else {
                    continue;
                };
                match decode_cache_entry(&mut pr, live_fp, config) {
                    Ok((key, t)) if pr.is_done() => {
                        // Bytes are recharged from the re-verified schedule,
                        // so the cache budget holds whatever the file said.
                        let bytes = t.control_words * 4;
                        c.insert_sized(key, Arc::new(t), bytes);
                        report.cache_entries += 1;
                    }
                    Ok(_) | Err(_) => report.rejected += 1,
                }
            }
            _ => report.salvaged += 1,
        }
    }
    metrics::counter("vm.snapshot.restored").add(report.restored());
    metrics::counter("vm.snapshot.salvaged").add(report.salvaged);
    metrics::counter("vm.snapshot.rejected").add(report.rejected);
    report
}

fn next_frame<'a>(r: &mut Reader<'a>) -> Result<(u64, &'a [u8]), DecodeError> {
    let len = r.u32()? as usize;
    let sum = r.u64()?;
    let payload = r.take(len)?;
    Ok((sum, payload))
}

/// Walks a snapshot's framing and checksums without decoding any entry.
///
/// # Errors
///
/// Only [`DecodeError::BadMagic`] / [`DecodeError::BadVersion`] — anything
/// else is reported in the returned [`SnapshotInfo`], not an error.
pub fn inspect_snapshot(bytes: &[u8]) -> Result<SnapshotInfo, DecodeError> {
    let mut r = Reader::new(bytes);
    if r.take(4).map_err(|_| DecodeError::BadMagic)? != SNAP_MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let v = r.u16().map_err(|_| DecodeError::BadMagic)?;
    if v != SNAP_VERSION {
        return Err(DecodeError::BadVersion(v));
    }
    let mut info = SnapshotInfo {
        total_bytes: bytes.len(),
        ..SnapshotInfo::default()
    };
    loop {
        let tag = match r.u8() {
            Ok(t) => t,
            Err(_) => {
                info.torn = true;
                break;
            }
        };
        if tag == SNAP_END {
            break;
        }
        let (stored_sum, payload) = match next_frame(&mut r) {
            Ok(f) => f,
            Err(_) => {
                info.torn = true;
                break;
            }
        };
        if section_checksum(payload) != stored_sum {
            info.bad_sections += 1;
            continue;
        }
        match tag {
            SNAP_META => info.meta = decode_meta(&mut Reader::new(payload)).ok(),
            SNAP_POINT => info.points += 1,
            SNAP_FAMILY => info.families += 1,
            SNAP_CACHE => info.cache_entries += 1,
            _ => info.unknown += 1,
        }
    }
    Ok(info)
}

/// Maps every section frame in a snapshot, checksums unverified — the
/// fault harness uses this with [`crate::binfmt::reseal_section`] to build
/// forged-but-resealed snapshots, and tooling uses it to patch in place.
/// `loop_index` is always 0 (snapshots have no per-loop structure).
///
/// # Errors
///
/// Returns [`DecodeError`] if the framing itself is malformed.
pub fn snapshot_section_ranges(bytes: &[u8]) -> Result<Vec<SectionRange>, DecodeError> {
    let mut r = Reader::new(bytes);
    if r.take(4)? != SNAP_MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let v = r.u16()?;
    if v != SNAP_VERSION {
        return Err(DecodeError::BadVersion(v));
    }
    let mut out = Vec::new();
    loop {
        let start = r.pos;
        let tag = r.u8()?;
        if tag == SNAP_END {
            break;
        }
        let len = r.u32()? as usize;
        let checksum = r.pos..r.pos + 8;
        r.u64()?;
        let payload_start = r.pos;
        r.take(len)?;
        out.push(SectionRange {
            loop_index: 0,
            tag,
            frame: start..r.pos,
            checksum,
            payload: payload_start..r.pos,
        });
    }
    Ok(out)
}

/// Writes `bytes` to `path` crash-safely: a same-directory temp file is
/// written and fsynced, then renamed over the target and the parent
/// directory fsynced, so a reader never observes a half-written snapshot —
/// it sees the old file or the new one — and the rename itself survives a
/// crash (the directory entry is durable, not just the file contents).
///
/// # Errors
///
/// Any I/O error from create/write/sync/rename/dir-sync; the temp file is
/// removed on failure.
pub fn save_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let name = path.file_name().map_or_else(
        || "snapshot".to_string(),
        |n| n.to_string_lossy().into_owned(),
    );
    let tmp_name = format!(".{name}.tmp{}", std::process::id());
    let tmp = match dir {
        Some(d) => d.join(&tmp_name),
        None => Path::new(&tmp_name).to_path_buf(),
    };
    let result = (|| {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp, path)?;
        // Durability of the rename itself: fsync the directory so a crash
        // after this call can't resurrect the old entry (or lose the new
        // one). Some platforms refuse to fsync a directory handle; treat
        // that as best-effort rather than failing a completed rename.
        let dir_handle = fs::File::open(dir.unwrap_or_else(|| Path::new(".")))?;
        match dir_handle.sync_all() {
            Err(e) if e.kind() != io::ErrorKind::Unsupported => Err(e),
            _ => Ok(()),
        }
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hints::StaticHints;
    use crate::memo::TranslationMemo;
    use crate::translator::TranslationPolicy;
    use veal_accel::AcceleratorFamily;
    use veal_cca::CcaSpec;
    use veal_ir::{DfgBuilder, LoopBody};

    fn translator() -> Translator {
        Translator::new(
            AcceleratorConfig::paper_design(),
            Some(CcaSpec::paper()),
            TranslationPolicy::fully_dynamic(),
        )
    }

    fn simple_loop(name: &str) -> LoopBody {
        let mut b = DfgBuilder::new();
        let k = b.constant(3);
        let x = b.load_stream(0);
        let y = b.op(Opcode::Mul, &[x, k]);
        let z = b.op(Opcode::Add, &[y, y]);
        b.mark_live_out(z);
        b.store_stream(1, z);
        LoopBody::new(name, b.finish())
    }

    fn call_loop() -> LoopBody {
        let mut b = DfgBuilder::new();
        let x = b.load_stream(0);
        let y = b.op(Opcode::Call, &[x]);
        b.store_stream(1, y);
        LoopBody::new("calls", b.finish())
    }

    /// A memo holding one successful point entry, one failed point entry,
    /// and one family entry, plus a cache holding the successful loop.
    fn warm_state(
        t: &Translator,
    ) -> (
        TranslationMemo,
        CodeCache<Arc<TranslatedLoop>>,
        u64, // family fingerprint
    ) {
        let memo = TranslationMemo::new();
        let mut cache = CodeCache::new(16);
        let hints = StaticHints::none();
        let fp = t.fingerprint();
        let family = AcceleratorFamily::point(t.config());
        let family_fp = t.family_fingerprint(&family);

        for body in [simple_loop("a"), call_loop()] {
            let outcome = t.translate(&body, &hints);
            let key = MemoKey {
                loop_hash: body.dfg.content_hash(),
                translator_fp: fp,
                hints_fp: hints.fingerprint(),
            };
            if let Ok(tl) = &outcome.result {
                let arc = Arc::new(tl.clone());
                let bytes = arc.control_words * 4;
                cache.insert_sized(key.loop_hash, arc, bytes);
            }
            memo.insert(
                key,
                MemoEntry::Point(MemoizedOutcome {
                    result: outcome.result.map(Arc::new),
                    breakdown: outcome.breakdown,
                    verdict: outcome.verdict,
                }),
            );
        }

        let fam_body = simple_loop("fam");
        let sym = t.translate_symbolic(&fam_body, &hints);
        memo.insert(
            MemoKey {
                loop_hash: fam_body.dfg.content_hash(),
                translator_fp: family_fp,
                hints_fp: hints.fingerprint(),
            },
            MemoEntry::Family(Arc::new(sym)),
        );
        (memo, cache, family_fp)
    }

    fn snapshot_of(t: &Translator) -> (Vec<u8>, u64) {
        let (memo, cache, family_fp) = warm_state(t);
        let bytes = encode_warm_state(
            t.fingerprint(),
            Some(family_fp),
            &memo.export_entries(),
            &cache.export_entries(),
        )
        .expect("warm state fits the format");
        (bytes, family_fp)
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let t = translator();
        let (bytes, family_fp) = snapshot_of(&t);

        let memo2 = TranslationMemo::new();
        let mut cache2 = CodeCache::new(16);
        let report =
            restore_warm_state(&bytes, &t, Some(family_fp), Some(&memo2), Some(&mut cache2));
        assert_eq!(report.points, 2);
        assert_eq!(report.families, 1);
        assert_eq!(report.cache_entries, 1);
        assert_eq!(report.salvaged, 0);
        assert_eq!(report.rejected, 0);
        assert!(!report.torn);
        assert!(!report.is_cold());

        // The strongest oracle available without Eq on the stores: a
        // snapshot of the restored state reproduces the original stream
        // bit for bit.
        let bytes2 = encode_warm_state(
            t.fingerprint(),
            Some(family_fp),
            &memo2.export_entries(),
            &cache2.export_entries(),
        )
        .expect("restored state re-encodes");
        assert_eq!(bytes, bytes2);
    }

    #[test]
    fn not_a_snapshot_is_a_cold_start() {
        let t = translator();
        let memo = TranslationMemo::new();
        for junk in [&b""[..], b"VEAL", b"VSNP", b"VSNP\x07\x00garbage"] {
            let report = restore_warm_state(junk, &t, None, Some(&memo), None);
            assert!(report.is_cold(), "{junk:?} restored something");
        }
        assert!(memo.export_entries().is_empty());
    }

    #[test]
    fn every_truncation_salvages_the_intact_prefix_without_panicking() {
        let t = translator();
        let (bytes, family_fp) = snapshot_of(&t);
        let full = restore_warm_state(
            &bytes,
            &t,
            Some(family_fp),
            Some(&TranslationMemo::new()),
            None,
        )
        .restored();
        for len in 0..bytes.len() {
            let memo = TranslationMemo::new();
            let report = restore_warm_state(&bytes[..len], &t, Some(family_fp), Some(&memo), None);
            if len < SNAP_MAGIC.len() + 2 {
                // Not even a header: that is "not a snapshot", a cold start.
                assert!(report.is_cold());
            } else {
                assert!(report.torn, "prefix of {len} bytes has no end marker");
            }
            assert!(report.restored() <= full);
            assert_eq!(
                report.restored() - report.cache_entries,
                memo.export_entries().len() as u64
            );
        }
    }

    #[test]
    fn a_flipped_payload_byte_costs_at_most_that_entry() {
        let t = translator();
        let (bytes, family_fp) = snapshot_of(&t);
        let ranges = snapshot_section_ranges(&bytes).expect("framing is valid");
        for section in &ranges {
            let mut dirty = bytes.clone();
            dirty[section.payload.start] ^= 0x40;
            let memo = TranslationMemo::new();
            let mut cache = CodeCache::new(16);
            let report =
                restore_warm_state(&dirty, &t, Some(family_fp), Some(&memo), Some(&mut cache));
            assert!(!report.torn, "payload damage must not tear the stream");
            assert_eq!(report.salvaged, 1, "tag {} not salvaged", section.tag);
            // Everything the damage did not touch still lands.
            assert_eq!(report.restored() + u64::from(section.tag != SNAP_META), 4);
        }
    }

    #[test]
    fn resealed_forgeries_never_admit_invalid_state() {
        let t = translator();
        let (bytes, family_fp) = snapshot_of(&t);
        let ranges = snapshot_section_ranges(&bytes).expect("framing is valid");
        for section in &ranges {
            for offset in 0..(section.payload.len().min(64)) {
                let mut forged = bytes.clone();
                forged[section.payload.start + offset] ^= 1;
                crate::binfmt::reseal_section(&mut forged, section);
                let memo = TranslationMemo::new();
                let mut cache = CodeCache::new(16);
                restore_warm_state(&forged, &t, Some(family_fp), Some(&memo), Some(&mut cache));
                // Whatever got through must re-verify clean: that is the
                // whole trust model.
                for (_, entry) in memo.export_entries() {
                    match entry {
                        MemoEntry::Point(m) => {
                            if let Ok(tl) = &m.result {
                                verify_dfg(&tl.dfg).expect("restored graph verifies");
                                assert!(verify_schedule(
                                    &tl.dfg,
                                    &tl.scheduled.schedule,
                                    t.config()
                                )
                                .is_empty());
                            }
                        }
                        MemoEntry::Family(f) => {
                            if let Ok(b) = &f.body {
                                verify_dfg(&b.dfg).expect("restored family graph verifies");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn stale_translator_fingerprint_rejects_points_and_cache() {
        let t = translator();
        let (bytes, family_fp) = snapshot_of(&t);
        let other = Translator::new(
            AcceleratorConfig::paper_design(),
            Some(CcaSpec::paper()),
            TranslationPolicy::static_hints(),
        );
        assert_ne!(t.fingerprint(), other.fingerprint());
        let memo = TranslationMemo::new();
        let mut cache = CodeCache::new(16);
        let report = restore_warm_state(
            &bytes,
            &other,
            Some(family_fp),
            Some(&memo),
            Some(&mut cache),
        );
        // Family entries key on the family fingerprint and still land; the
        // point/cache entries are stale.
        assert_eq!(report.points, 0);
        assert_eq!(report.cache_entries, 0);
        assert_eq!(report.families, 1);
        assert_eq!(report.rejected, 3);
    }

    #[test]
    fn a_session_without_a_family_rejects_family_entries() {
        let t = translator();
        let (bytes, _family_fp) = snapshot_of(&t);
        let memo = TranslationMemo::new();
        let report = restore_warm_state(&bytes, &t, None, Some(&memo), None);
        assert_eq!(report.families, 0);
        assert_eq!(report.points, 2);
        assert_eq!(report.rejected, 1);
    }

    #[test]
    fn restore_respects_the_cache_byte_budget() {
        let t = translator();
        let (bytes, family_fp) = snapshot_of(&t);
        let memo = TranslationMemo::new();
        // A budget of one byte admits nothing, whatever the file claims.
        let mut tiny = CodeCache::with_byte_budget(16, 1);
        let report = restore_warm_state(&bytes, &t, Some(family_fp), Some(&memo), Some(&mut tiny));
        assert_eq!(tiny.export_entries().len(), 0);
        // The entry decoded and verified; the cache then refused it on
        // budget, which is the cache's call, not a snapshot defect.
        assert_eq!(report.rejected, 0);
        assert_eq!(tiny.stats().oversized_rejections, 1);
    }

    #[test]
    fn inspect_reports_counts_meta_and_damage() {
        let t = translator();
        let (bytes, family_fp) = snapshot_of(&t);
        let info = inspect_snapshot(&bytes).expect("valid snapshot");
        assert_eq!(info.points, 2);
        assert_eq!(info.families, 1);
        assert_eq!(info.cache_entries, 1);
        assert_eq!(info.bad_sections, 0);
        assert!(!info.torn);
        assert_eq!(info.total_bytes, bytes.len());
        let meta = info.meta.expect("meta section present");
        assert_eq!(meta.translator_fp, t.fingerprint());
        assert_eq!(meta.family_fp, Some(family_fp));
        assert_eq!((meta.points, meta.families, meta.cache_entries), (2, 1, 1));

        let ranges = snapshot_section_ranges(&bytes).unwrap();
        let mut dirty = bytes.clone();
        dirty[ranges[1].payload.start] ^= 0xff;
        let info = inspect_snapshot(&dirty).unwrap();
        assert_eq!(info.bad_sections, 1);

        assert_eq!(inspect_snapshot(b"nope"), Err(DecodeError::BadMagic));
        let mut wrong = bytes.clone();
        wrong[4] = 0x99;
        assert!(matches!(
            inspect_snapshot(&wrong),
            Err(DecodeError::BadVersion(_))
        ));
    }

    #[test]
    fn unknown_tags_are_skipped_for_forward_compatibility() {
        let t = translator();
        let (bytes, family_fp) = snapshot_of(&t);
        // Splice an unknown-but-well-formed section in front of the end
        // marker.
        let mut w = Writer::new();
        w.buf.extend_from_slice(&bytes[..bytes.len() - 1]);
        w.section(0x77, b"from the future");
        w.u8(SNAP_END);
        let memo = TranslationMemo::new();
        let report = restore_warm_state(&w.buf, &t, Some(family_fp), Some(&memo), None);
        assert_eq!(report.salvaged, 1);
        assert_eq!(report.points, 2);
        assert!(!report.torn);
    }

    #[test]
    fn save_atomic_round_trips_and_replaces() {
        let t = translator();
        let (bytes, _) = snapshot_of(&t);
        // A dedicated subdirectory so the parent-directory fsync after the
        // rename runs against a real `Some(dir)` parent, not the cwd
        // fallback.
        let dir = std::env::temp_dir().join(format!("veal-snap-test-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("test dir");
        let path = dir.join("state.vsnp");
        save_atomic(&path, b"old contents").expect("first write");
        assert_eq!(fs::read(&path).expect("reopen old"), b"old contents");
        // Replace, then reopen through a fresh handle: the reader must see
        // the complete new stream, never a blend of old and new.
        save_atomic(&path, &bytes).expect("replace");
        let read_back = fs::read(&path).expect("read back");
        assert_eq!(read_back, bytes);
        inspect_snapshot(&read_back).expect("saved file is a valid snapshot");
        // And replacing the replacement still round-trips.
        save_atomic(&path, b"third generation").expect("second replace");
        assert_eq!(fs::read(&path).expect("reopen third"), b"third generation");
        // No temp-file debris left behind.
        let stray: Vec<_> = fs::read_dir(&dir)
            .expect("list dir")
            .filter_map(|e| e.ok().map(|e| e.file_name()))
            .filter(|n| n != "state.vsnp")
            .collect();
        let _ = fs::remove_dir_all(&dir);
        assert!(stray.is_empty(), "leftover temp files: {stray:?}");
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn oversized_counts_are_a_typed_encode_error_not_a_truncation() {
        // A count past u32::MAX would silently alias under the old
        // `as u32` cast — and the per-section checksum would then seal the
        // corrupted bytes, making the damage undetectable on restore. Every
        // count/id field now narrows through `fit_u32`, which must refuse.
        // (Ids are `OpId`-backed and bounded at u32 by construction, so the
        // checked narrowing is the single gate a collection length passes.)
        let over = u32::MAX as usize + 1;
        let err = fit_u32("graph node count", over).expect_err("must not narrow");
        assert_eq!(err.what, "graph node count");
        assert_eq!(err.value, u64::from(u32::MAX) + 1);
        assert!(err.to_string().contains("does not fit"));
        // Boundary: exactly u32::MAX still fits; one past does not.
        assert_eq!(fit_u32("n", u32::MAX as usize), Ok(u32::MAX));
        assert!(fit_u32("n", over + 12345).is_err());
    }

    #[test]
    fn translated_loop_codec_round_trips_and_reverifies() {
        let t = translator();
        let outcome = t.translate(&simple_loop("wire"), &StaticHints::none());
        let original = outcome.result.expect("simple loop translates");
        let bytes = encode_translated_loop(&original).expect("encodes");
        let decoded = decode_translated_loop(&bytes, t.config()).expect("decodes");
        // Byte-identity of the re-encoding is the equality oracle.
        assert_eq!(encode_translated_loop(&decoded).expect("re-encodes"), bytes);
        // Derived accounting is recomputed, not trusted, and must agree.
        assert_eq!(decoded.control_words, original.control_words);
        assert_eq!(decoded.accel_ops, original.accel_ops);

        // Trailing bytes are not tolerated: a frame must be exactly one loop.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_translated_loop(&padded, t.config()).is_err());

        // Any single flipped byte is caught by decode or re-verification.
        for i in 0..bytes.len() {
            let mut dirty = bytes.clone();
            dirty[i] ^= 0x20;
            if let Ok(tl) = decode_translated_loop(&dirty, t.config()) {
                verify_dfg(&tl.dfg).expect("admitted graph verifies");
                assert!(verify_schedule(&tl.dfg, &tl.scheduled.schedule, t.config()).is_empty());
            }
        }
    }
}
