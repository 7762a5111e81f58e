//! A concurrent multi-tenant translation service over the co-designed VM.
//!
//! The ROADMAP's north star is translation served at scale: many tenants
//! (processes, binaries) stream loop-translation requests at a shared
//! backend, which must amortize duplicate work across tenants without ever
//! changing what any single tenant observes. This crate is that backend,
//! behind two front doors: in-process (a seeded load generator
//! ([`LoadSpec`]) produces a deterministic request stream, and a
//! [`TranslationService`] batches it across tenants onto a worker pool),
//! and over TCP ([`net`]) — a zero-dependency loopback server speaking the
//! length-prefixed, checksummed wire protocol of [`wire`] (DESIGN.md §15),
//! with every inbound module re-verified through the untrusted-bytes
//! gauntlet before any session sees it.
//!
//! The architecture (DESIGN.md §11):
//!
//! * **Per-tenant sessions** — each tenant owns a [`veal_vm::VmSession`]
//!   (code cache, quarantine state, statistics). Workers drain one tenant
//!   at a time, in FIFO order, so a tenant's invocation sequence is exactly
//!   what a solo session would see.
//! * **Sharded memo + single-flight** — sessions share one
//!   [`veal_vm::ShardedMemo`]: lock-striped lookups, and at most one
//!   in-flight translation per key ([`veal_vm::MemoBackend`]).
//! * **One admission path** — [`TranslationService::run_windowed`] and the
//!   network reactor both admit, drain and report through a
//!   [`SessionPool`].
//! * **Admission control** — bounded per-tenant queues shed the *oldest*
//!   queued request under overload ([`ServeStats::shed`]); the service
//!   degrades by dropping stale work, never by blocking the stream.
//!
//! The invariant that makes the concurrency safe to trust: per-tenant
//! [`veal_vm::VmStats`] and every translated schedule are **bit-identical**
//! to replaying that tenant's admitted requests on a solo session.
//! Concurrency may reorder work across tenants, never results within one.
//! `tests/serve.rs` asserts this differentially over seeded corpora.

pub mod loadgen;
pub mod net;
pub mod service;
pub mod wire;

pub use loadgen::{generate, LoadSpec};
pub use net::{ClientOutcome, NetConfig, NetReport, NetServer, WireClient};
pub use service::{
    CheckpointPolicy, Request, RequestOutcome, ServeConfig, ServeReport, ServeStats, SessionPool,
    TenantReport, TranslationService,
};
pub use wire::{decode_frame, encode_frame, ErrorCode, FrameStatus, WireFrame, WIRE_VERSION};
