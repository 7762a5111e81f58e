//! The multi-tenant translation service.
//!
//! One [`TranslationService`] owns the shared [`ShardedMemo`] and a
//! configuration; each [`TranslationService::run`] call serves one request
//! stream on fresh per-tenant sessions (the memo persists across runs, so
//! a second run over the same corpus is the warm-memo arm).
//!
//! Dispatch: a tenant index sits in the ready queue exactly when it has
//! admitted work and no worker is currently draining it. Workers pop a
//! tenant, drain up to `batch_size` requests in FIFO order under the
//! tenant's lock, then requeue it if work remains. One worker per tenant
//! at a time ⇒ every tenant observes a strictly sequential invocation
//! order ⇒ the solo-replay bit-identity invariant holds by construction.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};
use veal_accel::{AcceleratorConfig, AcceleratorFamily};
use veal_cca::CcaSpec;
use veal_ir::LoopBody;
use veal_obs::{metrics, Counter, Event, Histogram, Trace};
use veal_vm::{
    encode_warm_state, restore_warm_state, save_atomic, CacheStats, CodeCache, ConcretizeStats,
    EncodeError, MemoBackend, MemoStats, RestoreReport, ShardedMemo, StaticHints, TranslatedLoop,
    TranslationPolicy, Translator, VmSession, VmStats,
};

/// Process-global serve-path meters (PR 4 rule: the service increments,
/// reporting reads; local counters stay the source of truth for reports).
struct ServeMeters {
    offered: &'static Counter,
    shed: &'static Counter,
    completed: &'static Counter,
    batches: &'static Counter,
    latency_ns: &'static Histogram,
    checkpoints: &'static Counter,
    checkpoint_retries: &'static Counter,
    checkpoint_failures: &'static Counter,
}

fn meters() -> &'static ServeMeters {
    static M: OnceLock<ServeMeters> = OnceLock::new();
    M.get_or_init(|| ServeMeters {
        offered: metrics::counter("serve.requests.offered"),
        shed: metrics::counter("serve.requests.shed"),
        completed: metrics::counter("serve.requests.completed"),
        batches: metrics::counter("serve.batches"),
        latency_ns: metrics::histogram("serve.request.wall_ns"),
        checkpoints: metrics::counter("serve.checkpoints"),
        checkpoint_retries: metrics::counter("serve.checkpoint.retries"),
        checkpoint_failures: metrics::counter("serve.checkpoint.failures"),
    })
}

/// One translation request in the stream.
#[derive(Debug, Clone)]
pub struct Request {
    /// Which tenant issued it (dense indices from 0).
    pub tenant: usize,
    /// The tenant's invocation key for the loop.
    pub key: u64,
    /// The loop to translate. Shared bodies (`Arc`) model binaries that
    /// embed the same kernel — the cross-tenant duplication the memo and
    /// single-flight exist to absorb.
    pub body: Arc<LoopBody>,
    /// Static hints shipped with the binary.
    pub hints: Arc<StaticHints>,
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads draining the ready queue.
    pub threads: usize,
    /// Max requests drained per tenant per dispatch turn. Larger batches
    /// amortize dispatch overhead; smaller ones interleave tenants more
    /// fairly.
    pub batch_size: usize,
    /// Per-tenant admission-queue bound; the oldest queued request is shed
    /// when a tenant's queue is full.
    pub queue_capacity: usize,
    /// Per-tenant code-cache entries.
    pub cache_entries: usize,
    /// Optional per-tenant code-cache byte budget (oversized translations
    /// are rejected, never overcommitted).
    pub cache_byte_budget: Option<usize>,
    /// Optional per-translation watchdog budget, in abstract units.
    pub translation_budget: Option<u64>,
    /// Accelerator design point every tenant translates for.
    pub config: AcceleratorConfig,
    /// CCA specification, when the design has a CCA.
    pub cca: Option<CcaSpec>,
    /// Translation policy (hint consumption vs. fully dynamic).
    pub policy: TranslationPolicy,
    /// Optional accelerator family for symbolic serving: when present and
    /// it contains [`ServeConfig::config`], tenant sessions memoize one
    /// [`veal_vm::SymbolicTranslation`] per loop under the family
    /// fingerprint and concretize per request (see
    /// [`veal_vm::VmSession::with_family`]). Tenant-visible statistics are
    /// bit-identical to point-keyed serving.
    pub family: Option<Arc<AcceleratorFamily>>,
}

impl ServeConfig {
    /// The paper design point with serving defaults: 16-entry caches,
    /// batch of 8, 64-deep queues.
    #[must_use]
    pub fn paper() -> Self {
        ServeConfig {
            threads: veal_par::thread_count(),
            batch_size: 8,
            queue_capacity: 64,
            cache_entries: 16,
            cache_byte_budget: None,
            translation_budget: None,
            config: AcceleratorConfig::paper_design(),
            cca: Some(CcaSpec::paper()),
            policy: TranslationPolicy::static_hints(),
            family: None,
        }
    }

    /// A solo session configured exactly like the service's per-tenant
    /// sessions, minus the shared memo: the reference for the differential
    /// determinism tests.
    #[must_use]
    pub fn solo_session(&self) -> VmSession {
        let mut session = VmSession::with_cache(self.translator(), self.cache());
        if let Some(units) = self.translation_budget {
            session = session.with_translation_budget(units);
        }
        session
    }

    fn translator(&self) -> Translator {
        Translator::new(self.config.clone(), self.cca.clone(), self.policy)
    }

    fn cache(&self) -> CodeCache<Arc<TranslatedLoop>> {
        match self.cache_byte_budget {
            Some(bytes) => CodeCache::with_byte_budget(self.cache_entries, bytes),
            None => CodeCache::new(self.cache_entries),
        }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Periodic warm-state checkpointing for crash recovery.
///
/// When attached ([`TranslationService::with_checkpoints`]), the service
/// writes the shared memo to `path` with [`veal_vm::save_atomic`] after
/// every `every_windows` windows of a [`TranslationService::run_windowed`]
/// call, plus once at the end of every run (the shutdown snapshot). Writes
/// never block correctness: a failing write is retried with doubling
/// backoff up to `max_retries` times, then abandoned — the previous
/// on-disk checkpoint survives intact either way, because the write is
/// temp-file-plus-rename.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Snapshot destination; the parent directory must exist.
    pub path: PathBuf,
    /// Checkpoint cadence in windows (0 = shutdown snapshot only).
    pub every_windows: usize,
    /// Write attempts beyond the first before a checkpoint is abandoned.
    pub max_retries: u32,
    /// Sleep before the first retry; doubles on each subsequent one.
    pub backoff: Duration,
}

impl CheckpointPolicy {
    /// A policy with serving defaults: checkpoint every 4 windows, 3
    /// retries, 10 ms initial backoff.
    #[must_use]
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CheckpointPolicy {
            path: path.into(),
            every_windows: 4,
            max_retries: 3,
            backoff: Duration::from_millis(10),
        }
    }
}

/// Counters of one [`TranslationService::run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests in the stream.
    pub offered: u64,
    /// Requests dropped by shed-oldest backpressure.
    pub shed: u64,
    /// Requests processed to completion (`offered - shed`).
    pub completed: u64,
    /// Dispatch turns taken (tenant drains of up to `batch_size`).
    pub batches: u64,
    /// Translations actually computed through the memo this run.
    pub computes: u64,
    /// Lookups coalesced onto another thread's in-flight translation.
    pub coalesced: u64,
    /// Redundant translations this run (`computes` minus new memo
    /// entries); 0 under single-flight.
    pub duplicate_translations: u64,
    /// Family-mode concretizations across all tenants this run (0 when
    /// [`ServeConfig::family`] is unset).
    pub concretizations: u64,
    /// Host work charged to those concretizations, in abstract units.
    pub concretize_units: u64,
    /// Shared-memo counters at the end of the run (cumulative across runs
    /// on the same service).
    pub memo: MemoStats,
    /// Checkpoints written to disk this run (periodic + shutdown).
    pub checkpoints: u64,
    /// Checkpoint write attempts beyond the first, summed over the run
    /// (nonzero means the filesystem pushed back).
    pub checkpoint_retries: u64,
    /// Host wall time of the run.
    pub wall_ns: u64,
}

/// One completed request, in the tenant's processing (= admission) order.
#[derive(Debug, Clone)]
pub struct RequestOutcome {
    /// Index of the request in the offered stream.
    pub seq: usize,
    /// The tenant's invocation key.
    pub key: u64,
    /// The resident translation, when the loop mapped.
    pub translated: Option<Arc<TranslatedLoop>>,
    /// Simulated cycles this invocation charged (0 on a code-cache hit).
    pub translation_cycles: u64,
    /// Host wall time from admission to completion.
    pub latency_ns: u64,
}

/// Everything one tenant's session produced.
#[derive(Debug)]
pub struct TenantReport {
    /// Tenant index.
    pub tenant: usize,
    /// The session's statistics — bit-identical to a solo replay.
    pub stats: VmStats,
    /// The session's code-cache statistics.
    pub cache: CacheStats,
    /// Family-mode concretization counters (zeroes outside family mode).
    pub concretize: ConcretizeStats,
    /// Completed requests in processing order.
    pub outcomes: Vec<RequestOutcome>,
}

/// The result of serving one request stream.
#[derive(Debug)]
pub struct ServeReport {
    /// Run-level counters.
    pub stats: ServeStats,
    /// Per-tenant sessions, indexed by tenant.
    pub tenants: Vec<TenantReport>,
}

impl ServeReport {
    /// All completion latencies, ascending.
    #[must_use]
    pub fn sorted_latencies_ns(&self) -> Vec<u64> {
        let mut all: Vec<u64> = self
            .tenants
            .iter()
            .flat_map(|t| t.outcomes.iter().map(|o| o.latency_ns))
            .collect();
        all.sort_unstable();
        all
    }
}

/// A queued request awaiting dispatch.
struct Admitted {
    seq: usize,
    key: u64,
    body: Arc<LoopBody>,
    hints: Arc<StaticHints>,
    admitted_at: Instant,
}

/// One tenant's serving state; locked as a unit, so exactly one worker
/// drains a tenant at any moment.
struct TenantState {
    session: VmSession,
    queue: VecDeque<Admitted>,
    outcomes: Vec<RequestOutcome>,
}

impl TenantState {
    fn process(&mut self, req: Admitted) {
        let inv = self.session.invoke(req.key, &req.body, &req.hints);
        let latency_ns = u64::try_from(req.admitted_at.elapsed().as_nanos()).unwrap_or(u64::MAX);
        meters().latency_ns.record(latency_ns);
        meters().completed.inc();
        self.outcomes.push(RequestOutcome {
            seq: req.seq,
            key: req.key,
            translated: inv.translated,
            translation_cycles: inv.translation_cycles,
            latency_ns,
        });
    }
}

/// Doubling backoff for the `retry`-th (0-based) checkpoint retry. The
/// exponent is clamped before the shift: `1u32 << retry` overflows (debug
/// panic, release wrap-to-tiny) once a generous retry budget pushes
/// `retry ≥ 32`, and past 2^20 doublings the multiply saturates anyway.
fn retry_backoff(base: Duration, retry: u64) -> Duration {
    let exp = u32::try_from(retry).unwrap_or(u32::MAX).min(20);
    base.saturating_mul(1u32 << exp)
}

/// Lock stripes of the shared memo: enough that tenants on different keys
/// rarely contend, at the default thread counts.
const MEMO_SHARDS: usize = 8;

/// Worker coordination for one drain phase.
struct Dispatch {
    /// Tenant indices with queued work and no worker attached.
    ready: Mutex<VecDeque<usize>>,
    wake: Condvar,
    /// Admitted requests not yet completed this phase.
    remaining: AtomicUsize,
    done: AtomicBool,
}

/// The multi-tenant translation service. See the crate docs for the
/// architecture and the determinism invariant.
#[derive(Debug)]
pub struct TranslationService {
    config: ServeConfig,
    memo: Arc<ShardedMemo>,
    trace: Trace,
    checkpoint: Option<CheckpointPolicy>,
}

impl TranslationService {
    /// Creates a service; the shared memo lives as long as the service, so
    /// successive runs reuse translations (warm arms).
    #[must_use]
    pub fn new(config: ServeConfig) -> Self {
        TranslationService {
            config,
            memo: Arc::new(ShardedMemo::new(MEMO_SHARDS)),
            trace: Trace::null(),
            checkpoint: None,
        }
    }

    /// Attaches a trace handle cloned into every tenant session. Sinks are
    /// line-atomic ([`veal_obs::JsonlSink`]), so concurrent tenants produce
    /// a valid (interleaved) JSONL stream.
    #[must_use]
    pub fn with_trace(mut self, trace: Trace) -> Self {
        self.trace = trace;
        self
    }

    /// Attaches a checkpoint policy: [`TranslationService::run_windowed`]
    /// persists the shared memo periodically and at the end of each run.
    #[must_use]
    pub fn with_checkpoints(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = Some(policy);
        self
    }

    /// The service configuration.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The shared memo (for duplicate-translation accounting in tests and
    /// benchmarks).
    #[must_use]
    pub fn memo(&self) -> &Arc<ShardedMemo> {
        &self.memo
    }

    /// Serializes the service's warm state — the shared memo — into the
    /// [`veal_vm::snapshot`] wire format. Tenant code caches are per-run
    /// state and are not captured; a restored service rebuilds them from
    /// the memo at full fidelity (cached cycles replay from the entries).
    ///
    /// # Errors
    ///
    /// [`EncodeError`] when a count or id overflows the format's
    /// fixed-width fields (implausibly oversized state; never silently
    /// truncated).
    pub fn save_snapshot(&self) -> Result<Vec<u8>, EncodeError> {
        let translator = self.config.translator();
        let family_fp = self
            .config
            .family
            .as_ref()
            .map(|f| translator.family_fingerprint(f));
        encode_warm_state(
            translator.fingerprint(),
            family_fp,
            &self.memo.export_entries(),
            &[],
        )
    }

    /// Restores warm state from untrusted snapshot bytes into the shared
    /// memo. Every entry is re-validated against this service's translator
    /// and family fingerprints; damaged or stale entries are skipped and
    /// counted, and arbitrary bytes at worst leave the service cold — this
    /// never fails and never panics.
    pub fn restore_snapshot(&self, bytes: &[u8]) -> RestoreReport {
        let translator = self.config.translator();
        let family_fp = self
            .config
            .family
            .as_ref()
            .map(|f| translator.family_fingerprint(f));
        let report = restore_warm_state(bytes, &translator, family_fp, Some(&*self.memo), None);
        self.trace.emit(|| Event::SnapshotRestore {
            restored: report.restored(),
            salvaged: report.salvaged,
            rejected: report.rejected,
        });
        report
    }

    /// Writes one checkpoint under the policy's retry budget. Failure —
    /// including un-encodable warm state — is absorbed (counted, never
    /// propagated); the previous on-disk checkpoint survives intact.
    pub(crate) fn write_checkpoint(&self, policy: &CheckpointPolicy, stats: &mut ServeStats) {
        let Ok(bytes) = self.save_snapshot() else {
            meters().checkpoint_failures.inc();
            return;
        };
        let mut retries = 0u64;
        loop {
            match save_atomic(&policy.path, &bytes) {
                Ok(()) => {
                    stats.checkpoints += 1;
                    meters().checkpoints.inc();
                    self.trace.emit(|| Event::CheckpointWrite {
                        bytes: bytes.len() as u64,
                        retries,
                    });
                    return;
                }
                Err(_) if retries < u64::from(policy.max_retries) => {
                    stats.checkpoint_retries += 1;
                    meters().checkpoint_retries.inc();
                    std::thread::sleep(retry_backoff(policy.backoff, retries));
                    retries += 1;
                }
                Err(_) => {
                    meters().checkpoint_failures.inc();
                    return;
                }
            }
        }
    }

    /// The attached checkpoint policy, if any (graceful-shutdown paths
    /// outside this module write the final snapshot through it).
    pub(crate) fn checkpoint_policy(&self) -> Option<&CheckpointPolicy> {
        self.checkpoint.as_ref()
    }

    /// The attached trace handle (the network reactor emits its
    /// connection-lifecycle events into the same stream the sessions use).
    pub(crate) fn trace(&self) -> &Trace {
        &self.trace
    }

    /// One tenant's serving state, configured exactly like
    /// [`ServeConfig::solo_session`] plus the shared memo and trace — the
    /// construction every [`SessionPool`] uses, so the bit-identity
    /// invariant holds for every entry point.
    fn tenant_state(&self) -> TenantState {
        let mut session = self
            .config
            .solo_session()
            .with_memo_backend(Arc::clone(&self.memo) as Arc<dyn MemoBackend>)
            .with_trace(self.trace.clone());
        if let Some(family) = &self.config.family {
            session = session.with_family(Arc::clone(family));
        }
        TenantState {
            session,
            queue: VecDeque::new(),
            outcomes: Vec::new(),
        }
    }

    /// Creates a [`SessionPool`]: persistent per-tenant sessions for
    /// callers that feed requests incrementally (the network reactor in
    /// [`crate::net`]) instead of as one pre-materialized stream. The pool
    /// borrows the service, so it shares the memo, trace, and config.
    #[must_use]
    pub fn session_pool(&self, tenant_count: usize) -> SessionPool<'_> {
        SessionPool {
            service: self,
            tenants: (0..tenant_count)
                .map(|_| Mutex::new(self.tenant_state()))
                .collect(),
            stats: ServeStats::default(),
        }
    }

    /// Serves the whole stream open-loop: every request is admitted up
    /// front (shedding under the queue bound), then drained to completion.
    #[must_use]
    pub fn run(&self, requests: &[Request]) -> ServeReport {
        self.run_windowed(requests, usize::MAX)
    }

    /// Closed-loop serving: admit `window` requests, drain them, repeat.
    /// Shedding only occurs when a single window overruns a tenant's queue
    /// bound, so the window size is the offered-load knob.
    ///
    /// Every request goes through one [`SessionPool`], under the token of
    /// its index in `requests`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is 0.
    #[must_use]
    pub fn run_windowed(&self, requests: &[Request], window: usize) -> ServeReport {
        assert!(window > 0, "window must be positive");
        let t0 = Instant::now();
        let computes_before = self.memo.computes();
        let coalesced_before = self.memo.coalesced();
        let entries_before = MemoBackend::stats(&*self.memo).entries as u64;

        let tenant_count = requests.iter().map(|r| r.tenant + 1).max().unwrap_or(0);
        let mut pool = self.session_pool(tenant_count);
        let mut base = 0usize;
        let mut windows = 0usize;
        for chunk in requests.chunks(window.min(requests.len().max(1))) {
            // Admission is single-threaded and precedes the drain, so which
            // requests survive the queue bound is a pure function of the
            // stream — shedding is deterministic regardless of threads.
            for (offset, r) in chunk.iter().enumerate() {
                pool.admit(
                    r.tenant,
                    base + offset,
                    r.key,
                    Arc::clone(&r.body),
                    Arc::clone(&r.hints),
                );
            }
            base += chunk.len();
            pool.drain();
            windows += 1;
            if let Some(policy) = &self.checkpoint {
                if policy.every_windows > 0 && windows.is_multiple_of(policy.every_windows) {
                    self.write_checkpoint(policy, &mut pool.stats);
                }
            }
        }
        // The shutdown snapshot: every run ends with the warm state on
        // disk, so a crash between runs costs nothing.
        if let Some(policy) = &self.checkpoint {
            self.write_checkpoint(policy, &mut pool.stats);
        }

        let mut stats = pool.stats;
        stats.completed = stats.offered - stats.shed;
        stats.computes = self.memo.computes() - computes_before;
        stats.coalesced = self.memo.coalesced() - coalesced_before;
        let new_entries = MemoBackend::stats(&*self.memo).entries as u64 - entries_before;
        stats.duplicate_translations = stats.computes.saturating_sub(new_entries);
        stats.memo = MemoBackend::stats(&*self.memo);
        stats.wall_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);

        let tenants = pool.into_reports();
        // Concretize counters are session-lifetime; windowed runs reuse the
        // sessions across windows, so per-run totals are exact here.
        stats.concretizations = tenants.iter().map(|t| t.concretize.concretizations).sum();
        stats.concretize_units = tenants.iter().map(|t| t.concretize.units).sum();
        ServeReport { stats, tenants }
    }

    /// Drains every queued request; returns the number of dispatch turns.
    fn drain(&self, tenants: &[Mutex<TenantState>]) -> u64 {
        let mut ready = VecDeque::new();
        let mut total = 0usize;
        for (i, t) in tenants.iter().enumerate() {
            let n = t.lock().unwrap_or_else(PoisonError::into_inner).queue.len();
            if n > 0 {
                ready.push_back(i);
                total += n;
            }
        }
        if total == 0 {
            return 0;
        }
        let dispatch = Dispatch {
            ready: Mutex::new(ready),
            wake: Condvar::new(),
            remaining: AtomicUsize::new(total),
            done: AtomicBool::new(false),
        };
        let batches = AtomicU64::new(0);
        let batch_size = self.config.batch_size.max(1);
        let workers = self.config.threads.max(1).min(tenants.len());
        if workers == 1 {
            Self::worker(&dispatch, tenants, batch_size, &batches);
        } else {
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| Self::worker(&dispatch, tenants, batch_size, &batches));
                }
            });
        }
        batches.load(Ordering::Relaxed)
    }

    fn worker(
        dispatch: &Dispatch,
        tenants: &[Mutex<TenantState>],
        batch_size: usize,
        batches: &AtomicU64,
    ) {
        loop {
            let idx = {
                let mut ready = dispatch
                    .ready
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                loop {
                    if let Some(i) = ready.pop_front() {
                        break i;
                    }
                    if dispatch.done.load(Ordering::Acquire) {
                        return;
                    }
                    ready = dispatch
                        .wake
                        .wait(ready)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            let mut tenant = tenants[idx].lock().unwrap_or_else(PoisonError::into_inner);
            let drained = batch_size.min(tenant.queue.len());
            for _ in 0..drained {
                let req = tenant.queue.pop_front().expect("counted above");
                tenant.process(req);
            }
            let more = !tenant.queue.is_empty();
            drop(tenant);
            batches.fetch_add(1, Ordering::Relaxed);
            meters().batches.inc();
            if more {
                let mut ready = dispatch
                    .ready
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                ready.push_back(idx);
                dispatch.wake.notify_one();
            }
            if dispatch.remaining.fetch_sub(drained, Ordering::AcqRel) == drained {
                // Publish `done` under the ready mutex: idle workers check
                // the flag between locking and wait(), so an unlocked
                // store+notify could land inside that window, the wakeup
                // would be lost, and the waiter would park forever.
                let _ready = dispatch
                    .ready
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                dispatch.done.store(true, Ordering::Release);
                dispatch.wake.notify_all();
            }
        }
    }
}

/// Persistent per-tenant sessions behind the service's one admission,
/// shedding, and dispatch path: [`TranslationService::run_windowed`] feeds
/// it one window of a pre-materialized stream at a time, and the network
/// reactor in [`crate::net`] one decoded frame at a time.
///
/// The serving invariant carries over unchanged: admission happens on the
/// caller's single thread (deterministic shed-oldest under the queue
/// bound), at most one worker drains a tenant at a time, and a tenant's
/// outcomes land in admission order — so per-tenant statistics and
/// schedules are bit-identical to a solo replay of that tenant's request
/// order.
///
/// Each admitted request carries a caller-chosen `token` (surfaced as
/// [`RequestOutcome::seq`]); the reactor packs a connection slot and a
/// client sequence number into it to route completed work back to the
/// right socket.
pub struct SessionPool<'a> {
    service: &'a TranslationService,
    tenants: Vec<Mutex<TenantState>>,
    stats: ServeStats,
}

impl SessionPool<'_> {
    /// Queues one request for `tenant`, growing the pool if the tenant is
    /// new, and returns the tokens of any requests shed to keep the queue
    /// within [`ServeConfig::queue_capacity`] (oldest first). Admission is
    /// caller-threaded, so shedding stays a pure function of the admission
    /// order.
    pub fn admit(
        &mut self,
        tenant: usize,
        token: usize,
        key: u64,
        body: Arc<LoopBody>,
        hints: Arc<StaticHints>,
    ) -> Vec<usize> {
        while self.tenants.len() <= tenant {
            self.tenants.push(Mutex::new(self.service.tenant_state()));
        }
        self.stats.offered += 1;
        meters().offered.inc();
        let mut state = self.tenants[tenant]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let mut shed = Vec::new();
        while state.queue.len() >= self.service.config.queue_capacity.max(1) {
            let old = state.queue.pop_front().expect("len checked above");
            shed.push(old.seq);
            self.stats.shed += 1;
            meters().shed.inc();
        }
        state.queue.push_back(Admitted {
            seq: token,
            key,
            body,
            hints,
            admitted_at: Instant::now(),
        });
        shed
    }

    /// Drains every queued request through the worker pool; returns the
    /// dispatch turns taken.
    pub fn drain(&mut self) -> u64 {
        let batches = self.service.drain(&self.tenants);
        self.stats.batches += batches;
        batches
    }

    /// Removes and returns `tenant`'s completed outcomes, in processing
    /// (= admission) order. Empty for an unknown tenant or between drains.
    pub fn take_outcomes(&mut self, tenant: usize) -> Vec<RequestOutcome> {
        let outcomes = self.tenants.get(tenant).map_or_else(Vec::new, |t| {
            std::mem::take(&mut t.lock().unwrap_or_else(PoisonError::into_inner).outcomes)
        });
        // Local completion accounting: the process-global meter already
        // ticks inside `TenantState::process`.
        self.stats.completed += outcomes.len() as u64;
        outcomes
    }

    /// Pool-level counters (offered / shed / completed / batches)
    /// accumulated so far; `completed` counts outcomes already handed back
    /// through [`SessionPool::take_outcomes`].
    #[must_use]
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Tears the pool down into per-tenant reports. Outcomes already
    /// removed by [`SessionPool::take_outcomes`] are not replayed here —
    /// only the sessions' cumulative statistics and anything not yet taken.
    #[must_use]
    pub fn into_reports(self) -> Vec<TenantReport> {
        self.tenants
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                let t = t.into_inner().unwrap_or_else(PoisonError::into_inner);
                TenantReport {
                    tenant: i,
                    stats: t.session.stats().clone(),
                    cache: t.session.cache_stats(),
                    concretize: t.session.concretize_stats(),
                    outcomes: t.outcomes,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::{generate, LoadSpec};

    fn small_stream(requests: usize) -> (ServeConfig, Vec<Request>) {
        let cfg = ServeConfig::paper();
        let spec = LoadSpec {
            requests,
            tenants: 3,
            ..LoadSpec::default()
        };
        let stream = generate(&spec, &cfg.config, cfg.cca.as_ref());
        (cfg, stream)
    }

    #[test]
    fn a_run_completes_every_admitted_request() {
        let (cfg, stream) = small_stream(60);
        let service = TranslationService::new(cfg);
        let report = service.run(&stream);
        assert_eq!(report.stats.offered, 60);
        assert_eq!(report.stats.shed, 0, "default queues are deep enough");
        assert_eq!(report.stats.completed, 60);
        let outcomes: usize = report.tenants.iter().map(|t| t.outcomes.len()).sum();
        assert_eq!(outcomes, 60);
        assert!(report.stats.computes > 0, "a cold memo must compute");
        assert_eq!(report.stats.duplicate_translations, 0);
        // Each tenant saw its slice of the stream, in stream order.
        for t in &report.tenants {
            for (a, b) in t.outcomes.iter().zip(t.outcomes.iter().skip(1)) {
                assert!(a.seq < b.seq, "tenant {} processed out of order", t.tenant);
            }
        }
    }

    #[test]
    fn overload_sheds_the_oldest_requests() {
        let (mut cfg, stream) = small_stream(90);
        cfg.queue_capacity = 4;
        let service = TranslationService::new(cfg);
        let report = service.run(&stream);
        assert_eq!(report.stats.offered, 90);
        assert_eq!(report.stats.shed, 90 - 3 * 4);
        assert_eq!(report.stats.completed, 12);
        // Shed-oldest: the survivors are each tenant's *newest* requests.
        for t in &report.tenants {
            assert_eq!(t.outcomes.len(), 4);
            let mut newest: Vec<usize> = stream
                .iter()
                .enumerate()
                .filter(|(_, r)| r.tenant == t.tenant)
                .map(|(i, _)| i)
                .collect();
            newest.drain(..newest.len() - 4);
            let got: Vec<usize> = t.outcomes.iter().map(|o| o.seq).collect();
            assert_eq!(got, newest, "tenant {}", t.tenant);
        }
    }

    #[test]
    fn many_workers_with_scarce_work_always_terminate() {
        // Regression: `done` was published without holding the ready
        // mutex, so the final notify_all could land between an idle
        // worker's done-check and its wait(), get lost, and park that
        // worker forever. Many workers racing over little work maximizes
        // the window; repeated drains make a reintroduced lost wakeup
        // hang here rather than nondeterministically in CI at large.
        let mut cfg = ServeConfig::paper();
        cfg.threads = 8;
        cfg.batch_size = 1;
        let spec = LoadSpec {
            requests: 16,
            tenants: 8,
            ..LoadSpec::default()
        };
        let stream = generate(&spec, &cfg.config, cfg.cca.as_ref());
        let service = TranslationService::new(cfg);
        for _ in 0..200 {
            let report = service.run(&stream);
            assert_eq!(report.stats.completed, 16);
        }
    }

    #[test]
    fn windowed_runs_shed_nothing_the_open_loop_run_would_keep() {
        let (mut cfg, stream) = small_stream(90);
        cfg.queue_capacity = 4;
        let service = TranslationService::new(cfg);
        // Windows no larger than tenants × capacity never overrun a queue.
        let report = service.run_windowed(&stream, 12);
        assert_eq!(report.stats.shed, 0);
        assert_eq!(report.stats.completed, 90);
    }

    #[test]
    fn family_mode_serving_is_bit_identical_under_contention() {
        // 8 workers hammering a shared symbolic memo: tenant stats must
        // equal point-keyed serving's exactly, single-flight must still
        // dedupe leaders, and every request pays a local concretization.
        let (mut cfg, stream) = small_stream(96);
        cfg.threads = 8;
        let point = TranslationService::new(cfg.clone()).run(&stream);
        cfg.family = Some(Arc::new(AcceleratorFamily::point(&cfg.config)));
        let service = TranslationService::new(cfg);
        let family = service.run(&stream);

        assert_eq!(family.stats.completed, point.stats.completed);
        assert_eq!(family.stats.duplicate_translations, 0);
        let translate_attempts: u64 = family.tenants.iter().map(|t| t.stats.translations).sum();
        assert_eq!(
            family.stats.concretizations, translate_attempts,
            "every code-cache-missing invocation concretizes its family entry"
        );
        assert!(family.stats.concretize_units > 0);
        assert_eq!(point.stats.concretizations, 0);
        for (p, f) in point.tenants.iter().zip(&family.tenants) {
            assert_eq!(p.stats, f.stats, "tenant {}", p.tenant);
            for (a, b) in p.outcomes.iter().zip(&f.outcomes) {
                assert_eq!(a.seq, b.seq);
                assert_eq!(a.translation_cycles, b.translation_cycles);
            }
        }
        // Warm family run: zero computes, same stats again.
        let warm = service.run(&stream);
        assert_eq!(warm.stats.computes, 0);
        for (p, w) in point.tenants.iter().zip(&warm.tenants) {
            assert_eq!(p.stats, w.stats);
        }
    }

    #[test]
    fn a_restored_service_serves_warm_and_bit_identical() {
        let (cfg, stream) = small_stream(60);
        let origin = TranslationService::new(cfg.clone());
        let cold = origin.run(&stream);
        let snapshot = origin.save_snapshot().expect("snapshot encodes");
        drop(origin); // the "crash"

        let revived = TranslationService::new(cfg);
        let report = revived.restore_snapshot(&snapshot);
        assert!(report.restored() > 0);
        assert_eq!(report.salvaged, 0);
        assert_eq!(report.rejected, 0);
        let warm = revived.run(&stream);
        assert_eq!(warm.stats.computes, 0, "restored memo must absorb all work");
        assert_eq!(warm.stats.duplicate_translations, 0);
        for (c, w) in cold.tenants.iter().zip(&warm.tenants) {
            assert_eq!(c.stats, w.stats, "tenant {}", c.tenant);
            for (a, b) in c.outcomes.iter().zip(&w.outcomes) {
                assert_eq!(a.seq, b.seq);
                assert_eq!(a.translation_cycles, b.translation_cycles);
            }
        }
        // The restored memo re-encodes to the very bytes it came from.
        assert_eq!(revived.save_snapshot().expect("snapshot encodes"), snapshot);
    }

    #[test]
    fn family_mode_snapshots_restore_the_symbolic_entries() {
        // Regression: family entries are memo-keyed under the translator's
        // *family fingerprint* (config axes folded in), not the family's
        // own fingerprint — a snapshot keyed on the wrong one restores
        // nothing.
        let (mut cfg, stream) = small_stream(48);
        cfg.family = Some(Arc::new(AcceleratorFamily::point(&cfg.config)));
        let origin = TranslationService::new(cfg.clone());
        let cold = origin.run(&stream);
        let snapshot = origin.save_snapshot().expect("snapshot encodes");
        let revived = TranslationService::new(cfg);
        let report = revived.restore_snapshot(&snapshot);
        assert!(report.families > 0, "symbolic entries must land");
        assert_eq!(report.salvaged + report.rejected, 0);
        let warm = revived.run(&stream);
        assert_eq!(warm.stats.computes, 0);
        assert!(warm.stats.concretizations > 0, "family mode still serves");
        for (c, w) in cold.tenants.iter().zip(&warm.tenants) {
            assert_eq!(c.stats, w.stats, "tenant {}", c.tenant);
        }
    }

    #[test]
    fn garbage_snapshots_leave_a_service_cold_but_working() {
        let (cfg, stream) = small_stream(30);
        let service = TranslationService::new(cfg);
        let report = service.restore_snapshot(b"not a snapshot at all");
        assert!(report.is_cold());
        let run = service.run(&stream);
        assert_eq!(run.stats.completed, 30);
        assert!(run.stats.computes > 0);
    }

    #[test]
    fn windowed_runs_checkpoint_on_cadence_plus_shutdown() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("veal-serve-ckpt-{}.vsnp", std::process::id()));
        let (cfg, stream) = small_stream(60);
        let policy = CheckpointPolicy {
            path: path.clone(),
            every_windows: 2,
            max_retries: 0,
            backoff: Duration::ZERO,
        };
        let service = TranslationService::new(cfg.clone()).with_checkpoints(policy);
        // 60 requests in windows of 10 = 6 windows: periodic checkpoints
        // after windows 2, 4, 6, plus the shutdown snapshot.
        let report = service.run_windowed(&stream, 10);
        assert_eq!(report.stats.checkpoints, 4);
        assert_eq!(report.stats.checkpoint_retries, 0);

        // The shutdown snapshot on disk revives a fresh service warm.
        let bytes = std::fs::read(&path).expect("shutdown checkpoint exists");
        std::fs::remove_file(&path).ok();
        let revived = TranslationService::new(cfg);
        assert!(revived.restore_snapshot(&bytes).restored() > 0);
        assert_eq!(revived.run(&stream).stats.computes, 0);
    }

    #[test]
    fn checkpoint_write_failure_is_bounded_and_absorbed() {
        let (cfg, stream) = small_stream(20);
        let policy = CheckpointPolicy {
            path: PathBuf::from("/nonexistent-veal-dir/ckpt.vsnp"),
            every_windows: 0, // shutdown snapshot only
            max_retries: 2,
            backoff: Duration::ZERO,
        };
        let service = TranslationService::new(cfg).with_checkpoints(policy);
        let report = service.run_windowed(&stream, 10);
        assert_eq!(report.stats.completed, 20, "serving must not be harmed");
        assert_eq!(report.stats.checkpoints, 0);
        assert_eq!(report.stats.checkpoint_retries, 2);
    }

    #[test]
    fn retry_backoff_clamps_the_exponent_for_any_retry_budget() {
        let base = Duration::from_millis(10);
        assert_eq!(retry_backoff(base, 0), base);
        assert_eq!(retry_backoff(base, 1), base * 2);
        assert_eq!(retry_backoff(base, 3), base * 8);
        // Past the clamp the backoff plateaus instead of overflowing the
        // shift (`1u32 << 32` was a debug panic / release wrap-to-tiny).
        let plateau = retry_backoff(base, 20);
        assert_eq!(plateau, base * (1 << 20));
        for retry in [21, 31, 32, 33, 63, 64, 1_000, u64::from(u32::MAX), u64::MAX] {
            assert_eq!(retry_backoff(base, retry), plateau, "retry {retry}");
        }
        // Saturation, not overflow, when base × 2^20 exceeds Duration.
        assert_eq!(
            retry_backoff(Duration::from_secs(u64::MAX / 2), u64::MAX),
            Duration::MAX
        );
    }

    #[test]
    fn a_large_retry_budget_survives_past_the_shift_width() {
        // Regression for the unclamped `1 << exp` shift: a retry budget
        // past 32 walks the real retry loop through exponents that used to
        // overflow. Zero base backoff keeps the walk instant.
        let (cfg, stream) = small_stream(10);
        let policy = CheckpointPolicy {
            path: PathBuf::from("/nonexistent-veal-dir/ckpt.vsnp"),
            every_windows: 0, // shutdown snapshot only
            max_retries: 40,
            backoff: Duration::ZERO,
        };
        let service = TranslationService::new(cfg).with_checkpoints(policy);
        let report = service.run_windowed(&stream, 10);
        assert_eq!(report.stats.completed, 10, "serving must not be harmed");
        assert_eq!(report.stats.checkpoints, 0);
        assert_eq!(report.stats.checkpoint_retries, 40);
    }

    #[test]
    fn a_warm_memo_computes_nothing_new() {
        let (cfg, stream) = small_stream(60);
        let service = TranslationService::new(cfg);
        let cold = service.run(&stream);
        let warm = service.run(&stream);
        assert!(cold.stats.computes > 0);
        assert_eq!(warm.stats.computes, 0, "second run must be all memo hits");
        assert_eq!(warm.stats.duplicate_translations, 0);
        // The memo cannot change what a tenant observes: the warm run's
        // per-tenant stats are bit-identical to the cold run's.
        for (c, w) in cold.tenants.iter().zip(&warm.tenants) {
            assert_eq!(c.stats, w.stats);
            assert_eq!(c.outcomes.len(), w.outcomes.len());
        }
    }
}
