//! A thread-safe translation memo table for the design-space sweep engine.
//!
//! Figure sweeps evaluate many `(AcceleratorConfig, CcaSpec, policy)`
//! points over the same application suite, and many applications share loop
//! bodies (the suite reuses kernels at different profiles, and legalized
//! parts repeat). The [`TranslationMemo`] caches per-loop translation
//! results keyed on the loop's *content* hash plus the translator's
//! fingerprint, so each distinct `(loop, configuration, policy, hints)`
//! combination is scheduled exactly once per sweep regardless of how many
//! apps, figure rows, or repeated runs touch it.
//!
//! Replay is exact: a memo hit hands back the original
//! [`crate::TranslationOutcome`]'s result *and* phase breakdown, and
//! [`crate::VmSession`] charges its statistics from the stored breakdown
//! exactly as a fresh translation would — so memoized runs produce
//! bit-identical simulated numbers.

use crate::translator::{SymbolicTranslation, TranslatedLoop, TranslationError};
use crate::verify::HintVerdict;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use veal_ir::rng::Fnv64;
use veal_ir::PhaseBreakdown;
use veal_obs::{metrics, Counter};

/// Process-global hit/miss counters across *all* memo tables, so a sweep's
/// aggregate memo efficiency shows up in one metrics snapshot. Per-table
/// numbers stay in [`MemoStats`].
fn global_counters() -> (&'static Counter, &'static Counter) {
    static C: OnceLock<(&'static Counter, &'static Counter)> = OnceLock::new();
    *C.get_or_init(|| {
        (
            metrics::counter("vm.memo.hits"),
            metrics::counter("vm.memo.misses"),
        )
    })
}

/// Identity of one memoized translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemoKey {
    /// [`veal_ir::LoopBody::content_hash`] of the translated body.
    pub loop_hash: u64,
    /// [`crate::Translator::fingerprint`]: configuration ⊕ CCA ⊕ policy.
    pub translator_fp: u64,
    /// [`crate::StaticHints::fingerprint`] of the hints supplied.
    pub hints_fp: u64,
}

/// A stored translation outcome: shared translated loop (or the abort
/// reason) plus the phase breakdown the original translation charged.
#[derive(Debug, Clone)]
pub struct MemoizedOutcome {
    /// Mapped loop or abort reason, sharable across sessions and threads.
    pub result: Result<Arc<TranslatedLoop>, TranslationError>,
    /// The exact per-phase cost of the original translation.
    pub breakdown: PhaseBreakdown,
    /// The original translation's hint verdict, so replayed invocations
    /// count validations and degradations bit-identically to fresh ones.
    pub verdict: HintVerdict,
}

/// What a memo slot stores: a concrete outcome at one exact configuration
/// (the classic point entry), or a family-keyed symbolic translation that
/// each session concretizes at its own configuration.
///
/// The two kinds can never collide on a key: point keys carry
/// [`crate::Translator::fingerprint`] and family keys carry
/// [`crate::Translator::family_fingerprint`], which hash disjoint domains
/// (the family fingerprint leads with a domain tag).
#[derive(Debug, Clone)]
pub enum MemoEntry {
    /// A concrete outcome at one configuration.
    Point(MemoizedOutcome),
    /// One symbolic translation shared by every configuration in a family;
    /// `Arc` because concurrent sessions concretize it in place (its
    /// RecMII/priority caches are internally synchronized).
    Family(Arc<SymbolicTranslation>),
}

/// Hit/miss counters of a memo table, snapshot at a point in time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups answered from the table.
    pub hits: u64,
    /// Lookups that missed (and were then translated and inserted).
    pub misses: u64,
    /// Entries currently stored.
    pub entries: usize,
}

impl MemoStats {
    /// Fraction of lookups answered from the table.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Thread-safe memo table mapping [`MemoKey`] → [`MemoEntry`].
///
/// Shared across sessions (and worker threads) via `Arc`; see
/// [`crate::VmSession::with_memo`].
#[derive(Debug, Default)]
pub struct TranslationMemo {
    map: Mutex<HashMap<MemoKey, MemoEntry>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl TranslationMemo {
    /// Creates an empty memo table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up `key`, recording a hit or miss.
    ///
    /// A poisoned lock is recovered, not propagated: every entry is written
    /// atomically under the lock (insert-or-keep of an immutable value), so
    /// a sweep worker that panicked mid-translation can never have left the
    /// map half-updated — the surviving threads keep the memo.
    #[must_use]
    pub fn get(&self, key: &MemoKey) -> Option<MemoEntry> {
        let found = self
            .map
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(key)
            .cloned();
        let (hits, misses) = global_counters();
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            hits.inc();
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            misses.inc();
        }
        found
    }

    /// Looks up `key` **without** touching the hit/miss counters. Used by
    /// the single-flight layer to re-check the table after the counted
    /// lookup already missed, so one logical lookup is counted exactly once.
    #[must_use]
    pub fn peek(&self, key: &MemoKey) -> Option<MemoEntry> {
        self.map
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(key)
            .cloned()
    }

    /// Stores an entry. First writer wins on a racing key (both computed
    /// the same deterministic result, so either is correct).
    pub fn insert(&self, key: MemoKey, outcome: MemoEntry) {
        self.map
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(key)
            .or_insert(outcome);
    }

    /// Current hit/miss/size counters.
    #[must_use]
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self
                .map
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .len(),
        }
    }

    /// Snapshot of every entry, sorted by key for a deterministic order
    /// (serializers depend on it: two snapshots of the same state must be
    /// byte-identical). Entries are cheap clones (`Arc` payloads).
    #[must_use]
    pub fn export_entries(&self) -> Vec<(MemoKey, MemoEntry)> {
        let mut out: Vec<(MemoKey, MemoEntry)> = self
            .map
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, v)| (*k, v.clone()))
            .collect();
        out.sort_by_key(|(k, _)| (k.loop_hash, k.translator_fp, k.hints_fp));
        out
    }
}

/// Storage abstraction behind [`crate::VmSession`]'s memo slot.
///
/// [`TranslationMemo`] is the single-table backend the sweep engine uses;
/// [`ShardedMemo`] adds lock striping and single-flight for the serving
/// path. The session only calls [`MemoBackend::get_or_insert_with`], whose
/// default body reproduces the historical get → translate → insert sequence
/// exactly (including the order counters are bumped in), so swapping
/// backends never changes a session's statistics.
pub trait MemoBackend: fmt::Debug + Send + Sync {
    /// Looks up `key`, counting a hit or miss.
    fn get(&self, key: &MemoKey) -> Option<MemoEntry>;

    /// Stores an entry; first writer wins on a racing key.
    fn insert(&self, key: MemoKey, outcome: MemoEntry);

    /// Aggregate hit/miss/size counters.
    fn stats(&self) -> MemoStats;

    /// Snapshot of every entry in deterministic (key-sorted) order, for
    /// warm-state serialization.
    fn export_entries(&self) -> Vec<(MemoKey, MemoEntry)>;

    /// Returns the outcome for `key`, running `compute` on a miss and
    /// publishing its result. The flag is `true` when the table answered
    /// the (counted) lookup directly. Backends with a coalescing layer may
    /// return outcomes computed concurrently by another thread; callers
    /// must treat the outcome as authoritative either way.
    fn get_or_insert_with(
        &self,
        key: &MemoKey,
        compute: &mut dyn FnMut() -> MemoEntry,
    ) -> (MemoEntry, bool) {
        if let Some(hit) = self.get(key) {
            return (hit, true);
        }
        let outcome = compute();
        self.insert(*key, outcome.clone());
        (outcome, false)
    }
}

impl MemoBackend for TranslationMemo {
    fn get(&self, key: &MemoKey) -> Option<MemoEntry> {
        TranslationMemo::get(self, key)
    }

    fn insert(&self, key: MemoKey, outcome: MemoEntry) {
        TranslationMemo::insert(self, key, outcome);
    }

    fn stats(&self) -> MemoStats {
        TranslationMemo::stats(self)
    }

    fn export_entries(&self) -> Vec<(MemoKey, MemoEntry)> {
        TranslationMemo::export_entries(self)
    }
}

/// Process-global counters for the single-flight layer: translations the
/// leaders actually ran, and lookups that waited on (or arrived just
/// behind) another thread's in-flight translation.
fn flight_counters() -> (&'static Counter, &'static Counter) {
    static C: OnceLock<(&'static Counter, &'static Counter)> = OnceLock::new();
    *C.get_or_init(|| {
        (
            metrics::counter("vm.memo.computes"),
            metrics::counter("vm.memo.coalesced"),
        )
    })
}

/// The published state of one in-flight translation.
#[derive(Debug)]
enum FlightState {
    /// The leader is still computing.
    Pending,
    /// The leader finished; waiters take the stored entry.
    Ready(MemoEntry),
    /// The leader panicked before publishing; waiters re-elect.
    Abandoned,
}

#[derive(Debug)]
struct InFlight {
    state: Mutex<FlightState>,
    done: Condvar,
}

#[derive(Debug)]
struct Shard {
    memo: TranslationMemo,
    /// Translations currently being computed for keys hashing here. An
    /// entry exists exactly while one leader runs the translator.
    inflight: Mutex<HashMap<MemoKey, Arc<InFlight>>>,
}

/// A lock-striped [`TranslationMemo`] with a single-flight layer, for the
/// multi-tenant serving path.
///
/// Lookups hash the [`MemoKey`] to one of N independent shards (N rounded
/// up to a power of two), so concurrent tenants contend only when their
/// keys collide, not on one global mutex. With single-flight enabled
/// (the default), K concurrent requests for the same untranslated key run
/// exactly one translation: the first becomes the *leader*, the other K−1
/// block on a [`Condvar`] and receive the leader's outcome. A leader that
/// panics publishes `Abandoned` from its drop guard and the waiters
/// re-elect, so a crashed worker can never wedge a key.
///
/// Single-threaded, the per-shard counters fold to exactly what one
/// [`TranslationMemo`] would have recorded on the same request sequence —
/// the stress tests assert this bit-for-bit.
#[derive(Debug)]
pub struct ShardedMemo {
    shards: Box<[Shard]>,
    mask: u64,
    single_flight: bool,
    computes: AtomicU64,
    coalesced: AtomicU64,
}

impl ShardedMemo {
    /// Creates a memo striped over `shards` locks (rounded up to a power of
    /// two, clamped to `1..=65536` — zero is a configuration accident that
    /// must not panic, and a count near `usize::MAX` would overflow
    /// `next_power_of_two`), with single-flight enabled.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        let n = shards.clamp(1, 1 << 16).next_power_of_two();
        ShardedMemo {
            shards: (0..n)
                .map(|_| Shard {
                    memo: TranslationMemo::new(),
                    inflight: Mutex::new(HashMap::new()),
                })
                .collect(),
            mask: (n - 1) as u64,
            single_flight: true,
            computes: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    /// Enables or disables the single-flight layer. Disabling it lets
    /// concurrent requests for one key translate redundantly (every racer
    /// computes; first insert wins) — the serving benchmark uses this to
    /// measure the duplicate work single-flight removes.
    #[must_use]
    pub fn with_single_flight(mut self, on: bool) -> Self {
        self.single_flight = on;
        self
    }

    /// Number of shards (a power of two).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Translations actually computed through this memo (leaders plus
    /// redundant racers when single-flight is off). With single-flight on
    /// and no panics this equals [`MemoStats::entries`]; the difference is
    /// the duplicate-translation count.
    #[must_use]
    pub fn computes(&self) -> u64 {
        self.computes.load(Ordering::Relaxed)
    }

    /// Lookups that received another thread's in-flight (or just-published)
    /// outcome instead of computing their own.
    #[must_use]
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Translations computed redundantly: computes minus distinct keys
    /// stored. Zero under single-flight.
    #[must_use]
    pub fn duplicate_translations(&self) -> u64 {
        self.computes().saturating_sub(self.stats().entries as u64)
    }

    fn shard(&self, key: &MemoKey) -> &Shard {
        let mut h = Fnv64::new();
        h.write_u64(key.loop_hash);
        h.write_u64(key.translator_fp);
        h.write_u64(key.hints_fp);
        &self.shards[(h.finish() & self.mask) as usize]
    }

    fn record_compute(&self) {
        self.computes.fetch_add(1, Ordering::Relaxed);
        flight_counters().0.inc();
    }

    fn record_coalesced(&self) {
        self.coalesced.fetch_add(1, Ordering::Relaxed);
        flight_counters().1.inc();
    }
}

/// Publishes the leader's result (or `Abandoned`, if the leader panicked
/// before setting one) and removes the in-flight marker. Runs from `Drop`
/// so a panicking translator can never leave waiters blocked forever.
struct LeaderGuard<'a> {
    shard: &'a Shard,
    key: MemoKey,
    flight: Arc<InFlight>,
    outcome: Option<MemoEntry>,
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        // Remove the marker first: a retrying waiter that wakes to
        // `Abandoned` must find the slot free so it can become the next
        // leader (and must never remove a successor's marker).
        self.shard
            .inflight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&self.key);
        let mut state = self
            .flight
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *state = match self.outcome.take() {
            Some(outcome) => FlightState::Ready(outcome),
            None => FlightState::Abandoned,
        };
        self.flight.done.notify_all();
    }
}

impl MemoBackend for ShardedMemo {
    fn get(&self, key: &MemoKey) -> Option<MemoEntry> {
        self.shard(key).memo.get(key)
    }

    fn insert(&self, key: MemoKey, outcome: MemoEntry) {
        self.shard(&key).memo.insert(key, outcome);
    }

    /// Folds the per-shard counters. Single-threaded this matches the
    /// single-table [`TranslationMemo`] bit-for-bit on the same corpus.
    fn stats(&self) -> MemoStats {
        let mut folded = MemoStats::default();
        for s in &self.shards {
            let st = s.memo.stats();
            folded.hits += st.hits;
            folded.misses += st.misses;
            folded.entries += st.entries;
        }
        folded
    }

    /// Folds the per-shard maps into one key-sorted export, so the striping
    /// layout never leaks into a snapshot's byte stream.
    fn export_entries(&self) -> Vec<(MemoKey, MemoEntry)> {
        let mut out: Vec<(MemoKey, MemoEntry)> = self
            .shards
            .iter()
            .flat_map(|s| s.memo.export_entries())
            .collect();
        out.sort_by_key(|(k, _)| (k.loop_hash, k.translator_fp, k.hints_fp));
        out
    }

    fn get_or_insert_with(
        &self,
        key: &MemoKey,
        compute: &mut dyn FnMut() -> MemoEntry,
    ) -> (MemoEntry, bool) {
        let shard = self.shard(key);
        // Counted lookup, identical to the unsharded fast path.
        if let Some(hit) = shard.memo.get(key) {
            return (hit, true);
        }
        if !self.single_flight {
            let outcome = compute();
            self.record_compute();
            shard.memo.insert(*key, outcome.clone());
            return (outcome, false);
        }
        loop {
            enum Role {
                Leader(Arc<InFlight>),
                Follower(Arc<InFlight>),
            }
            let role = {
                let mut inflight = shard
                    .inflight
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                // Re-check the table under the in-flight lock: a leader that
                // finished between our miss above and here has already
                // published. Non-counting — the miss was counted once.
                if let Some(done) = shard.memo.peek(key) {
                    self.record_coalesced();
                    return (done, false);
                }
                match inflight.get(key) {
                    Some(f) => Role::Follower(Arc::clone(f)),
                    None => {
                        let f = Arc::new(InFlight {
                            state: Mutex::new(FlightState::Pending),
                            done: Condvar::new(),
                        });
                        inflight.insert(*key, Arc::clone(&f));
                        Role::Leader(f)
                    }
                }
            };
            match role {
                Role::Leader(flight) => {
                    let mut guard = LeaderGuard {
                        shard,
                        key: *key,
                        flight,
                        outcome: None,
                    };
                    let outcome = compute(); // may panic → guard abandons
                    self.record_compute();
                    shard.memo.insert(*key, outcome.clone());
                    guard.outcome = Some(outcome.clone());
                    drop(guard);
                    return (outcome, false);
                }
                Role::Follower(flight) => {
                    let mut state = flight.state.lock().unwrap_or_else(PoisonError::into_inner);
                    loop {
                        match &*state {
                            FlightState::Pending => {
                                state = flight
                                    .done
                                    .wait(state)
                                    .unwrap_or_else(PoisonError::into_inner);
                            }
                            FlightState::Ready(outcome) => {
                                // Counted only on a received outcome: a
                                // follower that wakes to `Abandoned`
                                // re-elects and records a compute instead,
                                // so counting on entry would overcount the
                                // panic path by one.
                                self.record_coalesced();
                                return (outcome.clone(), false);
                            }
                            FlightState::Abandoned => break,
                        }
                    }
                    // The leader died without publishing; re-elect.
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> MemoKey {
        MemoKey {
            loop_hash: n,
            translator_fp: 7,
            hints_fp: 0,
        }
    }

    fn failed_outcome() -> MemoEntry {
        MemoEntry::Point(MemoizedOutcome {
            result: Err(crate::TranslationError::Unsupported(
                veal_ir::streams::SeparationError::CallInLoop,
            )),
            breakdown: PhaseBreakdown::default(),
            verdict: HintVerdict::default(),
        })
    }

    fn is_failed(entry: &MemoEntry) -> bool {
        matches!(entry, MemoEntry::Point(m) if m.result.is_err())
    }

    #[test]
    fn miss_then_hit() {
        let memo = TranslationMemo::new();
        assert!(memo.get(&key(1)).is_none());
        memo.insert(key(1), failed_outcome());
        assert!(memo.get(&key(1)).is_some());
        let s = memo.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distinct_translators_do_not_collide() {
        let memo = TranslationMemo::new();
        let a = MemoKey {
            loop_hash: 1,
            translator_fp: 1,
            hints_fp: 0,
        };
        memo.insert(a, failed_outcome());
        let b = MemoKey {
            loop_hash: 1,
            translator_fp: 2,
            hints_fp: 0,
        };
        assert!(memo.get(&b).is_none());
    }

    #[test]
    fn shared_across_threads() {
        let memo = Arc::new(TranslationMemo::new());
        std::thread::scope(|s| {
            for t in 0..4 {
                let memo = Arc::clone(&memo);
                s.spawn(move || {
                    for i in 0..64u64 {
                        memo.insert(key(i % 8 + t), failed_outcome());
                        let _ = memo.get(&key(i % 8));
                    }
                });
            }
        });
        assert!(memo.stats().entries <= 11);
    }

    #[test]
    fn default_get_or_insert_with_counts_like_the_session_did() {
        let memo = TranslationMemo::new();
        let backend: &dyn MemoBackend = &memo;
        let mut computed = 0;
        let (_, hit) = backend.get_or_insert_with(&key(1), &mut || {
            computed += 1;
            failed_outcome()
        });
        assert!(!hit);
        let (_, hit) = backend.get_or_insert_with(&key(1), &mut || {
            computed += 1;
            failed_outcome()
        });
        assert!(hit);
        assert_eq!(computed, 1);
        let s = memo.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn peek_does_not_count() {
        let memo = TranslationMemo::new();
        assert!(memo.peek(&key(1)).is_none());
        memo.insert(key(1), failed_outcome());
        assert!(memo.peek(&key(1)).is_some());
        let s = memo.stats();
        assert_eq!((s.hits, s.misses), (0, 0));
    }

    #[test]
    fn sharded_counters_fold_like_one_table() {
        let single = TranslationMemo::new();
        let sharded = ShardedMemo::new(8);
        for i in 0..32u64 {
            let k = key(i % 10);
            let a = MemoBackend::get(&single, &k).is_some();
            let b = MemoBackend::get(&sharded, &k).is_some();
            assert_eq!(a, b);
            if !a {
                single.insert(k, failed_outcome());
                MemoBackend::insert(&sharded, k, failed_outcome());
            }
        }
        assert_eq!(
            TranslationMemo::stats(&single),
            MemoBackend::stats(&sharded)
        );
    }

    #[test]
    fn shard_count_rounds_up_to_a_power_of_two() {
        assert_eq!(ShardedMemo::new(0).shard_count(), 1);
        assert_eq!(ShardedMemo::new(5).shard_count(), 8);
        assert_eq!(ShardedMemo::new(16).shard_count(), 16);
    }

    #[test]
    fn absurd_shard_counts_clamp_instead_of_overflowing() {
        // `usize::MAX.next_power_of_two()` panics in debug and wraps to 0
        // in release (a zero mask would alias every key to shard 0 after an
        // underflow); the constructor must clamp, not propagate.
        assert_eq!(ShardedMemo::new(usize::MAX).shard_count(), 1 << 16);
        assert_eq!(ShardedMemo::new((1 << 16) + 1).shard_count(), 1 << 16);
    }

    #[test]
    fn hit_rate_with_zero_lookups_is_finite() {
        let s = MemoStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        assert!(s.hit_rate().is_finite());
    }

    #[test]
    fn export_entries_is_sorted_and_complete() {
        let sharded = ShardedMemo::new(4);
        for i in [9u64, 2, 7, 4, 0] {
            MemoBackend::insert(&sharded, key(i), failed_outcome());
        }
        let entries = MemoBackend::export_entries(&sharded);
        assert_eq!(entries.len(), 5);
        let hashes: Vec<u64> = entries.iter().map(|(k, _)| k.loop_hash).collect();
        assert_eq!(hashes, vec![0, 2, 4, 7, 9]);
    }

    #[test]
    fn single_flight_runs_one_compute_for_concurrent_misses() {
        let memo = Arc::new(ShardedMemo::new(4));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let memo = Arc::clone(&memo);
                s.spawn(move || {
                    let (out, _) = memo.get_or_insert_with(&key(1), &mut || {
                        // Hold the flight open long enough for the other
                        // threads to arrive as followers.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        failed_outcome()
                    });
                    assert!(is_failed(&out));
                });
            }
        });
        assert_eq!(memo.computes(), 1, "exactly one leader translated");
        assert_eq!(memo.duplicate_translations(), 0);
        assert_eq!(MemoBackend::stats(&*memo).entries, 1);
    }

    #[test]
    fn abandoned_leader_lets_the_next_caller_take_over() {
        let memo = ShardedMemo::new(1);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo.get_or_insert_with(&key(3), &mut || panic!("translator crash"))
        }));
        assert!(panicked.is_err());
        // The key is not wedged: the next caller becomes the leader.
        let (out, hit) = memo.get_or_insert_with(&key(3), &mut failed_outcome);
        assert!(!hit);
        assert!(is_failed(&out));
        assert_eq!(memo.computes(), 1);
        assert_eq!(MemoBackend::stats(&memo).entries, 1);
    }

    #[test]
    fn a_reelected_follower_counts_a_compute_not_a_coalesce() {
        // Regression: followers recorded `coalesced` before waiting, so a
        // follower whose leader panicked (Abandoned) was counted both as
        // coalesced and, after re-electing itself leader, as computing —
        // overcounting the panic path by one per re-elected follower.
        let memo = Arc::new(ShardedMemo::new(1));
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let m = Arc::clone(&memo);
            let b = &barrier;
            s.spawn(move || {
                let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    m.get_or_insert_with(&key(9), &mut || {
                        // The leader is registered in-flight by now; let
                        // the follower in, give it time to start waiting,
                        // then crash.
                        b.wait();
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        panic!("translator crash")
                    })
                }));
                assert!(crashed.is_err());
            });
            barrier.wait();
            let (out, hit) = memo.get_or_insert_with(&key(9), &mut failed_outcome);
            assert!(!hit);
            assert!(is_failed(&out));
        });
        assert_eq!(memo.computes(), 1, "the re-elected follower computed");
        assert_eq!(memo.coalesced(), 0, "no outcome was ever received");
        assert_eq!(memo.duplicate_translations(), 0);
    }

    #[test]
    fn poisoned_lock_recovers_instead_of_wedging_the_sweep() {
        let memo = Arc::new(TranslationMemo::new());
        memo.insert(key(1), failed_outcome());
        // A worker thread panics while holding the lock.
        let poisoner = Arc::clone(&memo);
        let worker = std::thread::spawn(move || {
            let _guard = poisoner.map.lock().unwrap_or_else(PoisonError::into_inner);
            panic!("simulated sweep-worker crash");
        });
        assert!(worker.join().is_err(), "worker must have panicked");
        // Surviving threads keep full use of the memo.
        assert!(memo.get(&key(1)).is_some());
        memo.insert(key(2), failed_outcome());
        assert_eq!(memo.stats().entries, 2);
    }
}
