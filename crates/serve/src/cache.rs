//! The content-addressed result cache: completed [`JobArtifacts`]
//! bundles keyed on the canonical identity of the *request* — config,
//! mode, and partitioner seed — so an identical submission costs one
//! hash lookup instead of a solve.
//!
//! Correctness rests on two determinism facts proved by the test
//! harness: the key is invariant under every TOML spelling of the same
//! semantic configuration ([`eul3d_core::RunConfig::canonical_toml`]),
//! and [`eul3d_core::run_job`] is byte-deterministic for a fixed key —
//! which together make a cached result and a fresh recompute provably
//! interchangeable.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;

use eul3d_core::runconfig::fnv1a_128;
use eul3d_core::{JobArtifacts, JobMode, RunConfig};

/// A 128-bit content address, displayed/parsed as 32 hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey(pub u128);

impl CacheKey {
    /// The cache key of a request: a domain-separated FNV-1a 128 over
    /// the job mode, the partitioner seed, and the canonical TOML of the
    /// validated configuration. Any semantic change to any of the three
    /// produces a different key; any representational change (key order,
    /// comments, float spelling, whitespace) does not.
    pub fn of(rc: &RunConfig, mode: JobMode, seed: u64) -> CacheKey {
        let canon = rc.canonical_toml();
        let mut bytes = Vec::with_capacity(canon.len() + 32);
        bytes.extend_from_slice(b"eul3d-cache-key-v1\0");
        bytes.extend_from_slice(mode.name().as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&seed.to_le_bytes());
        bytes.extend_from_slice(canon.as_bytes());
        CacheKey(fnv1a_128(&bytes))
    }

    /// Parse the 32-hex-digit wire form.
    pub fn parse(s: &str) -> Option<CacheKey> {
        (s.len() == 32)
            .then(|| u128::from_str_radix(s, 16).ok())
            .flatten()
            .map(CacheKey)
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// One cached result: the deterministic artifact bundle of a completed
/// job, shared by reference between the cache, the job registry, and
/// any connections still streaming it.
#[derive(Debug)]
pub struct JobBlob {
    /// The artifacts exactly as the solve produced them.
    pub artifacts: JobArtifacts,
}

impl JobBlob {
    /// Approximate resident size of this result in bytes — the payload
    /// buffers plus a small fixed allowance for structure overhead. The
    /// byte-budget eviction policy charges entries by this measure; it
    /// only needs to be stable and roughly proportional, not exact. The
    /// Mach field costs 8 bytes a fine vertex: its VTK text is rendered
    /// per request and never cached.
    pub fn approx_bytes(&self) -> usize {
        let a = &self.artifacts;
        let guard = a.guard.as_ref().map_or(0, |g| 64 + g.transcript.len() * 64);
        a.history.len() * 8
            + a.table.len()
            + a.trace_json.as_ref().map_or(0, String::len)
            + a.events.len() * std::mem::size_of::<eul3d_obs::Stamped>()
            + a.mach.len() * 8
            + guard
            + 128
    }
}

/// Bounded FIFO content-addressed cache with hit/miss accounting.
/// Insertion-order eviction (not LRU) keeps the structure allocation-
/// light and — more importantly here — *deterministic*: which entries a
/// test run retains depends only on the completion order, never on
/// lookup timing.
///
/// Capacity is governed by **result bytes** ([`JobBlob::approx_bytes`]),
/// with the entry count as a secondary ceiling: a handful of giant
/// traced results and a thousand tiny ones occupy very different
/// amounts of memory, so the budget that matters operationally is
/// bytes, not entries. The newest entry is always retained even when it
/// alone exceeds the budget — evicting the result that was just
/// computed would make its own duplicate submissions recompute forever.
#[derive(Debug)]
pub struct ResultCache {
    cap: usize,
    budget: Option<usize>,
    map: HashMap<u128, Arc<JobBlob>>,
    order: VecDeque<u128>,
    bytes: usize,
    evicted_bytes: u64,
    hits: u64,
    misses: u64,
}

impl ResultCache {
    /// A cache retaining at most `cap` results (min 1) with no byte
    /// budget.
    pub fn new(cap: usize) -> ResultCache {
        ResultCache::with_byte_budget(cap, None)
    }

    /// A cache retaining at most `cap` results and (when `budget` is
    /// set) at most roughly `budget` total result bytes.
    pub fn with_byte_budget(cap: usize, budget: Option<usize>) -> ResultCache {
        ResultCache {
            cap: cap.max(1),
            budget,
            map: HashMap::new(),
            order: VecDeque::new(),
            bytes: 0,
            evicted_bytes: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Look `key` up, counting a hit or miss.
    pub fn get(&mut self, key: CacheKey) -> Option<Arc<JobBlob>> {
        match self.map.get(&key.0) {
            Some(b) => {
                self.hits += 1;
                Some(Arc::clone(b))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Peek without touching the hit/miss counters (the engine's one
    /// lookup, at submit and again at dequeue, so one submission never
    /// counts twice).
    pub fn peek(&self, key: CacheKey) -> Option<Arc<JobBlob>> {
        self.map.get(&key.0).map(Arc::clone)
    }

    /// Record a miss without a lookup: a forced (`force`) submission
    /// bypasses the cache by design but still does solve work, so the
    /// hit rate must reflect it.
    pub fn count_forced_miss(&mut self) {
        self.misses += 1;
    }

    /// Record a hit without a lookup — the caller resolved the key
    /// through [`ResultCache::peek`] or the durable result store and no
    /// solve work happened.
    pub fn count_hit(&mut self) {
        self.hits += 1;
    }

    /// Insert (or overwrite — recomputes produce byte-identical blobs,
    /// so overwriting is a no-op in content) and evict oldest entries
    /// until both the entry cap and the byte budget hold again (the
    /// newest entry itself is never evicted).
    pub fn insert(&mut self, key: CacheKey, blob: Arc<JobBlob>) {
        let size = blob.approx_bytes();
        match self.map.insert(key.0, blob) {
            Some(old) => {
                // Byte-identical in content, but re-measure anyway so the
                // accounting can never drift.
                self.bytes = self.bytes - old.approx_bytes() + size;
            }
            None => {
                self.bytes += size;
                self.order.push_back(key.0);
                while self.order.len() > 1
                    && (self.order.len() > self.cap || self.budget.is_some_and(|b| self.bytes > b))
                {
                    if let Some(old) = self.order.pop_front() {
                        if let Some(gone) = self.map.remove(&old) {
                            let freed = gone.approx_bytes();
                            self.bytes -= freed;
                            self.evicted_bytes += freed as u64;
                        }
                    }
                }
            }
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Approximate bytes currently held.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Total approximate bytes evicted over the cache's lifetime.
    pub fn evicted_bytes(&self) -> u64 {
        self.evicted_bytes
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that missed.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(tag: &str) -> Arc<JobBlob> {
        Arc::new(JobBlob {
            artifacts: JobArtifacts {
                history: vec![1.0],
                table: tag.to_string(),
                trace_json: None,
                events: Vec::new(),
                mach: Vec::new(),
                guard: None,
                result_hash: 1,
            },
        })
    }

    #[test]
    fn fifo_eviction_and_counters() {
        let mut c = ResultCache::new(2);
        let (k1, k2, k3) = (CacheKey(1), CacheKey(2), CacheKey(3));
        assert!(c.get(k1).is_none());
        c.insert(k1, blob("a"));
        c.insert(k2, blob("b"));
        c.insert(k3, blob("c"));
        assert_eq!(c.len(), 2);
        assert!(c.peek(k1).is_none(), "oldest entry evicted first");
        assert!(c.get(k2).is_some());
        assert!(c.get(k3).is_some());
        assert_eq!((c.hits(), c.misses()), (2, 1));
    }

    #[test]
    fn byte_budget_evicts_oldest_until_under() {
        // Each test blob measures 137 bytes: 8 (history) + 1 (table) +
        // 128 fixed allowance.
        let each = blob("a").approx_bytes();
        assert_eq!(each, 137);
        let mut c = ResultCache::with_byte_budget(100, Some(2 * each + 10));
        c.insert(CacheKey(1), blob("a"));
        c.insert(CacheKey(2), blob("b"));
        assert_eq!(c.bytes(), 2 * each);
        c.insert(CacheKey(3), blob("c"));
        assert!(c.peek(CacheKey(1)).is_none(), "oldest evicted by bytes");
        assert!(c.peek(CacheKey(2)).is_some());
        assert!(c.peek(CacheKey(3)).is_some());
        assert_eq!(c.bytes(), 2 * each);
        assert_eq!(c.evicted_bytes(), each as u64);
        // Overwriting an existing key never double-counts.
        c.insert(CacheKey(3), blob("c"));
        assert_eq!(c.bytes(), 2 * each);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn newest_entry_survives_even_over_budget() {
        let mut c = ResultCache::with_byte_budget(4, Some(10));
        c.insert(CacheKey(1), blob("a"));
        c.insert(CacheKey(2), blob("b"));
        assert_eq!(c.len(), 1, "budget evicts down to the newest entry");
        assert!(c.peek(CacheKey(2)).is_some());
        assert!(c.evicted_bytes() > 0);
    }

    /// A served job's entry holds its Mach field, not its VTK text (which
    /// is 305 KB on this mesh, the benchmark's served job shape): a
    /// regression guard against caching the rendered export again.
    #[test]
    fn a_served_job_is_charged_for_its_field_not_its_text() {
        let rc = RunConfig::from_toml(
            "[run]\nstrategy = \"w\"\nlevels = 2\ncycles = 2\n\
             [mesh]\nnx = 24\nny = 8\nnz = 7\njitter = 0.12\n",
        )
        .unwrap();
        let cancel = eul3d_core::CancelToken::new();
        let artifacts = eul3d_core::run_job(&rc, JobMode::Solve, 7, &cancel, &mut |_, _| {});
        let blob = JobBlob {
            artifacts: artifacts.unwrap(),
        };
        assert!(blob.approx_bytes() < 32 * 1024, "{}", blob.approx_bytes());
    }

    #[test]
    fn key_depends_on_mode_and_seed_but_not_spelling() {
        let rc = RunConfig::default();
        let a = CacheKey::of(&rc, JobMode::Solve, 7);
        assert_eq!(a, CacheKey::of(&rc, JobMode::Solve, 7));
        assert_ne!(a, CacheKey::of(&rc, JobMode::Distributed, 7));
        assert_ne!(a, CacheKey::of(&rc, JobMode::Solve, 8));
        let mut other = rc.clone();
        other.trace.out = Some("somewhere-else.json".into());
        assert_eq!(
            a,
            CacheKey::of(&other, JobMode::Solve, 7),
            "presentation-only fields are outside the identity"
        );
        other.cycles += 1;
        assert_ne!(a, CacheKey::of(&other, JobMode::Solve, 7));
    }

    #[test]
    fn key_wire_form_round_trips() {
        let k = CacheKey::of(&RunConfig::default(), JobMode::Solve, 7);
        assert_eq!(CacheKey::parse(&k.to_string()), Some(k));
        assert_eq!(CacheKey::parse("xyz"), None);
    }
}
