//! Content-addressed verdict cache with single-flight deduplication.
//!
//! Verification is deterministic: the same (formula, proof, mode,
//! format, budget) quintuple always produces the same verdict. Fleets
//! re-submit identical certificates constantly — CI re-verifying a
//! proof artifact, N solver shards racing on one instance — so the
//! server keeps a bounded, byte-budgeted LRU of past verdicts keyed by
//! the *content* of the request, and **coalesces** concurrent identical
//! submissions: one leader runs the verification, every follower gets a
//! copy of the verdict when the leader finishes (single flight).
//!
//! ## Collision safety
//!
//! The key is a length-prefixed canonical serialisation of the request
//! plus a 64-bit bucket hash of it. A hash match alone never serves a
//! verdict: the full key bytes must be equal. Two requests that collide
//! in the hash coexist in the same bucket and are verified
//! independently. The hash only picks the bucket, so it is chosen for
//! speed — a word of eight bytes per step, not FNV-1a's one byte.
//!
//! ## What is cacheable
//!
//! Only requests that carry their formula and proof **inline** are
//! content-addressed. A `formula_path`/`proof_path` request names a
//! server-local file whose bytes can change between submissions, so it
//! bypasses the cache entirely — content addressing stays honest.
//!
//! ## What is stored
//!
//! Only *deterministic* terminals: `verified`, `rejected`, and
//! `exhausted` with a deterministic budget reason (`propagations`,
//! `clause-visits`, `memory`). A wall-clock `timeout` or a `cancelled`
//! stop depends on scheduling, not content, and is never cached —
//! though an in-flight leader still fans its result out to the
//! followers that coalesced behind it, whatever the outcome.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::protocol::{JobResult, VerifyRequest};

/// Default cache byte budget: 64 MiB of keys + verdicts.
pub const DEFAULT_CACHE_BYTES: u64 = 64 * 1024 * 1024;

/// Cache tuning knobs, embedded in `ServerConfig`.
///
/// Disabled by default at the library level, so embedded servers (and
/// the scheduler-level tests and benches, which submit identical
/// trivial jobs on purpose) see every submission verified. The
/// `satverify serve` CLI turns the cache on unless `--no-cache`.
#[derive(Clone, Debug)]
pub struct CacheConfig {
    /// Whether the verdict cache (and single-flight coalescing) is on.
    pub enabled: bool,
    /// LRU byte budget across stored keys and verdicts.
    pub byte_budget: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { enabled: false, byte_budget: DEFAULT_CACHE_BYTES }
    }
}

/// The bucket hash of a key's bytes, one word of eight bytes per step,
/// then a final mix. Not a fingerprint anyone may trust — a hit always
/// compares the full bytes — so it needs to spread keys, not to resist
/// collisions.
fn bucket_hash(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut hash = (bytes.len() as u64).wrapping_mul(K);
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("eight bytes"));
        hash = (hash ^ word).wrapping_mul(K).rotate_left(29);
    }
    let mut last = [0u8; 8];
    last[..words.remainder().len()].copy_from_slice(words.remainder());
    hash = (hash ^ u64::from_le_bytes(last)).wrapping_mul(K).rotate_left(29);
    // final avalanche (the SplitMix64 finaliser)
    hash ^= hash >> 30;
    hash = hash.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    hash ^= hash >> 27;
    hash = hash.wrapping_mul(0x94d0_49bb_1331_11eb);
    hash ^ (hash >> 31)
}

/// Appends one `tag:length:content` section so distinct field splits
/// can never serialise to the same byte string.
fn push_section(out: &mut Vec<u8>, tag: &[u8], content: &[u8]) {
    out.extend_from_slice(tag);
    out.extend_from_slice(&(content.len() as u64).to_le_bytes());
    out.extend_from_slice(content);
}

/// The content address of one cacheable request: a fingerprint plus the
/// full canonical bytes it was computed from (kept for collision
/// checks). Cloning is cheap — the bytes are shared, and were moved into
/// their `Arc`, not copied.
#[derive(Clone, Debug)]
pub struct CacheKey {
    hash: u64,
    bytes: Arc<Vec<u8>>,
}

impl CacheKey {
    /// Builds the content address for `request`, or `None` when the
    /// request is not cacheable (any path-based input; see module docs).
    #[must_use]
    pub fn for_request(request: &VerifyRequest) -> Option<CacheKey> {
        let formula = request.formula.as_deref()?;
        let proof = request.proof.as_deref()?;
        if request.stream {
            return None; // streaming requires a proof_path anyway
        }
        let mut bytes =
            Vec::with_capacity(formula.len() + proof.len() + 96);
        push_section(&mut bytes, b"F", formula.as_bytes());
        push_section(&mut bytes, b"P", proof.as_bytes());
        push_section(&mut bytes, b"m", request.mode.as_deref().unwrap_or("").as_bytes());
        push_section(
            &mut bytes,
            b"f",
            request.proof_format.as_deref().unwrap_or("").as_bytes(),
        );
        let budget = [
            request.budget.max_propagations,
            request.budget.max_clause_visits,
            request.budget.max_memory_bytes,
            request.budget.timeout_ms,
        ];
        for limit in budget {
            match limit {
                // presence byte keeps Some(0) distinct from None
                Some(n) => {
                    bytes.push(1);
                    bytes.extend_from_slice(&n.to_le_bytes());
                }
                None => bytes.push(0),
            }
        }
        let hash = bucket_hash(&bytes);
        Some(CacheKey { hash, bytes: Arc::new(bytes) })
    }

    /// Builds a key from raw parts. Exists so collision-safety tests can
    /// force two keys onto one fingerprint; production code always goes
    /// through [`CacheKey::for_request`].
    #[must_use]
    pub fn from_raw_parts(hash: u64, bytes: Vec<u8>) -> CacheKey {
        CacheKey { hash, bytes: Arc::new(bytes) }
    }

    /// The 64-bit fingerprint (bucket index; never trusted alone).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.hash
    }
}

/// Whether `result` is deterministic enough to store (see module docs).
#[must_use]
pub fn storable(result: &JobResult) -> bool {
    match result.outcome.as_str() {
        "verified" | "rejected" => true,
        "exhausted" => matches!(
            result.exhaust_reason.as_deref(),
            Some("propagations" | "clause-visits" | "memory")
        ),
        _ => false,
    }
}

/// Strips the per-submission fields (`id`, `latency_ms`) so the stored
/// verdict is purely content-derived; they are re-attached per serve.
#[must_use]
pub fn normalize(result: &JobResult) -> JobResult {
    JobResult { id: None, latency_ms: None, ..result.clone() }
}

/// The admission decision for one cacheable request.
pub enum Admit<F> {
    /// A stored verdict matched (full key bytes equal): serve it now.
    /// The follower value is handed back so the caller can respond with
    /// the submitter's own `id` and latency.
    Hit {
        /// The stored, normalised verdict.
        verdict: JobResult,
        /// The submitted job, returned unconsumed.
        follower: F,
    },
    /// An identical request is already in flight; the job was parked
    /// behind its leader and will be answered at completion.
    Coalesced,
    /// First flight for this content: the caller must enqueue the job
    /// and later call [`VerdictCache::complete`].
    Leader(F),
}

struct Stored {
    bytes: Arc<Vec<u8>>,
    verdict: JobResult,
    cost: u64,
    last_used: u64,
}

struct Pending<F> {
    bytes: Arc<Vec<u8>>,
    followers: Vec<F>,
}

struct Inner<F> {
    stored: HashMap<u64, Vec<Stored>>,
    pending: HashMap<u64, Vec<Pending<F>>>,
    bytes: u64,
    tick: u64,
}

/// Bounded content-addressed verdict store + single-flight table. `F`
/// is the caller's job type, parked for coalesced submissions.
pub struct VerdictCache<F> {
    inner: Mutex<Inner<F>>,
    byte_budget: u64,
}

/// Approximate heap cost of one stored entry, for the byte budget.
fn entry_cost(bytes: &[u8], verdict: &JobResult) -> u64 {
    let strings = verdict.outcome.len()
        + verdict.exhaust_reason.as_deref().map_or(0, str::len)
        + verdict.detail.as_deref().map_or(0, str::len);
    bytes.len() as u64 + strings as u64 + 128
}

impl<F> VerdictCache<F> {
    /// An empty cache bounded by `byte_budget` bytes.
    #[must_use]
    pub fn new(byte_budget: u64) -> VerdictCache<F> {
        VerdictCache {
            inner: Mutex::new(Inner {
                stored: HashMap::new(),
                pending: HashMap::new(),
                bytes: 0,
                tick: 0,
            }),
            byte_budget,
        }
    }

    /// Admits one cacheable submission: hit, coalesce, or lead.
    ///
    /// # Panics
    ///
    /// Panics if the cache lock was poisoned.
    pub fn admit(&self, key: &CacheKey, follower: F) -> Admit<F> {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(bucket) = inner.stored.get_mut(&key.hash) {
            if let Some(entry) =
                bucket.iter_mut().find(|e| e.bytes == key.bytes)
            {
                entry.last_used = tick;
                return Admit::Hit { verdict: entry.verdict.clone(), follower };
            }
        }
        if let Some(bucket) = inner.pending.get_mut(&key.hash) {
            if let Some(flight) =
                bucket.iter_mut().find(|p| p.bytes == key.bytes)
            {
                flight.followers.push(follower);
                return Admit::Coalesced;
            }
        }
        inner
            .pending
            .entry(key.hash)
            .or_default()
            .push(Pending { bytes: Arc::clone(&key.bytes), followers: Vec::new() });
        Admit::Leader(follower)
    }

    /// Completes a leader's flight: removes the single-flight entry,
    /// stores the verdict when one is given (pass `None` for
    /// non-deterministic or error outcomes), and returns the parked
    /// followers plus the number of LRU evictions the insert caused.
    ///
    /// # Panics
    ///
    /// Panics if the cache lock was poisoned.
    pub fn complete(
        &self,
        key: &CacheKey,
        verdict: Option<&JobResult>,
    ) -> (Vec<F>, u64) {
        let mut inner = self.inner.lock().expect("cache lock");
        let followers = take_pending(&mut inner.pending, key)
            .map(|p| p.followers)
            .unwrap_or_default();
        let mut evictions = 0;
        if let Some(verdict) = verdict {
            let cost = entry_cost(&key.bytes, verdict);
            // an entry larger than the whole budget can never be kept
            if cost <= self.byte_budget {
                inner.tick += 1;
                let tick = inner.tick;
                let bucket = inner.stored.entry(key.hash).or_default();
                if !bucket.iter().any(|e| e.bytes == key.bytes) {
                    bucket.push(Stored {
                        bytes: Arc::clone(&key.bytes),
                        verdict: normalize(verdict),
                        cost,
                        last_used: tick,
                    });
                    inner.bytes += cost;
                    evictions = evict_over_budget(&mut inner, self.byte_budget, &key.bytes);
                }
            }
        }
        (followers, evictions)
    }

    /// The leader for `key` terminated without a result to fan out
    /// (cancelled by its client's disconnect). Pops one parked follower
    /// to promote as the new leader — the flight entry stays while
    /// followers remain, and is removed once none are left.
    ///
    /// # Panics
    ///
    /// Panics if the cache lock was poisoned.
    pub fn leader_gone(&self, key: &CacheKey) -> Option<F> {
        let mut inner = self.inner.lock().expect("cache lock");
        let bucket = inner.pending.get_mut(&key.hash)?;
        let index = bucket.iter().position(|p| p.bytes == key.bytes)?;
        if bucket[index].followers.is_empty() {
            bucket.remove(index);
            if bucket.is_empty() {
                inner.pending.remove(&key.hash);
            }
            return None;
        }
        Some(bucket[index].followers.remove(0))
    }

    /// Removes every parked follower matching `pred` (their client
    /// disconnected before the leader finished). Leaders are not
    /// affected — they live in the queue or a worker.
    ///
    /// # Panics
    ///
    /// Panics if the cache lock was poisoned.
    pub fn purge<P: FnMut(&F) -> bool>(&self, mut pred: P) -> Vec<F> {
        let mut inner = self.inner.lock().expect("cache lock");
        let mut purged = Vec::new();
        for bucket in inner.pending.values_mut() {
            for flight in bucket.iter_mut() {
                let mut kept = Vec::with_capacity(flight.followers.len());
                for follower in flight.followers.drain(..) {
                    if pred(&follower) {
                        purged.push(follower);
                    } else {
                        kept.push(follower);
                    }
                }
                flight.followers = kept;
            }
        }
        purged
    }

    /// Stored verdict entries right now.
    ///
    /// # Panics
    ///
    /// Panics if the cache lock was poisoned.
    #[must_use]
    pub fn entry_count(&self) -> u64 {
        let inner = self.inner.lock().expect("cache lock");
        inner.stored.values().map(|b| b.len() as u64).sum()
    }

    /// Bytes charged against the budget right now.
    ///
    /// # Panics
    ///
    /// Panics if the cache lock was poisoned.
    #[must_use]
    pub fn bytes_used(&self) -> u64 {
        self.inner.lock().expect("cache lock").bytes
    }
}

fn take_pending<F>(
    pending: &mut HashMap<u64, Vec<Pending<F>>>,
    key: &CacheKey,
) -> Option<Pending<F>> {
    let bucket = pending.get_mut(&key.hash)?;
    let index = bucket.iter().position(|p| p.bytes == key.bytes)?;
    let flight = bucket.remove(index);
    if bucket.is_empty() {
        pending.remove(&key.hash);
    }
    Some(flight)
}

/// Evicts least-recently-used entries until the budget holds, never
/// evicting the just-inserted key. Linear scan: the cache holds large
/// text blobs, so entry counts stay small relative to the byte budget.
fn evict_over_budget<F>(
    inner: &mut Inner<F>,
    budget: u64,
    keep: &Arc<Vec<u8>>,
) -> u64 {
    let mut evicted = 0;
    while inner.bytes > budget {
        let victim = inner
            .stored
            .iter()
            .flat_map(|(&hash, bucket)| {
                bucket
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| !Arc::ptr_eq(&e.bytes, keep))
                    .map(move |(i, e)| (e.last_used, hash, i))
            })
            .min()
            .map(|(_, hash, i)| (hash, i));
        let Some((hash, index)) = victim else { break };
        let bucket = inner.stored.get_mut(&hash).expect("victim bucket");
        let entry = bucket.remove(index);
        if bucket.is_empty() {
            inner.stored.remove(&hash);
        }
        inner.bytes = inner.bytes.saturating_sub(entry.cost);
        evicted += 1;
    }
    evicted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::BudgetSpec;

    fn request(formula: &str, proof: &str) -> VerifyRequest {
        VerifyRequest {
            formula: Some(formula.into()),
            proof: Some(proof.into()),
            ..VerifyRequest::default()
        }
    }

    fn verdict(outcome: &str) -> JobResult {
        JobResult { outcome: outcome.into(), ..JobResult::default() }
    }

    #[test]
    fn path_based_requests_are_not_cacheable() {
        let by_path = VerifyRequest {
            formula_path: Some("/tmp/f.cnf".into()),
            proof: Some("0\n".into()),
            ..VerifyRequest::default()
        };
        assert!(CacheKey::for_request(&by_path).is_none());
        assert!(CacheKey::for_request(&request("p cnf 0 0\n", "0\n")).is_some());
    }

    #[test]
    fn key_distinguishes_every_content_field() {
        let base = request("p cnf 1 1\n1 0\n", "0\n");
        let mut mode = base.clone();
        mode.mode = Some("all".into());
        let mut budget = base.clone();
        budget.budget = BudgetSpec {
            max_propagations: Some(0),
            ..BudgetSpec::default()
        };
        let keys: Vec<u64> = [&base, &mode, &budget]
            .iter()
            .map(|r| CacheKey::for_request(r).expect("cacheable").fingerprint())
            .collect();
        assert_ne!(keys[0], keys[1], "mode is part of the address");
        assert_ne!(keys[0], keys[2], "budget Some(0) differs from None");
    }

    #[test]
    fn single_flight_parks_followers_and_fans_out() {
        let cache: VerdictCache<u32> = VerdictCache::new(1 << 20);
        let key = CacheKey::for_request(&request("p cnf 0 0\n", "0\n")).unwrap();
        assert!(matches!(cache.admit(&key, 1), Admit::Leader(1)));
        assert!(matches!(cache.admit(&key, 2), Admit::Coalesced));
        assert!(matches!(cache.admit(&key, 3), Admit::Coalesced));
        let (followers, _) = cache.complete(&key, Some(&verdict("verified")));
        assert_eq!(followers, vec![2, 3]);
        // now stored: the next admit is a hit and returns the job back
        match cache.admit(&key, 4) {
            Admit::Hit { verdict, follower } => {
                assert_eq!(verdict.outcome, "verified");
                assert_eq!(follower, 4);
            }
            _ => panic!("expected a hit after completion"),
        }
    }

    #[test]
    fn equal_fingerprint_unequal_bytes_never_serves() {
        let cache: VerdictCache<u32> = VerdictCache::new(1 << 20);
        let a = CacheKey::from_raw_parts(42, b"content-a".to_vec());
        let b = CacheKey::from_raw_parts(42, b"content-b".to_vec());
        assert!(matches!(cache.admit(&a, 1), Admit::Leader(_)));
        cache.complete(&a, Some(&verdict("verified")));
        // same fingerprint, different bytes: must lead, not hit
        assert!(matches!(cache.admit(&b, 2), Admit::Leader(_)));
        cache.complete(&b, Some(&verdict("rejected")));
        // both coexist in the bucket and serve their own verdict
        match cache.admit(&a, 3) {
            Admit::Hit { verdict, .. } => assert_eq!(verdict.outcome, "verified"),
            _ => panic!("a should hit"),
        }
        match cache.admit(&b, 4) {
            Admit::Hit { verdict, .. } => assert_eq!(verdict.outcome, "rejected"),
            _ => panic!("b should hit"),
        }
    }

    #[test]
    fn leader_gone_promotes_followers_one_at_a_time() {
        let cache: VerdictCache<u32> = VerdictCache::new(1 << 20);
        let key = CacheKey::for_request(&request("p cnf 0 0\n", "0\n")).unwrap();
        assert!(matches!(cache.admit(&key, 1), Admit::Leader(_)));
        assert!(matches!(cache.admit(&key, 2), Admit::Coalesced));
        assert!(matches!(cache.admit(&key, 3), Admit::Coalesced));
        assert_eq!(cache.leader_gone(&key), Some(2));
        // 3 is still parked behind the promoted leader
        assert!(matches!(cache.admit(&key, 4), Admit::Coalesced));
        let (followers, _) = cache.complete(&key, Some(&verdict("verified")));
        assert_eq!(followers, vec![3, 4]);
        // a flight with no followers left disappears entirely
        let lone = CacheKey::for_request(&request("p cnf 1 1\n1 0\n", "0\n")).unwrap();
        assert!(matches!(cache.admit(&lone, 9), Admit::Leader(_)));
        assert_eq!(cache.leader_gone(&lone), None);
        assert!(matches!(cache.admit(&lone, 10), Admit::Leader(_)));
    }

    #[test]
    fn purge_removes_matching_followers_only() {
        let cache: VerdictCache<(u64, u32)> = VerdictCache::new(1 << 20);
        let key = CacheKey::for_request(&request("p cnf 0 0\n", "0\n")).unwrap();
        assert!(matches!(cache.admit(&key, (1, 0)), Admit::Leader(_)));
        cache.admit(&key, (2, 1));
        cache.admit(&key, (3, 2));
        cache.admit(&key, (2, 3));
        let purged = cache.purge(|&(conn, _)| conn == 2);
        assert_eq!(purged, vec![(2, 1), (2, 3)]);
        let (followers, _) = cache.complete(&key, None);
        assert_eq!(followers, vec![(3, 2)]);
    }

    #[test]
    fn lru_eviction_respects_byte_budget_and_recency() {
        let blob = "x".repeat(512);
        let keys: Vec<CacheKey> = (0..4)
            .map(|i| {
                CacheKey::for_request(&request(&format!("{blob}{i}"), "0\n"))
                    .unwrap()
            })
            .collect();
        // room for roughly two entries
        let cache: VerdictCache<u32> = VerdictCache::new(1600);
        for key in &keys[..2] {
            assert!(matches!(cache.admit(key, 0), Admit::Leader(_)));
            let (_, evicted) = cache.complete(key, Some(&verdict("verified")));
            assert_eq!(evicted, 0);
        }
        assert_eq!(cache.entry_count(), 2);
        // touch key 0 so key 1 is the LRU victim
        assert!(matches!(cache.admit(&keys[0], 0), Admit::Hit { .. }));
        assert!(matches!(cache.admit(&keys[2], 0), Admit::Leader(_)));
        let (_, evicted) = cache.complete(&keys[2], Some(&verdict("verified")));
        assert!(evicted >= 1, "insert over budget evicts");
        assert!(cache.bytes_used() <= 1600);
        assert!(matches!(cache.admit(&keys[0], 0), Admit::Hit { .. }), "recently used survives");
        assert!(matches!(cache.admit(&keys[1], 0), Admit::Leader(_)), "LRU victim is gone");
    }

    #[test]
    fn non_deterministic_outcomes_are_never_stored() {
        for (outcome, reason) in [
            ("exhausted", Some("timeout")),
            ("exhausted", Some("cancelled")),
        ] {
            let result = JobResult {
                outcome: outcome.into(),
                exhaust_reason: reason.map(str::to_string),
                ..JobResult::default()
            };
            assert!(!storable(&result), "{outcome}/{reason:?}");
        }
        for (outcome, reason) in [
            ("verified", None),
            ("rejected", None),
            ("exhausted", Some("propagations")),
            ("exhausted", Some("clause-visits")),
            ("exhausted", Some("memory")),
        ] {
            let result = JobResult {
                outcome: outcome.into(),
                exhaust_reason: reason.map(str::to_string),
                ..JobResult::default()
            };
            assert!(storable(&result), "{outcome}/{reason:?}");
        }
    }
}
