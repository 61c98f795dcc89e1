//! The daemon's one cache: per net digest, the memoizing [`Session`]
//! that holds the net's pipeline artifacts, and the response bodies
//! rendered from them.
//!
//! Everything lives in one `Mutex<HashMap<NetDigest, Entry>>`. An entry
//! holds its net's session, while resident, and its bodies keyed by
//! [`RequestKind`]. The digest is order-independent (see
//! [`tpn_net::NetDigest`]), so textually different `.tpn` documents
//! describing the same net share an entry. What-if fragments live in
//! entries keyed by the base net's *structural* digest; those entries
//! never hold a session.
//!
//! - **Bodies** are evicted least-recently-used under one byte budget
//!   (`--cache-bytes`). A body costs its length plus a fixed per-entry
//!   overhead, and is admitted when that cost fits the budget.
//! - **Coalescing.** A body slot is a `OnceLock`, and the slot is its
//!   own flight: the first request for a key (the leader) inserts an
//!   empty slot and computes outside the lock; identical requests that
//!   arrive meanwhile block in `OnceLock::wait` and receive the same
//!   `Arc`'d body, so a thundering herd costs one pipeline run. A leader
//!   that fails or panics still fills its slot, then withdraws it:
//!   every coalesced follower gets the error and nothing is cached.
//! - **Sessions** beyond [`MAX_SESSIONS`] are dropped least-recently-used.
//!   Their entry keeps its bodies, so a body hit never depends on the
//!   artifacts being resident; a request whose entry has no session
//!   creates one. Every session shares one [`StageCounters`], which is
//!   what the `/stats` endpoint's per-stage `artifact_*` counters report.
//!
//! Counters (body hits, misses, evictions, computations, coalesced
//! waits; session hits, misses, evictions) are updated under the same
//! lock and feed the server's `/stats` endpoint.

use std::collections::hash_map::Entry as MapEntry;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use tpn_net::{NetDigest, TimedPetriNet};
use tpn_session::{Session, SessionOptions, StageCounters};

use crate::{RequestKind, ServiceError};

/// A cache key: which net (by content digest) and which analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The net's canonical content digest.
    pub digest: NetDigest,
    /// The requested analysis, options included.
    pub kind: RequestKind,
}

/// Sessions held at once; beyond it the least recently used is dropped.
pub const MAX_SESSIONS: usize = 32;

/// Fixed accounting overhead per body (key, map slot, Arc header).
const ENTRY_OVERHEAD: usize = 64;

/// Counter snapshot for `/stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the map.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Bodies evicted to stay within the byte budget.
    pub evictions: u64,
    /// Actual pipeline executions (monotonic; `misses` minus failures
    /// re-counted — one per leader computation).
    pub computations: u64,
    /// Requests that piggybacked on a concurrent identical computation.
    pub coalesced: u64,
    /// Bodies currently cached.
    pub entries: usize,
    /// Bytes currently cached (bodies plus per-entry overhead).
    pub bytes: usize,
    /// The session counters (`/stats` nests them in `"sessions"`).
    pub sessions: SessionStats,
}

/// Counter snapshot of the cache's sessions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Sessions currently held.
    pub sessions: usize,
    /// Requests that found their net's session already materialised.
    pub hits: u64,
    /// Requests that created a fresh session.
    pub misses: u64,
    /// Sessions dropped to stay within [`MAX_SESSIONS`].
    pub evictions: u64,
}

/// A body slot: empty while its leader computes, then the result.
type Slot = OnceLock<Result<Arc<String>, ServiceError>>;

struct Body {
    slot: Arc<Slot>,
    /// Accounted bytes once admitted; 0 while in flight.
    cost: usize,
    last_used: u64,
}

struct Resident {
    session: Arc<Session>,
    last_used: u64,
}

/// One digest's line. Every body in it is either in flight (its slot
/// empty) or admitted (its slot holds `Ok`): a failed or oversized
/// result is filled and withdrawn under one lock.
#[derive(Default)]
struct Entry {
    session: Option<Resident>,
    bodies: HashMap<RequestKind, Body>,
}

impl Entry {
    fn is_empty(&self) -> bool {
        self.session.is_none() && self.bodies.is_empty()
    }
}

struct State {
    entries: HashMap<NetDigest, Entry>,
    /// The digests whose entry holds a session — the session victim
    /// search scans these, not every cached body.
    resident: Vec<NetDigest>,
    /// The LRU clock shared by bodies and sessions.
    clock: u64,
    /// Counters and body gauges (`sessions.sessions` is read off
    /// `resident`).
    stats: CacheStats,
}

impl State {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Evict least-recently-used admitted bodies (never `keep`) until
    /// the cache is back under `budget`. One scan + one sort, not a
    /// scan per victim: the lock is held for O(n log n) in the worst
    /// case, independent of how many bodies must go.
    fn evict_over_budget(&mut self, budget: usize, keep: &CacheKey) {
        if self.stats.bytes <= budget {
            return;
        }
        let mut candidates: Vec<(u64, CacheKey)> = self
            .entries
            .iter()
            .flat_map(|(&digest, entry)| {
                entry
                    .bodies
                    .iter()
                    .filter(|(_, body)| body.cost > 0)
                    .map(move |(&kind, body)| (body.last_used, CacheKey { digest, kind }))
            })
            .filter(|(_, key)| key != keep)
            .collect();
        candidates.sort_unstable_by_key(|(used, _)| *used);
        for (_, key) in candidates {
            if self.stats.bytes <= budget {
                break;
            }
            let Some(entry) = self.entries.get_mut(&key.digest) else {
                continue;
            };
            if let Some(body) = entry.bodies.remove(&key.kind) {
                self.stats.bytes -= body.cost;
                self.stats.entries -= 1;
                self.stats.evictions += 1;
            }
            if entry.is_empty() {
                self.entries.remove(&key.digest);
            }
        }
    }

    /// Drop the least recently used session, keeping its entry's
    /// bodies. In-flight users keep their `Arc`; only the cache's
    /// handle is returned, for the caller to free after unlocking.
    fn drop_lru_session(&mut self) -> Option<Arc<Session>> {
        let entries = &self.entries;
        let (at, _) = self.resident.iter().enumerate().min_by_key(|(_, digest)| {
            entries[*digest]
                .session
                .as_ref()
                .map_or(0, |resident| resident.last_used)
        })?;
        let digest = self.resident.swap_remove(at);
        self.stats.sessions.evictions += 1;
        let entry = self.entries.get_mut(&digest)?;
        let victim = entry.session.take();
        if entry.is_empty() {
            self.entries.remove(&digest);
        }
        victim.map(|resident| resident.session)
    }
}

/// Fills the leader's slot with an error if the leader unwinds before
/// publishing a result, so followers never hang on a panicked leader.
struct LeaderGuard<'a> {
    cache: &'a AnalysisCache,
    key: CacheKey,
    slot: Arc<Slot>,
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        if self.slot.get().is_none() {
            let panicked = ServiceError::Analysis("computation panicked".to_string());
            self.cache.publish(self.key, &self.slot, Err(panicked));
        }
    }
}

/// The one cache: sessions and response bodies per net digest, under
/// one lock, one byte budget and one session bound.
pub struct AnalysisCache {
    state: Mutex<State>,
    byte_budget: usize,
    session_cap: usize,
    options: SessionOptions,
    counters: Arc<StageCounters>,
}

impl AnalysisCache {
    /// An empty cache holding bodies within `byte_budget` bytes and at
    /// most [`MAX_SESSIONS`] sessions, created with `options` and
    /// aggregating their stage counters into one [`StageCounters`].
    pub fn new(byte_budget: usize, options: SessionOptions) -> AnalysisCache {
        AnalysisCache::with_session_cap(byte_budget, MAX_SESSIONS, options)
    }

    fn with_session_cap(
        byte_budget: usize,
        session_cap: usize,
        options: SessionOptions,
    ) -> AnalysisCache {
        AnalysisCache {
            state: Mutex::new(State {
                entries: HashMap::new(),
                resident: Vec::new(),
                clock: 0,
                stats: CacheStats::default(),
            }),
            byte_budget,
            session_cap,
            options,
            counters: Arc::new(StageCounters::new()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("cache lock")
    }

    /// The stage counters shared by every session this cache created.
    pub fn counters(&self) -> &Arc<StageCounters> {
        &self.counters
    }

    /// The session for `digest`, creating one (and dropping the least
    /// recently used beyond [`MAX_SESSIONS`]) as needed. `net` must be
    /// the net `digest` was computed from; it is consumed only on a
    /// miss.
    pub fn session_for(&self, digest: NetDigest, net: TimedPetriNet) -> Arc<Session> {
        let mut guard = self.lock();
        let state = &mut *guard;
        let tick = state.tick();
        let entry = state.entries.entry(digest).or_default();
        if let Some(resident) = &mut entry.session {
            resident.last_used = tick;
            state.stats.sessions.hits += 1;
            return Arc::clone(&resident.session);
        }
        // Span the miss only: a hit is one map probe, below span
        // resolution, and the warm path must not pay clock reads for
        // it. A "session" span in a trace means a session was built.
        let _span = tpn_obs::trace::span("session");
        state.stats.sessions.misses += 1;
        let session = Arc::new(
            Session::with_counters(net, self.options.clone(), Arc::clone(&self.counters))
                .with_digest(digest),
        );
        entry.session = Some(Resident {
            session: Arc::clone(&session),
            last_used: tick,
        });
        state.resident.push(digest);
        let evicted = if state.resident.len() > self.session_cap {
            state.drop_lru_session()
        } else {
            None
        };
        // Freeing an evicted session's artifacts is the slow part of an
        // eviction: do it after unlocking, so warm lookups never wait
        // for it.
        drop(guard);
        drop(evicted);
        session
    }

    /// The core serving primitive: return the cached body for `key`, or
    /// compute it with `f` — at most once across all concurrent callers
    /// of the same key (request coalescing). Successful bodies are
    /// cached; errors are returned to every coalesced caller but not
    /// cached (they are cheap to rediscover and keep the cache
    /// all-success).
    pub fn get_or_compute(
        &self,
        key: CacheKey,
        f: impl FnOnce() -> Result<String, ServiceError>,
    ) -> Result<Arc<String>, ServiceError> {
        let (slot, is_leader) = {
            let mut guard = self.lock();
            let state = &mut *guard;
            let tick = state.tick();
            let bodies = &mut state.entries.entry(key.digest).or_default().bodies;
            match bodies.entry(key.kind) {
                MapEntry::Occupied(mut found) => {
                    let body = found.get_mut();
                    if let Some(Ok(value)) = body.slot.get() {
                        body.last_used = tick;
                        state.stats.hits += 1;
                        return Ok(Arc::clone(value));
                    }
                    // Follower: a leader is computing this very key.
                    state.stats.coalesced += 1;
                    (Arc::clone(&body.slot), false)
                }
                MapEntry::Vacant(vacant) => {
                    state.stats.misses += 1;
                    state.stats.computations += 1;
                    let slot = Arc::new(Slot::new());
                    vacant.insert(Body {
                        slot: Arc::clone(&slot),
                        cost: 0,
                        last_used: tick,
                    });
                    (slot, true)
                }
            }
        };
        // A trace span only past the hit fast path: a hit is one map
        // probe under the lock, below what span timing resolves, and the
        // hot path must not pay two clock reads for it. A "cache" span
        // in a trace therefore *means* the cache had to work (coalesced
        // wait or compute).
        let _span = tpn_obs::trace::span("cache");
        if !is_leader {
            return slot.wait().clone();
        }
        // The guard fills the slot (and unblocks followers with an
        // error) even if `f` panics.
        let guard = LeaderGuard {
            cache: self,
            key,
            slot,
        };
        let result = f().map(Arc::new);
        self.publish(key, &guard.slot, result.clone());
        result
    }

    /// Fill a leader's slot and settle it under the lock: a body whose
    /// cost fits the budget is admitted, evicting least-recently-used
    /// bodies as needed; an error or an oversized body is withdrawn, so
    /// the next request recomputes. (Admitting a body bigger than the
    /// budget would evict everything *and* leave the cache over its
    /// configured limit.)
    fn publish(&self, key: CacheKey, slot: &Slot, result: Result<Arc<String>, ServiceError>) {
        let admitted = result
            .as_ref()
            .ok()
            .map(|body| body.len() + ENTRY_OVERHEAD)
            .filter(|&cost| cost <= self.byte_budget);
        // Not `lock()`: this also runs in the leader guard's `Drop`,
        // which must not panic. With the lock poisoned the map cannot be
        // settled, but filling the slot still wakes every follower.
        let Ok(mut guard) = self.state.lock() else {
            let _ = slot.set(result);
            return;
        };
        let state = &mut *guard;
        let _ = slot.set(result);
        let tick = state.tick();
        let Some(entry) = state.entries.get_mut(&key.digest) else {
            return;
        };
        match admitted {
            Some(cost) => {
                if let Some(body) = entry.bodies.get_mut(&key.kind) {
                    body.cost = cost;
                    body.last_used = tick;
                    state.stats.entries += 1;
                    state.stats.bytes += cost;
                }
                state.evict_over_budget(self.byte_budget, &key);
            }
            None => {
                entry.bodies.remove(&key.kind);
                if entry.is_empty() {
                    state.entries.remove(&key.digest);
                }
            }
        }
    }

    /// A counter and occupancy snapshot.
    pub fn stats(&self) -> CacheStats {
        let state = self.lock();
        let mut stats = state.stats;
        stats.sessions.sessions = state.resident.len();
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Service, ServiceConfig};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;
    use tpn_net::parse_tpn;
    use tpn_session::Stage;

    fn key(tag: u64) -> CacheKey {
        CacheKey {
            digest: NetDigest([tag, !tag]),
            kind: RequestKind::Analyze,
        }
    }

    fn with_budget(byte_budget: usize) -> AnalysisCache {
        AnalysisCache::new(byte_budget, SessionOptions::new())
    }

    fn net_text(n: usize) -> String {
        format!(
            "net n{n}\nplace a init 1\nplace b\n\
             trans go in a out b firing {}\ntrans back in b out a firing 3",
            n + 1
        )
    }

    fn net(n: usize) -> TimedPetriNet {
        parse_tpn(&net_text(n)).unwrap()
    }

    #[test]
    fn hit_after_miss_returns_same_body() {
        let cache = with_budget(1 << 20);
        let a = cache
            .get_or_compute(key(1), || Ok("body".to_string()))
            .unwrap();
        let b = cache
            .get_or_compute(key(1), || panic!("must not recompute"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.computations), (1, 1, 1));
        assert_eq!(s.entries, 1);
        assert!(s.bytes >= "body".len());
    }

    #[test]
    fn distinct_kinds_are_distinct_entries() {
        let cache = with_budget(1 << 20);
        let k2 = CacheKey {
            digest: NetDigest([1, !1]),
            kind: RequestKind::Simulate {
                events: 10,
                seed: 1,
            },
        };
        cache.get_or_compute(key(1), || Ok("a".into())).unwrap();
        cache.get_or_compute(k2, || Ok("b".into())).unwrap();
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn lru_eviction_order() {
        // Budget fits two entries; A is touched, so inserting C evicts B.
        let body = "x".repeat(200);
        let cache = with_budget(2 * (200 + ENTRY_OVERHEAD) + 10);
        cache.get_or_compute(key(1), || Ok(body.clone())).unwrap();
        cache.get_or_compute(key(2), || Ok(body.clone())).unwrap();
        // touch A so B becomes the LRU entry
        cache
            .get_or_compute(key(1), || panic!("hit expected"))
            .unwrap();
        cache.get_or_compute(key(3), || Ok(body.clone())).unwrap();
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
        // A survived, B was evicted, C is fresh
        cache
            .get_or_compute(key(1), || panic!("A must have survived"))
            .unwrap();
        cache
            .get_or_compute(key(3), || panic!("C must have survived"))
            .unwrap();
        let recomputed = AtomicUsize::new(0);
        cache
            .get_or_compute(key(2), || {
                recomputed.fetch_add(1, Ordering::Relaxed);
                Ok(body.clone())
            })
            .unwrap();
        assert_eq!(recomputed.load(Ordering::Relaxed), 1, "B was evicted");
    }

    #[test]
    fn oversized_bodies_are_served_but_not_admitted() {
        let cache = with_budget(100);
        let big = "x".repeat(500);
        let v = cache.get_or_compute(key(1), || Ok(big.clone())).unwrap();
        assert_eq!(*v, big, "caller still gets the body");
        let s = cache.stats();
        assert_eq!((s.entries, s.bytes), (0, 0), "not admitted: {s:?}");
        // the next identical request recomputes rather than hitting
        cache.get_or_compute(key(1), || Ok(big.clone())).unwrap();
        assert_eq!(cache.stats().computations, 2);
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = with_budget(1 << 20);
        let e = cache
            .get_or_compute(key(1), || Err(ServiceError::Analysis("boom".into())))
            .unwrap_err();
        assert_eq!(e, ServiceError::Analysis("boom".into()));
        assert_eq!(cache.stats().entries, 0);
        // next call recomputes and can succeed
        cache.get_or_compute(key(1), || Ok("ok".into())).unwrap();
        assert_eq!(cache.stats().computations, 2);
    }

    #[test]
    fn concurrent_identical_requests_compute_once() {
        let cache = Arc::new(with_budget(1 << 20));
        let computed = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let computed = Arc::clone(&computed);
            handles.push(std::thread::spawn(move || {
                cache
                    .get_or_compute(key(42), || {
                        computed.fetch_add(1, Ordering::Relaxed);
                        // hold the flight open long enough for the other
                        // threads to pile up behind it
                        std::thread::sleep(Duration::from_millis(60));
                        Ok("slow".to_string())
                    })
                    .unwrap()
            }));
        }
        let bodies: Vec<Arc<String>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(computed.load(Ordering::Relaxed), 1, "exactly one leader");
        assert!(bodies.iter().all(|b| b.as_str() == "slow"));
        let s = cache.stats();
        assert_eq!(s.computations, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits + s.coalesced, 7, "{s:?}");
    }

    #[test]
    fn leader_panic_unblocks_followers() {
        let cache = Arc::new(with_budget(1 << 20));
        let c2 = Arc::clone(&cache);
        let leader = std::thread::spawn(move || {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                c2.get_or_compute(key(9), || -> Result<String, ServiceError> {
                    std::thread::sleep(Duration::from_millis(60));
                    panic!("leader dies")
                })
            }));
        });
        std::thread::sleep(Duration::from_millis(10));
        let follower = cache.get_or_compute(key(9), || Ok("fallback".into()));
        leader.join().unwrap();
        // Either the follower coalesced onto the dying leader (error) or
        // arrived after cleanup and computed its own (success).
        if let Err(e) = follower {
            assert!(e.to_string().contains("panicked"), "{e}");
        }
    }

    #[test]
    fn sessions_are_shared_per_digest() {
        let cache = AnalysisCache::with_session_cap(1 << 20, 4, SessionOptions::new());
        let a = net(1);
        let d = a.digest();
        let s1 = cache.session_for(d, a.clone());
        let s2 = cache.session_for(d, a);
        assert!(Arc::ptr_eq(&s1, &s2));
        let stats = cache.stats().sessions;
        assert_eq!((stats.hits, stats.misses, stats.sessions), (1, 1, 1));
    }

    #[test]
    fn lru_eviction_by_capacity() {
        let cache = AnalysisCache::with_session_cap(1 << 20, 2, SessionOptions::new());
        let nets: Vec<TimedPetriNet> = (0..3).map(net).collect();
        let d0 = nets[0].digest();
        cache.session_for(d0, nets[0].clone());
        cache.session_for(nets[1].digest(), nets[1].clone());
        // touch net 0 so net 1 is the LRU victim
        cache.session_for(d0, nets[0].clone());
        cache.session_for(nets[2].digest(), nets[2].clone());
        let stats = cache.stats().sessions;
        assert_eq!((stats.sessions, stats.evictions), (2, 1));
        // net 0 survived (hit), net 1 was evicted (miss)
        cache.session_for(d0, nets[0].clone());
        let before = cache.stats().sessions.misses;
        cache.session_for(nets[1].digest(), nets[1].clone());
        assert_eq!(cache.stats().sessions.misses, before + 1);
    }

    #[test]
    fn dropped_sessions_keep_their_bodies() {
        let svc = Service::new(ServiceConfig::default());
        for n in 0..=MAX_SESSIONS {
            assert_eq!(svc.respond(RequestKind::Analyze, &net_text(n)).0, 200);
        }
        // 33 cold sessions: net 0's, the least recently used, is gone.
        let before = svc.cache().stats();
        assert_eq!(before.sessions.sessions, MAX_SESSIONS);
        assert_eq!(before.sessions.evictions, 1);
        let trg_builds = || svc.cache().counters().snapshot(Stage::Trg).builds;
        let builds = trg_builds();
        // Its /analyze body outlived it: a hit, with no TRG rebuilt.
        assert_eq!(svc.respond(RequestKind::Analyze, &net_text(0)).0, 200);
        let after = svc.cache().stats();
        assert_eq!(after.hits, before.hits + 1);
        assert_eq!(after.computations, before.computations);
        assert_eq!(trg_builds(), builds);
        // …and it touched no session: none created, none evicted.
        assert_eq!(after.sessions, before.sessions);
        // A /graph needs the artifacts: the net's session is created
        // again (one session miss for the pair) and its TRG built once.
        assert_eq!(svc.respond(RequestKind::Graph, &net_text(0)).0, 200);
        assert_eq!(
            svc.cache().stats().sessions.misses,
            before.sessions.misses + 1
        );
        assert_eq!(trg_builds(), builds + 1);
    }

    #[test]
    fn budget_admits_any_body_that_fits() {
        // One budget, not sixteen shards of it: fig1's /analyze body
        // fits 16 KiB and is cached.
        let svc = Service::new(ServiceConfig {
            cache_bytes: 16 << 10,
            ..ServiceConfig::default()
        });
        let fig1 = include_str!("../../../tests/fixtures/fig1.tpn");
        for _ in 0..2 {
            assert_eq!(svc.respond(RequestKind::Analyze, fig1).0, 200);
        }
        let s = svc.cache().stats();
        assert_eq!((s.computations, s.entries, s.bytes), (1, 1, 1234));
    }
}
