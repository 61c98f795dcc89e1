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
//!   (`--cache-bytes`). A body is admitted at capacity == length and
//!   costs that plus a fixed per-entry overhead; it is admitted when
//!   that cost fits the budget. An index of admitted bodies ordered by
//!   last use makes an admission cost only its victims.
//! - **Coalescing.** A body slot is a `OnceLock`, and the slot is its
//!   own flight: the first request for a key (the leader) inserts an
//!   empty slot; identical requests that arrive meanwhile (followers)
//!   find it and receive the same `Arc`'d body, so a thundering herd
//!   costs one pipeline run. A lookup (`AnalysisCache::lookup`) and
//!   the computation or wait (`Flight::resolve`) are separate steps,
//!   so a request may look up on one thread and resolve on another.
//!   Whichever request of a flight resolves first *claims* the slot and
//!   computes outside the lock; the rest block in `OnceLock::wait`.
//!   Nobody ever waits on a slot that is not being computed, even when
//!   its leader is still queued behind the waiter. A computation that
//!   fails or panics still fills its slot, then withdraws it: every
//!   coalesced follower gets the error and nothing is cached.
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
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
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

/// A body slot: claimed by the first of its flight's requests to start
/// computing, empty until that computation ends, then the result.
#[derive(Default)]
struct Slot {
    claimed: AtomicBool,
    result: OnceLock<Result<Arc<String>, ServiceError>>,
}

impl Slot {
    /// Claim the computation; `false` if another request already has.
    /// The flag only elects the computing request: the body itself is
    /// published (and waited for) through the `OnceLock`.
    fn claim(&self) -> bool {
        !self.claimed.swap(true, Ordering::AcqRel)
    }
}

struct Body {
    slot: Arc<Slot>,
    /// Accounted bytes once admitted; 0 while in flight.
    cost: usize,
    /// The tick of the last lookup or admission — once admitted, the
    /// body's key in `State::lru`.
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
    /// Every admitted body by its `last_used` tick, oldest first: the
    /// body eviction order. Ticks are unique, so the index is exact.
    lru: BTreeMap<u64, CacheKey>,
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

    /// Evict least-recently-used admitted bodies (never `keep`, the
    /// body just admitted and so the newest) until the cache is back
    /// under `budget`: each victim is the index's first entry, so the
    /// lock is held for O(log n) per victim.
    fn evict_over_budget(&mut self, budget: usize, keep: &CacheKey) {
        while self.stats.bytes > budget {
            let Some(oldest) = self.lru.first_entry() else {
                return;
            };
            if oldest.get() == keep {
                return;
            }
            let key = oldest.remove();
            // Publishing (and so evicting) also runs in `Flight`'s
            // `Drop`, which must not panic: an index entry without its
            // body is only asserted in debug builds.
            let Some(entry) = self.entries.get_mut(&key.digest) else {
                debug_assert!(false, "indexed body {key:?} has no entry");
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

/// The map and the byte budget it is settled against — shared with
/// every [`Flight`], which settles its slot here from whatever thread
/// its request finishes on.
struct Shared {
    state: Mutex<State>,
    byte_budget: usize,
}

/// The outcome of one body lookup.
pub(crate) enum Lookup {
    /// The body is cached.
    Hit(Arc<String>),
    /// It is not: the request must compute it or wait for it.
    Miss(Flight),
}

/// One request's place in a body's flight, from the lookup that found
/// (or inserted) the empty slot to [`Flight::resolve`]. `Send`, so the
/// lookup and the computation may run on different threads.
///
/// Dropping a flight settles its slot when no one else can: a request
/// that claimed the slot and unwound before publishing, or a leader
/// dropped before it resolved (its job refused) while no request has
/// claimed the slot, fills it with an error and withdraws it, so
/// followers never hang.
pub(crate) struct Flight {
    shared: Arc<Shared>,
    key: CacheKey,
    slot: Arc<Slot>,
    /// This request inserted the slot (it is the miss), rather than
    /// finding it (a coalesced follower).
    lead: bool,
    /// This request claimed the slot and owes it a result.
    owns: bool,
}

impl Flight {
    /// Compute the body with `f`, or wait for the request computing
    /// it: whichever request of the flight gets here first computes
    /// (and so owns the flight). Successful bodies are admitted to the
    /// cache within the byte budget.
    pub(crate) fn resolve(
        &mut self,
        f: impl FnOnce() -> Result<String, ServiceError>,
    ) -> Result<Arc<String>, ServiceError> {
        // A trace span only past the hit fast path: a hit is one map
        // probe under the lock, below what span timing resolves, and
        // the hot path must not pay two clock reads for it. A "cache"
        // span in a trace therefore *means* the cache had to work
        // (coalesced wait or compute).
        let _span = tpn_obs::trace::span("cache");
        self.owns = self.slot.claim();
        if !self.owns {
            return self.slot.result.wait().clone();
        }
        // If `f` panics, dropping `self` fills the slot (and unblocks
        // followers with an error). A body is kept at capacity ==
        // length, so the budget charges what it holds of the heap.
        let result = f().map(|mut body| {
            body.shrink_to_fit();
            Arc::new(body)
        });
        self.shared.publish(self.key, &self.slot, result.clone());
        result
    }
}

impl Drop for Flight {
    fn drop(&mut self) {
        if self.slot.result.get().is_some() {
            return;
        }
        if self.owns || (self.lead && self.slot.claim()) {
            let panicked = ServiceError::Analysis("computation panicked".to_string());
            self.shared.publish(self.key, &self.slot, Err(panicked));
        }
    }
}

/// The one cache: sessions and response bodies per net digest, under
/// one lock, one byte budget and one session bound.
pub struct AnalysisCache {
    shared: Arc<Shared>,
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
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    entries: HashMap::new(),
                    lru: BTreeMap::new(),
                    resident: Vec::new(),
                    clock: 0,
                    stats: CacheStats::default(),
                }),
                byte_budget,
            }),
            session_cap,
            options,
            counters: Arc::new(StageCounters::new()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.shared.state.lock().expect("cache lock")
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
    /// of the same key (request coalescing): a lookup, then the miss
    /// resolved, on one thread. Successful bodies are cached; errors
    /// are returned to every coalesced caller but not cached (they are
    /// cheap to rediscover and keep the cache all-success).
    ///
    /// A body comes with whether this call ran `f`: `false` is a hit,
    /// from the cache or from a wait coalesced onto another request.
    pub fn get_or_compute(
        &self,
        key: CacheKey,
        f: impl FnOnce() -> Result<String, ServiceError>,
    ) -> Result<(Arc<String>, bool), ServiceError> {
        match self.lookup(key) {
            Lookup::Hit(body) => Ok((body, false)),
            Lookup::Miss(mut flight) => {
                let body = flight.resolve(f)?;
                Ok((body, flight.owns))
            }
        }
    }

    /// Look `key` up under one lock: the cached body, or this request's
    /// [`Flight`] — as its leader when the lookup inserted the empty
    /// slot (a miss), as a follower when another request had.
    pub(crate) fn lookup(&self, key: CacheKey) -> Lookup {
        let mut guard = self.lock();
        let state = &mut *guard;
        let tick = state.tick();
        let bodies = &mut state.entries.entry(key.digest).or_default().bodies;
        let (slot, lead) = match bodies.entry(key.kind) {
            MapEntry::Occupied(mut found) => {
                let body = found.get_mut();
                if let Some(Ok(value)) = body.slot.result.get() {
                    let indexed = state.lru.remove(&body.last_used);
                    debug_assert_eq!(indexed, Some(key), "admitted bodies are indexed");
                    state.lru.insert(tick, key);
                    body.last_used = tick;
                    state.stats.hits += 1;
                    return Lookup::Hit(Arc::clone(value));
                }
                // Follower: another request leads this very key.
                state.stats.coalesced += 1;
                (Arc::clone(&body.slot), false)
            }
            MapEntry::Vacant(vacant) => {
                state.stats.misses += 1;
                state.stats.computations += 1;
                let slot = Arc::new(Slot::default());
                vacant.insert(Body {
                    slot: Arc::clone(&slot),
                    cost: 0,
                    last_used: tick,
                });
                (slot, true)
            }
        };
        drop(guard);
        Lookup::Miss(Flight {
            shared: Arc::clone(&self.shared),
            key,
            slot,
            lead,
            owns: false,
        })
    }
}

impl Shared {
    /// Fill a claimed slot and settle it under the lock: a body whose
    /// cost fits the budget is admitted, evicting least-recently-used
    /// bodies as needed; an error or an oversized body is withdrawn, so
    /// the next request recomputes. (Admitting a body bigger than the
    /// budget would evict everything *and* leave the cache over its
    /// configured limit.)
    fn publish(&self, key: CacheKey, slot: &Slot, result: Result<Arc<String>, ServiceError>) {
        let admitted = result
            .as_ref()
            .ok()
            .map(|body| body.capacity() + ENTRY_OVERHEAD)
            .filter(|&cost| cost <= self.byte_budget);
        // Not a panicking lock: this also runs in `Flight`'s `Drop`,
        // which must not panic. With the lock poisoned the map cannot be
        // settled, but filling the slot still wakes every follower.
        let Ok(mut guard) = self.state.lock() else {
            let _ = slot.result.set(result);
            return;
        };
        let state = &mut *guard;
        let _ = slot.result.set(result);
        let tick = state.tick();
        let Some(entry) = state.entries.get_mut(&key.digest) else {
            return;
        };
        match admitted {
            Some(cost) => {
                if let Some(body) = entry.bodies.get_mut(&key.kind) {
                    body.cost = cost;
                    body.last_used = tick;
                    state.lru.insert(tick, key);
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
}

impl AnalysisCache {
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
        let (a, computed) = cache
            .get_or_compute(key(1), || Ok("body".to_string()))
            .unwrap();
        assert!(computed, "a miss runs its computation");
        let (b, computed) = cache
            .get_or_compute(key(1), || panic!("must not recompute"))
            .unwrap();
        assert!(!computed, "a hit runs none");
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
    fn hits_reorder_recency_before_eviction() {
        // Budget fits three bodies.
        let body = "x".repeat(200);
        let cache = with_budget(3 * (200 + ENTRY_OVERHEAD) + 10);
        let compute = |tag| {
            cache.get_or_compute(key(tag), || Ok(body.clone())).unwrap();
        };
        let hit = |tag| {
            cache
                .get_or_compute(key(tag), || panic!("{tag} must be cached"))
                .unwrap();
        };
        let resident = |tag| {
            let state = cache.lock();
            state.entries.contains_key(&key(tag).digest)
        };
        for tag in 1..=3 {
            compute(tag);
        }
        // Admission order 1 < 2 < 3; hits make it 3 < 1 < 2.
        hit(1);
        hit(2);
        compute(4);
        assert!(!resident(3) && resident(1) && resident(2) && resident(4));
        // 2 < 4 < 1 after this hit, so 5 evicts 2.
        hit(1);
        compute(5);
        assert!(!resident(2) && resident(1) && resident(4) && resident(5));
        let s = cache.stats();
        assert_eq!((s.evictions, s.entries), (2, 3));
        // The index holds exactly the admitted bodies, oldest first.
        let state = cache.lock();
        let order: Vec<CacheKey> = state.lru.values().copied().collect();
        assert_eq!(order, vec![key(4), key(1), key(5)]);
    }

    #[test]
    fn bodies_are_admitted_at_capacity_equal_to_length() {
        let cache = with_budget(1 << 20);
        let (body, _) = cache
            .get_or_compute(key(1), || {
                let mut body = String::with_capacity(32 << 10);
                body.push_str("{\"kind\":\"analyze\"}");
                Ok(body)
            })
            .unwrap();
        assert_eq!(body.capacity(), body.len());
        assert_eq!(cache.stats().bytes, body.len() + ENTRY_OVERHEAD);
    }

    #[test]
    fn oversized_bodies_are_served_but_not_admitted() {
        let cache = with_budget(100);
        let big = "x".repeat(500);
        let (v, _) = cache.get_or_compute(key(1), || Ok(big.clone())).unwrap();
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
        let bodies: Vec<(Arc<String>, bool)> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(computed.load(Ordering::Relaxed), 1, "exactly one leader");
        assert!(bodies.iter().all(|(b, _)| b.as_str() == "slow"));
        let ran = bodies.iter().filter(|(_, ran)| *ran).count();
        assert_eq!(ran, 1, "only the leader reports its computation");
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
    fn a_follower_computes_while_its_leader_is_still_queued() {
        let cache = with_budget(1 << 20);
        // The leader looked up (say, on the listener's reactor) but its
        // job has not started.
        let Lookup::Miss(mut leader) = cache.lookup(key(5)) else {
            panic!("first lookup must miss");
        };
        // A follower must not wait on a computation nobody is running:
        // with one worker, the queued leader would never start.
        let (body, computed) = cache
            .get_or_compute(key(5), || Ok("follower".into()))
            .unwrap();
        assert_eq!(*body, "follower");
        assert!(computed, "the follower claimed the slot");
        let led = leader
            .resolve(|| panic!("the follower already computed"))
            .unwrap();
        assert!(Arc::ptr_eq(&led, &body));
        let s = cache.stats();
        assert_eq!((s.misses, s.computations, s.coalesced), (1, 1, 1));
        assert_eq!(s.entries, 1);
    }

    #[test]
    fn a_leader_dropped_unrun_releases_its_followers() {
        let cache = with_budget(1 << 20);
        let Lookup::Miss(leader) = cache.lookup(key(6)) else {
            panic!("first lookup must miss");
        };
        let Lookup::Miss(mut follower) = cache.lookup(key(6)) else {
            panic!("the slot is in flight");
        };
        // The leader's job was refused: its flight settles the slot.
        drop(leader);
        let e = follower
            .resolve(|| panic!("the dropped leader claimed the slot"))
            .unwrap_err();
        assert!(e.to_string().contains("panicked"), "{e}");
        // Nothing was cached; the next request computes afresh.
        assert_eq!(cache.stats().entries, 0);
        cache.get_or_compute(key(6), || Ok("fresh".into())).unwrap();
        assert_eq!(cache.stats().computations, 2);
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
