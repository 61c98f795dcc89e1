//! The per-digest session cache — the first tier of the daemon's
//! two-tier cache.
//!
//! The second tier (the [`AnalysisCache`](crate::AnalysisCache)) stores
//! *final response bodies* keyed by `(digest, request kind)`. This tier
//! stores the **pipeline artifacts** behind them: one
//! [`tpn_session::Session`] per net digest, so a `/sweep` following an
//! `/analyze` of the same net re-uses the memoized TRG, lifted domain
//! and compiled program instead of re-deriving the whole chain — even
//! though their response bodies live under different cache keys.
//!
//! Every session created here shares one [`StageCounters`], which is
//! what the `/stats` endpoint's per-stage `artifact_*` counters report.
//! Eviction is least-recently-used by session count; evicting a session
//! drops its artifacts but never its already-cached response bodies.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use tpn_net::{NetDigest, TimedPetriNet};
use tpn_session::{Session, SessionOptions, StageCounters};

/// Counter snapshot of the session tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionCacheStats {
    /// Sessions currently held.
    pub sessions: usize,
    /// Requests that found their net's session already materialised.
    pub hits: u64,
    /// Requests that created a fresh session.
    pub misses: u64,
    /// Sessions evicted to stay within the capacity.
    pub evictions: u64,
}

struct Slot {
    session: Arc<Session>,
    last_used: u64,
}

/// An LRU-bounded map from net digest to shared [`Session`].
pub struct SessionCache {
    map: Mutex<HashMap<NetDigest, Slot>>,
    clock: AtomicU64,
    capacity: usize,
    options: SessionOptions,
    counters: Arc<StageCounters>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl SessionCache {
    /// An empty cache holding at most `capacity` sessions (clamped to
    /// at least 1), creating sessions with `options` and aggregating
    /// their stage counters into one shared [`StageCounters`].
    pub fn new(capacity: usize, options: SessionOptions) -> SessionCache {
        SessionCache {
            map: Mutex::new(HashMap::new()),
            clock: AtomicU64::new(0),
            capacity: capacity.max(1),
            options,
            counters: Arc::new(StageCounters::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The stage counters shared by every session this cache created.
    pub fn counters(&self) -> &Arc<StageCounters> {
        &self.counters
    }

    /// The session for `digest`, creating (and LRU-evicting) as
    /// needed. `net` must be the net `digest` was computed from; it is
    /// consumed only on a miss.
    pub fn session_for(&self, digest: NetDigest, net: TimedPetriNet) -> Arc<Session> {
        let tick = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut map = self.map.lock().expect("session map lock");
        if let Some(slot) = map.get_mut(&digest) {
            slot.last_used = tick;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(&slot.session);
        }
        // Span the miss only: a hit is one map probe, below span
        // resolution, and the warm path must not pay clock reads for
        // it. A "session" span in a trace means a session was built.
        let _span = tpn_obs::trace::span("session");
        self.misses.fetch_add(1, Ordering::Relaxed);
        let session = Arc::new(
            Session::with_counters(net, self.options.clone(), Arc::clone(&self.counters))
                .with_digest(digest),
        );
        map.insert(
            digest,
            Slot {
                session: Arc::clone(&session),
                last_used: tick,
            },
        );
        let mut evicted = Vec::new();
        while map.len() > self.capacity {
            // In-flight users keep their Arc; only the cache's handle
            // is dropped.
            let victim = map
                .iter()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(d, _)| *d)
                .expect("non-empty map");
            evicted.extend(map.remove(&victim));
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        // Freeing an evicted session's artifacts is the slow part of an
        // eviction: do it after unlocking, so warm lookups never wait
        // for it.
        drop(map);
        drop(evicted);
        session
    }

    /// A counter and occupancy snapshot.
    pub fn stats(&self) -> SessionCacheStats {
        SessionCacheStats {
            sessions: self.map.lock().expect("session map lock").len(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpn_net::parse_tpn;

    fn net(n: u32) -> TimedPetriNet {
        parse_tpn(&format!(
            "net n{n}\nplace a init 1\nplace b\n\
             trans go in a out b firing {}\ntrans back in b out a firing 3",
            n + 1
        ))
        .unwrap()
    }

    #[test]
    fn sessions_are_shared_per_digest() {
        let cache = SessionCache::new(4, SessionOptions::new());
        let a = net(1);
        let d = a.digest();
        let s1 = cache.session_for(d, a.clone());
        let s2 = cache.session_for(d, a);
        assert!(Arc::ptr_eq(&s1, &s2));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.sessions), (1, 1, 1));
    }

    #[test]
    fn lru_eviction_by_capacity() {
        let cache = SessionCache::new(2, SessionOptions::new());
        let nets: Vec<TimedPetriNet> = (0..3).map(net).collect();
        let d0 = nets[0].digest();
        cache.session_for(d0, nets[0].clone());
        cache.session_for(nets[1].digest(), nets[1].clone());
        // touch net 0 so net 1 is the LRU victim
        cache.session_for(d0, nets[0].clone());
        cache.session_for(nets[2].digest(), nets[2].clone());
        let stats = cache.stats();
        assert_eq!((stats.sessions, stats.evictions), (2, 1));
        // net 0 survived (hit), net 1 was evicted (miss)
        cache.session_for(d0, nets[0].clone());
        let before = cache.stats().misses;
        cache.session_for(nets[1].digest(), nets[1].clone());
        assert_eq!(cache.stats().misses, before + 1);
    }
}
