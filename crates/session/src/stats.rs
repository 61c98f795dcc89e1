//! Per-stage artifact counters.
//!
//! Every [`Session`](crate::Session) accessor classifies its demand as
//! a **hit** (the artifact was already materialised), a **miss** (it
//! was not) or — for the thread that actually runs the computation — a
//! **build**. Under concurrent demand several threads may miss the same
//! vacant artifact, but exactly one of them builds it; the others block
//! and share the built `Arc`. `hits + misses` therefore counts demands,
//! while `builds` counts pipeline executions, and `misses - builds` is
//! the number of demands that coalesced onto a concurrent build (or
//! re-observed a memoized error).
//!
//! Counters are plain relaxed atomics: they feed observability
//! endpoints (`/stats`), not control flow. Alongside the counters,
//! every stage records its **build durations** into a lock-free
//! [`Histogram`] — the `tpn_stage_build_seconds{stage}` histograms of
//! `/metrics` — so the cost of each pipeline stage (not just its
//! frequency) is observable per service.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use tpn_obs::hist::{Histogram, HistogramSnapshot};

/// One pipeline stage of a session, in derivation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// The numeric timed reachability graph.
    Trg,
    /// The numeric decision graph collapsed from the TRG.
    DecisionGraph,
    /// The solved traversal rates.
    Rates,
    /// The assembled performance measures.
    Performance,
    /// A lifted (symbolic-in-the-swept-attributes) derivation chain,
    /// one artifact per distinct swept-symbol list.
    Lifted,
    /// A compiled expression program, one artifact per distinct
    /// (swept, targets, derivatives) request.
    Compiled,
}

/// Every stage, in derivation order (the order `/stats` renders).
pub const STAGES: [Stage; 6] = [
    Stage::Trg,
    Stage::DecisionGraph,
    Stage::Rates,
    Stage::Performance,
    Stage::Lifted,
    Stage::Compiled,
];

impl Stage {
    /// The stable identifier used in `/stats` documents.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Trg => "trg",
            Stage::DecisionGraph => "decision_graph",
            Stage::Rates => "rates",
            Stage::Performance => "performance",
            Stage::Lifted => "lifted",
            Stage::Compiled => "compiled",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::Trg => 0,
            Stage::DecisionGraph => 1,
            Stage::Rates => 2,
            Stage::Performance => 3,
            Stage::Lifted => 4,
            Stage::Compiled => 5,
        }
    }
}

/// Shared per-stage hit/miss/build counters. One instance can back a
/// single [`Session`](crate::Session) or be shared by every session a
/// server creates, aggregating artifact effectiveness service-wide.
#[derive(Debug, Default)]
pub struct StageCounters {
    hits: [AtomicU64; 6],
    misses: [AtomicU64; 6],
    builds: [AtomicU64; 6],
    build_time: [Histogram; 6],
}

impl StageCounters {
    /// Fresh all-zero counters.
    pub fn new() -> StageCounters {
        StageCounters::default()
    }

    pub(crate) fn hit(&self, stage: Stage) {
        self.hits[stage.index()].fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn miss(&self, stage: Stage) {
        self.misses[stage.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Count one build of `stage` and record how long it ran.
    pub(crate) fn build_timed(&self, stage: Stage, elapsed: Duration) {
        let i = stage.index();
        self.builds[i].fetch_add(1, Ordering::Relaxed);
        self.build_time[i].record(elapsed);
    }

    /// A consistent-enough snapshot of one stage's counters.
    pub fn snapshot(&self, stage: Stage) -> StageSnapshot {
        let i = stage.index();
        StageSnapshot {
            hits: self.hits[i].load(Ordering::Relaxed),
            misses: self.misses[i].load(Ordering::Relaxed),
            builds: self.builds[i].load(Ordering::Relaxed),
        }
    }

    /// A snapshot of one stage's build-duration histogram (each sample
    /// is one pipeline execution of that stage; hits record nothing).
    pub fn build_times(&self, stage: Stage) -> HistogramSnapshot {
        self.build_time[stage.index()].snapshot()
    }
}

/// One stage's counter values at a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageSnapshot {
    /// Demands answered by an already-materialised artifact.
    pub hits: u64,
    /// Demands that found the artifact vacant.
    pub misses: u64,
    /// Actual computations run (at most one per artifact).
    pub builds: u64,
}
