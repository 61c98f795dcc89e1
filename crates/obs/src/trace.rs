//! Per-request span trees through a thread-local collector.
//!
//! The server's request loop brackets each request with
//! [`begin`]/[`end`]; instrumented code in between opens named
//! [`span`]s (RAII guards) that record their depth, start offset and
//! duration. Spans are stored **preorder** — parent before children —
//! so the flat `Vec<Span>` the collector returns reproduces the call
//! tree via the `depth` field without any pointer chasing.
//!
//! The design constraint is the inactive cost: every instrumented
//! callsite runs on the hot path whether or not anyone is tracing, so
//! [`span`] when no collection is active is one thread-local borrow
//! and a `None` check — no allocation, no clock read. Guards are
//! deliberately `!Send`: a span must close on the thread that opened
//! it. A collection itself may change threads between spans: [`detach`]
//! takes it off this thread as a `Send` value and [`attach`] resumes it
//! on another, so a request that starts on one thread and finishes on
//! another is still one trace with one epoch.
//!
//! [`begin`] refuses to nest (returns `false` if this thread is
//! already collecting): the outermost request wrapper owns the
//! collection, and inner instrumented entry points — e.g. an analysis
//! served inside a `/v1` envelope — contribute spans to it instead of
//! starting their own.

use crate::clock;
use std::cell::RefCell;
use std::marker::PhantomData;

/// One closed span of a request's trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The instrumented operation ("parse", "cache", "trg", …). Static
    /// so opening a span never allocates.
    pub name: &'static str,
    /// Nesting depth below the collection root (the root span itself
    /// is depth 1).
    pub depth: u32,
    /// Offset of the span's open from [`begin`], in nanoseconds.
    pub start_ns: u64,
    /// Wall-clock duration from open to guard drop, in nanoseconds.
    pub duration_ns: u64,
}

/// Spans one collection retains at most — a safety cap so a
/// pathological request (say a 64-analysis `/v1` envelope over a
/// cold net) cannot grow an unbounded trace. Further spans are
/// silently dropped; their children keep the parent's depth.
const MAX_SPANS: usize = 512;

/// Sentinel duration marking a span that is still open.
const OPEN: u64 = u64::MAX;

/// Identity annotation slots a collection carries (see [`annotate`]).
pub const ANNOTATION_SLOTS: usize = 2;

struct Collector {
    epoch_ns: u64,
    depth: u32,
    spans: Vec<Span>,
    /// First-writer-wins identity annotations (domain-agnostic u128
    /// values — the service layer stores net digests and spec hashes).
    /// Living inside the collector, an annotation costs one
    /// thread-local access and is cleared for free by [`end`].
    annotations: [Option<u128>; ANNOTATION_SLOTS],
}

#[derive(Default)]
struct Tracer {
    active: Option<Collector>,
    /// A spare span buffer — refilled by [`end_with`] (which never
    /// gives the buffer up) or [`recycle`], so in steady state a
    /// request's collection allocates nothing.
    spare: Vec<Span>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = const {
        RefCell::new(Tracer {
            active: None,
            spare: Vec::new(),
        })
    };
}

#[inline]
fn start(epoch_ns: u64, depth: u32) -> bool {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if t.active.is_some() {
            return false;
        }
        let mut spans = std::mem::take(&mut t.spare);
        if spans.capacity() == 0 {
            spans = Vec::with_capacity(16);
        }
        t.active = Some(Collector {
            epoch_ns,
            depth,
            spans,
            annotations: [None; ANNOTATION_SLOTS],
        });
        true
    })
}

/// Start collecting spans on this thread. Returns `false` (and leaves
/// the active collection untouched) if one is already running — the
/// caller then must not call [`end`].
#[inline]
pub fn begin() -> bool {
    start(clock::now_ns(), 0)
}

/// Like [`begin`], but for a wrapper that times the whole collection
/// itself and carries that measurement out of band (a request header
/// with endpoint, status and duration): `epoch_ns` (a
/// [`clock::now_ns`] reading the caller already took) becomes the
/// collection epoch, and depth 1 is reserved for that implicit root —
/// every spanned callsite in between records at depth ≥ 2, exactly as
/// under a real root guard. No root span is stored; renderers
/// synthesize it from the out-of-band measurement.
#[inline]
pub fn begin_rooted(epoch_ns: u64) -> bool {
    start(epoch_ns, 1)
}

/// Hand a span buffer back for the next [`begin`] on this thread to
/// reuse — called with the spans of the trace evicted from a full
/// ring. No-op for buffers that never grew.
#[inline]
pub fn recycle(mut spans: Vec<Span>) {
    if spans.capacity() == 0 {
        return;
    }
    spans.clear();
    TRACER.with(|t| t.borrow_mut().spare = spans);
}

/// Whether this thread is currently collecting.
pub fn active() -> bool {
    TRACER.with(|t| t.borrow().active.is_some())
}

/// Attach an identity annotation to this thread's active collection
/// (no-op when none is — the unobserved path pays one thread-local
/// read). First writer per slot wins: a `/whatif` batch resolves
/// many inner digests, but the request is about the net it started
/// with. Panics on `slot >= ANNOTATION_SLOTS`.
#[inline]
pub fn annotate(slot: usize, value: u128) {
    TRACER.with(|t| {
        if let Some(collector) = t.borrow_mut().active.as_mut() {
            if collector.annotations[slot].is_none() {
                collector.annotations[slot] = Some(value);
            }
        }
    });
}

/// Finish this thread's collection and return its spans (preorder).
/// Spans still open at this point are dropped. `None` if no collection
/// was active.
#[inline]
pub fn end() -> Option<Vec<Span>> {
    end_annotated().map(|(spans, _)| spans)
}

/// Like [`end`], but also returning the [`annotate`] slots.
#[inline]
pub fn end_annotated() -> Option<(Vec<Span>, [Option<u128>; ANNOTATION_SLOTS])> {
    TRACER
        .with(|t| t.borrow_mut().active.take())
        .map(|collector| {
            let mut spans = collector.spans;
            spans.retain(|s| s.duration_ns != OPEN);
            (spans, collector.annotations)
        })
}

/// Finish this thread's collection and hand the closed spans
/// (preorder) plus the [`annotate`] slots to `f` by reference,
/// keeping the span buffer: it returns to this thread's spare slot
/// the moment `f` returns. Against [`end_annotated`] +
/// [`recycle`], the consumer copies the spans it wants to keep and
/// the buffer never travels — one thread-local access fewer per
/// request, and the allocation stays put instead of rotating through
/// the consumer's storage. `f` runs inside the collector borrow and
/// must not call back into this module. Returns `None` (without
/// calling `f`) if no collection was active.
#[inline]
pub fn end_with<R>(f: impl FnOnce(&[Span], &[Option<u128>; ANNOTATION_SLOTS]) -> R) -> Option<R> {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let mut collector = t.active.take()?;
        collector.spans.retain(|s| s.duration_ns != OPEN);
        let result = f(&collector.spans, &collector.annotations);
        collector.spans.clear();
        t.spare = collector.spans;
        Some(result)
    })
}

/// A collection taken off its thread by [`detach`], waiting for
/// [`attach`] to resume it on another. It holds only the span buffer
/// and integers, so it is `Send`.
pub struct Detached(Collector);

/// Take this thread's active collection off the thread, leaving none
/// active, so a later [`attach`] can resume it elsewhere. Call it
/// between spans: a span still open here would close into whatever
/// collection this thread holds next. `None` if no collection was
/// active.
#[inline]
pub fn detach() -> Option<Detached> {
    TRACER.with(|t| {
        let collector = t.borrow_mut().active.take()?;
        debug_assert!(
            collector.spans.iter().all(|s| s.duration_ns != OPEN),
            "detach with a span still open"
        );
        Some(Detached(collector))
    })
}

/// Resume a [`detach`]ed collection on this thread: spans opened from
/// here on nest where the detached ones left off, timed against the
/// original epoch, and [`end_with`] finishes it as usual. Returns
/// `false` (and drops `detached`) if this thread is already
/// collecting, exactly as [`begin`] refuses to nest.
#[inline]
pub fn attach(detached: Detached) -> bool {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if t.active.is_some() {
            return false;
        }
        t.active = Some(detached.0);
        true
    })
}

/// The spans closed **so far** in this thread's active collection —
/// for callers that render a trace mid-request (the `/v1` `"trace"`
/// flag renders before its own root span closes). Empty when no
/// collection is active.
pub fn snapshot() -> Vec<Span> {
    TRACER.with(|t| match t.borrow().active.as_ref() {
        None => Vec::new(),
        Some(collector) => collector
            .spans
            .iter()
            .filter(|s| s.duration_ns != OPEN)
            .cloned()
            .collect(),
    })
}

/// Open a named span. The returned guard closes it on drop; when no
/// collection is active the guard is inert and the call is nearly
/// free.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    open(name, true)
}

/// Open a named span pinned to the collection epoch (`start_ns` 0)
/// without reading the clock — for work that *begins* a request, like
/// the body parse every handler starts with, where the open provably
/// coincides with the request's own start. Closing the guard records
/// the duration from the epoch as usual.
#[inline]
pub fn span_epoch(name: &'static str) -> SpanGuard {
    open(name, false)
}

#[inline]
fn open(name: &'static str, read_clock: bool) -> SpanGuard {
    let slot = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let collector = t.active.as_mut()?;
        if collector.spans.len() >= MAX_SPANS {
            return None;
        }
        collector.depth += 1;
        let start_ns = if read_clock {
            clock::now_ns().saturating_sub(collector.epoch_ns)
        } else {
            0
        };
        collector.spans.push(Span {
            name,
            depth: collector.depth,
            start_ns,
            duration_ns: OPEN,
        });
        Some(collector.spans.len() - 1)
    });
    SpanGuard {
        slot,
        _not_send: PhantomData,
    }
}

/// RAII guard of one open span; closes it (records the duration and
/// pops the depth) on drop.
#[must_use = "a span closes when its guard drops; binding to _ closes it immediately"]
pub struct SpanGuard {
    /// Index into the collector's span vector, `None` when the guard
    /// is inert (no active collection, or the span cap was hit).
    slot: Option<usize>,
    /// Spans must close on the thread that opened them.
    _not_send: PhantomData<*const ()>,
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        let Some(slot) = self.slot else { return };
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            // The collection may have ended while this guard was open
            // (misuse tolerated: the span is simply lost).
            let Some(collector) = t.active.as_mut() else {
                return;
            };
            let now = clock::now_ns().saturating_sub(collector.epoch_ns);
            if let Some(span) = collector.spans.get_mut(slot) {
                if span.duration_ns == OPEN {
                    span.duration_ns = now.saturating_sub(span.start_ns);
                }
            }
            collector.depth = collector.depth.saturating_sub(1);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_preorder_with_depths() {
        assert!(begin());
        {
            let _root = span("root");
            {
                let _child = span("child");
                let _grandchild = span("grandchild");
            }
            let _sibling = span("sibling");
        }
        let spans = end().unwrap();
        let shape: Vec<(&str, u32)> = spans.iter().map(|s| (s.name, s.depth)).collect();
        assert_eq!(
            shape,
            [("root", 1), ("child", 2), ("grandchild", 3), ("sibling", 2)]
        );
        assert!(spans.iter().all(|s| s.duration_ns != OPEN));
        // A parent opens no later than its children.
        assert!(spans[0].start_ns <= spans[1].start_ns);
    }

    #[test]
    fn begin_refuses_to_nest() {
        assert!(begin());
        assert!(!begin());
        let _ = end();
        assert!(begin());
        let _ = end();
    }

    #[test]
    fn inactive_spans_are_inert() {
        assert!(!active());
        let guard = span("ignored");
        assert!(guard.slot.is_none());
        drop(guard);
        assert_eq!(end(), None);
    }

    #[test]
    fn snapshot_sees_closed_spans_only() {
        assert!(begin());
        let open = span("open");
        {
            let _done = span("done");
        }
        let snap = snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].name, "done");
        drop(open);
        assert_eq!(end().unwrap().len(), 2);
    }

    #[test]
    fn begin_rooted_reserves_depth_one_for_the_implicit_root() {
        assert!(begin_rooted(clock::now_ns()));
        assert!(!begin()); // still refuses to nest
        {
            let _child = span("child");
            let _grandchild = span("grandchild");
        }
        let spans = end().unwrap();
        let shape: Vec<(&str, u32)> = spans.iter().map(|s| (s.name, s.depth)).collect();
        assert_eq!(shape, [("child", 2), ("grandchild", 3)]);
    }

    #[test]
    fn span_epoch_pins_the_start_to_the_collection_epoch() {
        assert!(begin());
        {
            let _first = span_epoch("first");
        }
        let spans = end().unwrap();
        assert_eq!(spans[0].start_ns, 0);
        assert!(spans[0].duration_ns != OPEN);
    }

    #[test]
    fn recycled_buffers_are_reused_by_the_next_collection() {
        recycle(Vec::with_capacity(64));
        assert!(begin());
        {
            let _s = span("s");
        }
        let spans = end().unwrap();
        assert!(spans.capacity() >= 64, "capacity {}", spans.capacity());
        recycle(Vec::new()); // zero-capacity hand-back is a no-op
        assert!(begin());
        let _ = end();
    }

    #[test]
    fn span_cap_bounds_the_collection() {
        assert!(begin());
        let guards: Vec<SpanGuard> = (0..MAX_SPANS + 10).map(|_| span("s")).collect();
        drop(guards);
        assert_eq!(end().unwrap().len(), MAX_SPANS);
    }

    #[test]
    fn end_with_borrows_spans_and_keeps_the_buffer() {
        assert!(begin());
        {
            let _s = span("s");
        }
        let _leaked = std::mem::ManuallyDrop::new(span("open — dropped"));
        annotate(1, 9);
        let names = end_with(|spans, annotations| {
            assert_eq!(annotations, &[None, Some(9)]);
            spans.iter().map(|s| s.name).collect::<Vec<_>>()
        });
        assert_eq!(names, Some(vec!["s"]));
        // The buffer stayed with this thread: the next collection
        // reuses it without a fresh allocation.
        assert!(begin());
        let spans = end().unwrap();
        assert!(spans.capacity() >= 2, "capacity {}", spans.capacity());
        // Inactive: f is not called.
        assert_eq!(
            end_with(|_, _| unreachable!("no active collection")),
            None::<()>
        );
    }

    #[test]
    fn annotations_are_first_writer_wins_and_returned_by_end() {
        annotate(0, 7); // inactive: dropped
        assert!(begin());
        annotate(0, 1);
        annotate(0, 2);
        annotate(1, 3);
        let (_, annotations) = end_annotated().unwrap();
        assert_eq!(annotations, [Some(1), Some(3)]);
        // A fresh collection starts clean.
        assert!(begin());
        assert_eq!(end_annotated().unwrap().1, [None, None]);
    }

    #[test]
    fn detached_collections_resume_on_another_thread() {
        assert!(begin_rooted(clock::now_ns()));
        {
            let _parse = span_epoch("parse");
        }
        annotate(0, 5);
        let detached = detach().expect("a collection was active");
        assert!(!active(), "detach leaves the thread free");
        assert!(detach().is_none());
        let (spans, annotations) = std::thread::spawn(move || {
            assert!(attach(detached));
            {
                let _cache = span("cache");
                let _trg = span("trg");
            }
            end_annotated().expect("attached collection ends here")
        })
        .join()
        .unwrap();
        let shape: Vec<(&str, u32)> = spans.iter().map(|s| (s.name, s.depth)).collect();
        assert_eq!(shape, [("parse", 2), ("cache", 2), ("trg", 3)]);
        assert_eq!(spans[0].start_ns, 0);
        assert_eq!(annotations, [Some(5), None]);
    }

    #[test]
    fn attach_refuses_to_nest() {
        assert!(begin());
        let detached = detach().unwrap();
        assert!(begin());
        assert!(!attach(detached), "this thread is already collecting");
        let _ = end();
        assert!(!active());
    }

    #[test]
    fn still_open_spans_are_dropped_by_end() {
        assert!(begin());
        let _leaked = std::mem::ManuallyDrop::new(span("never closed"));
        {
            let _ok = span("closed");
        }
        let spans = end().unwrap();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "closed");
    }
}
