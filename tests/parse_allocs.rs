//! Allocation counts of the `.tpn` text path, counted by this test
//! binary's own global allocator. Parsing a net allocates a fixed
//! handful of flat arrays whatever its size — nothing per place,
//! transition, bag or name — and a warm `Service::respond` hit adds at
//! most three allocations to its parse.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use timed_petri::net::parse_tpn;
use timed_petri::prelude::*;
use timed_petri::protocols::families::lossy_chain;

/// Counts every `alloc`, `alloc_zeroed` and `realloc` of the calling
/// thread, so tests running in parallel do not see each other's.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations it made.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

const FIG1: &str = include_str!("fixtures/fig1.tpn");

/// perfbench's `lossy_chain(hops)`: loss 1/10, hop time 2.
fn lossy_chain_text(hops: usize) -> String {
    lossy_chain(hops, Rational::new(1, 10), Rational::from_int(2))
        .0
        .to_tpn()
}

#[test]
fn parse_allocates_per_net_not_per_declaration() {
    let lc32 = lossy_chain_text(32);
    let lc128 = lossy_chain_text(128);
    for (label, text, bound) in [
        ("fig1", FIG1, 25),
        ("lossy_chain(32)", lc32.as_str(), 40),
        ("lossy_chain(128)", lc128.as_str(), 50),
    ] {
        let (net, n) = allocations(|| parse_tpn(text).unwrap());
        assert!(
            n <= bound,
            "{label}: {n} allocations per parse (bound {bound})"
        );
        // The counted parse is a whole one.
        assert_eq!(net.to_tpn(), parse_tpn(&net.to_tpn()).unwrap().to_tpn());
    }
}

#[test]
fn warm_respond_adds_at_most_three_allocations_to_its_parse() {
    let svc = Service::new(ServiceConfig::default());
    let (status, _) = svc.respond(RequestKind::Analyze, FIG1);
    assert_eq!(status, 200);
    let (_, parse) = allocations(|| parse_tpn(FIG1).unwrap());
    let ((status, _), warm) = allocations(|| svc.respond(RequestKind::Analyze, FIG1));
    assert_eq!(status, 200);
    assert_eq!(svc.cache().stats().hits, 1);
    assert!(
        warm <= parse + 3,
        "a warm hit made {warm} allocations, its parse {parse}"
    );
}
