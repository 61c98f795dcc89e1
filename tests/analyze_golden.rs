//! Exact-number byte-identity: the `/analyze` body of `lossy_chain(32)`
//! must match `tests/fixtures/golden/analyze_lossy_chain_32.json`.
//!
//! The capture was taken while numbers were still written through
//! `core::fmt`. Its traversal rates, weights and throughputs have
//! numerators up to 110 bits, so it pins the digit kernel's multi-limb
//! path (and the 6-decimal approximations) in the in-process renderer
//! and on the daemon's wire.

use timed_petri::prelude::*;
use timed_petri::protocols::families;
use timed_petri::service::{run_with_session, RequestKind};

mod common;
use common::fixture_dir;

fn lossy_chain_32() -> TimedPetriNet {
    families::lossy_chain(32, Rational::new(1, 10), Rational::from_int(2)).0
}

fn golden() -> String {
    let path = format!("{}/golden/analyze_lossy_chain_32.json", fixture_dir());
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn lossy_chain_analysis_matches_captured_bytes() {
    let session = Session::new(lossy_chain_32(), SessionOptions::new());
    let body = run_with_session(&session, RequestKind::Analyze).unwrap();
    assert_eq!(body, golden(), "in-process /analyze drifted");
}

#[cfg(target_os = "linux")]
#[test]
fn daemon_serves_the_captured_bytes() {
    let (handle, addr) = common::start_server();
    let text = lossy_chain_32().to_tpn();
    // The miss renders the body; the hit serves the admitted copy.
    for _ in 0..2 {
        let (status, body) = common::http(addr, "POST", "/analyze", &text);
        assert_eq!(status, 200, "{body}");
        assert_eq!(body, golden(), "daemon /analyze drifted");
    }
    handle.shutdown();
}
