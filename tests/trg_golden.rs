//! TRG byte-identity: the state tables, DOT renderings and Figure-7
//! minimum-resolution records of a fixed corpus of nets must match the
//! captures under `tests/fixtures/golden/trg/`, serially and with two
//! frontier workers.
//!
//! The captures were taken from the dense-clock construction (every
//! state carrying a RET and an RFT slot per transition) before states
//! were stored with sparse clocks in one interned arena, so they pin
//! that the storage change kept state numbering, candidate order, edges
//! and min-resolutions exactly.

use std::fmt::Write as _;

use timed_petri::prelude::*;
use timed_petri::protocols::{abp, families, simple};
use timed_petri::reach::TimedReachabilityGraph;

mod common;
use common::fixture_dir;

/// The corpus: `(golden file stem, net)`.
fn corpus() -> Vec<(&'static str, TimedPetriNet)> {
    let stages: Vec<Rational> = (1..=16).map(Rational::from_int).collect();
    vec![
        ("fig1", simple::paper().net),
        ("abp", abp::abp(&simple::Params::paper()).net),
        (
            "producer_consumer_32",
            families::producer_consumer(32, Rational::from_int(2), Rational::from_int(5)),
        ),
        (
            "lossy_chain_32",
            families::lossy_chain(32, Rational::new(1, 10), Rational::from_int(2)).0,
        ),
        ("fork_join_4", families::fork_join(4)),
        ("cycle_16", families::cycle(&stages)),
    ]
}

/// One line per recorded minimum resolution:
/// `state chosen | name:ret=value, name:rft=value, …`.
fn describe_min_resolutions(
    trg: &TimedReachabilityGraph<NumericDomain>,
    net: &TimedPetriNet,
) -> String {
    let mut out = String::new();
    for m in trg.min_resolutions() {
        let candidates: Vec<String> = m
            .candidates
            .iter()
            .map(|(t, is_rft, x)| {
                let clock = if *is_rft { "rft" } else { "ret" };
                format!("{}:{clock}={x}", net.transition(*t).name())
            })
            .collect();
        let _ = writeln!(out, "{} {} | {}", m.state, m.chosen, candidates.join(", "));
    }
    out
}

fn golden(name: &str) -> String {
    let path = format!("{}/golden/trg/{name}", fixture_dir());
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn trg_matches_captured_bytes_serial_and_parallel() {
    let domain = NumericDomain::new();
    for (stem, net) in corpus() {
        let states = golden(&format!("{stem}.states.txt"));
        let dot = golden(&format!("{stem}.dot"));
        let mins = golden(&format!("{stem}.min.txt"));
        for threads in [1, 2] {
            let trg = build_trg(
                &net,
                &domain,
                &TrgOptions {
                    threads,
                    ..TrgOptions::default()
                },
            )
            .unwrap_or_else(|e| panic!("{stem}: {e}"));
            assert_eq!(
                trg.describe_states(&net),
                states,
                "{stem}: state table drifted at threads={threads}"
            );
            assert_eq!(
                trg.to_dot(&net),
                dot,
                "{stem}: edges drifted at threads={threads}"
            );
            assert_eq!(
                describe_min_resolutions(&trg, &net),
                mins,
                "{stem}: min-resolutions drifted at threads={threads}"
            );
        }
    }
}
