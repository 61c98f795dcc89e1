//! What-if re-timing over the paper's Figure-1 protocol: one base net,
//! a batch of timeout perturbations, one `/whatif` envelope.
//!
//! ```sh
//! cargo run --release --example whatif
//! ```
//!
//! [`Service::respond_whatif_spec`] answers each perturbation with an
//! ordinary session over the perturbed net, so every entry equals the
//! cold `/analyze` body of that net, byte for byte — and a perturbation
//! whose net cannot be analysed gets the same 422 `analysis` error a
//! plain request would. The example asserts both, so it doubles as an
//! end-to-end check of the what-if path (CI runs it).

use timed_petri::net::TimingAssignment;
use timed_petri::prelude::*;
use timed_petri::protocols::simple;
use timed_petri::service::json::escape;
use timed_petri::service::{Json, WhatifSpec};

fn main() {
    let base = simple::paper().net;

    // Eight timeout candidates around the paper's 1000 ms value, plus
    // one below the ACK round trip (~226.9 ms).
    let timeouts = [300, 500, 750, 1000, 1250, 1500, 1750, 2000, 100];
    let perturbations: Vec<String> = timeouts
        .iter()
        .map(|t| format!(r#"{{"E(t3)":"{t}"}}"#))
        .collect();
    let spec = WhatifSpec::from_json(
        &Json::parse(&format!(
            r#"{{"perturbations":[{}]}}"#,
            perturbations.join(",")
        ))
        .unwrap(),
    )
    .unwrap();
    let service = Service::new(ServiceConfig::default());
    let envelope = service.respond_whatif_spec(base.clone(), &spec);
    let doc = Json::parse(&envelope).unwrap();
    let entries = doc.get("perturbations").and_then(Json::as_arr).unwrap();

    println!("what-if over E(t3) (paper value 1000 ms):");
    for (timeout, entry) in timeouts.iter().zip(entries) {
        let delta = TimingAssignment::new().with("E(t3)", Rational::from_int(*timeout));
        let perturbed = base.with_timing(&delta).unwrap();
        // The cold reference: a fresh service's /analyze of the
        // perturbed net text.
        let (status, cold) = Service::new(ServiceConfig::default())
            .respond(RequestKind::Analyze, &perturbed.to_tpn());
        if *timeout == 100 {
            // Below the round trip the timeout races the ACK: the
            // perturbed net violates the conflict-set restriction.
            assert_eq!(entry.get("status").and_then(Json::as_num), Some("422"));
            let error = entry.get("error").unwrap();
            assert_eq!(error.get("code").and_then(Json::as_str), Some("analysis"));
            let message = error.get("message").and_then(Json::as_str).unwrap();
            assert_eq!(status, 422, "{cold}");
            assert_eq!(
                *cold,
                format!(
                    r#"{{"error":{}}}"#,
                    escape(&format!("analysis error: {message}"))
                )
            );
            println!("  E(t3) = {timeout:>4} ms  →  422 analysis: {message}");
            continue;
        }
        assert_eq!(status, 200, "{cold}");
        // Byte-identity: the entry embeds the cold body verbatim.
        let wrapped = format!(r#"{{"kind":"analyze","status":200,"body":{cold}}}"#);
        assert!(
            envelope.contains(&wrapped),
            "what-if and cold bodies diverged at E(t3)={timeout}"
        );
        let session = Session::new(perturbed, SessionOptions::new());
        let dg = session.decision_graph().unwrap();
        let t7 = session.net().transition_by_name("t7").unwrap();
        let th = session.performance().unwrap().throughput(&dg, t7);
        println!(
            "  E(t3) = {timeout:>4} ms  →  throughput(t7) ≈ {:.4} msg/s",
            th.to_f64() * 1000.0
        );
    }
    println!("{} entries, each equal to a cold /analyze", entries.len());
}
