//! Digest pins: the hex of `digest()` and `structural_digest()` for a
//! fixed corpus of nets. Digests appear in every response body, cache
//! key and golden capture, so any change to how a net is hashed (or to
//! how its bags are stored) must leave these bytes alone.

use timed_petri::net::parse_tpn;
use timed_petri::prelude::*;
use timed_petri::protocols::{abp, families, simple};

/// `(name, net, digest hex, structural digest hex)`.
fn corpus() -> Vec<(&'static str, TimedPetriNet, &'static str, &'static str)> {
    vec![
        (
            "fig1",
            simple::paper().net,
            "26ff1b6ffff3f55be4a689249c7fbaa0",
            "7a2f69ceb968c6f67bc46d50935512c7",
        ),
        (
            "abp",
            abp::abp(&simple::Params::paper()).net,
            "1babbc2e8575b068df3159d2dc21caf3",
            "06d9f0aa2920e80b78868bceaed516c6",
        ),
        (
            "producer_consumer_32",
            families::producer_consumer(32, Rational::from_int(2), Rational::from_int(5)),
            "bd9b0d0d63c4ae8695f6f57f8a16726d",
            "c2cac3efe282c3f2ae2a39b028a006c3",
        ),
        (
            "lossy_chain_32",
            families::lossy_chain(32, Rational::new(1, 10), Rational::from_int(2)).0,
            "d020dd4043a766a743896d775ebd50b4",
            "ae993f8f190ba9c792b35ddc389f686a",
        ),
        (
            "fork_join_4",
            families::fork_join(4),
            "3af245d9ad9f86686042fa7d8c603fab",
            "a5bd5c597efbcc2938e8da41be1c8168",
        ),
        (
            "multiplicities_and_unknowns",
            parse_tpn(
                "net m\n\
                 place a init 3\n\
                 place b\n\
                 place c init 1\n\
                 trans t in 2*a,b out 3*b,c enabling ? firing 27/2 weight ?\n\
                 trans u in c,b out 2*a firing ? weight 0.25\n\
                 trans v in b,c out - enabling 1.5",
            )
            .unwrap(),
            "b3485b08c8ab6bc2cb16237109ec9f51",
            "c11dee947decdd42f8de315898f8b0ef",
        ),
    ]
}

#[test]
fn digests_match_captured_hex() {
    for (name, net, digest, structural) in corpus() {
        assert_eq!(net.digest().to_hex(), digest, "{name}: digest drifted");
        assert_eq!(
            net.structural_digest().to_hex(),
            structural,
            "{name}: structural digest drifted"
        );
    }
}

/// The `.tpn` round trip reaches the same digests: the parser builds
/// bags that hash exactly like the builder's.
#[test]
fn reparsed_nets_keep_their_digests() {
    for (name, net, digest, structural) in corpus() {
        let reparsed = parse_tpn(&net.to_tpn()).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(reparsed.digest().to_hex(), digest, "{name}: digest drifted");
        assert_eq!(
            reparsed.structural_digest().to_hex(),
            structural,
            "{name}: structural digest drifted"
        );
    }
}
