//! Emitting a net back to `.tpn` text.
//!
//! [`TimedPetriNet::to_tpn`] is the inverse of [`crate::parse_tpn`]:
//! parsing the emitted text reconstructs a structurally identical net
//! (same places, transitions, arcs, timings and frequencies, in the
//! same declaration order). Attributes at their parser defaults
//! (`enabling 0`, `firing 0`, `weight 1`) are omitted, so the output is
//! canonical and minimal; unknown times render as `?`.
//!
//! The round trip holds for every net that came out of `parse_tpn`
//! (its names are `.tpn` tokens by construction) and for
//! builder-constructed nets whose names fit the `.tpn` token grammar:
//! no whitespace or `#`, for names used in bags also no `,` or `*`,
//! and not the literal `-`. [`crate::NetBuilder`] does not enforce
//! that grammar — a net named outside it emits a document that fails
//! (or changes meaning) on re-parse.

use std::fmt::Write as _;

use crate::{Bag, Frequency, PlaceId, TimeValue, TimedPetriNet};

impl TimedPetriNet {
    /// Render this net as a `.tpn` document that [`crate::parse_tpn`]
    /// parses back into an equal net, provided every name fits the
    /// `.tpn` token grammar (always true for parsed nets; see the
    /// module docs for the builder caveat).
    ///
    /// ```
    /// use tpn_net::parse_tpn;
    ///
    /// let net = parse_tpn("net m\nplace a init 1\ntrans t in a firing 27/2").unwrap();
    /// assert_eq!(parse_tpn(&net.to_tpn()).unwrap(), net);
    /// ```
    pub fn to_tpn(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "net {}", self.name());
        for p in self.places() {
            let init = self.initial_marking().tokens(p);
            if init > 0 {
                let _ = writeln!(out, "place {} init {}", self.place_name(p), init);
            } else {
                let _ = writeln!(out, "place {}", self.place_name(p));
            }
        }
        for t in self.transitions() {
            let tr = self.transition(t);
            let _ = write!(
                out,
                "trans {} in {}",
                tr.name(),
                self.bag_to_tpn(tr.input())
            );
            if !tr.output().is_empty() {
                let _ = write!(out, " out {}", self.bag_to_tpn(tr.output()));
            }
            if !tr.enabling().is_known_zero() {
                let _ = write!(out, " enabling {}", time_to_tpn(tr.enabling()));
            }
            if !tr.firing().is_known_zero() {
                let _ = write!(out, " firing {}", time_to_tpn(tr.firing()));
            }
            match tr.frequency() {
                Frequency::Weight(w) if w.is_one() => {}
                Frequency::Weight(w) => {
                    let _ = write!(out, " weight {w}");
                }
                Frequency::Unknown => {
                    let _ = write!(out, " weight ?");
                }
            }
            out.push('\n');
        }
        out
    }

    /// A bag as `.tpn` text: `a,2*b` (never called with an empty bag —
    /// empty output bags are simply omitted, and input bags are
    /// non-empty by validation).
    fn bag_to_tpn(&self, bag: Bag<&[(PlaceId, u32)]>) -> String {
        let parts: Vec<String> = bag
            .iter()
            .map(|(p, n)| {
                if n == 1 {
                    self.place_name(p).to_string()
                } else {
                    format!("{}*{}", n, self.place_name(p))
                }
            })
            .collect();
        parts.join(",")
    }
}

fn time_to_tpn(t: &TimeValue) -> String {
    match t {
        TimeValue::Known(r) => r.to_string(),
        TimeValue::Unknown => "?".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use crate::parse_tpn;

    #[test]
    fn roundtrips_the_medium_fragment() {
        let net = parse_tpn(
            "net medium
             place in_flight init 1
             place delivered
             trans deliver in in_flight out delivered firing 106.7 weight 0.95
             trans lose    in in_flight out -         firing 106.7 weight 0.05",
        )
        .unwrap();
        let text = net.to_tpn();
        let round = parse_tpn(&text).unwrap();
        assert_eq!(round, net, "emitted text:\n{text}");
        // emitting again is a fixed point
        assert_eq!(round.to_tpn(), text);
    }

    #[test]
    fn defaults_are_omitted() {
        let net = parse_tpn("net d\nplace a init 1\ntrans t in a").unwrap();
        let text = net.to_tpn();
        assert!(!text.contains("enabling"), "{text}");
        assert!(!text.contains("firing"), "{text}");
        assert!(!text.contains("weight"), "{text}");
        assert_eq!(parse_tpn(&text).unwrap(), net);
    }

    #[test]
    fn unknowns_and_multiplicities_roundtrip() {
        let net = parse_tpn(
            "net u\nplace a init 3\nplace b\ntrans t in 2*a,b out 3*b enabling ? firing ? weight ?",
        )
        .unwrap();
        let round = parse_tpn(&net.to_tpn()).unwrap();
        assert_eq!(round, net, "emitted text:\n{}", net.to_tpn());
    }

    #[test]
    fn roundtrip_preserves_digest() {
        let net = parse_tpn(
            "net dig\nplace a init 1\nplace b\ntrans go in a out b enabling 1000 firing 1 weight 0",
        )
        .unwrap();
        assert_eq!(parse_tpn(&net.to_tpn()).unwrap().digest(), net.digest());
    }
}
