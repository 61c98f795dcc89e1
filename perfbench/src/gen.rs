//! Seeded workload inputs and their closed-form answers.
//!
//! A seed fixes three things about every net generated from it: the net
//! name, the order its places and transitions are declared in, and a
//! uniform time scale `s` that multiplies every enabling and firing
//! time. None of them changes the timed reachability graph (TRG) or the
//! decision graph, so every variant of a workload does the same work,
//! and its answer is the base net's answer with times scaled by `s`.

use std::collections::HashMap;

use tpn_net::{Frequency, NetBuilder, TimeValue, TimedPetriNet};
use tpn_rational::Rational;

/// The time scales a seed picks from.
pub const SCALES: [i128; 4] = [1, 2, 3, 5];

/// Loss probability per hop of the lossy chains (1/10).
pub const LOSS: (i128, i128) = (1, 10);

/// Hop time of the lossy chains, before scaling.
pub const HOP_TIME: i128 = 2;

/// Firing times `(x_i, y_i)` of cycle `i` of [`product_cycles`]:
/// (2,3), (4,5), (6,7), (8,9), …
pub fn cycle_times(i: usize) -> (i128, i128) {
    let i = i as i128;
    (2 * i + 2, 2 * i + 3)
}

/// `m` independent two-transition cycles: `go_i` moves cycle `i`'s token
/// from `idle_i` to `busy_i` in `x_i`, `back_i` returns it in `y_i`. No
/// transition ever conflicts, so the decision graph is one edge, while
/// the TRG grows with the common period of the cycles.
pub fn product_cycles(m: usize) -> TimedPetriNet {
    let mut b = NetBuilder::new("product-cycles");
    for i in 0..m {
        let (x, y) = cycle_times(i);
        let idle = b.place(&format!("idle_{i}"), 1);
        let busy = b.place(&format!("busy_{i}"), 0);
        b.transition(&format!("go_{i}"))
            .input(idle)
            .output(busy)
            .firing(Rational::from_int(x))
            .add();
        b.transition(&format!("back_{i}"))
            .input(busy)
            .output(idle)
            .firing(Rational::from_int(y))
            .add();
    }
    b.build().expect("product of cycles is structurally valid")
}

/// `tpn_protocols`' lossy chain of `hops` hops with loss [`LOSS`] and
/// hop time [`HOP_TIME`].
pub fn lossy_chain(hops: usize) -> TimedPetriNet {
    tpn_protocols::families::lossy_chain(
        hops,
        Rational::new(LOSS.0, LOSS.1),
        Rational::from_int(HOP_TIME),
    )
    .0
}

/// The bounded producer/consumer of capacity 32 (produce 2, consume 5).
pub fn producer_consumer_32() -> TimedPetriNet {
    tpn_protocols::families::producer_consumer(32, Rational::from_int(2), Rational::from_int(5))
}

/// The alternating-bit protocol with the paper's Figure-1b times.
pub fn alternating_bit() -> TimedPetriNet {
    tpn_protocols::abp::abp(&tpn_protocols::simple::Params::paper()).net
}

/// Throughput of `go_i` (and of `back_i`) in [`product_cycles`] scaled
/// by `scale`: one firing per period `s·(x_i + y_i)`.
pub fn cycle_throughput(i: usize, scale: i128) -> Rational {
    let (x, y) = cycle_times(i);
    Rational::new(1, scale * (x + y))
}

/// Throughput of `arrive` in [`lossy_chain`]`(hops)` with hop time `d`:
/// `1/(d·(N+1))`, where `N = (1−q^h)/((1−q)·q^h)` is the expected number
/// of losses per delivery at success probability `q = a/b` per hop. In
/// integers this is `(b−a)·a^h / (d·(b^(h+1) − a^(h+1)))`.
pub fn lossy_arrive(hops: u32, d: i128) -> Rational {
    let (a, b) = (LOSS.1 - LOSS.0, LOSS.1);
    Rational::new(
        (b - a) * a.pow(hops),
        d * (b.pow(hops + 1) - a.pow(hops + 1)),
    )
}

/// SplitMix64: a small, well-mixed generator, fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is irrelevant at these sizes).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// What a seed decides about the nets generated from it.
#[derive(Debug, Clone, Copy)]
pub struct Style {
    seed: u64,
    /// The uniform time scale `s`.
    pub scale: i128,
}

impl Style {
    pub fn new(seed: u64) -> Style {
        let mut rng = Rng::new(seed);
        Style {
            seed,
            scale: SCALES[rng.below(SCALES.len())],
        }
    }

    /// A name for the `k`-th net generated from `base`: fixed width, so
    /// body sizes do not depend on `k`.
    pub fn name(&self, base: &str, k: u64) -> String {
        format!("{base}-{:016x}-{k:08}", self.seed)
    }

    /// `base` as `.tpn` text named `name`, with places and transitions
    /// declared in this seed's order and every time scaled by `scale`.
    pub fn render(&self, base: &TimedPetriNet, name: &str) -> String {
        // The order depends on the base net too, so each net of a
        // workload is shuffled differently.
        let mut rng = Rng::new(self.seed ^ fnv1a(base.name().as_bytes()));
        let mut places: Vec<_> = base.places().collect();
        let mut transitions: Vec<_> = base.transitions().collect();
        rng.shuffle(&mut places);
        rng.shuffle(&mut transitions);
        let scale = Rational::from_int(self.scale);
        let time = |t: &TimeValue| match t {
            TimeValue::Known(r) => Some(*r * scale),
            TimeValue::Unknown => None,
        };

        let mut b = NetBuilder::new(name);
        let ids: HashMap<_, _> = places
            .iter()
            .map(|&p| {
                let tokens = base.initial_marking().tokens(p);
                (p, b.place(base.place_name(p), tokens))
            })
            .collect();
        for t in transitions {
            let tr = base.transition(t);
            let mut tb = b.transition(tr.name());
            for (p, n) in tr.input().iter() {
                tb = tb.input_n(ids[&p], n);
            }
            for (p, n) in tr.output().iter() {
                tb = tb.output_n(ids[&p], n);
            }
            tb = match time(tr.enabling()) {
                Some(e) => tb.enabling(e),
                None => tb.enabling_unknown(),
            };
            tb = match time(tr.firing()) {
                Some(f) => tb.firing(f),
                None => tb.firing_unknown(),
            };
            tb = match tr.frequency() {
                Frequency::Weight(w) => tb.weight(*w),
                Frequency::Unknown => tb.weight_unknown(),
            };
            tb.add();
        }
        b.build()
            .expect("a permuted, rescaled valid net stays valid")
            .to_tpn()
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpn_session::{Session, SessionOptions};

    fn session(text: &str) -> Session {
        Session::new(tpn_net::parse_tpn(text).unwrap(), SessionOptions::new())
    }

    fn throughput(s: &Session, name: &str) -> Rational {
        let t = s.net().transition_by_name(name).unwrap();
        s.performance()
            .unwrap()
            .throughput(&s.decision_graph().unwrap(), t)
    }

    #[test]
    fn generator_is_deterministic_per_seed() {
        for seed in [0, 1, 42, u64::MAX] {
            let (a, b) = (Style::new(seed), Style::new(seed));
            assert_eq!(a.scale, b.scale);
            for base in [product_cycles(4), lossy_chain(32), alternating_bit()] {
                let name = a.name("n", 7);
                assert_eq!(a.render(&base, &name), b.render(&base, &name));
            }
        }
    }

    #[test]
    fn seeds_vary_order_and_scale() {
        let base = product_cycles(4);
        let texts: std::collections::HashSet<_> = (0..16)
            .map(|seed| Style::new(seed).render(&base, "n"))
            .collect();
        assert!(texts.len() > 8, "only {} distinct variants", texts.len());
        let scales: std::collections::HashSet<_> = (0..64).map(|s| Style::new(s).scale).collect();
        assert_eq!(scales.len(), SCALES.len());
    }

    #[test]
    fn product_cycles_closed_form_holds_on_two_cycles() {
        for seed in 0..8 {
            let style = Style::new(seed);
            let s = session(&style.render(&product_cycles(2), "pc2"));
            assert_eq!(s.decision_graph().unwrap().num_edges(), 1);
            for i in 0..2 {
                let want = cycle_throughput(i, style.scale);
                assert_eq!(throughput(&s, &format!("go_{i}")), want, "seed {seed}");
                assert_eq!(throughput(&s, &format!("back_{i}")), want, "seed {seed}");
            }
        }
    }

    #[test]
    fn lossy_closed_form_holds_on_four_hops() {
        for seed in 0..8 {
            let style = Style::new(seed);
            let s = session(&style.render(&lossy_chain(4), "lc4"));
            let want = lossy_arrive(4, HOP_TIME * style.scale);
            assert_eq!(throughput(&s, "arrive"), want, "seed {seed}");
        }
    }

    #[test]
    fn every_scale_keeps_the_workload_graphs() {
        for scale in SCALES {
            let style = Style { seed: 3, scale };
            for (base, states, edges) in [(product_cycles(3), 708, 1), (lossy_chain(32), 98, 64)] {
                let s = session(&style.render(&base, "n"));
                assert_eq!(s.trg().unwrap().num_states(), states, "scale {scale}");
                assert_eq!(
                    s.decision_graph().unwrap().num_edges(),
                    edges,
                    "scale {scale}"
                );
            }
            let s = session(&style.render(&lossy_chain(32), "n"));
            let want = lossy_arrive(32, HOP_TIME * scale);
            assert_eq!(throughput(&s, "arrive"), want, "scale {scale}");
        }
    }
}
