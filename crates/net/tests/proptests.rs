//! Property tests for the net model: conflict-set partition laws,
//! marking algebra, `.tpn` round-trips of random rings, and P-semiflow
//! conservation under random firing sequences.

use proptest::prelude::*;
use tpn_net::{invariant, Bag, Marking, NetBuilder, PlaceId, TimedPetriNet};
use tpn_rational::Rational;

fn random_ring(times: &[(i128, i128)]) -> TimedPetriNet {
    let mut b = NetBuilder::new("ring");
    let places: Vec<_> = (0..times.len())
        .map(|i| b.place(&format!("s{i}"), u32::from(i == 0)))
        .collect();
    for (i, (n, d)) in times.iter().enumerate() {
        let next = (i + 1) % times.len();
        b.transition(&format!("t{i}"))
            .input(places[i])
            .output(places[next])
            .firing(Rational::new(*n, *d))
            .add();
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn conflict_sets_partition_the_transitions(
        // adjacency: each of 6 transitions consumes a subset of 4 places
        inputs in proptest::collection::vec(proptest::collection::vec(any::<bool>(), 4), 1..6),
    ) {
        let mut b = NetBuilder::new("part");
        let places: Vec<_> = (0..4).map(|i| b.place(&format!("p{i}"), 1)).collect();
        let mut n = 0usize;
        for (i, row) in inputs.iter().enumerate() {
            if row.iter().all(|x| !x) {
                continue; // empty input bags are rejected by validation
            }
            let mut t = b.transition(&format!("t{i}"));
            for (p, used) in places.iter().zip(row) {
                if *used {
                    t = t.input(*p);
                }
            }
            t.add();
            n += 1;
        }
        prop_assume!(n > 0);
        let net = b.build().unwrap();
        // every transition in exactly one set; sets are disjoint & cover
        let mut seen = vec![0usize; net.num_transitions()];
        for cs in net.conflict_sets() {
            for t in cs {
                seen[t.index()] += 1;
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1));
        // transitions sharing an input place are in the same set
        for a in net.transitions() {
            for z in net.transitions() {
                let share = net.transition(a).input().intersects(net.transition(z).input());
                if share {
                    prop_assert_eq!(net.conflict_set_of(a), net.conflict_set_of(z));
                }
            }
        }
    }

    #[test]
    fn marking_add_sub_inverse(
        tokens in proptest::collection::vec(0u32..4, 5),
        bag in proptest::collection::vec(0u32..3, 5),
    ) {
        let m0 = Marking::from_vec(tokens);
        let bag = Bag::from_pairs(
            bag.into_iter().enumerate().map(|(i, n)| (PlaceId::from_index(i), n)),
        );
        let mut m = m0.clone();
        m.add(&bag);
        prop_assert!(m.covers(&bag));
        m.subtract(&bag);
        prop_assert_eq!(m, m0);
    }

    #[test]
    fn tpn_roundtrip_random_rings(times in proptest::collection::vec((1i128..500, 1i128..10), 1..7)) {
        let net = random_ring(&times);
        let text = net.to_string();
        let back = tpn_net::parse_tpn(&text).unwrap();
        prop_assert_eq!(back.num_places(), net.num_places());
        prop_assert_eq!(back.num_transitions(), net.num_transitions());
        for t in net.transitions() {
            let a = net.transition(t);
            let b2 = back.transition(back.transition_by_name(a.name()).unwrap());
            prop_assert_eq!(a.firing(), b2.firing());
            prop_assert_eq!(a.enabling(), b2.enabling());
            prop_assert_eq!(a.frequency(), b2.frequency());
        }
    }

    #[test]
    fn to_tpn_parse_roundtrip_is_identity(
        inits in proptest::collection::vec(0u32..4, 4),
        trans in proptest::collection::vec(
            (
                proptest::collection::vec(0u32..3, 4), // input multiplicities
                proptest::collection::vec(0u32..3, 4), // output multiplicities
                (0u8..3, 1i128..2000, 1i128..10),      // enabling: kind, num, den
                (0u8..3, 1i128..2000, 1i128..10),      // firing
                (0u8..4, 0i128..20, 1i128..10),        // weight (0 allowed)
            ),
            1..6,
        ),
    ) {
        // Arbitrary nets (multi-arc bags, unknown times, zero weights,
        // non-default attributes) must survive emit → parse unchanged.
        let mut b = NetBuilder::new("generated");
        let places: Vec<_> = inits
            .iter()
            .enumerate()
            .map(|(i, init)| b.place(&format!("p{i}"), *init))
            .collect();
        for (i, (ins, outs, enabling, firing, weight)) in trans.iter().enumerate() {
            let mut t = b.transition(&format!("t{i}"));
            for (p, n) in places.iter().zip(ins) {
                t = t.input_n(*p, *n);
            }
            // validation rejects empty input bags; force one arc
            if ins.iter().all(|n| *n == 0) {
                t = t.input(places[i % places.len()]);
            }
            for (p, n) in places.iter().zip(outs) {
                t = t.output_n(*p, *n);
            }
            t = match enabling.0 {
                0 => t, // default: enabling 0
                1 => t.enabling(Rational::new(enabling.1, enabling.2)),
                _ => t.enabling_unknown(),
            };
            t = match firing.0 {
                0 => t,
                1 => t.firing(Rational::new(firing.1, firing.2)),
                _ => t.firing_unknown(),
            };
            t = match weight.0 {
                0 => t, // default: weight 1
                1 | 2 => t.weight(Rational::new(weight.1, weight.2)),
                _ => t.weight_unknown(),
            };
            t.add();
        }
        let net = b.build().unwrap();
        let text = net.to_tpn();
        let back = tpn_net::parse_tpn(&text).unwrap();
        prop_assert_eq!(&back, &net, "emitted text:\n{}", text);
        // and the canonical digest is preserved too
        prop_assert_eq!(back.digest(), net.digest());
    }

    #[test]
    fn digest_is_declaration_order_independent(
        inits in proptest::collection::vec(0u32..3, 4),
        perm_seed in any::<u64>(),
    ) {
        // Build a ring over the places, then rebuild it with places and
        // transitions declared in a rotated order: same digest.
        let n = inits.len();
        let rot = (perm_seed % n as u64) as usize;
        let build = |order: Vec<usize>| {
            let mut b = NetBuilder::new("perm");
            let mut ids = vec![None; n];
            for &i in &order {
                ids[i] = Some(b.place(&format!("p{i}"), inits[i]));
            }
            let ids: Vec<_> = ids.into_iter().map(Option::unwrap).collect();
            for &i in &order {
                b.transition(&format!("t{i}"))
                    .input(ids[i])
                    .output(ids[(i + 1) % n])
                    .firing(Rational::new(i as i128 + 1, 2))
                    .add();
            }
            b.build().unwrap()
        };
        let identity: Vec<usize> = (0..n).collect();
        let rotated: Vec<usize> = (0..n).map(|i| (i + rot) % n).collect();
        prop_assert_eq!(build(identity).digest(), build(rotated).digest());
    }

    #[test]
    fn p_semiflows_are_conserved_under_firing(
        times in proptest::collection::vec((1i128..9, 1i128..3), 2..6),
        steps in proptest::collection::vec(any::<u8>(), 12),
    ) {
        let net = random_ring(&times);
        let flows = invariant::p_semiflows(&net);
        prop_assert!(!flows.is_empty());
        // fire random enabled transitions atomically (consume + produce)
        // and check every semiflow stays constant
        let mut m = net.initial_marking().clone();
        let baselines: Vec<i128> = flows
            .iter()
            .map(|f| f.weighted_sum(m.as_slice().iter().copied()))
            .collect();
        for s in steps {
            let enabled = net.enabled_transitions(&m);
            prop_assume!(!enabled.is_empty());
            let t = enabled[s as usize % enabled.len()];
            m.subtract(net.transition(t).input());
            m.add(net.transition(t).output());
            for (f, base) in flows.iter().zip(&baselines) {
                prop_assert_eq!(f.weighted_sum(m.as_slice().iter().copied()), *base);
            }
        }
    }

    #[test]
    fn t_semiflow_firing_counts_reproduce_marking(times in proptest::collection::vec((1i128..9, 1i128..3), 2..6)) {
        let net = random_ring(&times);
        let flows = invariant::t_semiflows(&net);
        prop_assert_eq!(flows.len(), 1, "a ring has one minimal T-semiflow");
        prop_assert!(invariant::is_t_semiflow(&net, &flows[0].weights));
        // firing the whole ring once returns to the initial marking
        let mut m = net.initial_marking().clone();
        for t in net.transitions() {
            m.subtract(net.transition(t).input());
            m.add(net.transition(t).output());
        }
        prop_assert_eq!(&m, net.initial_marking());
    }
}
