//! Cross-crate property tests: the three engines (numeric reachability,
//! symbolic reachability, discrete-event simulation) must agree with
//! each other on randomly generated models, and the rate solver must
//! agree with a dense null-space oracle.

use proptest::prelude::*;
use timed_petri::linalg::{Field, Matrix};
use timed_petri::net::parse_tpn;
use timed_petri::prelude::*;
use timed_petri::protocols::{abp, families, simple};
use tpn_reach::{AnalysisDomain, EdgeKind};

/// Random stage times for a ring of 1..6 stages.
fn cycle_times() -> impl Strategy<Value = Vec<Rational>> {
    proptest::collection::vec((1i128..=50, 1i128..=4), 1..6)
        .prop_map(|v| v.into_iter().map(|(n, d)| Rational::new(n, d)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cycle_total_time_is_the_sum_of_stages(times in cycle_times()) {
        let net = families::cycle(&times);
        let domain = NumericDomain::new();
        let trg = build_trg(&net, &domain, &TrgOptions::default()).unwrap();
        let dg = DecisionGraph::from_trg(&trg, &domain).unwrap();
        prop_assert_eq!(dg.num_edges(), 1);
        let total: Rational = times.iter().copied().sum();
        prop_assert_eq!(&dg.edges()[0].delay, &total);
        // throughput of stage 0 is 1/total
        let rates = solve_rates(&dg, 0).unwrap();
        let perf = Performance::new(&dg, rates, &domain).unwrap();
        let t0 = net.transition_by_name("advance0").unwrap();
        prop_assert_eq!(perf.throughput(&dg, t0), total.recip());
    }

    #[test]
    fn simulator_matches_analysis_exactly_on_deterministic_rings(times in cycle_times()) {
        let net = families::cycle(&times);
        let total: Rational = times.iter().copied().sum();
        let horizon = total * Rational::from_int(25);
        let stats = simulate(
            &net,
            &SimOptions { max_time: Some(horizon), max_events: 0, ..SimOptions::default() },
        ).unwrap();
        let t0 = net.transition_by_name("advance0").unwrap();
        prop_assert_eq!(stats.completions(t0), 25);
    }

    #[test]
    fn symbolic_instantiation_reproduces_numeric_trg(times in cycle_times()) {
        // Build the same ring with unknown times + equality constraints
        // pinning them to the sampled values; the symbolic TRG must have
        // the same shape and instantiate to the same delays.
        let numeric_net = families::cycle(&times);
        let mut b = NetBuilder::new("symring");
        let places: Vec<_> = (0..times.len())
            .map(|i| b.place(&format!("s{i}"), u32::from(i == 0)))
            .collect();
        for i in 0..times.len() {
            let next = (i + 1) % times.len();
            b.transition(&format!("advance{i}"))
                .input(places[i])
                .output(places[next])
                .firing_unknown()
                .add();
        }
        let sym_net = b.build().unwrap();
        let mut cs = ConstraintSet::new();
        let mut at = Assignment::new();
        for (i, t) in times.iter().enumerate() {
            let s = tpn_net::symbols::firing(&format!("advance{i}"));
            cs.assume_eq(LinExpr::symbol(s), LinExpr::constant(*t));
            at.set(s, *t);
        }
        let sdomain = SymbolicDomain::new(&sym_net, cs);
        let strg = build_trg(&sym_net, &sdomain, &TrgOptions::default()).unwrap();
        let ntrg = build_trg(&numeric_net, &NumericDomain::new(), &TrgOptions::default()).unwrap();
        prop_assert_eq!(strg.num_states(), ntrg.num_states());
        prop_assert_eq!(strg.num_edges(), ntrg.num_edges());
        let mut sdelays: Vec<Rational> = strg
            .all_edges()
            .map(|e| e.delay.eval(&at).unwrap())
            .collect();
        let mut ndelays: Vec<Rational> = ntrg.all_edges().map(|e| e.delay).collect();
        sdelays.sort();
        ndelays.sort();
        prop_assert_eq!(sdelays, ndelays);
    }

    #[test]
    fn lossy_chain_rates_are_a_probability_flow(
        hops in 1usize..5,
        loss_num in 1i128..=9,
    ) {
        let loss = Rational::new(loss_num, 10);
        let (net, arrive) = families::lossy_chain(hops, loss, Rational::from_int(2));
        let domain = NumericDomain::new();
        let trg = build_trg(&net, &domain, &TrgOptions::default()).unwrap();
        let dg = DecisionGraph::from_trg(&trg, &domain).unwrap();
        let rates = solve_rates(&dg, 0).unwrap();
        // the defining fixed point holds everywhere
        for (ei, e) in dg.edges().iter().enumerate() {
            let inflow: Rational = dg.edges_into(e.from).iter().map(|&i| *rates.rate(i)).sum();
            prop_assert_eq!(*rates.rate(ei), e.prob * inflow);
        }
        // analytic success probability per attempt: (1-loss)^hops; the
        // arrive edge's rate relative to the hop-0 inflow must match.
        let perf = Performance::new(&dg, rates, &domain).unwrap();
        let hop0 = net.transition_by_name("hop0").unwrap();
        let drop0 = net.transition_by_name("drop0").unwrap();
        let arrive_rate = perf.throughput(&dg, arrive);
        let attempt_rate = perf.throughput(&dg, hop0) + perf.throughput(&dg, drop0);
        let success = (Rational::ONE - loss).pow(hops as i32);
        prop_assert_eq!(arrive_rate / attempt_rate, success);
    }

    #[test]
    fn fork_join_cycle_time_is_max_branch(n in 1usize..6) {
        // fork (1) + max branch (n) + join (1)
        let net = families::fork_join(n);
        let domain = NumericDomain::new();
        let trg = build_trg(&net, &domain, &TrgOptions::default()).unwrap();
        let dg = DecisionGraph::from_trg(&trg, &domain).unwrap();
        prop_assert_eq!(dg.num_edges(), 1);
        let expect = Rational::from_int(1 + n as i128 + 1);
        prop_assert_eq!(&dg.edges()[0].delay, &expect);
        // all elapse steps in the TRG are positive
        for e in trg.all_edges() {
            if e.kind == EdgeKind::Elapse {
                prop_assert!(e.delay.is_positive());
            }
        }
    }

    #[test]
    fn protocol_throughput_expression_is_valid_across_parameters(
        timeout in 230i128..3000,
        packet in 1i128..=100,
        ack in 1i128..=100,
        handling in 1i128..=20,
        loss_pct in 0i128..=60,
    ) {
        // Instantiate the *symbolically derived* throughput at random
        // parameters satisfying constraint (1) and compare with a fresh
        // numeric analysis at the same parameters: the expression is
        // valid for every admissible assignment, not just Figure 1b.
        let params = simple::Params {
            timeout: Rational::from_int(timeout.max(packet + ack + handling + 1)),
            sender_step: Rational::ONE,
            packet_time: Rational::from_int(packet),
            ack_handling: Rational::from_int(handling),
            ack_time: Rational::from_int(ack),
            packet_loss: Rational::new(loss_pct, 100),
            ack_loss: Rational::new(loss_pct, 100),
        };
        prop_assume!(params.satisfies_timeout_constraint());

        // numeric analysis
        let proto = simple::numeric(&params);
        let domain = NumericDomain::new();
        let trg = build_trg(&proto.net, &domain, &TrgOptions::default()).unwrap();
        let dg = DecisionGraph::from_trg(&trg, &domain).unwrap();
        let rates = solve_rates(&dg, 0).unwrap();
        let perf = Performance::new(&dg, rates, &domain).unwrap();
        let numeric_t = perf.throughput(&dg, proto.t[6]);

        // symbolic expression, derived once, instantiated here
        let (sproto, cs) = simple::symbolic();
        let sdomain = SymbolicDomain::new(&sproto.net, cs);
        let strg = build_trg(&sproto.net, &sdomain, &TrgOptions::default()).unwrap();
        let sdg = DecisionGraph::from_trg(&strg, &sdomain).unwrap();
        let srates = solve_rates(&sdg, 0).unwrap();
        let sperf = Performance::new(&sdg, srates, &sdomain).unwrap();
        let expr = sperf.throughput(&sdg, sproto.t[6]);

        let sym = tpn_net::symbols::enabling;
        let symf = tpn_net::symbols::firing;
        let symq = tpn_net::symbols::frequency;
        let mut at = Assignment::new();
        at.set(sym("t3"), params.timeout);
        at.set(symf("t1"), params.sender_step);
        at.set(symf("t2"), params.sender_step);
        at.set(symf("t3"), params.sender_step);
        at.set(symf("t4"), params.packet_time);
        at.set(symf("t5"), params.packet_time);
        at.set(symf("t6"), params.ack_handling);
        at.set(symf("t7"), params.ack_handling);
        at.set(symf("t8"), params.ack_time);
        at.set(symf("t9"), params.ack_time);
        at.set(symq("t4"), Rational::ONE - params.packet_loss);
        at.set(symq("t5"), params.packet_loss);
        at.set(symq("t8"), Rational::ONE - params.ack_loss);
        at.set(symq("t9"), params.ack_loss);
        prop_assert_eq!(expr.eval(&at), Some(numeric_t));
    }
}

/// One shared base session over the paper's Figure-1 protocol. The
/// full symbolic lift is memoized inside the session, so every
/// re-timing case below substitutes through the same skeleton — which
/// is exactly the code path `POST /whatif` exercises.
fn fig1_base() -> &'static Session {
    static BASE: std::sync::OnceLock<Session> = std::sync::OnceLock::new();
    BASE.get_or_init(|| Session::new(simple::paper().net, SessionOptions::new()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn retimed_ring_sessions_are_byte_identical_to_cold_ones(
        pairs in proptest::collection::vec(
            ((1i128..=50, 1i128..=4), (1i128..=50, 1i128..=4)), 1..6)
    ) {
        use timed_petri::service::run_with_session;
        let times: Vec<Rational> =
            pairs.iter().map(|((n, d), _)| Rational::new(*n, *d)).collect();
        let retimes: Vec<Rational> =
            pairs.iter().map(|(_, (n, d))| Rational::new(*n, *d)).collect();
        let base = Session::new(families::cycle(&times), SessionOptions::new());
        let mut delta = TimingAssignment::new();
        for (i, t) in retimes.iter().enumerate() {
            delta.set(format!("F(advance{i})"), *t);
        }
        // A 1-token ring has no timing races, so every positive
        // retiming stays inside the lift's validity region.
        let retimed = base.retimed(&delta).unwrap();
        let cold = Session::new(
            base.net().with_timing(&delta).unwrap(),
            SessionOptions::new(),
        );
        prop_assert_eq!(retimed.net().digest(), cold.net().digest());
        for kind in [
            RequestKind::Analyze,
            RequestKind::Graph,
            RequestKind::Correctness,
            RequestKind::Invariants,
        ] {
            prop_assert_eq!(
                run_with_session(&retimed, kind).unwrap(),
                run_with_session(&cold, kind).unwrap(),
                "kind {}",
                kind.name()
            );
        }
    }

    #[test]
    fn retimed_protocol_timeouts_match_cold_sessions(timeout in 250i128..=5000) {
        use timed_petri::service::run_with_session;
        let base = fig1_base();
        let delta = TimingAssignment::new().with("E(t3)", Rational::from_int(timeout));
        let retimed = base.retimed(&delta).unwrap();
        let cold = Session::new(
            base.net().with_timing(&delta).unwrap(),
            SessionOptions::new(),
        );
        prop_assert_eq!(retimed.net().digest(), cold.net().digest());
        prop_assert_eq!(
            run_with_session(&retimed, RequestKind::Analyze).unwrap(),
            run_with_session(&cold, RequestKind::Analyze).unwrap()
        );
    }

    #[test]
    fn out_of_region_retimings_are_rejected_with_a_structured_error(
        timeout in 1i128..=200
    ) {
        // Below the ACK round trip the timeout/ACK race resolves the
        // other way: the memoized lift's validity region excludes the
        // point and the rejection must say so (not a parse or pipeline
        // failure — the distinction drives the 400-vs-422 mapping).
        let delta = TimingAssignment::new().with("E(t3)", Rational::from_int(timeout));
        match fig1_base().retimed(&delta) {
            Err(RetimeError::OutOfRegion(m)) => prop_assert!(!m.is_empty()),
            other => prop_assert!(
                false,
                "expected OutOfRegion, got {:?}",
                other.map(|_| "a session")
            ),
        }
    }
}

/// The rate oracle: the null space of the paper's edge-level equations
/// `rₑ − pₑ · Σ { rₑ′ : e′ enters src(e) } = 0`, computed densely and
/// normalised on edge 0. Panics unless the null space is a line.
fn null_space_rates<D>(dg: &DecisionGraph<D>) -> Vec<D::Prob>
where
    D: AnalysisDomain,
    D::Prob: Field,
{
    let m = dg.num_edges();
    let mut a = Matrix::<D::Prob>::zeros(m, m);
    for (ei, e) in dg.edges().iter().enumerate() {
        a.set(ei, ei, D::Prob::one());
        for into in dg.edges_into(e.from) {
            let coefficient = a.get(ei, into).sub(&e.prob);
            a.set(ei, into, coefficient);
        }
    }
    let kernel = a.null_space();
    assert_eq!(
        kernel.len(),
        1,
        "oracle: the rate equations are not ergodic"
    );
    let scale = kernel[0][0].clone();
    kernel[0].iter().map(|r| r.div(&scale)).collect()
}

fn assert_matches_oracle(net: &TimedPetriNet) {
    let domain = NumericDomain::new();
    let trg = build_trg(net, &domain, &TrgOptions::default()).unwrap();
    let dg = DecisionGraph::from_trg(&trg, &domain).unwrap();
    let rates = solve_rates(&dg, 0).unwrap();
    assert_eq!(
        rates.as_slice(),
        null_space_rates(&dg),
        "net {}",
        net.name()
    );
}

/// `base` with its places and transitions declared in a seeded order:
/// a SplitMix64-driven Fisher–Yates shuffle of the place lines, then of
/// the transition lines, of its `.tpn` text. The net, and so its rates,
/// are unchanged; the decision graph's node and edge numbering — and
/// with it the solver's elimination order — is not.
fn declared_in_seeded_order(base: &TimedPetriNet, seed: u64) -> TimedPetriNet {
    let mut state = seed;
    let mut below = |n: usize| {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    };
    let text = base.to_tpn();
    // The `net` line, then every place, then every transition.
    let mut lines: Vec<&str> = text.lines().collect();
    let places = lines.iter().filter(|l| l.starts_with("place ")).count();
    for block in [1..1 + places, 1 + places..lines.len()] {
        let block = &mut lines[block];
        for i in (1..block.len()).rev() {
            block.swap(i, below(i + 1));
        }
    }
    parse_tpn(&lines.join("\n")).unwrap()
}

fn lossy_chain(hops: usize) -> TimedPetriNet {
    families::lossy_chain(hops, Rational::new(1, 10), Rational::from_int(2)).0
}

#[test]
fn rate_oracle_agrees_on_the_corpus() {
    assert_matches_oracle(&simple::paper().net);
    assert_matches_oracle(&abp::abp(&simple::Params::paper()).net);
    assert_matches_oracle(&families::producer_consumer(
        32,
        Rational::from_int(2),
        Rational::from_int(5),
    ));
    for hops in [4, 16, 32, 33] {
        assert_matches_oracle(&lossy_chain(hops));
    }
}

/// 200 declaration orders of `lossy_chain(32)`, a chain near the i128
/// ceiling. The edge-level sparse eliminator this solver replaced
/// overflowed i128 on 86 of them (seeds 1, 4, 6, 8, 11, 13, …); the
/// node reduction must solve every one exactly.
#[test]
fn rate_oracle_agrees_on_permuted_lossy_chains() {
    let base = lossy_chain(32);
    for seed in 0..200 {
        assert_matches_oracle(&declared_in_seeded_order(&base, seed));
    }
}

#[test]
fn rate_oracle_agrees_on_the_lifted_abp_chain() {
    let session = Session::new(
        abp::abp(&simple::Params::paper()).net,
        SessionOptions::new(),
    );
    let swept = session.retimable_symbols();
    let lifted = session.lifted(&swept).unwrap();
    let rates = solve_rates(&lifted.dg, 0).unwrap();
    assert_eq!(rates.as_slice(), null_space_rates(&lifted.dg));
}
