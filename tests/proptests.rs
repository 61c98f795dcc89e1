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

/// Serve one single-perturbation `/whatif` batch against `base` and
/// assert its entry equals what `/v1` answers for the perturbed net
/// (`base.with_timing(delta).to_tpn()`), on a separate service: the
/// same status, and the same result bytes or the same error object.
/// A 200 entry wraps the `/v1` results verbatim; a failing entry
/// carries the error of the first failing `/v1` result.
fn assert_whatif_entry_equals_v1(
    base: &TimedPetriNet,
    requests: &[&str],
    delta: &str,
) -> Result<(), TestCaseError> {
    use timed_petri::service::json::{error_object, escape};
    use timed_petri::service::{Json, WhatifSpec};

    let kinds: Vec<String> = requests.iter().map(|k| escape(k)).collect();
    let spec = WhatifSpec::from_json(
        &Json::parse(&format!(
            r#"{{"requests":[{}],"perturbations":[{delta}]}}"#,
            kinds.join(",")
        ))
        .unwrap(),
    )
    .unwrap();
    let envelope = Service::new(ServiceConfig::default()).respond_whatif_spec(base.clone(), &spec);

    let delta = &spec.perturbations[0];
    let perturbed = base.with_timing(delta).unwrap();
    let v1_requests: Vec<String> = kinds.iter().map(|k| format!(r#"{{"kind":{k}}}"#)).collect();
    let (status, v1) = Service::new(ServiceConfig::default()).respond_v1(&format!(
        r#"{{"net":{},"requests":[{}]}}"#,
        escape(&perturbed.to_tpn()),
        v1_requests.join(",")
    ));
    prop_assert_eq!(status, 200, "{}", v1);
    let results_at = v1.find(r#""results":["#).expect("v1 results") + r#""results":["#.len();
    let results = v1[results_at..]
        .strip_suffix("]}")
        .expect("v1 envelope tail");

    let echo: Vec<String> = delta
        .iter()
        .map(|(attr, value)| format!(r#"{}:"{value}""#, escape(attr)))
        .collect();
    let mut expected = format!(r#"{{"perturbation":{{{}}},"#, echo.join(","));
    let doc = Json::parse(&v1).unwrap();
    let failed = doc
        .get("results")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .find(|r| r.get("status").and_then(Json::as_num) != Some("200"));
    match failed {
        None => expected.push_str(&format!(
            r#""status":200,"body":{{"digest":"{}","timing":"{}","results":[{results}]}}}}"#,
            perturbed.digest().to_hex(),
            perturbed.timing().hash_hex(),
        )),
        Some(entry) => {
            let status = entry.get("status").and_then(Json::as_num).unwrap();
            let error = entry.get("body").unwrap();
            let field = |key: &str| error.get(key).and_then(Json::as_str).unwrap();
            let error = error_object(field("code"), field("message"));
            let kind = entry.get("kind").and_then(Json::as_str).unwrap();
            prop_assert!(
                results.contains(&format!(
                    r#"{{"kind":{},"status":{status},"body":{error}}}"#,
                    escape(kind)
                )),
                "{}",
                v1
            );
            expected.push_str(&format!(r#""status":{status},"error":{error}}}"#));
        }
    }
    prop_assert!(
        envelope.ends_with(&format!(r#""perturbations":[{expected}]}}"#)),
        "whatif entry differs from /v1 on the perturbed net\n--- whatif ---\n{}\n--- expected entry ---\n{}",
        envelope,
        expected
    );
    Ok(())
}

/// The lift-fidelity oracle for `/sweep`: sweep `net` at the single
/// point `axes` (exact backend, every transition's throughput) and, if
/// the sweep flags the row `in_region`, assert the base session's
/// compiled closed forms evaluate there to exactly the throughputs a
/// cold session over the perturbed net computes. Returns the flag.
fn assert_in_region_lift_matches_cold(
    net: &TimedPetriNet,
    axes: &[(&str, Rational)],
) -> Result<bool, TestCaseError> {
    use timed_petri::service::json::escape;
    use timed_petri::service::Json;

    let names: Vec<&str> = net
        .transitions()
        .map(|t| net.transition(t).name())
        .collect();
    let targets: Vec<String> = names
        .iter()
        .map(|n| escape(&format!("throughput:{n}")))
        .collect();
    let sweep: Vec<String> = axes
        .iter()
        .map(|(s, v)| format!(r#"{{"symbol":{},"values":["{v}"]}}"#, escape(s)))
        .collect();
    let svc = Service::new(ServiceConfig::default());
    let (status, body) = svc.respond_sweep(&format!(
        r#"{{"net":{},"targets":[{}],"sweep":[{}],"backend":"exact"}}"#,
        escape(&net.to_tpn()),
        targets.join(","),
        sweep.join(",")
    ));
    prop_assert_eq!(status, 200, "{}", body);
    let doc = Json::parse(&body).unwrap();
    let row = &doc.get("rows").and_then(Json::as_arr).unwrap()[0];
    let in_region = row.as_arr().unwrap()[2].as_bool().unwrap();
    if !in_region {
        return Ok(false);
    }

    let session = svc.session_for(net.clone());
    let swept: Vec<Symbol> = axes.iter().map(|(s, _)| Symbol::intern(s)).collect();
    let exprs: Vec<ExprTarget> = net.transitions().map(ExprTarget::Throughput).collect();
    let compiled = session.compiled(&swept, &exprs, false).unwrap();
    let point: Vec<Rational> = compiled
        .program
        .vars()
        .iter()
        .map(|v| axes.iter().find(|(s, _)| *s == v.name()).unwrap().1)
        .collect();
    let lifted = compiled.program.eval_exact_once(&point);

    let mut delta = TimingAssignment::new();
    for (s, v) in axes {
        delta.set(s.to_string(), *v);
    }
    let cold = Session::new(net.with_timing(&delta).unwrap(), SessionOptions::new());
    let dg = cold.decision_graph().unwrap();
    let mut throughputs = cold.performance().unwrap().throughputs(&dg);
    throughputs.resize(names.len(), Rational::ZERO);
    for (i, name) in names.iter().enumerate() {
        prop_assert_eq!(
            lifted[i],
            Some(throughputs[i]),
            "throughput:{} at {:?}",
            name,
            axes
        );
    }
    Ok(true)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn whatif_entries_equal_v1_on_the_perturbed_net(raw in 1i128..=5000, low in 0i128..=3) {
        // A quarter of the draws fold into 1..=300 so both sides of the
        // ~226.9 ms ACK round trip are always exercised: below it the
        // perturbed net violates the conflict-set restriction and the
        // entry is /v1's 422.
        let timeout = if low == 0 { 1 + raw % 300 } else { raw };
        assert_whatif_entry_equals_v1(
            &simple::paper().net,
            &["analyze", "graph"],
            &format!(r#"{{"E(t3)":"{timeout}"}}"#),
        )?;
    }

    #[test]
    fn whatif_ring_entries_equal_v1_including_zero_times(
        stages in proptest::collection::vec(
            ((1i128..=50, 1i128..=4), (-12i128..=50, 1i128..=4), 0i128..=2), 1..6)
    ) {
        // Negative draws clamp to zero (about one stage in five): zero
        // times, and re-timing an enabling time whose base is zero, are
        // analysed like any perturbed net.
        let times: Vec<Rational> =
            stages.iter().map(|((n, d), _, _)| Rational::new(*n, *d)).collect();
        let mut delta = Vec::new();
        for (i, (_, (n, d), which)) in stages.iter().enumerate() {
            let value = Rational::new((*n).max(0), *d);
            if *which != 1 {
                delta.push(format!(r#""F(advance{i})":"{value}""#));
            }
            if *which != 0 {
                delta.push(format!(r#""E(advance{i})":"{value}""#));
            }
        }
        assert_whatif_entry_equals_v1(
            &families::cycle(&times),
            &["analyze", "graph", "correctness", "invariants"],
            &format!("{{{}}}", delta.join(",")),
        )?;
    }

    #[test]
    fn fig1_timeout_lift_equals_cold_sessions_in_region(timeout in 1i128..=5000) {
        assert_in_region_lift_matches_cold(
            &simple::paper().net,
            &[("E(t3)", Rational::from_int(timeout))],
        )?;
    }

    #[test]
    fn lossy_chain_hop_lift_equals_cold_sessions_in_region(
        hop in 1i128..=40, drop in 1i128..=40
    ) {
        // The hop's two outcomes are chosen by frequency before either
        // fires, so this lift records no region: every point is in it.
        let in_region = assert_in_region_lift_matches_cold(
            &lossy_chain(8),
            &[
                ("F(hop3)", Rational::from_int(hop)),
                ("F(drop3)", Rational::from_int(drop)),
            ],
        )?;
        prop_assert!(in_region);
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
    // Every strictly positive known attribute becomes a symbol.
    let net = session.net();
    let mut swept = Vec::new();
    for t in net.transitions() {
        let tr = net.transition(t);
        let name = tr.name();
        if tr.enabling().known().is_some_and(|v| v.is_positive()) {
            swept.push(tpn_net::symbols::enabling(name));
        }
        if tr.firing().known().is_some_and(|v| v.is_positive()) {
            swept.push(tpn_net::symbols::firing(name));
        }
        if matches!(tr.frequency(), tpn_net::Frequency::Weight(w) if w.is_positive()) {
            swept.push(tpn_net::symbols::frequency(name));
        }
    }
    let lifted = session.lifted(&swept).unwrap();
    let rates = solve_rates(&lifted.dg, 0).unwrap();
    assert_eq!(rates.as_slice(), null_space_rates(&lifted.dg));
}
