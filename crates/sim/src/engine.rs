//! The simulation engine.

use std::collections::BTreeMap;
use std::fmt;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tpn_net::{ConflictSetId, Frequency, Marking, TimedPetriNet, TransId};
use tpn_rational::Rational;

use crate::SimStats;

/// Options for a simulation run.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// PRNG seed (runs are fully reproducible given the seed).
    pub seed: u64,
    /// Stop after this many discrete events (0 = unlimited).
    pub max_events: u64,
    /// Stop once the clock passes this time (`None` = unlimited). At
    /// least one of `max_events`/`max_time` must bound the run.
    pub max_time: Option<Rational>,
    /// Discard everything before this time from the statistics
    /// (steady-state warm-up cut).
    pub warmup: Rational,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            seed: 0x5EED,
            max_events: 1_000_000,
            max_time: None,
            warmup: Rational::ZERO,
        }
    }
}

/// Errors from simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The net has unknown times or frequencies; simulation needs
    /// concrete values.
    UnknownAttribute {
        /// The offending transition's name.
        transition: String,
    },
    /// The paper's conflict-set restriction was violated (a transition
    /// could fire twice at one instant).
    MultipleFiring {
        /// The offending transition's name.
        transition: String,
    },
    /// Neither `max_events` nor `max_time` bounds the run.
    UnboundedRun,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownAttribute { transition } => {
                write!(
                    f,
                    "simulation requires concrete attributes for {transition:?}"
                )
            }
            SimError::MultipleFiring { transition } => {
                write!(
                    f,
                    "transition {transition:?} would fire twice at one instant"
                )
            }
            SimError::UnboundedRun => write!(f, "set max_events or max_time"),
        }
    }
}

impl std::error::Error for SimError {}

struct SimState {
    marking: Marking,
    ret: Vec<Option<Rational>>,
    rft: Vec<Option<Rational>>,
}

/// Run a simulation of `net`.
pub fn simulate(net: &TimedPetriNet, opts: &SimOptions) -> Result<SimStats, SimError> {
    if opts.max_events == 0 && opts.max_time.is_none() {
        return Err(SimError::UnboundedRun);
    }
    // Pre-resolve all attributes.
    let nt = net.num_transitions();
    let mut enabling = Vec::with_capacity(nt);
    let mut firing = Vec::with_capacity(nt);
    let mut weight = Vec::with_capacity(nt);
    for t in net.transitions() {
        let tr = net.transition(t);
        let unknown = || SimError::UnknownAttribute {
            transition: tr.name().to_string(),
        };
        enabling.push(*tr.enabling().known().ok_or_else(unknown)?);
        firing.push(*tr.firing().known().ok_or_else(unknown)?);
        weight.push(match tr.frequency() {
            Frequency::Weight(w) => w.to_f64(),
            Frequency::Unknown => return Err(unknown()),
        });
    }

    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut state = SimState {
        marking: net.initial_marking().clone(),
        ret: vec![None; nt],
        rft: vec![None; nt],
    };
    refresh_enablement(net, &enabling, &mut state);

    let np = net.num_places();
    let mut clock = Rational::ZERO;
    let mut started = vec![0u64; nt];
    let mut completed = vec![0u64; nt];
    let mut place_busy = vec![Rational::ZERO; np];
    let mut trans_busy = vec![Rational::ZERO; nt];
    let mut events = 0u64;
    let mut deadlocked = false;
    // Warm-up snapshot (taken once the clock first reaches `warmup`).
    type Snap = (Rational, Vec<u64>, Vec<u64>, Vec<Rational>, Vec<Rational>);
    let mut snap: Option<Snap> = None;
    let mut take_snapshot_now = opts.warmup.is_zero();

    loop {
        if take_snapshot_now && snap.is_none() {
            snap = Some((
                clock,
                started.clone(),
                completed.clone(),
                place_busy.clone(),
                trans_busy.clone(),
            ));
        }
        if opts.max_events > 0 && events >= opts.max_events {
            break;
        }
        if let Some(mt) = &opts.max_time {
            if &clock >= mt {
                break;
            }
        }
        let firable: Vec<TransId> = state
            .ret
            .iter()
            .enumerate()
            .filter_map(|(i, v)| match v {
                Some(x) if x.is_zero() => Some(TransId::from_index(i)),
                _ => None,
            })
            .collect();
        if !firable.is_empty() {
            // Resolve each firable conflict set independently.
            let mut by_set: BTreeMap<ConflictSetId, Vec<TransId>> = BTreeMap::new();
            for &t in &firable {
                if state.rft[t.index()].is_some() {
                    return Err(SimError::MultipleFiring {
                        transition: net.transition(t).name().to_string(),
                    });
                }
                by_set.entry(net.conflict_set_of(t)).or_default().push(t);
            }
            let mut chosen: Vec<TransId> = Vec::with_capacity(by_set.len());
            for members in by_set.values() {
                chosen.push(pick_weighted(members, &weight, &mut rng));
            }
            for &t in &chosen {
                state.marking.subtract(net.transition(t).input());
            }
            // Conflict-set restriction check (as in the analytic engine).
            for &t in &chosen {
                let cs = net.conflict_set(net.conflict_set_of(t));
                for &u in cs {
                    let was_firable = matches!(&state.ret[u.index()], Some(x) if x.is_zero());
                    if was_firable && state.marking.covers(net.transition(u).input()) {
                        return Err(SimError::MultipleFiring {
                            transition: net.transition(u).name().to_string(),
                        });
                    }
                }
            }
            for &t in &chosen {
                started[t.index()] += 1;
                if firing[t.index()].is_zero() {
                    state.marking.add(net.transition(t).output());
                    completed[t.index()] += 1;
                } else {
                    state.rft[t.index()] = Some(firing[t.index()]);
                }
            }
            refresh_enablement(net, &enabling, &mut state);
        } else {
            // Elapse the minimum remaining time.
            let tmin = state
                .ret
                .iter()
                .chain(state.rft.iter())
                .filter_map(|v| v.as_ref())
                .min()
                .copied();
            let Some(tmin) = tmin else {
                deadlocked = true;
                break;
            };
            // Accrue busy time over the elapse interval.
            for (p, n) in state.marking.marked_places() {
                debug_assert!(n > 0);
                place_busy[p.index()] += tmin;
            }
            for (i, v) in state.rft.iter().enumerate() {
                if v.is_some() {
                    trans_busy[i] += tmin;
                }
            }
            clock += tmin;
            if !opts.warmup.is_zero() && clock >= opts.warmup {
                take_snapshot_now = true;
            }
            for v in state.ret.iter_mut().chain(state.rft.iter_mut()).flatten() {
                *v -= tmin;
            }
            let mut done: Vec<TransId> = Vec::new();
            for (i, v) in state.rft.iter_mut().enumerate() {
                if matches!(v, Some(x) if x.is_zero()) {
                    *v = None;
                    done.push(TransId::from_index(i));
                }
            }
            for &t in &done {
                completed[t.index()] += 1;
                state.marking.add(net.transition(t).output());
            }
            refresh_enablement(net, &enabling, &mut state);
        }
        events += 1;
    }

    let (t0, s0, c0, pb0, tb0) = snap.unwrap_or_else(|| {
        (
            clock,
            started.clone(),
            completed.clone(),
            place_busy.clone(),
            trans_busy.clone(),
        )
    });
    Ok(SimStats {
        measured_time: clock - t0,
        started: diff(&started, &s0),
        completed: diff(&completed, &c0),
        place_busy: diff_time(&place_busy, &pb0),
        trans_busy: diff_time(&trans_busy, &tb0),
        events,
        deadlocked,
    })
}

fn diff_time(a: &[Rational], b: &[Rational]) -> Vec<Rational> {
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

fn diff(a: &[u64], b: &[u64]) -> Vec<u64> {
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// Weighted choice among firable conflict-set members: zero-weight
/// members lose to any positive-weight member; all-zero sets are
/// resolved uniformly (both rules as documented in `tpn-reach`).
fn pick_weighted(members: &[TransId], weight: &[f64], rng: &mut StdRng) -> TransId {
    if members.len() == 1 {
        return members[0];
    }
    let total: f64 = members.iter().map(|t| weight[t.index()]).sum();
    if total <= 0.0 {
        let i = rng.random_range(0..members.len());
        return members[i];
    }
    let mut x = rng.random_range(0.0..total);
    for &t in members {
        x -= weight[t.index()];
        if x < 0.0 {
            return t;
        }
    }
    *members.last().expect("non-empty members")
}

fn refresh_enablement(net: &TimedPetriNet, enabling: &[Rational], state: &mut SimState) {
    for t in net.transitions() {
        let covered = state.marking.covers(net.transition(t).input());
        let slot = &mut state.ret[t.index()];
        match (covered, slot.is_some()) {
            (true, false) => *slot = Some(enabling[t.index()]),
            (false, true) => *slot = None,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpn_net::NetBuilder;

    fn r(n: i128) -> Rational {
        Rational::from_int(n)
    }

    fn cycle_net() -> TimedPetriNet {
        let mut b = NetBuilder::new("simcycle");
        let pa = b.place("pa", 1);
        let pb = b.place("pb", 0);
        b.transition("go")
            .input(pa)
            .output(pb)
            .firing_const(2)
            .add();
        b.transition("back")
            .input(pb)
            .output(pa)
            .firing_const(3)
            .add();
        b.build().unwrap()
    }

    #[test]
    fn deterministic_cycle_rates_exact() {
        let net = cycle_net();
        let stats = simulate(
            &net,
            &SimOptions {
                max_time: Some(r(5000)),
                max_events: 0,
                ..SimOptions::default()
            },
        )
        .unwrap();
        let go = net.transition_by_name("go").unwrap();
        // one 'go' per 5 time units, exactly (deterministic net)
        assert_eq!(stats.completions(go), 1000);
        assert!(!stats.deadlocked());
        assert!((stats.throughput(go) - 0.2).abs() < 1e-9);
    }

    #[test]
    fn weighted_conflict_converges() {
        let mut b = NetBuilder::new("coinflip");
        let p = b.place("p", 1);
        b.transition("heads")
            .input(p)
            .output(p)
            .firing_const(1)
            .weight_const(3)
            .add();
        b.transition("tails")
            .input(p)
            .output(p)
            .firing_const(1)
            .weight_const(1)
            .add();
        let net = b.build().unwrap();
        let stats = simulate(
            &net,
            &SimOptions {
                max_events: 200_000,
                ..SimOptions::default()
            },
        )
        .unwrap();
        let heads = net.transition_by_name("heads").unwrap();
        let tails = net.transition_by_name("tails").unwrap();
        let h = stats.completions(heads) as f64;
        let t = stats.completions(tails) as f64;
        let ratio = h / (h + t);
        assert!((ratio - 0.75).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn zero_weight_priority() {
        let mut b = NetBuilder::new("prio");
        let p = b.place("p", 1);
        b.transition("main")
            .input(p)
            .output(p)
            .firing_const(1)
            .weight_const(1)
            .add();
        b.transition("never")
            .input(p)
            .output(p)
            .firing_const(1)
            .weight_const(0)
            .add();
        let net = b.build().unwrap();
        let stats = simulate(
            &net,
            &SimOptions {
                max_events: 10_000,
                ..SimOptions::default()
            },
        )
        .unwrap();
        let never = net.transition_by_name("never").unwrap();
        assert_eq!(stats.firings(never), 0);
    }

    #[test]
    fn deadlock_detected() {
        let mut b = NetBuilder::new("dead");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        b.transition("once")
            .input(p)
            .output(q)
            .firing_const(1)
            .add();
        let net = b.build().unwrap();
        let stats = simulate(&net, &SimOptions::default()).unwrap();
        assert!(stats.deadlocked());
        let once = net.transition_by_name("once").unwrap();
        assert_eq!(stats.completions(once), 1);
        assert_eq!(stats.measured_time(), &r(1));
    }

    #[test]
    fn warmup_discards_initial_transient() {
        let net = cycle_net();
        let stats = simulate(
            &net,
            &SimOptions {
                max_time: Some(r(1000)),
                max_events: 0,
                warmup: r(500),
                ..SimOptions::default()
            },
        )
        .unwrap();
        let go = net.transition_by_name("go").unwrap();
        // measured window is [500, 1000]: 100 cycles
        assert_eq!(stats.completions(go), 100);
        assert_eq!(stats.measured_time(), &r(500));
    }

    #[test]
    fn reproducible_with_seed() {
        let mut b = NetBuilder::new("rng");
        let p = b.place("p", 1);
        b.transition("a")
            .input(p)
            .output(p)
            .firing_const(1)
            .weight_const(1)
            .add();
        b.transition("z")
            .input(p)
            .output(p)
            .firing_const(1)
            .weight_const(1)
            .add();
        let net = b.build().unwrap();
        let opts = SimOptions {
            max_events: 10_000,
            seed: 42,
            ..SimOptions::default()
        };
        let s1 = simulate(&net, &opts).unwrap();
        let s2 = simulate(&net, &opts).unwrap();
        let a = net.transition_by_name("a").unwrap();
        assert_eq!(s1.completions(a), s2.completions(a));
    }

    #[test]
    fn unknown_attributes_rejected() {
        let mut b = NetBuilder::new("unk");
        let p = b.place("p", 1);
        b.transition("t").input(p).firing_unknown().add();
        let net = b.build().unwrap();
        assert!(matches!(
            simulate(&net, &SimOptions::default()),
            Err(SimError::UnknownAttribute { .. })
        ));
    }

    #[test]
    fn unbounded_run_rejected() {
        let net = cycle_net();
        let opts = SimOptions {
            max_events: 0,
            max_time: None,
            ..SimOptions::default()
        };
        assert!(matches!(simulate(&net, &opts), Err(SimError::UnboundedRun)));
    }

    #[test]
    fn utilization_tracking() {
        // go (F=2) then back (F=3): pa is marked only instantaneously
        // (absorbed at fire start), "go" is busy 2/5 of the time.
        let net = cycle_net();
        let stats = simulate(
            &net,
            &SimOptions {
                max_time: Some(r(5000)),
                max_events: 0,
                ..SimOptions::default()
            },
        )
        .unwrap();
        let go = net.transition_by_name("go").unwrap();
        let back = net.transition_by_name("back").unwrap();
        let pa = net.place_by_name("pa").unwrap();
        assert!((stats.transition_utilization(go) - 0.4).abs() < 1e-9);
        assert!((stats.transition_utilization(back) - 0.6).abs() < 1e-9);
        assert_eq!(
            stats.place_utilization(pa),
            0.0,
            "tokens are absorbed instantly"
        );
    }

    #[test]
    fn enabling_time_respected() {
        let mut b = NetBuilder::new("timeouty");
        let p = b.place("p", 1);
        b.transition("slowstart")
            .input(p)
            .output(p)
            .enabling_const(9)
            .firing_const(1)
            .add();
        let net = b.build().unwrap();
        let stats = simulate(
            &net,
            &SimOptions {
                max_time: Some(r(100)),
                max_events: 0,
                ..SimOptions::default()
            },
        )
        .unwrap();
        let t = net.transition_by_name("slowstart").unwrap();
        assert_eq!(stats.completions(t), 10); // period 9 + 1
    }
}
