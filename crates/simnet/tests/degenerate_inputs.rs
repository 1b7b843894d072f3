//! Degenerate-input differential battery: every engine mode must give
//! the same answer — or fail with the same panic message — on inputs at
//! the edges of the model.
//!
//! Each case builds one network per mode (`Reference`, `Incremental`,
//! `Sharded` at 1, 2 and 4 threads), drives it through one script, and
//! records every boundary step (clock, per-flow rates bitwise,
//! completions), the final per-flow records, and the panic message if
//! the run panicked. All five recordings must be identical. Cases:
//!
//! * links whose rate is zero, NaN or ∞ (raw values, no clamping);
//! * zero-byte flows mixed with real ones, and flows past 2^53 bytes;
//! * a completion, a cancel and a fault event at the same instant;
//! * a flow whose constant cap froze before its `PerFlow` link's rate
//!   moved;
//! * ceilings that turn invalid, on a table large enough that the
//!   sharded engine splits every per-flow pass over threads.

use ir_simnet::bandwidth::BandwidthProcess;
use ir_simnet::faults::FaultPlan;
use ir_simnet::prelude::*;
use ir_simnet::topology::NodeKind;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A piecewise-constant process that reports its values raw — zero,
/// NaN, ∞ or negative — where the library processes clamp or reject.
#[derive(Debug, Clone)]
struct RawProcess {
    pts: Vec<(SimTime, f64)>,
}

impl RawProcess {
    fn boxed(pts: &[(u64, f64)]) -> Box<dyn BandwidthProcess> {
        Box::new(RawProcess {
            pts: pts
                .iter()
                .map(|&(ms, r)| (SimTime::from_millis(ms), r))
                .collect(),
        })
    }
}

impl BandwidthProcess for RawProcess {
    fn rate_at(&mut self, t: SimTime) -> f64 {
        self.pts
            .iter()
            .rev()
            .find(|&&(from, _)| from <= t)
            .map_or(self.pts[0].1, |&(_, r)| r)
    }
    fn next_change_after(&mut self, t: SimTime) -> Option<SimTime> {
        self.pts.iter().map(|&(at, _)| at).find(|&at| at > t)
    }
    fn clone_box(&self) -> Box<dyn BandwidthProcess> {
        Box::new(self.clone())
    }
}

/// A ceiling that is `rate` until age `bad_from`, then `bad` for good.
#[derive(Debug, Clone, Copy)]
struct TurningCap {
    rate: f64,
    bad_from: SimDuration,
    bad: f64,
}

impl RateCap for TurningCap {
    fn cap(&mut self, age: SimDuration, _done: u64) -> f64 {
        if age < self.bad_from {
            self.rate
        } else {
            self.bad
        }
    }
    fn next_cap_change(&mut self, age: SimDuration) -> Option<SimDuration> {
        (age < self.bad_from).then_some(self.bad_from)
    }
    fn clone_box(&self) -> Box<dyn RateCap> {
        Box::new(*self)
    }
}

/// One boundary step as observed from outside.
#[derive(Debug, Clone, PartialEq)]
struct Step {
    now: SimTime,
    rates: Vec<(u64, u64)>,
    done: Vec<CompletedFlow>,
}

/// Everything one mode's run produced.
#[derive(Debug, Clone, PartialEq)]
struct Recording {
    steps: Vec<Step>,
    /// Per flow: completion record, progress, still active.
    records: Vec<(Option<CompletedFlow>, u64, bool)>,
    boundaries: u64,
    flows_completed: u64,
    flows_cancelled: u64,
    panic: Option<String>,
}

/// Drives a network and records each step.
struct Driver<'a> {
    net: &'a mut Network,
    steps: &'a mut Vec<Step>,
}

impl Driver<'_> {
    /// Steps boundary by boundary to `ms`.
    fn run_to(&mut self, ms: u64) {
        let until = SimTime::from_millis(ms);
        while self.net.now() < until {
            let done = self.net.step_boundary(until);
            self.steps.push(Step {
                now: self.net.now(),
                rates: self
                    .net
                    .last_boundary_rates()
                    .iter()
                    .map(|&(id, r)| (id.0, r.to_bits()))
                    .collect(),
                done,
            });
        }
    }
}

const MODES: [EngineMode; 5] = [
    EngineMode::Reference,
    EngineMode::Incremental,
    EngineMode::Sharded { threads: 1 },
    EngineMode::Sharded { threads: 2 },
    EngineMode::Sharded { threads: 4 },
];

/// Runs `script` on a fresh `build()` network under `mode`.
fn record(
    mode: EngineMode,
    build: &dyn Fn() -> Network,
    script: &dyn Fn(&mut Driver<'_>),
) -> Recording {
    let mut net = build();
    net.set_engine_mode(mode);
    let mut steps = Vec::new();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        script(&mut Driver {
            net: &mut net,
            steps: &mut steps,
        })
    }));
    let panic = outcome.err().map(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    });
    let st = net.stats();
    let records = (0..st.flows_started)
        .map(|k| {
            let id = FlowId(k);
            let progress = if panic.is_none() {
                net.flow_progress(id)
            } else {
                0
            };
            (net.completion(id), progress, net.is_active(id))
        })
        .collect();
    Recording {
        steps,
        records,
        boundaries: st.boundaries,
        flows_completed: st.flows_completed,
        flows_cancelled: st.flows_cancelled,
        panic,
    }
}

/// Runs the case under every mode and demands identical recordings.
/// Returns the reference recording for case-specific checks.
fn all_modes_agree(
    name: &str,
    build: impl Fn() -> Network,
    script: impl Fn(&mut Driver<'_>),
) -> Recording {
    let want = record(MODES[0], &build, &script);
    for &mode in &MODES[1..] {
        let got = record(mode, &build, &script);
        assert_eq!(
            got.panic, want.panic,
            "{name}: {mode:?} panicked differently from Reference"
        );
        assert_eq!(
            got.steps.len(),
            want.steps.len(),
            "{name}: {mode:?} took a different number of steps"
        );
        for (i, (g, w)) in got.steps.iter().zip(&want.steps).enumerate() {
            assert_eq!(g, w, "{name}: {mode:?} diverged at step {i}");
        }
        assert_eq!(got, want, "{name}: {mode:?} final state diverged");
    }
    want
}

/// `a --L0--> m --L1--> b`, plus `a --L2--> b`, with `sharing` per link
/// and raw processes.
fn line(sharing: [Sharing; 3], procs: [&[(u64, f64)]; 3]) -> (Network, Route, Route) {
    let mut t = Topology::new();
    let a = t.add_node("a", NodeKind::Client);
    let m = t.add_node("m", NodeKind::Intermediate);
    let b = t.add_node("b", NodeKind::Server);
    let l0 = t.add_link_shared(a, m, SimDuration::from_millis(5), sharing[0]);
    let l1 = t.add_link_shared(m, b, SimDuration::from_millis(5), sharing[1]);
    let l2 = t.add_link_shared(a, b, SimDuration::from_millis(5), sharing[2]);
    let two_hop = t.route(&[a, m, b]).unwrap();
    let direct = t.route(&[a, b]).unwrap();
    let mut net = Network::new(t, 1e3);
    for (l, p) in [l0, l1, l2].into_iter().zip(procs) {
        net.set_link_process(l, RawProcess::boxed(p));
    }
    (net, two_hop, direct)
}

const CAP: Sharing = Sharing::Capacity;
const PER: Sharing = Sharing::PerFlow;

#[test]
fn zero_rate_links_starve_then_release_alike() {
    let build = || {
        line(
            [CAP, PER, CAP],
            [
                &[(0, 0.0), (4_000, 2e3)],
                &[(0, 5e3), (2_000, 0.0), (6_000, 5e3)],
                &[(0, 0.0)],
            ],
        )
    };
    let rec = all_modes_agree(
        "zero",
        || build().0,
        |d| {
            let (_, two_hop, direct) = build();
            d.net.start_flow(two_hop.clone(), 6_000, Box::new(NoCap));
            d.net.start_flow(direct.clone(), 5_000, Box::new(NoCap));
            d.net
                .start_flow(two_hop, 3_000, Box::new(ConstCap(1_000.0)));
            d.run_to(30_000);
        },
    );
    assert!(rec.panic.is_none());
    assert_eq!(
        rec.flows_completed, 2,
        "the dead direct link never delivers"
    );
    assert!(
        rec.records[1].2,
        "flow on the zero-rate link is still active"
    );
}

#[test]
fn infinite_rate_links_fall_back_and_recover_alike() {
    // L0 (Capacity) is ∞ until 3 s, then finite: the incremental engine
    // solves the ∞ stretch with the generic solver and must re-solve
    // every component once it is finite again.
    let build = || {
        line(
            [CAP, CAP, PER],
            [
                &[(0, f64::INFINITY), (3_000, 4e3)],
                &[(0, 3e3), (5_000, 6e3)],
                &[(0, f64::INFINITY), (8_000, 1e3)],
            ],
        )
    };
    let rec = all_modes_agree(
        "infinite",
        || build().0,
        |d| {
            let (_, two_hop, direct) = build();
            d.net.start_flow(two_hop.clone(), 40_000, Box::new(NoCap));
            d.net.start_flow(two_hop, 30_000, Box::new(ConstCap(800.0)));
            d.net.start_flow(direct.clone(), 20_000, Box::new(NoCap));
            d.run_to(1_000);
            d.net.start_flow(direct, 9_000, Box::new(ConstCap(2e3)));
            d.run_to(60_000);
        },
    );
    assert!(rec.panic.is_none());
    assert_eq!(rec.flows_completed, 4);
}

#[test]
fn infinite_rate_link_alone_gives_infinite_rate_alike() {
    let build = || {
        line(
            [CAP, CAP, CAP],
            [&[(0, 1e3)], &[(0, 1e3)], &[(0, f64::INFINITY)]],
        )
    };
    let rec = all_modes_agree(
        "infinite-alone",
        || build().0,
        |d| {
            let (_, _, direct) = build();
            d.net.start_flow(direct.clone(), 1_000_000, Box::new(NoCap));
            d.net.start_flow(direct, 5_000, Box::new(ConstCap(100.0)));
            d.run_to(100_000);
        },
    );
    assert!(rec.panic.is_none());
    assert_eq!(rec.flows_completed, 2);
}

#[test]
fn nan_rate_capacity_link_panics_alike() {
    let build = || {
        line(
            [CAP, CAP, CAP],
            [&[(0, 1e3), (2_000, f64::NAN)], &[(0, 1e3)], &[(0, 1e3)]],
        )
    };
    let rec = all_modes_agree(
        "nan-capacity",
        || build().0,
        |d| {
            let (_, two_hop, direct) = build();
            d.net.start_flow(two_hop, 50_000, Box::new(NoCap));
            d.net.start_flow(direct, 50_000, Box::new(NoCap));
            d.run_to(10_000);
        },
    );
    assert_eq!(rec.panic.as_deref(), Some("bad link capacity NaN"));
}

#[test]
fn nan_rate_per_flow_link_is_ignored_alike() {
    // `f64::min` skips NaN, so a NaN PerFlow rate folds to nothing.
    let build = || {
        line(
            [CAP, PER, CAP],
            [
                &[(0, 2e3)],
                &[(0, 1e3), (1_000, f64::NAN), (3_000, 500.0)],
                &[(0, 1e3)],
            ],
        )
    };
    let rec = all_modes_agree(
        "nan-per-flow",
        || build().0,
        |d| {
            let (_, two_hop, _) = build();
            d.net.start_flow(two_hop.clone(), 20_000, Box::new(NoCap));
            d.net.start_flow(two_hop, 20_000, Box::new(ConstCap(700.0)));
            d.run_to(100_000);
        },
    );
    assert!(rec.panic.is_none());
    assert_eq!(rec.flows_completed, 2);
}

#[test]
fn negative_capacity_and_bad_cap_together_report_the_link_alike() {
    // At 2 s a Capacity link turns negative *and* a flow's ceiling turns
    // NaN: the link is reported first in every mode, as the reference
    // solver's input check does.
    let build = || {
        line(
            [CAP, CAP, CAP],
            [&[(0, 1e3), (2_000, -5.0)], &[(0, 1e3)], &[(0, 1e3)]],
        )
    };
    let rec = all_modes_agree(
        "negative",
        || build().0,
        |d| {
            let (_, two_hop, direct) = build();
            d.net.start_flow(two_hop, 50_000, Box::new(NoCap));
            let cap = TurningCap {
                rate: 300.0,
                bad_from: SimDuration::from_secs(2),
                bad: f64::NAN,
            };
            d.net.start_flow(direct, 50_000, Box::new(cap));
            d.run_to(10_000);
        },
    );
    assert_eq!(rec.panic.as_deref(), Some("bad link capacity -5"));
}

#[test]
fn zero_byte_flows_complete_at_birth_alike() {
    let build = || line([CAP, PER, CAP], [&[(0, 1e3)], &[(0, 1e3)], &[(0, 1e3)]]);
    let rec = all_modes_agree(
        "zero-byte",
        || build().0,
        |d| {
            let (_, two_hop, direct) = build();
            d.net.start_flow(two_hop.clone(), 0, Box::new(NoCap));
            d.net.start_flow(two_hop.clone(), 4_000, Box::new(NoCap));
            d.net.start_flow(direct.clone(), 0, Box::new(ConstCap(0.0)));
            d.run_to(1_500);
            d.net.start_flow(direct.clone(), 0, Box::new(NoCap));
            d.net.start_flow(direct, 2_000, Box::new(NoCap));
            d.net.cancel_flow(FlowId(0)); // already complete: a no-op
            d.net.start_flow(two_hop, 0, Box::new(NoCap));
            d.run_to(20_000);
        },
    );
    assert!(rec.panic.is_none());
    for k in [0usize, 2, 3, 5] {
        let c = rec.records[k].0.expect("zero-byte flows complete");
        assert_eq!(c.started, c.finished, "flow {k}");
        assert_eq!(c.bytes, 0);
    }
    assert_eq!(rec.flows_completed, 2, "zero-byte flows are not counted");
}

#[test]
fn huge_flows_alike() {
    // Sizes past 2^53 lose precision as f64; every mode rounds them the
    // same way, and progress of a finished flow reads back identically.
    let build = || {
        line(
            [CAP, PER, CAP],
            [&[(0, 1e15)], &[(0, 3e14), (4_000_000, 1e15)], &[(0, 7e14)]],
        )
    };
    let rec = all_modes_agree(
        "huge",
        || build().0,
        |d| {
            let (_, two_hop, direct) = build();
            d.net.start_flow(two_hop.clone(), u64::MAX, Box::new(NoCap));
            d.net.start_flow(two_hop, (1 << 53) + 1, Box::new(NoCap));
            d.net
                .start_flow(direct.clone(), u64::MAX / 3, Box::new(ConstCap(2e14)));
            d.net.start_flow(direct, 1, Box::new(NoCap));
            d.run_to(200_000_000);
        },
    );
    assert!(rec.panic.is_none());
    assert_eq!(rec.flows_completed, 4);
    assert_eq!(rec.records[0].1, u64::MAX as f64 as u64);
}

#[test]
fn completion_cancel_and_fault_at_one_instant_alike() {
    // Flow 0 (10 kB at 1 kB/s on L2) completes at exactly 10 s; a fault
    // takes L0 down at 10 s; the script cancels flow 1 at 10 s, right
    // after the completion, and starts a new flow at the same instant.
    let build = || {
        let (mut net, two_hop, direct) =
            line([CAP, CAP, CAP], [&[(0, 2e3)], &[(0, 2e3)], &[(0, 1e3)]]);
        let l0 = LinkId(0);
        let plan =
            FaultPlan::none().link_outage(l0, SimTime::from_secs(10), SimTime::from_secs(14));
        net.set_fault_plan(&plan);
        (net, two_hop, direct)
    };
    let rec = all_modes_agree(
        "same-instant",
        || build().0,
        |d| {
            let (_, two_hop, direct) = build();
            let a = d.net.start_flow(direct.clone(), 10_000, Box::new(NoCap));
            let b = d
                .net
                .start_flow(two_hop.clone(), 1_000_000, Box::new(NoCap));
            d.net.start_flow(two_hop.clone(), 30_000, Box::new(NoCap));
            while d.net.completion(a).is_none() {
                d.run_to(d.net.now().as_micros() / 1_000 + 1);
            }
            assert_eq!(d.net.now(), SimTime::from_secs(10));
            d.net.cancel_flow(b);
            d.net.start_flow(two_hop, 5_000, Box::new(NoCap));
            d.net.start_flow(direct, 5_000, Box::new(NoCap));
            d.run_to(60_000);
        },
    );
    assert!(rec.panic.is_none());
    assert_eq!(rec.flows_cancelled, 1);
}

#[test]
fn arrival_and_cancel_while_the_partition_awaits_a_rebuild_alike() {
    // Flow 0 crosses two capacity links, so its completion leaves the
    // partition to be rebuilt at the next solve. Before that solve,
    // flows arrive on the freed slot and on a never-used one, and the
    // latter is cancelled at once: the rebuild must not trip over the
    // element of a flow that came and went in between.
    let build = || line([CAP, CAP, CAP], [&[(0, 1e3)], &[(0, 1e3)], &[(0, 1e3)]]);
    let rec = all_modes_agree(
        "dirty-arrival",
        || build().0,
        |d| {
            let (_, two_hop, direct) = build();
            d.net.start_flow(two_hop.clone(), 2_000, Box::new(NoCap));
            d.net.start_flow(direct.clone(), 90_000, Box::new(NoCap));
            d.run_to(2_000);
            assert!(d.net.completion(FlowId(0)).is_some());
            d.net.start_flow(two_hop.clone(), 3_000, Box::new(NoCap));
            let gone = d.net.start_flow(two_hop.clone(), 3_000, Box::new(NoCap));
            d.net.cancel_flow(gone);
            d.run_to(3_000);
            let late = d.net.start_flow(direct, 4_000, Box::new(NoCap));
            d.net.start_flow(two_hop, 1_000, Box::new(NoCap));
            d.net.cancel_flow(late);
            d.run_to(200_000);
        },
    );
    assert!(rec.panic.is_none(), "{:?}", rec.panic);
    assert_eq!(rec.flows_cancelled, 2);
}

#[test]
fn frozen_cap_refolds_when_its_per_flow_link_moves_alike() {
    // Both ceilings are constant, so the incremental engines freeze them
    // at the first boundary; the PerFlow link then steps below and back
    // above one of them.
    let build = || {
        line(
            [PER, CAP, CAP],
            [
                &[(0, 1e3), (3_000, 200.0), (6_000, 800.0), (9_000, 5e3)],
                &[(0, 1_500.0)],
                &[(0, 1e3)],
            ],
        )
    };
    let rec = all_modes_agree(
        "frozen-refold",
        || build().0,
        |d| {
            let (_, two_hop, _) = build();
            d.net
                .start_flow(two_hop.clone(), 9_000, Box::new(ConstCap(500.0)));
            d.net.start_flow(two_hop, 12_000, Box::new(NoCap));
            d.run_to(60_000);
        },
    );
    assert!(rec.panic.is_none());
    // During [3 s, 6 s) the frozen 500 B/s ceiling is folded down to the
    // link's 200 B/s.
    let during = rec
        .steps
        .iter()
        .find(|s| s.now > SimTime::from_secs(3) && s.now <= SimTime::from_secs(6))
        .expect("a step inside the dip");
    assert_eq!(f64::from_bits(during.rates[0].1), 200.0);
}

/// 4,200 flows over eight racks: every per-flow pass of the sharded
/// engine runs on several threads here.
fn wide() -> (Network, Vec<Route>) {
    let mut t = Topology::new();
    let origin = t.add_node("o", NodeKind::Server);
    let mut ups = Vec::new();
    let mut routes = Vec::new();
    for r in 0..8 {
        let tor = t.add_node(format!("t{r}"), NodeKind::Intermediate);
        ups.push(t.add_link_shared(tor, origin, SimDuration::from_millis(1), CAP));
        for h in 0..3 {
            let host = t.add_node(format!("h{r}.{h}"), NodeKind::Client);
            let acc = t.add_link_shared(host, tor, SimDuration::from_millis(1), PER);
            let _ = acc;
            routes.push(t.route(&[host, tor, origin]).unwrap());
        }
    }
    let mut net = Network::new(t, 5e6);
    let rates: [&[(u64, f64)]; 8] = [
        &[(0, 4e6)],
        &[(0, 0.0), (2_000, 3e6)],
        &[(0, f64::INFINITY), (1_500, 5e6)],
        &[(0, 2e6), (2_500, 0.0), (4_000, 2e6)],
        &[(0, 3e6)],
        &[(0, 6e6)],
        &[(0, 1e6), (1_000, 7e6)],
        &[(0, 2e6)],
    ];
    for (&l, p) in ups.iter().zip(rates) {
        net.set_link_process(l, RawProcess::boxed(p));
    }
    // Host access links: one NaN, one zero-then-fast.
    net.set_link_process(LinkId(2), RawProcess::boxed(&[(0, f64::NAN)]));
    net.set_link_process(LinkId(3), RawProcess::boxed(&[(0, 0.0), (3_000, 9e6)]));
    (net, routes)
}

#[test]
fn wide_degenerate_fabric_agrees_across_threads() {
    let rec = all_modes_agree(
        "wide",
        || wide().0,
        |d| {
            let routes = wide().1;
            for i in 0..4_200u64 {
                let r = &routes[i as usize % routes.len()];
                let bytes = if i % 97 == 0 {
                    0
                } else {
                    20_000 + (i % 7) * 3_000
                };
                let cap: Box<dyn RateCap> = match i % 3 {
                    0 => Box::new(NoCap),
                    1 => Box::new(ConstCap(2_000.0 + i as f64)),
                    _ => Box::new(TurningCap {
                        rate: 1_000.0,
                        bad_from: SimDuration::from_millis(500 + (i % 8) * 60),
                        bad: 5_000.0,
                    }),
                };
                d.net.start_flow(r.clone(), bytes, cap);
            }
            d.run_to(700);
            for i in (0..4_200u64).step_by(5) {
                d.net.cancel_flow(FlowId(i));
            }
            d.run_to(120_000);
        },
    );
    assert!(rec.panic.is_none());
    assert!(rec.flows_completed > 3_000, "{}", rec.flows_completed);
}

/// A ceiling turning negative deep inside the table fails every mode
/// with the same message, re-raised from whichever worker thread met it.
/// (A NaN ceiling would not do here: every route crosses a `PerFlow`
/// access link, and `f64::min` folds a NaN ceiling into that link's
/// rate in every mode.)
#[test]
fn negative_ceiling_in_a_wide_table_panics_alike_on_every_thread_count() {
    let rec = all_modes_agree(
        "wide-negative-cap",
        || wide().0,
        |d| {
            let routes = wide().1;
            for i in 0..4_200u64 {
                let r = &routes[i as usize % routes.len()];
                let cap: Box<dyn RateCap> = if i == 3_333 || i == 3_900 {
                    Box::new(TurningCap {
                        rate: 1_000.0,
                        bad_from: SimDuration::from_millis(800),
                        bad: -1.0,
                    })
                } else {
                    Box::new(NoCap)
                };
                d.net.start_flow(r.clone(), 500_000, cap);
            }
            d.run_to(10_000);
        },
    );
    assert_eq!(rec.panic.as_deref(), Some("bad flow cap -1"));
}

/// Switching engines mid-run is allowed: a run that rotates through
/// every mode, a few boundaries each, must step exactly like a pure
/// reference run — the incremental caches may not trust rates the
/// reference engine left behind.
#[test]
fn rotating_engine_modes_mid_run_matches_reference() {
    let build = || {
        let (mut net, two_hop, direct) = line(
            [CAP, PER, CAP],
            [
                &[(0, 2e3), (2_000, f64::INFINITY), (4_000, 1e3)],
                &[(0, 1e3), (5_000, 300.0), (9_000, 2e3)],
                &[(0, 1_500.0), (7_000, 0.0), (8_000, 1e3)],
            ],
        );
        let plan =
            FaultPlan::none().link_outage(LinkId(0), SimTime::from_secs(6), SimTime::from_secs(8));
        net.set_fault_plan(&plan);
        (net, two_hop, direct)
    };
    let script = |d: &mut Driver<'_>, rotate: bool| {
        let (_, two_hop, direct) = build();
        for k in 0..6u64 {
            let r = if k % 2 == 0 { &two_hop } else { &direct };
            d.net
                .start_flow(r.clone(), 4_000 + 1_500 * k, Box::new(ConstCap(900.0)));
            d.net
                .start_flow(r.clone(), 3_000 + 700 * k, Box::new(NoCap));
        }
        let mut n = 0usize;
        while d.net.now() < SimTime::from_secs(40) {
            if rotate {
                d.net.set_engine_mode(MODES[(n / 3) % MODES.len()]);
            }
            if n == 7 {
                d.net.cancel_flow(FlowId(3));
                d.net.start_flow(direct.clone(), 2_500, Box::new(NoCap));
            }
            d.run_to(d.net.now().as_micros() / 1_000 + 250);
            n += 1;
        }
    };
    let pure = record(EngineMode::Reference, &|| build().0, &|d| script(d, false));
    let rotating = record(EngineMode::Incremental, &|| build().0, &|d| script(d, true));
    assert!(pure.panic.is_none());
    assert_eq!(rotating.steps, pure.steps);
    assert_eq!(rotating, pure);
}
