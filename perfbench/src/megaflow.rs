//! `megaflow`: the fan-in geometry of `ir_experiments::megaflow` at
//! about 200k concurrent flows, driven from outside.
//!
//! The benchmark builds the topology itself (the same construction as
//! `megaflow::run`) so that set-up and the flow run are timed apart,
//! and its result must equal the library's `megaflow::run` bit for bit.
//! The traced run drives the engine one `step_boundary` at a time, on
//! the default engine and again on `Sharded { threads: nproc }`.

use crate::trace::{self, Buffer};
use crate::{median, quantile, secs, timed_builds, Run};
use ir_experiments::megaflow::{self, MegaflowConfig, MegaflowResult};
use ir_simnet::prelude::*;
use ir_simnet::EngineStats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Network builds before each flow round (the last one is flowed);
/// `setup_s` is the median of all of a run's builds.
const SETUPS_PER_ROUND: usize = 10;

/// 160 racks × 25 hosts × 50 flows = 200,000 concurrent flows; the
/// other fields as in [`MegaflowConfig::paper`].
pub fn config() -> MegaflowConfig {
    MegaflowConfig {
        racks: 160,
        hosts_per_rack: 25,
        flows_per_host: 50,
        ..MegaflowConfig::paper()
    }
}

/// A built fan-in network with its host routes.
struct Fabric {
    net: Network,
    routes: Vec<Route>,
}

/// The topology and link processes `megaflow::run` builds, seeded the
/// same way.
fn build(seed: u64, cfg: &MegaflowConfig, engine: EngineMode) -> Fabric {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4D45_4741);
    let mut topo = Topology::new();
    let origin = topo.add_node("origin".to_string(), NodeKind::Server);
    let mut rack_links = Vec::with_capacity(cfg.racks as usize);
    let mut routes = Vec::with_capacity((cfg.racks * cfg.hosts_per_rack) as usize);
    for r in 0..cfg.racks {
        let tor = topo.add_node(format!("tor{r}"), NodeKind::Intermediate);
        let up = topo.add_link_shared(tor, origin, SimDuration::from_millis(1), Sharing::Capacity);
        rack_links.push(up);
        for h in 0..cfg.hosts_per_rack {
            let host = topo.add_node(format!("h{r}.{h}"), NodeKind::Client);
            topo.add_link_shared(host, tor, SimDuration::from_millis(1), Sharing::PerFlow);
            routes.push(topo.route(&[host, tor, origin]).expect("fan-in route"));
        }
    }
    let rack_rates: Vec<f64> = (0..cfg.racks)
        .map(|_| cfg.rack_base_rate as f64 * rng.gen_range(0.75..1.25))
        .collect();
    let mut net = Network::new(topo, cfg.host_rate as f64);
    for (&l, &rate) in rack_links.iter().zip(&rack_rates) {
        net.set_link_process(l, Box::new(ConstantProcess::new(rate)));
    }
    net.set_engine_mode(engine);
    Fabric { net, routes }
}

/// Quiescence horizon, as `megaflow::run` computes it.
fn horizon(cfg: &MegaflowConfig) -> SimTime {
    let worst_secs = (cfg.waves as u64 * cfg.wave_stagger_ms).div_ceil(1000)
        + 4 * (cfg.file_bytes * cfg.hosts_per_rack as u64 * cfg.flows_per_host as u64)
            .div_ceil(cfg.rack_base_rate.max(1));
    SimTime::from_secs(worst_secs)
}

/// How the flow run drives the engine.
#[derive(Clone, Copy)]
enum Drive {
    /// `advance_until`, exactly as the library does.
    Plain,
    /// One timed `step_boundary` at a time, spans named by `label`.
    Stepped { label: &'static str },
}

struct Flowed {
    result: MegaflowResult,
    /// Active flows at each boundary step (stepped drives only).
    active: Vec<u64>,
}

/// Launches every wave and runs the fabric to quiescence.
fn flow(fabric: Fabric, cfg: &MegaflowConfig, drive: Drive) -> Flowed {
    let Fabric { mut net, routes } = fabric;
    let mut finished: Vec<u64> = Vec::new();
    let mut active = Vec::new();
    let mut live = 0u64;
    let mut advance = |net: &mut Network, until: SimTime, live: &mut u64| match drive {
        Drive::Plain => {
            let done = net.advance_until(until);
            *live -= done.len() as u64;
            finished.extend(done.iter().map(|c| c.finished.0));
        }
        Drive::Stepped { label } => {
            while net.now() < until {
                active.push(*live);
                let done = trace::span(label, 0, || net.step_boundary(until));
                *live -= done.len() as u64;
                finished.extend(done.iter().map(|c| c.finished.0));
            }
        }
    };
    let mut flows_started = 0u64;
    for wave in 0..cfg.waves {
        advance(
            &mut net,
            SimTime::from_millis(wave as u64 * cfg.wave_stagger_ms),
            &mut live,
        );
        for route in &routes {
            for j in 0..cfg.flows_per_host {
                if j % cfg.waves == wave {
                    match drive {
                        Drive::Plain => {
                            net.start_flow(route.clone(), cfg.file_bytes, Box::new(NoCap));
                        }
                        Drive::Stepped { .. } => {
                            trace::span("simnet.start_flow", flows_started, || {
                                net.start_flow(route.clone(), cfg.file_bytes, Box::new(NoCap))
                            });
                        }
                    }
                    flows_started += 1;
                    live += 1;
                }
            }
        }
    }
    advance(&mut net, horizon(cfg), &mut live);

    finished.sort_unstable();
    let makespan_us = finished.last().map_or(0, |&t| SimTime(t).as_micros());
    finished.dedup();
    let stats: EngineStats = net.stats();
    Flowed {
        result: MegaflowResult {
            cfg: *cfg,
            nodes: cfg.total_nodes(),
            flows_started,
            flows_completed: stats.flows_completed,
            boundaries: stats.boundaries,
            full_solves: stats.full_solves,
            incremental_solves: stats.incremental_solves,
            component_solves: stats.component_solves,
            completion_batches: finished.len() as u64,
            makespan_us,
        },
        active,
    }
}

/// Checks a result against the library's and the report's own checks.
fn verify(run: &mut Run, what: &str, got: &MegaflowResult, want: &MegaflowResult) {
    run.attempted += 1;
    let mut ok = true;
    if got != want {
        ok = false;
        run.fail(format!(
            "{what}: {got:?} differs from megaflow::run {want:?}"
        ));
    }
    for c in megaflow::report_of(got)
        .checks
        .iter()
        .filter(|c| !c.passes())
    {
        ok = false;
        run.fail(format!(
            "{what}: check '{}' measured {}",
            c.metric, c.measured
        ));
    }
    if !ok {
        run.failed += 1;
    }
}

/// Runs the workload: `budget` of flow rounds after set-up.
pub fn run(seed: u64, budget: Duration, traced: bool) -> Run {
    let cfg = config();
    let engine = EngineMode::default();
    let mut run = Run {
        config: format!(
            "engine {engine:?}, {} flows, sharded threads {}",
            cfg.total_flows(),
            crate::nproc()
        ),
        ..Run::default()
    };
    if traced {
        traced_run(&mut run, seed, &cfg);
        return run;
    }
    let mut setups = Vec::new();
    let mut rounds = Vec::new();
    let mut results = Vec::new();
    let t0 = Instant::now();
    loop {
        let fabric = timed_builds(SETUPS_PER_ROUND, &mut setups, || build(seed, &cfg, engine));
        let t = Instant::now();
        let out = flow(fabric, &cfg, Drive::Plain);
        rounds.push(secs(t));
        results.push(out.result);
        if t0.elapsed() >= budget {
            break;
        }
    }
    let want = megaflow::run(seed, &cfg, engine, None);
    for r in &results {
        verify(&mut run, "megaflow round", r, &want);
    }
    run.set("setup_s", median(&setups));
    run.set("megaflow_s", median(&rounds));
    run.set("run_s", median(&rounds));
    run
}

/// The traced run: an untraced round, a stepped round on the default
/// engine and one on the sharded engine; all must equal the library.
fn traced_run(run: &mut Run, seed: u64, cfg: &MegaflowConfig) {
    let want = megaflow::run(seed, cfg, EngineMode::default(), None);

    let fabric = build(seed, cfg, EngineMode::default());
    let t = Instant::now();
    let plain = flow(fabric, cfg, Drive::Plain);
    let untraced_s = secs(t);
    verify(run, "untraced round", &plain.result, &want);

    let fabric = build(seed, cfg, EngineMode::default());
    let t = Instant::now();
    let stepped = flow(
        fabric,
        cfg,
        Drive::Stepped {
            label: "simnet.step_boundary",
        },
    );
    let traced_s = secs(t);
    verify(run, "stepped round", &stepped.result, &want);

    let mut buffers: Vec<Buffer> = vec![trace::take()];

    let threads = crate::nproc();
    let fabric = build(seed, cfg, EngineMode::Sharded { threads });
    let sharded = flow(
        fabric,
        cfg,
        Drive::Stepped {
            label: "simnet.sharded_step_boundary",
        },
    );
    verify(run, "sharded stepped round", &sharded.result, &want);
    let sharded_buffers = vec![trace::take()];

    let totals = trace::totals(&buffers);
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let start = get("simnet.start_flow");
    let step = get("simnet.step_boundary");
    let sharded_step = trace::totals(&sharded_buffers)
        .get("simnet.sharded_step_boundary")
        .copied()
        .unwrap_or_default();
    let boundary_us: Vec<f64> = trace::durations(&buffers, "simnet.step_boundary")
        .into_iter()
        .map(|ns| ns as f64 / 1e3)
        .collect();
    let flow_boundaries: u64 = stepped.active.iter().sum();

    let r = &stepped.result;
    run.set("simnet.boundaries", r.boundaries as f64);
    run.set("simnet.full_solves", r.full_solves as f64);
    run.set("simnet.incremental_solves", r.incremental_solves as f64);
    run.set("simnet.component_solves", r.component_solves as f64);
    run.set("simnet.start_flow_calls", start.calls as f64);
    run.set("simnet.start_flow_busy_s", start.busy_s());
    run.set("simnet.boundary_busy_s", step.busy_s());
    run.set("simnet.boundary_p50_us", quantile(&boundary_us, 0.5));
    run.set("simnet.boundary_p99_us", quantile(&boundary_us, 0.99));
    run.set(
        "simnet.ns_per_flow_boundary",
        step.busy_ns as f64 / flow_boundaries.max(1) as f64,
    );
    run.set("simnet.sharded_boundary_busy_s", sharded_step.busy_s());
    run.set(
        "simnet.sharded_speedup",
        step.busy_ns as f64 / sharded_step.busy_ns.max(1) as f64,
    );
    run.set("trace.overhead_frac", traced_s / untraced_s - 1.0);
    buffers.extend(sharded_buffers);
    let dropped = trace::dropped(&buffers);
    run.set("trace.spans_dropped", dropped as f64);
    if dropped > 0 {
        run.fail(format!("traced run dropped {dropped} spans"));
    }
    if let Err(e) = trace::write_csv(
        std::path::Path::new(".bench_out/spans-megaflow.csv"),
        &buffers,
    ) {
        run.fail(format!("writing spans: {e}"));
    }
}
