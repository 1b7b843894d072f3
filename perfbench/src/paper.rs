//! `paper-study`: the paper's two studies at paper scale, each followed
//! by its reports.
//!
//! The untraced run calls the library exactly as the `experiments`
//! binary does. The traced run replays both studies' task loops over a
//! timing [`Transport`] wrapped around `SimTransport` and a timing
//! [`SelectionPolicy`], and must reproduce the library's records bit for
//! bit (compared through the study codecs).

use crate::trace::{self, Buffer};
use crate::{median, secs, timed, timed_builds, Run};
use ir_core::{
    run_session, FirstPortion, Handle, PathSpec, RaceWin, RandomSet, SelectCtx, SelectionPolicy,
    SessionConfig, SimTransport, StaticSingle, Timing, TransferRecord, Transport,
};
use ir_experiments::{
    codec, effective_worker_threads, fig1, fig3, measurement_reports, run_measurement_study,
    run_selection_study, selection_reports, MeasurementData, PairRun, Report, Scale, SelectionData,
    SelectionRun, FIG6_KS,
};
use ir_simnet::time::{SimDuration, SimTime};
use ir_simnet::topology::NodeId;
use ir_simnet::EngineStats;
use ir_workload::{Scenario, Schedule};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Scenario builds before each round; `setup_s` is the median of all of
/// a run's builds. Spreading them over the run keeps one busy moment of
/// the machine from deciding a sub-millisecond figure.
const SETUPS_PER_ROUND: usize = 25;
/// Both studies run on the canonical seed-2007 scenarios, the pinned
/// study the repository's goldens and CLI examples use. The run's seed
/// drives the selection study's random-set draws. Seeding the scenarios
/// too would change the amount of work itself: across seeds the same
/// code takes from 7.5 s to 10.9 s a round on one machine.
const SCENARIO_SEED: u64 = 2007;

struct Inputs {
    measurement: Scenario,
    selection: Scenario,
}

fn build(scenario_seed: u64) -> Inputs {
    Inputs {
        measurement: ir_workload::planetlab_study(scenario_seed),
        selection: ir_workload::selection_study(scenario_seed),
    }
}

fn measurement_schedule() -> Schedule {
    Schedule::measurement_study().spread(Scale::Paper.measurement_transfers())
}

fn selection_schedule() -> Schedule {
    Schedule::selection_study().spread(Scale::Paper.selection_transfers())
}

fn names(sc: &Scenario) -> BTreeMap<NodeId, String> {
    let topo = sc.network.topology();
    (0..topo.node_count() as u32)
        .map(|i| (NodeId(i), topo.node(NodeId(i)).name.clone()))
        .collect()
}

/// Checks a study's shape and every paper check of its reports.
fn verify(run: &mut Run, study: &str, records: usize, expected: usize, reports: &[Report]) {
    run.attempted += 1;
    let mut ok = records == expected;
    if !ok {
        run.fail(format!("{study}: {records} records, expected {expected}"));
    }
    for r in reports {
        for c in r.checks.iter().filter(|c| !c.passes()) {
            ok = false;
            run.fail(format!(
                "{study}: {} check '{}' measured {} outside {:?}",
                r.id, c.metric, c.measured, c.band
            ));
        }
    }
    if !ok {
        run.failed += 1;
    }
}

fn expected_measurement(sc: &Scenario) -> usize {
    sc.clients.len() * sc.relays.len() * measurement_schedule().count as usize
}

fn expected_selection(sc: &Scenario) -> usize {
    sc.clients.len() * FIG6_KS.len() * selection_schedule().count as usize
}

/// The library path, timed end to end: study, then its reports.
struct LibraryRound {
    measurement_s: f64,
    selection_s: f64,
    measurement: Vec<u8>,
    selection: Vec<u8>,
}

fn library_round(run: &mut Run, inputs: &Inputs, seed: u64) -> LibraryRound {
    let cfg = SessionConfig::paper_defaults();
    let t = Instant::now();
    let data = run_measurement_study(&inputs.measurement, 0, measurement_schedule(), cfg);
    let reports = measurement_reports(&data);
    let measurement_s = secs(t);
    let n = data.all_records().count();
    verify(
        run,
        "measurement",
        n,
        expected_measurement(&inputs.measurement),
        &reports,
    );

    let t = Instant::now();
    let sel = run_selection_study(&inputs.selection, FIG6_KS, selection_schedule(), cfg, seed);
    let reports = selection_reports(&sel);
    let selection_s = secs(t);
    let n = sel.runs.iter().map(|r| r.records.len()).sum();
    verify(
        run,
        "selection",
        n,
        expected_selection(&inputs.selection),
        &reports,
    );

    LibraryRound {
        measurement_s,
        selection_s,
        measurement: codec::encode_measurement(&data),
        selection: codec::encode_selection(&sel),
    }
}

/// Runs the workload: `budget` of study rounds after set-up.
pub fn run(seed: u64, budget: Duration, traced: bool) -> Run {
    let mut run = Run {
        config: format!(
            "engine {:?}, workers {}",
            SessionConfig::paper_defaults().engine,
            effective_worker_threads(usize::MAX)
        ),
        ..Run::default()
    };
    if traced {
        traced_run(&mut run, SCENARIO_SEED, seed);
        return run;
    }
    let mut setups = Vec::new();
    let (mut meas, mut sel) = (Vec::new(), Vec::new());
    let mut first: Option<LibraryRound> = None;
    let t0 = Instant::now();
    loop {
        let inputs = timed_builds(SETUPS_PER_ROUND, &mut setups, || build(SCENARIO_SEED));
        let round = library_round(&mut run, &inputs, seed);
        eprintln!(
            "round {}: measurement {:.3} s, selection {:.3} s",
            meas.len(),
            round.measurement_s,
            round.selection_s
        );
        meas.push(round.measurement_s);
        sel.push(round.selection_s);
        match &first {
            None => first = Some(round),
            Some(f) => {
                if f.measurement != round.measurement || f.selection != round.selection {
                    run.failed += 1;
                    run.fail("study results differ between rounds of one run");
                }
            }
        }
        if t0.elapsed() >= budget {
            break;
        }
    }
    run.set("setup_s", median(&setups));
    run.set("measurement_s", median(&meas));
    run.set("selection_s", median(&sel));
    run.set("run_s", median(&meas) + median(&sel));
    run
}

/// `SimTransport` with every session call timed.
struct TimedTransport {
    inner: SimTransport,
    session: u64,
}

impl Transport for TimedTransport {
    fn now(&self) -> SimTime {
        self.inner.now()
    }
    fn begin(&mut self, path: &PathSpec, bytes: u64) -> Handle {
        trace::span("simnet.begin", self.session, || {
            self.inner.begin(path, bytes)
        })
    }
    fn resolvable(&self, path: &PathSpec) -> bool {
        self.inner.resolvable(path)
    }
    fn begin_warm(&mut self, path: &PathSpec, bytes: u64) -> Handle {
        trace::span("simnet.begin_warm", self.session, || {
            self.inner.begin_warm(path, bytes)
        })
    }
    fn race(&mut self, handles: &[Handle], horizon: SimDuration) -> Option<RaceWin> {
        trace::span("simnet.race", self.session, || {
            self.inner.race(handles, horizon)
        })
    }
    fn finish(&mut self, handle: Handle, horizon: SimDuration) -> Option<Timing> {
        trace::span("simnet.finish", self.session, || {
            self.inner.finish(handle, horizon)
        })
    }
    fn cancel(&mut self, handle: Handle) {
        trace::span("simnet.cancel", self.session, || self.inner.cancel(handle))
    }
    fn progress(&self, handle: Handle) -> u64 {
        self.inner.progress(handle)
    }
    fn sleep(&mut self, d: SimDuration) {
        trace::span("simnet.sleep", self.session, || self.inner.sleep(d))
    }
    fn fork(&self) -> Option<Box<dyn Transport>> {
        trace::span("simnet.fork", self.session, || self.inner.fork())
    }
}

/// A selection policy with `candidates` and `observe` timed.
struct TimedPolicy {
    inner: Box<dyn SelectionPolicy>,
    session: u64,
}

impl SelectionPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn candidates(&mut self, ctx: &SelectCtx<'_>) -> Vec<NodeId> {
        trace::span("policy.candidates", self.session, || {
            self.inner.candidates(ctx)
        })
    }
    fn observe(&mut self, rec: &TransferRecord) {
        trace::span("policy.observe", self.session, || self.inner.observe(rec))
    }
}

/// One task of a replayed study.
struct Task {
    client: NodeId,
    server: NodeId,
    full_set: Vec<NodeId>,
    policy: Box<dyn SelectionPolicy>,
}

struct TaskOut {
    records: Vec<TransferRecord>,
    stats: EngineStats,
}

/// The library runner's task loop (`runner::run_task`) over the timing
/// wrappers: one session per schedule instant on a private clone of
/// the scenario network.
fn replay_task(
    sc: &Scenario,
    task: Task,
    task_id: u64,
    schedule: Schedule,
    cfg: &SessionConfig,
    span_name: &'static str,
) -> TaskOut {
    let id = |i: u64| (task_id << 32) | i;
    let mut net = trace::span("simnet.net_clone", id(0), || sc.network.clone());
    net.set_telemetry(None);
    net.set_engine_mode(cfg.engine);
    let mut transport = TimedTransport {
        inner: SimTransport::new(net),
        session: id(0),
    };
    let mut policy = TimedPolicy {
        inner: task.policy,
        session: id(0),
    };
    let mut predictor = FirstPortion;
    let mut records = Vec::with_capacity(schedule.count as usize);
    for (i, at) in schedule.instants(SimTime::ZERO).enumerate() {
        let sid = id(i as u64);
        transport.session = sid;
        policy.session = sid;
        let target = at.max(transport.now());
        trace::span("simnet.advance", sid, || {
            transport.inner.network_mut().advance_until(target)
        });
        let rec = trace::span(span_name, sid, || {
            run_session(
                &mut transport,
                &mut policy,
                &mut predictor,
                task.client,
                task.server,
                &task.full_set,
                i as u64,
                cfg,
            )
        });
        records.push(rec);
    }
    TaskOut {
        records,
        stats: transport.inner.network().stats(),
    }
}

/// Runs tasks `0..n` on the runner's default worker count; returns
/// their outputs in task order plus each worker's spans.
fn replay_parallel(n: usize, f: impl Fn(usize) -> TaskOut + Sync) -> (Vec<TaskOut>, Vec<Buffer>) {
    let outs: Vec<Mutex<Option<TaskOut>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let buffers = std::thread::scope(|s| {
        let handles: Vec<_> = (0..effective_worker_threads(n))
            .map(|_| {
                s.spawn(|| {
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        *outs[i].lock().expect("output slot") = Some(f(i));
                    }
                    trace::take()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay worker panicked"))
            .collect()
    });
    let outs = outs
        .into_iter()
        .map(|o| o.into_inner().expect("output slot").expect("task ran"))
        .collect();
    (outs, buffers)
}

fn add_stats(total: &mut EngineStats, s: &EngineStats) {
    total.boundaries += s.boundaries;
    total.full_solves += s.full_solves;
    total.incremental_solves += s.incremental_solves;
    total.component_solves += s.component_solves;
}

/// The measurement study replayed over the timing wrappers.
fn replay_measurement(sc: &Scenario, stats: &mut EngineStats) -> (MeasurementData, Vec<Buffer>) {
    let cfg = SessionConfig::paper_defaults();
    let server = sc.servers[0];
    let pairs_of: Vec<(NodeId, NodeId)> = sc
        .clients
        .iter()
        .flat_map(|&c| sc.relays.iter().map(move |&v| (c, v)))
        .collect();
    let (outs, buffers) = replay_parallel(pairs_of.len(), |i| {
        let (client, via) = pairs_of[i];
        let task = Task {
            client,
            server,
            full_set: vec![via],
            policy: Box::new(StaticSingle(via)),
        };
        replay_task(
            sc,
            task,
            i as u64,
            measurement_schedule(),
            &cfg,
            "session.measurement",
        )
    });
    let pairs = outs
        .into_iter()
        .zip(pairs_of)
        .map(|(out, (client, via))| {
            add_stats(stats, &out.stats);
            PairRun {
                client,
                via,
                server,
                records: out.records,
            }
        })
        .collect();
    let data = MeasurementData {
        names: names(sc),
        profiles: sc.profiles.clone(),
        clients: sc.clients.clone(),
        relays: sc.relays.clone(),
        server,
        pairs,
    };
    (data, buffers)
}

/// The selection study replayed over the timing wrappers.
fn replay_selection(
    sc: &Scenario,
    seed: u64,
    stats: &mut EngineStats,
) -> (SelectionData, Vec<Buffer>) {
    let cfg = SessionConfig::paper_defaults();
    let server = sc.servers[0];
    let keys: Vec<(NodeId, usize)> = sc
        .clients
        .iter()
        .flat_map(|&c| FIG6_KS.iter().map(move |&k| (c, k)))
        .collect();
    let (outs, buffers) = replay_parallel(keys.len(), |i| {
        let (client, k) = keys[i];
        let task = Task {
            client,
            server,
            full_set: sc.relays.clone(),
            policy: Box::new(RandomSet::new(
                k,
                seed ^ ((client.0 as u64) << 32) ^ (k as u64),
            )),
        };
        replay_task(
            sc,
            task,
            i as u64,
            selection_schedule(),
            &cfg,
            "session.selection",
        )
    });
    let runs = outs
        .into_iter()
        .zip(keys)
        .map(|(out, (client, k))| {
            add_stats(stats, &out.stats);
            SelectionRun {
                client,
                k,
                records: out.records,
            }
        })
        .collect();
    let data = SelectionData {
        names: names(sc),
        clients: sc.clients.clone(),
        relays: sc.relays.clone(),
        runs,
    };
    (data, buffers)
}

/// The traced run with the scenarios built from `seed` as well, for
/// the equivalence self-check.
pub fn selfcheck(seed: u64) -> Run {
    let mut run = Run::default();
    traced_run(&mut run, seed, seed);
    run
}

/// The traced run: the traced replay of one round between two untraced
/// library rounds; the replay must match them bit for bit, and the
/// rounds around it are the overhead baseline.
fn traced_run(run: &mut Run, scenario_seed: u64, seed: u64) {
    let t = Instant::now();
    let inputs = trace::span("workload.scenario_build", 0, || build(scenario_seed));
    run.set("workload.scenario_build_s", secs(t));
    let mut buffers = vec![trace::take()];

    let lib = library_round(run, &inputs, seed);

    let mut stats = EngineStats::default();
    let t = Instant::now();
    let (mdata, mbufs) = replay_measurement(&inputs.measurement, &mut stats);
    let mreports = trace::span("analysis.measurement_reports", 0, || {
        measurement_reports(&mdata)
    });
    let (sdata, sbufs) = replay_selection(&inputs.selection, seed, &mut stats);
    let sreports = trace::span("analysis.selection_reports", 0, || {
        selection_reports(&sdata)
    });
    let traced_s = secs(t);
    buffers.extend(mbufs);
    buffers.extend(sbufs);
    buffers.push(trace::take());
    let after = library_round(run, &inputs, seed);
    let untraced_s = median(&[
        lib.measurement_s + lib.selection_s,
        after.measurement_s + after.selection_s,
    ]);

    let n = mdata.all_records().count();
    verify(
        run,
        "traced measurement",
        n,
        expected_measurement(&inputs.measurement),
        &mreports,
    );
    let n = sdata.runs.iter().map(|r| r.records.len()).sum();
    verify(
        run,
        "traced selection",
        n,
        expected_selection(&inputs.selection),
        &sreports,
    );
    if codec::encode_measurement(&mdata) != lib.measurement {
        run.failed += 1;
        run.fail(format!(
            "seed {seed}: traced measurement replay differs from run_measurement_study"
        ));
    }
    if codec::encode_selection(&sdata) != lib.selection {
        run.failed += 1;
        run.fail(format!(
            "seed {seed}: traced selection replay differs from run_selection_study"
        ));
    }

    // Single analysis functions, timed on the reports' own inputs.
    let (fig1_s, _) = timed(|| fig1::report(&mdata));
    let (fig3_s, _) = timed(|| fig3::report(&mdata));
    let imps = mdata.indirect_improvements_pct();
    let (bootstrap_s, _) = timed(|| {
        (
            ir_stats::mean_ci95(&imps, 0xF161),
            ir_stats::median_ci95(&imps, 0xF161),
        )
    });
    let pts = fig3::scatter(&mdata);
    let (xs, ys): (Vec<f64>, Vec<f64>) = pts.iter().copied().unzip();
    let (theil_sen_s, _) = timed(|| ir_stats::theil_sen(&xs, &ys));
    run.set("analysis.fig1_s", fig1_s);
    run.set("analysis.fig3_s", fig3_s);
    run.set("stats.bootstrap_s", bootstrap_s);
    run.set("stats.bootstrap_n", imps.len() as f64);
    run.set("stats.theil_sen_s", theil_sen_s);
    run.set("stats.theil_sen_n", xs.len() as f64);

    let totals = trace::totals(&buffers);
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let begin = get("simnet.begin");
    let warm = get("simnet.begin_warm");
    run.set("simnet.race_calls", get("simnet.race").calls as f64);
    run.set("simnet.race_busy_s", get("simnet.race").busy_s());
    run.set("simnet.finish_calls", get("simnet.finish").calls as f64);
    run.set("simnet.finish_busy_s", get("simnet.finish").busy_s());
    run.set("simnet.begin_calls", (begin.calls + warm.calls) as f64);
    run.set("simnet.begin_busy_s", begin.busy_s() + warm.busy_s());
    run.set("simnet.cancel_busy_s", get("simnet.cancel").busy_s());
    run.set("simnet.advance_busy_s", get("simnet.advance").busy_s());
    run.set("simnet.net_clone_s", get("simnet.net_clone").busy_s());
    run.set("simnet.boundaries", stats.boundaries as f64);
    run.set("simnet.full_solves", stats.full_solves as f64);
    run.set("simnet.incremental_solves", stats.incremental_solves as f64);
    run.set("simnet.component_solves", stats.component_solves as f64);
    let (ms, ss) = (get("session.measurement"), get("session.selection"));
    run.set("session.measurement.calls", ms.calls as f64);
    run.set("session.measurement.self_s", ms.self_s());
    run.set("session.selection.calls", ss.calls as f64);
    run.set("session.selection.self_s", ss.self_s());
    let records: Vec<&TransferRecord> = mdata
        .all_records()
        .chain(sdata.runs.iter().flat_map(|r| r.records.iter()))
        .collect();
    let sessions = records.len().max(1) as f64;
    let paths: usize = records.iter().map(|r| r.candidates.len() + 1).sum();
    let indirect = records.iter().filter(|r| r.chose_indirect()).count();
    run.set("session.probe_paths_per_session", paths as f64 / sessions);
    run.set("session.indirect_chosen_frac", indirect as f64 / sessions);
    let (cand, obs) = (get("policy.candidates"), get("policy.observe"));
    run.set("policy.calls", (cand.calls + obs.calls) as f64);
    run.set("policy.busy_s", cand.busy_s() + obs.busy_s());
    run.set(
        "analysis.measurement_reports_s",
        get("analysis.measurement_reports").busy_s(),
    );
    run.set(
        "analysis.selection_reports_s",
        get("analysis.selection_reports").busy_s(),
    );
    run.set("trace.overhead_frac", traced_s / untraced_s - 1.0);
    let dropped = trace::dropped(&buffers);
    run.set("trace.spans_dropped", dropped as f64);
    if dropped > 0 {
        run.fail(format!("traced run dropped {dropped} spans"));
    }
    if let Err(e) = trace::write_csv(
        std::path::Path::new(".bench_out/spans-paper-study.csv"),
        &buffers,
    ) {
        run.fail(format!("writing spans: {e}"));
    }
}
