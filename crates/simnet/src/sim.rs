//! The flow-level simulation engine.
//!
//! Flows are fluid: each active flow progresses at a rate determined by
//! (a) max–min fair sharing of the time-varying link capacities along
//! its route and (b) its own [`RateCap`] (the TCP model's ceiling —
//! slow-start ramp early in the flow, loss-based cap in steady state).
//! The engine advances from boundary to boundary, where a boundary is
//! the earliest of: a link-rate change, a flow's cap change, a flow
//! completion, or the caller's horizon. Between boundaries every rate is
//! constant, so progress integrates exactly.
//!
//! Active flows live in a flat table of parallel arrays, ascending by
//! flow id (`table.rs`); finished and cancelled flows keep only a
//! compact per-id record. Two allocation engines share the boundary
//! loop (see [`EngineMode`]): the default *incremental* engine maintains
//! the in-use link set, cached effective link rates (with a
//! lazy-invalidation heap of upcoming rate changes), the congestion
//! components of the current problem, and each flow's last solved rate,
//! and re-solves only the components whose inputs actually changed; the
//! *reference* engine rebuilds the whole problem from scratch every
//! boundary and solves it with the naive
//! [`crate::fairshare::reference_rates`] oracle. The two are held
//! bit-identical by the differential suite in
//! `tests/engine_equivalence.rs` (invalidation rules: DESIGN.md §10).
//!
//! Determinism: with the same topology, seeds and call sequence, runs
//! are bit-for-bit identical. Cloning a [`Network`] yields an
//! independent replica with identical future randomness — this is how
//! experiments run the paper's "two concurrent client processes" in a
//! genuinely interference-free control configuration when desired.

use crate::bandwidth::BandwidthProcess;
use crate::events::EventQueue;
use crate::fairshare::{max_min_rates, AllocFlow};
use crate::faults::{FaultEvent, FaultPlan};
use crate::partition::{
    merge_component_rates, split_component_ranges, Components, FlowLinkPartition,
};
use crate::soa::{solve_component_in, SlabView};
use crate::table::FlowTable;
use crate::time::{SimDuration, SimTime};
use crate::topology::{LinkId, Route, Sharing, Topology};
use ir_telemetry::trace::{Event, EventKind};
use ir_telemetry::Telemetry;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Identifier of a flow within one [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

/// A per-flow rate ceiling, e.g. a TCP model.
pub trait RateCap: Send + Sync {
    /// The ceiling (bytes/sec) for a flow of age `age` that has
    /// transferred `bytes_done` bytes.
    fn cap(&mut self, age: SimDuration, bytes_done: u64) -> f64;

    /// The next flow age strictly after `age` at which the ceiling may
    /// change, or `None` if it is constant from `age` on. Used to
    /// schedule re-allocation boundaries; a conservative (too frequent)
    /// answer is correct but slower.
    ///
    /// `None` is a promise the engine acts on: once a flow's ceiling
    /// answers `None`, the incremental engines stop calling both
    /// [`RateCap::cap`] and this method for that flow and keep the last
    /// [`RateCap::cap`] value (queried at the same age) for the rest of
    /// its life. An implementation must therefore return `None` only
    /// when the ceiling truly no longer depends on age or progress.
    fn next_cap_change(&mut self, age: SimDuration) -> Option<SimDuration>;

    /// Clones into a box (object-safe `Clone`).
    fn clone_box(&self) -> Box<dyn RateCap>;
}

impl Clone for Box<dyn RateCap> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// No ceiling: the flow takes whatever fair share the links allow.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoCap;

impl RateCap for NoCap {
    fn cap(&mut self, _age: SimDuration, _done: u64) -> f64 {
        f64::INFINITY
    }
    fn next_cap_change(&mut self, _age: SimDuration) -> Option<SimDuration> {
        None
    }
    fn clone_box(&self) -> Box<dyn RateCap> {
        Box::new(*self)
    }
}

/// A constant ceiling (testing, simple shaping).
#[derive(Debug, Clone, Copy)]
pub struct ConstCap(pub f64);

impl RateCap for ConstCap {
    fn cap(&mut self, _age: SimDuration, _done: u64) -> f64 {
        self.0
    }
    fn next_cap_change(&mut self, _age: SimDuration) -> Option<SimDuration> {
        None
    }
    fn clone_box(&self) -> Box<dyn RateCap> {
        Box::new(*self)
    }
}

/// Record of a finished flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletedFlow {
    /// Which flow.
    pub id: FlowId,
    /// Bytes it transferred.
    pub bytes: u64,
    /// When it started.
    pub started: SimTime,
    /// When it finished.
    pub finished: SimTime,
}

impl CompletedFlow {
    /// Mean goodput over the flow's lifetime, bytes/sec.
    ///
    /// A zero-duration flow (zero bytes) reports `f64::INFINITY`.
    pub fn throughput(&self) -> f64 {
        let dt = (self.finished - self.started).as_secs_f64();
        if dt == 0.0 {
            f64::INFINITY
        } else {
            self.bytes as f64 / dt
        }
    }
}

/// What the engine keeps of every flow it ever started, by id: the
/// compact record behind [`Network::completion`],
/// [`Network::flow_progress`] and [`Network::is_active`]. Everything
/// else about an active flow lives in its [`FlowTable`] row.
#[derive(Debug, Clone, Copy)]
struct FlowRecord {
    bytes: u64,
    started: SimTime,
    end: FlowEnd,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum FlowEnd {
    /// Still transferring; the flow has a table row.
    Active,
    /// Completed at this instant.
    Finished(SimTime),
    /// Cancelled with this many bytes transferred.
    Cancelled(u64),
}

/// Engine counters, for performance diagnostics and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Boundary steps processed (rate changes, cap changes,
    /// completions, horizons).
    pub boundaries: u64,
    /// Boundary steps that found some solver input changed and ran the
    /// max–min solve (the incremental engines re-solve only the
    /// congestion components whose inputs moved). Always ≤
    /// `boundaries`; the gap is the work the incremental engine avoided.
    pub full_solves: u64,
    /// Boundary steps that proved every solver input bitwise unchanged
    /// and reused the cached allocation instead of solving.
    pub incremental_solves: u64,
    /// Flows ever started.
    pub flows_started: u64,
    /// Flows that ran to completion.
    pub flows_completed: u64,
    /// Flows cancelled before completion.
    pub flows_cancelled: u64,
    /// Congestion components of the problem, summed over all full
    /// solves — every component counts, re-solved or reused (the
    /// incremental and sharded engines track this; the reference engine
    /// stays at 0).
    pub component_solves: u64,
}

/// Sizes of the engine's per-flow state. Every figure is bounded by the
/// peak number of simultaneously active flows, however many flows were
/// started over the network's life; only the compact per-id record of
/// each flow (16–32 bytes) grows with flows started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineFootprint {
    /// Rows the active-flow table can hold without reallocating.
    pub table_capacity: usize,
    /// Flow slots handed out (a slot is reused once its flow ends).
    pub flow_slots: usize,
    /// Union–find elements of the congestion partition: one per link
    /// plus one per flow slot.
    pub partition_elements: usize,
}

/// Which allocation engine [`Network`] runs; see the module docs.
///
/// Both modes are bit-identical in every observable output (rates,
/// boundary times, completions, even `boundaries` counts) — the
/// differential suite in `tests/engine_equivalence.rs` holds them to
/// that. [`EngineMode::Reference`] rebuilds and re-solves the whole
/// max–min problem every boundary with the naive oracle, so it is the
/// slow-but-obviously-correct baseline; switching mid-run is allowed
/// (the incremental caches are maintained in both modes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum EngineMode {
    /// Dirty-tracked caches + per-component re-solves (the default).
    #[default]
    Incremental,
    /// Brute-force rebuild + [`crate::fairshare::reference_rates`]
    /// every boundary.
    Reference,
    /// The incremental engine with its per-boundary flow loops and
    /// per-component solves fanned out over up to `threads` workers.
    /// Bit-identical to [`EngineMode::Incremental`] at **any** thread
    /// count: congestion components are solved on disjoint state and
    /// merged in stable component order, and the parallel reductions
    /// (event-horizon minima) are order-insensitive integer folds.
    /// `threads == 0` or `1` degenerates to the sequential path.
    Sharded {
        /// Worker-thread budget for the parallel phases.
        threads: usize,
    },
}

/// Dirty-tracked state the incremental engine maintains across
/// boundaries. Everything here is *derived* — it can be rebuilt from
/// the network at any time — and membership is maintained in both
/// engine modes so switching modes mid-run stays sound.
///
/// Invalidation rules (DESIGN.md §10):
/// * flow start / completion / cancellation → `have_solution = false`,
///   the flow's partition element (start) or capacity links (end)
///   seeded, and `links_dirty` when a link's crossing-flow count
///   crosses zero;
/// * a link's cached rate segment expiring (`rate_until` reached) →
///   refresh via the `change_heap`;
/// * fault application / plan change → `faults_fired` (effective rates
///   recomputed wholesale — the factor is a few array loads);
/// * a `Capacity` link's effective rate or a flow's folded cap moving
///   bitwise → its component is seeded for re-solving; a `PerFlow`
///   link's effective rate moving → `refold`;
/// * any bitwise change to a solver input → full solve, which re-solves
///   exactly the seeded components; every other component keeps its
///   cached rates, because the solver is a pure function of each
///   component's `(link caps, flow links, flow caps)`.
#[derive(Clone)]
struct EngineCache {
    /// Whether each link is [`Sharing::Capacity`] (else `PerFlow`).
    is_capacity: Vec<bool>,
    /// Number of active flows crossing each link.
    link_refs: Vec<u32>,
    /// Links with `link_refs > 0`, ascending.
    in_use: Vec<u32>,
    /// The in-use set changed (some `link_refs` crossed zero).
    links_dirty: bool,
    /// Fault events applied (or the plan changed) since the last
    /// boundary; effective rates must be re-derived.
    faults_fired: bool,
    /// Cached raw process rate per link, valid until `rate_until`.
    raw_rate: Vec<f64>,
    /// Time at which the cached `raw_rate` stops being valid
    /// (`SimTime::MAX` = constant from here on; `SimTime::ZERO` = never
    /// queried).
    rate_until: Vec<SimTime>,
    /// `raw_rate × fault factor`, the capacity actually allocated.
    eff_rate: Vec<f64>,
    /// Min-heap of `(rate_until, link)` for in-use links: the earliest
    /// upcoming link-rate change without querying every process each
    /// boundary. Entries are validated lazily on pop (stale ones —
    /// superseded refreshes or out-of-use links — are discarded), so
    /// duplicates are harmless.
    change_heap: BinaryHeap<Reverse<(SimTime, u32)>>,
    /// Some `PerFlow` link's effective rate moved: frozen flows' folded
    /// caps must be re-derived from their kept own caps.
    refold: bool,
    /// Table rows whose ceiling is still queried every boundary.
    unfrozen: usize,
    /// Incrementally-maintained flow↔capacity-link union–find.
    partition: FlowLinkPartition,
    /// Flow id holding each partition slot.
    slot_owner: Vec<u64>,
    /// Slots of departed flows, free for reuse.
    free_slots: Vec<u32>,
    /// Partition elements whose components must be re-solved at the
    /// next full solve.
    seeds: Vec<u32>,
    /// Every component must be re-solved: the cached rates did not come
    /// from the per-component solver.
    all_dirty: bool,
    /// Solve scratch: component roots collected, and a mark per
    /// partition element.
    roots: Vec<u32>,
    root_mark: Vec<bool>,
    /// Solve scratch: flow ids of the component being collected.
    comp_ids: Vec<u64>,
    /// The components being re-solved (flows are table rows, links are
    /// link ids).
    comps: Components,
    /// Per-worker scratch (index 0 serves the sequential path).
    workers: Vec<WorkerScratch>,
    /// The table's rates are the allocation of the current inputs.
    have_solution: bool,
}

/// Per-worker scratch for the chunked row loops and component solves:
/// full-problem-size solver arrays the kernels initialise per
/// component, plus the rows one chunk seeded or completed.
#[derive(Clone, Default)]
struct WorkerScratch {
    frozen: Vec<bool>,
    residual: Vec<f64>,
    active_on: Vec<u32>,
    rate: Vec<f64>,
    seeds: Vec<u32>,
    completed: Vec<u32>,
}

impl WorkerScratch {
    fn resize(&mut self, flows: usize, links: usize) {
        self.frozen.resize(flows, false);
        self.residual.resize(links, 0.0);
        self.active_on.resize(links, 0);
    }
}

impl EngineCache {
    fn new(topo: &Topology) -> Self {
        let links = topo.link_count();
        EngineCache {
            is_capacity: (0..links)
                .map(|l| topo.link(LinkId(l as u32)).sharing == Sharing::Capacity)
                .collect(),
            link_refs: vec![0; links],
            in_use: Vec::new(),
            links_dirty: true,
            faults_fired: false,
            raw_rate: vec![0.0; links],
            rate_until: vec![SimTime::ZERO; links],
            eff_rate: vec![0.0; links],
            change_heap: BinaryHeap::new(),
            refold: false,
            unfrozen: 0,
            partition: FlowLinkPartition::new(links),
            slot_owner: Vec::new(),
            free_slots: Vec::new(),
            seeds: Vec::new(),
            all_dirty: false,
            roots: Vec::new(),
            root_mark: Vec::new(),
            comp_ids: Vec::new(),
            comps: Components::default(),
            workers: Vec::new(),
            have_solution: false,
        }
    }

    /// A flow crossing `links` became active.
    fn acquire(&mut self, links: &[LinkId]) {
        for l in links {
            let lu = l.0 as usize;
            self.link_refs[lu] += 1;
            if self.link_refs[lu] == 1 {
                self.links_dirty = true;
            }
        }
        self.have_solution = false;
    }

    /// A flow crossing link `l` left.
    fn release(&mut self, l: u32) {
        let lu = l as usize;
        self.link_refs[lu] -= 1;
        if self.link_refs[lu] == 0 {
            self.links_dirty = true;
        }
    }

    /// Enough worker scratch for `n` chunks.
    fn workers_for(&mut self, n: usize) {
        if self.workers.len() < n {
            self.workers.resize(n, WorkerScratch::default());
        }
    }
}

/// Minimum active flows per parallel chunk: below this, thread-spawn
/// overhead dwarfs the loop body and the engine stays sequential.
/// Purely a performance knob — chunking never changes any output bit.
const PAR_MIN_FLOWS: usize = 1024;

/// How many chunks the engine mode wants for `n` flows' worth of
/// per-flow work. 1 for the sequential engines and for problems too
/// small to amortise thread spawns.
fn par_chunk_count(mode: EngineMode, n: usize) -> usize {
    match mode {
        EngineMode::Sharded { threads } => {
            let t = threads.max(1);
            if t > 1 && n >= 2 * PAR_MIN_FLOWS {
                t.min(n / PAR_MIN_FLOWS)
            } else {
                1
            }
        }
        _ => 1,
    }
}

/// Runs `work` on every chunk — inline when not `parallel`, else one
/// scoped thread per chunk — and hands the results to `fold` in chunk
/// order. A worker's panic is re-raised with its own payload, earliest
/// chunk first, so a panicking input fails alike in every mode.
fn run_chunks<T: Send, R: Send>(
    parallel: bool,
    chunks: impl Iterator<Item = T>,
    work: impl Fn(T) -> R + Sync,
    mut fold: impl FnMut(R),
) {
    if !parallel {
        chunks.for_each(|c| fold(work(c)));
        return;
    }
    std::thread::scope(|s| {
        let work = &work;
        let handles: Vec<_> = chunks.map(|c| s.spawn(move || work(c))).collect();
        let mut panicked = None;
        for h in handles {
            match h.join() {
                Ok(r) => fold(r),
                Err(e) => {
                    panicked.get_or_insert(e);
                }
            }
        }
        if let Some(e) = panicked {
            std::panic::resume_unwind(e);
        }
    });
}

/// Shared inputs of the folded-cap pass.
struct FoldPass<'a> {
    t: SimTime,
    /// Re-fold frozen rows too (a `PerFlow` link rate moved).
    refold: bool,
    frozen: &'a [bool],
    started: &'a [SimTime],
    done: &'a [f64],
    slot: &'a [u32],
    fold_off: &'a [u32],
    fold_links: &'a [u32],
    eff_rate: &'a [f64],
    /// Partition element of slot 0.
    elem0: u32,
}

impl FoldPass<'_> {
    /// Folds the caps of rows `k0..k0 + fns.len()`: queries each
    /// unfrozen row's own ceiling, folds in its `PerFlow` link rates,
    /// and seeds the rows whose folded cap moved (bitwise). Returns
    /// whether any did.
    fn run(
        &self,
        k0: usize,
        fns: &mut [Box<dyn RateCap>],
        own: &mut [f64],
        caps: &mut [f64],
        seeds: &mut Vec<u32>,
    ) -> bool {
        seeds.clear();
        let mut changed = false;
        for j in 0..fns.len() {
            let k = k0 + j;
            let mut cap = if !self.frozen[k] {
                own[j] = fns[j].cap(self.t - self.started[k], self.done[k] as u64);
                own[j]
            } else if self.refold {
                own[j]
            } else {
                continue;
            };
            let links = &self.fold_links[self.fold_off[k] as usize..self.fold_off[k + 1] as usize];
            for &l in links {
                cap = cap.min(self.eff_rate[l as usize]);
            }
            assert!(cap >= 0.0 && !cap.is_nan(), "bad flow cap {cap}");
            if cap.to_bits() != caps[j].to_bits() {
                caps[j] = cap;
                seeds.push(self.elem0 + self.slot[k]);
                changed = true;
            }
        }
        changed
    }
}

/// Shared inputs of the per-row boundary scan.
struct ScanPass<'a> {
    t: SimTime,
    until: SimTime,
    /// Query every row's ceiling and freeze none (the reference
    /// engine).
    query_all: bool,
    id: &'a [u64],
    started: &'a [SimTime],
    total: &'a [u64],
    done: &'a [f64],
    rates: &'a [f64],
}

impl ScanPass<'_> {
    /// Scans rows `k0..k0 + fns.len()`: records each row's rate in
    /// `out`, and returns the earliest of their next cap changes and
    /// projected completions (or `until`) with the number of rows it
    /// froze — a ceiling that reports no further change is never
    /// queried again.
    fn run(
        &self,
        k0: usize,
        fns: &mut [Box<dyn RateCap>],
        frozen: &mut [bool],
        out: &mut [(FlowId, f64)],
    ) -> (SimTime, usize) {
        let mut boundary = self.until;
        let mut froze = 0;
        for j in 0..fns.len() {
            let k = k0 + j;
            let rate = self.rates[k];
            out[j] = (FlowId(self.id[k]), rate);
            if self.query_all || !frozen[j] {
                let age = self.t - self.started[k];
                match fns[j].next_cap_change(age) {
                    Some(next_age) => {
                        debug_assert!(next_age > age, "cap change not in the future");
                        boundary = boundary.min(self.started[k] + next_age);
                    }
                    None if !self.query_all => {
                        frozen[j] = true;
                        froze += 1;
                    }
                    None => {}
                }
            }
            let remaining = self.total[k] as f64 - self.done[k];
            if rate > 0.0 && remaining > 0.0 {
                let dt = SimDuration::from_secs_f64_ceil(remaining / rate);
                let dt = if dt.is_zero() {
                    SimDuration::from_micros(1)
                } else {
                    dt
                };
                boundary = boundary.min(self.t.saturating_add(dt));
            }
        }
        (boundary, froze)
    }
}

/// Integrates rows `k0..k0 + done.len()` over `dt` seconds and lists
/// the rows that completed, ascending.
fn integrate_rows(
    k0: usize,
    done: &mut [f64],
    total: &[u64],
    rates: &[f64],
    dt: f64,
    completed: &mut Vec<u32>,
) {
    completed.clear();
    for (j, d) in done.iter_mut().enumerate() {
        let k = k0 + j;
        let bytes = total[k] as f64;
        *d = (*d + rates[k] * dt).min(bytes);
        // Half-byte tolerance absorbs fp residue from the ceil rounding
        // of dt.
        if bytes - *d < 0.5 {
            *d = bytes;
            completed.push(k as u32);
        }
    }
}

/// Live state of an installed [`FaultPlan`]: the pending schedule plus
/// the current down/brownout flags it has produced so far.
#[derive(Clone)]
struct FaultState {
    queue: EventQueue<FaultEvent>,
    link_down: Vec<bool>,
    node_down: Vec<bool>,
    brownout: Vec<f64>,
}

/// The simulated network: topology + per-link bandwidth processes +
/// active flows + the clock.
#[derive(Clone)]
pub struct Network {
    topo: Topology,
    procs: Vec<Box<dyn BandwidthProcess>>,
    /// Every flow ever started, by id.
    records: Vec<FlowRecord>,
    /// The active flows.
    table: FlowTable,
    /// Table rows leaving at the next compaction (cancelled flows
    /// between boundaries; completed ones within a boundary step).
    gone: Vec<u32>,
    now: SimTime,
    stats: EngineStats,
    /// Fault plane; `None` (the default, and what an empty plan
    /// installs) keeps every code path byte-identical to a build
    /// without fault support.
    faults: Option<FaultState>,
    /// Observability handle; `None` (the default) costs nothing on any
    /// path. Strictly observational: never consumes randomness, never
    /// moves the clock, never changes control flow.
    telemetry: Option<Arc<Telemetry>>,
    /// Which allocation engine runs the boundary steps.
    mode: EngineMode,
    /// Incremental-engine state (membership maintained in both modes).
    cache: EngineCache,
    /// `(flow, rate)` pairs the most recent boundary step integrated.
    last_rates: Vec<(FlowId, f64)>,
}

impl Network {
    /// Creates a network over `topo`; every link starts with the given
    /// default constant rate until a process is attached.
    pub fn new(topo: Topology, default_rate: f64) -> Self {
        let procs = (0..topo.link_count())
            .map(|_| {
                Box::new(crate::bandwidth::ConstantProcess::new(default_rate))
                    as Box<dyn BandwidthProcess>
            })
            .collect();
        let cache = EngineCache::new(&topo);
        Network {
            topo,
            procs,
            records: Vec::new(),
            table: FlowTable::new(),
            gone: Vec::new(),
            now: SimTime::ZERO,
            stats: EngineStats::default(),
            faults: None,
            telemetry: None,
            mode: EngineMode::default(),
            cache,
            last_rates: Vec::new(),
        }
    }

    /// Engine counters since construction (clones inherit the donor's).
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Sizes of the engine's per-flow state (see [`EngineFootprint`]).
    pub fn engine_footprint(&self) -> EngineFootprint {
        EngineFootprint {
            table_capacity: self.table.capacity(),
            flow_slots: self.cache.slot_owner.len(),
            partition_elements: self.cache.partition.elements(),
        }
    }

    /// Selects the allocation engine; see [`EngineMode`].
    pub fn set_engine_mode(&mut self, mode: EngineMode) {
        self.mode = mode;
    }

    /// The allocation engine currently selected.
    pub fn engine_mode(&self) -> EngineMode {
        self.mode
    }

    /// Attaches (or with `None`, detaches) a telemetry handle. Clones
    /// made after this call inherit the handle, so every replica of a
    /// scenario network reports into the same registry.
    pub fn set_telemetry(&mut self, telemetry: Option<Arc<Telemetry>>) {
        self.telemetry = telemetry;
    }

    /// The currently attached telemetry handle, if any.
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.telemetry.as_ref()
    }

    /// Attaches a bandwidth process to a link, replacing the previous
    /// one.
    pub fn set_link_process(&mut self, link: LinkId, proc_: Box<dyn BandwidthProcess>) {
        let lu = link.0 as usize;
        self.procs[lu] = proc_;
        // Invalidate the cached rate segment: mark it as expiring
        // immediately and arm the heap so the next boundary re-queries
        // the new process.
        self.cache.rate_until[lu] = SimTime::ZERO;
        self.cache
            .change_heap
            .push(Reverse((SimTime::ZERO, link.0)));
        self.cache.have_solution = false;
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Instantaneous available bandwidth of `link` at the current time
    /// (before fair sharing).
    pub fn link_rate_now(&mut self, link: LinkId) -> f64 {
        let t = self.now;
        self.procs[link.0 as usize].rate_at(t)
    }

    /// The bandwidth process attached to `link` (e.g. to clone it for
    /// side-channel sampling; see [`crate::tracer`]).
    pub fn link_process(&self, link: LinkId) -> &dyn BandwidthProcess {
        self.procs[link.0 as usize].as_ref()
    }

    /// Installs a fault plan, replacing any previous plan and clearing
    /// its accumulated state. Events apply lazily as the clock reaches
    /// them. An **empty** plan removes the fault plane entirely: the
    /// network is then byte-identical (state and behaviour) to one that
    /// never had a plan — the no-op guarantee `FaultPlan::none()`
    /// documents. Clones made after this call inherit the plan, so
    /// every replica of a scenario network replays the same schedule.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        // Any previously applied factors may vanish (or appear) with the
        // new plan; have the engine re-derive effective rates.
        self.cache.faults_fired = true;
        self.cache.have_solution = false;
        if plan.is_empty() {
            self.faults = None;
            return;
        }
        let mut queue = EventQueue::new();
        for &(at, ev) in plan.events() {
            queue.push(at, ev);
        }
        self.faults = Some(FaultState {
            queue,
            link_down: vec![false; self.topo.link_count()],
            node_down: vec![false; self.topo.node_count()],
            brownout: vec![1.0; self.topo.link_count()],
        });
    }

    /// Number of scheduled fault events not yet applied.
    pub fn fault_events_pending(&self) -> usize {
        self.faults.as_ref().map_or(0, |fs| fs.queue.len())
    }

    /// Multiplier the fault plane currently applies to `link`'s rate:
    /// `0.0` when the link or either endpoint node is down, the
    /// brownout factor during a brownout, `1.0` otherwise.
    fn fault_factor(&self, l: usize) -> f64 {
        match &self.faults {
            None => 1.0,
            Some(fs) => {
                let link = self.topo.link(LinkId(l as u32));
                if fs.link_down[l]
                    || fs.node_down[link.from.0 as usize]
                    || fs.node_down[link.to.0 as usize]
                {
                    0.0
                } else {
                    fs.brownout[l]
                }
            }
        }
    }

    /// Time of the next unapplied fault event, if any.
    fn next_fault_time(&self) -> Option<SimTime> {
        self.faults.as_ref().and_then(|fs| fs.queue.peek_time())
    }

    /// Applies every fault event scheduled at or before the current
    /// time. Telemetry is stamped with each event's *scheduled* time,
    /// so late application (a boundary landing past the event) keeps
    /// truthful timestamps.
    fn apply_due_faults(&mut self) {
        let now = self.now;
        let Some(fs) = &mut self.faults else { return };
        let mut fired = false;
        while let Some((at, ev)) = fs.queue.pop_until(now) {
            fired = true;
            let (what, id, factor) = match ev {
                FaultEvent::LinkDown(l) => {
                    fs.link_down[l.0 as usize] = true;
                    ("link_down", l.0 as u64, 0.0)
                }
                FaultEvent::LinkUp(l) => {
                    fs.link_down[l.0 as usize] = false;
                    ("link_up", l.0 as u64, 1.0)
                }
                FaultEvent::BrownoutSet { link, factor } => {
                    fs.brownout[link.0 as usize] = factor;
                    ("brownout", link.0 as u64, factor)
                }
                FaultEvent::NodeDown(n) => {
                    fs.node_down[n.0 as usize] = true;
                    ("node_down", n.0 as u64, 0.0)
                }
                FaultEvent::NodeUp(n) => {
                    fs.node_down[n.0 as usize] = false;
                    ("node_up", n.0 as u64, 1.0)
                }
            };
            if let Some(tel) = &self.telemetry {
                tel.metrics.counter("simnet_faults_injected", vec![]).inc();
                tel.tracer.record(
                    Event::new(EventKind::FaultInjected, at.as_micros(), id)
                        .with_str("fault", what)
                        .with_f64("factor", factor),
                );
            }
        }
        if fired {
            self.cache.faults_fired = true;
        }
    }

    /// Instantaneous *effective* rate of `link`: the raw process value
    /// scaled by the fault plane (0 while down).
    pub fn effective_link_rate_now(&mut self, link: LinkId) -> f64 {
        self.apply_due_faults();
        let raw = self.link_rate_now(link);
        raw * self.fault_factor(link.0 as usize)
    }

    /// True if the fault plane currently makes `link` unusable (the
    /// link itself or either endpoint node is down).
    pub fn link_is_down(&mut self, link: LinkId) -> bool {
        self.apply_due_faults();
        self.fault_factor(link.0 as usize) == 0.0
    }

    /// Current fair-share allocation of every active flow at this
    /// instant: `(flow, route links, allocated rate)`, ascending by
    /// flow. A flow's links are listed `Capacity` links first, then
    /// `PerFlow` links, each group in route order. Diagnostic / test
    /// accessor — it recomputes shares without advancing time and never
    /// changes engine state beyond lazily extending process timelines
    /// (which is query-stable).
    pub fn active_flow_allocation(&mut self) -> Vec<(FlowId, Vec<LinkId>, f64)> {
        self.apply_due_faults();
        self.compact_cancelled();
        let (caps, alloc_flows) = self.scratch_problem();
        let rates = max_min_rates(&caps, &alloc_flows);
        let t = &self.table;
        rates
            .into_iter()
            .enumerate()
            .map(|(k, r)| {
                let links = t.cap_links_of(k).iter().chain(t.fold_links_of(k));
                (FlowId(t.id[k]), links.map(|&l| LinkId(l)).collect(), r)
            })
            .collect()
    }

    /// Starts a flow of `bytes` along `route` at the current time.
    pub fn start_flow(&mut self, route: Route, bytes: u64, cap: Box<dyn RateCap>) -> FlowId {
        let id = FlowId(self.records.len() as u64);
        let now = self.now;
        let end = if bytes == 0 {
            FlowEnd::Finished(now)
        } else {
            let c = &mut self.cache;
            let slot = match c.free_slots.pop() {
                Some(s) => {
                    c.slot_owner[s as usize] = id.0;
                    s
                }
                None => {
                    c.slot_owner.push(id.0);
                    (c.slot_owner.len() - 1) as u32
                }
            };
            c.acquire(&route.links);
            let is_cap = &c.is_capacity;
            let links = || route.links.iter().map(|l| l.0);
            let cap_links = links().filter(|&l| is_cap[l as usize]);
            c.partition.on_flow_start(slot, cap_links.clone());
            self.table.push(
                id.0,
                slot,
                bytes,
                now,
                cap,
                cap_links,
                links().filter(|&l| !is_cap[l as usize]),
            );
            c.seeds.push(c.partition.flow_element(slot));
            c.unfrozen += 1;
            FlowEnd::Active
        };
        self.records.push(FlowRecord {
            bytes,
            started: now,
            end,
        });
        self.stats.flows_started += 1;
        if let Some(tel) = &self.telemetry {
            tel.metrics.counter("simnet_flows_started", vec![]).inc();
            tel.tracer.record(
                Event::new(EventKind::FlowStart, now.as_micros(), id.0)
                    .with_u64("bytes", bytes)
                    .with_u64("hops", route.links.len() as u64),
            );
        }
        id
    }

    /// Cancels a flow (it stops consuming bandwidth and will never
    /// complete). No-op if already finished or cancelled.
    pub fn cancel_flow(&mut self, id: FlowId) {
        if self.records[id.0 as usize].end != FlowEnd::Active {
            return;
        }
        let k = self.table.seek(0, id.0);
        let done = self.table.done[k] as u64;
        self.records[id.0 as usize].end = FlowEnd::Cancelled(done);
        // The row leaves the table at the next compaction, before any
        // allocation is computed.
        self.gone.push(k as u32);
        self.stats.flows_cancelled += 1;
        if let Some(tel) = &self.telemetry {
            tel.metrics.counter("simnet_flows_cancelled", vec![]).inc();
            tel.tracer.record(
                Event::new(EventKind::FlowCancel, self.now.as_micros(), id.0)
                    .with_u64("bytes_done", done),
            );
        }
    }

    /// Bytes transferred so far by a flow.
    pub fn flow_progress(&self, id: FlowId) -> u64 {
        let rec = &self.records[id.0 as usize];
        match rec.end {
            FlowEnd::Active => {
                let k = self.table.seek(0, id.0);
                self.table.done[k] as u64
            }
            FlowEnd::Finished(_) => rec.bytes as f64 as u64,
            FlowEnd::Cancelled(done) => done,
        }
    }

    /// Completion record of a flow, if it has finished.
    pub fn completion(&self, id: FlowId) -> Option<CompletedFlow> {
        let rec = &self.records[id.0 as usize];
        match rec.end {
            FlowEnd::Finished(finished) => Some(CompletedFlow {
                id,
                bytes: rec.bytes,
                started: rec.started,
                finished,
            }),
            _ => None,
        }
    }

    /// True if a flow is still transferring.
    pub fn is_active(&self, id: FlowId) -> bool {
        self.records[id.0 as usize].end == FlowEnd::Active
    }

    /// Removes the rows in `gone` (ascending) from the table in one
    /// ordered pass, releasing their links, partition elements and
    /// slots. With `finished_at`, they completed at that instant and
    /// their completion records are returned in flow order.
    fn remove_gone(&mut self, finished_at: Option<SimTime>) -> Vec<CompletedFlow> {
        let gone = std::mem::take(&mut self.gone);
        let mut out = Vec::new();
        let c = &mut self.cache;
        for &k in &gone {
            let k = k as usize;
            let caps = self.table.cap_links_of(k);
            for &l in caps.iter().chain(self.table.fold_links_of(k)) {
                c.release(l);
            }
            let slot = self.table.slot[k];
            c.partition.on_flow_depart(slot, caps.len());
            c.seeds.extend_from_slice(caps);
            c.free_slots.push(slot);
            if !self.table.frozen[k] {
                c.unfrozen -= 1;
            }
            if let Some(at) = finished_at {
                let id = self.table.id[k];
                let rec = &mut self.records[id as usize];
                rec.end = FlowEnd::Finished(at);
                self.stats.flows_completed += 1;
                out.push(CompletedFlow {
                    id: FlowId(id),
                    bytes: rec.bytes,
                    started: rec.started,
                    finished: at,
                });
            }
        }
        if !gone.is_empty() {
            c.have_solution = false;
            self.table.remove(&gone);
        }
        self.gone = gone;
        self.gone.clear();
        out
    }

    /// Drops the rows of flows cancelled since the last compaction.
    fn compact_cancelled(&mut self) {
        if !self.gone.is_empty() {
            self.gone.sort_unstable();
            self.remove_gone(None);
        }
    }

    /// Assembles the fair-share problem **from scratch** out of the
    /// table — link rates straight from the processes, every flow's cap
    /// re-queried — the brute-force path kept as the reference. Returns
    /// `(link caps, flows)` in dense slot order, flows in table order;
    /// [`EngineMode::Reference`] solves it with the naive oracle every
    /// boundary, and the diagnostic allocation accessor solves it with
    /// [`max_min_rates`].
    ///
    /// [`Sharing::PerFlow`] links do not couple flows: their process
    /// value folds into each crossing flow's own cap, and they enter the
    /// max–min problem with infinite capacity. [`Sharing::Capacity`]
    /// links are genuinely shared.
    fn scratch_problem(&mut self) -> (Vec<f64>, Vec<AllocFlow>) {
        let t = self.now;
        let table = &self.table;
        // Snapshot rates only for links in use; large scenarios have
        // thousands of links but a handful carry active flows.
        let mut in_use: Vec<usize> = table
            .cap_links
            .iter()
            .chain(&table.fold_links)
            .map(|&l| l as usize)
            .collect();
        in_use.sort_unstable();
        in_use.dedup();
        // Dense remap: link index -> slot in the fair-share problem.
        let mut slot = vec![usize::MAX; self.topo.link_count()];
        for (k, &l) in in_use.iter().enumerate() {
            slot[l] = k;
        }
        let factors: Vec<f64> = in_use.iter().map(|&l| self.fault_factor(l)).collect();
        let rates: Vec<f64> = in_use
            .iter()
            .enumerate()
            .map(|(k, &l)| self.procs[l].rate_at(t) * factors[k])
            .collect();
        let caps: Vec<f64> = in_use
            .iter()
            .enumerate()
            .map(|(k, &l)| match self.topo.link(LinkId(l as u32)).sharing {
                Sharing::Capacity => rates[k],
                Sharing::PerFlow => f64::INFINITY,
            })
            .collect();
        let table = &mut self.table;
        let alloc_flows: Vec<AllocFlow> = (0..table.len())
            .map(|k| {
                let age = t - table.started[k];
                let mut cap = table.cap_fn[k].cap(age, table.done[k] as u64);
                for &l in table.fold_links_of(k) {
                    cap = cap.min(rates[slot[l as usize]]);
                }
                let links = table.cap_links_of(k).iter().chain(table.fold_links_of(k));
                AllocFlow {
                    links: links.map(|&l| slot[l as usize]).collect(),
                    cap,
                }
            })
            .collect();
        (caps, alloc_flows)
    }

    /// Re-queries link `l`'s process at the current time, caching the
    /// raw rate and the segment end, and arms the change heap.
    fn refresh_link_rate(&mut self, l: usize) {
        let t = self.now;
        self.cache.raw_rate[l] = self.procs[l].rate_at(t);
        match self.procs[l].next_change_after(t) {
            Some(until) => {
                debug_assert!(until > t, "rate change not in the future");
                self.cache.rate_until[l] = until;
                self.cache.change_heap.push(Reverse((until, l as u32)));
            }
            None => self.cache.rate_until[l] = SimTime::MAX,
        }
    }

    /// Re-derives link `l`'s effective rate from its cached raw rate
    /// and the fault plane. A bitwise move of a `Capacity` link seeds
    /// its component and is reported as a solver-input change; a
    /// `PerFlow` link reaches the solver only through folded per-flow
    /// caps, so its move just schedules a re-fold.
    fn update_eff_rate(&mut self, l: usize) -> bool {
        let eff = self.cache.raw_rate[l] * self.fault_factor(l);
        let c = &mut self.cache;
        if eff.to_bits() == c.eff_rate[l].to_bits() {
            return false;
        }
        c.eff_rate[l] = eff;
        if c.is_capacity[l] {
            c.seeds.push(l as u32);
            true
        } else {
            c.refold = true;
            false
        }
    }

    /// Records a full max–min solve in stats and telemetry (both engine
    /// modes).
    fn note_full_solve(&mut self, active_flows: usize) {
        self.stats.full_solves += 1;
        if let Some(tel) = &self.telemetry {
            tel.metrics.counter("simnet_recomputes", vec![]).inc();
            tel.tracer.record(
                Event::new(EventKind::FairShareRecompute, self.now.as_micros(), 0)
                    .with_u64("active_flows", active_flows as u64),
            );
        }
    }

    /// Re-folds the per-flow caps (unfrozen rows always, frozen rows
    /// after a `PerFlow` rate move), chunked for the sharded engine.
    /// Each unfrozen cap object sees one `cap` query per boundary at the
    /// row's current age — the same sequence as the reference path's,
    /// however the rows are chunked — until it freezes. Returns whether
    /// any folded cap moved.
    fn fold_caps(&mut self) -> bool {
        let c = &mut self.cache;
        if c.unfrozen == 0 && !c.refold {
            return false;
        }
        let n = self.table.len();
        let nchunks = par_chunk_count(self.mode, n);
        let per = n.div_ceil(nchunks).max(1);
        c.workers_for(nchunks);
        let FlowTable {
            slot,
            done,
            started,
            cap_fn,
            frozen,
            own_cap,
            cap,
            fold_off,
            fold_links,
            ..
        } = &mut self.table;
        let pass = FoldPass {
            t: self.now,
            refold: std::mem::take(&mut c.refold),
            frozen,
            started,
            done,
            slot,
            fold_off,
            fold_links,
            eff_rate: &c.eff_rate,
            elem0: c.partition.flow_element(0),
        };
        let chunks = cap_fn
            .chunks_mut(per)
            .zip(own_cap.chunks_mut(per))
            .zip(cap.chunks_mut(per))
            .zip(c.workers.iter_mut())
            .enumerate();
        let mut changed = false;
        run_chunks(
            nchunks > 1,
            chunks,
            |(i, (((fns, own), caps), w))| pass.run(i * per, fns, own, caps, &mut w.seeds),
            |moved| changed |= moved,
        );
        for w in &c.workers[..nchunks] {
            c.seeds.extend_from_slice(&w.seeds);
        }
        changed
    }

    /// The incremental engine's allocation at the current instant,
    /// left in the table's `rate` column.
    ///
    /// Bit-identical to solving [`Network::scratch_problem`] by
    /// construction: every cached quantity is refreshed the moment it
    /// can differ from the scratch value (see the [`EngineCache`]
    /// invalidation rules), cached values are compared **bitwise**
    /// against fresh ones, and a component is re-solved unless every
    /// one of its solver inputs is bitwise unchanged since its rates
    /// were computed — in which case re-solving (a pure function) would
    /// reproduce them exactly.
    fn incremental_rates(&mut self) {
        let t = self.now;
        // Did any solver input change since the cached solution?
        let mut changed = false;
        let rebuilt = self.cache.links_dirty;
        let mut recomputed = rebuilt || self.cache.faults_fired;
        if rebuilt {
            // Rebuild the ascending in-use list from the refcounts.
            self.cache.links_dirty = false;
            let c = &mut self.cache;
            c.in_use.clear();
            c.in_use
                .extend((0..c.link_refs.len() as u32).filter(|&l| c.link_refs[l as usize] > 0));
            for k in 0..self.cache.in_use.len() {
                let l = self.cache.in_use[k] as usize;
                if t >= self.cache.rate_until[l] {
                    self.refresh_link_rate(l);
                } else if self.cache.rate_until[l] != SimTime::MAX {
                    // The heap entry for this still-valid segment may
                    // have been discarded while the link was out of
                    // use; re-arm (duplicates are harmless).
                    self.cache
                        .change_heap
                        .push(Reverse((self.cache.rate_until[l], l as u32)));
                }
            }
        } else {
            // Refresh exactly the links whose cached segment expired.
            while let Some(&Reverse((at, l))) = self.cache.change_heap.peek() {
                if at > t {
                    break;
                }
                self.cache.change_heap.pop();
                let lu = l as usize;
                if self.cache.link_refs[lu] == 0 || self.cache.rate_until[lu] != at {
                    continue; // stale entry
                }
                self.refresh_link_rate(lu);
                changed |= self.update_eff_rate(lu);
                recomputed = true;
            }
        }
        if rebuilt || self.cache.faults_fired {
            // Fault factors may have moved under any in-use link (and a
            // rebuilt in-use list has newly used links). The factor is a
            // few array loads, so re-derive wholesale.
            for k in 0..self.cache.in_use.len() {
                let l = self.cache.in_use[k] as usize;
                changed |= self.update_eff_rate(l);
            }
        }
        self.cache.faults_fired = false;
        if recomputed {
            // The solver's input contract, checked where the reference
            // engine checks it: every in-use capacity first, then flow
            // caps (as they are folded below).
            let c = &self.cache;
            for &l in &c.in_use {
                let e = c.eff_rate[l as usize];
                if c.is_capacity[l as usize] {
                    assert!(e >= 0.0 && !e.is_nan(), "bad link capacity {e}");
                }
            }
        }

        // Folded per-flow caps: caps may depend on flow age and
        // progress, both of which advance each step, until the cap
        // reports it is constant.
        changed |= self.fold_caps();

        if self.cache.have_solution && !changed {
            // Provably nothing the solver sees moved (e.g. a PerFlow
            // link's process change that left every folded cap
            // bitwise identical): reuse the allocation.
            debug_assert!(self.cache.seeds.is_empty());
            self.stats.incremental_solves += 1;
            if let Some(tel) = &self.telemetry {
                tel.metrics.counter("simnet_solve_skips", vec![]).inc();
            }
            return;
        }

        let nf = self.table.len();
        let c = &self.cache;
        let all_finite = c
            .in_use
            .iter()
            .all(|&l| !c.is_capacity[l as usize] || c.eff_rate[l as usize].is_finite());
        if !all_finite {
            // Degenerate: an in-use Capacity link with an infinite
            // effective rate. The solver drops such links from the
            // problem entirely (they cannot saturate), which also
            // changes the component structure, so take the generic path
            // — the exact arithmetic the reference engine runs — and
            // re-solve every component once rates are finite again.
            self.solve_generic();
            self.note_full_solve(nf);
            self.cache.seeds.clear();
            self.cache.all_dirty = true;
            self.cache.have_solution = true;
            return;
        }

        // Partition upkeep: arrivals and leaf departures were folded in
        // incrementally; any other departure marked the union–find dirty
        // and is repaired here with one rebuild over the live membership.
        if self.cache.partition.is_dirty() {
            let table = &self.table;
            let part = &mut self.cache.partition;
            part.begin_rebuild();
            for k in 0..table.len() {
                part.rebuild_flow(table.slot[k], table.cap_links_of(k).iter().copied());
            }
            if let Some(tel) = &self.telemetry {
                tel.metrics
                    .counter("simnet_partition_rebuilds", vec![])
                    .inc();
                tel.tracer.record(Event::new(
                    EventKind::PartitionRebuild,
                    t.as_micros(),
                    nf as u64,
                ));
            }
        }
        let ncomp = self.cache.partition.components();
        self.stats.component_solves += ncomp as u64;
        self.collect_dirty_components();
        self.solve_dirty_components();
        self.note_full_solve(nf);
        self.cache.have_solution = true;
        if let Some(tel) = &self.telemetry {
            tel.metrics
                .counter("simnet_component_solves", vec![])
                .add(ncomp as u64);
        }
    }

    /// Solves the whole problem with [`max_min_rates`] from the cached
    /// effective rates and folded caps (the non-finite-capacity path).
    fn solve_generic(&mut self) {
        let c = &self.cache;
        let table = &self.table;
        let mut slot = vec![usize::MAX; c.is_capacity.len()];
        for (s, &l) in c.in_use.iter().enumerate() {
            slot[l as usize] = s;
        }
        let caps: Vec<f64> = c
            .in_use
            .iter()
            .map(|&l| {
                if c.is_capacity[l as usize] {
                    c.eff_rate[l as usize]
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        let flows: Vec<AllocFlow> = (0..table.len())
            .map(|k| {
                let links = table.cap_links_of(k).iter().chain(table.fold_links_of(k));
                AllocFlow {
                    links: links.map(|&l| slot[l as usize]).collect(),
                    cap: table.cap[k],
                }
            })
            .collect();
        let rates = max_min_rates(&caps, &flows);
        self.table.rate.copy_from_slice(&rates);
    }

    /// Turns the seeds into the list of components to re-solve: each
    /// seeded set holding live flows, its flows as ascending table rows
    /// and its links ascending.
    fn collect_dirty_components(&mut self) {
        let table = &self.table;
        let EngineCache {
            partition,
            slot_owner,
            seeds,
            all_dirty,
            roots,
            root_mark,
            comp_ids,
            comps,
            ..
        } = &mut self.cache;
        if std::mem::take(all_dirty) {
            seeds.clear();
            let elem0 = partition.flow_element(0);
            seeds.extend(table.slot.iter().map(|&s| elem0 + s));
        }
        root_mark.resize(partition.elements(), false);
        roots.clear();
        for &e in seeds.iter() {
            let r = partition.find(e);
            if partition.live_flows(r) > 0 && !root_mark[r as usize] {
                root_mark[r as usize] = true;
                roots.push(r);
            }
        }
        seeds.clear();
        comps.flows.clear();
        comps.flow_starts.clear();
        comps.flow_starts.push(0);
        comps.links.clear();
        comps.link_starts.clear();
        comps.link_starts.push(0);
        let n_links = partition.flow_element(0);
        for &r in roots.iter() {
            root_mark[r as usize] = false;
            comp_ids.clear();
            let l0 = comps.links.len();
            partition.members(r, |m| {
                if m < n_links {
                    comps.links.push(m);
                } else {
                    comp_ids.push(slot_owner[(m - n_links) as usize]);
                }
            });
            comps.links[l0..].sort_unstable();
            comp_ids.sort_unstable();
            let mut k = 0;
            for &id in comp_ids.iter() {
                k = table.seek(k, id);
                comps.flows.push(k as u32);
            }
            comps.flow_starts.push(comps.flows.len() as u32);
            comps.link_starts.push(comps.links.len() as u32);
        }
    }

    /// Re-solves the collected components into the table's `rate`
    /// column — inline, or split over workers by the sharded engine.
    fn solve_dirty_components(&mut self) {
        let c = &mut self.cache;
        let ncomp = c.comps.count();
        if ncomp == 0 {
            return;
        }
        let nf = self.table.len();
        let nl = c.is_capacity.len();
        let dirty_flows = c.comps.flows.len();
        let nworkers = par_chunk_count(self.mode, dirty_flows).min(ncomp);
        c.workers_for(nworkers.max(1));
        let FlowTable {
            cap,
            rate,
            cap_off,
            cap_links,
            ..
        } = &mut self.table;
        let view = SlabView {
            link_cap: &c.eff_rate,
            flow_cap: cap,
            flow_off: cap_off,
            flow_links: cap_links,
        };
        let comps = &c.comps;
        if nworkers <= 1 {
            let w = &mut c.workers[0];
            w.resize(nf, nl);
            for i in 0..ncomp {
                solve_component_in(
                    view,
                    comps.comp_flows(i),
                    comps.comp_links(i),
                    &mut w.frozen,
                    &mut w.residual,
                    &mut w.active_on,
                    rate,
                );
            }
            return;
        }
        // Split components into ≤ nworkers contiguous ranges of roughly
        // equal total flows. Each worker solves its components on
        // private scratch; component flow sets are disjoint, so the
        // scatter below writes each row once.
        let ranges = split_component_ranges(comps, dirty_flows, nworkers);
        run_chunks(
            true,
            c.workers.iter_mut().zip(&ranges),
            |(w, &(r0, r1))| {
                w.resize(nf, nl);
                w.rate.resize(nf, 0.0);
                for i in r0..r1 {
                    solve_component_in(
                        view,
                        comps.comp_flows(i),
                        comps.comp_links(i),
                        &mut w.frozen,
                        &mut w.residual,
                        &mut w.active_on,
                        &mut w.rate,
                    );
                }
            },
            |()| {},
        );
        // Deterministic merge: scatter per-worker rates back in stable
        // component order (the loom model test permutes worker
        // completion order over this exact helper).
        let rate_slices: Vec<&[f64]> = c.workers[..ranges.len()]
            .iter()
            .map(|w| w.rate.as_slice())
            .collect();
        merge_component_rates(comps, &ranges, &rate_slices, rate);
    }

    /// Advances simulated time by **one boundary** — to the earliest of
    /// a link-rate change, a flow cap change, a flow completion, or
    /// `until` — and returns the completions that occurred exactly at
    /// the new time (simultaneous completions are ordered by flow id).
    fn advance_one_boundary(&mut self, until: SimTime) -> Vec<CompletedFlow> {
        debug_assert!(until >= self.now);
        self.stats.boundaries += 1;
        if let Some(tel) = &self.telemetry {
            tel.metrics.counter("simnet_boundaries", vec![]).inc();
        }
        self.apply_due_faults();
        self.compact_cancelled();
        if self.table.is_empty() {
            self.last_rates.clear();
            // Stop at the next fault event so its application time (and
            // telemetry timestamp) stays exact even while idle.
            self.now = match self.next_fault_time() {
                Some(t) if t < until => t,
                _ => until,
            };
            return Vec::new();
        }
        let ref_rates = match self.mode {
            EngineMode::Incremental | EngineMode::Sharded { .. } => {
                self.incremental_rates();
                None
            }
            EngineMode::Reference => {
                let (caps, alloc_flows) = self.scratch_problem();
                let rates = crate::fairshare::reference_rates(&caps, &alloc_flows);
                self.note_full_solve(self.table.len());
                // The cached per-component rates are now older than the
                // inputs; re-solve everything when the incremental
                // engine takes over again.
                self.cache.seeds.clear();
                self.cache.all_dirty = true;
                Some(rates)
            }
        };

        let t = self.now;
        let mut boundary = until;
        // Earliest upcoming link-rate change among in-use links.
        match ref_rates {
            None => {
                // The change heap's first *valid* entry is the earliest
                // cached segment end; stale entries (superseded
                // refreshes, out-of-use links) are discarded on the
                // way. Entries at or before `now` were consumed by the
                // allocation above.
                while let Some(&Reverse((at, l))) = self.cache.change_heap.peek() {
                    let lu = l as usize;
                    if self.cache.link_refs[lu] == 0 || self.cache.rate_until[lu] != at {
                        self.cache.change_heap.pop();
                        continue;
                    }
                    debug_assert!(at > t, "unconsumed due rate change");
                    boundary = boundary.min(at);
                    break;
                }
            }
            Some(_) => {
                let table = &self.table;
                let mut in_use: Vec<u32> = table
                    .cap_links
                    .iter()
                    .chain(&table.fold_links)
                    .copied()
                    .collect();
                in_use.sort_unstable();
                in_use.dedup();
                for l in in_use {
                    if let Some(ch) = self.procs[l as usize].next_change_after(t) {
                        boundary = boundary.min(ch);
                    }
                }
            }
        }

        // Per-flow boundary candidates: each flow's next cap change and
        // projected completion, with the rates recorded on the way.
        // Chunked for the sharded engine; `SimTime` minima are integer,
        // so folding per-chunk results in chunk order is exact regardless
        // of the split.
        let n = self.table.len();
        let nchunks = par_chunk_count(self.mode, n);
        let per = n.div_ceil(nchunks).max(1);
        self.cache.workers_for(nchunks);
        self.last_rates.resize(n, (FlowId(0), 0.0));
        {
            let FlowTable {
                id,
                done,
                total,
                started,
                cap_fn,
                frozen,
                rate,
                ..
            } = &mut self.table;
            let pass = ScanPass {
                t,
                until,
                query_all: ref_rates.is_some(),
                id,
                started,
                total,
                done,
                rates: ref_rates.as_deref().unwrap_or(rate),
            };
            let chunks = cap_fn
                .chunks_mut(per)
                .zip(frozen.chunks_mut(per))
                .zip(self.last_rates.chunks_mut(per))
                .enumerate();
            let mut froze = 0;
            run_chunks(
                nchunks > 1,
                chunks,
                |(i, ((fns, frz), out))| pass.run(i * per, fns, frz, out),
                |(b, f)| {
                    boundary = boundary.min(b);
                    froze += f;
                },
            );
            self.cache.unfrozen -= froze;
        }
        // A scheduled fault is a rate-change boundary like any other
        // (events at or before `now` were applied above, so any pending
        // one is strictly in the future).
        if let Some(fault_at) = self.next_fault_time() {
            boundary = boundary.min(fault_at);
        }
        // Guarantee progress even if a process reports a change at `now`
        // (should not happen; defensive).
        if boundary <= self.now {
            boundary = self.now + SimDuration::from_micros(1);
        }
        let dt = (boundary - self.now).as_secs_f64();

        // Integrate progress (chunked like the scan above) and collect
        // the rows completing at `boundary`, ascending. Completion side
        // effects — release, compaction, stats — then run sequentially
        // in flow order, identical to the sequential engines.
        {
            let FlowTable {
                done, total, rate, ..
            } = &mut self.table;
            let rates = ref_rates.as_deref().unwrap_or(rate);
            let chunks = done
                .chunks_mut(per)
                .zip(self.cache.workers.iter_mut())
                .enumerate();
            run_chunks(
                nchunks > 1,
                chunks,
                |(i, (d, w))| integrate_rows(i * per, d, total, rates, dt, &mut w.completed),
                |()| {},
            );
        }
        for w in &self.cache.workers[..nchunks] {
            self.gone.extend_from_slice(&w.completed);
        }
        let done = self.remove_gone(Some(boundary));
        self.now = boundary;
        if let Some(tel) = &self.telemetry {
            for c in &done {
                let dur = (c.finished - c.started).as_micros();
                tel.metrics.counter("simnet_flows_completed", vec![]).inc();
                tel.metrics
                    .histogram("simnet_flow_duration_us", vec![])
                    .record(dur);
                tel.tracer.record(
                    Event::span(EventKind::FlowComplete, c.started.as_micros(), dur, c.id.0)
                        .with_u64("bytes", c.bytes),
                );
            }
        }
        done
    }

    /// `(flow, rate)` pairs integrated over the most recent boundary
    /// step, in ascending flow order (empty before the first step or
    /// when the step found no active flows). The differential suite
    /// compares these bitwise across engine modes.
    pub fn last_boundary_rates(&self) -> &[(FlowId, f64)] {
        &self.last_rates
    }

    /// Advances simulated time by exactly one boundary, bounded by
    /// `until`, and returns the completions at the new time. A no-op
    /// when the clock is already at `until`. This is the
    /// boundary-by-boundary stepper the differential suite uses to
    /// compare engines mid-run; [`Network::advance_until`] is the
    /// normal driving loop.
    ///
    /// # Panics
    ///
    /// Panics if `until` is before the current time.
    pub fn step_boundary(&mut self, until: SimTime) -> Vec<CompletedFlow> {
        assert!(until >= self.now, "advance into the past");
        if self.now >= until {
            return Vec::new();
        }
        self.advance_one_boundary(until)
    }

    /// Advances simulated time to `until`, returning completions in
    /// order of occurrence.
    ///
    /// # Panics
    ///
    /// Panics if `until` is before the current time.
    pub fn advance_until(&mut self, until: SimTime) -> Vec<CompletedFlow> {
        assert!(until >= self.now, "advance into the past");
        let mut done = Vec::new();
        while self.now < until {
            done.extend(self.advance_one_boundary(until));
        }
        done
    }

    /// Advances until the given flow completes or `horizon` passes.
    /// Returns the completion record, or `None` on timeout or if the
    /// flow was cancelled. Time stops exactly at the completion instant.
    pub fn run_flow(&mut self, id: FlowId, horizon: SimTime) -> Option<CompletedFlow> {
        if let Some(c) = self.completion(id) {
            return Some(c);
        }
        while self.now < horizon {
            if !self.is_active(id) {
                return None; // cancelled
            }
            let completions = self.advance_one_boundary(horizon);
            if let Some(c) = completions.into_iter().find(|c| c.id == id) {
                return Some(c);
            }
        }
        self.completion(id)
    }

    /// Advances until **any** of `ids` completes or `horizon` passes.
    /// Returns the first completion among them (simultaneous completions
    /// resolve to the lowest flow id, deterministically). Time stops
    /// exactly at the winning completion instant, so the caller can
    /// cancel the losers at the moment the race is decided — the probe
    /// protocol in `ir-core` relies on this.
    pub fn run_until_first_of(
        &mut self,
        ids: &[FlowId],
        horizon: SimTime,
    ) -> Option<CompletedFlow> {
        // One of them may already be done.
        if let Some(c) = self.earliest_completion_of(ids) {
            return Some(c);
        }
        while self.now < horizon {
            if ids.iter().all(|&id| !self.is_active(id)) {
                return None;
            }
            let completions = self.advance_one_boundary(horizon);
            let mut hits: Vec<CompletedFlow> = completions
                .into_iter()
                .filter(|c| ids.contains(&c.id))
                .collect();
            if !hits.is_empty() {
                hits.sort_by_key(|c| (c.finished, c.id));
                return Some(hits[0]);
            }
        }
        None
    }

    fn earliest_completion_of(&self, ids: &[FlowId]) -> Option<CompletedFlow> {
        ids.iter()
            .filter_map(|&id| self.completion(id))
            .min_by_key(|c| (c.finished, c.id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth::{ConstantProcess, PiecewiseProcess};
    use crate::topology::{NodeKind, Topology};

    /// client --L0--> server, client --L1--> mid --L2--> server
    fn diamond(rates: [f64; 3]) -> (Network, Route, Route) {
        let mut t = Topology::new();
        let c = t.add_node("c", NodeKind::Client);
        let m = t.add_node("m", NodeKind::Intermediate);
        let s = t.add_node("s", NodeKind::Server);
        let l0 = t.add_link(c, s, SimDuration::from_millis(40));
        let l1 = t.add_link(c, m, SimDuration::from_millis(20));
        let l2 = t.add_link(m, s, SimDuration::from_millis(10));
        let direct = t.route(&[c, s]).unwrap();
        let indirect = t.route(&[c, m, s]).unwrap();
        let mut net = Network::new(t, 1e9);
        net.set_link_process(l0, Box::new(ConstantProcess::new(rates[0])));
        net.set_link_process(l1, Box::new(ConstantProcess::new(rates[1])));
        net.set_link_process(l2, Box::new(ConstantProcess::new(rates[2])));
        (net, direct, indirect)
    }

    #[test]
    fn single_flow_finishes_at_expected_time() {
        let (mut net, direct, _) = diamond([1000.0, 1.0, 1.0]);
        let id = net.start_flow(direct, 10_000, Box::new(NoCap));
        let c = net.run_flow(id, SimTime::from_secs(100)).unwrap();
        // 10k bytes at 1000 B/s = 10 s.
        assert!((c.finished.as_secs_f64() - 10.0).abs() < 1e-3);
        assert!((c.throughput() - 1000.0).abs() < 1.0);
    }

    #[test]
    fn indirect_flow_limited_by_min_link() {
        let (mut net, _, indirect) = diamond([1.0, 500.0, 2000.0]);
        let id = net.start_flow(indirect, 5_000, Box::new(NoCap));
        let c = net.run_flow(id, SimTime::from_secs(100)).unwrap();
        assert!((c.throughput() - 500.0).abs() < 1.0);
    }

    #[test]
    fn const_cap_binds() {
        let (mut net, direct, _) = diamond([1e6, 1.0, 1.0]);
        let id = net.start_flow(direct, 10_000, Box::new(ConstCap(100.0)));
        let c = net.run_flow(id, SimTime::from_secs(1000)).unwrap();
        assert!((c.throughput() - 100.0).abs() < 0.5);
    }

    #[test]
    fn concurrent_flows_share_access_link() {
        // Both routes leave the client; here we make them share L0 by
        // running two flows on the same direct route.
        let (mut net, direct, _) = diamond([1000.0, 1.0, 1.0]);
        let a = net.start_flow(direct.clone(), 10_000, Box::new(NoCap));
        let b = net.start_flow(direct, 10_000, Box::new(NoCap));
        let done = net.advance_until(SimTime::from_secs(25));
        assert_eq!(done.len(), 2);
        // Each got ~500 B/s → ~20 s.
        for c in &done {
            assert!((c.finished.as_secs_f64() - 20.0).abs() < 1e-2, "{c:?}");
        }
        assert!(net.completion(a).is_some());
        assert!(net.completion(b).is_some());
    }

    #[test]
    fn flow_speeds_up_when_competitor_finishes() {
        let (mut net, direct, _) = diamond([1000.0, 1.0, 1.0]);
        let _a = net.start_flow(direct.clone(), 5_000, Box::new(NoCap));
        let b = net.start_flow(direct, 10_000, Box::new(NoCap));
        // Shared till a finishes at t=10 (each 500 B/s, a needs 5000).
        // Then b has 5000 left at 1000 B/s → finishes at t=15.
        let c = net.run_flow(b, SimTime::from_secs(100)).unwrap();
        assert!((c.finished.as_secs_f64() - 15.0).abs() < 1e-2, "{c:?}");
    }

    #[test]
    fn piecewise_rate_change_mid_flow() {
        let (mut net, direct, _) = diamond([1.0, 1.0, 1.0]);
        // Override L0: 100 B/s for 10 s, then 900 B/s.
        let l0 = net
            .topology()
            .link_between(
                net.topology().node_by_name("c").unwrap(),
                net.topology().node_by_name("s").unwrap(),
            )
            .unwrap();
        net.set_link_process(
            l0,
            Box::new(PiecewiseProcess::new(vec![
                (SimTime::ZERO, 100.0),
                (SimTime::from_secs(10), 900.0),
            ])),
        );
        let id = net.start_flow(direct, 10_000, Box::new(NoCap));
        // 1000 bytes in first 10 s, then 9000 at 900 B/s → 10 more s.
        let c = net.run_flow(id, SimTime::from_secs(100)).unwrap();
        assert!((c.finished.as_secs_f64() - 20.0).abs() < 1e-2, "{c:?}");
    }

    #[test]
    fn run_until_first_of_picks_winner() {
        let (mut net, direct, indirect) = diamond([100.0, 1000.0, 2000.0]);
        let d = net.start_flow(direct, 10_000, Box::new(NoCap));
        let i = net.start_flow(indirect, 10_000, Box::new(NoCap));
        let first = net
            .run_until_first_of(&[d, i], SimTime::from_secs(1000))
            .unwrap();
        assert_eq!(first.id, i, "indirect should win the race");
        // Loser still active.
        assert!(net.is_active(d));
    }

    #[test]
    fn cancel_stops_progress() {
        let (mut net, direct, _) = diamond([1000.0, 1.0, 1.0]);
        let id = net.start_flow(direct, 1_000_000, Box::new(NoCap));
        net.advance_until(SimTime::from_secs(5));
        let p = net.flow_progress(id);
        net.cancel_flow(id);
        net.advance_until(SimTime::from_secs(50));
        assert_eq!(net.flow_progress(id), p);
        assert!(net.completion(id).is_none());
        assert!(!net.is_active(id));
    }

    #[test]
    fn cancelled_flow_releases_bandwidth() {
        let (mut net, direct, _) = diamond([1000.0, 1.0, 1.0]);
        let a = net.start_flow(direct.clone(), 100_000, Box::new(NoCap));
        let b = net.start_flow(direct, 10_000, Box::new(NoCap));
        net.advance_until(SimTime::from_secs(2)); // each at 500 B/s, b has 1000 done
        net.cancel_flow(a);
        let c = net.run_flow(b, SimTime::from_secs(100)).unwrap();
        // b: 1000 done at t=2, 9000 left at 1000 B/s → t=11.
        assert!((c.finished.as_secs_f64() - 11.0).abs() < 1e-2, "{c:?}");
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let (mut net, direct, _) = diamond([1000.0, 1.0, 1.0]);
        let id = net.start_flow(direct, 0, Box::new(NoCap));
        let c = net.completion(id).unwrap();
        assert_eq!(c.finished, SimTime::ZERO);
        assert!(c.throughput().is_infinite());
    }

    #[test]
    fn clone_replays_identically() {
        use crate::bandwidth::RegimeSwitchingProcess;
        let (mut net, direct, _) = diamond([1.0, 1.0, 1.0]);
        let l0 = LinkId(0);
        net.set_link_process(
            l0,
            Box::new(RegimeSwitchingProcess::new(
                vec![500.0, 5000.0],
                SimDuration::from_secs(7),
                0.3,
                99,
            )),
        );
        let mut replica = net.clone();
        let a = net.start_flow(direct.clone(), 50_000, Box::new(NoCap));
        let b = replica.start_flow(direct, 50_000, Box::new(NoCap));
        let ca = net.run_flow(a, SimTime::from_secs(10_000)).unwrap();
        let cb = replica.run_flow(b, SimTime::from_secs(10_000)).unwrap();
        assert_eq!(ca.finished, cb.finished);
    }

    #[test]
    fn advance_past_horizon_panics() {
        let (mut net, _, _) = diamond([1.0, 1.0, 1.0]);
        net.advance_until(SimTime::from_secs(5));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            net.advance_until(SimTime::from_secs(1));
        }));
        assert!(r.is_err());
    }

    #[test]
    fn per_flow_links_do_not_couple_flows() {
        use crate::topology::Sharing;
        let mut t = Topology::new();
        let c = t.add_node("c", NodeKind::Client);
        let s = t.add_node("s", NodeKind::Server);
        let l = t.add_link_shared(c, s, SimDuration::from_millis(10), Sharing::PerFlow);
        let route = t.route(&[c, s]).unwrap();
        let mut net = Network::new(t, 1.0);
        net.set_link_process(l, Box::new(ConstantProcess::new(1000.0)));
        // Two concurrent flows EACH get the full 1000 B/s.
        let a = net.start_flow(route.clone(), 10_000, Box::new(NoCap));
        let b = net.start_flow(route, 10_000, Box::new(NoCap));
        let done = net.advance_until(SimTime::from_secs(30));
        assert_eq!(done.len(), 2);
        for cfl in &done {
            assert!(
                (cfl.finished.as_secs_f64() - 10.0).abs() < 1e-2,
                "{cfl:?} should finish at ~10s (uncoupled)"
            );
        }
        let _ = (a, b);
    }

    #[test]
    fn capacity_and_per_flow_links_compose_on_one_route() {
        use crate::topology::Sharing;
        let mut t = Topology::new();
        let c = t.add_node("c", NodeKind::Client);
        let m = t.add_node("m", NodeKind::Intermediate);
        let s = t.add_node("s", NodeKind::Server);
        // Access link: hard capacity 1000. Wide link: per-flow 800.
        let acc = t.add_link(c, m, SimDuration::from_millis(1));
        let wide = t.add_link_shared(m, s, SimDuration::from_millis(10), Sharing::PerFlow);
        let route = t.route(&[c, m, s]).unwrap();
        let mut net = Network::new(t, 1.0);
        net.set_link_process(acc, Box::new(ConstantProcess::new(1000.0)));
        net.set_link_process(wide, Box::new(ConstantProcess::new(800.0)));
        // Two flows: each capped at 800 by the wide link, but the access
        // capacity of 1000 is shared → 500 each.
        net.start_flow(route.clone(), 5_000, Box::new(NoCap));
        net.start_flow(route, 5_000, Box::new(NoCap));
        let done = net.advance_until(SimTime::from_secs(30));
        assert_eq!(done.len(), 2);
        for cfl in &done {
            assert!(
                (cfl.finished.as_secs_f64() - 10.0).abs() < 1e-2,
                "{cfl:?} should finish at ~10s (500 B/s each)"
            );
        }
    }

    #[test]
    fn engine_stats_count_lifecycle() {
        let (mut net, direct, _) = diamond([1000.0, 1.0, 1.0]);
        assert_eq!(net.stats(), EngineStats::default());
        let a = net.start_flow(direct.clone(), 5_000, Box::new(NoCap));
        let b = net.start_flow(direct, 1_000_000, Box::new(NoCap));
        net.run_flow(a, SimTime::from_secs(100));
        net.cancel_flow(b);
        let st = net.stats();
        assert_eq!(st.flows_started, 2);
        assert_eq!(st.flows_completed, 1);
        assert_eq!(st.flows_cancelled, 1);
        assert!(st.boundaries >= 1);
    }

    #[test]
    fn telemetry_observes_without_changing_results() {
        let (mut plain, direct_p, _) = diamond([1000.0, 1.0, 1.0]);
        let (mut traced, direct_t, _) = diamond([1000.0, 1.0, 1.0]);
        let tel = Arc::new(Telemetry::new());
        traced.set_telemetry(Some(tel.clone()));

        let a = plain.start_flow(direct_p.clone(), 10_000, Box::new(NoCap));
        let b = traced.start_flow(direct_t.clone(), 10_000, Box::new(NoCap));
        let ca = plain.run_flow(a, SimTime::from_secs(100)).unwrap();
        let cb = traced.run_flow(b, SimTime::from_secs(100)).unwrap();
        assert_eq!(ca.finished, cb.finished, "telemetry changed the sim");

        let x = traced.start_flow(direct_t, 1_000_000, Box::new(NoCap));
        traced.cancel_flow(x);

        let snap = tel.metrics.snapshot();
        assert_eq!(snap.counter("simnet_flows_started", &vec![]), Some(2));
        assert_eq!(snap.counter("simnet_flows_completed", &vec![]), Some(1));
        assert_eq!(snap.counter("simnet_flows_cancelled", &vec![]), Some(1));
        let kinds: Vec<EventKind> = tel.tracer.snapshot().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::FlowStart));
        assert!(kinds.contains(&EventKind::FlowComplete));
        assert!(kinds.contains(&EventKind::FlowCancel));
        assert!(kinds.contains(&EventKind::FairShareRecompute));
    }

    #[test]
    fn clones_inherit_the_telemetry_handle() {
        let (mut net, direct, _) = diamond([1000.0, 1.0, 1.0]);
        let tel = Arc::new(Telemetry::new());
        net.set_telemetry(Some(tel.clone()));
        let mut replica = net.clone();
        replica.start_flow(direct, 100, Box::new(NoCap));
        assert_eq!(
            tel.metrics
                .snapshot()
                .counter("simnet_flows_started", &vec![]),
            Some(1),
            "replica reports into the shared registry"
        );
    }

    #[test]
    fn link_outage_stalls_and_recovery_resumes() {
        let (mut net, direct, _) = diamond([1000.0, 1.0, 1.0]);
        // Outage of the direct link over [5s, 15s): 10 s of dead air.
        let plan =
            FaultPlan::none().link_outage(LinkId(0), SimTime::from_secs(5), SimTime::from_secs(15));
        net.set_fault_plan(&plan);
        let id = net.start_flow(direct, 10_000, Box::new(NoCap));
        // 5 s at 1000 B/s, 10 s stalled, 5 s to finish → t = 20 s.
        let c = net.run_flow(id, SimTime::from_secs(100)).unwrap();
        assert!((c.finished.as_secs_f64() - 20.0).abs() < 1e-2, "{c:?}");
        assert_eq!(net.fault_events_pending(), 0);
    }

    #[test]
    fn brownout_scales_rate() {
        let (mut net, direct, _) = diamond([1000.0, 1.0, 1.0]);
        // Half rate over [0s, 10s): 5000 bytes done by t=10, rest at
        // full rate → t = 15 s.
        let plan = FaultPlan::none().brownout(
            LinkId(0),
            SimTime::from_micros(1),
            SimTime::from_secs(10),
            0.5,
        );
        net.set_fault_plan(&plan);
        let id = net.start_flow(direct, 10_000, Box::new(NoCap));
        let c = net.run_flow(id, SimTime::from_secs(100)).unwrap();
        assert!((c.finished.as_secs_f64() - 15.0).abs() < 1e-2, "{c:?}");
    }

    #[test]
    fn node_outage_kills_both_hops() {
        let (mut net, _, indirect) = diamond([1.0, 1000.0, 2000.0]);
        let mid = net.topology().node_by_name("m").unwrap();
        let plan =
            FaultPlan::none().node_outage(mid, SimTime::from_secs(2), SimTime::from_secs(100));
        net.set_fault_plan(&plan);
        let id = net.start_flow(indirect, 1_000_000, Box::new(NoCap));
        net.advance_until(SimTime::from_secs(50));
        let p = net.flow_progress(id);
        assert!(p < 5_000, "crashed relay should stop the flow, got {p}");
        assert!(net.link_is_down(LinkId(1)));
        assert!(net.link_is_down(LinkId(2)));
        assert!(!net.link_is_down(LinkId(0)));
        assert_eq!(net.effective_link_rate_now(LinkId(1)), 0.0);
    }

    #[test]
    fn empty_plan_is_a_true_noop() {
        let (mut plain, direct_p, _) = diamond([1000.0, 1.0, 1.0]);
        let (mut nulled, direct_n, _) = diamond([1000.0, 1.0, 1.0]);
        nulled.set_fault_plan(&FaultPlan::none());
        let a = plain.start_flow(direct_p, 10_000, Box::new(NoCap));
        let b = nulled.start_flow(direct_n, 10_000, Box::new(NoCap));
        let ca = plain.run_flow(a, SimTime::from_secs(100)).unwrap();
        let cb = nulled.run_flow(b, SimTime::from_secs(100)).unwrap();
        assert_eq!(ca.finished, cb.finished);
        assert_eq!(plain.stats(), nulled.stats(), "even boundary counts match");
    }

    #[test]
    fn faulted_clone_replays_identically() {
        let (mut net, direct, _) = diamond([1000.0, 1.0, 1.0]);
        let plan = FaultPlan::none()
            .link_outage(LinkId(0), SimTime::from_secs(3), SimTime::from_secs(9))
            .brownout(
                LinkId(0),
                SimTime::from_secs(12),
                SimTime::from_secs(14),
                0.25,
            );
        net.set_fault_plan(&plan);
        let mut replica = net.clone();
        let a = net.start_flow(direct.clone(), 20_000, Box::new(NoCap));
        let b = replica.start_flow(direct, 20_000, Box::new(NoCap));
        let ca = net.run_flow(a, SimTime::from_secs(1000)).unwrap();
        let cb = replica.run_flow(b, SimTime::from_secs(1000)).unwrap();
        assert_eq!(ca.finished, cb.finished);
    }

    #[test]
    fn fault_telemetry_reports_scheduled_times() {
        let (mut net, direct, _) = diamond([1000.0, 1.0, 1.0]);
        let tel = Arc::new(Telemetry::new());
        net.set_telemetry(Some(tel.clone()));
        let plan =
            FaultPlan::none().link_outage(LinkId(0), SimTime::from_secs(2), SimTime::from_secs(4));
        net.set_fault_plan(&plan);
        let id = net.start_flow(direct, 8_000, Box::new(NoCap));
        net.run_flow(id, SimTime::from_secs(100));
        let faults: Vec<_> = tel
            .tracer
            .snapshot()
            .into_iter()
            .filter(|e| e.kind == EventKind::FaultInjected)
            .collect();
        assert_eq!(faults.len(), 2);
        assert_eq!(faults[0].ts_us, SimTime::from_secs(2).as_micros());
        assert_eq!(faults[1].ts_us, SimTime::from_secs(4).as_micros());
        assert_eq!(
            tel.metrics
                .snapshot()
                .counter("simnet_faults_injected", &vec![]),
            Some(2)
        );
    }

    #[test]
    fn idle_network_still_applies_faults_on_time() {
        let (mut net, _, _) = diamond([1000.0, 1.0, 1.0]);
        let plan =
            FaultPlan::none().link_outage(LinkId(0), SimTime::from_secs(5), SimTime::from_secs(50));
        net.set_fault_plan(&plan);
        // No flows at all; advance across both events.
        net.advance_until(SimTime::from_secs(10));
        assert!(net.link_is_down(LinkId(0)));
        net.advance_until(SimTime::from_secs(60));
        assert!(!net.link_is_down(LinkId(0)));
        assert_eq!(net.fault_events_pending(), 0);
    }

    #[test]
    fn allocation_accessor_reflects_faults() {
        let (mut net, direct, _) = diamond([1000.0, 1.0, 1.0]);
        let plan =
            FaultPlan::none().link_outage(LinkId(0), SimTime::from_secs(1), SimTime::from_secs(2));
        net.set_fault_plan(&plan);
        let id = net.start_flow(direct, 1_000_000, Box::new(NoCap));
        let alloc = net.active_flow_allocation();
        assert_eq!(alloc.len(), 1);
        assert_eq!(alloc[0].0, id);
        assert!((alloc[0].2 - 1000.0).abs() < 1e-9, "pre-outage full rate");
        net.advance_until(SimTime::from_millis(1500));
        let alloc = net.active_flow_allocation();
        assert_eq!(alloc[0].2, 0.0, "rate must drop to zero during outage");
    }

    #[test]
    fn run_flow_times_out_on_stalled_link() {
        let (mut net, direct, _) = diamond([crate::bandwidth::MIN_RATE, 1.0, 1.0]);
        let id = net.start_flow(direct, u32::MAX as u64, Box::new(NoCap));
        let r = net.run_flow(id, SimTime::from_secs(60));
        assert!(r.is_none());
        assert_eq!(net.now(), SimTime::from_secs(60));
    }
}
