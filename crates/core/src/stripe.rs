//! The striped remainder phase of [`SessionMode::Striped`].
//!
//! mHTTP-style multi-source striping: instead of winner-take-all, the
//! remaining `n − x` bytes are partitioned into chunks fetched
//! concurrently over the direct path plus the (at most `k`) indirect
//! candidates, with per-path EWMA rate tracking, straggler stealing on
//! rate drift, and per-chunk reassignment on stalls and path death —
//! the per-chunk generalization of the racing remainder's stall→re-race
//! failover. The session runner
//! ([`run_paths_session_stats`](crate::session::run_paths_session_stats))
//! runs control, probe race and epilogue for every mode; only the
//! remainder dispatches here. With one chunk and `k = 1` the record is
//! bit-identical to [`SessionMode::Racing`] on a healthy network
//! (pinned by `tests/differential.rs`).
//!
//! [`SessionMode::Striped`]: crate::session::SessionMode::Striped
//! [`SessionMode::Racing`]: crate::session::SessionMode::Racing

use crate::path::PathSpec;
use crate::predictor::Predictor;
use crate::session::{RebalanceConfig, RemainderOutcome, SessionConfig};
use crate::transport::{Handle, RaceWin, Timing, Transport};
use ir_simnet::time::SimTime;
use ir_telemetry::trace::{Event, EventKind};
use ir_telemetry::Telemetry;
use std::collections::VecDeque;

/// One contiguous byte range of the transfer, identified by its
/// position in the original partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkRange {
    /// Index in the original partition (stable across rebalancing — a
    /// reassigned remainder keeps its chunk id).
    pub id: u32,
    /// Absolute offset of the first byte.
    pub offset: u64,
    /// Length in bytes (> 0 for every chunk `partition` emits).
    pub len: u64,
}

impl ChunkRange {
    /// One past the last byte.
    pub fn end(&self) -> u64 {
        self.offset + self.len
    }
}

/// Splits `[start, start + total)` into at most `chunks` contiguous,
/// disjoint, non-empty ranges covering it exactly. Fewer chunks come
/// back when `total < chunks` (every chunk carries at least one byte);
/// `total == 0` yields no chunks. Earlier chunks absorb the remainder,
/// so sizes differ by at most one byte.
pub fn partition(start: u64, total: u64, chunks: u32) -> Vec<ChunkRange> {
    let n = u64::from(chunks.max(1)).min(total);
    let mut out = Vec::with_capacity(n as usize);
    let base = total.checked_div(n).unwrap_or(0);
    let extra = total.checked_rem(n).unwrap_or(0);
    let mut offset = start;
    for id in 0..n {
        let len = base + u64::from(id < extra);
        out.push(ChunkRange {
            id: id as u32,
            offset,
            len,
        });
        offset += len;
    }
    out
}

/// An exponentially-weighted moving average over observed per-chunk
/// throughputs. A rate of zero means "no estimate yet": the first
/// finite positive observation is adopted wholesale rather than blended
/// against nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EwmaRate {
    alpha: f64,
    rate: f64,
}

impl EwmaRate {
    /// A tracker with no estimate yet.
    pub fn new(alpha: f64) -> EwmaRate {
        EwmaRate { alpha, rate: 0.0 }
    }

    /// A tracker seeded with an initial estimate (e.g. the probe rate).
    /// Non-finite or negative seeds collapse to "no estimate".
    pub fn seeded(alpha: f64, rate: f64) -> EwmaRate {
        let mut e = EwmaRate::new(alpha);
        if rate.is_finite() && rate > 0.0 {
            e.rate = rate;
        }
        e
    }

    /// Folds one observed throughput into the estimate. Non-finite or
    /// negative observations are ignored (a cancelled flow measures
    /// nothing); an observed zero is blended in — sustained silence
    /// should drag the estimate down, not freeze it.
    pub fn observe(&mut self, observed: f64) {
        if !observed.is_finite() || observed < 0.0 {
            return;
        }
        if self.rate > 0.0 {
            self.rate = self.alpha * observed + (1.0 - self.alpha) * self.rate;
        } else {
            self.rate = observed;
        }
    }

    /// Current estimate in bytes/sec (zero while unseeded).
    pub fn get(&self) -> f64 {
        self.rate
    }
}

/// A chunk's remaining bytes are reassigned at most this many times
/// (stall, death, or drift-steal); past the cap the current owner keeps
/// it. Bounds rebalancing churn without bounding progress: the cap
/// only ever pins a chunk to a live, progressing path.
pub const MAX_CHUNK_REASSIGNS: u32 = 4;

/// Per-path chunk accounting for one striped session.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStripeStats {
    /// The path.
    pub path: PathSpec,
    /// Chunks this path completed.
    pub chunks: u64,
    /// Remainder bytes this path delivered (completed chunks plus the
    /// partial prefixes credited when a chunk was reassigned away).
    pub bytes: u64,
}

/// Scheduler accounting for one striped session — the chunk-assignment
/// observability the `striping` artefact's canary pins.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StripeStats {
    /// Per-path accounting over the session's path roster (direct
    /// first, then the striped candidates, probe order). Empty for
    /// sessions that never reached a striped remainder phase (racing
    /// mode, direct-only, probe timeout).
    pub per_path: Vec<PathStripeStats>,
    /// Chunk reassignments performed (stall + drift combined).
    pub reassignments: u32,
    /// Paths declared dead mid-remainder.
    pub deaths: u32,
}

/// What the striper needs from the probe race beyond the decision,
/// and racing throws away: the winner's roster index, an initial rate
/// estimate per path, and which paths still hold a warm connection.
/// Only striped sessions build one.
pub(crate) struct StripeSeed {
    winner: usize,
    rates: Vec<f64>,
    warm: Vec<bool>,
}

impl StripeSeed {
    /// After a first-to-finish race: the winner's probe rate, and each
    /// loser's bytes so far over the race time (every probe started
    /// with the winner). `progress` is a read-only observation, so
    /// seeding cannot perturb the simulation; the caller cancels the
    /// losers afterwards.
    pub(crate) fn raced(
        transport: &dyn Transport,
        handles: &[Handle],
        win: &RaceWin,
    ) -> StripeSeed {
        let mut rates = vec![0.0; handles.len()];
        let mut warm = vec![false; handles.len()];
        rates[win.index] = win.timing.throughput();
        warm[win.index] = true;
        let dt = (transport.now() - win.timing.started).as_secs_f64();
        if dt > 0.0 {
            for (i, &h) in handles.iter().enumerate() {
                if i != win.index {
                    rates[i] = transport.progress(h) as f64 / dt;
                }
            }
        }
        StripeSeed {
            winner: win.index,
            rates,
            warm,
        }
    }

    /// After a measure-all race: every finished probe seeds its path's
    /// rate and stays warm.
    pub(crate) fn measured(
        paths: &[PathSpec],
        winner: PathSpec,
        timings: &[Option<Timing>],
    ) -> StripeSeed {
        StripeSeed {
            winner: paths
                .iter()
                .position(|p| *p == winner)
                .expect("winner in roster"),
            rates: timings
                .iter()
                .map(|t| t.as_ref().map(|t| t.throughput()).unwrap_or(0.0))
                .collect(),
            warm: timings.iter().map(|t| t.is_some()).collect(),
        }
    }
}

/// One chunk in flight on one path.
struct Flight {
    path: usize,
    chunk: ChunkRange,
    handle: Handle,
    /// Bytes observed delivered at the last sweep.
    seen: u64,
    /// When the flight launched (per-chunk rate denominator).
    launched: SimTime,
    /// Last instant the flight was seen to move (stall-death clock).
    last_progress_at: SimTime,
    /// Times this chunk's bytes have been reassigned so far.
    reassigns: u32,
}

/// Launches `chunk` on roster path `p`, consuming its warm connection
/// if one is available.
fn launch(
    transport: &mut dyn Transport,
    paths: &[PathSpec],
    warm: &mut [bool],
    flights: &mut Vec<Flight>,
    p: usize,
    chunk: ChunkRange,
    reassigns: u32,
) {
    let handle = if warm[p] {
        transport.begin_warm(&paths[p], chunk.len)
    } else {
        transport.begin(&paths[p], chunk.len)
    };
    warm[p] = false;
    let now = transport.now();
    flights.push(Flight {
        path: p,
        chunk,
        handle,
        seen: 0,
        launched: now,
        last_progress_at: now,
        reassigns,
    });
}

/// Alive paths with no flight, best EWMA estimate first (ties keep the
/// lower roster index — the direct path).
fn free_paths(rate: &[EwmaRate], alive: &[bool], flights: &[Flight]) -> Vec<usize> {
    let mut busy = vec![false; rate.len()];
    for f in flights {
        busy[f.path] = true;
    }
    let mut free: Vec<usize> = (0..rate.len()).filter(|&p| alive[p] && !busy[p]).collect();
    free.sort_by(|&a, &b| rate[b].get().total_cmp(&rate[a].get()).then(a.cmp(&b)));
    free
}

/// The striped remainder phase: partition, fan out, race completions,
/// rebalance on drift, reassign on stall-death. Returns the outcome in
/// the racing remainder's vocabulary — the selected path is the one
/// that delivered the most bytes — plus the chunk accounting.
#[allow(clippy::too_many_arguments)] // remainder tail shares the session's full parameter set
pub(crate) fn run_striped_remainder(
    transport: &mut dyn Transport,
    predictor: &mut dyn Predictor,
    paths: &[PathSpec],
    seed: StripeSeed,
    chunks: u32,
    rb: &RebalanceConfig,
    cfg: &SessionConfig,
    transfer_index: u64,
    tel: Option<&Telemetry>,
) -> (RemainderOutcome, StripeStats) {
    let total = cfg.file_bytes - cfg.probe_bytes;
    let started = transport.now();
    let deadline = started + cfg.horizon;
    let winner = seed.winner;
    let mut rate: Vec<EwmaRate> = seed
        .rates
        .iter()
        .map(|&r| EwmaRate::seeded(rb.alpha, r))
        .collect();
    let mut alive = vec![true; paths.len()];
    let mut warm = seed.warm;
    let mut stats = StripeStats {
        per_path: paths
            .iter()
            .map(|&path| PathStripeStats {
                path,
                chunks: 0,
                bytes: 0,
            })
            .collect(),
        reassignments: 0,
        deaths: 0,
    };
    let mut flights: Vec<Flight> = Vec::new();
    let mut pending: VecDeque<(ChunkRange, u32)> = partition(cfg.probe_bytes, total, chunks)
        .into_iter()
        .map(|c| (c, 0))
        .collect();
    let mut failovers = 0u32;
    let mut stall_ms = 0u64;

    // The first chunk rides the probe winner's warm connection (the
    // racing protocol's remainder request, §2.1); the rest fan out to
    // free paths, best initial estimate first.
    if let Some((c, r)) = pending.pop_front() {
        launch(transport, paths, &mut warm, &mut flights, winner, c, r);
    }
    for p in free_paths(&rate, &alive, &flights) {
        let Some((c, r)) = pending.pop_front() else {
            break;
        };
        launch(transport, paths, &mut warm, &mut flights, p, c, r);
    }

    let finished = loop {
        if flights.is_empty() {
            // An empty queue means every chunk was delivered; work left
            // with nothing in the air means every path is dead.
            break pending.is_empty();
        }
        let now = transport.now();
        if now >= deadline {
            break false;
        }
        let window = rb.stall_window.min(deadline - now);
        let handles: Vec<Handle> = flights.iter().map(|f| f.handle).collect();
        match transport.race(&handles, window) {
            Some(win) => {
                let f = flights.remove(win.index);
                let p = f.path;
                let observed = win.timing.throughput();
                rate[p].observe(observed);
                // Feed each realized chunk rate back, as racing does
                // for its single remainder flow.
                predictor.observe(&paths[p], observed);
                stats.per_path[p].chunks += 1;
                stats.per_path[p].bytes += f.chunk.len;
                warm[p] = true;
                if let Some(tel) = tel {
                    tel.metrics.counter("stripe_chunks_completed", vec![]).inc();
                }
                if let Some((c, r)) = pending.pop_front() {
                    launch(transport, paths, &mut warm, &mut flights, p, c, r);
                } else {
                    maybe_steal(
                        transport,
                        paths,
                        &mut rate,
                        &mut warm,
                        &mut flights,
                        &mut stats,
                        p,
                        rb,
                        transfer_index,
                        tel,
                    );
                }
            }
            None => {
                // Window expired with no completion: sweep for stalls.
                let now = transport.now();
                let mut dead: Vec<usize> = Vec::new();
                for (i, f) in flights.iter_mut().enumerate() {
                    let delivered = transport.progress(f.handle);
                    if delivered > f.seen {
                        f.seen = delivered;
                        f.last_progress_at = now;
                    } else if now - f.last_progress_at >= rb.stall_window {
                        dead.push(i);
                    }
                }
                for i in dead.into_iter().rev() {
                    let f = flights.remove(i);
                    let p = f.path;
                    alive[p] = false;
                    warm[p] = false;
                    stats.deaths += 1;
                    failovers += 1;
                    stall_ms += (now - f.last_progress_at).as_micros() / 1000;
                    transport.cancel(f.handle);
                    stats.per_path[p].bytes += f.seen;
                    if let Some(tel) = tel {
                        tel.metrics.counter("stripe_path_deaths", vec![]).inc();
                    }
                    let rest = f.chunk.len - f.seen;
                    if rest > 0 {
                        stats.reassignments += 1;
                        if let Some(tel) = tel {
                            tel.metrics
                                .counter("stripe_chunks_reassigned", vec![])
                                .inc();
                            tel.tracer.record(
                                Event::new(
                                    EventKind::ChunkReassigned,
                                    now.as_micros(),
                                    transfer_index,
                                )
                                .with_u64("chunk", u64::from(f.chunk.id))
                                .with_str("from", paths[p].to_string())
                                .with_str("reason", "stall")
                                .with_u64("remaining", rest),
                            );
                        }
                        pending.push_front((
                            ChunkRange {
                                id: f.chunk.id,
                                offset: f.chunk.offset + f.seen,
                                len: rest,
                            },
                            f.reassigns + 1,
                        ));
                    }
                }
                // Hand the reassigned remainders to the survivors.
                for p in free_paths(&rate, &alive, &flights) {
                    let Some((c, r)) = pending.pop_front() else {
                        break;
                    };
                    launch(transport, paths, &mut warm, &mut flights, p, c, r);
                }
            }
        }
    };

    let rate = if finished {
        let wall = (transport.now() - started).as_secs_f64();
        if wall > 0.0 {
            total as f64 / wall
        } else {
            f64::INFINITY
        }
    } else {
        for f in &flights {
            transport.cancel(f.handle);
        }
        if let Some(tel) = tel {
            tel.metrics.counter("session_abandoned", vec![]).inc();
        }
        f64::NAN
    };
    if let Some(tel) = tel {
        for s in stats.per_path.iter().filter(|s| s.chunks > 0) {
            tel.metrics
                .counter("stripe_path_chunks", vec![("path", s.path.to_string())])
                .add(s.chunks);
        }
    }
    let outcome = RemainderOutcome {
        path: paths[best_path(&stats.per_path, winner)],
        finished,
        rate,
        failovers,
        stall_ms,
        abandoned: !finished,
    };
    (outcome, stats)
}

/// The path that delivered the most remainder bytes; the probe winner
/// keeps ties (single-chunk sessions thus report the probe decision).
fn best_path(per_path: &[PathStripeStats], winner: usize) -> usize {
    let mut best = winner;
    for (p, s) in per_path.iter().enumerate() {
        if s.bytes > per_path[best].bytes {
            best = p;
        }
    }
    best
}

/// Drift rebalancing: free path `p` (just finished a chunk, queue
/// empty) steals the largest remaining chunk whose current owner's
/// observed rate has drifted `drift_ratio`× below `p`'s estimate. The
/// victim's estimate is dragged down to its observed rate first, so it
/// cannot immediately steal the chunk back.
#[allow(clippy::too_many_arguments)] // scheduler interior; shares the loop's working set
fn maybe_steal(
    transport: &mut dyn Transport,
    paths: &[PathSpec],
    rate: &mut [EwmaRate],
    warm: &mut [bool],
    flights: &mut Vec<Flight>,
    stats: &mut StripeStats,
    p: usize,
    rb: &RebalanceConfig,
    transfer_index: u64,
    tel: Option<&Telemetry>,
) {
    if rate[p].get() <= 0.0 {
        return;
    }
    let now = transport.now();
    let mut victim: Option<(usize, u64, f64)> = None; // (flight, remaining, observed)
    for (i, f) in flights.iter().enumerate() {
        if f.reassigns >= MAX_CHUNK_REASSIGNS {
            continue;
        }
        let delivered = transport.progress(f.handle);
        let remaining = f.chunk.len.saturating_sub(delivered);
        if remaining == 0 {
            continue;
        }
        let dt = (now - f.launched).as_secs_f64();
        // A flight that has moved is judged on its realized rate; one
        // that has not yet moved is judged on its path's estimate, so a
        // freshly-launched healthy flight is not stolen on a technicality.
        let observed = if delivered > 0 && dt > 0.0 {
            delivered as f64 / dt
        } else {
            rate[f.path].get()
        };
        if rate[p].get() > rb.drift_ratio * observed
            && victim.is_none_or(|(_, best_remaining, _)| remaining > best_remaining)
        {
            victim = Some((i, remaining, observed));
        }
    }
    let Some((i, remaining, observed)) = victim else {
        return;
    };
    let f = flights.remove(i);
    let delivered = f.chunk.len - remaining;
    transport.cancel(f.handle);
    warm[f.path] = false;
    stats.per_path[f.path].bytes += delivered;
    rate[f.path].observe(observed);
    stats.reassignments += 1;
    if let Some(tel) = tel {
        tel.metrics
            .counter("stripe_chunks_reassigned", vec![])
            .inc();
        tel.tracer.record(
            Event::new(EventKind::ChunkReassigned, now.as_micros(), transfer_index)
                .with_u64("chunk", u64::from(f.chunk.id))
                .with_str("from", paths[f.path].to_string())
                .with_str("reason", "drift")
                .with_u64("remaining", remaining),
        );
    }
    launch(
        transport,
        paths,
        warm,
        flights,
        p,
        ChunkRange {
            id: f.chunk.id,
            offset: f.chunk.offset + delivered,
            len: remaining,
        },
        f.reassigns + 1,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_range_exactly() {
        for (start, total, chunks) in [
            (0, 100, 4),
            (131072, 1_997_152, 8),
            (5, 7, 3),
            (0, 1, 9),
            (9, 10, 1),
        ] {
            let parts = partition(start, total, chunks);
            assert!(!parts.is_empty());
            assert!(parts.len() as u64 <= u64::from(chunks).min(total));
            assert_eq!(parts[0].offset, start);
            assert_eq!(parts.last().unwrap().end(), start + total);
            for w in parts.windows(2) {
                assert_eq!(w[0].end(), w[1].offset, "gap or overlap");
            }
            assert_eq!(parts.iter().map(|c| c.len).sum::<u64>(), total);
            // Near-equal: sizes differ by at most one byte.
            let min = parts.iter().map(|c| c.len).min().unwrap();
            let max = parts.iter().map(|c| c.len).max().unwrap();
            assert!(max - min <= 1, "{min}..{max}");
            // Ids are the partition order.
            for (i, c) in parts.iter().enumerate() {
                assert_eq!(c.id, i as u32);
                assert!(c.len > 0);
            }
        }
    }

    #[test]
    fn partition_degenerates_gracefully() {
        assert!(partition(10, 0, 4).is_empty());
        // More chunks than bytes: one single-byte chunk per byte.
        assert_eq!(partition(0, 3, 100).len(), 3);
        // chunks == 0 is treated as 1 (the mode validator rejects it
        // upstream; the planner still never divides by zero).
        assert_eq!(partition(0, 50, 0).len(), 1);
    }

    #[test]
    fn first_observation_is_adopted() {
        let mut e = EwmaRate::new(0.3);
        assert_eq!(e.get(), 0.0);
        e.observe(1000.0);
        assert_eq!(e.get(), 1000.0);
    }

    #[test]
    fn later_observations_blend() {
        let mut e = EwmaRate::seeded(0.25, 1000.0);
        e.observe(2000.0);
        assert!((e.get() - 1250.0).abs() < 1e-9);
        e.observe(0.0); // silence drags the estimate down
        assert!((e.get() - 937.5).abs() < 1e-9);
    }

    #[test]
    fn garbage_is_ignored() {
        let mut e = EwmaRate::seeded(0.5, 500.0);
        e.observe(f64::NAN);
        e.observe(f64::INFINITY);
        e.observe(-1.0);
        assert_eq!(e.get(), 500.0);
        assert_eq!(EwmaRate::seeded(0.5, f64::NAN).get(), 0.0);
        assert_eq!(EwmaRate::seeded(0.5, -3.0).get(), 0.0);
    }
}
