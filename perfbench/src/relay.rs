//! `relay-loopback`: the event-mode relay (`RelayConfig::new()`) in
//! front of one unshaped origin, loaded by one closed-loop client.
//!
//! Each fetch is the relay leg of the paper's protocol: a fresh
//! connection sends a `Range` probe for the first x bytes of an object,
//! then requests the remainder on the same keep-alive connection. Every
//! response is checked for status 206, its `Content-Range`, and every
//! body byte against `body_byte`; every socket operation has a timeout,
//! so a stalled relay shows up as a failed fetch, not a hung run.

use crate::trace::{self, Buffer};
use crate::{median, quantile, secs, Run};
use bytes::BytesMut;
use ir_http::{
    encode_request, encode_response, parse_response, via_proxy, ByteRange, ContentRange,
};
use ir_http::{Request, Response, StatusCode};
use ir_relay::{body_byte, wire, OriginConfig, OriginServer, Relay, RelayConfig, RelayMode};
use ir_telemetry::trace::EventKind;
use ir_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Small objects: the soak geometry (n = 12,000 B, x = 2,000 B).
const SMALL_N: u64 = 12_000;
const SMALL_X: u64 = 2_000;
/// Bulk objects: the paper's (n = 2 MB, x = 100 KB). The origin serves
/// one bulk object; small objects are seeded slices of it.
const BULK_N: u64 = 2 * 1024 * 1024;
const BULK_X: u64 = 100 * 1024;
/// Fetches per batch: this many small objects and one bulk object, in
/// seeded order. `run_s` is the median batch time. With two small
/// objects the bulk fetch takes about 44% of it (`bulk_share`), so a
/// slower splice path moves `run_s` about as much as a slower
/// per-request path does.
const BATCH_SMALL: usize = 2;
/// The client thinks for a seeded time in [0, THINK_SPAN) after each
/// fetch. The relay's and origin's accept loops poll on 5 ms sleeps and
/// the reactor ticks every 10 ms; random arrival times sample those
/// phases evenly, where back-to-back fetches would lock onto one phase
/// per run and make runs disagree.
const THINK_SPAN: Duration = Duration::from_millis(10);
/// Deadline for every connect, read and write.
const TIMEOUT: Duration = Duration::from_secs(5);
/// Origin + relay start-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 41;
/// The first connection of start-up `i` arrives `(i + u) / SETUP_REPS`
/// of this span after the start (u seeded in [0, 1), order shuffled):
/// the relay's accept loop polls on a 5 ms sleep, so arrivals spread
/// evenly over one period sample its phase evenly instead of by
/// scheduler luck.
const ARRIVAL_SPAN: Duration = Duration::from_millis(5);
/// Trace ring for the relay's own spans: far more than a run records.
const RELAY_TRACE_CAPACITY: usize = 1 << 20;

#[derive(Debug, Clone, Copy)]
enum Object {
    /// A 12,000-byte object starting at this offset of the content.
    Small(u64),
    Bulk,
}

impl Object {
    /// Inclusive byte ranges of the probe and the remainder.
    fn ranges(self) -> [(ByteRange, u64, u64); 2] {
        match self {
            Object::Small(o) => [
                (ByteRange::FromTo(o, o + SMALL_X - 1), o, o + SMALL_X - 1),
                (
                    ByteRange::FromTo(o + SMALL_X, o + SMALL_N - 1),
                    o + SMALL_X,
                    o + SMALL_N - 1,
                ),
            ],
            Object::Bulk => [
                (ByteRange::first(BULK_X), 0, BULK_X - 1),
                (ByteRange::from_offset(BULK_X), BULK_X, BULK_N - 1),
            ],
        }
    }
}

/// The seeded batches: `BATCH_SMALL` small objects at random offsets
/// plus one bulk object at a random position.
struct Mix(StdRng);

impl Mix {
    fn batch(&mut self) -> Vec<Object> {
        let mut batch: Vec<Object> = (0..BATCH_SMALL)
            .map(|_| Object::Small(self.0.gen_range(0..=BULK_N - SMALL_N)))
            .collect();
        let at = self.0.gen_range(0..=BATCH_SMALL);
        batch.insert(at, Object::Bulk);
        batch
    }
}

/// Client-side timings of one verified fetch.
struct Fetched {
    object: Object,
    /// Connect start → probe response head parsed.
    ttfb_s: f64,
    /// The whole two-request fetch.
    total_s: f64,
    /// Reading the remainder body.
    body_s: f64,
}

/// Heads and requests a traced run keeps for the codec timings.
#[derive(Default)]
struct Codec {
    requests: Vec<Request>,
    heads: Vec<Response>,
}

/// Runs `f` inside a span when the run is traced.
fn maybe_span<T>(traced: bool, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
    if traced {
        trace::span(name, id, f)
    } else {
        f()
    }
}

/// One request/response exchange on `conn`, verified byte for byte.
/// Returns when the head was parsed and how long the body read took.
fn exchange(
    conn: &mut TcpStream,
    origin: SocketAddr,
    (range, first, last): (ByteRange, u64, u64),
    traced: bool,
    id: u64,
    codec: &mut Codec,
) -> Result<(Instant, f64), String> {
    let req = via_proxy(&origin.ip().to_string(), origin.port(), "/object")
        .with_header("Range", range.to_string());
    maybe_span(traced, "relay.send", id, || wire::send_request(conn, &req))
        .map_err(|e| format!("send: {e}"))?;
    let (head, prefix) = maybe_span(traced, "relay.head_wait", id, || wire::read_head(conn))
        .map_err(|e| format!("head: {e}"))?;
    let head_at = Instant::now();
    if head.status != StatusCode::PARTIAL_CONTENT {
        return Err(format!("status {} for {range}", head.status.0));
    }
    let want = ContentRange::new(first, last, BULK_N);
    let got = head
        .headers
        .get("Content-Range")
        .ok_or("missing Content-Range")
        .and_then(|v| ContentRange::parse(v).map_err(|_| "bad Content-Range"))?;
    if got != want {
        return Err(format!("Content-Range {got:?}, expected {want:?}"));
    }
    let len = head
        .headers
        .content_length()
        .ok()
        .flatten()
        .ok_or("missing Content-Length")?;
    if len != want.len() {
        return Err(format!("Content-Length {len}, expected {}", want.len()));
    }
    let t = Instant::now();
    let body = maybe_span(traced, "relay.body", id, || {
        wire::read_body(conn, prefix, len)
    })
    .map_err(|e| format!("body: {e}"))?;
    let body_s = secs(t);
    if let Some(i) = (0..body.len()).find(|&i| body[i] != body_byte(first + i as u64)) {
        return Err(format!("corrupt byte at offset {}", first + i as u64));
    }
    if traced {
        codec.requests.push(req);
        codec.heads.push(head);
    }
    Ok((head_at, body_s))
}

/// Fetches one object: probe, then remainder on the same connection.
fn fetch(
    relay: SocketAddr,
    origin: SocketAddr,
    object: Object,
    traced: bool,
    id: u64,
    codec: &mut Codec,
) -> Result<Fetched, String> {
    let t0 = Instant::now();
    let mut conn = maybe_span(traced, "relay.connect", id, || {
        TcpStream::connect_timeout(&relay, TIMEOUT)
    })
    .map_err(|e| format!("connect: {e}"))?;
    conn.set_read_timeout(Some(TIMEOUT))
        .and_then(|_| conn.set_write_timeout(Some(TIMEOUT)))
        .and_then(|_| conn.set_nodelay(true))
        .map_err(|e| format!("socket options: {e}"))?;
    let [probe, rest] = object.ranges();
    let (head_at, _) = exchange(&mut conn, origin, probe, traced, id, codec)?;
    let (_, body_s) = exchange(&mut conn, origin, rest, traced, id, codec)?;
    Ok(Fetched {
        object,
        ttfb_s: head_at.duration_since(t0).as_secs_f64(),
        total_s: secs(t0),
        body_s,
    })
}

/// A running origin + relay pair.
struct Stack {
    origin: OriginServer,
    relay: Relay,
}

/// Starts origin and relay, waits `arrival`, then connects once.
/// Returns the pair with its set-up time: the start-up plus the time
/// the relay took to accept that connection (the wait is not counted).
fn start(cfg: RelayConfig, arrival: Duration) -> Result<(Stack, f64), String> {
    let t = Instant::now();
    let origin = OriginServer::start(OriginConfig::new(BULK_N)).map_err(|e| e.to_string())?;
    let relay = Relay::start(cfg).map_err(|e| e.to_string())?;
    let started_s = secs(t);
    std::thread::sleep(arrival);
    let t = Instant::now();
    let conn = TcpStream::connect_timeout(&relay.addr(), TIMEOUT).map_err(|e| e.to_string())?;
    while relay.lifecycle().accepted == 0 {
        if t.elapsed() > TIMEOUT {
            return Err("relay never accepted its first connection".into());
        }
        std::thread::sleep(Duration::from_micros(50));
    }
    let setup_s = started_s + secs(t);
    drop(conn);
    Ok((Stack { origin, relay }, setup_s))
}

/// A start-up that fails is one attempted operation that failed.
fn start_failed(run: &mut Run, e: String) {
    run.attempted += 1;
    run.failed += 1;
    run.fail(format!("start-up: {e}"));
}

/// Closed-loop batches until `budget` has passed (at least one batch).
struct Load {
    /// Fetch time per batch, think time excluded.
    batches: Vec<f64>,
    fetched: Vec<Fetched>,
    attempted: u64,
    errors: Vec<String>,
}

fn load(stack: &Stack, mix: &mut Mix, budget: Duration, traced: bool, codec: &mut Codec) -> Load {
    let mut out = Load {
        batches: Vec::new(),
        fetched: Vec::new(),
        attempted: 0,
        errors: Vec::new(),
    };
    let t0 = Instant::now();
    loop {
        let mut batch_s = 0.0;
        for object in mix.batch() {
            let id = out.attempted;
            out.attempted += 1;
            let t = Instant::now();
            match fetch(
                stack.relay.addr(),
                stack.origin.addr(),
                object,
                traced,
                id,
                codec,
            ) {
                Ok(f) => out.fetched.push(f),
                Err(e) => out.errors.push(format!("fetch {id} ({object:?}): {e}")),
            }
            batch_s += secs(t);
            std::thread::sleep(THINK_SPAN.mul_f64(mix.0.gen()));
        }
        out.batches.push(batch_s);
        if t0.elapsed() >= budget {
            return out;
        }
    }
}

/// Drains the relay; returns how many connections the drain had to
/// sever at its deadline. A forced connection loses no fetch (every
/// fetch was verified before), so it is reported as `drain_forced`,
/// not counted in `failed`.
fn stop(mut stack: Stack) -> u64 {
    stack.relay.drain(TIMEOUT).forced
}

/// Records the load's end-to-end figures and failures.
fn account(run: &mut Run, load: &Load) {
    run.attempted += load.attempted;
    run.failed += load.errors.len() as u64;
    for e in load.errors.iter().take(10) {
        run.fail(e.clone());
    }
    let ms = |xs: Vec<f64>| xs.into_iter().map(|s| s * 1e3).collect::<Vec<f64>>();
    let ttfb = ms(load.fetched.iter().map(|f| f.ttfb_s).collect());
    let small = ms(load
        .fetched
        .iter()
        .filter(|f| matches!(f.object, Object::Small(_)))
        .map(|f| f.total_s)
        .collect());
    let bulk: Vec<&Fetched> = load
        .fetched
        .iter()
        .filter(|f| matches!(f.object, Object::Bulk))
        .collect();
    let bulk_s: f64 = bulk.iter().map(|f| f.total_s).sum();
    let fetch_s: f64 = load.fetched.iter().map(|f| f.total_s).sum();
    run.set("ttfb_p50_ms", quantile(&ttfb, 0.5));
    run.set("ttfb_p99_ms", quantile(&ttfb, 0.99));
    run.set("ttfb_samples", ttfb.len() as f64);
    run.set("fetch_p50_ms", quantile(&small, 0.5));
    run.set("fetch_p99_ms", quantile(&small, 0.99));
    run.set("fetch_samples", small.len() as f64);
    if bulk_s > 0.0 {
        run.set(
            "goodput_mbps",
            bulk.len() as f64 * BULK_N as f64 / bulk_s / 1e6,
        );
    }
    run.set("bulk_samples", bulk.len() as f64);
    if fetch_s > 0.0 {
        run.set("bulk_share", bulk_s / fetch_s);
    }
    run.set("run_s", median(&load.batches));
}

/// Runs the workload: `budget` of fetch batches after set-up.
pub fn run(seed: u64, budget: Duration, traced: bool) -> Run {
    let mut run = Run {
        config: format!(
            "relay mode {:?}, 1 closed-loop client",
            RelayMode::default()
        ),
        ..Run::default()
    };
    let mut mix = Mix(StdRng::seed_from_u64(seed));
    if traced {
        traced_run(&mut run, &mut mix, budget);
        return run;
    }
    let mut arrivals: Vec<Duration> = (0..SETUP_REPS)
        .map(|i| ARRIVAL_SPAN.mul_f64((i as f64 + mix.0.gen::<f64>()) / SETUP_REPS as f64))
        .collect();
    arrivals.shuffle(&mut mix.0);
    let mut setups = Vec::new();
    let mut stack = None;
    let mut forced = 0;
    for (i, arrival) in arrivals.into_iter().enumerate() {
        match start(RelayConfig::new(), arrival) {
            Ok((s, setup_s)) => {
                setups.push(setup_s);
                if i + 1 < SETUP_REPS {
                    forced += stop(s);
                } else {
                    stack = Some(s);
                }
            }
            Err(e) => {
                start_failed(&mut run, e);
                return run;
            }
        }
    }
    let stack = stack.expect("SETUP_REPS > 0");
    let l = load(&stack, &mut mix, budget, false, &mut Codec::default());
    forced += stop(stack);
    account(&mut run, &l);
    run.set("setup_s", median(&setups));
    run.set("drain_forced", forced as f64);
    run
}

/// Nanoseconds per call of `f` over `items`, repeated until 20 ms pass.
fn ns_per_call<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let t = Instant::now();
    let mut calls = 0u64;
    while calls == 0 || t.elapsed() < Duration::from_millis(20) {
        for item in items {
            f(std::hint::black_box(item));
        }
        calls += items.len() as u64;
    }
    t.elapsed().as_nanos() as f64 / calls as f64
}

/// The traced run: half the budget untraced on a plain relay (the
/// overhead baseline), half traced on a relay reporting its own spans.
fn traced_run(run: &mut Run, mix: &mut Mix, budget: Duration) {
    let half = budget / 2;
    let plain = match start(RelayConfig::new(), Duration::ZERO) {
        Ok((s, _)) => s,
        Err(e) => return start_failed(run, e),
    };
    let base = load(&plain, mix, half, false, &mut Codec::default());
    let mut forced = stop(plain);
    account(run, &base);
    let untraced_batch = median(&base.batches);

    let tel = Arc::new(Telemetry::with_trace_capacity(RELAY_TRACE_CAPACITY));
    let stack = match start(
        RelayConfig::new().with_telemetry(tel.clone()),
        Duration::ZERO,
    ) {
        Ok((s, _)) => s,
        Err(e) => return start_failed(run, e),
    };
    let mut codec = Codec::default();
    let traced = load(&stack, mix, half, true, &mut codec);
    let lifecycle = stack.relay.lifecycle();
    forced += stop(stack);
    account(run, &traced);
    let buffers: Vec<Buffer> = vec![trace::take()];

    let us = |name: &str| -> Vec<f64> {
        trace::durations(&buffers, name)
            .into_iter()
            .map(|ns| ns as f64 / 1e3)
            .collect()
    };
    let connect = us("relay.connect");
    let head_wait = us("relay.head_wait");
    let first_byte: Vec<f64> = tel
        .tracer
        .snapshot()
        .iter()
        .filter(|e| e.kind == EventKind::RelayFirstByte)
        .filter_map(|e| e.dur_us.map(|d| d as f64))
        .collect();
    let (body_bytes, body_s) = traced
        .fetched
        .iter()
        .filter(|f| matches!(f.object, Object::Bulk))
        .fold((0.0, 0.0), |(b, s), f| {
            (b + (BULK_N - BULK_X) as f64, s + f.body_s)
        });
    let refused = tel
        .metrics
        .snapshot()
        .counter("relay_backpressure_drops", &vec![])
        .unwrap_or(0);
    run.set("relay.connect_us_p50", quantile(&connect, 0.5));
    run.set("relay.head_wait_us_p50", quantile(&head_wait, 0.5));
    run.set("relay.head_wait_us_p99", quantile(&head_wait, 0.99));
    run.set("relay.accept_first_byte_us_p50", quantile(&first_byte, 0.5));
    run.set(
        "relay.accept_first_byte_us_p99",
        quantile(&first_byte, 0.99),
    );
    run.set(
        "relay.body_mbps",
        if body_s > 0.0 {
            body_bytes / body_s / 1e6
        } else {
            0.0
        },
    );
    run.set("relay.accepted", lifecycle.accepted as f64);
    run.set("relay.completed", lifecycle.requests_completed as f64);
    run.set("relay.refused", refused as f64);
    run.set("relay.forced", forced as f64);
    let mut buf = BytesMut::new();
    run.set(
        "http.encode_request_ns",
        ns_per_call(&codec.requests, |r| {
            buf.clear();
            encode_request(r, &mut buf);
        }),
    );
    let raw: Vec<Vec<u8>> = codec
        .heads
        .iter()
        .map(|h| {
            let mut b = BytesMut::new();
            encode_response(h, &mut b);
            b.to_vec()
        })
        .collect();
    run.set(
        "http.parse_response_ns",
        ns_per_call(&raw, |b| {
            let _ = std::hint::black_box(parse_response(b));
        }),
    );
    run.set(
        "trace.overhead_frac",
        median(&traced.batches) / untraced_batch - 1.0,
    );
    let dropped = trace::dropped(&buffers) + tel.tracer.dropped();
    run.set("trace.spans_dropped", dropped as f64);
    if dropped > 0 {
        run.fail(format!("traced run dropped {dropped} spans"));
    }
    if let Err(e) = trace::write_csv(
        std::path::Path::new(".bench_out/spans-relay-loopback.csv"),
        &buffers,
    ) {
        run.fail(format!("writing spans: {e}"));
    }
}
