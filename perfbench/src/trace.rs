//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded only by the benchmark's own wrappers, around the
//! calls it makes into each layer; nothing inside the program is
//! instrumented. Each thread records into its own buffer (no locks on
//! the hot path), spans nest through a per-thread stack, and every
//! span carries the id of the session or fetch it belongs to. Buffers
//! are taken when the run ends, self time is derived from the
//! parent links, and the spans are written out as CSV.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::OnceLock;
use std::time::Instant;

/// Spans one thread may hold; later spans are dropped and counted. A
/// traced run that drops spans is invalid.
const CAPACITY: usize = 4_000_000;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Boundary name, e.g. `simnet.race`.
    pub name: &'static str,
    /// Session or fetch id shared by all spans of one request.
    pub id: u64,
    /// Index of the enclosing span in the same buffer, or [`ROOT`].
    pub parent: u32,
    /// Start, nanoseconds since the process-wide trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the process-wide trace epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The spans one thread recorded, plus how many it had to drop.
#[derive(Debug, Default)]
pub struct Buffer {
    /// Spans in the order they were opened.
    pub spans: Vec<Span>,
    /// Spans lost to the capacity limit.
    pub dropped: u64,
}

#[derive(Default)]
struct Recorder {
    buf: Buffer,
    stack: Vec<u32>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Runs `f` inside a span named `name` belonging to request `id`.
pub fn span<T>(name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
    let idx = REC.with(|r| {
        let mut r = r.borrow_mut();
        if r.buf.spans.len() >= CAPACITY {
            r.buf.dropped += 1;
            return None;
        }
        let parent = r.stack.last().copied().unwrap_or(ROOT);
        let idx = r.buf.spans.len() as u32;
        r.buf.spans.push(Span {
            name,
            id,
            parent,
            start_ns: now_ns(),
            end_ns: 0,
        });
        r.stack.push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = idx {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            r.stack.pop();
            r.buf.spans[idx as usize].end_ns = now_ns();
        });
    }
    out
}

/// Takes this thread's spans, leaving its buffer empty.
pub fn take() -> Buffer {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        assert!(r.stack.is_empty(), "trace taken inside an open span");
        std::mem::take(&mut r.buf)
    })
}

/// Per-name totals over a set of buffers.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    /// Spans of this name.
    pub calls: u64,
    /// Sum of their durations, nanoseconds.
    pub busy_ns: u64,
    /// Busy time minus the time their direct children cover.
    pub self_ns: u64,
}

impl Totals {
    /// Busy time in seconds.
    pub fn busy_s(&self) -> f64 {
        self.busy_ns as f64 / 1e9
    }

    /// Self time in seconds.
    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 / 1e9
    }
}

/// Aggregates spans by name, deriving self time from the parent links.
pub fn totals(buffers: &[Buffer]) -> BTreeMap<&'static str, Totals> {
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for b in buffers {
        let mut child_ns = vec![0u64; b.spans.len()];
        for s in &b.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.dur_ns();
            }
        }
        for (s, child) in b.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.busy_ns += s.dur_ns();
            t.self_ns += s.dur_ns().saturating_sub(child);
        }
    }
    out
}

/// Durations in nanoseconds of every span named `name`.
pub fn durations(buffers: &[Buffer], name: &str) -> Vec<u64> {
    buffers
        .iter()
        .flat_map(|b| b.spans.iter())
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .collect()
}

/// Total spans dropped across buffers.
pub fn dropped(buffers: &[Buffer]) -> u64 {
    buffers.iter().map(|b| b.dropped).sum()
}

/// Writes every span as CSV (`thread,index,parent,id,name,start_ns,end_ns`).
pub fn write_csv(path: &std::path::Path, buffers: &[Buffer]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "thread,index,parent,id,name,start_ns,end_ns")?;
    for (t, b) in buffers.iter().enumerate() {
        for (i, s) in b.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                s.parent as i64
            };
            writeln!(
                w,
                "{t},{i},{parent},{},{},{},{}",
                s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        span("outer", 1, || {
            span("inner", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let bufs = vec![take()];
        assert_eq!(bufs[0].spans.len(), 2);
        assert_eq!(bufs[0].spans[1].parent, 0);
        let t = totals(&bufs);
        let (outer, inner) = (t["outer"], t["inner"]);
        assert!(inner.busy_ns >= 5_000_000);
        assert_eq!(outer.self_ns, outer.busy_ns - inner.busy_ns);
        assert_eq!(inner.self_ns, inner.busy_ns);
    }
}
