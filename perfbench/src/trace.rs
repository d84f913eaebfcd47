//! In-memory spans recorded around calls into each layer's public API.
//!
//! A span has a name, a start and an end, the span that caused it and the
//! request it belongs to; spans of one request share a request id.  Spans
//! stay in memory while the workload runs and are written out as JSON lines
//! when it ends.  A disabled tracer runs the wrapped call and records
//! nothing, so the same code path serves the traced and the untraced run.

use std::cell::Cell;
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.  Times are nanoseconds since the tracer was created.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    /// The enclosing span, 0 for a root.
    pub parent: u64,
    /// The request this span belongs to, 0 outside any request.
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// `(request id, innermost open span id)` of the calling thread.
    static CONTEXT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

pub struct Tracer {
    enabled: AtomicBool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records nothing until enabled.
    pub fn new() -> Self {
        Tracer {
            enabled: AtomicBool::new(false),
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the calling thread's
    /// innermost open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled() {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (request, parent) = CONTEXT.get();
        CONTEXT.set((request, id));
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        CONTEXT.set((request, parent));
        self.spans
            .lock()
            .expect("a span recorder panicked")
            .push(Span {
                id,
                parent,
                request,
                name,
                start_ns,
                end_ns,
            });
        out
    }

    /// Runs `f` as the root span of a new request.
    pub fn request<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled() {
            return f();
        }
        let saved = CONTEXT.get();
        CONTEXT.set((self.next_id.fetch_add(1, Ordering::Relaxed), 0));
        let out = self.span(name, f);
        CONTEXT.set(saved);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a span recorder panicked").clone()
    }

    /// Writes the spans to `perfbench-traces/<workload>.jsonl` under the
    /// build directory (`$CARGO_TARGET_DIR`, else `perfbench/target`),
    /// replacing the previous traced run's, and says where.
    pub fn write_out(&self, workload: &str) {
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
        let path = dir
            .join("perfbench-traces")
            .join(format!("{workload}.jsonl"));
        match self.write_jsonl(&path) {
            Ok(()) => println!(
                "{workload:<18} {:<22} {}",
                "spans written to",
                path.display()
            ),
            Err(err) => println!("{workload:<18} {:<22} {err}", "spans not written"),
        }
    }

    /// Writes every span as one JSON object per line.
    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("a span recorder panicked").iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Durations in microseconds of every span named `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect()
}

/// Self time in microseconds of every span named `name`: its duration minus
/// the part of its interval that its child spans cover.
pub fn self_times_us(spans: &[Span], name: &str) -> Vec<f64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            let mut covered = 0;
            let mut reach = s.start_ns;
            let mut intervals = children.remove(&s.id).unwrap_or_default();
            intervals.sort_unstable();
            for (start, end) in intervals {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.duration_ns() - covered) as f64 / 1e3
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, "outer", 0, 10_000),
            span(2, 1, "a", 1_000, 4_000),
            span(3, 1, "b", 3_000, 5_000),
            span(4, 2, "deep", 1_000, 2_000),
        ];
        assert_eq!(self_times_us(&spans, "outer"), vec![6.0]);
        assert_eq!(self_times_us(&spans, "a"), vec![2.0]);
        assert_eq!(durations_us(&spans, "b"), vec![2.0]);
    }

    #[test]
    fn nested_spans_share_the_request_and_link_parents() {
        let tracer = Tracer::new();
        tracer.set_enabled(true);
        tracer.request("root", || tracer.span("child", || ()));
        tracer.span("outside", || ());
        let spans = tracer.spans();
        let child = spans.iter().find(|s| s.name == "child").unwrap();
        let root = spans.iter().find(|s| s.name == "root").unwrap();
        assert_eq!(child.parent, root.id);
        assert_eq!(child.request, root.request);
        assert_ne!(root.request, 0);
        assert_eq!(
            spans.iter().find(|s| s.name == "outside").unwrap().request,
            0
        );

        let off = Tracer::new();
        assert_eq!(off.span("x", || 7), 7);
        assert!(off.spans().is_empty());
    }
}
