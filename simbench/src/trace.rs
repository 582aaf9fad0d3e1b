//! In-memory span recorder for the traced run.
//!
//! A span is (name, start, end, parent) plus a few string arguments. Spans
//! are recorded only by the benchmark's own code, around its calls into each
//! crate; nothing inside the program under test is instrumented. Recording
//! is off unless [`enable`] was called, and then costs one branch per span.
//! When the run ends, [`write_chrome`] writes every span as one
//! Chrome/Perfetto trace and the per-layer metrics are derived from the
//! same spans.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub tid: u64,
    /// Microseconds since the recorder's epoch.
    pub start_us: f64,
    pub dur_us: f64,
    pub args: Vec<(&'static str, String)>,
}

impl Span {
    pub fn arg(&self, key: &str) -> Option<&str> {
        self.args
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }

    pub fn secs(&self) -> f64 {
        self.dur_us / 1e6
    }
}

pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::Relaxed);
}

pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; it is recorded when dropped.
pub struct Guard {
    open: Option<Open>,
}

struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start: Instant,
    args: Vec<(&'static str, String)>,
}

impl Guard {
    /// Attach an argument (shown in the trace viewer, used for grouping).
    pub fn arg(mut self, key: &'static str, value: impl ToString) -> Guard {
        if let Some(open) = &mut self.open {
            open.args.push((key, value.to_string()));
        }
        self
    }
}

/// Open a span named `name`, child of the innermost open span on this
/// thread. A no-op when recording is off.
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let p = s.last().copied();
        s.push(id);
        p
    });
    Guard {
        open: Some(Open {
            id,
            parent,
            name,
            start: Instant::now(),
            args: Vec::new(),
        }),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(Open {
            id,
            parent,
            name,
            start,
            args,
        }) = self.open.take()
        else {
            return;
        };
        let end = Instant::now();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&x| x == id) {
                s.truncate(pos);
            }
        });
        let base = epoch();
        let span = Span {
            id,
            parent,
            name,
            tid: TID.with(|t| *t),
            start_us: start.saturating_duration_since(base).as_secs_f64() * 1e6,
            dur_us: end.saturating_duration_since(start).as_secs_f64() * 1e6,
            args,
        };
        SPANS.lock().unwrap_or_else(|e| e.into_inner()).push(span);
    }
}

/// The innermost open span on this thread.
pub fn current() -> Option<u64> {
    STACK.with(|s| s.borrow().last().copied())
}

/// Makes `parent` (a span open on another thread) the parent of spans
/// this thread records until the guard drops.
pub struct Adopt(bool);

pub fn adopt(parent: Option<u64>) -> Adopt {
    match parent {
        Some(id) if enabled() => {
            STACK.with(|s| s.borrow_mut().push(id));
            Adopt(true)
        }
        _ => Adopt(false),
    }
}

impl Drop for Adopt {
    fn drop(&mut self) {
        if self.0 {
            STACK.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
}

/// Record an already-measured interval (e.g. a client request whose start
/// was taken before a connect) as a span under the current parent; returns
/// its id.
pub fn record(
    name: &'static str,
    start: Instant,
    end: Instant,
    args: Vec<(&'static str, String)>,
) -> Option<u64> {
    if !enabled() {
        return None;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| s.borrow().last().copied());
    let base = epoch();
    let span = Span {
        id,
        parent,
        name,
        tid: TID.with(|t| *t),
        start_us: start.saturating_duration_since(base).as_secs_f64() * 1e6,
        dur_us: end.saturating_duration_since(start).as_secs_f64() * 1e6,
        args,
    };
    SPANS.lock().unwrap_or_else(|e| e.into_inner()).push(span);
    Some(id)
}

/// A copy of every span recorded so far.
pub fn spans() -> Vec<Span> {
    SPANS.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Sum of the durations of spans called `name` whose arguments include
/// every `(key, value)` in `filter`, in seconds.
pub fn total_s(spans: &[Span], name: &str, filter: &[(&str, &str)]) -> f64 {
    select(spans, name, filter).map(Span::secs).sum()
}

pub fn select<'a>(
    spans: &'a [Span],
    name: &'a str,
    filter: &'a [(&'a str, &'a str)],
) -> impl Iterator<Item = &'a Span> + 'a {
    spans
        .iter()
        .filter(move |s| s.name == name && filter.iter().all(|(k, v)| s.arg(k) == Some(*v)))
}

/// Every span as one Chrome trace (`traceEvents` of complete events).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let mut args = format!("\"id\":{}", s.id);
        if let Some(p) = s.parent {
            args.push_str(&format!(",\"parent\":{p}"));
        }
        for (k, v) in &s.args {
            args.push_str(&format!(
                ",{}:{}",
                crate::json::quote(k),
                crate::json::quote(v)
            ));
        }
        out.push_str(&format!(
            "{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{{args}}}}}",
            crate::json::quote(s.name),
            s.tid,
            s.start_us,
            s.dur_us
        ));
    }
    out.push_str("\n]}\n");
    out
}

pub fn write_chrome(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, chrome_json(spans))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_the_trace_parses() {
        enable();
        {
            let _outer = span("test.outer").arg("k", "v");
            let _inner = span("test.inner");
        }
        let all = spans();
        let outer = all.iter().find(|s| s.name == "test.outer").unwrap();
        let inner = all.iter().find(|s| s.name == "test.inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.arg("k"), Some("v"));
        assert!(outer.dur_us >= inner.dur_us);
        let doc = crate::json::parse(&chrome_json(&all)).expect("trace is JSON");
        assert!(!doc.get("traceEvents").unwrap().as_arr().unwrap().is_empty());
    }
}
