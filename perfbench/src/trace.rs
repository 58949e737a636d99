//! In-memory spans recorded around calls into the program's layers.
//!
//! A span is `(name, start, end, parent, id)`: `parent` is the index of
//! the enclosing open span plus one (0 for a root) and `id` names the
//! request, block, engine call or sweep cell it covers. Spans stay in
//! memory while the workload runs and are written out once at the end, so
//! the only cost on the measured path is two clock reads and a push.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub id: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Shared by reference (`&Tracer`), so a sink inside a service and the
/// loop driving that service record into the same span tree.
pub struct Tracer {
    base: Instant,
    inner: RefCell<Spans>,
}

#[derive(Default)]
struct Spans {
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Total and self time of every span name, plus span counts.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            // balloc-lint: allow(L002): benchmark timing; no decision or digest reads it.
            base: Instant::now(),
            inner: RefCell::new(Spans::default()),
        }
    }

    /// Opens a span under the innermost open one and returns its handle.
    pub fn begin(&self, name: &'static str, id: u64) -> usize {
        let start_ns = self.base.elapsed().as_nanos() as u64;
        let mut inner = self.inner.borrow_mut();
        let idx = inner.spans.len();
        let parent = inner.open.last().map_or(0, |&p| p + 1);
        inner.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            id,
        });
        inner.open.push(idx as u32);
        idx
    }

    /// Closes the span `idx` (which must be the innermost open one).
    pub fn end(&self, idx: usize) {
        let end_ns = self.base.elapsed().as_nanos() as u64;
        let mut inner = self.inner.borrow_mut();
        inner.spans[idx].end_ns = end_ns;
        let top = inner.open.pop();
        debug_assert_eq!(top, Some(idx as u32), "spans must close innermost first");
    }

    pub fn len(&self) -> usize {
        self.inner.borrow().spans.len()
    }

    /// Per-name totals; a span's self time is its duration minus the
    /// durations of its direct children.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let inner = self.inner.borrow();
        let mut child_ns = vec![0u64; inner.spans.len()];
        for s in &inner.spans {
            if s.parent > 0 {
                child_ns[s.parent as usize - 1] += s.ns();
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, child) in inner.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.ns();
            t.self_ns += s.ns().saturating_sub(child);
        }
        out
    }

    /// Writes every span as `name start_ns end_ns parent id` lines.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tstart_ns\tend_ns\tparent\tid")?;
        for s in &self.inner.borrow().spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, s.parent, s.id
            )?;
        }
        out.flush()
    }
}

/// Runs `f` inside a span when tracing, bare otherwise.
pub fn span<T>(tracer: Option<&Tracer>, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => {
            let s = t.begin(name, id);
            let out = f();
            t.end(s);
            out
        }
        None => f(),
    }
}
