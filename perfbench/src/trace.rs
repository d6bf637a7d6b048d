//! In-memory span recording for the traced run.
//!
//! A span is a named interval around one call into a layer, with the
//! span that encloses it and the request (pass or submission) it belongs
//! to. Spans are only kept in memory while the run measures and are
//! written out once it ends. A span's self time is its duration minus
//! the durations of its direct children; the layer of a span is the part
//! of its name before the first `.`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub request: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; when disabled every call is a no-op, so
/// the untraced passes run the same code without recording.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    /// Who recorded the spans (`cli`, `client-0`, ...): the first column
    /// of the written spans, so several tracers' output can share a file.
    source: String,
    origin: Instant,
    request: usize,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

/// The handle [`Tracer::enter`] returns; pass it back to
/// [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl Tracer {
    /// A recording tracer.
    pub fn new(source: &str) -> Tracer {
        Tracer {
            enabled: true,
            source: source.to_string(),
            origin: Instant::now(),
            request: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new("")
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a new request: later top-level spans carry its id.
    pub fn begin_request(&mut self) -> usize {
        self.request += 1;
        self.request
    }

    pub fn enter(&mut self, name: &str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            request: self.request,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        let id = self.spans.len() - 1;
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open) {
        self.exit_as(open, None);
    }

    /// Closes a span, renaming it when the name is only known after the
    /// call (the engine a `Simulation::run` dispatched to).
    pub fn exit_as(&mut self, open: Open, name: Option<String>) {
        let Open(Some(id)) = open else { return };
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        if let Some(name) = name {
            span.name = name;
        }
        if self.stack.last() == Some(&id) {
            self.stack.pop();
        }
    }

    /// Records an already-measured interval as a top-level span of the
    /// current request (client-side spans of a submission).
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            request: self.request,
            parent: self.stack.last().copied(),
            start_ns: at(start),
            end_ns: at(end),
        });
    }

    /// Per-request self time of every span name, in seconds:
    /// `request → name → seconds`.
    pub fn self_times(&self) -> BTreeMap<usize, BTreeMap<String, f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut out: BTreeMap<usize, BTreeMap<String, f64>> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let self_ns = span.duration_ns().saturating_sub(children);
            *out.entry(span.request)
                .or_default()
                .entry(span.name.clone())
                .or_default() += self_ns as f64 * 1e-9;
        }
        out
    }

    /// The column names of [`Tracer::to_tsv`].
    pub const TSV_HEADER: &'static str = "source\trequest\tid\tparent\tname\tstart_ns\tend_ns\n";

    /// The spans as tab-separated lines in [`Tracer::TSV_HEADER`] order,
    /// for writing out after the run.
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}\t{}\t{id}\t{parent}\t{}\t{}\t{}",
                self.source, span.request, span.name, span.start_ns, span.end_ns
            );
        }
        out
    }
}
