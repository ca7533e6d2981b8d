//! Spans recorded from outside the program: one around each call into a
//! layer, kept in memory, written as JSON lines when the run ends.
//!
//! A span is `{name, start, end, parent, window}`. `parent` is the span
//! that was open when this one opened (real nesting only — a span is a
//! child of the interval that contains it), `window` the script window it
//! belongs to (−1 for set-up work). A layer's **self time** is its span's
//! duration minus the part of that interval its children cover.

use std::io::Write;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = u32;

/// One recorded interval, in microseconds since the tracer started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer and call, e.g. `gateway.tick`.
    pub name: &'static str,
    /// Start, µs since the tracer's epoch.
    pub start_us: f64,
    /// End, µs since the tracer's epoch.
    pub end_us: f64,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Script window (warm-up windows count), −1 outside any window.
    pub window: i64,
}

impl Span {
    /// Wall duration in µs.
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// The span log. A disabled tracer records nothing and reads no clock, so
/// the untraced run executes the same driver code at no cost.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    enabled: bool,
}

impl Tracer {
    /// A tracer that records.
    pub fn on() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), enabled: true }
    }

    /// A tracer that ignores every call.
    pub fn off() -> Self {
        Tracer { enabled: false, ..Tracer::on() }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span under whichever span is currently open.
    pub fn open(&mut self, name: &'static str, window: i64) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as SpanId;
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            window,
        });
        self.open.push(id);
    }

    /// Close the innermost open span; returns its duration in µs (0 when
    /// disabled).
    pub fn close(&mut self) -> f64 {
        if !self.enabled {
            return 0.0;
        }
        let end_us = self.now_us();
        let id = self.open.pop().expect("close without a matching open");
        let span = &mut self.spans[id as usize];
        span.end_us = end_us;
        span.duration_us()
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, window: i64, f: impl FnOnce() -> T) -> T {
        self.open(name, window);
        let out = f();
        self.close();
        out
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the log as JSON lines: one `{name,start,end,parent,window}`
    /// object per span, times in µs, `parent` an index into the same file
    /// (0-based line number) or null.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start\":{:.3},\"end\":{:.3},\"parent\":{},\"window\":{}}}",
                s.name, s.start_us, s.end_us, parent, s.window
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the time covered by its
/// direct children. Children are recorded sequentially on one thread, so
/// they never overlap each other and the covered time is their sum.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::duration_us).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] -= s.duration_us();
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<SpanId>) -> Span {
        Span { name, start_us: start, end_us: end, parent, window: 0 }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // window [0,100] ⊃ tick [10,90] ⊃ {obfuscate [10,20], process [20,80]}
        let spans = vec![
            span("window", 0.0, 100.0, None),
            span("gateway.tick", 10.0, 90.0, Some(0)),
            span("obfuscator", 10.0, 20.0, Some(1)),
            span("server", 20.0, 80.0, Some(1)),
        ];
        let own = self_times_us(&spans);
        assert_eq!(own, vec![20.0, 10.0, 10.0, 60.0]);
        // Self times partition the root: nothing is counted twice.
        assert_eq!(own.iter().sum::<f64>(), 100.0);
    }

    #[test]
    fn the_tracer_nests_by_open_order_and_a_disabled_one_records_nothing() {
        let mut t = Tracer::on();
        t.open("window", 3);
        t.span("gateway.submit", 3, || ());
        t.span("gateway.tick", 3, || ());
        t.close();
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (None, Some(0), Some(0)));
        assert!(s[0].start_us <= s[1].start_us && s[2].end_us <= s[0].end_us);
        assert!(self_times_us(s).iter().all(|&x| x >= 0.0));

        let mut off = Tracer::off();
        off.open("window", 0);
        assert_eq!(off.close(), 0.0);
        assert!(off.spans().is_empty());
    }
}
