//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span is `{req, id, parent, layer, name, start_ns, end_ns, counts}`.
//! Spans of one request share `req`. They are kept in memory and written as
//! JSONL when the run ends. A layer's *self time* is its span minus what its
//! children cover.
//!
//! The program has no spans inside it yet, so a call such as
//! `execute_interpretation_cached` is opaque from here. Its inner layers are
//! measured by *re-enactment*: right after the opaque call returns, the
//! benchmark makes the same public calls the opaque one made
//! (`rows_with_all_into`, `reduce_join_tree`, ...) over the same inputs and
//! records each as a child. A re-enacted child keeps its measured duration
//! but is *placed* inside its parent's interval (packed from the parent's
//! start, clipped at its end, `counts.reenacted = 1`), so interval
//! arithmetic on the file gives the same self times this module computes.
//! The trace clock is stopped while a re-enactment runs, so timestamps are
//! "trace time": the spans of one request are contiguous in it, and the
//! instrument's own work appears in no span's self time.

use crate::json;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub req: u32,
    pub id: u32,
    pub parent: Option<u32>,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn ms(&self) -> f64 {
        self.dur_ns() as f64 / 1e6
    }
}

pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    /// Per span: where the next re-enacted child is placed.
    cursor: Vec<u64>,
    /// Nanoseconds the trace clock has been stopped for.
    paused_ns: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            cursor: Vec::new(),
            paused_ns: 0,
        }
    }

    /// Trace time: wall time since the tracer started, minus the stretches
    /// spent re-enacting (see [`Tracer::pause`]).
    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64 - self.paused_ns
    }

    /// Stop the trace clock while the benchmark re-enacts inner calls
    /// between two real spans of one parent, so the parent's self time is
    /// the request's own glue and not the instrument's work. Resume with
    /// the returned instant.
    pub fn pause(&self) -> Instant {
        Instant::now()
    }

    pub fn resume(&mut self, paused_at: Instant) {
        self.paused_ns += paused_at.elapsed().as_nanos() as u64;
    }

    fn push(&mut self, span: Span) -> u32 {
        self.cursor.push(span.start_ns);
        self.spans.push(span);
        self.spans.len() as u32 - 1
    }

    /// Open a span now; close it with [`Tracer::end`].
    pub fn begin(
        &mut self,
        req: u32,
        parent: Option<u32>,
        layer: &'static str,
        name: &'static str,
    ) -> u32 {
        let now = self.now_ns();
        let id = self.spans.len() as u32;
        self.push(Span {
            req,
            id,
            parent,
            layer,
            name,
            start_ns: now,
            end_ns: now,
            counts: Vec::new(),
        })
    }

    pub fn end(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    pub fn count(&mut self, id: u32, key: &'static str, value: u64) {
        self.spans[id as usize].counts.push((key, value));
    }

    /// A span around `f`, nested for real.
    pub fn span<T>(
        &mut self,
        req: u32,
        parent: Option<u32>,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let id = self.begin(req, parent, layer, name);
        let out = f();
        self.end(id);
        (out, id)
    }

    /// Re-enact one inner call of the (already closed) span `parent`: time
    /// `f` now, record it as a child placed inside the parent's interval.
    pub fn reenact<T>(
        &mut self,
        parent: u32,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let t = Instant::now();
        let out = f();
        let dur = t.elapsed().as_nanos() as u64;
        let p = &self.spans[parent as usize];
        let (req, p_end) = (p.req, p.end_ns);
        let start = self.cursor[parent as usize].min(p_end);
        let end = (start + dur).min(p_end);
        self.cursor[parent as usize] = end;
        let id = self.spans.len() as u32;
        let mut counts = vec![("reenacted", 1)];
        if start + dur > p_end {
            counts.push(("clipped_ns", start + dur - p_end));
        }
        self.push(Span {
            req,
            id,
            parent: Some(parent),
            layer,
            name,
            start_ns: start,
            end_ns: end,
            counts,
        });
        (out, id)
    }

    /// Write every span as one JSON object a line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let counts: Vec<String> = s
                .counts
                .iter()
                .map(|(k, v)| format!("{}: {v}", json::quote(k)))
                .collect();
            writeln!(
                out,
                "{{\"req\": {}, \"id\": {}, \"parent\": {}, \"layer\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"counts\": {{{}}}}}",
                s.req,
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                json::quote(s.layer),
                json::quote(s.name),
                s.start_ns,
                s.end_ns,
                counts.join(", ")
            )?;
        }
        out.flush()
    }
}

/// Self time (ns) of every span, by index: its duration minus the union of
/// its direct children's intervals, each clipped to the span's own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per request of `reqs`, the summed milliseconds of the spans `pick`
/// accepts (0 for a request with none), ascending.
pub fn per_request_ms(spans: &[Span], reqs: &[u32], pick: impl Fn(&Span) -> bool) -> Vec<f64> {
    let max = reqs.iter().copied().max().map_or(0, |m| m as usize + 1);
    let mut sums = vec![0.0f64; max];
    for s in spans.iter().filter(|s| pick(s)) {
        if let Some(slot) = sums.get_mut(s.req as usize) {
            *slot += s.ms();
        }
    }
    let mut out: Vec<f64> = reqs.iter().map(|&r| sums[r as usize]).collect();
    crate::stats::sort(&mut out);
    out
}

/// Ascending durations (ms) of the spans `pick` accepts.
pub fn span_ms(spans: &[Span], pick: impl Fn(&Span) -> bool) -> Vec<f64> {
    let mut out: Vec<f64> = spans.iter().filter(|s| pick(s)).map(Span::ms).collect();
    crate::stats::sort(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            req: 0,
            id,
            parent,
            layer: "l",
            name: "n",
            start_ns,
            end_ns,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_the_span_minus_what_its_children_cover() {
        // root [0,100): children [10,30), [20,50) (overlapping: cover 40),
        // [90,130) (clipped to 10); grandchild [12,20) under the first child.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 50),
            span(3, Some(0), 90, 130),
            span(4, Some(1), 12, 20),
            span(5, None, 200, 260),
        ];
        assert_eq!(self_times(&spans), [50, 12, 30, 40, 8, 60]);
    }

    #[test]
    fn reenacted_children_are_packed_into_the_parent_and_clipped() {
        let mut tr = Tracer::new();
        let (_, parent) = tr.span(7, None, "core.exec", "opaque", || {
            std::thread::sleep(std::time::Duration::from_millis(4));
        });
        let spin = |ms: u64| {
            let t = Instant::now();
            while t.elapsed().as_millis() < u128::from(ms) {
                std::hint::spin_loop();
            }
        };
        let (_, a) = tr.reenact(parent, "textindex", "a", || spin(1));
        let (_, b) = tr.reenact(parent, "relstore.exec", "b", || spin(1));
        // A third child that no longer fits is clipped at the parent's end.
        let (_, c) = tr.reenact(parent, "relstore.exec", "c", || spin(5));
        let s = &tr.spans;
        let p = &s[parent as usize];
        assert_eq!(s[a as usize].start_ns, p.start_ns);
        assert_eq!(s[b as usize].start_ns, s[a as usize].end_ns);
        assert_eq!(s[c as usize].end_ns, p.end_ns);
        assert!(s[c as usize].counts.iter().any(|(k, _)| *k == "clipped_ns"));
        assert_eq!(s[a as usize].req, 7);
        // Fully covered parent: no self time left.
        assert_eq!(self_times(s)[parent as usize], 0);
    }

    #[test]
    fn per_request_sums_include_requests_without_a_matching_span() {
        let mut a = span(0, None, 0, 2_000_000);
        a.req = 1;
        let mut b = span(1, None, 0, 3_000_000);
        b.req = 1;
        let mut c = span(2, None, 0, 1_000_000);
        c.req = 3;
        let got = per_request_ms(&[a, b, c], &[1, 2, 3], |_| true);
        assert_eq!(got, [0.0, 1.0, 5.0]);
    }

    #[test]
    fn jsonl_lines_parse_back() {
        let mut tr = Tracer::new();
        let (_, id) = tr.span(1, None, "service", "answers", || ());
        tr.count(id, "answers", 10);
        let (_, _) = tr.reenact(id, "textindex", "probe", || ());
        let path = crate::workload::bench_dir()
            .join("tmp")
            .join("trace-test.jsonl");
        tr.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = json::parse(lines[0]).unwrap();
        assert_eq!(first.get("layer"), Some(&json::Json::Str("service".into())));
        assert_eq!(first.get("parent"), Some(&json::Json::Null));
        assert_eq!(
            first
                .get("counts")
                .unwrap()
                .get("answers")
                .unwrap()
                .as_f64(),
            Some(10.0)
        );
        let second = json::parse(lines[1]).unwrap();
        assert_eq!(second.get("parent").unwrap().as_f64(), Some(0.0));
    }
}
