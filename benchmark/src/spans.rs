//! Spans recorded from the benchmark's own files, around each call into a
//! layer. Held in memory; written as a Chrome trace when the run ends.
//! Untraced runs never construct a [`Recorder`].

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span inside its recorder.
pub type SpanId = u32;

/// One closed interval on one track.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Shared by every span of one workload call (or engine job).
    pub call_id: u64,
    /// Chrome-trace thread: 0 = the caller's wall clock; engine jobs use
    /// `1 + tenant` on the engine's virtual clock.
    pub track: u32,
}

/// In-memory span store with a hard cap (a 10 s window of 4 KiB calls
/// would otherwise hold millions of spans).
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    cap: usize,
    pub dropped: u64,
}

impl Recorder {
    pub fn new(cap: usize) -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            cap,
            dropped: 0,
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the recorder's epoch to `t`.
    pub fn at_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn is_full(&self) -> bool {
        self.spans.len() >= self.cap
    }

    /// Stores a finished span; `None` once the cap is reached.
    pub fn push(&mut self, span: Span) -> Option<SpanId> {
        if self.is_full() {
            self.dropped += 1;
            return None;
        }
        self.spans.push(span);
        Some((self.spans.len() - 1) as SpanId)
    }

    /// Opens a wall-clock span now; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &str, parent: Option<SpanId>, call_id: u64) -> Option<SpanId> {
        let now = self.now_ns();
        self.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent,
            call_id,
            track: 0,
        })
    }

    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// Records a wall-clock child span from an `Instant` pair the caller
    /// already took for its own measurement.
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        secs: f64,
        parent: Option<SpanId>,
        call_id: u64,
    ) {
        let start_ns = self.at_ns(start);
        self.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns + (secs * 1e9) as u64,
            parent,
            call_id,
            track: 0,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its children cover (overlapping children count once,
    /// parts of a child outside the parent count for nothing).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p as usize];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                if hi > lo {
                    children[p as usize].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(lo, hi) in kids.iter() {
                    let lo = lo.max(reach);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                (s.end_ns - s.start_ns) - covered
            })
            .collect()
    }

    /// Total and self time per span name, in first-seen order:
    /// `(name, count, total_ns, self_ns)`.
    pub fn by_name(&self) -> Vec<(String, u64, u64, u64)> {
        let selfs = self.self_times_ns();
        let mut rows: Vec<(String, u64, u64, u64)> = Vec::new();
        for (s, own) in self.spans.iter().zip(selfs) {
            let dur = s.end_ns - s.start_ns;
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += dur;
                    r.3 += own;
                }
                None => rows.push((s.name.clone(), 1, dur, own)),
            }
        }
        rows
    }

    /// The Chrome trace (`chrome://tracing`, Perfetto): one `M` process
    /// name record, then one complete (`X`) event per span with its
    /// parent, call id and self time in `args`.
    pub fn chrome_trace(&self, process: &str) -> String {
        let selfs = self.self_times_ns();
        let mut out = String::from("{\"traceEvents\":[\n");
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":\"{process}\"}}}}"
        );
        for (i, (s, own)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or(-1, i64::from);
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"call_id\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}}}",
                s.name,
                s.track,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.call_id,
                s.start_ns,
                s.end_ns,
            );
        }
        let _ = write!(
            out,
            "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"dropped_spans\":{}}}}}\n",
            self.dropped
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "s".into(),
            start_ns,
            end_ns,
            parent,
            call_id: 0,
            track: 0,
        }
    }

    #[test]
    fn self_time_with_nested_and_overlapping_children() {
        let mut r = Recorder::new(16);
        let root = r.push(span(0, 100, None));
        // Two overlapping children cover [10, 50) together.
        let a = r.push(span(10, 40, root));
        r.push(span(30, 50, root));
        // A grandchild takes time from `a`, not from the root.
        r.push(span(15, 25, a));
        // A child sticking out of its parent only counts inside it.
        r.push(span(90, 130, root));
        // A child fully inside an earlier sibling adds nothing.
        r.push(span(32, 38, root));
        assert_eq!(r.self_times_ns(), vec![50, 20, 20, 10, 40, 6]);
    }

    #[test]
    fn cap_drops_and_counts() {
        let mut r = Recorder::new(1);
        assert!(r.push(span(0, 1, None)).is_some());
        assert!(r.push(span(1, 2, None)).is_none());
        assert_eq!((r.spans().len(), r.dropped), (1, 1));
    }

    #[test]
    fn chrome_trace_is_json_with_one_event_per_span() {
        let mut r = Recorder::new(4);
        let root = r.push(span(0, 2_000, None));
        r.push(span(500, 1_500, root));
        let text = r.chrome_trace("bench");
        let json = cdpu_util::json::parse(&text).expect("valid json");
        let events = json.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].get("ph").and_then(|p| p.as_str()), Some("M"));
        let child = &events[2];
        assert_eq!(child.get("dur").and_then(|d| d.as_f64()), Some(1.0));
        let args = child.get("args").unwrap();
        assert_eq!(args.get("parent").and_then(|p| p.as_f64()), Some(0.0));
        assert_eq!(args.get("self_ns").and_then(|p| p.as_f64()), Some(1000.0));
    }
}
