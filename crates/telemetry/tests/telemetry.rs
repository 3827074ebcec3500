//! Integration tests exercising the global registry, span log and
//! exporters together.
//!
//! Telemetry state is process-global, so every test that enables
//! recording serializes on [`guard`] and resets state before running.

use std::sync::{Mutex, MutexGuard, OnceLock};

use cdpu_telemetry as telemetry;
use telemetry::metrics::Histogram;
use telemetry::{counter, gauge, histogram, span};

/// Serializes tests that touch the global enable flag / registry.
fn guard() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let lock = LOCK.get_or_init(|| Mutex::new(()));
    let g = lock.lock().unwrap_or_else(|poison| poison.into_inner());
    telemetry::reset();
    telemetry::enable();
    g
}

fn finish(g: MutexGuard<'static, ()>) {
    telemetry::disable();
    telemetry::reset();
    drop(g);
}

#[test]
fn concurrent_counter_increments_from_many_threads() {
    let g = guard();
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 10_000;
    let handle = telemetry::registry().counter("test.concurrent");
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let h = handle.clone();
            s.spawn(move || {
                for _ in 0..PER_THREAD {
                    h.incr();
                }
            });
        }
    });
    assert_eq!(handle.get(), THREADS as u64 * PER_THREAD);
    finish(g);
}

#[test]
fn concurrent_histogram_records() {
    let g = guard();
    let h = telemetry::registry().histogram("test.conc_hist");
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let h = h.clone();
            s.spawn(move || {
                for i in 0..1000u64 {
                    h.record(t * 1000 + i);
                }
            });
        }
    });
    let snap = h.snapshot();
    assert_eq!(snap.count, 4000);
    assert_eq!(snap.buckets.iter().map(|&(_, c)| c).sum::<u64>(), 4000);
    assert_eq!(snap.min, 0);
    assert_eq!(snap.max, 3999);
    finish(g);
}

#[test]
fn histogram_bucket_boundaries_via_recording() {
    let g = guard();
    let h = telemetry::registry().histogram("test.bounds");
    // One observation exactly on each boundary of bucket 11: [1024, 2047].
    h.record(1023); // bucket 10's high edge
    h.record(1024); // bucket 11's low edge
    h.record(2047); // bucket 11's high edge
    h.record(2048); // bucket 12's low edge
    let snap = h.snapshot();
    let count_in = |b: usize| {
        snap.buckets
            .iter()
            .find(|&&(i, _)| i == b)
            .map_or(0, |&(_, c)| c)
    };
    assert_eq!(count_in(10), 1);
    assert_eq!(count_in(11), 2);
    assert_eq!(count_in(12), 1);
    assert_eq!(Histogram::bucket_bounds(11), (1024, 2047));
    finish(g);
}

#[test]
fn gauge_set_max_is_a_high_watermark() {
    let g = guard();
    let depth = telemetry::registry().gauge("test.queue_depth_peak");
    for v in [3, 9, 4, 9, 1] {
        depth.set_max(v);
    }
    assert_eq!(depth.get(), 9, "watermark keeps the maximum");
    // Disabled: updates are dropped, the watermark stays.
    telemetry::disable();
    depth.set_max(100);
    assert_eq!(depth.get(), 9);
    telemetry::enable();
    finish(g);
}

#[test]
fn ring_buffer_overflow_keeps_newest() {
    let g = guard();
    span::log().set_capacity(8);
    for _ in 0..20 {
        let _s = telemetry::span!("overflowing");
    }
    let events = span::log().events();
    assert_eq!(events.len(), 8, "capacity bounds the log");
    assert_eq!(span::log().dropped(), 12);
    // Oldest-first ordering must survive the wrap.
    for w in events.windows(2) {
        assert!(w[0].start_ns <= w[1].start_ns);
    }
    span::log().set_capacity(span::DEFAULT_CAPACITY);
    finish(g);
}

#[test]
fn span_records_wall_time_and_cycles() {
    let g = guard();
    {
        let mut s = telemetry::span!("timed");
        s.add_cycles(77);
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let events = span::log().events();
    let ev = events.iter().find(|e| e.name == "timed").expect("span logged");
    assert!(ev.dur_ns >= 1_000_000, "slept 2ms, recorded {}ns", ev.dur_ns);
    assert_eq!(ev.cycles, 77);
    assert!(ev.tid >= 1);
    finish(g);
}

#[test]
fn macros_record_through_cached_handles() {
    let g = guard();
    counter!("test.macro_counter").add(3);
    counter!("test.macro_counter").add(4);
    gauge!("test.macro_gauge").set(-5);
    histogram!("test.macro_hist").record(100);
    let counters = telemetry::registry().counters();
    assert!(counters.contains(&("test.macro_counter".into(), 7)));
    let gauges = telemetry::registry().gauges();
    assert!(gauges.contains(&("test.macro_gauge".into(), -5)));
    finish(g);
}

#[test]
fn sharded_spans_merge_at_export() {
    let g = guard();
    const THREADS: u64 = 6;
    const PER_THREAD: u64 = 300; // > one shard-flush batch per thread
    std::thread::scope(|s| {
        for t in 0..THREADS {
            s.spawn(move || {
                for _ in 0..PER_THREAD {
                    let mut sp = telemetry::span!("sharded");
                    sp.add_cycles(t + 1);
                }
            });
        }
    });
    // Worker threads exited: their shards flushed on teardown; events()
    // flushes any remainder and merges in start order.
    let events = span::log().events();
    assert_eq!(events.len(), (THREADS * PER_THREAD) as usize);
    for w in events.windows(2) {
        assert!(w[0].start_ns <= w[1].start_ns, "merged order by start");
    }
    let tids: std::collections::HashSet<u64> = events.iter().map(|e| e.tid).collect();
    assert_eq!(tids.len(), THREADS as usize, "one tid per recording thread");
    let agg = span::log().aggregate();
    let a = agg.iter().find(|a| a.name == "sharded").expect("aggregated");
    assert_eq!(a.count, THREADS * PER_THREAD);
    let expected_cycles: u64 = (1..=THREADS).map(|t| t * PER_THREAD).sum();
    assert_eq!(a.total_cycles, expected_cycles);
    finish(g);
}

#[test]
fn sharded_spans_survive_flush_during_thread_teardown() {
    // `thread::scope` returns once the workers' closures are done, which
    // can be before their thread-locals are torn down: the read below then
    // races each worker's shard being emptied into the ring. Every event
    // must be in the shard or in the ring whenever a reader looks.
    let g = guard();
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 150; // one batch hand-off, then a remainder
    for round in 0..200 {
        span::log().clear();
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..PER_THREAD {
                        let _sp = telemetry::span!("teardown");
                    }
                });
            }
        });
        let seen = span::log().events().len();
        assert_eq!(seen, (THREADS * PER_THREAD) as usize, "round {round}");
    }
    finish(g);
}

#[test]
fn live_thread_shard_visible_before_batch_flush() {
    let g = guard();
    // Record fewer spans than one flush batch on the main thread: they sit
    // in the shard until the log is read.
    for _ in 0..5 {
        let _s = telemetry::span!("buffered");
    }
    let events = span::log().events();
    assert_eq!(
        events.iter().filter(|e| e.name == "buffered").count(),
        5,
        "reading the global log drains live shards"
    );
    finish(g);
}

#[test]
fn disabled_records_nothing_and_stays_cheap() {
    let g = guard();
    telemetry::disable();
    let c = telemetry::registry().counter("test.disabled");
    let h = telemetry::registry().histogram("test.disabled_hist");
    {
        let mut s = telemetry::span!("disabled_span");
        s.add_cycles(1);
    }
    // Coarse non-flaky overhead guard: 2M disabled counter adds must be
    // far under a second even in debug builds (each is a relaxed load +
    // branch; any accidental lock or syscall on this path blows the
    // budget).
    let start = std::time::Instant::now();
    for _ in 0..2_000_000 {
        c.add(1);
        h.record(1);
    }
    let elapsed = start.elapsed();
    assert_eq!(c.get(), 0);
    assert_eq!(h.snapshot().count, 0);
    assert!(span::log().events().is_empty());
    assert!(
        elapsed.as_millis() < 1000,
        "disabled hot path took {elapsed:?} for 2M iterations"
    );
    finish(g);
}

#[test]
fn exporters_roundtrip() {
    let g = guard();
    counter!("test.export_counter").add(42);
    histogram!("test.export_hist").record(1000);
    {
        let mut s = telemetry::span!("export_span");
        s.add_cycles(9);
    }

    let md = telemetry::export::snapshot_markdown();
    assert!(md.contains("test.export_counter"));
    assert!(md.contains("42"));
    assert!(md.contains("export_span"));

    let jsonl = telemetry::export::metrics_jsonl();
    let counter_line = jsonl
        .lines()
        .find(|l| l.contains("test.export_counter"))
        .expect("counter dumped");
    json::parse(counter_line).expect("valid JSON line");
    for line in jsonl.lines() {
        json::parse(line).expect("every JSONL line parses");
    }
    finish(g);
}

#[test]
fn chrome_trace_golden() {
    let g = guard();
    for i in 0..3u64 {
        let mut s = telemetry::span!("golden");
        s.add_cycles(i);
    }
    let trace = telemetry::export::chrome_trace_json();
    let value = json::parse(&trace).expect("trace parses as JSON");

    // Object format with a traceEvents array.
    let json::Value::Object(top) = value else {
        panic!("trace top level must be an object")
    };
    let events = top
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v)
        .expect("traceEvents present");
    let json::Value::Array(events) = events else {
        panic!("traceEvents must be an array")
    };

    // Every event is either metadata (M) or a complete (X) event — X
    // events are self-matching, satisfying the matched-B/E requirement.
    let mut x_events = 0;
    for ev in events {
        let json::Value::Object(fields) = ev else {
            panic!("event must be an object")
        };
        let ph = fields
            .iter()
            .find(|(k, _)| k == "ph")
            .map(|(_, v)| v)
            .expect("ph present");
        let json::Value::String(ph) = ph else {
            panic!("ph must be a string")
        };
        match ph.as_str() {
            "M" => {}
            "X" => {
                x_events += 1;
                for required in ["name", "ts", "dur", "pid", "tid"] {
                    assert!(
                        fields.iter().any(|(k, _)| k == required),
                        "X event missing {required}"
                    );
                }
            }
            other => panic!("unexpected phase {other}"),
        }
    }
    assert_eq!(x_events, 3, "one X event per recorded span");

    // write_all produces the three files on disk.
    let dir = std::env::temp_dir().join(format!(
        "cdpu-telemetry-test-{}",
        std::process::id()
    ));
    let paths = telemetry::export::write_all(&dir).expect("write_all");
    assert_eq!(paths.len(), 3);
    for p in &paths {
        assert!(p.exists(), "{p:?} written");
    }
    std::fs::remove_dir_all(&dir).ok();
    finish(g);
}

/// A minimal recursive-descent JSON parser — enough to *validate* exporter
/// output without external dependencies. Accepts the RFC 8259 grammar
/// (numbers are parsed via `f64::parse` on the matched lexeme).
mod json {
    #[derive(Debug, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Number(f64),
        String(String),
        Array(Vec<Value>),
        Object(Vec<(String, Value)>),
    }

    pub fn parse(s: &str) -> Result<Value, String> {
        let bytes = s.as_bytes();
        let mut pos = 0;
        let v = value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => object(b, pos),
            Some(b'[') => array(b, pos),
            Some(b'"') => Ok(Value::String(string(b, pos)?)),
            Some(b't') => lit(b, pos, "true", Value::Bool(true)),
            Some(b'f') => lit(b, pos, "false", Value::Bool(false)),
            Some(b'n') => lit(b, pos, "null", Value::Null),
            Some(_) => number(b, pos),
            None => Err("unexpected end of input".into()),
        }
    }

    fn lit(b: &[u8], pos: &mut usize, word: &str, v: Value) -> Result<Value, String> {
        if b[*pos..].starts_with(word.as_bytes()) {
            *pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {pos}", pos = *pos))
        }
    }

    fn number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        while *pos < b.len()
            && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        {
            *pos += 1;
        }
        std::str::from_utf8(&b[start..*pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Number)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected string at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let mut out = String::new();
        loop {
            match b.get(*pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = b
                                .get(*pos + 1..*pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            *pos += 4;
                        }
                        _ => return Err("bad escape".into()),
                    }
                    *pos += 1;
                }
                Some(&c) => {
                    // Multi-byte UTF-8 passes through byte-by-byte; the
                    // exporter only emits ASCII names so this is fine for
                    // validation purposes.
                    out.push(c as char);
                    *pos += 1;
                }
            }
        }
    }

    fn array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        *pos += 1; // [
        let mut items = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(value(b, pos)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected , or ] at byte {pos}", pos = *pos)),
            }
        }
    }

    fn object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        *pos += 1; // {
        let mut fields = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            skip_ws(b, pos);
            let key = string(b, pos)?;
            skip_ws(b, pos);
            if b.get(*pos) != Some(&b':') {
                return Err(format!("expected : at byte {pos}", pos = *pos));
            }
            *pos += 1;
            fields.push((key, value(b, pos)?));
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(format!("expected , or }} at byte {pos}", pos = *pos)),
            }
        }
    }
}
