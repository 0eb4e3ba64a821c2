//! Dependency-free JSON serialization of recordings.
//!
//! The JSON trace is the machine-readable format the bench binaries emit
//! (`table8 --trace trace.json`):
//!
//! ```json
//! {
//!   "version": 1,
//!   "nworkers": 2,
//!   "workers": [
//!     {"rank": 0, "events": [
//!       {"t": 0.000012, "kind": "task_start", "m": 3, "n": 7},
//!       {"t": 0.000391, "kind": "task_end", "m": 3, "n": 7, "quartets": 120}
//!     ]}
//!   ],
//!   "metrics": {"counters": {"quartets": 240}, "histograms": {...}}
//! }
//! ```

use std::fmt::Write as _;

use crate::event::{Event, EventKind};
use crate::metrics::{HistogramSnapshot, MetricsSnapshot, HISTOGRAM_BUCKETS};
use crate::timeline::Recording;

/// Serialize an f64 as JSON: finite shortest-ish form, no NaN/Inf output.
pub fn json_f64(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Escape a string for a JSON string literal (no surrounding quotes).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn metrics_json(m: &MetricsSnapshot) -> String {
    let mut s = String::from("{\"counters\":{");
    for (i, (name, v)) in m.counters.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{}\":{}", json_escape(name), v);
    }
    s.push_str("},\"histograms\":{");
    for (i, (name, h)) in m.histograms.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        // Trim trailing empty buckets so traces stay small.
        let last = h.buckets.iter().rposition(|&b| b != 0).map_or(0, |p| p + 1);
        let buckets: Vec<String> = h.buckets[..last].iter().map(|b| b.to_string()).collect();
        let _ = write!(
            s,
            "\"{}\":{{\"count\":{},\"sum\":{},\"buckets\":[{}]}}",
            json_escape(name),
            h.count,
            h.sum,
            buckets.join(",")
        );
    }
    s.push_str("}}");
    s
}

impl Recording {
    /// Full trace as a JSON document (version 1 schema above).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"version\":1,\"nworkers\":{},\"workers\":[",
            self.nworkers()
        );
        for rank in 0..self.nworkers() {
            if rank > 0 {
                s.push(',');
            }
            let _ = write!(s, "{{\"rank\":{rank},\"events\":[");
            for (i, e) in self.events(rank).iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(
                    s,
                    "{{\"t\":{},\"kind\":\"{}\"",
                    json_f64(e.t),
                    e.kind.name()
                );
                for (k, v) in e.kind.fields() {
                    let _ = write!(s, ",\"{}\":{}", k, json_f64(v));
                }
                s.push('}');
            }
            s.push_str("]}");
        }
        s.push_str("],\"metrics\":");
        s.push_str(&metrics_json(self.metrics()));
        s.push('}');
        s
    }
}

/// A parsed JSON value — just enough of the grammar to read back the
/// version-1 traces this module writes (and any whitespace-formatted
/// variant of them). Kept private: the public surface is
/// [`Recording::from_json`].
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            Json::Null => Some(f64::NAN),
            _ => None,
        }
    }

    fn arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("trace JSON parse error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek().ok_or_else(|| self.err("unexpected end"))? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("invalid number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos).copied() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos).copied() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(hex).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through untouched.
                    let s = &self.bytes[self.pos..];
                    let ch = std::str::from_utf8(s)
                        .map_err(|_| self.err("invalid UTF-8"))?
                        .chars()
                        .next()
                        .unwrap();
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

impl Recording {
    /// Parse a version-1 JSON trace (the format [`Recording::to_json`]
    /// writes) back into a `Recording`, so tools like `trace_diff` can
    /// compare previously exported runs. Events with unknown kinds are
    /// skipped (forward compatibility); a malformed document is an error.
    pub fn from_json(s: &str) -> Result<Recording, String> {
        let mut p = Parser::new(s);
        let doc = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing data after document"));
        }
        let version = doc.get("version").and_then(Json::num).unwrap_or(0.0);
        if version != 1.0 {
            return Err(format!("unsupported trace version {version}"));
        }
        let workers = doc
            .get("workers")
            .and_then(Json::arr)
            .ok_or("trace missing \"workers\" array")?;
        let nworkers = doc
            .get("nworkers")
            .and_then(Json::num)
            .map_or(workers.len(), |n| n as usize);
        let mut events: Vec<Vec<Event>> = vec![Vec::new(); nworkers.max(workers.len())];
        for w in workers {
            let rank = w
                .get("rank")
                .and_then(Json::num)
                .ok_or("worker missing \"rank\"")? as usize;
            if rank >= events.len() {
                events.resize(rank + 1, Vec::new());
            }
            for e in w.get("events").and_then(Json::arr).unwrap_or(&[]) {
                let t = e
                    .get("t")
                    .and_then(Json::num)
                    .ok_or("event missing \"t\"")?;
                let kind = match e.get("kind") {
                    Some(Json::Str(name)) => name,
                    _ => return Err("event missing \"kind\"".into()),
                };
                let fields: Vec<(String, f64)> = match e {
                    Json::Obj(fs) => fs
                        .iter()
                        .filter(|(k, _)| k != "t" && k != "kind")
                        .filter_map(|(k, v)| v.num().map(|n| (k.clone(), n)))
                        .collect(),
                    _ => Vec::new(),
                };
                if let Some(kind) = EventKind::from_name_fields(kind, &fields) {
                    events[rank].push(Event { t, kind });
                }
            }
        }
        let mut metrics = MetricsSnapshot::default();
        if let Some(m) = doc.get("metrics") {
            if let Some(Json::Obj(cs)) = m.get("counters") {
                for (name, v) in cs {
                    if let Some(v) = v.num() {
                        metrics.counters.insert(name.clone(), v as u64);
                    }
                }
            }
            if let Some(Json::Obj(hs)) = m.get("histograms") {
                for (name, h) in hs {
                    let mut buckets: Vec<u64> = h
                        .get("buckets")
                        .and_then(Json::arr)
                        .unwrap_or(&[])
                        .iter()
                        .filter_map(|b| b.num().map(|v| v as u64))
                        .collect();
                    // The exporter trims trailing empty buckets; restore the
                    // fixed shape live snapshots have.
                    buckets.resize(HISTOGRAM_BUCKETS, 0);
                    metrics.histograms.insert(
                        name.clone(),
                        HistogramSnapshot {
                            count: h.get("count").and_then(Json::num).unwrap_or(0.0) as u64,
                            sum: h.get("sum").and_then(Json::num).unwrap_or(0.0) as u64,
                            buckets,
                        },
                    );
                }
            }
        }
        Ok(Recording::new(events, metrics))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventKind};

    fn sample() -> Recording {
        Recording::new(
            vec![vec![
                Event {
                    t: 0.25,
                    kind: EventKind::TaskStart { m: 3, n: 7 },
                },
                Event {
                    t: 0.5,
                    kind: EventKind::TaskEnd {
                        m: 3,
                        n: 7,
                        quartets: 120,
                    },
                },
            ]],
            MetricsSnapshot::default(),
        )
    }

    #[test]
    fn json_has_schema_fields() {
        let j = sample().to_json();
        assert!(j.starts_with("{\"version\":1,\"nworkers\":1,"));
        assert!(j.contains("\"kind\":\"task_start\""));
        assert!(j.contains("\"quartets\":120"));
        assert!(j.contains("\"metrics\":{\"counters\":{"));
        // Balanced braces / brackets — cheap well-formedness check.
        let opens = j.matches('{').count();
        let closes = j.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn from_json_roundtrips_events_and_metrics() {
        let mut rec = sample();
        // Give the sample some metrics so both halves of the schema are
        // exercised.
        let mut m = MetricsSnapshot::default();
        m.counters.insert("screen.skipped".into(), 42);
        let mut buckets = vec![0; HISTOGRAM_BUCKETS];
        buckets[11] = 2;
        let h = HistogramSnapshot {
            count: 2,
            sum: 3_000,
            buckets,
        };
        m.histograms.insert("gtfock.steal_ns".into(), h);
        rec = Recording::new(rec.all_events().to_vec(), m);

        let back = Recording::from_json(&rec.to_json()).expect("parse");
        assert_eq!(back.nworkers(), rec.nworkers());
        assert_eq!(back.events(0), rec.events(0));
        assert_eq!(back.metrics().counters, rec.metrics().counters);
        assert_eq!(back.metrics().histograms, rec.metrics().histograms);
    }

    #[test]
    fn from_json_rejects_garbage_and_wrong_version() {
        assert!(Recording::from_json("not json").is_err());
        assert!(Recording::from_json("{\"version\":2,\"workers\":[]}").is_err());
        assert!(Recording::from_json("{\"version\":1}").is_err());
        // Unknown event kinds are skipped, not fatal.
        let r = Recording::from_json(
            "{\"version\":1,\"nworkers\":1,\"workers\":[{\"rank\":0,\"events\":[\
             {\"t\":1.0,\"kind\":\"from_the_future\"},\
             {\"t\":2.0,\"kind\":\"queue_access\"}]}]}",
        )
        .expect("parse");
        assert_eq!(r.events(0).len(), 1);
        assert_eq!(r.events(0)[0].kind, EventKind::QueueAccess);
    }

    #[test]
    fn json_f64_formats() {
        assert_eq!(json_f64(3.0), "3");
        assert_eq!(json_f64(0.25), "0.25");
        assert_eq!(json_f64(f64::NAN), "null");
    }

    #[test]
    fn json_escape_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
