//! Wall-time spans around the benchmark's calls into each layer.
//!
//! Spans are kept in memory and written once, at the end of a traced run,
//! as Chrome trace-event JSON, so Perfetto shows where wall time went next
//! to the simulator's virtual-time `TRACE_*.json`. A span's self time is
//! its duration minus the time its child spans cover.

use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
struct Span {
    layer: String,
    detail: String,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
}

/// An in-memory span recorder. [`Tracer::off`] records nothing.
#[derive(Debug, Clone)]
pub struct Tracer {
    origin: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// The handle [`Tracer::open`] returns and [`Tracer::close`] takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            origin: None,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer whose timestamps count from `origin`.
    pub fn on(origin: Instant) -> Self {
        Tracer {
            origin: Some(origin),
            ..Tracer::off()
        }
    }

    /// Opens a span named after a layer's public function, with a detail
    /// such as the experiment slug; the innermost open span is its parent.
    pub fn open(&mut self, layer: &str, detail: &str) -> SpanId {
        let Some(origin) = self.origin else {
            return SpanId(None);
        };
        let id = self.spans.len();
        self.spans.push(Span {
            layer: layer.to_string(),
            detail: detail.to_string(),
            start: origin.elapsed(),
            end: Duration::ZERO,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes a span; spans close innermost first.
    pub fn close(&mut self, span: SpanId) {
        let (Some(origin), Some(id)) = (self.origin, span.0) else {
            return;
        };
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.retain(|&open| open != id);
        self.spans[id].end = origin.elapsed();
    }

    /// A span's duration minus the time its direct children cover
    /// (children are sequential, so their durations add).
    fn self_time(&self, id: usize) -> Duration {
        let span = &self.spans[id];
        let children: Duration = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end - s.start)
            .sum();
        (span.end - span.start).saturating_sub(children)
    }

    /// Total self time per layer name, in first-seen order.
    pub fn self_time_by_layer(&self) -> Vec<(String, Duration)> {
        let mut totals: Vec<(String, Duration)> = Vec::new();
        for (id, span) in self.spans.iter().enumerate() {
            let time = self.self_time(id);
            match totals.iter_mut().find(|(layer, _)| *layer == span.layer) {
                Some((_, total)) => *total += time,
                None => totals.push((span.layer.clone(), time)),
            }
        }
        totals
    }

    /// The spans as Chrome trace-event JSON (complete `X` events, one
    /// thread; `args` carry the detail, the parent span and the self time).
    pub fn chrome_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, span)| {
                let parent = span.parent.map_or(String::new(), |p| {
                    let p = &self.spans[p];
                    format!("{} {}", p.layer, p.detail).trim().to_string()
                });
                format!(
                    "{{\"name\": \"{}\", \"cat\": \"perfbench\", \"ph\": \"X\", \"ts\": {:.3}, \
                     \"dur\": {:.3}, \"pid\": 1, \"tid\": 1, \"args\": {{\"detail\": \"{}\", \
                     \"parent\": \"{}\", \"self_us\": {:.3}}}}}",
                    escape(&span.layer),
                    micros(span.start),
                    micros(span.end - span.start),
                    escape(&span.detail),
                    escape(&parent),
                    micros(self.self_time(id)),
                )
            })
            .collect();
        format!(
            "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n{}\n]}}\n",
            events.join(",\n")
        )
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Escapes a string for a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let mut tracer = Tracer::on(Instant::now());
        let outer = tracer.open("outer", "");
        let inner = tracer.open("inner", "x");
        std::thread::sleep(Duration::from_millis(2));
        tracer.close(inner);
        tracer.close(outer);
        let totals = tracer.self_time_by_layer();
        assert_eq!(totals[0].0, "outer");
        assert!(totals[0].1 < totals[1].1, "{totals:?}");
        assert!(tracer.chrome_json().contains("\"parent\": \"outer\""));

        let mut off = Tracer::off();
        let span = off.open("outer", "");
        off.close(span);
        assert!(off.self_time_by_layer().is_empty());
    }

    #[test]
    fn escape_quotes_and_control_characters() {
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }
}
