//! The benchmark's own spans, recorded around every call it makes into
//! a layer of the program. Spans stay in memory and are written out in
//! Chrome/Perfetto trace format when the run ends. Spans inside the
//! program are not recorded here.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed or open span.
#[derive(Debug, Clone)]
pub struct Span {
    /// The crate whose public function the span covers.
    pub layer: &'static str,
    pub name: &'static str,
    /// Frame, request, solve or kernel-run id (0 where none applies).
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle of an entered span; pass it back to [`SpanLog::exit`].
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Open(Option<usize>);

/// An in-memory span recorder. A disabled log records nothing, so the
/// untraced run takes the same code path at the cost of one branch.
pub struct SpanLog {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl SpanLog {
    pub fn new(enabled: bool) -> Self {
        SpanLog {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, layer: &'static str, name: &'static str, id: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name,
            id,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        let idx = self.spans.len() - 1;
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close `open`, which must be the innermost open span.
    pub fn exit(&mut self, open: Open) {
        let Open(Some(idx)) = open else {
            return;
        };
        let top = self.stack.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    pub fn scope<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.enter(layer, name, id);
        let out = f();
        self.exit(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer in nanoseconds: each span's duration minus
    /// the part of it its child spans cover.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(children);
            *out.entry(s.layer).or_insert(0) += own;
        }
        out
    }

    /// Chrome trace JSON: one complete (`ph: X`) event per span, with
    /// its id and parent index in `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                concat!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,",
                    "\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{},\"id\":{},\"parent\":{}}}}}"
                ),
                s.name,
                s.layer,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                i,
                s.id,
                parent,
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut log = SpanLog::new(true);
        let outer = log.enter("outer", "round", 1);
        let inner = log.enter("inner", "call", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        log.exit(inner);
        log.exit(outer);
        let s = log.spans();
        assert_eq!(s[1].parent, Some(0));
        let own = log.self_ns();
        let outer_total = s[0].end_ns - s[0].start_ns;
        let inner_total = s[1].end_ns - s[1].start_ns;
        assert_eq!(own["inner"], inner_total);
        assert_eq!(own["outer"], outer_total - inner_total);
        assert!(log.to_chrome_json().contains("\"parent\":0"));
    }

    #[test]
    fn a_disabled_log_records_nothing() {
        let mut log = SpanLog::new(false);
        let v = log.scope("layer", "call", 3, || 7);
        assert_eq!(v, 7);
        assert!(log.spans().is_empty());
    }
}
