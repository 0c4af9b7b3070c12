//! Spans recorded by the benchmark around its calls into the system: one
//! per driver call (`build`, each `run_until` slice, each query, each
//! probe), kept in memory and written out when the run ends.  Spans inside
//! the program are a later change; these measure each layer from outside.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one request (here: one replica) share this identifier.
    pub request: u64,
}

/// An open span; hand it back to [`Tracer::end`].
#[must_use = "an open span must be ended"]
pub struct Open(Option<usize>);

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    /// Spans begun from now on belong to `request`.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Record spans (or not) from now on: a traced run switches recording
    /// off for the untraced twin of each replica.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "cannot switch tracing inside an open span");
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(index);
        Open(Some(index))
    }

    pub fn end(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        assert_eq!(self.stack.pop(), Some(index), "spans must close innermost first");
        self.spans[index].end_ns = self.now_ns();
    }

    /// Time `f` under a span and return its result.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let result = f();
        self.end(open);
        result
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace as JSON: every span, plus per-name totals and self times.
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let self_ns = self_times(&self.spans);
        let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(&self_ns) {
            let entry = by_name.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span.end_ns - span.start_ns;
            entry.2 += own;
        }
        Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::Num(seed as f64)),
            (
                "layers",
                Json::Obj(
                    by_name
                        .into_iter()
                        .map(|(name, (count, total, own))| {
                            (
                                name.to_string(),
                                Json::obj([
                                    ("count", Json::Num(count as f64)),
                                    ("total_s", Json::Num(total as f64 / 1e9)),
                                    ("self_s", Json::Num(own as f64 / 1e9)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("name", Json::str(s.name)),
                                ("start_ns", Json::Num(s.start_ns as f64)),
                                ("end_ns", Json::Num(s.end_ns as f64)),
                                ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                                ("request", Json::Num(s.request as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Each span's self time: its duration minus the part of its interval its
/// direct children cover (overlapping children are not counted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let (start, end) = (span.start_ns.max(p.start_ns), span.end_ns.min(p.end_ns));
            if start < end {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in intervals.iter() {
                let start = (*start).max(reach);
                if *end > start {
                    covered += end - start;
                    reach = *end;
                }
            }
            (span.end_ns - span.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let spans = [
            span(0, 100, None),     // root
            span(10, 30, Some(0)),  // child
            span(20, 50, Some(0)),  // overlaps the first child by 10
            span(60, 70, Some(0)),  // disjoint child
            span(12, 18, Some(1)),  // grandchild: only its parent's self time shrinks
            span(90, 120, Some(0)), // sticks out of the parent: clipped to 90..100
        ];
        assert_eq!(self_times(&spans), vec![100 - (40 + 10 + 10), 20 - 6, 30, 10, 6, 30]);
    }

    #[test]
    fn tracer_nests_spans_and_a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(true);
        tracer.set_request(7);
        let outer = tracer.begin("outer");
        let value = tracer.span("inner", || 5);
        tracer.end(outer);
        assert_eq!(value, 5);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent, spans[0].request), ("outer", None, 7));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        tracer.set_enabled(false);
        assert_eq!(tracer.span("off", || 1), 1);
        assert_eq!(tracer.spans().len(), 2);
    }

    #[test]
    fn trace_json_survives_a_round_trip() {
        let mut tracer = Tracer::new(true);
        tracer.span("build", || ());
        let json = tracer.to_json("bgp-cold", 3);
        let back = Json::parse(&json.render()).unwrap();
        assert_eq!(back, json);
        assert_eq!(back.get("layers").unwrap().fields()[0].0, "build");
    }
}
