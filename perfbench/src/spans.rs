//! Reading a drained trace: span totals by name and self times.

use souffle::trace::Trace;

pub struct Spans {
    pub trace: Trace,
    children: Vec<Vec<usize>>,
}

impl Spans {
    pub fn new(trace: Trace) -> Spans {
        let mut children = vec![Vec::new(); trace.spans.len()];
        for (i, s) in trace.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        Spans { trace, children }
    }

    /// Summed duration, in ms, of the closed spans whose name satisfies
    /// `pick`.
    pub fn total_ms(&self, pick: impl Fn(&str) -> bool) -> f64 {
        self.trace
            .spans
            .iter()
            .filter(|s| s.end_ns.is_some() && pick(&s.name))
            .map(|s| s.dur_ns() as f64 / 1e6)
            .sum()
    }

    pub fn named_ms(&self, name: &str) -> f64 {
        self.total_ms(|n| n == name)
    }

    /// Span `i`'s duration minus the part of it its children cover, in ms.
    /// Children of one span may overlap (a wavefront level's TEs run in
    /// parallel), so the covered part is the union of their intervals.
    pub fn self_ms(&self, i: usize) -> f64 {
        let s = &self.trace.spans[i];
        let (lo, hi) = (s.start_ns, s.end_ns.unwrap_or(s.start_ns));
        let mut iv: Vec<(u64, u64)> = self.children[i]
            .iter()
            .map(|&c| {
                let c = &self.trace.spans[c];
                (
                    c.start_ns.clamp(lo, hi),
                    c.end_ns.unwrap_or(c.start_ns).clamp(lo, hi),
                )
            })
            .collect();
        iv.sort_unstable();
        let mut covered = 0;
        let mut reach = lo;
        for (a, b) in iv {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        (hi - lo - covered) as f64 / 1e6
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.trace.counters.get(name).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use souffle::trace::SpanRec;

    fn span(name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            name: name.into(),
            parent,
            start_ns,
            end_ns: Some(end_ns),
            tid: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let trace = Trace {
            spans: vec![
                span("level", None, 0, 100),
                span("te:a", Some(0), 10, 50),
                span("te:b", Some(0), 30, 70),
            ],
            ..Trace::default()
        };
        let s = Spans::new(trace);
        assert_eq!(s.self_ms(0), 40.0 / 1e6);
        assert_eq!(s.self_ms(1), 40.0 / 1e6);
        assert_eq!(s.total_ms(|n| n.starts_with("te:")), 80.0 / 1e6);
    }
}
