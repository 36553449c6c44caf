//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer; nothing inside the program is instrumented. A span is
//! `{id, parent, op, name, start_ns, end_ns}`; spans of one op share `op`.
//! A layer's self time is its span minus what its child spans cover.
//!
//! Some children cannot be timed in place because the call that contains
//! them is one public function (`SubgraphCache::build_fused`,
//! `forward_cached`). Those are *replayed*: the same public kernels are
//! called again on the same operands after the parent returned, and the
//! measured duration is attached as a child laid out from the parent's
//! start. Replayed spans carry `"replayed": true` in the trace file.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub replayed: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans in memory; written out once, when the benchmark ends.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Per span: where the next replayed child starts.
    replay_cursor: Vec<u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self { t0: Instant::now(), spans: Vec::new(), open: Vec::new(), replay_cursor: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span and returns its id.
    pub fn enter(&mut self, op: u64, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            op,
            name,
            start_ns: now,
            end_ns: now,
            replayed: false,
        });
        self.replay_cursor.push(now);
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, op: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(op, name);
        let out = f();
        self.exit(id);
        out
    }

    /// Attaches a replayed child of `dur_ns` to the closed span `parent`,
    /// laid out after the parent's earlier replayed children.
    pub fn add_replayed(&mut self, parent: usize, name: &'static str, dur_ns: u64) -> usize {
        let id = self.spans.len();
        let start = self.replay_cursor[parent];
        self.replay_cursor[parent] = start + dur_ns;
        self.spans.push(Span {
            id,
            parent: Some(parent),
            op: self.spans[parent].op,
            name,
            start_ns: start,
            end_ns: start + dur_ns,
            replayed: true,
        });
        self.replay_cursor.push(start);
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn span(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// Self time of every span: duration minus the part of its interval
    /// its direct children cover (children are clipped to the parent, and
    /// overlapping children are counted once).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                if hi > lo {
                    kids[p].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(&mut kids)
            .map(|(s, ivs)| {
                ivs.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(lo, hi) in ivs.iter() {
                    let lo = lo.max(reach);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                s.dur_ns() - covered
            })
            .collect()
    }

    /// Σ duration of spans called `name`, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64).sum::<f64>() / 1e6
    }

    /// Σ self time of spans called `name`, in ms.
    pub fn total_self_ms(&self, name: &str) -> f64 {
        let own = self.self_ns();
        self.spans.iter().filter(|s| s.name == name).map(|s| own[s.id] as f64).sum::<f64>() / 1e6
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Mean duration of spans called `name` in ms (0 when there are none).
    pub fn mean_ms(&self, name: &str) -> f64 {
        match self.count(name) {
            0 => 0.0,
            n => self.total_ms(name) / n as f64,
        }
    }

    /// One JSON object per line, in recording order.
    pub fn to_jsonl(&self) -> String {
        let own = self.self_ns();
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"op\": {}, \"name\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"self_ns\": {}, \"replayed\": {}}}",
                s.id, parent, s.op, s.name, s.start_ns, s.end_ns, own[s.id], s.replayed
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a tracer with hand-set times so the arithmetic is exact.
    fn fixed(spans: &[(Option<usize>, u64, u64)]) -> Tracer {
        let mut t = Tracer::new();
        for (id, &(parent, start_ns, end_ns)) in spans.iter().enumerate() {
            t.spans.push(Span { id, parent, op: 0, name: "x", start_ns, end_ns, replayed: false });
            t.replay_cursor.push(start_ns);
        }
        t
    }

    #[test]
    fn self_time_is_span_minus_children() {
        // root 0..100, children 10..30 and 50..90, grandchild 55..60.
        let t = fixed(&[(None, 0, 100), (Some(0), 10, 30), (Some(0), 50, 90), (Some(2), 55, 60)]);
        assert_eq!(t.self_ns(), vec![40, 20, 35, 5]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        // children 10..60 and 40..120 over a 0..100 root cover 10..100.
        let t = fixed(&[(None, 0, 100), (Some(0), 10, 60), (Some(0), 40, 120)]);
        assert_eq!(t.self_ns()[0], 10);
    }

    #[test]
    fn replayed_children_lay_out_from_the_parent_start() {
        let mut t = Tracer::new();
        let root = t.enter(7, "parent");
        t.exit(root);
        t.spans[root].start_ns = 1_000;
        t.spans[root].end_ns = 2_000;
        t.replay_cursor[root] = 1_000;
        let a = t.add_replayed(root, "a", 300);
        let b = t.add_replayed(root, "b", 500);
        assert_eq!((t.span(a).start_ns, t.span(a).end_ns), (1_000, 1_300));
        assert_eq!((t.span(b).start_ns, t.span(b).end_ns), (1_300, 1_800));
        assert_eq!(t.span(b).op, 7);
        assert!(t.span(b).replayed);
        assert_eq!(t.self_ns()[root], 200);
        // A replay longer than what is left of the parent clips to it.
        t.add_replayed(root, "c", 900);
        assert_eq!(t.self_ns()[root], 0);
    }

    #[test]
    fn enter_exit_nest_and_jsonl_has_one_line_per_span() {
        let mut t = Tracer::new();
        let outer = t.enter(1, "outer");
        let inner = t.time(1, "inner", || 5);
        assert_eq!(inner, 5);
        t.exit(outer);
        assert_eq!(t.span(1).parent, Some(outer));
        assert_eq!(t.count("inner"), 1);
        let text = t.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    }
}
