//! In-memory span tracing around calls into the workspace's crates.
//!
//! A span is a named interval with the span that caused it; every span of
//! one routed run (or one set-up) shares that run's id. Spans stay in
//! memory while the benchmark measures and are written out once it ends.
//! A span's *self time* is its duration minus the part of it that its
//! child spans cover, so within one run the self times of all spans add
//! up to the root span's wall time.

use std::io::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// The routed run (or set-up) the span belongs to.
    pub run: u32,
    /// Layer-qualified name, e.g. `core.route`.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start: u64,
    /// Nanoseconds since the tracer started.
    pub end: u64,
    /// Index of the enclosing span, `None` for a run's root.
    pub parent: Option<usize>,
}

/// Records nested spans on one thread. A disabled tracer runs the same
/// closures and records nothing, so traced and untraced runs execute the
/// same code.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    next_run: u32,
}

impl Tracer {
    /// An empty tracer whose clock starts now; `enabled == false` makes
    /// every span a plain call.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_run: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` under a new root span `name` with a fresh run id.
    pub fn run<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        assert!(self.open.is_empty(), "runs do not nest");
        self.next_run += 1;
        self.span(name, f)
    }

    /// Runs `f` under a span `name`, a child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            run: self.next_run,
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.now();
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in the order of [`Tracer::spans`].
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| self_time((s.start, s.end), kids))
            .collect()
    }

    /// Self times of the spans named `name`, in seconds, one per span.
    pub fn self_seconds(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_times())
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 * 1e-9)
            .collect()
    }

    /// Self times of the spans named `name` summed per run, in seconds,
    /// one entry per run whose root is named `root`.
    pub fn per_run_seconds(&self, root: &str, name: &str) -> Vec<f64> {
        let selfs = self.self_times();
        self.spans
            .iter()
            .filter(|r| r.parent.is_none() && r.name == root)
            .map(|r| {
                self.spans
                    .iter()
                    .zip(&selfs)
                    .filter(|(s, _)| s.run == r.run && s.name == name)
                    .map(|(_, &ns)| ns as f64 * 1e-9)
                    .sum()
            })
            .collect()
    }

    /// Runs whose span self times do not add up to the root's wall time
    /// (an unclosed span or a child outside its parent), as
    /// `(run, root wall, sum of self times)`.
    pub fn unbalanced_runs(&self) -> Vec<(u32, u64, u64)> {
        let selfs = self.self_times();
        self.spans
            .iter()
            .filter(|r| r.parent.is_none())
            .filter_map(|r| {
                let sum: u64 = self
                    .spans
                    .iter()
                    .zip(&selfs)
                    .filter(|(s, _)| s.run == r.run)
                    .map(|(_, &ns)| ns)
                    .sum();
                (sum != r.end - r.start).then_some((r.run, r.end - r.start, sum))
            })
            .collect()
    }

    /// Writes one JSON object per span, with its self time, to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"run\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"self_ns\":{self_ns}}}",
                s.run, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// `span` minus the union of `children`, each clipped to `span`. Children
/// may overlap one another; the shared part is subtracted once.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (lo, hi) = span;
    let mut kids: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| s < e)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (s, e) in kids {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (hi - lo) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_disjoint_children() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 20), (50, 80)]), 60);
    }

    #[test]
    fn self_time_counts_overlap_once() {
        // [10,40) ∪ [30,60) ∪ [35,45) = [10,60): 50 ns covered.
        assert_eq!(self_time((0, 100), &[(30, 60), (10, 40), (35, 45)]), 50);
        // A child spanning the whole parent leaves nothing.
        assert_eq!(self_time((0, 100), &[(0, 100), (20, 30)]), 0);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        assert_eq!(self_time((10, 20), &[(0, 15), (18, 40)]), 3);
        assert_eq!(self_time((10, 20), &[(30, 40)]), 10);
    }

    #[test]
    fn nested_runs_balance_and_keep_parents() {
        let mut t = Tracer::new(true);
        let x = t.run("run", |t| {
            t.span("a", |t| t.span("a.inner", |_| 1)) + t.span("b", |_| 2)
        });
        assert_eq!(x, 3);
        t.run("run", |t| t.span("a", |_| ()));
        let spans = t.spans();
        assert_eq!(spans.len(), 6);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        assert_eq!((spans[0].run, spans[4].run, spans[5].run), (1, 2, 2));
        assert!(t.unbalanced_runs().is_empty());
        assert_eq!(t.per_run_seconds("run", "a").len(), 2);
        assert_eq!(t.self_seconds("a").len(), 2);
    }

    #[test]
    fn disabled_tracer_runs_closures_and_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.run("run", |t| t.span("a", |_| 5)), 5);
        assert!(t.spans().is_empty());
    }
}
