//! Measurement primitives: windows of the timed loop, medians and the
//! in-memory span recorder of the traced run.

use crate::Outcome;
use std::io::Write as _;
use std::time::Instant;

/// The sample of rank `ceil(q * n)` among `xs` (reorders `xs`).
fn quantile(xs: &mut [u32], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    *xs.select_nth_unstable(rank - 1).1 as f64
}

/// Share of the windows (or set-up repetitions), and the least number
/// of them, that the end-to-end figures are taken from.
const QUIET_SHARE: f64 = 0.02;
const QUIET_MIN: usize = 3;

/// How many of `n` windows or repetitions are the quietest.
fn quiet_count(n: usize) -> usize {
    ((n as f64 * QUIET_SHARE).ceil() as usize)
        .max(QUIET_MIN)
        .min(n)
}

/// Median of the quietest (shortest) of a run's set-up durations: the
/// set-up figure, filtered of host noise like the timed loop's.
pub fn quiet_median(times: &[f64]) -> f64 {
    let mut v = times.to_vec();
    v.sort_by(f64::total_cmp);
    median(&v[..quiet_count(v.len())])
}

/// The timed loop cut into windows of fixed work. On a small shared
/// machine this program runs at one of two speeds about 1.8x apart,
/// switching within milliseconds or keeping one for minutes, so a run's
/// mean or median mostly measures the machine. The end-to-end figures
/// come instead from the quietest windows, those with the highest rate:
/// throughput over them, and the median over them of each window's own
/// latency quantiles.
pub struct Windows {
    /// `(ops, seconds, p50 ns, p99 ns)` of every closed window.
    done: Vec<(u64, f64, f64, f64)>,
    /// Latencies of the open window, in nanoseconds. A small buffer,
    /// so that measuring disturbs the program's caches little.
    lat: Vec<u32>,
    t0: Instant,
}

impl Windows {
    /// Start the first window now.
    pub fn new() -> Windows {
        Windows {
            done: Vec::new(),
            lat: Vec::new(),
            t0: Instant::now(),
        }
    }

    /// Record the latency of one operation in the current window.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.lat.push(u32::try_from(ns).unwrap_or(u32::MAX));
    }

    /// Close the current window after `ops` operations and start the
    /// next one.
    pub fn close(&mut self, ops: u64) {
        let secs = self.t0.elapsed().as_secs_f64();
        let (p50, p99) = (quantile(&mut self.lat, 0.5), quantile(&mut self.lat, 0.99));
        self.done.push((ops, secs, p50, p99));
        self.lat.clear();
        self.t0 = Instant::now();
    }

    /// Report `ops_per_s`, `op_p50_ns` and `op_p99_ns` from the
    /// quietest [`QUIET_SHARE`] of the windows (at least [`QUIET_MIN`]).
    pub fn report(&self, out: &mut Outcome) {
        assert!(
            !self.done.is_empty(),
            "no window of the timed loop completed"
        );
        let rate = |w: &(u64, f64, f64, f64)| w.0 as f64 / w.1;
        let mut w = self.done.clone();
        w.sort_by(|a, b| rate(b).total_cmp(&rate(a)));
        let quiet = &w[..quiet_count(w.len())];
        let ops: u64 = quiet.iter().map(|w| w.0).sum();
        let secs: f64 = quiet.iter().map(|w| w.1).sum();
        let p50: Vec<f64> = quiet.iter().map(|w| w.2).collect();
        let p99: Vec<f64> = quiet.iter().map(|w| w.3).collect();
        eprintln!("quietest {} of {} windows", quiet.len(), w.len());
        out.set("ops_per_s", ops as f64 / secs);
        out.set("op_p50_ns", median(&p50));
        out.set("op_p99_ns", median(&p99));
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One recorded span: `[start, end)` in nanoseconds since the recorder
/// was created. `op` groups the spans of one operation (an instant, a
/// compile, a batch); `parent` indexes the enclosing span.
#[derive(Clone, Copy)]
struct Span {
    op: u64,
    name: &'static str,
    parent: Option<usize>,
    start: u64,
    end: u64,
}

/// In-memory spans of the traced run, written out when it ends. A
/// disabled recorder (the untraced run) records nothing.
pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
    on: bool,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            t0: Instant::now(),
            spans: Vec::new(),
            on,
        }
    }

    /// Nanoseconds since the recorder's epoch.
    fn stamp(&self, t: Instant) -> u64 {
        t.duration_since(self.t0).as_nanos() as u64
    }

    /// Record a finished span; returns its index for children.
    pub fn add(
        &mut self,
        op: u64,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        if self.on {
            let (start, end) = (self.stamp(start), self.stamp(end));
            self.spans.push(Span {
                op,
                name,
                parent,
                start,
                end,
            });
        }
        self.spans.len().saturating_sub(1)
    }

    /// Open a span now; close it with [`Spans::close`].
    pub fn open(&mut self, op: u64, name: &'static str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.add(op, name, parent, now, now)
    }

    pub fn close(&mut self, idx: usize) {
        if self.on {
            self.spans[idx].end = self.stamp(Instant::now());
        }
    }

    /// Self time of every span named `name` (its duration minus the
    /// part covered by its direct children), in nanoseconds.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end - s.start;
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| (s.end - s.start).saturating_sub(*c) as f64)
            .collect()
    }

    /// Mean self time of the spans named `name`, in nanoseconds (0
    /// when none was recorded).
    pub fn mean_self_ns(&self, name: &str) -> f64 {
        let v = self.self_times(name);
        v.iter().fold(0.0, |a, b| a + b) / v.len().max(1) as f64
    }

    /// Record the spans of one sampled instant: the instant from the
    /// end of the previous callback to the end of this one, split into
    /// the runner's part (input binding and reaction, up to `t_in`) and
    /// the observers' part (`t_in` to `t_out`).
    pub fn instant(&mut self, op: u64, last: Instant, t_in: Instant, t_out: Instant) {
        let root = self.add(op, "instant", None, last, t_out);
        self.add(op, "sim.run_events", Some(root), last, t_in);
        self.add(op, "observe.step", Some(root), t_in, t_out);
    }

    /// Write every span as one JSON line, after a header line naming
    /// the workload and the instant sampling stride.
    pub fn write(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"op\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}
