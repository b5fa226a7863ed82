//! Small measurement helpers: quantiles, process CPU and memory readings,
//! and the span recorder of the traced run.

use std::time::Instant;

/// Nearest-rank quantile of an unsorted sample (0 for an empty one).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `numerator / denominator`, or 0 when nothing was counted.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// User plus system CPU seconds of this process, all threads included
/// (`/proc/self/stat` fields 14 and 15, in USER_HZ = 100 ticks).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields resume after its `)`.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // After `)`: field 3 (state) is index 0, so utime (14) is 11, stime 12.
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Sub-windows per measured window. Throughput, latency quantiles and CPU
/// per op are computed per sub-window and reported at the better quartile
/// across them (the 75th percentile of throughput, the 25th of latency and
/// CPU): interference from other tenants of a shared host, which only ever
/// slows a sub-window, must then reach more than half of them to move a
/// figure.
pub const SUB_WINDOWS: usize = 12;

/// Reads the process CPU clock at `base` and at the end of each of the
/// [`SUB_WINDOWS`] sub-windows of `seconds`; join it after the window.
pub fn spawn_cpu_sampler(base: Instant, seconds: f64) -> std::thread::JoinHandle<Vec<f64>> {
    std::thread::spawn(move || {
        (0..=SUB_WINDOWS)
            .map(|k| {
                let at = base
                    + std::time::Duration::from_secs_f64(seconds * k as f64 / SUB_WINDOWS as f64);
                if let Some(wait) = at.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                cpu_seconds()
            })
            .collect()
    })
}

/// End-to-end figures of one window.
#[derive(Debug, Clone)]
pub struct WindowFigures {
    /// Successful ops completed per second (better quartile of the
    /// sub-windows).
    pub ops_per_s: f64,
    /// Op latency median, µs (better quartile of the sub-windows).
    pub p50_us: f64,
    /// Op latency p99, µs (better quartile of the sub-windows).
    pub p99_us: f64,
    /// Process CPU per successful op, µs (better quartile of the
    /// sub-windows).
    pub cpu_us_per_op: f64,
    /// Successful ops that completed inside the window.
    pub ops: usize,
    /// The fewest ops any sub-window held.
    pub min_sub_ops: usize,
    /// Successful ops per second of each sub-window.
    pub sub_rates: Vec<f64>,
}

/// Summarises successful ops given as `(completion s after the window
/// opened, latency µs)`; ops completing after `seconds` are left out. `cpu`
/// holds the sampler's readings.
pub fn window_figures(ops: &[(f64, f64)], cpu: &[f64], seconds: f64) -> WindowFigures {
    let len = seconds / SUB_WINDOWS as f64;
    let mut subs: Vec<Vec<f64>> = vec![Vec::new(); SUB_WINDOWS];
    for &(done, lat) in ops {
        let k = (done / len).floor();
        if k >= 0.0 && (k as usize) < SUB_WINDOWS {
            subs[k as usize].push(lat);
        }
    }
    let per = |q: f64, f: &dyn Fn(usize, &[f64]) -> f64| -> f64 {
        quantile(
            &subs
                .iter()
                .enumerate()
                .map(|(k, v)| f(k, v))
                .collect::<Vec<_>>(),
            q,
        )
    };
    WindowFigures {
        ops_per_s: per(0.75, &|_, v| v.len() as f64 / len),
        p50_us: per(0.25, &|_, v| median(v)),
        p99_us: per(0.25, &|_, v| quantile(v, 0.99)),
        cpu_us_per_op: per(0.25, &|k, v| {
            let used = cpu.get(k + 1).zip(cpu.get(k)).map_or(0.0, |(b, a)| b - a);
            ratio(used * 1e6, v.len() as f64)
        }),
        ops: subs.iter().map(Vec::len).sum(),
        min_sub_ops: subs.iter().map(Vec::len).min().unwrap_or(0),
        sub_rates: subs.iter().map(|v| v.len() as f64 / len).collect(),
    }
}

/// One recorded span: a named interval, the span that caused it, and the
/// operation it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name, e.g. `protocol.parse`.
    pub name: &'static str,
    /// Start, in ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, in ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Operation id shared by every span of one request or arrival.
    pub op: u64,
}

/// In-memory span recorder. A disabled tracer records nothing, so the
/// traced and untraced paths run the same code.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

/// Handle of an open span; pass it to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    index: usize,
    started: Instant,
}

impl Tracer {
    /// A recorder timing relative to `epoch`.
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
        }
    }

    /// Opens a span.
    pub fn begin(&mut self, name: &'static str, op: u64, parent: Option<Open>) -> Open {
        let started = Instant::now();
        let index = self.spans.len();
        if self.enabled {
            let start_ns = started.duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: parent.map(|p| p.index),
                op,
            });
        }
        Open { index, started }
    }

    /// Closes a span and returns its duration in µs.
    pub fn end(&mut self, open: Open) -> f64 {
        let now = Instant::now();
        if let Some(span) = self.spans.get_mut(open.index).filter(|_| self.enabled) {
            span.end_ns = now.duration_since(self.epoch).as_nanos() as u64;
        }
        now.duration_since(open.started).as_secs_f64() * 1e6
    }

    /// Now, in ns since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another tracer's spans (parents re-based).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Drops everything recorded so far.
    pub fn clear(&mut self) {
        self.spans.clear();
    }

    /// Writes the spans as JSON lines (`id` is the line's index).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_times() {
        let mut t = Tracer::new(false, Instant::now());
        let open = t.begin("x", 0, None);
        assert!(t.end(open) >= 0.0);
        assert!(t.spans().is_empty());
    }
}
