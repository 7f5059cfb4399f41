//! Order statistics, the run report, and process probes shared by the
//! workloads.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::process::{Command, Stdio};
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Ascending copy of `v` (total order, so a stray NaN cannot panic).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Nearest-rank quantile of an ascending, non-empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted, non-empty sample.
pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v), 0.5)
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Geometric mean of positive ratios.
pub fn geomean(v: &[f64]) -> f64 {
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// A duration in microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Peak resident set size (`VmHWM`) of a process in MiB; `None` reads
/// this process.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Calibration-kernel time, in µs, that defines unit machine speed.
pub const REFERENCE_CAL_US: f64 = 1000.0;
/// Calibration calls per slowness sample.
const CAL_CALLS: usize = 5;
/// Slowness samples the reported slowness is the median of.
const CAL_SMOOTHING: usize = 3;

/// The calibration kernel: a fixed amount of allocation, ordered-map
/// insertion and sorting in the benchmark's own code.  A shared VM's
/// CPUs drift between fast and slow phases, each on its own and over
/// seconds to minutes, that slow allocation-heavy code (like the
/// optimizer's) by up to half; no change to the program can move this
/// kernel.
fn calibration_kernel() -> usize {
    let mut map: BTreeMap<Vec<i64>, Vec<i64>> = BTreeMap::new();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..3000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key: Vec<i64> = (0..4).map(|j| ((x >> (j * 8)) & 0xff) as i64).collect();
        let mut value = key.clone();
        value.sort_unstable();
        map.insert(key, value);
    }
    let mut keys: Vec<Vec<i64>> = map.into_keys().collect();
    keys.sort_unstable_by(|a, b| b.cmp(a));
    keys.len()
}

/// Pins the calling thread to `cpu` with `taskset`; false if that fails.
pub fn pin_this_thread(cpu: usize) -> bool {
    // `/proc/thread-self` links to `<pid>/task/<tid>`.
    let Some(tid) = std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name().map(|t| t.to_string_lossy().into_owned()))
    else {
        return false;
    };
    Command::new("taskset")
        .args(["-p", "-c", &cpu.to_string(), &tid])
        .stdout(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

/// Measures how slow one CPU is right now, from a thread of its own on
/// that CPU: the median of `CAL_CALLS` calibration kernels over
/// `REFERENCE_CAL_US`, smoothed as the median of the last
/// `CAL_SMOOTHING` samples.  Each measurement window is divided by the
/// slowness taken just before it (rates multiplied), so a phase of the
/// machine cancels while any change to the program shows in full.
pub struct Calibrator {
    ask: Option<Sender<()>>,
    answer: Receiver<f64>,
    thread: Option<JoinHandle<()>>,
    recent: RefCell<VecDeque<f64>>,
}

impl Calibrator {
    /// A calibrator on `cpu`, or on this thread's CPUs when `None`.
    pub fn new(cpu: Option<usize>) -> Result<Calibrator, String> {
        let (ask, asked) = mpsc::channel::<()>();
        let (answer, answered) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            if cpu.is_some_and(|c| !pin_this_thread(c)) {
                return;
            }
            // One untimed call: a fresh thread's first call is slower.
            std::hint::black_box(calibration_kernel());
            while asked.recv().is_ok() {
                let times: Vec<f64> = (0..CAL_CALLS)
                    .map(|_| {
                        let t = Instant::now();
                        std::hint::black_box(calibration_kernel());
                        us(t.elapsed())
                    })
                    .collect();
                if answer.send(median(&times) / REFERENCE_CAL_US).is_err() {
                    return;
                }
            }
        });
        let calibrator = Calibrator {
            ask: Some(ask),
            answer: answered,
            thread: Some(thread),
            recent: RefCell::new(VecDeque::with_capacity(CAL_SMOOTHING)),
        };
        calibrator.slowness()?;
        Ok(calibrator)
    }

    pub fn slowness(&self) -> Result<f64, String> {
        let ask = self.ask.as_ref().expect("set until drop");
        let sample = ask
            .send(())
            .ok()
            .and_then(|()| self.answer.recv().ok())
            .ok_or_else(|| "the calibration thread could not pin its CPU".to_string())?;
        let mut recent = self.recent.borrow_mut();
        if recent.len() == CAL_SMOOTHING {
            recent.pop_front();
        }
        recent.push_back(sample);
        Ok(median(recent.make_contiguous()))
    }
}

impl Drop for Calibrator {
    fn drop(&mut self) {
        self.ask.take();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Per-window latency quantiles and rates at unit machine speed.  A run
/// reports the median over its windows, so a burst that covers a
/// minority of the windows does not move the result.
#[derive(Default)]
pub struct Windows {
    p50: Vec<f64>,
    p90: Vec<f64>,
    rate: Vec<f64>,
    slowness: Vec<f64>,
    raw_p50: Vec<f64>,
    samples: usize,
}

impl Windows {
    /// Adds one window: its per-operation latencies, how long it took,
    /// and the machine's slowness just before it.
    pub fn push(&mut self, latencies: &[f64], seconds: f64, slowness: f64) {
        let s = sorted(latencies);
        let p50 = quantile(&s, 0.5);
        self.raw_p50.push(p50);
        self.slowness.push(slowness);
        self.p50.push(p50 / slowness);
        self.p90.push(quantile(&s, 0.9) / slowness);
        self.rate.push(s.len() as f64 / seconds * slowness);
        self.samples += s.len();
    }

    /// One diagnostic line: the medians over windows.
    pub fn summary(&self) -> String {
        format!(
            "{} windows, median slowness {:.3}, p50 {:.1} us at unit speed, {:.1} us as measured",
            self.count(),
            median(&self.slowness),
            median(&self.p50),
            median(&self.raw_p50),
        )
    }

    pub fn count(&self) -> usize {
        self.rate.len()
    }

    /// Adds the `p50_us`, `p90_us` and `throughput_per_s` metrics.
    pub fn report(&self, report: &mut Report) {
        report.metric("p50_us", median(&self.p50), "us", self.samples);
        report.metric("p90_us", median(&self.p90), "us", self.samples);
        report.metric("throughput_per_s", median(&self.rate), "1/s", self.count());
    }
}

/// One named measurement with its unit and how many samples stand
/// behind it.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// What one invocation measured: operation counts, metrics, and
/// human-readable diagnostic lines printed ahead of the result.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Prints the diagnostic lines, one `metric` line per metric, and
    /// the one-line JSON result last.  Fails when a metric is not
    /// finite, since JSON cannot carry it.
    pub fn print(&self) -> Result<(), String> {
        for line in &self.notes {
            println!("{line}");
        }
        for m in &self.metrics {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite ({})", m.name, m.value));
            }
            println!(
                "metric {:<26} {:>16.6} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        println!("{out}");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), 5.0);
        assert_eq!(quantile(&s, 0.9), 9.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 10.0);
    }

    #[test]
    fn windows_report_medians_at_unit_speed() {
        let mut w = Windows::default();
        // Windows of 2 completions taking 1 s, 2 s, then 1 s, the middle
        // one at twice the slowness.
        w.push(&[1.0, 3.0], 1.0, 1.0);
        w.push(&[4.0, 8.0], 2.0, 2.0);
        w.push(&[1.0, 5.0], 1.0, 1.0);
        assert_eq!(w.p50, vec![1.0, 2.0, 1.0]);
        assert_eq!(w.rate, vec![2.0, 2.0, 2.0]);
        let mut report = Report::default();
        w.report(&mut report);
        let values: Vec<f64> = report.metrics.iter().map(|m| m.value).collect();
        assert_eq!(values, vec![1.0, 4.0, 2.0]);
    }
}
