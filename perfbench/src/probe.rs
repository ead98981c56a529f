//! Measurement plumbing shared by the workloads: per-layer timers that
//! double as tracer spans, correctness-check tallies, the work
//! fingerprint, and the order statistics the report uses.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dds_obs::{Span, Tracer};

use crate::reference;

/// Times calls into the crates from outside. Every timed call also opens
/// a span on the probe's tracer; on an untraced probe the tracer is
/// detached, so the span is inert and only the `Instant` pair remains.
pub struct Probe {
    tracer: Tracer,
    samples: RefCell<BTreeMap<&'static str, Vec<Duration>>>,
}

impl Probe {
    pub fn new(tracer: Tracer) -> Self {
        Probe {
            tracer,
            samples: RefCell::new(BTreeMap::new()),
        }
    }

    /// Runs `f` inside a span named `name` and records its wall time.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.tracer.span(name);
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed();
        drop(span);
        self.record(name, elapsed);
        out
    }

    /// An enclosing span with no timer of its own (its self time in the
    /// ledger is the glue between the timed calls it contains).
    pub fn span(&self, name: &'static str) -> Span {
        self.tracer.span(name)
    }

    /// Times one run of the CPU reference (`reference::cpu`), recorded
    /// under `host.cpu`.
    pub fn reference(&self) {
        let _span = self.tracer.span("host.reference");
        self.record("host.cpu", reference::cpu());
    }

    /// Records a duration measured elsewhere (an engine's own report).
    pub fn record(&self, name: &'static str, elapsed: Duration) {
        self.samples
            .borrow_mut()
            .entry(name)
            .or_default()
            .push(elapsed);
    }

    /// Every sample recorded under `name`, in microseconds.
    pub fn micros(&self, name: &str) -> Vec<f64> {
        self.samples
            .borrow()
            .get(name)
            .map(|d| d.iter().map(|x| x.as_secs_f64() * 1e6).collect())
            .unwrap_or_default()
    }

    /// Total recorded time under `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.micros(name).iter().fold(0.0, |a, b| a + b) / 1e3
    }
}

/// The samples of a run's repetitions, kept per position. Repetitions
/// replay identical work, so position `i` under a name is the same epoch,
/// query or solve in every repetition. Samples are stored at the nominal
/// host speed (see `reference`).
#[derive(Default)]
pub struct Repeats {
    columns: BTreeMap<&'static str, Vec<Vec<Duration>>>,
}

impl Repeats {
    /// Adds one repetition's samples, scaled to the nominal host speed:
    /// query round trips by `nominal ÷ median` of the repetition's echo
    /// round trips, every other time by the geometric mean of that factor
    /// and the CPU reference's. The reference samples themselves are
    /// kept as measured.
    pub fn add(&mut self, rep: &Probe) {
        let scale = |key: &str, nominal: Duration| {
            let measured = median(&rep.micros(key));
            assert!(measured > 0.0, "a repetition took no {key} samples");
            nominal.as_secs_f64() * 1e6 / measured
        };
        let cpu = scale("host.cpu", reference::cpu_nominal());
        let echo = scale("host.echo", reference::ECHO_NOMINAL);
        let host = (cpu * echo).sqrt();
        for (name, durations) in rep.samples.borrow().iter() {
            let factor = match *name {
                "host.cpu" | "host.echo" => 1.0,
                "serve.query" => echo,
                _ => host,
            };
            let columns = self.columns.entry(name).or_default();
            for (i, &d) in durations.iter().enumerate() {
                let d = d.mul_f64(factor);
                match columns.get_mut(i) {
                    Some(column) => column.push(d),
                    None => columns.push(vec![d]),
                }
            }
        }
    }

    /// A probe holding, for every position, the `p`-th percentile of its
    /// samples across repetitions.
    pub fn quantile(&self, p: f64) -> Probe {
        let probe = Probe::new(Tracer::detached());
        for (name, columns) in &self.columns {
            for column in columns {
                let micros: Vec<f64> = column.iter().map(|d| d.as_secs_f64() * 1e6).collect();
                probe.record(name, Duration::from_secs_f64(percentile(&micros, p) / 1e6));
            }
        }
        probe
    }
}

/// A `Write` sink the tracer can own while the run keeps a handle to the
/// bytes: spans stay in memory and are written out once, at exit.
#[derive(Clone, Default)]
pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    pub fn contents(&self) -> Vec<u8> {
        self.0.lock().expect("trace buffer poisoned").clone()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("trace buffer poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Correctness checks: each one is an attempted operation, each
/// violation a failed one.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("CHECK FAILED: {}", what());
            }
        }
    }
}

/// Every deterministic count and ratio of one repetition, keyed by name.
/// Floats are stored in their shortest round-trip form, so equality is
/// bit equality.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Fingerprint(pub BTreeMap<String, String>);

impl Fingerprint {
    pub fn count(&mut self, key: &str, value: impl Into<u64>) {
        self.0.insert(key.to_string(), value.into().to_string());
    }

    pub fn ratio(&mut self, key: &str, value: f64) {
        self.0.insert(key.to_string(), format!("{value:?}"));
    }

    pub fn text(&mut self, key: &str, value: impl std::fmt::Display) {
        self.0.insert(key.to_string(), value.to_string());
    }

    /// The numeric value stored under `key` (0 when absent or textual).
    pub fn number(&self, key: &str) -> f64 {
        self.0.get(key).and_then(|v| v.parse().ok()).unwrap_or(0.0)
    }

    /// Keys whose values differ between the two fingerprints.
    pub fn diff(&self, other: &Fingerprint) -> Vec<String> {
        let mut keys: Vec<&String> = self.0.keys().chain(other.0.keys()).collect();
        keys.sort();
        keys.dedup();
        keys.into_iter()
            .filter(|k| self.0.get(*k) != other.0.get(*k))
            .map(|k| {
                format!(
                    "{k}: {} vs {}",
                    self.0.get(k).map_or("-", String::as_str),
                    other.0.get(k).map_or("-", String::as_str)
                )
            })
            .collect()
    }
}

/// The `p`-th percentile (0–100) by nearest rank on a sorted copy; 0 for
/// no samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// FNV-1a, folded over every query response of a repetition so the
/// fingerprint pins what readers saw, not just how many answers came.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
