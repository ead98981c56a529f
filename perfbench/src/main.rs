//! The repository benchmark binary. Runs one workload in-process for a
//! fixed wall-clock budget, checks its outputs, and prints the metrics as
//! the last line of stdout (one JSON object; `perfbench/run.py` adds the
//! cross-run fingerprint check).
//!
//! ```text
//! perfbench --workload <static_planted|shard_serve|cluster_sweep>
//!           --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` alternates
//! untraced and traced repetitions, reports the per-layer metrics from the
//! traced ones, prints the per-layer ledger (count, total and self time
//! per span, aggregated by `dds_obs::TraceProfile`) and the tracing
//! overhead, and writes the span JSONL into `--out-dir`.

mod cluster_sweep;
mod cpu;
mod inputs;
mod probe;
mod reference;
mod serving;
mod shard_serve;
mod spots;
mod static_planted;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use dds_obs::{render_table, TraceProfile, Tracer};

use probe::{median, percentile, Checks, Fingerprint, Probe, Repeats, SharedBuf};

/// End-to-end metrics (name, unit), reported with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("exact_s", "s"),
    ("approx_s", "s"),
    ("approx_gap", "ratio"),
    ("ingest_eps", "1/s"),
    ("visible_ms.p50", "ms"),
    ("visible_ms.p99", "ms"),
    ("query_us.p50", "us"),
    ("certified_factor.p50", "ratio"),
    ("certified_factor.max", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (name, unit), reported with `--trace 1`. A layer a
/// workload bypasses reads 0 there.
const PER_LAYER: &[(&str, &str)] = &[
    ("graph.parse_ms", "ms"),
    ("stream.parse_ms", "ms"),
    ("xycore.sweep_evals", "count"),
    ("xycore.core_cache_hits", "count"),
    ("core.ratios_solved", "count"),
    ("core.ratios_pruned", "count"),
    ("core.ratios_pruned_tie", "count"),
    ("flow.decisions", "count"),
    ("flow.network_edges", "count"),
    ("flow.arena_reuse_hits", "count"),
    ("shard.apply_ms", "ms"),
    ("shard.certify_ms", "ms"),
    ("sketch.sweep_ms", "ms"),
    ("sketch.escalate_ms", "ms"),
    ("shard.refreshes", "count"),
    ("shard.escalations", "count"),
    ("shard.retained_max", "count"),
    ("stream.snapshot_ms", "ms"),
    ("stream.snapshot_bytes", "bytes"),
    ("serve.publish_us.p50", "us"),
    ("serve.publish_us.p99", "us"),
    ("serve.answer_us.p50", "us"),
    ("serve.query_us.p99", "us"),
    ("cluster.apply_ms", "ms"),
    ("cluster.digest_ms", "ms"),
    ("cluster.wire_ms", "ms"),
    ("cluster.digest_bytes", "bytes"),
    ("cluster.digest_ratio", "ratio"),
    ("cluster.fold_ms", "ms"),
    ("cluster.seal_ms", "ms"),
    ("cluster.refreshes", "count"),
    ("cluster.escalations", "count"),
    ("cluster.degraded_seals", "count"),
    ("trace.overhead_pct", "%"),
];

/// Each timed position reports this percentile of its samples across the
/// run's repetitions, after the samples were scaled to the nominal host
/// speed (`reference`).
const POSITION_STAT: f64 = 50.0;

/// CPU reference runs before and after each repetition (the streaming
/// workloads add more inside it).
const REFERENCES: usize = 3;

/// Repetitions run even when the budget is already spent: two give an
/// in-run determinism check, and a traced run needs one of each kind.
const MIN_REPS: usize = 2;

/// Where a per-layer metric's value comes from.
pub enum Value {
    /// Recorded time under this probe key, in ms per repetition.
    TotalMs(&'static str),
    /// Median of the per-call times under this probe key, in µs.
    P50Us(&'static str),
    /// 99th percentile of the per-call times under this probe key, in µs.
    P99Us(&'static str),
    /// The fingerprint entry named like the metric (a deterministic count
    /// or ratio per repetition).
    Fingerprint,
}

/// One per-layer metric a workload exercises, and the span whose count,
/// total and self time the ledger lists beside it.
pub struct Layer {
    pub metric: &'static str,
    pub span: &'static str,
    pub value: Value,
}

impl Layer {
    pub const fn new(metric: &'static str, span: &'static str, value: Value) -> Self {
        Layer {
            metric,
            span,
            value,
        }
    }
}

pub trait Workload {
    /// One repetition on fresh engines. `in_process` asks the workload to
    /// also time in-process answers. Returns the repetition's fingerprint.
    fn rep(&mut self, probe: &Probe, checks: &mut Checks, in_process: bool) -> Fingerprint;

    fn layers(&self) -> &'static [Layer];

    /// Vertices and edges of the CPU reference's digraph, and its time on
    /// the nominal host (`reference`).
    fn reference(&self) -> (usize, usize, Duration);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut out_dir) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value:?}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                });
            }
            "--out-dir" => out_dir = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        out_dir,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let gen_start = Instant::now();
    let mut workload: Box<dyn Workload> = match args.workload.as_str() {
        "static_planted" => Box::new(static_planted::StaticPlanted::new(args.seed)),
        "shard_serve" => Box::new(shard_serve::ShardServe::new(args.seed)),
        "cluster_sweep" => Box::new(cluster_sweep::ClusterSweep::new(args.seed)),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    println!(
        "{} seed {}: inputs generated in {:.3}s (not measured)",
        args.workload,
        args.seed,
        gen_start.elapsed().as_secs_f64()
    );
    println!("{}", run(workload.as_mut(), &args));
}

/// The measured loop plus the report; returns the final JSON line.
fn run(workload: &mut dyn Workload, args: &Args) -> String {
    let trace_buf = SharedBuf::default();
    let tracer = if args.trace {
        Tracer::to_writer(Box::new(trace_buf.clone()), true)
    } else {
        Tracer::detached()
    };
    let (mut untraced, mut traced) = (Repeats::default(), Repeats::default());
    let mut traced_reps = 0;
    let mut checks = Checks::default();
    let mut fingerprint: Option<Fingerprint> = None;
    let mut rss_mb = 0.0;
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut rep = 0;
    // A repetition starts only if one as long as the last still ends
    // within the budget, so a run overruns `--seconds` by little.
    let mut last_rep = Duration::ZERO;
    let cpus = cpu::allowed();
    let (n, m, nominal) = workload.reference();
    reference::prepare(n, m, nominal);
    while rep < MIN_REPS || start.elapsed() + last_rep <= budget {
        let on = cpu::pin_fastest(&cpus);
        let is_traced = args.trace && rep % 2 == 1;
        let probe = Probe::new(if is_traced {
            tracer.clone()
        } else {
            Tracer::detached()
        });
        let rep_start = Instant::now();
        let fp = {
            let _span = probe.span("rep");
            for _ in 0..REFERENCES {
                probe.reference();
            }
            let fp = workload.rep(&probe, &mut checks, is_traced);
            for _ in 0..REFERENCES {
                probe.reference();
            }
            fp
        };
        last_rep = rep_start.elapsed();
        if rep == 0 {
            rss_mb = peak_rss_mb();
        }
        let wall = last_rep.as_secs_f64() - probe.total_ms("check") / 1e3;
        println!(
            "repetition {rep}{} on CPU {on}: {wall:.3}s (setup {:.1}ms, visible {:.1}ms, exact {:.1}ms, approx {:.1}ms), query p50 {:.1}us; references: cpu {:.3}ms, echo {:.1}us",
            if is_traced { " (traced)" } else { "" },
            probe.total_ms("setup"),
            probe.total_ms("epoch"),
            probe.total_ms("core.exact"),
            probe.total_ms("core.approx"),
            median(&probe.micros("serve.query")),
            median(&probe.micros("host.cpu")) / 1e3,
            median(&probe.micros("host.echo"))
        );
        match &fingerprint {
            None => fingerprint = Some(fp),
            Some(first) => {
                let diff = first.diff(&fp);
                checks.check(diff.is_empty(), || {
                    format!("repetition {rep} did different work: {}", diff.join("; "))
                });
            }
        }
        if is_traced {
            traced_reps += 1;
            traced.add(&probe);
        } else {
            untraced.add(&probe);
        }
        rep += 1;
    }
    let fp = fingerprint.expect("at least one repetition ran");
    println!(
        "{} repetitions ({} traced) in {:.3}s; {} checks, {} failed",
        rep,
        traced_reps,
        start.elapsed().as_secs_f64(),
        checks.attempted,
        checks.failed
    );
    for (key, value) in &fp.0 {
        println!("fingerprint {key} = {value}");
    }

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let ledger = Ledger::new(&trace_buf.contents());
        if let Some(dir) = &args.out_dir {
            let path = format!("{dir}/trace-{}-{}.jsonl", args.workload, args.seed);
            std::fs::write(&path, trace_buf.contents()).expect("write the span trace");
            println!("span trace written to {path}");
        }
        let traced_scaled = traced.quantile(POSITION_STAT);
        let (with, without) = (
            compared_ms(&traced_scaled),
            compared_ms(&untraced.quantile(POSITION_STAT)),
        );
        let overhead = (with / without - 1.0) * 100.0;
        let values = layer_values(workload.layers(), &traced_scaled, &fp);
        print!("{}", ledger.render(workload.layers(), &values));
        println!(
            "tracing overhead: {overhead:+.2}% (visible windows + query round trips: traced {with:.3}ms vs untraced {without:.3}ms per repetition)"
        );
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = if name == "trace.overhead_pct" {
                    overhead
                } else {
                    values.get(name).copied().unwrap_or(0.0)
                };
                (name, value, unit)
            })
            .collect()
    } else {
        let scaled = untraced.quantile(POSITION_STAT);
        let mut e2e = end_to_end(&scaled, &fp);
        e2e.insert("peak_rss_mb", rss_mb);
        println!(
            "positions (each at the nominal host speed, percentile {POSITION_STAT} of {} repetitions): exact {}, approx {}, visible {}, query {}",
            rep,
            scaled.micros("core.exact").len(),
            scaled.micros("core.approx").len(),
            scaled.micros("epoch").len(),
            scaled.micros("serve.query").len()
        );
        END_TO_END
            .iter()
            .map(|&(name, unit)| (name, e2e[name], unit))
            .collect()
    };

    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.failed == 0,
        checks.attempted,
        checks.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    out.push_str("}, \"fingerprint\": {");
    for (i, (key, value)) in fp.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{key}\": \"{value}\"");
    }
    out.push_str("}}");
    out
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

/// The process's peak resident set so far (`VmHWM`), in MB. Read after the
/// first repetition: the inputs and one pass of the workload. Later
/// repetitions repeat that work on fresh engines, and what they add to the
/// peak is the allocator's fragmentation, which grew some 40 s runs of
/// `cluster_sweep` by 5 MB at random.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// The work both kinds of repetition do alike, in ms per repetition: the
/// visible windows and the query round trips (each position's scaled
/// median). Traced repetitions also answer the queries in process and
/// every repetition runs its exact and approximate solves outside these
/// windows, so whole-repetition walls would not compare like with like.
fn compared_ms(scaled: &Probe) -> f64 {
    scaled.total_ms("epoch") + scaled.total_ms("serve.query")
}

fn end_to_end(scaled: &Probe, fp: &Fingerprint) -> BTreeMap<&'static str, f64> {
    let visible = scaled.micros("epoch");
    let query = scaled.micros("serve.query");
    let visible_s = visible.iter().fold(0.0, |a, b| a + b) / 1e6;
    BTreeMap::from([
        ("setup_s", median(&scaled.micros("setup")) / 1e6),
        ("exact_s", median(&scaled.micros("core.exact")) / 1e6),
        ("approx_s", median(&scaled.micros("core.approx")) / 1e6),
        ("approx_gap", fp.number("approx_gap")),
        ("ingest_eps", fp.number("events") / visible_s),
        ("visible_ms.p50", percentile(&visible, 50.0) / 1e3),
        ("visible_ms.p99", percentile(&visible, 99.0) / 1e3),
        ("query_us.p50", percentile(&query, 50.0)),
        ("certified_factor.p50", fp.number("certified_factor.p50")),
        ("certified_factor.max", fp.number("certified_factor.max")),
    ])
}

fn layer_values(layers: &[Layer], probe: &Probe, fp: &Fingerprint) -> BTreeMap<&'static str, f64> {
    layers
        .iter()
        .map(|layer| {
            let value = match layer.value {
                Value::TotalMs(key) => probe.total_ms(key),
                Value::P50Us(key) => percentile(&probe.micros(key), 50.0),
                Value::P99Us(key) => percentile(&probe.micros(key), 99.0),
                Value::Fingerprint => fp.number(layer.metric),
            };
            (layer.metric, value)
        })
        .collect()
}

/// Per-span count, total and self time of the traced repetitions, read
/// from `dds_obs`'s profile table.
struct Ledger {
    table: String,
    rows: BTreeMap<String, (u64, u64, u64)>,
}

impl Ledger {
    fn new(jsonl: &[u8]) -> Self {
        let profile = TraceProfile::from_jsonl(&String::from_utf8_lossy(jsonl))
            .expect("the tracer writes well-formed span lines");
        let table = render_table(&profile);
        let rows = table
            .lines()
            .skip(1)
            .filter(|line| !line.starts_with('#'))
            .filter_map(|line| {
                let f: Vec<&str> = line.split_whitespace().collect();
                match f[..] {
                    [name, count, total, selfs] => Some((
                        name.to_string(),
                        (
                            count.parse().ok()?,
                            total.parse().ok()?,
                            selfs.parse().ok()?,
                        ),
                    )),
                    _ => None,
                }
            })
            .collect();
        Ledger { table, rows }
    }

    fn render(&self, layers: &[Layer], values: &BTreeMap<&'static str, f64>) -> String {
        let mut out = String::from(
            "per-layer ledger (traced repetitions; span times are totals over them)\n",
        );
        let _ = writeln!(
            out,
            "{:<24} {:>14}  {:<16} {:>9} {:>12} {:>12}",
            "metric", "value", "span", "count", "total_ms", "self_ms"
        );
        for layer in layers {
            let (count, total, selfs) = self.rows.get(layer.span).copied().unwrap_or_default();
            let _ = writeln!(
                out,
                "{:<24} {:>14.3}  {:<16} {:>9} {:>12.3} {:>12.3}",
                layer.metric,
                values[layer.metric],
                layer.span,
                count,
                total as f64 / 1e3,
                selfs as f64 / 1e3
            );
        }
        out.push_str("all spans:\n");
        out.push_str(&self.table);
        out
    }
}
