//! Loopback perf ledger for the m.Site reproduction.
//!
//! Runs the forum origin and the m.Site proxy as real HTTP servers on
//! loopback in this process, drives one named workload from closed-loop
//! HTTP/1.1 clients for a fixed window, checks every response, and prints
//! the end-to-end metrics (`--trace 0`) or the per-layer split
//! (`--trace 1`). The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! Metric names and units come from `BENCHMARK.json` in the working
//! directory; a metric the ledger computes but the file does not declare,
//! or the reverse, is an error.
//!
//! ```text
//! cargo run --release --manifest-path perfledger/Cargo.toml -- \
//!     --workload warm_browse --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Exit status: 0 when every response passed its checks, 1 when any
//! failed (the JSON line is still printed), 2 on a usage or set-up error.

mod client;
mod layers;
mod measure;
mod stack;
mod workload;

use measure::{median, millis, peak_rss_mb, quantile, sorted, tail};
use msite_support::json::Value;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{nproc, run_window, setup, Window, Workload};

/// Stacks set up per untraced run, each measured for an equal share of
/// the window; `setup_s` is the median of their set-up times.
const SEGMENTS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| *s > 0)
                        .ok_or_else(|| format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Declared metrics and workloads, read from `BENCHMARK.json`.
struct Declared {
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
    workloads: Vec<(String, String)>,
}

fn load_declared() -> Result<Declared, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json in the working directory: {e}"))?;
    let doc = Value::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let pairs = |list: &str, second: &str| -> Result<Vec<(String, String)>, String> {
        doc.get(list)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("BENCHMARK.json has no {list} list"))?
            .iter()
            .map(|entry| {
                let field = |key: &str| {
                    entry
                        .get(key)
                        .and_then(Value::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("a {list} entry has no {key}"))
                };
                Ok((field("name")?, field(second)?))
            })
            .collect()
    };
    Ok(Declared {
        end_to_end: pairs("end_to_end", "unit")?,
        per_layer: pairs("per_layer", "unit")?,
        workloads: pairs("workloads", "why")?,
    })
}

/// The git commit of the checkout, when it is one.
fn commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    match read(".git/HEAD").map(|head| head.trim().to_string()) {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(reference) => read(&format!(".git/{reference}"))
                .map(|id| id.trim().to_string())
                .unwrap_or_else(|| reference.to_string()),
            None => head,
        },
        None => "unknown (not a git checkout)".to_string(),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("perfledger: {message}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let declared = load_declared()?;
    let workload = args.workload;
    let why = declared
        .workloads
        .iter()
        .find(|(name, _)| name == workload.name())
        .map(|(_, why)| why.clone())
        .ok_or_else(|| format!("BENCHMARK.json does not declare {}", workload.name()))?;

    println!(
        "# record: workload={} seed={} seconds={} trace={} nproc={} \
         transport=loopback-tcp-127.0.0.1(not-a-real-link) loop=closed clients={} commit={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        workload.clients(),
        commit()
    );
    println!("# why: {why}");

    let window = Duration::from_secs(args.seconds);
    let mut setup_times = Vec::new();
    let (windows, metrics) = if args.trace {
        // Half the window untraced, half traced: the per-layer split and
        // the tracing overhead from one run.
        let prepared = setup(workload, args.seed)?;
        let half = window / 2;
        let untraced = run_window(&prepared, args.seed, 0, half, false);
        let before = layers::Counters::read(&prepared);
        prepared.stack.set_tracing(true);
        let traced = run_window(&prepared, args.seed, 1, half, true);
        prepared.stack.set_tracing(false);
        let after = layers::Counters::read(&prepared);
        let metrics = layers::per_layer(&prepared, args.seed, &untraced, &traced, &before, &after);
        prepared.stack.down();
        (vec![untraced, traced], metrics?)
    } else {
        // Each segment gets a freshly set-up stack. How the servers'
        // threads land on the cores locks a whole stack into one
        // throughput mode, so segments on fresh stacks average over
        // those modes instead of drawing one per run.
        let mut segments = Vec::new();
        for segment in 0..SEGMENTS {
            let started = Instant::now();
            let prepared = setup(workload, args.seed)?;
            setup_times.push(started.elapsed().as_secs_f64());
            segments.push(run_window(
                &prepared,
                args.seed,
                segment as u64,
                window / SEGMENTS as u32,
                false,
            ));
            prepared.stack.down();
        }
        let metrics = end_to_end(&segments, median(setup_times.clone()));
        (segments, metrics)
    };

    let attempted: u64 = windows.iter().map(Window::attempted).sum();
    let failed: u64 = windows.iter().map(Window::failed).sum();
    let labels: &[&str] = if args.trace {
        &["untraced half", "traced half"]
    } else {
        &["segment"; SEGMENTS]
    };
    for (window, label) in windows.iter().zip(labels) {
        report_latency(label, std::slice::from_ref(window));
        for failure in &window.failures {
            eprintln!("perfledger: failed: {failure}");
        }
    }
    report_latency("whole run", &windows);
    if !setup_times.is_empty() {
        println!(
            "# setup_s runs: {}",
            setup_times
                .iter()
                .map(|s| format!("{s:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
    }
    println!(
        "# error_rate = {failed}/{attempted} = {:.6}",
        failed as f64 / attempted.max(1) as f64
    );

    let units = if args.trace {
        &declared.per_layer
    } else {
        &declared.end_to_end
    };
    let mut emitted = Vec::new();
    for (name, value) in &metrics {
        let unit = units
            .iter()
            .find(|(declared, _)| declared == name)
            .map(|(_, unit)| unit)
            .ok_or_else(|| format!("metric {name} is not declared in BENCHMARK.json"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number"));
        }
        println!("{name:<32} {value:>14.6} {unit}");
        emitted.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    if let Some((missing, _)) = units
        .iter()
        .find(|(name, _)| !metrics.iter().any(|(m, _)| m == name))
    {
        return Err(format!("declared metric {missing} was not measured"));
    }
    if attempted == 0 {
        return Err("no request was attempted".to_string());
    }
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        emitted.join(", ")
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The end-to-end metrics of the untraced segments, in BENCHMARK.json
/// order: percentiles over all their samples, rates over their summed
/// time.
fn end_to_end(segments: &[Window], setup_s: f64) -> Vec<(&'static str, f64)> {
    let ok: Vec<_> = segments
        .iter()
        .flat_map(|w| w.samples.iter())
        .filter(|s| s.ok)
        .collect();
    let latency = sorted(ok.iter().map(|s| millis(s.latency)).collect());
    let ttfb = sorted(ok.iter().map(|s| millis(s.ttfb)).collect());
    let elapsed: Duration = segments.iter().map(|w| w.elapsed).sum();
    let cpu: Duration = segments.iter().map(|w| w.cpu).sum();
    let completed = ok.len().max(1) as f64;
    vec![
        ("setup_s", setup_s),
        ("throughput_rps", ok.len() as f64 / elapsed.as_secs_f64()),
        ("latency_p50_ms", quantile(&latency, 0.5)),
        ("latency_p90_ms", quantile(&latency, 0.9)),
        ("ttfb_p50_ms", quantile(&ttfb, 0.5)),
        (
            "wire_bytes_per_req",
            ok.iter().map(|s| s.wire_bytes as f64).sum::<f64>() / completed,
        ),
        ("cpu_ms_per_req", millis(cpu) / completed),
        ("peak_rss_mb", peak_rss_mb()),
    ]
}

/// Sample count, percentiles and the supported tail of `windows` pooled.
fn report_latency(label: &str, windows: &[Window]) {
    let latency = sorted(
        windows
            .iter()
            .flat_map(|w| w.samples.iter())
            .filter(|s| s.ok)
            .map(|s| millis(s.latency))
            .collect(),
    );
    let tail = tail(&latency).map_or("n/a (under 20 samples)".to_string(), |(p, v)| {
        format!("p{p}={v:.3} ms")
    });
    println!(
        "# {label}: {:.2} s, {} ok of {} attempted, latency n={} p50={:.3} ms \
         p90={:.3} ms max={:.3} ms, highest percentile with >=10 samples beyond: {tail}",
        windows.iter().map(|w| w.elapsed.as_secs_f64()).sum::<f64>(),
        windows.iter().map(Window::succeeded).sum::<u64>(),
        windows.iter().map(Window::attempted).sum::<u64>(),
        latency.len(),
        quantile(&latency, 0.5),
        quantile(&latency, 0.9),
        latency.last().copied().unwrap_or(0.0),
    );
}
