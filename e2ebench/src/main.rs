//! End-to-end request benchmark for the MANI-Rank server.
//!
//! ```text
//! bash e2ebench/run.sh --workload json-cold --seed 1 --seconds 12 --trace 0
//! ```
//!
//! `--trace 0` starts `mani-serve` (a child process of this binary, with
//! `ServerConfig::default()`), drives the workload over loopback TCP from
//! two closed-loop clients, checks every reply and the server's own
//! counters, and prints the end-to-end metrics. `--trace 1` runs a shorter
//! loopback phase, replays the same requests in process with a span around
//! each layer call, and prints the per-layer metrics. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. The exit code is non-zero on any wrong reply or workload-shape
//! failure. See `e2ebench/README.md` for the workloads, the metrics, and the
//! defects they showed when the benchmark was defined.

mod drive;
mod gen;
mod json;
mod layers;
mod net;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

use drive::{drive, set_up, Checker, Phase, Stop};
use gen::{Expect, Kind, Workload};
use json::Json;

/// Set-ups per end-to-end run; `setup_s` and `peak_rss_mb` are their medians.
const SETUP_REPEATS: usize = 3;
/// Replies a timed phase collects at least, so p90 has ten samples above it.
const MIN_SAMPLES: usize = 100;
/// Hard stop for a timed phase, whatever the sample count.
const PHASE_CAP: Duration = Duration::from_secs(90);
/// Minimum replies of the traced run's loopback phase.
const TRACE_MIN_SAMPLES: usize = 40;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = args.next() {
        if flag == "--serve" {
            return Ok(None);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = value.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => seconds = value.parse().map_err(|_| "--seconds takes an integer")?,
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Some(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
    }))
}

fn main() {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            if let Err(error) = net::serve_child() {
                eprintln!("e2ebench server: {error}");
                std::process::exit(1);
            }
            return;
        }
        Err(error) => {
            eprintln!("e2ebench: {error}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            println!("{}", outcome.json());
            std::process::exit(if outcome.correct { 0 } else { 1 });
        }
        Err(error) => {
            eprintln!("e2ebench: {error}");
            std::process::exit(1);
        }
    }
}

/// What the last line reports.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Timed units generated per client: several times what the seed code
/// completes in `seconds`, so the stop rule, not the pool, ends a phase.
fn pool(kind: Kind, seconds: u64) -> usize {
    let per_second = match kind {
        Kind::JsonCold => 12,
        Kind::SchulzeWarm => 25,
        Kind::ReplayEdit => 5,
        Kind::KemenyExact => 60,
    };
    (per_second * seconds as usize + 40).min(4000)
}

fn run(args: &Args) -> Result<Outcome, String> {
    let started = std::time::Instant::now();
    let workload = gen::generate(args.kind, args.seed, pool(args.kind, args.seconds));
    let meta = Meta::collect(args, started.elapsed());
    if args.trace {
        traced_run(args, &workload, meta)
    } else {
        end_to_end_run(args, &workload, meta)
    }
}

/// Reply checks of one loopback phase.
struct Checked {
    attempted: usize,
    failed: Vec<String>,
    /// Latencies of correct replies, ms.
    latencies: Vec<f64>,
    /// Latencies of correct replies per expectation kind, ms.
    by_kind: BTreeMap<&'static str, Vec<f64>>,
}

impl Checked {
    /// Correct replies of one expectation kind.
    fn count(&self, kind: &str) -> f64 {
        self.by_kind.get(kind).map_or(0, Vec::len) as f64
    }
}

fn check_phase(phase: &Phase, checkers: &mut [Checker]) -> Checked {
    let mut checked = Checked {
        attempted: 0,
        failed: Vec::new(),
        latencies: Vec::new(),
        by_kind: BTreeMap::new(),
    };
    for (client, (samples, checker)) in phase.samples.iter().zip(checkers).enumerate() {
        for (index, sample) in samples.iter().enumerate() {
            checked.attempted += 1;
            match checker.check(sample) {
                Ok(_) => {
                    let ms = sample.latency.as_secs_f64() * 1e3;
                    checked.latencies.push(ms);
                    let kind = match sample.req.expect {
                        Expect::Solve { .. } => "solve",
                        Expect::Replay { .. } => "replay",
                        Expect::Patch => "patch",
                    };
                    checked.by_kind.entry(kind).or_default().push(ms);
                }
                Err(error) => {
                    checked
                        .failed
                        .push(format!("client {client} request {index}: {error}"));
                }
            }
        }
    }
    checked
}

/// Asserts from the server's counters that the timed phase was the workload
/// it is named for.
fn shape_failures(kind: Kind, before: &Json, after: &Json, checked: &Checked) -> Vec<String> {
    let delta = |path: &str| after.num(path) - before.num(path);
    let mut failures = Vec::new();
    let mut expect = |what: &str, got: f64, want: f64| {
        if got != want {
            failures.push(format!("workload shape: {what} = {got}, expected {want}"));
        }
    };
    match kind {
        Kind::JsonCold => {
            expect("response-cache hits", delta("response_cache/hits"), 0.0);
            expect(
                "precedence builds",
                delta("precedence_cache/builds"),
                checked.count("solve"),
            );
        }
        Kind::SchulzeWarm | Kind::KemenyExact => {
            expect("precedence builds", delta("precedence_cache/builds"), 0.0);
        }
        Kind::ReplayEdit => {
            expect(
                "delta appends",
                delta("precedence_cache/delta_appends"),
                checked.count("patch"),
            );
            expect(
                "delta rebuild fallbacks",
                delta("precedence_cache/delta_rebuild_fallbacks"),
                0.0,
            );
            // Two methods per solve: a replay is two response-cache hits.
            let served_from_cache = delta("response_cache/hits") / 2.0;
            expect(
                "share of requests served from the response cache",
                served_from_cache / checked.attempted.max(1) as f64,
                gen::REPLAYS as f64 / (gen::REPLAYS + 2) as f64,
            );
        }
    }
    failures
}

/// Half-width, in quantile units, of the window a reported quantile averages.
const SMOOTHING: f64 = 0.05;

/// Quantile `q` of `sorted`, smoothed: the mean of the order statistics
/// from quantile `q - SMOOTHING` to `q + SMOOTHING` (nearest rank), with the
/// count of samples above quantile `q` itself. Reply times over loopback come
/// in steps of the kernel's 4 ms timer tick while the delayed-ACK stall
/// lasts, so a single order statistic jumps a whole step between runs; the
/// window average moves smoothly.
fn quantile(sorted: &[f64], q: f64) -> (f64, usize) {
    let n = sorted.len();
    if n == 0 {
        return (0.0, 0);
    }
    let rank = |p: f64| ((p * n as f64).ceil() as usize).clamp(1, n);
    let window = &sorted[rank(q - SMOOTHING) - 1..rank(q + SMOOTHING)];
    (
        window.iter().sum::<f64>() / window.len() as f64,
        n - rank(q),
    )
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

fn end_to_end_run(args: &Args, workload: &Workload, meta: Meta) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut rss = Vec::new();
    let mut ready = None;
    for _ in 0..SETUP_REPEATS {
        let fresh = set_up(workload)?;
        setups.push(fresh.setup_s);
        rss.push(fresh.peak_rss_mb);
        ready = Some(fresh); // dropping the previous one stops its server
    }
    let mut ready = ready.expect("at least one set-up");
    let before = ready.server.stats()?;
    let phase = drive(
        ready.server.addr,
        &workload.timed,
        Stop::After {
            after: Duration::from_secs(args.seconds),
            min_samples: MIN_SAMPLES,
            cap: PHASE_CAP,
        },
    );
    let after = ready.server.stats()?;
    drop(ready.server);
    let checked = check_phase(&phase, &mut ready.checkers);
    let shape = shape_failures(args.kind, &before, &after, &checked);

    let mut sorted = checked.latencies.clone();
    sorted.sort_by(f64::total_cmp);
    let (p50, _) = quantile(&sorted, 0.5);
    let (p90, beyond_p90) = quantile(&sorted, 0.9);
    let correct_replies = checked.latencies.len();
    let throughput = correct_replies as f64 / phase.elapsed.as_secs_f64();
    let failed = checked.attempted - correct_replies;
    let error_rate = failed as f64 / checked.attempted.max(1) as f64;

    let mut report = String::new();
    meta.write(&mut report, &after);
    let _ = writeln!(
        report,
        "timed phase: {:.2} s, {} requests attempted, {} reconnects{}",
        phase.elapsed.as_secs_f64(),
        checked.attempted,
        phase.reconnects,
        if phase.drained {
            " (generated pool drained before the stop rule)"
        } else {
            ""
        }
    );
    let _ = writeln!(
        report,
        "throughput_rps  {throughput:.3} 1/s  ({correct_replies} correct replies)"
    );
    let _ = writeln!(
        report,
        "latency_p50_ms  {p50:.3} ms  (n = {})",
        sorted.len()
    );
    let _ = writeln!(
        report,
        "latency_p90_ms  {p90:.3} ms  (n = {}, {beyond_p90} samples above it{})",
        sorted.len(),
        if beyond_p90 < 10 {
            "; fewer than 10, so not a tail estimate"
        } else {
            ""
        }
    );
    let _ = writeln!(
        report,
        "error_rate      {error_rate:.4}  ({failed} of {})",
        checked.attempted
    );
    let _ = writeln!(
        report,
        "setup_s         {:.4} s  (median of {setups:.4?})",
        median(&setups)
    );
    let _ = writeln!(
        report,
        "peak_rss_mb     {:.2} MB  (median of {rss:.2?})",
        median(&rss)
    );
    let deciles: Vec<String> = (1..10)
        .map(|d| {
            format!(
                "{:.1}",
                sorted[(sorted.len() * d / 10).min(sorted.len() - 1)]
            )
        })
        .collect();
    let _ = writeln!(report, "  deciles (ms): {}", deciles.join(" "));
    for (kind, values) in &checked.by_kind {
        let _ = writeln!(
            report,
            "  {kind:<7} p50 {:.3} ms over {} replies",
            median(values),
            values.len()
        );
    }
    for failure in checked.failed.iter().chain(&shape).take(20) {
        let _ = writeln!(report, "FAIL {failure}");
    }
    print!("{report}");

    let correct = failed == 0 && shape.is_empty() && !checked.latencies.is_empty();
    Ok(Outcome {
        correct,
        attempted: checked.attempted,
        failed: failed + shape.len(),
        metrics: vec![
            ("throughput_rps", throughput, "1/s"),
            ("latency_p50_ms", p50, "ms"),
            ("latency_p90_ms", p90, "ms"),
            ("setup_s", median(&setups), "s"),
            ("peak_rss_mb", median(&rss), "MB"),
        ],
    })
}

fn traced_run(args: &Args, workload: &Workload, meta: Meta) -> Result<Outcome, String> {
    let mut ready = set_up(workload)?;
    let before = ready.server.stats()?;
    let (_, rss_before) = ready.server.resident_mb()?;
    let phase = drive(
        ready.server.addr,
        &workload.timed,
        Stop::After {
            after: Duration::from_secs(args.seconds.div_ceil(3)),
            min_samples: TRACE_MIN_SAMPLES,
            cap: PHASE_CAP,
        },
    );
    let after = ready.server.stats()?;
    let (_, rss_after) = ready.server.resident_mb()?;
    drop(ready.server);
    let checked = check_phase(&phase, &mut ready.checkers);
    let rss_growth_kb = (rss_after - rss_before) * 1024.0 / checked.attempted.max(1) as f64;
    let mut failures = checked.failed.clone();
    failures.extend(shape_failures(args.kind, &before, &after, &checked));

    let untraced = trace::replay(workload, &phase.units, false)?;
    drop(untraced.service);
    let traced = trace::replay(workload, &phase.units, true)?;
    let jobs = trace::engine_pass(&traced);

    // Kernel re-execution of every engine-bound solve, checked against both
    // the loopback reply and the in-process reply to the same request.
    let mut kernels = Vec::new();
    let mut appends = Vec::new();
    for (client, served) in traced.served.iter().enumerate() {
        for (index, request) in served.iter().enumerate() {
            let Some(spec) = &request.engine_spec else {
                continue;
            };
            if index > 0 && served[index - 1].is_patch {
                match trace::delta_append(spec) {
                    Some(elapsed) => appends.push(elapsed),
                    None => failures.push(format!(
                        "client {client} request {index}: delta append differs from a rebuild"
                    )),
                }
            }
            let (run, rankings) = trace::reexecute(spec);
            let in_process = trace::served_rankings(request.body.as_bytes());
            let over_loopback = phase.samples[client][index]
                .reply
                .as_ref()
                .map_err(Clone::clone)
                .and_then(|reply| trace::served_rankings(&reply.body));
            if in_process.as_ref() != Ok(&rankings) || over_loopback.as_ref() != Ok(&rankings) {
                failures.push(format!(
                    "client {client} request {index}: layer re-execution does not reproduce \
                     the served ranking"
                ));
            }
            kernels.push(run);
        }
    }

    let mut layers =
        layers::layer_metrics(&phase, &untraced.served, &traced, &jobs, &kernels, &appends);
    layers
        .metrics
        .push(("server.rss_growth_kb_per_request", rss_growth_kb, "kB"));
    let mut report = String::new();
    meta.write(&mut report, &after);
    let _ = writeln!(
        report,
        "traced run: {} requests over loopback in {:.2} s, replayed in process; \
         {} engine jobs and {} kernel re-executions",
        checked.attempted,
        phase.elapsed.as_secs_f64(),
        jobs.len(),
        kernels.len()
    );
    report.push_str(&layers.report);
    for failure in failures.iter().take(20) {
        let _ = writeln!(report, "FAIL {failure}");
    }
    print!("{report}");
    Ok(Outcome {
        correct: failures.is_empty() && checked.attempted > 0,
        attempted: checked.attempted,
        failed: failures.len(),
        metrics: layers.metrics,
    })
}

/// Run metadata printed above the metrics.
struct Meta {
    seed: u64,
    workload: &'static str,
    cores: usize,
    commit: String,
    generation: Duration,
}

impl Meta {
    fn collect(args: &Args, generation: Duration) -> Self {
        Self {
            seed: args.seed,
            workload: args.kind.name(),
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            commit: source_identity(),
            generation,
        }
    }

    fn write(&self, report: &mut String, stats: &Json) {
        let _ = writeln!(
            report,
            "meta {{\"workload\": \"{}\", \"seed\": {}, \"cores\": {}, \"commit\": \"{}\", \
             \"engine_threads\": {}, \"conn_threads\": {}, \"kernel_threads\": {}, \
             \"clients\": {}, \"input_generation_s\": {:.3}}}",
            self.workload,
            self.seed,
            self.cores,
            self.commit,
            stats.num("engine/threads"),
            stats.num("server/conn_threads"),
            stats.num("engine/kernel_threads"),
            gen::CLIENTS,
            self.generation.as_secs_f64(),
        );
    }
}

/// The commit when run from a git checkout, and always a digest of the
/// sources the benchmark builds, so runs of different code never compare
/// silently.
fn source_identity() -> String {
    let mut files = Vec::new();
    for root in ["crates", "shims", "src", "e2ebench/src"] {
        collect_files(std::path::Path::new(root), &mut files);
    }
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for path in &files {
        for byte in path
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(path).unwrap_or_default())
        {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    let head = std::fs::read_to_string(".git/HEAD").ok().and_then(|head| {
        let head = head.trim();
        match head.strip_prefix("ref: ") {
            Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
                .ok()
                .map(|commit| commit.trim().to_string()),
            None => Some(head.to_string()),
        }
    });
    match head {
        Some(commit) => format!("{commit} src-{hash:016x}"),
        None => format!("src-{hash:016x}"),
    }
}

fn collect_files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|name| name != "target") {
                collect_files(&path, out);
            }
        } else if path
            .extension()
            .is_some_and(|ext| ext == "rs" || ext == "toml")
        {
            out.push(path);
        }
    }
}
