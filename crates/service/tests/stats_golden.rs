//! Golden differential test for the two counter surfaces: `Service::stats`
//! (the `/v1/stats` JSON document) and `Service::metrics_exposition` (the
//! Prometheus text on `/metrics`).
//!
//! A fixed script drives the service through every counter-moving operation,
//! then both renderers run against a fixed [`TransportStats`]. The output is
//! compared with the committed files under `tests/golden/`:
//!
//! * `/v1/stats` byte for byte, after masking;
//! * `/metrics` as a set of family blocks (HELP, TYPE, sample names, label
//!   sets, values), so family order may change but nothing else.
//!
//! A change that means to alter either surface edits the golden files in
//! the same commit, so the diff shows exactly what moved.
//!
//! Only time-derived values are masked (see [`STATS_MASKS`] and
//! [`METRIC_MASKS`]). Request latencies are recorded as fixed synthetic
//! durations, so the latency histograms, their totals, and the slow-ring
//! durations are pinned exactly.
//!
//! This test lives alone in its own binary: the `mani_kernel_*` counters are
//! process-wide atomics, and any other test in the same process would move
//! them.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use mani_engine::EngineConfig;
use mani_service::{
    decode_dataset, encode_dataset, parse_body, parse_dataset, render, BuildInfo, ConsensusReply,
    RequestContext, Service, TransportStats,
};
use serde::Value;

const GOLDEN_STATS: &str = include_str!("golden/stats.json");
const GOLDEN_METRICS: &str = include_str!("golden/metrics.txt");

/// Every `/v1/stats` value replaced before comparison, as
/// `(path, why)`. A `*` segment matches every key of an object or every
/// element of an array.
const STATS_MASKS: &[(&[&str], &str)] = &[
    (&["uptime_seconds"], "wall-clock since construction"),
    (&["kernels", "matrix_build_ns"], "measured build time"),
    (&["kernels", "solve_ns"], "measured solve time"),
    (
        &["slow_requests", "*", "phases", "*"],
        "measured phase time",
    ),
];

/// Every `/metrics` family whose sample values are replaced before
/// comparison (names, labels, HELP and TYPE are still compared).
const METRIC_MASKS: &[(&str, &str)] = &[
    ("mani_uptime_seconds", "wall-clock since construction"),
    (
        "mani_engine_matrix_build_seconds_total",
        "measured build time",
    ),
    ("mani_engine_solve_seconds_total", "measured solve time"),
];

const MASKED: &str = "<masked>";

const BASE_DATASET: &str = r#"{
    "name": "golden",
    "candidates": [
        {"name": "a", "attributes": {"G": "x", "H": "p"}},
        {"name": "b", "attributes": {"G": "y", "H": "p"}},
        {"name": "c", "attributes": {"G": "x", "H": "q"}},
        {"name": "d", "attributes": {"G": "y", "H": "q"}},
        {"name": "e", "attributes": {"G": "x", "H": "p"}},
        {"name": "f", "attributes": {"G": "y", "H": "q"}}
    ],
    "rankings": [
        ["a","b","c","d","e","f"],
        ["f","e","d","c","b","a"],
        ["a","c","e","b","d","f"],
        ["c","a","b","e","f","d"]
    ]
}"#;

const COLUMNAR_DATASET: &str = r#"{
    "name": "golden-columnar",
    "candidates": [
        {"name": "a", "attributes": {"G": "x"}},
        {"name": "b", "attributes": {"G": "y"}},
        {"name": "c", "attributes": {"G": "x"}},
        {"name": "d", "attributes": {"G": "y"}},
        {"name": "e", "attributes": {"G": "x"}}
    ],
    "rankings": [
        ["a","b","c","d","e"],
        ["e","d","c","b","a"],
        ["b","a","d","c","e"]
    ]
}"#;

fn body(text: &str) -> Value {
    parse_body(text).expect("script documents are valid JSON")
}

fn ctx(id: &str) -> RequestContext {
    RequestContext::new(Some(id))
}

fn complete(reply: ConsensusReply) -> String {
    match reply {
        ConsensusReply::Complete(value) => render(&value),
        _ => panic!("a waited solve must complete"),
    }
}

/// Runs the fixed script and returns the service in its final state.
fn drive() -> Service {
    let service = Service::new(
        EngineConfig {
            threads: 1,
            kernel_threads: 1,
            ..EngineConfig::default()
        },
        16,
    );
    // (request context, endpoint label, synthetic latency in µs)
    let mut observed: Vec<(RequestContext, &'static str, u64)> = Vec::new();

    // 1. Inline solve, then an identical replay served from the response
    //    cache.
    let inline = format!(
        r#"{{"dataset": {BASE_DATASET}, "methods": ["Fair-Borda", "Fair-Schulze", "Fair-Kemeny"],
            "delta": 0.2, "budget": 5000, "wait": true}}"#
    );
    for (id, us) in [("golden-inline", 2_400), ("golden-replay", 120)] {
        let ctx = ctx(id);
        let text = complete(service.consensus(&body(&inline), &ctx).unwrap());
        assert!(text.contains("\"ranking\""), "{text}");
        observed.push((ctx, "consensus", us));
    }

    // 2. Columnar registration, then a by-id solve.
    let columnar = encode_dataset(&parse_dataset(&body(COLUMNAR_DATASET)).unwrap());
    let registered = service
        .register_dataset(decode_dataset(&columnar).unwrap())
        .unwrap();
    let id = registered
        .get("id")
        .and_then(Value::as_str)
        .unwrap()
        .to_string();
    observed.push((ctx("golden-register"), "datasets", 800));
    let by_id = format!(
        r#"{{"dataset": {{"id": "{id}"}}, "methods": ["Fair-Copeland"], "delta": 0.25, "wait": true}}"#
    );
    let solve_ctx = ctx("golden-by-id");
    complete(service.consensus(&body(&by_id), &solve_ctx).unwrap());
    observed.push((solve_ctx, "consensus", 3_100));

    // 3. PATCH append: the registered version's warm matrix is derived.
    let patch =
        body(r#"{"ops": [{"op": "append", "ranking": ["c","e","a","b","d"], "weight": 2}]}"#);
    let patched = render(&service.dataset_patch(&id, &patch).unwrap());
    assert!(patched.contains("\"derived\":true"), "{patched}");
    observed.push((ctx("golden-patch"), "dataset_patch", 450));

    // 4. Async job on the patched version, polled until done.
    let async_body = format!(
        r#"{{"dataset": {{"id": "{id}"}}, "methods": ["Fair-Borda", "Fair-Schulze"], "delta": 0.25, "wait": false}}"#
    );
    let submit_ctx = ctx("golden-async");
    let ConsensusReply::Accepted(accepted) =
        service.consensus(&body(&async_body), &submit_ctx).unwrap()
    else {
        panic!("an async submit must be accepted");
    };
    let job = accepted
        .get("id")
        .and_then(Value::as_str)
        .expect("accepted reply names its job")
        .to_string();
    observed.push((submit_ctx, "consensus", 300));
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let text = render(&service.job(&job).unwrap());
        if text.contains("\"status\":\"done\"") {
            assert!(text.contains("\"results\""), "{text}");
            break;
        }
        assert!(Instant::now() < deadline, "job never completed");
        std::thread::sleep(Duration::from_millis(1));
    }
    observed.push((ctx("golden-poll"), "jobs", 90));

    // 5. A streamed two-request batch.
    let streamed = format!(
        r#"{{"requests": [
            {{"dataset": {BASE_DATASET}, "methods": ["Fair-Copeland"], "delta": 0.3}},
            {{"dataset": {{"id": "{id}"}}, "methods": ["Fair-Borda"], "delta": 0.3}}
        ], "stream": true}}"#
    );
    let stream_ctx = ctx("golden-stream");
    let ConsensusReply::Stream(stream) = service.consensus(&body(&streamed), &stream_ctx).unwrap()
    else {
        panic!("a stream request must stream");
    };
    let mut lines = String::new();
    match service.stream_consensus(stream, &mut lines) {
        Ok(()) => {}
        Err(never) => match never {},
    }
    assert_eq!(lines.lines().count(), 3, "two results + summary: {lines}");
    observed.push((stream_ctx, "consensus_stream", 1_700));

    // 6. Audit.
    let audit = format!(r#"{{"dataset": {BASE_DATASET}, "per_ranking": true}}"#);
    let text = render(&service.audit(&body(&audit)).unwrap());
    assert!(text.contains("\"unconstrained\""), "{text}");
    observed.push((ctx("golden-audit"), "audit", 5_500));

    // The pool's busy/executed counters settle just after a job publishes
    // its response: wait for quiescence before rendering.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = service.engine().stats();
        if stats.in_flight == 0 && stats.pool_busy == 0 && stats.pool_queued == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "engine never went idle");
        std::thread::sleep(Duration::from_millis(1));
    }

    for (ctx, label, us) in observed {
        let elapsed = Duration::from_micros(us);
        service.metrics().record(label, elapsed);
        service.observe(
            label,
            format!("golden {}", ctx.id()),
            ctx.id().to_string(),
            ctx.trace(),
            200,
            elapsed,
        );
    }
    service
}

/// Replaces the value at `path` (with `*` wildcards) by [`MASKED`].
fn mask(value: &mut Value, path: &[&str]) {
    let Some((head, rest)) = path.split_first() else {
        *value = Value::String(MASKED.to_string());
        return;
    };
    match value {
        Value::Object(entries) => {
            for (key, child) in entries.iter_mut() {
                if *head == "*" || key == head {
                    mask(child, rest);
                }
            }
        }
        Value::Array(items) if *head == "*" => {
            for child in items.iter_mut() {
                mask(child, rest);
            }
        }
        _ => {}
    }
}

fn masked_stats(service: &Service, transport: &TransportStats) -> String {
    let mut stats = service.stats(transport);
    for (path, _why) in STATS_MASKS {
        mask(&mut stats, path);
    }
    render(&stats) + "\n"
}

/// Splits an exposition into `family → block text`, masking the sample
/// values of every [`METRIC_MASKS`] family.
fn metric_families(exposition: &str) -> BTreeMap<String, String> {
    let mut families: BTreeMap<String, String> = BTreeMap::new();
    let mut current = String::new();
    for line in exposition.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            current = rest.split(' ').next().unwrap_or_default().to_string();
            assert!(
                !families.contains_key(&current),
                "family `{current}` declared twice"
            );
        }
        let line = match line.rsplit_once(' ') {
            Some((series, _))
                if !line.starts_with('#') && METRIC_MASKS.iter().any(|(m, _)| *m == current) =>
            {
                format!("{series} {MASKED}")
            }
            _ => line.to_string(),
        };
        let block = families.entry(current.clone()).or_default();
        block.push_str(&line);
        block.push('\n');
    }
    families
}

#[test]
fn stats_and_metrics_match_the_golden_renderings() {
    let service = drive();
    let transport = TransportStats {
        max_connections: 64,
        conn_threads: 4,
        accepted: 9,
        rejected_busy: 1,
        requests: 12,
        keepalive_reuses: 3,
    };
    let build = BuildInfo {
        name: "mani-golden",
        version: "0.0.0-golden",
        git: None,
        profile: "test",
        features: &[],
    };

    let stats = masked_stats(&service, &transport);
    assert_eq!(
        stats, GOLDEN_STATS,
        "/v1/stats drifted from tests/golden/stats.json"
    );

    let actual = metric_families(&service.metrics_exposition(&build, &transport));
    let expected = metric_families(GOLDEN_METRICS);
    let names = |m: &BTreeMap<String, String>| m.keys().cloned().collect::<Vec<_>>();
    assert_eq!(names(&actual), names(&expected), "family sets differ");
    for (name, block) in &expected {
        assert_eq!(&actual[name], block, "family `{name}` drifted");
    }
}
