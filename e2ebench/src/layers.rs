//! The traced run's per-layer metrics and their level-by-level
//! reconciliation: at each level a whole, its parts, and a named residual,
//! all per-request means over the level's population, so they add up.

use std::fmt::Write as _;
use std::time::Duration;

use crate::drive::Phase;
use crate::trace;

pub struct Layers {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub report: String,
}

/// Every per-layer metric, and the level-by-level reconciliation.
pub fn layer_metrics(
    phase: &Phase,
    untraced: &[Vec<trace::Served>],
    traced: &trace::Pass,
    jobs: &[trace::EngineJob],
    kernels: &[trace::KernelRun],
    appends: &[Duration],
) -> Layers {
    let requests: Vec<&trace::Served> = traced.served.iter().flatten().collect();
    let recs: Vec<&trace::Rec> = requests.iter().map(|s| &s.rec).collect();
    let parts = trace::part_means(&recs);
    let part = |name: &str| parts.get(name).copied().unwrap_or(0.0);

    // Level 0: loopback wall = traced in-process total + socket residual.
    let wall_ms = mean(
        phase
            .samples
            .iter()
            .flatten()
            .map(|s| s.latency.as_secs_f64() * 1e3),
    );
    let inprocess_ms = trace::mean_ms(&requests, |s| s.total);
    let untraced_ms = mean(
        untraced
            .iter()
            .flatten()
            .map(|s| s.total.as_secs_f64() * 1e3),
    );
    let socket_ms = wall_ms - inprocess_ms;

    // Level 1: the in-process pipeline.
    let level1 = [
        "serve.http_read",
        "service.json_decode",
        "service.spec_parse",
        "service.core",
        "service.json_encode",
        "serve.http_write",
    ];
    let inprocess_residual = inprocess_ms - level1.iter().map(|p| part(p)).sum::<f64>();

    // Level 2: the service core of consensus requests.
    let consensus: Vec<&trace::Rec> = requests
        .iter()
        .filter(|s| s.is_consensus)
        .map(|s| &s.rec)
        .collect();
    let core = trace::part_means(&consensus);
    let core_part = |name: &str| core.get(name).copied().unwrap_or(0.0);
    let level2 = [
        "service.cache_probe",
        "service.submit",
        "service.wait",
        "service.render",
    ];
    let core_residual =
        core_part("service.core") - level2.iter().map(|p| core_part(p)).sum::<f64>();
    let cached = requests
        .iter()
        .filter(|s| s.is_consensus && s.engine_spec.is_none())
        .count();
    let patches: Vec<&trace::Served> = requests.iter().copied().filter(|s| s.is_patch).collect();

    // Level 3: engine jobs.
    let job_ms = trace::mean_ms(jobs, |j| j.wall);
    let queue_ms = trace::mean_ms(jobs, |j| j.queue_wait);
    let tasks_ms = trace::mean_ms(jobs, |j| j.tasks);

    // Level 4: the re-executed kernel pipeline.
    let kernel_recs: Vec<&trace::Rec> = kernels.iter().map(|k| &k.rec).collect();
    let kernel = trace::part_means(&kernel_recs);
    let kernel_part = |name: &str| kernel.get(name).copied().unwrap_or(0.0);
    let pipeline_ms = trace::mean_ms(kernels, |k| k.total);
    let level4 = [
        "ranking.matrix_build",
        "aggregation.schulze",
        "aggregation.borda",
        "aggregation.copeland",
        "core.make_mr_fair",
        "fairness.evaluate",
        "solver.fair_kemeny",
    ];
    let kernel_residual = pipeline_ms - level4.iter().map(|p| kernel_part(p)).sum::<f64>();
    let kemeny: u64 = kernels.iter().map(|k| k.kemeny_solves).sum();
    let per_kernel = |f: fn(&trace::KernelRun) -> u64| {
        kernels.iter().map(f).sum::<u64>() as f64 / kernels.len().max(1) as f64
    };

    let counters =
        |f: fn(&mani_engine::CacheStats) -> u64| f(&traced.after) as f64 - f(&traced.before) as f64;
    let setup_decode = trace::part_means(&traced.setup.iter().collect::<Vec<_>>());
    let delta_append_us = trace::mean_ms(appends, |d| *d) * 1e3;

    let mut report = String::new();
    let mut level =
        |title: &str, whole: (&str, f64), items: &[(&str, f64)], residual: (&str, f64)| {
            let _ = writeln!(report, "{title}: {} = {:.4} ms", whole.0, whole.1);
            for (name, value) in items.iter().chain(std::iter::once(&residual)) {
                let share = if whole.1 != 0.0 {
                    100.0 * value / whole.1
                } else {
                    0.0
                };
                let _ = writeln!(report, "  {name:<32} {value:>10.4} ms {share:>6.1}%");
            }
        };
    level(
        "level 0, per request",
        ("loopback wall (untraced)", wall_ms),
        &[("in-process total (traced)", inprocess_ms)],
        ("serve.socket_ms (residual)", socket_ms),
    );
    let level1_items: Vec<(&str, f64)> = level1.iter().map(|p| (*p, part(p))).collect();
    level(
        "level 1, per request",
        ("in-process total (traced)", inprocess_ms),
        &level1_items,
        ("request.residual_ms", inprocess_residual),
    );
    let level2_items: Vec<(&str, f64)> = level2.iter().map(|p| (*p, core_part(p))).collect();
    level(
        "level 2, per consensus request",
        ("service.core (consensus_specs)", core_part("service.core")),
        &level2_items,
        ("service.core_residual_ms", core_residual),
    );
    level(
        "level 3, per engine job (Service::submit)",
        ("submit to wake-up", job_ms),
        &[
            ("engine.queue_wait_ms", queue_ms),
            ("engine.task_ms", tasks_ms),
        ],
        ("engine.residual_ms", job_ms - queue_ms - tasks_ms),
    );
    let level4_items: Vec<(&str, f64)> = level4.iter().map(|p| (*p, kernel_part(p))).collect();
    level(
        "level 4, per re-executed solve",
        ("kernel pipeline", pipeline_ms),
        &level4_items,
        ("kernel.residual_ms", kernel_residual),
    );
    let _ = writeln!(
        report,
        "tracing overhead: {:.4} ms per request (traced {inprocess_ms:.4} ms - untraced \
         {untraced_ms:.4} ms in process)",
        inprocess_ms - untraced_ms
    );

    let metrics = vec![
        ("request.wall_ms", wall_ms, "ms"),
        ("request.inprocess_ms", inprocess_ms, "ms"),
        ("request.residual_ms", inprocess_residual, "ms"),
        ("trace.overhead_ms", inprocess_ms - untraced_ms, "ms"),
        ("serve.http_read_us", part("serve.http_read") * 1e3, "us"),
        ("serve.http_write_us", part("serve.http_write") * 1e3, "us"),
        ("serve.socket_ms", socket_ms, "ms"),
        ("serve.reconnects", phase.reconnects as f64, "count"),
        ("service.json_decode_ms", part("service.json_decode"), "ms"),
        (
            "service.columnar_decode_ms",
            setup_decode
                .get("service.columnar_decode")
                .copied()
                .unwrap_or(0.0),
            "ms",
        ),
        ("service.spec_parse_ms", part("service.spec_parse"), "ms"),
        ("service.core_ms", part("service.core"), "ms"),
        ("service.json_encode_ms", part("service.json_encode"), "ms"),
        (
            "service.cache_probe_us",
            core_part("service.cache_probe") * 1e3,
            "us",
        ),
        ("service.submit_us", core_part("service.submit") * 1e3, "us"),
        ("service.wait_ms", core_part("service.wait"), "ms"),
        ("service.render_ms", core_part("service.render"), "ms"),
        ("service.core_residual_ms", core_residual, "ms"),
        (
            "service.response_cache_hit_ratio",
            cached as f64 / requests.len().max(1) as f64,
            "ratio",
        ),
        (
            "service.dataset_patch_ms",
            trace::mean_ms(&patches, |s| s.rec.get("service.core")),
            "ms",
        ),
        ("engine.queue_wait_ms", queue_ms, "ms"),
        ("engine.job_ms", job_ms, "ms"),
        ("engine.task_ms", tasks_ms, "ms"),
        ("engine.residual_ms", job_ms - queue_ms - tasks_ms, "ms"),
        ("engine.precedence_builds", counters(|c| c.builds), "count"),
        ("engine.precedence_hits", counters(|c| c.hits), "count"),
        (
            "engine.delta_appends",
            counters(|c| c.delta_appends),
            "count",
        ),
        (
            "engine.delta_fallbacks",
            counters(|c| c.delta_rebuild_fallbacks),
            "count",
        ),
        (
            "engine.cache_entries",
            counters(|c| c.entries as u64),
            "count",
        ),
        (
            "ranking.matrix_build_ms",
            kernel_part("ranking.matrix_build"),
            "ms",
        ),
        ("ranking.delta_append_us", delta_append_us, "us"),
        (
            "aggregation.schulze_ms",
            kernel_part("aggregation.schulze"),
            "ms",
        ),
        (
            "aggregation.borda_ms",
            kernel_part("aggregation.borda"),
            "ms",
        ),
        (
            "aggregation.copeland_ms",
            kernel_part("aggregation.copeland"),
            "ms",
        ),
        (
            "core.make_mr_fair_ms",
            kernel_part("core.make_mr_fair"),
            "ms",
        ),
        ("core.correction_swaps", per_kernel(|k| k.swaps), "count"),
        (
            "fairness.evaluate_ms",
            kernel_part("fairness.evaluate"),
            "ms",
        ),
        (
            "solver.fair_kemeny_ms",
            kernel_part("solver.fair_kemeny"),
            "ms",
        ),
        ("solver.nodes_explored", per_kernel(|k| k.nodes), "count"),
        (
            "solver.optimal_ratio",
            kernels.iter().map(|k| k.optimal).sum::<u64>() as f64 / kemeny.max(1) as f64,
            "ratio",
        ),
        ("kernel.pipeline_ms", pipeline_ms, "ms"),
        ("kernel.residual_ms", kernel_residual, "ms"),
    ];
    Layers { metrics, report }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, count) = values.fold((0.0, 0usize), |(s, c), v| (s + v, c + 1));
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}
