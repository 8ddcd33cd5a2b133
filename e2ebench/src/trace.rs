//! The traced run: the loopback requests replayed in process, with spans in
//! this file around each call into a layer's public functions.
//!
//! Four passes, each over exactly the requests a loopback phase completed
//! (same clients, same order):
//!
//! 1. *untraced* — the serve pipeline on a fresh `Service`, timing only each
//!    whole request; the traced pass minus this one is the tracing overhead;
//! 2. *traced* — the same pipeline with a span around every layer call;
//! 3. *engine* — every solve the traced pass sent to the engine, submitted
//!    again through `Service::submit`, for the job traces' queue wait;
//! 4. *kernels* — every such solve re-executed layer by layer (matrix →
//!    aggregation → Make-MR-Fair → evaluate, or Fair-Kemeny), which must
//!    reproduce the served ranking bit for bit.
//!
//! The pipeline mirrors what `mani-serve` does per request: frame
//! (`HttpRequest::read_from`), decode, parse the spec, run the service
//! operation, encode, and write (`HttpResponse::write_conn`).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use mani_aggregation::{BordaAggregator, CopelandAggregator, SchulzeAggregator};
use mani_core::{make_mr_fair, MethodKind, MfcrContext, MfcrOutcome};
use mani_engine::{CacheStats, EngineConfig};
use mani_ranking::{GroupIndex, PrecedenceMatrix, Ranking};
use mani_serve::{route, HttpRequest, HttpResponse, Route, Routed, ServerConfig};
use mani_service::{
    decode_dataset, parse_body, parse_consensus_spec, render, ConsensusReply, ConsensusSpec,
    RequestContext, Service,
};
use mani_solver::{constraints::constraints_from_thresholds, KemenyProblem, SolverConfig};

use crate::gen::{Unit, Workload};
use crate::json::{self, Json};

/// Named durations recorded for one request (or one re-executed solve).
#[derive(Debug, Default, Clone)]
pub struct Rec {
    on: bool,
    pub parts: Vec<(&'static str, Duration)>,
}

impl Rec {
    fn new(on: bool) -> Self {
        Self {
            on,
            parts: Vec::new(),
        }
    }

    fn add(&mut self, name: &'static str, duration: Duration) {
        match self.parts.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => *total += duration,
            None => self.parts.push((name, duration)),
        }
    }

    /// Runs `work`, recording its duration under `name` when tracing.
    fn span<T>(&mut self, name: &'static str, work: impl FnOnce() -> T) -> T {
        if !self.on {
            return work();
        }
        let started = Instant::now();
        let out = work();
        self.add(name, started.elapsed());
        out
    }

    pub fn get(&self, name: &str) -> Duration {
        self.parts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(Duration::ZERO, |(_, d)| *d)
    }
}

/// One request served in process.
pub struct Served {
    pub total: Duration,
    pub rec: Rec,
    pub body: String,
    /// The spec of a consensus request the response cache could not answer.
    pub engine_spec: Option<ConsensusSpec>,
    pub is_consensus: bool,
    pub is_patch: bool,
}

/// Serves one raw request the way the server's connection loop does.
fn serve_one(service: &Service, bytes: &[u8], rec: &mut Rec) -> Result<Served, String> {
    let started = Instant::now();
    let request = rec
        .span("serve.http_read", || {
            HttpRequest::read_from(&mut &bytes[..])
        })
        .map_err(|e| e.to_string())?;
    let ctx = RequestContext::new(request.header("x-request-id"));
    let label;
    let mut engine_spec = None;
    let (mut is_consensus, mut is_patch) = (false, false);
    let value = match route(&request.method, &request.path) {
        Routed::Found(found @ Route::DatasetCreate) => {
            label = found.metrics_label();
            let dataset = rec
                .span("service.columnar_decode", || decode_dataset(&request.body))
                .map_err(|e| e.message)?;
            rec.span("service.core", || service.register_dataset(dataset))
                .map_err(|e| e.message)?
        }
        Routed::Found(found @ Route::Consensus) => {
            label = found.metrics_label();
            is_consensus = true;
            let text = request.body_utf8().map_err(|e| e.to_string())?;
            let body = rec
                .span("service.json_decode", || parse_body(text))
                .map_err(|e| e.message)?;
            let spec = rec
                .span("service.spec_parse", || {
                    parse_consensus_spec(&body, Some(service.datasets()))
                })
                .map_err(|e| e.message)?;
            let reply = rec
                .span("service.core", || {
                    service.consensus_specs(vec![spec.clone()], true, true, false, &ctx)
                })
                .map_err(|e| e.message)?;
            for phase in ctx.trace().snapshot() {
                let name = match phase.name {
                    "cache_probe" => "service.cache_probe",
                    "submit" => {
                        engine_spec = Some(spec.clone());
                        "service.submit"
                    }
                    "wait" => "service.wait",
                    "render" => "service.render",
                    _ => continue,
                };
                rec.add(name, Duration::from_nanos(phase.duration_ns));
            }
            match reply {
                ConsensusReply::Complete(value) => value,
                _ => return Err("consensus did not complete".into()),
            }
        }
        Routed::Found(found @ Route::DatasetPatch(_)) => {
            label = found.metrics_label();
            is_patch = true;
            let Route::DatasetPatch(id) = found else {
                unreachable!("matched above")
            };
            let text = request.body_utf8().map_err(|e| e.to_string())?;
            let body = rec
                .span("service.json_decode", || parse_body(text))
                .map_err(|e| e.message)?;
            rec.span("service.core", || service.dataset_patch(&id, &body))
                .map_err(|e| e.message)?
        }
        _ => {
            return Err(format!(
                "unexpected request {} {}",
                request.method, request.path
            ))
        }
    };
    let text = rec.span("service.json_encode", || render(&value));
    let response = HttpResponse::json(200, text).with_header("x-request-id", ctx.id().to_string());
    // The server's per-exchange bookkeeping (latency histogram, access log,
    // slow ring); untraced, so it lands in the in-process residual.
    let elapsed = ctx.trace().age();
    service.metrics().record(label, elapsed);
    service.observe(
        label,
        format!("{} {}", request.method, request.path),
        ctx.id().to_string(),
        ctx.trace(),
        200,
        elapsed,
    );
    let mut wire = Vec::with_capacity(response.body.len() + 256);
    rec.span("serve.http_write", || response.write_conn(&mut wire, true))
        .map_err(|e| e.to_string())?;
    Ok(Served {
        total: started.elapsed(),
        rec: std::mem::take(rec),
        body: response.body,
        engine_spec,
        is_consensus,
        is_patch,
    })
}

/// One in-process replay of a workload.
pub struct Pass {
    pub service: Service,
    /// Per client, in send order.
    pub served: Vec<Vec<Served>>,
    /// The set-up registrations' spans.
    pub setup: Vec<Rec>,
    /// Precedence-cache counters around the timed replay.
    pub before: CacheStats,
    pub after: CacheStats,
}

/// Sets up a fresh in-process service like the server's (registrations,
/// warm-up) and replays each client's first `units[c]` timed units on its
/// own thread.
pub fn replay(workload: &Workload, units: &[usize], traced: bool) -> Result<Pass, String> {
    let config = ServerConfig::default();
    let service = Service::new(config.engine, config.cache_capacity);
    let setup = workload
        .registrations
        .iter()
        .map(|bytes| serve_one(&service, bytes, &mut Rec::new(traced)).map(|served| served.rec))
        .collect::<Result<Vec<_>, _>>()?;
    run_clients(
        &service,
        &workload.warmup,
        &vec![usize::MAX; workload.warmup.len()],
        false,
    )?;
    let before = service.engine().cache().stats();
    let served = run_clients(&service, &workload.timed, units, traced)?;
    let after = service.engine().cache().stats();
    Ok(Pass {
        service,
        served,
        setup,
        before,
        after,
    })
}

fn run_clients(
    service: &Service,
    lists: &[Vec<Unit>],
    units: &[usize],
    traced: bool,
) -> Result<Vec<Vec<Served>>, String> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = lists
            .iter()
            .zip(units)
            .map(|(list, &count)| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for unit in list.iter().take(count) {
                        for req in unit {
                            let mut rec = Rec::new(traced);
                            out.push(serve_one(service, &req.bytes, &mut rec)?);
                        }
                    }
                    Ok::<_, String>(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("replay thread panicked"))
            .collect()
    })
}

/// One job re-submitted through `Service::submit`.
pub struct EngineJob {
    /// Submission to the waiter's wake-up.
    pub wall: Duration,
    pub queue_wait: Duration,
    /// Matrix lookup or build plus solve, summed over the job's method tasks
    /// (which may run in parallel, so this can exceed the wall time).
    pub tasks: Duration,
}

/// Pass 3: re-submits every engine-bound spec of `pass`, one closed loop per
/// client as in the served run. Caches are warm by now, so matrix builds
/// show in the kernel pass, not here.
pub fn engine_pass(pass: &Pass) -> Vec<EngineJob> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = pass
            .served
            .iter()
            .map(|served| {
                let service = &pass.service;
                scope.spawn(move || {
                    served
                        .iter()
                        .filter_map(|s| s.engine_spec.as_ref())
                        .filter_map(|spec| {
                            let started = Instant::now();
                            let handle = service.submit(std::slice::from_ref(spec)).ok()?.pop()?;
                            handle.wait();
                            let wall = started.elapsed();
                            let (mut queue_wait, mut tasks) = (0, 0);
                            for phase in handle.trace().snapshot() {
                                match phase.name {
                                    "queue_wait" => queue_wait += phase.duration_ns,
                                    _ => tasks += phase.duration_ns,
                                }
                            }
                            Some(EngineJob {
                                wall,
                                queue_wait: Duration::from_nanos(queue_wait),
                                tasks: Duration::from_nanos(tasks),
                            })
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("engine pass thread panicked"))
            .collect()
    })
}

/// One solve re-executed layer by layer.
pub struct KernelRun {
    pub total: Duration,
    pub rec: Rec,
    pub swaps: u64,
    pub nodes: u64,
    pub optimal: u64,
    pub kemeny_solves: u64,
}

/// Re-executes `spec` through each layer's public functions with the
/// engine's kernel settings, returning each method's ranking by name.
pub fn reexecute(spec: &ConsensusSpec) -> (KernelRun, Vec<Vec<String>>) {
    let parallelism = EngineConfig::default().kernel_parallelism();
    let dataset = &spec.dataset;
    let (db, profile) = (dataset.db(), dataset.profile());
    let mut rec = Rec::new(true);
    let started = Instant::now();
    let groups = GroupIndex::new(db);
    let matrix: PrecedenceMatrix = rec.span("ranking.matrix_build", || {
        profile.precedence_matrix_with(&parallelism)
    });
    let ctx = MfcrContext::new(db, &groups, profile, spec.thresholds.clone())
        .with_precedence(&matrix)
        .with_parallelism(parallelism);
    let mut run = KernelRun {
        total: Duration::ZERO,
        rec: Rec::default(),
        swaps: 0,
        nodes: 0,
        optimal: 0,
        kemeny_solves: 0,
    };
    let mut rankings = Vec::new();
    let fair = |rec: &mut Rec, run: &mut KernelRun, name: &'static str, consensus: Ranking| {
        let correction = rec.span("core.make_mr_fair", || {
            make_mr_fair(&consensus, &groups, &ctx.thresholds)
        });
        run.swaps += correction.swaps;
        rec.span("fairness.evaluate", || {
            MfcrOutcome::evaluate(name, &ctx, correction.ranking, correction.swaps, true)
        })
        .expect("evaluation of a full ranking")
    };
    for method in &spec.methods {
        let outcome = match method {
            MethodKind::FairBorda => {
                let consensus = rec.span("aggregation.borda", || {
                    BordaAggregator::new().consensus(profile)
                });
                fair(&mut rec, &mut run, "Fair-Borda", consensus)
            }
            MethodKind::FairCopeland => {
                let consensus = rec.span("aggregation.copeland", || {
                    CopelandAggregator::new().consensus_from_matrix_with(&matrix, &parallelism)
                });
                fair(&mut rec, &mut run, "Fair-Copeland", consensus)
            }
            MethodKind::FairSchulze => {
                let consensus = rec.span("aggregation.schulze", || {
                    SchulzeAggregator::new().consensus_from_matrix_with(&matrix, &parallelism)
                });
                fair(&mut rec, &mut run, "Fair-Schulze", consensus)
            }
            MethodKind::FairKemeny => {
                let consensus = rec.span("aggregation.borda", || {
                    BordaAggregator::new().consensus(profile)
                });
                let incumbent = fair(&mut rec, &mut run, "Fair-Borda", consensus);
                let problem = KemenyProblem::constrained(
                    matrix.clone(),
                    constraints_from_thresholds(&groups, &ctx.thresholds, &ctx.attribute_labels()),
                );
                let config = spec
                    .budget
                    .map_or_else(SolverConfig::default, SolverConfig::with_max_nodes)
                    .with_parallelism(parallelism);
                let outcome = rec.span("solver.fair_kemeny", || {
                    mani_solver::solve(&problem, Some(&incumbent.ranking), &config)
                });
                run.nodes += outcome.nodes_explored;
                run.optimal += u64::from(outcome.optimal);
                run.kemeny_solves += 1;
                rec.span("fairness.evaluate", || {
                    MfcrOutcome::evaluate("Fair-Kemeny", &ctx, outcome.ranking, 0, outcome.optimal)
                })
                .expect("evaluation of a full ranking")
            }
            other => panic!("the benchmark sends no {} solves", other.name()),
        };
        rankings.push(
            outcome
                .ranking
                .iter()
                .map(|id| {
                    db.candidate(id)
                        .expect("ranked ids exist")
                        .name()
                        .to_string()
                })
                .collect(),
        );
    }
    run.total = started.elapsed();
    run.rec = rec;
    (run, rankings)
}

/// `PrecedenceMatrix::apply_append` of the dataset's last ranking onto a
/// clone of the matrix of the rankings before it (the clone is not timed).
/// `None` when the fold differs from a full rebuild.
pub fn delta_append(spec: &ConsensusSpec) -> Option<Duration> {
    let parallelism = EngineConfig::default().kernel_parallelism();
    let rankings = spec.dataset.profile().rankings();
    let (last, parent) = rankings.split_last()?;
    let mut matrix = PrecedenceMatrix::from_rankings_parallel(parent, &parallelism).ok()?;
    let started = Instant::now();
    matrix.apply_append(last, 1).ok()?;
    let elapsed = started.elapsed();
    let rebuilt = PrecedenceMatrix::from_rankings_parallel(rankings, &parallelism).ok()?;
    (matrix == rebuilt).then_some(elapsed)
}

/// Each method's ranking in a reply body, by name.
pub fn served_rankings(body: &[u8]) -> Result<Vec<Vec<String>>, String> {
    let doc = json::parse(body)?;
    doc.get("results")
        .and_then(Json::as_array)
        .ok_or("reply has no results")?
        .iter()
        .map(|result| {
            result
                .get("ranking")
                .and_then(Json::as_array)
                .map(|names| {
                    names
                        .iter()
                        .map(|n| n.as_str().unwrap_or_default().to_string())
                        .collect()
                })
                .ok_or_else(|| "result has no ranking".to_string())
        })
        .collect()
}

/// Mean of `f` over `items`, in milliseconds.
pub fn mean_ms<T>(items: &[T], f: impl Fn(&T) -> Duration) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    items.iter().map(|item| f(item).as_secs_f64()).sum::<f64>() * 1e3 / items.len() as f64
}

/// Per-request means of every recorded part, in milliseconds.
pub fn part_means(recs: &[&Rec]) -> HashMap<&'static str, f64> {
    let mut sums: HashMap<&'static str, f64> = HashMap::new();
    for rec in recs {
        for (name, duration) in &rec.parts {
            *sums.entry(name).or_default() += duration.as_secs_f64() * 1e3;
        }
    }
    let count = recs.len().max(1) as f64;
    sums.into_iter().map(|(k, v)| (k, v / count)).collect()
}
