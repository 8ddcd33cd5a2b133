//! Workload definitions and their seeded input generation.
//!
//! Every byte the server receives is generated here, from `--seed`, before
//! any connection is opened: the server's read timeout closes idle sockets,
//! and dataset generation at the larger sizes takes seconds.

use std::sync::Arc;

use mani_bench::BenchFixture;
use mani_engine::EngineDataset;
use mani_service::{dataset_id, dataset_to_value, encode_dataset, render, COLUMNAR_CONTENT_TYPE};

/// Client threads, each with one keep-alive connection, in a closed loop.
pub const CLIENTS: usize = 2;

/// Mallows dispersion of every generated profile (the kernel benches' value).
const THETA: f64 = 0.6;

/// The four traffic classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    JsonCold,
    SchulzeWarm,
    ReplayEdit,
    KemenyExact,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::JsonCold,
        Kind::SchulzeWarm,
        Kind::ReplayEdit,
        Kind::KemenyExact,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::JsonCold => "json-cold",
            Kind::SchulzeWarm => "schulze-warm",
            Kind::ReplayEdit => "replay-edit",
            Kind::KemenyExact => "kemeny-exact",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|kind| kind.name() == name)
    }
}

/// What a correct reply to one request looks like.
#[derive(Debug, Clone)]
pub enum Expect {
    /// A solve the response cache cannot answer: 200, every method
    /// `satisfied`, every ranking a permutation of `names`, and `optimal`
    /// when the workload claims exact solves.
    Solve {
        names: Arc<Vec<String>>,
        methods: usize,
        optimal: bool,
    },
    /// A byte-identical resend of the solve `back` requests earlier on the
    /// same client: answered from the response cache, equal to that solve
    /// but for `cached` and timing fields.
    Replay { back: usize },
    /// A ranking append: `version` one above the dataset's previous one.
    Patch,
}

/// One generated request: its full wire bytes and the reply it must get.
#[derive(Debug, Clone)]
pub struct Req {
    pub bytes: Arc<Vec<u8>>,
    pub expect: Expect,
}

/// A closed-loop step: requests that run back to back. A timed phase only
/// stops between units, so every unit's request mix is complete.
pub type Unit = Vec<Req>;

/// Everything one workload sends, per client where it differs.
#[derive(Debug)]
pub struct Workload {
    /// Dataset registrations (columnar `POST /v1/datasets`), sent during
    /// setup before any solve.
    pub registrations: Vec<Arc<Vec<u8>>>,
    /// Dataset ids the registrations must return, in order.
    pub registered_ids: Vec<String>,
    /// Warm-up units per client: a fixed count, so set-up time and the
    /// memory measured after it do not depend on the program's speed.
    pub warmup: Vec<Vec<Unit>>,
    /// The pool the timed phase draws from, per client.
    pub timed: Vec<Vec<Unit>>,
}

/// SplitMix64: a tiny seeded generator for everything the fixtures do not
/// generate themselves.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// Distinct child seed for `(seed, stream, index)`.
fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    Rng::new(
        seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F)
            ^ index.wrapping_mul(0xE703_7ED1_A0B4_28DB),
    )
    .next_u64()
}

fn fixture_dataset(name: &str, n: usize, r: usize, seed: u64) -> Arc<EngineDataset> {
    let fixture = BenchFixture::low_fair(n, r, THETA, seed);
    Arc::new(EngineDataset::new(name, fixture.db, fixture.profile).expect("fixture sizes agree"))
}

fn names_of(dataset: &EngineDataset) -> Arc<Vec<String>> {
    Arc::new(
        dataset
            .db()
            .candidates()
            .map(|(_, candidate)| candidate.name().to_string())
            .collect(),
    )
}

fn http(method: &str, path: &str, content_type: &str, body: &[u8]) -> Arc<Vec<u8>> {
    let mut bytes = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    bytes.extend_from_slice(body);
    Arc::new(bytes)
}

fn json_post(path: &str, body: &str) -> Arc<Vec<u8>> {
    http("POST", path, "application/json", body.as_bytes())
}

fn register(dataset: &EngineDataset) -> Arc<Vec<u8>> {
    http(
        "POST",
        "/v1/datasets",
        COLUMNAR_CONTENT_TYPE,
        &encode_dataset(dataset),
    )
}

/// A by-id solve in the nested `options` shape.
fn by_id_solve(id: &str, methods: &[&str], delta: f64, budget: Option<u64>) -> String {
    let methods = methods
        .iter()
        .map(|m| format!("\"{m}\""))
        .collect::<Vec<_>>()
        .join(",");
    let budget = budget
        .map(|b| format!(",\"budget\":{b}"))
        .unwrap_or_default();
    format!(
        "{{\"dataset\":{{\"id\":\"{id}\"}},\"options\":{{\"methods\":[{methods}],\
         \"thresholds\":{{\"delta\":{delta}}}{budget}}},\"wait\":true}}"
    )
}

/// `count` distinct thresholds spread over `[lo, hi)` in a seeded order, so
/// no two requests of a run share a response-cache key.
fn delta_sweep(rng: &mut Rng, count: usize, lo: f64, hi: f64) -> Vec<f64> {
    let mut slots: Vec<usize> = (0..count).collect();
    for i in (1..count).rev() {
        slots.swap(i, rng.below(i + 1));
    }
    slots
        .into_iter()
        .map(|slot| lo + (hi - lo) * (slot as f64 + 0.25 + 0.5 * rng.unit()) / count as f64)
        .collect()
}

/// Splits one list of units round-robin over the clients.
fn deal(units: Vec<Unit>) -> Vec<Vec<Unit>> {
    let mut per_client: Vec<Vec<Unit>> = (0..CLIENTS).map(|_| Vec::new()).collect();
    for (index, unit) in units.into_iter().enumerate() {
        per_client[index % CLIENTS].push(unit);
    }
    per_client
}

/// Generates workload `kind` from `seed`. `pool` is the timed phase's units
/// per client (a run stops early, and says so, if it drains them).
pub fn generate(kind: Kind, seed: u64, pool: usize) -> Workload {
    match kind {
        Kind::JsonCold => json_cold(seed, pool),
        Kind::SchulzeWarm => schulze_warm(seed, pool),
        Kind::ReplayEdit => replay_edit(seed, pool),
        Kind::KemenyExact => kemeny_exact(seed, pool),
    }
}

fn json_cold(seed: u64, pool: usize) -> Workload {
    const WARMUP_PER_CLIENT: usize = 4;
    let total = CLIENTS * (WARMUP_PER_CLIENT + pool);
    let mut units: Vec<Unit> = (0..total)
        .map(|index| {
            let dataset = fixture_dataset(
                &format!("cold-{index}"),
                60,
                100,
                mix(seed, 1, index as u64),
            );
            let body = format!(
                "{{\"dataset\":{},\"options\":{{\"methods\":[\"Fair-Borda\",\"Fair-Copeland\"],\
                 \"thresholds\":{{\"delta\":0.1}}}},\"wait\":true}}",
                render(&dataset_to_value(&dataset))
            );
            vec![Req {
                bytes: json_post("/v1/consensus", &body),
                expect: Expect::Solve {
                    names: names_of(&dataset),
                    methods: 2,
                    optimal: false,
                },
            }]
        })
        .collect();
    let timed = units.split_off(CLIENTS * WARMUP_PER_CLIENT);
    Workload {
        registrations: Vec::new(),
        registered_ids: Vec::new(),
        warmup: deal(units),
        timed: deal(timed),
    }
}

/// Registered datasets solved by id, each request at a distinct Δ and the
/// datasets taken in turn. Several datasets per run average out how much
/// the solve cost differs from one generated instance to the next. The
/// warm-up solves each dataset once, so the timed phase builds no matrix.
fn by_id_sweep(
    datasets: Vec<Arc<EngineDataset>>,
    methods: &[&str],
    budget: Option<u64>,
    deltas: (f64, f64),
    seed: u64,
    pool: usize,
) -> Workload {
    let ids: Vec<String> = datasets.iter().map(|d| dataset_id(d)).collect();
    let names: Vec<_> = datasets.iter().map(|d| names_of(d)).collect();
    let warmup = datasets.len();
    let total = warmup + CLIENTS * pool;
    let mut rng = Rng::new(mix(seed, 2, 0));
    let mut units: Vec<Unit> = delta_sweep(&mut rng, total, deltas.0, deltas.1)
        .into_iter()
        .enumerate()
        .map(|(index, delta)| {
            let dataset = index % datasets.len();
            vec![Req {
                bytes: json_post(
                    "/v1/consensus",
                    &by_id_solve(&ids[dataset], methods, delta, budget),
                ),
                expect: Expect::Solve {
                    names: Arc::clone(&names[dataset]),
                    methods: methods.len(),
                    optimal: budget.is_some(),
                },
            }]
        })
        .collect();
    let timed = units.split_off(warmup);
    Workload {
        registrations: datasets.iter().map(|d| register(d)).collect(),
        registered_ids: ids,
        warmup: deal(units),
        timed: deal(timed),
    }
}

/// `count` generated datasets of one size, built on `CLIENTS` threads
/// (Low-Fair fixtures at n = 768 take seconds each).
fn datasets(
    prefix: &str,
    count: usize,
    n: usize,
    r: usize,
    seed: u64,
    stream: u64,
) -> Vec<Arc<EngineDataset>> {
    let build = |index: usize| {
        fixture_dataset(
            &format!("{prefix}-{index}"),
            n,
            r,
            mix(seed, stream, index as u64),
        )
    };
    let mut built: Vec<(usize, Arc<EngineDataset>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|part| {
                scope.spawn(move || {
                    (part..count)
                        .step_by(CLIENTS)
                        .map(|index| (index, build(index)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("generator thread panicked"))
            .collect()
    });
    built.sort_by_key(|(index, _)| *index);
    built.into_iter().map(|(_, dataset)| dataset).collect()
}

fn schulze_warm(seed: u64, pool: usize) -> Workload {
    by_id_sweep(
        datasets("schulze", 8, 768, 40, seed, 3),
        &["Fair-Schulze"],
        None,
        (0.05, 0.15),
        seed,
        pool,
    )
}

fn kemeny_exact(seed: u64, pool: usize) -> Workload {
    by_id_sweep(
        datasets("kemeny", 32, 12, 12, seed, 4),
        &["Fair-Kemeny"],
        Some(200_000),
        KEMENY_DELTAS,
        seed,
        pool,
    )
}

/// Δ range of the Fair-Kemeny sweep.
pub const KEMENY_DELTAS: (f64, f64) = (0.1, 0.3);

/// Solves and identical replays per replay-edit iteration (after its PATCH).
pub const REPLAYS: usize = 8;

fn replay_edit(seed: u64, pool: usize) -> Workload {
    const WARMUP_ITERATIONS: usize = 2;
    let mut registrations = Vec::new();
    let mut registered_ids = Vec::new();
    let mut warmup = Vec::new();
    let mut timed = Vec::new();
    for (client, dataset) in datasets("edit", CLIENTS, 200, 1000, seed, 5)
        .into_iter()
        .enumerate()
    {
        let id = dataset_id(&dataset);
        let names = names_of(&dataset);
        let solve = json_post(
            "/v1/consensus",
            &by_id_solve(&id, &["Fair-Borda", "Fair-Copeland"], 0.1, None),
        );
        let mut rng = Rng::new(mix(seed, 6, client as u64));
        let mut units: Vec<Unit> = (0..WARMUP_ITERATIONS + pool)
            .map(|_| {
                let mut unit = vec![
                    Req {
                        bytes: patch_append(&id, &names, &mut rng),
                        expect: Expect::Patch,
                    },
                    Req {
                        bytes: Arc::clone(&solve),
                        expect: Expect::Solve {
                            names: Arc::clone(&names),
                            methods: 2,
                            optimal: false,
                        },
                    },
                ];
                unit.extend((1..=REPLAYS).map(|back| Req {
                    bytes: Arc::clone(&solve),
                    expect: Expect::Replay { back },
                }));
                unit
            })
            .collect();
        timed.push(units.split_off(WARMUP_ITERATIONS));
        warmup.push(units);
        registrations.push(register(&dataset));
        registered_ids.push(id);
    }
    Workload {
        registrations,
        registered_ids,
        warmup,
        timed,
    }
}

/// `PATCH` appending one uniformly random full ranking of `names`.
fn patch_append(id: &str, names: &[String], rng: &mut Rng) -> Arc<Vec<u8>> {
    let mut order: Vec<usize> = (0..names.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let ranking = order
        .iter()
        .map(|&i| format!("\"{}\"", names[i]))
        .collect::<Vec<_>>()
        .join(",");
    let body = format!("{{\"ops\":[{{\"op\":\"append\",\"ranking\":[{ranking}]}}]}}");
    http(
        "PATCH",
        &format!("/v1/datasets/{id}"),
        "application/json",
        body.as_bytes(),
    )
}
