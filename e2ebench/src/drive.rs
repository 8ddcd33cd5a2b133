//! Loopback phases against the server child, and the checks on every reply.

use std::collections::HashSet;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::gen::{Expect, Req, Unit, Workload, CLIENTS};
use crate::json::{self, Json};
use crate::net::{Conn, Reply, ServerProc};

/// Fields a replay may differ in from the solve it repeats.
const VOLATILE_KEYS: [&str; 3] = ["cached", "duration_ms", "total_solve_time_ms"];

/// When a client stops starting new units.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// Run every unit (set-up warm-up).
    Never,
    /// Stop once `after` has passed and `min_samples` replies are in, or at
    /// `cap` regardless.
    After {
        after: Duration,
        min_samples: usize,
        cap: Duration,
    },
}

/// One exchange as the client saw it.
pub struct Sample {
    pub req: Req,
    /// First byte written to last byte read.
    pub latency: Duration,
    pub reply: Result<Reply, String>,
}

/// What one loopback phase did.
pub struct Phase {
    /// Per client, in send order.
    pub samples: Vec<Vec<Sample>>,
    /// Units each client completed.
    pub units: Vec<usize>,
    pub elapsed: Duration,
    /// Connections opened after each client's first one.
    pub reconnects: u64,
    /// A client ran out of generated units before the stop rule fired.
    pub drained: bool,
}

/// Runs one closed loop per client over its units.
pub fn drive(addr: SocketAddr, lists: &[Vec<Unit>], stop: Stop) -> Phase {
    let started = Instant::now();
    let done = AtomicUsize::new(0);
    let results: Vec<(Vec<Sample>, usize, u64, bool)> = std::thread::scope(|scope| {
        let done = &done;
        let handles: Vec<_> = lists
            .iter()
            .map(|units| scope.spawn(move || client_loop(addr, units, stop, started, done)))
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = started.elapsed();
    let mut phase = Phase {
        samples: Vec::new(),
        units: Vec::new(),
        elapsed,
        reconnects: 0,
        drained: false,
    };
    for (samples, units, reconnects, drained) in results {
        phase.samples.push(samples);
        phase.units.push(units);
        phase.reconnects += reconnects;
        phase.drained |= drained;
    }
    phase
}

fn client_loop(
    addr: SocketAddr,
    units: &[Unit],
    stop: Stop,
    started: Instant,
    done: &AtomicUsize,
) -> (Vec<Sample>, usize, u64, bool) {
    let mut samples = Vec::new();
    let mut conn: Option<Conn> = None;
    let mut opened = 0u64;
    let mut completed_units = 0;
    for unit in units {
        if let Stop::After {
            after,
            min_samples,
            cap,
        } = stop
        {
            let elapsed = started.elapsed();
            if elapsed >= cap || (elapsed >= after && done.load(Ordering::Acquire) >= min_samples) {
                return (samples, completed_units, opened.saturating_sub(1), false);
            }
        }
        for req in unit {
            let connection = match conn.as_mut() {
                Some(connection) => connection,
                None => match Conn::open(addr) {
                    Ok(fresh) => {
                        opened += 1;
                        conn.insert(fresh)
                    }
                    Err(error) => {
                        samples.push(Sample {
                            req: req.clone(),
                            latency: Duration::ZERO,
                            reply: Err(format!("connect: {error}")),
                        });
                        continue;
                    }
                },
            };
            let sent = Instant::now();
            let reply = connection.exchange(&req.bytes);
            let latency = sent.elapsed();
            match &reply {
                Ok(reply) if !reply.close => {}
                _ => conn = None, // honour `Connection: close`, drop broken sockets
            }
            samples.push(Sample {
                req: req.clone(),
                latency,
                reply: reply.map_err(|e| e.to_string()),
            });
            done.fetch_add(1, Ordering::AcqRel);
        }
        completed_units += 1;
    }
    (samples, completed_units, opened.saturating_sub(1), true)
}

/// Per-client reply checker; carries what later replies are checked against.
pub struct Checker {
    /// Parsed bodies of this client's earlier replies (replays look back).
    history: Vec<Option<Json>>,
    /// Version of the client's dataset after its last edit.
    version: u64,
}

impl Checker {
    /// `version` is the client's dataset version after registration.
    pub fn new(version: u64) -> Self {
        Self {
            history: Vec::new(),
            version,
        }
    }

    /// Checks one reply.
    pub fn check(&mut self, sample: &Sample) -> Result<(), String> {
        match self.check_inner(sample) {
            Ok(body) => {
                self.history.push(Some(body));
                Ok(())
            }
            Err(error) => {
                self.history.push(None);
                Err(error)
            }
        }
    }

    fn check_inner(&mut self, sample: &Sample) -> Result<Json, String> {
        let reply = sample.reply.as_ref().map_err(Clone::clone)?;
        let body = json::parse(&reply.body).map_err(|e| format!("unparseable reply: {e}"))?;
        if reply.status != 200 {
            return Err(format!(
                "status {}: {}",
                reply.status,
                String::from_utf8_lossy(&reply.body)
            ));
        }
        match &sample.req.expect {
            Expect::Solve {
                names,
                methods,
                optimal,
            } => check_solve(&body, names, *methods, *optimal)?,
            Expect::Replay { back } => {
                let original = self
                    .history
                    .len()
                    .checked_sub(*back)
                    .and_then(|index| self.history[index].as_ref())
                    .ok_or("replay of a failed solve")?;
                if body.without_keys(&VOLATILE_KEYS) != original.without_keys(&VOLATILE_KEYS) {
                    return Err("replay differs from the solve it repeats".into());
                }
            }
            Expect::Patch => {
                let version = body.num("version") as u64;
                if version != self.version + 1 {
                    return Err(format!(
                        "edit produced version {version}, expected {}",
                        self.version + 1
                    ));
                }
                self.version = version;
            }
        }
        Ok(body)
    }
}

fn check_solve(body: &Json, names: &[String], methods: usize, optimal: bool) -> Result<(), String> {
    let results = body
        .get("results")
        .and_then(Json::as_array)
        .ok_or("reply has no results")?;
    if results.len() != methods {
        return Err(format!("{} results for {methods} methods", results.len()));
    }
    let known: HashSet<&str> = names.iter().map(String::as_str).collect();
    for result in results {
        let method = result.get("method").and_then(Json::as_str).unwrap_or("?");
        if result.get("satisfied").and_then(Json::as_bool) != Some(true) {
            return Err(format!("{method} is not satisfied"));
        }
        if optimal && result.get("optimal").and_then(Json::as_bool) != Some(true) {
            return Err(format!("{method} did not prove optimality"));
        }
        let ranking = result
            .get("ranking")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("{method} has no ranking"))?;
        let mut seen = HashSet::with_capacity(ranking.len());
        for entry in ranking {
            let name = entry.as_str().ok_or("ranking entry is not a string")?;
            if !known.contains(name) || !seen.insert(name) {
                return Err(format!("{method} ranking is not a permutation ({name})"));
            }
        }
        if seen.len() != names.len() {
            return Err(format!(
                "{method} ranks {} of {} candidates",
                seen.len(),
                names.len()
            ));
        }
    }
    Ok(())
}

fn register_all(addr: SocketAddr, jobs: &[&(&Vec<u8>, &String)]) -> Result<(), String> {
    let mut conn = Conn::open(addr).map_err(|e| format!("connect: {e}"))?;
    for (bytes, id) in jobs {
        let reply = conn
            .exchange(bytes)
            .map_err(|e| format!("registration: {e}"))?;
        let body = json::parse(&reply.body).map_err(|e| format!("registration reply: {e}"))?;
        if reply.status != 200 || body.get("id").and_then(Json::as_str) != Some(id.as_str()) {
            return Err(format!(
                "registration of {id} answered {}: {}",
                reply.status,
                String::from_utf8_lossy(&reply.body)
            ));
        }
    }
    Ok(())
}

/// A server set up for one workload: registrations done, warm-up run.
pub struct Ready {
    pub server: ServerProc,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    /// Per-client checkers, advanced past registration and warm-up.
    pub checkers: Vec<Checker>,
}

/// Starts a server, registers the workload's datasets, and runs its fixed
/// warm-up. Set-up time and peak memory are taken here, before any timed
/// request, so neither depends on how many requests a timed phase fits in.
pub fn set_up(workload: &Workload) -> Result<Ready, String> {
    let started = Instant::now();
    let mut server = ServerProc::start()?;
    // Registrations run split over the clients' connections, like traffic.
    let jobs: Vec<(&Vec<u8>, &String)> = workload
        .registrations
        .iter()
        .map(|bytes| bytes.as_ref())
        .zip(&workload.registered_ids)
        .collect();
    let addr = server.addr;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let mine: Vec<_> = jobs.iter().skip(client).step_by(CLIENTS).collect();
                scope.spawn(move || register_all(addr, &mine))
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|handle| handle.join().expect("registration thread panicked"))
    })?;
    let warmup = drive(server.addr, &workload.warmup, Stop::Never);
    let setup_s = started.elapsed().as_secs_f64();
    let (peak_rss_mb, _) = server.resident_mb()?;
    let mut checkers: Vec<Checker> = (0..warmup.samples.len()).map(|_| Checker::new(1)).collect();
    for (checker, samples) in checkers.iter_mut().zip(&warmup.samples) {
        for sample in samples {
            checker
                .check(sample)
                .map_err(|e| format!("warm-up reply: {e}"))?;
        }
    }
    Ok(Ready {
        server,
        setup_s,
        peak_rss_mb,
        checkers,
    })
}
