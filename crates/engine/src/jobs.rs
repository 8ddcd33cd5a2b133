//! Non-blocking job handles for asynchronously submitted consensus requests.
//!
//! [`crate::ConsensusEngine::submit_async`] returns a [`JobHandle`] immediately
//! instead of joining the batch: the caller can poll it ([`JobHandle::poll`]),
//! block on it ([`JobHandle::wait`] / [`JobHandle::wait_timeout`]), or stash it
//! in a registry keyed by [`JobId`] — which is exactly what the `mani-serve`
//! HTTP front-end does for its `GET /v1/jobs/{id}` endpoint.
//!
//! A job moves through three phases: **queued** (accepted, no worker has picked
//! up any of its method tasks yet), **running** (at least one method task
//! started), and **done** (every method task finished and the response was
//! assembled). Completed responses are shared as
//! [`std::sync::Arc`]`<`[`ConsensusResponse`]`>` so several pollers can observe
//! one result without copying it.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use mani_obs::TraceTimeline;

use crate::batch::BatchNotifier;
use crate::request::ConsensusResponse;

/// Identifier of an asynchronously submitted job, unique within one engine.
///
/// Ids are handed out in submission order starting at `1`; they are never
/// reused by the issuing engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(u64);

impl JobId {
    /// Creates a job id from its raw counter value.
    pub fn from_raw(raw: u64) -> Self {
        JobId(raw)
    }

    /// The raw counter value behind this id.
    pub fn as_u64(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Lifecycle phase of an asynchronously submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted into the submission queue; no worker has started it yet.
    Queued,
    /// At least one of the job's method tasks is executing.
    Running,
    /// Every method task finished; the response is available.
    Done,
}

impl JobStatus {
    /// Lower-case label used by logs and the HTTP API (`"queued"`, `"running"`,
    /// `"done"`).
    pub fn label(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
        }
    }
}

#[derive(Debug)]
enum Phase {
    Queued,
    Running,
    Done(Arc<ConsensusResponse>),
}

/// One batch subscription: when the job completes, `notifier` learns that
/// slot `index` is ready (see [`crate::batch::BatchHandle`]).
#[derive(Debug)]
struct Watcher {
    index: usize,
    notifier: Arc<BatchNotifier>,
}

/// Everything guarded by the job's one mutex: the lifecycle phase plus the
/// batch watchers waiting on the completion transition. Keeping both under a
/// single lock makes subscribe-vs-complete race-free: a watcher either sees
/// `Done` and is notified immediately, or is registered before the transition
/// and notified by it — never neither.
#[derive(Debug)]
struct Inner {
    phase: Phase,
    watchers: Vec<Watcher>,
}

/// Shared completion state between the engine's worker tasks and the handle.
#[derive(Debug)]
pub(crate) struct JobState {
    inner: Mutex<Inner>,
    cond: Condvar,
    /// Phase timeline for the job, anchored at submission time. Workers
    /// record solver phases into it; `GET /v1/jobs/{id}/trace` renders it.
    trace: Arc<TraceTimeline>,
}

impl JobState {
    pub(crate) fn new() -> Self {
        Self {
            inner: Mutex::new(Inner {
                phase: Phase::Queued,
                watchers: Vec::new(),
            }),
            cond: Condvar::new(),
            trace: Arc::new(TraceTimeline::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("job phase lock poisoned")
    }

    /// The job's shared phase timeline.
    pub(crate) fn trace(&self) -> &Arc<TraceTimeline> {
        &self.trace
    }

    /// Marks the job running (first method task picked up). Idempotent; a
    /// completed job stays completed. The first transition closes the
    /// `queue_wait` phase — time from submission to the first worker pickup.
    pub(crate) fn mark_running(&self) {
        let mut inner = self.lock();
        if matches!(inner.phase, Phase::Queued) {
            inner.phase = Phase::Running;
            self.trace.record_since_origin("queue_wait");
        }
    }

    /// Publishes the finished response, wakes every waiter, and fires every
    /// registered batch watcher (outside the phase lock, so notifier locks
    /// never nest inside it).
    pub(crate) fn complete(&self, response: ConsensusResponse) {
        let watchers = {
            let mut inner = self.lock();
            inner.phase = Phase::Done(Arc::new(response));
            self.cond.notify_all();
            std::mem::take(&mut inner.watchers)
        };
        for watcher in watchers {
            watcher.notifier.notify(watcher.index);
        }
    }

    /// Subscribes a batch notifier to this job's completion transition: an
    /// already-completed job notifies immediately, anything else is notified
    /// by [`JobState::complete`]. No polling loop is involved either way.
    pub(crate) fn subscribe(&self, index: usize, notifier: &Arc<BatchNotifier>) {
        let done = {
            let mut inner = self.lock();
            match inner.phase {
                Phase::Done(_) => true,
                _ => {
                    inner.watchers.push(Watcher {
                        index,
                        notifier: Arc::clone(notifier),
                    });
                    false
                }
            }
        };
        if done {
            notifier.notify(index);
        }
    }
}

/// A non-blocking handle to one asynchronously submitted consensus request.
///
/// Cloning the handle is cheap; all clones observe the same job.
#[derive(Debug, Clone)]
pub struct JobHandle {
    id: JobId,
    state: Arc<JobState>,
}

impl JobHandle {
    pub(crate) fn new(id: JobId, state: Arc<JobState>) -> Self {
        Self { id, state }
    }

    /// The job's engine-unique identifier.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// The job's phase timeline (`queue_wait`, `cache_lookup` /
    /// `matrix_build`, `solve`, …), shared with the workers executing it.
    pub fn trace(&self) -> Arc<TraceTimeline> {
        Arc::clone(&self.state.trace)
    }

    /// The job's current lifecycle phase.
    pub fn status(&self) -> JobStatus {
        match self.state.lock().phase {
            Phase::Queued => JobStatus::Queued,
            Phase::Running => JobStatus::Running,
            Phase::Done(_) => JobStatus::Done,
        }
    }

    /// Polls without blocking: the response if the job finished, otherwise
    /// its current (never [`JobStatus::Done`]) phase. Both come from one read
    /// under one lock, so a job that completes concurrently is seen either
    /// as unfinished or with its response — never as done without one.
    pub fn poll(&self) -> Result<Arc<ConsensusResponse>, JobStatus> {
        match self.state.lock().phase {
            Phase::Queued => Err(JobStatus::Queued),
            Phase::Running => Err(JobStatus::Running),
            Phase::Done(ref response) => Ok(Arc::clone(response)),
        }
    }

    /// Blocks until the job finishes and returns its response.
    pub fn wait(&self) -> Arc<ConsensusResponse> {
        let mut inner = self.state.lock();
        loop {
            if let Phase::Done(ref response) = inner.phase {
                return Arc::clone(response);
            }
            inner = self
                .state
                .cond
                .wait(inner)
                .expect("job phase lock poisoned");
        }
    }

    /// Blocks up to `timeout` for the job to finish; `None` on timeout.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Arc<ConsensusResponse>> {
        let deadline = std::time::Instant::now() + timeout;
        let mut inner = self.state.lock();
        loop {
            if let Phase::Done(ref response) = inner.phase {
                return Some(Arc::clone(response));
            }
            let remaining = deadline.checked_duration_since(std::time::Instant::now())?;
            let (guard, result) = self
                .state
                .cond
                .wait_timeout(inner, remaining)
                .expect("job phase lock poisoned");
            inner = guard;
            if result.timed_out() {
                return match inner.phase {
                    Phase::Done(ref response) => Some(Arc::clone(response)),
                    _ => None,
                };
            }
        }
    }

    /// Subscribes a batch notifier to this handle's completion (see
    /// [`crate::batch::BatchHandle`]).
    pub(crate) fn subscribe(&self, index: usize, notifier: &Arc<BatchNotifier>) {
        self.state.subscribe(index, notifier);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn empty_response() -> ConsensusResponse {
        ConsensusResponse {
            dataset: "d".into(),
            results: Vec::new(),
            total_solve_time: Duration::ZERO,
        }
    }

    #[test]
    fn id_formats_and_orders() {
        let a = JobId::from_raw(1);
        let b = JobId::from_raw(2);
        assert!(a < b);
        assert_eq!(a.to_string(), "job-1");
        assert_eq!(b.as_u64(), 2);
    }

    #[test]
    fn status_transitions_and_poll() {
        let state = Arc::new(JobState::new());
        let handle = JobHandle::new(JobId::from_raw(7), Arc::clone(&state));
        assert_eq!(handle.status(), JobStatus::Queued);
        assert_eq!(handle.status().label(), "queued");
        assert_eq!(handle.poll().unwrap_err(), JobStatus::Queued);

        state.mark_running();
        assert_eq!(handle.status(), JobStatus::Running);
        assert_eq!(handle.poll().unwrap_err(), JobStatus::Running);
        // Idempotent while running.
        state.mark_running();
        assert_eq!(handle.status(), JobStatus::Running);

        state.complete(empty_response());
        assert_eq!(handle.status(), JobStatus::Done);
        // A completed job stays completed even if a late task marks running.
        state.mark_running();
        assert_eq!(handle.status(), JobStatus::Done);
        let first = handle.poll().expect("done");
        let second = handle.poll().expect("still done");
        assert!(Arc::ptr_eq(&first, &second), "pollers share one response");
    }

    #[test]
    fn wait_blocks_until_completion() {
        let state = Arc::new(JobState::new());
        let handle = JobHandle::new(JobId::from_raw(1), Arc::clone(&state));
        let waiter = {
            let handle = handle.clone();
            std::thread::spawn(move || handle.wait().dataset.clone())
        };
        std::thread::sleep(Duration::from_millis(20));
        state.complete(empty_response());
        assert_eq!(waiter.join().unwrap(), "d");
    }

    #[test]
    fn wait_timeout_expires_then_succeeds() {
        let state = Arc::new(JobState::new());
        let handle = JobHandle::new(JobId::from_raw(1), Arc::clone(&state));
        assert!(handle.wait_timeout(Duration::from_millis(10)).is_none());
        state.complete(empty_response());
        assert!(handle.wait_timeout(Duration::from_millis(10)).is_some());
    }
}
