//! The closed-loop fleet: each client thread steps its own
//! `ClientSession` and sends the next query only after `step` returns.
//! Think time and mobility are simulated, never slept. Every `step` is
//! timed from here, and a step that panics counts as one failed query
//! and ends that client's session without aborting the run.
//!
//! Under churn a benchmark-owned writer thread applies update batches
//! from `pc_sim::generate_update` through `ServerHandle::apply_updates`,
//! paced like `Fleet::churn`: `rate_per_100` updates per 100 completed
//! queries. Queries additionally wait while the writer owes more than
//! [`MAX_LAG_BATCHES`] batches, so the pace holds over the whole run
//! instead of piling up an unbounded drain at the end: the slower side
//! sets the wall time.

use crate::stats::Reservoir;
use crate::trace::Timed;
use pc_rtree::proto::{Request, Response};
use pc_rtree::NodeId;
use pc_server::{ClientId, Server, ServerCore, ServerHandle, Transport, Update};
use pc_sim::{
    generate_update, ChurnConfig, ClientSession, QueryKind, QueryRecord, SimConfig, SummaryTotals,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Batches the writer may owe before queries wait for it.
const MAX_LAG_BATCHES: u64 = 2;

/// One reservoir of timings per query kind.
#[derive(Clone, Debug, Default)]
pub struct ByKind([Reservoir; 3]);

impl ByKind {
    pub fn index(kind: QueryKind) -> usize {
        match kind {
            QueryKind::Range => 0,
            QueryKind::Knn => 1,
            QueryKind::Join => 2,
        }
    }

    pub fn push(&mut self, kind: QueryKind, v: f64) {
        self.0[Self::index(kind)].push(v);
    }

    pub fn get(&self, kind: QueryKind) -> &Reservoir {
        &self.0[Self::index(kind)]
    }
}

/// Everything one session's records are summarized into, wall-clock
/// fields aside: the model metrics come from it, and a replay of the
/// session must reproduce it exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Episode {
    pub id: ClientId,
    pub queries: usize,
    pub totals: SummaryTotals,
    pub results: u64,
    /// Queries and client engine expansions per kind (range, kNN, join).
    pub kind_queries: [u64; 3],
    pub kind_expansions: [u64; 3],
    /// Index bytes over cache capacity when the session ended.
    pub index_to_cache: f64,
}

impl Episode {
    pub fn of(id: ClientId, records: &[QueryRecord], index_to_cache: f64) -> Self {
        let modeled: Vec<QueryRecord> = records.iter().map(modeled).collect();
        let mut e = Episode {
            id,
            queries: records.len(),
            totals: pc_sim::Summary::from_records(&modeled).totals,
            results: records.iter().map(|r| r.result_count as u64).sum(),
            index_to_cache,
            ..Default::default()
        };
        for r in records {
            e.kind_queries[ByKind::index(r.kind)] += 1;
            e.kind_expansions[ByKind::index(r.kind)] += r.client_expansions;
        }
        e
    }

    /// `(queries, totals)` of several sessions combined.
    pub fn combine<'a>(eps: impl IntoIterator<Item = &'a Episode>) -> (usize, SummaryTotals) {
        eps.into_iter()
            .fold((0, SummaryTotals::default()), |(n, t), e| {
                (n + e.queries, t.combine(&e.totals))
            })
    }
}

/// One client thread's timed run: a succession of sessions.
#[derive(Clone, Debug, Default)]
pub struct ClientRun {
    /// The thread's index; its sessions use ids `slot + k · clients`.
    pub slot: ClientId,
    /// Completed steps over all sessions.
    pub steps: u64,
    /// Wall µs of every completed `step`, by query kind.
    pub step_us: ByKind,
    /// Of that, µs outside handle calls (traced runs only).
    pub client_us: ByKind,
    /// The first session's first `RunSpec::keep` records.
    pub first: Vec<QueryRecord>,
    /// Every session, in order.
    pub episodes: Vec<Episode>,
    /// The process's peak RSS when this thread ended its model sessions.
    pub model_rss_mib: Option<f64>,
    /// Steps that panicked (at most one: the thread stops there).
    pub failed: u64,
}

/// What the writer thread did.
#[derive(Clone, Debug, Default)]
pub struct WriterRun {
    /// Wall µs of each `apply_updates` batch.
    pub batch_us: Reservoir,
    pub applied: u64,
    /// The writer panicked.
    pub failed: bool,
}

#[derive(Clone, Debug, Default)]
pub struct FleetRun {
    pub clients: Vec<ClientRun>,
    pub writer: Option<WriterRun>,
    /// From the first step to the last client's (and the writer's) end.
    pub wall_s: f64,
}

impl FleetRun {
    pub fn completed(&self) -> u64 {
        self.clients.iter().map(|c| c.steps).sum()
    }

    pub fn failed(&self) -> u64 {
        self.clients.iter().map(|c| c.failed).sum::<u64>()
            + self.writer.as_ref().is_some_and(|w| w.failed) as u64
    }

    pub fn wall_qps(&self) -> f64 {
        self.completed() as f64 / self.wall_s.max(1e-9)
    }
}

/// How long and how far a fleet runs.
#[derive(Clone, Copy, Debug)]
pub struct RunSpec {
    pub cfg: SimConfig,
    pub clients: u32,
    /// Wall-clock budget of the timed loop.
    pub seconds: f64,
    /// Queries per session: a client thread disconnects (`Forget`) after
    /// this many and starts the next session with a fresh id. Many
    /// shorter sessions average over many trajectories, and the program's
    /// per-session records stay bounded however long a run is.
    pub session_queries: usize,
    /// Sessions per client thread that complete even past the deadline.
    pub min_sessions: usize,
    /// Records of the first session kept for the verified-prefix check.
    pub keep: usize,
    pub churn: Option<ChurnConfig>,
}

#[derive(Default)]
struct PaceState {
    issued: u64,
    applied: u64,
    /// Clients finished: the writer drains what it owes and exits.
    stop: bool,
    /// The writer died: queries must not wait for it.
    writer_gone: bool,
}

/// Couples completed queries and applied updates (see module docs).
struct Pacer {
    churn: ChurnConfig,
    state: Mutex<PaceState>,
    wake: Condvar,
}

impl Pacer {
    fn new(churn: ChurnConfig) -> Self {
        Pacer {
            churn,
            state: Mutex::new(PaceState::default()),
            wake: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, PaceState> {
        self.state.lock().expect("pacer state lock poisoned")
    }

    fn owed(&self, s: &PaceState) -> u64 {
        (s.issued * self.churn.rate_per_100 as u64 / 100).saturating_sub(s.applied)
    }

    fn before_query(&self) {
        let max_owed = MAX_LAG_BATCHES * self.churn.batch as u64;
        let mut s = self.lock();
        while self.owed(&s) > max_owed && !s.writer_gone {
            s = self.wake.wait(s).expect("pacer state lock poisoned");
        }
    }

    fn after_query(&self) {
        self.lock().issued += 1;
        self.wake.notify_all();
    }

    fn finish(&self) {
        self.lock().stop = true;
        self.wake.notify_all();
    }

    /// The writer loop: a full batch whenever one is owed; what is left
    /// owed when the clients stop is drained in one last short batch.
    fn write(&self, handle: &dyn ServerHandle) -> WriterRun {
        let mut rng = SmallRng::seed_from_u64(self.churn.seed);
        let mut run = WriterRun::default();
        loop {
            let n = {
                let mut s = self.lock();
                while self.owed(&s) < self.churn.batch as u64 && !s.stop {
                    s = self.wake.wait(s).expect("pacer state lock poisoned");
                }
                let owed = self.owed(&s);
                if owed == 0 {
                    return run;
                }
                owed.min(self.churn.batch as u64) as usize
            };
            let n_live = handle.core().pin().store().len() as u32;
            let batch: Vec<Update> = (0..n).map(|_| generate_update(&mut rng, n_live)).collect();
            let t = Instant::now();
            handle.apply_updates(&batch);
            run.batch_us.push(t.elapsed().as_secs_f64() * 1e6);
            run.applied += n as u64;
            self.lock().applied += n as u64;
            self.wake.notify_all();
        }
    }

    fn writer_gone(&self) {
        self.lock().writer_gone = true;
        self.wake.notify_all();
    }
}

/// Runs the closed-loop fleet against `handle`. With `probe`, each step's
/// time inside handle calls is read back from that wrapper.
pub fn run_fleet(spec: &RunSpec, handle: &dyn ServerHandle, probe: Option<&Timed>) -> FleetRun {
    let pacer = spec.churn.map(Pacer::new);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(spec.seconds);
    let (clients, writer) = std::thread::scope(|scope| {
        let writer = pacer.as_ref().map(|p| {
            scope.spawn(move || {
                let out = catch_unwind(AssertUnwindSafe(|| p.write(handle)));
                out.unwrap_or_else(|_| {
                    p.writer_gone();
                    WriterRun {
                        failed: true,
                        ..Default::default()
                    }
                })
            })
        });
        let workers: Vec<_> = (0..spec.clients)
            .map(|id| {
                let pacer = pacer.as_ref();
                scope.spawn(move || drive_client(spec, handle, id, deadline, pacer, probe))
            })
            .collect();
        let clients: Vec<ClientRun> = workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked outside a step"))
            .collect();
        if let Some(p) = &pacer {
            p.finish();
        }
        let writer = writer.map(|w| w.join().expect("writer thread panicked outside its loop"));
        (clients, writer)
    });
    FleetRun {
        clients,
        writer,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

fn drive_client(
    spec: &RunSpec,
    handle: &dyn ServerHandle,
    slot: ClientId,
    deadline: Instant,
    pacer: Option<&Pacer>,
    probe: Option<&Timed>,
) -> ClientRun {
    let mut run = ClientRun {
        slot,
        ..Default::default()
    };
    for k in 0u32.. {
        let id = slot + k * spec.clients;
        let owed = (k as usize) < spec.min_sessions;
        let Ok(mut session) = catch_unwind(AssertUnwindSafe(|| {
            ClientSession::new(&spec.cfg, handle, id)
        })) else {
            run.failed += 1;
            break;
        };
        let mut step_s = Vec::with_capacity(spec.session_queries);
        let mut handle_s = Vec::new();
        let mut done = false;
        while session.issued() < spec.session_queries {
            if !owed && Instant::now() >= deadline {
                done = true;
                break;
            }
            if let Some(p) = pacer {
                p.before_query();
            }
            if let Some(t) = probe {
                t.take_client_s(id);
            }
            let t = Instant::now();
            let ok = catch_unwind(AssertUnwindSafe(|| session.step(handle))).is_ok();
            let elapsed = t.elapsed().as_secs_f64();
            if !ok {
                run.failed += 1;
                done = true;
                break;
            }
            step_s.push(elapsed);
            if let Some(t) = probe {
                handle_s.push(t.take_client_s(id));
            }
            if let Some(p) = pacer {
                p.after_query();
            }
        }
        if run.failed == 0 {
            // Disconnect: releases the id's adaptive state (and, over the
            // wire, its connection).
            run.failed +=
                catch_unwind(AssertUnwindSafe(|| handle.call(id, Request::Forget))).is_err() as u64;
        }
        let mut result = catch_unwind(AssertUnwindSafe(|| session.finish())).unwrap_or_default();
        if result.records.is_empty() {
            break;
        }
        for (i, r) in result.records.iter().enumerate().take(step_s.len()) {
            let s = step_s[i];
            run.step_us.push(r.kind, s * 1e6);
            if let Some(h) = handle_s.get(i) {
                run.client_us.push(r.kind, (s - h) * 1e6);
            }
        }
        run.steps += step_s.len() as u64;
        let i2c = result.windows.last().map_or(0.0, |w| w.index_to_cache);
        run.episodes.push(Episode::of(id, &result.records, i2c));
        if k as usize + 1 == spec.min_sessions {
            run.model_rss_mib = crate::workload::peak_rss_mib();
        }
        if k == 0 {
            result.records.truncate(spec.keep);
            run.first = result.records;
        }
        if done || run.failed > 0 {
            break;
        }
    }
    run
}

/// A record with its wall-clock fields cleared, for exact comparison.
pub fn modeled(r: &QueryRecord) -> QueryRecord {
    QueryRecord {
        client_cpu_s: 0.0,
        server_cpu_s: 0.0,
        ..*r
    }
}

/// The correctness gate: every client's first `n` queries checked against
/// the `Request::Direct` oracle (`SimConfig::verify`). Clients run one
/// after another on this thread. Under churn the writer's batches are
/// applied between queries at the workload's pace, and `Direct` is
/// answered by an [`EpochOracle`] holding the world at the client's
/// epoch, since an answer served from the cache is exact for the epoch
/// the client last synced to, not for the newest one. Returns each
/// client's verified records and the number of failed clients.
pub fn verify_prefix(
    spec: &RunSpec,
    handle: &dyn ServerHandle,
    oracle: Option<Server>,
    n: usize,
) -> (Vec<Vec<QueryRecord>>, u64) {
    let mut cfg = spec.cfg;
    cfg.verify = true;
    let mut failed = 0;
    let mut records = Vec::new();
    let mut rng = spec.churn.map(|c| SmallRng::seed_from_u64(c.seed ^ 0x7E51));
    let mut applied = 0u64;
    let oracle = oracle.map(|o| EpochOracle {
        main: handle,
        oracle: o,
        pending: Mutex::new(Vec::new()),
    });
    let checked: &dyn ServerHandle = match &oracle {
        Some(o) => o,
        None => handle,
    };
    for id in 0..spec.clients {
        let out = catch_unwind(AssertUnwindSafe(|| {
            let mut session = ClientSession::new(&cfg, checked, id);
            for _ in 0..n {
                session.step(checked);
                if let (Some(churn), Some(rng), Some(o)) = (spec.churn, rng.as_mut(), &oracle) {
                    let target = session.issued() as u64 * churn.rate_per_100 as u64 / 100;
                    while applied < target {
                        let k = churn.batch.min((target - applied) as usize);
                        let n_live = handle.core().pin().store().len() as u32;
                        let batch: Vec<Update> =
                            (0..k).map(|_| generate_update(rng, n_live)).collect();
                        o.apply(&batch);
                        applied += k as u64;
                    }
                }
            }
            checked.call(id, Request::Forget);
            session.finish().records
        }));
        match out {
            Ok(r) => records.push(r),
            Err(_) => {
                failed += 1;
                records.push(Vec::new());
            }
        }
    }
    (records, failed)
}

/// A handle for one sequentially driven versioned client: every request
/// goes to `main` except `Direct`, which `oracle` answers. `oracle` is a
/// second server over the same dataset that receives the same update
/// batches, but only when the client contacts `main` — the moment the
/// client syncs to the newest epoch.
struct EpochOracle<'a> {
    main: &'a dyn ServerHandle,
    oracle: Server,
    pending: Mutex<Vec<Vec<Update>>>,
}

impl EpochOracle<'_> {
    fn apply(&self, batch: &[Update]) {
        self.main.apply_updates(batch);
        self.pending
            .lock()
            .expect("oracle queue lock poisoned")
            .push(batch.to_vec());
    }
}

impl Transport for EpochOracle<'_> {
    fn call(&self, client: ClientId, req: Request) -> Response {
        if matches!(req, Request::Direct(_)) {
            return self.oracle.call(client, req);
        }
        let syncs = matches!(req, Request::RemainderVersioned { .. });
        let resp = self.main.call(client, req);
        if syncs {
            for batch in self
                .pending
                .lock()
                .expect("oracle queue lock poisoned")
                .drain(..)
            {
                self.oracle.apply_updates(&batch);
            }
        }
        resp
    }
}

impl ServerHandle for EpochOracle<'_> {
    fn core(&self) -> &ServerCore {
        self.main.core()
    }

    fn apply_updates(&self, updates: &[Update]) -> u64 {
        self.main.apply_updates(updates)
    }

    fn bootstrap_root(&self) -> (Option<(NodeId, pc_geom::Rect)>, u64) {
        self.main.bootstrap_root()
    }

    fn log_records(&self) -> usize {
        self.main.log_records()
    }
}
