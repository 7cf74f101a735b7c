//! The traced run's instruments, all outside the program: a timing
//! wrapper around a `ServerHandle`, a replayer that runs a client's
//! query stream through the public `pc_client::Client` API with a timer
//! around each call, and codec timings over captured envelopes.
//!
//! `run_local`, `absorb` and `assemble` are only called from inside
//! `ProactiveRunner`, so they cannot be timed around a `ClientSession`.
//! [`Replayer`] reproduces one session's plain-protocol stream step for
//! step instead; the caller checks that its byte and result totals equal
//! the untraced session's, so the layer timings describe the program
//! that was timed.

use crate::drive::{ByKind, Episode, FleetRun};
use crate::stats::{Reservoir, Summary};
use pc_cache::{Catalog, InsertOutcome};
use pc_client::Client;
use pc_mobility::MobileClient;
use pc_net::Ledger;
use pc_rtree::proto::{
    Request, Response, VersionedReply, CONFIRM_BYTES, OBJECT_HEADER_BYTES, PAIR_BYTES,
};
use pc_rtree::{NodeId, ObjectId};
use pc_server::{ClientId, ServerCore, ServerHandle, Transport, Update};
use pc_sim::{client_seed, QueryKind, QueryRecord, SimConfig};
use pc_workload::QueryGenerator;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What a [`Timed`] handle saw.
#[derive(Clone, Debug, Default)]
pub struct HandleLog {
    /// µs per remainder call (plain or versioned).
    pub remainder_us: Reservoir,
    /// µs per fmr report.
    pub report_us: Reservoir,
    /// µs per call of any kind.
    pub call_us: Reservoir,
    /// Remainder replies that carried results (`Fresh` or plain).
    pub replies: u64,
    pub reply_index_bytes: u64,
    pub reply_objects: u64,
}

/// A `ServerHandle` that times every call into the handle it wraps. It
/// also keeps, per client thread (session id modulo the thread count),
/// the seconds spent in calls since the last [`Timed::take_client_s`].
pub struct Timed {
    inner: Arc<dyn ServerHandle>,
    log: Mutex<HandleLog>,
    client_ns: Vec<AtomicU64>,
}

impl Timed {
    pub fn new(inner: Arc<dyn ServerHandle>, clients: u32) -> Self {
        Timed {
            inner,
            log: Mutex::new(HandleLog::default()),
            client_ns: (0..clients.max(1)).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Seconds `client` spent in calls since the previous take.
    pub fn take_client_s(&self, client: ClientId) -> f64 {
        // SeqCst: the wire server's connection thread adds, the client
        // thread takes after reading the reply off the socket.
        self.slot(client).swap(0, Ordering::SeqCst) as f64 * 1e-9
    }

    fn slot(&self, client: ClientId) -> &AtomicU64 {
        &self.client_ns[client as usize % self.client_ns.len()]
    }

    pub fn log(&self) -> HandleLog {
        self.log.lock().expect("handle log lock poisoned").clone()
    }
}

impl Transport for Timed {
    fn call(&self, client: ClientId, req: Request) -> Response {
        let remainder = matches!(
            req,
            Request::Remainder(_) | Request::RemainderVersioned { .. }
        );
        let report = matches!(req, Request::ReportFmr { .. });
        let t = Instant::now();
        let resp = self.inner.call(client, req);
        let dt = t.elapsed();
        self.slot(client)
            .fetch_add(dt.as_nanos() as u64, Ordering::SeqCst);
        let reply = match &resp {
            Response::Remainder(r) => Some(r),
            Response::Versioned(VersionedReply::Fresh { reply, .. }) => Some(reply),
            _ => None,
        };
        let us = dt.as_secs_f64() * 1e6;
        let mut log = self.log.lock().expect("handle log lock poisoned");
        log.call_us.push(us);
        if remainder {
            log.remainder_us.push(us);
        }
        if report {
            log.report_us.push(us);
        }
        if let Some(r) = reply {
            log.replies += 1;
            log.reply_index_bytes += r.index_bytes();
            log.reply_objects += r.objects.len() as u64;
        }
        resp
    }
}

impl ServerHandle for Timed {
    fn core(&self) -> &ServerCore {
        self.inner.core()
    }

    fn apply_updates(&self, updates: &[Update]) -> u64 {
        self.inner.apply_updates(updates)
    }

    fn bootstrap_root(&self) -> (Option<(NodeId, pc_geom::Rect)>, u64) {
        self.inner.bootstrap_root()
    }

    fn log_records(&self) -> usize {
        self.inner.log_records()
    }
}

/// Timings of one replayed step.
#[derive(Clone, Debug, Default)]
pub struct StepTrace {
    pub record: QueryRecord,
    pub step_s: f64,
    pub run_local_s: f64,
    /// The remainder contact, if any, timed around `Transport::call`.
    pub call_s: Option<f64>,
    /// Of that, seconds inside the server-side handle (with a probe).
    pub call_handle_s: Option<f64>,
    pub absorb: Option<(f64, InsertOutcome)>,
    pub assemble_s: f64,
    /// `ProactiveCache::stats`, which a session reads after every query
    /// for its index/cache series.
    pub cache_stats_s: f64,
    /// The periodic fmr report, if this step sent one.
    pub report_s: Option<f64>,
    /// The remainder request and its reply, when capture is on.
    pub envelopes: Option<(Request, Response)>,
}

impl StepTrace {
    /// Step time not spent in a call into another layer.
    pub fn self_s(&self) -> f64 {
        self.step_s
            - self.run_local_s
            - self.call_s.unwrap_or(0.0)
            - self.absorb.as_ref().map_or(0.0, |a| a.0)
            - self.assemble_s
            - self.cache_stats_s
            - self.report_s.unwrap_or(0.0)
    }
}

/// One client's query stream replayed through the public client API: the
/// same seeds, query generation, mobility, ledger and fmr reports as a
/// `ClientSession` over a plain-protocol `ProactiveRunner`.
pub struct Replayer {
    id: ClientId,
    cfg: SimConfig,
    capacity: u64,
    client: Client,
    mobile: MobileClient,
    qgen: QueryGenerator,
    fm_win: u64,
    cached_win: u64,
    issued: usize,
}

impl Replayer {
    pub fn new(cfg: &SimConfig, handle: &dyn ServerHandle, id: ClientId) -> Self {
        assert!(!cfg.versioned, "the replay mirrors the plain protocol only");
        let capacity = cfg.cache_bytes(handle.core().pin().store().total_bytes());
        let seed = client_seed(cfg.seed, id);
        let (root, _epoch) = handle.bootstrap_root();
        Replayer {
            id,
            cfg: *cfg,
            capacity,
            client: Client::new(capacity, cfg.policy, Catalog { root }),
            mobile: MobileClient::new(cfg.mobility, cfg.mobility_cfg, seed ^ 0x4d4f42),
            qgen: QueryGenerator::new(cfg.workload, seed ^ 0x514f),
            fm_win: 0,
            cached_win: 0,
            issued: 0,
        }
    }

    /// `index bytes / capacity` of the cache right now.
    pub fn index_to_cache(&self) -> f64 {
        self.client.cache().stats().index_bytes as f64 / self.capacity as f64
    }

    /// One think-move-query-absorb cycle with a timer around each call
    /// into `pc_client` and the handle. `probe` is the server-side
    /// [`Timed`] behind a remote `handle`; `capture` keeps the remainder
    /// envelopes for codec timing.
    pub fn step(
        &mut self,
        handle: &dyn ServerHandle,
        probe: Option<&Timed>,
        capture: bool,
    ) -> StepTrace {
        let step_start = Instant::now();
        let mut tr = StepTrace::default();
        let think = self.qgen.think_time();
        self.mobile.advance(think);
        let pos = self.mobile.position();
        let spec = self.qgen.next_query(pos);

        self.client.begin_query();
        let t = Instant::now();
        let local = self.client.run_local(&spec);
        tr.run_local_s = t.elapsed().as_secs_f64();
        let snap = handle.core().pin();
        let store = snap.store();
        let size = |id: &ObjectId| store.get(*id).size_bytes as u64;
        let mut ledger = Ledger {
            saved_bytes: local.saved.iter().map(size).sum(),
            ..Default::default()
        };
        let mut cached_results = local.saved.clone();
        let reply = match &local.remainder {
            Some(rq) => {
                let req = Request::Remainder(rq.clone());
                ledger.contacted_server = true;
                ledger.contacts = 1;
                ledger.uplink_bytes = req.wire_bytes();
                ledger.server_time_s = self.cfg.server_time_s;
                let sent = capture.then(|| req.clone());
                if let Some(p) = probe {
                    p.take_client_s(self.id);
                }
                let t = Instant::now();
                let resp = handle.call(self.id, req);
                tr.call_s = Some(t.elapsed().as_secs_f64());
                tr.call_handle_s = probe.map(|p| p.take_client_s(self.id));
                if let Some(sent) = sent {
                    tr.envelopes = Some((sent, resp.clone()));
                }
                let reply = resp.into_remainder();
                ledger.confirmed_bytes = reply.confirmed.iter().map(size).sum();
                ledger.confirm_wire_bytes = reply.confirmed.len() as u64 * CONFIRM_BYTES;
                ledger.transmitted = reply.objects.iter().map(|o| o.size_bytes).collect();
                ledger.transmitted_header_bytes = reply.objects.len() as u64 * OBJECT_HEADER_BYTES;
                ledger.extra_downlink_bytes =
                    reply.index_bytes() + reply.pairs.len() as u64 * PAIR_BYTES;
                cached_results.extend(reply.confirmed.iter().copied());
                let t = Instant::now();
                let outcome = self.client.absorb(&reply, pos);
                tr.absorb = Some((t.elapsed().as_secs_f64(), outcome));
                Some(reply)
            }
            None => None,
        };
        let t = Instant::now();
        let answer = self.client.assemble(&local, reply.as_ref());
        tr.assemble_s = t.elapsed().as_secs_f64();

        let resp = ledger.response(&self.cfg.channel);
        self.mobile.advance(resp.completion_s);
        let cached = cached_results.len() as u64;
        let served = local.saved.len() as u64;
        self.fm_win += cached - served;
        self.cached_win += cached;
        self.issued += 1;
        if self.cfg.fmr_report_period > 0 && self.issued.is_multiple_of(self.cfg.fmr_report_period)
        {
            let fmr = if self.cached_win > 0 {
                self.fm_win as f64 / self.cached_win as f64
            } else {
                0.0
            };
            let req = Request::ReportFmr { fmr };
            ledger.uplink_bytes += req.wire_bytes();
            let t = Instant::now();
            let reply = handle.call(self.id, req);
            tr.report_s = Some(t.elapsed().as_secs_f64());
            ledger.extra_downlink_bytes += reply.wire_bytes();
            self.fm_win = 0;
            self.cached_win = 0;
        }
        let t = Instant::now();
        std::hint::black_box(self.client.cache().stats());
        tr.cache_stats_s = t.elapsed().as_secs_f64();
        // Like the session, size the cached results from a fresh pin.
        let snap = handle.core().pin();
        let store = snap.store();
        tr.record = QueryRecord {
            kind: QueryKind::of(&spec),
            uplink_bytes: ledger.uplink_bytes,
            downlink_bytes: ledger.downlink_bytes(),
            saved_bytes: ledger.saved_bytes,
            confirmed_bytes: ledger.confirmed_bytes,
            transmitted_bytes: ledger.transmitted_bytes(),
            result_bytes: ledger.result_bytes(),
            cached_result_bytes: cached_results
                .iter()
                .map(|&id| store.get(id).size_bytes as u64)
                .sum(),
            avg_response_s: resp.avg_response_s,
            completion_s: resp.completion_s,
            result_count: answer.objects.len() as u32,
            cached_results: cached as u32,
            false_misses: (cached - served) as u32,
            contacted: ledger.contacted_server,
            client_expansions: local.expansions,
            ..Default::default()
        };
        tr.step_s = step_start.elapsed().as_secs_f64();
        tr
    }
}

/// Encode and decode timings of the captured envelopes through the
/// public `pc_wire` functions, each round trip checked for equality.
#[derive(Clone, Debug, Default)]
pub struct CodecTimes {
    pub encode: Summary,
    pub decode: Summary,
    /// Envelopes that did not decode back to themselves.
    pub mismatches: u64,
}

pub fn time_codec(envelopes: &[(Request, Response)]) -> CodecTimes {
    let mut enc = Vec::with_capacity(2 * envelopes.len());
    let mut dec = Vec::with_capacity(2 * envelopes.len());
    let mut mismatches = 0;
    let split = |frame: &[u8]| {
        pc_wire::read_frame(&mut &frame[..], u64::MAX).expect("re-encoded frame must parse")
    };
    for (seq, (req, resp)) in envelopes.iter().enumerate() {
        let t = Instant::now();
        let frame = std::hint::black_box(pc_wire::encode_request(0, seq as u32, req));
        enc.push(t.elapsed().as_secs_f64());
        let f = split(&frame);
        let t = Instant::now();
        let back = pc_wire::decode_request(f.header.tag, &f.body);
        dec.push(t.elapsed().as_secs_f64());
        mismatches += (back.as_ref().ok() != Some(req)) as u64;

        let t = Instant::now();
        let frame = std::hint::black_box(pc_wire::encode_response(0, seq as u32, resp));
        enc.push(t.elapsed().as_secs_f64());
        let f = split(&frame);
        let t = Instant::now();
        let back = pc_wire::decode_response(f.header.tag, &f.body);
        dec.push(t.elapsed().as_secs_f64());
        mismatches += (back.as_ref().ok() != Some(resp)) as u64;
    }
    CodecTimes {
        encode: Summary::new(enc),
        decode: Summary::new(dec),
        mismatches,
    }
}

/// One client thread's replayed sessions, aggregated as they run.
#[derive(Clone, Debug, Default)]
pub struct ClientReplay {
    pub steps: u64,
    /// µs per `Client::run_local`, by query kind.
    pub run_local_us: ByKind,
    pub absorb_us: Reservoir,
    pub assemble_us: Reservoir,
    pub cache_stats_us: Reservoir,
    /// µs of each step outside calls into other layers.
    pub self_us: Reservoir,
    /// µs per remainder `Transport::call`.
    pub call_us: Reservoir,
    /// µs per remainder call outside the server-side handle (with a probe).
    pub overhead_us: Reservoir,
    pub call_s_total: f64,
    pub overhead_s_total: f64,
    pub absorbs: u64,
    pub inserted_bytes: u64,
    pub evicted_bytes: u64,
    pub episodes: Vec<Episode>,
    pub envelopes: Vec<(Request, Response)>,
}

impl ClientReplay {
    fn add_step(&mut self, st: StepTrace) {
        self.steps += 1;
        self.run_local_us.push(st.record.kind, st.run_local_s * 1e6);
        self.assemble_us.push(st.assemble_s * 1e6);
        self.cache_stats_us.push(st.cache_stats_s * 1e6);
        self.self_us.push(st.self_s() * 1e6);
        if let Some((s, outcome)) = st.absorb {
            self.absorb_us.push(s * 1e6);
            self.absorbs += 1;
            self.inserted_bytes += outcome.inserted_bytes;
            self.evicted_bytes += outcome.evicted_bytes;
        }
        if let Some(c) = st.call_s {
            self.call_us.push(c * 1e6);
            if let Some(h) = st.call_handle_s {
                self.overhead_us.push((c - h) * 1e6);
                self.call_s_total += c;
                self.overhead_s_total += c - h;
            }
        }
        if let Some(e) = st.envelopes {
            self.envelopes.push(e);
        }
    }
}

#[derive(Clone, Debug, Default)]
pub struct ReplayRun {
    pub clients: Vec<ClientReplay>,
    pub wall_s: f64,
}

impl ReplayRun {
    pub fn steps(&self) -> u64 {
        self.clients.iter().map(|c| c.steps).sum()
    }

    pub fn wall_qps(&self) -> f64 {
        self.steps() as f64 / self.wall_s.max(1e-9)
    }
}

/// Replays every session of `untraced` — same ids, same query counts —
/// one thread per client as in the untraced fleet. The first `capture`
/// contacts of each thread keep their envelopes.
pub fn replay_fleet(
    cfg: &SimConfig,
    handle: &dyn ServerHandle,
    probe: Option<&Timed>,
    untraced: &FleetRun,
    capture: usize,
) -> ReplayRun {
    let start = Instant::now();
    let clients = std::thread::scope(|scope| {
        let workers: Vec<_> = untraced
            .clients
            .iter()
            .map(|c| {
                scope.spawn(move || {
                    let mut out = ClientReplay::default();
                    for ep in &c.episodes {
                        let mut r = Replayer::new(cfg, handle, ep.id);
                        let mut records = Vec::with_capacity(ep.queries);
                        for _ in 0..ep.queries {
                            let st = r.step(handle, probe, out.envelopes.len() < capture);
                            records.push(st.record);
                            out.add_step(st);
                        }
                        handle.call(ep.id, Request::Forget);
                        out.episodes
                            .push(Episode::of(ep.id, &records, r.index_to_cache()));
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("replay client panicked"))
            .collect()
    });
    ReplayRun {
        clients,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

/// `None` when every replayed session's byte and result totals equal the
/// untraced session's, else the first difference.
pub fn replay_mismatch(untraced: &FleetRun, replay: &ReplayRun) -> Option<String> {
    for (want, got) in untraced.clients.iter().zip(&replay.clients) {
        if want.episodes.len() != got.episodes.len() {
            return Some(format!(
                "client thread {}: {} untraced sessions, {} replayed",
                want.slot,
                want.episodes.len(),
                got.episodes.len()
            ));
        }
        for (a, b) in want.episodes.iter().zip(&got.episodes) {
            if a != b {
                return Some(format!("session {}: untraced {a:?}, replayed {b:?}", a.id));
            }
        }
    }
    None
}
