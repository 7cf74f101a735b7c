//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Builds the workload's world, checks a prefix of every client's stream
//! against the `Request::Direct` oracle, runs the closed-loop fleet for
//! `--seconds` and prints every metric by name with its unit, one per
//! line, then one JSON object as the last line. `--trace 0` reports the
//! end-to-end metrics of an untraced run; `--trace 1` splits the time
//! between an untraced run and a traced one and reports the per-layer
//! metrics. Exits non-zero when an answer check, a reconciliation or the
//! replay comparison fails.

use pc_perfbench::drive::{self, modeled, Episode, FleetRun, RunSpec};
use pc_perfbench::stats::{self, Reservoir, Summary};
use pc_perfbench::trace::{self, ReplayRun, Timed};
use pc_perfbench::workload::{self, Setup, Wire, Workload, World};
use pc_server::{ServerHandle, WireServerStats, WireTransportStats};
use pc_sim::{QueryKind, QueryRecord, Summary as SimSummary};
use std::sync::Arc;

/// End-to-end metrics every workload produces, as in `BENCHMARK.json`.
const END_TO_END: [&str; 11] = [
    "wall_qps",
    "range_p50_us",
    "range_p99_us",
    "knn_p50_us",
    "knn_p99_us",
    "sim_response_s",
    "uplink_bytes_per_query",
    "downlink_bytes_per_query",
    "hit_c",
    "setup_s",
    "peak_rss_mib",
];

/// Per-layer metrics every workload produces, as in `BENCHMARK.json`.
const PER_LAYER: [&str; 16] = [
    "pc_client.run_local_us.range.p50",
    "pc_client.run_local_us.range.p99",
    "pc_client.run_local_us.knn.p50",
    "pc_client.run_local_us.knn.p99",
    "pc_client.expansions.range",
    "pc_client.expansions.knn",
    "pc_client.remainder_frac",
    "pc_cache.fmr",
    "pc_cache.index_to_cache",
    "pc_server.remainder_us.p50",
    "pc_server.report_fmr_us.p50",
    "pc_server.reply_index_bytes_per_contact",
    "pc_server.reply_objects_per_contact",
    "pc_workload.generate_s",
    "pc_server.build_s",
    "trace.overhead_frac",
];

/// Remainder contacts per client whose envelopes are kept for codec timing.
const CAPTURE_PER_CLIENT: usize = 500;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Metrics in report order, plus the correctness findings.
#[derive(Default)]
struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// `<name>_p50_us` and `<name>_p99_us` (or `<name>.p50`/`.p99` when
    /// `dotted`) in µs, with the sample count and supported tail noted.
    fn timing(&mut self, name: &str, samples: &Summary, dotted: bool, p99: bool) {
        let key = |q: &str| {
            if dotted {
                format!("{name}.{q}")
            } else {
                format!("{name}_{q}_us")
            }
        };
        self.notes
            .push(format!("{name}: {}", stats::describe(samples, "us")));
        if let Some(m) = samples.median() {
            self.put(&key("p50"), m, "us");
        }
        if p99 {
            match samples.per_mille(990) {
                Some(v) => self.put(&key("p99"), v, "us"),
                None => self.notes.push(format!(
                    "{}: not reported, {} samples leave fewer than {} beyond p99",
                    key("p99"),
                    samples.count(),
                    stats::MIN_BEYOND
                )),
            }
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    fn value(&self, name: &str) -> Option<(f64, &'static str)> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, u)| (v, u))
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let declared: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "# {} seed={} seconds={} trace={} threads_available={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for note in &report.notes {
        println!("# {note}");
    }
    for (name, value, unit) in &report.metrics {
        println!("{name} = {value} {unit}");
    }
    for p in &report.problems {
        println!("# CHECK FAILED: {p}");
    }
    let mut fields = Vec::new();
    for name in declared {
        match report.value(name) {
            Some((v, unit)) if v.is_finite() => fields.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            )),
            _ => {
                eprintln!("perfbench: metric {name} was not measured on this run");
                std::process::exit(1);
            }
        }
    }
    let correct = report.problems.is_empty() && report.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        fields.join(", ")
    );
    std::process::exit(if correct { 0 } else { 1 });
}

fn run(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let cfg = w.sim_config(args.seed);
    let (mut world, setup) =
        workload::build_repeated(w, &cfg).map_err(|e| format!("set-up failed: {e}"))?;
    let mut rep = Report::default();
    let n_verify = w.verify_prefix();
    let spec = RunSpec {
        cfg,
        clients: w.clients(),
        seconds: if args.trace {
            args.seconds / 2.0
        } else {
            args.seconds
        },
        session_queries: w.session_queries(),
        min_sessions: w.model_sessions(),
        keep: n_verify,
        churn: w.churn(args.seed),
    };

    // Correctness gate: a verified prefix of every client's stream.
    let oracle = cfg.versioned.then(|| workload::oracle_server(&cfg));
    let (verified, verify_failed) = drive::verify_prefix(&spec, world.handle(), oracle, n_verify);
    rep.attempted += n_verify as u64 * spec.clients as u64;
    rep.failed += verify_failed;
    rep.check(verify_failed == 0, || {
        format!("{verify_failed} client(s) failed the Direct-oracle check")
    });
    // The oracle server is gone now; `peak_rss_mib` covers the timed run.
    workload::reset_peak_rss();

    let untraced = drive::run_fleet(&spec, world.handle(), None);
    rep.attempted += untraced.completed() + untraced.failed();
    rep.failed += untraced.failed();
    if !cfg.versioned {
        // The timed streams must be the verified ones, query for query.
        for (c, want) in untraced.clients.iter().zip(&verified) {
            let got: Vec<QueryRecord> = c.first.iter().map(modeled).collect();
            let want: Vec<QueryRecord> = want.iter().map(modeled).collect();
            rep.check(got == want, || {
                format!(
                    "client {}: timed stream diverged from its verified prefix",
                    c.slot
                )
            });
        }
    }

    if args.trace {
        traced(w, &world, &setup, &spec, &untraced, &mut rep)?;
    } else {
        end_to_end(w, &setup, &untraced, &mut rep);
    }
    if let Some(wire) = world.wire.as_mut() {
        wire.close();
        check_wire(
            "untraced",
            &wire.transport.stats(),
            &wire.server.stats(),
            &mut rep,
        );
    }
    Ok(rep)
}

/// The sessions every run completes, over all client threads.
fn model_episodes(w: Workload, clients: &[Vec<Episode>]) -> Vec<Episode> {
    clients
        .iter()
        .flat_map(|eps| eps.iter().take(w.model_sessions()).copied())
        .collect()
}

/// The query kinds the workload's mix issues.
fn kinds(w: Workload) -> &'static [QueryKind] {
    if w.sim_config(0).workload.mix.join > 0.0 {
        &[QueryKind::Range, QueryKind::Knn, QueryKind::Join]
    } else {
        &[QueryKind::Range, QueryKind::Knn]
    }
}

fn end_to_end(w: Workload, setup: &Setup, run: &FleetRun, rep: &mut Report) {
    rep.put("wall_qps", run.wall_qps(), "1/s");
    for &k in kinds(w) {
        let pooled = Reservoir::summary(run.clients.iter().map(|c| c.step_us.get(k)));
        rep.timing(k.name(), &pooled, false, true);
    }
    if let Some(writer) = &run.writer {
        rep.timing(
            "update",
            &Reservoir::summary([&writer.batch_us]),
            false,
            true,
        );
        rep.notes
            .push(format!("writer applied {} updates", writer.applied));
    }
    let sessions: usize = run.clients.iter().map(|c| c.episodes.len()).sum();
    rep.notes.push(format!(
        "{} queries in {sessions} sessions over {:.3}s",
        run.completed(),
        run.wall_s
    ));
    let eps: Vec<Vec<Episode>> = run.clients.iter().map(|c| c.episodes.clone()).collect();
    let model = model_episodes(w, &eps);
    let (queries, totals) = Episode::combine(&model);
    let sum = SimSummary::from_totals(queries, totals);
    rep.notes.push(format!(
        "model metrics over the first {} sessions of each client ({queries} queries)",
        w.model_sessions()
    ));
    rep.put("sim_response_s", sum.avg_response_s, "s");
    rep.put("uplink_bytes_per_query", sum.avg_uplink_bytes, "B");
    rep.put("downlink_bytes_per_query", sum.avg_downlink_bytes, "B");
    rep.put("hit_c", sum.hit_c, "ratio");
    let attempted = run.completed() as f64 + run.failed() as f64;
    rep.put(
        "failed_frac",
        run.failed() as f64 / attempted.max(1.0),
        "ratio",
    );
    rep.put("setup_s", setup.setup_s, "s");
    rep.notes.push(format!(
        "setup_s phases (median of {}): generate {:.4}s, build {:.4}s, spawn {:.4}s",
        workload::SETUP_REPEATS,
        setup.phases.generate_s,
        setup.phases.build_s,
        setup.phases.spawn_s
    ));
    // Read when the model sessions end, a fixed amount of work: under
    // churn every applied insert grows the store, so the peak at the end
    // of the run would grow with throughput.
    let at_model = run
        .clients
        .iter()
        .filter_map(|c| c.model_rss_mib)
        .reduce(f64::max);
    if let Some(rss) = at_model {
        rep.put("peak_rss_mib", rss, "MiB");
    }
    rep.notes.push(format!(
        "peak_rss_mib: {:.2} MiB after the model sessions, {:.2} MiB at the end of the run",
        at_model.unwrap_or(f64::NAN),
        workload::peak_rss_mib().unwrap_or(f64::NAN)
    ));
}

fn check_wire(what: &str, t: &WireTransportStats, s: &WireServerStats, rep: &mut Report) {
    rep.check(t.reconciles(), || {
        format!("{what} wire: measured bytes do not reconcile with the model: {t:?}")
    });
    rep.check(s.requests_served == t.rx_frames, || {
        format!(
            "{what} wire: server served {} requests, client received {} frames",
            s.requests_served, t.rx_frames
        )
    });
}

/// `total / n`, 0 without items.
fn mean(total: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

fn traced(
    w: Workload,
    world: &World,
    setup: &Setup,
    spec: &RunSpec,
    untraced: &FleetRun,
    rep: &mut Report,
) -> Result<(), String> {
    rep.put("pc_workload.generate_s", setup.phases.generate_s, "s");
    rep.put("pc_server.build_s", setup.phases.build_s, "s");
    if w == Workload::WireReads {
        rep.put("wire.spawn_s", setup.phases.spawn_s, "s");
    }
    let episodes: Vec<Vec<Episode>>;
    let traced_qps;
    let timed;
    if spec.cfg.versioned {
        // Churn: sessions step through a timed handle around the service;
        // client-side time is the step minus the time inside handle calls.
        let service = world
            .service
            .clone()
            .ok_or("churn world without a service")?;
        let before = service.stats();
        timed = Arc::new(Timed::new(
            Arc::clone(&service) as Arc<dyn ServerHandle>,
            spec.clients,
        ));
        let run = drive::run_fleet(spec, timed.as_ref(), Some(&timed));
        rep.attempted += run.completed() + run.failed();
        rep.failed += run.failed();
        traced_qps = run.wall_qps();
        for &k in kinds(w) {
            let s = Reservoir::summary(run.clients.iter().map(|c| c.client_us.get(k)));
            rep.timing(
                &format!("pc_client.run_local_us.{}", k.name()),
                &s,
                true,
                true,
            );
        }
        let after = service.stats();
        let batches = after.batches - before.batches;
        let requests = after.batched_requests - before.batched_requests;
        let log = timed.log();
        rep.timing(
            "service.call_us",
            &Reservoir::summary([&log.call_us]),
            true,
            true,
        );
        rep.put("service.batches", batches as f64, "count");
        rep.put(
            "service.mean_batch",
            mean(requests as f64, batches as usize),
            "requests",
        );
        if let Some(writer) = &run.writer {
            rep.timing(
                "update",
                &Reservoir::summary([&writer.batch_us]),
                false,
                true,
            );
        }
        episodes = run.clients.iter().map(|c| c.episodes.clone()).collect();
    } else {
        // Replay each client's untraced sessions through the client API.
        let served: Arc<dyn ServerHandle> = Arc::clone(&world.server) as Arc<dyn ServerHandle>;
        timed = Arc::new(Timed::new(served, spec.clients));
        let replay: ReplayRun;
        let mut codec = None;
        if w == Workload::WireReads {
            let mut wire = Wire::spawn(Arc::clone(&timed) as Arc<dyn ServerHandle>)
                .map_err(|e| format!("traced wire spawn failed: {e}"))?;
            replay = trace::replay_fleet(
                &spec.cfg,
                &wire.transport,
                Some(&timed),
                untraced,
                CAPTURE_PER_CLIENT,
            );
            wire.close();
            let (t, s) = (wire.transport.stats(), wire.server.stats());
            check_wire("traced", &t, &s, rep);
            let untraced_server = world
                .wire
                .as_ref()
                .map(|x| x.server.stats())
                .unwrap_or_default();
            wire_layer(&replay, &t, &s, &untraced_server, rep);
            let envelopes: Vec<_> = replay
                .clients
                .iter()
                .flat_map(|c| c.envelopes.iter().cloned())
                .collect();
            codec = Some(trace::time_codec(&envelopes));
        } else {
            replay = trace::replay_fleet(&spec.cfg, timed.as_ref(), None, untraced, 0);
        }
        let queries = replay.steps();
        rep.attempted += queries;
        match trace::replay_mismatch(untraced, &replay) {
            None => rep.notes.push(format!(
                "replay: {queries} queries, every session's byte and result totals equal to the untraced run's"
            )),
            Some(m) => rep.problems.push(format!("replay differs from the untraced run: {m}")),
        }
        traced_qps = replay.wall_qps();
        client_layer(w, &replay, rep);
        if let Some(c) = codec {
            rep.check(c.mismatches == 0, || {
                format!(
                    "{} envelopes did not survive a codec round trip",
                    c.mismatches
                )
            });
            rep.put(
                "pc_wire.encode_us.p50",
                c.encode.median().unwrap_or(0.0) * 1e6,
                "us",
            );
            rep.put(
                "pc_wire.decode_us.p50",
                c.decode.median().unwrap_or(0.0) * 1e6,
                "us",
            );
            rep.notes.push(format!(
                "pc_wire codec timed over {} frames",
                c.encode.count()
            ));
        }
        episodes = replay.clients.iter().map(|c| c.episodes.clone()).collect();
    }

    // Per-query counters over the model sessions.
    let model = model_episodes(w, &episodes);
    let (queries, totals) = Episode::combine(&model);
    let sum = SimSummary::from_totals(queries, totals);
    for &k in kinds(w) {
        let i = drive::ByKind::index(k);
        let n: u64 = model.iter().map(|e| e.kind_queries[i]).sum();
        let x: u64 = model.iter().map(|e| e.kind_expansions[i]).sum();
        rep.put(
            &format!("pc_client.expansions.{}", k.name()),
            mean(x as f64, n as usize),
            "per_query",
        );
    }
    rep.put("pc_client.remainder_frac", sum.contact_rate, "ratio");
    rep.put("pc_cache.fmr", sum.fmr, "ratio");
    let i2c: f64 = model.iter().map(|e| e.index_to_cache).sum();
    rep.put("pc_cache.index_to_cache", mean(i2c, model.len()), "ratio");
    rep.put("updates.stale_retry_rate", sum.stale_retry_rate, "ratio");
    rep.put(
        "updates.full_refreshes",
        sum.totals.full_refreshes as f64,
        "count",
    );
    rep.put(
        "updates.invalidation_bytes_per_query",
        mean(sum.totals.invalidation_bytes as f64, queries),
        "B",
    );
    rep.put(
        "updates.log_records_end",
        world.handle().log_records() as f64,
        "count",
    );

    // Server-side handle timings.
    let log = timed.log();
    rep.timing(
        "pc_server.remainder_us",
        &Reservoir::summary([&log.remainder_us]),
        true,
        true,
    );
    rep.timing(
        "pc_server.report_fmr_us",
        &Reservoir::summary([&log.report_us]),
        true,
        false,
    );
    rep.put(
        "pc_server.reply_index_bytes_per_contact",
        mean(log.reply_index_bytes as f64, log.replies as usize),
        "B",
    );
    rep.put(
        "pc_server.reply_objects_per_contact",
        mean(log.reply_objects as f64, log.replies as usize),
        "objects",
    );
    rep.put(
        "trace.overhead_frac",
        untraced.wall_qps() / traced_qps.max(1e-9) - 1.0,
        "ratio",
    );
    rep.notes.push(format!(
        "wall_qps untraced {:.1}, traced {:.1}",
        untraced.wall_qps(),
        traced_qps
    ));
    Ok(())
}

/// `pc_client`, `pc_cache` and `pc_sim` metrics of a replay.
fn client_layer(w: Workload, replay: &ReplayRun, rep: &mut Report) {
    let cs = &replay.clients;
    for &k in kinds(w) {
        let s = Reservoir::summary(cs.iter().map(|c| c.run_local_us.get(k)));
        rep.timing(
            &format!("pc_client.run_local_us.{}", k.name()),
            &s,
            true,
            true,
        );
    }
    let s = Reservoir::summary(cs.iter().map(|c| &c.absorb_us));
    rep.timing("pc_client.absorb_us", &s, true, true);
    let s = Reservoir::summary(cs.iter().map(|c| &c.assemble_us));
    rep.timing("pc_client.assemble_us", &s, true, false);
    let s = Reservoir::summary(cs.iter().map(|c| &c.cache_stats_us));
    rep.timing("pc_cache.stats_us", &s, true, false);
    let absorbs: u64 = cs.iter().map(|c| c.absorbs).sum();
    let inserted: u64 = cs.iter().map(|c| c.inserted_bytes).sum();
    let evicted: u64 = cs.iter().map(|c| c.evicted_bytes).sum();
    rep.put(
        "pc_cache.inserted_bytes_per_absorb",
        mean(inserted as f64, absorbs as usize),
        "B",
    );
    rep.put(
        "pc_cache.evicted_bytes_per_absorb",
        mean(evicted as f64, absorbs as usize),
        "B",
    );
    let s = Reservoir::summary(cs.iter().map(|c| &c.self_us));
    rep.timing("pc_sim.step_self_us", &s, true, false);
}

/// `wire` metrics of a replay over TCP.
fn wire_layer(
    replay: &ReplayRun,
    t: &WireTransportStats,
    s: &WireServerStats,
    untraced: &WireServerStats,
    rep: &mut Report,
) {
    let cs = &replay.clients;
    let sc = Reservoir::summary(cs.iter().map(|c| &c.call_us));
    rep.timing("wire.call_us", &sc, true, true);
    let so = Reservoir::summary(cs.iter().map(|c| &c.overhead_us));
    rep.timing("wire.overhead_us", &so, true, true);
    let total: f64 = cs.iter().map(|c| c.call_s_total).sum();
    let overhead: f64 = cs.iter().map(|c| c.overhead_s_total).sum();
    rep.put("wire.overhead_frac", overhead / total.max(1e-12), "ratio");
    let queries = replay.steps() as usize;
    rep.put(
        "wire.tx_bytes_per_query",
        mean(t.tx_bytes as f64, queries),
        "B",
    );
    rep.put(
        "wire.rx_bytes_per_query",
        mean(t.rx_bytes as f64, queries),
        "B",
    );
    rep.put(
        "wire.frames_rejected",
        (s.frames_rejected + untraced.frames_rejected) as f64,
        "count",
    );
    rep.put(
        "wire.requests_aborted",
        (s.requests_aborted + untraced.requests_aborted) as f64,
        "count",
    );
}
