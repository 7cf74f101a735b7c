//! The three workloads and the world each one runs against.
//!
//! All three share the scaled default of the repository's figure
//! harness (20k NE-like objects, `pc_bench::scaled_default` selectivity),
//! APRO form selection with GRD3 replacement and DIR mobility; they differ
//! in which layers their traffic reaches (see `perfbench/README.md`).

use pc_cache::ReplacementPolicy;
use pc_server::{
    BatchedService, FormPolicy, Server, ServerConfig, ServerHandle, TcpTransport, WireServer,
    WireServerConfig,
};
use pc_sim::{CacheModel, ChurnConfig, SimConfig};
use pc_workload::QueryMix;
use std::sync::Arc;
use std::time::Instant;

/// Seed of the object set. The paper evaluates on one fixed real dataset
/// (NE); the NE-like stand-in is fixed the same way, and `--seed` varies
/// what the clients and the writer do with it.
pub const DATASET_SEED: u64 = 2005;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 41;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Range:kNN:join 1:1:1, |C| = 1 %, in-process `&Server`, 2 clients.
    PaperMix,
    /// Range and kNN, |C| = 0.1 %, 2 clients over TCP loopback.
    WireReads,
    /// Range and kNN, |C| = 1 %, one client beside one writer, §7
    /// versioned protocol through the batched service.
    Churn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::PaperMix, Workload::WireReads, Workload::Churn];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMix => "apro_paper_mix",
            Workload::WireReads => "apro_wire_reads",
            Workload::Churn => "apro_churn",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The simulation configuration of every client session.
    pub fn sim_config(self, seed: u64) -> SimConfig {
        let mut cfg = pc_bench::scaled_default();
        cfg.model = CacheModel::Proactive;
        cfg.form = FormPolicy::Adaptive;
        cfg.policy = ReplacementPolicy::Grd3;
        cfg.mobility = pc_mobility::MobilityModel::Dir;
        cfg.seed = seed;
        // Runs are bounded by time, not by a query budget.
        cfg.n_queries = usize::MAX;
        cfg.verify = false;
        match self {
            Workload::PaperMix => {
                cfg.cache_frac = 0.01;
                cfg.workload.mix = QueryMix::paper();
            }
            Workload::WireReads => {
                cfg.cache_frac = 0.001;
                cfg.workload.mix = QueryMix::no_join();
            }
            Workload::Churn => {
                cfg.cache_frac = 0.01;
                cfg.workload.mix = QueryMix::no_join();
                cfg.versioned = true;
            }
        }
        cfg
    }

    /// Load-generating client threads (one session each).
    pub fn clients(self) -> u32 {
        match self {
            Workload::PaperMix | Workload::WireReads => 2,
            Workload::Churn => 1,
        }
    }

    /// The writer's pacing: 50 updates per 100 completed queries in
    /// batches of 2 (the CI churn smoke's setting).
    pub fn churn(self, seed: u64) -> Option<ChurnConfig> {
        (self == Workload::Churn).then_some(ChurnConfig {
            rate_per_100: 50,
            batch: 2,
            seed: seed ^ 0x5EED_CAFE,
        })
    }

    /// Queries per session (see `RunSpec::session_queries`).
    pub fn session_queries(self) -> usize {
        match self {
            Workload::PaperMix => 200,
            Workload::WireReads | Workload::Churn => 2_000,
        }
    }

    /// Sessions per client thread that every timed run completes, even
    /// past its deadline. The model metrics (bytes, hit rate, §4.1
    /// response) and the per-query counters are taken over exactly these
    /// sessions, so on the unversioned workloads they repeat bit for bit
    /// for a seed. On `apro_paper_mix` they also guarantee the ≥1000
    /// range and ≥1000 kNN step timings fleet-wide that p99 needs.
    pub fn model_sessions(self) -> usize {
        match self {
            Workload::PaperMix => 16,
            Workload::WireReads => 50,
            Workload::Churn => 20,
        }
    }

    /// Queries of each client's first session checked against the
    /// `Request::Direct` oracle.
    pub fn verify_prefix(self) -> usize {
        match self {
            Workload::PaperMix => 30,
            Workload::WireReads | Workload::Churn => 200,
        }
    }
}

/// Wall seconds of each set-up phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct Phases {
    /// `DatasetKind::generate`.
    pub generate_s: f64,
    /// `Server::new`: bulk load + per-node BPTs (+ the service front).
    pub build_s: f64,
    /// `WireServer::spawn` + transport (wire workload only).
    pub spawn_s: f64,
}

impl Phases {
    pub fn total(&self) -> f64 {
        self.generate_s + self.build_s + self.spawn_s
    }
}

/// A running server deployment for one workload.
pub struct World {
    pub server: Arc<Server>,
    /// The batched front end (churn only).
    pub service: Option<Arc<BatchedService<Arc<Server>>>>,
    /// The loopback endpoint and its client transport (wire only).
    pub wire: Option<Wire>,
    pub phases: Phases,
}

impl World {
    pub fn build(workload: Workload, cfg: &SimConfig) -> std::io::Result<World> {
        let t = Instant::now();
        let store = cfg.dataset.generate(cfg.n_objects, DATASET_SEED);
        let generate_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let server = Arc::new(server_over(store, cfg));
        let service = (workload == Workload::Churn)
            .then(|| Arc::new(BatchedService::over(Arc::clone(&server))));
        let build_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let wire = match workload {
            Workload::WireReads => Some(Wire::spawn(Arc::clone(&server) as Arc<dyn ServerHandle>)?),
            _ => None,
        };
        let spawn_s = t.elapsed().as_secs_f64();
        Ok(World {
            server,
            service,
            wire,
            phases: Phases {
                generate_s,
                build_s,
                spawn_s,
            },
        })
    }

    /// The handle the workload's clients talk to.
    pub fn handle(&self) -> &dyn ServerHandle {
        if let Some(wire) = &self.wire {
            return &wire.transport;
        }
        if let Some(service) = &self.service {
            return service.as_ref();
        }
        self.server.as_ref()
    }
}

/// The workload's server over `store`.
fn server_over(store: pc_rtree::ObjectStore, cfg: &SimConfig) -> Server {
    Server::new(
        store,
        cfg.tree_cfg,
        ServerConfig {
            form: cfg.form,
            sensitivity: cfg.sensitivity,
            initial_d: cfg.initial_d,
            ..Default::default()
        },
    )
}

/// A second, independent server over the same dataset: the oracle a
/// churned run's answers are checked against.
pub fn oracle_server(cfg: &SimConfig) -> Server {
    server_over(cfg.dataset.generate(cfg.n_objects, DATASET_SEED), cfg)
}

/// A loopback endpoint and a client transport to it. The transport is
/// declared first so it drops first: its sockets close before the server
/// drains its connection threads.
pub struct Wire {
    pub transport: TcpTransport,
    pub server: WireServer,
}

impl Wire {
    /// Serves `served` on loopback; the transport's metadata surface reads
    /// the same handle.
    pub fn spawn(served: Arc<dyn ServerHandle>) -> std::io::Result<Wire> {
        let server = WireServer::spawn(Arc::clone(&served), WireServerConfig::default())?;
        let transport = TcpTransport::connect(server.addr(), served);
        Ok(Wire { transport, server })
    }

    /// Closes every connection and joins the server's threads, so both
    /// ends' counters are final.
    pub fn close(&mut self) {
        self.transport.disconnect_all();
        self.server.shutdown();
    }
}

/// What [`build_repeated`] measured.
#[derive(Clone, Copy, Debug, Default)]
pub struct Setup {
    /// Median over the repeats of the whole set-up.
    pub setup_s: f64,
    /// Per-phase medians.
    pub phases: Phases,
}

/// Builds the world [`SETUP_REPEATS`] times, dropping all but the last,
/// and returns it with the set-up medians.
pub fn build_repeated(workload: Workload, cfg: &SimConfig) -> std::io::Result<(World, Setup)> {
    let mut runs = Vec::with_capacity(SETUP_REPEATS);
    let mut world = World::build(workload, cfg)?;
    runs.push(world.phases);
    for _ in 1..SETUP_REPEATS {
        drop(world);
        world = World::build(workload, cfg)?;
        runs.push(world.phases);
    }
    let med = |f: fn(&Phases) -> f64| median(runs.iter().map(f).collect());
    let setup = Setup {
        setup_s: med(Phases::total),
        phases: Phases {
            generate_s: med(|p| p.generate_s),
            build_s: med(|p| p.build_s),
            spawn_s: med(|p| p.spawn_s),
        },
    };
    Ok((world, setup))
}

/// Median of a few setup timings (the upper middle for an even count).
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Resets the process's peak resident set to its current one, so memory
/// held only before this point leaves [`peak_rss_mib`].
pub fn reset_peak_rss() {
    // Best effort: without it the peak also covers what came before.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's peak resident set (VmHWM), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
