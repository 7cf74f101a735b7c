//! The traced run's replay must describe the program that was timed: for
//! the same seed, replaying every untraced session through the public
//! client API reproduces each session's byte and result totals exactly.

use pc_perfbench::drive::{run_fleet, RunSpec};
use pc_perfbench::trace::{replay_fleet, replay_mismatch, Timed};
use pc_perfbench::workload::{Wire, Workload, World};
use pc_server::ServerHandle;
use std::sync::Arc;

/// A short untraced run: two sessions per client thread, no deadline.
fn spec(w: Workload, seed: u64, session_queries: usize) -> RunSpec {
    RunSpec {
        cfg: w.sim_config(seed),
        clients: w.clients(),
        seconds: 0.0,
        session_queries,
        min_sessions: 2,
        keep: 0,
        churn: None,
    }
}

#[test]
fn paper_mix_replay_matches_untraced_totals() {
    let w = Workload::PaperMix;
    let s = spec(w, 7, 45);
    let world = World::build(w, &s.cfg).expect("world");
    let untraced = run_fleet(&s, world.handle(), None);
    assert_eq!(untraced.failed(), 0);
    assert_eq!(untraced.completed(), 2 * 2 * 45);
    let timed = Timed::new(
        Arc::clone(&world.server) as Arc<dyn ServerHandle>,
        s.clients,
    );
    let replay = replay_fleet(&s.cfg, &timed, None, &untraced, 0);
    assert_eq!(replay_mismatch(&untraced, &replay), None);
    assert_eq!(replay.steps(), untraced.completed());

    // The check has teeth: another seed's stream does not match.
    let other = spec(w, 8, 45);
    let replay = replay_fleet(&other.cfg, &timed, None, &untraced, 0);
    assert!(replay_mismatch(&untraced, &replay).is_some());
}

#[test]
fn wire_reads_replay_matches_untraced_totals() {
    let w = Workload::WireReads;
    let s = spec(w, 11, 400);
    let mut world = World::build(w, &s.cfg).expect("world");
    let untraced = run_fleet(&s, world.handle(), None);
    assert_eq!(untraced.failed(), 0);

    let timed = Arc::new(Timed::new(
        Arc::clone(&world.server) as Arc<dyn ServerHandle>,
        s.clients,
    ));
    let mut wire = Wire::spawn(Arc::clone(&timed) as Arc<dyn ServerHandle>).expect("wire");
    let replay = replay_fleet(&s.cfg, &wire.transport, Some(&timed), &untraced, 16);
    assert_eq!(replay_mismatch(&untraced, &replay), None);
    // Every contact was timed on both ends of the socket.
    let contacts: u64 = replay.clients.iter().map(|c| c.call_us.seen()).sum();
    let overheads: u64 = replay.clients.iter().map(|c| c.overhead_us.seen()).sum();
    assert!(contacts > 0);
    assert_eq!(contacts, overheads);

    wire.close();
    let (t, srv) = (wire.transport.stats(), wire.server.stats());
    assert!(t.reconciles());
    assert_eq!(srv.requests_served, t.rx_frames);
    world.wire.as_mut().expect("wire world").close();
}
