//! Golden digest of the server's binary partition trees.
//!
//! BPT codes travel over the wire and key the client cache, so the BPT
//! builder must make exactly the same split decisions from one version of
//! the code to the next. The fleet, wire and cluster suites compare two
//! runs of the same build and cannot see a drift that both runs share;
//! this test can. It hashes every cell (MBR bits, kind, arena indices) and
//! every height of the `BptStore` over the scaled default world — 20k
//! NE-like objects, seed 2005, the paper's fan-out — once as bulk loaded
//! and once after 500 two-update batches from `generate_update`.
//!
//! The expected digests were recorded with the original recursive
//! builder. If a change moves them, it changed what clients receive.

use procache::rtree::bpt::{BptCellKind, BptStore};
use procache::rtree::{NodeId, RTreeConfig};
use procache::server::ServerCore;
use procache::sim::generate_update;
use procache::workload::datasets;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const DIGEST_BULK_LOADED: u64 = 10_934_205_291_669_553_196;
const DIGEST_AFTER_500_BATCHES: u64 = 10_546_122_484_181_454_297;

/// FNV-1a over 64-bit words: stable across platforms and toolchains.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn digest(store: &BptStore) -> u64 {
    let mut h = Fnv::new();
    h.word(store.node_count() as u64);
    for i in 0..store.node_count() {
        let bpt = store.get(NodeId(i as u32));
        h.word(bpt.cells().len() as u64);
        h.word(bpt.height() as u64);
        for cell in bpt.cells() {
            for v in [
                cell.mbr.min.x,
                cell.mbr.min.y,
                cell.mbr.max.x,
                cell.mbr.max.y,
            ] {
                h.word(v.to_bits());
            }
            match cell.kind {
                BptCellKind::Internal { left, right } => {
                    h.word(1);
                    h.word(left as u64);
                    h.word(right as u64);
                }
                BptCellKind::Leaf { entry_idx } => {
                    h.word(2);
                    h.word(entry_idx as u64);
                }
            }
        }
    }
    h.0
}

#[test]
fn bpt_store_digest_matches_the_recorded_builds() {
    let core = ServerCore::build(datasets::ne_like(20_000, 2005), RTreeConfig::paper());
    let bulk = digest(core.pin().bpts());

    let mut rng = SmallRng::seed_from_u64(2005 ^ 0x5EED_CAFE);
    for _ in 0..500 {
        let n_live = core.pin().store().len() as u32;
        let batch: Vec<_> = (0..2).map(|_| generate_update(&mut rng, n_live)).collect();
        core.apply_updates(&batch);
    }
    let churned = digest(core.pin().bpts());

    assert_eq!(
        (bulk, churned),
        (DIGEST_BULK_LOADED, DIGEST_AFTER_500_BATCHES),
        "BPT split decisions drifted from the recorded builds"
    );
}
