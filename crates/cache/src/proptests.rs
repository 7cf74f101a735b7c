//! Property tests for the cache, centered on Theorem 5.5: GRD3 must evict
//! exactly what the EBRS-greedy GRD2 evicts, on randomized item
//! hierarchies, while every structural invariant holds for every policy.

use crate::cache::{CacheStats, ProactiveCache};
use crate::item::{ItemData, ItemKey};
use crate::policy::ReplacementPolicy;
use pc_geom::{Point, Rect};
use pc_rtree::bpt::Code;
use pc_rtree::proto::{CellKind, CellRecord, NodeShipment, ServerReply};
use pc_rtree::{NodeId, ObjectId, SpatialObject};
use proptest::prelude::*;

/// Builds a randomized two-level reply: one root, `leaves` leaf nodes, and
/// per-leaf objects with randomized sizes. Returns the reply plus the
/// object ids.
fn synth_reply(leaves: usize, objs_per_leaf: &[usize], sizes: &[u32]) -> ServerReply {
    assert_eq!(leaves, objs_per_leaf.len());
    let mut index = Vec::new();
    let mut objects = Vec::new();
    // Root node 0: a balanced antichain of `leaves` entry cells. For
    // simplicity give every leaf an entry cell on a left-spine antichain:
    // codes 0, 10, 110, ..., 1^k.
    let mut cells = Vec::new();
    let mut code = Code::ROOT;
    let mut next_obj = 100u32;
    for li in 0..leaves {
        let leaf_id = NodeId(1 + li as u32);
        let my_code = if li + 1 == leaves {
            code
        } else {
            let c = code.child(false);
            code = code.child(true);
            c
        };
        let x = li as f64 * 0.1;
        cells.push(CellRecord {
            code: my_code,
            mbr: Rect::from_coords(x, 0.0, x + 0.05, 0.05),
            kind: CellKind::Node(leaf_id),
        });
        // Leaf shipment with its objects on the same spine scheme.
        let mut leaf_cells = Vec::new();
        let mut lcode = Code::ROOT;
        let n_obj = objs_per_leaf[li].max(1);
        for oi in 0..n_obj {
            let oid = ObjectId(next_obj);
            next_obj += 1;
            let oc = if oi + 1 == n_obj {
                lcode
            } else {
                let c = lcode.child(false);
                lcode = lcode.child(true);
                c
            };
            let ox = x + oi as f64 * 0.001;
            let mbr = Rect::from_coords(ox, 0.0, ox + 0.0005, 0.0005);
            leaf_cells.push(CellRecord {
                code: oc,
                mbr,
                kind: CellKind::Object(oid),
            });
            let size = sizes[(li * 7 + oi) % sizes.len()].max(1);
            objects.push(SpatialObject {
                id: oid,
                mbr,
                size_bytes: size,
            });
        }
        index.push(NodeShipment {
            node: leaf_id,
            level: 0,
            parent: Some(NodeId(0)),
            cells: leaf_cells,
        });
    }
    index.insert(
        0,
        NodeShipment {
            node: NodeId(0),
            level: 1,
            parent: None,
            cells,
        },
    );
    ServerReply {
        confirmed: vec![],
        objects,
        pairs: vec![],
        index,
        expansions: 0,
    }
}

fn loaded_cache(
    policy: ReplacementPolicy,
    reply: &ServerReply,
    touches: &[(u32, u64)],
) -> ProactiveCache {
    let mut c = ProactiveCache::new(u64::MAX / 2, policy);
    c.absorb(reply, 1, Point::ORIGIN);
    assert_eq!(c.stats(), recount(&c));
    for &(oid, t) in touches {
        // Touch the ancestor chain too: real traversals access every index
        // node on the way to an object, which is exactly the monotonicity
        // (Lemma 5.3) that makes GRD2 and GRD3 provably equivalent.
        let mut cur = Some(ItemKey::Object(ObjectId(oid)));
        while let Some(k) = cur {
            cur = c.get(k).and_then(|it| it.meta.parent);
            c.touch(k, t);
        }
    }
    c
}

/// [`ProactiveCache::stats`] recomputed by walking every cached item —
/// the oracle for the O(1) running counters.
fn recount(c: &ProactiveCache) -> CacheStats {
    let mut s = CacheStats {
        capacity: c.capacity(),
        used_bytes: c.used_bytes(),
        ..Default::default()
    };
    for key in c.keys() {
        let item = c.get(key).expect("listed key is cached");
        match item.data {
            ItemData::Node(_) => {
                s.node_items += 1;
                s.index_bytes += item.meta.size;
            }
            ItemData::Object(_) => {
                s.object_items += 1;
                s.object_bytes += item.meta.size;
            }
        }
    }
    s
}

fn surviving_keys(c: &ProactiveCache) -> Vec<ItemKey> {
    let mut keys: Vec<ItemKey> = c.keys().collect();
    keys.sort();
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 5.5 step (2): GRD3's eviction outcome equals GRD2's.
    #[test]
    fn grd3_matches_grd2(
        objs_per_leaf in prop::collection::vec(1usize..4, 1..5),
        sizes in prop::collection::vec(100u32..5000, 3),
        touches in prop::collection::vec((100u32..120, 2u64..40), 0..30),
        cap_frac in 0.2f64..0.95,
        now in 50u64..200,
    ) {
        let leaves = objs_per_leaf.len();
        let reply = synth_reply(leaves, &objs_per_leaf, &sizes);
        let mut g2 = loaded_cache(ReplacementPolicy::Grd2, &reply, &touches);
        let mut g3 = loaded_cache(ReplacementPolicy::Grd3, &reply, &touches);
        let cap = (g2.used_bytes() as f64 * cap_frac) as u64;
        g2.set_capacity(cap);
        g3.set_capacity(cap);
        g2.enforce_capacity(now, Point::ORIGIN);
        g3.enforce_capacity(now, Point::ORIGIN);
        g2.validate().unwrap();
        g3.validate().unwrap();
        prop_assert_eq!(g2.stats(), recount(&g2));
        prop_assert_eq!(g3.stats(), recount(&g3));
        // The B-swap (Definition 5.1 step 6) is the one step GRD2 lacks;
        // outcomes are only claimed equal for the greedy phase.
        prop_assume!(!g3.took_bswap());
        prop_assert_eq!(surviving_keys(&g2), surviving_keys(&g3));
    }

    /// All policies keep every invariant under repeated shrinking.
    #[test]
    fn all_policies_maintain_invariants(
        objs_per_leaf in prop::collection::vec(1usize..5, 1..6),
        sizes in prop::collection::vec(100u32..8000, 4),
        touches in prop::collection::vec((100u32..130, 2u64..40), 0..40),
        fracs in prop::collection::vec(0.1f64..0.9, 1..4),
    ) {
        let leaves = objs_per_leaf.len();
        let reply = synth_reply(leaves, &objs_per_leaf, &sizes);
        for policy in ReplacementPolicy::ALL {
            let mut c = loaded_cache(policy, &reply, &touches);
            for (i, f) in fracs.iter().enumerate() {
                let cap = (c.used_bytes() as f64 * f) as u64;
                c.set_capacity(cap);
                c.enforce_capacity(50 + i as u64, Point::new(0.3, 0.3));
                prop_assert_eq!(c.stats(), recount(&c));
                prop_assert!(c.used_bytes() <= cap.max(1) || c.is_empty());
                c.validate().map_err(|e| {
                    TestCaseError::fail(format!("{policy}: {e}"))
                })?;
            }
        }
    }

    /// Absorbing the same reply twice never double-counts bytes.
    #[test]
    fn absorb_idempotent(
        objs_per_leaf in prop::collection::vec(1usize..4, 1..4),
        sizes in prop::collection::vec(100u32..4000, 3),
    ) {
        let reply = synth_reply(objs_per_leaf.len(), &objs_per_leaf, &sizes);
        let mut c = ProactiveCache::new(u64::MAX / 2, ReplacementPolicy::Grd3);
        c.absorb(&reply, 1, Point::ORIGIN);
        prop_assert_eq!(c.stats(), recount(&c));
        let used = c.used_bytes();
        let items = c.len();
        c.absorb(&reply, 2, Point::ORIGIN);
        prop_assert_eq!(c.stats(), recount(&c));
        prop_assert_eq!(c.used_bytes(), used);
        prop_assert_eq!(c.len(), items);
        c.validate().unwrap();
    }
}
