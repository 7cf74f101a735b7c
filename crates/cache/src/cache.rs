//! The proactive cache proper: item store, byte accounting, reply
//! absorption (stage ③ of Fig. 3) and the §5 replacement machinery.

use crate::item::{Item, ItemData, ItemKey, ItemMeta};
use crate::node_view::CachedNodeView;
use crate::policy::ReplacementPolicy;
use pc_geom::Point;
use pc_rtree::proto::{
    CellKind, NodeShipment, ServerReply, ENTRY_BYTES, OBJECT_HEADER_BYTES, SHIPMENT_HEADER_BYTES,
};
use pc_rtree::{NodeId, ObjectId};
use std::collections::{BinaryHeap, HashMap};

/// What one reply absorption did to the cache.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct InsertOutcome {
    pub inserted_bytes: u64,
    pub evicted_items: usize,
    pub evicted_bytes: u64,
    /// Objects whose supporting leaf was unknown and that therefore could
    /// not be cached (pathological; counted for observability).
    pub skipped_objects: usize,
}

/// Aggregate cache statistics (drives the Fig. 11(b) `i/c` series).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CacheStats {
    pub capacity: u64,
    pub used_bytes: u64,
    pub node_items: usize,
    pub object_items: usize,
    pub index_bytes: u64,
    pub object_bytes: u64,
}

impl CacheStats {
    /// Ratio of index size to total cache size (Fig. 11(b)).
    pub fn index_to_cache_ratio(&self) -> f64 {
        if self.capacity == 0 {
            return 0.0;
        }
        self.index_bytes as f64 / self.capacity as f64
    }
}

/// Running per-kind item counts and bytes, kept in step with every insert,
/// resize and removal so [`ProactiveCache::stats`] is O(1). Used bytes are
/// the sum of the two byte counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Tally {
    node_items: usize,
    object_items: usize,
    index_bytes: u64,
    object_bytes: u64,
}

impl Tally {
    fn add(&mut self, item: &Item) {
        match item.data {
            ItemData::Node(_) => {
                self.node_items += 1;
                self.index_bytes += item.meta.size;
            }
            ItemData::Object(_) => {
                self.object_items += 1;
                self.object_bytes += item.meta.size;
            }
        }
    }

    fn remove(&mut self, item: &Item) {
        match item.data {
            ItemData::Node(_) => {
                self.node_items -= 1;
                self.index_bytes -= item.meta.size;
            }
            ItemData::Object(_) => {
                self.object_items -= 1;
                self.object_bytes -= item.meta.size;
            }
        }
    }

    /// Counts every item from scratch (validation).
    fn recount<'a>(items: impl Iterator<Item = &'a Item>) -> Tally {
        let mut t = Tally::default();
        for item in items {
            t.add(item);
        }
        t
    }
}

/// The proactive cache of §3.2/§5.
#[derive(Clone, Debug)]
pub struct ProactiveCache {
    capacity: u64,
    tally: Tally,
    policy: ReplacementPolicy,
    items: HashMap<ItemKey, Item>,
    /// Leaf node currently known to hold each object's entry — lets reply
    /// absorption link object items to their supporting leaf in O(1).
    object_parents: HashMap<ObjectId, NodeId>,
    /// Whether the most recent GRD3 eviction took the Definition 5.1
    /// step-(6) B-swap (diagnostics; lets the Theorem 5.5 equivalence test
    /// exclude the one step GRD2 does not have).
    last_bswap: bool,
}

impl ProactiveCache {
    pub fn new(capacity: u64, policy: ReplacementPolicy) -> Self {
        ProactiveCache {
            capacity,
            tally: Tally::default(),
            policy,
            items: HashMap::new(),
            object_parents: HashMap::new(),
            last_bswap: false,
        }
    }

    /// Reconfigures the byte capacity (the next `enforce_capacity` applies
    /// it); used by experiments that sweep |C|.
    pub fn set_capacity(&mut self, capacity: u64) {
        self.capacity = capacity;
    }

    /// Whether the most recent GRD3 eviction ended in the B-swap step.
    pub fn took_bswap(&self) -> bool {
        self.last_bswap
    }

    // ------------------------------------------------------------------
    // Lookups
    // ------------------------------------------------------------------

    #[inline]
    pub fn contains_object(&self, id: ObjectId) -> bool {
        self.items.contains_key(&ItemKey::Object(id))
    }

    pub fn node_view(&self, id: NodeId) -> Option<&CachedNodeView> {
        match self.items.get(&ItemKey::Node(id)) {
            Some(Item {
                data: ItemData::Node(v),
                ..
            }) => Some(v),
            _ => None,
        }
    }

    pub fn get(&self, key: ItemKey) -> Option<&Item> {
        self.items.get(&key)
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    pub fn used_bytes(&self) -> u64 {
        self.tally.index_bytes + self.tally.object_bytes
    }

    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    pub fn keys(&self) -> impl Iterator<Item = ItemKey> + '_ {
        self.items.keys().copied()
    }

    /// Aggregate statistics, read off running counters in O(1).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            capacity: self.capacity,
            used_bytes: self.used_bytes(),
            node_items: self.tally.node_items,
            object_items: self.tally.object_items,
            index_bytes: self.tally.index_bytes,
            object_bytes: self.tally.object_bytes,
        }
    }

    // ------------------------------------------------------------------
    // Access bookkeeping
    // ------------------------------------------------------------------

    /// Records that query `now` used this item (§5.2 metadata (4)).
    pub fn touch(&mut self, key: ItemKey, now: u64) {
        if let Some(item) = self.items.get_mut(&key) {
            item.meta.hits += 1;
            item.meta.last_access = now;
        }
    }

    // ------------------------------------------------------------------
    // Reply absorption (stage ③: "the cache manager inserts Rr and Ir")
    // ------------------------------------------------------------------

    /// Inserts a server reply — index shipments first (parents before
    /// children), then objects — and evicts per the configured policy until
    /// the capacity holds again.
    pub fn absorb(&mut self, reply: &ServerReply, now: u64, pos: Point) -> InsertOutcome {
        let mut out = InsertOutcome::default();

        let mut shipments: Vec<&NodeShipment> = reply.index.iter().collect();
        shipments.sort_by_key(|s| std::cmp::Reverse(s.level));
        for s in shipments {
            out.inserted_bytes += self.merge_shipment(s, now);
        }

        for obj in &reply.objects {
            if self.items.contains_key(&ItemKey::Object(obj.id)) {
                continue;
            }
            let Some(&leaf) = self.object_parents.get(&obj.id) else {
                out.skipped_objects += 1;
                continue;
            };
            let key = ItemKey::Object(obj.id);
            let size = OBJECT_HEADER_BYTES + obj.size_bytes as u64;
            let parent_key = ItemKey::Node(leaf);
            debug_assert!(self.items.contains_key(&parent_key));
            if let Some(p) = self.items.get_mut(&parent_key) {
                p.children.push(key);
            }
            self.put(
                key,
                Item {
                    meta: ItemMeta {
                        size,
                        t_insert: now,
                        hits: 1,
                        last_access: now,
                        parent: Some(parent_key),
                        mbr: obj.mbr,
                    },
                    data: ItemData::Object(*obj),
                    children: Vec::new(),
                },
            );
            out.inserted_bytes += size;
        }

        let (evicted_items, evicted_bytes) = self.enforce_capacity(now, pos);
        out.evicted_items = evicted_items;
        out.evicted_bytes = evicted_bytes;
        out
    }

    /// Merges one node shipment; returns the byte growth.
    fn merge_shipment(&mut self, s: &NodeShipment, now: u64) -> u64 {
        let key = ItemKey::Node(s.node);
        // Track the supporting-leaf mapping for every full object entry.
        for c in &s.cells {
            if let CellKind::Object(o) = c.kind {
                self.object_parents.insert(o, s.node);
            }
        }
        let grown = match self.items.get_mut(&key) {
            Some(item) => {
                let old = item.meta.size;
                let ItemData::Node(view) = &mut item.data else {
                    unreachable!("node key holds node data")
                };
                view.merge(&s.cells);
                let new = node_item_bytes(view);
                item.meta.size = new;
                item.meta.hits += 1;
                item.meta.last_access = now;
                if let Some(mbr) = view.root_mbr() {
                    item.meta.mbr = mbr;
                }
                // Refinement only adds cells, so the frontier (and size)
                // never shrinks; stay correct even if that ever changes.
                self.tally.index_bytes = self.tally.index_bytes - old + new;
                new.saturating_sub(old)
            }
            None => {
                let view = CachedNodeView::new(s.level, &s.cells);
                let size = node_item_bytes(&view);
                let mbr = view.root_mbr().expect("shipment is never empty");
                let parent_key = s.parent.map(ItemKey::Node);
                let parent_key = match parent_key {
                    Some(pk) if self.items.contains_key(&pk) => {
                        self.items.get_mut(&pk).unwrap().children.push(key);
                        Some(pk)
                    }
                    Some(_) => {
                        // Parent neither cached nor shipped: tolerated as
                        // an orphan (evictable on its own; re-linked by
                        // `adopt_orphan` if the parent arrives later). This
                        // only arises after update-driven invalidations.
                        None
                    }
                    None => None,
                };
                self.put(
                    key,
                    Item {
                        meta: ItemMeta {
                            size,
                            t_insert: now,
                            hits: 1,
                            last_access: now,
                            parent: parent_key,
                            mbr,
                        },
                        data: ItemData::Node(view),
                        children: Vec::new(),
                    },
                );
                size
            }
        };
        // Adopt cached orphans this node's entries point at (orphans
        // appear when the update-extension invalidates an ancestor while a
        // descendant survives a later re-shipment).
        for c in &s.cells {
            match c.kind {
                CellKind::Object(o) => self.adopt_orphan(key, ItemKey::Object(o)),
                CellKind::Node(child) => self.adopt_orphan(key, ItemKey::Node(child)),
                CellKind::Super => {}
            }
        }
        grown
    }

    // ------------------------------------------------------------------
    // Eviction
    // ------------------------------------------------------------------

    /// Evicts until `used ≤ capacity`; returns `(items, bytes)` evicted.
    pub fn enforce_capacity(&mut self, now: u64, pos: Point) -> (usize, u64) {
        if self.used_bytes() <= self.capacity {
            return (0, 0);
        }
        match self.policy {
            ReplacementPolicy::Grd3 => self.evict_grd3(now),
            ReplacementPolicy::Grd2 => self.evict_grd2(now),
            _ => self.evict_scan(now, pos),
        }
    }

    /// LRU / MRU / FAR: repeatedly scan hierarchy leaves for the victim.
    fn evict_scan(&mut self, now: u64, pos: Point) -> (usize, u64) {
        let mut count = 0;
        let mut bytes = 0;
        while self.used_bytes() > self.capacity && !self.items.is_empty() {
            let victim = self
                .items
                .iter()
                .filter(|(_, it)| it.is_hierarchy_leaf())
                .min_by(|(ka, a), (kb, b)| {
                    let score = |it: &Item| -> f64 {
                        match self.policy {
                            ReplacementPolicy::Lru => it.meta.last_access as f64,
                            // Negated so min_by picks the *most* recent.
                            ReplacementPolicy::Mru => -(it.meta.last_access as f64),
                            // Negated so min_by picks the *farthest*.
                            ReplacementPolicy::Far => -it.meta.mbr.center().dist(&pos),
                            _ => unreachable!("scan eviction covers LRU/MRU/FAR"),
                        }
                    };
                    score(a).total_cmp(&score(b)).then(ka.cmp(kb))
                })
                .map(|(k, _)| *k);
            let Some(victim) = victim else { break };
            bytes += self.remove_item(victim);
            count += 1;
        }
        let _ = now;
        (count, bytes)
    }

    /// GRD3 (Definition 5.1): a priority queue `G` over hierarchy leaves
    /// keyed by `prob`; evict cheapest; when a parent runs out of cached
    /// children it joins `G`; finally apply the B-swap guarantee step.
    fn evict_grd3(&mut self, now: u64) -> (usize, u64) {
        #[derive(PartialEq)]
        struct Victim(f64, ItemKey);
        impl Eq for Victim {}
        impl PartialOrd for Victim {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Victim {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                // Min-heap on (prob, key) via reversed comparison.
                other.0.total_cmp(&self.0).then(other.1.cmp(&self.1))
            }
        }

        self.last_bswap = false;
        // Step (1): discard items too large ever to be kept.
        let mut count = 0;
        let mut bytes = 0;
        bytes += self.discard_oversize(&mut count);

        // Step (2): heapify the hierarchy leaves.
        let mut heap: BinaryHeap<Victim> = self
            .items
            .iter()
            .filter(|(_, it)| it.is_hierarchy_leaf())
            .map(|(k, it)| Victim(it.prob(now), *k))
            .collect();

        let mut last_removed: Option<ItemKey> = None;
        let mut last_removed_benefit = 0.0;
        let mut last_removed_item: Option<Item> = None;

        // Steps (3)-(5).
        while self.used_bytes() > self.capacity {
            let Some(Victim(prob, key)) = heap.pop() else {
                break;
            };
            // Lazy invalidation: skip stale entries.
            let Some(item) = self.items.get(&key) else {
                continue;
            };
            if !item.is_hierarchy_leaf() || (item.prob(now) - prob).abs() > 1e-12 {
                continue;
            }
            last_removed_benefit = prob * item.meta.size as f64;
            last_removed = Some(key);
            last_removed_item = Some(item.clone());
            let parent = item.meta.parent;
            bytes += self.remove_item(key);
            count += 1;
            // Step (4): a parent that just became a leaf joins G.
            if let Some(pk) = parent {
                if let Some(p) = self.items.get(&pk) {
                    if p.is_hierarchy_leaf() {
                        heap.push(Victim(p.prob(now), pk));
                    }
                }
            }
        }

        // Step (6): the B-swap approximation guarantee.
        if let (Some(b_key), Some(b_item)) = (last_removed, last_removed_item) {
            let remaining_benefit: f64 = self
                .items
                .values()
                .map(|it| it.prob(now) * it.meta.size as f64)
                .sum();
            if last_removed_benefit > remaining_benefit && b_item.meta.size <= self.capacity {
                self.last_bswap = true;
                // Remove everything remaining; re-insert B as an orphan.
                let all: Vec<ItemKey> = self.items.keys().copied().collect();
                for k in all {
                    if self.items.contains_key(&k) {
                        bytes += self.remove_subtree(k, &mut count);
                    }
                }
                let mut b = b_item;
                b.meta.parent = None;
                b.children.clear();
                if let (ItemData::Node(v), ItemKey::Node(nid)) = (&b.data, b_key) {
                    for o in v.object_entries() {
                        self.object_parents.insert(o, nid);
                    }
                }
                bytes = bytes.saturating_sub(b.meta.size);
                self.put(b_key, b);
                count = count.saturating_sub(1);
            }
        }

        (count, bytes)
    }

    /// GRD2 (§5.1): recompute EBRS for every item, evict the minimum with
    /// its whole subtree, repeat. Kept as the reference implementation for
    /// the Theorem 5.5 equivalence tests; quadratic and proud of it.
    ///
    /// Tie handling: a hierarchy leaf's EBRS equals its `prob`
    /// (Corollary 5.1) and Lemma 5.4 guarantees the minimum is attained at
    /// a leaf; when an interior item *ties* with the minimum (degenerate
    /// weighted averages) we prefer the leaf, matching what any greedy that
    /// removes one knapsack item at a time would do.
    fn evict_grd2(&mut self, now: u64) -> (usize, u64) {
        let mut count = 0;
        let mut bytes = 0;
        bytes += self.discard_oversize(&mut count);
        while self.used_bytes() > self.capacity && !self.items.is_empty() {
            let mut memo: HashMap<ItemKey, (f64, u64)> = HashMap::new(); // (benefit, SIZE)
            let keys: Vec<ItemKey> = self.items.keys().copied().collect();
            for k in &keys {
                self.benefit_size(*k, now, &mut memo);
            }
            // Corollary 5.1 exactness: leaves use `prob` directly instead
            // of the round-tripped (prob·size)/size division.
            let ebrs = |k: &ItemKey| -> f64 {
                let item = &self.items[k];
                if item.is_hierarchy_leaf() {
                    item.prob(now)
                } else {
                    memo[k].0 / memo[k].1 as f64
                }
            };
            // Mathematical ties (equal probs across a subtree) surface as
            // ulp-level EBRS differences after the summation/division, so
            // the comparison treats near-equal values as equal before the
            // leaf-preference and key tie-breaks.
            let cmp_ebrs = |x: f64, y: f64| -> std::cmp::Ordering {
                if (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1e-300) {
                    std::cmp::Ordering::Equal
                } else {
                    x.total_cmp(&y)
                }
            };
            let victim = keys
                .iter()
                .min_by(|a, b| {
                    let leaf = |k: &ItemKey| !self.items[k].is_hierarchy_leaf();
                    cmp_ebrs(ebrs(a), ebrs(b))
                        .then(leaf(a).cmp(&leaf(b)))
                        .then(a.cmp(b))
                })
                .copied();
            let Some(victim) = victim else { break };
            bytes += self.remove_subtree(victim, &mut count);
        }
        (count, bytes)
    }

    /// Step (1) of Definition 5.1 (shared with the GRD2 reference): discard
    /// any item that could never be kept within the capacity.
    fn discard_oversize(&mut self, count: &mut usize) -> u64 {
        let oversize: Vec<ItemKey> = self
            .items
            .iter()
            .filter(|(_, it)| it.meta.size > self.capacity)
            .map(|(k, _)| *k)
            .collect();
        let mut bytes = 0;
        for k in oversize {
            if self.items.contains_key(&k) {
                bytes += self.remove_subtree(k, count);
            }
        }
        bytes
    }

    /// Subtree benefit `Σ prob·size` and `SIZE` (§5.1) with memoization.
    fn benefit_size(
        &self,
        key: ItemKey,
        now: u64,
        memo: &mut HashMap<ItemKey, (f64, u64)>,
    ) -> (f64, u64) {
        if let Some(&v) = memo.get(&key) {
            return v;
        }
        let item = &self.items[&key];
        let mut benefit = item.prob(now) * item.meta.size as f64;
        let mut size = item.meta.size;
        for c in item.children.clone() {
            let (b, s) = self.benefit_size(c, now, memo);
            benefit += b;
            size += s;
        }
        memo.insert(key, (benefit, size));
        (benefit, size)
    }

    /// Re-links a cached orphan under its (about-to-exist or existing)
    /// parent item. No-op unless `child` exists, is parentless, and
    /// `parent` exists.
    fn adopt_orphan(&mut self, parent: ItemKey, child: ItemKey) {
        if parent == child {
            return;
        }
        let is_orphan = matches!(
            self.items.get(&child),
            Some(item) if item.meta.parent.is_none()
        );
        if !is_orphan || !self.items.contains_key(&parent) {
            return;
        }
        if let Some(p) = self.items.get_mut(&parent) {
            p.children.push(child);
        }
        self.items.get_mut(&child).unwrap().meta.parent = Some(parent);
    }

    /// Drops a node item and every cached descendant — the invalidation
    /// primitive of the server-update extension (stale index knowledge must
    /// go, and the §5 constraint says descendants go with it). Returns
    /// `(items, bytes)` dropped; `(0, 0)` when the node is not cached.
    pub fn invalidate_node(&mut self, node: NodeId) -> (usize, u64) {
        let key = ItemKey::Node(node);
        if !self.items.contains_key(&key) {
            return (0, 0);
        }
        let mut count = 0;
        let bytes = self.remove_subtree(key, &mut count);
        (count, bytes)
    }

    /// Drops only `node`'s own view, leaving cached descendants behind as
    /// orphans (parent links cleared; re-linked by `adopt_orphan` when a
    /// fresh shipment for `node` arrives). This is the right response when
    /// the invalidated view is pure *routing* metadata whose children are
    /// independently versioned — a sharded cluster's virtual super-root,
    /// whose shard subtrees carry their own per-shard invalidation
    /// entries. Returns `(items, bytes)` dropped (0 or 1 items).
    pub fn invalidate_node_shallow(&mut self, node: NodeId) -> (usize, u64) {
        let key = ItemKey::Node(node);
        if !self.items.contains_key(&key) {
            return (0, 0);
        }
        let children = std::mem::take(&mut self.items.get_mut(&key).unwrap().children);
        for c in children {
            if let Some(child) = self.items.get_mut(&c) {
                child.meta.parent = None;
            }
        }
        (1, self.remove_item(key))
    }

    /// Drops *everything* — the client's response to a full-refresh
    /// refusal (§7 extension): the server pruned invalidation history below
    /// the client's epoch, so no per-node list exists and the whole cache
    /// is suspect. Returns `(items, bytes)` dropped.
    pub fn clear(&mut self) -> (usize, u64) {
        let count = self.items.len();
        let bytes = self.used_bytes();
        self.items.clear();
        self.object_parents.clear();
        self.tally = Tally::default();
        self.last_bswap = false;
        (count, bytes)
    }

    /// Stores a new item and counts it.
    fn put(&mut self, key: ItemKey, item: Item) {
        self.tally.add(&item);
        let replaced = self.items.insert(key, item);
        debug_assert!(replaced.is_none(), "put over cached {key}");
    }

    /// Removes a single (leaf) item; unlinks it from its parent and cleans
    /// the object-parent map. Returns the bytes freed.
    fn remove_item(&mut self, key: ItemKey) -> u64 {
        let Some(item) = self.items.remove(&key) else {
            return 0;
        };
        debug_assert!(
            item.children.is_empty(),
            "remove_item on non-leaf {key}; use remove_subtree"
        );
        self.tally.remove(&item);
        if let Some(pk) = item.meta.parent {
            if let Some(p) = self.items.get_mut(&pk) {
                p.children.retain(|&c| c != key);
            }
        }
        if let ItemData::Node(view) = &item.data {
            if let ItemKey::Node(nid) = key {
                for o in view.object_entries() {
                    if self.object_parents.get(&o) == Some(&nid) {
                        self.object_parents.remove(&o);
                    }
                }
            }
        }
        item.meta.size
    }

    /// Removes an item and all cached descendants (the §5 constraint).
    fn remove_subtree(&mut self, key: ItemKey, count: &mut usize) -> u64 {
        let Some(item) = self.items.get(&key) else {
            return 0;
        };
        let children = item.children.clone();
        let mut bytes = 0;
        for c in children {
            bytes += self.remove_subtree(c, count);
        }
        bytes += self.remove_item(key);
        *count += 1;
        bytes
    }

    // ------------------------------------------------------------------
    // Validation (test support)
    // ------------------------------------------------------------------

    /// Structural validation of every §5 invariant; used by tests and
    /// debug assertions.
    pub fn validate(&self) -> Result<(), String> {
        let mut sum = 0u64;
        for (key, item) in &self.items {
            sum += item.meta.size;
            if let Some(pk) = item.meta.parent {
                let p = self
                    .items
                    .get(&pk)
                    .ok_or_else(|| format!("{key}: dangling parent {pk}"))?;
                if !p.children.contains(key) {
                    return Err(format!("{key}: parent {pk} does not list it"));
                }
            }
            for c in &item.children {
                let child = self
                    .items
                    .get(c)
                    .ok_or_else(|| format!("{key}: dangling child {c}"))?;
                if child.meta.parent != Some(*key) {
                    return Err(format!("{c}: wrong parent, expected {key}"));
                }
            }
            match (&item.data, key) {
                (ItemData::Node(v), ItemKey::Node(_)) => {
                    v.debug_validate().map_err(|e| format!("{key}: {e}"))?;
                    if item.meta.size != node_item_bytes(v) {
                        return Err(format!("{key}: stale size"));
                    }
                }
                (ItemData::Object(o), ItemKey::Object(id)) => {
                    if o.id != *id {
                        return Err(format!("{key}: object id mismatch"));
                    }
                }
                _ => return Err(format!("{key}: key/data kind mismatch")),
            }
        }
        if sum != self.used_bytes() {
            return Err(format!("used {} != sum of sizes {sum}", self.used_bytes()));
        }
        let recount = Tally::recount(self.items.values());
        if recount != self.tally {
            return Err(format!("counters {:?} != recount {recount:?}", self.tally));
        }
        if self.used_bytes() > self.capacity {
            return Err(format!(
                "over capacity: {} > {}",
                self.used_bytes(),
                self.capacity
            ));
        }
        for (o, n) in &self.object_parents {
            match self.node_view(*n) {
                Some(v) => {
                    if !v.object_entries().any(|x| x == *o) {
                        return Err(format!("object_parents[{o}] = {n} has no entry"));
                    }
                }
                None => return Err(format!("object_parents[{o}] -> missing node {n}")),
            }
        }
        // Every cached object must be supported by a known leaf entry —
        // except B-swap orphans (parent == None), which are harmless
        // payload retained without index support.
        for (key, item) in &self.items {
            if let ItemKey::Object(o) = key {
                if item.meta.parent.is_some() && !self.object_parents.contains_key(o) {
                    return Err(format!("cached object {o} has no supporting leaf"));
                }
            }
        }
        Ok(())
    }
}

/// Byte footprint of a node item: its transmitted frontier plus a header —
/// what the paper charges the cache for index knowledge.
pub(crate) fn node_item_bytes(view: &CachedNodeView) -> u64 {
    SHIPMENT_HEADER_BYTES + view.frontier_len() as u64 * ENTRY_BYTES
}

#[cfg(test)]
mod tests;
