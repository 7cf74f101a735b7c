//! The R* split algorithm (Beckmann et al.), shared by dynamic node splits
//! and by binary-partition-tree construction (§4.2 uses "the R-tree node
//! splitting algorithm to assure minimal overlap between the MBRs of the
//! two subsets").
//!
//! One allocation-free kernel serves both callers. It reorders a `u16`
//! index slice in place so the two groups are its two halves, and keeps
//! every buffer it needs in a caller-owned [`SplitScratch`]. A BPT build
//! recurses into the halves of that same slice, so once the scratch has
//! grown a build allocates only its cell arena.
//!
//! Three rules make the kernel fast without changing a single decision of
//! the textbook formulation (kept as the test oracle in `reference`):
//!
//! * **Packed-key sort.** Each ordering sorts `(order-preserving bits of
//!   the key, position in the current sequence)` with an unstable sort.
//!   The keys are unique, so the result equals a stable sort by the `f64`
//!   key. `-0.0` is mapped to `0.0` first, because the two compare equal.
//! * **Degenerate axes.** When every entry has `min == max` on an axis,
//!   the upper-bound ordering on that axis sorts the very same keys as the
//!   lower-bound one, so it yields the same permutation and the same
//!   (margin, overlap, area) key. Candidates replace the best only on a
//!   strict `<`, so the second copy can never win and is skipped. Point
//!   data (every NE-like object) is degenerate on both axes, which halves
//!   the sorting work.
//! * **On-the-fly prefix.** The left group's MBR is grown while the
//!   distributions are scanned; only the suffix MBRs are stored. Both are
//!   formed by the same sequence of unions as before, so every MBR, and
//!   every sum over them, is bit-identical.

use pc_geom::Rect;

/// Caller-owned buffers of the split kernel, in the style of
/// [`crate::query::QueryScratch`]: reuse one per writer and node splits
/// and BPT builds stop allocating once the buffers have grown. A scratch
/// holds no state between calls; every buffer is cleared before use.
#[derive(Clone, Debug, Default)]
pub struct SplitScratch {
    /// Entry MBRs of the node being split or partitioned.
    pub(crate) mbrs: Vec<Rect>,
    /// The index permutation the kernel reorders in place.
    pub(crate) idx: Vec<u16>,
    pub(crate) kernel: KernelBufs,
}

/// The kernel's own buffers (split from [`SplitScratch`] so a caller can
/// lend `idx` and `mbrs` alongside them).
#[derive(Clone, Debug, Default)]
pub(crate) struct KernelBufs {
    /// Packed sort keys: order-preserving key bits above a 16-bit position.
    keys: Vec<u128>,
    /// The ordering under evaluation, as positions into the index slice.
    order: Vec<u16>,
    /// The best ordering so far.
    best: Vec<u16>,
    /// `suffix[k]` = MBR of the ordering's entries `k..`.
    suffix: Vec<Rect>,
}

/// Reorders `idx` (indices into `rects`) so that `idx[..k]` and `idx[k..]`
/// are the R* split's two groups, each of size at least `m`, and returns
/// `k`. The heuristic: pick the axis (and sort direction) with minimum
/// total margin over all candidate distributions, then within it the
/// distribution with minimum overlap, ties broken by minimum combined area.
///
/// Non-finite input never panics: if no distribution compares below
/// infinity, `idx` is left as it is and `m` is returned.
///
/// # Panics
/// Panics unless `1 <= m` and `2 * m <= idx.len()`.
pub(crate) fn rstar_split(
    idx: &mut [u16],
    rects: &[Rect],
    m: usize,
    bufs: &mut KernelBufs,
) -> usize {
    let n = idx.len();
    assert!(m >= 1 && 2 * m <= n, "invalid split bounds: n={n}, m={m}");
    let KernelBufs {
        keys,
        order,
        best,
        suffix,
    } = bufs;
    let flat = [
        idx.iter().all(|&i| {
            let r = &rects[i as usize];
            r.min.x == r.max.x
        }),
        idx.iter().all(|&i| {
            let r = &rects[i as usize];
            r.min.y == r.max.y
        }),
    ];
    suffix.resize(n, Rect::UNIT);

    // Best candidate over all (axis, sort-direction) orderings, compared by
    // (total margin, overlap, area) lexicographically.
    let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    let mut best_k = None;
    for (axis, &flat) in flat.iter().enumerate() {
        for by_upper in [false, true] {
            if by_upper && flat {
                continue;
            }
            sort_positions(idx, rects, |r| sort_key(r, axis, by_upper), keys, order);
            let at = |i: usize| &rects[idx[order[i] as usize] as usize];

            suffix[n - 1] = *at(n - 1);
            for i in (m..n - 1).rev() {
                suffix[i] = at(i).union(&suffix[i + 1]);
            }
            let mut g1 = *at(0);
            for i in 1..m {
                g1 = g1.union(at(i));
            }

            let mut margin_sum = 0.0;
            let mut local_best = (f64::INFINITY, f64::INFINITY, m); // (overlap, area, k)
            for (k, g2) in (m..=n - m).zip(&suffix[m..]) {
                if k > m {
                    g1 = g1.union(at(k - 1));
                }
                margin_sum += g1.margin() + g2.margin();
                let overlap = g1.overlap_area(g2);
                let area = g1.area() + g2.area();
                if (overlap, area) < (local_best.0, local_best.1) {
                    local_best = (overlap, area, k);
                }
            }
            let key = (margin_sum, local_best.0, local_best.1);
            if key < best_key {
                best_key = key;
                best_k = Some(local_best.2);
                std::mem::swap(order, best);
            }
        }
    }
    match best_k {
        Some(k) => {
            permute(idx, best, order);
            k
        }
        None => m,
    }
}

/// The [`SplitPolicy::Midpoint`](crate::bpt::SplitPolicy) control:
/// reorders `idx` by center along the longer axis of its bounding box and
/// returns the median cut `idx.len() / 2`.
pub(crate) fn midpoint_split(idx: &mut [u16], rects: &[Rect], bufs: &mut KernelBufs) -> usize {
    let mut bbox = rects[idx[0] as usize];
    for &i in &idx[1..] {
        bbox = bbox.union(&rects[i as usize]);
    }
    let horizontal = bbox.width() >= bbox.height();
    let KernelBufs {
        keys, order, best, ..
    } = bufs;
    let center = |r: &Rect| {
        if horizontal {
            r.center().x
        } else {
            r.center().y
        }
    };
    sort_positions(idx, rects, center, keys, order);
    permute(idx, order, best);
    idx.len() / 2
}

/// Fills `order` with the positions of `idx` sorted by `key` of their
/// rects — equal keys keep their sequence order, as a stable sort would.
fn sort_positions(
    idx: &[u16],
    rects: &[Rect],
    key: impl Fn(&Rect) -> f64,
    keys: &mut Vec<u128>,
    order: &mut Vec<u16>,
) {
    keys.clear();
    keys.extend(
        idx.iter()
            .enumerate()
            .map(|(pos, &i)| (ordered_bits(key(&rects[i as usize])) as u128) << 16 | pos as u128),
    );
    keys.sort_unstable();
    order.clear();
    order.extend(keys.iter().map(|&k| k as u16));
}

/// Maps an `f64` to a `u64` whose unsigned order is the float order
/// (`-0.0` and `0.0` map alike, since they compare equal).
#[inline]
fn ordered_bits(x: f64) -> u64 {
    let x = if x == 0.0 { 0.0 } else { x };
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Applies the position permutation `perm` to `idx`, using `tmp` as the
/// staging buffer.
fn permute(idx: &mut [u16], perm: &[u16], tmp: &mut Vec<u16>) {
    tmp.clear();
    tmp.extend(perm.iter().map(|&p| idx[p as usize]));
    idx.copy_from_slice(tmp);
}

fn sort_key(r: &Rect, axis: usize, by_upper: bool) -> f64 {
    match (axis, by_upper) {
        (0, false) => r.min.x,
        (0, true) => r.max.x,
        (1, false) => r.min.y,
        _ => r.max.y,
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bpt::{Bpt, BptCell, BptCellKind, SplitPolicy};
    use crate::tree::RTreeConfig;
    use pc_geom::Point;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Runs the kernel on the identity permutation of `rects` and returns
    /// the two groups as index lists.
    fn split(rects: &[Rect], m: usize) -> (Vec<usize>, Vec<usize>) {
        let mut idx: Vec<u16> = (0..rects.len() as u16).collect();
        let k = rstar_split(&mut idx, rects, m, &mut KernelBufs::default());
        let groups: Vec<usize> = idx.iter().map(|&i| i as usize).collect();
        (groups[..k].to_vec(), groups[k..].to_vec())
    }

    fn rects_grid(n: usize) -> Vec<Rect> {
        (0..n)
            .map(|i| {
                let x = (i % 10) as f64 * 0.1;
                let y = (i / 10) as f64 * 0.1;
                Rect::from_coords(x, y, x + 0.05, y + 0.05)
            })
            .collect()
    }

    #[test]
    fn split_is_a_partition() {
        let rects = rects_grid(20);
        let (l, r) = split(&rects, 5);
        assert_eq!(l.len() + r.len(), 20);
        let mut all: Vec<usize> = l.iter().chain(r.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..20).collect::<Vec<_>>());
        assert!(l.len() >= 5 && r.len() >= 5);
    }

    #[test]
    fn split_separates_two_clusters() {
        // Two far-apart clusters must end up in different groups.
        let mut rects = Vec::new();
        for i in 0..5 {
            let d = i as f64 * 0.01;
            rects.push(Rect::from_coords(d, d, d + 0.01, d + 0.01));
        }
        for i in 0..5 {
            let d = 0.9 + i as f64 * 0.01;
            rects.push(Rect::from_coords(d, d, d + 0.01, d + 0.01));
        }
        let (l, r) = split(&rects, 2);
        let lset: std::collections::HashSet<_> = l.iter().copied().collect();
        let l_is_low = (0..5).all(|i| lset.contains(&i)) && l.len() == 5;
        let r_is_low = (0..5).all(|i| !lset.contains(&i)) && r.len() == 5;
        assert!(l_is_low || r_is_low, "clusters were mixed: {l:?} / {r:?}");
    }

    #[test]
    fn split_minimum_group_size_respected() {
        let rects = rects_grid(7);
        let (l, r) = split(&rects, 3);
        assert!(l.len() >= 3 && r.len() >= 3);
        assert_eq!(l.len() + r.len(), 7);
    }

    #[test]
    fn split_two_items() {
        let rects = vec![
            Rect::from_coords(0.0, 0.0, 0.1, 0.1),
            Rect::from_coords(0.8, 0.8, 0.9, 0.9),
        ];
        let (l, r) = split(&rects, 1);
        assert_eq!(l.len(), 1);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn split_zero_area_rects() {
        // Degenerate (point) rectangles must not break the heuristic.
        let rects: Vec<Rect> = (0..6)
            .map(|i| Rect::from_point(Point::new(i as f64 * 0.1, 0.5)))
            .collect();
        let (l, r) = split(&rects, 2);
        assert_eq!(l.len() + r.len(), 6);
        assert!(l.len() >= 2 && r.len() >= 2);
    }

    #[test]
    fn split_of_non_finite_input_is_a_valid_partition() {
        let mut rects = rects_grid(9);
        rects[3] = Rect::from_point(Point::new(f64::INFINITY, 0.5));
        rects[5] = Rect::from_point(Point::new(f64::NAN, f64::NEG_INFINITY));
        let (l, r) = split(&rects, 3);
        assert!(l.len() >= 3 && r.len() >= 3);
        let mut all: Vec<usize> = l.iter().chain(r.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..9).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "invalid split bounds")]
    fn split_rejects_undersized_input() {
        let rects = vec![Rect::from_coords(0.0, 0.0, 0.1, 0.1)];
        split(&rects, 1);
    }

    #[test]
    fn ordered_bits_preserves_float_order() {
        let xs = [
            f64::NEG_INFINITY,
            -1e300,
            -1.5,
            -f64::MIN_POSITIVE,
            0.0,
            f64::MIN_POSITIVE,
            0.25,
            1.0,
            f64::INFINITY,
        ];
        for w in xs.windows(2) {
            assert!(
                ordered_bits(w[0]) < ordered_bits(w[1]),
                "{} vs {}",
                w[0],
                w[1]
            );
        }
        assert_eq!(ordered_bits(-0.0), ordered_bits(0.0));
    }

    /// Coordinates for the oracle comparisons: a coarse grid (so entries
    /// collide), signed zeros, and free values in the unit square.
    fn coord(rng: &mut SmallRng) -> f64 {
        match rng.random_range(0..8u32) {
            0 => 0.0,
            1 => -0.0,
            2..=4 => rng.random_range(0..5u32) as f64 * 0.25,
            _ => rng.random_range(0.0..1.0),
        }
    }

    /// `n` rects of one of four shapes: 0 = all points, 1 = all
    /// rectangles, 2 = mixed points and rectangles, 3 = points on one
    /// vertical line (degenerate on x only, with y extents).
    fn rect_set(seed: u64, n: usize, shape: u8) -> Vec<Rect> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let (x, y) = (coord(&mut rng), coord(&mut rng));
                let point = match shape {
                    0 => true,
                    1 => false,
                    _ => rng.random_range(0..2u32) == 0,
                };
                if shape == 3 {
                    return Rect::from_coords(0.5, y, 0.5, y + coord(&mut rng));
                }
                if point {
                    Rect::from_point(Point::new(x, y))
                } else {
                    Rect::from_coords(x, y, x + coord(&mut rng), y + coord(&mut rng))
                }
            })
            .collect()
    }

    /// Cells with their MBRs as raw bits, so `-0.0` and `0.0` differ.
    fn cell_bits(cells: &[BptCell]) -> Vec<([u64; 4], BptCellKind)> {
        cells
            .iter()
            .map(|c| {
                let r = c.mbr;
                (
                    [r.min.x, r.min.y, r.max.x, r.max.y].map(f64::to_bits),
                    c.kind,
                )
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The kernel picks the oracle's groups, in the oracle's order, for
        /// every legal `m` — including the `(max_entries + 1, min_entries)`
        /// shape of `RTree::split_node` at both fan-outs.
        #[test]
        fn kernel_groups_equal_the_oracle(
            seed in any::<u64>(),
            n in 2usize..=104,
            m_pick in any::<u16>(),
            shape in 0u8..4,
        ) {
            let rects = rect_set(seed, n, shape);
            let m = 1 + m_pick as usize % (n / 2);
            prop_assert_eq!(split(&rects, m), reference::rstar_split(&rects, m));
            for cfg in [RTreeConfig::paper(), RTreeConfig::small()] {
                let node = rect_set(seed ^ 1, cfg.max_entries + 1, shape);
                prop_assert_eq!(
                    split(&node, cfg.min_entries),
                    reference::rstar_split(&node, cfg.min_entries)
                );
            }
        }

        /// `Bpt::build` equals the recursive oracle cell for cell (MBRs,
        /// kinds, arena indices) and in height, for both split policies
        /// and one scratch reused across every build.
        #[test]
        fn bpt_build_equals_the_oracle(
            seed in any::<u64>(),
            n in 1usize..=104,
            shape in 0u8..4,
        ) {
            let rects = rect_set(seed, n, shape);
            let mut scratch = SplitScratch::default();
            for policy in [SplitPolicy::RStar, SplitPolicy::Midpoint] {
                let bpt = Bpt::build_with(&rects, policy, &mut scratch);
                let (cells, height) = reference::build_bpt(&rects, policy);
                prop_assert_eq!(cell_bits(bpt.cells()), cell_bits(&cells));
                prop_assert_eq!(bpt.height(), height);
            }
        }
    }
}
