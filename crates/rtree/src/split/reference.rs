//! The original Vec-returning split and recursive BPT builder, kept as the
//! reference oracle for the in-place kernel (test builds only). The kernel
//! must reproduce these decisions exactly: same groups in the same order,
//! and therefore the same BPT cells, arena indices, codes and heights.

use crate::bpt::{BptCell, BptCellKind, SplitPolicy};
use pc_geom::Rect;

/// The R* split as a pair of index groups, each of size at least `m`:
/// the axis (and sort direction) with minimum total margin, then the
/// distribution with minimum overlap, ties broken by minimum area.
pub(crate) fn rstar_split(rects: &[Rect], m: usize) -> (Vec<usize>, Vec<usize>) {
    let n = rects.len();
    assert!(m >= 1 && 2 * m <= n, "invalid split bounds: n={n}, m={m}");

    let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    let mut best_split: Option<(Vec<usize>, usize)> = None;

    for axis in 0..2usize {
        for by_upper in [false, true] {
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| {
                sort_key(&rects[a], axis, by_upper)
                    .partial_cmp(&sort_key(&rects[b], axis, by_upper))
                    .unwrap()
            });

            let mut prefix = Vec::with_capacity(n);
            let mut acc = rects[order[0]];
            prefix.push(acc);
            for &i in &order[1..] {
                acc = acc.union(&rects[i]);
                prefix.push(acc);
            }
            let mut suffix = vec![rects[order[n - 1]]; n];
            for i in (0..n - 1).rev() {
                suffix[i] = rects[order[i]].union(&suffix[i + 1]);
            }

            let mut margin_sum = 0.0;
            let mut local_best = (f64::INFINITY, f64::INFINITY, 0usize);
            for k in m..=n - m {
                let g1 = prefix[k - 1];
                let g2 = suffix[k];
                margin_sum += g1.margin() + g2.margin();
                let overlap = g1.overlap_area(&g2);
                let area = g1.area() + g2.area();
                if (overlap, area) < (local_best.0, local_best.1) {
                    local_best = (overlap, area, k);
                }
            }
            let key = (margin_sum, local_best.0, local_best.1);
            if key < best_key {
                best_key = key;
                best_split = Some((order, local_best.2));
            }
        }
    }

    let (order, k) = best_split.expect("split must find a distribution");
    (order[..k].to_vec(), order[k..].to_vec())
}

fn sort_key(r: &Rect, axis: usize, by_upper: bool) -> f64 {
    match (axis, by_upper) {
        (0, false) => r.min.x,
        (0, true) => r.max.x,
        (1, false) => r.min.y,
        (1, true) => r.max.y,
        _ => unreachable!(),
    }
}

/// Median cut along the longer axis of the subset's bounding box.
pub(crate) fn midpoint_split(rects: &[Rect]) -> (Vec<usize>, Vec<usize>) {
    let bbox = Rect::union_all(rects.iter().copied()).expect("non-empty subset");
    let horizontal = bbox.width() >= bbox.height();
    let mut order: Vec<usize> = (0..rects.len()).collect();
    order.sort_by(|&a, &b| {
        let ka = if horizontal {
            rects[a].center().x
        } else {
            rects[a].center().y
        };
        let kb = if horizontal {
            rects[b].center().x
        } else {
            rects[b].center().y
        };
        ka.partial_cmp(&kb).unwrap()
    });
    let cut = rects.len() / 2;
    (order[..cut].to_vec(), order[cut..].to_vec())
}

/// The recursive BPT builder: the cell arena and the height.
pub(crate) fn build_bpt(entry_mbrs: &[Rect], policy: SplitPolicy) -> (Vec<BptCell>, u8) {
    let mut out = Builder {
        cells: Vec::with_capacity(entry_mbrs.len().saturating_mul(2)),
        height: 0,
    };
    if entry_mbrs.is_empty() {
        return (out.cells, 0);
    }
    let indices: Vec<u16> = (0..entry_mbrs.len() as u16).collect();
    out.cells.push(BptCell {
        mbr: entry_mbrs[0],
        kind: BptCellKind::Leaf { entry_idx: 0 },
    });
    out.build_rec(0, &indices, entry_mbrs, 0, policy);
    (out.cells, out.height)
}

struct Builder {
    cells: Vec<BptCell>,
    height: u8,
}

impl Builder {
    fn build_rec(
        &mut self,
        cell_idx: usize,
        indices: &[u16],
        mbrs: &[Rect],
        depth: u8,
        policy: SplitPolicy,
    ) {
        self.height = self.height.max(depth);
        if indices.len() == 1 {
            self.cells[cell_idx] = BptCell {
                mbr: mbrs[indices[0] as usize],
                kind: BptCellKind::Leaf {
                    entry_idx: indices[0],
                },
            };
            return;
        }
        let subset: Vec<Rect> = indices.iter().map(|&i| mbrs[i as usize]).collect();
        let (l, r) = match policy {
            SplitPolicy::RStar => {
                let m = ((subset.len() as f64 * 0.35).floor() as usize).max(1);
                rstar_split(&subset, m)
            }
            SplitPolicy::Midpoint => midpoint_split(&subset),
        };
        let left_ids: Vec<u16> = l.iter().map(|&i| indices[i]).collect();
        let right_ids: Vec<u16> = r.iter().map(|&i| indices[i]).collect();

        let left_idx = self.cells.len();
        self.cells.push(self.cells[cell_idx]);
        let right_idx = self.cells.len();
        self.cells.push(self.cells[cell_idx]);

        self.build_rec(left_idx, &left_ids, mbrs, depth + 1, policy);
        self.build_rec(right_idx, &right_ids, mbrs, depth + 1, policy);

        let mbr = self.cells[left_idx].mbr.union(&self.cells[right_idx].mbr);
        self.cells[cell_idx] = BptCell {
            mbr,
            kind: BptCellKind::Internal {
                left: left_idx as u32,
                right: right_idx as u32,
            },
        };
    }
}
