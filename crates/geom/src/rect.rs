use crate::{Coord, Point};

/// An axis-aligned rectangle (closed on all sides), the universal MBR type.
///
/// Invariant: `min.x <= max.x && min.y <= max.y` for every rectangle built
/// through the constructors. Degenerate rectangles (zero width and/or
/// height) are valid and represent points / segments — the NE dataset
/// substitute stores postal-zone centroids as degenerate MBRs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rect {
    pub min: Point,
    pub max: Point,
}

impl Rect {
    /// Creates a rectangle from two corner points, normalizing the corners
    /// so the invariant holds regardless of argument order.
    #[inline]
    pub fn new(a: Point, b: Point) -> Self {
        Rect {
            min: a.min(&b),
            max: a.max(&b),
        }
    }

    /// Creates a rectangle from coordinate extents.
    #[inline]
    pub fn from_coords(x0: Coord, y0: Coord, x1: Coord, y1: Coord) -> Self {
        Rect::new(Point::new(x0, y0), Point::new(x1, y1))
    }

    /// The degenerate rectangle containing exactly `p`.
    #[inline]
    pub fn from_point(p: Point) -> Self {
        Rect { min: p, max: p }
    }

    /// A square of side `side` centered at `c` (not clipped to the unit
    /// square; query windows near the border legitimately overhang).
    #[inline]
    pub fn centered_square(c: Point, side: Coord) -> Self {
        let h = side / 2.0;
        Rect::from_coords(c.x - h, c.y - h, c.x + h, c.y + h)
    }

    /// The whole normalized data space `[0,1]²`.
    pub const UNIT: Rect = Rect {
        min: Point::new(0.0, 0.0),
        max: Point::new(1.0, 1.0),
    };

    /// Width along x.
    #[inline]
    pub fn width(&self) -> Coord {
        self.max.x - self.min.x
    }

    /// Height along y.
    #[inline]
    pub fn height(&self) -> Coord {
        self.max.y - self.min.y
    }

    /// Area (zero for degenerate rectangles).
    #[inline]
    pub fn area(&self) -> Coord {
        self.width() * self.height()
    }

    /// Whether all four coordinates are finite (no NaN, no infinity).
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.min.x.is_finite()
            && self.min.y.is_finite()
            && self.max.x.is_finite()
            && self.max.y.is_finite()
    }

    /// Half-perimeter, the "margin" used by the R*-tree split heuristic.
    #[inline]
    pub fn margin(&self) -> Coord {
        self.width() + self.height()
    }

    /// Center point.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new(
            (self.min.x + self.max.x) / 2.0,
            (self.min.y + self.max.y) / 2.0,
        )
    }

    /// Smallest rectangle containing both `self` and `other`.
    #[inline]
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            min: self.min.min(&other.min),
            max: self.max.max(&other.max),
        }
    }

    /// Union over an iterator of rectangles; `None` for an empty iterator.
    pub fn union_all<I: IntoIterator<Item = Rect>>(iter: I) -> Option<Rect> {
        iter.into_iter().reduce(|a, b| a.union(&b))
    }

    /// Closed-interval intersection test (touching edges count as
    /// intersecting, matching the paper's "a intersects b" join predicate).
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.min.x <= other.max.x
            && other.min.x <= self.max.x
            && self.min.y <= other.max.y
            && other.min.y <= self.max.y
    }

    /// The overlapping region, if any.
    #[inline]
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        Some(Rect {
            min: self.min.max(&other.min),
            max: self.max.min(&other.max),
        })
    }

    /// Area of overlap with `other` (zero when disjoint), used by the R*
    /// `ChooseSubtree` overlap-enlargement criterion.
    #[inline]
    pub fn overlap_area(&self, other: &Rect) -> Coord {
        let w = (self.max.x.min(other.max.x) - self.min.x.max(other.min.x)).max(0.0);
        let h = (self.max.y.min(other.max.y) - self.min.y.max(other.min.y)).max(0.0);
        w * h
    }

    /// Whether `other` lies entirely inside `self` (borders included).
    #[inline]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        self.min.x <= other.min.x
            && self.min.y <= other.min.y
            && self.max.x >= other.max.x
            && self.max.y >= other.max.y
    }

    /// Whether the point lies inside (borders included).
    #[inline]
    pub fn contains_point(&self, p: &Point) -> bool {
        self.min.x <= p.x && p.x <= self.max.x && self.min.y <= p.y && p.y <= self.max.y
    }

    /// Area increase required for `self` to absorb `other` (R-tree insert
    /// heuristic).
    #[inline]
    pub fn enlargement(&self, other: &Rect) -> Coord {
        self.union(other).area() - self.area()
    }

    /// `MINDIST(p, self)`: Euclidean distance from `p` to the nearest point
    /// of the rectangle; zero if `p` is inside. This is the priority-queue
    /// key of best-first kNN search (Hjaltason & Samet).
    #[inline]
    pub fn min_dist(&self, p: &Point) -> Coord {
        self.min_dist_sq(p).sqrt()
    }

    /// Squared `MINDIST` (cheaper; monotone in `min_dist`).
    #[inline]
    pub fn min_dist_sq(&self, p: &Point) -> Coord {
        let dx = (self.min.x - p.x).max(0.0).max(p.x - self.max.x);
        let dy = (self.min.y - p.y).max(0.0).max(p.y - self.max.y);
        dx * dx + dy * dy
    }

    /// Distance from `p` to the farthest point of the rectangle.
    #[inline]
    pub fn max_dist(&self, p: &Point) -> Coord {
        let dx = (p.x - self.min.x).abs().max((p.x - self.max.x).abs());
        let dy = (p.y - self.min.y).abs().max((p.y - self.max.y).abs());
        (dx * dx + dy * dy).sqrt()
    }

    /// Minimum distance between two rectangles (zero when intersecting);
    /// the pruning predicate of the distance join: a node pair can contain
    /// qualifying object pairs iff `min_dist_rect ≤ threshold`.
    #[inline]
    pub fn min_dist_rect(&self, other: &Rect) -> Coord {
        let dx = (self.min.x - other.max.x)
            .max(0.0)
            .max(other.min.x - self.max.x);
        let dy = (self.min.y - other.max.y)
            .max(0.0)
            .max(other.min.y - self.max.y);
        (dx * dx + dy * dy).sqrt()
    }

    /// Subtracts `other` from `self`, appending up to four disjoint pieces
    /// to `out`. Used by the semantic cache to trim a query window against
    /// cached regions (Ren & Dunham-style remainder construction).
    ///
    /// Pieces are emitted in a fixed order (left, right, bottom, top strip)
    /// so the decomposition is deterministic.
    pub fn subtract(&self, other: &Rect, out: &mut Vec<Rect>) {
        let Some(ov) = self.intersection(other) else {
            out.push(*self);
            return;
        };
        if ov == *self {
            return; // fully covered
        }
        // Left strip.
        if ov.min.x > self.min.x {
            out.push(Rect::from_coords(
                self.min.x, self.min.y, ov.min.x, self.max.y,
            ));
        }
        // Right strip.
        if ov.max.x < self.max.x {
            out.push(Rect::from_coords(
                ov.max.x, self.min.y, self.max.x, self.max.y,
            ));
        }
        // Bottom strip (clamped to the overlap's x-extent).
        if ov.min.y > self.min.y {
            out.push(Rect::from_coords(ov.min.x, self.min.y, ov.max.x, ov.min.y));
        }
        // Top strip.
        if ov.max.y < self.max.y {
            out.push(Rect::from_coords(ov.min.x, ov.max.y, ov.max.x, self.max.y));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::from_coords(x0, y0, x1, y1)
    }

    #[test]
    fn new_normalizes_corners() {
        let a = Rect::new(Point::new(1.0, 0.0), Point::new(0.0, 1.0));
        assert_eq!(a, r(0.0, 0.0, 1.0, 1.0));
    }

    #[test]
    fn area_margin_center() {
        let a = r(0.0, 0.0, 2.0, 1.0);
        assert_eq!(a.area(), 2.0);
        assert_eq!(a.margin(), 3.0);
        assert_eq!(a.center(), Point::new(1.0, 0.5));
    }

    #[test]
    fn degenerate_rect_is_a_point() {
        let p = Point::new(0.3, 0.4);
        let a = Rect::from_point(p);
        assert_eq!(a.area(), 0.0);
        assert!(a.contains_point(&p));
        assert_eq!(a.min_dist(&p), 0.0);
    }

    #[test]
    fn union_covers_both() {
        let a = r(0.0, 0.0, 0.5, 0.5);
        let b = r(0.25, 0.25, 1.0, 0.75);
        let u = a.union(&b);
        assert!(u.contains_rect(&a));
        assert!(u.contains_rect(&b));
        assert_eq!(u, r(0.0, 0.0, 1.0, 0.75));
    }

    #[test]
    fn union_all_empty_is_none() {
        assert_eq!(Rect::union_all(std::iter::empty()), None);
        assert_eq!(
            Rect::union_all([r(0.0, 0.0, 1.0, 1.0)]),
            Some(r(0.0, 0.0, 1.0, 1.0))
        );
    }

    #[test]
    fn intersects_touching_edges() {
        let a = r(0.0, 0.0, 0.5, 0.5);
        let b = r(0.5, 0.0, 1.0, 0.5); // shares an edge
        assert!(a.intersects(&b));
        let c = r(0.6, 0.6, 0.7, 0.7);
        assert!(!a.intersects(&c));
    }

    #[test]
    fn intersection_matches_overlap_area() {
        let a = r(0.0, 0.0, 0.6, 0.6);
        let b = r(0.4, 0.2, 1.0, 0.5);
        let i = a.intersection(&b).unwrap();
        assert_eq!(i, r(0.4, 0.2, 0.6, 0.5));
        assert!((a.overlap_area(&b) - i.area()).abs() < 1e-12);
        assert_eq!(a.overlap_area(&r(0.9, 0.9, 1.0, 1.0)), 0.0);
    }

    #[test]
    fn containment() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        assert!(a.contains_rect(&r(0.2, 0.2, 0.8, 0.8)));
        assert!(a.contains_rect(&a));
        assert!(!a.contains_rect(&r(0.5, 0.5, 1.1, 0.9)));
    }

    #[test]
    fn enlargement_zero_when_contained() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        assert_eq!(a.enlargement(&r(0.2, 0.2, 0.4, 0.4)), 0.0);
        assert!((a.enlargement(&r(0.0, 0.0, 2.0, 1.0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn min_dist_inside_is_zero() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        assert_eq!(a.min_dist(&Point::new(0.5, 0.5)), 0.0);
        // Point straight to the right of the box: distance is horizontal.
        assert!((a.min_dist(&Point::new(2.0, 0.5)) - 1.0).abs() < 1e-12);
        // Corner case: diagonal distance.
        let d = a.min_dist(&Point::new(2.0, 2.0));
        assert!((d - 2.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn max_dist_is_to_farthest_corner() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let d = a.max_dist(&Point::new(0.0, 0.0));
        assert!((d - 2.0_f64.sqrt()).abs() < 1e-12);
        assert!(a.max_dist(&Point::new(0.5, 0.5)) >= a.min_dist(&Point::new(0.5, 0.5)));
    }

    #[test]
    fn min_dist_rect_zero_when_touching() {
        let a = r(0.0, 0.0, 0.5, 0.5);
        let b = r(0.5, 0.5, 1.0, 1.0);
        assert_eq!(a.min_dist_rect(&b), 0.0);
        let c = r(0.8, 0.0, 1.0, 0.5);
        assert!((a.min_dist_rect(&c) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn subtract_disjoint_returns_self() {
        let a = r(0.0, 0.0, 0.4, 0.4);
        let b = r(0.5, 0.5, 1.0, 1.0);
        let mut out = Vec::new();
        a.subtract(&b, &mut out);
        assert_eq!(out, vec![a]);
    }

    #[test]
    fn subtract_covered_returns_nothing() {
        let a = r(0.2, 0.2, 0.4, 0.4);
        let b = r(0.0, 0.0, 1.0, 1.0);
        let mut out = Vec::new();
        a.subtract(&b, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn subtract_center_hole_gives_four_pieces_with_right_area() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(0.25, 0.25, 0.75, 0.75);
        let mut out = Vec::new();
        a.subtract(&b, &mut out);
        assert_eq!(out.len(), 4);
        let total: f64 = out.iter().map(|p| p.area()).sum();
        assert!((total - (a.area() - b.area())).abs() < 1e-12);
        // Pieces must be pairwise disjoint (no double counting).
        for i in 0..out.len() {
            for j in i + 1..out.len() {
                assert_eq!(out[i].overlap_area(&out[j]), 0.0);
            }
        }
        // And none may overlap the subtracted region.
        for p in &out {
            assert_eq!(p.overlap_area(&b), 0.0);
        }
    }
}
