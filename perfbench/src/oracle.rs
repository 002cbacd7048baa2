//! Reference answers computed without the index or the MapReduce path.
//!
//! Range and kNN are brute force over the generated points (sorted by x
//! once so a range check only walks the query's x-slab). The join
//! reference is the heap-file `sjmr` answer, computed once per dataset.

use sh_geom::{Point, Record, Rect};

/// Brute-force answers over one generated point set.
pub struct PointOracle {
    by_x: Vec<Point>,
    /// Uniform bucket grid over the points' MBR for kNN: `cells` per
    /// side, each bucket listing its points.
    mbr: Rect,
    cells: usize,
    buckets: Vec<Vec<Point>>,
}

impl PointOracle {
    pub fn new(points: &[Point]) -> PointOracle {
        let mut by_x = points.to_vec();
        by_x.sort_by(|a, b| a.x.total_cmp(&b.x).then(a.y.total_cmp(&b.y)));
        let mut mbr = Rect::empty();
        for p in points {
            mbr.expand(&p.mbr());
        }
        let cells = ((points.len() / 8) as f64).sqrt().max(1.0) as usize;
        let mut oracle = PointOracle {
            by_x,
            mbr,
            cells,
            buckets: vec![Vec::new(); cells * cells],
        };
        for p in points {
            let (cx, cy) = oracle.cell_of(p);
            oracle.buckets[cy * cells + cx].push(*p);
        }
        oracle
    }

    fn cell_of(&self, p: &Point) -> (usize, usize) {
        let f = |v: f64, lo: f64, width: f64| {
            if width <= 0.0 {
                return 0;
            }
            (((v - lo) / width * self.cells as f64).floor().max(0.0) as usize).min(self.cells - 1)
        };
        (
            f(p.x, self.mbr.x1, self.mbr.width()),
            f(p.y, self.mbr.y1, self.mbr.height()),
        )
    }

    /// Every point whose MBR intersects `q` — the range predicate — as
    /// sorted text lines.
    pub fn range(&self, q: &Rect) -> Vec<String> {
        let start = self.by_x.partition_point(|p| p.x < q.x1);
        let mut out: Vec<String> = self.by_x[start..]
            .iter()
            .take_while(|p| p.x <= q.x2)
            .filter(|p| p.mbr().intersects(q))
            .map(Record::to_line)
            .collect();
        out.sort();
        out
    }

    /// Distances of the `k` nearest points to `q`, ascending. Compared
    /// instead of the points themselves so equidistant ties cannot fail
    /// a correct answer.
    ///
    /// Rings of grid cells are scanned outward from `q`'s cell until the
    /// k-th best distance is no larger than the distance to any cell not
    /// yet scanned — every point is still compared exactly, the grid only
    /// skips cells that cannot hold a closer one.
    pub fn knn_distances(&self, q: &Point, k: usize) -> Vec<f64> {
        let k = k.min(self.by_x.len());
        let (cx, cy) = self.cell_of(q);
        let (cw, ch) = (
            self.mbr.width() / self.cells as f64,
            self.mbr.height() / self.cells as f64,
        );
        let mut best: Vec<f64> = Vec::new();
        for ring in 0..=self.cells {
            let (lo_x, hi_x) = (cx.saturating_sub(ring), (cx + ring).min(self.cells - 1));
            let (lo_y, hi_y) = (cy.saturating_sub(ring), (cy + ring).min(self.cells - 1));
            for y in lo_y..=hi_y {
                for x in lo_x..=hi_x {
                    let on_ring =
                        x + ring == cx || x == cx + ring || y + ring == cy || y == cy + ring;
                    if ring > 0 && !on_ring {
                        continue;
                    }
                    best.extend(
                        self.buckets[y * self.cells + x]
                            .iter()
                            .map(|p| p.distance(q)),
                    );
                }
            }
            if best.len() >= k {
                best.sort_by(f64::total_cmp);
                best.truncate(k.max(1));
                // Any unscanned cell lies beyond the ring: at least this far.
                let reach = ring as f64 * cw.min(ch);
                if best.len() >= k && best[k - 1] <= reach {
                    break;
                }
            }
        }
        best.sort_by(f64::total_cmp);
        best.truncate(k);
        best
    }
}

/// Sorted text lines of a record answer, the form every check compares.
pub fn sorted_lines<R: Record>(records: &[R]) -> Vec<String> {
    let mut out: Vec<String> = records.iter().map(Record::to_line).collect();
    out.sort();
    out
}

/// Ascending distances of a kNN answer to its query point.
pub fn distances(q: &Point, answer: &[Point]) -> Vec<f64> {
    let mut d: Vec<f64> = answer.iter().map(|p| p.distance(q)).collect();
    d.sort_by(f64::total_cmp);
    d
}

/// Sorted `a b` pair lines of a join answer.
pub fn sorted_pairs(pairs: &[(Rect, Rect)]) -> Vec<String> {
    let mut out: Vec<String> = pairs
        .iter()
        .map(|(a, b)| sh_core::codec::encode_pair(a, b))
        .collect();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_matches_a_full_scan() {
        let uni = sh_workload::default_universe();
        let pts = sh_workload::points(2_000, sh_workload::Distribution::Uniform, &uni, 7);
        let oracle = PointOracle::new(&pts);
        let q = Rect::new(100_000.0, 200_000.0, 400_000.0, 300_000.0);
        let full = sorted_lines(
            &pts.iter()
                .copied()
                .filter(|p| p.mbr().intersects(&q))
                .collect::<Vec<_>>(),
        );
        assert!(!full.is_empty());
        assert_eq!(oracle.range(&q), full);
    }

    #[test]
    fn grid_knn_matches_a_full_sort() {
        let uni = sh_workload::default_universe();
        let pts = sh_workload::points(5_000, sh_workload::Distribution::Gaussian, &uni, 3);
        let oracle = PointOracle::new(&pts);
        for (i, q) in sh_workload::points(50, sh_workload::Distribution::Uniform, &uni, 4)
            .iter()
            .enumerate()
        {
            let k = 1 + i % 25;
            let mut all: Vec<f64> = pts.iter().map(|p| p.distance(q)).collect();
            all.sort_by(f64::total_cmp);
            all.truncate(k);
            assert_eq!(oracle.knn_distances(q, k), all, "query {i}, k {k}");
        }
    }

    #[test]
    fn knn_distances_are_the_k_smallest() {
        let pts: Vec<Point> = (0..10).map(|i| Point::new(i as f64, 0.0)).collect();
        let oracle = PointOracle::new(&pts);
        let d = oracle.knn_distances(&Point::new(4.2, 0.0), 3);
        assert_eq!(d.len(), 3);
        assert!((d[0] - 0.2).abs() < 1e-9 && (d[2] - 1.2).abs() < 1e-9);
        assert_eq!(oracle.knn_distances(&Point::new(0.0, 0.0), 50).len(), 10);
    }
}
