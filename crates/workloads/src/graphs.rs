//! Graph inputs: CSR representation and the two synthetic generators that
//! stand in for the paper's graph inputs (Table I).
//!
//! * [`rmat`] — an R-MAT/Kronecker generator with Graph500 parameters
//!   `(a, b, c, d) = (0.57, 0.19, 0.19, 0.05)`, producing the heavily
//!   skewed degree distribution of the *Graph 500* input;
//! * [`citation`] — a preferential-attachment (Barabási–Albert style)
//!   generator whose power-law in-degrees mimic the *Citation Network*
//!   input from the DIMACS-10 collection.
//!
//! Only the degree structure matters to the DP workloads (a vertex's
//! degree is its thread's workload), but full adjacency is materialized so
//! the generators can be validated against the distributions they claim.

use dynapar_engine::DetRng;

/// A directed graph in compressed-sparse-row form.
///
/// # Examples
///
/// ```
/// use dynapar_workloads::graphs::Csr;
///
/// let g = Csr::from_edges(3, &[(0, 1), (0, 2), (1, 2)]);
/// assert_eq!(g.vertex_count(), 3);
/// assert_eq!(g.edge_count(), 3);
/// assert_eq!(g.degree(0), 2);
/// assert_eq!(g.neighbors(0), &[1, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    row_ptr: Vec<u32>,
    adj: Vec<u32>,
}

impl Csr {
    /// Builds a CSR from an edge list over `n` vertices.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut counts = vec![0u32; n];
        for &(u, v) in edges {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "endpoint out of range"
            );
            counts[u as usize] += 1;
        }
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        row_ptr.push(0);
        for &c in &counts {
            acc += c;
            row_ptr.push(acc);
        }
        let mut cursor: Vec<u32> = row_ptr[..n].to_vec();
        let mut adj = vec![0u32; edges.len()];
        for &(u, v) in edges {
            adj[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
        }
        Csr { row_ptr, adj }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.adj.len()
    }

    /// Out-degree of vertex `v`.
    pub fn degree(&self, v: u32) -> u32 {
        self.row_ptr[v as usize + 1] - self.row_ptr[v as usize]
    }

    /// Out-neighbors of vertex `v`.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let lo = self.row_ptr[v as usize] as usize;
        let hi = self.row_ptr[v as usize + 1] as usize;
        &self.adj[lo..hi]
    }

    /// Per-vertex out-degrees (the DP workload vector).
    pub fn out_degrees(&self) -> Vec<u32> {
        (0..self.vertex_count() as u32)
            .map(|v| self.degree(v))
            .collect()
    }

    /// Offset of `v`'s adjacency slice within the edge array — used to
    /// derive each thread's sequential stream base address.
    pub fn row_offset(&self, v: u32) -> u32 {
        self.row_ptr[v as usize]
    }

    /// Maximum out-degree.
    pub fn max_degree(&self) -> u32 {
        (0..self.vertex_count() as u32)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }
}

/// Generates an R-MAT graph with `2^scale` vertices and
/// `edge_factor · 2^scale` directed edges using the Graph500 partition
/// probabilities.
///
/// # Panics
///
/// Panics if `scale == 0` or `edge_factor == 0`.
pub fn rmat(scale: u32, edge_factor: u32, rng: &mut DetRng) -> Csr {
    assert!(scale > 0 && edge_factor > 0, "degenerate R-MAT parameters");
    let n = 1usize << scale;
    let m = n * edge_factor as usize;
    // Graph500 R-MAT probabilities.
    const A: f64 = 0.57;
    const B: f64 = 0.19;
    const C: f64 = 0.19;
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let mut u = 0u32;
        let mut v = 0u32;
        for bit in (0..scale).rev() {
            // Quadrant a = (0, 0), b = (0, 1), c = (1, 0), d = (1, 1),
            // picked without branches: the draws are unpredictable.
            let r = rng.unit();
            let du = (r >= A + B) as u32;
            let dv = ((A..A + B).contains(&r) | (r >= A + B + C)) as u32;
            u |= du << bit;
            v |= dv << bit;
        }
        edges.push((u, v));
    }
    Csr::from_edges(n, &edges)
}

/// Generates a citation-like graph with `n` vertices by preferential
/// attachment: each new vertex cites `m_per_node` earlier vertices chosen
/// proportionally to their current citation count (plus one), yielding a
/// power-law degree tail. Citations point *from* new to old, and the
/// returned CSR's out-degrees are the *citation counts* (in-degrees of the
/// attachment process), since those are the BFS workload drivers.
///
/// # Panics
///
/// Panics if `n < 2` or `m_per_node == 0`.
pub fn citation(n: usize, m_per_node: usize, rng: &mut DetRng) -> Csr {
    assert!(n >= 2, "need at least two vertices");
    assert!(m_per_node >= 1, "need at least one citation per paper");
    // Repeated-node list trick: sampling uniformly from `targets` is
    // preferential attachment.
    let mut targets: Vec<u32> = vec![0];
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(n * m_per_node);
    for v in 1..n as u32 {
        for _ in 0..m_per_node {
            let pick = targets[rng.below(targets.len() as u64) as usize];
            // Reverse the edge: cited paper -> citing paper, so the cited
            // (popular) vertex accumulates out-degree = workload.
            edges.push((pick, v));
            targets.push(pick);
        }
        targets.push(v);
    }
    Csr::from_edges(n, &edges)
}

/// Generates a road-network-like graph: a `side × side` grid where each
/// cell connects to its 4 neighbours plus a sparse set of random
/// "highway" shortcuts. Degrees are nearly uniform (3–5), the polar
/// opposite of the paper's irregular inputs — useful as a control: DP
/// has nothing to fix here, so any launch is pure overhead.
///
/// # Panics
///
/// Panics if `side < 2`.
pub fn road(side: usize, shortcut_fraction: f64, rng: &mut DetRng) -> Csr {
    assert!(side >= 2, "grid needs at least 2x2 cells");
    let n = side * side;
    let idx = |r: usize, c: usize| (r * side + c) as u32;
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(n * 4);
    for r in 0..side {
        for c in 0..side {
            let v = idx(r, c);
            if r + 1 < side {
                edges.push((v, idx(r + 1, c)));
                edges.push((idx(r + 1, c), v));
            }
            if c + 1 < side {
                edges.push((v, idx(r, c + 1)));
                edges.push((idx(r, c + 1), v));
            }
        }
    }
    let shortcuts = (n as f64 * shortcut_fraction.clamp(0.0, 1.0)) as usize;
    for _ in 0..shortcuts {
        let a = rng.below(n as u64) as u32;
        let b = rng.below(n as u64) as u32;
        if a != b {
            edges.push((a, b));
        }
    }
    Csr::from_edges(n, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_roundtrip() {
        let g = Csr::from_edges(4, &[(0, 1), (2, 3), (0, 3), (2, 1)]);
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 0);
        assert_eq!(g.degree(2), 2);
        assert_eq!(g.neighbors(2), &[3, 1]);
        assert_eq!(g.row_offset(2), 2);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn degrees_sum_to_edges() {
        let mut rng = DetRng::new(1);
        let g = rmat(8, 4, &mut rng);
        let total: u64 = g.out_degrees().iter().map(|&d| d as u64).sum();
        assert_eq!(total, g.edge_count() as u64);
        assert_eq!(g.edge_count(), 256 * 4);
    }

    #[test]
    fn rmat_is_skewed() {
        let mut rng = DetRng::new(2);
        let g = rmat(10, 8, &mut rng);
        let mut degs = g.out_degrees();
        degs.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = degs.iter().map(|&d| d as u64).sum();
        let top1pct: u64 = degs[..degs.len() / 100].iter().map(|&d| d as u64).sum();
        // Graph500-like skew: top 1% of vertices hold >10% of the edges.
        assert!(
            top1pct * 10 > total,
            "top-1% holds {top1pct} of {total} edges"
        );
        assert!(g.max_degree() > 8 * 8, "hubs should be far above average");
    }

    /// R-MAT with one branch per quadrant, as first written: the oracle
    /// for the branchless quadrant pick.
    fn rmat_branchy(scale: u32, edge_factor: u32, rng: &mut DetRng) -> Csr {
        let n = 1usize << scale;
        const A: f64 = 0.57;
        const B: f64 = 0.19;
        const C: f64 = 0.19;
        let mut edges = Vec::new();
        for _ in 0..n * edge_factor as usize {
            let mut u = 0u32;
            let mut v = 0u32;
            for bit in (0..scale).rev() {
                let r = rng.unit();
                let (du, dv) = if r < A {
                    (0, 0)
                } else if r < A + B {
                    (0, 1)
                } else if r < A + B + C {
                    (1, 0)
                } else {
                    (1, 1)
                };
                u |= du << bit;
                v |= dv << bit;
            }
            edges.push((u, v));
        }
        Csr::from_edges(n, &edges)
    }

    #[test]
    fn branchless_rmat_equals_branchy_oracle() {
        for (scale, edge_factor) in [(1, 1), (5, 3), (9, 4), (12, 8)] {
            for seed in [0, 1, 42, 0xD7_2017] {
                assert_eq!(
                    rmat(scale, edge_factor, &mut DetRng::new(seed)),
                    rmat_branchy(scale, edge_factor, &mut DetRng::new(seed)),
                    "scale {scale}, edge factor {edge_factor}, seed {seed}"
                );
            }
        }
    }

    #[test]
    fn rmat_deterministic_per_seed() {
        let g1 = rmat(7, 4, &mut DetRng::new(42));
        let g2 = rmat(7, 4, &mut DetRng::new(42));
        assert_eq!(g1, g2);
        let g3 = rmat(7, 4, &mut DetRng::new(43));
        assert_ne!(g1, g3);
    }

    #[test]
    fn citation_power_law_tail() {
        let mut rng = DetRng::new(3);
        let g = citation(4000, 3, &mut rng);
        assert_eq!(g.vertex_count(), 4000);
        assert_eq!(g.edge_count(), 3999 * 3);
        let max = g.max_degree();
        let avg = g.edge_count() as f64 / g.vertex_count() as f64;
        assert!(
            max as f64 > 20.0 * avg,
            "hub degree {max} should dwarf average {avg}"
        );
        // Most papers are cited little: median well below mean.
        let mut degs = g.out_degrees();
        degs.sort_unstable();
        assert!((degs[degs.len() / 2] as f64) < avg);
    }

    #[test]
    #[should_panic(expected = "endpoint out of range")]
    fn bad_edge_rejected() {
        Csr::from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn road_grid_is_nearly_regular() {
        let mut rng = DetRng::new(9);
        let g = road(32, 0.02, &mut rng);
        assert_eq!(g.vertex_count(), 1024);
        let s = DegreeStats::of(&g);
        // Near-uniform degrees: tiny spread, low gini.
        assert!(s.max <= 6, "max degree {}", s.max);
        assert!(s.gini < 0.2, "gini {}", s.gini);
        // Interior cell has exactly 4 grid neighbours (modulo shortcuts).
        assert!(g.degree(33) >= 4);
    }

    #[test]
    fn road_connectivity_shape() {
        let mut rng = DetRng::new(10);
        let g = road(4, 0.0, &mut rng);
        // Corner has degree 2, edge cell 3, interior 4.
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 3);
        assert_eq!(g.degree(5), 4);
    }
}

/// Summary statistics of a degree sequence, used to validate that the
/// synthetic generators match the distributional shape of the paper's
/// real inputs (power-law tails for citation, R-MAT skew for Graph500).
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    /// Number of vertices.
    pub vertices: usize,
    /// Number of edges.
    pub edges: usize,
    /// Mean out-degree.
    pub mean: f64,
    /// Median out-degree.
    pub median: u32,
    /// Maximum out-degree.
    pub max: u32,
    /// Gini coefficient of the degree distribution (0 = perfectly
    /// balanced, →1 = all edges on one vertex); the paper's irregular
    /// inputs sit far above regular meshes.
    pub gini: f64,
    /// Fraction of edges owned by the top 1% highest-degree vertices.
    pub top1pct_edge_share: f64,
}

impl DegreeStats {
    /// Computes statistics for a graph.
    ///
    /// # Panics
    ///
    /// Panics if the graph has no vertices.
    pub fn of(g: &Csr) -> Self {
        let mut degs = g.out_degrees();
        assert!(!degs.is_empty(), "graph has no vertices");
        degs.sort_unstable();
        let n = degs.len();
        let edges: u64 = degs.iter().map(|&d| d as u64).sum();
        // Gini via the sorted-sum formula.
        let gini = if edges == 0 {
            0.0
        } else {
            let weighted: u128 = degs
                .iter()
                .enumerate()
                .map(|(i, &d)| (i as u128 + 1) * d as u128)
                .sum();
            (2.0 * weighted as f64) / (n as f64 * edges as f64) - (n as f64 + 1.0) / n as f64
        };
        let top = (n / 100).max(1);
        let top_edges: u64 = degs[n - top..].iter().map(|&d| d as u64).sum();
        DegreeStats {
            vertices: n,
            edges: edges as usize,
            mean: edges as f64 / n as f64,
            median: degs[n / 2],
            max: degs[n - 1],
            gini,
            top1pct_edge_share: if edges == 0 {
                0.0
            } else {
                top_edges as f64 / edges as f64
            },
        }
    }
}

#[cfg(test)]
mod stats_tests {
    use super::*;
    use dynapar_engine::DetRng;

    #[test]
    fn regular_graph_has_zero_gini() {
        // A ring: every vertex has out-degree 1.
        let edges: Vec<(u32, u32)> = (0..16u32).map(|v| (v, (v + 1) % 16)).collect();
        let g = Csr::from_edges(16, &edges);
        let s = DegreeStats::of(&g);
        assert!(s.gini.abs() < 1e-9, "gini {}", s.gini);
        assert_eq!(s.median, 1);
        assert_eq!(s.max, 1);
    }

    #[test]
    fn star_graph_has_extreme_gini() {
        // All edges leave vertex 0.
        let edges: Vec<(u32, u32)> = (1..64u32).map(|v| (0, v)).collect();
        let g = Csr::from_edges(64, &edges);
        let s = DegreeStats::of(&g);
        assert!(s.gini > 0.95, "gini {}", s.gini);
        assert!(s.top1pct_edge_share > 0.99);
    }

    #[test]
    fn rmat_is_more_skewed_than_citation_tail_aside() {
        let rmat = super::rmat(11, 8, &mut DetRng::new(1));
        let cit = super::citation(2048, 8, &mut DetRng::new(1));
        let sr = DegreeStats::of(&rmat);
        let sc = DegreeStats::of(&cit);
        // Both are strongly irregular...
        assert!(sr.gini > 0.4, "rmat gini {}", sr.gini);
        assert!(sc.gini > 0.4, "citation gini {}", sc.gini);
        // ...with hubs well above the mean.
        assert!(sr.max as f64 > 10.0 * sr.mean);
        assert!(sc.max as f64 > 10.0 * sc.mean);
    }
}
