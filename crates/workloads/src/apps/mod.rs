//! The eight applications of Table I, each producing one or more
//! `<application, input>` benchmarks.
//!
//! Every module exposes a `build` function returning a
//! [`Benchmark`](crate::Benchmark) whose parent kernel carries the
//! application's dynamic-parallelism structure (child geometry, the
//! author-chosen `THRESHOLD`, nesting for AMR) and whose per-thread
//! workloads come from a synthetic input with the statistical shape of the
//! paper's real input.

pub mod amr;
pub mod bfs;
pub mod gc;
mod graph_common;
pub mod join;
pub mod mandel;
pub mod mm;
pub mod sa;
pub mod sssp;

use dynapar_engine::DetRng;

use crate::graphs::{citation, rmat, road, Csr};
use crate::program::Scale;

/// Which graph input a graph benchmark runs on (BFS, SSSP, GC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphInput {
    /// Citation-network-like power-law graph (DIMACS-10 stand-in).
    Citation,
    /// Graph500-like R-MAT graph.
    Graph500,
    /// Road-network-like grid graph (an *extension*: nearly uniform
    /// degrees, the control case where DP can only add overhead).
    Road,
}

impl GraphInput {
    /// Lower-case input label used in benchmark names.
    pub fn label(self) -> &'static str {
        match self {
            GraphInput::Citation => "citation",
            GraphInput::Graph500 => "graph500",
            GraphInput::Road => "road",
        }
    }

    /// Generates the graph at the given scale.
    pub fn generate(self, scale: Scale, seed: u64) -> Csr {
        let mut rng = DetRng::new(seed ^ 0xC5A0_17E5);
        match self {
            GraphInput::Citation => {
                let n = match scale {
                    Scale::Tiny => 512,
                    Scale::Small => 32_768,
                    Scale::Paper => 262_144,
                };
                let m = match scale {
                    Scale::Tiny => 4,
                    Scale::Small => 5,
                    Scale::Paper => 5,
                };
                citation(n, m, &mut rng)
            }
            GraphInput::Graph500 => {
                let (sc, ef) = match scale {
                    Scale::Tiny => (9, 4),
                    Scale::Small => (15, 8),
                    Scale::Paper => (18, 8),
                };
                rmat(sc, ef, &mut rng)
            }
            GraphInput::Road => {
                let side = match scale {
                    Scale::Tiny => 24,
                    Scale::Small => 180,
                    Scale::Paper => 512,
                };
                road(side, 0.02, &mut rng)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_inputs_scale_up() {
        let tiny = GraphInput::Graph500.generate(Scale::Tiny, 1);
        let paper = GraphInput::Graph500.generate(Scale::Paper, 1);
        assert!(paper.vertex_count() > tiny.vertex_count());
        assert!(paper.edge_count() > tiny.edge_count());
    }

    #[test]
    fn labels() {
        assert_eq!(GraphInput::Citation.label(), "citation");
        assert_eq!(GraphInput::Graph500.label(), "graph500");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = GraphInput::Citation.generate(Scale::Tiny, 9);
        let b = GraphInput::Citation.generate(Scale::Tiny, 9);
        assert_eq!(a, b);
    }
}
