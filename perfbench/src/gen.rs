//! Seeded inputs: graphs, load bounds and request bodies.
//!
//! Everything here is the benchmark's own code (its own generator and
//! its own JSON rendering), so the program under test receives only
//! bytes and the checker never shares a parser or a generator with it.

use std::fmt::Write as _;

/// splitmix64: small, fast, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// A generator for one labelled stream of a seed, so that adding a
    /// request to one stream never shifts the inputs of another.
    pub fn stream(seed: u64, label: &[u64]) -> Self {
        let mut rng = Rng::new(seed);
        for &part in label {
            rng.0 ^= part.wrapping_mul(0xD1B5_4A32_D192_ED03);
            rng.next();
        }
        rng
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// A task graph as the benchmark keeps it: node weights plus edges
/// `(a, b, weight)`. A chain's edge `i` joins nodes `i` and `i + 1`.
#[derive(Debug, Clone)]
pub struct Graph {
    pub nodes: Vec<u64>,
    pub edges: Vec<(usize, usize, u64)>,
    pub chain: bool,
}

impl Graph {
    pub fn n(&self) -> usize {
        self.nodes.len()
    }

    pub fn total(&self) -> u64 {
        self.nodes.iter().sum()
    }

    pub fn max_node(&self) -> u64 {
        self.nodes.iter().copied().max().unwrap_or(0)
    }

    /// Renders the graph object the service accepts.
    pub fn render(&self, out: &mut String) {
        out.push_str("{\"node_weights\":[");
        join(out, self.nodes.iter().copied());
        if self.chain {
            out.push_str("],\"edge_weights\":[");
            join(out, self.edges.iter().map(|e| e.2));
            out.push_str("]}");
        } else {
            out.push_str("],\"edges\":[");
            for (i, &(a, b, w)) in self.edges.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{{\"a\":{a},\"b\":{b},\"weight\":{w}}}");
            }
            out.push_str("]}");
        }
    }
}

fn join(out: &mut String, values: impl Iterator<Item = u64>) {
    for (i, v) in values.enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
}

/// A chain with node weights uniform on `[1, 100]` (the paper's
/// Figure 2 distribution) and edge weights uniform on `[1, edge_max]`.
pub fn chain(rng: &mut Rng, n: usize, edge_max: u64) -> Graph {
    let nodes = (0..n).map(|_| rng.range(1, 100)).collect();
    let edges = (0..n - 1)
        .map(|i| (i, i + 1, rng.range(1, edge_max)))
        .collect();
    Graph {
        nodes,
        edges,
        chain: true,
    }
}

/// A random recursive tree (node `i` hangs under a uniform earlier
/// node) with node weights uniform on `[1, 100]` and pairwise distinct
/// edge weights, so the minimum bottleneck is attained by one edge and
/// the edges at or below it are the same set under any tie order.
pub fn tree(rng: &mut Rng, n: usize) -> Graph {
    let nodes = (0..n).map(|_| rng.range(1, 100)).collect();
    let m = n - 1;
    let mut rank: Vec<u64> = (1..=m as u64).collect();
    for i in (1..m).rev() {
        let j = (rng.next() % (i as u64 + 1)) as usize;
        rank.swap(i, j);
    }
    let edges = (1..n)
        .map(|b| {
            let a = (rng.next() % b as u64) as usize;
            (a, b, rank[b - 1] * 1000 + rng.range(0, 999))
        })
        .collect();
    Graph {
        nodes,
        edges,
        chain: false,
    }
}

/// The three load-bound regimes of Figure 2, spaced between the
/// heaviest task (`tight`: many short segments) and half the total
/// weight (`loose`: a few long ones).
pub const REGIMES: [(&str, u64); 3] = [("tight", 1000), ("medium", 20), ("loose", 2)];

pub fn bound(graph: &Graph, divisor: u64) -> u64 {
    let lo = graph.max_node();
    lo + (graph.total() - lo) / divisor
}

/// A `/v1/partition` body. `graph_first` puts the graph before the
/// objective, the field order that makes flat ingest scan the whole
/// graph before it can decline a registry-path objective.
pub fn partition_body(objective: &str, bound: u64, graph: &Graph, graph_first: bool) -> String {
    let mut out = String::with_capacity(graph.n() * 12 + 64);
    if graph_first {
        out.push_str("{\"graph\":");
        graph.render(&mut out);
        let _ = write!(out, ",\"objective\":\"{objective}\",\"bound\":{bound}}}");
    } else {
        let _ = write!(
            out,
            "{{\"objective\":\"{objective}\",\"bound\":{bound},\"graph\":"
        );
        graph.render(&mut out);
        out.push('}');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible_and_independent() {
        let a: Vec<u64> = (0..4).map(|_| Rng::stream(7, &[1, 2]).next()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(
            Rng::stream(7, &[1, 2]).next(),
            Rng::stream(7, &[1, 3]).next()
        );
        assert_ne!(
            Rng::stream(7, &[1, 2]).next(),
            Rng::stream(8, &[1, 2]).next()
        );
    }

    #[test]
    fn tree_edge_weights_are_distinct() {
        let g = tree(&mut Rng::new(3), 500);
        let mut w: Vec<u64> = g.edges.iter().map(|e| e.2).collect();
        w.sort_unstable();
        w.dedup();
        assert_eq!(w.len(), 499);
        assert!(g.edges.iter().all(|&(a, b, _)| a < b));
    }

    #[test]
    fn bodies_render_both_field_orders() {
        let g = chain(&mut Rng::new(1), 3, 9);
        let first = partition_body("nicol", 500, &g, true);
        assert!(first.starts_with("{\"graph\":{\"node_weights\":["));
        assert!(first.ends_with(",\"objective\":\"nicol\",\"bound\":500}"));
        let last = partition_body("nicol", 500, &g, false);
        assert!(last.starts_with("{\"objective\":\"nicol\",\"bound\":500,\"graph\":{"));
    }
}
