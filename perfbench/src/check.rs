//! The independent answer checker.
//!
//! Optima are computed here from first principles, apart from the
//! program's solvers, and every response is also checked for
//! feasibility against the cut it returns:
//!
//! * minimum-bandwidth chain cut: a sliding-window-minimum DP, `O(n)`;
//!   with a weight cap it gives the bandwidth of the best cut whose
//!   edges all weigh at most the cap (lexicographic's second criterion);
//! * minimum bottleneck: union-find over edges in decreasing weight —
//!   the first edge whose merge would overload a component is the
//!   lightest bottleneck any feasible cut can have;
//! * minimum processor count: the Kundu–Misra bottom-up greedy, on the
//!   tree with every edge above a weight cap contracted (compose).
//!
//! `self_test` compares all three against exhaustive cut enumeration.

use crate::gen::{self, Graph, Rng};
use crate::json::J;

struct Dsu {
    parent: Vec<u32>,
    sum: Vec<u64>,
}

impl Dsu {
    fn new(weights: &[u64]) -> Self {
        Dsu {
            parent: (0..weights.len() as u32).collect(),
            sum: weights.to_vec(),
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let up = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = up;
            x = up;
        }
        x
    }

    /// Merges the components of `a` and `b`; returns the merged weight.
    fn union(&mut self, a: usize, b: usize) -> u64 {
        let (ra, rb) = (self.find(a as u32), self.find(b as u32));
        if ra == rb {
            return self.sum[ra as usize];
        }
        self.parent[rb as usize] = ra;
        self.sum[ra as usize] += self.sum[rb as usize];
        self.sum[ra as usize]
    }
}

/// Minimum total weight of a chain cut whose segments all weigh at
/// most `bound`, using only edges of weight at most `cap`. `None` when
/// no such cut exists.
pub fn min_bandwidth(g: &Graph, bound: u64, cap: u64) -> Option<u64> {
    let n = g.n();
    let mut prefix = Vec::with_capacity(n + 1);
    prefix.push(0u64);
    for &w in &g.nodes {
        prefix.push(prefix.last().unwrap() + w);
    }
    // best[s]: cheapest cut of nodes 0..s whose last cut edge is s-1
    // (best[0] = 0: nothing before node 0). A segment r..s-1 is
    // allowed while prefix[s] - prefix[r] <= bound; the deque keeps the
    // window's start states with increasing cost.
    let mut best = vec![u64::MAX; n];
    best[0] = 0;
    let mut window = std::collections::VecDeque::new();
    for s in 1..=n {
        let r = s - 1;
        if best[r] != u64::MAX {
            while window.back().is_some_and(|&b: &usize| best[b] >= best[r]) {
                window.pop_back();
            }
            window.push_back(r);
        }
        while window
            .front()
            .is_some_and(|&f| prefix[s] - prefix[f] > bound)
        {
            window.pop_front();
        }
        let cheapest = window.front().map(|&f| best[f]);
        if s == n {
            return cheapest;
        }
        let edge = g.edges[s - 1].2;
        if edge <= cap {
            if let Some(c) = cheapest {
                best[s] = c + edge;
            }
        }
    }
    unreachable!("the loop returns at s == n")
}

/// Smallest possible maximum cut-edge weight over cuts whose
/// components all weigh at most `bound` (0 when nothing must be cut).
pub fn min_bottleneck(g: &Graph, bound: u64) -> Option<u64> {
    if g.max_node() > bound {
        return None;
    }
    let mut order: Vec<u32> = (0..g.edges.len() as u32).collect();
    order.sort_unstable_by_key(|&e| std::cmp::Reverse(g.edges[e as usize].2));
    let mut dsu = Dsu::new(&g.nodes);
    for e in order {
        let (a, b, w) = g.edges[e as usize];
        if dsu.union(a, b) > bound {
            return Some(w);
        }
    }
    Some(0)
}

/// Fewest components a cut can leave, each weighing at most `bound`,
/// when only edges of weight at most `cap` may be cut.
pub fn min_processors(g: &Graph, bound: u64, cap: u64) -> Option<usize> {
    let n = g.n();
    let mut dsu = Dsu::new(&g.nodes);
    for &(a, b, w) in &g.edges {
        if w > cap {
            dsu.union(a, b);
        }
    }
    // Contracted tree: one super-node per component of the uncuttable
    // edges, joined by the cuttable ones.
    let mut id = vec![u32::MAX; n];
    let mut weight = Vec::new();
    for v in 0..n {
        let root = dsu.find(v as u32) as usize;
        if id[root] == u32::MAX {
            id[root] = weight.len() as u32;
            weight.push(dsu.sum[root]);
        }
        id[v] = id[root];
    }
    if weight.iter().any(|&w| w > bound) {
        return None;
    }
    let m = weight.len();
    let mut degree = vec![0u32; m + 1];
    let links: Vec<(u32, u32)> = g
        .edges
        .iter()
        .filter(|e| e.2 <= cap)
        .map(|&(a, b, _)| (id[a], id[b]))
        .collect();
    for &(a, b) in &links {
        degree[a as usize + 1] += 1;
        degree[b as usize + 1] += 1;
    }
    for i in 0..m {
        degree[i + 1] += degree[i];
    }
    let mut fill = degree.clone();
    let mut adj = vec![0u32; links.len() * 2];
    for &(a, b) in &links {
        adj[fill[a as usize] as usize] = b;
        fill[a as usize] += 1;
        adj[fill[b as usize] as usize] = a;
        fill[b as usize] += 1;
    }
    let mut parent = vec![u32::MAX; m];
    let mut order = Vec::with_capacity(m);
    let mut seen = vec![false; m];
    seen[0] = true;
    order.push(0u32);
    let mut head = 0;
    while head < order.len() {
        let v = order[head] as usize;
        head += 1;
        for &u in &adj[degree[v] as usize..degree[v + 1] as usize] {
            if !seen[u as usize] {
                seen[u as usize] = true;
                parent[u as usize] = v as u32;
                order.push(u);
            }
        }
    }
    // Bottom-up: a node carries its own weight plus what its children
    // did not cut off; while that overflows, cut the heaviest child.
    let mut residual = weight;
    let mut cuts = 0usize;
    let mut children = Vec::new();
    for &v in order.iter().rev() {
        let v = v as usize;
        children.clear();
        children.extend(
            adj[degree[v] as usize..degree[v + 1] as usize]
                .iter()
                .filter(|&&u| parent[u as usize] == v as u32)
                .map(|&u| residual[u as usize]),
        );
        let mut load = residual[v] + children.iter().sum::<u64>();
        children.sort_unstable_by(|a, b| b.cmp(a));
        for &c in &children {
            if load <= bound {
                break;
            }
            load -= c;
            cuts += 1;
        }
        residual[v] = load;
    }
    Some(cuts + 1)
}

/// What a cut leaves behind, recomputed from the graph.
#[derive(Debug)]
pub struct CutFacts {
    pub bandwidth: u64,
    pub bottleneck: u64,
    pub components: usize,
}

/// Checks that `cut` names distinct edges of `g` and leaves every
/// component at most `bound`.
pub fn feasible(g: &Graph, bound: u64, cut: &[u64]) -> Result<CutFacts, String> {
    let mut is_cut = vec![false; g.edges.len()];
    for &e in cut {
        let e = usize::try_from(e).map_err(|_| format!("cut edge {e} out of range"))?;
        if e >= is_cut.len() || std::mem::replace(&mut is_cut[e], true) {
            return Err(format!("cut edge {e} out of range or repeated"));
        }
    }
    let mut dsu = Dsu::new(&g.nodes);
    for (e, &(a, b, _)) in g.edges.iter().enumerate() {
        if !is_cut[e] {
            dsu.union(a, b);
        }
    }
    let mut components = 0;
    for v in 0..g.n() {
        if dsu.find(v as u32) == v as u32 {
            components += 1;
            if dsu.sum[v] > bound {
                return Err(format!("a component weighs {} > K = {bound}", dsu.sum[v]));
            }
        }
    }
    let weights = cut.iter().map(|&e| g.edges[e as usize].2);
    Ok(CutFacts {
        bandwidth: weights.clone().sum(),
        bottleneck: weights.max().unwrap_or(0),
        components,
    })
}

fn expect_eq(what: &str, got: Option<u64>, want: u64) -> Result<(), String> {
    match got {
        Some(v) if v == want => Ok(()),
        _ => Err(format!("{what}: response {got:?}, expected {want}")),
    }
}

/// Checks one partition response body against `g` and `bound`.
pub fn check_response(objective: &str, g: &Graph, bound: u64, body: &str) -> Result<(), String> {
    let r = J::parse(body.trim_end()).map_err(|e| format!("response is not JSON: {e}"))?;
    if r.get("objective").and_then(J::as_str) != Some(objective) {
        return Err(format!("objective field is not {objective:?}"));
    }
    expect_eq("bound", r.u64("bound"), bound)?;
    let cut: Vec<u64> = r
        .get("cut")
        .and_then(J::as_array)
        .ok_or("no cut array")?
        .iter()
        .map(|e| e.as_u64().ok_or("cut entry is not an edge index"))
        .collect::<Result<_, _>>()?;
    let facts = feasible(g, bound, &cut)?;
    let infeasible = || format!("checker finds K = {bound} infeasible");
    let count = facts.components as u64;
    match objective {
        "bandwidth" | "nicol" => {
            let best = min_bandwidth(g, bound, u64::MAX).ok_or_else(infeasible)?;
            expect_eq("bandwidth (optimum)", r.u64("bandwidth"), best)?;
            expect_eq(
                "bandwidth (of the cut)",
                r.u64("bandwidth"),
                facts.bandwidth,
            )?;
            expect_eq("processors", r.u64("processors"), count)?;
            if objective == "bandwidth" {
                expect_eq("bottleneck", r.u64("bottleneck"), facts.bottleneck)?;
                check_segments(g, &cut, &r)?;
            }
        }
        "lexicographic" => {
            let b = min_bottleneck(g, bound).ok_or_else(infeasible)?;
            let best = min_bandwidth(g, bound, b).ok_or_else(infeasible)?;
            expect_eq("bottleneck (optimum)", r.u64("bottleneck"), b)?;
            expect_eq(
                "bottleneck (of the cut)",
                r.u64("bottleneck"),
                facts.bottleneck,
            )?;
            expect_eq("bandwidth at the bottleneck", r.u64("bandwidth"), best)?;
            expect_eq(
                "bandwidth (of the cut)",
                r.u64("bandwidth"),
                facts.bandwidth,
            )?;
            expect_eq("processors", r.u64("processors"), count)?;
        }
        "bottleneck" => {
            let b = min_bottleneck(g, bound).ok_or_else(infeasible)?;
            expect_eq("bottleneck (optimum)", r.u64("bottleneck"), b)?;
            expect_eq(
                "bottleneck (of the cut)",
                r.u64("bottleneck"),
                facts.bottleneck,
            )?;
            expect_eq("components", r.u64("components"), count)?;
        }
        "procmin" => {
            let best = min_processors(g, bound, u64::MAX).ok_or_else(infeasible)?;
            expect_eq("processors (optimum)", r.u64("processors"), best as u64)?;
            expect_eq("processors (of the cut)", r.u64("processors"), count)?;
        }
        "compose" => {
            let b = min_bottleneck(g, bound).ok_or_else(infeasible)?;
            let best = min_processors(g, bound, b).ok_or_else(infeasible)?;
            expect_eq("bottleneck (optimum)", r.u64("bottleneck"), b)?;
            expect_eq(
                "bottleneck (of the cut)",
                r.u64("bottleneck"),
                facts.bottleneck,
            )?;
            expect_eq(
                "processors at the bottleneck",
                r.u64("processors"),
                best as u64,
            )?;
            expect_eq("processors (of the cut)", r.u64("processors"), count)?;
            expect_eq(
                "bandwidth (of the cut)",
                r.u64("bandwidth"),
                facts.bandwidth,
            )?;
        }
        other => return Err(format!("no checker for objective {other:?}")),
    }
    Ok(())
}

fn check_segments(g: &Graph, cut: &[u64], r: &J) -> Result<(), String> {
    let segments = r
        .get("segments")
        .and_then(J::as_array)
        .ok_or("no segments")?;
    let mut sorted = cut.to_vec();
    sorted.sort_unstable();
    let ends = sorted
        .iter()
        .map(|&e| e as usize)
        .chain(std::iter::once(g.n() - 1));
    let mut start = 0;
    let mut count = 0;
    for (seg, end) in segments.iter().zip(ends) {
        let weight: u64 = g.nodes[start..=end].iter().sum();
        if seg.u64("start") != Some(start as u64)
            || seg.u64("end") != Some(end as u64)
            || seg.u64("weight") != Some(weight)
        {
            return Err(format!("segment {count} does not match the cut"));
        }
        start = end + 1;
        count += 1;
    }
    if count != cut.len() + 1 || segments.len() != count {
        return Err("segment count does not match the cut".into());
    }
    Ok(())
}

/// Exhaustive optima over every cut of a small graph.
struct Exhaustive {
    bandwidth: Option<u64>,
    bottleneck: Option<u64>,
    lex_bandwidth: Option<u64>,
    processors: Option<usize>,
    compose_processors: Option<usize>,
}

fn exhaustive(g: &Graph, bound: u64) -> Exhaustive {
    let m = g.edges.len();
    let mut feasible_cuts = Vec::new();
    for mask in 0u32..1 << m {
        let cut: Vec<u64> = (0..m as u64).filter(|&e| mask >> e & 1 == 1).collect();
        if let Ok(facts) = feasible(g, bound, &cut) {
            feasible_cuts.push(facts);
        }
    }
    let bottleneck = feasible_cuts.iter().map(|f| f.bottleneck).min();
    let at_bottleneck = || {
        feasible_cuts
            .iter()
            .filter(move |f| Some(f.bottleneck) == bottleneck)
    };
    Exhaustive {
        bandwidth: feasible_cuts.iter().map(|f| f.bandwidth).min(),
        bottleneck,
        lex_bandwidth: at_bottleneck().map(|f| f.bandwidth).min(),
        processors: feasible_cuts.iter().map(|f| f.components).min(),
        compose_processors: at_bottleneck().map(|f| f.components).min(),
    }
}

/// Compares the checker with exhaustive enumeration on `cases` random
/// chains and trees of at most 12 nodes, with small weight alphabets so
/// that ties and infeasible bounds both occur.
pub fn self_test(cases: u64) -> Result<(), String> {
    for case in 0..cases {
        let mut rng = Rng::stream(0x5E1F, &[case]);
        let n = rng.range(1, 12) as usize;
        let mut g = if case % 2 == 0 {
            gen::chain(&mut rng, n.max(2), 6)
        } else {
            gen::tree(&mut rng, n.max(2))
        };
        for w in g.nodes.iter_mut() {
            *w = rng.range(1, 9);
        }
        if case % 4 == 3 {
            // Tied tree edge weights, which the workloads never send.
            for e in g.edges.iter_mut() {
                e.2 = rng.range(1, 4);
            }
        }
        let total = g.total();
        let bound = rng.range(1, total);
        let want = exhaustive(&g, bound);
        let b = min_bottleneck(&g, bound);
        let got = Exhaustive {
            bandwidth: if g.chain {
                min_bandwidth(&g, bound, u64::MAX)
            } else {
                want.bandwidth
            },
            bottleneck: b,
            lex_bandwidth: match (g.chain, b) {
                (true, Some(b)) => min_bandwidth(&g, bound, b),
                _ => want.lex_bandwidth,
            },
            processors: min_processors(&g, bound, u64::MAX),
            compose_processors: b.and_then(|b| min_processors(&g, bound, b)),
        };
        let pairs = [
            ("bandwidth", want.bandwidth, got.bandwidth),
            ("bottleneck", want.bottleneck, got.bottleneck),
            (
                "lexicographic bandwidth",
                want.lex_bandwidth,
                got.lex_bandwidth,
            ),
            (
                "processors",
                want.processors.map(|p| p as u64),
                got.processors.map(|p| p as u64),
            ),
            (
                "compose processors",
                want.compose_processors.map(|p| p as u64),
                got.compose_processors.map(|p| p as u64),
            ),
        ];
        for (what, want, got) in pairs {
            if want != got {
                return Err(format!(
                    "self-test case {case} ({} n={n} K={bound}): {what} exhaustive {want:?}, checker {got:?}",
                    if g.chain { "chain" } else { "tree" }
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checker_agrees_with_exhaustive_enumeration() {
        self_test(3000).unwrap();
    }

    #[test]
    fn wrong_answers_are_rejected() {
        // Chain 4-4-4-4-4 with edges 9,1,9,1 and K = 8: the optimum cuts
        // edges 1 and 3 (bandwidth 2, three segments).
        let g = Graph {
            nodes: vec![4; 5],
            edges: vec![(0, 1, 9), (1, 2, 1), (2, 3, 9), (3, 4, 1)],
            chain: true,
        };
        let good = r#"{"objective":"nicol","bound":8,"cut":[1,3],"bandwidth":2,"processors":3}"#;
        check_response("nicol", &g, 8, good).unwrap();
        let not_optimal =
            r#"{"objective":"nicol","bound":8,"cut":[0,1,3],"bandwidth":11,"processors":4}"#;
        assert!(check_response("nicol", &g, 8, not_optimal).is_err());
        let overloaded =
            r#"{"objective":"nicol","bound":8,"cut":[3],"bandwidth":2,"processors":3}"#;
        assert!(check_response("nicol", &g, 8, overloaded).is_err());
        let misreported =
            r#"{"objective":"nicol","bound":8,"cut":[1,3],"bandwidth":2,"processors":2}"#;
        assert!(check_response("nicol", &g, 8, misreported).is_err());
    }
}
