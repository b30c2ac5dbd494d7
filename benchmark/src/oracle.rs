//! Independent reference implementations. Nothing here imports the
//! program under test (`mapred`, `store`, `core`, `algos`): plain
//! sequential loops over `Vec`/`BTreeMap`, so agreement with the engines
//! is evidence of correctness rather than of consistency.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// Dense vertex numbering: record keys in ascending order.
fn vertex_index<E>(graph: &[(u64, E)]) -> BTreeMap<u64, usize> {
    let keys: std::collections::BTreeSet<u64> = graph.iter().map(|(v, _)| *v).collect();
    keys.into_iter().enumerate().map(|(i, v)| (v, i)).collect()
}

/// PageRank by power iteration from rank 1.0:
/// `r_j = (1 - d) + d * sum_{i -> j} r_i / outdeg(i)`, until no rank moves
/// by `epsilon` or more. Every key of `graph` is a vertex; an edge to a key
/// that has no record still counts in its source's out-degree but feeds
/// nobody. Returns `(vertex, rank)` by vertex.
pub fn pagerank(graph: &[(u64, Vec<u64>)], damping: f64, epsilon: f64) -> Vec<(u64, f64)> {
    let index = vertex_index(graph);
    let edges: Vec<(usize, usize, Vec<usize>)> = graph
        .iter()
        .map(|(v, outs)| {
            let targets = outs.iter().filter_map(|o| index.get(o).copied()).collect();
            (index[v], outs.len(), targets)
        })
        .collect();
    let mut rank = vec![1.0f64; index.len()];
    for _ in 0..10_000 {
        let mut next = vec![0.0f64; rank.len()];
        for (v, outdeg, targets) in &edges {
            if *outdeg == 0 {
                continue;
            }
            let share = rank[*v] / *outdeg as f64;
            for t in targets {
                next[*t] += share;
            }
        }
        let mut moved = 0.0f64;
        for (acc, prev) in next.iter_mut().zip(&rank) {
            *acc = (1.0 - damping) + damping * *acc;
            moved = moved.max((*acc - prev).abs());
        }
        rank = next;
        if moved < epsilon {
            break;
        }
    }
    index.into_iter().map(|(v, i)| (v, rank[i])).collect()
}

/// Dijkstra from `source`; unreachable vertices are `INFINITY`. Path
/// lengths accumulate left to right from the source exactly as the
/// engines' `dist + weight` relaxation does, so with positive weights the
/// result is bit-equal to a converged min-plus iteration.
pub fn dijkstra(graph: &[(u64, Vec<(u64, f64)>)], source: u64) -> Vec<(u64, f64)> {
    let index = vertex_index(graph);
    let mut adj: Vec<Vec<(usize, f64)>> = vec![Vec::new(); index.len()];
    for (v, outs) in graph {
        adj[index[v]] = outs
            .iter()
            .filter_map(|(o, w)| index.get(o).map(|i| (*i, *w)))
            .collect();
    }
    let mut dist = vec![f64::INFINITY; index.len()];
    if let Some(&s) = index.get(&source) {
        dist[s] = 0.0;
        // Non-negative finite floats order like their bit patterns.
        let mut heap = BinaryHeap::new();
        heap.push(Reverse((0.0f64.to_bits(), s)));
        while let Some(Reverse((bits, u))) = heap.pop() {
            let d = f64::from_bits(bits);
            if d > dist[u] {
                continue;
            }
            for (v, w) in &adj[u] {
                let cand = d + w;
                if cand < dist[*v] {
                    dist[*v] = cand;
                    heap.push(Reverse((cand.to_bits(), *v)));
                }
            }
        }
    }
    index.into_iter().map(|(v, i)| (v, dist[i])).collect()
}

fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Lloyd's algorithm from `centroids`: assign every point to its nearest
/// centroid (first wins ties), move each centroid to the mean of its
/// points (an empty cluster stays put), stop after the pass in which no
/// centroid moved `epsilon` or more, or after `max_iterations` passes.
pub fn lloyd(
    points: &[(u64, Vec<f64>)],
    mut centroids: Vec<(u32, Vec<f64>)>,
    max_iterations: u64,
    epsilon: f64,
) -> Vec<(u32, Vec<f64>)> {
    let dims = centroids.first().map_or(0, |c| c.1.len());
    for _ in 0..max_iterations {
        let mut sums = vec![vec![0.0f64; dims]; centroids.len()];
        let mut counts = vec![0u64; centroids.len()];
        for (_, p) in points {
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for (i, (_, c)) in centroids.iter().enumerate() {
                let d = dist2(c, p);
                if d < best_d {
                    best = i;
                    best_d = d;
                }
            }
            counts[best] += 1;
            for (acc, x) in sums[best].iter_mut().zip(p) {
                *acc += x;
            }
        }
        let mut moved = 0.0f64;
        for (i, (_, c)) in centroids.iter_mut().enumerate() {
            if counts[i] == 0 {
                continue;
            }
            let next: Vec<f64> = sums[i].iter().map(|s| s / counts[i] as f64).collect();
            moved = moved.max(dist2(&next, c).sqrt());
            *c = next;
        }
        if moved < epsilon {
            break;
        }
    }
    centroids
}

/// Worst relative error of `got` against `want`, keys compared pairwise,
/// and the key it occurs at. `Err` when the key sets differ.
pub fn max_rel_err(want: &[(u64, f64)], got: &[(u64, f64)]) -> Result<(f64, u64), String> {
    if want.len() != got.len() {
        return Err(format!("{} keys expected, {} found", want.len(), got.len()));
    }
    let mut worst = (0.0f64, 0u64);
    for ((kw, vw), (kg, vg)) in want.iter().zip(got) {
        if kw != kg {
            return Err(format!("key {kw} expected, {kg} found"));
        }
        let err = if vw == vg {
            0.0
        } else {
            (vg - vw).abs() / vw.abs().max(f64::MIN_POSITIVE)
        };
        if err > worst.0 {
            worst = (err, *kw);
        }
    }
    Ok(worst)
}

/// Number of keys whose values are not bit-identical (infinities equal).
pub fn bit_mismatches(want: &[(u64, f64)], got: &[(u64, f64)]) -> Result<u64, String> {
    if want.len() != got.len() {
        return Err(format!("{} keys expected, {} found", want.len(), got.len()));
    }
    let mut bad = 0;
    for ((kw, vw), (kg, vg)) in want.iter().zip(got) {
        if kw != kg {
            return Err(format!("key {kw} expected, {kg} found"));
        }
        bad += u64::from(vw.to_bits() != vg.to_bits());
    }
    Ok(bad)
}

/// Largest L2 distance between matching centroids.
pub fn max_centroid_dist(want: &[(u32, Vec<f64>)], got: &[(u32, Vec<f64>)]) -> Result<f64, String> {
    if want.len() != got.len() {
        return Err(format!(
            "{} centroids expected, {} found",
            want.len(),
            got.len()
        ));
    }
    let mut worst = 0.0f64;
    for ((iw, cw), (ig, cg)) in want.iter().zip(got) {
        if iw != ig || cw.len() != cg.len() {
            return Err(format!("centroid {iw} expected, {ig} found"));
        }
        worst = worst.max(dist2(cw, cg).sqrt());
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 -> {1, 2}, 1 -> {2}, 2 -> {0}, 3 -> {2}; d = 0.85. By hand:
    /// r3 = 0.15 (no in-edges); r0 = 0.15 + 0.85 r2; r1 = 0.15 + 0.425 r0;
    /// r2 = 0.15 + 0.85 (r0/2 + r1 + r3).
    #[test]
    fn pagerank_on_a_four_node_graph_solves_the_linear_system() {
        let g = vec![(0, vec![1, 2]), (1, vec![2]), (2, vec![0]), (3, vec![2])];
        let r = pagerank(&g, 0.85, 1e-13);
        let (r0, r1, r2, r3) = (r[0].1, r[1].1, r[2].1, r[3].1);
        assert!((r3 - 0.15).abs() < 1e-12);
        assert!((r0 - (0.15 + 0.85 * r2)).abs() < 1e-10);
        assert!((r1 - (0.15 + 0.425 * r0)).abs() < 1e-10);
        assert!((r2 - (0.15 + 0.85 * (r0 / 2.0 + r1 + r3))).abs() < 1e-10);
        // Closed form of the system above.
        let r2_exact = (0.15 + 0.85 * (0.075 + 0.15 + 0.425 * 0.15 + 0.15))
            / (1.0 - 0.85 * (0.425 + 0.425 * 0.85));
        assert!((r2 - r2_exact).abs() < 1e-10, "{r2} vs {r2_exact}");
    }

    #[test]
    fn dijkstra_on_a_four_node_graph() {
        // 0 -1.0-> 1 -1.0-> 2, 0 -2.5-> 2, 3 unreachable.
        let g = vec![
            (0, vec![(1, 1.0), (2, 2.5)]),
            (1, vec![(2, 1.0)]),
            (2, vec![]),
            (3, vec![(0, 1.0)]),
        ];
        let d = dijkstra(&g, 0);
        assert_eq!(d, vec![(0, 0.0), (1, 1.0), (2, 2.0), (3, f64::INFINITY)]);
        assert_eq!(bit_mismatches(&d, &d), Ok(0));
    }

    #[test]
    fn lloyd_separates_two_obvious_clusters() {
        let pts: Vec<(u64, Vec<f64>)> = vec![
            (0, vec![0.0, 0.0]),
            (1, vec![0.0, 2.0]),
            (2, vec![10.0, 0.0]),
            (3, vec![10.0, 2.0]),
        ];
        let init = vec![(0u32, vec![1.0, 1.0]), (1u32, vec![8.0, 1.0])];
        let c = lloyd(&pts, init, 50, 1e-12);
        assert_eq!(c, vec![(0, vec![0.0, 1.0]), (1, vec![10.0, 1.0])]);
        assert_eq!(max_centroid_dist(&c, &c), Ok(0.0));
    }

    #[test]
    fn comparisons_reject_key_mismatches() {
        assert!(max_rel_err(&[(1, 1.0)], &[(2, 1.0)]).is_err());
        assert!(bit_mismatches(&[(1, 1.0)], &[]).is_err());
        let (err, key) = max_rel_err(&[(1, 2.0), (5, 1.0)], &[(1, 2.1), (5, 1.0)]).unwrap();
        assert!(err > 0.049 && err < 0.051 && key == 1);
    }
}
