//! The s-line-graph construction algorithms (§III).
//!
//! Three constructions of the edge list of `L_s(H)`:
//!
//! * [`naive_slinegraph`] — all-pairs set intersection (the §I strawman);
//! * [`algo1_slinegraph`] — Algorithm 1 of the paper: wedge-driven
//!   candidate generation plus explicit short-circuited set intersections
//!   with degree pruning and visited-skipping (the HiPC'21 baseline);
//! * [`algo2_slinegraph`] — Algorithm 2, the paper's contribution: wedge-
//!   driven *overlap counting* in per-worker accumulators — **zero** set
//!   intersections.
//!
//! All three return pairs `(i, j)` with `i < j` on the hypergraph's
//! current edge IDs, sorted, plus per-worker work counters.
//!
//! Every variant traverses each wedge `(e_i, v_k, e_j)` once, from the
//! smaller edge ID to the larger (`i < j`) — the upper-triangle
//! optimization the relabel-by-degree orders interact with (§IV).

use crate::counter::{
    CounterKind, DenseArrayCounter, DynamicMapCounter, OverlapCounter, ReusedMapCounter,
};
use crate::partition::execute;
use crate::stats::{AlgoStats, WorkerStats};
use crate::strategy::{Strategy, TriangleSide};
use hyperline_hypergraph::csr::{intersection_at_least, intersection_size};
use hyperline_hypergraph::Hypergraph;
use hyperline_util::parallel::{merge_sorted_runs, par_for_each_mut};
use hyperline_util::telemetry::Span;
use hyperline_util::Timer;

/// The wedge targets `e_j` reachable from source `e_i` through one vertex
/// neighbor list, restricted to the traversed triangle (`j > i` for
/// Upper, `j < i` for Lower). Neighbor lists are sorted, so both are
/// contiguous slices.
#[inline]
fn wedge_targets(nbrs: &[u32], i: u32, side: TriangleSide) -> &[u32] {
    match side {
        TriangleSide::Upper => &nbrs[nbrs.partition_point(|&j| j <= i)..],
        TriangleSide::Lower => &nbrs[..nbrs.partition_point(|&j| j < i)],
    }
}

/// An s-line-graph edge as the counting kernel emits it: the emit policy
/// of [`count_overlaps`]. Each edge type names the counter drain that
/// produces it and how its endpoints are put in `(min, max)` order.
pub(crate) trait Emit: Ord + Clone + Send + Sync {
    /// Drains `counter` for source `i`, appending the edges with overlap
    /// count ≥ `s` to `out` (in the counter's arbitrary order).
    fn drain<C: OverlapCounter>(counter: &mut C, i: u32, s: u32, out: &mut Vec<Self>);

    /// Puts the endpoints in `(min, max)` order (needed when traversing
    /// the lower triangle, where targets satisfy `j < i`).
    fn normalize(&mut self);
}

impl Emit for (u32, u32) {
    #[inline]
    fn drain<C: OverlapCounter>(counter: &mut C, i: u32, s: u32, out: &mut Vec<Self>) {
        counter.drain(i, s, out);
    }

    #[inline]
    fn normalize(&mut self) {
        if self.0 > self.1 {
            *self = (self.1, self.0);
        }
    }
}

impl Emit for (u32, u32, u32) {
    #[inline]
    fn drain<C: OverlapCounter>(counter: &mut C, i: u32, s: u32, out: &mut Vec<Self>) {
        counter.drain_weighted(i, s, out);
    }

    #[inline]
    fn normalize(&mut self) {
        if self.0 > self.1 {
            *self = (self.1, self.0, self.2);
        }
    }
}

/// Result of an s-overlap computation.
#[derive(Debug, Clone)]
pub struct OverlapResult {
    /// s-line-graph edges `(i, j)`, `i < j`, sorted ascending.
    pub edges: Vec<(u32, u32)>,
    /// Per-worker work counters.
    pub stats: AlgoStats,
}

/// Merges per-worker emissions into the final sorted edge list.
///
/// Under the static partitions and dynamic chunk claiming alike, sources
/// ascend within each worker, so each worker's output is a near-sorted
/// run that sorts cheaply — in parallel across runs — and a parallel
/// k-way merge replaces a single-core `sort_unstable` over the
/// concatenation. The result is the sorted multiset of all emissions, so
/// it is byte-identical for every worker count and partition.
fn merge_worker_outputs<T: Ord + Clone + Send + Sync>(
    locals: Vec<(Vec<T>, WorkerStats)>,
) -> (Vec<T>, AlgoStats) {
    let _span = Span::enter("merge");
    let timer = Timer::start();
    let mut runs = Vec::with_capacity(locals.len());
    let mut per_worker = Vec::with_capacity(locals.len());
    for (local_edges, mut stats) in locals {
        stats.edges_emitted = local_edges.len() as u64;
        runs.push(local_edges);
        per_worker.push(stats);
    }
    par_for_each_mut(&mut runs, |r| r.sort_unstable());
    let edges = merge_sorted_runs(runs);
    (
        edges,
        AlgoStats::new(per_worker).with_merge_seconds(timer.seconds()),
    )
}

/// Naive all-pairs construction: intersect every pair of hyperedge vertex
/// lists. O(m²) pairs — only sensible for small inputs and as a test
/// oracle. Parallelized over source edges with the strategy's partition.
pub fn naive_slinegraph(h: &Hypergraph, s: u32, strategy: &Strategy) -> OverlapResult {
    assert!(s >= 1, "s must be at least 1");
    let m = h.num_edges();
    let counting = Span::enter("counting");
    let locals = execute(
        m,
        strategy.workers(),
        strategy.partition,
        |_| (Vec::new(), WorkerStats::default()),
        |i, (out, stats): &mut (Vec<(u32, u32)>, WorkerStats)| {
            if strategy.degree_pruning && (h.edge_size(i) as u32) < s {
                return;
            }
            stats.edges_processed += 1;
            let mine = h.edge_vertices(i);
            for j in (i + 1)..m as u32 {
                stats.set_intersections += 1;
                if intersection_size(mine, h.edge_vertices(j)) as u32 >= s {
                    out.push((i, j));
                }
            }
        },
    );
    drop(counting);
    let (edges, stats) = merge_worker_outputs(locals);
    OverlapResult { edges, stats }
}

/// Algorithm 1 (the HiPC'21 set-intersection algorithm): for each wedge
/// `(e_i, v_k, e_j)` with `i < j`, run one short-circuited sorted-set
/// intersection per *distinct* candidate `e_j` (a per-worker stamp array
/// skips already-visited candidates), applying degree-based pruning.
pub fn algo1_slinegraph(h: &Hypergraph, s: u32, strategy: &Strategy) -> OverlapResult {
    assert!(s >= 1, "s must be at least 1");
    let m = h.num_edges();
    struct Local {
        out: Vec<(u32, u32)>,
        stats: WorkerStats,
        /// stamp[j] == i means candidate j was already intersected for
        /// source i ("skipping already visited hyperedges").
        stamp: Vec<u32>,
    }
    let counting = Span::enter("counting");
    let locals = execute(
        m,
        strategy.workers(),
        strategy.partition,
        |_| Local {
            out: Vec::new(),
            stats: WorkerStats::default(),
            stamp: vec![u32::MAX; m],
        },
        |i, local: &mut Local| {
            let size_i = h.edge_size(i) as u32;
            if strategy.degree_pruning && size_i < s {
                return;
            }
            local.stats.edges_processed += 1;
            let mine = h.edge_vertices(i);
            let heuristics = strategy.algo1_heuristics;
            let before = local.out.len();
            for &v in mine {
                for &j in wedge_targets(h.vertex_edges(v), i, strategy.triangle) {
                    local.stats.wedge_visits += 1;
                    if heuristics.skip_visited {
                        if local.stamp[j as usize] == i {
                            continue;
                        }
                        local.stamp[j as usize] = i;
                    }
                    // Degree-based pruning on the candidate side.
                    if strategy.degree_pruning && (h.edge_size(j) as u32) < s {
                        continue;
                    }
                    local.stats.set_intersections += 1;
                    let hit = if heuristics.short_circuit {
                        intersection_at_least(mine, h.edge_vertices(j), s as usize)
                    } else {
                        intersection_size(mine, h.edge_vertices(j)) as u32 >= s
                    };
                    if hit {
                        local.out.push((i, j));
                    }
                }
            }
            if !heuristics.skip_visited {
                // Without visited-skipping the same pair is re-found once
                // per shared vertex; deduplicate this source's emissions.
                local.out[before..].sort_unstable();
                let mut write = before;
                for k in before..local.out.len() {
                    if write == before || local.out[write - 1] != local.out[k] {
                        local.out[write] = local.out[k];
                        write += 1;
                    }
                }
                local.out.truncate(write);
            }
            local.out[before..].iter_mut().for_each(Emit::normalize);
            // Presort this source's emissions (small groups): sources
            // ascend within every partition, so under the upper triangle
            // each worker's whole run comes out sorted and the final
            // merge degrades to a cheap verification instead of a full
            // sort of the concatenation.
            local.out[before..].sort_unstable();
        },
    );
    drop(counting);
    let (edges, stats) =
        merge_worker_outputs(locals.into_iter().map(|l| (l.out, l.stats)).collect());
    OverlapResult { edges, stats }
}

/// The one wedge-counting kernel behind Algorithms 2 and 3: for every
/// source edge `e_i` (skipping edges with fewer than `min_size` vertices
/// under degree pruning), bump a per-worker overlap counter for each
/// wedge endpoint on the strategy's triangle, then drain the pairs whose
/// count reached `s` as `T` edges, normalized and presorted per source.
/// Returns the sorted merge of every worker's emissions.
///
/// Matches on the counter kind once; the loop itself is monomorphized
/// over the concrete counter, so `bump` is never dispatched at runtime.
pub(crate) fn count_overlaps<T: Emit>(
    h: &Hypergraph,
    s: u32,
    min_size: u32,
    strategy: &Strategy,
) -> (Vec<T>, AlgoStats) {
    let m = h.num_edges();
    match strategy.counter {
        CounterKind::DynamicMap => count_with(h, s, min_size, strategy, DynamicMapCounter::new),
        CounterKind::ReusedMap => count_with(h, s, min_size, strategy, ReusedMapCounter::new),
        CounterKind::DenseArray => {
            count_with(h, s, min_size, strategy, || DenseArrayCounter::new(m))
        }
    }
}

fn count_with<T: Emit, C: OverlapCounter + Send>(
    h: &Hypergraph,
    s: u32,
    min_size: u32,
    strategy: &Strategy,
    new_counter: impl Fn() -> C + Sync,
) -> (Vec<T>, AlgoStats) {
    let counting = Span::enter("counting");
    let locals = execute(
        h.num_edges(),
        strategy.workers(),
        strategy.partition,
        |_| (Vec::new(), WorkerStats::default(), new_counter()),
        |i, (out, stats, counter): &mut (Vec<T>, WorkerStats, C)| {
            if strategy.degree_pruning && (h.edge_size(i) as u32) < min_size {
                return;
            }
            stats.edges_processed += 1;
            for &v in h.edge_vertices(i) {
                let targets = wedge_targets(h.vertex_edges(v), i, strategy.triangle);
                stats.wedge_visits += targets.len() as u64;
                for &j in targets {
                    counter.bump(j);
                }
            }
            let before = out.len();
            T::drain(counter, i, s, out);
            let group = &mut out[before..];
            group.iter_mut().for_each(T::normalize);
            // Presort per source (see algo1): counter drain order is
            // arbitrary, but sorted small groups make each worker's run
            // globally sorted under the upper triangle, collapsing the
            // merge tail. O(Σ k·log k) here beats O(E·log E) there —
            // and runs inside the parallel counting stage.
            group.sort_unstable();
        },
    );
    drop(counting);
    merge_worker_outputs(
        locals
            .into_iter()
            .map(|(out, stats, _)| (out, stats))
            .collect(),
    )
}

/// Algorithm 2 (the paper's contribution): per source edge, bump a
/// per-worker overlap counter for every wedge endpoint `j > i`, then emit
/// pairs whose running count reached `s`. No set intersections at all.
pub fn algo2_slinegraph(h: &Hypergraph, s: u32, strategy: &Strategy) -> OverlapResult {
    assert!(s >= 1, "s must be at least 1");
    let (edges, stats) = count_overlaps(h, s, s, strategy);
    OverlapResult { edges, stats }
}

/// Weighted variant of Algorithm 2: emits `(i, j, inc(e_i, e_j))`, the
/// overlap size as the s-line-graph edge weight (the "strength of
/// connection" drawn as line width in the paper's Figure 2). Triples
/// come back sorted ascending with `i < j`, whichever triangle is
/// traversed.
pub fn algo2_slinegraph_weighted(
    h: &Hypergraph,
    s: u32,
    strategy: &Strategy,
) -> (Vec<(u32, u32, u32)>, AlgoStats) {
    assert!(s >= 1, "s must be at least 1");
    count_overlaps(h, s, s, strategy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::CounterKind;
    use crate::partition::Partition;
    use rand::prelude::*;

    fn paper_h() -> Hypergraph {
        Hypergraph::paper_example()
    }

    /// Expected s-line graphs of the paper's Figure 2.
    fn paper_expected(s: u32) -> Vec<(u32, u32)> {
        match s {
            1 => vec![(0, 1), (0, 2), (1, 2), (2, 3)],
            2 => vec![(0, 1), (0, 2), (1, 2)],
            3 => vec![(0, 2), (1, 2)],
            4 => vec![],
            _ => unreachable!(),
        }
    }

    #[test]
    fn paper_figure2_all_algorithms() {
        let h = paper_h();
        let st = Strategy::default();
        for s in 1..=4u32 {
            let expect = paper_expected(s);
            assert_eq!(naive_slinegraph(&h, s, &st).edges, expect, "naive s={s}");
            assert_eq!(algo1_slinegraph(&h, s, &st).edges, expect, "algo1 s={s}");
            assert_eq!(algo2_slinegraph(&h, s, &st).edges, expect, "algo2 s={s}");
        }
    }

    #[test]
    fn algo2_performs_zero_set_intersections() {
        let h = paper_h();
        let r = algo2_slinegraph(&h, 2, &Strategy::default());
        assert_eq!(r.stats.total().set_intersections, 0);
        let r1 = algo1_slinegraph(&h, 2, &Strategy::default());
        assert!(r1.stats.total().set_intersections > 0);
    }

    #[test]
    fn weighted_emits_overlap_counts() {
        let h = paper_h();
        let (edges, _) = algo2_slinegraph_weighted(&h, 1, &Strategy::default());
        // inc values from the example: (0,1)=2, (0,2)=3, (1,2)=3, (2,3)=1
        assert_eq!(edges, vec![(0, 1, 2), (0, 2, 3), (1, 2, 3), (2, 3, 1)]);
    }

    fn random_hypergraph(rng: &mut StdRng) -> Hypergraph {
        let n = rng.gen_range(1..40usize);
        let m = rng.gen_range(1..60usize);
        let lists: Vec<Vec<u32>> = (0..m)
            .map(|_| {
                let k = rng.gen_range(0..=n.min(12));
                let mut v: Vec<u32> = (0..k).map(|_| rng.gen_range(0..n as u32)).collect();
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect();
        Hypergraph::from_edge_lists(&lists, n)
    }

    #[test]
    fn algorithms_agree_on_random_inputs() {
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..30 {
            let h = random_hypergraph(&mut rng);
            let s = rng.gen_range(1..6u32);
            let st = Strategy::default();
            let expect = naive_slinegraph(&h, s, &st).edges;
            assert_eq!(algo1_slinegraph(&h, s, &st).edges, expect, "algo1 s={s}");
            assert_eq!(algo2_slinegraph(&h, s, &st).edges, expect, "algo2 s={s}");
        }
    }

    /// Every entry point of the shared counting kernel, under every
    /// counter kind, partition and worker count, against the naive
    /// oracle: byte-identical output and identical total wedge visits.
    #[test]
    fn partitions_and_counters_agree() {
        use crate::ensemble::ensemble_slinegraphs;
        use crate::sclique::sclique_graph;
        let mut rng = StdRng::seed_from_u64(78);
        for _ in 0..4 {
            let h = random_hypergraph(&mut rng);
            let dual = h.dual();
            let oracle = Strategy::default();
            let naive = |h: &Hypergraph, s: u32| naive_slinegraph(h, s, &oracle).edges;
            let expect_pairs = naive(&h, 2);
            let expect_weighted: Vec<(u32, u32, u32)> = naive(&h, 1)
                .into_iter()
                .map(|(i, j)| {
                    let w = intersection_size(h.edge_vertices(i), h.edge_vertices(j)) as u32;
                    (i, j, w)
                })
                .collect();
            let expect_multi: Vec<(u32, Vec<(u32, u32)>)> =
                [3u32, 1, 2].iter().map(|&s| (s, naive(&h, s))).collect();
            let expect_sclique = naive(&dual, 2);
            // Total wedge visits of (algo2, weighted, multi-s, single-s,
            // sclique) under the first configuration.
            let mut visits: Option<[u64; 5]> = None;
            for partition in [
                Partition::Blocked,
                Partition::Cyclic,
                Partition::Dynamic { chunk: 4 },
            ] {
                for counter in CounterKind::ALL {
                    for workers in [1usize, 2, 7] {
                        let st = Strategy::default()
                            .with_partition(partition)
                            .with_counter(counter)
                            .with_workers(workers);
                        let label = format!("{partition:?} {counter:?} w={workers}");
                        let pairs = algo2_slinegraph(&h, 2, &st);
                        assert_eq!(pairs.edges, expect_pairs, "algo2 {label}");
                        let (weighted, weighted_stats) = algo2_slinegraph_weighted(&h, 1, &st);
                        assert_eq!(weighted, expect_weighted, "weighted {label}");
                        let multi = ensemble_slinegraphs(&h, &[3, 1, 2], &st);
                        assert_eq!(multi.per_s, expect_multi, "ensemble {label}");
                        let single = ensemble_slinegraphs(&h, &[2], &st);
                        assert_eq!(single.per_s, vec![(2, expect_pairs.clone())], "{label}");
                        let sclique = sclique_graph(&h, 2, &st);
                        assert_eq!(sclique.edges, expect_sclique, "sclique {label}");
                        let got = [
                            pairs.stats.total().wedge_visits,
                            weighted_stats.total().wedge_visits,
                            multi.stats.total().wedge_visits,
                            single.stats.total().wedge_visits,
                            sclique.stats.total().wedge_visits,
                        ];
                        assert_eq!(*visits.get_or_insert(got), got, "wedge visits {label}");
                    }
                }
            }
        }
    }

    #[test]
    fn pruning_does_not_change_results() {
        let mut rng = StdRng::seed_from_u64(79);
        for _ in 0..10 {
            let h = random_hypergraph(&mut rng);
            let s = rng.gen_range(2..5u32);
            let pruned = Strategy::default();
            let unpruned = Strategy::default().with_pruning(false);
            assert_eq!(
                algo2_slinegraph(&h, s, &pruned).edges,
                algo2_slinegraph(&h, s, &unpruned).edges
            );
            assert_eq!(
                algo1_slinegraph(&h, s, &pruned).edges,
                algo1_slinegraph(&h, s, &unpruned).edges
            );
        }
    }

    #[test]
    fn pruning_reduces_work() {
        // One big edge, many small ones: at s=3 the small edges are pruned.
        let mut lists = vec![vec![0u32, 1, 2, 3, 4]];
        for i in 0..20u32 {
            lists.push(vec![i % 5, (i + 1) % 5]);
        }
        let h = Hypergraph::from_edge_lists(&lists, 5);
        let with = algo2_slinegraph(&h, 3, &Strategy::default());
        let without = algo2_slinegraph(&h, 3, &Strategy::default().with_pruning(false));
        assert_eq!(with.edges, without.edges);
        assert!(
            with.stats.total().edges_processed < without.stats.total().edges_processed,
            "pruning should skip small edges"
        );
    }

    #[test]
    fn edges_are_upper_triangular_and_sorted() {
        let mut rng = StdRng::seed_from_u64(80);
        let h = random_hypergraph(&mut rng);
        let r = algo2_slinegraph(&h, 1, &Strategy::default());
        for w in r.edges.windows(2) {
            assert!(w[0] < w[1], "sorted");
        }
        for &(i, j) in &r.edges {
            assert!(i < j, "upper triangular");
        }
    }

    #[test]
    fn lower_triangle_matches_upper() {
        use crate::strategy::TriangleSide;
        let mut rng = StdRng::seed_from_u64(90);
        for _ in 0..15 {
            let h = random_hypergraph(&mut rng);
            let s = rng.gen_range(1..5u32);
            let upper = Strategy::default();
            let lower = Strategy::default().with_triangle(TriangleSide::Lower);
            let expect = algo2_slinegraph(&h, s, &upper).edges;
            assert_eq!(algo2_slinegraph(&h, s, &lower).edges, expect, "algo2 s={s}");
            assert_eq!(algo1_slinegraph(&h, s, &lower).edges, expect, "algo1 s={s}");
        }
    }

    #[test]
    fn lower_triangle_weighted_matches() {
        use crate::strategy::TriangleSide;
        let mut rng = StdRng::seed_from_u64(92);
        let inputs = [
            paper_h(),
            random_hypergraph(&mut rng),
            random_hypergraph(&mut rng),
        ];
        for h in &inputs {
            let expect = algo2_slinegraph_weighted(h, 1, &Strategy::default()).0;
            for side in [TriangleSide::Upper, TriangleSide::Lower] {
                for counter in CounterKind::ALL {
                    let st = Strategy::default()
                        .with_triangle(side)
                        .with_counter(counter);
                    let got = algo2_slinegraph_weighted(h, 1, &st).0;
                    // Callers (the server's artifact build) rely on
                    // `(min, max, w)` triples in ascending order.
                    assert!(got.windows(2).all(|w| w[0] < w[1]), "{side:?} {counter:?}");
                    assert!(got.iter().all(|&(i, j, _)| i < j), "{side:?} {counter:?}");
                    assert_eq!(got, expect, "{side:?} {counter:?}");
                }
            }
        }
    }

    #[test]
    fn algo1_heuristics_off_still_exact() {
        use crate::strategy::Algo1Heuristics;
        let mut rng = StdRng::seed_from_u64(91);
        for _ in 0..10 {
            let h = random_hypergraph(&mut rng);
            let s = rng.gen_range(1..5u32);
            let expect = algo1_slinegraph(&h, s, &Strategy::default()).edges;
            for skip_visited in [false, true] {
                for short_circuit in [false, true] {
                    let st = Strategy::default().with_algo1_heuristics(Algo1Heuristics {
                        skip_visited,
                        short_circuit,
                    });
                    assert_eq!(
                        algo1_slinegraph(&h, s, &st).edges,
                        expect,
                        "skip={skip_visited} sc={short_circuit} s={s}"
                    );
                }
            }
        }
    }

    #[test]
    fn skip_visited_reduces_intersections() {
        use crate::strategy::Algo1Heuristics;
        let h = paper_h();
        let on = algo1_slinegraph(&h, 2, &Strategy::default());
        let off = algo1_slinegraph(
            &h,
            2,
            &Strategy::default().with_algo1_heuristics(Algo1Heuristics {
                skip_visited: false,
                short_circuit: true,
            }),
        );
        assert_eq!(on.edges, off.edges);
        assert!(
            on.stats.total().set_intersections < off.stats.total().set_intersections,
            "visited-skipping must save intersections"
        );
    }

    #[test]
    fn s_zero_rejected() {
        let h = paper_h();
        let result = std::panic::catch_unwind(|| algo2_slinegraph(&h, 0, &Strategy::default()));
        assert!(result.is_err());
    }

    #[test]
    fn empty_hypergraph() {
        let h = Hypergraph::from_edge_lists(&[], 0);
        let r = algo2_slinegraph(&h, 1, &Strategy::default());
        assert!(r.edges.is_empty());
    }

    #[test]
    fn duplicate_edges_fully_overlap() {
        let h = Hypergraph::from_edge_lists(&[vec![0, 1, 2], vec![0, 1, 2]], 3);
        let r = algo2_slinegraph(&h, 3, &Strategy::default());
        assert_eq!(r.edges, vec![(0, 1)]);
    }

    #[test]
    fn emitted_counts_match_output() {
        let mut rng = StdRng::seed_from_u64(81);
        let h = random_hypergraph(&mut rng);
        let r = algo2_slinegraph(&h, 1, &Strategy::default());
        assert_eq!(r.stats.total().edges_emitted as usize, r.edges.len());
    }
}
