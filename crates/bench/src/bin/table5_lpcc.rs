//! Table V: end-to-end LPCC on s = 1 vs s = 8 line graphs.
//!
//! Runs the full framework (Algorithm 2, cyclic + relabel-ascending, the
//! paper's 2CA) followed by Label-Propagation Connected Components on the
//! four large profiles, at s = 1 (the full line graph — the expansion the
//! paper's point is about) and s = 8. The s = 1 runs materialize orders
//! of magnitude more edges; on the paper's 128 GB machine two of them ran
//! out of memory. A `--budget-edges` guard reproduces that OOM behaviour
//! on this machine instead of thrashing.
//!
//! `cargo run -p hyperline-bench --release --bin table5_lpcc`
//! Options: `--seed=42 --budget-edges=120000000`

use hyperline_bench::{arg, print_header};
use hyperline_gen::Profile;
use hyperline_graph::cc;
use hyperline_hypergraph::RelabelOrder;
use hyperline_slinegraph::{
    algo2_slinegraph, ensemble_slinegraphs, CounterKind, Partition, SLineGraph, Strategy,
};
use hyperline_util::table::{group_thousands, Table};
use hyperline_util::Timer;

fn main() {
    print_header("Table V: end-to-end LPCC, s = 1 (line graph) vs s = 8");
    let seed: u64 = arg("seed", 42);
    // Edge budget standing in for the paper's 128 GB memory ceiling.
    let budget_edges: usize = arg("budget-edges", 120_000_000);

    let profiles = [
        Profile::Friendster,
        Profile::LiveJournal,
        Profile::ComOrkut,
        Profile::Web,
    ];
    let strategy = Strategy::default()
        .with_counter(CounterKind::DynamicMap)
        .with_partition(Partition::Cyclic)
        .with_relabel(RelabelOrder::Ascending);

    let mut table = Table::new(["hypergraph", "s=1", "s=8", "|E| s=1", "|E| s=8"]);
    for profile in profiles {
        let h = profile.generate(seed);
        // Estimate the s = 1 edge count cheaply from wedge counts before
        // materializing (Σ_v d(v)² bounds the pair count).
        let wedge_bound: u64 = (0..h.num_vertices() as u32)
            .map(|v| {
                let d = h.vertex_degree(v) as u64;
                d * (d - 1) / 2
            })
            .sum();
        let mut cells = vec![profile.name().to_string()];
        let mut edge_cells = Vec::new();
        for s in [1u32, 8] {
            if s == 1 && wedge_bound as usize > budget_edges {
                cells.push("OOM".to_string());
                edge_cells.push(format!("> {}", group_thousands(budget_edges as u64)));
                continue;
            }
            let t = Timer::start();
            // End-to-end: relabel + overlap + squeeze + LPCC, as in the
            // paper ("the reported time includes end-to-end execution").
            let relabeled = hyperline_hypergraph::relabel_edges_by_degree(&h, strategy.relabel);
            let r = algo2_slinegraph(&relabeled.hypergraph, s, &strategy);
            let mut edges = r.edges;
            relabeled.restore_edge_ids(&mut edges);
            for pair in edges.iter_mut() {
                if pair.0 > pair.1 {
                    *pair = (pair.1, pair.0);
                }
            }
            let num_edges = edges.len();
            let slg = SLineGraph::new_squeezed(s, h.num_edges(), edges);
            let labels = cc::components_label_prop(slg.graph());
            std::hint::black_box(cc::component_count(&labels));
            cells.push(format!("{:.2}s", t.seconds()));
            edge_cells.push(group_thousands(num_edges as u64));
        }
        cells.extend(edge_cells);
        table.row(cells);
        // Keep the ensemble path exercised for regression coverage on the
        // small end (not timed).
        if profile == Profile::Friendster {
            let ens = ensemble_slinegraphs(&h, &[8], &strategy);
            assert_eq!(ens.per_s[0].1.len(), {
                let r = algo2_slinegraph(&h, 8, &strategy);
                r.edges.len()
            });
        }
    }
    table.print();
    println!("\n(paper: s=1 OOMs on com-Orkut and Web at 128 GB; s=8 runs everywhere and faster)");
}
