//! Figure 11: the hashmap algorithms vs an SpGEMM-based approach.
//!
//! Sweeps `s` on the email-EuAll and Friendster profiles, timing four
//! constructions: SpGEMM+Filter (full product), SpGEMM+Filter+Upper
//! (upper triangle only), Algorithm 1 (1CA) and Algorithm 2 (2BA).
//! Expect Algorithm 2 fastest at every s, with the gap widening as `s`
//! grows (degree pruning — the SpGEMM cost is s-independent). Also
//! verifies Friendster's 20 planted deep communities: the s = 1024 line
//! graph has exactly 20 connected components (§VI-G).
//!
//! `cargo run -p hyperline-bench --release --bin fig11_spgemm`
//! Options: `--seed=42 --reps=1`

use hyperline_bench::{arg, median_secs, print_header};
use hyperline_gen::Profile;
use hyperline_hypergraph::{relabel_edges_by_degree, Hypergraph, RelabelOrder};
use hyperline_slinegraph::{
    algo1_slinegraph, algo2_slinegraph, spgemm_slinegraph, CounterKind, Partition, SLineGraph,
    Strategy,
};
use hyperline_util::table::Table;

fn sweep(h: &Hypergraph, name: &str, s_values: &[u32], reps: usize) {
    println!(
        "\n--- {name}: {} vertices, {} edges ---",
        h.num_vertices(),
        h.num_edges()
    );
    let asc = relabel_edges_by_degree(h, RelabelOrder::Ascending);
    let paper = Strategy::default().with_counter(CounterKind::DynamicMap);
    let algo1_strategy = paper.with_partition(Partition::Cyclic);
    let algo2_strategy = paper.with_partition(Partition::Blocked);

    let mut table = Table::new([
        "s",
        "SpGEMM+Filter",
        "SpGEMM+F+Upper",
        "1CA",
        "2BA",
        "|E(L_s)|",
    ]);
    for &s in s_values {
        let t_full = median_secs(reps, || {
            std::hint::black_box(spgemm_slinegraph(h, s, false).edges.len());
        });
        let t_upper = median_secs(reps, || {
            std::hint::black_box(spgemm_slinegraph(h, s, true).edges.len());
        });
        let t_algo1 = median_secs(reps, || {
            std::hint::black_box(
                algo1_slinegraph(&asc.hypergraph, s, &algo1_strategy)
                    .edges
                    .len(),
            );
        });
        let t_algo2 = median_secs(reps, || {
            std::hint::black_box(
                algo2_slinegraph(&asc.hypergraph, s, &algo2_strategy)
                    .edges
                    .len(),
            );
        });
        let edges = algo2_slinegraph(&asc.hypergraph, s, &algo2_strategy)
            .edges
            .len();
        table.row([
            s.to_string(),
            format!("{:.1}ms", t_full * 1e3),
            format!("{:.1}ms", t_upper * 1e3),
            format!("{:.1}ms", t_algo1 * 1e3),
            format!("{:.1}ms", t_algo2 * 1e3),
            edges.to_string(),
        ]);
    }
    table.print();
}

fn main() {
    print_header("Figure 11: hashmap algorithms vs SpGEMM+Filter");
    let seed: u64 = arg("seed", 42);
    let reps: usize = arg("reps", 1);

    let email = Profile::EmailEuAll.generate(seed);
    sweep(&email, "email-EuAll", &[2, 4, 8, 16, 32, 64, 128], reps);

    let friendster = Profile::Friendster.generate(seed);
    sweep(
        &friendster,
        "Friendster",
        &[2, 4, 8, 16, 32, 64, 128, 256, 512, 1024],
        reps,
    );

    // §VI-G: the s = 1024 line graph of Friendster reveals the planted
    // deep-core communities.
    let r = algo2_slinegraph(&friendster, 1024, &Strategy::default());
    let slg = SLineGraph::new_squeezed(1024, friendster.num_edges(), r.edges);
    let comps = slg.connected_components();
    println!(
        "\nFriendster at s = 1024: {} edges in L_s, {} connected components (paper: 20)",
        slg.num_edges(),
        comps.len()
    );
}
