//! Figure 10: per-thread workload distribution of Algorithm 2.
//!
//! Runs the s-overlap stage on LiveJournal with 32 workers under the six
//! Algorithm-2 variants (blocked/cyclic × relabel none/asc/desc) and
//! reports the number of hyperedges visited in the innermost loop by each
//! worker — the exact metric of the paper's Figure 10. Expect blocked
//! without relabeling to be badly imbalanced and cyclic (or relabeled)
//! distributions to flatten the histogram.
//!
//! `cargo run -p hyperline-bench --release --bin fig10_workload`
//! Options: `--profile=LiveJournal --s=8 --workers=32 --seed=42 --full`

use hyperline_bench::{arg, flag, print_header};
use hyperline_gen::Profile;
use hyperline_hypergraph::{relabel_edges_by_degree, RelabelOrder};
use hyperline_slinegraph::{algo2_slinegraph, CounterKind, Partition, Strategy};
use hyperline_util::table::{human_count, Table};

fn main() {
    print_header("Figure 10: per-worker innermost-loop visits, Algorithm 2");
    let profile_name: String = arg("profile", "LiveJournal".to_string());
    let profile = Profile::from_name(&profile_name).expect("unknown profile");
    let s: u32 = arg("s", 8);
    let workers: usize = arg("workers", 32);
    let seed: u64 = arg("seed", 42);
    let full = flag("full");

    let h = profile.generate(seed);
    println!(
        "dataset: {} ({} edges), s = {s}, {workers} workers\n",
        profile.name(),
        h.num_edges()
    );

    let variants: [(&str, Partition, RelabelOrder); 6] = [
        ("2BN", Partition::Blocked, RelabelOrder::None),
        ("2CN", Partition::Cyclic, RelabelOrder::None),
        ("2BA", Partition::Blocked, RelabelOrder::Ascending),
        ("2CA", Partition::Cyclic, RelabelOrder::Ascending),
        ("2BD", Partition::Blocked, RelabelOrder::Descending),
        ("2CD", Partition::Cyclic, RelabelOrder::Descending),
    ];

    let mut table = Table::new(["variant", "min", "max", "mean", "max/mean", "CV"]);
    for (label, partition, relabel) in variants {
        let relabeled = relabel_edges_by_degree(&h, relabel);
        let strategy = Strategy::default()
            .with_counter(CounterKind::DynamicMap)
            .with_partition(partition)
            .with_workers(workers);
        let result = algo2_slinegraph(&relabeled.hypergraph, s, &strategy);
        let summary = result.stats.visit_summary();
        table.row([
            label.to_string(),
            human_count(summary.min as u64),
            human_count(summary.max as u64),
            human_count(summary.mean as u64),
            format!("{:.2}", summary.imbalance()),
            format!("{:.3}", summary.cv()),
        ]);
        if full {
            let visits = result.stats.visits_per_worker();
            let rendered: Vec<String> = visits.iter().map(|&v| human_count(v)).collect();
            println!("{label}: [{}]", rendered.join(", "));
        }
    }
    if full {
        println!();
    }
    table.print();
    println!("\n(max/mean = 1.00 is perfect balance; blocked+none should be the most skewed)");
}
