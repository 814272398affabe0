//! Figure 7: speedup of the 12 strategy variants relative to 1CN, s = 8.
//!
//! Runs the s-overlap stage (plus relabeling cost, as the paper includes
//! preprocessing in the total) for every Table III variant — Algorithms 1
//! and 2 × blocked/cyclic × relabel none/ascending/descending — on five
//! dataset profiles, and prints each variant's speedup relative to 1CN
//! (Algorithm 1, cyclic, no relabeling).
//!
//! `cargo run -p hyperline-bench --release --bin fig7_speedup`
//! Options: `--s=8 --seed=42 --reps=1 --profiles=Friendster,Web,...`

use hyperline_bench::{arg, median_secs, print_header};
use hyperline_gen::Profile;
use hyperline_slinegraph::{
    run_pipeline, table3_grid, Algorithm, CounterKind, PipelineConfig, Strategy,
};
use hyperline_util::table::Table;

fn main() {
    print_header("Figure 7: speedup relative to 1CN (s-overlap + preprocessing), s = 8");
    let s: u32 = arg("s", 8);
    let seed: u64 = arg("seed", 42);
    let reps: usize = arg("reps", 1);
    let profile_list: String = arg(
        "profiles",
        "Friendster,Web,LiveJournal,Amazon-reviews,Stackoverflow-answers".to_string(),
    );
    let profiles: Vec<Profile> = profile_list
        .split(',')
        .map(|n| Profile::from_name(n.trim()).unwrap_or_else(|| panic!("unknown profile {n}")))
        .collect();

    let grid = table3_grid();
    let header: Vec<String> = std::iter::once("dataset".to_string())
        .chain(grid.iter().map(|(a, st)| st.notation(*a)))
        .collect();
    let mut table = Table::new(header);

    for profile in profiles {
        let h = profile.generate(seed);
        eprintln!("[{}] generated: {} edges", profile.name(), h.num_edges());
        let time_variant = |algorithm: Algorithm, strategy: Strategy| -> f64 {
            median_secs(reps, || {
                let config = PipelineConfig {
                    s,
                    algorithm,
                    strategy,
                    compute_toplexes: false,
                    squeeze: false,
                    run_components: false,
                };
                let run = run_pipeline(&h, &config);
                std::hint::black_box(run.line_graph.num_edges());
            })
        };
        // Baseline: 1CN.
        let baseline = time_variant(
            Algorithm::Algo1,
            Strategy::default()
                .with_counter(CounterKind::DynamicMap)
                .with_partition(hyperline_slinegraph::Partition::Cyclic),
        );
        let mut cells = vec![profile.name().to_string()];
        for (algorithm, strategy) in &grid {
            let t = time_variant(*algorithm, *strategy);
            cells.push(format!("{:.2}", baseline / t));
            eprintln!(
                "  {} {:.3}s (baseline 1CN {:.3}s)",
                strategy.notation(*algorithm),
                t,
                baseline
            );
        }
        table.row(cells);
    }
    println!();
    table.print();
    println!("\n(each cell: speedup of the variant over 1CN on that dataset; > 1 is faster)");
}
