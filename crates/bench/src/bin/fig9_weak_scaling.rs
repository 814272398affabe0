//! Figure 9: weak scaling of Algorithm 2 on activeDNS.
//!
//! Doubles the dataset size (DNS chunks 4 → 128) together with the worker
//! count (1 → 32), for s ∈ {2, 4, 8}, using blocked distribution — the
//! paper's weak-scaling setup. Flat lines mean perfect weak scaling;
//! larger s runs faster (degree pruning drops more work).
//!
//! `cargo run -p hyperline-bench --release --bin fig9_weak_scaling`
//! Options: `--seed=42 --base-chunks=4`

use hyperline_bench::{arg, print_header, with_pool};
use hyperline_gen::dns_chunks;
use hyperline_slinegraph::{
    run_pipeline, Algorithm, CounterKind, Partition, PipelineConfig, Strategy,
};
use hyperline_util::table::Table;
use hyperline_util::Timer;

fn main() {
    print_header("Figure 9: weak scaling of Algorithm 2 on activeDNS (blocked)");
    let seed: u64 = arg("seed", 42);
    let base_chunks: usize = arg("base-chunks", 4);
    let max_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(8);
    let steps: Vec<(usize, usize)> = (0..6)
        .map(|i| (base_chunks << i, 1usize << i))
        .filter(|&(_, t)| t <= max_threads.max(1) * 2)
        .collect();
    let s_values = [8u32, 4, 2];

    let mut table = Table::new(
        std::iter::once("dataset (threads)".to_string())
            .chain(s_values.iter().map(|s| format!("s={s}"))),
    );
    for &(chunks, threads) in &steps {
        let h = dns_chunks(chunks, seed);
        let mut cells = vec![format!("dns_{chunks} ({threads}t)")];
        for &s in &s_values {
            let ms = with_pool(threads, || {
                let strategy = Strategy::default()
                    .with_counter(CounterKind::DynamicMap)
                    .with_partition(Partition::Blocked)
                    .with_workers(threads);
                let config = PipelineConfig {
                    s,
                    algorithm: Algorithm::Algo2,
                    strategy,
                    compute_toplexes: false,
                    squeeze: false,
                    run_components: false,
                };
                let t = Timer::start();
                let run = run_pipeline(&h, &config);
                std::hint::black_box(run.line_graph.num_edges());
                t.seconds() * 1e3
            });
            cells.push(format!("{ms:.1}ms"));
        }
        table.row(cells);
    }
    table.print();
    println!("\n(input size and threads double together; flat columns = perfect weak scaling,");
    println!(" larger s = faster runs thanks to degree-based pruning)");
}
