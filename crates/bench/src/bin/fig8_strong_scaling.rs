//! Figure 8: strong scaling of Algorithm 2, s = 8.
//!
//! Fixes the input and doubles the worker count (1, 2, 4, 8, 16, max)
//! for the four Figure-8 strategy series (2BN, 2CN, 2BA, 2CA) on the
//! LiveJournal, com-Orkut, DNS-256 and Web profiles. Prints runtimes per
//! thread count; expect improvement up to about 16 threads and the
//! cyclic+ascending variant to scale best on the skewed inputs.
//!
//! `cargo run -p hyperline-bench --release --bin fig8_strong_scaling`
//! Options: `--s=8 --seed=42 --dns-chunks=256 --profiles=LiveJournal,...`

use hyperline_bench::{arg, print_header, with_pool};
use hyperline_gen::{dns_chunks, Profile};
use hyperline_hypergraph::{Hypergraph, RelabelOrder};
use hyperline_slinegraph::{
    run_pipeline, Algorithm, CounterKind, Partition, PipelineConfig, Strategy,
};
use hyperline_util::table::Table;
use hyperline_util::Timer;

fn main() {
    print_header("Figure 8: strong scaling of Algorithm 2, s = 8");
    let s: u32 = arg("s", 8);
    let seed: u64 = arg("seed", 42);
    let chunks: usize = arg("dns-chunks", 256);
    let max_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(8);
    let thread_counts: Vec<usize> = [1usize, 2, 4, 8, 16, 24, 32]
        .into_iter()
        .filter(|&t| t <= max_threads.max(1))
        .collect();

    let series: [(&str, Partition, RelabelOrder); 4] = [
        ("2BN", Partition::Blocked, RelabelOrder::None),
        ("2CN", Partition::Cyclic, RelabelOrder::None),
        ("2BA", Partition::Blocked, RelabelOrder::Ascending),
        ("2CA", Partition::Cyclic, RelabelOrder::Ascending),
    ];

    let profile_list: String = arg("profiles", "LiveJournal,com-Orkut,DNS,Web".to_string());
    let datasets: Vec<(String, Hypergraph)> = profile_list
        .split(',')
        .map(|name| {
            let name = name.trim();
            if name.eq_ignore_ascii_case("dns") {
                (format!("DNS-{chunks}"), dns_chunks(chunks, seed))
            } else {
                let p =
                    Profile::from_name(name).unwrap_or_else(|| panic!("unknown profile {name}"));
                (p.name().to_string(), p.generate(seed))
            }
        })
        .collect();

    for (name, h) in &datasets {
        println!(
            "\n--- {name}: {} vertices, {} edges ---",
            h.num_vertices(),
            h.num_edges()
        );
        let mut table = Table::new(
            std::iter::once("threads".to_string())
                .chain(series.iter().map(|(l, _, _)| l.to_string())),
        );
        for &threads in &thread_counts {
            let mut cells = vec![threads.to_string()];
            for &(_, partition, relabel) in &series {
                let secs = with_pool(threads, || {
                    let strategy = Strategy::default()
                        .with_counter(CounterKind::DynamicMap)
                        .with_partition(partition)
                        .with_relabel(relabel)
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
                    let run = run_pipeline(h, &config);
                    std::hint::black_box(run.line_graph.num_edges());
                    t.seconds()
                });
                cells.push(format!("{secs:.3}s"));
            }
            table.row(cells);
        }
        table.print();
    }
    println!("\n(runtime per thread count; improvement should flatten past ~16 threads)");
}
