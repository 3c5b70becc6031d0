//! Figure 4: F1\*-scores across noise levels (0–40 %) and label
//! availability (100/50/0 %), for every dataset and method, nodes and
//! edges. `--batches <n>` runs the same cells with PG-HIVE reading each
//! graph as `n` random batches through one incremental session — the
//! quality gate for what only a multi-batch run can show
//! (`results/fig4_batches.txt` is `--batches 10`).

use pg_eval::args::EvalArgs;
use pg_eval::report::{fmt_opt, render_table};
use pg_eval::runner::run_cell_batched;
use pg_eval::{CellSpec, Method};

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let batches = match argv.iter().position(|a| a == "--batches") {
        Some(at) => {
            let n = argv.drain(at..(at + 2).min(argv.len())).nth(1);
            let n = n.and_then(|n| n.parse().ok()).filter(|&n| n > 0);
            n.expect("--batches must be a positive integer")
        }
        None => 1,
    };
    let args = EvalArgs::parse_from(argv);
    let noise_levels = [0.0, 0.1, 0.2, 0.3, 0.4];
    let availabilities = [1.0, 0.5, 0.0];

    for ds in args.dataset_names() {
        for &avail in &availabilities {
            println!(
                "\nFigure 4 — {ds}, label availability {:.0} %:",
                avail * 100.0
            );
            let header: Vec<String> = std::iter::once("Method (node|edge F1*)".to_string())
                .chain(noise_levels.iter().map(|n| format!("{:.0}%", n * 100.0)))
                .collect();
            let mut rows = Vec::new();
            for m in Method::all() {
                let mut row = vec![m.name().to_string()];
                for &noise in &noise_levels {
                    let spec = CellSpec {
                        dataset: ds.clone(),
                        noise,
                        label_availability: avail,
                        method: m,
                        seed: args.seed,
                        scale: args.scale,
                    };
                    let r = run_cell_batched(&spec, batches);
                    row.push(format!(
                        "{}|{}",
                        fmt_opt(r.node_f1.map(|f| f.macro_f1)),
                        fmt_opt(r.edge_f1.map(|f| f.macro_f1))
                    ));
                }
                rows.push(row);
            }
            println!("{}", render_table(&header, &rows));
        }
    }
}
