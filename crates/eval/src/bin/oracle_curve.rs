//! Correctness-oracle regression curve: node/edge F1\* and STRICT
//! violation counts as the pg-synth noise knobs turn up, averaged over
//! several randomly drawn ground-truth schemas.
//!
//! The level-0 row is the oracle baseline (F1\* = 1.0, zero violations);
//! the rest is the bounded-degradation curve EXPERIMENTS.md tracks in
//! `results/oracle_noise.txt`.

use pg_eval::args::EvalArgs;
use pg_eval::oracle::noise_curve;
use pg_eval::report::render_table;
use pg_synth::{random_schema, SchemaParams};

fn main() {
    let args = EvalArgs::parse();
    let levels = [0.0, 0.1, 0.2, 0.3, 0.4];
    let schemas = 5u64;

    println!(
        "Oracle noise curve — {schemas} random schemas, seed {}, levels {levels:?}",
        args.seed
    );
    println!(
        "noise x = unlabeled fraction = missing-optional rate = missing-mandatory rate;\n\
         spurious-label rate = x/2\n"
    );

    let mut rows = Vec::new();
    let mut totals = vec![(0.0f64, 0.0f64, 0usize); levels.len()];
    for s in 0..schemas {
        let seed = args.seed + s;
        let schema = random_schema(&SchemaParams::default(), seed);
        let curve = noise_curve(&schema, &levels, seed);
        let mut row = vec![format!("schema #{seed}")];
        for (i, p) in curve.iter().enumerate() {
            row.push(format!("{:.3}/{:.3}", p.node_f1, p.edge_f1));
            totals[i].0 += p.node_f1;
            totals[i].1 += p.edge_f1;
            totals[i].2 += p.strict_violations;
        }
        rows.push(row);
    }
    let mut mean = vec!["mean F1* (node/edge)".to_string()];
    let mut viol = vec!["total STRICT violations".to_string()];
    for (n, e, v) in &totals {
        mean.push(format!(
            "{:.3}/{:.3}",
            n / schemas as f64,
            e / schemas as f64
        ));
        viol.push(format!("{v}"));
    }
    rows.push(mean);
    rows.push(viol);

    let header: Vec<String> = std::iter::once("ground truth".to_string())
        .chain(levels.iter().map(|l| format!("x={l:.1}")))
        .collect();
    println!("{}", render_table(&header, &rows));
    println!("expectation: x=0.0 column is exactly 1.000/1.000 with 0 violations;");
    println!("F1* degrades with x but stays well above the uninformed baseline.");
}
