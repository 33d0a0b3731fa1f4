//! Using the framework on your own code: express a kernel in the IR with
//! [`ProgramBuilder`], let the compiler partition and optimize it, and
//! simulate all four versions.
//!
//! The kernel here is a sparse-matrix-times-dense-matrix loop (irregular
//! gather phase) followed by a dense normalization sweep written in column
//! order (regular phase) — the canonical shape the selective scheme is for.
//!
//! ```text
//! cargo run --release --example custom_workload
//! ```

use selcache::compiler::{selective, OptConfig};
use selcache::core::{AssistKind, Experiment, MachineConfig, Version};
use selcache::ir::{pretty, AffineExpr, ProgramBuilder, Subscript};
use selcache::workloads::data;

fn main() {
    let rows = 4096i64;
    let nnz = 16_384usize;
    let mut rng = data::rng(42);

    let mut b = ProgramBuilder::new("spmm");
    let values = b.array("VAL", &[nnz as i64], 8);
    let colidx = b.data_array("COL", data::uniform_indices(&mut rng, nnz, rows), 4);
    let x = b.array("X", &[rows], 8);
    let y = b.array("Y", &[rows], 8);
    let dense = b.array("DENSE", &[rows, 16], 8);
    let norm = b.array("NORM", &[rows, 16], 8);

    // Phase 1 (irregular): y += A.x with column-index gathers.
    b.loop_(nnz as i64, |b, k| {
        b.stmt(|s| {
            s.read(values, vec![Subscript::var(k)])
                .gather(x, colidx, AffineExpr::var(k), 0)
                .fp(2)
                .scatter(y, colidx, AffineExpr::var(k), 0);
        });
    });
    // Phase 2 (regular, column-ordered): normalize a tall dense matrix.
    b.nest2(16, rows, |b, i, j| {
        b.stmt(|s| {
            s.read(dense, vec![Subscript::var(j), Subscript::var(i)])
                .fp(1)
                .write(norm, vec![Subscript::var(j), Subscript::var(i)]);
        });
    });
    let program = b.finish().expect("valid program");

    // What the compiler makes of it.
    let opt = OptConfig::default();
    let marked = selective(&program, &opt);
    println!("=== Compiled (optimized + ON/OFF markers) ===");
    print!("{}", pretty(&marked));

    // Simulate the four versions.
    let exp = Experiment::new(MachineConfig::base(), AssistKind::Bypass);
    let base = exp.run_program(&program, Version::Base);
    println!("\nbase: {} cycles", base.cycles);
    for version in Version::REPORTED {
        let prepared = exp.prepare(&program, version);
        let r = exp.run_program(&prepared, version);
        println!(
            "{:<14}: {:>10} cycles ({:+.2}%)  toggles={}",
            version.to_string().to_lowercase(),
            r.cycles,
            r.improvement_over(&base),
            r.cpu.assist_toggles
        );
    }
}
