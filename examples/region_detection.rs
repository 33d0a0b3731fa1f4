//! Region detection walkthrough: builds a program shaped like Figure 2(a)
//! of the paper — an outer loop containing hardware, software, and hardware
//! nests — and shows the naive ON/OFF marking of Figure 2(b) followed by
//! the redundancy-eliminated structure of Figure 2(c).
//!
//! ```text
//! cargo run --example region_detection
//! ```

use selcache::compiler::{
    analyze_loop, detect_and_mark, eliminate_redundant_markers, AssistPolicy,
};
use selcache::ir::{pretty, AffineExpr, Item, ProgramBuilder, Subscript};

fn main() {
    // Figure 2(a): an imperfectly nested outer loop with three inner nests.
    let mut b = ProgramBuilder::new("figure2");
    let dense = b.array("DENSE", &[512, 16], 8);
    let table = b.array("TABLE", &[8192], 8);
    let index = b.data_array("INDEX", (0..8192).rev().collect(), 4);

    b.loop_(4, |b, _t| {
        // First nest (depth 4 like the figure): subscripted accesses ->
        // hardware.
        b.loop_(4, |b, _| {
            b.loop_(4, |b, _| {
                b.loop_(64, |b, k| {
                    b.stmt(|s| {
                        s.gather(table, index, AffineExpr::var(k), 0).int(1);
                    });
                });
            });
        });
        // Second nest: affine accesses -> software.
        b.nest2(512, 16, |b, i, j| {
            b.stmt(|s| {
                s.read(dense, vec![Subscript::var(i), Subscript::var(j)]).fp(1);
            });
        });
        // Third nest: subscripted again -> hardware.
        b.loop_(4, |b, _| {
            b.loop_(256, |b, k| {
                b.stmt(|s| {
                    s.gather(table, index, AffineExpr::var(k), 2).int(1);
                });
            });
        });
    });
    let program = b.finish().expect("valid program");

    println!("=== Input program (Figure 2(a)) ===");
    print!("{}", pretty(&program));

    // Per-nest classification, innermost-out.
    let outer = program.items[0].as_loop().expect("outer loop");
    println!("\nouter loop region class: {:?}", analyze_loop(outer, 0.5));
    for (k, item) in outer.body.iter().enumerate() {
        if let Item::Loop(l) = item {
            println!("  nest {k}: {:?}", analyze_loop(l, 0.5));
        }
    }

    // Naive marking = Figure 2(b); elimination = Figure 2(c).
    let naive = detect_and_mark(&program, 0.5, AssistPolicy::IrregularRegions);
    println!("\n=== After naive marking (Figure 2(b)): {} markers ===", naive.marker_count());
    print!("{}", pretty(&naive));

    let cleaned = eliminate_redundant_markers(&naive);
    println!(
        "\n=== After redundant-marker elimination (Figure 2(c)): {} markers ===",
        cleaned.marker_count()
    );
    print!("{}", pretty(&cleaned));
}
