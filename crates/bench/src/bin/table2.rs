//! Regenerates Table 2 of the paper: benchmark characteristics (input,
//! instructions executed, L1/L2 miss rates) under the base configuration.
use selcache_bench::Cli;

fn main() {
    let cli = Cli::from_env();
    let engine = cli.engine();
    eprintln!(
        "running base-configuration characterization at scale {} ({} threads)…",
        cli.scale,
        engine.threads()
    );
    print!("{}", selcache_core::table2(&engine, cli.scale));
}
