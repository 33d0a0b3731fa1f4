//! `selcached` — the long-running result-store service.
//!
//! Serves the shared `JobEngine` over a unix domain socket using the
//! newline-delimited JSON protocol documented in
//! `selcache_bench::service` (and `DESIGN.md`). All clients share one
//! engine and one persistent store, so overlapping sweeps are simulated
//! once per unique execution identity — ever — and every rerun is
//! answered from disk.
//!
//! ```text
//! selcached [--socket PATH] [--store DIR] [--threads N]
//! selcached [--socket PATH] --once '<request JSON>'
//! ```
//!
//! Server mode binds the socket and serves until SIGTERM/ctrl-c (or a
//! `{"op":"shutdown"}` request), draining in-flight work before exiting.
//! `--once` is the client: it sends a single request line and prints the
//! response lines to stdout — e.g.
//!
//! ```text
//! selcached --socket /tmp/selcache.sock \
//!   --once '{"op":"run","jobs":[{"benchmark":"vpenta","version":"selective"}]}'
//! ```

#[cfg(unix)]
fn main() {
    unix::main();
}

#[cfg(not(unix))]
fn main() {
    eprintln!("selcached requires unix domain sockets and is not available on this platform");
    std::process::exit(1);
}

#[cfg(unix)]
mod unix {
    use selcache_bench::service::{self, Server};
    use selcache_bench::Cli;
    use std::path::PathBuf;

    const USAGE: &str = "usage: selcached [--socket PATH] [--store DIR] [--threads N] \
[--once '<request JSON>']";

    // libc `signal(2)`, declared directly so the binary needs no new
    // dependency. The handler only flips the service's atomic shutdown
    // latch, which is async-signal-safe.
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_signal(_sig: i32) {
        service::request_shutdown();
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    fn fail(msg: &str) -> ! {
        eprintln!("error: {msg}");
        eprintln!("{USAGE}");
        std::process::exit(2);
    }

    pub fn main() {
        let mut socket: Option<PathBuf> = None;
        let mut store: Option<PathBuf> = None;
        let mut threads: usize = 0;
        let mut once: Option<String> = None;

        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            let mut value = |flag: &'static str| {
                args.next().unwrap_or_else(|| fail(&format!("{flag} needs a value")))
            };
            match a.as_str() {
                "--socket" => socket = Some(PathBuf::from(value("--socket"))),
                "--store" => store = Some(PathBuf::from(value("--store"))),
                "--threads" => {
                    let v = value("--threads");
                    threads =
                        v.parse().unwrap_or_else(|_| fail(&format!("invalid --threads {v:?}")));
                }
                "--once" => once = Some(value("--once")),
                "--help" | "-h" => {
                    println!("{USAGE}");
                    return;
                }
                other => fail(&format!("unknown flag {other:?}")),
            }
        }
        let socket = socket.unwrap_or_else(|| std::env::temp_dir().join("selcached.sock"));

        if let Some(line) = once {
            if let Err(e) = service::request_once(&socket, &line, &mut std::io::stdout()) {
                eprintln!("request to {} failed: {e}", socket.display());
                std::process::exit(1);
            }
            return;
        }

        let engine = Cli { threads, store, ..Cli::default() }.engine();
        let persistence = match engine.store() {
            Some(s) => format!("store {}", s.root().display()),
            None => "no store: results are not persisted".to_string(),
        };

        unsafe {
            let _ = signal(SIGINT, on_signal);
            let _ = signal(SIGTERM, on_signal);
        }

        let server = match Server::bind(&socket, engine) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("failed to bind {}: {e}", socket.display());
                std::process::exit(1);
            }
        };
        eprintln!("selcached listening on {} ({persistence})", server.path().display());
        if let Err(e) = server.run() {
            eprintln!("server error: {e}");
            std::process::exit(1);
        }
        eprintln!("selcached: shutdown complete");
    }
}
