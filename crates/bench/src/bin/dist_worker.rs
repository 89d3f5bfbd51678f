//! Standalone shard worker for the distributed test harness.
//!
//! Rebuilds the deterministic `dist` workload from its arguments, binds a
//! [`WorkerServer`] on an OS-assigned port, reports `PORT <n>` on stdout,
//! and serves plan fragments until killed. Spawned by
//! `tests/distributed.rs` (which also kills one mid-query to test
//! coordinator-side fault handling).
//!
//! ```text
//! dist_worker [--addr 127.0.0.1:0] [--rows N] [--dup D] [--pace-us P]
//! ```

use std::io::Write as _;
use std::sync::atomic::AtomicBool;
use std::time::Duration;

use tukwila_bench::dist::dist_registry;
use tukwila_net::WorkerServer;

fn arg_i64(args: &[String], name: &str, default: i64) -> i64 {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("{name} wants a number, got {v:?}"))
        })
        .unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let addr = args
        .iter()
        .position(|a| a == "--addr")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "127.0.0.1:0".to_string());
    let rows = arg_i64(&args, "--rows", 20_000);
    let dup = arg_i64(&args, "--dup", rows);
    let pace = Duration::from_micros(arg_i64(&args, "--pace-us", 0).max(0) as u64);

    let reg = dist_registry(rows, dup, pace);
    let server =
        WorkerServer::bind(&addr, reg).unwrap_or_else(|e| panic!("dist_worker: bind {addr}: {e}"));
    let local = server.local_addr().expect("bound address");
    // The spawner reads this line to learn the OS-assigned port.
    println!("PORT {}", local.port());
    std::io::stdout().flush().expect("flush port line");

    let stop = AtomicBool::new(false);
    server.run(&stop); // serves until the process is killed
}
