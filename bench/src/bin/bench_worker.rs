//! The `dist_join` workload's worker process.
//!
//! Regenerates the workload's deployment from `--workload` and `--seed`
//! (so coordinator and worker hold identical tables without shipping
//! them), binds a `WorkerServer` on an OS-assigned port, prints
//! `PORT <n>`, and serves plan fragments until its stdin closes.

use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};

use tukwila_e2e_bench::{arg, workloads};
use tukwila_net::WorkerServer;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let spec = arg(&args, "--workload")
        .and_then(workloads::spec)
        .expect("--workload <name>");
    let seed: u64 = arg(&args, "--seed")
        .and_then(|s| s.parse().ok())
        .expect("--seed <n>");

    let deployment = spec.deployment(seed);
    let server = WorkerServer::bind("127.0.0.1:0", deployment.registry.clone())
        .expect("bind a loopback port");
    println!(
        "PORT {}",
        server.local_addr().expect("bound address").port()
    );
    std::io::stdout().flush().expect("flush the port line");

    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        // The parent holds the other end of stdin and never writes: EOF
        // means it is gone.
        s.spawn(|| {
            let _ = std::io::stdin().read_to_end(&mut Vec::new());
            stop.store(true, Ordering::Relaxed);
        });
        server.run(&stop);
    });
}
