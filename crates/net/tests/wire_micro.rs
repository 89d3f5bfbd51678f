//! Write-path microharness for the paired buffer-reuse measurement
//! recorded in EXPERIMENTS.md ("Wire write path"). Ignored by default —
//! it prints timings instead of asserting them:
//!
//! ```text
//! cargo test -p tukwila-net --release --test wire_micro -- --ignored --nocapture
//! ```
//!
//! Streams a realistic batch (1024 rows, int/int/str columns) through the
//! per-frame encode + framed-write path many times, interleaving the
//! shipped implementation (`FrameWriter::send_batch`: reused
//! per-connection buffer, two `write_all` calls) with a baseline that
//! allocates a fresh encode buffer per frame — alternating inside one
//! process so machine drift hits both variants equally.

use std::time::Instant;

use tukwila_common::{tuple, TupleBatch};
use tukwila_net::FrameWriter;
use tukwila_storage::codec;

const FRAMES: usize = 20_000;
const ROUNDS: usize = 7;

fn payload_batch() -> TupleBatch {
    let rows: Vec<_> = (0..1024i64)
        .map(|i| tuple![i, i * 7, format!("payload-{i:04}")])
        .collect();
    tukwila_common::testing::batch(&rows)
}

/// The pre-reuse write path: a fresh unreserved encode buffer per frame,
/// header and payload written separately.
fn send_batch_fresh_alloc(sink: &mut impl std::io::Write, batch: &TupleBatch) -> u64 {
    let mut buf = Vec::new();
    codec::encode_batch_frame(batch, &mut buf);
    let mut header = [5u8; 5]; // K_BATCH
    header[1..5].copy_from_slice(&(buf.len() as u32).to_le_bytes());
    sink.write_all(&header).expect("write header");
    sink.write_all(&buf).expect("write payload");
    5 + buf.len() as u64
}

#[test]
#[ignore = "microbench: prints timings, run manually with --nocapture"]
fn wire_write_path_throughput() {
    let batch = payload_batch();
    let mut best_reuse = f64::INFINITY;
    let mut best_fresh = f64::INFINITY;
    let mut bytes_per_round = 0u64;
    for round in 0..ROUNDS {
        // Shipped path: one FrameWriter per "connection", buffer reused
        // across frames.
        let mut w = FrameWriter::new(std::io::sink());
        let t0 = Instant::now();
        let mut bytes = 0u64;
        for _ in 0..FRAMES {
            bytes += w.send_batch(&batch).expect("send_batch into sink");
        }
        let dt_reuse = t0.elapsed().as_secs_f64();
        best_reuse = best_reuse.min(dt_reuse);
        bytes_per_round = bytes;

        // Baseline: fresh allocation per frame.
        let mut sink = std::io::sink();
        let t0 = Instant::now();
        let mut fresh_bytes = 0u64;
        for _ in 0..FRAMES {
            fresh_bytes += send_batch_fresh_alloc(&mut sink, &batch);
        }
        let dt_fresh = t0.elapsed().as_secs_f64();
        best_fresh = best_fresh.min(dt_fresh);
        assert_eq!(fresh_bytes, bytes, "variants must frame identically");

        println!(
            "round {round}: reuse {:.1} ms, fresh-alloc {:.1} ms ({bytes} bytes each)",
            dt_reuse * 1e3,
            dt_fresh * 1e3
        );
    }
    println!(
        "best-of-{ROUNDS}: reuse {:.1} ms ({:.0} MB/s), fresh-alloc {:.1} ms ({:.0} MB/s), ratio {:.3}",
        best_reuse * 1e3,
        bytes_per_round as f64 / best_reuse / 1e6,
        best_fresh * 1e3,
        bytes_per_round as f64 / best_fresh / 1e6,
        best_fresh / best_reuse
    );
}
