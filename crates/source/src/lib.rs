//! # tukwila-source
//!
//! Simulated autonomous, network-bound data sources and the wrapper layer —
//! the substitute for the paper's IBM DB2 servers, JDBC wrappers, 10 Mbps
//! Ethernet LAN, and the INRIA echo-server WAN path (§5, §6.1).
//!
//! The phenomena Tukwila adapts to are properties of the *arrival process*
//! (§1.1): significant initial delays, bursty transfer, slow mirrors,
//! unavailable sources. [`LinkModel`] reproduces exactly those knobs:
//!
//! * `initial_delay` — time before the first tuple arrives,
//! * `per_tuple` + `burst_size`/`burst_gap` — bandwidth and burstiness,
//! * `jitter` — seeded, deterministic-per-connection random variation,
//! * `stall_after` / `fail_after` / `unavailable` — fault injection driving
//!   the timeout, error, and collector-fallback rules.
//!
//! A [`SimulatedSource`] pairs a relation with a link model; a
//! [`Wrapper`] exposes it through the paper's wrapper interface (atomic
//! fetch queries, optionally through the shared [`SourceResultCache`]).
//! Everything a connection or wrapper stream yields is a
//! [`SourceBatchEvent`]: an arrival burst as one batch, or how the stream
//! ended. This crate starts no thread: the buffering of Figure 2's
//! "wrappers w/ buffering" and the `timeout(n)` deadline belong to the
//! engine, whose wrapper scan runs a stream on a feeder when it needs
//! either. Delays are real wall-clock sleeps scaled to milliseconds:
//! adaptive behaviour is preserved, absolute times shrink (DESIGN.md §3).

pub mod cache;
pub mod link;
pub mod registry;
pub mod source;
pub mod wrapper;

pub use cache::{CacheLookup, CacheStats, FetchLease, SourceQueryKey, SourceResultCache};
pub use link::LinkModel;
pub use registry::SourceRegistry;
pub use source::{SimulatedSource, SourceBatchEvent, SourceConnection};
pub use wrapper::{FetchVia, Wrapper, WrapperStream};

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Sleep in small chunks so a blocked source thread can be cancelled
/// (collector `deactivate`, engine shutdown). Returns `false` if cancelled
/// before the full duration elapsed.
pub fn interruptible_sleep(total: Duration, cancel: &AtomicBool) -> bool {
    const CHUNK: Duration = Duration::from_millis(2);
    let mut remaining = total;
    while remaining > Duration::ZERO {
        if cancel.load(Ordering::Relaxed) {
            return false;
        }
        let step = remaining.min(CHUNK);
        std::thread::sleep(step);
        remaining = remaining.saturating_sub(step);
    }
    !cancel.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::Instant;
    use tukwila_common::Tuple;

    /// Pull batches of up to 64 rows through `next` until the stream ends:
    /// every row, or why it stopped.
    pub(crate) fn drain(
        mut next: impl FnMut(usize) -> SourceBatchEvent,
    ) -> Result<Vec<Tuple>, String> {
        let mut out = Vec::new();
        loop {
            match next(64) {
                SourceBatchEvent::Batch(b) => out.extend(b.to_rows()),
                SourceBatchEvent::End => return Ok(out),
                SourceBatchEvent::Error(e) => return Err(e),
                SourceBatchEvent::Cancelled => return Err("cancelled".into()),
            }
        }
    }

    #[test]
    fn interruptible_sleep_completes() {
        let cancel = AtomicBool::new(false);
        let start = Instant::now();
        assert!(interruptible_sleep(Duration::from_millis(10), &cancel));
        assert!(start.elapsed() >= Duration::from_millis(9));
    }

    #[test]
    fn interruptible_sleep_cancels_immediately() {
        let cancel = AtomicBool::new(true);
        let start = Instant::now();
        assert!(!interruptible_sleep(Duration::from_millis(500), &cancel));
        assert!(start.elapsed() < Duration::from_millis(100));
    }
}
