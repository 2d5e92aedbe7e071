//! The batch calls a `BufferedChannel` derives for `SyncChannel` are its
//! ring batches (`--features stats`): through a `dyn SyncChannel`, a run
//! of items that fits the ring is published with one tail update and
//! received with one head update, on an unbounded and a bounded queue.
//!
//! Probe counters are process-wide, so this binary holds a single test.

#![cfg(feature = "stats")]

use std::sync::Arc;
use synq::SyncChannel;
use synq_obs::{Probe, StatsSnapshot};
use synq_transfer::BufferedChannel;

const BATCH: u32 = 64;

#[test]
fn a_batch_through_dyn_sync_channel_moves_the_ring_once() {
    let channels: [(&str, Arc<dyn SyncChannel<u32>>); 2] = [
        ("unbounded", Arc::new(BufferedChannel::unbounded())),
        ("bounded(64)", Arc::new(BufferedChannel::bounded(64))),
    ];
    for (name, ch) in channels {
        let before = StatsSnapshot::take();
        let mut items: Vec<u32> = (0..BATCH).collect();
        ch.send_batch(&mut items);
        assert!(items.is_empty(), "{name}: send_batch left items");
        let d = StatsSnapshot::take().delta(&before);
        assert_eq!(d.get(Probe::RingTailUpdates), 1, "{name}: send_batch");
        assert_eq!(d.get(Probe::RingPushItems), u64::from(BATCH), "{name}");

        let before = StatsSnapshot::take();
        let mut out = Vec::new();
        assert_eq!(ch.recv_batch(&mut out, BATCH as usize), BATCH as usize);
        assert_eq!(out, (0..BATCH).collect::<Vec<_>>(), "{name}: order");
        let d = StatsSnapshot::take().delta(&before);
        assert_eq!(d.get(Probe::RingHeadUpdates), 1, "{name}: recv_batch");
    }
}
