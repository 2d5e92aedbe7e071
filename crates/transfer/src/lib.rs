//! The `TransferQueue`, re-exported from its home, [`synq::transfer`].

pub use synq::transfer::*;
