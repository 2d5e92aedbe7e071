//! A3 — the dual stack with and without its one-slot elimination arena
//! (paper §5).
//!
//! The paper's finding: elimination pays only under "artificially extreme
//! contention"; otherwise the arena visit is pure overhead. Arenas of 4
//! and 16 slots lost to the plain stack and are deleted (DESIGN §3).

use synq_bench::algos::Algo;
use synq_bench::runner::{finish, run_handoff_figure};
use synq_bench::workload::HandoffShape;
use synq_bench::PAIR_LEVELS;

fn main() {
    let algos = [Algo::NewUnfair, Algo::NewElim];
    let report = run_handoff_figure(
        "ablate_elim",
        "A3: dual stack with a one-slot elimination arena",
        "pairs",
        PAIR_LEVELS,
        &algos,
        HandoffShape::pairs,
    );
    finish(report);
}
