//! A counting global allocator for the allocation gate and `perfbench`.
//!
//! [`CountingAlloc`] wraps the system allocator and keeps four process-wide
//! counters behind relaxed atomics: allocation calls, cumulative bytes
//! requested, bytes currently live, and the high-water mark of live bytes.
//! The accounting itself never allocates, so installing it cannot perturb
//! what it measures beyond a few atomic adds per call.
//!
//! Counting is compiled in only with the `count` feature (`wmn_bench` and
//! `perfbench` enable it; everyone else gets a zero-overhead passthrough),
//! so linking the crate costs nothing unless a binary explicitly opts into
//! profiling.
//!
//! # Usage
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: wmn_alloc::CountingAlloc = wmn_alloc::CountingAlloc;
//!
//! let (result, stats) = wmn_alloc::measure(|| run_workload());
//! println!("{} allocations, peak {} bytes", stats.allocs, stats.peak_bytes_in_use);
//! ```
//!
//! The counters are process-wide: [`measure`] reports deltas, so it is only
//! meaningful when nothing else allocates concurrently (`alloc_gate` is
//! single-threaded while measuring).
//!
//! Beside the allocation counters sit [`Work`] counters: exact counts of
//! the simulator's own units of work (planner pairs walked, shadowing
//! variates computed, receptions planned, link-model pairs evaluated),
//! bumped with [`count_work`] on
//! the thread that does the work and read back with [`work_totals`]. They
//! are the same kind of gate input as an allocation count, and compile to
//! nothing without the `count` feature.

use std::alloc::{GlobalAlloc, Layout, System};
#[cfg(feature = "count")]
use std::sync::atomic::{AtomicU64, Ordering};

#[cfg(feature = "count")]
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
#[cfg(feature = "count")]
static BYTES_ALLOCATED: AtomicU64 = AtomicU64::new(0);
#[cfg(feature = "count")]
static BYTES_IN_USE: AtomicU64 = AtomicU64::new(0);
#[cfg(feature = "count")]
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

#[cfg(feature = "count")]
static PHASE_ALLOCS: [AtomicU64; Phase::COUNT] =
    [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];
#[cfg(feature = "count")]
static PHASE_BYTES: [AtomicU64; Phase::COUNT] =
    [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];

#[cfg(feature = "count")]
thread_local! {
    /// The phase allocations on this thread are attributed to. Const-initialised
    /// `Cell<u8>` so reading it from inside the allocator never allocates
    /// (no lazy TLS init, no destructor registration).
    static CURRENT_PHASE: std::cell::Cell<u8> = const { std::cell::Cell::new(0) };
    /// This thread's [`Work`] counts, const-initialised for the same reason.
    static WORK: [std::cell::Cell<u64>; Work::COUNT] =
        const { [const { std::cell::Cell::new(0) }; Work::COUNT] };
}

/// A [`System`]-backed allocator that counts calls and bytes when the
/// `count` feature is on, and forwards untouched otherwise.
pub struct CountingAlloc;

#[cfg(feature = "count")]
fn on_alloc(bytes: usize) {
    let bytes = bytes as u64;
    ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    BYTES_ALLOCATED.fetch_add(bytes, Ordering::Relaxed);
    let live = BYTES_IN_USE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    let phase = CURRENT_PHASE.with(|p| p.get()) as usize;
    PHASE_ALLOCS[phase].fetch_add(1, Ordering::Relaxed);
    PHASE_BYTES[phase].fetch_add(bytes, Ordering::Relaxed);
}

#[cfg(feature = "count")]
fn on_dealloc(bytes: usize) {
    BYTES_IN_USE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        #[cfg(feature = "count")]
        on_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        #[cfg(feature = "count")]
        on_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        #[cfg(feature = "count")]
        on_dealloc(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow/shrink counts as one allocation event for the new size;
        // the old block's bytes retire. This matches how a `Vec` growth
        // would look if it were a fresh alloc + copy + free, so
        // `allocs_per_frame` cannot be gamed by reallocating in place.
        #[cfg(feature = "count")]
        {
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// A snapshot of allocator activity over one [`measure`] region.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Allocation calls (including the alloc half of every realloc).
    pub allocs: u64,
    /// Total bytes requested across those calls.
    pub bytes_allocated: u64,
    /// High-water mark of live bytes during the region, measured from the
    /// region's own starting point (bytes already live at entry included).
    pub peak_bytes_in_use: u64,
}

/// Whether allocation counting is compiled in. `false` means every
/// [`AllocStats`] this process reports is all zeros.
pub const fn counting_enabled() -> bool {
    cfg!(feature = "count")
}

/// An attribution bucket for the scoped phase counters.
///
/// Hot-loop code marks its regions with [`phase_scope`]; every allocation
/// made on that thread while the guard lives is charged to the bucket, so
/// a report can itemise *where* residual steady-state allocations
/// come from instead of reporting one opaque total. Anything outside a
/// scope lands in [`Phase::Unattributed`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    /// Allocations made outside any phase scope (setup, result collection).
    Unattributed = 0,
    /// Frame assembly, MAC action dispatch, and broadcast — the transmit path.
    TxPath = 1,
    /// Interface-queue and transport enqueue traffic.
    Queue = 2,
    /// Event-loop bookkeeping: the future-event list and event payloads.
    EventLoop = 3,
}

impl Phase {
    /// Number of attribution buckets (array size for the counters).
    pub const COUNT: usize = 4;

    /// Every bucket, in counter order.
    pub const ALL: [Phase; Phase::COUNT] =
        [Phase::Unattributed, Phase::TxPath, Phase::Queue, Phase::EventLoop];

    /// Stable snake_case key for reports and JSON artefacts.
    pub const fn label(self) -> &'static str {
        match self {
            Phase::Unattributed => "unattributed",
            Phase::TxPath => "tx_path",
            Phase::Queue => "queue",
            Phase::EventLoop => "event_loop",
        }
    }
}

/// Cumulative per-phase allocator activity on this process.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Allocation calls charged to the phase.
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes_allocated: u64,
}

/// Attributes this thread's allocations to `phase` until the returned
/// guard drops. Scopes nest; the innermost wins, and dropping restores the
/// enclosing phase. Compiled to a no-op without the `count` feature, so
/// production binaries pay nothing for the markers.
pub fn phase_scope(phase: Phase) -> PhaseGuard {
    #[cfg(feature = "count")]
    {
        let prev = CURRENT_PHASE.with(|p| p.replace(phase as u8));
        PhaseGuard { prev }
    }
    #[cfg(not(feature = "count"))]
    {
        let _ = phase;
        PhaseGuard {}
    }
}

/// RAII guard of one [`phase_scope`]; restores the previous phase on drop.
#[must_use = "the phase lasts only while the guard lives"]
pub struct PhaseGuard {
    #[cfg(feature = "count")]
    prev: u8,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        #[cfg(feature = "count")]
        CURRENT_PHASE.with(|p| p.set(self.prev));
    }
}

/// Cumulative per-phase totals since process start, indexed like
/// [`Phase::ALL`]. Callers wanting a region's attribution snapshot this
/// before and after and subtract.
pub fn phase_totals() -> [PhaseStats; Phase::COUNT] {
    #[allow(unused_mut)]
    let mut out = [PhaseStats::default(); Phase::COUNT];
    #[cfg(feature = "count")]
    for (i, slot) in out.iter_mut().enumerate() {
        slot.allocs = PHASE_ALLOCS[i].load(Ordering::Relaxed);
        slot.bytes_allocated = PHASE_BYTES[i].load(Ordering::Relaxed);
    }
    out
}

/// A unit of simulator work with an exact counter (see the crate docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Work {
    /// Station pairs the medium's planner drew a shadowing variate's words
    /// for: at most one per observed station per transmission, none for a
    /// pair out of carrier-sense reach.
    PlannerPairs = 0,
    /// Shadowing variates computed in full (the Box–Muller logarithm, root
    /// and cosine): by the planner where a draw's bounds straddle a
    /// threshold, and by the capture rule where two arrivals' bounds
    /// straddle its margin.
    Variates = 1,
    /// Receptions the planner planned: one per station a transmission
    /// reaches that the run observes (see `Prepared::observed_stations` in
    /// `wmn_netsim`).
    Receptions = 2,
    /// Station pairs whose link state was evaluated from their distance
    /// (`hypot` and `log10`): by the medium for a row entry or a moved
    /// pair, and by a routing graph's build for each pair inside its
    /// distance cut.
    LinkEvaluations = 3,
}

impl Work {
    /// Number of work counters.
    pub const COUNT: usize = 4;

    /// Every counter, in [`work_totals`] order.
    pub const ALL: [Work; Work::COUNT] =
        [Work::PlannerPairs, Work::Variates, Work::Receptions, Work::LinkEvaluations];

    /// Stable snake_case key for reports.
    pub const fn label(self) -> &'static str {
        match self {
            Work::PlannerPairs => "planner_pairs",
            Work::Variates => "variates",
            Work::Receptions => "receptions",
            Work::LinkEvaluations => "link_evaluations",
        }
    }
}

/// Adds `n` to this thread's `work` counter. Compiled to nothing without
/// the `count` feature.
#[inline]
pub fn count_work(work: Work, n: u64) {
    #[cfg(feature = "count")]
    WORK.with(|counts| {
        let count = &counts[work as usize];
        count.set(count.get() + n);
    });
    #[cfg(not(feature = "count"))]
    let _ = (work, n);
}

/// This thread's cumulative work counts, indexed like [`Work::ALL`]; all
/// zero without the `count` feature. Snapshot before and after a region
/// and subtract.
pub fn work_totals() -> [u64; Work::COUNT] {
    #[allow(unused_mut)]
    let mut out = [0; Work::COUNT];
    #[cfg(feature = "count")]
    WORK.with(|counts| {
        for (slot, count) in out.iter_mut().zip(counts) {
            *slot = count.get();
        }
    });
    out
}

/// Runs `f` and reports the allocator activity it caused. Deltas are exact
/// only while nothing else allocates concurrently — measure single-threaded
/// regions.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, AllocStats) {
    #[cfg(feature = "count")]
    {
        let calls_before = ALLOC_CALLS.load(Ordering::Relaxed);
        let bytes_before = BYTES_ALLOCATED.load(Ordering::Relaxed);
        // Rebase the high-water mark to the region entry so the reported
        // peak is this region's own, not some earlier workload's.
        PEAK_BYTES.store(BYTES_IN_USE.load(Ordering::Relaxed), Ordering::Relaxed);
        let value = f();
        let stats = AllocStats {
            allocs: ALLOC_CALLS.load(Ordering::Relaxed) - calls_before,
            bytes_allocated: BYTES_ALLOCATED.load(Ordering::Relaxed) - bytes_before,
            peak_bytes_in_use: PEAK_BYTES.load(Ordering::Relaxed),
        };
        (value, stats)
    }
    #[cfg(not(feature = "count"))]
    {
        (f(), AllocStats::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    // The test binary installs the counting allocator for itself; these
    // tests are meaningless (all-zero stats) without the feature.
    #[cfg(feature = "count")]
    #[global_allocator]
    static ALLOC: CountingAlloc = CountingAlloc;

    /// The counters are process-wide and `cargo test` runs sibling tests on
    /// parallel threads, so every test that reads them — or allocates while
    /// another might be reading — holds this for its whole body.
    static COUNTERS: Mutex<()> = Mutex::new(());

    fn serialised() -> MutexGuard<'static, ()> {
        // A sibling that failed while holding the lock poisons it; `()` has
        // no state to be left inconsistent.
        COUNTERS.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn measure_counts_a_boxed_alloc() {
        let _serial = serialised();
        let (_, stats) = measure(|| std::hint::black_box(vec![0u8; 4096]));
        if counting_enabled() {
            assert!(stats.allocs >= 1, "a 4 KiB Vec must register");
            assert!(stats.bytes_allocated >= 4096);
            assert!(stats.peak_bytes_in_use >= 4096);
        } else {
            assert_eq!(stats, AllocStats::default());
        }
    }

    #[test]
    fn phase_scopes_attribute_and_nest() {
        let _serial = serialised();
        let before = phase_totals();
        {
            let _queue = phase_scope(Phase::Queue);
            std::hint::black_box(vec![0u8; 1024]);
            {
                let _tx = phase_scope(Phase::TxPath);
                std::hint::black_box(vec![0u8; 2048]);
            }
            // Back in the queue scope after the inner guard dropped.
            std::hint::black_box(vec![0u8; 512]);
        }
        let after = phase_totals();
        let delta = |p: Phase| {
            (
                after[p as usize].allocs - before[p as usize].allocs,
                after[p as usize].bytes_allocated - before[p as usize].bytes_allocated,
            )
        };
        if counting_enabled() {
            let (q_allocs, q_bytes) = delta(Phase::Queue);
            let (tx_allocs, tx_bytes) = delta(Phase::TxPath);
            assert!(q_allocs >= 2, "both queue-scoped Vecs must be charged to Queue");
            assert!(q_bytes >= 1024 + 512);
            assert!(tx_allocs >= 1, "the nested Vec must be charged to TxPath");
            assert!(tx_bytes >= 2048);
        } else {
            assert_eq!(after, before, "phase counters stay zero without `count`");
        }
    }

    #[test]
    fn phase_labels_are_stable_report_keys() {
        let _serial = serialised();
        let labels: Vec<&str> = Phase::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels, vec!["unattributed", "tx_path", "queue", "event_loop"]);
    }

    #[test]
    fn work_counts_add_up_per_counter() {
        let before = work_totals();
        count_work(Work::PlannerPairs, 5);
        count_work(Work::Variates, 2);
        count_work(Work::PlannerPairs, 1);
        count_work(Work::Receptions, 3);
        count_work(Work::LinkEvaluations, 4);
        let after = work_totals();
        let delta = |w: Work| after[w as usize] - before[w as usize];
        if counting_enabled() {
            assert_eq!(Work::ALL.map(delta), [6, 2, 3, 4]);
        } else {
            assert_eq!(after, [0; Work::COUNT], "work counters stay zero without `count`");
        }
        let labels: Vec<&str> = Work::ALL.iter().map(|w| w.label()).collect();
        assert_eq!(labels, ["planner_pairs", "variates", "receptions", "link_evaluations"]);
    }

    #[test]
    fn measure_of_pure_arithmetic_is_allocation_free() {
        let _serial = serialised();
        // The lock cannot quiet libtest's own threads, which allocate while
        // they spawn and reap sibling tests. Foreign traffic only ever adds
        // to the counters, though, so a single clean window proves that
        // `measure` and the closure contribute nothing — and if either did
        // allocate, no window would be clean.
        let clean = (0..1000).any(|_| {
            let (sum, stats) = measure(|| (0u64..100).map(std::hint::black_box).sum::<u64>());
            assert_eq!(sum, 4950);
            stats.allocs == 0 && stats.bytes_allocated == 0
        });
        assert!(clean, "no heap traffic from register arithmetic");
    }
}
