//! Experiment harness: one module per paper figure / table, each
//! regenerating its artifact (console rows + CSV + SVG under `results/`).
//!
//! | Module | Paper artifact |
//! |--------|----------------|
//! | [`figures::fig03`] | Fig. 3 — taxonomy of phase trajectories vs strong stability |
//! | [`figures::fig04`] | Fig. 4 — logarithmic-spiral trajectories with extrema |
//! | [`figures::fig05`] | Fig. 5 — stable-node trajectories with eigenline asymptotes |
//! | [`figures::fig06`] | Fig. 6 — Case 1 round dynamics (trajectory, `q(t)`, `dq/dt`) |
//! | [`figures::fig07`] | Fig. 7 — the limit cycle |
//! | [`figures::fig08`] | Fig. 8 — Case 2 |
//! | [`figures::fig09`] | Fig. 9 — Case 3 |
//! | [`figures::fig10`] | Fig. 10 — Case 4 |
//! | [`figures::thm1`]  | Theorem 1 worked example + buffer-sizing sweeps |
//! | [`experiments::criterion_sweep`] | criterion tightness/soundness atlas over `(Gi, Gd)` |
//! | [`experiments::fluid_vs_packet`] | fluid model vs packet-level DES validation |
//! | [`experiments::warmup`] | start-up duration `T0` and the `q0` trade-off |
//! | [`experiments::w_pm_transients`] | `w`, `pm` shape transients but not stability |
//! | [`experiments::delay_ablation`] | propagation-delay assumption ablation |
//! | [`experiments::bcn_vs_qcn`] | BCN vs QCN at packet level |
//!
//! Each module exposes `run(out_dir) -> Result<(), Box<dyn Error>>`.
//! `cargo run -p bench --bin run_all [name ...]` calls the named ones
//! (`fig06`, `delay_ablation`, ...; every one when no name is given)
//! with the default `results/` directory.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod common;
pub mod experiments;
pub mod figures;

/// Installs a counting global allocator in a bench binary and defines
/// `fn allocations() -> u64`, the number of allocation events (alloc +
/// realloc) so far, and `fn live_bytes() -> u64`, the bytes allocated
/// and not yet freed. The zero-allocation gates read the first around
/// a warm hot path; the report-size gates read the second around a run
/// whose report is kept.
///
/// This library forbids unsafe code, so the allocator is a macro that
/// expands in each binary, which is its own crate root.
#[macro_export]
macro_rules! counting_allocator {
    () => {
        /// Counts allocation events and live bytes on top of the
        /// system allocator.
        struct CountingAlloc;

        static ALLOCATIONS: ::std::sync::atomic::AtomicU64 = ::std::sync::atomic::AtomicU64::new(0);
        static LIVE_BYTES: ::std::sync::atomic::AtomicU64 = ::std::sync::atomic::AtomicU64::new(0);

        // SAFETY: defers every operation to `System` unchanged; the
        // counters are relaxed atomics with no further side effects.
        unsafe impl ::std::alloc::GlobalAlloc for CountingAlloc {
            unsafe fn alloc(&self, layout: ::std::alloc::Layout) -> *mut u8 {
                ALLOCATIONS.fetch_add(1, ::std::sync::atomic::Ordering::Relaxed);
                let ptr =
                    unsafe { ::std::alloc::GlobalAlloc::alloc(&::std::alloc::System, layout) };
                if !ptr.is_null() {
                    LIVE_BYTES
                        .fetch_add(layout.size() as u64, ::std::sync::atomic::Ordering::Relaxed);
                }
                ptr
            }
            unsafe fn dealloc(&self, ptr: *mut u8, layout: ::std::alloc::Layout) {
                LIVE_BYTES.fetch_sub(layout.size() as u64, ::std::sync::atomic::Ordering::Relaxed);
                unsafe { ::std::alloc::GlobalAlloc::dealloc(&::std::alloc::System, ptr, layout) }
            }
            unsafe fn realloc(
                &self,
                ptr: *mut u8,
                layout: ::std::alloc::Layout,
                new_size: usize,
            ) -> *mut u8 {
                ALLOCATIONS.fetch_add(1, ::std::sync::atomic::Ordering::Relaxed);
                let new = unsafe {
                    ::std::alloc::GlobalAlloc::realloc(&::std::alloc::System, ptr, layout, new_size)
                };
                if !new.is_null() {
                    LIVE_BYTES.fetch_add(new_size as u64, ::std::sync::atomic::Ordering::Relaxed);
                    LIVE_BYTES
                        .fetch_sub(layout.size() as u64, ::std::sync::atomic::Ordering::Relaxed);
                }
                new
            }
        }

        #[global_allocator]
        static ALLOC: CountingAlloc = CountingAlloc;

        fn allocations() -> u64 {
            ALLOCATIONS.load(::std::sync::atomic::Ordering::Relaxed)
        }

        #[allow(dead_code)]
        fn live_bytes() -> u64 {
            LIVE_BYTES.load(::std::sync::atomic::Ordering::Relaxed)
        }
    };
}

/// Convenient alias used by every experiment entry point.
pub type ExpResult = Result<(), Box<dyn std::error::Error>>;
