//! The one software-prefetch primitive of the workspace.

/// Hints the CPU to pull the cache line holding `p` into every cache level,
/// so that a later load of it overlaps whatever runs in between.  Purely
/// advisory: any address is accepted, including null and dangling ones, and
/// nothing is read.  A no-op on architectures without a prefetch
/// instruction.
#[inline]
pub fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is a hint and never faults, for any address.
    unsafe {
        core::arch::x86_64::_mm_prefetch(p.cast::<i8>(), core::arch::x86_64::_MM_HINT_T0)
    };
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}
