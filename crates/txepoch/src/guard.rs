//! RAII pin guards.

use std::marker::PhantomData;

use crate::deferred::drop_box;
use crate::local::Local;

/// A guard that keeps the current thread pinned in the epoch it observed.
///
/// While a guard is live, objects retired by *other* threads after the guard
/// was created will not be freed, so pointers read from shared memory under
/// the guard remain valid until the guard is dropped.
///
/// The thread's announcement changes only at its outermost pin, whatever it
/// retires or flushes meanwhile, so the global epoch moves at most one past
/// a live guard: garbage retired under a pin, by any thread, waits for that
/// pin to end.
///
/// Guards are re-entrant: nesting them is allowed and only the outermost one
/// announces/clears the active flag.
pub struct Guard {
    local: *const Local,
    _not_send: PhantomData<*mut ()>,
}

impl Guard {
    pub(crate) fn new(local: *const Local) -> Self {
        Self {
            local,
            _not_send: PhantomData,
        }
    }

    #[inline]
    fn local(&self) -> &Local {
        // SAFETY: the guard holds a reference count on the `Local`.
        unsafe { &*self.local }
    }

    /// Retires a pointer produced by `Box::into_raw`, dropping the box after
    /// the grace period.
    ///
    /// # Safety
    ///
    /// * `ptr` must have been produced by `Box::<T>::into_raw`.
    /// * The object must already be unreachable for threads that pin *after*
    ///   this call (i.e. it has been unlinked from all shared structures).
    /// * The caller must not use `ptr` again.
    #[inline]
    pub unsafe fn defer_drop<T>(&self, ptr: *mut T) {
        // SAFETY: forwarded contract; `drop_box::<T>` matches the allocation.
        unsafe { self.local().defer(ptr.cast(), drop_box::<T>) };
    }

    /// Retires a raw pointer with a caller-provided destructor.
    ///
    /// # Safety
    ///
    /// `destroy(ptr)` must be safe to call exactly once at any later point on
    /// any thread, and the object must already be unreachable for new readers.
    #[inline]
    pub unsafe fn defer_unchecked(&self, ptr: *mut u8, destroy: unsafe fn(*mut u8)) {
        // SAFETY: forwarded contract.
        unsafe { self.local().defer(ptr, destroy) };
    }
}

impl Drop for Guard {
    #[inline]
    fn drop(&mut self) {
        Local::release_guard(self.local);
    }
}

impl std::fmt::Debug for Guard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Guard { .. }")
    }
}
