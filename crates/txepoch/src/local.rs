//! Per-thread epoch state: the local handle and its garbage bags.

use std::cell::{Cell, UnsafeCell};
use std::marker::PhantomData;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::collector::{Inner, Participant};
use crate::deferred::Deferred;
use crate::guard::Guard;
use crate::{COLLECT_THRESHOLD, EPOCH_CLASSES};

/// Heap-allocated per-thread state, owned by its one [`LocalHandle`] and by
/// every live [`Guard`].
///
/// Guards hold a raw pointer and a count rather than a borrow of the
/// handle: pins nest around calls that take the thread mutably (a batch
/// pins once and runs every operation, each pinning again, through
/// `&mut S::Thread`), so a guard cannot borrow the handle the thread owns.
/// The `Local` dies when its handle is gone and the last guard drops.
pub(crate) struct Local {
    pub(crate) inner: Arc<Inner>,
    participant: *const Participant,
    /// Garbage bags indexed by `epoch % EPOCH_CLASSES`.
    bags: UnsafeCell<[Vec<Deferred>; EPOCH_CLASSES]>,
    /// The epoch in which the garbage currently held by each bag was retired.
    bag_epochs: UnsafeCell<[usize; EPOCH_CLASSES]>,
    /// Whether the `LocalHandle` owning this `Local` is still alive.
    handle_alive: Cell<bool>,
    /// Number of live `Guard`s pointing at this `Local`.
    guards: Cell<usize>,
    /// Objects retired since the last reclamation attempt.
    since_collect: Cell<usize>,
}

impl Local {
    pub(crate) fn new(inner: Arc<Inner>, participant: *const Participant) -> *const Local {
        Box::into_raw(Box::new(Local {
            inner,
            participant,
            bags: UnsafeCell::new(Default::default()),
            bag_epochs: UnsafeCell::new([0; EPOCH_CLASSES]),
            handle_alive: Cell::new(true),
            guards: Cell::new(0),
            since_collect: Cell::new(0),
        }))
    }

    #[inline]
    fn participant(&self) -> &Participant {
        // SAFETY: the participant record lives as long as `inner`, which we
        // hold an `Arc` to.
        unsafe { &*self.participant }
    }

    /// Enters a critical section (outermost pin announces the epoch).
    #[inline]
    pub(crate) fn pin(&self) {
        let guards = self.guards.get();
        self.guards.set(guards + 1);
        if guards == 0 {
            let epoch = self.inner.epoch.load(Ordering::SeqCst);
            self.participant().set_active(epoch);
        }
    }

    /// Leaves a critical section (outermost unpin clears the active flag).
    #[inline]
    pub(crate) fn unpin(&self) {
        let guards = self.guards.get();
        debug_assert!(guards > 0, "unpin without matching pin");
        self.guards.set(guards - 1);
        if guards == 1 {
            self.participant().set_inactive();
        }
    }

    /// Whether the thread currently holds at least one guard.
    pub(crate) fn is_pinned(&self) -> bool {
        self.guards.get() > 0
    }

    /// Retires an object, to be destroyed by `destroy` after a grace period.
    ///
    /// # Safety
    ///
    /// See [`Guard::defer_unchecked`].
    pub(crate) unsafe fn defer(&self, ptr: *mut u8, destroy: unsafe fn(*mut u8)) {
        debug_assert!(self.is_pinned(), "defer called while not pinned");
        // The grace period starts at the global epoch, not at this thread's
        // pin: while we stay pinned the global epoch may move one past ours,
        // and a reader pinned there can still reach the object.
        let epoch = self.inner.epoch.load(Ordering::SeqCst);
        let idx = epoch % EPOCH_CLASSES;
        // SAFETY: `bags`/`bag_epochs` are only touched from the owning thread
        // (`Local` is `!Sync`), so the unique access rule is upheld.
        let bags = unsafe { &mut *self.bags.get() };
        // SAFETY: as above — same owning-thread unique access.
        let bag_epochs = unsafe { &mut *self.bag_epochs.get() };

        // If the slot still holds garbage from an older epoch (== epoch - 3),
        // that garbage is at least two epochs old and can be freed now.
        if bag_epochs[idx] != epoch && !bags[idx].is_empty() {
            debug_assert!(epoch >= bag_epochs[idx] + EPOCH_CLASSES);
            Self::free_bag(&self.inner, &mut bags[idx]);
        }
        bag_epochs[idx] = epoch;
        // SAFETY: forwarded caller contract.
        bags[idx].push(unsafe { Deferred::new(ptr, destroy) });
        self.inner.retired.fetch_add(1, Ordering::Relaxed);

        let n = self.since_collect.get() + 1;
        self.since_collect.set(n);
        if n >= COLLECT_THRESHOLD {
            self.since_collect.set(0);
            self.collect();
        }
    }

    fn free_bag(inner: &Inner, bag: &mut Vec<Deferred>) {
        let n = bag.len();
        for d in bag.drain(..) {
            // SAFETY: the caller only invokes this once the bag's epoch is at
            // least two behind the global epoch.
            unsafe { d.execute() };
        }
        inner.reclaimed.fetch_add(n, Ordering::Relaxed);
    }

    /// Attempts to advance the epoch and free every reclaimable local bag.
    pub(crate) fn collect(&self) {
        let global = self.inner.try_advance();
        // SAFETY: unique access from the owning thread (see `defer`).
        let bags = unsafe { &mut *self.bags.get() };
        // SAFETY: as above — same owning-thread unique access.
        let bag_epochs = unsafe { &*self.bag_epochs.get() };
        for i in 0..EPOCH_CLASSES {
            if !bags[i].is_empty() && global >= bag_epochs[i] + 2 {
                Self::free_bag(&self.inner, &mut bags[i]);
            }
        }
        self.inner.collect_orphans(global);
    }

    /// Number of objects waiting in local bags (test/diagnostic aid).
    pub(crate) fn pending(&self) -> usize {
        // SAFETY: unique access from the owning thread.
        let bags = unsafe { &*self.bags.get() };
        bags.iter().map(Vec::len).sum()
    }

    /// Whether the `Local` must die: its handle is gone and no guard is
    /// left.
    #[inline]
    fn release(&self) -> bool {
        !self.handle_alive.get() && self.guards.get() == 0
    }

    pub(crate) fn release_handle(ptr: *const Local) {
        // SAFETY: `ptr` is valid: it is only freed below, once the handle is
        // gone and no guard is left, and the caller is the handle.
        let local = unsafe { &*ptr };
        local.handle_alive.set(false);
        if local.release() {
            // SAFETY: the handle is gone and no guard is left, so nothing
            // else points at this `Local`; it was allocated by
            // `Box::into_raw`.
            unsafe { Self::destroy(ptr) };
        }
    }

    #[inline]
    pub(crate) fn release_guard(ptr: *const Local) {
        // SAFETY: as above; the caller is a live guard.
        let local = unsafe { &*ptr };
        local.unpin();
        if local.release() {
            // SAFETY: see `release_handle`.
            unsafe { Self::destroy(ptr) };
        }
    }

    /// Frees the `Local`, handing any unreclaimed garbage to the collector.
    ///
    /// # Safety
    ///
    /// `ptr` must have no live handle or guard.
    unsafe fn destroy(ptr: *const Local) {
        // SAFETY: guaranteed by the caller.
        let local = unsafe { Box::from_raw(ptr.cast_mut()) };
        local.participant().set_inactive();
        {
            // SAFETY: no other reference to this `Local` exists any more.
            let bags = unsafe { &mut *local.bags.get() };
            // SAFETY: as above — no other reference to this `Local`.
            let bag_epochs = unsafe { &*local.bag_epochs.get() };
            let mut orphans = local.inner.orphans.lock().expect("poisoned orphan list");
            for (i, bag) in bags.iter_mut().enumerate() {
                for d in bag.drain(..) {
                    orphans.push((bag_epochs[i], d));
                }
            }
        }
        local.participant().in_use.store(false, Ordering::Release);
        // Give the collector a chance to free what we just handed over.
        let global = local.inner.try_advance();
        local.inner.collect_orphans(global);
    }
}

/// A per-thread handle onto a [`crate::Collector`].
///
/// The handle owns the thread's garbage bags; it is cheap to pin repeatedly.
/// Handles are `!Send` and `!Sync` — register one handle per thread.
pub struct LocalHandle {
    local: *const Local,
    _not_send: PhantomData<*mut ()>,
}

impl LocalHandle {
    pub(crate) fn new(local: *const Local) -> Self {
        Self {
            local,
            _not_send: PhantomData,
        }
    }

    #[inline]
    fn local(&self) -> &Local {
        // SAFETY: the handle holds one reference, so the `Local` is alive.
        unsafe { &*self.local }
    }

    /// Pins the current thread, returning a guard tied to this handle's
    /// lifetime by reference count (not by borrow).
    #[inline]
    pub fn pin(&self) -> Guard {
        self.local().pin();
        Guard::new(self.local)
    }

    /// Whether this thread currently holds at least one guard.
    #[inline]
    pub fn is_pinned(&self) -> bool {
        self.local().is_pinned()
    }

    /// Eagerly attempts to advance the epoch and reclaim local garbage.
    pub fn flush(&self) {
        self.local().collect();
    }

    /// Number of retired objects not yet reclaimed by this thread.
    pub fn pending(&self) -> usize {
        self.local().pending()
    }
}

impl Drop for LocalHandle {
    fn drop(&mut self) {
        Local::release_handle(self.local);
    }
}

impl std::fmt::Debug for LocalHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalHandle")
            .field("pinned", &self.is_pinned())
            .field("pending", &self.pending())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    use crate::{Collector, Guard, COLLECT_THRESHOLD};

    /// Counts its own drops.
    struct Flagged(Arc<AtomicUsize>);

    impl Drop for Flagged {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Retires a fresh box holding `value` under `guard`.
    fn retire<T>(guard: &Guard, value: T) {
        let p = Box::into_raw(Box::new(value));
        // SAFETY: freshly allocated, unreachable by others.
        unsafe { guard.defer_drop(p) };
    }

    #[test]
    fn nested_pins_are_counted() {
        let c = Collector::new();
        let h = c.register();
        let g1 = h.pin();
        let g2 = h.pin();
        assert!(h.is_pinned());
        drop(g1);
        assert!(h.is_pinned());
        drop(g2);
        assert!(!h.is_pinned());
    }

    #[test]
    fn flush_reclaims_after_grace_period() {
        let c = Collector::new();
        let h = c.register();
        {
            let g = h.pin();
            for _ in 0..10 {
                retire(&g, 0_u64);
            }
        }
        assert_eq!(h.pending(), 10);
        // Two flushes advance the epoch twice, making the garbage eligible.
        h.flush();
        h.flush();
        h.flush();
        assert_eq!(h.pending(), 0);
        assert_eq!(c.stats().reclaimed, 10);
    }

    /// A reader that pinned after the global epoch moved past the retiring
    /// thread's pin may hold the retired object: the grace period counts
    /// from the global epoch at retirement, not from the retirer's pin.
    #[test]
    fn garbage_outlives_readers_pinned_after_the_retirer() {
        let c = Collector::new();
        let (retirer, reader, bystander) = (c.register(), c.register(), c.register());
        let dropped = Arc::new(AtomicUsize::new(0));
        let retiring = retirer.pin();
        bystander.flush(); // epoch e -> e + 1: the retirer announced e
        let reading = reader.pin(); // at e + 1, could reach the object
        retire(&retiring, Flagged(Arc::clone(&dropped)));
        drop(retiring);
        for _ in 0..4 {
            bystander.flush();
            retirer.flush();
        }
        assert_eq!(dropped.load(Ordering::SeqCst), 0, "freed under a pin");
        drop(reading);
        for _ in 0..4 {
            bystander.flush();
            retirer.flush();
        }
        assert_eq!(dropped.load(Ordering::SeqCst), 1);
    }

    /// A reader's own retirements do not move its pin: the object another
    /// thread retired after the reader pinned outlives the reader's guard,
    /// however much the reader retires under it.
    #[test]
    fn garbage_outlives_a_reader_that_retires_under_its_pin() {
        let c = Collector::new();
        let (reader, retirer, bystander) = (c.register(), c.register(), c.register());
        let dropped = Arc::new(AtomicUsize::new(0));
        let reading = reader.pin();
        retire(&retirer.pin(), Flagged(Arc::clone(&dropped)));
        // Enough to make the reader collect while it is pinned.
        for _ in 0..COLLECT_THRESHOLD {
            retire(&reading, 0_u64);
        }
        for _ in 0..4 {
            retirer.flush();
            bystander.flush();
        }
        assert_eq!(
            dropped.load(Ordering::SeqCst),
            0,
            "freed under a live guard"
        );
        drop(reading);
        for _ in 0..4 {
            retirer.flush();
            bystander.flush();
        }
        assert_eq!(dropped.load(Ordering::SeqCst), 1);
    }

    /// However much a pinned thread retires, the global epoch moves at most
    /// one past its pin; its garbage is reclaimed once the pin ends.
    #[test]
    fn retiring_under_a_pin_moves_the_epoch_at_most_once() {
        let c = Collector::new();
        let h = c.register();
        let g = h.pin();
        let pinned = c.global_epoch();
        for _ in 0..4 * COLLECT_THRESHOLD {
            retire(&g, 0_u64);
            let global = c.global_epoch();
            assert!(
                global <= pinned + 1,
                "epoch {global} under a pin at {pinned}"
            );
        }
        drop(g);
        h.flush();
        h.flush();
        h.flush();
        assert_eq!(h.pending(), 0);
        assert_eq!(c.stats().reclaimed, 4 * COLLECT_THRESHOLD);
    }

    #[test]
    fn dropping_handle_hands_garbage_to_collector() {
        let c = Collector::new();
        let h = c.register();
        retire(&h.pin(), [0_u8; 32]);
        drop(h);
        // The garbage either got reclaimed on handle drop or sits in the
        // orphan list; dropping the collector must free it (checked by Miri /
        // LeakSanitizer-style tests and by the retired/reclaimed counters).
        let stats = c.stats();
        assert_eq!(stats.retired, 1);
        drop(c);
    }
}
