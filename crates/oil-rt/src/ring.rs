//! Lock-free bounded single-producer/single-consumer ring buffers.
//!
//! The parallel engines' value streams flow through these rings: one per
//! buffer of the runtime graph (capacity from CTA buffer sizing). The
//! implementation is the classic
//! Lamport ring: a power-free array indexed by two monotonically increasing
//! counters, where the producer only writes `tail` and the consumer only
//! writes `head`, so a release store on one side paired with an acquire load
//! on the other is the entire synchronisation protocol of the lock-free
//! `push`/`pop` fast path — no locks, no CAS.
//!
//! Endpoints that must *wait* for the other side use [`Producer::push_wait`]
//! / [`Consumer::pop_wait`]: a bounded spin (cheap when the other side is
//! actively running), then a bounded run of `yield_now` (oversubscribed
//! machines), then a park/unpark handshake — a parked waiter costs the
//! opposite endpoint one atomic load per operation, and an idle wait burns
//! no CPU, unlike the unbounded `yield_now` loops these paths replace.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::Thread;
use std::time::Duration;

/// Iterations of the hot spin phase of a blocking wait.
pub const WAIT_SPINS: usize = 64;
/// Iterations of the `yield_now` phase of a blocking wait before parking.
pub const WAIT_YIELDS: usize = 16;
/// Upper bound of one park in a blocking wait. The wake protocol unparks
/// eagerly; the timeout only bounds the latency of a missed `abort` signal.
const WAIT_PARK: Duration = Duration::from_micros(200);

/// Blocked-path statistics of one ring endpoint, filled by
/// [`Producer::push_wait_observed`] / [`Consumer::pop_wait_observed`]
/// when tracing is on (`oil_rt::trace`). The unblocked fast path never
/// touches these — a wait is counted only after the lock-free push/pop
/// has already failed once, and the clock is read only on that cold path,
/// so observation cannot perturb an uncongested ring.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaitStats {
    /// Operations that entered the blocked path at all.
    pub waits: u64,
    /// `yield_now` calls taken after the spin phase was exhausted.
    pub spin_yields: u64,
    /// `park_timeout` calls taken after the yield phase was exhausted.
    pub parks: u64,
    /// Total nanoseconds spent blocked (from first failure to success or
    /// abort).
    pub wait_ns: u64,
}

/// A registered parked thread waiting for the opposite endpoint to make
/// room/data. `engaged` is the fast-path gate: the opposite endpoint pays
/// one relaxed-ish atomic load per operation while nobody waits, and takes
/// the mutex only to hand the wakeup over.
#[derive(Default)]
struct Waiter {
    engaged: AtomicBool,
    thread: Mutex<Option<Thread>>,
}

impl Waiter {
    /// Register the current thread. Must be followed by a re-check of the
    /// ring state before parking: a wake between the re-check and the park
    /// leaves the park token set, so the park returns immediately.
    fn register(&self) {
        *self.thread.lock().expect("ring waiter poisoned") = Some(std::thread::current());
        self.engaged.store(true, Ordering::SeqCst);
    }

    fn unregister(&self) {
        self.engaged.store(false, Ordering::SeqCst);
        self.thread.lock().expect("ring waiter poisoned").take();
    }

    /// Wake the registered thread, if any.
    fn wake(&self) {
        if self.engaged.load(Ordering::SeqCst) {
            if let Some(t) = self.thread.lock().expect("ring waiter poisoned").take() {
                self.engaged.store(false, Ordering::SeqCst);
                t.unpark();
            }
        }
    }
}

struct Inner<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Next slot to pop (only advanced by the consumer).
    head: AtomicUsize,
    /// Next slot to push (only advanced by the producer).
    tail: AtomicUsize,
    /// A consumer parked in [`Consumer::pop_wait`], woken by a push.
    pop_waiter: Waiter,
    /// A producer parked in [`Producer::push_wait`], woken by a pop.
    push_waiter: Waiter,
}

// Safety: the producer/consumer split guarantees each slot is accessed by at
// most one thread at a time: a slot is written by the producer strictly
// before the tail release-store that publishes it, and read by the consumer
// strictly before the head release-store that retires it.
unsafe impl<T: Send> Sync for Inner<T> {}
unsafe impl<T: Send> Send for Inner<T> {}

/// Create a bounded SPSC ring of the given capacity, returning the two
/// endpoint handles. Each handle can move to (at most) one thread.
///
/// # Panics
/// Panics if `capacity` is zero.
pub fn spsc<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    assert!(capacity > 0, "an SPSC ring needs at least one slot");
    let inner = Arc::new(Inner {
        buf: (0..capacity)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect(),
        head: AtomicUsize::new(0),
        tail: AtomicUsize::new(0),
        pop_waiter: Waiter::default(),
        push_waiter: Waiter::default(),
    });
    (
        Producer {
            inner: Arc::clone(&inner),
        },
        Consumer { inner },
    )
}

/// The producing endpoint of an SPSC ring.
pub struct Producer<T> {
    inner: Arc<Inner<T>>,
}

/// The consuming endpoint of an SPSC ring.
pub struct Consumer<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Producer<T> {
    /// Push a value, or hand it back if the ring is full.
    pub fn push(&mut self, value: T) -> Result<(), T> {
        let tail = self.inner.tail.load(Ordering::Relaxed);
        let head = self.inner.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) == self.inner.buf.len() {
            return Err(value);
        }
        let slot = &self.inner.buf[tail % self.inner.buf.len()];
        // Safety: the slot is unpublished (tail not yet advanced), so the
        // consumer cannot touch it.
        unsafe { (*slot.get()).write(value) };
        self.inner
            .tail
            .store(tail.wrapping_add(1), Ordering::Release);
        self.inner.pop_waiter.wake();
        Ok(())
    }

    /// Push a value, waiting for space: a bounded spin, then a bounded run
    /// of `yield_now`, then park until the consumer pops (or the park
    /// timeout re-checks `abort`). Returns the value if `abort` turned true
    /// while the ring was still full — the wait never spins unboundedly on
    /// a consumer that is gone.
    pub fn push_wait(&mut self, value: T, abort: impl FnMut() -> bool) -> Result<(), T> {
        self.push_wait_observed(value, abort, None)
    }

    /// [`Self::push_wait`] with blocked-path telemetry: when `stats` is
    /// given, the wait is counted and timed into it. The clock is read
    /// only after the lock-free fast path has already failed, so the
    /// unblocked path pays nothing beyond the `Option` test.
    pub fn push_wait_observed(
        &mut self,
        value: T,
        mut abort: impl FnMut() -> bool,
        mut stats: Option<&mut WaitStats>,
    ) -> Result<(), T> {
        let mut value = match self.push(value) {
            Ok(()) => return Ok(()),
            Err(back) => back,
        };
        let t0 = stats.as_ref().map(|_| std::time::Instant::now());
        if let Some(s) = stats.as_deref_mut() {
            s.waits += 1;
        }
        let settle = |stats: Option<&mut WaitStats>| {
            if let (Some(s), Some(t0)) = (stats, t0) {
                s.wait_ns += t0.elapsed().as_nanos() as u64;
            }
        };
        for _ in 0..WAIT_SPINS {
            match self.push(value) {
                Ok(()) => {
                    settle(stats);
                    return Ok(());
                }
                Err(back) => value = back,
            }
            std::hint::spin_loop();
        }
        for _ in 0..WAIT_YIELDS {
            match self.push(value) {
                Ok(()) => {
                    settle(stats);
                    return Ok(());
                }
                Err(back) => value = back,
            }
            if abort() {
                settle(stats);
                return Err(value);
            }
            if let Some(s) = stats.as_deref_mut() {
                s.spin_yields += 1;
            }
            std::thread::yield_now();
        }
        loop {
            self.inner.push_waiter.register();
            // Re-check after registering: a pop between the failed push and
            // the registration would otherwise be a lost wakeup.
            match self.push(value) {
                Ok(()) => {
                    self.inner.push_waiter.unregister();
                    settle(stats);
                    return Ok(());
                }
                Err(back) => value = back,
            }
            if abort() {
                self.inner.push_waiter.unregister();
                settle(stats);
                return Err(value);
            }
            if let Some(s) = stats.as_deref_mut() {
                s.parks += 1;
            }
            std::thread::park_timeout(WAIT_PARK);
            self.inner.push_waiter.unregister();
        }
    }

    /// Number of values currently in the ring.
    pub fn len(&self) -> usize {
        self.inner
            .tail
            .load(Ordering::Relaxed)
            .wrapping_sub(self.inner.head.load(Ordering::Acquire))
    }

    /// True when no value is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ring's capacity.
    pub fn capacity(&self) -> usize {
        self.inner.buf.len()
    }

    /// Free slots remaining.
    pub fn space(&self) -> usize {
        self.capacity() - self.len()
    }
}

impl<T> Consumer<T> {
    /// Pop the oldest value, or `None` when the ring is empty.
    pub fn pop(&mut self) -> Option<T> {
        let head = self.inner.head.load(Ordering::Relaxed);
        let tail = self.inner.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        let slot = &self.inner.buf[head % self.inner.buf.len()];
        // Safety: the slot is published (head < tail) and not yet retired,
        // so the producer cannot touch it.
        let value = unsafe { (*slot.get()).assume_init_read() };
        self.inner
            .head
            .store(head.wrapping_add(1), Ordering::Release);
        self.inner.push_waiter.wake();
        Some(value)
    }

    /// Pop a value, waiting for one to arrive: a bounded spin, then a
    /// bounded run of `yield_now`, then park until the producer pushes (or
    /// the park timeout re-checks `abort`). Returns `None` only when
    /// `abort` turned true while the ring was still empty.
    pub fn pop_wait(&mut self, abort: impl FnMut() -> bool) -> Option<T> {
        self.pop_wait_observed(abort, None)
    }

    /// [`Self::pop_wait`] with blocked-path telemetry: when `stats` is
    /// given, the wait is counted and timed into it. The clock is read
    /// only after the lock-free fast path has already failed.
    pub fn pop_wait_observed(
        &mut self,
        mut abort: impl FnMut() -> bool,
        mut stats: Option<&mut WaitStats>,
    ) -> Option<T> {
        if let Some(v) = self.pop() {
            return Some(v);
        }
        let t0 = stats.as_ref().map(|_| std::time::Instant::now());
        if let Some(s) = stats.as_deref_mut() {
            s.waits += 1;
        }
        let settle = |stats: Option<&mut WaitStats>| {
            if let (Some(s), Some(t0)) = (stats, t0) {
                s.wait_ns += t0.elapsed().as_nanos() as u64;
            }
        };
        for _ in 0..WAIT_SPINS {
            if let Some(v) = self.pop() {
                settle(stats);
                return Some(v);
            }
            std::hint::spin_loop();
        }
        for _ in 0..WAIT_YIELDS {
            if let Some(v) = self.pop() {
                settle(stats);
                return Some(v);
            }
            if abort() {
                settle(stats);
                return None;
            }
            if let Some(s) = stats.as_deref_mut() {
                s.spin_yields += 1;
            }
            std::thread::yield_now();
        }
        loop {
            self.inner.pop_waiter.register();
            // Re-check after registering: a push between the failed pop and
            // the registration would otherwise be a lost wakeup.
            if let Some(v) = self.pop() {
                self.inner.pop_waiter.unregister();
                settle(stats);
                return Some(v);
            }
            if abort() {
                self.inner.pop_waiter.unregister();
                settle(stats);
                return None;
            }
            if let Some(s) = stats.as_deref_mut() {
                s.parks += 1;
            }
            std::thread::park_timeout(WAIT_PARK);
            self.inner.pop_waiter.unregister();
        }
    }

    /// Number of values currently in the ring.
    pub fn len(&self) -> usize {
        self.inner
            .tail
            .load(Ordering::Acquire)
            .wrapping_sub(self.inner.head.load(Ordering::Relaxed))
    }

    /// True when no value is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ring's capacity.
    pub fn capacity(&self) -> usize {
        self.inner.buf.len()
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        // Drain remaining values so their destructors run. The producer may
        // still push afterwards; those values leak their destructor only if
        // T needs Drop and the producer outlives the consumer — the runtime
        // always drops producers first, and the value types it uses are
        // Copy anyway.
        while self.pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_order_and_capacity_bound() {
        let (mut tx, mut rx) = spsc::<u32>(4);
        assert!(rx.pop().is_none());
        for i in 0..4 {
            tx.push(i).unwrap();
        }
        assert_eq!(tx.push(99), Err(99), "full ring must reject");
        assert_eq!(tx.len(), 4);
        assert_eq!(tx.space(), 0);
        for i in 0..4 {
            assert_eq!(rx.pop(), Some(i));
        }
        assert!(rx.is_empty());
    }

    #[test]
    fn wraparound_preserves_order() {
        let (mut tx, mut rx) = spsc::<usize>(3);
        for round in 0..100 {
            tx.push(2 * round).unwrap();
            tx.push(2 * round + 1).unwrap();
            assert_eq!(rx.pop(), Some(2 * round));
            assert_eq!(rx.pop(), Some(2 * round + 1));
        }
    }

    #[test]
    fn cross_thread_transfer_is_lossless_and_ordered() {
        const N: u64 = 200_000;
        let (mut tx, mut rx) = spsc::<u64>(64);
        let producer = thread::spawn(move || {
            for i in 0..N {
                let mut v = i;
                loop {
                    match tx.push(v) {
                        Ok(()) => break,
                        Err(back) => {
                            v = back;
                            std::hint::spin_loop();
                        }
                    }
                }
            }
        });
        let mut expected = 0u64;
        while expected < N {
            if let Some(v) = rx.pop() {
                assert_eq!(v, expected, "values must arrive in push order");
                expected += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        producer.join().unwrap();
        assert!(rx.pop().is_none());
    }

    #[test]
    fn blocking_waits_transfer_without_burning_cpu() {
        const N: u64 = 50_000;
        let (mut tx, mut rx) = spsc::<u64>(8);
        let producer = thread::spawn(move || {
            for i in 0..N {
                tx.push_wait(i, || false).expect("never aborted");
            }
        });
        for expected in 0..N {
            assert_eq!(rx.pop_wait(|| false), Some(expected));
        }
        producer.join().unwrap();
        assert!(rx.pop().is_none());
    }

    #[test]
    fn parked_consumer_is_woken_by_a_late_push() {
        let (mut tx, mut rx) = spsc::<u32>(2);
        let consumer = thread::spawn(move || rx.pop_wait(|| false));
        // Sleep well past the spin+yield phases so the consumer parks.
        thread::sleep(std::time::Duration::from_millis(50));
        tx.push(7).unwrap();
        assert_eq!(consumer.join().unwrap(), Some(7));
    }

    #[test]
    fn parked_producer_is_woken_by_a_late_pop() {
        let (mut tx, mut rx) = spsc::<u32>(1);
        tx.push(1).unwrap();
        let producer = thread::spawn(move || tx.push_wait(2, || false));
        thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(rx.pop(), Some(1));
        assert!(producer.join().unwrap().is_ok());
        assert_eq!(rx.pop(), Some(2));
    }

    #[test]
    fn aborted_waits_hand_the_state_back() {
        use std::sync::atomic::AtomicBool;
        let (mut tx, mut rx) = spsc::<u32>(1);
        assert_eq!(rx.pop_wait(|| true), None, "empty + aborted");
        tx.push(1).unwrap();
        assert_eq!(tx.push_wait(2, || true), Err(2), "full + aborted");
        // An abort flag that flips while parked is honoured promptly.
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let consumer = thread::spawn(move || {
            let mut rx = rx;
            rx.pop();
            rx.pop_wait(move || stop2.load(Ordering::SeqCst))
        });
        thread::sleep(std::time::Duration::from_millis(30));
        stop.store(true, Ordering::SeqCst);
        assert_eq!(consumer.join().unwrap(), None);
    }

    #[test]
    fn observed_waits_count_only_the_blocked_path() {
        let (mut tx, mut rx) = spsc::<u32>(2);
        let mut stats = WaitStats::default();
        // Uncongested pushes and pops never touch the statistics.
        tx.push_wait_observed(1, || false, Some(&mut stats))
            .unwrap();
        assert_eq!(rx.pop_wait_observed(|| false, Some(&mut stats)), Some(1));
        assert_eq!(stats, WaitStats::default());
        // A blocked push against a full ring is counted and timed.
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        assert_eq!(tx.push_wait_observed(3, || true, Some(&mut stats)), Err(3));
        assert_eq!(stats.waits, 1);
        // A parked consumer woken by a late push accumulates yields/parks.
        let mut stats = WaitStats::default();
        let consumer = thread::spawn(move || {
            rx.pop();
            rx.pop();
            let v = rx.pop_wait_observed(|| false, Some(&mut stats));
            (v, stats)
        });
        thread::sleep(std::time::Duration::from_millis(50));
        tx.push(9).unwrap();
        let (v, stats) = consumer.join().unwrap();
        assert_eq!(v, Some(9));
        assert_eq!(stats.waits, 1);
        assert!(stats.parks > 0, "a 50ms stall must reach the park phase");
        assert!(stats.wait_ns > 0);
    }

    #[test]
    fn drop_runs_destructors_of_buffered_values() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct Tracked;
        impl Drop for Tracked {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (mut tx, rx) = spsc::<Tracked>(8);
        for _ in 0..5 {
            tx.push(Tracked).unwrap();
        }
        drop(tx);
        drop(rx);
        assert_eq!(DROPS.load(Ordering::SeqCst), 5);
    }
}
