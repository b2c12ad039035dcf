//! Poison-free `Mutex`/`Condvar` over `std::sync`.
//!
//! The kernel deliberately panics while holding the scheduler lock (e.g. to
//! unblock process threads during shutdown), which would poison a plain
//! `std::sync::Mutex` and turn every later `lock()` into an error. These
//! wrappers recover the guard from a poisoned lock — the scheduler state is
//! still consistent at those points, and the first panic is re-raised by the
//! kernel anyway — and expose the `lock()`/`wait(&mut guard)` shape the rest
//! of the workspace uses.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;

/// Mutual exclusion without lock poisoning.
#[derive(Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Wrap `value` in a new mutex.
    pub fn new(value: T) -> Mutex<T> {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Acquire the lock, recovering from poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(PoisonError::into_inner)))
    }

    /// Consume the mutex and return its value, recovering from poisoning.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }

    /// Temporarily release `guard` — which must have been returned by
    /// `self.lock()` — while `f` runs, then re-acquire the lock in place
    /// before returning. Passing a guard that belongs to a different mutex
    /// would silently re-lock the wrong one; callers must not do that.
    pub fn unlocked<'a, U>(&'a self, guard: &mut MutexGuard<'a, T>, f: impl FnOnce() -> U) -> U {
        let inner = guard.0.take().expect("guard moved during wait");
        drop(inner);
        let r = f();
        guard.0 = Some(self.0.lock().unwrap_or_else(PoisonError::into_inner));
        r
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// Guard returned by [`Mutex::lock`].
///
/// The inner `Option` is an implementation detail of [`Condvar::wait`],
/// which must temporarily move the underlying `std` guard out; it is `Some`
/// at every other moment.
pub struct MutexGuard<'a, T>(Option<std::sync::MutexGuard<'a, T>>);

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0.as_ref().expect("guard moved during wait")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0.as_mut().expect("guard moved during wait")
    }
}

/// Condition variable operating on [`MutexGuard`] in place.
#[derive(Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    /// A new condition variable.
    pub fn new() -> Condvar {
        Condvar(std::sync::Condvar::new())
    }

    /// Atomically release the guard's lock and block until notified; the
    /// lock is re-acquired (in place) before returning.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.0.take().expect("guard moved during wait");
        guard.0 = Some(self.0.wait(inner).unwrap_or_else(PoisonError::into_inner));
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_round_trip() {
        let m = Mutex::new(5);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 6);
    }

    #[test]
    fn survives_poisoning() {
        let m = Arc::new(Mutex::new(0));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the lock");
        })
        .join();
        assert_eq!(*m.lock(), 0);
    }

    #[test]
    fn condvar_handoff() {
        let shared = Arc::new((Mutex::new(false), Condvar::new()));
        let s2 = shared.clone();
        let t = std::thread::spawn(move || {
            let (m, cv) = &*s2;
            let mut g = m.lock();
            while !*g {
                cv.wait(&mut g);
            }
        });
        {
            let (m, cv) = &*shared;
            *m.lock() = true;
            cv.notify_all();
        }
        t.join().unwrap();
    }
}
