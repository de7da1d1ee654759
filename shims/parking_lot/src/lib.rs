//! Offline shim for the `parking_lot` API subset used by this workspace.
//!
//! Wraps `std::sync` primitives and strips lock poisoning, matching
//! `parking_lot` semantics: a panic while holding a lock does not poison
//! it for later holders.
//!
//! With the `check-sync` cargo feature the shim becomes the workspace's
//! dynamic lock-order and race checker (see the `sync_check` module): every
//! acquisition is recorded into a global lock-order graph with eager
//! cycle detection, contention and hold-time accounting, and a
//! monotonic-write witness for broker append invariants. With the
//! feature off (the default) none of that code exists — the lock paths
//! compile to the plain `std::sync` wrappers below.

#[cfg(feature = "check-sync")]
mod check;

/// Public checker API (`check-sync` builds only).
#[cfg(feature = "check-sync")]
pub mod sync_check {
    pub use crate::check::{
        assert_clean, contention, long_holds, report, reset, set_long_hold_threshold_micros,
        take_violations, violations, witness_monotonic, ContentionStat, LongHold, Violation,
    };
}

use std::sync;

#[cfg(not(feature = "check-sync"))]
use std::sync::{MutexGuard as StdMutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// A mutual-exclusion lock without poisoning.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    #[cfg(feature = "check-sync")]
    meta: check::LockMeta,
    inner: sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            #[cfg(feature = "check-sync")]
            meta: check::LockMeta::new(),
            inner: sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until it is available.
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(feature = "check-sync")]
        {
            let id = self.meta.resolve(std::panic::Location::caller());
            let inner = match self.inner.try_lock() {
                Ok(guard) => guard,
                Err(sync::TryLockError::Poisoned(e)) => e.into_inner(),
                Err(sync::TryLockError::WouldBlock) => {
                    check::note_contended(id);
                    self.inner
                        .lock()
                        .unwrap_or_else(sync::PoisonError::into_inner)
                }
            };
            MutexGuard {
                token: check::on_acquired(id),
                inner: Some(inner),
            }
        }
        #[cfg(not(feature = "check-sync"))]
        self.inner
            .lock()
            .unwrap_or_else(sync::PoisonError::into_inner)
    }

    /// Attempts to acquire the lock without blocking.
    #[track_caller]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        #[cfg(feature = "check-sync")]
        {
            let id = self.meta.resolve(std::panic::Location::caller());
            let inner = match self.inner.try_lock() {
                Ok(guard) => guard,
                Err(sync::TryLockError::Poisoned(e)) => e.into_inner(),
                Err(sync::TryLockError::WouldBlock) => return None,
            };
            Some(MutexGuard {
                token: check::on_acquired(id),
                inner: Some(inner),
            })
        }
        #[cfg(not(feature = "check-sync"))]
        match self.inner.try_lock() {
            Ok(guard) => Some(guard),
            Err(sync::TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner
            .get_mut()
            .unwrap_or_else(sync::PoisonError::into_inner)
    }
}

/// A reader-writer lock without poisoning.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    #[cfg(feature = "check-sync")]
    meta: check::LockMeta,
    inner: sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a lock holding `value`.
    pub const fn new(value: T) -> Self {
        RwLock {
            #[cfg(feature = "check-sync")]
            meta: check::LockMeta::new(),
            inner: sync::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access.
    #[track_caller]
    pub fn read(&self) -> ReadGuard<'_, T> {
        #[cfg(feature = "check-sync")]
        {
            let id = self.meta.resolve(std::panic::Location::caller());
            let inner = match self.inner.try_read() {
                Ok(guard) => guard,
                Err(sync::TryLockError::Poisoned(e)) => e.into_inner(),
                Err(sync::TryLockError::WouldBlock) => {
                    check::note_contended(id);
                    self.inner
                        .read()
                        .unwrap_or_else(sync::PoisonError::into_inner)
                }
            };
            ReadGuard {
                token: check::on_acquired(id),
                inner: Some(inner),
            }
        }
        #[cfg(not(feature = "check-sync"))]
        self.inner
            .read()
            .unwrap_or_else(sync::PoisonError::into_inner)
    }

    /// Attempts to acquire exclusive write access without blocking.
    #[track_caller]
    pub fn try_write(&self) -> Option<WriteGuard<'_, T>> {
        #[cfg(feature = "check-sync")]
        {
            let id = self.meta.resolve(std::panic::Location::caller());
            let inner = match self.inner.try_write() {
                Ok(guard) => guard,
                Err(sync::TryLockError::Poisoned(e)) => e.into_inner(),
                Err(sync::TryLockError::WouldBlock) => return None,
            };
            Some(WriteGuard {
                token: check::on_acquired(id),
                inner: Some(inner),
            })
        }
        #[cfg(not(feature = "check-sync"))]
        match self.inner.try_write() {
            Ok(guard) => Some(guard),
            Err(sync::TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Acquires exclusive write access.
    #[track_caller]
    pub fn write(&self) -> WriteGuard<'_, T> {
        #[cfg(feature = "check-sync")]
        {
            let id = self.meta.resolve(std::panic::Location::caller());
            let inner = match self.inner.try_write() {
                Ok(guard) => guard,
                Err(sync::TryLockError::Poisoned(e)) => e.into_inner(),
                Err(sync::TryLockError::WouldBlock) => {
                    check::note_contended(id);
                    self.inner
                        .write()
                        .unwrap_or_else(sync::PoisonError::into_inner)
                }
            };
            WriteGuard {
                token: check::on_acquired(id),
                inner: Some(inner),
            }
        }
        #[cfg(not(feature = "check-sync"))]
        self.inner
            .write()
            .unwrap_or_else(sync::PoisonError::into_inner)
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner
            .get_mut()
            .unwrap_or_else(sync::PoisonError::into_inner)
    }
}

// Guard types: plain `std::sync` guards normally, instrumented wrappers
// under `check-sync`.
#[cfg(not(feature = "check-sync"))]
pub type MutexGuard<'a, T> = StdMutexGuard<'a, T>;
#[cfg(not(feature = "check-sync"))]
pub type ReadGuard<'a, T> = RwLockReadGuard<'a, T>;
#[cfg(not(feature = "check-sync"))]
pub type WriteGuard<'a, T> = RwLockWriteGuard<'a, T>;

#[cfg(feature = "check-sync")]
macro_rules! instrumented_guard {
    ($name:ident, $std:ident $(, $mutability:ident)?) => {
        /// Instrumented guard: releases its hold record on drop.
        pub struct $name<'a, T: ?Sized> {
            token: check::HoldToken,
            /// `Some` until dropped or dissolved for a condvar wait.
            inner: Option<sync::$std<'a, T>>,
        }

        impl<T: ?Sized> std::ops::Deref for $name<'_, T> {
            type Target = T;
            fn deref(&self) -> &T {
                self.inner.as_ref().expect("guard accessed after dissolve")
            }
        }

        $(impl<T: ?Sized> std::ops::$mutability for $name<'_, T> {
            fn deref_mut(&mut self) -> &mut T {
                self.inner.as_mut().expect("guard accessed after dissolve")
            }
        })?

        impl<T: ?Sized> Drop for $name<'_, T> {
            fn drop(&mut self) {
                if self.inner.is_some() {
                    check::on_released(self.token);
                }
            }
        }
    };
}

#[cfg(feature = "check-sync")]
instrumented_guard!(MutexGuard, MutexGuard, DerefMut);
#[cfg(feature = "check-sync")]
instrumented_guard!(ReadGuard, RwLockReadGuard);
#[cfg(feature = "check-sync")]
instrumented_guard!(WriteGuard, RwLockWriteGuard, DerefMut);

/// A condition variable paired with [`Mutex`].
///
/// The wait API is by-value (std style) rather than `parking_lot`'s
/// in-place `&mut guard`, because the plain build's guards *are*
/// `std::sync` guards; `wait_timeout` returns `(guard, timed_out)`.
#[derive(Debug, Default)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    /// Creates a condition variable.
    pub const fn new() -> Self {
        Condvar(sync::Condvar::new())
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }

    /// Releases `guard`, blocks until notified, reacquires, and returns
    /// the guard.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        #[cfg(feature = "check-sync")]
        {
            let (token, inner) = dissolve(guard);
            check::on_released(token);
            let inner = self
                .0
                .wait(inner)
                .unwrap_or_else(sync::PoisonError::into_inner);
            MutexGuard {
                token: check::on_acquired(token.id()),
                inner: Some(inner),
            }
        }
        #[cfg(not(feature = "check-sync"))]
        self.0
            .wait(guard)
            .unwrap_or_else(sync::PoisonError::into_inner)
    }

    /// Like [`Condvar::wait`] with a timeout; the boolean is true when
    /// the wait timed out rather than being notified.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: std::time::Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        #[cfg(feature = "check-sync")]
        {
            let (token, inner) = dissolve(guard);
            check::on_released(token);
            let (inner, result) = self
                .0
                .wait_timeout(inner, timeout)
                .unwrap_or_else(sync::PoisonError::into_inner);
            (
                MutexGuard {
                    token: check::on_acquired(token.id()),
                    inner: Some(inner),
                },
                result.timed_out(),
            )
        }
        #[cfg(not(feature = "check-sync"))]
        {
            let (guard, result) = self
                .0
                .wait_timeout(guard, timeout)
                .unwrap_or_else(sync::PoisonError::into_inner);
            (guard, result.timed_out())
        }
    }
}

/// Splits an instrumented guard into its parts without running its
/// release bookkeeping (the condvar wait records that itself).
#[cfg(feature = "check-sync")]
fn dissolve<T: ?Sized>(
    mut guard: MutexGuard<'_, T>,
) -> (check::HoldToken, sync::MutexGuard<'_, T>) {
    let token = guard.token;
    let inner = guard.inner.take().expect("guard dissolved twice");
    (token, inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let l = RwLock::new(vec![1]);
        assert_eq!(l.read().len(), 1);
        l.write().push(2);
        assert_eq!(*l.read(), vec![1, 2]);
    }

    #[test]
    fn try_lock_reports_busy() {
        let m = Mutex::new(5);
        let held = m.lock();
        assert!(m.try_lock().is_none());
        drop(held);
        assert_eq!(m.try_lock().map(|g| *g), Some(5));
    }

    #[test]
    fn panic_does_not_poison() {
        let m = std::sync::Arc::new(Mutex::new(0));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison attempt");
        })
        .join();
        assert_eq!(*m.lock(), 0);
    }

    #[test]
    fn condvar_wait_timeout_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let guard = m.lock();
        let (_guard, timed_out) = cv.wait_timeout(guard, std::time::Duration::from_millis(1));
        assert!(timed_out);
    }

    #[test]
    fn condvar_notifies_waiter() {
        let shared = std::sync::Arc::new((Mutex::new(false), Condvar::new()));
        let shared2 = shared.clone();
        let waiter = std::thread::spawn(move || {
            let (lock, cv) = &*shared2;
            let mut guard = lock.lock();
            while !*guard {
                let (next, timed_out) = cv.wait_timeout(guard, std::time::Duration::from_secs(5));
                guard = next;
                if timed_out {
                    return false;
                }
            }
            true
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        {
            let (lock, cv) = &*shared;
            *lock.lock() = true;
            cv.notify_all();
        }
        assert!(waiter.join().unwrap());
    }
}
