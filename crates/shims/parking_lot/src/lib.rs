//! Offline shim for `parking_lot`, backed by `std::sync`.
//!
//! The build environment has no crates.io access, so this crate provides
//! the subset of the `parking_lot` API the workspace uses: `Mutex` and
//! `RwLock` whose lock methods return guards directly (no poisoning —
//! a poisoned std lock is recovered transparently, matching parking_lot's
//! semantics of never poisoning), and a `Condvar` that waits on a
//! `&mut MutexGuard` in place.

use std::ops::{Deref, DerefMut};
use std::sync::{self, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

#[derive(Default, Debug)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

/// A held [`Mutex`]. Wraps the std guard in an `Option` so a [`Condvar`]
/// can move it out and back while the caller keeps its `&mut`; it is
/// `None` only inside a wait.
pub struct MutexGuard<'a, T: ?Sized>(Option<sync::MutexGuard<'a, T>>);

impl<T> Mutex<T> {
    pub fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(|e| e.into_inner())))
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(MutexGuard(Some(g))),
            Err(sync::TryLockError::Poisoned(e)) => Some(MutexGuard(Some(e.into_inner()))),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        match &self.0 {
            Some(g) => g,
            None => unreachable!("guard is only vacated inside Condvar::wait"),
        }
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match &mut self.0 {
            Some(g) => g,
            None => unreachable!("guard is only vacated inside Condvar::wait"),
        }
    }
}

#[derive(Default, Debug)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    pub fn new() -> Self {
        Condvar(sync::Condvar::new())
    }

    /// Release the guard's lock, block until notified, and re-acquire it.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let Some(g) = guard.0.take() else {
            unreachable!("guard is only vacated inside Condvar::wait")
        };
        guard.0 = Some(self.0.wait(g).unwrap_or_else(|e| e.into_inner()));
    }

    /// [`Condvar::wait`], giving up after `timeout`.
    pub fn wait_for<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: Duration) {
        let Some(g) = guard.0.take() else {
            unreachable!("guard is only vacated inside Condvar::wait")
        };
        let (g, _) = (self.0.wait_timeout(g, timeout)).unwrap_or_else(|e| e.into_inner());
        guard.0 = Some(g);
    }

    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

#[derive(Default, Debug)]
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

impl<T> RwLock<T> {
    pub fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(|e| e.into_inner())
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(|e| e.into_inner())
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn condvar_hands_the_guard_back_after_wait() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let other = pair.clone();
        let t = std::thread::spawn(move || {
            *other.0.lock() = true;
            other.1.notify_all();
        });
        let mut ready = pair.0.lock();
        while !*ready {
            pair.1.wait(&mut ready);
        }
        drop(ready);
        t.join().unwrap();
        let mut g = pair.0.lock();
        pair.1.wait_for(&mut g, Duration::from_millis(1));
        assert!(*g, "guard still reads the protected value after a timeout");
    }
}
