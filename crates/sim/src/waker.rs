//! Wakers: one-shot (but reusable) signals connecting simulation events to
//! blocked threads.
//!
//! A waker's state is only ever mutated while holding the engine lock, so
//! the atomics below never race; they exist to make [`Waker`] `Sync`
//! without `unsafe`.

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

const IDLE: u8 = 0;
const WAITING: u8 = 1;
const SIGNALED: u8 = 2;

#[derive(Debug)]
pub(crate) struct WakerInner {
    state: AtomicU8,
    name: String,
}

/// A signal a simulated thread can block on and simulation events can
/// fire. Cloning shares the underlying signal.
#[derive(Clone)]
pub struct Waker {
    pub(crate) inner: Arc<WakerInner>,
}

impl Waker {
    /// Creates a fresh, unsignaled waker. The name shows up in deadlock
    /// diagnostics.
    pub fn new(name: impl Into<String>) -> Waker {
        Waker {
            inner: Arc::new(WakerInner {
                state: AtomicU8::new(IDLE),
                name: name.into(),
            }),
        }
    }

    /// Debug name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// True iff `other` is a clone of this waker (shares its signal).
    pub(crate) fn same_as(&self, other: &Waker) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// True if the waker has been signaled and not yet consumed.
    /// (Engine-lock protected in practice; safe to read anywhere.)
    pub fn is_signaled(&self) -> bool {
        self.inner.state.load(Ordering::Acquire) == SIGNALED
    }

    // --- engine-lock-protected transitions -------------------------------

    /// Marks the owner as waiting; returns `true` if the waker was already
    /// signaled (in which case it is consumed and the caller must not
    /// block).
    pub(crate) fn begin_wait(&self) -> bool {
        match self.inner.state.load(Ordering::Acquire) {
            SIGNALED => {
                self.inner.state.store(IDLE, Ordering::Release);
                true
            }
            _ => {
                self.inner.state.store(WAITING, Ordering::Release);
                false
            }
        }
    }

    /// Consumes a signal delivered while waiting; returns `true` if the
    /// wait is over.
    pub(crate) fn try_consume(&self) -> bool {
        if self.inner.state.load(Ordering::Acquire) == SIGNALED {
            self.inner.state.store(IDLE, Ordering::Release);
            true
        } else {
            false
        }
    }

    /// Fires the signal; returns `true` if the owner was blocked on it
    /// (the caller must then decrement the engine's blocked count).
    pub(crate) fn fire(&self) -> bool {
        let was = self.inner.state.swap(SIGNALED, Ordering::AcqRel);
        was == WAITING
    }
}

impl fmt::Debug for Waker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Waker")
            .field("name", &self.inner.name)
            .field("state", &self.inner.state.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fire_then_wait_consumes_immediately() {
        let w = Waker::new("t");
        assert!(!w.fire(), "owner was not waiting");
        assert!(w.is_signaled());
        assert!(w.begin_wait(), "pre-signaled wait returns immediately");
        assert!(!w.is_signaled(), "signal consumed");
    }

    #[test]
    fn wait_then_fire_reports_blocked_owner() {
        let w = Waker::new("t");
        assert!(!w.begin_wait());
        assert!(w.fire(), "owner was waiting");
        assert!(w.try_consume());
        assert!(!w.try_consume(), "signal is one-shot");
    }

    #[test]
    fn double_fire_is_idempotent() {
        let w = Waker::new("t");
        w.begin_wait();
        assert!(w.fire());
        assert!(!w.fire(), "second fire must not double-decrement");
    }

    #[test]
    fn waker_is_reusable_after_consumption() {
        let w = Waker::new("t");
        w.fire();
        assert!(w.begin_wait());
        assert!(!w.begin_wait(), "fresh wait blocks again");
        assert!(w.fire());
        assert!(w.try_consume());
    }

    #[test]
    fn clones_share_state() {
        let w = Waker::new("t");
        let w2 = w.clone();
        w.fire();
        assert!(w2.is_signaled());
        assert_eq!(w2.name(), "t");
    }
}
