//! Cooperative query cancellation.
//!
//! A [`CancelToken`] is a shared flag a consumer (a session, a network
//! connection's cancel frame, a dropped result stream) raises to stop a
//! running query. The execution paths observe it **at morsel boundaries**, and
//! a raised token ends a run exactly the way an unreadable cold block does —
//! as a value, [`crate::Error::Cancelled`], returned after every worker is
//! joined:
//!
//! * morsel workers — the streaming scan's ([`crate::morsel::drive_streaming`])
//!   and a fused aggregate's ([`crate::morsel::drive_pipeline`]) run one claim
//!   loop — check the token at every morsel claim; streaming workers also at
//!   every channel push, and their consumer at every pull. Whoever sees it
//!   first records `Cancelled` as the run's outcome, which stops the others and
//!   wakes a consumer parked on the channel;
//! * a one-worker [`crate::scan::RelationScanner`] checks it before each morsel
//!   it scans, and [`crate::ScanOp`] reports a scan the token stopped as
//!   `Err(Cancelled)`;
//! * every operator above passes the error up with `?`.
//!
//! The token travels implicitly: the driving thread wraps each pull in
//! [`scoped`], which installs the token in a thread-local slot for the
//! duration of the call; the spawn sites inside this crate capture the
//! current token with [`current`] and hand clones to their workers. Code that
//! never installs a token (the plain [`crate::ops::collect_operator`] path)
//! is unaffected — [`current`] is simply `None` and every check is a no-op.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared cancellation flag: cloned freely, raised once, observed
/// cooperatively at morsel boundaries. Raising it is idempotent and
/// thread-safe; [`CancelToken::reset`] re-arms the token for the next query
/// on the same session.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-raised token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Raise the flag: every execution path holding a clone stops at its next
    /// morsel boundary.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Has the flag been raised?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    /// Lower the flag again (a session re-arms its token when a new query
    /// starts, so a cancel aimed at a finished query does not poison the next
    /// one).
    pub fn reset(&self) {
        self.flag.store(false, Ordering::Release);
    }
}

thread_local! {
    static CURRENT: RefCell<Option<CancelToken>> = const { RefCell::new(None) };
}

/// Run `f` with `token` installed as the calling thread's current cancel
/// token; the previous token (usually none) is restored afterwards, panic or
/// not. The execution paths entered from inside `f` pick the token up via
/// [`current`].
pub fn scoped<R>(token: &CancelToken, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<CancelToken>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT.with(|cell| *cell.borrow_mut() = self.0.take());
        }
    }
    let previous = CURRENT.with(|cell| cell.borrow_mut().replace(token.clone()));
    let _restore = Restore(previous);
    f()
}

/// The calling thread's current cancel token, if one is installed ([`scoped`]
/// is in effect somewhere up the stack).
pub fn current() -> Option<CancelToken> {
    CURRENT.with(|cell| cell.borrow().clone())
}

/// Is the calling thread's current token (if any) raised?
pub fn current_is_cancelled() -> bool {
    CURRENT.with(|cell| {
        cell.borrow()
            .as_ref()
            .map(CancelToken::is_cancelled)
            .unwrap_or(false)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_raises_and_resets() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        token.clone().cancel();
        assert!(token.is_cancelled());
        token.reset();
        assert!(!token.is_cancelled());
    }

    #[test]
    fn scoped_installs_and_restores() {
        assert!(current().is_none());
        let token = CancelToken::new();
        scoped(&token, || {
            assert!(current().is_some());
            assert!(!current_is_cancelled());
            token.cancel();
            assert!(current_is_cancelled());
        });
        assert!(current().is_none());
        // Without a scope every check is a no-op.
        assert!(!current_is_cancelled());
    }

    #[test]
    fn scoped_restores_across_panics() {
        let token = CancelToken::new();
        let result = std::panic::catch_unwind(|| scoped(&token, || panic!("boom")));
        assert!(result.is_err());
        assert!(current().is_none());
    }
}
