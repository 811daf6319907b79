//! Helpers shared by the integration suites of this crate.

/// Run `body` on its own thread and fail — instead of hanging the
/// suite — when it has not returned within a minute.
pub fn within_a_minute<T: Send + 'static>(body: impl FnOnce() -> T + Send + 'static) -> T {
    use std::sync::mpsc::{channel, RecvTimeoutError};
    let (tx, rx) = channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(body());
    });
    match rx.recv_timeout(std::time::Duration::from_secs(60)) {
        Ok(value) => value,
        Err(RecvTimeoutError::Timeout) => panic!("watchdog: the pipeline is wedged"),
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().expect_err("the body dropped its sender"))
        }
    }
}
