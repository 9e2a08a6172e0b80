//! Runs a property's cases on one spawned thread, so that a case that hangs
//! fails the test instead of stalling the suite.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// Runs `body` on its own thread. The body calls `announce` with a label
/// before each case; if it panics, or a case runs longer than `deadline`,
/// this panics naming the case (the thread's own panic message is printed
/// above that).
pub fn run_cases<F>(deadline: Duration, body: F)
where
    F: FnOnce(&dyn Fn(String)) + Send + 'static,
{
    let (tx, rx) = mpsc::channel::<Option<String>>();
    std::thread::spawn(move || {
        body(&|label| tx.send(Some(label)).expect("the watchdog outlives its cases"));
        tx.send(None).expect("the watchdog outlives its cases");
    });
    let mut case = String::from("(before the first case)");
    loop {
        match rx.recv_timeout(deadline) {
            Ok(Some(label)) => case = label,
            Ok(None) => return,
            Err(RecvTimeoutError::Disconnected) => panic!("panicked on case {case}"),
            Err(RecvTimeoutError::Timeout) => panic!("case {case} ran past {deadline:?}"),
        }
    }
}
