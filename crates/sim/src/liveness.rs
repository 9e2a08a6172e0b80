//! Pins every root `clippy.toml` entry live. Compiled only under
//! `cargo clippy` (`cfg(clippy)`), never built or run: each function uses
//! one banned item under an `#[expect]`, so deleting that entry from
//! `clippy.toml` fails the clippy job with "this lint expectation is
//! unfulfilled" — the determinism gate cannot be emptied silently.
#![allow(dead_code)]

#[expect(clippy::disallowed_methods)]
fn instant_now() {
    let _ = std::time::Instant::now();
}

#[expect(clippy::disallowed_methods, clippy::disallowed_types)]
fn system_time_now() {
    let _ = std::time::SystemTime::now();
}

#[expect(clippy::disallowed_methods)]
fn thread_sleep() {
    std::thread::sleep(std::time::Duration::ZERO);
}

#[expect(clippy::disallowed_methods)]
fn process_id() {
    let _ = std::process::id();
}

#[expect(clippy::disallowed_methods)]
fn env_var() {
    let _ = std::env::var("X");
}

#[expect(clippy::disallowed_methods)]
fn env_var_os() {
    let _ = std::env::var_os("X");
}

#[expect(clippy::disallowed_methods)]
fn env_vars() {
    let _ = std::env::vars();
}

#[expect(clippy::disallowed_methods)]
fn env_vars_os() {
    let _ = std::env::vars_os();
}

#[expect(clippy::disallowed_types)]
fn system_time(_: std::time::SystemTime) {}

#[expect(clippy::disallowed_types)]
fn random_state(_: std::collections::hash_map::RandomState) {}

#[expect(clippy::disallowed_types)]
fn hash_map(_: std::collections::HashMap<u8, u8>) {}

#[expect(clippy::disallowed_types)]
fn hash_set(_: std::collections::HashSet<u8>) {}
