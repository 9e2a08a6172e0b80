//! Fixture: waiver misuse. Expectations are asserted explicitly in
//! `selftest.rs` (a trailing marker comment cannot tag a malformed waiver
//! line without changing the waiver text itself).

fn unparseable(label: &str, seed: u64) {
    // lint:allow(rng-label-registry) missing the colon-and-reason part
    let r = StreamRng::derive(seed, label);
    drop(r);
}

fn empty_reason(dir: &RngDirectory, label: &str) {
    // lint:allow(rng-label-registry):
    let r = dir.stream(label);
    drop(r);
}

fn unknown_rule(dir: &RngDirectory, prefix: &str) {
    // lint:allow(no-such-rule): the rule name has a typo
    let r = dir.indexed_stream(prefix, 3);
    drop(r);
}

fn unused() {
    // lint:allow(rng-label-registry): nothing on this line or the next needs it
    let x = 1;
    drop(x);
}
