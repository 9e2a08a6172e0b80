//! Every RNG stream the simulator draws from, in one table.
//!
//! A stream's label is folded into its seed ([`StreamRng::derive`]), so a
//! renamed label silently reseeds every draw behind it and two consumers
//! sharing a label silently share their draws. Both are ruled out here
//! instead of being searched for: [`Label`] and [`Family`] can only be
//! built inside `wmn_sim`, [`RngDirectory::stream`] and
//! [`RngDirectory::indexed_stream`] take nothing else, and a unit test over
//! [`TABLE`] proves that no two rows can expand to the same string. The
//! table is therefore the registry — a new, renamed or removed stream is a
//! one-line diff in this file.
//!
//! Adding a stream: add a row below (name, kind, string, and a doc line
//! naming its consumer), pass the new constant at the call site, run
//! `cargo test -p wmn_sim labels`. Changing an existing row's string is a
//! re-baseline (`check_baseline` and the perfbench digests move with it).
//!
//! ```
//! use wmn_sim::{labels, RngDirectory};
//! let dir = RngDirectory::new(1);
//! let mut shadowing = dir.stream(labels::MEDIUM);
//! let mut backoff = dir.indexed_stream(labels::MAC, 3); // the stream "mac/3"
//! assert_ne!(shadowing.next_u64(), backoff.next_u64());
//! ```
//!
//! A raw string is not a label:
//!
//! ```compile_fail
//! let _ = wmn_sim::RngDirectory::new(1).stream("medium");
//! ```
//!
//! ```compile_fail
//! let _ = wmn_sim::RngDirectory::new(1).indexed_stream("mac/", 0);
//! ```
//!
//! and neither type can be built outside this crate:
//!
//! ```compile_fail
//! let _ = wmn_sim::labels::Label("medium");
//! ```
//!
//! ```compile_fail
//! let _ = wmn_sim::labels::Family("mac/");
//! ```
//!
//! [`StreamRng::derive`]: crate::StreamRng::derive
//! [`RngDirectory::stream`]: crate::RngDirectory::stream
//! [`RngDirectory::indexed_stream`]: crate::RngDirectory::indexed_stream

/// The label of one stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(pub(crate) &'static str);

/// The head of a family of streams, one per entity: stream `i` is labelled
/// `"{head}{i}"`, `i` in decimal. Where the separator goes is the row's
/// business (`"mac/"` + 3 is `"mac/3"`, `"scengen/mix/flow"` + 3 is
/// `"scengen/mix/flow3"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Family(pub(crate) &'static str);

/// One row of [`TABLE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Row {
    /// A single stream.
    Label(Label),
    /// One stream per index.
    Family(Family),
}

/// Declares one constant per row and lists them all in [`TABLE`], so a
/// stream cannot exist without being under the uniqueness test.
macro_rules! table {
    ($($(#[$doc:meta])+ $name:ident = $kind:ident($text:literal);)+) => {
        $($(#[$doc])+ pub const $name: $kind = $kind($text);)+

        /// Every stream label and family, in declaration order.
        pub const TABLE: &[Row] = &[$(Row::$kind($name)),+];
    };
}

table! {
    /// `wmn_netsim`, legacy result family: the shadowing draws of every
    /// transmission (`Medium::plan_transmission_into`).
    MEDIUM = Label("medium");
    /// `wmn_netsim`, legacy result family: the bit-error draws of every
    /// decode.
    BER = Label("ber");
    /// `wmn_netsim`, per-entity result family: shadowing draws, one stream
    /// per transmitter.
    SHARD_MEDIUM = Family("shard/medium/");
    /// `wmn_netsim`, per-entity result family: bit-error draws, one stream
    /// per receiver.
    SHARD_BER = Family("shard/ber/");
    /// `wmn_netsim`: a station's MAC (backoff slots), by node index.
    MAC = Family("mac/");
    /// `wmn_netsim`: a web flow's think times and transfer sizes, by flow
    /// index.
    WEB = Family("web/");
    /// `wmn_netsim`: a VoIP flow's talk-spurt schedule, by flow index.
    VOIP = Family("voip/");
    /// `wmn_scengen`: the perturbed-line generator's jitter.
    SCENGEN_LINE = Label("scengen/line");
    /// `wmn_scengen`: the random-geometric generator's placement, by
    /// connectivity attempt.
    SCENGEN_RGG_ATTEMPT = Family("scengen/rgg/attempt");
    /// `wmn_scengen`: the campus generator's placement, by connectivity
    /// attempt.
    SCENGEN_CAMPUS_ATTEMPT = Family("scengen/campus/attempt");
    /// `wmn_scengen`: a generated flow's endpoint choice, by flow index.
    SCENGEN_MIX_FLOW = Family("scengen/mix/flow");
    /// `wmn_scengen`: a drifting station's heading and speed, by node index.
    SCENGEN_MOBILITY_DRIFT = Family("scengen/mobility/drift/");
    /// `wmn_scengen`: a station's waypoints, by node index.
    SCENGEN_MOBILITY_WP = Family("scengen/mobility/wp/");
    /// `wmn_topology`: the Roofnet stand-in's grid jitter (fixed seed).
    ROOFNET_JITTER = Label("roofnet-jitter");
    /// `wmn_bench`: `alloc_gate`'s clean-decode loop.
    BENCH_DECODE = Label("bench/decode");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The string a row is spelled with.
    fn text(row: &Row) -> &'static str {
        match *row {
            Row::Label(Label(text)) | Row::Family(Family(text)) => text,
        }
    }

    /// Whether `label` is `head` followed by a decimal index, i.e. a string
    /// `indexed_stream(Family(head), _)` can produce.
    fn is_member(label: &str, head: &str) -> bool {
        label
            .strip_prefix(head)
            .is_some_and(|rest| !rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit()))
    }

    /// The first pair of rows that can expand to the same label, if any.
    /// Equal spellings are refused whatever the kinds; beyond that only a
    /// family reaches another row's string ("a/" + "12" is "a/1" + "2").
    fn collision(table: &[Row]) -> Option<(Row, Row)> {
        let reaches =
            |row: &Row, other: &Row| matches!(row, Row::Family(f) if is_member(text(other), f.0));
        for (i, a) in table.iter().enumerate() {
            for b in &table[i + 1..] {
                if text(a) == text(b) || reaches(a, b) || reaches(b, a) {
                    return Some((*a, *b));
                }
            }
        }
        None
    }

    #[test]
    fn no_two_rows_can_expand_to_the_same_label() {
        assert_eq!(collision(TABLE), None);
        assert!(TABLE.iter().all(|row| !text(row).is_empty()), "an empty label names nothing");
    }

    #[test]
    fn the_collision_check_sees_each_kind_of_clash() {
        let with = |extra: Row| [TABLE, &[extra]].concat();
        assert_eq!(
            collision(&with(Row::Label(MEDIUM))),
            Some((Row::Label(MEDIUM), Row::Label(MEDIUM)))
        );
        assert_eq!(
            collision(&with(Row::Label(Label("mac/7")))),
            Some((Row::Family(MAC), Row::Label(Label("mac/7")))),
        );
        assert_eq!(
            collision(&with(Row::Family(Family("mac/1")))),
            Some((Row::Family(MAC), Row::Family(Family("mac/1")))),
        );
        assert_eq!(
            collision(&with(Row::Family(Family("medium")))),
            Some((Row::Label(MEDIUM), Row::Family(Family("medium")))),
        );
        // Sharing a prefix is not a clash: "shard/medium/3" is not "medium",
        // and "scengen/mix/flow3" is in no other family.
        assert_eq!(collision(&with(Row::Label(Label("mac/x")))), None);
        assert_eq!(collision(&with(Row::Family(Family("mac")))), None);
    }
}
