//! Experiment library: one module per table/figure of the paper.
//!
//! Every module exposes a `generate(&ExpConfig) -> Vec<Table>` (or similar)
//! function that reruns the corresponding experiment and returns the rows /
//! series the paper reports; [`ROSTER`] names them, and the `repro_all`
//! binary runs the roster — all of it, or the artefacts named on its command
//! line. The absolute numbers come from this repo's simulator, not the
//! authors' NS-2 setup — EXPERIMENTS.md tracks the *shape* comparison (who
//! wins, by roughly what factor, where crossovers fall).
//!
//! Every generator builds its full `(scenario × seed)` grid up front and
//! funnels it through [`common::run_grid`], which fans the independent runs
//! across the [`wmn_exec`] worker pool (`RIPPLE_JOBS`, default: all cores)
//! and returns seed averages bit-identical to a serial loop. `repro_all`
//! additionally writes per-artefact JSON (tables + timing) under
//! `target/repro/`.
//!
//! | Paper artefact | Module | Run it |
//! |---|---|---|
//! | Fig. 2 / Sec. II timing formulas | [`fig2`] | `repro_all -- fig2` |
//! | Sec. II motivation (SPR vs preExOR vs MCExOR) | [`motivation`] | `repro_all -- motivation` |
//! | Fig. 3 (long TCP, BER 1e-6) | [`fig3`] | `repro_all -- fig3` |
//! | Fig. 4 (long TCP, BER 1e-5) | [`fig3`] | `repro_all -- fig4` |
//! | Fig. 6 (regular / hidden collisions) | [`fig6`] | `repro_all -- fig6` |
//! | Fig. 7 (2–7 hops ± cross traffic) | [`fig7`] | `repro_all -- fig7` |
//! | Fig. 8 (web traffic) | [`fig8`] | `repro_all -- fig8` |
//! | Table III (VoIP MoS) | [`table3`] | `repro_all -- table3` |
//! | Fig. 10 (Wigle) | [`fig10`] | `repro_all -- fig10` |
//! | Fig. 12 (Roofnet) | [`fig12`] | `repro_all -- fig12` |
//! | Ablations (forwarder cap, aggregation, PHY rates) | [`ablation`] | `repro_all -- ablation` |
//!
//! Beyond the paper's artefacts, [`sweep`] drives `wmn_scengen`'s generated
//! scenario grids through the same engine (`scenario_sweep` binary), and
//! [`baseline`] regenerates the stored results of `ci/baseline_repro.json`
//! in-process, for the tier-1 tests `tests/golden.rs` and `tests/baseline.rs` and for
//! `check_baseline --update`.

pub mod ablation;
pub mod baseline;
pub mod common;
pub mod fig10;
pub mod fig12;
pub mod fig2;
pub mod fig3;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod motivation;
pub mod refresh;
pub mod statistical;
pub mod sweep;
pub mod table3;

pub use common::{AvgFlow, AvgResult, ExpConfig};

use wmn_metrics::Table;

/// One paper artefact: its report name (`target/repro/<name>.json`) and the
/// generator that reruns it.
pub type Artefact = (&'static str, fn(&ExpConfig) -> Vec<Table>);

/// Every paper artefact, in the order `repro_all` runs and prints them.
pub const ROSTER: [Artefact; 11] = [
    ("fig2", |_| vec![fig2::generate(), fig2::worked_example()]),
    ("motivation", |cfg| vec![motivation::generate(cfg)]),
    ("fig3", |cfg| fig3::generate(1e-6, cfg)),
    ("fig4", |cfg| fig3::generate(1e-5, cfg)),
    ("fig6", |cfg| vec![fig6::generate_regular(cfg), fig6::generate_hidden(cfg)]),
    ("fig7", fig7::generate),
    ("fig8", |cfg| vec![fig8::generate(cfg)]),
    ("table3", table3::generate),
    ("fig10", fig10::generate),
    ("fig12", fig12::generate),
    ("ablation", |cfg| {
        vec![
            ablation::max_forwarders(cfg),
            ablation::aggregation_limit(cfg),
            ablation::phy_rates(cfg),
        ]
    }),
];

/// The artefacts `names` selects from [`ROSTER`], in the order named; no
/// names selects the whole roster.
///
/// # Errors
///
/// A name the roster does not hold is rejected with a message listing the
/// ones it does.
pub fn select(names: &[String]) -> Result<Vec<Artefact>, String> {
    if names.is_empty() {
        return Ok(ROSTER.to_vec());
    }
    names
        .iter()
        .map(|name| {
            ROSTER.iter().copied().find(|(known, _)| known == name).ok_or_else(|| {
                let roster: Vec<&str> = ROSTER.iter().map(|(known, _)| *known).collect();
                format!("unknown artefact {name:?} (roster: {})", roster.join(" "))
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(selected: &[Artefact]) -> Vec<&'static str> {
        selected.iter().map(|(name, _)| *name).collect()
    }

    #[test]
    fn select_defaults_to_the_roster_and_rejects_unknown_names() {
        let all = select(&[]).expect("no names is the whole roster");
        assert_eq!(names(&all), names(&ROSTER));
        let some = select(&["table3".to_string(), "fig3".to_string()]).expect("both known");
        assert_eq!(names(&some), ["table3", "fig3"], "order as named");
        let err = select(&["fig3".to_string(), "fig5".to_string()]).expect_err("no fig5");
        assert!(err.contains("\"fig5\""), "{err}");
        assert!(names(&ROSTER).iter().all(|known| err.contains(known)), "lists the roster: {err}");
    }
}
