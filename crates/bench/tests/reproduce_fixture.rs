//! The whole `reproduce` suite pinned byte for byte: every report of
//! `TCM_CYCLES=1500000 TCM_WORKLOADS=1 reproduce` (its stdout without
//! the trailing `sweep engine:` line) is committed in
//! `fixtures/reproduce.txt`. The scale crosses TCM's 1M-cycle quantum, so
//! the fixture pins Table 6's shuffle variants, Table 7's parameters,
//! Fig 6's knobs (ATLAS's 1k/100k/1M quanta tick), Fig 8's weights and
//! Table 8's machines, none of which the golden fingerprints cover.
//!
//! Each experiment is its own test, running `reproduce NAME` against its
//! section of the fixture (sections start at `## ` title lines), so the
//! harness spreads them over the host's cores. An intended change to the
//! simulated results re-captures the fixture:
//!
//! ```text
//! TCM_CYCLES=1500000 TCM_WORKLOADS=1 target/release/reproduce \
//!     | grep -v '^sweep engine:' > crates/bench/tests/fixtures/reproduce.txt
//! ```

use std::process::Command;
use tcm_bench::experiments;

const FIXTURE: &str = include_str!("fixtures/reproduce.txt");

/// The fixture's report for experiment `name`: the text from its `## `
/// title up to the next title, sections in [`experiments::NAMES`] order.
fn section(name: &str) -> &'static str {
    let mut starts: Vec<usize> = FIXTURE
        .match_indices("## ")
        .map(|(i, _)| i)
        .filter(|&i| i == 0 || FIXTURE.as_bytes()[i - 1] == b'\n')
        .collect();
    assert_eq!(
        starts.len(),
        experiments::NAMES.len(),
        "one fixture section per experiment"
    );
    starts.push(FIXTURE.len());
    let i = experiments::NAMES
        .iter()
        .position(|&n| n == name)
        .expect("a known experiment");
    &FIXTURE[starts[i]..starts[i + 1]]
}

fn assert_matches_fixture(name: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .current_dir(std::env::temp_dir())
        .env_remove("TCM_FULL")
        .env("TCM_CYCLES", "1500000")
        .env("TCM_WORKLOADS", "1")
        .arg(name)
        .output()
        .expect("reproduce runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8_lossy(&out.stdout);
    let expected = section(name);
    if got != expected {
        let line = got
            .lines()
            .zip(expected.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(got.lines().count().min(expected.lines().count()));
        panic!(
            "`reproduce {name}` drifted from fixtures/reproduce.txt at line {} of its report:\n  \
             got:      {:?}\n  expected: {:?}",
            line + 1,
            got.lines().nth(line),
            expected.lines().nth(line)
        );
    }
}

macro_rules! pinned {
    ($($test:ident => $name:literal,)*) => {
        $(
            #[test]
            fn $test() {
                assert_matches_fixture($name);
            }
        )*

        #[test]
        fn every_experiment_is_pinned() {
            assert_eq!([$($name),*], experiments::NAMES);
        }
    };
}

pinned! {
    fig1_matches_fixture => "fig1",
    fig2_matches_fixture => "fig2",
    fig3_matches_fixture => "fig3",
    fig4_matches_fixture => "fig4",
    fig5_matches_fixture => "fig5",
    fig6_matches_fixture => "fig6",
    fig7_matches_fixture => "fig7",
    fig8_matches_fixture => "fig8",
    table2_matches_fixture => "table2",
    table4_matches_fixture => "table4",
    table6_matches_fixture => "table6",
    table7_matches_fixture => "table7",
    table8_matches_fixture => "table8",
    ablation_matches_fixture => "ablation",
}
