//! The whole knob lattice (`common/lattice.rs`): every case draws tables,
//! a plan and one configuration of one of the three execution paths, and
//! asserts the output equals the row-at-a-time reference bit for bit. The
//! run ends by asserting every value of every axis below was drawn. The
//! case count is a property of the build: the debug run is the quick one.

#[path = "common/lattice.rs"]
mod lattice;
#[path = "common/reference.rs"]
mod reference;

use lattice::Lattice;

/// Cases per run.
const CASES: usize = if cfg!(debug_assertions) { 256 } else { 2048 };

/// Every axis the lattice draws.
const AXES: [&str; 24] = [
    "rows",
    "seqbase",
    "qty shape",
    "price",
    "key skew",
    "indexes",
    "supplier rows",
    "filter",
    "leaf",
    "join",
    "aggregate",
    "path",
    "access",
    "compress",
    "pushdown",
    "threads",
    "thread cap",
    "tracker",
    "shards",
    "shared scans",
    "cache",
    "chunk",
    "trace",
    "budget",
];

#[test]
fn every_configuration_matches_the_reference_bit_for_bit() {
    let mut l = Lattice::new("lattice_prop");
    lattice::check(&mut l, CASES, |l| vec![lattice::path(l)]);
    let mut axes = AXES.to_vec();
    axes.sort_unstable();
    assert_eq!(l.axes(), axes, "the axes drawn are the axes declared");
}
