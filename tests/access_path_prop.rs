//! Access-path slices of the knob lattice (`common/lattice.rs`): over drawn
//! tables indexed with all three index kinds, `execute` under each of
//! `AccessMode::{Scan, Index, Auto}` returns the row-at-a-time reference's
//! output bit for bit. Index probes sort their candidates back into OID
//! order, so the candidate combinators, gathers and grouped `f64` sums
//! downstream see exactly the scan path's rows.

#[path = "common/lattice.rs"]
mod lattice;
#[path = "common/reference.rs"]
mod reference;

use lattice::{Lattice, Path, FILTERED, SLICE_CASES};
use monet_mem::engine::access::AccessMode;

/// The index set with every kind on every indexed column.
const ALL_INDEXES: &str = "[CsBTree, Hash, TTree]";

fn every_access_mode(l: &mut Lattice) -> Vec<Path> {
    let modes = [AccessMode::Scan, AccessMode::Index, AccessMode::Auto];
    lattice::sweep(l, &modes, |o, access| o.access = access)
}

#[test]
fn auto_and_forced_index_match_the_scan_path_bit_identically() {
    let mut l = Lattice::new("access_path_prop::filter")
        .pin("indexes", &[ALL_INDEXES])
        .pin("filter", &FILTERED)
        .pin("join", &["false"])
        .pin("aggregate", &["none"]);
    lattice::check(&mut l, SLICE_CASES, every_access_mode);
}

#[test]
fn grouped_aggregates_are_access_path_invariant() {
    // The candidate list feeds gathers and f64 group sums downstream: the
    // whole pipeline must be access-path invariant, to the last mantissa bit.
    let mut l = Lattice::new("access_path_prop::grouped")
        .pin("indexes", &[ALL_INDEXES])
        .pin("filter", &FILTERED)
        .pin("aggregate", &["grouped", "grouped by part"]);
    lattice::check(&mut l, SLICE_CASES, every_access_mode);
}
