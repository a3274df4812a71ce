//! Pushdown slices of the knob lattice (`common/lattice.rs`): a drawn
//! filter with a conjunction, evaluated with every later leaf restricted to
//! the running survivor list or with every leaf a full pass, returns the
//! row-at-a-time reference's output bit for bit — under access mode ×
//! compression × pushdown, and sharded. Restricted kernels return exactly
//! (full result ∩ candidates) in ascending OID order, so every downstream
//! gather and `f64` sum sees the same rows in the same order.

#[path = "common/lattice.rs"]
mod lattice;
#[path = "common/reference.rs"]
mod reference;

use lattice::{Lattice, Path, CONJUNCTIONS, SLICE_CASES};
use monet_mem::engine::access::{AccessMode, CompressMode, PushdownMode};
use monet_mem::engine::exec::ExecOptions;

const PUSHDOWN: [PushdownMode; 2] = [PushdownMode::Off, PushdownMode::On];

#[test]
fn pushdown_is_bit_identical_across_the_full_matrix() {
    let mut matrix = Vec::new();
    for access in [AccessMode::Scan, AccessMode::Index, AccessMode::Auto] {
        for compress in [CompressMode::Off, CompressMode::On, CompressMode::Force] {
            for pushdown in PUSHDOWN {
                matrix.push((access, compress, pushdown));
            }
        }
    }
    let mut l = Lattice::new("pushdown_prop::matrix").pin("filter", &CONJUNCTIONS);
    lattice::check(&mut l, SLICE_CASES, |l| {
        lattice::sweep(l, &matrix, |o, (access, compress, pushdown)| {
            (o.access, o.compress, o.pushdown) = (access, compress, pushdown)
        })
    });
}

#[test]
fn pushdown_is_bit_identical_under_sharded_execution() {
    let mut l = Lattice::new("pushdown_prop::sharded").pin("filter", &CONJUNCTIONS);
    lattice::check(&mut l, SLICE_CASES, |l| {
        let opts = lattice::exec_options(l);
        let mut paths = Vec::new();
        for pushdown in PUSHDOWN {
            for shards in [1, 4] {
                let opts = ExecOptions { pushdown, ..opts };
                paths.push(Path::Sharded { shards, opts, simulated: false });
            }
        }
        paths
    });
}
