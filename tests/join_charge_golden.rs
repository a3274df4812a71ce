//! Golden simulated charges of the join kernels. On one fixed §3.4.1
//! workload (`join_pair(20_000, 7)`) under the Origin2000 profile, each line
//! pins a kernel's output cardinality and the `SimTracker`'s reads, writes,
//! line accesses and CPU time (as `f64` bits): every Figure 13 strategy, two
//! radix-cluster layouts and the two isolated join phases of Figures 10–11.
//! Miss counts are left out, since they depend on heap addresses. A change
//! to the join kernels keeps these numbers, or says which line moved and why.

use monet_mem::core::join::{
    join_clustered, radix_cluster, radix_join_clustered, simple_hash_join, Bun, FibHash,
};
use monet_mem::core::storage::{Bat, Column};
use monet_mem::core::strategy::Strategy;
use monet_mem::engine::join::join_bats_with_plan;
use monet_mem::memsim::{profiles, NullTracker, SimTracker};
use monet_mem::workload::join_pair;

const N: usize = 20_000;

/// `(label, rows, reads, writes, line_accesses, cpu_ns bits)`.
type Line = (&'static str, usize, u64, u64, u64, u64);

const GOLDEN: &[Line] = &[
    ("sort-merge", 20000, 360000, 500000, 860000, 4711071973973688320),
    ("simple hash", 20000, 198040, 60000, 258040, 4713564987740651520),
    ("phash L2", 20000, 198040, 60000, 258040, 4713564987740651520),
    ("phash TLB", 20000, 198040, 60000, 258040, 4713564987740651520),
    ("phash L1", 20000, 278040, 180000, 458040, 4714652258711633920),
    ("phash 256", 20000, 359584, 300000, 659584, 4715613369313263616),
    ("phash min", 20000, 359584, 300000, 659584, 4715613369313263616),
    ("radix 8", 20000, 298080, 260000, 558080, 4712507523842703360),
    ("radix min", 20000, 329020, 380000, 709020, 4712949132380078080),
    ("cluster 8 [4, 4]", 20000, 80000, 120000, 200000, 4701340746312056832),
    ("cluster 12 [6, 6]", 20000, 80000, 120000, 200000, 4701340746312056832),
    ("join_clustered 8", 20000, 205964, 60000, 265964, 4714057835237867520),
    ("radix_join_clustered 8", 20000, 1604346, 20000, 1624346, 4721016590642970624),
    ("simple hash, empty outer", 0, 0, 0, 0, 0),
];

fn line(label: &'static str, rows: usize, trk: &SimTracker) -> Line {
    let c = trk.counters();
    (label, rows, c.reads, c.writes, c.line_accesses, c.cpu_ns.to_bits())
}

fn bat(buns: &[Bun]) -> Bat {
    assert!(buns.iter().enumerate().all(|(i, b)| b.head == i as u32), "dense heads");
    Bat::with_void_head(0, Column::I32(buns.iter().map(|b| b.tail as i32).collect()))
}

fn measure() -> Vec<Line> {
    let machine = profiles::origin2000();
    let sim = || SimTracker::for_machine(machine);
    let (l, r) = join_pair(N, 7);
    let (lb, rb) = (bat(&l), bat(&r));
    let mut lines = Vec::new();

    for s in Strategy::ALL {
        let plan = s.plan(N, &machine);
        let mut trk = sim();
        let pairs = join_bats_with_plan(&mut trk, &lb, &rb, &plan).unwrap();
        lines.push(line(s.name(), pairs.len(), &trk));
    }

    for (label, bits, passes) in
        [("cluster 8 [4, 4]", 8, &[4u32, 4][..]), ("cluster 12 [6, 6]", 12, &[6, 6][..])]
    {
        let mut trk = sim();
        let c = radix_cluster(&mut trk, FibHash, l.clone(), bits, passes);
        lines.push(line(label, c.len(), &trk));
    }

    let lc = radix_cluster(&mut NullTracker, FibHash, l.clone(), 8, &[4, 4]);
    let rc = radix_cluster(&mut NullTracker, FibHash, r.clone(), 8, &[4, 4]);
    let mut trk = sim();
    let pairs = join_clustered(&mut trk, FibHash, &lc, &rc);
    lines.push(line("join_clustered 8", pairs.len(), &trk));
    let mut trk = sim();
    let pairs = radix_join_clustered(&mut trk, FibHash, &lc, &rc);
    lines.push(line("radix_join_clustered 8", pairs.len(), &trk));

    let mut trk = sim();
    let pairs = simple_hash_join(&mut trk, FibHash, &[], &r);
    lines.push(line("simple hash, empty outer", pairs.len(), &trk));
    lines
}

#[test]
fn join_kernels_charge_what_they_charged() {
    let got = measure();
    if got.as_slice() != GOLDEN {
        for l in &got {
            println!("    {l:?},");
        }
    }
    assert_eq!(got.len(), GOLDEN.len(), "line count");
    for (g, want) in got.iter().zip(GOLDEN) {
        assert_eq!(g, want, "{}", want.0);
    }
}
