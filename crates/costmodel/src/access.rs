//! Selection access-path pricing — the §3.2 trade-off as a *model*, the way
//! §3.4 models the join algorithms.
//!
//! The paper weighs a scan-select (optimal stride locality) against index
//! structures whose probes are random: "If the selectivity is low, most
//! data needs to be visited and this is best done with a scan-select". This
//! module prices all four access paths from the calibrated machine
//! parameters so the executor can *choose* per predicate, the same way
//! [`crate::plan::plan_join`] chooses a join algorithm:
//!
//! * **scan** — the §2 stride-scan model, exactly
//!   [`crate::scan::select_cost`] at the column's stored width (plain or
//!   packed), over every row or only the surviving candidates;
//! * **B+-tree (eq/range)** — one descent (`height + 1` node touches, each
//!   one line/page) plus a sequential run over the `k` matching leaf
//!   entries (two 4-byte streams: keys and OIDs);
//! * **hash probe** — one bucket head plus a chain walk of random accesses
//!   whose miss fraction is the index footprint's cache residency (the
//!   paper's "up to 8 memory accesses per tuple" trash regime, priced
//!   continuously);
//! * **T-tree probe** — a pointer-chase descent (`log₂ blocks` scattered
//!   node headers) plus an in-node binary search.
//!
//! Every index path also pays for restoring *scan order*: index probes emit
//! OIDs in key/chain order, and the executor sorts them so index-path
//! selections stay bit-identical to scan-path selections. That
//! `k·log₂ k` term is what pushes the crossover towards scans as
//! selectivity grows; the `repro access` figure validates the predicted
//! crossover against the simulator.

use crate::machine::{ModelCost, ModelMachine};
use crate::scan::{select_cost, Select};

/// Bytes per indexed tuple of the bucket-chained hash index: heads + chain
/// (≈4 B) plus the 8-byte `(key, oid)` BUN — the paper's §3.4.4 "12 bytes
/// per tuple" rule, reused from the phash strategies.
pub const HASH_INDEX_TUPLE_BYTES: f64 = crate::machine::PHASH_TUPLE_BYTES;

/// Average chain length the hash index is sized for
/// (`monet_core::join::hashtable::DEFAULT_TUPLES_PER_BUCKET`).
pub const HASH_CHAIN_LENGTH: f64 = 4.0;

/// A selection access path the executor can take for one predicate leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPath {
    /// Full scan-select over the column.
    Scan,
    /// Scan-select directly over the compressed (packed) column.
    PackedScan,
    /// B+-tree descent + leaf range scan.
    BtreeRange,
    /// B+-tree descent + duplicate run.
    BtreeEq,
    /// Hash-index chain walk.
    HashEq,
    /// T-tree descent + duplicate run.
    TTreeEq,
}

impl AccessPath {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            AccessPath::Scan => "scan",
            AccessPath::PackedScan => "packed-scan",
            AccessPath::BtreeRange => "btree-range",
            AccessPath::BtreeEq => "btree-eq",
            AccessPath::HashEq => "hash-eq",
            AccessPath::TTreeEq => "ttree-eq",
        }
    }

    /// True for index-backed paths (both scan flavours stream the column
    /// in OID order; everything else probes a secondary structure).
    pub fn is_index(self) -> bool {
        matches!(
            self,
            AccessPath::BtreeRange | AccessPath::BtreeEq | AccessPath::HashEq | AccessPath::TTreeEq
        )
    }
}

/// Geometry of one available index, as the pricing functions need it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexShape {
    /// B+-tree with this many levels above the leaves.
    Btree {
        /// Tree height ([`monet_core::index::CsBTree::height`]).
        height: usize,
    },
    /// Bucket-chained hash index.
    Hash,
    /// T-tree with this many keys per node.
    TTree {
        /// Keys per node.
        node_capacity: usize,
    },
}

/// One selection, as the access chooser sees it.
#[derive(Debug, Clone, Copy)]
pub struct SelectQuery {
    /// Table cardinality (rows a scan visits).
    pub rows: usize,
    /// Byte stride of the scanned column (1/2/4/8).
    pub stride: usize,
    /// (Estimated) qualifying rows.
    pub matches: usize,
    /// True for a point predicate (`lo == hi`, or a dictionary equality) —
    /// the only shape hash and T-tree indexes can answer.
    pub eq: bool,
    /// Stored bits per value of the column's compressed representation,
    /// when one exists *and* can answer this predicate directly — enables
    /// the [`AccessPath::PackedScan`] quote.
    pub packed_bits: Option<f64>,
    /// Number of surviving candidates threaded into this leaf from earlier
    /// conjunction leaves (`None` = full-column evaluation). When set, scan
    /// paths are priced per candidate ([`Select::cands`]) and index probes
    /// keep their full traversal but emit and sort only the expected
    /// survivors.
    pub cands: Option<usize>,
}

/// A priced access path.
#[derive(Debug, Clone, Copy)]
pub struct Quote {
    /// The path.
    pub path: AccessPath,
    /// Its predicted cost.
    pub cost: ModelCost,
}

/// Merge-sort rounds needed to restore scan (OID) order over `n` index
/// matches: `⌈log₂ n⌉`. Shared with the executor so model and kernel charge
/// the identical work count.
pub fn sort_rounds(n: usize) -> usize {
    if n < 2 {
        0
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as usize
    }
}

/// CPU work common to every index path: emit `k` matches (one scan
/// iteration each) and sort them back into OID order.
fn emit_ns(m: &ModelMachine, matches: usize) -> f64 {
    let k = matches as f64;
    k * m.work.scan_iter_ns + (matches * sort_rounds(matches)) as f64 * m.work.sort_tuple_ns
}

/// Price a B+-tree probe returning `matches` entries: a cold descent of
/// `height + 1` node touches (one L1/L2/TLB event each — nodes are
/// line-sized) plus two sequential 4-byte streams over the matching run
/// (leaf keys and payload OIDs).
pub fn btree_cost(m: &ModelMachine, height: usize, matches: usize) -> ModelCost {
    let levels = (height + 1) as f64;
    let k = matches as f64;
    ModelCost::assemble(
        emit_ns(m, matches),
        levels + 2.0 * k * 4.0 / m.l1_line,
        levels + 2.0 * k * 4.0 / m.l2_line,
        levels + 2.0 * k * 4.0 / m.page,
        &m.lat,
    )
}

/// Price a hash probe returning `matches` entries over an `entries`-tuple
/// index: one bucket-head read plus two random accesses (BUN + chain link)
/// per chain step, each missing with the probability that the index
/// footprint exceeds the respective cache level.
pub fn hash_eq_cost(m: &ModelMachine, entries: usize, matches: usize) -> ModelCost {
    let bytes = entries as f64 * HASH_INDEX_TUPLE_BYTES;
    // All duplicates of the key share one chain, so the walk is at least as
    // long as the match count, and never shorter than the sizing target.
    let chain = (matches as f64).max(HASH_CHAIN_LENGTH);
    let accesses = 1.0 + 2.0 * chain;
    ModelCost::assemble(
        m.work.hash_tuple_ns + emit_ns(m, matches),
        accesses * (bytes / m.l1_bytes).min(1.0),
        accesses * (bytes / m.l2_bytes).min(1.0),
        accesses * (bytes / m.tlb_span).min(1.0),
        &m.lat,
    )
}

/// Price a T-tree probe returning `matches` entries over an `entries`-tuple
/// tree: `log₂ blocks` pointer-chased node headers (each its own heap
/// allocation — one event per cache level, the structural cache hostility
/// §3.2 criticizes), an in-node binary search, and the duplicate run.
pub fn ttree_eq_cost(
    m: &ModelMachine,
    entries: usize,
    node_capacity: usize,
    matches: usize,
) -> ModelCost {
    let blocks = entries.div_ceil(node_capacity.max(1)).max(1);
    let depth = (usize::BITS - blocks.leading_zeros()) as f64; // ⌈log₂⌉ + 1-ish
    let in_node = (node_capacity.max(2) as f64).log2();
    let k = matches as f64;
    ModelCost::assemble(
        emit_ns(m, matches),
        depth + in_node + 2.0 * k * 4.0 / m.l1_line,
        depth + 1.0 + 2.0 * k * 4.0 / m.l2_line,
        depth + 1.0 + 2.0 * k * 4.0 / m.page,
        &m.lat,
    )
}

/// Expected survivors of intersecting `matches` qualifying rows with a
/// `k`-entry candidate list over `rows` rows (independence assumption),
/// never exceeding either input.
pub fn restricted_matches(rows: usize, matches: usize, k: usize) -> usize {
    let est = (matches as f64 * k as f64 / rows.max(1) as f64).ceil() as usize;
    est.min(matches).min(k)
}

/// Adjust a full index quote for candidate restriction: the structure
/// traversal (memory) is unchanged, but the CPU term becomes one membership
/// test per probe-emitted entry plus emit+sort-back over only the expected
/// survivors — the `k·log₂ k` sort saving that makes restricted probes
/// cheap. Exposed for the engine's conjunction planner, which reprices
/// already-chosen index leaves at arbitrary candidate counts.
pub fn restrict_index_cost(
    m: &ModelMachine,
    mut full: ModelCost,
    probed: usize,
    kept: usize,
) -> ModelCost {
    full.cpu_ns = probed as f64 * m.work.scan_iter_ns + emit_ns(m, kept);
    full
}

/// Price every access path available for `q`: always [`AccessPath::Scan`],
/// then [`AccessPath::PackedScan`] when the column has a usable compressed
/// representation, plus one entry per usable index in `indexes` (range
/// predicates can only use B+-trees; eq predicates use all three). A
/// [`SelectQuery::cands`] list switches every path to its restricted
/// pricing.
pub fn quotes(m: &ModelMachine, q: &SelectQuery, indexes: &[IndexShape]) -> Vec<Quote> {
    let kept = q.cands.map(|k| restricted_matches(q.rows, q.matches, k));
    let scan = |stored: Select| select_cost(m, Select { cands: q.cands, ..stored });
    let mut out =
        vec![Quote { path: AccessPath::Scan, cost: scan(Select::plain(q.rows, q.stride)) }];
    if let Some(bits) = q.packed_bits {
        out.push(Quote { path: AccessPath::PackedScan, cost: scan(Select::packed(q.rows, bits)) });
    }
    let restrict = |cost: ModelCost| match kept {
        Some(kept) => restrict_index_cost(m, cost, q.matches, kept),
        None => cost,
    };
    for shape in indexes {
        match shape {
            IndexShape::Btree { height } => {
                let path = if q.eq { AccessPath::BtreeEq } else { AccessPath::BtreeRange };
                out.push(Quote { path, cost: restrict(btree_cost(m, *height, q.matches)) });
            }
            IndexShape::Hash if q.eq => {
                out.push(Quote {
                    path: AccessPath::HashEq,
                    cost: restrict(hash_eq_cost(m, q.rows, q.matches)),
                });
            }
            IndexShape::TTree { node_capacity } if q.eq => {
                out.push(Quote {
                    path: AccessPath::TTreeEq,
                    cost: restrict(ttree_eq_cost(m, q.rows, *node_capacity, q.matches)),
                });
            }
            _ => {} // hash / T-tree cannot answer range predicates
        }
    }
    out
}

/// The cheapest quote (ties go to the earlier entry, i.e. the scan).
pub fn cheapest(quotes: &[Quote]) -> Quote {
    *quotes
        .iter()
        .reduce(|best, q| if q.cost.total_ns() < best.cost.total_ns() { q } else { best })
        .expect("quotes always contains the scan path")
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::profiles;

    fn origin() -> ModelMachine {
        ModelMachine::new(&profiles::origin2000())
    }

    const SHAPES: [IndexShape; 3] = [
        IndexShape::Btree { height: 7 },
        IndexShape::Hash,
        IndexShape::TTree { node_capacity: 64 },
    ];

    #[test]
    fn point_lookups_prefer_indexes_on_large_relations() {
        // 1M rows, 1 match: any index path beats the full scan by orders of
        // magnitude, and the hash probe is the cheapest eq path.
        let m = origin();
        let q = SelectQuery {
            rows: 1_000_000,
            stride: 4,
            matches: 1,
            eq: true,
            packed_bits: None,
            cands: None,
        };
        let qs = quotes(&m, &q, &SHAPES);
        assert_eq!(qs.len(), 4);
        let best = cheapest(&qs);
        assert!(best.path.is_index(), "picked {:?}", best.path);
        let scan = qs[0].cost.total_ns();
        assert!(best.cost.total_ns() * 100.0 < scan, "index {best:?} vs scan {scan}");
    }

    #[test]
    fn high_selectivity_ranges_prefer_the_scan() {
        // 80% of 1M rows qualify: the sort-back term alone sinks the index.
        let m = origin();
        let q = SelectQuery {
            rows: 1_000_000,
            stride: 4,
            matches: 800_000,
            eq: false,
            packed_bits: None,
            cands: None,
        };
        let best = cheapest(&quotes(&m, &q, &SHAPES));
        assert_eq!(best.path, AccessPath::Scan);
    }

    #[test]
    fn range_predicates_only_use_the_btree() {
        let m = origin();
        let q = SelectQuery {
            rows: 100_000,
            stride: 4,
            matches: 10,
            eq: false,
            packed_bits: None,
            cands: None,
        };
        let qs = quotes(&m, &q, &SHAPES);
        assert_eq!(qs.len(), 2);
        assert_eq!(qs[1].path, AccessPath::BtreeRange);
        // No indexes at all: the scan is the only (and cheapest) quote.
        let only = quotes(&m, &q, &[]);
        assert_eq!(only.len(), 1);
        assert_eq!(cheapest(&only).path, AccessPath::Scan);
    }

    #[test]
    fn index_costs_are_monotone_in_matches() {
        let m = origin();
        let mut prev = 0.0;
        for k in [0usize, 1, 10, 1_000, 100_000] {
            let c = btree_cost(&m, 7, k).total_ns();
            assert!(c >= prev, "k={k}: {c} < {prev}");
            prev = c;
        }
        assert!(hash_eq_cost(&m, 1 << 20, 8).total_ns() > hash_eq_cost(&m, 1 << 20, 1).total_ns());
        assert!(
            ttree_eq_cost(&m, 1 << 20, 64, 8).total_ns()
                > ttree_eq_cost(&m, 1 << 10, 64, 8).total_ns() * 0.99
        );
    }

    #[test]
    fn tiny_relations_make_the_hash_probe_nearly_free_of_stalls() {
        // 1000 tuples: the whole index is cache-resident, so the residency
        // fractions collapse and the probe is CPU-bound.
        let m = origin();
        let small = hash_eq_cost(&m, 1_000, 1);
        assert!(small.l2_misses < 1.0, "{small:?}");
        let big = hash_eq_cost(&m, 1 << 22, 1);
        assert!(big.l2_misses > 5.0, "{big:?}");
    }

    #[test]
    fn sort_rounds_is_ceil_log2() {
        for (n, r) in [(0usize, 0usize), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (1024, 10)] {
            assert_eq!(sort_rounds(n), r, "n={n}");
        }
    }

    #[test]
    fn packed_scan_beats_the_index_probe_where_the_plain_scan_loses() {
        // Mid selectivity on 1M rows: the btree undercuts the 4-byte scan,
        // but a 3-bit packed column streams ~10x fewer bytes and takes the
        // quote back — the tentpole's access-path flip.
        let m = origin();
        let rows = 1 << 20;
        let q = SelectQuery {
            rows,
            stride: 4,
            matches: rows * 3 / 100,
            eq: false,
            packed_bits: None,
            cands: None,
        };
        let shapes = [IndexShape::Btree { height: 7 }];
        let plain = cheapest(&quotes(&m, &q, &shapes));
        assert_eq!(
            plain.path,
            AccessPath::BtreeRange,
            "chosen stride-4 regime must favor the btree"
        );
        let packed_q = SelectQuery { packed_bits: Some(3.0), ..q };
        let qs = quotes(&m, &packed_q, &shapes);
        assert_eq!(qs.len(), 3);
        assert_eq!(qs[1].path, AccessPath::PackedScan);
        let best = cheapest(&qs);
        assert_eq!(best.path, AccessPath::PackedScan);
        assert!(!best.path.is_index());
        // At full 32 bits the packed quote ties the scan and changes nothing.
        let q32 = SelectQuery { packed_bits: Some(32.0), ..q };
        assert_eq!(cheapest(&quotes(&m, &q32, &shapes)).path, AccessPath::BtreeRange);
    }

    #[test]
    fn restricted_quotes_reward_a_selective_candidate_list() {
        let m = origin();
        let rows = 1 << 20;
        let full = SelectQuery {
            rows,
            stride: 4,
            matches: rows / 10,
            eq: true,
            packed_bits: Some(8.0),
            cands: None,
        };
        let pushed = SelectQuery { cands: Some(rows / 1000), ..full };
        let fq = quotes(&m, &full, &SHAPES);
        let pq = quotes(&m, &pushed, &SHAPES);
        assert_eq!(fq.len(), pq.len());
        // Every path gets cheaper (or at worst equal) under restriction.
        for (f, p) in fq.iter().zip(&pq) {
            assert_eq!(f.path, p.path);
            assert!(
                p.cost.total_ns() <= f.cost.total_ns() + 1e-6,
                "{}: {} > {}",
                p.path.name(),
                p.cost.total_ns(),
                f.cost.total_ns()
            );
        }
        // The scan paths collapse by roughly the candidate fraction; the
        // index paths keep their traversal so they shrink less.
        assert!(pq[0].cost.total_ns() * 10.0 < fq[0].cost.total_ns());
        assert!(pq[1].cost.total_ns() * 5.0 < fq[1].cost.total_ns());
        // An all-pass candidate list changes nothing for index emit counts.
        let allpass = SelectQuery { cands: Some(rows), ..full };
        let aq = quotes(&m, &allpass, &SHAPES);
        let bt = |qs: &[Quote]| {
            qs.iter().find(|q| q.path == AccessPath::BtreeEq).unwrap().cost.total_ns()
        };
        // Restricted adds the membership filter on top of the full emit.
        assert!(bt(&aq) >= bt(&fq));
        // Expected-survivor estimator basics.
        assert_eq!(restricted_matches(1000, 100, 0), 0);
        assert_eq!(restricted_matches(1000, 100, 1000), 100);
        assert_eq!(restricted_matches(1000, 100, 10), 1);
    }

    #[test]
    fn crossover_exists_and_is_interior() {
        // Sweeping selectivity at fixed C must flip the btree/scan ordering
        // exactly once, strictly inside (0, 1) — the Figure-3-style regime
        // structure the `repro access` figure measures.
        let m = origin();
        let rows = 1 << 20;
        let mut last_index_wins = true;
        let mut flips = 0;
        for pct in 1..=100 {
            let matches = rows * pct / 100;
            let q =
                SelectQuery { rows, stride: 4, matches, eq: false, packed_bits: None, cands: None };
            let best = cheapest(&quotes(&m, &q, &[IndexShape::Btree { height: 7 }]));
            let index_wins = best.path.is_index();
            if index_wins != last_index_wins {
                flips += 1;
                assert!(!index_wins, "ordering may only flip towards the scan");
            }
            last_index_wins = index_wins;
        }
        assert_eq!(flips, 1, "exactly one crossover");
        assert!(!last_index_wins, "scan must win at 100% selectivity");
    }
}
