//! Row-set equivalence checks for `monet_core::scan::select`, shared by the
//! scan-select property suites (`shared_scan_prop`, `compress_prop`).

use monet_mem::core::scan::{par_select, select, RowSet, ScanCol, ScanPred};
use monet_mem::core::storage::Oid;
use monet_mem::memsim::{profiles, EventCounters, NullTracker, SimTracker};

const PAR_THREADS: [usize; 4] = [1, 2, 4, 7];
/// Frame-aligned chunk sizes: one that cuts these suites' small columns
/// into several chunks, and the service's elevator chunk.
const CHUNKS: [usize; 2] = [1024, 64 << 10];

/// Degenerate `i32` predicates around the values of a column (or of one
/// frame of it): points (`lo == hi`) at its minimum, its maximum, a value
/// in between and just past either end, and inverted ranges (`lo > hi`,
/// which match nothing whatever the data) inside, across and around its
/// value range.
pub fn edge_preds(values: &[i32]) -> Vec<ScanPred> {
    let min = values.iter().copied().min().unwrap_or(0);
    let max = values.iter().copied().max().unwrap_or(0);
    let mid = values.get(values.len() / 2).copied().unwrap_or(0);
    let point = |v: i32| ScanPred::RangeI32 { lo: v, hi: v };
    let inverted = |lo: i32, hi: i32| ScanPred::RangeI32 { lo: lo.max(hi), hi: lo.min(hi) };
    vec![
        point(min),
        point(max),
        point(mid),
        point(min.saturating_sub(1)),
        point(max.saturating_add(1)),
        inverted(mid, mid.saturating_add(1)),
        inverted(min, max),
        inverted(min.saturating_sub(1), max.saturating_add(1)),
        inverted(i32::MIN, i32::MAX),
    ]
}

/// Simulated counters of one `select` call on a cold Origin2000.
pub fn sim_counters(col: ScanCol<'_>, preds: &[ScanPred], rows: RowSet<'_>) -> EventCounters {
    let mut trk = SimTracker::for_machine(profiles::origin2000());
    select(&mut trk, col, preds, rows).expect("typed preds evaluate");
    trk.counters()
}

/// For the first K ∈ {1, 3} predicates: `Range(lo, hi)` ≡ `Cands(dense
/// lo..hi)` ≡ `All` filtered to `[lo, hi)` over empty, `lo == hi`,
/// `hi > len`, frame-straddling and run-cutting ranges; consecutive `Range`
/// chunks concatenate to `All`; `par_select` ≡ `All` with counts that merge
/// to the total; and under the simulator the CPU work of `All`,
/// `Range(0, len)` and the sum over frame-aligned `Range` chunks is the
/// same, as are the accesses wherever reads are charged per block
/// (`reads_per_block`: every layout but RLE, whose span is one slice read
/// per call).
pub fn assert_row_sets_agree(
    col: ScanCol<'_>,
    seqbase: Oid,
    preds: &[ScanPred],
    reads_per_block: bool,
    ctx: &str,
) {
    let n = col.len();
    let run = |preds: &[ScanPred], rows: RowSet<'_>| {
        select(&mut NullTracker, col, preds, rows).expect("typed preds evaluate")
    };
    for k in [1usize, 3] {
        let preds = &preds[..k.min(preds.len())];
        let all = run(preds, RowSet::All);
        let ranges = [
            (0, 0),
            (n / 2, n / 2),
            (n / 3, n + 17),
            (n + 5, n + 9),
            (1000, 1100), // straddles the 1024-row frame border
            (1, n.saturating_sub(1)),
            (n / 4, 3 * n / 4),
            (0, n),
        ];
        for (lo, hi) in ranges {
            let ranged = run(preds, RowSet::Range(lo, hi));
            let dense: Vec<Oid> = (lo.min(n)..hi.min(n)).map(|i| seqbase + i as Oid).collect();
            let by_cands = run(preds, RowSet::Cands(&dense));
            let filtered: Vec<Vec<Oid>> = all
                .iter()
                .map(|l| l.iter().copied().filter(|o| dense.binary_search(o).is_ok()).collect())
                .collect();
            assert_eq!(ranged, filtered, "{ctx}: K={k} Range({lo}, {hi}) vs filtered All");
            assert_eq!(by_cands, filtered, "{ctx}: K={k} dense Cands({lo}..{hi}) vs filtered All");
        }
        for chunk in [97usize, 1024] {
            let mut acc: Vec<Vec<Oid>> = vec![Vec::new(); preds.len()];
            for lo in (0..n).step_by(chunk) {
                for (list, part) in acc.iter_mut().zip(run(preds, RowSet::Range(lo, lo + chunk))) {
                    list.extend(part);
                }
            }
            assert_eq!(acc, all, "{ctx}: K={k} {chunk}-row chunks concatenate to All");
        }
        for threads in PAR_THREADS {
            let (par, counts) =
                par_select(&mut NullTracker, col, preds, threads).expect("typed preds evaluate");
            assert_eq!(par, all, "{ctx}: K={k} par_select at threads={threads}");
            assert_eq!(
                counts.iter().sum::<usize>(),
                all.iter().map(Vec::len).sum::<usize>(),
                "{ctx}: K={k} shard counts merge to the total at threads={threads}"
            );
        }

        let whole = sim_counters(col, preds, RowSet::All);
        let ranged = sim_counters(col, preds, RowSet::Range(0, n));
        assert_eq!(
            (whole.reads, whole.cpu_ns),
            (ranged.reads, ranged.cpu_ns),
            "{ctx}: K={k} All vs Range(0, len) charging"
        );
        for chunk in CHUNKS {
            let (mut reads, mut cpu_ns) = (0u64, 0.0f64);
            for lo in (0..n).step_by(chunk) {
                let c = sim_counters(col, preds, RowSet::Range(lo, lo + chunk));
                reads += c.reads;
                cpu_ns += c.cpu_ns;
            }
            assert_eq!(cpu_ns, whole.cpu_ns, "{ctx}: K={k} CPU work over {chunk}-row chunks");
            if reads_per_block {
                assert_eq!(reads, whole.reads, "{ctx}: K={k} accesses over {chunk}-row chunks");
            }
        }
    }
}
