//! **Selection access paths** (`repro select`) — the §3.2 discussion as an
//! experiment. The paper argues (with \[Ron98\] against \[LC86\]) that for
//! point/high-selectivity selections a B-tree with cache-line-sized nodes is
//! optimal, because hash tables and binary search "cause random memory
//! access to the entire relation; a non cache-friendly access pattern".
//!
//! We measure, on the simulated Origin2000: a full scan-select, binary
//! search over the sorted column, cache-sensitive B+-trees with 32 B (L1
//! line), 128 B (L2 line) and 16 KB (page) nodes, the \[LC86\] T-tree, and a
//! bucket-chained hash table — for batches of point lookups against sorted
//! relations of growing size.
//!
//! The scan those structures compete with is then put on the host's clock:
//! [`kernel_sweep`] times `monet_core::scan::select` natively per layout
//! (plain `i32`/`f64`, frame-of-reference at three widths, packed
//! dictionary codes, run-length) at 1 %, 50 % and 99 % selectivity, and
//! per candidate at four list densities. §3's point is that once the
//! access pattern is sequential the per-tuple CPU path is what is left to
//! pay; the table shows that path flat across selectivity (no
//! data-dependent branch to mispredict) next to the branching reference
//! loop it is checked against.

use std::time::Instant;

use engine::select::{range_select_f64, range_select_i32, select_eq_str};
use memsim::{MemTracker, NullTracker, SimTracker};
use monet_core::compress::{CompressedColumn, DictColumn, ForColumn, RleColumn};
use monet_core::index::{binary_search_tracked, CsBTree, HashIndex, TTree};
use monet_core::scan::{select, RowSet, ScanCol, ScanPred};
use monet_core::storage::{Bat, Column, Oid, StrColumn};

use crate::report::{fmt_card, fmt_count, fmt_ms, TextTable};
use crate::runner::{RunOpts, Scale};

const LOOKUPS: usize = 10_000;

/// Run the access-path comparison, then the kernel's wall-clock sweep.
pub fn run(opts: &RunOpts) {
    access_paths(opts);
    kernel_sweep(opts);
}

/// Point lookups through every access path, simulated.
fn access_paths(opts: &RunOpts) {
    let machine = opts.machine();
    let cards: Vec<usize> = match opts.scale {
        Scale::Quick => vec![65_536, 1 << 20],
        Scale::Default => vec![65_536, 1 << 20, 1 << 22],
        Scale::Full => vec![65_536, 1 << 20, 1 << 22, 1 << 24],
    };

    let mut t = TextTable::new(
        format!("Selection access paths: {LOOKUPS} point lookups (simulated origin2k)"),
        &["C", "access path", "ms", "us/lookup", "L1 miss", "L2 miss", "TLB miss"],
    );

    for c in cards {
        // The indexed column as a BAT: every structure bulk-loads from it
        // via CsBTree::from_column and friends (keys are already u32, so
        // the key mapping is the identity and OIDs are positions).
        let keys: Vec<u32> = (0..c as u32).map(|i| i * 3).collect();
        let column = Bat::with_void_head(0, Column::Oid(keys.clone()));
        let probes: Vec<u32> =
            (0..LOOKUPS as u32).map(|i| (i.wrapping_mul(2_654_435_761) % c as u32) * 3).collect();

        let mut add = |name: &str, f: &mut dyn FnMut(&mut SimTracker)| {
            let mut trk = SimTracker::for_machine(machine);
            f(&mut trk);
            let s = trk.counters();
            t.row(vec![
                fmt_card(c),
                name.into(),
                fmt_ms(s.elapsed_ms()),
                format!("{:.2}", s.elapsed_ns() / 1e3 / LOOKUPS as f64),
                fmt_count(s.l1_misses as f64),
                fmt_count(s.l2_misses as f64),
                fmt_count(s.tlb_misses as f64),
            ]);
        };

        // Full scan per lookup would be absurd; scan once for the whole
        // batch (the low-selectivity regime where scans DO win).
        add("scan (whole batch)", &mut |trk| {
            let mut hits = 0u64;
            let probe_set: std::collections::HashSet<u32> = probes.iter().copied().collect();
            for k in &keys {
                trk.read(k as *const u32 as usize, 4);
                trk.work(memsim::Work::ScanIter, 1);
                if probe_set.contains(k) {
                    hits += 1;
                }
            }
            assert!(hits >= probe_set.len() as u64);
        });

        add("binary search", &mut |trk| {
            for &p in &probes {
                let pos = binary_search_tracked(trk, &keys, p);
                assert_eq!(keys[pos], p);
            }
        });

        for (name, bytes) in [
            ("B-tree 32B nodes", 32usize),
            ("B-tree 128B nodes", 128),
            ("B-tree 16KB nodes", 16384),
        ] {
            let tree = CsBTree::from_column(&column, bytes).expect("u32 column is indexable");
            add(name, &mut |trk| {
                for &p in &probes {
                    let mut found = false;
                    tree.lookup_eq(trk, p, |_| found = true);
                    assert!(found);
                }
            });
        }

        let ttree = TTree::from_column(&column).expect("u32 column is indexable");
        add("T-tree 64-key nodes", &mut |trk| {
            for &p in &probes {
                let mut found = false;
                ttree.lookup_eq(trk, p, |_| found = true);
                assert!(found);
            }
        });

        let hash = HashIndex::from_column(&column).expect("u32 column is indexable");
        add("hash table", &mut |trk| {
            for &p in &probes {
                let mut found = false;
                hash.lookup_eq(trk, p, |_| found = true);
                assert!(found);
            }
        });
    }
    super::emit(opts, &t);
    println!(
        "§3.2's point, measured: at large C the hash table and binary search take an \
         L2/TLB miss on (almost) every probe; the line-sized B-tree keeps its upper \
         levels cache-resident. Scans win only when the whole batch amortizes one pass.\n"
    );
}

/// The selectivities of the kernel sweep.
const SELECTIVITIES: [f64; 3] = [0.01, 0.5, 0.99];

/// Best-of-`reps` wall clock of `f`, in ns, and its last result. The
/// minimum, because the box is shared and every disturbance only adds.
fn best_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> (R, f64) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let start = Instant::now();
        out = Some(f());
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    (out.expect("at least one repetition"), best)
}

/// Time one K = 1 `select` and check it against the reference list.
fn timed_select(
    reps: usize,
    col: ScanCol<'_>,
    pred: ScanPred,
    rows: RowSet<'_>,
    want: &[Oid],
) -> f64 {
    let (lists, ns) = best_ns(reps, || {
        select(&mut NullTracker, col, std::slice::from_ref(&pred), rows).expect("typed predicate")
    });
    assert_eq!(lists[0], want, "{pred:?} over {col:?}: kernel must match the reference loop");
    ns
}

/// Native wall clock of the one scan-select kernel: ns/row per layout and
/// selectivity, then ns/candidate per list density. Every timed result is
/// asserted bit-identical to the engine's reference loop; the timings are
/// printed, never asserted (shared runners).
pub fn kernel_sweep(opts: &RunOpts) {
    let (n, reps) = match opts.scale {
        Scale::Quick => (1usize << 20, 3),
        Scale::Default => (1 << 22, 5),
        Scale::Full => (1 << 24, 5),
    };
    let mut x = opts.seed | 1;
    let mut next = move || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        x >> 24
    };
    let per_row = |ns: f64| format!("{:.2}", ns / n as f64);
    let mut t = TextTable::new(
        format!("Scan-select kernel, native: ns/row over {} rows (best of {reps})", fmt_card(n)),
        &["layout", "bits/val", "1%", "50%", "99%"],
    );
    let mut row = |layout: &str, bits: f64, ns: [f64; 3]| {
        t.row([vec![layout.into(), format!("{bits:.2}")], ns.map(per_row).into()].concat());
    };
    // Kernel and reference-loop ns of one plain column, per selectivity.
    let both = |col: ScanCol<'_>, pred: ScanPred, reference: &dyn Fn() -> Vec<Oid>| {
        let (want, reference_ns) = best_ns(reps, reference);
        (timed_select(reps, col, pred, RowSet::All, &want), reference_ns)
    };

    // Integer layouts: uniform values of `bits` bits, a band from zero.
    let uniform = |bits: u32, next: &mut dyn FnMut() -> u64| -> Vec<i32> {
        (0..n).map(|_| (next() % (1u64 << bits)) as i32).collect()
    };
    let band = |bits: u32, sel: f64| {
        // At least one value and never all of them, so frames are tested,
        // not settled by their headers: 1% of a 6-bit range is 1/64.
        let values = (1u64 << bits) as f64;
        let hi = ((values * sel).ceil() as i32 - 1).min(values as i32 - 2);
        (ScanPred::RangeI32 { lo: 0, hi }, hi)
    };
    let plain = Bat::with_void_head(0, Column::I32(uniform(15, &mut next)));
    let ns = SELECTIVITIES.map(|sel| {
        let (pred, hi) = band(15, sel);
        both(ScanCol::Plain(&plain), pred, &|| {
            range_select_i32(&mut NullTracker, &plain, 0, hi).expect("i32")
        })
    });
    row("plain i32", 32.0, ns.map(|(kernel, _)| kernel));
    row("  reference loop", 32.0, ns.map(|(_, reference)| reference));

    let values: Vec<f64> = (0..n).map(|_| (next() % (1 << 15)) as f64 / 8.0).collect();
    let floats = Bat::with_void_head(0, Column::F64(values));
    let ns = SELECTIVITIES.map(|sel| {
        let hi = (1u64 << 15) as f64 * sel / 8.0;
        both(ScanCol::Plain(&floats), ScanPred::RangeF64 { lo: 0.0, hi }, &|| {
            range_select_f64(&mut NullTracker, &floats, 0.0, hi).expect("f64")
        })
    });
    row("plain f64", 64.0, ns.map(|(kernel, _)| kernel));
    row("  reference loop", 64.0, ns.map(|(_, reference)| reference));

    for bits in [6u32, 15, 31] {
        let values = uniform(bits, &mut next);
        let cc = CompressedColumn::For(ForColumn::encode(&values));
        let bat = Bat::with_void_head(0, Column::I32(values));
        let ns = SELECTIVITIES.map(|sel| {
            let (pred, hi) = band(bits, sel);
            let want = range_select_i32(&mut NullTracker, &bat, 0, hi).expect("i32");
            timed_select(reps, ScanCol::Packed(&cc, 0), pred, RowSet::All, &want)
        });
        row(&format!("FOR {bits}-bit"), cc.bits_per_value(), ns);
    }

    // Dictionary codes: the needle takes `sel` of the rows, six other modes
    // share the rest.
    let mut stored = 0.0;
    let ns = SELECTIVITIES.map(|sel| {
        let modes = ["AIR", "MAIL", "SHIP", "TRUCK", "RAIL", "FOB"];
        let strs: Vec<&str> = (0..n)
            .map(|_| {
                let r = next();
                if ((r % 10_000) as f64) < sel * 10_000.0 {
                    "NEEDLE"
                } else {
                    modes[(r >> 16) as usize % modes.len()]
                }
            })
            .collect();
        let bat = Bat::with_void_head(0, Column::Str(StrColumn::from_strs(strs)));
        let sc = bat.tail().as_str_col().expect("string column");
        let cc = CompressedColumn::Dict(DictColumn::encode(&sc.codes));
        stored = cc.bits_per_value();
        let pred = ScanPred::EqCode { code: sc.dict.code_of("NEEDLE").expect("needle occurs") };
        let want = select_eq_str(&mut NullTracker, &bat, "NEEDLE").expect("needle occurs");
        timed_select(reps, ScanCol::Packed(&cc, 0), pred, RowSet::All, &want)
    });
    row("dict (7 values)", stored, ns);

    // Run-length: runs of 512 rows over 100 values.
    let values: Vec<i32> = (0..n).map(|i| ((i / 512) * 37 % 100) as i32).collect();
    let cc = CompressedColumn::Rle(RleColumn::encode(&values));
    let bat = Bat::with_void_head(0, Column::I32(values));
    let ns = SELECTIVITIES.map(|sel| {
        let hi = (100.0 * sel) as i32 - 1;
        let want = range_select_i32(&mut NullTracker, &bat, 0, hi).expect("i32");
        let pred = ScanPred::RangeI32 { lo: 0, hi };
        timed_select(reps, ScanCol::Packed(&cc, 0), pred, RowSet::All, &want)
    });
    row("RLE (512-row runs)", cc.bits_per_value(), ns);
    super::emit(opts, &t);

    // Restricted passes: every `step`-th row is a candidate, half pass.
    let mut t = TextTable::new(
        format!("Restricted scan-select, native: ns/candidate over {} rows", fmt_card(n)),
        &["density", "candidates", "plain i32", "FOR 15-bit", "FOR 15-bit span, ns/row"],
    );
    let values = uniform(15, &mut next);
    let cc = CompressedColumn::For(ForColumn::encode(&values));
    let bat = Bat::with_void_head(0, Column::I32(values));
    let (pred, hi) = band(15, 0.5);
    let full = range_select_i32(&mut NullTracker, &bat, 0, hi).expect("i32");
    let span = timed_select(reps, ScanCol::Packed(&cc, 0), pred, RowSet::All, &full);
    for step in [1024usize, 16, 2, 1] {
        let cands: Vec<Oid> = (0..n).step_by(step).map(|i| i as Oid).collect();
        let want: Vec<Oid> =
            full.iter().copied().filter(|&o| (o as usize).is_multiple_of(step)).collect();
        let per_cand = |col: ScanCol<'_>| {
            let ns = timed_select(reps, col, pred, RowSet::Cands(&cands), &want);
            format!("{:.2}", ns / cands.len() as f64)
        };
        t.row(vec![
            format!("1/{step}"),
            fmt_card(cands.len()),
            per_cand(ScanCol::Plain(&bat)),
            per_cand(ScanCol::Packed(&cc, 0)),
            if step == 1 { per_row(span) } else { "-".into() },
        ]);
    }
    super::emit(opts, &t);
    println!(
        "§3's point, measured: with the access pattern sequential, what is left is the \
         per-tuple CPU path. The kernel writes survivors with a predicated store and \
         compares packed values as it extracts them, so its cost is flat across \
         selectivity where the branching reference loop peaks at 50%; a candidate list \
         is point-decoded at every density — the dense list (last row) costs a small \
         factor of the span stream over the same frames, so a density threshold switching \
         between them would buy little and is not there.\n"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke() {
        run(&RunOpts { scale: Scale::Quick, ..Default::default() });
    }
}
