//! **Compressed scans** (`repro compress`) — the memory-bandwidth argument
//! for lightweight column compression, validated model vs. simulator.
//!
//! Three columns, one per encoding: a uniform integer column that
//! frame-of-reference bit-packs, a sorted/clustered column that
//! run-length-encodes, and a low-cardinality string column whose dictionary
//! codes bit-pack below a byte. Each is selected once through the
//! uncompressed kernel and once through the compressed kernel on the
//! simulated Origin2000 — identical candidate lists, fewer bytes streamed —
//! and the table shows the simulated cost of both next to the
//! [`costmodel::scan`] quotes ([`scan_cost`] vs [`select_cost`] at the
//! packed width). The model must predict the bandwidth win within the same factor-2 tolerance
//! the join-model validation uses.
//!
//! The closing lines demonstrate the planning consequence: at a selectivity
//! where the *plain* scan loses to a B+-tree probe, the packed scan's
//! smaller stream flips [`costmodel::access`]'s choice back to the scan.
//!
//! `--pushdown` adds the candidate-pushdown series: a ~0.8%-selective
//! needle leaf conjoined with one wide compressed leaf, simulated in both
//! leaf orders. Needle-first, the wide leaf runs through the restricted
//! kernel and streams only the frames its survivors live in; the table
//! shows the byte collapse, both simulated orders, the restricted
//! [`select_cost`] quote, and the leaf the engine's conjunction planner
//! actually ran first.

use costmodel::access::{cheapest, quotes, AccessPath, IndexShape, SelectQuery};
use costmodel::scan::{scan_cost, select_cost, Select};
use costmodel::ModelMachine;
use engine::exec::{execute, AccessNote, ExecOptions, Threads};
use engine::plan::{Agg, Pred, Query};
use engine::{AccessMode, CompressMode, PushdownMode};
use memsim::NullTracker;
use monet_core::scan::{select, RowSet, ScanCol, ScanPred};
use monet_core::storage::{ColType, DecomposedTable, Oid, TableBuilder, Value};

use crate::report::{fmt_card, fmt_ms, TextTable};
use crate::runner::{sim, RunOpts, Scale};

/// One encoding's outcome: the same selection through both kernels.
pub struct Point {
    /// Encoding name (`for` | `rle` | `dict`).
    pub encoding: &'static str,
    /// Stored bits per value of the compressed representation.
    pub bits: f64,
    /// Simulated bytes fetched from memory by the uncompressed select
    /// (L2 misses × line size).
    pub unc_bytes: u64,
    /// Simulated bytes fetched by the compressed select.
    pub cmp_bytes: u64,
    /// Simulated ms of the uncompressed select.
    pub unc_sim_ms: f64,
    /// Simulated ms of the compressed select.
    pub cmp_sim_ms: f64,
    /// [`scan_cost`] quote of the uncompressed select.
    pub unc_model_ms: f64,
    /// [`select_cost`] quote of the compressed select.
    pub cmp_model_ms: f64,
}

/// Relation cardinality per scale.
fn card(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 1 << 16,
        Scale::Default => 1 << 20,
        Scale::Full => 1 << 23,
    }
}

/// The seven-value string domain of the dictionary column.
const MODES: [&str; 7] = ["AIR", "MAIL", "SHIP", "TRUCK", "RAIL", "REG AIR", "FOB"];

/// A relation exercising every encoding: `uniform` (FOR-friendly values in
/// `[0, 4096)`), `clustered` (sorted, runs of 512 ⇒ RLE), and `mode`
/// (7-value strings ⇒ dictionary codes packing into 3 bits).
fn relation(n: usize) -> DecomposedTable {
    let mut b = TableBuilder::new("rel", 0)
        .column("uniform", ColType::I32)
        .column("clustered", ColType::I32)
        .column("mode", ColType::Str);
    for i in 0..n as u64 {
        b.push_row(&[
            Value::I32(((i * 2_654_435_761) % 4096) as i32),
            Value::I32((i / 512) as i32),
            Value::from(MODES[(i % 7) as usize]),
        ])
        .expect("schema matches row construction");
    }
    b.finish()
}

/// Run the three selections (shared with the smoke test so the assertions
/// see the numbers the table prints). Bit-identity of the candidate lists
/// is asserted here, unconditionally.
pub fn sweep(opts: &RunOpts) -> Vec<Point> {
    let machine = opts.machine();
    let mm = ModelMachine::new(&machine);
    let n = card(opts.scale);
    let table = relation(n);
    let clusters = (n / 512) as i32;
    let mode_code = table
        .bat("mode")
        .expect("mode column exists")
        .tail()
        .as_str_col()
        .expect("mode is a string column")
        .dict
        .code_of("MAIL")
        .expect("MAIL occurs");

    // ~50% bands on the integer columns (frames straddle the bound, so the
    // packed kernel must actually test values, not just skip/take frames);
    // a 1-in-7 point on the dictionary codes.
    let cases: [(&'static str, ScanPred); 3] = [
        ("uniform", ScanPred::RangeI32 { lo: 1024, hi: 3071 }),
        ("clustered", ScanPred::RangeI32 { lo: clusters / 4, hi: clusters * 3 / 4 }),
        ("mode", ScanPred::EqCode { code: mode_code }),
    ];

    cases
        .iter()
        .map(|(col, pred)| {
            let bat = table.bat(col).expect("column exists");
            let cc = table.compressed_of(col).expect("every case column compresses");
            assert!(cc.supports(pred), "{col}: representation answers its predicate");

            let (unc_lists, unc) = sim(machine, |trk| {
                select(trk, ScanCol::Plain(bat), std::slice::from_ref(pred), RowSet::All)
                    .expect("types validated")
            });
            let (cmp_lists, cmp) = sim(machine, |trk| {
                let packed = ScanCol::Packed(cc, table.seqbase());
                select(trk, packed, std::slice::from_ref(pred), RowSet::All)
                    .expect("supported predicate")
            });
            assert_eq!(unc_lists, cmp_lists, "{col}: compressed select must be bit-identical");

            let stride = bat.bun_width();
            Point {
                encoding: cc.encoding().name(),
                bits: cc.bits_per_value(),
                unc_bytes: unc.l2_misses * machine.l2.line as u64,
                cmp_bytes: cmp.l2_misses * machine.l2.line as u64,
                unc_sim_ms: unc.elapsed_ms(),
                cmp_sim_ms: cmp.elapsed_ms(),
                unc_model_ms: scan_cost(&mm, n, stride).total_ms(),
                cmp_model_ms: select_cost(&mm, Select::packed(n, cc.bits_per_value())).total_ms(),
            }
        })
        .collect()
}

/// One wide leaf's outcome in the pushdown series: the needle-AND-wide
/// conjunction simulated in both leaf orders through the real kernels.
pub struct PushdownPoint {
    /// The wide leaf's column.
    pub wide: &'static str,
    /// The wide column's encoding.
    pub encoding: &'static str,
    /// Needle-leaf selectivity (fraction of rows surviving it).
    pub needle_sel: f64,
    /// Simulated bytes of the wide leaf's full-column pass.
    pub full_bytes: u64,
    /// Simulated bytes of the wide leaf restricted to the needle's
    /// survivors (the needle-first order).
    pub rest_bytes: u64,
    /// Simulated ms of the whole conjunction, needle first.
    pub needle_first_sim_ms: f64,
    /// Simulated ms of the whole conjunction, wide leaf first.
    pub wide_first_sim_ms: f64,
    /// Model quote for the needle-first order: the needle's fresh packed
    /// pass plus the wide leaf restricted to the needle's survivors.
    pub model_ms: f64,
    /// In-order index of the leaf the engine's conjunction planner ran
    /// first (the needle is written *last* in the predicate, so leaf 1).
    pub planner_first: usize,
}

/// Merge-intersect two ascending OID lists.
fn intersect(a: &[Oid], b: &[Oid]) -> Vec<Oid> {
    let (mut i, mut j, mut out) = (0, 0, Vec::new());
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Run the pushdown series: one ~0.8%-selective needle (a single cluster of
/// the RLE column — contiguous rows, answered from run metadata) conjoined
/// with each wide compressed leaf in turn, both leaf orders simulated.
/// Bit-identity of every restricted list against the intersection of the
/// full lists is asserted here, unconditionally.
pub fn pushdown_sweep(opts: &RunOpts) -> Vec<PushdownPoint> {
    let machine = opts.machine();
    let mm = ModelMachine::new(&machine);
    let n = card(opts.scale);
    let table = relation(n);
    let seqbase = table.seqbase();
    let clusters = (n / 512) as i32;
    let mode_code = table
        .bat("mode")
        .expect("mode column exists")
        .tail()
        .as_str_col()
        .expect("mode is a string column")
        .dict
        .code_of("MAIL")
        .expect("MAIL occurs");

    // The needle: one 512-row cluster out of `clusters` — 1/128 of the
    // rows, contiguous, so later leaves touch very few frames.
    let needle_val = clusters / 2;
    let needle_kernel = ScanPred::RangeI32 { lo: needle_val, hi: needle_val };
    let needle_pred = Pred::range_i32("clustered", needle_val, needle_val);
    let needle_cc = table.compressed_of("clustered").expect("clustered run-length-encodes");
    let (needle_lists, needle_full) = sim(machine, |trk| {
        let needle = ScanCol::Packed(needle_cc, seqbase);
        select(trk, needle, std::slice::from_ref(&needle_kernel), RowSet::All)
            .expect("supported predicate")
    });
    let needle_list = needle_lists.into_iter().next().expect("one predicate, one list");
    let needle_sel = needle_list.len() as f64 / n as f64;

    let wides: [(&'static str, ScanPred, Pred); 2] = [
        (
            "uniform",
            ScanPred::RangeI32 { lo: 1024, hi: 3071 },
            Pred::range_i32("uniform", 1024, 3071),
        ),
        ("mode", ScanPred::EqCode { code: mode_code }, Pred::eq_str("mode", "MAIL")),
    ];

    wides
        .iter()
        .map(|(col, kernel, wide_pred)| {
            let cc = table.compressed_of(col).expect("wide column compresses");
            let (wide_lists, wide_full) = sim(machine, |trk| {
                let wide = ScanCol::Packed(cc, seqbase);
                select(trk, wide, std::slice::from_ref(kernel), RowSet::All)
                    .expect("supported predicate")
            });
            let wide_list = wide_lists.into_iter().next().expect("one predicate, one list");

            // Needle first: the wide leaf jumps straight to the survivors'
            // frames. Wide first: the needle shrinks to a membership probe
            // of roughly half the rows.
            let (rest, wide_rest) = sim(machine, |trk| {
                let (wide, rows) = (ScanCol::Packed(cc, seqbase), RowSet::Cands(&needle_list));
                select(trk, wide, std::slice::from_ref(kernel), rows).expect("supported predicate")
            });
            let (rest_rev, needle_rest) = sim(machine, |trk| {
                let (needle, rows) =
                    (ScanCol::Packed(needle_cc, seqbase), RowSet::Cands(&wide_list));
                select(trk, needle, std::slice::from_ref(&needle_kernel), rows)
                    .expect("supported predicate")
            });
            let expect = intersect(&needle_list, &wide_list);
            assert_eq!(rest[0], expect, "{col}: restricted wide leaf must be bit-identical");
            assert_eq!(rest_rev[0], expect, "{col}: restricted needle leaf must be bit-identical");

            // The restricted pass point-decodes one value per survivor,
            // so the survivor count is all the quote needs.
            let wide_rest_quote =
                Select { cands: Some(needle_list.len()), ..Select::packed(n, cc.bits_per_value()) };
            let needle_quote = Select::packed(n, needle_cc.bits_per_value());
            let model_ms = select_cost(&mm, needle_quote).total_ms()
                + select_cost(&mm, wide_rest_quote).total_ms();

            // The planner sees the needle written last and must still run
            // it first; the chosen order comes out as a structured note.
            let plan = Query::scan(&table)
                .filter(wide_pred.clone().and(needle_pred.clone()))
                .agg(Agg::count())
                .build()
                .expect("valid plan");
            let exec_opts = ExecOptions::default()
                .with_access(AccessMode::Auto)
                .with_compress(CompressMode::On)
                .with_pushdown(PushdownMode::On)
                .with_threads(Threads::Fixed(1));
            let done = execute(&mut NullTracker, &plan, &exec_opts).expect("plan executes");
            let planner_first = done
                .report
                .ops
                .iter()
                .find_map(|o| {
                    o.notes.iter().find_map(|note| match note {
                        AccessNote::Pushdown { order, .. } => Some(order[0]),
                        _ => None,
                    })
                })
                .expect("the conjunction planner annotated its leaf order");

            let line = machine.l2.line as u64;
            PushdownPoint {
                wide: col,
                encoding: cc.encoding().name(),
                needle_sel,
                full_bytes: wide_full.l2_misses * line,
                rest_bytes: wide_rest.l2_misses * line,
                needle_first_sim_ms: needle_full.elapsed_ms() + wide_rest.elapsed_ms(),
                wide_first_sim_ms: wide_full.elapsed_ms() + needle_rest.elapsed_ms(),
                model_ms,
                planner_first,
            }
        })
        .collect()
}

/// The access-path flip: at 3% selectivity over 1M indexed rows the plain
/// scan loses to the B+-tree probe, but the 3-bit packed stream wins.
/// Returns (plain pick, packed pick).
pub fn index_flip(opts: &RunOpts) -> (AccessPath, AccessPath) {
    let mm = ModelMachine::new(&opts.machine());
    let rows = 1_000_000;
    let plain = SelectQuery {
        rows,
        stride: 4,
        matches: rows * 3 / 100,
        eq: false,
        packed_bits: None,
        cands: None,
    };
    let packed = SelectQuery { packed_bits: Some(3.0), ..plain };
    let indexes = [IndexShape::Btree { height: 7 }];
    (cheapest(&quotes(&mm, &plain, &indexes)).path, cheapest(&quotes(&mm, &packed, &indexes)).path)
}

/// Run the compressed-scan experiment.
pub fn run(opts: &RunOpts) {
    let points = sweep(opts);

    let mut t = TextTable::new(
        format!(
            "Compressed scans: 1-predicate selects over {} rows (simulated origin2k)",
            fmt_card(card(opts.scale))
        ),
        &[
            "encoding",
            "bits/val",
            "sim bytes",
            "packed bytes",
            "byte ratio",
            "sim",
            "packed sim",
            "model",
            "packed model",
        ],
    );
    for p in &points {
        t.row(vec![
            p.encoding.into(),
            format!("{:.2}", p.bits),
            format!("{}", p.unc_bytes),
            format!("{}", p.cmp_bytes),
            format!("{:.1}x", p.unc_bytes as f64 / p.cmp_bytes.max(1) as f64),
            fmt_ms(p.unc_sim_ms),
            fmt_ms(p.cmp_sim_ms),
            fmt_ms(p.unc_model_ms),
            fmt_ms(p.cmp_model_ms),
        ]);
    }
    super::emit(opts, &t);

    let (plain, packed) = index_flip(opts);
    println!(
        "access pick at 3% selectivity over 1M btree-indexed rows: \
         uncompressed column -> {}, 3-bit packed column -> {}",
        plain.name(),
        packed.name()
    );
    println!(
        "The new bottleneck, narrowed: per-tuple CPU work is unchanged, but every \
         encoding streams a fraction of the bytes — and the cost model prices that \
         fraction, so packed scans win back territory from index probes.\n"
    );

    if opts.pushdown {
        run_pushdown(opts);
    }
}

/// Run the candidate-pushdown series (`--pushdown`).
fn run_pushdown(opts: &RunOpts) {
    let points = pushdown_sweep(opts);

    let mut t = TextTable::new(
        format!(
            "Candidate pushdown: {:.2}%-selective needle AND wide leaf over {} rows \
             (simulated origin2k)",
            points[0].needle_sel * 100.0,
            fmt_card(card(opts.scale))
        ),
        &[
            "wide leaf",
            "encoding",
            "full bytes",
            "restricted",
            "byte ratio",
            "needle-first sim",
            "wide-first sim",
            "model",
            "planner ran first",
        ],
    );
    for p in &points {
        t.row(vec![
            p.wide.into(),
            p.encoding.into(),
            format!("{}", p.full_bytes),
            format!("{}", p.rest_bytes),
            format!("{:.1}x", p.full_bytes as f64 / p.rest_bytes.max(1) as f64),
            fmt_ms(p.needle_first_sim_ms),
            fmt_ms(p.wide_first_sim_ms),
            fmt_ms(p.model_ms),
            if p.planner_first == 1 { "needle".into() } else { "wide".into() },
        ]);
    }
    super::emit(opts, &t);
    println!(
        "Leaf order is a bandwidth decision: the conjunction planner runs the needle \
         first, and every later leaf streams only the frames its survivors live in.\n"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Scale;

    #[test]
    fn compressed_selects_save_bytes_and_the_model_tracks_the_simulator() {
        let points = sweep(&RunOpts { scale: Scale::Quick, ..Default::default() });
        assert_eq!(points.len(), 3);
        assert_eq!(points[0].encoding, "for");
        assert_eq!(points[1].encoding, "rle");
        assert_eq!(points[2].encoding, "dict");

        for p in &points {
            // The acceptance bar: at least 2x fewer simulated bytes, with
            // bit-identical selections (asserted inside sweep()).
            assert!(
                p.cmp_bytes * 2 <= p.unc_bytes,
                "{}: {} packed bytes vs {} uncompressed",
                p.encoding,
                p.cmp_bytes,
                p.unc_bytes
            );
            // Model vs simulator within the factor-2 validation tolerance.
            let rel = p.cmp_model_ms / p.cmp_sim_ms;
            assert!(
                (0.5..=2.0).contains(&rel),
                "{}: packed model {} ms vs sim {} ms",
                p.encoding,
                p.cmp_model_ms,
                p.cmp_sim_ms
            );
            // Compression never slows the simulated select down.
            assert!(p.cmp_sim_ms <= p.unc_sim_ms * 1.01, "{}: packed must not regress", p.encoding);
        }

        let (plain, packed) = index_flip(&RunOpts::default());
        assert_eq!(plain, AccessPath::BtreeRange, "plain scan loses at 3% selectivity");
        assert_eq!(packed, AccessPath::PackedScan, "the packed stream wins it back");
    }

    #[test]
    fn pushdown_restricts_later_leaves_and_the_planner_picks_the_cheap_order() {
        let points = pushdown_sweep(&RunOpts { scale: Scale::Quick, ..Default::default() });
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].encoding, "for");
        assert_eq!(points[1].encoding, "dict");

        for p in &points {
            assert!(p.needle_sel <= 0.05, "{}: needle stays under 5%: {}", p.wide, p.needle_sel);
            // The acceptance bar: a restricted later leaf streams at least
            // 5x fewer simulated bytes than its full-column pass (restricted
            // lists are asserted bit-identical inside pushdown_sweep()).
            assert!(
                p.rest_bytes * 5 <= p.full_bytes,
                "{}: {} restricted bytes vs {} full",
                p.wide,
                p.rest_bytes,
                p.full_bytes
            );
            // Model vs simulator within the factor-2 validation tolerance.
            let rel = p.model_ms / p.needle_first_sim_ms;
            assert!(
                (0.5..=2.0).contains(&rel),
                "{}: model {} ms vs sim {} ms",
                p.wide,
                p.model_ms,
                p.needle_first_sim_ms
            );
            // Pushing the needle down wins, and the planner knew: its chosen
            // first leaf is the simulator's cheapest order.
            assert!(
                p.needle_first_sim_ms < p.wide_first_sim_ms,
                "{}: needle-first {} ms vs wide-first {} ms",
                p.wide,
                p.needle_first_sim_ms,
                p.wide_first_sim_ms
            );
            let cheapest = if p.needle_first_sim_ms <= p.wide_first_sim_ms { 1 } else { 0 };
            assert_eq!(
                p.planner_first, cheapest,
                "{}: planner order matches the simulator",
                p.wide
            );
        }
    }
}
