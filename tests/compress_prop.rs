//! Property suite for the compressed-column subsystem
//! (`monet_core::compress`): for every encoding (frame-of-reference,
//! run-length, packed dictionary codes) and every data shape — uniform,
//! Zipf-skewed, sorted-with-runs, all-equal, empty — selecting directly on
//! the compressed representation must be **bit-identical** to the
//! uncompressed scan kernels, sequentially and at every thread count, with
//! shard counts that merge to the totals; and the same must hold end to end
//! through the engine under every `MONET_COMPRESS`/access-mode combination,
//! including candidate lists delivered via `execute_with_scans` the way the
//! query service's cooperative passes deliver them.

use std::sync::Arc;

use proptest::prelude::*;

use monet_mem::core::compress::{CompressedColumn, DictColumn, ForColumn, RleColumn};
use monet_mem::core::scan::{par_select, select, RowSet, ScanCol, ScanPred};
use monet_mem::core::storage::{Bat, ColType, Column, StrColumn, TableBuilder, Value};
use monet_mem::engine::exec::{execute, execute_with_scans, ExecOptions, Threads};
use monet_mem::engine::plan::{Agg, Pred, Query};
use monet_mem::engine::shared::{scan_requests, ScanTicket};
use monet_mem::engine::{AccessMode, CompressMode, PushdownMode};
use monet_mem::memsim::NullTracker;
use monet_mem::workload::ZipfGenerator;

mod common;

const THREADS: [usize; 2] = [1, 4];
const MODES: [&str; 4] = ["AIR", "MAIL", "SHIP", "RAIL"];

/// Compare compressed K-way selection against the uncompressed kernel,
/// sequentially and sharded.
fn assert_compressed_matches_uncompressed(
    bat: &Bat,
    cc: &CompressedColumn,
    preds: &[ScanPred],
    seqbase: u32,
    ctx: &str,
) {
    let col = ScanCol::Packed(cc, seqbase);
    let want = select(&mut NullTracker, ScanCol::Plain(bat), preds, RowSet::All)
        .expect("typed preds evaluate");
    let got = select(&mut NullTracker, col, preds, RowSet::All).expect("supported preds evaluate");
    assert_eq!(got, want, "{ctx}: sequential");
    for threads in THREADS {
        let (par, counts) = par_select(col, preds, threads).expect("supported preds evaluate");
        assert_eq!(par, want, "{ctx}: threads={threads}");
        assert_eq!(
            counts.iter().sum::<usize>(),
            want.iter().map(Vec::len).sum::<usize>(),
            "{ctx}: shard counts merge to the total at threads={threads}"
        );
    }
    let reads_per_block = !matches!(cc, CompressedColumn::Rle(_));
    common::assert_row_sets_agree(col, seqbase, preds, reads_per_block, ctx);
}

/// The i32 data shapes the suite sweeps, derived from proptest inputs.
fn i32_shapes(uniform: &[i32], zipf_seed: u64, len: usize) -> Vec<(&'static str, Vec<i32>)> {
    let mut z = ZipfGenerator::new(64, 1.0, zipf_seed);
    let zipf: Vec<i32> = (0..len).map(|_| z.sample() as i32 - 32).collect();
    let mut sorted = uniform.to_vec();
    sorted.sort_unstable();
    vec![
        ("uniform", uniform.to_vec()),
        ("zipf", zipf),
        ("sorted", sorted),
        ("constant", vec![7; len]),
        ("empty", Vec::new()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn for_and_rle_select_bit_identically_to_the_plain_scan(
        uniform in prop::collection::vec(-40i32..40, 0..2600),
        zipf_seed in 0u64..1000,
        zipf_len in 0usize..2600,
        bounds in prop::collection::vec((-50i32..50, -50i32..50), 1..5),
        seqbase in 0u32..10_000,
    ) {
        for (shape, values) in i32_shapes(&uniform, zipf_seed, zipf_len) {
            let mut preds: Vec<ScanPred> = bounds
                .iter()
                .map(|&(a, b)| ScanPred::RangeI32 { lo: a.min(b), hi: a.max(b) })
                .collect();
            preds.push(ScanPred::RangeI32 { lo: 1, hi: 0 }); // empty
            preds.push(ScanPred::RangeI32 { lo: i32::MIN, hi: i32::MAX }); // full
            let bat = Bat::with_void_head(seqbase, Column::I32(values.clone()));
            // Both integer encodings must agree on every shape — not just
            // the one pick_encoding would choose for it.
            let reps = [
                CompressedColumn::For(ForColumn::encode(&values)),
                CompressedColumn::Rle(RleColumn::encode(&values)),
            ];
            for cc in &reps {
                prop_assert_eq!(cc.len(), values.len());
                assert_compressed_matches_uncompressed(
                    &bat,
                    cc,
                    &preds,
                    seqbase,
                    &format!("{shape}/{}", cc.encoding().name()),
                );
                prop_assert_eq!(cc.decode(), values.clone(), "{} roundtrip", shape);
            }
        }
    }

    #[test]
    fn dict_codes_select_bit_identically_to_the_plain_scan(
        picks in prop::collection::vec(0usize..MODES.len(), 0..2600),
        zipf_seed in 0u64..1000,
        seqbase in 0u32..10_000,
        constant in 0usize..MODES.len(),
    ) {
        let mut z = ZipfGenerator::new(MODES.len(), 1.0, zipf_seed);
        let zipf: Vec<&str> = picks.iter().map(|_| MODES[z.sample()]).collect();
        let shapes: Vec<(&str, Vec<&str>)> = vec![
            ("zipf", zipf),
            ("constant", vec![MODES[constant]; picks.len()]),
            ("empty", Vec::new()),
        ];
        for (shape, strs) in shapes {
            let bat = Bat::with_void_head(seqbase, Column::Str(StrColumn::from_strs(strs)));
            let sc = bat.tail().as_str_col().unwrap();
            let mut preds: Vec<ScanPred> = MODES
                .iter()
                .filter_map(|m| sc.dict.code_of(m))
                .map(|code| ScanPred::EqCode { code })
                .collect();
            preds.push(ScanPred::EqCode { code: u32::MAX }); // never a valid code
            let cc = CompressedColumn::Dict(DictColumn::encode(&sc.codes));
            assert_compressed_matches_uncompressed(&bat, &cc, &preds, seqbase, shape);
        }
    }
}

/// A two-column table over one i32 shape plus a cycling mode column.
fn shape_table(values: &[i32]) -> monet_mem::core::storage::DecomposedTable {
    let mut b =
        TableBuilder::new("shape", 100).column("v", ColType::I32).column("mode", ColType::Str);
    for (i, &v) in values.iter().enumerate() {
        b.push_row(&[Value::I32(v), Value::from(MODES[i % MODES.len()])]).unwrap();
    }
    b.finish()
}

/// End-to-end: the same plan under every compression policy × access mode ×
/// thread count — and with leaves delivered through `execute_with_scans`
/// from a cooperative compressed pass — returns the reference rows.
#[test]
fn engine_results_are_identical_under_every_compression_policy() {
    let machine = monet_mem::memsim::profiles::origin2000();
    // Deterministic instances of the five shapes, big enough that the
    // packed kernels span multiple frames.
    let mut z = ZipfGenerator::new(64, 1.0, 9);
    let zipf: Vec<i32> = (0..3000).map(|_| z.sample() as i32).collect();
    let uniform: Vec<i32> = (0..3000u64).map(|i| ((i * 2_654_435_761) % 97) as i32).collect();
    let mut sorted = uniform.clone();
    sorted.sort_unstable();
    let shapes: Vec<(&str, Vec<i32>)> = vec![
        ("uniform", uniform),
        ("zipf", zipf),
        ("sorted", sorted),
        ("constant", vec![7; 3000]),
        ("empty", Vec::new()),
    ];

    for (shape, values) in shapes {
        let table = shape_table(&values);
        let plan = Query::scan(&table)
            .filter(Pred::range_i32("v", 5, 60).and(Pred::eq_str("mode", "MAIL")))
            .group_by("mode")
            .agg(Agg::sum("v"))
            .agg(Agg::count())
            .build()
            .unwrap();

        let reference = execute(
            &mut NullTracker,
            &plan,
            &ExecOptions::cost_model(machine)
                .with_compress(CompressMode::Off)
                .with_threads(Threads::Fixed(1)),
        )
        .unwrap();

        for compress in [CompressMode::Off, CompressMode::On, CompressMode::Force] {
            for access in [AccessMode::Scan, AccessMode::Auto] {
                for threads in THREADS {
                    let opts = ExecOptions::cost_model(machine)
                        .with_compress(compress)
                        .with_access(access)
                        .with_threads(Threads::Fixed(threads));
                    let got = execute(&mut NullTracker, &plan, &opts).unwrap();
                    assert_eq!(
                        got.output, reference.output,
                        "{shape}: compress={compress:?} access={access:?} threads={threads}"
                    );

                    // The service seam: candidate lists produced by a
                    // cooperative pass over the compressed representation,
                    // delivered via the ticket.
                    let mut ticket = ScanTicket::new();
                    for r in scan_requests(&plan, PushdownMode::On) {
                        let pred = r.pred.kernel_pred();
                        let col = match r.compressed {
                            Some(cc) => ScanCol::Packed(cc, r.seqbase),
                            None => ScanCol::Plain(r.bat),
                        };
                        let lists =
                            select(&mut NullTracker, col, std::slice::from_ref(&pred), RowSet::All)
                                .unwrap();
                        ticket.provide(r.leaf, Arc::new(lists.into_iter().next().unwrap()));
                    }
                    let shared =
                        execute_with_scans(&mut NullTracker, &plan, &opts, &ticket).unwrap();
                    assert_eq!(
                        shared.output, reference.output,
                        "{shape}: shared delivery, compress={compress:?} access={access:?} \
                         threads={threads}"
                    );
                }
            }
        }
    }
}
