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
use monet_mem::engine::select::{range_select_f64, range_select_i32, select_eq_str};
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
            preds.extend(common::edge_preds(&values));
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

/// Provably empty and single-value predicates against the frame shapes that
/// decide their fate from the header: inverted ranges and points placed
/// around each frame's own `[base, max]`, over frames a range straddles, a
/// partial last frame and constant (zero-bit) frames — three predicates at
/// a time, so every one of them is also run over every row set.
#[test]
fn degenerate_predicates_agree_on_straddled_partial_and_constant_frames() {
    let mut next = lcg(3);
    let varied: Vec<i32> = (0..3000).map(|_| (next() % 500) as i32 - 250).collect();
    let mut constant_middle = varied.clone();
    constant_middle[1024..2048].fill(7);
    let shapes = [
        ("partial last frame", varied),
        ("constant middle frame", constant_middle),
        ("constant column", vec![7; 3000]),
        ("one short frame", vec![-3, 9, 4]),
    ];
    for (shape, values) in shapes {
        let mut preds = common::edge_preds(&values);
        for frame in values.chunks(1024) {
            preds.extend(common::edge_preds(frame));
        }
        let bat = Bat::with_void_head(41, Column::I32(values.clone()));
        let reps = [
            CompressedColumn::For(ForColumn::encode(&values)),
            CompressedColumn::Rle(RleColumn::encode(&values)),
        ];
        for cc in &reps {
            for preds in preds.chunks(3) {
                let ctx = format!("{shape}/{} {preds:?}", cc.encoding().name());
                assert_compressed_matches_uncompressed(&bat, cc, preds, 41, &ctx);
            }
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

/// Column lengths of the width sweep: around a word of packed values,
/// around a frame, and several frames with a partial last one.
const SWEEP_LENS: [usize; 8] = [1, 63, 64, 65, 1023, 1024, 1025, 3000];

/// Deterministic pseudo-random stream for the width sweep.
fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut x = seed | 1;
    move || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        x >> 20
    }
}

/// `len` values whose every frame of two or more values spans exactly
/// `2^bits − 1` (so packs at `bits` bits), and the smallest value: frames
/// straddle zero, and 32 bits is `i32::MIN..=i32::MAX`.
fn width_column(bits: u32, len: usize) -> (Vec<i32>, i64) {
    let range = (1u64 << bits) - 1;
    let base = if bits == 32 { i32::MIN as i64 } else { -((range / 2) as i64) - 7 };
    let mut next = lcg(bits as u64 * 7919 + len as u64);
    let values = (0..len)
        .map(|i| {
            let delta = match i % 1024 {
                0 => 0,
                1 => range,
                _ => next() % (range + 1),
            };
            (base + delta as i64) as i32
        })
        .collect();
    (values, base)
}

/// Bands of ≈ 0 % (inverted, inside the frames' range), 1 %, 50 %, 99 % and
/// 100 % of a value range `[base, base + range]`.
fn bands(base: i64, range: u64) -> [(i64, i64); 5] {
    let (r, mid) = (range as i64, base + range as i64 / 2);
    [
        (mid + 1, mid),
        (mid, mid + r / 100),
        (base + r / 4, base + r / 4 + r / 2),
        (base + r / 200, base + r / 200 + r * 99 / 100),
        (base, base + r),
    ]
}

/// One row set of the width sweep, owning its candidate list.
enum Sweep {
    Range(usize, usize),
    Cands(Vec<u32>),
}

impl Sweep {
    fn rows(&self) -> RowSet<'_> {
        match self {
            Sweep::Range(lo, hi) => RowSet::Range(*lo, *hi),
            Sweep::Cands(cands) => RowSet::Cands(cands),
        }
    }
}

/// The row sets of the width sweep over a `len`-row column at `seqbase`: the
/// whole column, a range cutting its frames, and candidate lists — dense,
/// every 97th row, one per frame.
fn sweep_rows(seqbase: u32, len: usize) -> [(&'static str, Sweep); 5] {
    let cands = |it: &mut dyn Iterator<Item = usize>| {
        Sweep::Cands(it.map(|i| seqbase + i as u32).collect())
    };
    [
        ("all", Sweep::Range(0, len)),
        ("range", Sweep::Range(len / 3, len - len / 5)),
        ("dense", cands(&mut (0..len))),
        ("every 97th", cands(&mut (0..len).step_by(97))),
        ("one per frame", cands(&mut (0..len).skip(700).step_by(1024))),
    ]
}

/// `select(col, preds, rows)` — as one K-way pass and as K solo passes —
/// returns `full[k] ∩ rows` on every row set of the sweep.
fn assert_sweep(col: ScanCol<'_>, seqbase: u32, preds: &[ScanPred], full: &[Vec<u32>], ctx: &str) {
    for (name, sweep) in sweep_rows(seqbase, col.len()) {
        let presented = |oid: &u32| match &sweep {
            Sweep::Range(lo, hi) => (*lo..*hi).contains(&((oid - seqbase) as usize)),
            Sweep::Cands(cands) => cands.binary_search(oid).is_ok(),
        };
        let want: Vec<Vec<u32>> =
            full.iter().map(|l| l.iter().copied().filter(presented).collect()).collect();
        let got = select(&mut NullTracker, col, preds, sweep.rows()).unwrap();
        assert_eq!(got, want, "{ctx}, {name}: K = {} over {col:?}", preds.len());
        for (p, want) in preds.iter().zip(&want) {
            let solo =
                select(&mut NullTracker, col, std::slice::from_ref(p), sweep.rows()).unwrap();
            assert_eq!(&solo[0], want, "{ctx}, {name}: {p:?} solo over {col:?}");
        }
    }
}

/// `(reads, cpu_ns)` the simulator charged at the parent commit (the last
/// one that unpacked frames to a scratch buffer), summed over the width
/// sweep's lengths × non-empty bands: span passes (`All` and `Range`) over
/// the packed column, over the plain one, and restricted passes (every
/// band) over the plain one.
/// Every width reads the same (a tested frame is one header and one payload
/// read whatever its width) except constant frames, which have no payload.
/// The fused kernel must charge spans and plain columns exactly this; only
/// restricted packed passes moved.
fn parent_charges(bits: u32) -> [(u64, f64); 3] {
    let packed_span_reads = if bits == 0 { 84 } else { 138 };
    [(packed_span_reads, 588416.0), (36776, 588416.0), (31695, 507120.0)]
}

/// Kernel ≡ reference at every width: `select` over `Packed` ≡
/// `decode()`-then-filter ≡ `select` over `Plain` ≡ the engine's reference
/// loop, on every row set, as one K = 5 pass and as five solo passes; and
/// under the simulator every pass but a restricted packed one charges what
/// it charged before the kernel fused decode and compare.
#[test]
fn fused_kernel_matches_the_reference_at_every_width() {
    const SEQBASE: u32 = 700;
    for bits in 0..=32u32 {
        let mut charged = [(0u64, 0.0f64); 3];
        let mut charge = |slot: usize, c: monet_mem::memsim::EventCounters| {
            charged[slot].0 += c.reads;
            charged[slot].1 += c.cpu_ns;
        };
        for len in SWEEP_LENS {
            let (values, base) = width_column(bits, len);
            let fc = ForColumn::encode(&values);
            assert!(fc.frames().iter().all(|fr| fr.bits == bits || fr.bits == 0), "{bits} bits");
            let cc = CompressedColumn::For(fc.clone());
            let decoded = cc.decode();
            assert_eq!(decoded, values, "{bits} bits, {len} rows: roundtrip");
            let bat = Bat::with_void_head(SEQBASE, Column::I32(values.clone()));
            let (packed, plain) = (ScanCol::Packed(&cc, SEQBASE), ScanCol::Plain(&bat));
            let bands = bands(base, (1u64 << bits) - 1);
            let preds: Vec<ScanPred> = bands
                .iter()
                .map(|&(lo, hi)| ScanPred::RangeI32 { lo: lo as i32, hi: hi as i32 })
                .collect();
            let full: Vec<Vec<u32>> = bands
                .iter()
                .map(|&(lo, hi)| {
                    let want =
                        range_select_i32(&mut NullTracker, &bat, lo as i32, hi as i32).unwrap();
                    let filtered: Vec<u32> = (SEQBASE..)
                        .zip(&decoded)
                        .filter(|&(_, &v)| lo <= v as i64 && v as i64 <= hi)
                        .map(|(oid, _)| oid)
                        .collect();
                    assert_eq!(filtered, want, "{bits} bits, {len} rows: decode-then-filter");
                    want
                })
                .collect();
            let ctx = format!("{bits} bits, {len} rows");
            assert_sweep(packed, SEQBASE, &preds, &full, &ctx);
            assert_sweep(plain, SEQBASE, &preds, &full, &ctx);
            for (name, sweep) in sweep_rows(SEQBASE, len) {
                let ctx = format!("{ctx}, {name}");
                let rows = sweep.rows();
                for (p, &band) in preds.iter().zip(&bands) {
                    let p = std::slice::from_ref(p);
                    match &sweep {
                        // The inverted band is left out of the comparison:
                        // at the parent it unpacked the frames it falls in,
                        // now it is settled by the headers.
                        Sweep::Range(..) if band.0 > band.1 => {}
                        Sweep::Range(..) => {
                            charge(0, common::sim_counters(packed, p, rows));
                            charge(1, common::sim_counters(plain, p, rows));
                        }
                        Sweep::Cands(cands) => {
                            charge(2, common::sim_counters(plain, p, rows));
                            // A restricted packed pass reads the header of
                            // every frame holding a candidate and, where the
                            // header cannot settle the predicate, one payload
                            // word per candidate.
                            let reads: usize = fc
                                .frames()
                                .iter()
                                .enumerate()
                                .map(|(f, fr)| {
                                    let frame = SEQBASE + (f * 1024) as u32;
                                    let k = cands.partition_point(|&c| c < frame + 1024)
                                        - cands.partition_point(|&c| c < frame);
                                    let (min, max) = (fr.base as i64, fr.max as i64);
                                    let settled = band.0 > band.1
                                        || band.1 < min
                                        || band.0 > max
                                        || (band.0 <= min && max <= band.1);
                                    (k > 0) as usize + if settled { 0 } else { k }
                                })
                                .sum();
                            let c = common::sim_counters(packed, p, rows);
                            assert_eq!(c.reads as usize, reads, "{ctx}: {p:?} packed reads");
                            let cpu_ns = common::sim_counters(plain, p, rows).cpu_ns;
                            assert_eq!(c.cpu_ns, cpu_ns, "{ctx}: {p:?} CPU follows the candidates");
                        }
                    }
                }
            }
        }
        assert_eq!(charged, parent_charges(bits), "{bits} bits: simulator charges");
    }
}

/// The other lanes of the same sweep: `f64` against `range_select_f64`, and
/// 1- and 2-byte dictionary codes — plain and bit-packed — against
/// `select_eq_str`.
#[test]
fn every_lane_matches_its_reference_loop() {
    const SEQBASE: u32 = 700;
    for len in SWEEP_LENS {
        let ctx = format!("{len} rows");
        let mut next = lcg(len as u64);
        let values: Vec<f64> = (0..len).map(|_| (next() % 1000) as f64 / 8.0 - 60.0).collect();
        let bat = Bat::with_void_head(SEQBASE, Column::F64(values));
        let bands =
            [(1.0, 0.0), (0.0, 1.25), (-30.0, 30.0), (-59.0, 64.0), (f64::MIN, f64::INFINITY)];
        let preds = bands.map(|(lo, hi)| ScanPred::RangeF64 { lo, hi });
        let full = bands.map(|(lo, hi)| range_select_f64(&mut NullTracker, &bat, lo, hi).unwrap());
        assert_sweep(ScanCol::Plain(&bat), SEQBASE, &preds, &full, &ctx);

        for (distinct, width, mut sc) in
            [(3u64, 1, StrColumn::new_u8()), (300, 2, StrColumn::new_u16())]
        {
            for _ in 0..len {
                // Skewed towards the low codes, so selectivities differ.
                let code = (next() % distinct).min(next() % distinct);
                sc.push(&format!("s{code}")).unwrap();
            }
            let cc = CompressedColumn::Dict(DictColumn::encode(&sc.codes));
            let bat = Bat::with_void_head(SEQBASE, Column::Str(sc));
            let sc = bat.tail().as_str_col().unwrap();
            assert_eq!(sc.codes.width(), width);
            let needles: Vec<String> = [0, 1, distinct / 2, distinct - 1]
                .iter()
                .map(|code| format!("s{code}"))
                .filter(|needle| sc.dict.code_of(needle).is_some())
                .collect();
            let mut preds: Vec<ScanPred> = needles
                .iter()
                .map(|needle| ScanPred::EqCode { code: sc.dict.code_of(needle).unwrap() })
                .collect();
            let mut full: Vec<Vec<u32>> = needles
                .iter()
                .map(|needle| select_eq_str(&mut NullTracker, &bat, needle).unwrap())
                .collect();
            preds.push(ScanPred::EqCode { code: u32::MAX }); // never a valid code
            full.push(Vec::new());
            let ctx = format!("{ctx}, {width}-byte codes");
            assert_sweep(ScanCol::Plain(&bat), SEQBASE, &preds, &full, &ctx);
            assert_sweep(ScanCol::Packed(&cc, SEQBASE), SEQBASE, &preds, &full, &ctx);
        }
    }
}
