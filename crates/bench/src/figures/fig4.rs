//! **Figure 4** — vertically decomposed storage in BATs.
//!
//! The figure's quantitative content is the storage accounting: a
//! relational Item tuple occupies ~80+ bytes; each decomposition BAT is 8
//! bytes per BUN; with virtual OIDs and byte encodings the `shipmode`
//! column shrinks to 1 byte per BUN. We rebuild the Item table, account
//! every column, and then demonstrate the §3.1 consequence: the simulated
//! cost of scanning one attribute under NSM vs DSM.

use engine::exec::{execute, ExecOptions, QueryOutput};
use engine::plan::{Pred, Query};
use memsim::SimTracker;
use monet_core::storage::Oid;
use workload::item_table;

use crate::report::{fmt_ms, TextTable};
use crate::runner::RunOpts;

/// Rows used for the scan demonstration.
const SCAN_ROWS_DEFAULT: usize = 200_000;

/// Run the Figure 4 reproduction.
pub fn run(opts: &RunOpts) {
    let table = item_table(1_000, opts.seed);

    let mut t = TextTable::new(
        "Figure 4: bytes per tuple, relational record vs decomposed BATs",
        &["column", "NSM field", "BAT [oid,val]", "void BAT", "void+encoding"],
    );
    let nsm = table.to_nsm();
    let mut nsm_total = 0usize;
    let mut bat_total = 0usize;
    for (i, col) in table.columns().iter().enumerate() {
        let tail_w = col.bat.tail().tail_width();
        // The NSM field width: what the row store places inline. For the
        // comment (a char(27) in the paper's schema) account 27.
        let nsm_w = if col.name == "comment" { 27 } else { nsm.schema().field_type(i).width() };
        nsm_total += nsm_w;
        bat_total += tail_w;
        t.row(vec![
            col.name.clone(),
            format!("{nsm_w}"),
            format!("{}", 4 + tail_w),
            format!("{tail_w}"),
            format!("{}", col.bat.bun_width()),
        ]);
    }
    t.row(vec![
        "TOTAL".into(),
        format!("{nsm_total} (paper: ~80+)"),
        format!("{}", bat_total + 4 * table.columns().len()),
        format!("{bat_total}"),
        format!("{}", table.bytes_per_tuple()),
    ]);
    super::emit(opts, &t);

    scan_demo(opts);
}

/// §3.1's consequence, measured: select on `shipmode` = 'MAIL' against the
/// 1-byte encoded DSM column (stride 1) vs the same bytes embedded in an
/// NSM record (stride = record width).
fn scan_demo(opts: &RunOpts) {
    let n = match opts.scale {
        crate::runner::Scale::Quick => 50_000,
        _ => SCAN_ROWS_DEFAULT,
    };
    let table = item_table(n, opts.seed);
    let machine = opts.machine();

    // DSM: stride-1 scan over the encoded shipmode column, composed through
    // the plan API (the executor runs the same scan-select kernel).
    let ship = table.bat("shipmode").expect("item table has shipmode");
    let plan = Query::scan(&table)
        .filter(Pred::eq_str("shipmode", "MAIL"))
        .build()
        .expect("plan validates");
    let mut dsm_trk = SimTracker::for_machine(machine);
    let executed = execute(&mut dsm_trk, &plan, &ExecOptions::cost_model(machine)).expect("runs");
    let QueryOutput::Oids(dsm_hits) = executed.output else {
        unreachable!("bare select yields OIDs")
    };
    let dsm = dsm_trk.counters();

    // NSM: the same one-byte attribute inside the full record.
    let nsm = table.to_nsm();
    let field = nsm.schema().field_index("shipmode").expect("field exists");
    let mut nsm_trk = SimTracker::for_machine(machine);
    let _sum = nsm.scan_sum_u8_tracked(&mut nsm_trk, field);
    let nsm_c = nsm_trk.counters();

    // Sanity: the executor's tuples are the ones a row loop finds.
    let sc = ship.tail().as_str_col().expect("shipmode is encoded");
    let mail = sc.dict.code_of("MAIL").expect("MAIL is a shipmode");
    let oracle: Vec<Oid> = (0..sc.len())
        .filter(|&i| sc.codes.get(i) == mail)
        .map(|i| table.seqbase() + i as Oid)
        .collect();
    assert_eq!(dsm_hits, oracle);

    let mut t = TextTable::new(
        format!("Scan of one 1-byte attribute of {n} Item tuples (simulated origin2k)"),
        &["layout", "stride(B)", "ms", "L1 miss", "L2 miss", "speedup"],
    );
    let speedup = nsm_c.elapsed_ms() / dsm.elapsed_ms();
    t.row(vec![
        "NSM record".into(),
        format!("{}", nsm.record_width()),
        fmt_ms(nsm_c.elapsed_ms()),
        format!("{}", nsm_c.l1_misses),
        format!("{}", nsm_c.l2_misses),
        "1.0x".into(),
    ]);
    t.row(vec![
        "DSM byte-encoded BAT".into(),
        "1".into(),
        fmt_ms(dsm.elapsed_ms()),
        format!("{}", dsm.l1_misses),
        format!("{}", dsm.l2_misses),
        format!("{speedup:.1}x"),
    ]);
    super::emit(opts, &t);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Scale;

    #[test]
    fn runs_and_dsm_wins() {
        run(&RunOpts { scale: Scale::Quick, ..Default::default() });
    }
}
