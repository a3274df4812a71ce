//! Reference scan selections.
//!
//! §3.2: "If the selectivity is low, most data needs to be visited and this
//! is best done with a scan-select (it has optimal data locality)." All
//! selections here are scans over a single BAT tail — stride 1/4/8 bytes
//! thanks to vertical decomposition — returning candidate OID lists.
//!
//! These three single-predicate loops are the *reference* the property
//! suites, `repro fig4` and `benches/native.rs` compare against. Nothing
//! on the execution path calls them: the executor and the query service
//! run [`monet_core::scan::select`], which charges a counting tracker the
//! same reads and the same per-tuple CPU work.

use memsim::{track_read, MemTracker, Work};
use monet_core::storage::{Bat, Codes, Oid};

use crate::EngineError;

/// Candidates: OIDs of qualifying tuples, ascending (scan order over a void
/// head).
pub type CandList = Vec<Oid>;

/// Range selection `lo ≤ x ≤ hi` over an `I32` tail.
pub fn range_select_i32<M: MemTracker>(
    trk: &mut M,
    bat: &Bat,
    lo: i32,
    hi: i32,
) -> Result<CandList, EngineError> {
    let data = bat.tail().as_i32().ok_or(EngineError::UnsupportedType {
        op: "range_select_i32",
        ty: bat.tail().value_type(),
    })?;
    let mut out = CandList::new();
    for (i, v) in data.iter().enumerate() {
        if M::ENABLED {
            track_read(trk, v);
            trk.work(Work::ScanIter, 1);
        }
        if (lo..=hi).contains(v) {
            out.push(bat.head_oid(i));
        }
    }
    Ok(out)
}

/// Range selection over an `F64` tail.
pub fn range_select_f64<M: MemTracker>(
    trk: &mut M,
    bat: &Bat,
    lo: f64,
    hi: f64,
) -> Result<CandList, EngineError> {
    let data = bat.tail().as_f64().ok_or(EngineError::UnsupportedType {
        op: "range_select_f64",
        ty: bat.tail().value_type(),
    })?;
    let mut out = CandList::new();
    for (i, v) in data.iter().enumerate() {
        if M::ENABLED {
            track_read(trk, v);
            trk.work(Work::ScanIter, 1);
        }
        if *v >= lo && *v <= hi {
            out.push(bat.head_oid(i));
        }
    }
    Ok(out)
}

/// Equality selection on a dictionary-encoded string column — the §3.1 fast
/// path: the constant is re-mapped to its code **once**, then the scan
/// compares 1- or 2-byte integers with no per-tuple decoding.
pub fn select_eq_str<M: MemTracker>(
    trk: &mut M,
    bat: &Bat,
    needle: &str,
) -> Result<CandList, EngineError> {
    let sc = bat
        .tail()
        .as_str_col()
        .ok_or(EngineError::UnsupportedType { op: "select_eq_str", ty: bat.tail().value_type() })?;
    let Some(code) = sc.dict.code_of(needle) else {
        return Err(EngineError::ConstantNotInDictionary(needle.to_owned()));
    };
    let mut out = CandList::new();
    match &sc.codes {
        Codes::U8(v) => {
            let code = code as u8;
            for (i, c) in v.iter().enumerate() {
                if M::ENABLED {
                    track_read(trk, c);
                    trk.work(Work::ScanIter, 1);
                }
                if *c == code {
                    out.push(bat.head_oid(i));
                }
            }
        }
        Codes::U16(v) => {
            let code = code as u16;
            for (i, c) in v.iter().enumerate() {
                if M::ENABLED {
                    track_read(trk, c);
                    trk.work(Work::ScanIter, 1);
                }
                if *c == code {
                    out.push(bat.head_oid(i));
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::NullTracker;
    use monet_core::storage::{Column, StrColumn};

    fn qty_bat() -> Bat {
        Bat::with_void_head(100, Column::I32(vec![5, 17, 3, 25, 17, 8]))
    }

    #[test]
    fn i32_range_select_returns_matching_oids() {
        let cands = range_select_i32(&mut NullTracker, &qty_bat(), 5, 17).unwrap();
        assert_eq!(cands, vec![100, 101, 104, 105]);
    }

    #[test]
    fn empty_and_full_ranges() {
        let b = qty_bat();
        assert!(range_select_i32(&mut NullTracker, &b, 100, 200).unwrap().is_empty());
        assert_eq!(range_select_i32(&mut NullTracker, &b, i32::MIN, i32::MAX).unwrap().len(), 6);
    }

    #[test]
    fn f64_range_select() {
        let b = Bat::with_void_head(0, Column::F64(vec![0.0, 0.1, 0.05, 0.2]));
        let cands = range_select_f64(&mut NullTracker, &b, 0.05, 0.1).unwrap();
        assert_eq!(cands, vec![1, 2]);
    }

    #[test]
    fn str_eq_select_remaps_once() {
        let b = Bat::with_void_head(
            1000,
            Column::Str(StrColumn::from_strs(["AIR", "MAIL", "AIR", "SHIP", "MAIL"])),
        );
        let cands = select_eq_str(&mut NullTracker, &b, "MAIL").unwrap();
        assert_eq!(cands, vec![1001, 1004]);
        let err = select_eq_str(&mut NullTracker, &b, "WALRUS").unwrap_err();
        assert!(matches!(err, EngineError::ConstantNotInDictionary(_)));
    }

    #[test]
    fn type_mismatch_is_an_error() {
        let b = qty_bat();
        assert!(matches!(
            select_eq_str(&mut NullTracker, &b, "x"),
            Err(EngineError::UnsupportedType { .. })
        ));
        assert!(matches!(
            range_select_f64(&mut NullTracker, &b, 0.0, 1.0),
            Err(EngineError::UnsupportedType { .. })
        ));
    }
}
