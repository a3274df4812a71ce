//! Tuple reconstruction — the positional joins of §3.1.
//!
//! "The projection phase in query processing typically leads in Monet to
//! additional tuple-reconstruction joins on OID columns … When one of the
//! join columns is VOID, Monet uses positional lookup instead of e.g.
//! hash-lookup; effectively eliminating all join cost." Given a candidate
//! OID list and a void-headed column BAT, fetching is a gather at
//! `oid - seqbase`.

use memsim::MemTracker;
use monet_core::storage::{Bat, Codes, Column, Head, Oid, StorageError, StrColumn};

use crate::aggregate::gather;
use crate::EngineError;

/// Reconstruct a sub-BAT: candidates become the (materialized) head, the
/// gathered values the tail. An encoded string column keeps its encoding
/// (codes are gathered, the dictionary is shared) — no per-tuple decode,
/// per §3.1.
pub fn reconstruct<M: MemTracker>(
    trk: &mut M,
    bat: &Bat,
    cands: &[Oid],
) -> Result<Bat, EngineError> {
    let Head::Void { seqbase } = *bat.head() else {
        return Err(EngineError::Storage(StorageError::NonVoidHead));
    };
    let tail = match bat.tail() {
        Column::I32(v) => Column::I32(gather(trk, v, seqbase, cands)),
        Column::F64(v) => Column::F64(gather(trk, v, seqbase, cands)),
        Column::U8(v) => Column::U8(gather(trk, v, seqbase, cands)),
        Column::Oid(v) => Column::Oid(gather(trk, v, seqbase, cands)),
        Column::Str(sc) => Column::Str(StrColumn {
            codes: match &sc.codes {
                Codes::U8(v) => Codes::U8(gather(trk, v, seqbase, cands)),
                Codes::U16(v) => Codes::U16(gather(trk, v, seqbase, cands)),
            },
            dict: sc.dict.clone(),
        }),
        other => {
            return Err(EngineError::UnsupportedType { op: "reconstruct", ty: other.value_type() })
        }
    };
    Ok(Bat::new(Head::Oids(cands.to_vec()), tail)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::NullTracker;
    use monet_core::storage::Value;

    fn bat() -> Bat {
        Bat::with_void_head(1000, Column::I32(vec![10, 20, 30, 40]))
    }

    #[test]
    fn reconstruct_carries_oids() {
        let sub = reconstruct(&mut NullTracker, &bat(), &[1002, 1000]).unwrap();
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.bun(0), (1002, Value::I32(30)));
        assert_eq!(sub.bun(1), (1000, Value::I32(10)));
        assert!(!sub.head_is_void());
    }

    #[test]
    fn str_reconstruct_keeps_encoding() {
        let b = Bat::with_void_head(0, Column::Str(StrColumn::from_strs(["AIR", "MAIL", "SHIP"])));
        let sub = reconstruct(&mut NullTracker, &b, &[2, 0]).unwrap();
        let sc = sub.tail().as_str_col().unwrap();
        assert_eq!(sc.get(0), "SHIP");
        assert_eq!(sc.get(1), "AIR");
        assert_eq!(sc.codes.width(), 1);
    }

    #[test]
    fn non_void_head_rejected() {
        let b = Bat::new(Head::Oids(vec![5, 6]), Column::I32(vec![1, 2])).unwrap();
        assert!(matches!(
            reconstruct(&mut NullTracker, &b, &[5]),
            Err(EngineError::Storage(StorageError::NonVoidHead))
        ));
    }

    #[test]
    fn empty_candidates_yield_empty() {
        assert_eq!(reconstruct(&mut NullTracker, &bat(), &[]).unwrap().len(), 0);
    }
}
