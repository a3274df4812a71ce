//! Joins of BATs: one [`monet_core::join::join`] over a [`JoinPlan`].
//!
//! Converts BAT operands into the 8-byte [`Bun`] arrays the radix family
//! works on and hands them, with the caller's [`JoinPlan`] (the engine's
//! comes from the cost model, in [`crate::physical`]), to the core `join`
//! with a thread count, which clusters, joins the cluster pairs and returns
//! the join index. Includes the §3.1 void fast path: joining an OID
//! tail against a void head is pure positional lookup — no clustering, no
//! hashing, no per-tuple search.
//!
//! The BAT entry points ([`join_bats_with_plan`],
//! [`par_join_bats_with_plan`]) and the executor's candidate-restricted key
//! columns share one dispatch: a restricted key column is gathered straight
//! into `Bun`s, with no sub-BAT in between.

use memsim::{track_read, MemTracker, Work};
use monet_core::join::{self as kernels, Bun, FibHash, OidPair};
use monet_core::storage::{Bat, Column, Head, Oid, StorageError};
use monet_core::strategy::JoinPlan;

use crate::aggregate::gather_with;
use crate::reconstruct::reconstruct;
use crate::EngineError;

/// A join result: the `\[OID, OID\]` join index of \[Val87\].
pub type JoinIndex = Vec<OidPair>;

/// View a BAT as join tuples (`[head OID, u32 key]`).
///
/// Supported tails: `I32` (bit-cast to `u32`; equality is preserved) and
/// `Oid`.
pub fn buns_of(bat: &Bat) -> Result<Vec<Bun>, EngineError> {
    let n = bat.len();
    match bat.tail() {
        Column::I32(v) => Ok((0..n).map(|i| Bun::new(bat.head_oid(i), v[i] as u32)).collect()),
        Column::Oid(v) => Ok((0..n).map(|i| Bun::new(bat.head_oid(i), v[i])).collect()),
        other => Err(EngineError::UnsupportedType { op: "join", ty: other.value_type() }),
    }
}

/// [`buns_of`] the [`reconstruct`]ed rows of `bat` at `cands`, without the
/// sub-BAT: each `Bun` is `(cands[i], col[cands[i] − seqbase])`, charged as
/// exactly the gather `reconstruct` makes.
fn gather_buns<M: MemTracker>(
    trk: &mut M,
    bat: &Bat,
    cands: &[Oid],
) -> Result<Vec<Bun>, EngineError> {
    let Head::Void { seqbase } = *bat.head() else {
        return Err(EngineError::Storage(StorageError::NonVoidHead));
    };
    match bat.tail() {
        Column::I32(v) => Ok(gather_with(trk, v, seqbase, cands, |oid, k| Bun::new(oid, k as u32))),
        Column::Oid(v) => Ok(gather_with(trk, v, seqbase, cands, Bun::new)),
        other => Err(EngineError::UnsupportedType { op: "join", ty: other.value_type() }),
    }
}

/// The void positional fast path: `left.tail` holds OIDs into `right`'s
/// void head. Every left tuple joins (at most) positionally — "effectively
/// eliminating all join cost".
pub fn void_positional_join<M: MemTracker>(
    trk: &mut M,
    left: &Bat,
    right: &Bat,
) -> Result<JoinIndex, EngineError> {
    let Head::Void { seqbase } = right.head() else {
        return Err(EngineError::Storage(monet_core::storage::StorageError::NonVoidHead));
    };
    let tails = left.tail().as_oid().ok_or(EngineError::UnsupportedType {
        op: "void_positional_join",
        ty: left.tail().value_type(),
    })?;
    let mut out = JoinIndex::with_capacity(left.len());
    for (i, &oid) in tails.iter().enumerate() {
        if M::ENABLED {
            track_read(trk, &tails[i]);
            trk.work(Work::ScanIter, 1);
        }
        if let Some(pos) = oid.checked_sub(*seqbase) {
            if (pos as usize) < right.len() {
                out.push(OidPair::new(left.head_oid(i), oid));
            }
        }
    }
    Ok(out)
}

/// Execute `left ⋈ right` on tail equality with an explicit plan.
pub fn join_bats_with_plan<M: MemTracker>(
    trk: &mut M,
    left: &Bat,
    right: &Bat,
    plan: &JoinPlan,
) -> Result<JoinIndex, EngineError> {
    Ok(join_operands(trk, (left, None), (right, None), plan, 1)?.0)
}

/// Execute `left ⋈ right` with an explicit plan on `threads` threads —
/// bit-identical output to [`join_bats_with_plan`], untracked. See
/// [`monet_core::join::join`] for what fans out.
pub fn par_join_bats_with_plan(
    left: &Bat,
    right: &Bat,
    plan: &JoinPlan,
    threads: usize,
) -> Result<JoinIndex, EngineError> {
    Ok(join_operands(&mut memsim::NullTracker, (left, None), (right, None), plan, threads)?.0)
}

/// One side of a join: a key column, restricted to the candidate OIDs (of
/// its void head) when given.
pub(crate) type Operand<'a> = (&'a Bat, Option<&'a [Oid]>);

/// The one join dispatch, beneath the BAT entry points and the executor:
/// `left ⋈ right` over the operands' rows on `threads` threads, with the
/// per-worker pair counts of [`monet_core::join::join`] (`None` on the
/// positional path). A restricted
/// operand is gathered straight into `Bun`s — the pairs, their order and
/// the simulated charge of joining its [`reconstruct`]ed sub-BAT.
pub(crate) fn join_operands<M: MemTracker>(
    trk: &mut M,
    left: Operand<'_>,
    right: Operand<'_>,
    plan: &JoinPlan,
    threads: usize,
) -> Result<(JoinIndex, Option<Vec<usize>>), EngineError> {
    let ((lbat, lcands), (rbat, rcands)) = (left, right);
    if rcands.is_none() && rbat.head_is_void() && matches!(lbat.tail(), Column::Oid(_)) {
        // An OID tail meeting a void head needs no algorithm at all. The
        // positional path reads the left OIDs where they lie: the column,
        // or the sub-BAT of a restricted left side.
        let pairs = match lcands {
            None => void_positional_join(trk, lbat, rbat)?,
            Some(cands) => {
                let sub = reconstruct(trk, lbat, cands)?;
                void_positional_join(trk, &sub, rbat)?
            }
        };
        return Ok((pairs, None));
    }
    let mut buns = |(bat, cands): Operand<'_>| match cands {
        None => buns_of(bat),
        Some(cands) => gather_buns(trk, bat, cands),
    };
    let (l, r) = (buns(left)?, buns(right)?);
    Ok(kernels::join(trk, FibHash, l, r, plan, threads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use costmodel::plan::plan_join;
    use memsim::{profiles, NullTracker};
    use monet_core::join::sort_pairs;
    use monet_core::strategy::Algorithm;

    fn bat_i32(seqbase: u32, vals: Vec<i32>) -> Bat {
        Bat::with_void_head(seqbase, Column::I32(vals))
    }

    /// `left ⋈ right` by the cost model's plan for `right`'s cardinality.
    fn join_planned(left: &Bat, right: &Bat) -> Result<JoinIndex, EngineError> {
        let plan = plan_join(&profiles::origin2000(), right.len()).0;
        join_bats_with_plan(&mut NullTracker, left, right, &plan)
    }

    #[test]
    fn auto_join_matches_expectation() {
        let l = bat_i32(0, vec![3, 1, 4, 1, 5]);
        let r = bat_i32(100, vec![1, 5, 9]);
        let got = sort_pairs(join_planned(&l, &r).unwrap());
        assert_eq!(got, vec![OidPair::new(1, 100), OidPair::new(3, 100), OidPair::new(4, 101)]);
    }

    #[test]
    fn all_plans_agree() {
        let l = bat_i32(0, (0..500).map(|i| i % 60).collect());
        let r = bat_i32(0, (0..200).map(|i| i % 75).collect());
        let mk = |algorithm, bits: u32| JoinPlan {
            algorithm,
            bits,
            pass_bits: if bits == 0 { vec![] } else { vec![bits] },
        };
        let reference = sort_pairs(
            join_bats_with_plan(&mut NullTracker, &l, &r, &mk(Algorithm::SimpleHash, 0)).unwrap(),
        );
        for plan in [
            mk(Algorithm::PartitionedHash, 4),
            mk(Algorithm::Radix, 5),
            mk(Algorithm::SortMerge, 0),
        ] {
            let got = sort_pairs(join_bats_with_plan(&mut NullTracker, &l, &r, &plan).unwrap());
            assert_eq!(got, reference, "{plan:?}");
        }
    }

    #[test]
    fn negative_i32_keys_join_correctly() {
        let l = bat_i32(0, vec![-1, -2, 3]);
        let r = bat_i32(10, vec![-2, 3, -7]);
        let got = sort_pairs(join_planned(&l, &r).unwrap());
        assert_eq!(got, vec![OidPair::new(1, 10), OidPair::new(2, 11)]);
    }

    #[test]
    fn void_fast_path_is_positional() {
        // left: join index tail pointing into right's void head.
        let l = Bat::with_void_head(0, Column::Oid(vec![1003, 1001, 2000]));
        let r = bat_i32(1000, vec![10, 20, 30, 40]);
        let got = void_positional_join(&mut NullTracker, &l, &r).unwrap();
        // OID 2000 is out of range: dropped.
        assert_eq!(got, vec![OidPair::new(0, 1003), OidPair::new(1, 1001)]);
        // A planned join dispatches to the same path.
        assert_eq!(join_planned(&l, &r).unwrap(), got);
    }

    #[test]
    fn parallel_join_dispatch_is_bit_identical_per_algorithm() {
        let l = bat_i32(0, (0..4000).map(|i| i % 600).collect());
        let r = bat_i32(500, (0..3000).map(|i| i % 750).collect());
        let mk = |algorithm, bits: u32| JoinPlan {
            algorithm,
            bits,
            pass_bits: if bits == 0 { vec![] } else { vec![bits] },
        };
        for plan in [
            mk(Algorithm::PartitionedHash, 4),
            mk(Algorithm::Radix, 6),
            mk(Algorithm::SimpleHash, 0),
            mk(Algorithm::SortMerge, 0),
        ] {
            let seq = join_bats_with_plan(&mut NullTracker, &l, &r, &plan).unwrap();
            for threads in [1usize, 2, 4, 7] {
                let par = par_join_bats_with_plan(&l, &r, &plan, threads).unwrap();
                assert_eq!(par, seq, "{plan:?} threads={threads}");
            }
        }
        // The void fast path stays positional under the parallel entry too.
        let lv = Bat::with_void_head(0, Column::Oid(vec![502, 500]));
        let seq = void_positional_join(&mut NullTracker, &lv, &r).unwrap();
        let plan = mk(Algorithm::PartitionedHash, 2);
        assert_eq!(par_join_bats_with_plan(&lv, &r, &plan, 4).unwrap(), seq);
    }

    #[test]
    fn restricted_operands_join_like_their_reconstructed_sub_bats() {
        // The fused gather must give the pairs, in the order, and the
        // simulated reads, writes and work of reconstruct-then-join.
        let l = bat_i32(100, (0..3000).map(|i| i % 700).collect());
        let r = bat_i32(9000, (0..1000).map(|i| i % 900).collect());
        let lc: Vec<Oid> = (100..3100).filter(|o| o % 3 != 0).collect();
        let rc: Vec<Oid> = (9000..10_000).step_by(2).collect();
        let mk = |algorithm, bits: u32| JoinPlan {
            algorithm,
            bits,
            pass_bits: if bits == 0 { vec![] } else { vec![bits] },
        };
        let sim = || memsim::SimTracker::for_machine(profiles::origin2000());
        for plan in [
            mk(Algorithm::PartitionedHash, 4),
            mk(Algorithm::Radix, 5),
            mk(Algorithm::SimpleHash, 0),
            mk(Algorithm::SortMerge, 0),
        ] {
            for (lcands, rcands) in
                [(None, Some(&rc[..])), (Some(&lc[..]), None), (Some(&lc[..]), Some(&rc[..]))]
            {
                let mut old = sim();
                let side = |trk: &mut memsim::SimTracker, bat: &Bat, cands: Option<&[Oid]>| {
                    cands.map_or_else(|| bat.clone(), |c| reconstruct(trk, bat, c).unwrap())
                };
                let (lb, rb) = (side(&mut old, &l, lcands), side(&mut old, &r, rcands));
                let expect = join_bats_with_plan(&mut old, &lb, &rb, &plan).unwrap();

                let mut new = sim();
                let (got, _) =
                    join_operands(&mut new, (&l, lcands), (&r, rcands), &plan, 1).unwrap();
                assert_eq!(got, expect, "{plan:?}");
                let (o, n) = (old.counters(), new.counters());
                assert_eq!(
                    (n.reads, n.writes, n.cpu_ns),
                    (o.reads, o.writes, o.cpu_ns),
                    "{plan:?}"
                );
                for threads in [2, 3] {
                    let (par, _) =
                        join_operands(&mut NullTracker, (&l, lcands), (&r, rcands), &plan, threads)
                            .unwrap();
                    assert_eq!(par, expect, "{plan:?} threads={threads}");
                }
            }
        }
        // A restricted left OID column still takes the positional path.
        let lv = Bat::with_void_head(0, Column::Oid(vec![9003, 9001, 12_000, 9002]));
        let got = join_operands(
            &mut NullTracker,
            (&lv, Some(&[3, 0, 2])),
            (&r, None),
            &mk(Algorithm::Radix, 5),
            1,
        );
        assert_eq!(got.unwrap(), (vec![OidPair::new(3, 9002), OidPair::new(0, 9003)], None));
    }

    #[test]
    fn unsupported_tail_type_errors() {
        let l = Bat::with_void_head(0, Column::F64(vec![1.0]));
        let r = bat_i32(0, vec![1]);
        assert!(matches!(join_planned(&l, &r), Err(EngineError::UnsupportedType { .. })));
    }
}
