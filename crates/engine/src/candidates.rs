//! Candidate-list combinators: conjunctive and disjunctive selections.
//!
//! Monet evaluates multi-predicate selections as a sequence of single-column
//! scans whose candidate OID lists are then intersected/united — each scan
//! keeps its optimal stride-locality (§3.1), and the combinators run over
//! small sorted OID lists. Candidate lists produced by the scan selects are
//! ascending by construction, which these combinators require and preserve.

use monet_core::storage::Oid;

/// Intersect two ascending candidate lists (`AND` of predicates).
pub fn intersect(a: &[Oid], b: &[Oid]) -> Vec<Oid> {
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]), "a must be strictly ascending");
    debug_assert!(b.windows(2).all(|w| w[0] < w[1]), "b must be strictly ascending");
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
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

/// Unite two ascending candidate lists (`OR` of predicates).
pub fn union(a: &[Oid], b: &[Oid]) -> Vec<Oid> {
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]), "a must be strictly ascending");
    debug_assert!(b.windows(2).all(|w| w[0] < w[1]), "b must be strictly ascending");
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let take_a = j >= b.len() || (i < a.len() && a[i] <= b[j]);
        if take_a {
            if i < a.len() {
                if j < b.len() && a[i] == b[j] {
                    j += 1;
                }
                out.push(a[i]);
                i += 1;
            }
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intersect_union_basics() {
        let a = vec![1, 3, 5, 7, 9];
        let b = vec![3, 4, 5, 10];
        assert_eq!(intersect(&a, &b), vec![3, 5]);
        assert_eq!(union(&a, &b), vec![1, 3, 4, 5, 7, 9, 10]);
    }

    #[test]
    fn empty_operands() {
        let a = vec![1, 2, 3];
        assert!(intersect(&a, &[]).is_empty());
        assert!(intersect(&[], &a).is_empty());
        assert_eq!(union(&a, &[]), a);
        assert_eq!(union(&[], &a), a);
    }

    #[test]
    fn disjoint_and_identical() {
        let a = vec![1, 2];
        let b = vec![3, 4];
        assert!(intersect(&a, &b).is_empty());
        assert_eq!(union(&a, &b), vec![1, 2, 3, 4]);
        assert_eq!(intersect(&a, &a), a);
        assert_eq!(union(&a, &a), a);
    }

    #[test]
    fn composed_conjunction_matches_direct_filter() {
        use crate::select::{range_select_f64, range_select_i32};
        use memsim::NullTracker;
        use monet_core::storage::{Bat, Column};

        let n = 10_000;
        let qty = Bat::with_void_head(0, Column::I32((0..n).map(|i| i % 50).collect()));
        let price = Bat::with_void_head(0, Column::F64((0..n).map(|i| (i % 97) as f64).collect()));

        let c1 = range_select_i32(&mut NullTracker, &qty, 10, 20).unwrap();
        let c2 = range_select_f64(&mut NullTracker, &price, 30.0, 60.0).unwrap();
        let both = intersect(&c1, &c2);

        let expect: Vec<u32> = (0..n)
            .filter(|&i| (10..=20).contains(&(i % 50)) && (30..=60).contains(&(i % 97)))
            .map(|i| i as u32)
            .collect();
        assert_eq!(both, expect);
        assert!(!both.is_empty());
    }
}
