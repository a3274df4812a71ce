//! A closed-loop, Zipf-skewed query mix over the Item ⋈ Supplier schema —
//! the multi-user workload the query service schedules.
//!
//! "Closed loop" in the standard benchmarking sense: each simulated client
//! draws a spec, submits it, *waits for the result*, then draws the next —
//! so offered load adapts to service capacity, like interactive users. The
//! generator only yields [`QuerySpec`]s; the caller owns tables, sessions,
//! and the loop.
//!
//! Parameters are Zipf-skewed ([`crate::ZipfGenerator`]) so the mix looks
//! like real traffic: a few hot `qty` points and shipmodes draw most of
//! the point queries, while scans and joins of very different costs
//! interleave — exactly the load shape that makes
//! shortest-expected-cost-first admission matter. Everything is
//! deterministic per `(seed, client)`, so a concurrent run can be replayed
//! sequentially query by query.

use engine::plan::{Agg, LogicalPlan, PlanError, Pred, Query};
use monet_core::storage::DecomposedTable;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::item::SHIPMODES;
use crate::ZipfGenerator;

/// One query of the mix, as data — build it against concrete tables with
/// [`QuerySpec::build`].
#[derive(Debug, Clone, PartialEq)]
pub enum QuerySpec {
    /// The drill-down: discount band, grouped `SUM(price)` + `COUNT`.
    Drill {
        /// Inclusive discount band start (fraction).
        lo: f64,
        /// Inclusive discount band end.
        hi: f64,
    },
    /// A needle: one hot `qty` point and one hot shipmode, `SUM(price)` +
    /// `COUNT` (index territory when the table carries indexes).
    Needle {
        /// The `qty` point.
        qty: i32,
        /// The shipmode constant.
        shipmode: &'static str,
    },
    /// The fact ⋈ dimension join over a `qty` band, `SUM(rating)` +
    /// `COUNT`.
    SupplierJoin {
        /// Inclusive `qty` band start.
        lo: i32,
        /// Inclusive `qty` band end.
        hi: i32,
    },
    /// Grouped extremes: `MIN(qty)`/`MAX(qty)` + `COUNT` per shipmode over
    /// a discount band (exercises the grouped min/max aggregates).
    Extremes {
        /// Inclusive discount band start (fraction).
        lo: f64,
        /// Inclusive discount band end.
        hi: f64,
    },
    /// A wide scan: ungrouped `SUM(price)`/`MIN(qty)`/`MAX(qty)` over a
    /// `qty` band — the expensive tail of the mix.
    Sweep {
        /// Inclusive `qty` band start.
        lo: i32,
        /// Inclusive `qty` band end.
        hi: i32,
    },
    /// The pushdown showcase: one needle `supp` point conjoined with two
    /// wide bands over compressed columns — `batch` (sorted in runs of 64,
    /// so RLE) and `date1` (narrow local ranges, so frame-of-reference).
    /// The needle is *last* in predicate order: only a conjunction planner
    /// that reorders leaves and threads the survivor list gets the wide
    /// leaves down to a handful of touched frames.
    Selective {
        /// The `supp` needle (an equality point, `lo == hi`).
        supp: i32,
        /// Inclusive wide `batch` band start.
        batch_lo: i32,
        /// Inclusive wide `batch` band end.
        batch_hi: i32,
        /// Inclusive wide `date1` band start.
        date_lo: i32,
        /// Inclusive wide `date1` band end.
        date_hi: i32,
    },
    /// A single-leaf scan band for the shared-scan overlap sweep
    /// ([`OverlapMix`]): overlapping clients all filter the contended
    /// `qty` column (one shared buffer), private clients filter distinct
    /// columns — `SUM(price)` + `COUNT` either way. Bounds are in integer
    /// units; `F64` columns (`discnt`, `tax`, `price`) divide them by 100.
    Band {
        /// The filtered column of the Item table.
        col: &'static str,
        /// Inclusive band start (integer units).
        lo: i32,
        /// Inclusive band end (integer units).
        hi: i32,
    },
}

impl QuerySpec {
    /// A short stable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            QuerySpec::Drill { .. } => "drill",
            QuerySpec::Needle { .. } => "needle",
            QuerySpec::SupplierJoin { .. } => "join",
            QuerySpec::Extremes { .. } => "extremes",
            QuerySpec::Sweep { .. } => "sweep",
            QuerySpec::Selective { .. } => "selective",
            QuerySpec::Band { .. } => "band",
        }
    }

    /// Build the validated plan against an Item fact table
    /// ([`crate::item_table`] schema) and a supplier dimension with
    /// `(id: I32, rating: F64)` columns.
    pub fn build<'a>(
        &self,
        item: &'a DecomposedTable,
        supplier: &'a DecomposedTable,
    ) -> Result<LogicalPlan<'a>, PlanError> {
        match self {
            QuerySpec::Drill { lo, hi } => Query::scan(item)
                .filter(Pred::range_f64("discnt", *lo, *hi))
                .group_by("shipmode")
                .agg(Agg::sum("price"))
                .agg(Agg::count())
                .build(),
            QuerySpec::Needle { qty, shipmode } => Query::scan(item)
                .filter(Pred::range_i32("qty", *qty, *qty).and(Pred::eq_str("shipmode", shipmode)))
                .agg(Agg::sum("price"))
                .agg(Agg::count())
                .build(),
            QuerySpec::SupplierJoin { lo, hi } => Query::scan(item)
                .filter(Pred::range_i32("qty", *lo, *hi))
                .join(supplier, ("supp", "id"))
                .agg(Agg::sum("rating"))
                .agg(Agg::count())
                .build(),
            QuerySpec::Extremes { lo, hi } => Query::scan(item)
                .filter(Pred::range_f64("discnt", *lo, *hi))
                .group_by("shipmode")
                .agg(Agg::min("qty"))
                .agg(Agg::max("qty"))
                .agg(Agg::count())
                .build(),
            QuerySpec::Sweep { lo, hi } => Query::scan(item)
                .filter(Pred::range_i32("qty", *lo, *hi))
                .agg(Agg::sum("price"))
                .agg(Agg::min("qty"))
                .agg(Agg::max("qty"))
                .build(),
            QuerySpec::Selective { supp, batch_lo, batch_hi, date_lo, date_hi } => {
                Query::scan(item)
                    .filter(
                        Pred::range_i32("batch", *batch_lo, *batch_hi)
                            .and(Pred::range_i32("date1", *date_lo, *date_hi))
                            .and(Pred::range_i32("supp", *supp, *supp)),
                    )
                    .agg(Agg::sum("price"))
                    .agg(Agg::count())
                    .build()
            }
            QuerySpec::Band { col, lo, hi } => {
                let pred = if matches!(*col, "discnt" | "tax" | "price") {
                    Pred::range_f64(col, f64::from(*lo) / 100.0, f64::from(*hi) / 100.0)
                } else {
                    Pred::range_i32(col, *lo, *hi)
                };
                Query::scan(item).filter(pred).agg(Agg::sum("price")).agg(Agg::count()).build()
            }
        }
    }
}

/// Deterministic per-client generator of [`QuerySpec`]s.
#[derive(Debug)]
pub struct QueryMix {
    rng: StdRng,
    /// Hot `qty` points: Zipf rank 0 = the hottest of the 50 values.
    qty_zipf: ZipfGenerator,
    /// Hot shipmodes.
    mode_zipf: ZipfGenerator,
}

impl QueryMix {
    /// A mix stream for one `(seed, client)` pair. Distinct clients get
    /// decorrelated streams; the same pair always replays identically.
    pub fn for_client(seed: u64, client: usize) -> Self {
        let base = seed ^ (client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Self {
            rng: StdRng::seed_from_u64(base),
            qty_zipf: ZipfGenerator::new(50, 1.0, base ^ 0x517C_C1B7_2722_0A95),
            mode_zipf: ZipfGenerator::new(SHIPMODES.len(), 1.0, base ^ 0x2545_F491_4F6C_DD1D),
        }
    }

    /// Draw the next needle only — the Zipf-hot point-query stream the
    /// result cache feeds on (repeats of the hottest `(qty, shipmode)`
    /// pairs are the common case by construction).
    pub fn next_needle(&mut self) -> QuerySpec {
        QuerySpec::Needle {
            qty: Self::qty_of(self.qty_zipf.sample()),
            shipmode: SHIPMODES[self.mode_zipf.sample()],
        }
    }

    /// Map a Zipf rank onto 1..=50 via a fixed odd multiplier so the
    /// hottest values are spread over the domain.
    fn qty_of(rank: usize) -> i32 {
        ((rank * 37) % 50) as i32 + 1
    }

    /// Draw the next spec. Roughly: half cheap point/drill queries, the
    /// rest medium joins, selective conjunctions, and expensive sweeps.
    pub fn next_spec(&mut self) -> QuerySpec {
        let qty_of = Self::qty_of;
        match self.rng.random_range(0..11u32) {
            0..=2 => {
                let lo = self.rng.random_range(0..=8u32) as f64 / 100.0;
                QuerySpec::Drill { lo, hi: lo + 0.02 }
            }
            3..=5 => QuerySpec::Needle {
                qty: qty_of(self.qty_zipf.sample()),
                shipmode: SHIPMODES[self.mode_zipf.sample()],
            },
            6..=7 => {
                let lo = qty_of(self.qty_zipf.sample());
                QuerySpec::SupplierJoin { lo: lo.min(40), hi: lo.min(40) + 10 }
            }
            8 => {
                let lo = self.rng.random_range(0..=6u32) as f64 / 100.0;
                QuerySpec::Extremes { lo, hi: lo + 0.04 }
            }
            9 => {
                let batch_lo = 1 + self.rng.random_range(0..=3_000u32) as i32;
                let date_lo = 9_000 + self.rng.random_range(0..=600u32) as i32;
                QuerySpec::Selective {
                    supp: self.rng.random_range(1..=1_000u32) as i32,
                    batch_lo,
                    batch_hi: batch_lo + 4_000,
                    date_lo,
                    date_hi: date_lo + 1_000,
                }
            }
            _ => QuerySpec::Sweep { lo: 1, hi: self.rng.random_range(25..=50u32) as i32 },
        }
    }

    /// The first `n` specs of this stream.
    pub fn take(&mut self, n: usize) -> Vec<QuerySpec> {
        (0..n).map(|_| self.next_spec()).collect()
    }
}

/// The overlap knob for the shared-scan figure: a deterministic fraction
/// of the client population filters the *same* hot column (`qty`), the
/// rest rotate over distinct private `I32` columns — so predicate overlap
/// can be swept from 0 (nothing shareable between clients) to 1 (every
/// concurrent scan merges).
///
/// Client assignment is positional: clients `0..round(overlap × clients)`
/// are the overlapping ones, so a given `(clients, overlap)` pair always
/// produces the same partition, and every draw uses a fresh band (distinct
/// constants), keeping the result cache out of the shared-scan
/// measurement.
#[derive(Debug)]
pub struct OverlapMix {
    rng: StdRng,
    col: &'static str,
    lo: i32,
    hi: i32,
}

/// The contended column every overlapping client filters, with its domain.
const SHARED_BAND: (&str, i32, i32) = ("qty", 1, 50);

/// Private columns (name, domain lo, domain hi — integer units) rotated
/// over non-overlap clients: distinct buffers, so nothing merges between
/// them. The first eight entries keep an 8-client, zero-overlap population
/// fully disjoint; `batch` (sorted, run-64 clustered) gives the mix a
/// run-length-encoded scan target.
const PRIVATE_BANDS: [(&str, i32, i32); 9] = [
    ("date1", 9_000, 11_000),
    ("date2", 11_000, 12_000),
    ("supp", 1, 1_000),
    ("part", 1, 20_000),
    ("order", 1, 100_000),
    ("discnt", 0, 10),
    ("tax", 0, 8),
    ("price", 10, 500_000),
    ("batch", 1, 8_000),
];

impl OverlapMix {
    /// The band stream for one client of a `clients`-strong population
    /// with the given overlap fraction (clamped to `0.0..=1.0`). At most
    /// `PRIVATE_BANDS` private clients get genuinely distinct columns;
    /// larger populations wrap around.
    pub fn for_client(seed: u64, client: usize, clients: usize, overlap: f64) -> Self {
        let cutoff = (overlap.clamp(0.0, 1.0) * clients as f64).round() as usize;
        let (col, lo, hi) = if client < cutoff {
            SHARED_BAND
        } else {
            PRIVATE_BANDS[(client - cutoff) % PRIVATE_BANDS.len()]
        };
        let base = seed ^ (client as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
        Self { rng: StdRng::seed_from_u64(base), col, lo, hi }
    }

    /// Whether this client draws shared-column bands.
    pub fn is_shared(&self) -> bool {
        self.col == SHARED_BAND.0
    }

    /// The column this client's bands filter.
    pub fn column(&self) -> &'static str {
        self.col
    }

    /// Draw the next band spec (constants vary per draw, so the result
    /// cache never answers two of them).
    pub fn next_spec(&mut self) -> QuerySpec {
        let span = (self.hi - self.lo).max(2);
        let lo = self.lo + self.rng.random_range(0..=(span * 3 / 4) as u32) as i32;
        let width = 1 + self.rng.random_range(0..=(span / 8).max(1) as u32) as i32;
        QuerySpec::Band { col: self.col, lo, hi: (lo + width).min(self.hi) }
    }
}

/// The sharded-execution workload: a [`QueryMix`] spec stream paired with
/// the **shard-skew knob** — the Item fact table is built with its `supp`
/// partition keys drawn Zipf(`skew`) ([`crate::item_table_skewed`]), so
/// hash-sharding on `supp` concentrates the hot supplier's rows on one
/// shard. Every spec the stream draws lowers onto `(Item sharded on supp,
/// supplier sharded on id)`: selections and aggregates shard trivially and
/// the supplier join is co-partitioned on its keys by construction.
#[derive(Debug)]
pub struct ShardMix {
    mix: QueryMix,
    skew: f64,
}

impl ShardMix {
    /// A deterministic spec stream with the given partition-key skew
    /// (`0.0` = uniform shards, `1.0` = classic Zipf → one hot shard).
    pub fn new(seed: u64, skew: f64) -> Self {
        Self { mix: QueryMix::for_client(seed, 0), skew }
    }

    /// The configured partition-key skew exponent.
    pub fn skew(&self) -> f64 {
        self.skew
    }

    /// Build the `n`-row Item fact table this workload runs against, with
    /// the skew knob applied to the `supp` partition keys.
    pub fn item_table(&self, n: usize, seed: u64) -> DecomposedTable {
        crate::item::item_table_skewed(n, seed, self.skew)
    }

    /// Draw the next spec (delegates to the underlying [`QueryMix`]).
    pub fn next_spec(&mut self) -> QuerySpec {
        self.mix.next_spec()
    }

    /// The first `n` specs of this stream.
    pub fn take(&mut self, n: usize) -> Vec<QuerySpec> {
        self.mix.take(n)
    }
}

/// Specs for the service churn experiment (`repro shared --churn`): a
/// duplicate *storm* (every client submits the byte-identical plan, so
/// concurrent copies should collapse into one execution) and a *staggered*
/// band population (every client filters the same hot column with
/// *distinct* constants, so nothing collapses or caches — late arrivals
/// can only win by attaching to the running elevator pass).
///
/// Stateless on purpose: both shapes are pure functions of `(seed, round,
/// client)`, so a concurrent run replays sequentially spec by spec.
#[derive(Debug)]
pub struct ChurnMix;

impl ChurnMix {
    /// The storm plan for one round: identical across clients (that is the
    /// point), distinct across rounds (so the result cache never answers a
    /// later round's storm).
    pub fn storm_spec(seed: u64, round: usize) -> QuerySpec {
        let lo = 1 + ((seed as usize).wrapping_add(round * 7) % 30) as i32;
        QuerySpec::Band { col: SHARED_BAND.0, lo, hi: lo + 15 }
    }

    /// The staggered band for one client: same contended column as every
    /// other client, constants offset per client so each fingerprint is
    /// unique in the population.
    pub fn stagger_spec(seed: u64, client: usize) -> QuerySpec {
        let lo = 1 + ((seed as usize).wrapping_add(client * 3) % 25) as i32;
        QuerySpec::Band { col: SHARED_BAND.0, lo, hi: lo + 10 + client as i32 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item_table;
    use monet_core::storage::{ColType, TableBuilder, Value};

    fn supplier(n: usize) -> DecomposedTable {
        let mut b = TableBuilder::new("supplier", 0)
            .column("id", ColType::I32)
            .column("rating", ColType::F64);
        for i in 1..=n {
            b.push_row(&[Value::I32(i as i32), Value::F64((i % 7) as f64 / 2.0)]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn streams_are_deterministic_and_decorrelated() {
        let a = QueryMix::for_client(7, 0).take(20);
        let b = QueryMix::for_client(7, 0).take(20);
        assert_eq!(a, b, "same (seed, client) replays identically");
        let c = QueryMix::for_client(7, 1).take(20);
        assert_ne!(a, c, "clients draw different streams");
        let d = QueryMix::for_client(8, 0).take(20);
        assert_ne!(a, d, "seeds change the stream");
    }

    #[test]
    fn mix_covers_every_shape_and_all_plans_validate() {
        let item = item_table(500, 1);
        let supp = supplier(100);
        let mut mix = QueryMix::for_client(42, 3);
        let specs = mix.take(200);
        let mut seen = std::collections::HashSet::new();
        for spec in &specs {
            seen.insert(spec.label());
            spec.build(&item, &supp).expect("every generated spec validates");
        }
        for label in ["drill", "needle", "join", "extremes", "sweep", "selective"] {
            assert!(seen.contains(label), "200 draws never produced {label:?}");
        }
    }

    #[test]
    fn selective_spec_is_a_needle_behind_wide_compressed_bands() {
        let item = item_table(4_000, 1);
        let supp = supplier(100);
        let spec = QuerySpec::Selective {
            supp: 7,
            batch_lo: 1,
            batch_hi: 40,
            date_lo: 9_000,
            date_hi: 10_000,
        };
        assert_eq!(spec.label(), "selective");
        let plan = spec.build(&item, &supp).expect("selective plans validate");
        let reqs = engine::shared::scan_requests(&plan, engine::PushdownMode::On);
        assert_eq!(reqs.len(), 3);
        // The wide leaves ride compressed representations...
        assert_eq!(reqs[0].column, "batch");
        assert!(reqs[0].compressed.is_some(), "batch is run-clustered: RLE");
        assert_eq!(reqs[1].column, "date1");
        assert!(reqs[1].compressed.is_some(), "date1 has narrow local ranges: FOR");
        // ...and the needle sits last in predicate order, so only leaf
        // reordering can evaluate it first.
        assert_eq!(reqs[2].column, "supp");
    }

    #[test]
    fn overlap_mix_partitions_clients_deterministically() {
        let item = item_table(500, 1);
        let supp = supplier(50);
        // overlap 0.5 of 8 clients: exactly 4 shared, positional.
        let shared: Vec<bool> =
            (0..8).map(|c| OverlapMix::for_client(3, c, 8, 0.5).is_shared()).collect();
        assert_eq!(shared, [true, true, true, true, false, false, false, false]);
        // The extremes.
        assert!((0..8).all(|c| OverlapMix::for_client(3, c, 8, 1.0).is_shared()));
        assert!((0..8).all(|c| !OverlapMix::for_client(3, c, 8, 0.0).is_shared()));
        // Private clients rotate over genuinely distinct columns — an
        // 8-client zero-overlap population is fully disjoint.
        let cols: std::collections::HashSet<&str> =
            (0..8).map(|c| OverlapMix::for_client(3, c, 8, 0.0).column()).collect();
        assert_eq!(cols.len(), 8, "eight private clients, eight distinct columns: {cols:?}");
        // Deterministic replay, valid plans, fresh constants per draw.
        let mut a = OverlapMix::for_client(3, 2, 8, 0.5);
        let mut b = OverlapMix::for_client(3, 2, 8, 0.5);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..20 {
            let (sa, sb) = (a.next_spec(), b.next_spec());
            assert_eq!(sa, sb);
            assert_eq!(sa.label(), "band");
            sa.build(&item, &supp).expect("band plans validate");
            let QuerySpec::Band { col, lo, hi } = sa else { panic!("band") };
            assert!(col == "qty" && lo >= 1 && hi <= 50, "shared bands stay in the qty domain");
            distinct.insert((lo, hi));
        }
        assert!(distinct.len() > 10, "bands vary, so the result cache cannot answer them");
        // Private clients' plans validate too.
        for c in 4..8 {
            let spec = OverlapMix::for_client(3, c, 8, 0.5).next_spec();
            let QuerySpec::Band { col, .. } = spec else { panic!("band") };
            assert_ne!(col, "qty");
            spec.build(&item, &supp).expect("private band plans validate");
        }
    }

    #[test]
    fn churn_specs_are_deterministic_and_shaped_for_their_legs() {
        let item = item_table(500, 1);
        let supp = supplier(50);
        // Storm: identical across clients by construction (no per-client
        // input at all), distinct across rounds, always valid.
        let storms: Vec<QuerySpec> = (0..6).map(|r| ChurnMix::storm_spec(9, r)).collect();
        let distinct: std::collections::HashSet<_> =
            storms.iter().map(|s| format!("{s:?}")).collect();
        assert_eq!(distinct.len(), storms.len(), "rounds never repeat a storm: {storms:?}");
        for s in &storms {
            assert_eq!(ChurnMix::storm_spec(9, 0), ChurnMix::storm_spec(9, 0));
            s.build(&item, &supp).expect("storm plans validate");
        }
        // Stagger: everyone on the shared column, every client a unique
        // fingerprint (distinct constants), deterministic per client.
        let bands: Vec<QuerySpec> = (0..8).map(|c| ChurnMix::stagger_spec(9, c)).collect();
        let distinct: std::collections::HashSet<_> =
            bands.iter().map(|s| format!("{s:?}")).collect();
        assert_eq!(distinct.len(), bands.len(), "staggered bands never collide: {bands:?}");
        for (c, s) in bands.iter().enumerate() {
            assert_eq!(s, &ChurnMix::stagger_spec(9, c), "deterministic per (seed, client)");
            let QuerySpec::Band { col, lo, hi } = s else { panic!("band") };
            assert_eq!(*col, "qty", "everyone contends on the shared column");
            assert!(*lo >= 1 && *hi <= 50, "bands stay in the qty domain");
            s.build(&item, &supp).expect("stagger plans validate");
        }
    }

    #[test]
    fn shard_mix_specs_all_lower_onto_co_partitioned_shards() {
        let mut mix = ShardMix::new(13, 1.0);
        let item = mix.item_table(2_000, 13);
        let supp = supplier(1_000);
        let is = monet_core::shard::ShardedTable::partition(&item, "supp", 4).unwrap();
        let ss = monet_core::shard::ShardedTable::partition(&supp, "id", 4).unwrap();
        assert!(is.stats().skew > 1.3, "the knob must produce a hot shard");
        for spec in mix.take(60) {
            let plan = spec.build(&item, &supp).expect("spec validates");
            engine::dist::lower(&plan, &[&is, &ss])
                .unwrap_or_else(|e| panic!("{spec:?} must lower onto shards: {e}"));
        }
    }

    #[test]
    fn needle_only_stream_repeats_hot_points() {
        let mut mix = QueryMix::for_client(5, 0);
        let needles = (0..200).map(|_| mix.next_needle()).collect::<Vec<_>>();
        assert!(needles.iter().all(|s| matches!(s, QuerySpec::Needle { .. })));
        let distinct: std::collections::HashSet<_> = needles
            .iter()
            .map(|s| match s {
                QuerySpec::Needle { qty, shipmode } => (*qty, *shipmode),
                _ => unreachable!(),
            })
            .collect();
        assert!(
            distinct.len() < needles.len() * 3 / 4,
            "Zipf skew repeats hot needles ({} distinct of {})",
            distinct.len(),
            needles.len()
        );
    }

    #[test]
    fn needles_are_zipf_hot() {
        let mut mix = QueryMix::for_client(11, 0);
        let mut counts = std::collections::HashMap::new();
        for spec in mix.take(2000) {
            if let QuerySpec::Needle { qty, .. } = spec {
                *counts.entry(qty).or_insert(0usize) += 1;
            }
        }
        let max = counts.values().max().copied().unwrap_or(0);
        let total: usize = counts.values().sum();
        let distinct = counts.len();
        assert!(distinct >= 5, "needles should touch several qty points, got {distinct}");
        // Zipf s=1 over 50 ranks puts ~1/H(50) ≈ 22% of the mass on the
        // hottest point — far above the 2% a uniform draw would give it.
        assert!(max * 8 > total, "hottest point holds {max} of {total}: not skewed");
    }
}
