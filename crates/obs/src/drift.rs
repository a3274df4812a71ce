//! The cost-model drift observatory: per-[`ShapeKind`] EWMA residuals of
//! simulated-actual vs model-quoted operator time.
//!
//! Every scheduling decision in the service — admission order, thread
//! leases, shared-scan discounts — is made *against the model*
//! ([`costmodel::quote`]). The observatory closes the loop: at delivery,
//! each operator's model price (summed over its
//! [`costmodel::quote::OpShape`]s) is compared with the simulated
//! [`memsim`] counters the tracing run attributed to it
//! ([`DriftMonitor::record_op`]), and the ratio `actual / model` feeds a
//! per-shape-kind exponentially weighted moving average — five kinds:
//! select, join, aggregate, gather, merge. A kind whose EWMA leaves the configured band (`1/band ..
//! band`) is *flagged* — the signal a placement or sharding layer would
//! use to recalibrate before trusting the model on new hardware.

use std::collections::BTreeMap;

use costmodel::quote::{op_costs_ns, OpShape, ShapeKind};
use memsim::MachineConfig;

/// Default EWMA weight for the newest sample.
pub const DEFAULT_ALPHA: f64 = 0.2;

/// Default acceptance band: ratios within `[1/2, 2]` are healthy.
pub const DEFAULT_BAND: f64 = 2.0;

/// Running residual state for one operator shape kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShapeDrift {
    /// Residual samples recorded.
    pub samples: u64,
    /// EWMA of `actual_ns / model_ns` (seeded by the first sample).
    pub ewma: f64,
    /// Smallest ratio seen.
    pub min: f64,
    /// Largest ratio seen.
    pub max: f64,
    /// Total model nanoseconds across samples.
    pub model_ns: f64,
    /// Total simulated-actual nanoseconds across samples.
    pub actual_ns: f64,
}

impl ShapeDrift {
    /// Lifetime mean ratio: total actual over total model time.
    pub fn mean_ratio(&self) -> f64 {
        if self.model_ns > 0.0 {
            self.actual_ns / self.model_ns
        } else {
            0.0
        }
    }
}

/// Accumulates model-vs-actual residuals per shape kind.
#[derive(Debug, Clone)]
pub struct DriftMonitor {
    alpha: f64,
    band: f64,
    shapes: BTreeMap<ShapeKind, ShapeDrift>,
}

impl DriftMonitor {
    /// A monitor flagging EWMA ratios outside `[1/band, band]`
    /// (`band >= 1`), with the default EWMA weight.
    pub fn new(band: f64) -> Self {
        Self { alpha: DEFAULT_ALPHA, band: band.max(1.0), shapes: BTreeMap::new() }
    }

    /// Override the EWMA weight (`0 < alpha <= 1`).
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha.clamp(f64::MIN_POSITIVE, 1.0);
        self
    }

    /// Record one residual: an operator of `kind` the model priced at
    /// `model_ns` that simulated to `actual_ns`. Non-positive times carry
    /// no ratio information and are ignored.
    pub fn record(&mut self, kind: ShapeKind, model_ns: f64, actual_ns: f64) {
        if model_ns.is_nan() || actual_ns.is_nan() || model_ns <= 0.0 || actual_ns <= 0.0 {
            return;
        }
        let ratio = actual_ns / model_ns;
        let d = self.shapes.entry(kind).or_insert(ShapeDrift {
            samples: 0,
            ewma: ratio,
            min: ratio,
            max: ratio,
            model_ns: 0.0,
            actual_ns: 0.0,
        });
        d.samples += 1;
        d.ewma = self.alpha * ratio + (1.0 - self.alpha) * d.ewma;
        d.min = d.min.min(ratio);
        d.max = d.max.max(ratio);
        d.model_ns += model_ns;
        d.actual_ns += actual_ns;
    }

    /// Record one operator (or cooperative scan pass) that simulated to
    /// `actual_ns` on `cfg`: price each of its `shapes`, split the actual
    /// time across them in proportion to those prices, and record one
    /// residual per shape under its kind — the single attribution scheme
    /// of the service-level and the per-shard-copy observatories.
    pub fn record_op(&mut self, cfg: &MachineConfig, shapes: &[OpShape], actual_ns: f64) {
        let models = op_costs_ns(cfg, shapes);
        let model_total: f64 = models.iter().sum();
        if model_total <= 0.0 {
            return;
        }
        for (shape, model) in shapes.iter().zip(&models) {
            self.record(shape.kind(), *model, actual_ns * model / model_total);
        }
    }

    /// Snapshot the per-kind residuals.
    pub fn report(&self) -> DriftReport {
        DriftReport {
            band: self.band,
            rows: self
                .shapes
                .iter()
                .map(|(&kind, &drift)| DriftRow {
                    kind,
                    drift,
                    flagged: !(1.0 / self.band..=self.band).contains(&drift.ewma),
                })
                .collect(),
        }
    }
}

/// One kind's row in a [`DriftReport`].
#[derive(Debug, Clone, Copy)]
pub struct DriftRow {
    /// The operator shape kind.
    pub kind: ShapeKind,
    /// Its residual state.
    pub drift: ShapeDrift,
    /// Whether the EWMA left the band.
    pub flagged: bool,
}

/// A snapshot of the drift observatory, one row per shape kind observed.
#[derive(Debug, Clone, Default)]
pub struct DriftReport {
    /// The acceptance band in force.
    pub band: f64,
    /// Per-kind residuals, ordered by kind.
    pub rows: Vec<DriftRow>,
}

impl DriftReport {
    /// Kinds whose EWMA left the band.
    pub fn flagged(&self) -> Vec<ShapeKind> {
        self.rows.iter().filter(|r| r.flagged).map(|r| r.kind).collect()
    }
}

impl std::fmt::Display for DriftReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:<14} {:>8} {:>10} {:>10} {:>10} {:>10}  band ±{:.1}x",
            "shape", "samples", "ewma", "mean", "min", "max", self.band
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<14} {:>8} {:>9.2}x {:>9.2}x {:>9.2}x {:>9.2}x  {}",
                r.kind.name(),
                r.drift.samples,
                r.drift.ewma,
                r.drift.mean_ratio(),
                r.drift.min,
                r.drift.max,
                if r.flagged { "FLAGGED" } else { "ok" }
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_seeds_on_first_sample_and_tracks() {
        let mut m = DriftMonitor::new(2.0).with_alpha(0.5);
        m.record(ShapeKind::Select, 100.0, 110.0);
        let r = m.report();
        assert_eq!(r.rows.len(), 1);
        assert!((r.rows[0].drift.ewma - 1.1).abs() < 1e-12, "seeded at the first ratio");
        m.record(ShapeKind::Select, 100.0, 90.0);
        let e = m.report().rows[0].drift.ewma;
        assert!((e - (0.5 * 0.9 + 0.5 * 1.1)).abs() < 1e-12);
        assert_eq!(m.report().rows[0].drift.samples, 2);
        assert!((m.report().rows[0].drift.mean_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn band_flags_both_directions() {
        let mut m = DriftMonitor::new(2.0);
        m.record(ShapeKind::Select, 100.0, 150.0); // 1.5x: inside
        let r = m.report();
        assert!(!r.rows[0].flagged);
        let mut over = DriftMonitor::new(2.0);
        over.record(ShapeKind::Aggregate, 100.0, 500.0); // 5x: out
        assert_eq!(over.report().flagged(), vec![ShapeKind::Aggregate]);
        let mut under = DriftMonitor::new(2.0);
        under.record(ShapeKind::Gather, 500.0, 100.0); // 0.2x: out
        assert_eq!(under.report().flagged(), vec![ShapeKind::Gather]);
    }

    #[test]
    fn an_operator_splits_its_time_across_its_shapes_by_model_price() {
        use costmodel::scan::Select;
        let cfg = memsim::profiles::origin2000();
        let shapes = [
            OpShape::Gather { rows: 10_000 },
            OpShape::Gather { rows: 10_000 },
            OpShape::Aggregate { rows: 10_000, columns: 1, grouped: true },
            OpShape::Select(Select::plain(10_000, 4)),
        ];
        let model_total: f64 = op_costs_ns(&cfg, &shapes).iter().sum();
        let mut m = DriftMonitor::new(2.0);
        m.record_op(&cfg, &shapes, 1.5 * model_total);
        let r = m.report();
        let kinds: Vec<_> = r.rows.iter().map(|row| (row.kind, row.drift.samples)).collect();
        assert_eq!(
            kinds,
            [(ShapeKind::Select, 1), (ShapeKind::Aggregate, 1), (ShapeKind::Gather, 2)],
            "one residual per shape, keyed by kind"
        );
        // A proportional split gives every shape the operator's own ratio,
        // and loses none of the time.
        assert!(r.rows.iter().all(|row| (row.drift.ewma - 1.5).abs() < 1e-9), "{r}");
        let actual: f64 = r.rows.iter().map(|row| row.drift.actual_ns).sum();
        assert!((actual - 1.5 * model_total).abs() < 1e-6 * model_total);
        // Nothing to price, or nothing measured: no residual.
        m.record_op(&cfg, &[], 100.0);
        m.record_op(&cfg, &shapes, 0.0);
        assert_eq!(m.report().rows.iter().map(|row| row.drift.samples).sum::<u64>(), 4);
    }

    #[test]
    fn zero_or_negative_times_are_ignored() {
        let mut m = DriftMonitor::new(2.0);
        m.record(ShapeKind::Select, 0.0, 100.0);
        m.record(ShapeKind::Select, 100.0, 0.0);
        m.record(ShapeKind::Select, f64::NAN, 100.0);
        assert!(m.report().rows.is_empty());
    }
}
