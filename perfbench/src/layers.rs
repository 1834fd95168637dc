//! Per-layer timing from the benchmark's side of each call: the traced
//! run times calls into the layers' public functions; nothing inside
//! the program is instrumented.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::Outcome;

/// Every per-layer metric, with its unit, in the order printed. A
/// traced run prints all of them; a layer its workload never reaches
/// reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ingest.flat_us_per_op", "us"),
    ("ingest.fallback_us_per_op", "us"),
    ("ingest.accept_ratio", "ratio"),
    ("json.parse_us_per_op", "us"),
    ("solvers.validate_us_per_op", "us"),
    ("solvers.key_us_per_op", "us"),
    ("core.bandwidth_us_per_op", "us"),
    ("core.lexicographic_us_per_op", "us"),
    ("core.bottleneck_us_per_op", "us"),
    ("core.procmin_us_per_op", "us"),
    ("core.compose_us_per_op", "us"),
    ("baselines.nicol_us_per_op", "us"),
    ("json.render_us_per_op", "us"),
    ("json.render_bytes_per_op", "B"),
    ("cache.insert_us_per_op", "us"),
    ("cache.get_us_per_op", "us"),
    ("cache.hit_ratio", "ratio"),
    ("api.self_us_per_op", "us"),
    ("net.frame_us_per_op", "us"),
    ("http.read_request_us_per_op", "us"),
    ("net.wakeups_per_op", "count"),
    ("server.queue_us_per_op", "us"),
    ("server.parse_us_per_op", "us"),
    ("server.ingest_us_per_op", "us"),
    ("server.cache_us_per_op", "us"),
    ("server.serialize_us_per_op", "us"),
    ("server.write_us_per_op", "us"),
    ("session.apply_us_per_op", "us"),
    ("session.journal_bytes_per_op", "B"),
    ("session.warm_ratio", "ratio"),
    ("core.lexicographic_warm_us_per_op", "us"),
];

/// Orders the measured per-layer metrics as [`PER_LAYER`] and fills the
/// ones this workload does not reach with 0.
pub fn complete(measured: Vec<(String, f64, &'static str)>) -> Vec<(String, f64, &'static str)> {
    for (name, _, _) in &measured {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "per-layer metric {name} is not in PER_LAYER"
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = measured
                .iter()
                .find(|(n, _, _)| n == name)
                .map_or(0.0, |m| m.1);
            (name.to_string(), value, unit)
        })
        .collect()
}

/// Accumulated time and call count per layer.
#[derive(Default)]
pub struct Layers {
    spent: BTreeMap<&'static str, (Duration, u64)>,
    total: Duration,
}

impl Layers {
    /// Times one call into `layer`.
    pub fn time<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let result = std::hint::black_box(f());
        self.add(layer, started.elapsed());
        result
    }

    pub fn add(&mut self, layer: &'static str, spent: Duration) {
        let entry = self.spent.entry(layer).or_default();
        entry.0 += spent;
        entry.1 += 1;
        self.total += spent;
    }

    /// Time spent in all layers so far.
    pub fn total(&self) -> Duration {
        self.total
    }

    /// Reports `<layer>_us_per_op` for every layer called.
    pub fn report(&self, out: &mut Outcome) {
        for (layer, (spent, calls)) in &self.spent {
            let us = spent.as_secs_f64() * 1e6 / (*calls).max(1) as f64;
            out.metric(&format!("{layer}_us_per_op"), us, "us");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::J;

    /// `BENCHMARK.json` at the repository root declares what the
    /// benchmark prints: the same per-layer names and units, in order.
    #[test]
    fn per_layer_metrics_match_the_declaration() {
        // The reader takes integers only, so parse just the list (the
        // file's last array), not the bounds before it.
        let text = include_str!("../../BENCHMARK.json");
        let start = text.find("\"per_layer\"").expect("per_layer key");
        let list = &text[start..];
        let list = &list[list.find('[').unwrap()..=list.rfind(']').unwrap()];
        let declared = J::parse(list).expect("per_layer is a JSON list");
        let names: Vec<(&str, &str)> = declared
            .as_array()
            .expect("per_layer list")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(J::as_str).expect("name and unit");
                (field("name"), field("unit"))
            })
            .collect();
        assert_eq!(names, PER_LAYER);
    }
}
