//! Activation-range calibration.
//!
//! The int8 path quantizes activations with *static* per-layer scales, so
//! before quantizing a model the f32 engine is run over a sample stream with
//! an [`ActivationRecorder`] attached.  The recorder keeps, per named layer
//! input, the running absolute maximum plus a bounded sample of absolute
//! values; [`ActivationRecorder::finish`] turns them into per-layer scales
//! using percentile clipping (`clip_percentile` of the observed |x| mass maps
//! to 127; the tail saturates), computed with the `tensor::stats` quantile
//! machinery.  Clipping at e.g. p99.9 instead of the absolute max trades a
//! tiny saturation tail for a finer grid over the bulk of the distribution —
//! the standard post-training-quantization recipe.

use crate::qtensor::scale_for_amax;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use tgnn_tensor::stats::percentile;
use tgnn_tensor::Float;

/// Observer for per-layer activation values, implemented by
/// [`ActivationRecorder`] and threaded through the f32 engine's batched
/// forward paths during a calibration pass.
pub trait ActivationObserver {
    /// Records the input values of the named layer (one call per batch).
    fn record(&mut self, layer: &'static str, values: &[Float]);
}

/// Tuning knobs of the quantization pass.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct QuantConfig {
    /// Percentile of the absolute-activation distribution mapped to the top
    /// of the int8 grid; values beyond it saturate.  100.0 disables clipping.
    pub clip_percentile: Float,
    /// Quantize the GRU memory-update projections too.  The GRU is recurrent
    /// (its output feeds the next update's input), so disabling this keeps
    /// the memory path in f32 when drift over long streams matters more than
    /// the update-stage speedup.
    pub quantize_gru: bool,
}

impl Default for QuantConfig {
    /// No clipping, GRU quantized.  Clipping (e.g. 99.9) buys a finer grid
    /// over the bulk of the distribution but saturates the tail — measured
    /// on this model it destabilises the vanilla-attention softmax (an
    /// occasional clipped query/key outlier flips a neighbor weight), so the
    /// safe default maps the true maximum onto the grid.  See the README's
    /// "Numerics & quantization" section for the measured trade-off.
    fn default() -> Self {
        Self {
            clip_percentile: 100.0,
            quantize_gru: true,
        }
    }
}

/// Per-layer statistics accumulated during calibration.
#[derive(Clone, Debug, Default)]
struct LayerStats {
    /// Running absolute maximum over everything observed.
    amax: Float,
    /// Bounded reservoir of absolute values for the percentile estimate.
    sample: Vec<Float>,
    /// Total values observed (reported; also drives reservoir thinning).
    observed: u64,
}

/// Cap on stored absolute values per layer: once full, further values only
/// update the running max (the percentile estimate rests on the prefix,
/// which at 64k values is ample for a p99.9 estimate).
const MAX_SAMPLE: usize = 1 << 16;

/// Records activation ranges during a calibration pass over the f32 engine.
#[derive(Clone, Debug, Default)]
pub struct ActivationRecorder {
    layers: HashMap<&'static str, LayerStats>,
}

impl ActivationRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finalises the pass into per-layer activation scales.
    pub fn finish(&self, config: &QuantConfig) -> ActivationRanges {
        let mut scales = HashMap::with_capacity(self.layers.len());
        for (&layer, stats) in &self.layers {
            let amax = if config.clip_percentile >= 100.0 || stats.sample.is_empty() {
                stats.amax
            } else {
                percentile(&stats.sample, config.clip_percentile)
            };
            scales.insert(
                layer.to_string(),
                LayerRange {
                    scale: scale_for_amax(amax),
                    amax: stats.amax,
                    clipped_amax: amax,
                    observed: stats.observed,
                },
            );
        }
        ActivationRanges { scales }
    }
}

impl ActivationObserver for ActivationRecorder {
    fn record(&mut self, layer: &'static str, values: &[Float]) {
        let stats = self.layers.entry(layer).or_default();
        stats.observed += values.len() as u64;
        for &v in values {
            if v.is_finite() {
                let a = v.abs();
                if a > stats.amax {
                    stats.amax = a;
                }
            }
        }
        if stats.sample.len() < MAX_SAMPLE {
            stats
                .sample
                .extend(values.iter().filter(|v| v.is_finite()).map(|v| v.abs()));
            stats.sample.truncate(MAX_SAMPLE);
        }
    }
}

/// Calibrated range of one layer's input activations.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LayerRange {
    /// The quantization scale (clipped amax / 127).
    pub scale: Float,
    /// Unclipped absolute maximum observed.
    pub amax: Float,
    /// Absolute maximum after percentile clipping — what maps to 127.
    pub clipped_amax: Float,
    /// Number of values the estimate is based on.
    pub observed: u64,
}

/// The calibration result: per-layer activation scales, keyed by the layer
/// names the engine's observer hooks use (e.g. `"attn.neighbor"`,
/// `"ftm.input"`, `"gru.input"`).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ActivationRanges {
    scales: HashMap<String, LayerRange>,
}

impl ActivationRanges {
    /// The calibrated scale of a layer.
    ///
    /// # Panics
    /// Panics if the layer was never observed — quantizing a layer without
    /// calibration data would silently produce garbage scales.
    pub fn scale(&self, layer: &str) -> Float {
        self.scales
            .get(layer)
            .unwrap_or_else(|| panic!("no calibration data recorded for layer {layer:?}"))
            .scale
    }

    /// The full range record of a layer, if observed.
    pub fn get(&self, layer: &str) -> Option<&LayerRange> {
        self.scales.get(layer)
    }

    /// True when the layer was observed during calibration.
    pub fn contains(&self, layer: &str) -> bool {
        self.scales.contains_key(layer)
    }

    /// Layer names observed, sorted (for reporting).
    pub fn layers(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.scales.keys().map(|s| s.as_str()).collect();
        names.sort_unstable();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_tracks_amax_and_percentile_clipping_tightens_the_scale() {
        let mut rec = ActivationRecorder::new();
        // 999 small values and one huge outlier.
        let mut values: Vec<Float> = (0..999).map(|i| (i % 100) as Float / 100.0).collect();
        values.push(1000.0);
        rec.record("layer", &values);

        let unclipped = rec.finish(&QuantConfig {
            clip_percentile: 100.0,
            ..QuantConfig::default()
        });
        let clipped = rec.finish(&QuantConfig {
            clip_percentile: 99.0,
            ..QuantConfig::default()
        });
        assert_eq!(unclipped.get("layer").unwrap().amax, 1000.0);
        assert!(clipped.scale("layer") < unclipped.scale("layer") / 100.0);
        assert_eq!(clipped.get("layer").unwrap().observed, 1000);
    }

    #[test]
    fn non_finite_activations_are_ignored_for_the_range() {
        let mut rec = ActivationRecorder::new();
        rec.record("l", &[1.0, Float::NAN, Float::INFINITY, -2.0]);
        let ranges = rec.finish(&QuantConfig::default());
        assert_eq!(ranges.get("l").unwrap().amax, 2.0);
        assert!(ranges.scale("l").is_finite());
    }

    #[test]
    #[should_panic(expected = "no calibration data")]
    fn uncalibrated_layer_lookup_panics() {
        let ranges = ActivationRecorder::new().finish(&QuantConfig::default());
        let _ = ranges.scale("missing");
    }

    #[test]
    fn reservoir_is_bounded() {
        let mut rec = ActivationRecorder::new();
        let chunk = vec![1.0 as Float; 10_000];
        for _ in 0..20 {
            rec.record("big", &chunk);
        }
        let ranges = rec.finish(&QuantConfig::default());
        assert_eq!(ranges.get("big").unwrap().observed, 200_000);
        assert!(ranges.scale("big") > 0.0);
    }
}
