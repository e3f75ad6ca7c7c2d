//! Shared harness code for the table/figure regeneration binaries,
//! `perf_baseline`, `quant_gate` and `crash_drill`.
//!
//! Every binary accepts a `--scale <f64>` argument (default 0.02) that
//! controls the fraction of the paper-scale synthetic datasets used, and a
//! `--epochs <n>` argument for the experiments that involve training.  With
//! the defaults each binary finishes in seconds; pass `--scale 1.0` to run at
//! the paper's dataset sizes.

use std::time::Duration;
use tgnn_core::{ModelConfig, OptimizationVariant, TgnModel, TimeEncoderKind};
use tgnn_data::{gdelt_like, generate, reddit_like, wikipedia_like, DatasetConfig};
use tgnn_graph::TemporalGraph;
use tgnn_hwsim::{AcceleratorSim, DesignConfig, FpgaDevice, SimulatedStreamReport};
use tgnn_tensor::TensorRng;

/// The three datasets evaluated in the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dataset {
    Wikipedia,
    Reddit,
    Gdelt,
}

impl Dataset {
    /// All datasets in the order the paper's tables use.
    pub fn all() -> [Dataset; 3] {
        [Dataset::Wikipedia, Dataset::Reddit, Dataset::Gdelt]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Dataset::Wikipedia => "Wikipedia",
            Dataset::Reddit => "Reddit",
            Dataset::Gdelt => "GDELT",
        }
    }

    /// Synthetic generator configuration at the given scale.
    pub fn config(&self, scale: f64, seed: u64) -> DatasetConfig {
        match self {
            Dataset::Wikipedia => wikipedia_like(scale, seed),
            Dataset::Reddit => reddit_like(scale, seed),
            Dataset::Gdelt => gdelt_like(scale, seed),
        }
    }

    /// Generates the synthetic graph.
    pub fn graph(&self, scale: f64, seed: u64) -> TemporalGraph {
        generate(&self.config(scale, seed))
    }
}

/// Simple command-line options shared by the binaries.
#[derive(Clone, Debug)]
pub struct HarnessArgs {
    /// Dataset scale in `(0, 1]`.
    pub scale: f64,
    /// Training epochs for the accuracy experiments.
    pub epochs: usize,
    /// Random seed.
    pub seed: u64,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        Self {
            scale: 0.02,
            epochs: 2,
            seed: 7,
        }
    }
}

/// A command-line flag description for the generated `--help` output:
/// `(flag, value placeholder, description)`.
pub type FlagHelp = (&'static str, &'static str, &'static str);

/// The flags every harness binary shares (parsed by [`HarnessArgs`]).
pub const SHARED_FLAGS: &[FlagHelp] = &[
    ("--scale", "<f64>", "dataset scale in (0, 1] (default 0.02)"),
    (
        "--epochs",
        "<n>",
        "training epochs for the accuracy experiments (default 2)",
    ),
    ("--seed", "<u64>", "random seed (default 7)"),
];

impl HarnessArgs {
    /// Parses `--scale`, `--epochs`, and `--seed` from `std::env::args`.
    pub fn parse() -> Self {
        let args: Vec<String> = std::env::args().collect();
        Self::parse_from(&args[1..])
    }

    /// Like [`Self::parse`], but first handles `--help`/`-h`: prints a usage
    /// message enumerating the shared flags *and* the binary's own
    /// `extra_flags`, then exits.  Every harness binary with non-shared
    /// flags routes through this so `--help` can never silently omit a
    /// flag the binary actually parses.
    pub fn parse_or_help(binary: &str, about: &str, extra_flags: &[FlagHelp]) -> Self {
        let args: Vec<String> = std::env::args().collect();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            print!("{}", Self::usage(binary, about, extra_flags));
            std::process::exit(0);
        }
        Self::parse_from(&args[1..])
    }

    /// The `--help` text: one line per flag, shared flags first.
    pub fn usage(binary: &str, about: &str, extra_flags: &[FlagHelp]) -> String {
        let mut out = format!(
            "{about}\n\nUsage: cargo run --release -p tgnn-bench --bin {binary} -- [flags]\n\nFlags:\n"
        );
        let width = SHARED_FLAGS
            .iter()
            .chain(extra_flags)
            .map(|(f, v, _)| f.len() + v.len() + 1)
            .max()
            .unwrap_or(0);
        for (flag, value, desc) in SHARED_FLAGS.iter().chain(extra_flags) {
            let head = if value.is_empty() {
                flag.to_string()
            } else {
                format!("{flag} {value}")
            };
            out.push_str(&format!("  {head:<width$}  {desc}\n"));
        }
        out.push_str(&format!("  {:<width$}  print this message\n", "--help, -h"));
        out
    }

    /// Parses the known flags from an argument slice.  Unknown arguments
    /// (e.g. a binary's own valueless flags like `--smoke`) are skipped one
    /// at a time, so they cannot shift a following `--flag value` pair out
    /// of alignment; a known flag followed by another `--flag` instead of a
    /// value keeps its default and leaves the following flag to be parsed
    /// normally.
    pub fn parse_from(args: &[String]) -> Self {
        let mut out = Self::default();
        let has_value = |i: usize| i + 1 < args.len() && !args[i + 1].starts_with("--");
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" if has_value(i) => {
                    out.scale = args[i + 1].parse().unwrap_or(out.scale);
                    i += 2;
                }
                "--epochs" if has_value(i) => {
                    out.epochs = args[i + 1].parse().unwrap_or(out.epochs);
                    i += 2;
                }
                "--seed" if has_value(i) => {
                    out.seed = args[i + 1].parse().unwrap_or(out.seed);
                    i += 2;
                }
                _ => i += 1,
            }
        }
        out
    }
}

/// The model configuration the paper uses for a dataset, shrunk so the
/// harness runs quickly at small scales (the structural ratios — message vs
/// memory vs attention dimensions, 10 sampled neighbors — are preserved).
pub fn harness_model_config(graph: &TemporalGraph, variant: OptimizationVariant) -> ModelConfig {
    let mut cfg = ModelConfig::paper_default(graph.node_feature_dim(), graph.edge_feature_dim());
    cfg.memory_dim = 32;
    cfg.time_dim = 32;
    cfg.embedding_dim = 32;
    cfg.lut_bins = 64;
    cfg.with_variant(variant)
}

/// The full-size (paper) model configuration for analytical experiments that
/// do not execute the network (complexity accounting, performance model,
/// resource model).
pub fn paper_model_config(dataset: Dataset, variant: OptimizationVariant) -> ModelConfig {
    let (node_dim, edge_dim) = match dataset {
        Dataset::Wikipedia | Dataset::Reddit => (0, 172),
        Dataset::Gdelt => (200, 0),
    };
    ModelConfig::paper_default(node_dim, edge_dim).with_variant(variant)
}

/// Builds (and LUT-calibrates when needed) a model for a graph.
pub fn build_model(graph: &TemporalGraph, config: &ModelConfig, seed: u64) -> TgnModel {
    let mut rng = TensorRng::new(seed);
    let mut model = TgnModel::new(config.clone(), &mut rng);
    if config.time_encoder == TimeEncoderKind::Lut {
        let deltas = tgnn_data::delta_t::memory_delta_t(graph.events(), graph.num_nodes());
        model.calibrate_lut(&deltas);
    }
    model
}

/// Times `batch_size`-edge batches of `graph`'s stream on an accelerator
/// design — the FPGA runs of Figures 5–7.  The model is warmed on the
/// stream's first quarter, so every timed batch finds the memory, mailbox
/// and neighbor tables a running stream has (a cold model's first batch
/// has no pending message and no neighbor, and times as nearly free), and
/// every batch size starts from the same state.  The timed window is the
/// next `min(4·max(batch_size, 500), ¾·len)` events cut to whole batches,
/// so a short last batch does not pull the mean down — or, where the rest
/// of the stream is shorter than one batch, all of it.
pub fn simulate_warm(
    graph: &TemporalGraph,
    model: TgnModel,
    device: FpgaDevice,
    design: DesignConfig,
    batch_size: usize,
) -> SimulatedStreamReport {
    let events = graph.events();
    let (warm, rest) = events.split_at(events.len() / 4);
    let window = (4 * batch_size.max(500)).min(rest.len());
    let take = if window < batch_size {
        window
    } else {
        window - window % batch_size
    };
    let mut sim = AcceleratorSim::new(model, graph.num_nodes(), device, design);
    sim.warm_up(warm, graph);
    sim.simulate_stream(&rest[..take], graph, batch_size)
}

/// Formats a duration in the unit Fig. 5 uses (milliseconds).
pub fn format_ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

/// Formats seconds as milliseconds.
pub fn secs_to_ms(s: f64) -> String {
    format!("{:.3}", s * 1e3)
}

/// Inserts (or replaces) a top-level `"key": { ... }` object in the
/// hand-rolled JSON baseline file (`BENCH_baseline.json`), creating the file
/// if it does not exist.  `row` is the already-formatted object body
/// including its braces; re-running with the same key is idempotent and
/// leaves every *other* row untouched, regardless of row order.
pub fn merge_baseline_row(path: &str, key: &str, row: &str) {
    let entry = format!("  \"{key}\": {row}");
    let mut body = std::fs::read_to_string(path).unwrap_or_default();
    // Splice out any previous row with this key (value span found by brace
    // balancing, so rows after it survive the replacement).
    if let Some(start) = body.find(&format!("\"{key}\":")) {
        if let Some(end) = json_value_end(&body, start) {
            // Absorb the separating comma: the preceding one if this is not
            // the first row, else the trailing one.
            let before = body[..start].trim_end();
            let (cut_start, cut_end) = if before.ends_with(',') {
                (before.len() - 1, end)
            } else {
                let after = end + body[end..].len() - body[end..].trim_start().len();
                if body[after..].starts_with(',') {
                    (body[..start].trim_end().len(), after + 1)
                } else {
                    (body[..start].trim_end().len(), end)
                }
            };
            body.replace_range(cut_start..cut_end, "");
        }
    }
    let json = match body.trim_end().strip_suffix('}') {
        // `prefix.trim() == "{"` is a file whose only row was just spliced
        // out — fall through to the fresh-file shape (a comma after the
        // bare brace would corrupt the JSON).
        Some(prefix) if !prefix.trim().is_empty() && prefix.trim() != "{" => {
            format!("{},\n{entry}\n}}\n", prefix.trim_end())
        }
        _ => format!("{{\n{entry}\n}}\n"),
    };
    std::fs::write(path, json)
        .unwrap_or_else(|e| panic!("failed to write baseline row {key:?} to {path}: {e}"));
}

/// The top-level `(key, raw value)` rows of a baseline file, in file order —
/// what a binary that rewrites its own rows uses to carry everyone else's
/// across.  Stops at the first malformed row.
pub fn baseline_rows(body: &str) -> Vec<(String, String)> {
    let mut rows = Vec::new();
    let mut at = 0;
    while let Some(key_start) = body[at..].find('"').map(|i| at + i) {
        let Some(key_len) = body[key_start + 1..].find('"') else {
            break;
        };
        let key_end = key_start + 1 + key_len;
        let Some(end) = json_value_end(body, key_end) else {
            break;
        };
        let colon = key_end + body[key_end..].find(':').expect("json_value_end found it");
        rows.push((
            body[key_start + 1..key_end].to_string(),
            body[colon + 1..end].trim().to_string(),
        ));
        at = end;
    }
    rows
}

/// Byte index just past the JSON value whose `"key":` starts at `key_start`
/// — brace/bracket-balanced and string-aware, so object rows end at their
/// own closing brace, not at the next occurrence of `}` in the file.
/// Returns `None` on malformed input (unbalanced braces / missing colon).
fn json_value_end(body: &str, key_start: usize) -> Option<usize> {
    let colon = key_start + body[key_start..].find(':')?;
    let bytes = body.as_bytes();
    let mut depth = 0usize;
    let mut in_string = false;
    let mut i = colon + 1;
    while i < bytes.len() {
        let c = bytes[i];
        if in_string {
            match c {
                b'\\' => i += 1, // skip the escaped byte
                b'"' => in_string = false,
                _ => {}
            }
        } else {
            match c {
                b'"' => in_string = true,
                b'{' | b'[' => depth += 1,
                b'}' | b']' => {
                    if depth == 0 {
                        // The enclosing object's closing brace ends a scalar
                        // value (no trailing comma / newline before it).
                        return (!body[colon + 1..i].trim().is_empty()).then_some(i);
                    }
                    depth -= 1;
                    if depth == 0 {
                        return Some(i + 1);
                    }
                }
                // A scalar value ends at the next comma or closing brace at
                // depth 0.
                b',' | b'\n' if depth == 0 && !body[colon + 1..i].trim().is_empty() => {
                    return Some(i);
                }
                _ => {}
            }
        }
        i += 1;
    }
    None
}

/// Prints a markdown-style table row.
pub fn print_row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints a markdown-style table header with a separator line.
pub fn print_header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!(
        "|{}|",
        cells.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_cover_table_ii_dimensions() {
        let w = Dataset::Wikipedia.config(0.01, 1);
        assert_eq!(w.edge_feature_dim, 172);
        let g = Dataset::Gdelt.config(0.01, 1);
        assert_eq!(g.node_feature_dim, 200);
        assert_eq!(Dataset::all().len(), 3);
        assert_eq!(Dataset::Reddit.name(), "Reddit");
    }

    #[test]
    fn harness_config_is_valid_for_every_variant() {
        let graph = Dataset::Wikipedia.graph(0.005, 3);
        for variant in OptimizationVariant::ladder() {
            let cfg = harness_model_config(&graph, variant);
            assert!(cfg.validate().is_ok());
        }
    }

    #[test]
    fn paper_config_matches_dataset_feature_dims() {
        let cfg = paper_model_config(Dataset::Gdelt, OptimizationVariant::Baseline);
        assert_eq!(cfg.node_feature_dim, 200);
        assert_eq!(cfg.edge_feature_dim, 0);
    }

    #[test]
    fn model_builder_calibrates_lut_variants() {
        let graph = Dataset::Wikipedia.graph(0.005, 3);
        let cfg = harness_model_config(&graph, OptimizationVariant::NpMedium);
        let model = build_model(&graph, &cfg, 1);
        assert!(model.uses_lut());
        let cfg = harness_model_config(&graph, OptimizationVariant::Baseline);
        let model = build_model(&graph, &cfg, 1);
        assert!(!model.uses_lut());
    }

    #[test]
    fn args_default_and_formatting() {
        let args = HarnessArgs::default();
        assert!(args.scale > 0.0 && args.scale <= 1.0);
        assert_eq!(format_ms(Duration::from_millis(5)), "5.000");
        assert_eq!(secs_to_ms(0.001), "1.000");
    }

    #[test]
    fn baseline_rows_lists_top_level_rows_only() {
        let body = "{\n  \"scale\": 0.02,\n  \"modes\": {\n    \"Serial\": { \"eps\": 1.0 }\n  },\n  \"ok\": true,\n  \"quant\": { \"name\": \"a, \\\"b\\\" }\", \"v\": [1, 2] }\n}\n";
        let rows = baseline_rows(body);
        let keys: Vec<&str> = rows.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["scale", "modes", "ok", "quant"]);
        assert_eq!(rows[0].1, "0.02");
        assert_eq!(rows[2].1, "true");
        assert!(rows[1].1.starts_with('{') && rows[1].1.ends_with('}'));
        assert!(rows[3].1.ends_with("[1, 2] }"));
        assert!(baseline_rows("").is_empty());
    }

    #[test]
    fn merge_baseline_row_creates_appends_and_replaces() {
        let path =
            std::env::temp_dir().join(format!("tgnn_merge_test_{}.json", std::process::id()));
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);

        // Creates the file when missing.
        merge_baseline_row(path, "alpha", "{ \"x\": 1 }");
        let body = std::fs::read_to_string(path).unwrap();
        assert!(body.contains("\"alpha\": { \"x\": 1 }"), "{body}");
        assert!(body.starts_with('{') && body.trim_end().ends_with('}'));

        // Appends a second key without touching the first.
        merge_baseline_row(path, "beta", "{ \"y\": 2 }");
        let body = std::fs::read_to_string(path).unwrap();
        assert!(body.contains("\"alpha\""), "{body}");
        assert!(body.contains("\"beta\""), "{body}");

        // Re-merging an existing key replaces it (idempotent re-runs).
        merge_baseline_row(path, "beta", "{ \"y\": 3 }");
        let body = std::fs::read_to_string(path).unwrap();
        assert_eq!(body.matches("\"beta\"").count(), 1, "{body}");
        assert!(body.contains("\"y\": 3"), "{body}");
        assert!(!body.contains("\"y\": 2"), "{body}");

        // Replacing a row that is NOT last must leave the rows after it
        // intact — `perf_baseline` re-merges `quant` with `quant_gate`
        // already behind it.
        merge_baseline_row(
            path,
            "gamma",
            "{\n    \"nested\": { \"z\": \"s{t}r\" }\n  }",
        );
        merge_baseline_row(path, "beta", "{ \"y\": 4 }");
        let body = std::fs::read_to_string(path).unwrap();
        assert!(body.contains("\"alpha\""), "{body}");
        assert!(body.contains("\"y\": 4"), "{body}");
        assert!(
            body.contains("\"gamma\"") && body.contains("s{t}r"),
            "replacing a middle row must not destroy later rows: {body}"
        );
        // Replacing the FIRST row keeps everything else too.
        merge_baseline_row(path, "alpha", "{ \"x\": 9 }");
        let body = std::fs::read_to_string(path).unwrap();
        assert!(body.contains("\"x\": 9"), "{body}");
        assert!(
            body.contains("\"gamma\"") && body.contains("\"beta\""),
            "{body}"
        );
        assert_eq!(body.matches("\"alpha\"").count(), 1, "{body}");

        let _ = std::fs::remove_file(path);

        // Replacing the only row of a single-row file must not leave a
        // stray comma after the opening brace.
        merge_baseline_row(path, "solo", "{ \"v\": 1 }");
        merge_baseline_row(path, "solo", "{ \"v\": 2 }");
        let body = std::fs::read_to_string(path).unwrap();
        assert!(!body.contains("{,"), "{body}");
        assert!(body.contains("\"v\": 2"), "{body}");
        assert_eq!(body.matches("\"solo\"").count(), 1, "{body}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn valueless_flags_do_not_shift_flag_value_pairs() {
        let argv = |s: &str| -> Vec<String> { s.split(' ').map(String::from).collect() };
        let args = HarnessArgs::parse_from(&argv("--smoke --seed 9 --scale 0.5"));
        assert_eq!(args.seed, 9);
        assert_eq!(args.scale, 0.5);
        let args = HarnessArgs::parse_from(&argv("--seed 3 --smoke"));
        assert_eq!(args.seed, 3);
        // A trailing flag with no value falls back to the default.
        let args = HarnessArgs::parse_from(&argv("--seed"));
        assert_eq!(args.seed, HarnessArgs::default().seed);
    }

    /// The generated `--help` text must enumerate every shared flag and
    /// every binary-specific flag it is given — a binary that parses a flag
    /// but omits it from its `extra_flags` table is the regression this
    /// guards against (keep the tables next to the parsing code).
    #[test]
    fn usage_text_enumerates_shared_and_extra_flags() {
        let extra: &[FlagHelp] = &[
            ("--out", "<path>", "baseline file"),
            ("--smoke", "", "tiny fixed-seed run"),
        ];
        let text = HarnessArgs::usage("quant_gate", "Accuracy gate.", extra);
        for (flag, _, desc) in SHARED_FLAGS.iter().chain(extra) {
            assert!(text.contains(flag), "missing flag {flag}:\n{text}");
            assert!(text.contains(desc), "missing description for {flag}");
        }
        assert!(text.contains("--help"));
        assert!(text.contains("quant_gate"));
    }

    /// Dedicated regression test for the valueless-flag alignment fix in
    /// `HarnessArgs::parse_from`: unknown arguments are skipped one at a
    /// time, so a binary's own flags — valueless (`--smoke`) or valued
    /// (`--out x.json`, `--gnn-workers 2`) — can appear anywhere without
    /// shifting a known `--flag value` pair out of alignment.
    #[test]
    fn unknown_flags_never_misalign_known_pairs() {
        let argv = |s: &str| -> Vec<String> { s.split(' ').map(String::from).collect() };
        let defaults = HarnessArgs::default();

        // Unknown valueless flag in every position around known pairs.
        for cmdline in [
            "--smoke --scale 0.4 --epochs 5 --seed 11",
            "--scale 0.4 --smoke --epochs 5 --seed 11",
            "--scale 0.4 --epochs 5 --smoke --seed 11",
            "--scale 0.4 --epochs 5 --seed 11 --smoke",
        ] {
            let args = HarnessArgs::parse_from(&argv(cmdline));
            assert_eq!(args.scale, 0.4, "{cmdline}");
            assert_eq!(args.epochs, 5, "{cmdline}");
            assert_eq!(args.seed, 11, "{cmdline}");
        }

        // Unknown *valued* flags interleaved with known pairs: both the
        // unknown flag and its value are skipped without consuming a known
        // flag's value.
        let args = HarnessArgs::parse_from(&argv(
            "--out BENCH.json --seed 21 --gnn-workers 2 --scale 0.25",
        ));
        assert_eq!(args.seed, 21);
        assert_eq!(args.scale, 0.25);
        assert_eq!(args.epochs, defaults.epochs);

        // A known flag whose "value" is the next flag: the parse must not
        // treat `--seed` as a number, and the following pair still applies.
        let args = HarnessArgs::parse_from(&argv("--scale --seed 13"));
        assert_eq!(args.scale, defaults.scale, "non-numeric value falls back");
        assert_eq!(args.seed, 13);

        // Unparseable values fall back to defaults without derailing later
        // pairs.
        let args = HarnessArgs::parse_from(&argv("--seed banana --epochs 9"));
        assert_eq!(args.seed, defaults.seed);
        assert_eq!(args.epochs, 9);

        // Empty argv is the defaults.
        let args = HarnessArgs::parse_from(&[]);
        assert_eq!(args.seed, defaults.seed);
        assert_eq!(args.scale, defaults.scale);
        assert_eq!(args.epochs, defaults.epochs);
    }
}
