//! Every metric the benchmark prints: name, unit, which way is better.
//! `BENCHMARK.json` declares exactly these (a unit test holds the two
//! together); `README.md` says what each one measures.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

/// What a user of the server sees; printed by an untraced run.
pub const END_TO_END: &[MetricDef] = &[
    hi("events_per_s", "events/s"),
    lo("lat_p50_ms", "ms"),
    lo("setup_s", "s"),
    lo("peak_rss_mb", "MB"),
];

/// Single layers (the crate names); printed by a traced run.
pub const PER_LAYER: &[MetricDef] = &[
    // data
    hi("data.generate.events_per_s", "events/s"),
    // quant
    lo("quant.calibrate_s", "s"),
    // tensor
    lo("tensor.gemm_f32.gru_in.ns_per_call", "ns"),
    hi("tensor.gemm_f32.gru_in.gflops", "GFLOP/s"),
    lo("tensor.gemm_f32.attn_kv.ns_per_call", "ns"),
    hi("tensor.gemm_f32.attn_kv.gflops", "GFLOP/s"),
    lo("tensor.gemm_f32.attn_q.ns_per_call", "ns"),
    hi("tensor.gemm_f32.attn_q.gflops", "GFLOP/s"),
    lo("tensor.gemm_i8.gru_in.ns_per_call", "ns"),
    lo("tensor.gemm_i8.attn_kv.ns_per_call", "ns"),
    lo("tensor.gemm_i8.attn_q.ns_per_call", "ns"),
    // nn
    lo("nn.gru.ns_per_row", "ns"),
    lo("nn.attn_vanilla.ns_per_vertex", "ns"),
    lo("nn.attn_simplified.ns_per_vertex", "ns"),
    lo("nn.time_cos.ns_per_dt", "ns"),
    lo("nn.time_lut.ns_per_dt", "ns"),
    // graph
    lo("graph.sample.ns_per_vertex", "ns"),
    lo("graph.commit.ns_per_event", "ns"),
    lo("graph.gate.roundtrip_ns", "ns"),
    // core
    lo("core.sample.ns_per_event", "ns"),
    lo("core.memory.ns_per_event", "ns"),
    lo("core.gnn.ns_per_event", "ns"),
    lo("core.update.ns_per_event", "ns"),
    lo("core.engine.ns_per_event", "ns"),
    hi("core.engine.events_per_s", "events/s"),
    lo("core.gather.ns_per_vertex", "ns"),
    lo("core.memory_commit.ns_per_event", "ns"),
    lo("core.backend_f32.gnn.ns_per_vertex", "ns"),
    lo("core.backend_int8.gnn.ns_per_vertex", "ns"),
    lo("core.touched_per_event", "count"),
    lo("core.neighbors_per_vertex", "count"),
    // serve
    lo("serve.lat_p99_ms", "ms"),
    lo("serve.submit.ns_per_event", "ns"),
    lo("serve.submit.blocked_share", "fraction"),
    lo("serve.poll.ns_per_call", "ns"),
    lo("serve.poll.empty_share", "fraction"),
    lo("serve.drain.ms", "ms"),
    lo("serve.new.ms", "ms"),
    lo("serve.stage.sample.busy_ns_per_event", "ns"),
    lo("serve.stage.memory.busy_ns_per_event", "ns"),
    lo("serve.stage.gnn.busy_ns_per_event", "ns"),
    lo("serve.stage.update.busy_ns_per_event", "ns"),
    hi("serve.batch_events.mean", "count"),
    lo("serve.queue.blocked_sends_per_kevent", "count"),
    lo("serve.seg.ingress_wait.share", "fraction"),
    lo("serve.seg.seal_wait.share", "fraction"),
    lo("serve.seg.sample.share", "fraction"),
    lo("serve.seg.memory.share", "fraction"),
    lo("serve.seg.gnn.share", "fraction"),
    lo("serve.seg.reorder_barrier.share", "fraction"),
    lo("serve.seg.wal_sync_wait.share", "fraction"),
    lo("serve.seg.deliver.share", "fraction"),
    lo("serve.queue_spsc.ns_per_item", "ns"),
    lo("serve.queue_mpmc.ns_per_item", "ns"),
    lo("serve.threads", "count"),
    lo("serve.gap_ratio", "ratio"),
    hi("serve.pipeline_efficiency", "ratio"),
    lo("serve.metrics_overhead_pct", "%"),
    hi("serve.int8_batches", "count"),
    // durable
    lo("durable.wal.append.ns_per_record", "ns"),
    lo("durable.wal.bytes_per_event", "bytes"),
    lo("durable.snapshot.encode_ms", "ms"),
    lo("durable.wal_fsyncs_per_kevent", "count"),
    lo("durable.snapshot_ms_total", "ms"),
    lo("durable.wal.flush_seal.us", "us"),
    // obs
    lo("obs.hist.record.ns", "ns"),
    lo("obs.trace.record.ns", "ns"),
    // hwsim: simulated time first, then host time
    lo("hwsim.sim.batch_latency_us", "sim_us"),
    hi("hwsim.sim.events_per_s", "sim_events/s"),
    lo("hwsim.host.ns_per_batch", "ns"),
    lo("hwsim.stage_share_err", "fraction"),
    // bench: the harness itself
    lo("bench.gen_late_p99_ms", "ms"),
    lo("bench.trace_overhead_pct", "%"),
    lo("bench.rate40k.lat_p50_ms", "ms"),
    lo("bench.failed_share", "fraction"),
];

/// Measured values, in catalogue order when printed.
#[derive(Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            !self.values.iter().any(|(n, _)| *n == name),
            "metric {name} set twice"
        );
        self.values.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The `"metrics"` object of the result line: every metric of `defs`,
    /// each with its value and unit.
    ///
    /// # Panics
    /// Panics if a metric of `defs` was not measured or one outside `defs`
    /// was: the printed set is the declared set, exactly.
    pub fn to_json(&self, defs: &[MetricDef]) -> String {
        for (name, _) in &self.values {
            assert!(
                defs.iter().any(|d| d.name == *name),
                "metric {name} is not in the catalogue"
            );
        }
        let members: Vec<String> = defs
            .iter()
            .map(|d| {
                let value = self
                    .get(d.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
                assert!(value.is_finite(), "metric {} is {value}", d.name);
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    d.name, d.unit
                )
            })
            .collect();
        format!("{{{}}}", members.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn contract_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn contract_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, d) in all.iter().enumerate() {
            assert!(contract_name(d.name), "bad metric name {:?}", d.name);
            assert!(contract_unit(d.unit), "bad unit {:?} of {}", d.unit, d.name);
            assert!(
                all[..i].iter().all(|o| o.name != d.name),
                "{} twice",
                d.name
            );
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }

    /// The declared metrics of `BENCHMARK.json` and the catalogue are the
    /// same set with the same units and directions, and so are the
    /// workloads and their reasons.
    #[test]
    fn benchmark_json_declares_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared = doc.get(key).and_then(Json::as_array).expect(key);
            let names: Vec<&str> = declared
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).expect("name"))
                .collect();
            assert_eq!(
                names,
                defs.iter().map(|d| d.name).collect::<Vec<_>>(),
                "{key}"
            );
            for (m, d) in declared.iter().zip(defs) {
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(d.unit),
                    "{}",
                    d.name
                );
                assert_eq!(
                    m.get("better").and_then(Json::as_str),
                    Some(d.better.label()),
                    "{}",
                    d.name
                );
            }
        }
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads");
        let declared: Vec<(&str, &str)> = workloads
            .iter()
            .map(|w| {
                (
                    w.get("name").and_then(Json::as_str).expect("name"),
                    w.get("why").and_then(Json::as_str).expect("why"),
                )
            })
            .collect();
        let ours: Vec<(&str, &str)> = crate::workload::WORKLOADS
            .iter()
            .map(|w| (w.name, w.why))
            .collect();
        assert_eq!(declared, ours);
    }

    #[test]
    fn the_printed_set_is_the_declared_set() {
        let mut m = Metrics::default();
        for d in END_TO_END {
            m.set(d.name, 1.5);
        }
        let doc = Json::parse(&m.to_json(END_TO_END)).unwrap();
        let printed: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            printed,
            END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>()
        );
        assert!(printed.iter().all(|n| contract_name(n)));
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn an_undeclared_metric_is_refused() {
        let mut m = Metrics::default();
        m.set("made.up", 1.0);
        let _ = m.to_json(END_TO_END);
    }
}
