//! Every metric the benchmark prints, by name and unit. `BENCHMARK.json`
//! names the same metrics; a test keeps the two lists equal.

/// End-to-end metrics, printed by the untraced run on every workload.
/// What one operation is depends on the workload: a frame, a request, a
/// solve of [`crate::stencil_sweeps::SWEEPS`] sweeps, or a kernel run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ops_per_s", "op/s"),
    ("sim_cycles_per_op", "cycles"),
];

/// Per-layer metrics, printed by the traced run on every workload. A
/// layer the workload does not exercise, or whose counter the program
/// does not expose on that workload, reads 0.
pub const PER_LAYER: [(&str, &str); 61] = [
    ("cell-core.cost_eval_ns", "ns"),
    ("cell-mem.copy_ns_per_kib", "ns/KiB"),
    ("cell-mem.bytes_moved", "bytes"),
    ("cell-mfc.bytes_in", "bytes"),
    ("cell-mfc.bytes_out", "bytes"),
    ("cell-mfc.transfers", "count"),
    ("cell-mfc.stall_cycles", "cycles"),
    ("cell-mfc.get_ns_per_kib", "ns/KiB"),
    ("cell-eib.transfers", "count"),
    ("cell-eib.queued_cycles", "cycles"),
    ("cell-eib.busy_ratio", "ratio"),
    ("cell-spu.issues", "count"),
    ("cell-sys.mailbox_words", "count"),
    ("cell-sys.mailbox_stall_cycles", "cycles"),
    ("cell-sys.roundtrip_us", "us"),
    ("cell-engine.batched_call_us", "us"),
    ("cell-engine.retries", "count"),
    ("cell-engine.failovers", "count"),
    ("portkit.dispatches", "count"),
    ("marvel.decode_ms", "ms"),
    ("marvel.kernel_ms.ch", "ms"),
    ("marvel.kernel_ms.cc", "ms"),
    ("marvel.kernel_ms.tx", "ms"),
    ("marvel.kernel_ms.eh", "ms"),
    ("marvel.kernel_ms.cd", "ms"),
    ("marvel.kernel_cycles.ch", "cycles"),
    ("marvel.kernel_cycles.cc", "cycles"),
    ("marvel.kernel_cycles.tx", "cycles"),
    ("marvel.kernel_cycles.eh", "cycles"),
    ("marvel.kernel_cycles.cd", "cycles"),
    ("marvel.ref_ms", "ms"),
    ("cell-stencil.plain_ms_per_sweep", "ms"),
    ("cell-stencil.sim_overhead_x", "x"),
    ("cell-isa.decode_ns", "ns"),
    ("cell-isa.kernel_ms.gray", "ms"),
    ("cell-isa.kernel_ms.hist", "ms"),
    ("cell-isa.kernel_ms.jacobi", "ms"),
    ("cell-isa.instructions", "count"),
    ("cell-isa.dual_issue_ratio", "ratio"),
    ("cell-serve.latency_p50_cycles", "cycles"),
    ("cell-serve.latency_p95_cycles", "cycles"),
    ("cell-serve.retransmits", "count"),
    ("cell-serve.max_queue_depth", "count"),
    ("cell-cluster.cache_hits", "count"),
    ("cell-cluster.cache_hit_ratio", "ratio"),
    ("cell-cluster.fallback_routed", "count"),
    ("cell-durable.appends", "count"),
    ("cell-durable.flushes", "count"),
    ("cell-durable.journal_bytes", "bytes"),
    ("cell-durable.append_us", "us"),
    ("cell-trace.overhead_x", "x"),
    ("self_ms.perfbench", "ms"),
    ("self_ms.marvel", "ms"),
    ("self_ms.cell-durable", "ms"),
    ("self_ms.cell-stencil", "ms"),
    ("self_ms.cell-engine", "ms"),
    ("self_ms.cell-sys", "ms"),
    ("self_ms.cell-isa", "ms"),
    ("self_ms.cell-core", "ms"),
    ("self_ms.cell-mem", "ms"),
    ("self_ms.cell-mfc", "ms"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name": "...", "unit": "..."` pairs of one section of
    /// `BENCHMARK.json`, read without a JSON library.
    fn section(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let body = &json[start..];
        let end = body.find(']').expect("section closes");
        let field = |obj: &str, name: &str| -> Option<String> {
            let at = obj.find(&format!("\"{name}\""))?;
            let rest = &obj[at + name.len() + 2..];
            let open = rest.find('"')? + 1;
            let close = rest[open..].find('"')? + open;
            Some(rest[open..close].to_string())
        };
        body[..end]
            .split('{')
            .skip(1)
            .filter_map(|obj| Some((field(obj, "name")?, field(obj, "unit")?)))
            .collect()
    }

    fn listed(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_names_every_metric_with_its_unit() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(section(&json, "end_to_end"), listed(&END_TO_END));
        assert_eq!(section(&json, "per_layer"), listed(&PER_LAYER));
    }
}
