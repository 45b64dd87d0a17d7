//! Metric definitions, sample statistics and the output lines.

use std::fmt::Write as _;

use Better::{Higher, Lower};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// A metric's fixed definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", Lower),
    def("throughput_qps", "1/s", Higher),
    def("latency_p50_ms", "ms", Lower),
    def("latency_p90_ms", "ms", Lower),
    def("sim_cost_s", "s", Lower),
    def("peak_rss_mb", "MB", Lower),
];

/// Per-layer metrics, printed by every traced run. Times and counts are
/// per query (per request on `serve-sharded`) unless the name ends in
/// `_s` and belongs to set-up.
pub const PER_LAYER: &[MetricDef] = &[
    def("workload.generate_s", "s", Lower),
    def("shard.build_s", "s", Lower),
    def("stats.export_ms", "ms", Lower),
    def("stats.export_calls", "count", Lower),
    def("query.prepare_ms", "ms", Lower),
    def("optimizer.plan_ms", "ms", Lower),
    def("text.search_ms", "ms", Lower),
    def("text.batch_ms", "ms", Lower),
    def("text.probe_ms", "ms", Lower),
    def("text.retrieve_ms", "ms", Lower),
    def("text.invocations", "count", Lower),
    def("text.postings", "count", Lower),
    def("text.docs_short", "count", Lower),
    def("text.docs_long", "count", Lower),
    def("text.ns_per_posting", "ns", Lower),
    def("exec.self_ms", "ms", Lower),
    def("rel.comparisons", "count", Lower),
    def("rel.pairs", "count", Lower),
    def("rel.ns_per_comparison", "ns", Lower),
    def("serve.request_ms", "ms", Lower),
    def("serve.plan_hits", "count", Higher),
    def("serve.probe_hits", "count", Higher),
    def("serve.probe_misses", "count", Lower),
    def("retry.faults", "count", Lower),
    def("retry.retries", "count", Lower),
    def("shard.failovers", "count", Lower),
    def("sched.hedges", "count", Lower),
    def("sched.makespan_s", "s", Lower),
    def("obs.events", "count", Lower),
];

/// One measured value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// The metric's name (one of [`END_TO_END`] or [`PER_LAYER`]).
    pub name: &'static str,
    /// The value.
    pub value: f64,
    /// Samples behind the value; 0 marks a metric this workload cannot
    /// measure from outside the program (its value is then 0).
    pub samples: usize,
}

impl Metric {
    /// A measured value.
    pub fn new(name: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name,
            value: if value.is_finite() { value } else { 0.0 },
            samples,
        }
    }

    /// A metric this workload cannot measure from outside the program.
    pub fn absent(name: &'static str) -> Metric {
        Metric::new(name, 0.0, 0)
    }
}

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between order
/// statistics; 0 for no samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

fn def_of(name: &str) -> &'static MetricDef {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name:?} is not defined"))
}

/// Orders `metrics` as `defs` lists them and checks that each definition
/// has exactly one value.
pub fn complete(defs: &[MetricDef], metrics: &[Metric]) -> Vec<Metric> {
    defs.iter()
        .map(|d| {
            let found: Vec<&Metric> = metrics.iter().filter(|m| m.name == d.name).collect();
            assert_eq!(found.len(), 1, "metric {} must be reported once", d.name);
            *found[0]
        })
        .collect()
}

/// One JSON line for a metric: name, unit, value, sample count, and
/// whether it was measured with tracing on.
pub fn metric_line(m: &Metric, traced: bool) -> String {
    let d = def_of(m.name);
    format!(
        "{{\"metric\":\"{}\",\"unit\":\"{}\",\"value\":{},\"samples\":{},\"traced\":{traced}}}",
        d.name, d.unit, m.value, m.samples
    )
}

/// The final summary line.
pub fn summary_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let d = def_of(m.name);
        if i > 0 {
            s.push(',');
        }
        write!(
            s,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            d.name, m.value, d.unit
        )
        .expect("writing to a String cannot fail");
    }
    s.push_str("}}");
    s
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
