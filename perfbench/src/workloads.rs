//! The three workloads, each one client in a closed loop on one thread.
//!
//! A run sets its world up [`SETUP_REPEATS`] times (the set-up time is the
//! median), builds the reference results, runs one untimed warm-up pass and
//! then timed passes until the run length is used up. Every pass runs the
//! same operations, so failures are always the same share of attempts.
//! Every output is checked against the reference; the workload's ledger
//! properties are checked on every query.

use std::path::{Path, PathBuf};
use std::time::Instant;

use textjoin_core::cost::params::CostParams;
use textjoin_core::exec::{
    execute_prepared, execute_single, plan_prepared, prepare_input, ExecHooks,
};
use textjoin_core::methods::probe::ProbeSchedule;
use textjoin_core::methods::{ExecContext, MethodOutcome};
use textjoin_core::optimizer::multi::ExecutionSpace;
use textjoin_core::optimizer::plan::MultiJoinQuery;
use textjoin_core::optimizer::single::{choose_method, enumerate_methods};
use textjoin_core::query::{prepare, SingleJoinQuery};
use textjoin_core::serve::{Backend, ServeConfig, ServeReport, ServeSession, TenantSpec};
use textjoin_obs::EventKind;
use textjoin_text::faults::FaultPlan;
use textjoin_text::server::Usage;
use textjoin_text::service::TextService;
use textjoin_text::shard::ShardedTextServer;
use textjoin_workload::world::{World, WorldSpec};

use crate::checks::{decomposes, same_usage, Checks, Fingerprint, Repeats};
use crate::metrics::{median, peak_rss_mb, quantile, Metric};
use crate::queries::{self, BenchQuery, EngineQuery};
use crate::reference::{compare, Expected, Needles, PhraseDocs};
use crate::spans::{span, SpanLog, TimedText};

/// How many times a run builds its world; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// Shards, replicas and partition seed of the `serve-sharded` topology.
pub const SERVE_TOPOLOGY: (usize, usize, u64) = (4, 2, 0x5AD);

/// The shard whose primary replica is permanently dead, and the seed of
/// its fault plan.
pub const DEAD_PRIMARY: (usize, u64) = (2, 77);

/// Tenants of the `serve-sharded` session.
pub const SERVE_TENANTS: usize = 4;

/// How many times each tenant sends each of its specs per pass.
pub const SERVE_REPEATS: usize = 2;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Q1 and Q2-per-advisor single joins on a ×10 world.
    Lookup,
    /// Q5 planned over PrL space on a ×10 world.
    Q5Rtp,
    /// A 4-tenant serving session over a 4×2 replicated ×8 world.
    ServeSharded,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [Workload::Lookup, Workload::Q5Rtp, Workload::ServeSharded];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Lookup => "lookup",
            Workload::Q5Rtp => "q5-rtp",
            Workload::ServeSharded => "serve-sharded",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The world scale `k` (×k the default world). `serve-sharded` runs at
    /// ×8 because at smaller scales Q4's single-join plan flips between
    /// SJ+RTP and a P1+RTP plan that books about 7× more, depending on the
    /// seed; from ×8 on every seed tried picks P1+RTP, so the workload is
    /// the same kind of run on every seed.
    pub fn scale(self) -> usize {
        match self {
            Workload::Lookup | Workload::Q5Rtp => 10,
            Workload::ServeSharded => 8,
        }
    }
}

/// The ×k world for `seed`.
pub fn world_spec(scale: usize, seed: u64) -> WorldSpec {
    WorldSpec {
        seed,
        background_docs: 2000 * scale,
        students: 200 * scale,
        projects: 40 * scale,
        ..WorldSpec::default()
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// World seed.
    pub seed: u64,
    /// How long the timed passes run, in seconds.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end
    /// ones.
    pub trace: bool,
}

/// What a run measured and found.
#[derive(Debug)]
pub struct RunResult {
    /// Operations attempted (queries; requests on `serve-sharded`).
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Failed correctness checks.
    pub checks: Checks,
    /// End-to-end metrics, measured with or without tracing.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Files a traced run wrote.
    pub files: Vec<PathBuf>,
}

/// Runs one workload.
pub fn run(cfg: &Config) -> RunResult {
    let log = cfg.trace.then(SpanLog::new);
    let mut r = match cfg.workload {
        Workload::Lookup => run_lookup(cfg, log.as_ref()),
        Workload::Q5Rtp => run_q5(cfg, log.as_ref()),
        Workload::ServeSharded => run_serve(cfg, log.as_ref()),
    };
    if let Some(log) = &log {
        match write_trace(cfg, log) {
            Ok(files) => r.files = files,
            Err(e) => r.checks.fail("trace.write", e.to_string()),
        }
    }
    r
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64())
}

fn in_span<T>(log: Option<&SpanLog>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let _g = span(log, name);
    f()
}

/// Builds the world [`SETUP_REPEATS`] times, keeping the last, and
/// returns it with the generation times.
fn setup_world(workload: Workload, seed: u64, log: Option<&SpanLog>) -> (World, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut world = None;
    for _ in 0..SETUP_REPEATS {
        drop(world.take());
        let (w, s) = timed(|| {
            in_span(log, "World::generate", || {
                World::generate(world_spec(workload.scale(), seed))
            })
        });
        times.push(s);
        world = Some(w);
    }
    (world.expect("at least one set-up"), times)
}

/// The reference results of `qs`, in order.
fn reference(w: &World, qs: &[BenchQuery]) -> Vec<Expected> {
    let refs: Vec<_> = qs.iter().map(|q| &q.reference).collect();
    let docs = PhraseDocs::build(w.server.collection(), &Needles::collect(&w.catalog, &refs));
    refs.iter().map(|q| docs.expected(&w.catalog, q)).collect()
}

/// Wall time and outcome of the timed operations.
struct Drive {
    /// Wall seconds of each timed operation.
    op_s: Vec<f64>,
    /// Operations attempted, warm-up pass included.
    attempted: u64,
    /// Operations that returned an error, warm-up pass included.
    failed: u64,
    /// Query id of the first timed operation (earlier ids are warm-up).
    first_timed: u64,
}

/// Runs `ops` operations per pass, each holding `per_op` queries: one
/// untimed warm-up pass, then timed passes until `seconds` have elapsed (at
/// least one). Only `op(i)` is timed; `after(i, timed_pass, result)` checks
/// the result and returns how many of the operation's queries failed.
fn drive<R>(
    seconds: f64,
    ops: usize,
    per_op: u64,
    log: Option<&SpanLog>,
    root: &'static str,
    mut op: impl FnMut(usize) -> Result<R, String>,
    mut after: impl FnMut(usize, bool, Result<R, String>) -> u64,
) -> Drive {
    let mut d = Drive {
        op_s: Vec::new(),
        attempted: 0,
        failed: 0,
        first_timed: 0,
    };
    let mut query = 0u64;
    let mut pass = |d: &mut Drive, timed_pass: bool| {
        for i in 0..ops {
            query += 1;
            if let Some(l) = log {
                l.set_query(query);
            }
            let t = Instant::now();
            let r = in_span(log, root, || op(i));
            let s = t.elapsed().as_secs_f64();
            if timed_pass {
                d.op_s.push(s);
            }
            d.attempted += per_op;
            d.failed += after(i, timed_pass, r);
        }
        query
    };
    d.first_timed = pass(&mut d, false) + 1;
    let start = Instant::now();
    loop {
        pass(&mut d, true);
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    d
}

/// Per-query text, matching and scheduling counters of the timed part.
#[derive(Default)]
struct Tally {
    queries: u64,
    text: Usage,
    comparisons: u64,
    pairs: u64,
    hedges: u64,
    makespan: f64,
}

impl Tally {
    fn per_query(&self, x: f64) -> f64 {
        x / self.queries.max(1) as f64
    }
}

/// End-to-end metrics shared by the workloads. `per_op` is how many
/// queries one timed operation holds.
fn end_to_end(setup_s: &[f64], d: &Drive, per_op: usize, sim_cost: f64) -> Vec<Metric> {
    let busy: f64 = d.op_s.iter().sum();
    let lat_ms: Vec<f64> = d.op_s.iter().map(|s| s * 1e3 / per_op as f64).collect();
    let queries = d.op_s.len() * per_op;
    vec![
        Metric::new("setup_s", median(setup_s), setup_s.len()),
        Metric::new("throughput_qps", queries as f64 / busy, queries),
        Metric::new("latency_p50_ms", median(&lat_ms), lat_ms.len()),
        Metric::new("latency_p90_ms", quantile(&lat_ms, 0.9), lat_ms.len()),
        Metric::new("sim_cost_s", sim_cost, d.op_s.len()),
        Metric::new("peak_rss_mb", peak_rss_mb(), 1),
    ]
}

/// Per-layer metrics read from the span log and the tally. Metrics the
/// workload cannot observe from outside the program are reported absent.
fn per_layer_from_spans(
    log: &SpanLog,
    first_timed: u64,
    generate_s: &[f64],
    t: &Tally,
    multi: bool,
) -> Vec<Metric> {
    let self_ns = log.self_times_from(first_timed);
    let ns = |names: &[&str]| -> u64 {
        names
            .iter()
            .map(|n| self_ns.get(n).map_or(0, |v| v.0))
            .sum()
    };
    let calls = |name: &str| self_ns.get(name).map_or(0, |v| v.1);
    let q = t.queries as usize;
    let ms = |name: &'static str, names: &[&str]| {
        Metric::new(name, ns(names) as f64 / 1e6 / t.queries.max(1) as f64, q)
    };
    let text_ns = ns(&["text.search", "text.batch", "text.probe", "text.retrieve"]);
    let exec_ns = ns(&["execute_single", "execute_prepared"]);
    let count = |name: &'static str, v: u64| Metric::new(name, t.per_query(v as f64), q);
    let ratio = |name: &'static str, num: u64, den: u64| {
        if den == 0 {
            Metric::absent(name)
        } else {
            Metric::new(name, num as f64 / den as f64, den as usize)
        }
    };
    vec![
        Metric::new("workload.generate_s", median(generate_s), generate_s.len()),
        Metric::absent("shard.build_s"),
        ms("stats.export_ms", &["export_stats"]),
        count("stats.export_calls", calls("export_stats")),
        ms(
            "query.prepare_ms",
            &["prepare", "statistics_from_export", "prepare_input"],
        ),
        ms("optimizer.plan_ms", &["choose_method", "plan_prepared"]),
        ms("text.search_ms", &["text.search"]),
        ms("text.batch_ms", &["text.batch"]),
        ms("text.probe_ms", &["text.probe"]),
        ms("text.retrieve_ms", &["text.retrieve"]),
        count("text.invocations", t.text.invocations),
        count("text.postings", t.text.postings_processed),
        count("text.docs_short", t.text.docs_short),
        count("text.docs_long", t.text.docs_long),
        ratio("text.ns_per_posting", text_ns, t.text.postings_processed),
        ms("exec.self_ms", &["execute_single", "execute_prepared"]),
        count("rel.comparisons", t.comparisons),
        if multi {
            count("rel.pairs", t.pairs)
        } else {
            Metric::new("rel.pairs", 0.0, q)
        },
        ratio("rel.ns_per_comparison", exec_ns, t.comparisons),
        Metric::absent("serve.request_ms"),
        Metric::absent("serve.plan_hits"),
        Metric::absent("serve.probe_hits"),
        Metric::absent("serve.probe_misses"),
        count("retry.faults", t.text.faults),
        count("retry.retries", t.text.retries),
        Metric::absent("shard.failovers"),
        if multi {
            count("sched.hedges", t.hedges)
        } else {
            Metric::absent("sched.hedges")
        },
        if multi {
            Metric::new("sched.makespan_s", t.per_query(t.makespan), q)
        } else {
            Metric::absent("sched.makespan_s")
        },
        Metric::absent("obs.events"),
    ]
}

// --------------------------------------------------------------------
// lookup
// --------------------------------------------------------------------

/// One single-join query: prepare, export statistics, choose a method,
/// execute it. Returns the outcome and the `c_a` it was booked with.
pub fn run_single(
    svc: &dyn TextService,
    log: Option<&SpanLog>,
    w: &World,
    q: &SingleJoinQuery,
    params: &CostParams,
) -> Result<(MethodOutcome, f64), String> {
    let prepared = in_span(log, "prepare", || prepare(q, &w.catalog, svc.schema()))
        .map_err(|e| e.to_string())?;
    let export = svc.export_stats();
    let stats = in_span(log, "statistics_from_export", || {
        prepared.statistics_from_export(&export, svc.schema())
    });
    let cand = in_span(log, "choose_method", || {
        choose_method(params, &stats, q.projection)
    })
    .ok_or_else(|| "no applicable method".to_owned())?;
    let ctx = ExecContext::new(svc);
    let out = in_span(log, "execute_single", || {
        execute_single(&ctx, &prepared, &cand, ProbeSchedule::ProbeFirst)
    })
    .map_err(|e| e.to_string())?;
    Ok((out, ctx.c_a))
}

fn single(q: &BenchQuery) -> &SingleJoinQuery {
    match &q.engine {
        EngineQuery::Single(s) => s,
        EngineQuery::Multi(_) => panic!("{} is not a single-join query", q.label),
    }
}

fn run_lookup(cfg: &Config, log: Option<&SpanLog>) -> RunResult {
    let (w, setup_s) = setup_world(cfg.workload, cfg.seed, log);
    let qs = queries::lookup_pass(&w);
    let expected = reference(&w, &qs);
    let params = CostParams::mercury(w.server.doc_count() as f64);
    let k = w.server.constants();
    let timed_svc;
    let svc: &dyn TextService = match log {
        Some(l) => {
            timed_svc = TimedText::new(&w.server, l);
            &timed_svc
        }
        None => &w.server,
    };

    let mut checks = Checks::default();
    let mut repeats = Repeats::default();
    let mut tally = Tally::default();
    let mut pass_cost = 0.0;
    let d = drive(
        cfg.seconds,
        qs.len(),
        1,
        log,
        "query",
        |i| {
            svc.reset_usage();
            let before = svc.usage();
            let r = run_single(svc, log, &w, single(&qs[i]), &params)?;
            Ok((r, before, svc.usage()))
        },
        |i, timed_pass, r| {
            let q = &qs[i];
            let ((out, c_a), before, after) = match r {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("operation failed: {}: {e}", q.label);
                    return 1;
                }
            };
            let text = after.since(&before);
            checks.require(
                || format!("reference.{}", q.label),
                compare(&w.catalog, &q.reference, &expected[i], &out.table),
            );
            checks.require(
                || "ledger.text_delta".into(),
                same_usage(&out.report.text, &text),
            );
            checks.require(
                || "ledger.decomposes".into(),
                decomposes(
                    &k,
                    &text,
                    out.report.total_cost(),
                    c_a,
                    out.report.rtp_comparisons,
                    0.0,
                    0,
                ),
            );
            let cost = out.report.total_cost();
            checks.require(
                || "repeat.identical".into(),
                repeats.check(i, Fingerprint::of(cost, &out.table)),
            );
            if !timed_pass {
                pass_cost += cost;
            } else {
                tally.queries += 1;
                tally.text.accumulate(&text);
                tally.comparisons += out.report.rtp_comparisons;
            }
            0
        },
    );
    check_methods_agree(&w, &qs, &expected, &params, &mut checks);
    let mut r = RunResult {
        attempted: d.attempted,
        failed: d.failed,
        checks,
        end_to_end: end_to_end(&setup_s, &d, 1, pass_cost),
        per_layer: Vec::new(),
        files: Vec::new(),
    };
    if let Some(l) = log {
        r.per_layer = per_layer_from_spans(l, d.first_timed, &setup_s, &tally, false);
    }
    r
}

/// Runs every applicable method on every query of the pass and checks
/// each against the reference (so all methods agree with each other).
fn check_methods_agree(
    w: &World,
    qs: &[BenchQuery],
    expected: &[Expected],
    params: &CostParams,
    checks: &mut Checks,
) {
    let export = w.server.export_stats();
    let schema = w.server.collection().schema();
    for (q, exp) in qs.iter().zip(expected) {
        let sq = single(q);
        let prepared = match prepare(sq, &w.catalog, schema) {
            Ok(p) => p,
            Err(e) => {
                checks.fail(format!("methods.{}", q.label), e.to_string());
                continue;
            }
        };
        let stats = prepared.statistics_from_export(&export, schema);
        for cand in enumerate_methods(params, &stats, sq.projection, false) {
            let ctx = ExecContext::new(&w.server);
            let result = execute_single(&ctx, &prepared, &cand, ProbeSchedule::ProbeFirst)
                .map_err(|e| e.to_string())
                .and_then(|out| compare(&w.catalog, &q.reference, exp, &out.table));
            checks.require(|| format!("methods.{}.{}", q.label, cand.label), result);
        }
    }
}

// --------------------------------------------------------------------
// q5-rtp
// --------------------------------------------------------------------

/// One multi-join query: gather and fold the planner input, plan over PrL
/// space, execute. (`prepare_plan` is exactly the first two steps.)
/// Returns the outcome with the `c_pair` and `c_a` it was booked with.
pub fn run_multi(
    svc: &dyn TextService,
    log: Option<&SpanLog>,
    w: &World,
    q: &MultiJoinQuery,
    params: CostParams,
) -> Result<(textjoin_core::exec::MultiOutcome, f64, f64), String> {
    let input = in_span(log, "prepare_input", || {
        prepare_input(q, &w.catalog, svc, params, None, None)
    })
    .map_err(|e| e.to_string())?;
    let planned = in_span(log, "plan_prepared", || {
        plan_prepared(&input, svc, ExecutionSpace::Prl)
    })
    .map_err(|e| e.to_string())?;
    let out = in_span(log, "execute_prepared", || {
        execute_prepared(&input, &planned, &w.catalog, svc, &ExecHooks::default())
    })
    .map_err(|e| e.to_string())?;
    Ok((out, input.rel_model.c_pair, input.params.c_a))
}

fn run_q5(cfg: &Config, log: Option<&SpanLog>) -> RunResult {
    let (w, setup_s) = setup_world(cfg.workload, cfg.seed, log);
    let qs = vec![queries::q5(&w)];
    let expected = reference(&w, &qs);
    let q5 = qs[0].multi().expect("q5 is a multi-join query");
    let params = CostParams::mercury(w.server.doc_count() as f64);
    let k = w.server.constants();
    let timed_svc;
    let svc: &dyn TextService = match log {
        Some(l) => {
            timed_svc = TimedText::new(&w.server, l);
            &timed_svc
        }
        None => &w.server,
    };

    let mut checks = Checks::default();
    let mut repeats = Repeats::default();
    let mut tally = Tally::default();
    let mut pass_cost = 0.0;
    let d = drive(
        cfg.seconds,
        1,
        1,
        log,
        "query",
        |_| {
            svc.reset_usage();
            let before = svc.usage();
            let r = run_multi(svc, log, &w, q5, params)?;
            Ok((r, before, svc.usage()))
        },
        |i, timed_pass, r| {
            let ((out, c_pair, c_a), before, after) = match r {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("operation failed: q5: {e}");
                    return 1;
                }
            };
            let text = after.since(&before);
            checks.require(
                || "reference.q5".into(),
                compare(&w.catalog, &qs[0].reference, &expected[0], &out.table),
            );
            checks.require(|| "ledger.text_delta".into(), same_usage(&out.text, &text));
            checks.require(
                || "ledger.decomposes".into(),
                decomposes(
                    &k,
                    &text,
                    out.total_cost,
                    c_a,
                    out.rtp_comparisons,
                    c_pair,
                    out.rel_pairs,
                ),
            );
            checks.require(
                || "repeat.identical".into(),
                repeats.check(i, Fingerprint::of(out.total_cost, &out.table)),
            );
            if !timed_pass {
                pass_cost = out.total_cost;
            } else {
                tally.queries += 1;
                tally.text.accumulate(&text);
                tally.comparisons += out.rtp_comparisons;
                tally.pairs += out.rel_pairs;
                tally.hedges += out.hedges;
                tally.makespan += out.makespan;
            }
            0
        },
    );
    let mut r = RunResult {
        attempted: d.attempted,
        failed: d.failed,
        checks,
        end_to_end: end_to_end(&setup_s, &d, 1, pass_cost),
        per_layer: Vec::new(),
        files: Vec::new(),
    };
    if let Some(l) = log {
        r.per_layer = per_layer_from_spans(l, d.first_timed, &setup_s, &tally, true);
    }
    r
}

// --------------------------------------------------------------------
// serve-sharded
// --------------------------------------------------------------------

/// The replicated topology over `w`'s collection, with shard
/// [`DEAD_PRIMARY`]'s primary permanently dead.
pub fn serve_topology(w: &World) -> ShardedTextServer {
    let (shards, replicas, seed) = SERVE_TOPOLOGY;
    let mut server = ShardedTextServer::replicated(w.server.collection(), shards, replicas, seed);
    restart_topology(&mut server);
    server
}

/// Puts the topology back in its starting state before a pass: a fresh
/// fault plan on the dead primary (its seeded fault sequence otherwise runs
/// on across passes) and empty ledgers.
pub fn restart_topology(server: &mut ShardedTextServer) {
    let (shard, fault_seed) = DEAD_PRIMARY;
    let dead = server.primary_of(shard);
    server
        .replica_mut(shard, dead)
        .set_fault_plan(FaultPlan::dead(fault_seed));
    server.reset_usage();
}

/// The session configuration: ample budgets, an unbounded queue and no
/// forced degradation, so no request is refused.
pub fn serve_config(w: &World) -> (ServeConfig, Vec<TenantSpec>) {
    let mut cfg = ServeConfig::new(CostParams::mercury(w.server.doc_count() as f64));
    cfg.queue_cap = usize::MAX;
    cfg.quantum = 1e12;
    cfg.degrade_depth = 0;
    let tenants = (0..SERVE_TENANTS)
        .map(|t| TenantSpec::new(&format!("tenant{t}"), 1e12, 1))
        .collect();
    (cfg, tenants)
}

/// The request stream: each tenant sends each spec [`SERVE_REPEATS`]
/// times. Returns `(tenant, spec index)` pairs in arrival order.
pub fn serve_stream(specs: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for _ in 0..SERVE_REPEATS {
        for s in 0..specs {
            for t in 0..SERVE_TENANTS {
                out.push((t, s));
            }
        }
    }
    out
}

/// Checks one session report: every request succeeded with the reference
/// rows, and the aggregate ledger is the tenants' invoices plus the
/// migration bucket. Returns the pass's simulated cost and each request's
/// fingerprint.
pub fn check_serve_report(
    w: &World,
    qs: &[BenchQuery],
    expected: &[Expected],
    stream: &[(usize, usize)],
    report: &ServeReport,
    checks: &mut Checks,
) -> (f64, Vec<Fingerprint>) {
    let mut cost = 0.0;
    let mut fps = Vec::new();
    if report.records.len() != stream.len() {
        checks.fail(
            "serve.records",
            format!(
                "{} records for {} requests",
                report.records.len(),
                stream.len()
            ),
        );
    }
    for (rec, &(_, spec)) in report.records.iter().zip(stream) {
        match &rec.outcome {
            Ok(out) => {
                checks.require(
                    || format!("reference.serve.{}", qs[spec].label),
                    compare(&w.catalog, &qs[spec].reference, &expected[spec], &out.table),
                );
                cost += out.total_cost;
                fps.push(Fingerprint::of(out.total_cost, &out.table));
            }
            Err(e) => checks.fail("serve.record_ok", format!("{e:?}")),
        }
    }
    let mut sum = Usage::default();
    for t in &report.tenants {
        sum.accumulate(&t.invoice);
    }
    sum.accumulate(&report.migration);
    checks.require(
        || "serve.invoices_sum_to_aggregate".into(),
        same_usage(&report.aggregate, &sum),
    );
    (cost, fps)
}

fn run_serve(cfg: &Config, log: Option<&SpanLog>) -> RunResult {
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut generate_s = Vec::with_capacity(SETUP_REPEATS);
    let mut build_s = Vec::with_capacity(SETUP_REPEATS);
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        drop(built.take());
        let (w, g) = timed(|| {
            in_span(log, "World::generate", || {
                World::generate(world_spec(cfg.workload.scale(), cfg.seed))
            })
        });
        let (server, b) = timed(|| in_span(log, "shard_build", || serve_topology(&w)));
        setup_s.push(g + b);
        generate_s.push(g);
        build_s.push(b);
        built = Some((w, server));
    }
    let (w, mut server) = built.expect("at least one set-up");
    let qs = queries::serve_specs(&w);
    let expected = reference(&w, &qs);
    let order = serve_stream(qs.len());
    let stream: Vec<(usize, MultiJoinQuery)> = order
        .iter()
        .map(|&(t, s)| {
            (
                t,
                qs[s].multi().expect("serve specs are multi-join").clone(),
            )
        })
        .collect();
    let (serve_cfg, tenants) = serve_config(&w);

    let mut checks = Checks::default();
    let mut repeats = Repeats::default();
    let mut pass_cost = 0.0;
    let mut counters = ServeCounters::default();
    let d = drive(
        cfg.seconds,
        1,
        stream.len() as u64,
        log,
        "pass",
        |_| {
            restart_topology(&mut server);
            Ok(in_span(log, "ServeSession::run", || {
                ServeSession::new(
                    Backend::Elastic(&mut server),
                    &w.catalog,
                    tenants.clone(),
                    serve_cfg.clone(),
                )
                .run(&stream)
            }))
        },
        |_, timed_pass, r: Result<ServeReport, String>| {
            let Ok(report) = r else {
                return stream.len() as u64;
            };
            let (cost, fps) = check_serve_report(&w, &qs, &expected, &order, &report, &mut checks);
            for (i, fp) in fps.into_iter().enumerate() {
                checks.require(|| "repeat.identical".into(), repeats.check(i, fp));
            }
            if !timed_pass {
                pass_cost = cost;
            } else {
                counters.add(&report);
            }
            let failed = report.records.iter().filter(|r| r.outcome.is_err()).count();
            failed as u64 + (stream.len() - report.records.len().min(stream.len())) as u64
        },
    );
    let requests = stream.len();
    let mut r = RunResult {
        attempted: d.attempted,
        failed: d.failed,
        checks,
        end_to_end: end_to_end(&setup_s, &d, requests, pass_cost),
        per_layer: Vec::new(),
        files: Vec::new(),
    };
    if log.is_some() {
        r.per_layer = counters.metrics(&d, requests, &generate_s, &build_s);
    }
    r
}

/// Counters summed over the timed session passes.
#[derive(Default)]
struct ServeCounters {
    requests: u64,
    text: Usage,
    plan_hits: u64,
    probe_hits: u64,
    probe_misses: u64,
    failovers: u64,
    hedges: u64,
    makespan: f64,
    events: u64,
}

impl ServeCounters {
    fn add(&mut self, report: &ServeReport) {
        self.requests += report.records.len() as u64;
        self.text.accumulate(&report.aggregate);
        for t in &report.tenants {
            self.plan_hits += t.plan_hits;
            self.probe_hits += t.probe_cache.0;
            self.probe_misses += t.probe_cache.1;
        }
        for ev in &report.trace {
            match ev.kind {
                EventKind::Failover { .. } => self.failovers += 1,
                EventKind::Hedge { .. } => self.hedges += 1,
                _ => {}
            }
        }
        self.makespan += report
            .records
            .iter()
            .filter_map(|r| r.outcome.as_ref().ok())
            .map(|o| o.makespan)
            .sum::<f64>();
        self.events += report.trace.len() as u64;
    }

    fn metrics(
        &self,
        d: &Drive,
        requests: usize,
        generate_s: &[f64],
        build_s: &[f64],
    ) -> Vec<Metric> {
        let n = self.requests.max(1) as f64;
        let q = self.requests as usize;
        let per = |name: &'static str, v: f64| Metric::new(name, v / n, q);
        let pass_ms: f64 = d.op_s.iter().sum::<f64>() * 1e3;
        vec![
            Metric::new("workload.generate_s", median(generate_s), generate_s.len()),
            Metric::new("shard.build_s", median(build_s), build_s.len()),
            Metric::absent("stats.export_ms"),
            Metric::absent("stats.export_calls"),
            Metric::absent("query.prepare_ms"),
            Metric::absent("optimizer.plan_ms"),
            Metric::absent("text.search_ms"),
            Metric::absent("text.batch_ms"),
            Metric::absent("text.probe_ms"),
            Metric::absent("text.retrieve_ms"),
            per("text.invocations", self.text.invocations as f64),
            per("text.postings", self.text.postings_processed as f64),
            per("text.docs_short", self.text.docs_short as f64),
            per("text.docs_long", self.text.docs_long as f64),
            Metric::absent("text.ns_per_posting"),
            Metric::absent("exec.self_ms"),
            Metric::absent("rel.comparisons"),
            Metric::absent("rel.pairs"),
            Metric::absent("rel.ns_per_comparison"),
            Metric::new(
                "serve.request_ms",
                pass_ms / (d.op_s.len() * requests).max(1) as f64,
                q,
            ),
            per("serve.plan_hits", self.plan_hits as f64),
            per("serve.probe_hits", self.probe_hits as f64),
            per("serve.probe_misses", self.probe_misses as f64),
            per("retry.faults", self.text.faults as f64),
            per("retry.retries", self.text.retries as f64),
            per("shard.failovers", self.failovers as f64),
            per("sched.hedges", self.hedges as f64),
            per("sched.makespan_s", self.makespan),
            per("obs.events", self.events as f64),
        ]
    }
}

/// Writes the span file and the per-layer self-time table of a traced
/// run into `out/` next to this package's manifest.
fn write_trace(cfg: &Config, log: &SpanLog) -> std::io::Result<Vec<PathBuf>> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let stem = format!("{}-seed{}", cfg.workload.name(), cfg.seed);
    let spans = dir.join(format!("{stem}.spans.jsonl"));
    log.write_jsonl(&spans)?;
    let table = dir.join(format!("{stem}.layers.txt"));
    std::fs::write(&table, layer_table(log))?;
    Ok(vec![spans, table])
}

/// Self time per span name over the whole traced run, largest first.
pub fn layer_table(log: &SpanLog) -> String {
    let times = log.self_times_from(0);
    let total: u64 = times.values().map(|v| v.0).sum();
    let mut rows: Vec<_> = times.into_iter().collect();
    rows.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then(a.0.cmp(b.0)));
    let mut s = format!(
        "{:<24} {:>10} {:>14} {:>12} {:>8}\n",
        "span", "count", "self_ms", "ms/span", "share"
    );
    for (name, (ns, n)) in rows {
        s.push_str(&format!(
            "{:<24} {:>10} {:>14.3} {:>12.4} {:>7.2}%\n",
            name,
            n,
            ns as f64 / 1e6,
            ns as f64 / 1e6 / n.max(1) as f64,
            100.0 * ns as f64 / total.max(1) as f64
        ));
    }
    s
}
