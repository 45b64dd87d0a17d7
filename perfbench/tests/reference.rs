//! The benchmark's own checks: the reference join against a brute-force
//! double loop, the result comparison against corrupted outputs, the
//! timing wrapper's passivity, and the metric list against
//! `BENCHMARK.json`.

use std::collections::BTreeSet;

use textjoin_core::cost::params::CostParams;
use textjoin_core::exec::row_strings;
use textjoin_core::methods::probe::ProbeSchedule;
use textjoin_core::methods::ExecContext;
use textjoin_core::optimizer::single::enumerate_methods;
use textjoin_core::query::prepare;
use textjoin_perfbench::metrics::{Better, END_TO_END, PER_LAYER};
use textjoin_perfbench::queries::{self, BenchQuery, EngineQuery};
use textjoin_perfbench::reference::{
    compare, full_key, Expected, Needles, PhraseDocs, RefQuery, Row, Shape,
};
use textjoin_perfbench::spans::{self_times, Span, SpanLog, TimedText};
use textjoin_perfbench::workloads::{run_multi, run_single, Workload};
use textjoin_rel::table::Table;
use textjoin_rel::tuple::Tuple;
use textjoin_rel::value::Value;
use textjoin_text::doc::DocId;
use textjoin_text::service::TextService;
use textjoin_workload::world::{World, WorldSpec};

fn small_world() -> World {
    World::generate(WorldSpec {
        seed: 7,
        background_docs: 300,
        students: 80,
        projects: 20,
        ..WorldSpec::default()
    })
}

fn all_queries(w: &World) -> Vec<BenchQuery> {
    vec![
        queries::q1(w),
        queries::q2(w),
        queries::q3(w),
        queries::q4(w),
        queries::q5(w),
        queries::q6(w),
    ]
}

/// Whole-word containment written without the reference's normaliser.
fn contains(hay: &str, needle: &str) -> bool {
    let split = |s: &str| -> Vec<String> {
        s.split(|c: char| !c.is_alphanumeric())
            .filter(|t| !t.is_empty())
            .map(str::to_lowercase)
            .collect()
    };
    let (h, n) = (split(hay), split(needle));
    !n.is_empty() && h.windows(n.len()).any(|win| win == n.as_slice())
}

/// Every combination of relation rows × every document, each predicate
/// checked by scanning the document's field values.
fn brute_force(w: &World, q: &RefQuery) -> Expected {
    let coll = w.server.collection();
    let schema = coll.schema();
    let rels: Vec<Vec<Row>> = q
        .relations
        .iter()
        .map(|r| {
            Row::all(&w.catalog, &r.name)
                .into_iter()
                .filter(|row| (r.keep)(row))
                .collect()
        })
        .collect();
    let mut combos: Vec<Vec<&Row>> = vec![Vec::new()];
    for rows in &rels {
        combos = combos
            .into_iter()
            .flat_map(|c| {
                rows.iter().map(move |r| {
                    let mut c = c.clone();
                    c.push(r);
                    c
                })
            })
            .collect();
    }
    let field_has = |doc: &textjoin_text::doc::Document, field: &str, needle: Option<&str>| {
        let fid = schema.resolve(field).expect("field exists");
        needle.is_some_and(|n| doc.values(fid).iter().any(|v| contains(v, n)))
    };
    let mut out = Expected::new();
    for combo in &combos {
        let joined = q.rel_joins.iter().all(|j| {
            match (
                combo[j.left.0].get(&j.left.1),
                combo[j.right.0].get(&j.right.1),
            ) {
                (Some(a), Some(b)) => (a == b) == j.equal,
                _ => false,
            }
        });
        if !joined {
            continue;
        }
        for i in 0..coll.doc_count() {
            let id = DocId(i as u32);
            let doc = coll.document(id).expect("dense docids");
            let sel = q.selections.iter().all(|(p, f)| field_has(doc, f, Some(p)));
            let foreign = q
                .foreign
                .iter()
                .all(|(r, c, f)| field_has(doc, f, combo[*r].get(c)));
            if sel && foreign {
                let keys: Vec<&str> = combo.iter().map(|r| r.key()).collect();
                match q.shape {
                    Shape::Full => *out.entry(full_key(&keys, id)).or_insert(0) += 1,
                    Shape::DocIds => {
                        out.insert(id.to_string(), 1);
                    }
                }
            }
        }
    }
    out
}

fn phrase_docs(w: &World, qs: &[BenchQuery]) -> PhraseDocs {
    let refs: Vec<&RefQuery> = qs.iter().map(|q| &q.reference).collect();
    PhraseDocs::build(w.server.collection(), &Needles::collect(&w.catalog, &refs))
}

#[test]
fn reference_join_agrees_with_brute_force_on_q1_to_q6() {
    let w = small_world();
    let qs = all_queries(&w);
    let docs = phrase_docs(&w, &qs);
    let mut nonempty = 0;
    for q in &qs {
        let fast = docs.expected(&w.catalog, &q.reference);
        let slow = brute_force(&w, &q.reference);
        assert_eq!(fast, slow, "{}: reference != brute force", q.label);
        nonempty += usize::from(!fast.is_empty());
    }
    assert!(nonempty >= 4, "most queries must have answers to be a test");
}

#[test]
fn every_method_and_plan_matches_the_reference_on_q1_to_q6() {
    let w = small_world();
    let qs = all_queries(&w);
    let docs = phrase_docs(&w, &qs);
    let params = CostParams::mercury(w.server.doc_count() as f64);
    let schema = w.server.collection().schema();
    let export = w.server.export_stats();
    for q in &qs {
        let exp = docs.expected(&w.catalog, &q.reference);
        match &q.engine {
            EngineQuery::Single(sq) => {
                let p = prepare(sq, &w.catalog, schema).expect("prepares");
                let stats = p.statistics_from_export(&export, schema);
                for cand in enumerate_methods(&params, &stats, sq.projection, false) {
                    let ctx = ExecContext::new(&w.server);
                    let out = textjoin_core::exec::execute_single(
                        &ctx,
                        &p,
                        &cand,
                        ProbeSchedule::ProbeFirst,
                    )
                    .expect("method runs");
                    compare(&w.catalog, &q.reference, &exp, &out.table)
                        .unwrap_or_else(|e| panic!("{} {}: {e}", q.label, cand.label));
                }
            }
            EngineQuery::Multi(mq) => {
                let (out, _, _) = run_multi(&w.server, None, &w, mq, params).expect("plan runs");
                compare(&w.catalog, &q.reference, &exp, &out.table)
                    .unwrap_or_else(|e| panic!("{}: {e}", q.label));
            }
        }
    }
    // The serving session's one-relation restatements answer the same.
    for q in queries::serve_specs(&w) {
        let exp = docs.expected(&w.catalog, &q.reference);
        let mq = q.multi().expect("serve specs are multi-join");
        let (out, _, _) = run_multi(&w.server, None, &w, mq, params).expect("plan runs");
        compare(&w.catalog, &q.reference, &exp, &out.table)
            .unwrap_or_else(|e| panic!("serve {}: {e}", q.label));
    }
}

#[test]
fn a_dropped_or_added_row_fails_the_check() {
    let w = small_world();
    let qs = vec![queries::q1(&w), queries::q5(&w)];
    let docs = phrase_docs(&w, &qs);
    let params = CostParams::mercury(w.server.doc_count() as f64);
    for q in &qs {
        let exp = docs.expected(&w.catalog, &q.reference);
        let table: Table = match &q.engine {
            EngineQuery::Single(sq) => {
                run_single(&w.server, None, &w, sq, &params)
                    .expect("runs")
                    .0
                    .table
            }
            EngineQuery::Multi(mq) => {
                run_multi(&w.server, None, &w, mq, params)
                    .expect("runs")
                    .0
                    .table
            }
        };
        assert!(table.len() >= 2, "{} needs rows to corrupt", q.label);
        assert!(compare(&w.catalog, &q.reference, &exp, &table).is_ok());

        let rows = table.rows().to_vec();
        let dropped = table.clone().with_rows(rows[1..].to_vec());
        assert!(compare(&w.catalog, &q.reference, &exp, &dropped).is_err());

        let mut doubled = rows.clone();
        doubled.push(rows[0].clone());
        let added = table.clone().with_rows(doubled);
        assert!(compare(&w.catalog, &q.reference, &exp, &added).is_err());

        // The same row count, but one row points at another document.
        let docid = table
            .schema()
            .column_by_name("docid")
            .expect("docid column");
        let mut moved = rows.clone();
        let mut vals = moved[0].values().to_vec();
        vals[docid.0] = Value::str("doc999999");
        moved[0] = Tuple::new(vals);
        let swapped = table.clone().with_rows(moved);
        assert!(compare(&w.catalog, &q.reference, &exp, &swapped).is_err());
    }
}

#[test]
fn the_timing_wrapper_is_passive() {
    let params = |w: &World| CostParams::mercury(w.server.doc_count() as f64);
    let bare = small_world();
    let traced = small_world();
    let log = SpanLog::new();
    let timed = TimedText::new(&traced.server, &log);
    let mut qs = queries::lookup_pass(&bare);
    qs.push(queries::q3(&bare));
    qs.push(queries::q4(&bare));
    for q in &qs {
        let EngineQuery::Single(sq) = &q.engine else {
            unreachable!()
        };
        let (a, ca) = run_single(&bare.server, None, &bare, sq, &params(&bare)).expect("runs");
        let (b, cb) = run_single(&timed, Some(&log), &traced, sq, &params(&traced)).expect("runs");
        assert_eq!(row_strings(&a.table), row_strings(&b.table), "{}", q.label);
        assert_eq!(
            a.report.total_cost().to_bits(),
            b.report.total_cost().to_bits()
        );
        assert_eq!(format!("{:?}", a.report), format!("{:?}", b.report));
        assert_eq!(ca.to_bits(), cb.to_bits());
    }
    for q in [queries::q5(&bare), queries::q6(&bare)] {
        let mq = q.multi().expect("multi-join");
        let (a, ..) = run_multi(&bare.server, None, &bare, mq, params(&bare)).expect("runs");
        let (b, ..) = run_multi(&timed, Some(&log), &traced, mq, params(&traced)).expect("runs");
        assert_eq!(row_strings(&a.table), row_strings(&b.table), "{}", q.label);
        assert_eq!(a.total_cost.to_bits(), b.total_cost.to_bits());
        assert_eq!(format!("{:?}", a.text), format!("{:?}", b.text));
        assert_eq!(
            (a.rel_pairs, a.rtp_comparisons),
            (b.rel_pairs, b.rtp_comparisons)
        );
    }
    // Both servers booked the same ledger, every field.
    assert_eq!(
        format!("{:?}", TextService::usage(&bare.server)),
        format!("{:?}", TextService::usage(&traced.server))
    );
    // ...and the wrapper did record the calls it forwarded.
    let names: BTreeSet<&str> = log.spans().iter().map(|s| s.name).collect();
    for n in [
        "prepare",
        "export_stats",
        "execute_single",
        "execute_prepared",
        "text.search",
    ] {
        assert!(names.contains(n), "no {n} span recorded");
    }
}

#[test]
fn self_time_subtracts_child_spans() {
    let span = |name, start_ns, end_ns, parent, query| Span {
        name,
        start_ns,
        end_ns,
        parent,
        query,
    };
    let spans = vec![
        span("query", 0, 100, None, 1),
        span("execute", 10, 90, Some(0), 1),
        span("text.search", 20, 30, Some(1), 1),
        span("text.search", 40, 70, Some(1), 1),
        span("query", 100, 150, None, 2),
    ];
    let t = self_times(&spans, 1);
    assert_eq!(t["query"], (20 + 50, 2));
    assert_eq!(t["execute"], (40, 1));
    assert_eq!(t["text.search"], (40, 2));
    assert_eq!(self_times(&spans, 2)["query"], (50, 1));
    assert!(!self_times(&spans, 2).contains_key("execute"));
}

#[test]
fn benchmark_json_lists_every_metric_and_workload() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let dir = |b: Better| match b {
        Better::Lower => "lower",
        Better::Higher => "higher",
    };
    for d in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            d.name,
            d.unit,
            dir(d.better)
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        let entry = format!("{{\"name\": \"{}\", \"why\":", w.name());
        assert!(
            json.contains(&entry),
            "BENCHMARK.json lacks workload {}",
            w.name()
        );
    }
}
