//! The queries the workloads run, each paired with its independent
//! reference description.
//!
//! The engine side comes from `textjoin_workload::paper`; the reference
//! side restates the same SQL by hand (see each function's doc comment),
//! so a change to either shows up as a reference mismatch.

use textjoin_core::optimizer::plan::{ForeignSpec, MultiJoinQuery, RelSpec};
use textjoin_core::query::SingleJoinQuery;
use textjoin_rel::expr::Pred;
use textjoin_workload::paper;
use textjoin_workload::world::World;

use crate::reference::{RefQuery, RefRelJoin, RefRelation, Shape};

/// A query as the engine receives it.
pub enum EngineQuery {
    /// One relation joined with the text source.
    Single(SingleJoinQuery),
    /// A multi-join (PrL) query.
    Multi(MultiJoinQuery),
}

/// An engine query with its reference description.
pub struct BenchQuery {
    /// Short label used in check names (`q1`, `q2[<advisor>]`, ...).
    pub label: String,
    /// The engine's query.
    pub engine: EngineQuery,
    /// The reference's description of the same query.
    pub reference: RefQuery,
}

impl BenchQuery {
    /// The same query as a one-relation multi-join spec, for the serving
    /// session (which only takes multi-join specs).
    pub fn into_multi(self) -> BenchQuery {
        let engine = match self.engine {
            EngineQuery::Single(q) => EngineQuery::Multi(single_as_multi(&q)),
            multi => multi,
        };
        BenchQuery { engine, ..self }
    }

    /// The multi-join spec, if this is one.
    pub fn multi(&self) -> Option<&MultiJoinQuery> {
        match &self.engine {
            EngineQuery::Multi(q) => Some(q),
            EngineQuery::Single(_) => None,
        }
    }
}

/// Restates a single-join query as a multi-join query over one relation.
pub fn single_as_multi(q: &SingleJoinQuery) -> MultiJoinQuery {
    MultiJoinQuery {
        relations: vec![RelSpec {
            name: q.relation.clone(),
            local_pred: q.local_pred.clone(),
        }],
        rel_joins: Vec::new(),
        selections: q.selections.clone(),
        foreign: q
            .join
            .iter()
            .map(|(column, field)| ForeignSpec {
                rel: 0,
                column: column.clone(),
                field: field.clone(),
            })
            .collect(),
        projection: q.projection,
    }
}

/// Q1: `student.area = 'AI' and student.year > 3 and 'belief update' in
/// title and student.name in author`, all columns.
pub fn q1(w: &World) -> BenchQuery {
    BenchQuery {
        label: "q1".into(),
        engine: EngineQuery::Single(paper::q1(w)),
        reference: RefQuery::single(
            "student",
            Box::new(|r| r.s("area") == "AI" && r.i("year") > 3),
            &[("belief update", "title")],
            &[("name", "author")],
            Shape::Full,
        ),
    }
}

/// Q2 for one advisor: `student.advisor = <advisor> and 'text' in title
/// and student.name in author`, distinct docids.
pub fn q2_for(w: &World, advisor: &str) -> BenchQuery {
    let student = w.catalog.table("student").expect("world has student");
    let mut engine = paper::q2(w);
    engine.local_pred = Pred::eq(student.col("advisor"), advisor);
    let wanted = advisor.to_owned();
    BenchQuery {
        label: format!("q2[{advisor}]"),
        engine: EngineQuery::Single(engine),
        reference: RefQuery::single(
            "student",
            Box::new(move |r| r.get("advisor") == Some(wanted.as_str())),
            &[("text", "title")],
            &[("name", "author")],
            Shape::DocIds,
        ),
    }
}

/// Q2 for the world's anchor advisor (the paper's 'Garcia').
pub fn q2(w: &World) -> BenchQuery {
    let mut q = q2_for(w, &w.anchor_advisor);
    q.label = "q2".into();
    q
}

/// Q3: `project.sponsor = 'NSF' and project.name in title and
/// project.member in author`, all columns.
pub fn q3(w: &World) -> BenchQuery {
    BenchQuery {
        label: "q3".into(),
        engine: EngineQuery::Single(paper::q3(w)),
        reference: RefQuery::single(
            "project",
            Box::new(|r| r.s("sponsor") == "NSF"),
            &[],
            &[("name", "title"), ("member", "author")],
            Shape::Full,
        ),
    }
}

/// Q4: `student.area = 'distributed systems' and student.advisor in
/// author and student.name in author`, all columns.
pub fn q4(w: &World) -> BenchQuery {
    BenchQuery {
        label: "q4".into(),
        engine: EngineQuery::Single(paper::q4(w)),
        reference: RefQuery::single(
            "student",
            Box::new(|r| r.s("area") == "distributed systems"),
            &[],
            &[("advisor", "author"), ("name", "author")],
            Shape::Full,
        ),
    }
}

/// Q5: `student.name in author and faculty.name in author and
/// faculty.dept != student.dept and '1993' in year`, all columns.
pub fn q5(w: &World) -> BenchQuery {
    BenchQuery {
        label: "q5".into(),
        engine: EngineQuery::Multi(paper::q5(w)),
        reference: RefQuery {
            relations: vec![
                RefRelation {
                    name: "student".into(),
                    keep: Box::new(|_| true),
                },
                RefRelation {
                    name: "faculty".into(),
                    keep: Box::new(|_| true),
                },
            ],
            rel_joins: vec![RefRelJoin {
                left: (0, "dept".into()),
                right: (1, "dept".into()),
                equal: false,
            }],
            selections: vec![("1993".into(), "year".into())],
            foreign: vec![
                (0, "name".into(), "author".into()),
                (1, "name".into(), "author".into()),
            ],
            shape: Shape::Full,
        },
    }
}

/// Q6: `project.sponsor = 'NSF' and project.member = student.name and
/// project.name in title and student.name in author`, all columns.
pub fn q6(w: &World) -> BenchQuery {
    BenchQuery {
        label: "q6".into(),
        engine: EngineQuery::Multi(paper::q6(w)),
        reference: RefQuery {
            relations: vec![
                RefRelation {
                    name: "project".into(),
                    keep: Box::new(|r| r.s("sponsor") == "NSF"),
                },
                RefRelation {
                    name: "student".into(),
                    keep: Box::new(|_| true),
                },
            ],
            rel_joins: vec![RefRelJoin {
                left: (0, "member".into()),
                right: (1, "name".into()),
                equal: true,
            }],
            selections: Vec::new(),
            foreign: vec![
                (0, "name".into(), "title".into()),
                (1, "name".into(), "author".into()),
            ],
            shape: Shape::Full,
        },
    }
}

/// The `lookup` pass: Q1, then Q2 once for each advisor in `faculty`.
pub fn lookup_pass(w: &World) -> Vec<BenchQuery> {
    let faculty = w.catalog.table("faculty").expect("world has faculty");
    let name = faculty.col("name");
    let mut out = vec![q1(w)];
    for row in faculty.iter() {
        let advisor = row
            .get(name)
            .as_str()
            .expect("faculty names are strings")
            .to_owned();
        out.push(q2_for(w, &advisor));
    }
    out
}

/// The specs a `serve-sharded` tenant repeats: Q1–Q4 as one-relation
/// multi-join specs, plus Q6.
pub fn serve_specs(w: &World) -> Vec<BenchQuery> {
    vec![
        q1(w).into_multi(),
        q2(w).into_multi(),
        q3(w).into_multi(),
        q4(w).into_multi(),
        q6(w),
    ]
}
