//! An independent reference join.
//!
//! Every query the benchmark times is also answered here, without the
//! engine's string matcher (`rel::strmatch`), its inverted index, its query
//! preparation or its local-predicate evaluator. Relations are read as raw
//! rows from the catalog and documents as raw field values from the
//! collection's document store; local selections are plain closures over
//! the row. The output is compared with every result the engine returns.
//!
//! Matching semantics: a needle matches a field value when its words occur
//! there as a contiguous run of whole words, where a word is a maximal run
//! of alphanumeric characters, case-folded. A NULL or blank needle never
//! matches, and a match never spans two values of a multi-valued field.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use textjoin_rel::catalog::Catalog;
use textjoin_rel::table::Table;
use textjoin_rel::value::Value;
use textjoin_text::doc::DocId;
use textjoin_text::index::Collection;

/// Splits `s` into case-folded alphanumeric runs.
pub fn words(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for c in s.chars() {
        if c.is_alphanumeric() {
            cur.extend(c.to_lowercase());
        } else if !cur.is_empty() {
            out.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// One raw relation row: rendered values by column name, NULL as `None`.
#[derive(Debug, Clone)]
pub struct Row {
    cols: Vec<(String, Option<String>)>,
    /// The row rendered the way output rows are keyed.
    key: String,
}

impl Row {
    fn from_table(table: &Table, i: usize) -> Row {
        let tuple = &table.rows()[i];
        let cols = table
            .schema()
            .iter()
            .map(|(c, def)| {
                let v = match tuple.get(c) {
                    Value::Null => None,
                    Value::Int(n) => Some(n.to_string()),
                    Value::Str(s) => Some(s.clone()),
                };
                (def.name.clone(), v)
            })
            .collect::<Vec<_>>();
        let key = render_values(tuple.values());
        Row { cols, key }
    }

    /// Every row of catalog relation `name`, in storage order.
    pub fn all(catalog: &Catalog, name: &str) -> Vec<Row> {
        let table = relation(catalog, name);
        (0..table.len())
            .map(|i| Row::from_table(table, i))
            .collect()
    }

    /// The row's output key: its values rendered and joined.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The value of column `name` (`None` for NULL).
    pub fn get(&self, name: &str) -> Option<&str> {
        self.cols
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("reference row has no column {name:?}"))
            .1
            .as_deref()
    }

    /// The string value of column `name`, `""` for NULL.
    pub fn s(&self, name: &str) -> &str {
        self.get(name).unwrap_or("")
    }

    /// The integer value of column `name`, `i64::MIN` for NULL.
    pub fn i(&self, name: &str) -> i64 {
        self.get(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(i64::MIN)
    }
}

fn render_values(values: &[Value]) -> String {
    let parts: Vec<String> = values.iter().map(|v| v.to_string()).collect();
    parts.join("\u{1f}")
}

/// A local selection on one relation.
pub type Filter = Box<dyn Fn(&Row) -> bool>;

/// One relation of a reference query.
pub struct RefRelation {
    /// Catalog name.
    pub name: String,
    /// Local selection.
    pub keep: Filter,
}

/// A relational join predicate between relation columns.
pub struct RefRelJoin {
    /// `(relation index, column)` on the left.
    pub left: (usize, String),
    /// `(relation index, column)` on the right.
    pub right: (usize, String),
    /// `true` for `=`, `false` for `!=` (NULL never satisfies either).
    pub equal: bool,
}

/// What the query returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One row per (combination of relation rows, matching document).
    Full,
    /// The distinct matching docids.
    DocIds,
}

/// A join query over relations and the document collection, described
/// independently of the engine's query types.
pub struct RefQuery {
    /// The relations, in the engine query's order.
    pub relations: Vec<RefRelation>,
    /// Relational join predicates.
    pub rel_joins: Vec<RefRelJoin>,
    /// Constant phrase selections `(phrase, field name)`.
    pub selections: Vec<(String, String)>,
    /// Foreign predicates `(relation index, column, field name)`.
    pub foreign: Vec<(usize, String, String)>,
    /// The result shape.
    pub shape: Shape,
}

impl RefQuery {
    /// A query over a single relation.
    pub fn single(
        relation: &str,
        keep: Filter,
        selections: &[(&str, &str)],
        foreign: &[(&str, &str)],
        shape: Shape,
    ) -> RefQuery {
        RefQuery {
            relations: vec![RefRelation {
                name: relation.to_owned(),
                keep,
            }],
            rel_joins: Vec::new(),
            selections: selections
                .iter()
                .map(|(p, f)| ((*p).to_owned(), (*f).to_owned()))
                .collect(),
            foreign: foreign
                .iter()
                .map(|(c, f)| (0, (*c).to_owned(), (*f).to_owned()))
                .collect(),
            shape,
        }
    }
}

/// The expected result of one query as a multiset of output keys.
pub type Expected = BTreeMap<String, usize>;

/// Which phrases the reference must answer, per field name.
#[derive(Default)]
pub struct Needles {
    by_field: BTreeMap<String, BTreeSet<Vec<String>>>,
}

impl Needles {
    /// Collects every selection phrase and every foreign-column value the
    /// queries can ask for.
    pub fn collect(catalog: &Catalog, queries: &[&RefQuery]) -> Needles {
        let mut n = Needles::default();
        for q in queries {
            for (phrase, field) in &q.selections {
                n.add(field, phrase);
            }
            for (rel, col, field) in &q.foreign {
                for row in Row::all(catalog, &q.relations[*rel].name) {
                    if let Some(v) = row.get(col) {
                        n.add(field, v);
                    }
                }
            }
        }
        n
    }

    fn add(&mut self, field: &str, phrase: &str) {
        let w = words(phrase);
        if !w.is_empty() {
            self.by_field.entry(field.to_owned()).or_default().insert(w);
        }
    }
}

fn relation<'a>(catalog: &'a Catalog, name: &str) -> &'a Table {
    catalog
        .table(name)
        .unwrap_or_else(|| panic!("catalog has no relation {name:?}"))
}

/// Phrase → documents, for exactly the phrases a set of queries needs.
/// Built once, outside the timed part of a run.
pub struct PhraseDocs {
    map: HashMap<(String, Vec<String>), BTreeSet<DocId>>,
    all_docs: BTreeSet<DocId>,
}

impl PhraseDocs {
    /// Scans every document's raw field values for the needles.
    pub fn build(coll: &Collection, needles: &Needles) -> PhraseDocs {
        let mut map: HashMap<(String, Vec<String>), BTreeSet<DocId>> = HashMap::new();
        // Per needed field: its id, name, needle set and needle lengths.
        let fields: Vec<_> = needles
            .by_field
            .iter()
            .map(|(name, set)| {
                let fid = coll
                    .schema()
                    .resolve(name)
                    .unwrap_or_else(|| panic!("text schema has no field {name:?}"));
                let lens: BTreeSet<usize> = set.iter().map(Vec::len).collect();
                (fid, name, set, lens)
            })
            .collect();
        let mut all_docs = BTreeSet::new();
        for i in 0..coll.doc_count() {
            let id = DocId(i as u32);
            let doc = coll.document(id).expect("docids are dense");
            all_docs.insert(id);
            for (fid, name, set, lens) in &fields {
                for value in doc.values(*fid) {
                    let w = words(value);
                    for &len in lens {
                        for window in w.windows(len) {
                            if set.contains(window) {
                                map.entry(((*name).clone(), window.to_vec()))
                                    .or_default()
                                    .insert(id);
                            }
                        }
                    }
                }
            }
        }
        PhraseDocs { map, all_docs }
    }

    /// Documents whose `field` contains `needle`; empty for a NULL or
    /// blank needle.
    pub fn docs(&self, field: &str, needle: Option<&str>) -> BTreeSet<DocId> {
        let w = words(needle.unwrap_or(""));
        if w.is_empty() {
            return BTreeSet::new();
        }
        self.map
            .get(&(field.to_owned(), w))
            .cloned()
            .unwrap_or_default()
    }

    /// The expected result of `q`.
    pub fn expected(&self, catalog: &Catalog, q: &RefQuery) -> Expected {
        let mut base = self.all_docs.clone();
        for (phrase, field) in &q.selections {
            base = intersect(&base, &self.docs(field, Some(phrase)));
        }
        // Each relation's qualifying rows with the documents their own
        // foreign predicates allow.
        let per_rel: Vec<Vec<(Row, BTreeSet<DocId>)>> = q
            .relations
            .iter()
            .enumerate()
            .map(|(ri, r)| {
                Row::all(catalog, &r.name)
                    .into_iter()
                    .filter(|row| (r.keep)(row))
                    .map(|row| {
                        let mut docs = base.clone();
                        for (rel, col, field) in &q.foreign {
                            if *rel == ri {
                                docs = intersect(&docs, &self.docs(field, row.get(col)));
                            }
                        }
                        (row, docs)
                    })
                    .collect()
            })
            .collect();
        let mut out = Expected::new();
        let mut chosen: Vec<&(Row, BTreeSet<DocId>)> = Vec::new();
        combine(q, &per_rel, &mut chosen, &mut out);
        out
    }
}

fn intersect(a: &BTreeSet<DocId>, b: &BTreeSet<DocId>) -> BTreeSet<DocId> {
    a.intersection(b).copied().collect()
}

/// Nested loop over the relations' qualifying rows; emits the keys of
/// every combination that satisfies the relational joins.
fn combine<'a>(
    q: &RefQuery,
    per_rel: &'a [Vec<(Row, BTreeSet<DocId>)>],
    chosen: &mut Vec<&'a (Row, BTreeSet<DocId>)>,
    out: &mut Expected,
) {
    let depth = chosen.len();
    if depth == per_rel.len() {
        let mut docs = chosen[0].1.clone();
        for c in &chosen[1..] {
            docs = intersect(&docs, &c.1);
        }
        let rows: Vec<&str> = chosen.iter().map(|c| c.0.key.as_str()).collect();
        for d in docs {
            let key = match q.shape {
                Shape::Full => full_key(&rows, d),
                Shape::DocIds => d.to_string(),
            };
            let n = out.entry(key).or_insert(0);
            if q.shape == Shape::Full {
                *n += 1;
            } else {
                *n = 1;
            }
        }
        return;
    }
    for cand in &per_rel[depth] {
        chosen.push(cand);
        let ok = q.rel_joins.iter().all(|j| {
            let (l, r) = (j.left.0, j.right.0);
            if l.max(r) != depth {
                return true;
            }
            match (chosen[l].0.get(&j.left.1), chosen[r].0.get(&j.right.1)) {
                (Some(a), Some(b)) => (a == b) == j.equal,
                _ => false,
            }
        });
        if ok {
            combine(q, per_rel, chosen, out);
        }
        chosen.pop();
    }
}

/// The key of one `Full` output row: the relation rows' keys and the
/// docid.
pub fn full_key(rows: &[&str], doc: DocId) -> String {
    format!("{}\u{1e}{doc}", rows.join("\u{1e}"))
}

/// Keys an engine output table the way [`PhraseDocs::expected`] keys the
/// reference result. Relation columns are found by qualified name
/// (`relation.column`, as multi-join plans name them) or else by bare name
/// (as single-join methods name them); the document by its `docid` column.
pub fn output_keys(catalog: &Catalog, q: &RefQuery, out: &Table) -> Result<Expected, String> {
    let schema = out.schema();
    let docid = schema
        .column_by_name("docid")
        .ok_or_else(|| "output has no docid column".to_owned())?;
    let mut rel_cols = Vec::new();
    if q.shape == Shape::Full {
        for r in &q.relations {
            for (_, def) in relation(catalog, &r.name).schema().iter() {
                let qualified = format!("{}.{}", r.name, def.name);
                let c = schema
                    .column_by_name(&qualified)
                    .or_else(|| schema.column_by_name(&def.name))
                    .ok_or_else(|| format!("output has no column for {qualified}"))?;
                rel_cols.push((r.name.as_str(), c));
            }
        }
    }
    let mut keys = Expected::new();
    for row in out.iter() {
        let doc = match row.get(docid) {
            Value::Str(s) => s.clone(),
            other => return Err(format!("docid column holds {other}")),
        };
        let key = match q.shape {
            Shape::DocIds => doc,
            Shape::Full => {
                let mut rows: Vec<String> = Vec::new();
                for r in &q.relations {
                    let vals: Vec<Value> = rel_cols
                        .iter()
                        .filter(|(n, _)| *n == r.name)
                        .map(|(_, c)| row.get(*c).clone())
                        .collect();
                    rows.push(render_values(&vals));
                }
                format!("{}\u{1e}{doc}", rows.join("\u{1e}"))
            }
        };
        let n = keys.entry(key).or_insert(0);
        if q.shape == Shape::Full {
            *n += 1;
        } else {
            *n = 1;
        }
    }
    Ok(keys)
}

/// Compares an engine output with the expected result; on a mismatch,
/// says how many keys are missing and how many are unexpected.
pub fn compare(
    catalog: &Catalog,
    q: &RefQuery,
    expected: &Expected,
    out: &Table,
) -> Result<(), String> {
    let got = output_keys(catalog, q, out)?;
    if &got == expected {
        return Ok(());
    }
    let missing: usize = expected
        .iter()
        .map(|(k, n)| n.saturating_sub(got.get(k).copied().unwrap_or(0)))
        .sum();
    let extra: usize = got
        .iter()
        .map(|(k, n)| n.saturating_sub(expected.get(k).copied().unwrap_or(0)))
        .sum();
    Err(format!(
        "{missing} expected rows missing, {extra} unexpected rows (expected {}, got {})",
        expected.values().sum::<usize>(),
        got.values().sum::<usize>()
    ))
}
