//! Named correctness checks. A failed check is kept with its first
//! detail and a count; any failure makes the run exit non-zero.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use textjoin_rel::table::Table;
use textjoin_text::server::{CostConstants, Usage};

/// The failed checks of one run.
#[derive(Debug, Default)]
pub struct Checks {
    failures: BTreeMap<String, (u64, String)>,
}

impl Checks {
    /// Records a failure of check `name`.
    pub fn fail(&mut self, name: impl Into<String>, detail: impl Into<String>) {
        let detail = detail.into();
        self.failures.entry(name.into()).or_insert((0, detail)).0 += 1;
    }

    /// Records a failure of `name` when `result` is an error.
    pub fn require(&mut self, name: impl FnOnce() -> String, result: Result<(), String>) {
        if let Err(detail) = result {
            self.fail(name(), detail);
        }
    }

    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// One line per failed check: name, failure count, first detail.
    pub fn lines(&self) -> Vec<String> {
        self.failures
            .iter()
            .map(|(name, (n, detail))| format!("check failed: {name} (x{n}): {detail}"))
            .collect()
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Field-by-field equality of two ledgers: counts exactly, simulated
/// seconds to a relative 1e-9.
pub fn same_usage(a: &Usage, b: &Usage) -> Result<(), String> {
    let counts = [
        ("invocations", a.invocations, b.invocations),
        ("rejected", a.rejected, b.rejected),
        ("postings", a.postings_processed, b.postings_processed),
        ("docs_short", a.docs_short, b.docs_short),
        ("docs_long", a.docs_long, b.docs_long),
        ("faults", a.faults, b.faults),
        ("retries", a.retries, b.retries),
    ];
    for (name, x, y) in counts {
        if x != y {
            return Err(format!("{name}: {x} != {y}"));
        }
    }
    let times = [
        ("time_invocation", a.time_invocation, b.time_invocation),
        ("time_processing", a.time_processing, b.time_processing),
        (
            "time_transmission",
            a.time_transmission,
            b.time_transmission,
        ),
        ("time_backoff", a.time_backoff, b.time_backoff),
    ];
    for (name, x, y) in times {
        if !close(x, y) {
            return Err(format!("{name}: {x} != {y}"));
        }
    }
    Ok(())
}

/// The text charges a ledger's counts imply at the server's constants.
pub fn priced(k: &CostConstants, u: &Usage) -> f64 {
    k.c_i * u.invocations as f64
        + k.c_p * u.postings_processed as f64
        + k.c_s * u.docs_short as f64
        + k.c_l * u.docs_long as f64
        + u.time_backoff
}

/// Checks that a reported total decomposes into the ledger delta's text
/// charges plus `c_a`·comparisons plus `c_pair`·pairs.
pub fn decomposes(
    k: &CostConstants,
    text: &Usage,
    total: f64,
    c_a: f64,
    comparisons: u64,
    c_pair: f64,
    pairs: u64,
) -> Result<(), String> {
    let text_cost = priced(k, text);
    if !close(text_cost, text.total_cost()) {
        return Err(format!(
            "text ledger {} != priced counts {text_cost}",
            text.total_cost()
        ));
    }
    let expected = text_cost + c_a * comparisons as f64 + c_pair * pairs as f64;
    if !close(total, expected) {
        return Err(format!(
            "total {total} != text {text_cost} + c_a·{comparisons} + c_pair·{pairs}"
        ));
    }
    Ok(())
}

/// A fingerprint of a table's rows, in output order.
pub fn rows_hash(t: &Table) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    t.len().hash(&mut h);
    for row in t.iter() {
        row.to_string().hash(&mut h);
    }
    h.finish()
}

/// What one query produced, for the repeat-determinism check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Bits of the simulated cost.
    pub cost_bits: u64,
    /// [`rows_hash`] of the output.
    pub rows: u64,
}

impl Fingerprint {
    /// The fingerprint of a cost and an output table.
    pub fn of(cost: f64, t: &Table) -> Fingerprint {
        Fingerprint {
            cost_bits: cost.to_bits(),
            rows: rows_hash(t),
        }
    }
}

/// Remembers each query's first fingerprint and checks every repeat
/// against it.
#[derive(Debug, Default)]
pub struct Repeats {
    first: Vec<Option<Fingerprint>>,
}

impl Repeats {
    /// Checks query `idx`'s fingerprint against its first run.
    pub fn check(&mut self, idx: usize, fp: Fingerprint) -> Result<(), String> {
        if self.first.len() <= idx {
            self.first.resize(idx + 1, None);
        }
        match self.first[idx] {
            None => {
                self.first[idx] = Some(fp);
                Ok(())
            }
            Some(first) if first == fp => Ok(()),
            Some(first) => Err(format!(
                "repeat differs: cost {} vs {}, rows {:x} vs {:x}",
                f64::from_bits(fp.cost_bits),
                f64::from_bits(first.cost_bits),
                fp.rows,
                first.rows
            )),
        }
    }
}
