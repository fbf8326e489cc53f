//! Database crawling and fragment indexing (Section V of the paper).
//!
//! Dash crawls the **database**, not the web: starting from the analyzed
//! application query it derives every db-page fragment and indexes it.
//! Two MapReduce workflows implement this:
//!
//! * [`stepwise`] — join all operand relations (payload and all), group
//!   the joined records by selection-attribute values, then index each
//!   group. Simple, but projection payloads ride through every shuffle.
//! * [`integrated`] — derive query parameters first (join only selection
//!   attributes, join attributes and duplicate counts θ), then extract
//!   keywords per operand relation with multiplicity Θ_i = Πθ_x/θ_i, then
//!   consolidate. Payloads never enter a join shuffle.
//!
//! Both produce identical fragments (tested against each other and
//! against the in-memory [`reference`](mod@reference) crawler); they differ — by design —
//! in their [`WorkflowStats`].

pub mod integrated;
pub mod reference;
pub mod stepwise;

use dash_mapreduce::{ByteSized, ClusterConfig, WorkflowStats};
use dash_relation::{Database, Value};
use dash_webapp::WebApplication;
use serde::{Deserialize, Serialize};

use crate::fragment::Fragment;
use crate::Result;

/// Which crawling/indexing algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CrawlAlgorithm {
    /// The stepwise algorithm (Section V-A) — "SW" in Figure 10.
    Stepwise,
    /// The integrated algorithm (Section V-B) — "INT" in Figure 10.
    /// The paper's recommended default.
    #[default]
    Integrated,
}

/// The result of a crawl: every db-page fragment plus the MapReduce
/// workflow statistics (the raw material of Figure 10).
#[derive(Debug, Clone)]
pub struct CrawlOutput {
    /// All derived fragments, sorted by identifier.
    pub fragments: Vec<Fragment>,
    /// Per-job meters and simulated elapsed time.
    pub stats: WorkflowStats,
}

/// Runs the selected crawling + indexing workflow.
///
/// # Errors
///
/// Propagates relational errors (schema lookups) and
/// [`crate::CoreError::UnsupportedQuery`] for query shapes outside
/// Definition 1.
pub fn run(
    app: &WebApplication,
    db: &Database,
    cluster: &ClusterConfig,
    algorithm: CrawlAlgorithm,
) -> Result<CrawlOutput> {
    run_scoped(
        app,
        db,
        cluster,
        algorithm,
        &crate::scope::CrawlScope::all(),
    )
}

/// [`run`] restricted to a [`CrawlScope`](crate::scope::CrawlScope) — the selective-crawling
/// tradeoff of Section VIII. Out-of-scope fragments are dropped *early*
/// (at grouping time for stepwise, before extraction for integrated), so
/// the scope shrinks the downstream jobs, not just the output.
///
/// # Errors
///
/// Same as [`run`].
pub fn run_scoped(
    app: &WebApplication,
    db: &Database,
    cluster: &ClusterConfig,
    algorithm: CrawlAlgorithm,
    scope: &crate::scope::CrawlScope,
) -> Result<CrawlOutput> {
    match algorithm {
        CrawlAlgorithm::Stepwise => stepwise::run_scoped(app, db, cluster, scope),
        CrawlAlgorithm::Integrated => integrated::run_scoped(app, db, cluster, scope),
    }
}

/// A record travelling through a MapReduce job: a plain value vector.
/// (Newtype so the byte-metering [`ByteSized`] impl lives in this crate.)
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub(crate) struct Row(pub Vec<Value>);

/// A shuffle key: a value vector with `Ord + Hash`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub(crate) struct Key(pub Vec<Value>);

fn values_byte_size(values: &[Value]) -> usize {
    4 + values
        .iter()
        .map(|v| match v {
            Value::Null => 1,
            Value::Int(_) => 8,
            Value::Decimal(_) => 8,
            Value::Str(s) => s.len() + 4,
            Value::Date(_) => 4,
        })
        .sum::<usize>()
}

impl ByteSized for Row {
    fn byte_size(&self) -> usize {
        values_byte_size(&self.0)
    }
}

impl ByteSized for Key {
    fn byte_size(&self) -> usize {
        values_byte_size(&self.0)
    }
}

/// Extracts the keyword tokens of a projected value vector, in render
/// order (NULLs render empty and contribute nothing).
pub(crate) fn keywords_of<'v>(values: impl IntoIterator<Item = &'v Value>) -> Vec<String> {
    let mut out = Vec::new();
    for v in values {
        let rendered = v.render();
        if !rendered.is_empty() {
            dash_text::tokenize_into(&rendered, &mut out);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_and_key_byte_sizes() {
        let row = Row(vec![Value::str("abc"), Value::Int(1), Value::Null]);
        assert_eq!(row.byte_size(), 4 + 7 + 8 + 1);
        let key = Key(vec![Value::Int(2)]);
        assert_eq!(key.byte_size(), 12);
    }

    #[test]
    fn keyword_extraction_skips_nulls() {
        let kws = keywords_of(&[Value::str("Burger Queen"), Value::Null, Value::Int(10)]);
        assert_eq!(kws, vec!["burger", "queen", "10"]);
    }

    #[test]
    fn default_algorithm_is_integrated() {
        assert_eq!(CrawlAlgorithm::default(), CrawlAlgorithm::Integrated);
    }
}
